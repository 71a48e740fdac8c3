package coin

import (
	"bytes"
	"encoding/hex"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/gf2k"
	"repro/internal/simnet"
)

// streamOp is one step of the stream-equivalence script: every player runs
// the same script in lockstep.
type streamOp struct {
	kind  byte // 'N' ExposeN(count), 'E' Expose, 'D' Discard(count), 'T' DetachTail(count)
	count int
}

// dealStores deals `sizes` batches for n players and returns one store per
// player. Consecutive batches alternate between two reconstruction sets, so
// a vector crossing a batch boundary would mix two point lists if the store
// let it.
func dealStores(t *testing.T, f gf2k.Field, n, tf int, sizes []int, seed int64) []*Store {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	stores := make([]*Store, n)
	for i := range stores {
		stores[i] = &Store{Universe: n}
	}
	for bi, size := range sizes {
		batches, _, err := DealTrusted(f, n, tf, size, rng)
		if err != nil {
			t.Fatal(err)
		}
		for i, b := range batches {
			if bi%2 == 1 {
				// DealTrusted hands every player a share, so any 3t+1
				// players reconstruct: use the LAST 3t+1 here.
				s := make([]int, 3*tf+1)
				for j := range s {
					s[j] = n - len(s) + j
				}
				b.S = s
			}
			if err := stores[i].Add(b); err != nil {
				t.Fatal(err)
			}
		}
	}
	return stores
}

// cloneStores copies stores through the wire format, which also drops every
// batch's runtime scratch: the clone rebuilds it on first exposure.
func cloneStores(t *testing.T, stores []*Store) []*Store {
	t.Helper()
	out := make([]*Store, len(stores))
	for i, st := range stores {
		blob, err := st.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if out[i], err = UnmarshalStore(blob); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// batchesSpanned reports how many batches the next k coins of st lie in.
func batchesSpanned(st *Store, k int) int {
	touched := 0
	for _, b := range st.Batches() {
		if k == 0 {
			break
		}
		if r := b.Remaining(); r > 0 {
			touched++
			if r > k {
				r = k
			}
			k -= r
		}
	}
	return touched
}

type streamResult struct {
	vals   []gf2k.Element
	rounds int // rounds the vector calls should have cost: batches touched
}

// runStream runs the script on every player's store. With vector set, 'N'
// ops are one ExposeN; otherwise they are `count` single Exposes — the
// reference stream.
func runStream(t *testing.T, stores []*Store, ops []streamOp, vector bool) []streamResult {
	t.Helper()
	n := len(stores)
	fns := make([]simnet.PlayerFunc, n)
	for i := range fns {
		st := stores[i]
		fns[i] = func(nd *simnet.Node) (interface{}, error) {
			var res streamResult
			// open reveals the next k coins of from: one vector, or k singles.
			open := func(from *Store, k int) error {
				if vector {
					res.rounds += batchesSpanned(from, k)
					vals, err := from.ExposeN(nd, k)
					res.vals = append(res.vals, vals...)
					return err
				}
				for c := 0; c < k; c++ {
					v, err := from.Expose(nd)
					if err != nil {
						return err
					}
					res.vals = append(res.vals, v)
				}
				return nil
			}
			tails := []*Store{}
			for oi, op := range ops {
				var err error
				switch op.kind {
				case 'N':
					err = open(st, op.count)
				case 'E':
					res.rounds++
					var v gf2k.Element
					v, err = st.Expose(nd)
					res.vals = append(res.vals, v)
				case 'D':
					err = st.Discard(op.count)
				case 'T':
					var tail *Store
					tail, err = st.DetachTail(op.count)
					tails = append(tails, tail)
				}
				if err != nil {
					return nil, fmt.Errorf("op %d (%c %d): %w", oi, op.kind, op.count, err)
				}
			}
			// The detached tails are split batches with no scratch of their
			// own: open them too, newest first, whole.
			for ti := len(tails) - 1; ti >= 0; ti-- {
				if err := open(tails[ti], tails[ti].Remaining()); err != nil {
					return nil, fmt.Errorf("tail %d: %w", ti, err)
				}
			}
			if vector && nd.Round() != res.rounds {
				return nil, fmt.Errorf("vector stream cost %d rounds, want %d (one per batch touched)", nd.Round(), res.rounds)
			}
			return res, nil
		}
	}
	out := make([]streamResult, n)
	for i, r := range simnet.Run(simnet.New(n), fns) {
		if r.Err != nil {
			t.Fatalf("player %d (vector=%v): %v", i, vector, r.Err)
		}
		out[i] = r.Value.(streamResult)
	}
	return out
}

// TestExposeNStreamEquivalence is the vector kernel's contract, property
// style: whatever mix of ExposeN / Expose / Discard / DetachTail a lockstep
// caller issues, across batch boundaries and changes of reconstruction set,
// the vector stream is the one-at-a-time stream — same values, same cursors,
// same Remaining — and it pays one round per batch touched.
func TestExposeNStreamEquivalence(t *testing.T) {
	f := gf2k.MustNew(32)
	const n, tf = 7, 1
	for seed := int64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		sizes := make([]int, 4+rng.Intn(4))
		total := 0
		for i := range sizes {
			sizes[i] = 1 + rng.Intn(90)
			total += sizes[i]
		}
		var ops []streamOp
		for rem := total; rem > 1; {
			op := streamOp{kind: "NNNEDT"[rng.Intn(6)]}
			switch op.kind {
			case 'N':
				op.count = 1 + rng.Intn(64)
				if op.count > rem {
					op.count = rem
				}
				rem -= op.count
			case 'E':
				rem--
			case 'D':
				op.count = rng.Intn(6)
				if op.count > rem {
					op.count = rem
				}
				rem -= op.count
			case 'T':
				op.count = 1 + rng.Intn(8)
				if op.count >= rem {
					continue
				}
				rem -= op.count
			}
			ops = append(ops, op)
		}

		ref := dealStores(t, f, n, tf, sizes, 100+seed)
		vec := cloneStores(t, ref)
		want := runStream(t, ref, ops, false)
		got := runStream(t, vec, ops, true)
		for i := range got {
			if len(got[i].vals) != len(want[i].vals) {
				t.Fatalf("seed %d player %d: vector stream has %d coins, reference %d", seed, i, len(got[i].vals), len(want[i].vals))
			}
			for h := range want[i].vals {
				if got[i].vals[h] != want[i].vals[h] || got[i].vals[h] != want[0].vals[h] {
					t.Fatalf("seed %d player %d coin %d: vector %#x, reference %#x, player 0 %#x",
						seed, i, h, got[i].vals[h], want[i].vals[h], want[0].vals[h])
				}
			}
			if vec[i].Remaining() != ref[i].Remaining() {
				t.Fatalf("seed %d player %d: Remaining %d vs reference %d", seed, i, vec[i].Remaining(), ref[i].Remaining())
			}
			vb, rb := vec[i].Batches(), ref[i].Batches()
			if len(vb) != len(rb) {
				t.Fatalf("seed %d player %d: %d batches left vs reference %d", seed, i, len(vb), len(rb))
			}
			for bi := range vb {
				if vb[bi].Cursor() != rb[bi].Cursor() {
					t.Fatalf("seed %d player %d batch %d: cursor %d vs reference %d", seed, i, bi, vb[bi].Cursor(), rb[bi].Cursor())
				}
			}
		}
	}
}

// TestExposeNAllOrNothing: a vector wider than what is left fails with
// ErrExhausted before anything is sent — no round, no cursor movement — on
// the batch and on the store.
func TestExposeNAllOrNothing(t *testing.T) {
	f := gf2k.MustNew(32)
	stores := dealStores(t, f, 4, 1, []int{3, 2}, 5)
	fns := make([]simnet.PlayerFunc, 4)
	for i := range fns {
		st := stores[i]
		fns[i] = func(nd *simnet.Node) (interface{}, error) {
			if _, err := st.ExposeN(nd, 6); !errors.Is(err, ErrExhausted) {
				return nil, fmt.Errorf("store ExposeN(6) of 5: %v, want ErrExhausted", err)
			}
			if _, err := st.Batches()[0].ExposeN(nd, 4); !errors.Is(err, ErrExhausted) {
				return nil, fmt.Errorf("batch ExposeN(4) of 3: %v, want ErrExhausted", err)
			}
			if _, err := st.ExposeN(nd, 0); err == nil || errors.Is(err, ErrExhausted) {
				return nil, fmt.Errorf("ExposeN(0): %v, want a plain error", err)
			}
			if nd.Round() != 0 || st.Remaining() != 5 {
				return nil, fmt.Errorf("failed vectors cost %d rounds and left %d coins", nd.Round(), st.Remaining())
			}
			return st.ExposeN(nd, 5)
		}
	}
	var first []gf2k.Element
	for i, r := range simnet.Run(simnet.New(4), fns) {
		if r.Err != nil {
			t.Fatalf("player %d: %v", i, r.Err)
		}
		vals := r.Value.([]gf2k.Element)
		if i == 0 {
			first = vals
		}
		for h := range first {
			if vals[h] != first[h] {
				t.Fatalf("player %d coin %d differs from player 0", i, h)
			}
		}
	}
}

// TestExposeNAbortKeepsCursorAdvanced: the cursor moves past a vector before
// anything is sent, so when its round fails (here: the network's round
// budget runs out under the second vector) the k shares that may already be
// on the wire are never transmitted again by a retry.
func TestExposeNAbortKeepsCursorAdvanced(t *testing.T) {
	f := gf2k.MustNew(32)
	batches, _, err := DealTrusted(f, 4, 1, 20, rand.New(rand.NewSource(6)))
	if err != nil {
		t.Fatal(err)
	}
	nw := simnet.New(4, simnet.WithMaxRounds(0)) // round 0 completes, round 1 fails
	fns := make([]simnet.PlayerFunc, 4)
	for i := range fns {
		b := batches[i]
		fns[i] = func(nd *simnet.Node) (interface{}, error) {
			if _, err := b.ExposeN(nd, 3); err != nil {
				return nil, fmt.Errorf("first vector: %w", err)
			}
			if _, err := b.ExposeN(nd, 8); !errors.Is(err, simnet.ErrMaxRounds) {
				return nil, fmt.Errorf("second vector: %v, want the round failure", err)
			}
			if b.Cursor() != 11 || b.Remaining() != 9 {
				return nil, fmt.Errorf("after the failed vector: cursor %d, remaining %d, want 11 and 9", b.Cursor(), b.Remaining())
			}
			return nil, nil
		}
	}
	for i, r := range simnet.Run(nw, fns) {
		if r.Err != nil {
			t.Fatalf("player %d: %v", i, r.Err)
		}
	}
}

// TestExposeWireBytesUnchanged pins the k = 1 message: a single Expose sends
// the bare share, byte for byte what was recorded before Coin-Expose learned
// vectors (no length prefix, no framing), and a vector is the same encoding
// repeated.
func TestExposeWireBytesUnchanged(t *testing.T) {
	f := gf2k.MustNew(32)
	batches, vals, err := DealTrusted(f, 4, 1, 3, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	// Recorded from Batch.Expose at commit 194e9fc for this dealing: what
	// players 0..3 send in round 0.
	recorded := []string{"d1eae7ab", "3ad51998", "18c0b376", "ecaae5ff"}
	sent := make([][][]byte, 2) // [round][sender]
	for r := range sent {
		sent[r] = make([][]byte, 4)
	}
	rec := simnet.InterceptorFunc(func(d simnet.Deliverable) []simnet.Deliverable {
		if d.To == (d.From+1)%4 {
			sent[d.Round][d.From] = d.Payload
		}
		return d.Pass()
	})
	fns := make([]simnet.PlayerFunc, 4)
	for i := range fns {
		b := batches[i]
		fns[i] = func(nd *simnet.Node) (interface{}, error) {
			v, err := b.Expose(nd)
			if err != nil {
				return nil, err
			}
			if v != vals[0] {
				return nil, fmt.Errorf("opened %#x, dealt %#x", v, vals[0])
			}
			_, err = b.ExposeN(nd, 2)
			return nil, err
		}
	}
	for i, r := range simnet.Run(simnet.New(4, simnet.WithInterceptor(rec)), fns) {
		if r.Err != nil {
			t.Fatalf("player %d: %v", i, r.Err)
		}
	}
	for i, want := range recorded {
		if got := hex.EncodeToString(sent[0][i]); got != want {
			t.Errorf("player %d's single-coin message is %s, recorded %s", i, got, want)
		}
		vec := f.AppendElements(nil, batches[i].Shares[1:3])
		if !bytes.Equal(sent[1][i], vec) {
			t.Errorf("player %d's 2-vector message is %x, want the two shares back to back %x", i, sent[1][i], vec)
		}
	}
}

// roundAllocs reports the heap objects one lockstep round of a 4-player
// in-memory network allocates, all players together, when every player runs
// step once per round (after two warm-up rounds).
func roundAllocs(t *testing.T, step func(i int, nd *simnet.Node) error) float64 {
	t.Helper()
	const n, rounds = 4, 100
	nw := simnet.New(n)
	done := make(chan struct{})
	for i := 1; i < n; i++ {
		i, nd := i, nw.Node(i)
		go func() {
			defer func() { done <- struct{}{} }()
			// AllocsPerRun calls its function rounds+1 times.
			for r := 0; r < rounds+3; r++ {
				if err := step(i, nd); err != nil {
					t.Errorf("player %d: %v", i, err)
					return
				}
			}
			nd.Halt()
		}()
	}
	nd := nw.Node(0)
	run := func() {
		if err := step(0, nd); err != nil {
			t.Fatal(err)
		}
	}
	run()
	run()
	allocs := testing.AllocsPerRun(rounds, run)
	nd.Halt()
	for i := 1; i < n; i++ {
		<-done
	}
	return allocs
}

// TestExposeSteadyStateAllocs: once the first rounds have built the scratch,
// an exposure allocates a constant handful of objects on top of what the
// bare network round under it costs — its outgoing payload and the decoder's
// one domain-cache lookup — and nothing that grows with the point list: no
// sender map, no xs/ys grown from nil, no interpolant.
func TestExposeSteadyStateAllocs(t *testing.T) {
	f := gf2k.MustNew(32)
	batches, _, err := DealTrusted(f, 4, 1, 400, rand.New(rand.NewSource(8)))
	if err != nil {
		t.Fatal(err)
	}
	bare := roundAllocs(t, func(i int, nd *simnet.Node) error {
		nd.SendAll(make([]byte, 4))
		_, err := nd.EndRound()
		return err
	})
	expose := roundAllocs(t, func(i int, nd *simnet.Node) error {
		_, err := batches[i].Expose(nd)
		return err
	})
	t.Logf("objects per 4-player round: bare %.0f, expose %.0f", bare, expose)
	// Per player beyond the bare round: the domain-cache key (two objects).
	if perPlayer := (expose - bare) / 4; perPlayer > 3 {
		t.Fatalf("steady-state Expose allocates %.1f objects per player on top of the bare round (%.0f vs %.0f for 4 players), want ≤ 3",
			perPlayer, expose, bare)
	}
}
