package coin

import (
	"errors"
	"math/rand"
	"testing"

	"repro/internal/gf2k"
	"repro/internal/simnet"
)

// runExposeAll has every player expose `count` coins from its batch and
// returns the exposed sequences; faulty players run the given functions.
func runExposeAll(t *testing.T, batches []*Batch, count int, faulty map[int]simnet.PlayerFunc) []simnet.PlayerResult {
	t.Helper()
	n := len(batches)
	nw := simnet.New(n)
	fns := make([]simnet.PlayerFunc, n)
	for i := 0; i < n; i++ {
		if f, ok := faulty[i]; ok {
			fns[i] = f
			continue
		}
		b := batches[i]
		fns[i] = func(nd *simnet.Node) (interface{}, error) {
			var out []gf2k.Element
			for c := 0; c < count; c++ {
				e, err := b.Expose(nd)
				if err != nil {
					return nil, err
				}
				out = append(out, e)
			}
			return out, nil
		}
	}
	return simnet.Run(nw, fns)
}

func TestDealAndExposeUnanimity(t *testing.T) {
	f := gf2k.MustNew(32)
	rng := rand.New(rand.NewSource(1))
	for _, tc := range []struct{ n, t int }{{4, 1}, {7, 2}, {10, 3}} {
		const count = 5
		batches, values, err := DealTrusted(f, tc.n, tc.t, count, rng)
		if err != nil {
			t.Fatal(err)
		}
		results := runExposeAll(t, batches, count, nil)
		for i, r := range results {
			if r.Err != nil {
				t.Fatalf("n=%d player %d: %v", tc.n, i, r.Err)
			}
			got := r.Value.([]gf2k.Element)
			for h := range values {
				if got[h] != values[h] {
					t.Fatalf("n=%d player %d coin %d: %#x, want %#x", tc.n, i, h, got[h], values[h])
				}
			}
		}
	}
}

func TestExposeWithFaultyShareSenders(t *testing.T) {
	// t members of S send corrupted shares; Berlekamp–Welch absorbs them.
	f := gf2k.MustNew(32)
	rng := rand.New(rand.NewSource(2))
	n, tf, count := 7, 2, 4
	batches, values, err := DealTrusted(f, n, tf, count, rng)
	if err != nil {
		t.Fatal(err)
	}
	lie := func(b *Batch) simnet.PlayerFunc {
		return func(nd *simnet.Node) (interface{}, error) {
			for c := 0; c < count; c++ {
				// Send a corrupted share instead of the real one.
				nd.SendAll(b.Field.AppendElement(nil, b.Shares[c]^0xdeadbeef))
				if _, err := nd.EndRound(); err != nil {
					return nil, err
				}
			}
			return []gf2k.Element(nil), nil
		}
	}
	faulty := map[int]simnet.PlayerFunc{0: lie(batches[0]), 3: lie(batches[3])}
	results := runExposeAll(t, batches, count, faulty)
	for i, r := range results {
		if _, bad := faulty[i]; bad {
			continue
		}
		if r.Err != nil {
			t.Fatalf("player %d: %v", i, r.Err)
		}
		got := r.Value.([]gf2k.Element)
		for h := range values {
			if got[h] != values[h] {
				t.Fatalf("player %d coin %d: %#x, want %#x", i, h, got[h], values[h])
			}
		}
	}
}

func TestExposeWithSilentMembers(t *testing.T) {
	// t members of S stay silent; still t+2e+1-decodable since |S|=3t+1
	// leaves 2t+1 ≥ t+1 correct shares with zero errors... and the decoder
	// must cope with the shorter point list.
	f := gf2k.MustNew(32)
	rng := rand.New(rand.NewSource(3))
	n, tf, count := 7, 2, 3
	batches, values, err := DealTrusted(f, n, tf, count, rng)
	if err != nil {
		t.Fatal(err)
	}
	silent := func(nd *simnet.Node) (interface{}, error) {
		for c := 0; c < count; c++ {
			if _, err := nd.EndRound(); err != nil {
				return nil, err
			}
		}
		return []gf2k.Element(nil), nil
	}
	faulty := map[int]simnet.PlayerFunc{1: silent, 4: silent}
	results := runExposeAll(t, batches, count, faulty)
	for i, r := range results {
		if _, bad := faulty[i]; bad {
			continue
		}
		if r.Err != nil {
			t.Fatalf("player %d: %v", i, r.Err)
		}
		got := r.Value.([]gf2k.Element)
		for h := range values {
			if got[h] != values[h] {
				t.Fatalf("player %d coin %d: wrong value", i, h)
			}
		}
	}
}

func TestExposeMalformedShares(t *testing.T) {
	f := gf2k.MustNew(32)
	rng := rand.New(rand.NewSource(4))
	n, tf, count := 7, 2, 2
	batches, values, err := DealTrusted(f, n, tf, count, rng)
	if err != nil {
		t.Fatal(err)
	}
	garbage := func(nd *simnet.Node) (interface{}, error) {
		for c := 0; c < count; c++ {
			nd.SendAll([]byte{0x1}) // too short to be an element
			if _, err := nd.EndRound(); err != nil {
				return nil, err
			}
		}
		return []gf2k.Element(nil), nil
	}
	faulty := map[int]simnet.PlayerFunc{2: garbage}
	results := runExposeAll(t, batches, count, faulty)
	for i, r := range results {
		if _, bad := faulty[i]; bad {
			continue
		}
		if r.Err != nil {
			t.Fatalf("player %d: %v", i, r.Err)
		}
		got := r.Value.([]gf2k.Element)
		for h := range values {
			if got[h] != values[h] {
				t.Fatalf("player %d coin %d: wrong value", i, h)
			}
		}
	}
}

func TestBatchExhaustion(t *testing.T) {
	f := gf2k.MustNew(16)
	rng := rand.New(rand.NewSource(5))
	batches, _, err := DealTrusted(f, 4, 1, 1, rng)
	if err != nil {
		t.Fatal(err)
	}
	nw := simnet.New(4)
	fns := make([]simnet.PlayerFunc, 4)
	for i := range fns {
		b := batches[i]
		fns[i] = func(nd *simnet.Node) (interface{}, error) {
			if _, err := b.Expose(nd); err != nil {
				return nil, err
			}
			if _, err := b.Expose(nd); !errors.Is(err, ErrExhausted) {
				return nil, errors.New("exhausted batch did not report ErrExhausted")
			}
			return nil, nil
		}
	}
	for i, r := range simnet.Run(nw, fns) {
		if r.Err != nil {
			t.Fatalf("player %d: %v", i, r.Err)
		}
	}
	if batches[0].Remaining() != 0 {
		t.Errorf("Remaining = %d, want 0", batches[0].Remaining())
	}
}

func TestExposeBitAndMod(t *testing.T) {
	f := gf2k.MustNew(32)
	rng := rand.New(rand.NewSource(6))
	n := 4
	batches, values, err := DealTrusted(f, n, 1, 2, rng)
	if err != nil {
		t.Fatal(err)
	}
	nw := simnet.New(n)
	fns := make([]simnet.PlayerFunc, n)
	for i := range fns {
		b := batches[i]
		fns[i] = func(nd *simnet.Node) (interface{}, error) {
			e0, err := b.Expose(nd)
			if err != nil {
				return nil, err
			}
			e1, err := b.Expose(nd)
			if err != nil {
				return nil, err
			}
			return [2]int{int(Bit(e0)), Mod(e1, n)}, nil
		}
	}
	wantBit := int(values[0] & 1)
	wantL := int(uint64(values[1]) % uint64(n))
	if wantL == 0 {
		wantL = n
	}
	for i, r := range simnet.Run(nw, fns) {
		if r.Err != nil {
			t.Fatalf("player %d: %v", i, r.Err)
		}
		got := r.Value.([2]int)
		if got[0] != wantBit || got[1] != wantL {
			t.Fatalf("player %d: (bit,l) = %v, want (%d,%d)", i, got, wantBit, wantL)
		}
		if got[1] < 1 || got[1] > n {
			t.Fatalf("leader out of range: %d", got[1])
		}
	}
}

func TestDealTrustedValidation(t *testing.T) {
	f := gf2k.MustNew(16)
	rng := rand.New(rand.NewSource(7))
	if _, _, err := DealTrusted(f, 3, 1, 1, rng); err == nil {
		t.Error("n < 3t+1 accepted")
	}
	if _, _, err := DealTrusted(f, 4, 1, -1, rng); err == nil {
		t.Error("negative count accepted")
	}
}

func TestBatchValidate(t *testing.T) {
	f := gf2k.MustNew(16)
	good := &Batch{Field: f, T: 1, S: []int{0, 1, 2, 3}, Shares: make([]gf2k.Element, 1)}
	if err := good.Validate(); err != nil {
		t.Errorf("valid batch rejected: %v", err)
	}
	small := &Batch{Field: f, T: 2, S: []int{0, 1, 2}, Shares: nil}
	if err := small.Validate(); err == nil {
		t.Error("undersized S accepted")
	}
	neg := &Batch{Field: f, T: 1, S: []int{-1, 1, 2, 3}}
	if err := neg.Validate(); err == nil {
		t.Error("negative index accepted")
	}
}

func TestStoreDrainsBatchesInOrder(t *testing.T) {
	f := gf2k.MustNew(32)
	rng := rand.New(rand.NewSource(8))
	n := 4
	b1, v1, err := DealTrusted(f, n, 1, 2, rng)
	if err != nil {
		t.Fatal(err)
	}
	b2, v2, err := DealTrusted(f, n, 1, 2, rng)
	if err != nil {
		t.Fatal(err)
	}
	want := append(append([]gf2k.Element{}, v1...), v2...)

	nw := simnet.New(n)
	fns := make([]simnet.PlayerFunc, n)
	for i := range fns {
		st := &Store{}
		st.Add(b1[i])
		st.Add(b2[i])
		fns[i] = func(nd *simnet.Node) (interface{}, error) {
			if st.Remaining() != 4 {
				return nil, errors.New("wrong Remaining")
			}
			var out []gf2k.Element
			for st.Remaining() > 0 {
				e, err := st.Expose(nd)
				if err != nil {
					return nil, err
				}
				out = append(out, e)
			}
			if _, err := st.Expose(nd); !errors.Is(err, ErrExhausted) {
				return nil, errors.New("empty store did not report ErrExhausted")
			}
			return out, nil
		}
	}
	for i, r := range simnet.Run(nw, fns) {
		if r.Err != nil {
			t.Fatalf("player %d: %v", i, r.Err)
		}
		got := r.Value.([]gf2k.Element)
		if len(got) != len(want) {
			t.Fatalf("player %d: %d coins, want %d", i, len(got), len(want))
		}
		for h := range want {
			if got[h] != want[h] {
				t.Fatalf("player %d coin %d: %#x, want %#x", i, h, got[h], want[h])
			}
		}
	}
}

func TestCoinDistributionUniform(t *testing.T) {
	// Sanity: dealt coin bits are roughly balanced (statistical randomness
	// of the source, not a protocol property).
	f := gf2k.MustNew(16)
	rng := rand.New(rand.NewSource(9))
	_, values, err := DealTrusted(f, 4, 1, 2000, rng)
	if err != nil {
		t.Fatal(err)
	}
	ones := 0
	for _, v := range values {
		ones += int(v & 1)
	}
	if ones < 800 || ones > 1200 {
		t.Errorf("coin bit bias: %d/2000 ones", ones)
	}
}

func TestExposeAtRandomAccess(t *testing.T) {
	// §1.4: "our scheme also provides 'random access' to the bits" — coins
	// can be revealed in any agreed order, interleaved with sequential use,
	// and re-exposing an index yields the same value.
	f := gf2k.MustNew(32)
	rng := rand.New(rand.NewSource(12))
	n := 4
	batches, values, err := DealTrusted(f, n, 1, 6, rng)
	if err != nil {
		t.Fatal(err)
	}
	nw := simnet.New(n)
	fns := make([]simnet.PlayerFunc, n)
	for i := range fns {
		b := batches[i]
		fns[i] = func(nd *simnet.Node) (interface{}, error) {
			var out []gf2k.Element
			for _, h := range []int{5, 2, 5} { // out of order, with a repeat
				c, err := b.ExposeAt(nd, h)
				if err != nil {
					return nil, err
				}
				out = append(out, c)
			}
			// Sequential cursor untouched: Expose still starts at coin 0.
			c, err := b.Expose(nd)
			if err != nil {
				return nil, err
			}
			out = append(out, c)
			if _, err := b.ExposeAt(nd, 99); err == nil {
				return nil, errors.New("out-of-range index accepted")
			}
			return out, nil
		}
	}
	want := []gf2k.Element{values[5], values[2], values[5], values[0]}
	for i, r := range simnet.Run(nw, fns) {
		if r.Err != nil {
			t.Fatalf("player %d: %v", i, r.Err)
		}
		got := r.Value.([]gf2k.Element)
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("player %d access %d: %#x, want %#x", i, j, got[j], want[j])
			}
		}
	}
}
