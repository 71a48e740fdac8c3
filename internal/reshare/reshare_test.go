package reshare

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/coin"
	"repro/internal/gf2k"
	"repro/internal/poly"
	"repro/internal/simnet"
)

// dealOldCommittee seeds an old committee of n players with `count` coins
// from the trusted dealer, each player's batch wrapped in a universe-bound
// store — the state a running beacon holds when a reshare starts.
func dealOldCommittee(t *testing.T, f gf2k.Field, n, tt, count int) ([]*coin.Store, []gf2k.Element) {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	batches, values, err := coin.DealTrusted(f, n, tt, count, rng)
	if err != nil {
		t.Fatal(err)
	}
	stores := make([]*coin.Store, n)
	for i, b := range batches {
		st := &coin.Store{}
		if err := st.Add(b); err != nil {
			t.Fatal(err)
		}
		if err := st.BindUniverse(n); err != nil {
			t.Fatal(err)
		}
		stores[i] = st
	}
	return stores, values
}

// runReshare executes one ceremony over the combined network. stores[i] is
// nil for pure joiners; faulty overrides node i's player function.
func runReshare(t *testing.T, cfg Config, stores []*coin.Store, faulty map[int]simnet.PlayerFunc) []simnet.PlayerResult {
	t.Helper()
	nw := simnet.New(cfg.CombinedN())
	fns := make([]simnet.PlayerFunc, cfg.CombinedN())
	for i := range fns {
		if fn, ok := faulty[i]; ok {
			fns[i] = fn
			continue
		}
		st := stores[i]
		rng := rand.New(rand.NewSource(int64(1000 + i)))
		fns[i] = func(nd *simnet.Node) (interface{}, error) {
			return Run(nd, cfg, st, rng)
		}
	}
	return simnet.Run(nw, fns)
}

// exposeNewCommittee runs the reshared stores on a fresh new-committee
// network and returns each member's exposed coin sequence.
func exposeNewCommittee(t *testing.T, cfg Config, results []simnet.PlayerResult, count int) [][]gf2k.Element {
	t.Helper()
	byNew := make([]*coin.Store, cfg.NewN)
	for node, j := range cfg.NewOf {
		if j < 0 {
			continue
		}
		res, ok := results[node].Value.(*Result)
		if !ok || res.Store == nil {
			t.Fatalf("new member (node %d, new index %d) produced no store", node, j)
		}
		byNew[j] = res.Store
	}
	nw := simnet.New(cfg.NewN)
	fns := make([]simnet.PlayerFunc, cfg.NewN)
	for j := range fns {
		st := byNew[j]
		fns[j] = func(nd *simnet.Node) (interface{}, error) {
			var out []gf2k.Element
			for c := 0; c < count; c++ {
				e, err := st.Expose(nd)
				if err != nil {
					return nil, err
				}
				out = append(out, e)
			}
			return out, nil
		}
	}
	rs := simnet.Run(nw, fns)
	out := make([][]gf2k.Element, cfg.NewN)
	for j, r := range rs {
		if r.Err != nil {
			t.Fatalf("new member %d expose: %v", j, r.Err)
		}
		out[j] = r.Value.([]gf2k.Element)
	}
	return out
}

// requireVerdictUnanimity asserts every honest player reported the same
// cheater list, quorum and challenge, and returns that shared verdict.
func requireVerdictUnanimity(t *testing.T, results []simnet.PlayerResult, honest []int) *Result {
	t.Helper()
	var ref *Result
	for _, i := range honest {
		if results[i].Err != nil {
			t.Fatalf("honest node %d: %v", i, results[i].Err)
		}
		res := results[i].Value.(*Result)
		if ref == nil {
			ref = res
			continue
		}
		if !reflect.DeepEqual(res.Cheaters, ref.Cheaters) {
			t.Fatalf("node %d cheaters %v != %v", i, res.Cheaters, ref.Cheaters)
		}
		if !reflect.DeepEqual(res.Quorum, ref.Quorum) {
			t.Fatalf("node %d quorum %v != %v", i, res.Quorum, ref.Quorum)
		}
		if res.Challenge != ref.Challenge {
			t.Fatalf("node %d challenge %#x != %#x", i, res.Challenge, ref.Challenge)
		}
		if res.Coins != ref.Coins {
			t.Fatalf("node %d coins %d != %d", i, res.Coins, ref.Coins)
		}
	}
	return ref
}

func TestConfigValidate(t *testing.T) {
	f := gf2k.MustNew(32)
	good := Config{Field: f, OldN: 7, OldT: 1, NewN: 9, NewT: 1,
		NewOf: []int{0, 1, -1, -1, -1, -1, -1, 2, 3, 4, 5, 6, 7, 8}}
	if err := good.Validate(); err != nil {
		t.Fatalf("good config rejected: %v", err)
	}
	for name, mut := range map[string]func(*Config){
		"no field":         func(c *Config) { c.Field = gf2k.Field{} },
		"old n < 3t+1":     func(c *Config) { c.OldT = 3 },
		"new n < 3t+1":     func(c *Config) { c.NewT = 3 },
		"negative attempt": func(c *Config) { c.Attempt = -1 },
		"short NewOf":      func(c *Config) { c.NewOf = c.NewOf[:5] },
		"joiner without new index": func(c *Config) {
			c.NewOf = append(append([]int{}, c.NewOf...), -1)
		},
		"new index twice": func(c *Config) {
			c.NewOf = append([]int{}, c.NewOf...)
			c.NewOf[1] = 0
		},
		"new index out of range": func(c *Config) {
			c.NewOf = append([]int{}, c.NewOf...)
			c.NewOf[1] = 9
		},
	} {
		c := good
		mut(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestMembershipChangePreservesCoins is the headline e2e: a (7,1) committee
// reshapes to a disjoint-majority (9,1) committee mid-stream. The new
// committee's exposed coins must byte-match the stream the old committee
// would have produced from the same tail, with no dealer involved.
func TestMembershipChangePreservesCoins(t *testing.T) {
	f := gf2k.MustNew(32)
	const count = 10
	stores, values := dealOldCommittee(t, f, 7, 1, count)

	// The old committee exposes three coins before the reshare, so the
	// ceremony must respect the FIFO cursor, not just fresh stores.
	{
		nw := simnet.New(7)
		fns := make([]simnet.PlayerFunc, 7)
		for i := range fns {
			st := stores[i]
			fns[i] = func(nd *simnet.Node) (interface{}, error) {
				for c := 0; c < 3; c++ {
					e, err := st.Expose(nd)
					if err != nil {
						return nil, err
					}
					if e != values[c] {
						t.Errorf("pre-reshare coin %d mismatch", c)
					}
				}
				return nil, nil
			}
		}
		for i, r := range simnet.Run(nw, fns) {
			if r.Err != nil {
				t.Fatalf("pre-reshare expose, player %d: %v", i, r.Err)
			}
		}
	}

	// Nodes 0 and 1 stay on; nodes 2..6 leave; nodes 7..13 join. The new
	// majority is disjoint from the old committee.
	cfg := Config{
		Field: f, OldN: 7, OldT: 1, NewN: 9, NewT: 1,
		NewOf:      []int{0, 1, -1, -1, -1, -1, -1, 2, 3, 4, 5, 6, 7, 8},
		Generation: 1,
	}
	combined := make([]*coin.Store, cfg.CombinedN())
	copy(combined, stores)
	results := runReshare(t, cfg, combined, nil)

	honest := make([]int, cfg.CombinedN())
	for i := range honest {
		honest[i] = i
	}
	ref := requireVerdictUnanimity(t, results, honest)
	if len(ref.Cheaters) != 0 {
		t.Fatalf("honest run convicted %v", ref.Cheaters)
	}
	if len(ref.Quorum) != cfg.OldT+1 {
		t.Fatalf("quorum %v, want %d sub-dealers", ref.Quorum, cfg.OldT+1)
	}
	// Attempt 0 consumes tail coins 3 (challenge) and 4 (mask).
	if ref.Challenge != values[3] {
		t.Fatalf("challenge %#x, want coin 3 = %#x", ref.Challenge, values[3])
	}
	wantCoins := count - 3 - 2
	if ref.Coins != wantCoins {
		t.Fatalf("reshared %d coins, want %d", ref.Coins, wantCoins)
	}
	for node, j := range cfg.NewOf {
		res := results[node].Value.(*Result)
		if j < 0 {
			if res.Store != nil {
				t.Fatalf("leaving node %d got a store", node)
			}
			continue
		}
		if res.Silent {
			t.Fatalf("honest new member %d marked Silent", j)
		}
		if res.Store.Generation != 1 || res.Store.Universe != cfg.NewN {
			t.Fatalf("new member %d store generation=%d universe=%d", j,
				res.Store.Generation, res.Store.Universe)
		}
	}

	exposed := exposeNewCommittee(t, cfg, results, wantCoins)
	for j, got := range exposed {
		for c := 0; c < wantCoins; c++ {
			if got[c] != values[5+c] {
				t.Fatalf("new member %d coin %d: %#x, want %#x (old stream)",
					j, c, got[c], values[5+c])
			}
		}
	}
}

// TestProactiveRefreshSameRoster keeps the roster fixed and checks that the
// ceremony re-randomizes every share while preserving every coin value.
func TestProactiveRefreshSameRoster(t *testing.T) {
	f := gf2k.MustNew(32)
	const count = 6
	stores, values := dealOldCommittee(t, f, 7, 1, count)
	oldShares := make([][]gf2k.Element, 7)
	for i, st := range stores {
		b := st.Batches()[0]
		oldShares[i] = append([]gf2k.Element{}, b.Shares...)
	}

	cfg := Config{
		Field: f, OldN: 7, OldT: 1, NewN: 7, NewT: 1,
		NewOf:      []int{0, 1, 2, 3, 4, 5, 6},
		Generation: 1,
	}
	results := runReshare(t, cfg, stores, nil)
	honest := []int{0, 1, 2, 3, 4, 5, 6}
	ref := requireVerdictUnanimity(t, results, honest)
	if len(ref.Cheaters) != 0 {
		t.Fatalf("refresh convicted %v", ref.Cheaters)
	}

	// Every share must change (proactive security: leaking t old shares
	// plus t new shares must reveal nothing).
	for i := range honest {
		res := results[i].Value.(*Result)
		fresh := res.Store.Batches()[0].Shares
		for h, s := range fresh {
			if s == oldShares[i][2+h] {
				t.Fatalf("player %d share of coin %d not refreshed", i, h)
			}
		}
	}

	exposed := exposeNewCommittee(t, cfg, results, count-2)
	for j, got := range exposed {
		for c := range got {
			if got[c] != values[2+c] {
				t.Fatalf("refreshed member %d coin %d mismatch", j, c)
			}
		}
	}
}

// TestRefreshSharesGolden pins the fresh shares of a seeded 7→7 refresh to
// the values recorded while the trusted dealer and every sub-dealer drew
// each coefficient with its own read: drawing them in one read must keep
// the order they come off the stream.
func TestRefreshSharesGolden(t *testing.T) {
	const want = "e60cdb10f1d945a838d5dd787e2056b54017ab66dae50bc57d5c00f5509a69db"
	f := gf2k.MustNew(32)
	stores, _ := dealOldCommittee(t, f, 7, 1, 6)
	cfg := Config{
		Field: f, OldN: 7, OldT: 1, NewN: 7, NewT: 1,
		NewOf:      []int{0, 1, 2, 3, 4, 5, 6},
		Generation: 1,
	}
	h := sha256.New()
	for i, r := range runReshare(t, cfg, stores, nil) {
		if r.Err != nil {
			t.Fatalf("node %d: %v", i, r.Err)
		}
		for _, s := range r.Value.(*Result).Store.Batches()[0].Shares {
			h.Write(binary.LittleEndian.AppendUint64(nil, uint64(s)))
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Fatalf("fresh shares hash to %s, want %s", got, want)
	}
}

// TestReshareAttemptOffsets pins the retry rule: attempt a consumes tail
// coins 2a and 2a+1, so a retried ceremony never reuses a challenge that a
// failed attempt may already have exposed publicly.
func TestReshareAttemptOffsets(t *testing.T) {
	f := gf2k.MustNew(32)
	const count = 8
	stores, values := dealOldCommittee(t, f, 7, 1, count)
	cfg := Config{
		Field: f, OldN: 7, OldT: 1, NewN: 7, NewT: 1,
		NewOf:      []int{0, 1, 2, 3, 4, 5, 6},
		Attempt:    1,
		Generation: 1,
	}
	results := runReshare(t, cfg, stores, nil)
	ref := requireVerdictUnanimity(t, results, []int{0, 1, 2, 3, 4, 5, 6})
	if ref.Challenge != values[2] {
		t.Fatalf("attempt 1 challenge %#x, want coin 2 = %#x", ref.Challenge, values[2])
	}
	if ref.Coins != count-4 {
		t.Fatalf("attempt 1 reshared %d coins, want %d", ref.Coins, count-4)
	}
	exposed := exposeNewCommittee(t, cfg, results, count-4)
	for j, got := range exposed {
		for c := range got {
			if got[c] != values[4+c] {
				t.Fatalf("member %d coin %d mismatch after attempt-1 reshare", j, c)
			}
		}
	}
}

// byzMode selects a sub-dealer corruption for the adversarial tests below.
type byzMode int

const (
	// byzSilent never sub-deals and never transmits.
	byzSilent byzMode = iota
	// byzWrongDegree sub-deals with degree-(t'+1) polynomials.
	byzWrongDegree
	// byzEquivocal deals one polynomial set to half the new committee and a
	// different set to the other half.
	byzEquivocal
	// byzEquivocalOne deals honestly except to a single victim, staying
	// under the decode budget: the dealer survives, the victim self-checks.
	byzEquivocalOne
	// byzWrongValue sub-deals well-formed degree-t' sharings of s+1 instead
	// of its true share s — only the cross-check can catch it.
	byzWrongValue
	// byzWrongLength pads every column with extra bogus coins.
	byzWrongLength
)

// byzantineSubDealer is a corrupted old-committee member (old-only: it
// leaves the committee) speaking the reshare wire formats directly.
func byzantineSubDealer(cfg Config, st *coin.Store, mode byzMode, seed int64) simnet.PlayerFunc {
	return func(nd *simnet.Node) (interface{}, error) {
		f := cfg.Field
		rng := rand.New(rand.NewSource(seed))
		shares, _, err := tailShares(st, cfg.OldT)
		if err != nil {
			return nil, err
		}
		challengeShare, maskShare := shares[0], shares[1]
		tail := shares[2:]
		m := len(tail)

		if mode != byzSilent {
			deg := cfg.NewT
			if mode == byzWrongDegree {
				deg = cfg.NewT + 1
			}
			secrets := append([]gf2k.Element{maskShare}, tail...)
			if mode == byzWrongValue {
				for i := 1; i < len(secrets); i++ {
					secrets[i] = f.Add(secrets[i], 1)
				}
			}
			deal := func() ([]poly.Poly, error) {
				ps := make([]poly.Poly, len(secrets))
				for i, s := range secrets {
					p, err := poly.Random(f, deg, s, rng)
					if err != nil {
						return nil, err
					}
					ps[i] = p
				}
				return ps, nil
			}
			polys, err := deal()
			if err != nil {
				return nil, err
			}
			alt, err := deal() // second, inconsistent dealing for equivocation
			if err != nil {
				return nil, err
			}
			for node := 0; node < nd.N(); node++ {
				j := cfg.NewOf[node]
				if j < 0 || node == nd.Index() {
					continue
				}
				use := polys
				if (mode == byzEquivocal && j%2 == 1) || (mode == byzEquivocalOne && j == cfg.NewN-1) {
					use = alt
				}
				y, err := f.ElementFromID(j + 1)
				if err != nil {
					return nil, err
				}
				col := make([]gf2k.Element, m)
				for h := range col {
					col[h] = poly.Eval(f, use[h+1], y)
				}
				if mode == byzWrongLength {
					col = append(col, 1, 2, 3)
				}
				nd.Send(node, encodeSubShares(f, poly.Eval(f, use[0], y), col))
			}
		}
		if _, err := nd.EndRound(); err != nil {
			return nil, err
		}
		if mode != byzSilent {
			nd.SendAll(encodeChallenge(f, challengeShare))
		}
		if _, err := nd.EndRound(); err != nil {
			return nil, err
		}
		// Round 3: old-only members broadcast nothing.
		if _, err := nd.EndRound(); err != nil {
			return nil, err
		}
		return nil, nil
	}
}

// TestAdversarialSubDealers drives each corruption through a full
// membership change to a disjoint (9,2) committee: every honest player must
// convict exactly the corrupted dealers, and the new committee's coins must
// still byte-match the old stream.
func TestAdversarialSubDealers(t *testing.T) {
	f := gf2k.MustNew(32)
	const count = 7
	// Old (7,2) hands off to a fully disjoint new (9,2): nodes 0..6 all
	// leave, nodes 7..15 join.
	newOf := []int{-1, -1, -1, -1, -1, -1, -1, 0, 1, 2, 3, 4, 5, 6, 7, 8}
	base := Config{Field: f, OldN: 7, OldT: 2, NewN: 9, NewT: 2, NewOf: newOf, Generation: 1}

	for name, tc := range map[string]struct {
		modes        map[int]byzMode // corrupted old node → mode
		wantCheaters []int
	}{
		"silent":           {map[int]byzMode{3: byzSilent}, []int{3}},
		"wrong degree":     {map[int]byzMode{0: byzWrongDegree}, []int{0}},
		"equivocal":        {map[int]byzMode{5: byzEquivocal}, []int{5}},
		"wrong value":      {map[int]byzMode{2: byzWrongValue}, []int{2}},
		"wrong length":     {map[int]byzMode{6: byzWrongLength}, []int{6}},
		"two cheaters":     {map[int]byzMode{1: byzWrongDegree, 4: byzSilent}, []int{1, 4}},
		"degree and value": {map[int]byzMode{0: byzWrongValue, 6: byzWrongDegree}, []int{0, 6}},
	} {
		t.Run(name, func(t *testing.T) {
			stores, values := dealOldCommittee(t, f, 7, 2, count)
			combined := make([]*coin.Store, base.CombinedN())
			copy(combined, stores)
			faulty := map[int]simnet.PlayerFunc{}
			for node, mode := range tc.modes {
				faulty[node] = byzantineSubDealer(base, stores[node], mode, int64(90+node))
			}
			results := runReshare(t, base, combined, faulty)

			var honest []int
			for i := 0; i < base.CombinedN(); i++ {
				if _, bad := tc.modes[i]; !bad {
					honest = append(honest, i)
				}
			}
			ref := requireVerdictUnanimity(t, results, honest)
			if !reflect.DeepEqual(ref.Cheaters, tc.wantCheaters) {
				t.Fatalf("cheaters %v, want %v", ref.Cheaters, tc.wantCheaters)
			}
			for _, o := range ref.Quorum {
				for _, c := range tc.wantCheaters {
					if o == c {
						t.Fatalf("convicted dealer %d in quorum %v", o, ref.Quorum)
					}
				}
			}
			for node, j := range base.NewOf {
				if j < 0 {
					continue
				}
				if results[node].Value.(*Result).Silent {
					t.Fatalf("honest new member %d marked Silent", j)
				}
			}
			exposed := exposeNewCommittee(t, base, results, count-2)
			for j, got := range exposed {
				for c := range got {
					if got[c] != values[2+c] {
						t.Fatalf("member %d coin %d: %#x, want %#x despite %s dealer",
							j, c, got[c], values[2+c], name)
					}
				}
			}
		})
	}
}

// TestEquivocalSurvivorVictimGoesSilent: an equivocal dealer that cheats
// only a single new member stays inside the decode budget and survives the
// verdict — but the victim's self-check catches the mismatch, so it joins
// the new committee Silent and the exposure stream stays correct.
func TestEquivocalSurvivorVictimGoesSilent(t *testing.T) {
	f := gf2k.MustNew(32)
	const count = 7
	stores, values := dealOldCommittee(t, f, 7, 2, count)
	newOf := []int{-1, -1, -1, -1, -1, -1, -1, 0, 1, 2, 3, 4, 5, 6, 7, 8}
	cfg := Config{Field: f, OldN: 7, OldT: 2, NewN: 9, NewT: 2, NewOf: newOf, Generation: 1}
	combined := make([]*coin.Store, cfg.CombinedN())
	copy(combined, stores)
	// Dealer 0 equivocates against exactly new member 8 (node 15).
	faulty := map[int]simnet.PlayerFunc{
		0: byzantineSubDealer(cfg, stores[0], byzEquivocalOne, 91),
	}
	results := runReshare(t, cfg, combined, faulty)

	honest := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15}
	ref := requireVerdictUnanimity(t, results, honest)
	victim := results[15].Value.(*Result)
	inQuorum := false
	for _, o := range ref.Quorum {
		if o == 0 {
			inQuorum = true
		}
	}
	if !inQuorum {
		// The single-victim dealer survives the budgeted decode; if the
		// verdict ever rejects it this test needs a new corruption shape.
		t.Fatalf("single-victim equivocal dealer not in quorum %v (cheaters %v)", ref.Quorum, ref.Cheaters)
	}
	if !victim.Silent {
		t.Fatal("victim of surviving equivocal dealer did not self-check into Silent")
	}
	if !victim.Store.Batches()[0].Silent {
		t.Fatal("victim's batch not marked Silent")
	}
	for _, j := range []int{0, 1, 2, 3, 4, 5, 6, 7} {
		if results[7+j].Value.(*Result).Silent {
			t.Fatalf("non-victim member %d marked Silent", j)
		}
	}
	// With the victim abstaining, the remaining eight transmitters still
	// carry every exposure — and the victim itself still decodes them.
	exposed := exposeNewCommittee(t, cfg, results, count-2)
	for j, got := range exposed {
		for c := range got {
			if got[c] != values[2+c] {
				t.Fatalf("member %d coin %d mismatch with Silent victim", j, c)
			}
		}
	}
}

// TestReshareStoreMarshalRoundTrip: the store a ceremony produces must
// survive the beacon's persistence path with its universe and generation.
func TestReshareStoreMarshalRoundTrip(t *testing.T) {
	f := gf2k.MustNew(32)
	stores, _ := dealOldCommittee(t, f, 7, 1, 6)
	cfg := Config{
		Field: f, OldN: 7, OldT: 1, NewN: 7, NewT: 1,
		NewOf:      []int{0, 1, 2, 3, 4, 5, 6},
		Generation: 3,
	}
	results := runReshare(t, cfg, stores, nil)
	st := results[0].Value.(*Result).Store
	blob, err := st.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	re, err := coin.UnmarshalStore(blob)
	if err != nil {
		t.Fatal(err)
	}
	if re.Universe != 7 || re.Generation != 3 {
		t.Fatalf("round trip lost identity: universe=%d generation=%d", re.Universe, re.Generation)
	}
	if re.Remaining() != st.Remaining() {
		t.Fatalf("round trip lost coins: %d != %d", re.Remaining(), st.Remaining())
	}
}

// TestStaleMemberRecovery: an old member that lost its store currency (it
// missed a refill while down — the beacon's ErrEpochMismatch state) passes
// a nil store and participates receive-only. The others brand it a silent
// cheater, the ceremony still succeeds, and the stale member walks away
// with fresh working shares — this IS the recovery path for a daemon that
// can no longer rejoin its cluster.
func TestStaleMemberRecovery(t *testing.T) {
	f := gf2k.MustNew(32)
	const count, stale = 12, 3
	stores, values := dealOldCommittee(t, f, 7, 1, count)
	stores[stale] = nil // its real store is useless; it declares itself stale
	cfg := Config{
		Field: f, OldN: 7, OldT: 1, NewN: 7, NewT: 1,
		NewOf:      []int{0, 1, 2, 3, 4, 5, 6},
		Generation: 1,
	}
	results := runReshare(t, cfg, stores, nil)
	honest := []int{0, 1, 2, 4, 5, 6}
	ref := requireVerdictUnanimity(t, results, honest)
	if len(ref.Cheaters) != 1 || ref.Cheaters[0] != stale {
		t.Fatalf("cheaters = %v, want [%d] (the stale member abstains)", ref.Cheaters, stale)
	}
	// The stale member reached the same verdict and received a store.
	if results[stale].Err != nil {
		t.Fatalf("stale member: %v", results[stale].Err)
	}
	staleRes := results[stale].Value.(*Result)
	if !reflect.DeepEqual(staleRes.Cheaters, ref.Cheaters) || staleRes.Store == nil {
		t.Fatalf("stale member verdict/store mismatch: cheaters %v, store %v",
			staleRes.Cheaters, staleRes.Store != nil)
	}
	// Its fresh shares work: the whole new committee — stale member
	// included — exposes the preserved coin values.
	wantCoins := count - 2
	if ref.Coins != wantCoins {
		t.Fatalf("coins = %d, want %d", ref.Coins, wantCoins)
	}
	streams := exposeNewCommittee(t, cfg, results, wantCoins)
	for j, stream := range streams {
		for c, v := range stream {
			if want := values[2+c]; v != want {
				t.Fatalf("member %d coin %d = %#x, want %#x", j, c, v, want)
			}
		}
	}
}
