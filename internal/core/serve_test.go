package core

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/coin"
	"repro/internal/gf2k"
	"repro/internal/simnet"
)

// exposeSome runs one lockstep session in which every generator draws
// `count` coins (refilling as needed) and returns player 0's stream after
// checking unanimity.
func exposeSome(t *testing.T, gens []*Generator, count int, rndBase int64) []gf2k.Element {
	t.Helper()
	n := len(gens)
	nw := simnet.New(n)
	fns := make([]simnet.PlayerFunc, n)
	for i := 0; i < n; i++ {
		fns[i] = func(nd *simnet.Node) (interface{}, error) {
			rnd := rand.New(rand.NewSource(rndBase + int64(i)*1000))
			out := make([]gf2k.Element, 0, count)
			for len(out) < count {
				c, err := gens[i].Next(nd, rnd)
				if err != nil {
					return nil, err
				}
				out = append(out, c)
			}
			return out, nil
		}
	}
	results := simnet.Run(nw, fns)
	ref := results[0].Value.([]gf2k.Element)
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("player %d: %v", i, r.Err)
		}
		for h, v := range r.Value.([]gf2k.Element) {
			if v != ref[h] {
				t.Fatalf("unanimity violated at player %d coin %d", i, h)
			}
		}
	}
	return ref
}

// TestPersistedStreamByteIdentical is the examples/persistence round trip
// as an assertion: session 1 consumes part of the seed and serializes each
// player's store; session 2 must produce the exact same coin stream whether
// it resumes from the live in-memory stores or from the decoded bytes —
// including across a Coin-Gen refill funded by the restored seed.
func TestPersistedStreamByteIdentical(t *testing.T) {
	cfg := defaultConfig(7, 1)
	cfg.BatchSize = 16
	rng := rand.New(rand.NewSource(77))
	gens, err := SetupTrusted(cfg, 12, rng)
	if err != nil {
		t.Fatal(err)
	}
	exposeSome(t, gens, 4, 500) // session 1: the "application" uses 4 coins

	// Persist every player's store, byte-for-byte, before either branch
	// mutates anything.
	enc := make([][]byte, cfg.N)
	for i, g := range gens {
		if enc[i], err = g.Store().MarshalBinary(); err != nil {
			t.Fatalf("marshal player %d: %v", i, err)
		}
	}

	// Branch A: continue from the live stores. 20 coins crosses a refill
	// (8 left in the seed, threshold 6).
	live := exposeSome(t, gens, 20, 900)
	if gens[0].Stats().Batches == 0 {
		t.Fatal("branch A never refilled; the test must cross a Coin-Gen")
	}

	// Branch B: fresh generators from the serialized bytes, identical
	// per-player randomness.
	restored := make([]*Generator, cfg.N)
	for i := range restored {
		st, err := coin.UnmarshalStore(enc[i])
		if err != nil {
			t.Fatalf("unmarshal player %d: %v", i, err)
		}
		if restored[i], err = NewFromStore(cfg, st); err != nil {
			t.Fatalf("restore player %d: %v", i, err)
		}
	}
	resumed := exposeSome(t, restored, 20, 900)

	for h := range live {
		if live[h] != resumed[h] {
			t.Fatalf("coin %d differs after restore: %#x vs %#x", h, live[h], resumed[h])
		}
	}

	// Re-marshal identity: a store that did nothing but marshal/unmarshal
	// must round-trip to the same bytes.
	st, err := coin.UnmarshalStore(enc[0])
	if err != nil {
		t.Fatal(err)
	}
	again, err := st.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if string(again) != string(enc[0]) {
		t.Fatal("store encoding is not a fixed point of unmarshal∘marshal")
	}
}

// TestMintDetachAbsorb exercises the out-of-band refill path the beacon
// uses: detach a seed from each store, mint a batch on a separate network,
// absorb leftovers plus the mint, and verify exposures stay unanimous and
// the accounting adds up.
func TestMintDetachAbsorb(t *testing.T) {
	cfg := defaultConfig(7, 1)
	cfg.BatchSize = 8
	rng := rand.New(rand.NewSource(13))
	gens, err := SetupTrusted(cfg, 12, rng)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := gens[0].DetachSeed(1); err == nil {
		t.Error("DetachSeed(1) accepted; cannot fund a refill")
	}
	if _, err := gens[0].DetachSeed(13); err == nil {
		t.Error("DetachSeed of more than the store holds accepted")
	}

	seeds := make([]*coin.Store, cfg.N)
	for i, g := range gens {
		if seeds[i], err = g.DetachSeed(4); err != nil {
			t.Fatalf("detach player %d: %v", i, err)
		}
		if g.Remaining() != 8 {
			t.Fatalf("player %d left with %d coins after detaching 4 of 12", i, g.Remaining())
		}
	}

	nw := simnet.New(cfg.N)
	fns := make([]simnet.PlayerFunc, cfg.N)
	for i := 0; i < cfg.N; i++ {
		fns[i] = func(nd *simnet.Node) (interface{}, error) {
			return Mint(cfg, nd, seeds[i], rand.New(rand.NewSource(int64(i)+400)))
		}
	}
	results := simnet.Run(nw, fns)
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("mint player %d: %v", i, r.Err)
		}
		res := r.Value.(*MintResult)
		if res.SeedConsumed < 2 {
			t.Fatalf("mint consumed %d seed coins, expected ≥ 2", res.SeedConsumed)
		}
		// Absorb in the beacon's order: leftover seed first, then the mint.
		for _, b := range seeds[i].Batches() {
			if b.Remaining() == 0 {
				continue
			}
			if err := gens[i].AbsorbBatch(b); err != nil {
				t.Fatalf("absorb leftovers player %d: %v", i, err)
			}
		}
		if err := gens[i].Absorb(res); err != nil {
			t.Fatalf("absorb mint player %d: %v", i, err)
		}
	}
	want := gens[0].Remaining()
	if want <= 8 {
		t.Fatalf("absorbing an 8-coin mint left only %d coins", want)
	}
	st := gens[0].Stats()
	if st.Batches != 1 || st.SeedSpent == 0 {
		t.Fatalf("refill accounting off: %+v", st)
	}
	exposeSome(t, gens, want-cfg.Threshold, 4242) // drain to the threshold, all unanimous
}

// TestNeedsRefillHighWater checks the proactive trigger the beacon polls.
func TestNeedsRefillHighWater(t *testing.T) {
	cfg := defaultConfig(7, 1)
	cfg.HighWater = 10
	rng := rand.New(rand.NewSource(5))
	gens, err := SetupTrusted(cfg, 12, rng)
	if err != nil {
		t.Fatal(err)
	}
	if gens[0].NeedsRefill() {
		t.Fatal("NeedsRefill true with the store above the high-water mark")
	}
	exposeSome(t, gens, 3, 600) // 12 → 9, below HighWater but above Threshold
	if !gens[0].NeedsRefill() {
		t.Fatal("NeedsRefill false below the high-water mark")
	}

	// Without a high-water mark the trigger degrades to the threshold.
	cfg2 := defaultConfig(7, 1)
	gens2, err := SetupTrusted(cfg2, 12, rand.New(rand.NewSource(6)))
	if err != nil {
		t.Fatal(err)
	}
	exposeSome(t, gens2, 3, 700)
	if gens2[0].NeedsRefill() {
		t.Fatal("NeedsRefill true above the threshold with HighWater disabled")
	}
}

// TestExposeNDryStoreKeepsLockstep: a vector wider than the store fails
// with coin.ErrExhausted before any round is consumed and without spending a
// coin, at every player alike; the same generators then serve a vector that
// fits, through a refill boundary, with the values single exposures give.
func TestExposeNDryStoreKeepsLockstep(t *testing.T) {
	cfg := defaultConfig(7, 1)
	cfg.BatchSize = 16
	deal := func() []*Generator {
		gens, err := SetupTrusted(cfg, 8, rand.New(rand.NewSource(78)))
		if err != nil {
			t.Fatal(err)
		}
		return gens
	}
	// Every player refuses the oversized vector, refills, and opens 20 of
	// the 8 − (seed spent) + 16 coins: across the batch boundary.
	run := func(gens []*Generator, vector bool) []gf2k.Element {
		fns := make([]simnet.PlayerFunc, cfg.N)
		for i := range fns {
			g := gens[i]
			fns[i] = func(nd *simnet.Node) (interface{}, error) {
				if _, err := g.ExposeN(nd, 9); !errors.Is(err, coin.ErrExhausted) {
					return nil, fmt.Errorf("ExposeN(9) of 8 coins: %v, want ErrExhausted", err)
				}
				if nd.Round() != 0 || g.Remaining() != 8 || g.Stats().CoinsDelivered != 0 {
					return nil, fmt.Errorf("the refused vector cost %d rounds, left %d coins, delivered %d",
						nd.Round(), g.Remaining(), g.Stats().CoinsDelivered)
				}
				if err := g.Refill(nd, rand.New(rand.NewSource(600+int64(nd.Index())))); err != nil {
					return nil, err
				}
				const k = 20
				if vector {
					before := nd.Round()
					vals, err := g.ExposeN(nd, k)
					if err == nil && nd.Round()-before != 2 {
						err = fmt.Errorf("a vector across the seed/minted boundary cost %d rounds, want 2", nd.Round()-before)
					}
					if err == nil && g.Stats().CoinsDelivered != k {
						err = fmt.Errorf("CoinsDelivered %d, want %d", g.Stats().CoinsDelivered, k)
					}
					return vals, err
				}
				vals := make([]gf2k.Element, 0, k)
				for len(vals) < k {
					v, err := g.Expose(nd)
					if err != nil {
						return nil, err
					}
					vals = append(vals, v)
				}
				return vals, nil
			}
		}
		var ref []gf2k.Element
		for i, r := range simnet.Run(simnet.New(cfg.N), fns) {
			if r.Err != nil {
				t.Fatalf("player %d (vector=%v): %v", i, vector, r.Err)
			}
			vals := r.Value.([]gf2k.Element)
			if i == 0 {
				ref = vals
			}
			for h := range ref {
				if vals[h] != ref[h] {
					t.Fatalf("unanimity violated at player %d coin %d (vector=%v)", i, h, vector)
				}
			}
		}
		return ref
	}
	want, got := run(deal(), false), run(deal(), true)
	for h := range want {
		if got[h] != want[h] {
			t.Fatalf("coin %d: vector %#x, one at a time %#x", h, got[h], want[h])
		}
	}
}
