package core

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/coin"
	"repro/internal/gf2k"
	"repro/internal/simnet"
)

func defaultConfig(n, t int) Config {
	return Config{
		Field:     gf2k.MustNew(32),
		N:         n,
		T:         t,
		BatchSize: 16,
	}
}

// drive runs fn for every player with its generator.
func drive(t *testing.T, cfg Config, seedCoins int, seed int64,
	fn func(nd *simnet.Node, g *Generator, rnd *rand.Rand) (interface{}, error),
	faulty map[int]simnet.PlayerFunc,
) []simnet.PlayerResult {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	gens, err := SetupTrusted(cfg, seedCoins, rng)
	if err != nil {
		t.Fatal(err)
	}
	nw := simnet.New(cfg.N)
	fns := make([]simnet.PlayerFunc, cfg.N)
	for i := 0; i < cfg.N; i++ {
		if f, ok := faulty[i]; ok {
			fns[i] = f
			continue
		}
		fns[i] = func(nd *simnet.Node) (interface{}, error) {
			return fn(nd, gens[i], rand.New(rand.NewSource(seed+int64(i)*1000)))
		}
	}
	return simnet.Run(nw, fns)
}

func TestBootstrapProducesUnanimousStream(t *testing.T) {
	// Consume far more coins than the initial seed holds: the generator
	// must refill itself repeatedly (Fig. 1 bootstrap) and every player
	// must see the identical stream.
	cfg := defaultConfig(7, 1)
	const want = 64 // seed is 8, so several refills are needed
	results := drive(t, cfg, 8, 1, func(nd *simnet.Node, g *Generator, rnd *rand.Rand) (interface{}, error) {
		coins := make([]gf2k.Element, 0, want)
		for len(coins) < want {
			c, err := g.Next(nd, rnd)
			if err != nil {
				return nil, err
			}
			coins = append(coins, c)
		}
		return struct {
			Coins []gf2k.Element
			St    Stats
		}{coins, g.Stats()}, nil
	}, nil)

	type outT = struct {
		Coins []gf2k.Element
		St    Stats
	}
	ref := results[0].Value.(outT)
	if ref.St.Batches < 3 {
		t.Errorf("only %d refills for %d coins from an 8-coin seed", ref.St.Batches, want)
	}
	if ref.St.CoinsDelivered != want {
		t.Errorf("delivered %d, want %d", ref.St.CoinsDelivered, want)
	}
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("player %d: %v", i, r.Err)
		}
		o := r.Value.(outT)
		for h := range ref.Coins {
			if o.Coins[h] != ref.Coins[h] {
				t.Fatalf("player %d coin %d differs: unanimity violated", i, h)
			}
		}
		if o.St != ref.St {
			t.Fatalf("player %d stats %+v != %+v", i, o.St, ref.St)
		}
	}
	// Coins should look random: no duplicates in GF(2^32) (whp), bits mixed.
	seen := make(map[gf2k.Element]bool, want)
	ones := 0
	for _, c := range ref.Coins {
		if seen[c] {
			t.Fatalf("coin %#x repeated", c)
		}
		seen[c] = true
		ones += int(c & 1)
	}
	if ones < want/4 || ones > 3*want/4 {
		t.Errorf("coin bits look biased: %d/%d ones", ones, want)
	}
}

func TestSelfSufficiencyLongRun(t *testing.T) {
	// Fig. 1 (E12): many batches back to back from a 6-coin seed. The store
	// never runs dry because each refill regenerates more than it
	// consumes; every player sees the same stream, and no coin repeats.
	if testing.Short() {
		t.Skip("long run")
	}
	cfg := defaultConfig(7, 1)
	cfg.BatchSize = 8
	cfg.Threshold = 4
	const want = 150
	type out struct {
		Stats Stats
		Coins []gf2k.Element
	}
	results := drive(t, cfg, 6, 2, func(nd *simnet.Node, g *Generator, rnd *rand.Rand) (interface{}, error) {
		coins := make([]gf2k.Element, want)
		for i := range coins {
			c, err := g.Next(nd, rnd)
			if err != nil {
				return nil, err
			}
			coins[i] = c
		}
		return out{g.Stats(), coins}, nil
	}, nil)
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("player %d: %v", i, r.Err)
		}
		if got := r.Value.(out).Coins; !reflect.DeepEqual(got, results[0].Value.(out).Coins) {
			t.Fatalf("player %d's stream differs from player 0's", i)
		}
	}
	ref := results[0].Value.(out)
	seen := make(map[gf2k.Element]bool, want)
	for h, c := range ref.Coins {
		if seen[c] {
			t.Errorf("coin %d (%#x) repeats an earlier coin", h, c)
		}
		seen[c] = true
	}
	st := ref.Stats
	t.Logf("%d coins from a 6-coin seed: %d refills, %d seed coins spent (%.2f per refill), %d leader attempts, unanimous, no repeats",
		st.CoinsDelivered, st.Batches, st.SeedSpent, float64(st.SeedSpent)/float64(st.Batches), st.Attempts)
	if st.Batches < want/8 {
		t.Errorf("suspiciously few refills: %d", st.Batches)
	}
	// All honest, so every refill spends exactly 1 challenge + 1 leader draw.
	if st.SeedSpent != 2*st.Batches {
		t.Errorf("seed spent %d over %d refills, want 2 per refill", st.SeedSpent, st.Batches)
	}
}

func TestNextBitAndMod(t *testing.T) {
	cfg := defaultConfig(7, 1)
	results := drive(t, cfg, 8, 3, func(nd *simnet.Node, g *Generator, rnd *rand.Rand) (interface{}, error) {
		b, err := g.NextBit(nd, rnd)
		if err != nil {
			return nil, err
		}
		m, err := g.NextMod(nd, rnd, 7)
		if err != nil {
			return nil, err
		}
		if m < 1 || m > 7 {
			return nil, errors.New("NextMod out of range")
		}
		if _, err := g.NextMod(nd, rnd, 0); err == nil {
			return nil, errors.New("NextMod(0) accepted")
		}
		return [2]int{int(b), m}, nil
	}, nil)
	ref := results[0].Value.([2]int)
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("player %d: %v", i, r.Err)
		}
		if r.Value.([2]int) != ref {
			t.Fatalf("player %d: outputs differ", i)
		}
	}
}

func TestConfigValidation(t *testing.T) {
	f := gf2k.MustNew(16)
	cases := []Config{
		{N: 7, T: 1, BatchSize: 8},                          // zero-value Field
		{Field: f, N: 6, T: 1, BatchSize: 8},                // n < 6t+1
		{Field: f, N: 7, T: 1, BatchSize: 0},                // batch < 1
		{Field: f, N: 7, T: 1, BatchSize: 8, Threshold: 1},  // threshold < 2
		{Field: f, N: 7, T: 1, BatchSize: 4, Threshold: 4},  // batch ≤ threshold
		{Field: f, N: 7, T: 1, BatchSize: 8, HighWater: 3},  // high water < threshold
		{Field: f, N: 7, T: 1, BatchSize: 16, HighWater: 2}, // high water < default threshold
	}
	for i, cfg := range cases {
		if err := cfg.Validate(); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
	if err := (Config{Field: f, N: 7, T: 1, BatchSize: 8}).Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
}

func TestSetupTrustedValidation(t *testing.T) {
	cfg := defaultConfig(7, 1)
	rng := rand.New(rand.NewSource(1))
	if _, err := SetupTrusted(cfg, 2, rng); err == nil {
		t.Error("seed below threshold accepted")
	}
	bad := cfg
	bad.N = 5
	if _, err := SetupTrusted(bad, 10, rng); err == nil {
		t.Error("invalid config accepted")
	}
}

func TestNewFromBatch(t *testing.T) {
	cfg := defaultConfig(7, 1)
	rng := rand.New(rand.NewSource(4))
	batches, values, err := coin.DealTrusted(cfg.Field, cfg.N, cfg.T, 10, rng)
	if err != nil {
		t.Fatal(err)
	}
	nw := simnet.New(cfg.N)
	fns := make([]simnet.PlayerFunc, cfg.N)
	for i := range fns {
		fns[i] = func(nd *simnet.Node) (interface{}, error) {
			g, err := NewFromBatch(cfg, batches[i])
			if err != nil {
				return nil, err
			}
			return g.Next(nd, rand.New(rand.NewSource(int64(i))))
		}
	}
	for i, r := range simnet.Run(nw, fns) {
		if r.Err != nil {
			t.Fatalf("player %d: %v", i, r.Err)
		}
		if r.Value.(gf2k.Element) != values[0] {
			t.Fatalf("player %d: wrong first coin", i)
		}
	}
	// Invalid batch rejected.
	if _, err := NewFromBatch(cfg, &coin.Batch{Field: cfg.Field, T: 2, S: []int{0, 1}}); err == nil {
		t.Error("invalid batch accepted")
	}
}

func TestProactiveRotation(t *testing.T) {
	// E13 (crash flavour): the faulty set moves over time. With n=13, t=2
	// the system tolerates two concurrent faults; player 2 crashes before
	// the first batch, player 9 crashes later. No long-lived secret exists
	// (each batch is freshly dealt), so the survivors keep producing
	// unanimous coins throughout. (Byzantine-then-recovered rotation is
	// exercised at the coingen layer, where a bad dealer stays in lockstep
	// and participates honestly in the following batch.)
	cfg := defaultConfig(13, 2)
	cfg.BatchSize = 12
	rng := rand.New(rand.NewSource(7))
	gens, err := SetupTrusted(cfg, 8, rng)
	if err != nil {
		t.Fatal(err)
	}

	crash := func(nd *simnet.Node) (interface{}, error) { return nil, nil }

	runPhase := func(crashed map[int]bool, seed int64) []gf2k.Element {
		t.Helper()
		nw := simnet.New(cfg.N)
		fns := make([]simnet.PlayerFunc, cfg.N)
		for i := 0; i < cfg.N; i++ {
			if crashed[i] {
				fns[i] = crash
				continue
			}
			fns[i] = func(nd *simnet.Node) (interface{}, error) {
				rnd := rand.New(rand.NewSource(seed + int64(i)))
				out := make([]gf2k.Element, 0, 10)
				for j := 0; j < 10; j++ {
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
		var ref []gf2k.Element
		for i, r := range results {
			if crashed[i] {
				continue
			}
			if r.Err != nil {
				t.Fatalf("phase(crashed=%v) player %d: %v", crashed, i, r.Err)
			}
			coins := r.Value.([]gf2k.Element)
			if ref == nil {
				ref = coins
				continue
			}
			for h := range ref {
				if coins[h] != ref[h] {
					t.Fatalf("phase(crashed=%v): coin %d differs at player %d", crashed, h, i)
				}
			}
		}
		return ref
	}

	phase1 := runPhase(map[int]bool{2: true}, 100)
	phase2 := runPhase(map[int]bool{2: true, 9: true}, 200)
	if len(phase1) != 10 || len(phase2) != 10 {
		t.Fatal("phases incomplete")
	}
}

func TestSeedTooSmallForRefillErrors(t *testing.T) {
	// A hostile schedule: threshold 2 with a seed of 2 and bad luck could
	// exhaust mid-refill; configuration requires threshold ≥ 2 but a seed
	// equal to the threshold with a faulty leader marathon is still shown
	// to surface an error rather than hang. Simulate with a store that is
	// nearly dry by consuming first.
	cfg := defaultConfig(7, 1)
	cfg.BatchSize = 8
	cfg.Threshold = 2
	results := drive(t, cfg, 2, 11, func(nd *simnet.Node, g *Generator, rnd *rand.Rand) (interface{}, error) {
		// Remaining = 2 = threshold, so no refill; consume one.
		if _, err := g.Next(nd, rnd); err != nil {
			return nil, err
		}
		// Remaining = 1 < threshold: refill consumes challenge (leaving 0)
		// and then needs a leader coin → exhausted unless refill succeeded
		// within... challenge takes the last coin; leader draw fails.
		_, err := g.Next(nd, rnd)
		return nil, err
	}, nil)
	for i, r := range results {
		if !errors.Is(r.Err, coin.ErrExhausted) {
			t.Fatalf("player %d: err = %v, want ErrExhausted", i, r.Err)
		}
	}
}

func TestDeterministicGoldenStream(t *testing.T) {
	// With seeded randomness the entire pipeline — dealing, challenges,
	// leader draws, exposures — is deterministic (simnet delivers in a
	// deterministic order), so two independent executions must produce
	// bit-identical coin streams. This guards against accidental
	// nondeterminism (map iteration, scheduling) leaking into protocol
	// results.
	run := func() []gf2k.Element {
		cfg := defaultConfig(7, 1)
		cfg.BatchSize = 8
		rng := rand.New(rand.NewSource(424242))
		gens, err := SetupTrusted(cfg, 8, rng)
		if err != nil {
			t.Fatal(err)
		}
		nw := simnet.New(cfg.N)
		fns := make([]simnet.PlayerFunc, cfg.N)
		for i := 0; i < cfg.N; i++ {
			fns[i] = func(nd *simnet.Node) (interface{}, error) {
				rnd := rand.New(rand.NewSource(int64(i) * 7))
				out := make([]gf2k.Element, 0, 12)
				for len(out) < 12 {
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
		for i, r := range results {
			if r.Err != nil {
				t.Fatalf("player %d: %v", i, r.Err)
			}
		}
		return results[0].Value.([]gf2k.Element)
	}
	a, b := run(), run()
	for h := range a {
		if a[h] != b[h] {
			t.Fatalf("coin %d nondeterministic: %#x vs %#x", h, a[h], b[h])
		}
	}
}
