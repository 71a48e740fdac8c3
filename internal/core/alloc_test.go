package core

import (
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/coin"
	"repro/internal/gf2k"
	"repro/internal/simnet"
)

// mintShape is the mint-n13 bench shape: n = 13, t = 2, M = 256.
var mintShape = Config{Field: gf2k.MustNew(32), N: 13, T: 2, BatchSize: 256}

// mintLoop has every player of one in-memory network run k seeded mints in
// lockstep, drawing on seeds; call numbers the first mint's Rand streams.
func mintLoop(tb testing.TB, seeds []*coin.Batch, k int, call int64) {
	tb.Helper()
	cfg := mintShape
	fns := make([]simnet.PlayerFunc, cfg.N)
	for p := range fns {
		fns[p] = func(nd *simnet.Node) (interface{}, error) {
			for i := int64(0); i < int64(k); i++ {
				rnd := rand.New(rand.NewSource(int64(p)*1009 + (call+i)*1_000_003))
				if _, err := Mint(cfg, nd, seeds[p], rnd); err != nil {
					return nil, err
				}
			}
			return nil, nil
		}
	}
	for p, r := range simnet.Run(simnet.New(cfg.N, simnet.WithMaxRounds(1<<40)), fns) {
		if r.Err != nil {
			tb.Fatalf("player %d: %v", p, r.Err)
		}
	}
}

// dealMintSeeds deals enough seed coins for k mints.
func dealMintSeeds(tb testing.TB, k int) []*coin.Batch {
	tb.Helper()
	seeds, _, err := coin.DealTrusted(mintShape.Field, mintShape.N, mintShape.T, 8+4*k, rand.New(rand.NewSource(13)))
	if err != nil {
		tb.Fatal(err)
	}
	return seeds
}

// TestMintAllocationBudget guards Coin-Gen's hot path against the
// allocator, all 13 players of a mint counted together. A mint makes about
// 2 360 allocations and allocates 1.5 MB; element reads, the consistency
// graph and message copies are the largest sources left (EXPERIMENTS.md
// E29, E30).
func TestMintAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	const (
		mints     = 4
		maxAllocs = 2500
		maxBytes  = 2.0e6
	)
	seeds := dealMintSeeds(t, 1+mints)
	mintLoop(t, seeds, 1, 0) // warm the domain cache and the IDs' multipliers
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	mintLoop(t, seeds, mints, 1)
	runtime.ReadMemStats(&after)
	allocs := float64(after.Mallocs-before.Mallocs) / mints
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / mints
	t.Logf("per mint: %.0f allocations, %.0f bytes", allocs, bytes)
	if allocs > maxAllocs {
		t.Errorf("%.0f allocations per mint, budget %d", allocs, maxAllocs)
	}
	if bytes > maxBytes {
		t.Errorf("%.0f bytes allocated per mint, budget %.0f", bytes, maxBytes)
	}
}

// BenchmarkMint is the guard's loop as a profiling target, e.g.
//
//	go test ./internal/core -run '^$' -bench Mint -benchtime 400x -cpu 1 \
//	    -cpuprofile cpu.prof -memprofile mem.prof
//
// One op is one mint by all 13 players.
func BenchmarkMint(b *testing.B) {
	seeds := dealMintSeeds(b, 1+b.N)
	mintLoop(b, seeds, 1, 0)
	b.ReportAllocs()
	b.ResetTimer()
	mintLoop(b, seeds, b.N, 1)
}
