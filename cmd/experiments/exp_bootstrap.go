package main

import (
	"fmt"
	"math/rand"

	"repro/internal/adversary"
	"repro/internal/coin"
	"repro/internal/core"
	"repro/internal/gf2k"
	"repro/internal/metrics"
	"repro/internal/rba"
	"repro/internal/simnet"
)

// runE12 — Fig. 1: bootstrap self-sufficiency. A tiny one-time seed
// sustains an effectively endless stream; each refill regenerates more
// than it consumes.
func runE12() {
	const (
		n, t      = 7, 1
		k         = 32
		seedCoins = 8
		deliver   = 500
	)
	field := gf2k.MustNew(k)
	var ctr metrics.Counters
	cfg := core.Config{Field: field, N: n, T: t, BatchSize: 16, Counters: &ctr}
	rng := rand.New(rand.NewSource(12))
	gens, err := core.SetupTrusted(cfg, seedCoins, rng)
	if err != nil {
		panic(err)
	}
	nw := simnet.New(n, simnet.WithCounters(&ctr))
	fns := make([]simnet.PlayerFunc, n)
	for i := 0; i < n; i++ {
		fns[i] = func(nd *simnet.Node) (interface{}, error) {
			rnd := rand.New(rand.NewSource(int64(i)))
			coins := make([]gf2k.Element, 0, deliver)
			for len(coins) < deliver {
				c, err := gens[i].Next(nd, rnd)
				if err != nil {
					return nil, err
				}
				coins = append(coins, c)
			}
			return coins, nil
		}
	}
	results := simnet.Run(nw, fns)
	ref := results[0].Value.([]gf2k.Element)
	violations := 0
	for i, r := range results {
		if r.Err != nil {
			panic(fmt.Sprintf("player %d: %v", i, r.Err))
		}
		for h, c := range r.Value.([]gf2k.Element) {
			if c != ref[h] {
				violations++
			}
		}
	}
	st := gens[0].Stats()
	ones := 0
	seen := make(map[gf2k.Element]bool)
	dups := 0
	for _, c := range ref {
		ones += int(c & 1)
		if seen[c] {
			dups++
		}
		seen[c] = true
	}
	s := ctr.Snapshot()
	fmt.Printf("initial seed:            %d coins (one-time trusted dealer)\n", seedCoins)
	fmt.Printf("coins delivered:         %d\n", st.CoinsDelivered)
	fmt.Printf("Coin-Gen refills:        %d (avg %.2f seed coins consumed each)\n",
		st.Batches, float64(st.SeedSpent)/float64(st.Batches))
	fmt.Printf("leader attempts total:   %d (%.3f per refill)\n", st.Attempts,
		float64(st.Attempts)/float64(st.Batches))
	fmt.Printf("unanimity violations:    %d (bound: Mn·2^-k ≈ %.1e per batch)\n",
		violations, float64(16*n)/float64(uint64(1)<<k))
	fmt.Printf("coin bit balance:        %d/%d ones; duplicate coins: %d\n", ones, deliver, dups)
	fmt.Printf("amortized per coin:      %.0f bytes, %.1f msgs, %.2f rounds\n",
		float64(s.Bytes)/deliver, float64(s.Messages)/deliver, float64(s.Rounds)/deliver)
	fmt.Printf("\n%s: the generator is self-sufficient after the one-time seed.\n",
		pass(violations == 0 && dups == 0))
}

// runE13 — §1.2: pro-active security. The corrupted set moves between
// batches (crash flavour here; the Byzantine-dealer flavour is
// examples/proactive); the system keeps producing unanimous coins.
func runE13() {
	const (
		n, t = 13, 2
		k    = 32
	)
	field := gf2k.MustNew(k)
	cfg := core.Config{Field: field, N: n, T: t, BatchSize: 12, Counters: nil}
	rng := rand.New(rand.NewSource(13))
	gens, err := core.SetupTrusted(cfg, 8, rng)
	if err != nil {
		panic(err)
	}

	phases := []map[int]bool{
		{2: true},
		{2: true, 9: true},
		{2: true, 9: true}, // set fixed "for a constant number of rounds"
	}
	fmt.Printf("n=%d, t=%d; faulty set per phase: %v %v %v\n\n",
		n, t, sortedKeys(phases[0]), sortedKeys(phases[1]), sortedKeys(phases[2]))
	for p, crashed := range phases {
		nw := simnet.New(n)
		fns := make([]simnet.PlayerFunc, n)
		for i := 0; i < n; i++ {
			if crashed[i] {
				fns[i] = adversary.Crash()
				continue
			}
			fns[i] = func(nd *simnet.Node) (interface{}, error) {
				rnd := rand.New(rand.NewSource(int64(p*100 + i)))
				out := make([]gf2k.Element, 0, 8)
				for len(out) < 8 {
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
		ok := true
		for i, r := range results {
			if crashed[i] {
				continue
			}
			if r.Err != nil {
				panic(fmt.Sprintf("phase %d player %d: %v", p, i, r.Err))
			}
			coins := r.Value.([]gf2k.Element)
			if ref == nil {
				ref = coins
				continue
			}
			for h := range ref {
				if coins[h] != ref[h] {
					ok = false
				}
			}
		}
		fmt.Printf("phase %d: 8 coins, unanimous among survivors: %s\n", p+1, pass(ok))
	}
	fmt.Println("\nno long-lived secret exists — every batch is freshly dealt — so the")
	fmt.Println("moving intruder gains nothing from corrupting different players over time.")
}

// runE14 — the application: randomized BA fed by the D-PRBG, with split
// inputs and Byzantine noise.
func runE14() {
	const (
		n, t   = 13, 2
		k      = 32
		phases = 16
	)
	field := gf2k.MustNew(k)
	rng := rand.New(rand.NewSource(14))
	batches, _, err := coin.DealTrusted(field, n, t, phases+2, rng)
	if err != nil {
		panic(err)
	}
	inputs := make([]byte, n)
	for i := range inputs {
		if i >= n/2 {
			inputs[i] = 1
		}
	}
	byz := map[int]bool{3: true, 10: true}
	nw := simnet.New(n)
	fns := make([]simnet.PlayerFunc, n)
	for i := 0; i < n; i++ {
		if byz[i] {
			fns[i] = adversary.GarbageSpammer(int64(i), 3*phases, 8)
			continue
		}
		fns[i] = func(nd *simnet.Node) (interface{}, error) {
			return rba.Run(nd, rba.Config{N: n, T: t, Phases: phases, Coins: batches[i]}, inputs[i])
		}
	}
	results := simnet.Run(nw, fns)
	counts := map[byte]int{}
	for i, r := range results {
		if byz[i] {
			continue
		}
		if r.Err != nil {
			panic(fmt.Sprintf("player %d: %v", i, r.Err))
		}
		counts[r.Value.(byte)]++
	}
	fmt.Printf("n=%d, t=%d, split inputs (%d zeros / %d ones), %d Byzantine spammers\n",
		n, t, n/2, n-n/2, len(byz))
	fmt.Printf("decisions: %v — agreement: %s\n", counts, pass(len(counts) == 1))
	fmt.Printf("shared coins consumed: %d (one per phase; residual disagreement ≤ 2^-%d)\n",
		phases, phases)
}
