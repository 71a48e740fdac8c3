// Command proactive demonstrates the paper's pro-active setting (§1.2):
// "one of the motivations and applications of our work is pro-active
// security..., which deals with settings where intruders are allowed to
// move over time." Thirteen players (t = 2) generate coin batches while the
// corrupted players CHANGE between batches: a wrong-degree dealer in batch
// 1 recovers and participates honestly in batch 2, while a previously
// honest player turns Byzantine. Because every batch is dealt from fresh
// polynomials, no long-lived secret exists for the moving intruder to
// collect.
package main

import (
	"fmt"
	"log"
	"math/rand"
	"slices"

	"repro"
	"repro/internal/adversary"
	"repro/internal/coin"
	"repro/internal/coingen"
)

const (
	n = 13
	t = 2
	k = 32
	m = 6 // coins per batch
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	field := repro.MustNewField(k)
	rng := rand.New(rand.NewSource(2026))
	seeds, _, err := coin.DealTrusted(field, n, t, 16, rng)
	if err != nil {
		return err
	}
	cfg := coingen.Config{Field: field, N: n, T: t, M: m}

	// Corruption schedule: batch 0 → players {2, 9} bad; batch 1 → {5, 9}
	// bad (2 recovered, 5 newly corrupted, 9 still bad). At most t = 2
	// concurrent faults, but three distinct players are corrupted over the
	// run — impossible to tolerate for schemes that fix the faulty set.
	badIn := [2][]int{{2, 9}, {5, 9}}

	nw := repro.NewNetwork(n)
	fns := make([]repro.PlayerFunc, n)
	for i := 0; i < n; i++ {
		fns[i] = func(nd *repro.Node) (interface{}, error) {
			pcfg := cfg
			pcfg.Seed = seeds[i]
			var out [2][]repro.Element
			var cliques [2][]int
			for batch := 0; batch < 2; batch++ {
				rndSeed := int64(1000*batch + i)
				if slices.Contains(badIn[batch], i) {
					// A wrong-degree dealer that stays in lockstep through
					// the whole Coin-Gen, so the same player can rejoin
					// honestly later.
					bad := adversary.CoinGenWrongDegreeDealer(field, n, t, m, seeds[i], rndSeed)
					if _, err := bad(nd); err != nil {
						return nil, err
					}
					for c := 0; c < m; c++ { // keep pace during exposures
						if _, err := nd.EndRound(); err != nil {
							return nil, err
						}
					}
					continue
				}
				res, err := coingen.Run(nd, pcfg, rand.New(rand.NewSource(rndSeed)))
				if err != nil {
					return nil, err
				}
				cliques[batch] = res.Clique
				for res.Batch.Remaining() > 0 {
					c, err := res.Batch.Expose(nd)
					if err != nil {
						return nil, err
					}
					out[batch] = append(out[batch], c)
				}
			}
			return struct {
				Coins   [2][]repro.Element
				Cliques [2][]int
			}{out, cliques}, nil
		}
	}
	results := repro.Run(nw, fns)

	type outT = struct {
		Coins   [2][]repro.Element
		Cliques [2][]int
	}
	// Player 0 is honest in both batches; use it as reference.
	ref := results[0].Value.(outT)
	for batch := 0; batch < 2; batch++ {
		fmt.Printf("batch %d (corrupted: %v)\n", batch+1, badIn[batch])
		fmt.Printf("  agreed clique: %v\n", ref.Cliques[batch])
		fmt.Printf("  coins: ")
		for _, c := range ref.Coins[batch] {
			fmt.Printf("%08x ", c)
		}
		fmt.Println()
		for i, r := range results {
			if slices.Contains(badIn[batch], i) {
				continue
			}
			if r.Err != nil {
				return fmt.Errorf("player %d: %w", i, r.Err)
			}
			o := r.Value.(outT)
			for h := range ref.Coins[batch] {
				if o.Coins[batch][h] != ref.Coins[batch][h] {
					return fmt.Errorf("unanimity violated: batch %d coin %d player %d", batch, h, i)
				}
			}
		}
	}
	if slices.Contains(ref.Cliques[0], 2) || slices.Contains(ref.Cliques[1], 5) {
		return fmt.Errorf("a corrupted dealer slipped into the clique")
	}
	if !slices.Contains(ref.Cliques[1], 2) {
		return fmt.Errorf("recovered player 2 missing from batch-2 clique")
	}
	fmt.Println("\nthe intruder moved (2 → 5) and the generator kept going:")
	fmt.Println("  batch 1 excluded dealer 2; batch 2 re-admitted it and excluded dealer 5")
	return nil
}
