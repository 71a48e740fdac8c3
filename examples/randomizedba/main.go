// Command randomizedba runs the paper's motivating application: randomized
// Byzantine agreement driven by shared coins (§1: shared coins "are needed,
// amongst other things, for Byzantine agreement"). Eleven players — two of
// them Byzantine — start from split inputs and must agree. Each agreement
// phase consumes exactly one shared coin from the D-PRBG.
package main

import (
	"crypto/rand"
	"fmt"
	"log"

	"repro"
	"repro/internal/adversary"
	"repro/internal/rba"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	const (
		n      = 13 // players (n ≥ 6t+1 for the generator, ≥ 5t+1 for RBA)
		t      = 2
		k      = 32
		phases = 16 // residual disagreement probability ≤ 2^-16
	)

	field, err := repro.NewField(k)
	if err != nil {
		return err
	}
	cfg := repro.Config{Field: field, N: n, T: t, BatchSize: phases + 8}
	gens, err := repro.SetupTrusted(cfg, 8, rand.Reader)
	if err != nil {
		return err
	}

	// Split inputs: players < n/2 vote 0, the rest vote 1. Two Byzantine
	// players try to keep the split alive with garbage and silence.
	inputs := make([]byte, n)
	for i := range inputs {
		if i >= n/2 {
			inputs[i] = 1
		}
	}
	byzantine := map[int]repro.PlayerFunc{
		3:  adversary.GarbageSpammer(42, 200, 16),
		10: adversary.SilentFor(200, nil),
	}

	nw := repro.NewNetwork(n)
	fns := make([]repro.PlayerFunc, n)
	for i := 0; i < n; i++ {
		if bf, ok := byzantine[i]; ok {
			fns[i] = bf
			continue
		}
		fns[i] = func(nd *repro.Node) (interface{}, error) {
			// Pre-mint enough coins so the agreement itself never triggers
			// a refill mid-protocol, then run RBA on the generator's store.
			if gens[i].Remaining() < phases+2 {
				if err := gens[i].Refill(nd, rand.Reader); err != nil {
					return nil, err
				}
			}
			src := generatorSource{g: gens[i]}
			decided, err := rba.Run(nd, rba.Config{N: n, T: t, Phases: phases, Coins: src}, inputs[i])
			if err != nil {
				return nil, err
			}
			return decided, nil
		}
	}
	results := repro.Run(nw, fns)

	counts := map[byte]int{}
	for i, r := range results {
		if _, bad := byzantine[i]; bad {
			fmt.Printf("player %2d: BYZANTINE\n", i)
			continue
		}
		if r.Err != nil {
			return fmt.Errorf("player %d: %w", i, r.Err)
		}
		d := r.Value.(byte)
		counts[d]++
		fmt.Printf("player %2d: input %d → decided %d\n", i, inputs[i], d)
	}
	if len(counts) != 1 {
		return fmt.Errorf("agreement violated: decisions %v", counts)
	}
	fmt.Printf("\nall %d honest players agreed despite %d Byzantine players;\n", n-len(byzantine), len(byzantine))
	fmt.Printf("the run consumed %d shared coins (one per phase) from the D-PRBG\n", phases)
	return nil
}

// generatorSource adapts a Generator to the coin.Source interface RBA
// expects (exposing directly from the pre-minted store, never refilling
// mid-agreement so every player consumes rounds identically).
type generatorSource struct{ g *repro.Generator }

func (s generatorSource) Expose(nd *repro.Node) (repro.Element, error) {
	return s.g.Next(nd, rand.Reader)
}

func (s generatorSource) Remaining() int { return s.g.Remaining() }
