package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"reflect"

	"repro/internal/coin"
	"repro/internal/coingen"
	"repro/internal/gf2k"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/simnet"
)

// runE15 — Thm 2 phase breakdown: one traced Coin-Gen run, with every cost
// measure attributed to the paper-figure phase that incurred it. The same
// trace is exported as JSONL and parsed back to demonstrate the round-trip
// property the obs layer guarantees.
func runE15() {
	n, t, m := 7, 1, 16
	field := gf2k.MustNew(32)
	var ctr metrics.Counters
	field = field.WithCounters(&ctr)

	ring := obs.NewRing(0)
	var traceBuf bytes.Buffer
	jsonl := obs.NewJSONL(&traceBuf)
	tracer := obs.New(&ctr, ring, jsonl)

	rng := rand.New(rand.NewSource(151))
	seeds, _, err := coin.DealTrusted(field, n, t, 10, rng)
	if err != nil {
		panic(err)
	}
	nw := simnet.New(n, simnet.WithCounters(&ctr), simnet.WithTracer(tracer))
	fns := make([]simnet.PlayerFunc, n)
	for i := 0; i < n; i++ {
		fns[i] = func(nd *simnet.Node) (interface{}, error) {
			cfg := coingen.Config{Field: field, N: n, T: t, M: m, Seed: seeds[i], Counters: &ctr}
			rnd := rand.New(rand.NewSource(151 + int64(i)))
			res, err := coingen.Run(nd, cfg, rnd)
			if err != nil {
				return nil, err
			}
			for res.Batch.Remaining() > 0 {
				if _, err := res.Batch.Expose(nd); err != nil {
					return nil, err
				}
			}
			return res, nil
		}
	}
	for i, r := range simnet.Run(nw, fns) {
		if r.Err != nil {
			panic(fmt.Sprintf("player %d: %v", i, r.Err))
		}
	}
	if err := jsonl.Flush(); err != nil {
		panic(err)
	}
	events := ring.Events()

	fmt.Printf("one Coin-Gen run, n=%d t=%d M=%d, GF(2^32), all honest; every\n", n, t, m)
	fmt.Printf("span below is player 0's view. Counters are process-global and the\n")
	fmt.Printf("lockstep keeps all players in the same phase, so each span carries\n")
	fmt.Printf("the TOTAL cost of its phase across all %d players; rounds are exact.\n\n", n)

	fmt.Printf("full span hierarchy:\n\n")
	obs.WritePhaseTable(os.Stdout, obs.PhaseSummary(events, 0))

	fmt.Printf("\npaper-figure phases (aggregated leaf spans):\n\n")
	agg := obs.AggregatePhases(events, 0, map[string]string{
		"bitgen/deal":    "Batch-VSS deal (Fig 4 step 1)",
		"bitgen/gamma":   "challenge verification (Fig 4 steps 3-5)",
		"coingen/clique": "consistency graph + clique (Fig 5 steps 4-5)",
		"gradecast":      "Grade-Cast (Fig 3)",
		"ba/phase-king":  "Byzantine agreement (Fig 5 step 10)",
		"coin-expose":    "Coin-Expose (Fig 6)",
	})
	obs.WritePhaseTable(os.Stdout, agg)

	// Round-trip check: the JSONL export must parse back into the identical
	// event sequence the ring recorded.
	parsed, err := obs.ParseJSONL(&traceBuf)
	if err != nil {
		panic(fmt.Sprintf("JSONL parse: %v", err))
	}
	fmt.Printf("\nJSONL round-trip: %d events exported, %d parsed back, identical: %s\n",
		len(events), len(parsed), pass(reflect.DeepEqual(events, parsed)))

	fmt.Println("\nthe fixed costs (deal, verification, grade-cast, BA) dominate this")
	fmt.Println("small batch; Coin-Expose is the only per-coin term (Cor 3), and the")
	fmt.Println("rounds column reproduces the paper's round budget: 1 deal + 1 expose +")
	fmt.Println("1 gamma + 3 grade-cast + (1 leader + 2(t+1) BA) per attempt + M expose.")
}
