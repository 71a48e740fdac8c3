// Command batchvss demonstrates the paper's second contribution in
// isolation: Batch-VSS (§3, Fig. 3). A dealer shares M secrets with seven
// players; verification costs ONE shared coin and ONE interpolation per
// player regardless of M. The example verifies batches of growing size,
// prints the measured cost per secret, and shows the amortization curve of
// Corollary 1 ("the amortized computation required to verify a secret is
// 2k log k per player, and the amortized communication is O(1)").
package main

import (
	"fmt"
	"log"
	"math/rand"

	"repro"
	"repro/internal/coin"
	"repro/internal/metrics"
	"repro/internal/vss"
)

const (
	n = 7
	t = 2
	k = 32
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	field := repro.MustNewField(k)
	fmt.Printf("Batch-VSS amortization (n=%d, t=%d, GF(2^%d))\n\n", n, t, k)
	fmt.Printf("%8s  %14s  %14s  %16s\n", "M", "bytes/secret", "msgs/secret", "interp/player")

	for _, m := range []int{1, 4, 16, 64, 256} {
		var ctr metrics.Counters
		rng := rand.New(rand.NewSource(int64(m)))
		batches, _, err := coin.DealTrusted(field, n, t, 2, rng)
		if err != nil {
			return err
		}

		secrets := make([]repro.Element, m)
		for j := range secrets {
			s, err := field.Rand(rng)
			if err != nil {
				return err
			}
			secrets[j] = s
		}

		nw := repro.NewNetwork(n, repro.WithCounters(&ctr))
		fns := make([]repro.PlayerFunc, n)
		for i := 0; i < n; i++ {
			fns[i] = func(nd *repro.Node) (interface{}, error) {
				cfg := vss.Config{Field: field, N: n, T: t, Coins: batches[i], Counters: &ctr}
				var rnd *rand.Rand
				var mySecrets []repro.Element
				if i == 0 {
					rnd = rand.New(rand.NewSource(int64(m) * 77))
					mySecrets = secrets
				}
				inst, err := vss.Deal(nd, cfg, 0, mySecrets, rnd)
				if err != nil {
					return nil, err
				}
				ok, err := inst.Verify(nd)
				if err != nil {
					return nil, err
				}
				if !ok {
					return nil, fmt.Errorf("honest dealer rejected")
				}
				return nil, nil
			}
		}
		for i, r := range repro.Run(nw, fns) {
			if r.Err != nil {
				return fmt.Errorf("M=%d player %d: %w", m, i, r.Err)
			}
		}
		s := ctr.Snapshot()
		fmt.Printf("%8d  %14.1f  %14.2f  %16.2f\n",
			m,
			float64(s.Bytes)/float64(m),
			float64(s.Messages)/float64(m),
			float64(s.Interpolations)/float64(n))
	}

	fmt.Println("\nbytes and messages per secret fall toward a constant as M grows,")
	fmt.Println("and each player performs a single verification interpolation per")
	fmt.Println("ceremony no matter how many secrets it covers (Lemma 4, Corollary 1).")
	return nil
}
