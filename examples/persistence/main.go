// Command persistence demonstrates the paper's §1.2 storage pattern: "the
// generator is run to produce as many coins as the current execution of the
// application needs, plus another (distributed) seed. The new seed is
// stored until the next execution of the application."
//
// Session 1 consumes some coins and writes each player's remaining sealed
// batch to disk. Session 2 — a fresh network, as if the processes had been
// restarted — restores the batches and keeps generating, including running
// a full Coin-Gen refill funded entirely by the restored seed. The trusted
// dealer is never consulted again.
package main

import (
	"fmt"
	"log"
	"math/rand"
	"os"
	"path/filepath"

	"repro"
	"repro/internal/coin"
	"repro/internal/core"
)

const (
	n = 7
	t = 1
	k = 32
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	dir, err := os.MkdirTemp("", "dprbg-seed-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	field := repro.MustNewField(k)
	rng := rand.New(rand.NewSource(2026))

	// ---- Session 1: one-time trusted setup, consume, store. ----
	batches, _, err := coin.DealTrusted(field, n, t, 12, rng)
	if err != nil {
		return err
	}
	nw1 := repro.NewNetwork(n)
	fns := make([]repro.PlayerFunc, n)
	for i := 0; i < n; i++ {
		fns[i] = func(nd *repro.Node) (interface{}, error) {
			var out []repro.Element
			for c := 0; c < 4; c++ { // the "application" uses 4 coins
				v, err := batches[i].Expose(nd)
				if err != nil {
					return nil, err
				}
				out = append(out, v)
			}
			return out, nil
		}
	}
	for i, r := range repro.Run(nw1, fns) {
		if r.Err != nil {
			return fmt.Errorf("session 1 player %d: %w", i, r.Err)
		}
	}
	for i, b := range batches {
		data, err := b.MarshalBinary()
		if err != nil {
			return err
		}
		if err := os.WriteFile(seedFile(dir, i), data, 0o600); err != nil {
			return err
		}
	}
	fmt.Printf("session 1: consumed 4 coins, stored %d-coin seeds under %s\n",
		batches[0].Remaining(), dir)

	// ---- Session 2: fresh processes restore the stored seed. ----
	cfg := repro.Config{Field: field, N: n, T: t, BatchSize: 16}
	gens := make([]*repro.Generator, n)
	for i := range gens {
		data, err := os.ReadFile(seedFile(dir, i))
		if err != nil {
			return err
		}
		restored, err := coin.UnmarshalBatch(data)
		if err != nil {
			return err
		}
		gens[i], err = core.NewFromBatch(cfg, restored)
		if err != nil {
			return err
		}
	}
	nw2 := repro.NewNetwork(n)
	fns2 := make([]repro.PlayerFunc, n)
	for i := 0; i < n; i++ {
		fns2[i] = func(nd *repro.Node) (interface{}, error) {
			rnd := rand.New(rand.NewSource(int64(3000 + i)))
			var out []repro.Element
			for c := 0; c < 20; c++ { // more than the stored seed: forces a refill
				v, err := gens[i].Next(nd, rnd)
				if err != nil {
					return nil, err
				}
				out = append(out, v)
			}
			return out, nil
		}
	}
	results := repro.Run(nw2, fns2)
	ref := results[0].Value.([]repro.Element)
	for i, r := range results {
		if r.Err != nil {
			return fmt.Errorf("session 2 player %d: %w", i, r.Err)
		}
		for h, v := range r.Value.([]repro.Element) {
			if v != ref[h] {
				return fmt.Errorf("unanimity violated at player %d coin %d", i, h)
			}
		}
	}
	st := gens[0].Stats()
	fmt.Printf("session 2: restored seeds, delivered %d more coins "+
		"(%d Coin-Gen refills funded by the stored seed — no dealer involved)\n",
		st.CoinsDelivered, st.Batches)
	fmt.Printf("first restored-session coins: %08x %08x %08x ...\n", ref[0], ref[1], ref[2])
	return nil
}

func seedFile(dir string, player int) string {
	return filepath.Join(dir, fmt.Sprintf("player-%d.seed", player))
}
