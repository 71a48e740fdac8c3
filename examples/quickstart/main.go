// Command quickstart demonstrates the D-PRBG end to end: seven players
// (one may be Byzantine), a one-time 8-coin trusted seed, and a stream of
// shared coins that refills itself via Coin-Gen whenever it runs low —
// the paper's Fig. 1 bootstrap.
package main

import (
	"crypto/rand"
	"fmt"
	"log"

	"repro"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	const (
		n         = 7  // players
		t         = 1  // tolerated Byzantine faults (n ≥ 6t+1)
		k         = 32 // coin field GF(2^k)
		seedCoins = 8  // one-time trusted-dealer seed
		want      = 40 // coins the "application" will consume
	)

	field, err := repro.NewField(k)
	if err != nil {
		return err
	}
	cfg := repro.Config{Field: field, N: n, T: t, BatchSize: 16}

	// One-time trusted setup (the paper: "the services of a trusted dealer
	// would be used only once, and for a small number of coins").
	gens, err := repro.SetupTrusted(cfg, seedCoins, rand.Reader)
	if err != nil {
		return err
	}

	nw := repro.NewNetwork(n)
	fns := make([]repro.PlayerFunc, n)
	for i := 0; i < n; i++ {
		fns[i] = func(nd *repro.Node) (interface{}, error) {
			coins := make([]repro.Element, 0, want)
			for len(coins) < want {
				c, err := gens[i].Next(nd, rand.Reader)
				if err != nil {
					return nil, err
				}
				coins = append(coins, c)
			}
			return coins, nil
		}
	}
	results := repro.Run(nw, fns)

	ref := results[0].Value.([]repro.Element)
	for i, r := range results {
		if r.Err != nil {
			return fmt.Errorf("player %d: %w", i, r.Err)
		}
		for h, c := range r.Value.([]repro.Element) {
			if c != ref[h] {
				return fmt.Errorf("unanimity violated at player %d coin %d", i, h)
			}
		}
	}

	fmt.Printf("all %d players saw the same %d shared coins\n", n, want)
	fmt.Printf("first coins: %08x %08x %08x %08x ...\n", ref[0], ref[1], ref[2], ref[3])
	st := gens[0].Stats()
	fmt.Printf("bootstrap stats: %d coins delivered, %d Coin-Gen refills, "+
		"%d seed coins spent internally, %d leader attempts total\n",
		st.CoinsDelivered, st.Batches, st.SeedSpent, st.Attempts)
	fmt.Printf("sealed coins still in stock: %d\n", gens[0].Remaining())
	return nil
}
