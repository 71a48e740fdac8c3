package conformance

import (
	"repro/internal/adversary"
	"repro/internal/gf2k"
	"repro/internal/simnet"
)

// ceCorrupt returns the corrupted members of S in every Coin-Expose
// scenario: the first t players. They own the first t of the t+1 points the
// decoder's fast-path candidate interpolates through, so every lie forces
// the full Berlekamp–Welch solve rather than surfacing in the scan behind a
// clean candidate.
func ceCorrupt(t int) []int {
	out := make([]int, t)
	for i := range out {
		out[i] = i
	}
	return out
}

// CoinExposeOutcome is the result of one vector Coin-Expose scenario.
type CoinExposeOutcome struct {
	Env             *env
	Corrupt, Honest []int
	// Coins[i] is everything honest player i opened, in stream order.
	Coins map[int][]gf2k.Element
}

// RunCoinExpose executes one vector Coin-Expose scenario (Fig. 6 on k = M
// coins per round) over a trusted-dealt batch of 2M+1 coins at n = 3t+1, so
// S is everyone and the attack's t corrupted members spend the whole error
// budget: every player opens M coins in one round, then one coin alone, then
// M more — the single exposure between two vectors pins that both go through
// one kernel and one cursor. The corrupted members run honest code; the
// attack (adversary.ExposeAttack) rewrites what they send.
func RunCoinExpose(sc Scenario) (*CoinExposeOutcome, error) {
	out := &CoinExposeOutcome{Coins: map[int][]gf2k.Element{}}
	var ic simnet.Interceptor
	if sc.Attack != "honest" {
		out.Corrupt = ceCorrupt(sc.T)
		st, err := adversary.ExposeAttack(sc.Attack, gf2k.MustNew(32), out.Corrupt, sc.Seed)
		if err != nil {
			return nil, err
		}
		ic = st
	}
	e, err := newEnv(sc, ic, 2*sc.M+1)
	if err != nil {
		return nil, err
	}
	out.Env = e

	pools := sc.pools()
	fns := make([]simnet.PlayerFunc, sc.N)
	for i := range fns {
		fns[i] = func(nd *simnet.Node) (interface{}, error) {
			b := e.seeds[nd.Index()]
			b.Pool = pools[nd.Index()]
			coins, err := b.ExposeN(nd, sc.M)
			if err != nil {
				return nil, err
			}
			one, err := b.Expose(nd)
			if err != nil {
				return nil, err
			}
			more, err := b.ExposeN(nd, sc.M)
			if err != nil {
				return nil, err
			}
			return append(append(coins, one), more...), nil
		}
	}

	out.Honest = sc.assertable(out.Corrupt)
	results := simnet.Run(e.nw, fns)
	if err := checkHonest(e, results, out.Honest); err != nil {
		return nil, err
	}
	for _, i := range out.Honest {
		coins, ok := results[i].Value.([]gf2k.Element)
		if !ok {
			return nil, e.failf("honest player %d returned %T, want []gf2k.Element", i, results[i].Value)
		}
		out.Coins[i] = coins
	}
	return out, nil
}

// Check asserts Coin-Expose's guarantee, coordinate by coordinate: every
// honest player opened exactly the dealt coins, in order — which is
// unanimity and correctness at once, whatever the ≤ t corrupted members of
// S sent.
func (o *CoinExposeOutcome) Check() error {
	e := o.Env
	for _, i := range o.Honest {
		if len(o.Coins[i]) != len(e.seedVals) {
			return e.failf("player %d opened %d coins, want %d", i, len(o.Coins[i]), len(e.seedVals))
		}
		for h, want := range e.seedVals {
			if o.Coins[i][h] != want {
				return e.failf("coin %d: player %d opened %#x, dealt %#x", h, i, o.Coins[i][h], want)
			}
		}
	}
	return nil
}
