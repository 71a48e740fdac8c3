package main

import (
	"math/rand"

	"repro/internal/coin"
	"repro/internal/gf2k"
	"repro/internal/metrics"
	"repro/internal/poly"
	"repro/internal/simnet"
	"repro/internal/vss"
)

// vssCeremony runs Deal+Verify for all players with dealer 0 and returns
// the honest players' common verdict. cheat values: 0 honest, 1 random
// wrong-degree dealer, 2 optimal wrong-degree dealer (plants M distinct
// roots in the challenge polynomial, achieving the M/p bound exactly).
func vssCeremony(field gf2k.Field, n, t, m int, seed int64, cheat int, ctr *metrics.Counters) bool {
	if ctr != nil {
		field = field.WithCounters(ctr)
	}
	rng := rand.New(rand.NewSource(seed))
	batches, _, err := coin.DealTrusted(field, n, t, 1, rng)
	if err != nil {
		panic(err)
	}
	var opts []simnet.Option
	if ctr != nil {
		opts = append(opts, simnet.WithCounters(ctr))
	}
	nw := simnet.New(n, opts...)
	fns := make([]simnet.PlayerFunc, n)
	for i := 0; i < n; i++ {
		fns[i] = func(nd *simnet.Node) (interface{}, error) {
			cfg := vss.Config{Field: field, N: n, T: t, Coins: batches[i], Counters: ctr}
			if i == 0 && cheat != 0 {
				return cheatingVSSDealer(nd, cfg, m, seed, cheat == 2)
			}
			rnd := rand.New(rand.NewSource(seed + int64(i) + 1))
			var secrets []gf2k.Element
			if i == 0 {
				secrets = make([]gf2k.Element, m)
				for j := range secrets {
					secrets[j], _ = field.Rand(rnd)
				}
			}
			inst, err := vss.Deal(nd, cfg, 0, secrets, rnd)
			if err != nil {
				return nil, err
			}
			return inst.Verify(nd)
		}
	}
	results := simnet.Run(nw, fns)
	for i := 1; i < n; i++ {
		if results[i].Err != nil {
			panic(results[i].Err)
		}
	}
	return results[1].Value.(bool)
}

// cheatingVSSDealer deals shares of degree-(t+1) polynomials and then
// follows the protocol honestly. With optimal=true the degree-(t+1)
// coefficients are the coefficients of Q(r) = Π_{i=1..M} (r − i), so the
// batch check passes exactly when the challenge r lands on one of M
// planted roots — the adversary achieving Lemma 3's M/p bound.
func cheatingVSSDealer(nd *simnet.Node, cfg vss.Config, m int, seed int64, optimal bool) (interface{}, error) {
	f := cfg.Field
	rnd := rand.New(rand.NewSource(seed*31 + 7))
	mask := f.K()
	var maskVal uint64 = ^uint64(0)
	if mask < 64 {
		maskVal = (uint64(1) << mask) - 1
	}
	polys := make([]poly.Poly, m+1)
	for j := 0; j <= m; j++ {
		p, err := poly.Random(f, cfg.T+1, gf2k.Element(rnd.Uint64()&maskVal), rnd)
		if err != nil {
			return nil, err
		}
		if j < m && p[cfg.T+1] == 0 {
			p[cfg.T+1] = 1
		}
		polys[j] = p
	}
	if optimal {
		// Q(r) = Π_{i=1..m} (r − i): coefficient q_j goes to secret j's
		// top coefficient (the combination multiplies it by r^j) and q_0
		// to the mask's, so the combined top coefficient IS Q(r).
		q := poly.Poly{1}
		for i := 1; i <= m; i++ {
			root, err := f.ElementFromID(i)
			if err != nil {
				return nil, err
			}
			q = poly.Mul(f, q, poly.Poly{root, 1})
		}
		polys[m][cfg.T+1] = q[0] // mask
		for j := 1; j <= m; j++ {
			polys[j-1][cfg.T+1] = q[j]
		}
	}
	var myShares []gf2k.Element
	var myMask gf2k.Element
	for i := 0; i < cfg.N; i++ {
		id, err := f.ElementFromID(i + 1)
		if err != nil {
			return nil, err
		}
		buf := make([]byte, 0, (m+1)*f.ByteLen())
		shares := make([]gf2k.Element, 0, m+1)
		for _, p := range polys {
			v := poly.Eval(f, p, id)
			shares = append(shares, v)
			buf = f.AppendElement(buf, v)
		}
		if i == nd.Index() {
			myShares = shares[:m]
			myMask = shares[m]
			continue
		}
		nd.Send(i, buf)
	}
	if _, err := nd.EndRound(); err != nil {
		return nil, err
	}
	inst := vss.NewInstance(cfg, nd.Index(), myShares, myMask)
	return inst.Verify(nd)
}
