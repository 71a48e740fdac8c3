// Package baseline implements the from-scratch comparators the paper
// measures itself against in §1.4 and §3.1:
//
//   - CCDVSS: the cut-and-choose VSS of Chaum–Crépeau–Damgård [9], which
//     needs κ polynomial interpolations for soundness error 2^−κ (vs. one
//     interpolation for the paper's coin-checked VSS);
//   - FeldmanVSS: the discrete-log VSS of Feldman [12], with t
//     exponentiations per party over a 1024-bit prime field;
//   - FromScratchCoin: generating each shared coin from scratch (every
//     player deals a contribution, every dealing is cut-and-choose
//     verified, the survivors' contributions are summed), the cost the
//     D-PRBG's amortization is measured against in experiment E10.
//
// All three run over the same simulated network and metrics as the paper's
// protocols, so measured ratios isolate algorithmic differences.
package baseline

import (
	"fmt"
	"io"

	"repro/internal/bw"
	"repro/internal/gf2k"
	"repro/internal/metrics"
	"repro/internal/poly"
	"repro/internal/simnet"
)

// CCDConfig parameterizes the cut-and-choose VSS.
type CCDConfig struct {
	// Field is GF(2^k).
	Field gf2k.Field
	// N, T: players and fault bound, N ≥ 3T+1.
	N, T int
	// Kappa is the number of masking polynomials; soundness error is 2^−κ.
	// To match the paper's VSS at security k, κ = k.
	Kappa int
	// Counters records costs when non-nil.
	Counters *metrics.Counters
}

// Validate checks parameters.
func (c CCDConfig) Validate() error {
	if c.N < 3*c.T+1 {
		return fmt.Errorf("baseline: need n ≥ 3t+1, got n=%d t=%d", c.N, c.T)
	}
	if c.Kappa < 1 {
		return fmt.Errorf("baseline: kappa must be ≥ 1, got %d", c.Kappa)
	}
	return nil
}

// CCDVSS runs one dealer's cut-and-choose verifiable sharing of `secret`
// (only read at the dealer) and returns this player's verdict plus its
// share of f. Protocol (per [9], adapted to our synchronous simulator):
//
//	round 1: dealer sends each player its shares of f and of κ random
//	         masking polynomials g_1..g_κ;
//	round 2: every player broadcasts one random challenge bit per mask;
//	         the XOR of all players' bits forms the public challenges
//	         b_1..b_κ (unpredictable to the dealer as long as one honest
//	         player's bits are random);
//	round 3: for each j, every player broadcasts its share of g_j (if
//	         b_j = 0) or f+g_j (if b_j = 1); everyone checks each opened
//	         polynomial has degree ≤ t via one interpolation per mask —
//	         κ interpolations total, the cost the paper contrasts with its
//	         single-interpolation Batch-VSS.
//
// All honest players return the same verdict.
func CCDVSS(nd *simnet.Node, cfg CCDConfig, dealer int, secret gf2k.Element, rnd io.Reader) (bool, gf2k.Element, error) {
	if err := cfg.Validate(); err != nil {
		return false, 0, err
	}
	f := cfg.Field
	n, t, kappa := cfg.N, cfg.T, cfg.Kappa
	me := nd.Index()

	// Round 1: dealing.
	if me == dealer {
		polys := make([]poly.Poly, kappa+1)
		var err error
		polys[0], err = poly.Random(f, t, secret, rnd)
		if err != nil {
			return false, 0, err
		}
		for j := 1; j <= kappa; j++ {
			mask, err := f.Rand(rnd)
			if err != nil {
				return false, 0, err
			}
			polys[j], err = poly.Random(f, t, mask, rnd)
			if err != nil {
				return false, 0, err
			}
		}
		for i := 0; i < n; i++ {
			if i == me {
				continue
			}
			id, err := f.ElementFromID(i + 1)
			if err != nil {
				return false, 0, err
			}
			buf := make([]byte, 0, (kappa+1)*f.ByteLen())
			for _, p := range polys {
				buf = f.AppendElement(buf, poly.Eval(f, p, id))
			}
			nd.Send(i, buf)
		}
		// Dealer keeps its own shares; it still participates in the round.
		if _, err := nd.EndRound(); err != nil {
			return false, 0, err
		}
		ownID, err := f.ElementFromID(me + 1)
		if err != nil {
			return false, 0, err
		}
		own := make([]gf2k.Element, kappa+1)
		for j := range polys {
			own[j] = poly.Eval(f, polys[j], ownID)
		}
		return ccdVerify(nd, cfg, own, rnd)
	}

	msgs, err := nd.EndRound()
	if err != nil {
		return false, 0, err
	}
	var shares []gf2k.Element
	if payload, ok := simnet.FirstFrom(msgs, dealer); ok {
		if s, rest, err := f.ReadElements(payload, kappa+1); err == nil && len(rest) == 0 {
			shares = s
		}
	}
	if shares == nil {
		shares = make([]gf2k.Element, kappa+1) // contribute zeros; reject likely
	}
	return ccdVerify(nd, cfg, shares, rnd)
}

// ccdVerify runs rounds 2–3 given this player's shares [f, g_1..g_κ].
func ccdVerify(nd *simnet.Node, cfg CCDConfig, shares []gf2k.Element, rnd io.Reader) (bool, gf2k.Element, error) {
	f := cfg.Field
	n, t, kappa := cfg.N, cfg.T, cfg.Kappa

	// Round 2: joint challenge bits.
	myBits := make([]byte, (kappa+7)/8)
	if _, err := io.ReadFull(rnd, myBits); err != nil {
		return false, 0, err
	}
	nd.Broadcast(myBits)
	msgs, err := nd.EndRound()
	if err != nil {
		return false, 0, err
	}
	challenge := make([]byte, (kappa+7)/8)
	for _, payload := range simnet.FirstFromEach(msgs) {
		if len(payload) != len(challenge) {
			continue
		}
		for i := range challenge {
			challenge[i] ^= payload[i]
		}
	}
	bit := func(j int) bool { return challenge[j/8]>>(j%8)&1 == 1 }

	// Round 3: open g_j or f+g_j.
	buf := make([]byte, 0, kappa*f.ByteLen())
	for j := 1; j <= kappa; j++ {
		v := shares[j]
		if bit(j - 1) {
			v = f.Add(v, shares[0])
		}
		buf = f.AppendElement(buf, v)
	}
	nd.Broadcast(buf)
	msgs, err = nd.EndRound()
	if err != nil {
		return false, 0, err
	}

	opened := make(map[int][]gf2k.Element, n)
	for from, payload := range simnet.FirstFromEach(msgs) {
		if vals, rest, err := f.ReadElements(payload, kappa); err == nil && len(rest) == 0 {
			opened[from] = vals
		}
	}

	// Check each opened polynomial has degree ≤ t (one interpolation per
	// mask, tolerating the ≤ t faulty contributions).
	for j := 0; j < kappa; j++ {
		var xs, ys []gf2k.Element
		for from := 0; from < n; from++ {
			vals, ok := opened[from]
			if !ok {
				continue
			}
			id, err := f.ElementFromID(from + 1)
			if err != nil {
				continue
			}
			xs = append(xs, id)
			ys = append(ys, vals[j])
		}
		missing := n - len(xs)
		if missing > t {
			return false, 0, nil
		}
		budget := t - missing
		if _, err := bw.Decode(f, xs, ys, t, budget, cfg.Counters); err != nil {
			return false, 0, nil
		}
	}
	return true, shares[0], nil
}
