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

// FromScratchConfig parameterizes from-scratch coin generation.
type FromScratchConfig struct {
	// Field is GF(2^k).
	Field gf2k.Field
	// N, T: players and fault bound, N ≥ 3T+1.
	N, T int
	// Kappa is the per-dealer cut-and-choose security (error 2^−κ).
	Kappa int
	// Counters records costs when non-nil.
	Counters *metrics.Counters
}

// FromScratchCoin generates ONE shared random coin with no pre-existing
// sealed coins — the "from scratch" cost the D-PRBG's amortization is
// compared against (§1.1: "A distributed coin is expensive to produce. If
// we need lots of them, it would be a lot of work to produce each one
// individually from scratch"). Every player contributes a secret, every
// contribution is cut-and-choose verified (no challenge coin exists yet, so
// the challenges come from jointly XOR-ed broadcast bits), and the
// survivors' contributions are summed and opened.
//
// Per coin this costs four rounds, Θ(n·κ) interpolations per player and
// Θ(n²·κ·k) communicated bits — against the D-PRBG's amortized single
// interpolation and Θ(n) messages (Corollary 3).
//
// Returns the coin (identical at every honest player).
func FromScratchCoin(nd *simnet.Node, cfg FromScratchConfig, rnd io.Reader) (gf2k.Element, error) {
	if cfg.N < 3*cfg.T+1 {
		return 0, fmt.Errorf("baseline: need n ≥ 3t+1, got n=%d t=%d", cfg.N, cfg.T)
	}
	if cfg.Kappa < 1 {
		return 0, fmt.Errorf("baseline: kappa must be ≥ 1, got %d", cfg.Kappa)
	}
	f := cfg.Field
	n, t, kappa := cfg.N, cfg.T, cfg.Kappa
	me := nd.Index()

	// Round 1: every player deals its contribution + κ masks.
	myPolys := make([]poly.Poly, kappa+1)
	for j := range myPolys {
		secret, err := f.Rand(rnd)
		if err != nil {
			return 0, err
		}
		p, err := poly.Random(f, t, secret, rnd)
		if err != nil {
			return 0, err
		}
		myPolys[j] = p
	}
	for i := 0; i < n; i++ {
		if i == me {
			continue
		}
		id, err := f.ElementFromID(i + 1)
		if err != nil {
			return 0, err
		}
		buf := make([]byte, 0, (kappa+1)*f.ByteLen())
		for _, p := range myPolys {
			buf = f.AppendElement(buf, poly.Eval(f, p, id))
		}
		nd.Send(i, buf)
	}
	msgs, err := nd.EndRound()
	if err != nil {
		return 0, err
	}
	// shares[d][j]: my share of dealer d's polynomial j (0 = contribution).
	shares := make([][]gf2k.Element, n)
	ownID, err := f.ElementFromID(me + 1)
	if err != nil {
		return 0, err
	}
	own := make([]gf2k.Element, kappa+1)
	for j, p := range myPolys {
		own[j] = poly.Eval(f, p, ownID)
	}
	shares[me] = own
	for d, payload := range simnet.FirstFromEach(msgs) {
		if s, rest, err := f.ReadElements(payload, kappa+1); err == nil && len(rest) == 0 {
			shares[d] = s
		}
	}

	// Round 2: joint challenge bits (shared across all dealers).
	myBits := make([]byte, (kappa+7)/8)
	if _, err := io.ReadFull(rnd, myBits); err != nil {
		return 0, err
	}
	nd.Broadcast(myBits)
	msgs, err = nd.EndRound()
	if err != nil {
		return 0, err
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

	// Round 3: open masked polynomials for every dealer. Per dealer: one
	// complaint flag + κ opened shares.
	buf := make([]byte, 0, n*(1+kappa*f.ByteLen()))
	for d := 0; d < n; d++ {
		if shares[d] == nil {
			buf = append(buf, 1)
			buf = append(buf, make([]byte, kappa*f.ByteLen())...)
			continue
		}
		buf = append(buf, 0)
		for j := 1; j <= kappa; j++ {
			v := shares[d][j]
			if bit(j - 1) {
				v = f.Add(v, shares[d][0])
			}
			buf = f.AppendElement(buf, v)
		}
	}
	nd.Broadcast(buf)
	msgs, err = nd.EndRound()
	if err != nil {
		return 0, err
	}

	entry := 1 + kappa*f.ByteLen()
	type opening struct {
		complaint bool
		vals      []gf2k.Element
	}
	openings := make(map[int][]opening, n) // by opener
	for from, payload := range simnet.FirstFromEach(msgs) {
		if len(payload) != n*entry {
			continue
		}
		rows := make([]opening, n)
		okAll := true
		for d := 0; d < n; d++ {
			rec := payload[d*entry : (d+1)*entry]
			vals, rest, err := f.ReadElements(rec[1:], kappa)
			if err != nil || len(rest) != 0 {
				okAll = false
				break
			}
			rows[d] = opening{complaint: rec[0] != 0, vals: vals}
		}
		if okAll {
			openings[from] = rows
		}
	}

	// Decide the accepted dealer set (identical everywhere: pure function
	// of broadcasts).
	accepted := make([]bool, n)
	for d := 0; d < n; d++ {
		complaints := 0
		var xs []gf2k.Element
		var ys [][]gf2k.Element // per mask j
		for from := 0; from < n; from++ {
			rows, ok := openings[from]
			if !ok || rows[d].complaint {
				complaints++
				continue
			}
			id, err := f.ElementFromID(from + 1)
			if err != nil {
				continue
			}
			xs = append(xs, id)
			ys = append(ys, rows[d].vals)
		}
		if complaints > t {
			continue
		}
		budget := t - complaints
		ok := true
		for j := 0; j < kappa && ok; j++ {
			col := make([]gf2k.Element, len(xs))
			for i := range xs {
				col[i] = ys[i][j]
			}
			if _, err := bw.Decode(f, xs, col, t, budget, cfg.Counters); err != nil {
				ok = false
			}
		}
		accepted[d] = ok
	}

	// Round 4: open the summed contribution of accepted dealers.
	var sum gf2k.Element
	complete := true
	for d := 0; d < n; d++ {
		if !accepted[d] {
			continue
		}
		if shares[d] == nil {
			complete = false
			continue
		}
		sum = f.Add(sum, shares[d][0])
	}
	if complete {
		nd.Broadcast(append([]byte{0}, f.AppendElement(nil, sum)...))
	} else {
		nd.Broadcast([]byte{1})
	}
	msgs, err = nd.EndRound()
	if err != nil {
		return 0, err
	}
	var xs, ys []gf2k.Element
	for from, payload := range simnet.FirstFromEach(msgs) {
		if len(payload) < 1 || payload[0] != 0 {
			continue
		}
		v, rest, err := f.ReadElement(payload[1:])
		if err != nil || len(rest) != 0 {
			continue
		}
		id, err := f.ElementFromID(from + 1)
		if err != nil {
			continue
		}
		xs = append(xs, id)
		ys = append(ys, v)
	}
	v, err := bw.OpenSecret(f, xs, ys, t, cfg.Counters, nil)
	if err != nil {
		return 0, fmt.Errorf("baseline: coin reconstruction: %w", err)
	}
	return v, nil
}
