// Package bitgen implements protocol Bit-Gen (Fig. 4): dealing M sealed
// secrets over point-to-point channels only, with batch verification against
// a single exposed coin. Coin-Gen (internal/coingen) runs n instances — one
// per dealer — simultaneously, reusing one challenge coin for all of them
// ("using the same coin r for all invocations", Fig. 5 step 3; Theorem 2
// notes the n polynomial interpolations this saves).
//
// As with internal/vss, every dealer additionally deals one random masking
// polynomial g and the announced value is γ_i = g(i) + Σ_j r^j·f_j(i), so
// publishing γ reveals nothing about the sealed secrets. (Fig. 4's extended
// abstract elides the mask; without it the γ's would disclose one linear
// combination of the dealer's coins.)
//
// There is no broadcast channel here, so players can disagree about which
// dealings succeeded; each player only reaches the local verdict of Fig. 4
// step 5 — output (F, S) if a degree-≤t polynomial agrees with at least n−t
// of the received γ's, and (⊥, S) otherwise. Reconciling the local verdicts
// is Coin-Gen's job.
package bitgen

import (
	"fmt"
	"io"

	"repro/internal/bw"
	"repro/internal/gf2k"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/poly"
	"repro/internal/simnet"
)

// Config holds the parameters of an n-dealer Bit-Gen batch.
type Config struct {
	// Field is GF(2^k).
	Field gf2k.Field
	// N is the player count, T the fault bound, M the secrets per dealer.
	N, T, M int
	// Counters, when non-nil, records costs.
	Counters *metrics.Counters
	// Pool, when non-nil, fans the per-dealer pure compute — share
	// evaluation in DealAll, the n γ combinations, the n Berlekamp–Welch
	// decodes of ExchangeGammas — out across idle cores. Verdicts and
	// transcripts are identical at every width.
	Pool *parallel.Pool
}

// Validate checks structural preconditions. Bit-Gen itself needs n ≥ 3t+1
// for the Berlekamp–Welch step; Coin-Gen imposes the paper's stricter
// n ≥ 6t+1 on top.
func (c Config) Validate() error {
	if c.N < 3*c.T+1 {
		return fmt.Errorf("bitgen: need n ≥ 3t+1, got n=%d t=%d", c.N, c.T)
	}
	if c.T < 0 || c.M < 1 {
		return fmt.Errorf("bitgen: invalid t=%d or M=%d", c.T, c.M)
	}
	return nil
}

// Shares is one player's received share state across all n dealings.
type Shares struct {
	// Alpha[j][h] is this player's share of dealer j's secret h; the row is
	// nil when dealer j's dealing never arrived or was malformed.
	Alpha [][]gf2k.Element
	// Mask[j] is this player's share of dealer j's masking polynomial.
	Mask []gf2k.Element
	// Received[j] reports whether dealer j's dealing arrived intact.
	Received []bool
	// OwnPolys holds this player's own dealt polynomials (mask last).
	OwnPolys []poly.Poly

	r   gf2k.Element     // the challenge byR multiplies by
	byR *gf2k.Multiplier // nil until the first γ is combined
}

// DealAll performs Fig. 4 step 1 for all n dealers at once: this player
// draws M random sealed secrets plus a mask, evaluates them at every
// player's id, and sends each player one message with its M+1 shares.
// Consumes one round.
func DealAll(nd *simnet.Node, cfg Config, rnd io.Reader) (*Shares, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if nd.N() != cfg.N {
		return nil, fmt.Errorf("bitgen: network size %d != configured %d", nd.N(), cfg.N)
	}
	sp := nd.Tracer().Start(nd.Index(), nd.Round(), obs.KindPhase, "bitgen/deal")
	defer func() { sp.End(nd.Round()) }()
	f := cfg.Field

	// Each polynomial is its secret followed by t random coefficients, the
	// order they are drawn in, so one read fills all M+1 of them.
	terms := cfg.T + 1
	coef := make([]gf2k.Element, (cfg.M+1)*terms)
	if err := f.RandElements(rnd, coef); err != nil {
		return nil, err
	}
	polys := make([]poly.Poly, cfg.M+1)
	for j := range polys {
		polys[j] = coef[j*terms : (j+1)*terms : (j+1)*terms]
	}

	sh := &Shares{
		Alpha:    make([][]gf2k.Element, cfg.N),
		Mask:     make([]gf2k.Element, cfg.N),
		Received: make([]bool, cfg.N),
		OwnPolys: polys,
	}

	// Evaluate all n share vectors first — (M+1)·n pure Horner evaluations
	// fanned out per recipient — then send on the node goroutine in index
	// order so the traffic schedule is width-invariant. Every product has a
	// player's id as one operand, so the evaluations run through the
	// universe's fixed-operand multipliers, one recipient's table at a time.
	ids, err := poly.IDDomain(f, cfg.N, cfg.Counters)
	if err != nil {
		return nil, err
	}
	size := (cfg.M + 1) * f.ByteLen()
	wire := make([]byte, cfg.N*size) // the n messages share one backing array
	bufs := parallel.Map(cfg.Pool, cfg.N, func(i int) []byte {
		if i == nd.Index() {
			return nil // own shares are kept below, not serialized
		}
		buf := wire[i*size : i*size : (i+1)*size]
		for _, p := range polys {
			buf = f.AppendElement(buf, ids.EvalAt(p, i))
		}
		return buf
	})
	for i := 0; i < cfg.N; i++ {
		if i == nd.Index() {
			row := make([]gf2k.Element, cfg.M)
			for h := 0; h < cfg.M; h++ {
				row[h] = ids.EvalAt(polys[h], i)
			}
			sh.Alpha[i] = row
			sh.Mask[i] = ids.EvalAt(polys[cfg.M], i)
			sh.Received[i] = true
			continue
		}
		nd.Send(i, bufs[i])
	}

	msgs, err := nd.EndRound()
	if err != nil {
		return nil, fmt.Errorf("bitgen: deal round: %w", err)
	}
	for j, payload := range simnet.FirstFromEach(msgs) {
		if j == nd.Index() {
			continue
		}
		if len(payload) != size {
			continue
		}
		row, rest, err := f.ReadElements(payload, cfg.M)
		if err != nil {
			continue
		}
		mask, _, err := f.ReadElement(rest)
		if err != nil {
			continue
		}
		sh.Alpha[j] = row
		sh.Mask[j] = mask
		sh.Received[j] = true
	}
	return sh, nil
}

// challenge returns f.Multiplier(r), building it only when r is not the
// challenge sh last combined under: all M products of a γ share the operand
// r, and so do the n dealers' combinations and Coin-Gen's self-check.
func (sh *Shares) challenge(f gf2k.Field, r gf2k.Element) *gf2k.Multiplier {
	if sh.byR == nil || sh.r != r {
		sh.r, sh.byR = r, f.Multiplier(r)
	}
	return sh.byR
}

// Gamma computes this player's announcement for dealer j under challenge r:
// γ = g(i) + Σ_{h=1..M} r^h·α_h in Horner form (Fig. 4 step 3). The second
// return is false when dealer j's dealing never arrived. The multiplier by
// r is kept on sh, so calls under one challenge build it once; calls under
// a new challenge must not run concurrently.
// Cost: M multiplications (⌈k/8⌉ table loads each) and M+1 additions.
func (sh *Shares) Gamma(f gf2k.Field, j int, r gf2k.Element) (gf2k.Element, bool) {
	return sh.gamma(f, j, sh.challenge(f, r))
}

func (sh *Shares) gamma(f gf2k.Field, j int, byR *gf2k.Multiplier) (gf2k.Element, bool) {
	if !sh.Received[j] {
		return 0, false
	}
	var acc gf2k.Element
	row := sh.Alpha[j]
	for h := len(row) - 1; h >= 0; h-- {
		acc = byR.Mul(acc ^ row[h])
	}
	f.Tally(len(row), len(row)+1)
	return acc ^ sh.Mask[j], true
}

// Gammas computes this player's announcements for all n dealers under
// challenge r — n independent M-term Horner combinations, fanned out across
// the pool (nil runs inline). ok[j] is false where dealer j's dealing never
// arrived. This is the γ half of one player's intra-round compute.
func (sh *Shares) Gammas(f gf2k.Field, r gf2k.Element, pl *parallel.Pool) (gammas []gf2k.Element, ok []bool) {
	n := len(sh.Received)
	gammas = make([]gf2k.Element, n)
	ok = make([]bool, n)
	byR := sh.challenge(f, r)
	pl.ForEach(n, func(j int) {
		gammas[j], ok[j] = sh.gamma(f, j, byR)
	})
	return gammas, ok
}

// Output is the local verdict for one dealer's Bit-Gen instance
// (Fig. 4 step 5).
type Output struct {
	// OK reports whether a polynomial F with deg ≤ t matched ≥ n−t γ's.
	OK bool
	// F is the matched polynomial (the masked batch combination), valid
	// only when OK.
	F poly.Poly
}

// View is one player's complete local view after the γ exchange.
type View struct {
	// Challenge is the shared coin r used for the batch checks.
	Challenge gf2k.Element
	// Outputs[j] is the local verdict for dealer j.
	Outputs []Output
	// GammaOf[k][j] is player k's announced γ for dealer j as received
	// here; Has[k][j] reports presence.
	GammaOf [][]gf2k.Element
	Has     [][]bool

	// dec[j], and the n-element stretches j of xs and ys, are decode's
	// working state for dealer j, so the n decodes share no state and
	// allocate no buffers of their own.
	dec    []bw.Decoder
	xs, ys []gf2k.Element
}

// ExchangeGammas performs Fig. 4 steps 3–5 for all n instances at once:
// sends this player's γ vector to everyone (one message of n entries),
// collects everyone else's, and Berlekamp–Welch-decodes each dealer's
// instance. Consumes one round.
func ExchangeGammas(nd *simnet.Node, cfg Config, sh *Shares, r gf2k.Element) (*View, error) {
	f := cfg.Field
	n := cfg.N
	sp := nd.Tracer().Start(nd.Index(), nd.Round(), obs.KindPhase, "bitgen/gamma")
	defer func() { sp.End(nd.Round()) }()

	myGamma, myHas := sh.Gammas(f, r, cfg.Pool)
	buf := make([]byte, 0, n*(1+f.ByteLen()))
	for j := 0; j < n; j++ {
		if myHas[j] {
			g := myGamma[j]
			buf = append(buf, 0)
			buf = f.AppendElement(buf, g)
		} else {
			buf = append(buf, 1)
			buf = append(buf, make([]byte, f.ByteLen())...)
		}
	}
	nd.SendAll(buf)
	msgs, err := nd.EndRound()
	if err != nil {
		return nil, fmt.Errorf("bitgen: gamma round: %w", err)
	}

	v := &View{
		Challenge: r,
		Outputs:   make([]Output, n),
		GammaOf:   make([][]gf2k.Element, n),
		Has:       make([][]bool, n),
		dec:       make([]bw.Decoder, n),
		xs:        make([]gf2k.Element, n*n),
		ys:        make([]gf2k.Element, n*n),
	}
	gammaOf, has := make([]gf2k.Element, n*n), make([]bool, n*n)
	for k := 0; k < n; k++ {
		v.GammaOf[k] = gammaOf[k*n : (k+1)*n : (k+1)*n]
		v.Has[k] = has[k*n : (k+1)*n : (k+1)*n]
	}
	v.GammaOf[nd.Index()] = myGamma
	v.Has[nd.Index()] = myHas

	entry := 1 + f.ByteLen()
	for k, payload := range simnet.FirstFromEach(msgs) {
		if k == nd.Index() || len(payload) != n*entry {
			continue
		}
		for j := 0; j < n; j++ {
			rec := payload[j*entry : (j+1)*entry]
			if rec[0] != 0 {
				continue
			}
			g, _, err := f.ReadElement(rec[1:])
			if err != nil {
				continue
			}
			v.GammaOf[k][j] = g
			v.Has[k][j] = true
		}
	}

	// All n per-dealer decodes interpolate at (a subset of) the IDs 1..n;
	// computing the IDs once and keeping the point order fixed lets every
	// decode — across dealers AND across Coin-Gen rounds — share one cached
	// interpolation domain inside bw.Decode.
	ids := make([]gf2k.Element, n)
	for k := 0; k < n; k++ {
		id, err := f.ElementFromID(k + 1)
		if err != nil {
			return nil, err
		}
		ids[k] = id
	}
	// The n per-dealer decodes are independent pure compute — the dominant
	// term of a player's round work — so they fan out across the pool.
	// Each task writes only Outputs[j]; the tracer calls happen afterwards
	// on the node goroutine in dealer index order, keeping the transcript
	// byte-identical at every width.
	cfg.Pool.ForEach(n, func(j int) {
		v.Outputs[j] = v.decode(cfg, ids, j)
	})
	for j := 0; j < n; j++ {
		if !v.Outputs[j].OK {
			// Local verdict only (no broadcast channel here): dealer j's
			// instance failed Fig. 4 step 5 in this player's view.
			nd.Tracer().DealerDisqualified(nd.Index(), j, nd.Round())
		}
	}
	return v, nil
}

// decode applies Fig. 4 step 5 to dealer j: find F with deg ≤ t agreeing
// with at least n−t of the announced γ's. ids[k] must be the field element
// of player k+1 (as produced by gf2k.Field.ElementFromID), in index order.
// Fault-free cost: one interpolation over the cached t+1-prefix domain plus
// n·(t+1) multiplications of agreement checking. It decodes in the view's
// own per-dealer decoder and xs/ys stretch, so Output.F is dealer j's
// decoder buffer: valid until decode runs for j again.
//
// decode is safe to call concurrently for distinct j; it never uses
// cfg.Pool itself (the fan-out happens one level up, across dealers).
func (v *View) decode(cfg Config, ids []gf2k.Element, j int) Output {
	n := cfg.N
	dec, xs, ys := &v.dec[j], v.xs[j*n:j*n:(j+1)*n], v.ys[j*n:j*n:(j+1)*n]
	for k := 0; k < n; k++ {
		if !v.Has[k][j] {
			continue
		}
		xs = append(xs, ids[k])
		ys = append(ys, v.GammaOf[k][j])
	}
	// Agreement with ≥ n−t points means at most len−(n−t) disagreements.
	budget := len(xs) - (cfg.N - cfg.T)
	if budget < 0 {
		return Output{}
	}
	if err := dec.Reset(cfg.Field, xs, cfg.T, budget, cfg.Counters, nil); err != nil {
		return Output{}
	}
	res, err := dec.Decode(ys)
	if err != nil {
		return Output{}
	}
	return Output{OK: true, F: res.Poly}
}

// Edge reports the directed graph edge j→k of Fig. 5 step 4 in this view:
// dealer j's instance decoded and player k's announced γ for j lies on F_j.
func (v *View) Edge(f gf2k.Field, j, k int) bool {
	if !v.Outputs[j].OK || !v.Has[k][j] {
		return false
	}
	id, err := f.ElementFromID(k + 1)
	if err != nil {
		return false
	}
	return poly.Eval(f, v.Outputs[j].F, id) == v.GammaOf[k][j]
}
