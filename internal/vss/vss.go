// Package vss implements the paper's §3 protocols in the broadcast-channel
// model with n ≥ 3t+1: Protocol VSS (Fig. 2, single secret) and Protocol
// Batch-VSS (Fig. 3, M secrets verified with one coin and one
// interpolation).
//
// A verification ceremony has three phases, each in lockstep across players:
//
//  1. Deal — the dealer distributes, point-to-point, each player's shares of
//     the M secret polynomials plus one random masking polynomial g
//     (Fig. 2 step 1). One round.
//  2. A fresh shared coin r is exposed (Fig. 2/3 step "r ←
//     Coin-Expose(k-ary-coin)"). The coin must be sealed until after the
//     dealing: a dealer who knew r in advance could cheat (Lemma 1's 1/p
//     bound is exactly the chance of guessing the needed coefficient).
//  3. Verify — every player broadcasts δ_i = γ_i + Σ_j r^j·α_ij (Horner
//     form, Fig. 3 step 2) and accepts iff some polynomial of degree ≤ t
//     agrees with at least n−t of the broadcast values. Decisions are
//     unanimous because they are a deterministic function of broadcasts.
//
// The masking share γ keeps the secrets perfectly hidden even though δ is
// published: δ reveals only the masked combination. Fig. 2 includes the
// mask explicitly; the extended abstract's Fig. 3 elides it, and we carry it
// in the batch case too so that Batch-VSS's "maintaining the values secret"
// requirement holds verbatim (one extra polynomial, amortized away).
//
// Soundness matches Lemma 1 / Lemma 3: a dealer whose sharing does not have
// degree ≤ t passes with probability at most 1/p (single) or M/p (batch)
// over the choice of r.
//
// # Cost
//
// Per ceremony and player, independent of M: one polynomial interpolation
// (inside bw.Decode's fast path, over a cached poly.Domain — zero field
// inversions in steady state), O(M) multiplications for the Horner
// combination δ, and the coin-exposure interpolation. This is the
// amortization Lemma 4 claims: the M-secret batch costs what a single
// verification costs, plus O(M) cheap multiply-adds. internal/metrics
// counts all of it (field ops, interpolations, domain cache hits/misses,
// messages, bytes, rounds).
package vss

import (
	"fmt"
	"io"

	"repro/internal/bw"
	"repro/internal/coin"
	"repro/internal/gf2k"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/poly"
	"repro/internal/simnet"
)

// Config carries the common parameters of a VSS ceremony.
type Config struct {
	// Field is GF(2^k).
	Field gf2k.Field
	// N is the number of players; T the fault bound. N ≥ 3T+1.
	N, T int
	// Coins supplies the sealed challenge coins.
	Coins coin.Source
	// Counters, when non-nil, records protocol costs.
	Counters *metrics.Counters
	// Pool, when non-nil, fans the pure-compute inner loops (per-player
	// share evaluation in Deal, the Horner combination, the Berlekamp–Welch
	// scans) out across idle cores. Verdicts and transcripts are identical
	// at every width; a nil pool runs everything inline.
	Pool *parallel.Pool
}

// Validate checks the resilience precondition n ≥ 3t+1.
func (c Config) Validate() error {
	if c.N < 3*c.T+1 {
		return fmt.Errorf("vss: need n ≥ 3t+1, got n=%d t=%d", c.N, c.T)
	}
	if c.T < 0 {
		return fmt.Errorf("vss: negative fault bound %d", c.T)
	}
	return nil
}

// Instance is one player's state for a dealt batch of secrets awaiting
// verification or reconstruction.
type Instance struct {
	cfg    Config
	dealer int
	// Shares[j] is this player's share α_i of secret j (0-based), 0 ≤ j < M.
	Shares []gf2k.Element
	// MaskShare is the share γ_i of the dealer's masking polynomial g.
	MaskShare gf2k.Element
	// Polys holds the dealer's polynomials (mask last); nil at non-dealers.
	Polys []poly.Poly

	// received reports whether this player actually obtained well-formed
	// shares from the dealer. Players without shares broadcast a complaint
	// during Verify instead of a δ value; more than t complaints reject the
	// dealer (otherwise a totally silent dealer would be "verified" by the
	// all-zero combination).
	received bool
}

// M returns the number of secrets in the batch.
func (inst *Instance) M() int { return len(inst.Shares) }

// NewInstance assembles an Instance from externally obtained shares. It is
// the hook for adversarial harnesses (a cheating dealer fabricates share
// vectors without going through Deal) and for protocols that perform their
// own dealing round.
func NewInstance(cfg Config, dealer int, shares []gf2k.Element, maskShare gf2k.Element) *Instance {
	return &Instance{cfg: cfg, dealer: dealer, Shares: shares, MaskShare: maskShare, received: true}
}

// Deal distributes M secrets from the dealer: the dealer draws a random
// degree-≤t polynomial per secret plus a random masking polynomial, and
// sends each player its evaluation points in one message. Every player
// (dealer included) must call Deal in the same round; non-dealers pass
// secrets = nil. Consumes one round.
func Deal(nd *simnet.Node, cfg Config, dealer int, secrets []gf2k.Element, rnd io.Reader) (*Instance, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	sp := nd.Tracer().Start(nd.Index(), nd.Round(), obs.KindPhase, "vss/deal")
	defer func() { sp.End(nd.Round()) }()
	if nd.N() != cfg.N {
		return nil, fmt.Errorf("vss: network size %d != configured %d", nd.N(), cfg.N)
	}
	if dealer < 0 || dealer >= cfg.N {
		return nil, fmt.Errorf("vss: invalid dealer %d", dealer)
	}
	inst := &Instance{cfg: cfg, dealer: dealer}

	if nd.Index() == dealer {
		// One read draws every random coefficient in stream order: t per
		// secret, then the mask's secret and its t.
		m, terms := len(secrets), cfg.T+1
		draws := make([]gf2k.Element, m*cfg.T+terms)
		if err := cfg.Field.RandElements(rnd, draws); err != nil {
			return nil, err
		}
		coef := make([]gf2k.Element, (m+1)*terms)
		polys := make([]poly.Poly, m+1)
		for j := range polys {
			p := poly.Poly(coef[j*terms : (j+1)*terms : (j+1)*terms])
			if j < m {
				p[0] = secrets[j]
				copy(p[1:], draws[j*cfg.T:])
			} else {
				copy(p, draws[m*cfg.T:])
			}
			polys[j] = p
		}
		mask := polys[m]
		inst.Polys = polys

		// Evaluate every player's share vector first — (m+1)·n pure Horner
		// evaluations, fanned out per player — then send on the node
		// goroutine in index order so the traffic schedule is identical at
		// every pool width. Every product has a player's id as one operand,
		// so the evaluations run through the universe's fixed-operand
		// multipliers.
		ids, err := poly.IDDomain(cfg.Field, cfg.N, cfg.Counters)
		if err != nil {
			return nil, err
		}
		bufs := parallel.Map(cfg.Pool, cfg.N, func(i int) []byte {
			buf := make([]byte, 0, (m+1)*cfg.Field.ByteLen())
			for _, p := range polys {
				buf = cfg.Field.AppendElement(buf, ids.EvalAt(p, i))
			}
			return buf
		})
		for i := 0; i < cfg.N; i++ {
			if i == dealer {
				// Keep own shares locally.
				inst.Shares = make([]gf2k.Element, m)
				for j := 0; j < m; j++ {
					inst.Shares[j] = ids.EvalAt(polys[j], i)
				}
				inst.MaskShare = ids.EvalAt(mask, i)
				inst.received = true
				continue
			}
			nd.Send(i, bufs[i])
		}
	}

	msgs, err := nd.EndRound()
	if err != nil {
		return nil, fmt.Errorf("vss: deal round: %w", err)
	}
	if nd.Index() != dealer {
		payload, ok := simnet.FirstFrom(msgs, dealer)
		if ok {
			elemSize := cfg.Field.ByteLen()
			if len(payload) >= elemSize && len(payload)%elemSize == 0 {
				count := len(payload)/elemSize - 1
				shares, rest, err := cfg.Field.ReadElements(payload, count)
				if err == nil {
					maskShare, _, err2 := cfg.Field.ReadElement(rest)
					if err2 == nil {
						inst.Shares = shares
						inst.MaskShare = maskShare
						inst.received = true
					}
				}
			}
		}
		// A silent or malformed dealer leaves received=false; Verify will
		// broadcast a complaint on this player's behalf.
	}
	return inst, nil
}

// Verify runs the batch degree check: expose a fresh coin r, broadcast the
// masked Horner combination δ_i, and accept iff a polynomial of degree ≤ t
// agrees with ≥ n−t of the broadcasts. Consumes the coin-expose rounds plus
// one broadcast round. All honest players return the same verdict.
//
// Cost per player: M+1 multiplications for δ, then one Berlekamp–Welch
// decode — a single interpolation (cached domain, zero inversions in
// steady state) when all broadcasts are consistent, plus a Gaussian
// elimination only when some are not.
func (inst *Instance) Verify(nd *simnet.Node) (bool, error) {
	cfg := inst.cfg
	sp := nd.Tracer().Start(nd.Index(), nd.Round(), obs.KindPhase, "vss/verify")
	defer func() { sp.End(nd.Round()) }()
	r, err := cfg.Coins.Expose(nd)
	if err != nil {
		return false, fmt.Errorf("vss: expose challenge: %w", err)
	}
	return inst.verifyWithChallenge(nd, r)
}

// verifyWithChallenge is Verify with an explicit challenge, used by Bit-Gen
// style callers that reuse one coin across many instances and by tests.
func (inst *Instance) verifyWithChallenge(nd *simnet.Node, r gf2k.Element) (bool, error) {
	cfg := inst.cfg
	if inst.received {
		delta := inst.combination(r)
		nd.Broadcast(append([]byte{WireDelta}, cfg.Field.AppendElement(nil, delta)...))
	} else {
		nd.Broadcast([]byte{WireComplaint})
	}
	msgs, err := nd.EndRound()
	if err != nil {
		return false, fmt.Errorf("vss: broadcast round: %w", err)
	}

	// Tally broadcasts. Anything that is not a well-formed δ — an explicit
	// complaint, a malformed message, or silence — counts as a complaint;
	// only faulty players (or victims of a faulty dealer) produce them.
	// Players are scanned in index order so the interpolation point
	// sequence is deterministic: every round with the same respondent set
	// reuses the same cached poly.Domain inside bw.Decode.
	first := simnet.FirstFromEach(msgs)
	var xs, ys []gf2k.Element
	for from := 0; from < cfg.N; from++ {
		payload, ok := first[from]
		if !ok || len(payload) == 0 || payload[0] != WireDelta {
			continue
		}
		v, rest, err := cfg.Field.ReadElement(payload[1:])
		if err != nil || len(rest) != 0 {
			continue
		}
		id, err := cfg.Field.ElementFromID(from + 1)
		if err != nil {
			continue
		}
		xs = append(xs, id)
		ys = append(ys, v)
	}
	complaints := cfg.N - len(xs)
	if complaints > cfg.T {
		// More than t players claim not to hold shares: the dealer must be
		// faulty (an honest dealer reaches all n−t honest players).
		nd.Tracer().DealerDisqualified(nd.Index(), inst.dealer, nd.Round())
		return false, nil
	}
	// Up to t faulty players total; `complaints` of them are already
	// accounted for, so at most t−complaints broadcast δ values can lie.
	budget := cfg.T - complaints
	_, err = bw.DecodeWith(cfg.Field, xs, ys, cfg.T, budget, cfg.Counters, cfg.Pool)
	if err != nil {
		nd.Tracer().DealerDisqualified(nd.Index(), inst.dealer, nd.Round())
		return false, nil // includes bw.ErrNoCodeword: reject
	}
	return true, nil
}

// Wire flags for the verification broadcast, exported so adversarial
// harnesses (internal/adversary, internal/conformance) can speak — and
// deliberately abuse — the protocol's wire format.
const (
	// WireDelta prefixes a well-formed δ broadcast: the flag byte followed
	// by exactly one field element.
	WireDelta = 0x00
	// WireComplaint is the share-less complaint broadcast ("I never
	// received shares from the dealer").
	WireComplaint = 0x01
)

// combChunk is the fixed number of shares one partial-Horner task covers.
// The chunked algorithm is selected by M alone — never by pool width — so
// the field-op count (and every cost-annotated span) is identical whether
// the chunks run serially or fan out.
const combChunk = 64

// combination computes δ_i = γ_i + Σ_{j=1..M} r^j·α_i,j in Horner form
// (Fig. 3 step 2). Missing shares (silent dealer) contribute zero. Large
// batches split into fixed-size chunks: each chunk computes its partial
// Horner sum S_c = Σ α_{lo+k}·r^k independently, and the partials combine
// as one outer Horner pass over r^combChunk in chunk order. In a batch
// that large, all but the few outer-pass products have r as one operand,
// so they share one fixed-operand multiplier, built per challenge and read
// by every chunk; a single chunk is too few products to repay the tables.
func (inst *Instance) combination(r gf2k.Element) gf2k.Element {
	f := inst.cfg.Field
	m := len(inst.Shares)
	chunks := parallel.Chunks(m, combChunk)
	if chunks <= 1 {
		var acc gf2k.Element
		for j := m - 1; j >= 0; j-- {
			acc = f.Mul(f.Add(acc, inst.Shares[j]), r)
		}
		return f.Add(acc, inst.MaskShare)
	}
	byR := f.Multiplier(r)
	partial := make([]gf2k.Element, chunks)
	inst.cfg.Pool.ForEach(chunks, func(c int) {
		lo, hi := c*combChunk, (c+1)*combChunk
		if hi > m {
			hi = m
		}
		var s gf2k.Element
		for j := hi - 1; j >= lo; j-- {
			s = byR.Mul(s) ^ inst.Shares[j]
		}
		f.Tally(hi-lo, hi-lo)
		partial[c] = s
	})
	// rStride = r^combChunk advances the outer Horner pass one chunk.
	rStride := gf2k.Element(1)
	for i := 0; i < combChunk; i++ {
		rStride = byR.Mul(rStride)
	}
	var s gf2k.Element
	for c := chunks - 1; c >= 0; c-- {
		s = f.Add(f.Mul(s, rStride), partial[c])
	}
	// δ − γ = r·S with S = Σ_j α_j·r^j.
	f.Tally(combChunk+1, 1)
	return byR.Mul(s) ^ inst.MaskShare
}

// Reconstruct publicly opens secret j: every player broadcasts its share and
// decodes the value at zero through Berlekamp–Welch. Consumes one round.
// Fault-free cost per player: one interpolation over the cached t+1-point
// domain plus n·(t+1) multiplications of agreement checking.
func (inst *Instance) Reconstruct(nd *simnet.Node, j int) (gf2k.Element, error) {
	cfg := inst.cfg
	sp := nd.Tracer().Start(nd.Index(), nd.Round(), obs.KindPhase, "vss/reconstruct")
	defer func() { sp.End(nd.Round()) }()
	var my gf2k.Element
	if j >= 0 && j < len(inst.Shares) {
		my = inst.Shares[j]
	} else if len(inst.Shares) > 0 {
		return 0, fmt.Errorf("vss: secret index %d out of range", j)
	}
	nd.Broadcast(cfg.Field.AppendElement(nil, my))
	msgs, err := nd.EndRound()
	if err != nil {
		return 0, fmt.Errorf("vss: reconstruct round: %w", err)
	}
	// Index-order scan, as in verifyWithChallenge: deterministic point
	// order keeps bw.Decode on one cached interpolation domain.
	first := simnet.FirstFromEach(msgs)
	var xs, ys []gf2k.Element
	for from := 0; from < cfg.N; from++ {
		payload, ok := first[from]
		if !ok {
			continue
		}
		v, rest, err := cfg.Field.ReadElement(payload)
		if err != nil || len(rest) != 0 {
			continue
		}
		id, err := cfg.Field.ElementFromID(from + 1)
		if err != nil {
			continue
		}
		xs = append(xs, id)
		ys = append(ys, v)
	}
	v, err := bw.OpenSecret(cfg.Field, xs, ys, cfg.T, cfg.Counters, cfg.Pool)
	if err != nil {
		return 0, fmt.Errorf("vss: reconstruct secret %d: %w", j, err)
	}
	return v, nil
}
