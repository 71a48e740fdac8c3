// Package reshare implements dealer-free epoch resharing: the current
// ("old") committee hands the sealed tail of its coin store to a new
// committee — a different roster, a different (n', t'), or the same roster
// taking fresh shares (proactive refresh) — without re-consulting the
// trusted dealer, extending the paper's §1.2 "the dealer is used only once"
// bootstrap story to committee churn.
//
// # Protocol
//
// The old committee holds, for each sealed coin h, Shamir shares s_i = F_h(x_i)
// of a degree-≤t polynomial with F_h(0) = coin_h. Resharing runs over a
// combined network of old ∪ new players, in three lockstep rounds plus a
// local verdict:
//
//  1. Sub-deal — every old member o deals a degree-≤t' sub-sharing of each
//     of its tail shares: fresh random polynomials g_{o,h} with
//     g_{o,h}(0) = s_o^(h), one evaluation g_{o,h}(y_j) per new member j,
//     plus a sub-sharing μ_o of its share of a sacrificial mask coin. One
//     point-to-point column per (o, j) pair.
//  2. Challenge — a fresh sealed coin r is exposed (old members transmit
//     shares; everyone Berlekamp–Welch decodes). The coin is sealed until
//     after the dealing, so a sub-dealer cannot tailor its columns to r —
//     the same one-coin-per-batch soundness as Batch-VSS (Lemma 3): a
//     sub-dealer whose columns hide any wrong value survives with
//     probability ≤ m/p over r.
//  3. Combine — every new member j broadcasts, per sub-dealer o, the masked
//     Horner combination w_{o,j} = μ_o(y_j) + Σ_{h=1..m} r^h·g_{o,h}(y_j)
//     (or a complaint when o's column never arrived well-formed).
//
// The verdict is a deterministic function of the broadcasts, so all honest
// players reach it unanimously, exactly like the vss verdicts the
// conformance suite pins down. For each sub-dealer o the broadcast values
// {(y_j, w_{o,j})} are decoded at degree ≤ t' (wrong-degree or equivocal
// dealing ⇒ no codeword ⇒ cheater; more than t' complaints ⇒ silent
// cheater), giving W_o and the public opening u_o = W_o(0). Since
// u_o = G(x_o) + Σ r^h·F_h(x_o) with G the mask coin's degree-≤t
// polynomial, honest openings lie on a degree-≤t polynomial in the OLD id
// space: decoding {(x_o, u_o)} at degree ≤ t identifies every surviving
// sub-dealer whose columns hide wrong share values (off the decoded
// polynomial ⇒ cheater). The mask keeps the opening one-time-pad blind —
// u_o reveals a combination masked by the never-exposed sacrificial coin —
// so resharing consumes exactly two coins from the tail: the challenge
// (publicly exposed, spent) and the mask (never exposed, spent).
//
// New shares come from any agreed quorum Q of t+1 surviving sub-dealers:
// s'_j(h) = Σ_{o∈Q} λ_o·g_{o,h}(y_j) interpolates the new degree-≤t'
// polynomial F'_h = Σ_{o∈Q} λ_o·g_{o,h} with F'_h(0) = Σ λ_o·s_o^(h) =
// F_h(0) — the coin values are preserved bit-for-bit while every share is
// fresh, which is both the membership-change and the proactive-security
// property ("old shares discarded" is the caller's job: drop the old
// store). A new member whose own column from some o ∈ Q disagrees with the
// decoded W_o (a victim of a surviving-but-inconsistent dealer) marks its
// batch Silent, the same self-check posture as a Coin-Gen participant that
// failed its clique check: it keeps decoding exposures but never transmits.
//
// # Resilience
//
// With ≤ t Byzantine old members and ≤ t' Byzantine new members, honest
// new players always terminate with consistent shares of the original coin
// values (whp m/p per cheating sub-dealer). The new reconstruction set is
// the whole new committee, so exposures tolerate t' lies plus the silent
// victims a surviving inconsistent dealer can create (at most t' of them,
// by the decode budget). Identifying honest dealers as cheaters is
// impossible when n' ≥ 4t'+1 (the beacon's n' ≥ 6t'+1 always qualifies);
// at the 3t'+1 floor, t' Byzantine new members can at worst abort the
// attempt, never corrupt it.
package reshare

import (
	"fmt"
	"io"
	"sort"

	"repro/internal/bw"
	"repro/internal/coin"
	"repro/internal/gf2k"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/poly"
	"repro/internal/simnet"
)

// Config describes one resharing ceremony over the combined network. The
// combined network has len(NewOf) nodes: nodes 0..OldN-1 are the old
// committee in roster order, and every node (old or pure-new) that is also
// a member of the new committee carries its new index in NewOf.
type Config struct {
	// Field is the coin field GF(2^k), shared by both committees.
	Field gf2k.Field
	// OldN, OldT describe the old committee; nodes 0..OldN-1.
	OldN, OldT int
	// NewN, NewT describe the new committee.
	NewN, NewT int
	// NewOf maps a combined-network node index to its new-committee index,
	// -1 for old members that are leaving. Every new index 0..NewN-1 must
	// appear exactly once, and nodes ≥ OldN (pure joiners) must carry one.
	NewOf []int
	// Attempt numbers the retry: attempt a consumes the tail's coins
	// 2a (challenge) and 2a+1 (mask) and reshares the rest. A failed
	// attempt may have exposed its challenge publicly, so re-running with
	// the same attempt number would let a cheating sub-dealer deal against
	// a known challenge; every retry must use a fresh attempt number.
	Attempt int
	// Generation is stamped on the produced store (the old store's
	// generation + 1; the caller tracks it alongside its roster config).
	Generation int
	// Counters optionally records protocol costs.
	Counters *metrics.Counters
	// Pool optionally fans the compute-bound inner loops across idle cores.
	Pool *parallel.Pool
}

// CombinedN returns the size of the combined old ∪ new network.
func (c Config) CombinedN() int { return len(c.NewOf) }

// Validate checks the ceremony shape.
func (c Config) Validate() error {
	if c.Field.K() == 0 {
		return fmt.Errorf("reshare: config has no field")
	}
	if c.OldT < 0 || c.OldN < 3*c.OldT+1 {
		return fmt.Errorf("reshare: old committee needs n ≥ 3t+1, got n=%d t=%d", c.OldN, c.OldT)
	}
	if c.NewT < 0 || c.NewN < 3*c.NewT+1 {
		return fmt.Errorf("reshare: new committee needs n' ≥ 3t'+1, got n'=%d t'=%d", c.NewN, c.NewT)
	}
	if len(c.NewOf) < c.OldN {
		return fmt.Errorf("reshare: combined network of %d nodes cannot hold the %d-player old committee", len(c.NewOf), c.OldN)
	}
	if c.Attempt < 0 || c.Generation < 0 {
		return fmt.Errorf("reshare: negative attempt %d or generation %d", c.Attempt, c.Generation)
	}
	seen := make([]bool, c.NewN)
	for node, j := range c.NewOf {
		if j == -1 {
			if node >= c.OldN {
				return fmt.Errorf("reshare: node %d is neither an old nor a new member", node)
			}
			continue
		}
		if j < 0 || j >= c.NewN {
			return fmt.Errorf("reshare: node %d carries new index %d outside [0,%d)", node, j, c.NewN)
		}
		if seen[j] {
			return fmt.Errorf("reshare: new index %d assigned twice", j)
		}
		seen[j] = true
	}
	for j, ok := range seen {
		if !ok {
			return fmt.Errorf("reshare: new index %d assigned to no node", j)
		}
	}
	return nil
}

// Result is one player's outcome of a resharing ceremony.
type Result struct {
	// Store holds the new committee's reshared tail: one batch, fresh
	// degree-≤t' shares of the surviving coins, reconstruction set = the
	// whole new committee, universe bound to n' and the configured
	// generation stamped. nil for old members that are leaving.
	Store *coin.Store
	// Coins is the number of coins the new store holds (the old tail minus
	// the challenge and mask the ceremony consumed).
	Coins int
	// Cheaters lists the old-committee members identified as faulty
	// sub-dealers, sorted. Deterministic in the round-3 broadcasts, so all
	// honest players report the same list.
	Cheaters []int
	// Quorum lists the t+1 sub-dealers whose columns the new shares were
	// assembled from (same determinism).
	Quorum []int
	// Challenge is the exposed challenge coin (spent; diagnostic only).
	Challenge gf2k.Element
	// Silent reports that this player is a new member that could not
	// derive valid shares — a victim of a surviving inconsistent
	// sub-dealer — and its batch is marked Silent: it decodes exposures
	// but never transmits.
	Silent bool
}

// subDealerState is the per-sub-dealer column a new member accumulated in
// round 1.
type subDealerState struct {
	mask  gf2k.Element
	subs  []gf2k.Element
	valid bool // well-formed and of the agreed length
}

// Run executes one player's side of the ceremony on the combined network.
// Old members (node index < cfg.OldN) pass their store; its unexposed tail
// — in FIFO exposure order, identically at every honest old member — funds
// the reshare. Pure joiners pass old == nil; an OLD member passing nil
// declares itself stale (its store missed a refill and cannot fund the
// ceremony) and participates receive-only, like a Silent member. The old
// store is only read; discarding it after a successful ceremony is the
// caller's responsibility (and, for proactive security, duty).
//
// Consumes exactly three network rounds.
func Run(nd *simnet.Node, cfg Config, old *coin.Store, rnd io.Reader) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if nd.N() != cfg.CombinedN() {
		return nil, fmt.Errorf("reshare: network size %d != combined committee size %d", nd.N(), cfg.CombinedN())
	}
	f := cfg.Field
	self := nd.Index()
	isOld := self < cfg.OldN
	newIdx := cfg.NewOf[self]
	if !isOld && old != nil {
		return nil, fmt.Errorf("reshare: joiner %d must not pass a store", self)
	}

	sp := nd.Tracer().Start(self, nd.Round(), obs.KindPhase, "reshare")
	defer func() { sp.End(nd.Round()) }()

	// Old members slice their tail: coin 2a is this attempt's challenge,
	// 2a+1 the mask, the rest is reshared.
	var challengeShare, maskShare gf2k.Element
	var tail []gf2k.Element
	silentOld := false
	m := -1
	if isOld && old == nil {
		// A stale old member (it missed a refill while down, so its shares
		// no longer match the cluster's batches) participates without a
		// store: it abstains from sub-dealing and the challenge — exactly
		// like a Silent member — but still collects columns and assembles
		// fresh shares when it carries a new index. The verdict will brand
		// it a non-dealing cheater, which is the honest external view; it
		// costs one of the ≤ t tolerated sub-dealer faults.
		silentOld = true
	}
	if isOld && old != nil {
		shares, silent, err := tailShares(old, cfg.OldT)
		if err != nil {
			return nil, err
		}
		skip := 2 * (cfg.Attempt + 1)
		if len(shares) < skip+1 {
			return nil, fmt.Errorf("reshare: attempt %d needs %d tail coins, store holds %d", cfg.Attempt, skip+1, len(shares))
		}
		challengeShare, maskShare = shares[skip-2], shares[skip-1]
		tail = shares[skip:]
		silentOld = silent
		m = len(tail)
	}

	// Round 1 — sub-deal. Each participating old member draws one fresh
	// degree-≤t' polynomial per tail coin (plus the mask) and sends every
	// new member its evaluation column.
	var ownColumn []byte
	if isOld && !silentOld {
		// One read draws the t' random coefficients of every polynomial, in
		// stream order: the mask's, then each tail coin's.
		terms := cfg.NewT + 1
		draws := make([]gf2k.Element, (m+1)*cfg.NewT)
		if err := f.RandElements(rnd, draws); err != nil {
			return nil, err
		}
		coef := make([]gf2k.Element, (m+1)*terms)
		polys := make([]poly.Poly, m+1)
		for i, s := range append([]gf2k.Element{maskShare}, tail...) {
			p := poly.Poly(coef[i*terms : (i+1)*terms : (i+1)*terms])
			p[0] = s
			copy(p[1:], draws[i*cfg.NewT:])
			polys[i] = p
		}
		yids, err := newIDs(f, cfg.NewN)
		if err != nil {
			return nil, err
		}
		// Evaluate all columns first (pure compute, fanned out), then send
		// on the node goroutine in index order so the traffic schedule is
		// identical at every pool width (the vss.Deal idiom).
		bufs := parallel.Map(cfg.Pool, nd.N(), func(node int) []byte {
			j := cfg.NewOf[node]
			if j < 0 {
				return nil
			}
			y := yids[j]
			col := make([]gf2k.Element, m)
			for h := range col {
				col[h] = poly.Eval(f, polys[h+1], y)
			}
			return encodeSubShares(f, poly.Eval(f, polys[0], y), col)
		})
		for node := 0; node < nd.N(); node++ {
			if bufs[node] == nil {
				continue
			}
			if node == self {
				ownColumn = bufs[node] // the dealer keeps its own column locally
				continue
			}
			nd.Send(node, bufs[node])
		}
	}
	msgs, err := nd.EndRound()
	if err != nil {
		return nil, fmt.Errorf("reshare: sub-deal round: %w", err)
	}

	// Collect columns; a new member derives the tail length from the
	// majority column length (honest sub-dealers, at least 2t+1 of the
	// ≥ 3t+1 senders, agree on it — old members additionally know it from
	// their own store).
	cols := make([]subDealerState, cfg.OldN)
	if newIdx >= 0 {
		first := simnet.FirstFromEach(msgs)
		for o := 0; o < cfg.OldN; o++ {
			payload := first[o]
			if o == self {
				payload = ownColumn
			}
			if payload == nil {
				continue
			}
			mask, subs, ok := parseSubShares(f, payload)
			if !ok {
				continue
			}
			cols[o] = subDealerState{mask: mask, subs: subs, valid: true}
		}
		if m < 0 {
			m = majorityLength(cols)
		}
		for o := range cols {
			if cols[o].valid && len(cols[o].subs) != m {
				cols[o] = subDealerState{}
			}
		}
	}
	if m < 1 {
		return nil, fmt.Errorf("reshare: no tail to reshare (m=%d)", m)
	}

	// Round 2 — challenge. Every participating old member transmits its
	// share of the challenge coin; everyone decodes. Sealed until after the
	// dealing, so no sub-dealer could tailor its columns to r.
	if isOld && !silentOld {
		nd.SendAll(encodeChallenge(f, challengeShare))
	}
	msgs, err = nd.EndRound()
	if err != nil {
		return nil, fmt.Errorf("reshare: challenge round: %w", err)
	}
	r, err := decodeChallenge(nd, cfg, msgs, challengeShare, isOld && !silentOld)
	if err != nil {
		return nil, err
	}

	// Round 3 — combine. Every new member broadcasts its per-sub-dealer
	// masked Horner combinations; old-only members stay quiet.
	if newIdx >= 0 {
		w := make([]gf2k.Element, cfg.OldN)
		present := make([]bool, cfg.OldN)
		for o := range cols {
			if !cols[o].valid {
				continue
			}
			var acc gf2k.Element
			for h := m - 1; h >= 0; h-- {
				acc = f.Mul(f.Add(acc, cols[o].subs[h]), r)
			}
			w[o] = f.Add(acc, cols[o].mask)
			present[o] = true
		}
		nd.Broadcast(encodeCombination(f, w, present))
	}
	msgs, err = nd.EndRound()
	if err != nil {
		return nil, fmt.Errorf("reshare: combine round: %w", err)
	}

	// Verdict — deterministic in the broadcasts, hence unanimous across
	// honest players (old and new alike must agree on success and on the
	// cheater list for the cutover to be consistent).
	verdict, err := judge(nd, cfg, msgs)
	if err != nil {
		return nil, err
	}

	res := &Result{
		Coins:     m,
		Cheaters:  verdict.cheaters,
		Quorum:    verdict.quorum,
		Challenge: r,
	}
	if newIdx < 0 {
		return res, nil
	}

	// Assembly — interpolate this member's new share of every coin at 0
	// across the quorum columns: s'_j(h) = Σ_{o∈Q} λ_o·g_{o,h}(y_j). A
	// member whose own column from a quorum dealer is missing or disagrees
	// with the decoded W_o was victimized by a surviving cheater: it keeps
	// zero shares and marks its batch Silent (the Coin-Gen self-check
	// posture — decode everything, transmit nothing).
	ySelf, err := f.ElementFromID(newIdx + 1)
	if err != nil {
		return nil, err
	}
	silentSelf := false
	xsQ := make([]gf2k.Element, len(verdict.quorum))
	for qi, o := range verdict.quorum {
		xsQ[qi], err = f.ElementFromID(o + 1)
		if err != nil {
			return nil, err
		}
		if !cols[o].valid {
			silentSelf = true
			continue
		}
		var acc gf2k.Element
		for h := m - 1; h >= 0; h-- {
			acc = f.Mul(f.Add(acc, cols[o].subs[h]), r)
		}
		if f.Add(acc, cols[o].mask) != poly.Eval(f, verdict.w[o], ySelf) {
			silentSelf = true
		}
	}
	shares := make([]gf2k.Element, m)
	if !silentSelf {
		dom, err := poly.DomainFor(f, xsQ, cfg.Counters)
		if err != nil {
			return nil, err
		}
		ys := make([]gf2k.Element, len(verdict.quorum))
		for h := 0; h < m; h++ {
			for qi, o := range verdict.quorum {
				ys[qi] = cols[o].subs[h]
			}
			shares[h], err = dom.InterpolateAt0(ys, cfg.Counters)
			if err != nil {
				return nil, err
			}
		}
	}
	sAll := make([]int, cfg.NewN)
	for j := range sAll {
		sAll[j] = j
	}
	batch := &coin.Batch{
		Field:    f,
		T:        cfg.NewT,
		S:        sAll,
		Shares:   shares,
		Silent:   silentSelf,
		Counters: cfg.Counters,
		Pool:     cfg.Pool,
	}
	st := &coin.Store{Generation: cfg.Generation}
	if err := st.Add(batch); err != nil {
		return nil, err
	}
	if err := st.RebindUniverse(cfg.NewN); err != nil {
		return nil, err
	}
	res.Store = st
	res.Silent = silentSelf
	return res, nil
}

// majorityLength returns the most frequent column length among the
// well-formed columns (ties to the smaller length, for determinism).
func majorityLength(cols []subDealerState) int {
	counts := map[int]int{}
	for _, c := range cols {
		if c.valid {
			counts[len(c.subs)]++
		}
	}
	best, bestCount := -1, 0
	for l, c := range counts {
		if c > bestCount || (c == bestCount && (best == -1 || l < best)) {
			best, bestCount = l, c
		}
	}
	return best
}

// decodeChallenge reconstructs the challenge coin from the round-2 shares.
// Shares are accepted from any old-committee node (non-members of the
// historical reconstruction set simply never transmit); the adaptive
// Berlekamp–Welch budget covers silent-plus-lying faults exactly as
// Coin-Expose does.
func decodeChallenge(nd *simnet.Node, cfg Config, msgs []simnet.Message, own gf2k.Element, sent bool) (gf2k.Element, error) {
	f := cfg.Field
	first := simnet.FirstFromEach(msgs)
	var xs, ys []gf2k.Element
	for o := 0; o < cfg.OldN; o++ {
		var share gf2k.Element
		if o == nd.Index() {
			if !sent {
				continue
			}
			share = own
		} else {
			payload, ok := first[o]
			if !ok {
				continue
			}
			s, ok := parseChallenge(f, payload)
			if !ok {
				continue
			}
			share = s
		}
		id, err := f.ElementFromID(o + 1)
		if err != nil {
			return 0, err
		}
		xs = append(xs, id)
		ys = append(ys, share)
	}
	v, err := bw.OpenSecret(f, xs, ys, cfg.OldT, cfg.Counters, cfg.Pool)
	if err != nil {
		return 0, fmt.Errorf("reshare: challenge expose: %w", err)
	}
	return v, nil
}

// verdictState is the public outcome every honest player derives from the
// round-3 broadcasts.
type verdictState struct {
	// w[o] is the decoded combination polynomial W_o (nil for cheaters).
	w []poly.Poly
	// cheaters and quorum as exported on Result.
	cheaters []int
	quorum   []int
}

// judge runs the public verdict: decode each sub-dealer's combination
// polynomial from the new members' broadcasts, open u_o = W_o(0), and
// cross-check the openings against a degree-≤t polynomial in the old id
// space. Everything is a deterministic function of the broadcast transcript.
func judge(nd *simnet.Node, cfg Config, msgs []simnet.Message) (*verdictState, error) {
	f := cfg.Field
	first := simnet.FirstFromEach(msgs)

	// Parse each new member's combination row, scanned in node-index order
	// so interpolation point sequences (and their cached domains) are
	// deterministic.
	type row struct {
		w       []gf2k.Element
		present []bool
	}
	rows := make(map[int]row, cfg.NewN) // keyed by new index
	var yNodes []int                    // new indices in node order
	for node := 0; node < cfg.CombinedN(); node++ {
		j := cfg.NewOf[node]
		if j < 0 {
			continue
		}
		yNodes = append(yNodes, j)
		payload, ok := first[node]
		if !ok {
			continue
		}
		w, present, ok := parseCombination(f, cfg.OldN, payload)
		if !ok {
			continue
		}
		rows[j] = row{w: w, present: present}
	}
	yids, err := newIDs(f, cfg.NewN)
	if err != nil {
		return nil, err
	}

	v := &verdictState{w: make([]poly.Poly, cfg.OldN)}
	us := make([]gf2k.Element, cfg.OldN)
	alive := make([]bool, cfg.OldN)
	for o := 0; o < cfg.OldN; o++ {
		var xs, ys []gf2k.Element
		complaints := 0
		for _, j := range yNodes {
			rw, ok := rows[j]
			if !ok || !rw.present[o] {
				complaints++
				continue
			}
			xs = append(xs, yids[j])
			ys = append(ys, rw.w[o])
		}
		if complaints > cfg.NewT {
			// A silent (or mostly silent) sub-dealer: an honest dealer
			// reaches every honest new member, so > t' complaints convict.
			v.cheaters = append(v.cheaters, o)
			continue
		}
		res, err := bw.DecodeWith(f, xs, ys, cfg.NewT, bw.AdaptiveBudget(len(xs), cfg.NewT), cfg.Counters, cfg.Pool)
		if err != nil {
			// No degree-≤t' codeword: wrong-degree or equivocal dealing.
			v.cheaters = append(v.cheaters, o)
			continue
		}
		v.w[o] = res.Poly
		us[o] = poly.Eval(f, res.Poly, 0)
		alive[o] = true
	}

	// Cross-check: honest openings lie on G + Σ r^h·F_h, degree ≤ t in the
	// old id space. Survivors off the decoded polynomial dealt wrong share
	// values (caught with probability 1 − m/p over the challenge).
	var xs, ys []gf2k.Element
	var aliveIdx []int
	for o := 0; o < cfg.OldN; o++ {
		if !alive[o] {
			continue
		}
		id, err := f.ElementFromID(o + 1)
		if err != nil {
			return nil, err
		}
		xs = append(xs, id)
		ys = append(ys, us[o])
		aliveIdx = append(aliveIdx, o)
	}
	res, err := bw.DecodeWith(f, xs, ys, cfg.OldT, bw.AdaptiveBudget(len(xs), cfg.OldT), cfg.Counters, cfg.Pool)
	if err != nil {
		return nil, fmt.Errorf("reshare: opened combinations exceed the fault bound (t=%d): %w", cfg.OldT, err)
	}
	for i, o := range aliveIdx {
		if poly.Eval(f, res.Poly, xs[i]) != ys[i] {
			v.w[o] = nil
			v.cheaters = append(v.cheaters, o)
			continue
		}
		if len(v.quorum) < cfg.OldT+1 {
			v.quorum = append(v.quorum, o)
		}
	}
	if len(v.quorum) < cfg.OldT+1 {
		return nil, fmt.Errorf("reshare: only %d of the required %d sub-dealers survived the verdict", len(v.quorum), cfg.OldT+1)
	}
	sort.Ints(v.cheaters)
	for _, o := range v.cheaters {
		nd.Tracer().DealerDisqualified(nd.Index(), o, nd.Round())
	}
	return v, nil
}

// newIDs returns the new-committee evaluation points y_j = id(j+1).
func newIDs(f gf2k.Field, n int) ([]gf2k.Element, error) {
	out := make([]gf2k.Element, n)
	for j := range out {
		id, err := f.ElementFromID(j + 1)
		if err != nil {
			return nil, err
		}
		out[j] = id
	}
	return out, nil
}

// tailShares collects this old member's unexposed shares in FIFO exposure
// order — the same order every honest member's structurally identical store
// drains — and reports whether any contributing batch is Silent (a member
// without valid shares abstains from sub-dealing entirely; it would only
// burn the verdict's error budget).
func tailShares(st *coin.Store, t int) ([]gf2k.Element, bool, error) {
	var shares []gf2k.Element
	silent := false
	for _, b := range st.Batches() {
		if b.Remaining() == 0 {
			continue
		}
		if b.T != t {
			return nil, false, fmt.Errorf("reshare: store batch has t=%d, config says %d", b.T, t)
		}
		shares = append(shares, b.Shares[b.Cursor():]...)
		if b.Silent {
			silent = true
		}
	}
	return shares, silent, nil
}
