// Package coin implements sealed shared coins and protocol Coin-Expose
// (Fig. 6). A sealed k-ary coin is a value in GF(2^k) jointly held by the
// players: a designated reconstruction set S (|S| ≥ 3t+1) holds Shamir-style
// shares of a degree-≤t polynomial F, and the coin is F(0). Nobody learns
// the coin before Expose, and no t players can bias it.
//
// Coins come from two places: the trusted-dealer initial seed
// (DealTrusted, the paper's Rabin-style setup used "only once, and for a
// small number of coins", §1.2) and batches produced by Coin-Gen
// (internal/coingen), which share this Batch representation.
package coin

import (
	"errors"
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

// ErrExhausted is returned when a batch has no unexposed coins left.
var ErrExhausted = errors.New("coin: batch exhausted")

// ErrShortRound is returned, wrapped with the counts, when an exposure
// round yields fewer well-formed share vectors than the T+1 a degree-T
// decode needs. Players exposing different numbers of coins in one round
// read each other's vectors as the wrong length, which ends here.
var ErrShortRound = errors.New("coin: too few well-formed share vectors")

// Source yields sealed shared coins, exposed in lockstep: every honest
// player calls Expose in the same network round and obtains the same
// element. Implementations may consume network rounds.
type Source interface {
	// Expose reveals the next sealed coin.
	Expose(nd *simnet.Node) (gf2k.Element, error)
	// Remaining reports how many sealed coins are left.
	Remaining() int
}

// Bit reduces an exposed coin to the paper's binary coin (Fig. 6 step 3:
// "Set coin_h = F(0) mod 2").
func Bit(e gf2k.Element) byte { return byte(e & 1) }

// Mod reduces an exposed coin into [1, m], as Coin-Gen's leader election
// uses it (Fig. 5 step 9: "l ← Coin-Expose mod n; if l = 0 then set l = n").
// m must be ≥ 1; a caller taking m from outside checks it first.
func Mod(e gf2k.Element, m int) int {
	l := int(uint64(e) % uint64(m))
	if l == 0 {
		l = m
	}
	return l
}

// Batch is one player's local state for a batch of sealed coins. All honest
// players hold structurally identical batches (same S, same length, same
// cursor); shares differ per player.
type Batch struct {
	// Field is the coin field GF(2^k).
	Field gf2k.Field
	// T is the fault bound the batch tolerates.
	T int
	// S lists the 0-based indices of the reconstruction set, sorted.
	// Only shares sent by members of S count during exposure.
	S []int
	// Shares[h] is this player's combined share of coin h: the value at
	// x = own-id of the degree-≤T polynomial whose value at 0 is coin h.
	// Players outside S may hold shares too (they simply do not transmit).
	Shares []gf2k.Element
	// Silent marks a player that holds no valid combined shares (e.g. a
	// Coin-Gen participant that failed its self-check because a faulty
	// dealer in the agreed clique gave it bad shares). A silent player
	// still participates in exposure rounds and decodes coins, but never
	// transmits a share — transmitting a known-bad share would consume the
	// Berlekamp–Welch error budget reserved for Byzantine players.
	Silent bool
	// Counters optionally records exposure costs.
	Counters *metrics.Counters
	// Pool, when non-nil, fans the exposure reconstruction (the
	// Berlekamp–Welch scan over |S| shares) out across idle cores. Like
	// Counters it is runtime-only state: never serialized, re-attached
	// after UnmarshalBatch by the owner.
	Pool *parallel.Pool

	next int
	// sc is the exposure kernel's working state. Like Counters it is
	// runtime-only: built lazily on first exposure (and again after
	// UnmarshalBatch or Split, which leave it nil) and never serialized.
	sc *scratch
}

// scratch is what one player's exposures of one batch keep between rounds,
// so a steady-state exposure allocates its outgoing payload and nothing
// that grows with S or with the number of coins opened.
type scratch struct {
	// sids are the field elements of the members of S, in S-order; player
	// is the node index pos was resolved for, and pos that player's position
	// in S (−1 outside S).
	sids   []gf2k.Element
	player int
	pos    int
	// first[i] is 1 + the index in the round's messages of the first message
	// from player i, 0 when i sent none.
	first []int
	// xs is the round's point list and ys its share matrix, one row of
	// len(S) columns per exposed coin (the first len(xs) columns are used).
	xs, ys []gf2k.Element
	dec    bw.Decoder
}

var _ Source = (*Batch)(nil)

// Remaining returns the number of unexposed coins left in the batch.
func (b *Batch) Remaining() int { return len(b.Shares) - b.next }

// Cursor returns the index of the next coin to be exposed.
func (b *Batch) Cursor() int { return b.next }

// maxErrors is the decoding budget: ⌊(|S|−T−1)/2⌋ capped at T faulty members.
func (b *Batch) maxErrors() int {
	e := (len(b.S) - b.T - 1) / 2
	if e > b.T {
		e = b.T
	}
	return e
}

// Validate checks the structural invariants needed for exposure to succeed
// against t faulty players.
func (b *Batch) Validate() error {
	if len(b.S) < b.T+2*b.maxErrors()+1 || b.maxErrors() < b.T {
		return fmt.Errorf("coin: reconstruction set of %d cannot tolerate %d faults", len(b.S), b.T)
	}
	for _, idx := range b.S {
		if idx < 0 {
			return fmt.Errorf("coin: negative player index %d in S", idx)
		}
	}
	return nil
}

// Split removes the last `count` unexposed coins from the batch into a new
// batch with the same field, fault bound, reconstruction set and silence
// flag, and a fresh cursor at 0. The receiver keeps the older coins (and
// its cursor); the two halves share the backing share array but cover
// disjoint index ranges. All honest players splitting their structurally
// identical batches with the same count obtain structurally identical
// halves, so a split tail can fund an out-of-band Coin-Gen while the head
// keeps serving exposures.
func (b *Batch) Split(count int) (*Batch, error) {
	if count < 1 || count > b.Remaining() {
		return nil, fmt.Errorf("coin: cannot split %d of %d remaining coins", count, b.Remaining())
	}
	cut := len(b.Shares) - count
	nb := &Batch{
		Field:    b.Field,
		T:        b.T,
		S:        b.S,
		Shares:   b.Shares[cut:],
		Silent:   b.Silent,
		Counters: b.Counters,
		Pool:     b.Pool,
	}
	b.Shares = b.Shares[:cut]
	return nb, nil
}

// Discard advances the exposure cursor past the next `count` unexposed
// coins without consuming a network round or learning their values — the
// catch-up primitive for a player rejoining a running cluster: the coins it
// missed were already opened publicly by the others, so it skips its local
// shares to realign its cursor with theirs (and recovers the public values
// out of band). The discarded shares remain in memory but will never be
// transmitted.
func (b *Batch) Discard(count int) error {
	if count < 0 || count > b.Remaining() {
		return fmt.Errorf("coin: cannot discard %d of %d remaining coins", count, b.Remaining())
	}
	b.next += count
	return nil
}

// Expose reveals the next sealed coin (Fig. 6): members of S send their
// combined share β_i to everyone, and every player interpolates a polynomial
// through the received shares with the Berlekamp–Welch decoder, outputting
// F(0). Consumes exactly one network round.
func (b *Batch) Expose(nd *simnet.Node) (gf2k.Element, error) {
	var out [1]gf2k.Element
	err := b.exposeNext(nd, out[:])
	return out[0], err
}

// ExposeN reveals the next k sealed coins in ONE network round — Fig. 6 run
// on a k-vector: each member of S sends its k shares in one message and
// every player decodes the k coordinates independently, so the values (and
// their order) are exactly those of k successive Expose calls. It is all or
// nothing: with fewer than k coins left it returns ErrExhausted before
// anything is sent.
func (b *Batch) ExposeN(nd *simnet.Node, k int) ([]gf2k.Element, error) {
	if k < 1 {
		return nil, fmt.Errorf("coin: cannot expose %d coins", k)
	}
	out := make([]gf2k.Element, k)
	if err := b.exposeNext(nd, out); err != nil {
		return nil, err
	}
	return out, nil
}

// exposeNext reveals the next len(out) coins into out. The cursor moves past
// them before anything is sent: a round that fails midway must never lead to
// a retry that transmits an already-sent share again.
func (b *Batch) exposeNext(nd *simnet.Node, out []gf2k.Element) error {
	if len(out) > b.Remaining() {
		return ErrExhausted
	}
	h := b.next
	b.next += len(out)
	return b.exposeRange(nd, h, out)
}

// ExposeAt reveals the coin with index h without touching the sequential
// cursor — the "random access" to the generated bits the paper highlights
// in §1.4 ("As in [2], our scheme also provides 'random access' to the
// bits"). Every honest player must call ExposeAt with the same h in the
// same round. Re-exposing an index yields the same coin; callers are
// responsible for not treating a revealed coin as fresh randomness twice.
func (b *Batch) ExposeAt(nd *simnet.Node, h int) (gf2k.Element, error) {
	if h < 0 || h >= len(b.Shares) {
		return 0, fmt.Errorf("coin: index %d out of range [0,%d)", h, len(b.Shares))
	}
	var out [1]gf2k.Element
	err := b.exposeRange(nd, h, out[:])
	return out[0], err
}

// scratchFor returns the kernel's working state for the player behind nd,
// (re)building the parts that depend on S and on who is asking.
func (b *Batch) scratchFor(nd *simnet.Node) (*scratch, error) {
	sc := b.sc
	if sc == nil {
		sc = &scratch{}
		b.sc = sc
	}
	if len(sc.sids) != len(b.S) {
		sc.sids = make([]gf2k.Element, len(b.S))
		for i, idx := range b.S {
			id, err := b.Field.ElementFromID(idx + 1)
			if err != nil {
				sc.sids = nil
				return nil, err
			}
			sc.sids[i] = id
		}
		sc.xs = make([]gf2k.Element, 0, len(b.S))
		sc.player = -1
	}
	if sc.player != nd.Index() {
		sc.player, sc.pos = nd.Index(), -1
		for i, idx := range b.S {
			if idx == nd.Index() {
				sc.pos = i
				break
			}
		}
	}
	return sc, nil
}

// exposeRange runs the Fig. 6 exposure for the k = len(out) share indices
// h..h+k−1 in one round, writing coin h+j to out[j]. A member of S sends its
// k shares back to back in one message (no length prefix: the single-coin
// message is the bare share). A sender whose payload is not exactly k valid
// elements is dropped for the whole round, as a malformed share always was,
// so the k coordinates share one point list — a subset of the fixed member
// IDs of S, in S-order — and one decoder set-up: the cached interpolation
// domain is resolved once per round, shared by all coins of the batch and
// by consecutive batches with the same S. Each coordinate is then decoded
// on its own, deterministically (the fault-free check of bw's DecodeSecret,
// Berlekamp–Welch solve only when it fails), so every honest player outputs
// the same k coins whatever ≤ t members sent.
func (b *Batch) exposeRange(nd *simnet.Node, h int, out []gf2k.Element) error {
	sp := nd.Tracer().Start(nd.Index(), nd.Round(), obs.KindPhase, "coin-expose")
	defer func() { sp.End(nd.Round()) }()
	sc, err := b.scratchFor(nd)
	if err != nil {
		return err
	}
	k := len(out)
	own := b.Shares[h : h+k]
	// A silent player holds no valid shares: it sits in S but sends nothing
	// and does not count its own share.
	transmits := sc.pos >= 0 && !b.Silent
	if transmits {
		// The network keeps the payload until every receiver has read it,
		// so it is the one buffer that cannot be reused.
		nd.SendAll(b.Field.AppendElements(make([]byte, 0, k*b.Field.ByteLen()), own))
	}
	msgs, err := nd.EndRound()
	if err != nil {
		return fmt.Errorf("coin: expose round: %w", err)
	}

	if n := nd.N(); len(sc.first) != n {
		sc.first = make([]int, n)
	} else {
		clear(sc.first)
	}
	for i, m := range msgs {
		if sc.first[m.From] == 0 {
			sc.first[m.From] = i + 1
		}
	}
	stride := len(b.S)
	if cap(sc.ys) < k*stride {
		sc.ys = make([]gf2k.Element, k*stride)
	}
	xs, ys := sc.xs[:0], sc.ys[:k*stride]
	for i, idx := range b.S {
		p := len(xs)
		if i == sc.pos {
			if !transmits {
				continue
			}
			for j, share := range own {
				ys[j*stride+p] = share
			}
		} else {
			if idx >= len(sc.first) || sc.first[idx] == 0 {
				continue
			}
			if !b.readShares(msgs[sc.first[idx]-1].Payload, ys[p:], stride, k) {
				continue // malformed shares from a faulty player
			}
		}
		xs = append(xs, sc.sids[i])
	}

	if len(xs) < b.T+1 {
		return fmt.Errorf("%w: coins %d..%d: %d well-formed, %d needed", ErrShortRound, h, h+k-1, len(xs), b.T+1)
	}
	// The error budget adapts to the shares actually received: silent
	// faulty members of S shrink the point list and the possible lies alike.
	if err := sc.dec.Reset(b.Field, xs, b.T, bw.AdaptiveBudget(len(xs), b.T), b.Counters, b.Pool); err != nil {
		return fmt.Errorf("coin: expose coin %d: %w", h, err)
	}
	for j := range out {
		v, err := sc.dec.DecodeSecret(ys[j*stride : j*stride+len(xs)])
		if err != nil {
			return fmt.Errorf("coin: expose coin %d: %w", h+j, err)
		}
		out[j] = v
		nd.Tracer().CoinExposed(nd.Index(), h+j, uint64(out[j]), nd.Round())
	}
	return nil
}

// readShares decodes a sender's payload — exactly k elements — into
// col[0], col[stride], …, reporting false (with col partly written) when the
// length is off or an element is out of range.
func (b *Batch) readShares(payload []byte, col []gf2k.Element, stride, k int) bool {
	if len(payload) != k*b.Field.ByteLen() {
		return false
	}
	for j := 0; j < k; j++ {
		share, rest, err := b.Field.ReadElement(payload)
		if err != nil {
			return false
		}
		col[j*stride], payload = share, rest
	}
	return true
}

// DealTrusted is the trusted-dealer seed setup ([17]-style): a dealer draws
// `count` random coins, shares each with a fresh random degree-t polynomial,
// and hands every player its shares. It returns one Batch per player plus
// (for tests and experiments only) the dealt coin values.
//
// The reconstruction set is the first 3t+1 players, matching Coin-Expose's
// "set S = {P_1, ..., P_{3t+1}} (wlog)".
func DealTrusted(f gf2k.Field, n, t, count int, rnd io.Reader) ([]*Batch, []gf2k.Element, error) {
	if n < 3*t+1 {
		return nil, nil, fmt.Errorf("coin: need n ≥ 3t+1, got n=%d t=%d", n, t)
	}
	if count < 0 {
		return nil, nil, fmt.Errorf("coin: negative coin count %d", count)
	}
	s := make([]int, 3*t+1)
	for i := range s {
		s[i] = i
	}
	batches := make([]*Batch, n)
	for i := range batches {
		batches[i] = &Batch{
			Field:  f,
			T:      t,
			S:      s,
			Shares: make([]gf2k.Element, count),
		}
	}
	// Coin h's polynomial is its value followed by t random coefficients,
	// the order they are drawn in, so one read fills all of them.
	terms := t + 1
	coef := make([]gf2k.Element, count*terms)
	if err := f.RandElements(rnd, coef); err != nil {
		return nil, nil, err
	}
	values := make([]gf2k.Element, count)
	for h := range values {
		p := poly.Poly(coef[h*terms : (h+1)*terms])
		values[h] = p[0]
		for i := 0; i < n; i++ {
			id, err := f.ElementFromID(i + 1)
			if err != nil {
				return nil, nil, err
			}
			batches[i].Shares[h] = poly.Eval(f, p, id)
		}
	}
	return batches, values, nil
}
