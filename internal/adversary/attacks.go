package adversary

import (
	"fmt"
	"math/rand"

	"repro/internal/ba"
	"repro/internal/bitgen"
	"repro/internal/coin"
	"repro/internal/gf2k"
	"repro/internal/gradecast"
	"repro/internal/poly"
	"repro/internal/simnet"
	"repro/internal/vss"
)

// This file holds protocol-aware attacks: Byzantine players that follow a
// protocol's round structure and wire format exactly, deviating only in the
// values they commit to. Each is a named cheat against a paper figure —
// wrong-degree and inconsistent dealings against VSS (Fig. 2/3), lying
// verifiers against the batch degree check, a griefing king against
// phase-king BA, a deviant dealer inside Coin-Gen (Fig. 5) — plus Strategy
// constructors for the equivocation attacks that live below the player,
// in the message layer.

// randomPolys draws `count` random polynomials of degree exactly `deg`
// (leading coefficient forced nonzero).
func randomPolys(f gf2k.Field, count, deg int, rng *rand.Rand) ([]poly.Poly, error) {
	out := make([]poly.Poly, count)
	for j := range out {
		s, err := f.Rand(rng)
		if err != nil {
			return nil, err
		}
		p, err := poly.Random(f, deg, s, rng)
		if err != nil {
			return nil, err
		}
		if p[deg] == 0 {
			p[deg] = 1
		}
		out[j] = p
	}
	return out, nil
}

// shareBuf evaluates every polynomial at player i's id into one wire buffer,
// the same layout vss.Deal sends: m+1 elements, mask last.
func shareBuf(f gf2k.Field, polys []poly.Poly, i int) ([]byte, error) {
	id, err := f.ElementFromID(i + 1)
	if err != nil {
		return nil, err
	}
	buf := make([]byte, 0, len(polys)*f.ByteLen())
	for _, p := range polys {
		buf = f.AppendElement(buf, poly.Eval(f, p, id))
	}
	return buf, nil
}

// ownInstance assembles the dealer's local vss.Instance from its (possibly
// deviant) polynomials, so the cheating dealer can keep verifying and
// reconstructing in lockstep with the honest players.
func ownInstance(cfg vss.Config, polys []poly.Poly, me int) (*vss.Instance, error) {
	f := cfg.Field
	id, err := f.ElementFromID(me + 1)
	if err != nil {
		return nil, err
	}
	m := len(polys) - 1
	shares := make([]gf2k.Element, m)
	for j := 0; j < m; j++ {
		shares[j] = poly.Eval(f, polys[j], id)
	}
	return vss.NewInstance(cfg, me, shares, poly.Eval(f, polys[m], id)), nil
}

// vssConclude is the honest tail of a VSS ceremony: verify, and — exactly
// when the dealer was accepted — publicly reconstruct all m secrets, so the
// attacker consumes the same rounds as the honest players. It returns the
// verdict.
func vssConclude(nd *simnet.Node, inst *vss.Instance, m int) (interface{}, error) {
	ok, err := inst.Verify(nd)
	if err != nil || !ok {
		return ok, err
	}
	for j := 0; j < m; j++ {
		if _, err := inst.Reconstruct(nd, j); err != nil {
			return nil, fmt.Errorf("adversary: reconstruct %d: %w", j, err)
		}
	}
	return true, nil
}

// VSSWrongDegreeDealer returns a dealer for one VSS ceremony (deal, verify,
// reconstruct-if-accepted) whose m sharing polynomials and mask all have
// degree t+1 instead of ≤ t. The dealing is internally consistent — every
// share lies on the same curve — so only the batch degree check (Fig. 3)
// can catch it, and all honest players must reject the dealer.
func VSSWrongDegreeDealer(cfg vss.Config, m int, seed int64) simnet.PlayerFunc {
	return func(nd *simnet.Node) (interface{}, error) {
		rng := rand.New(rand.NewSource(seed))
		polys, err := randomPolys(cfg.Field, m+1, cfg.T+1, rng)
		if err != nil {
			return nil, err
		}
		for i := 0; i < cfg.N; i++ {
			if i == nd.Index() {
				continue
			}
			buf, err := shareBuf(cfg.Field, polys, i)
			if err != nil {
				return nil, err
			}
			nd.Send(i, buf)
		}
		inst, err := ownInstance(cfg, polys, nd.Index())
		if err != nil {
			return nil, err
		}
		if _, err := nd.EndRound(); err != nil {
			return nil, err
		}
		return vssConclude(nd, inst, m)
	}
}

// VSSInconsistentDealer returns a dealer whose polynomials have the correct
// degree but whose shares to each player in `victims` are perturbed by an
// independent pseudo-random offset, so the victims' δ broadcasts fall off
// the polynomial (offsets linear in the victim's id would merely shift the
// curve and pass). With ≤ t victims the Berlekamp–Welch budget absorbs the
// lies and the dealer is still accepted (the sharing it committed to is
// well defined); with more than t the decode must fail and every honest
// player rejects.
func VSSInconsistentDealer(cfg vss.Config, m int, victims []int, seed int64) simnet.PlayerFunc {
	return func(nd *simnet.Node) (interface{}, error) {
		f := cfg.Field
		rng := rand.New(rand.NewSource(seed))
		polys, err := randomPolys(f, m+1, cfg.T, rng)
		if err != nil {
			return nil, err
		}
		for i := 0; i < cfg.N; i++ {
			if i == nd.Index() {
				continue
			}
			buf, err := shareBuf(f, polys, i)
			if err != nil {
				return nil, err
			}
			if containsInt(victims, i) {
				bad := append([]byte(nil), buf...)
				off := len(bad) - f.ByteLen()
				bad[off] ^= byte(1 + rng.Intn(255))
				buf = bad
			}
			nd.Send(i, buf)
		}
		inst, err := ownInstance(cfg, polys, nd.Index())
		if err != nil {
			return nil, err
		}
		if _, err := nd.EndRound(); err != nil {
			return nil, err
		}
		return vssConclude(nd, inst, m)
	}
}

// VSSEquivocalDealer returns a dealer that commits to two different sharings
// and splits the network between them: players with index < n/2 receive
// shares of sharing A, the rest sharing B. No single degree-t polynomial
// explains ≥ n−t of the resulting δ broadcasts, so all honest players must
// reject.
func VSSEquivocalDealer(cfg vss.Config, m int, seed int64) simnet.PlayerFunc {
	return func(nd *simnet.Node) (interface{}, error) {
		rng := rand.New(rand.NewSource(seed))
		a, err := randomPolys(cfg.Field, m+1, cfg.T, rng)
		if err != nil {
			return nil, err
		}
		b, err := randomPolys(cfg.Field, m+1, cfg.T, rng)
		if err != nil {
			return nil, err
		}
		for i := 0; i < cfg.N; i++ {
			if i == nd.Index() {
				continue
			}
			polys := a
			if i >= cfg.N/2 {
				polys = b
			}
			buf, err := shareBuf(cfg.Field, polys, i)
			if err != nil {
				return nil, err
			}
			nd.Send(i, buf)
		}
		inst, err := ownInstance(cfg, a, nd.Index())
		if err != nil {
			return nil, err
		}
		if _, err := nd.EndRound(); err != nil {
			return nil, err
		}
		return vssConclude(nd, inst, m)
	}
}

// VSSSilentDealer returns a dealer that distributes no shares at all, yet
// still broadcasts a fabricated δ in the verification round. Every honest
// player complains, the complaint count exceeds t, and the dealer must be
// rejected — the δ alone buys nothing.
func VSSSilentDealer(cfg vss.Config, seed int64) simnet.PlayerFunc {
	return func(nd *simnet.Node) (interface{}, error) {
		rng := rand.New(rand.NewSource(seed))
		if _, err := nd.EndRound(); err != nil { // empty deal round
			return nil, err
		}
		if _, err := cfg.Coins.Expose(nd); err != nil {
			return nil, err
		}
		fake, err := cfg.Field.Rand(rng)
		if err != nil {
			return nil, err
		}
		nd.Broadcast(append([]byte{vss.WireDelta}, cfg.Field.AppendElement(nil, fake)...))
		if _, err := nd.EndRound(); err != nil {
			return nil, err
		}
		return false, nil
	}
}

// VSSFalseComplainer returns a verifier that received perfectly good shares
// from `dealer` but broadcasts a complaint anyway — the bad-challenge-
// response attack on the verification round. Up to t complainers must not
// get an honest dealer disqualified.
func VSSFalseComplainer(cfg vss.Config, dealer int) simnet.PlayerFunc {
	return func(nd *simnet.Node) (interface{}, error) {
		if _, err := vss.Deal(nd, cfg, dealer, nil, nil); err != nil {
			return nil, err
		}
		if _, err := cfg.Coins.Expose(nd); err != nil {
			return nil, err
		}
		nd.Broadcast([]byte{vss.WireComplaint})
		if _, err := nd.EndRound(); err != nil {
			return nil, err
		}
		return false, nil
	}
}

// VSSDeltaLiar returns a verifier that received good shares from `dealer`
// but broadcasts a random δ instead of the Horner combination — an off-
// polynomial lie the Berlekamp–Welch budget must absorb for up to t liars.
func VSSDeltaLiar(cfg vss.Config, dealer int, seed int64) simnet.PlayerFunc {
	return func(nd *simnet.Node) (interface{}, error) {
		rng := rand.New(rand.NewSource(seed))
		if _, err := vss.Deal(nd, cfg, dealer, nil, nil); err != nil {
			return nil, err
		}
		if _, err := cfg.Coins.Expose(nd); err != nil {
			return nil, err
		}
		fake, err := cfg.Field.Rand(rng)
		if err != nil {
			return nil, err
		}
		nd.Broadcast(append([]byte{vss.WireDelta}, cfg.Field.AppendElement(nil, fake)...))
		if _, err := nd.EndRound(); err != nil {
			return nil, err
		}
		return false, nil
	}
}

// PhaseKingGriefer returns a phase-king BA participant that sends seeded
// random votes in every universal-exchange round and, in the phase where it
// is king, announces 0 to even-indexed players and 1 to odd-indexed ones.
// With n ≥ 5t+1 the protocol must still reach agreement (and validity on
// unanimous honest inputs) despite it.
func PhaseKingGriefer(t int, seed int64) simnet.PlayerFunc {
	return func(nd *simnet.Node) (interface{}, error) {
		rng := rand.New(rand.NewSource(seed))
		n := nd.N()
		for phase := 0; phase <= t; phase++ {
			for i := 0; i < n; i++ {
				if i != nd.Index() {
					nd.Send(i, []byte{byte(rng.Intn(2))})
				}
			}
			if _, err := nd.EndRound(); err != nil {
				return nil, fmt.Errorf("adversary: griefer phase %d round A: %w", phase, err)
			}
			if nd.Index() == phase {
				for i := 0; i < n; i++ {
					if i != nd.Index() {
						nd.Send(i, []byte{byte(i & 1)})
					}
				}
			}
			if _, err := nd.EndRound(); err != nil {
				return nil, fmt.Errorf("adversary: griefer phase %d round B: %w", phase, err)
			}
		}
		return nil, nil
	}
}

// CoinGenWrongDegreeDealer participates in one full Coin-Gen execution
// (Fig. 5) as a dealer whose Bit-Gen polynomials have degree t+1, staying in
// lockstep throughout: it exposes the challenge, exchanges γs computed from
// its deviant shares, grade-casts garbage and votes 0 in every leader BA
// until the honest players elect a leader. The consistency-graph check must
// exclude it from the agreed clique.
func CoinGenWrongDegreeDealer(f gf2k.Field, n, t, m int, seedCoins coin.Source, seed int64) simnet.PlayerFunc {
	return func(nd *simnet.Node) (interface{}, error) {
		rng := rand.New(rand.NewSource(seed))
		polys, err := randomPolys(f, m+1, t+1, rng)
		if err != nil {
			return nil, err
		}
		sh := &bitgen.Shares{
			Alpha:    make([][]gf2k.Element, n),
			Mask:     make([]gf2k.Element, n),
			Received: make([]bool, n),
			OwnPolys: polys,
		}
		for p := 0; p < n; p++ {
			id, err := f.ElementFromID(p + 1)
			if err != nil {
				return nil, err
			}
			if p == nd.Index() {
				row := make([]gf2k.Element, m)
				for h := 0; h < m; h++ {
					row[h] = poly.Eval(f, polys[h], id)
				}
				sh.Alpha[p], sh.Mask[p], sh.Received[p] = row, poly.Eval(f, polys[m], id), true
				continue
			}
			buf, err := shareBuf(f, polys, p)
			if err != nil {
				return nil, err
			}
			nd.Send(p, buf)
		}
		if _, err := nd.EndRound(); err != nil {
			return nil, err
		}
		r, err := seedCoins.Expose(nd)
		if err != nil {
			return nil, err
		}
		bcfg := bitgen.Config{Field: f, N: n, T: t, M: m}
		if _, err := bitgen.ExchangeGammas(nd, bcfg, sh, r); err != nil {
			return nil, err
		}
		if _, err := gradecast.RunAll(nd, t, []byte{0xff}); err != nil {
			return nil, err
		}
		for {
			if _, err := seedCoins.Expose(nd); err != nil { // the leader coin; this dealer ignores who won
				return nil, err
			}
			dec, err := (ba.PhaseKing{T: t}).Run(nd, 0)
			if err != nil {
				return nil, err
			}
			if dec == 1 {
				return nil, nil
			}
		}
	}
}

// GradeCastSplitter returns a message-level Strategy for the grade-splitting
// sender: in dissemination round `round`, the copies of `sender`'s value
// addressed to `victims` are replaced with `alt`, so the network starts the
// echo rounds split between two values. Grade-Cast's guarantee under test:
// grades for the split instance never land 2 at one honest player and 0 at
// another, and all players with grade ≥ 1 agree on the value.
func GradeCastSplitter(sender, round int, victims []int, alt []byte) *Strategy {
	return NewStrategy(0).On(
		Match{Senders: []int{sender}, Receivers: victims, Round: RoundIs(round)},
		Tamper(func(to int, p []byte) []byte { return append([]byte(nil), alt...) }),
	)
}

// GradeCastEchoLiar returns a Strategy that garbles every framed echo
// message `sender` sends in the two echo rounds following dissemination
// round `round` — the sender distributes its value honestly, then sabotages
// the agreement about everyone's values.
func GradeCastEchoLiar(sender, round int, seed int64) *Strategy {
	return NewStrategy(seed).On(
		Match{Senders: []int{sender}, Round: RoundIn(round+1, round+2)},
		Garble(64),
	)
}

// GammaEquivocator returns a Strategy for the γ-equivocating Bit-Gen player:
// in the γ-exchange round each recipient sees `sender`'s announcement with a
// different coordinate perturbed, so no two honest players share a view of
// the sender's γ vector. The consistency graph (Fig. 5 step 4) must cope:
// honest players still agree on a clique, and the coin stays unanimous.
func GammaEquivocator(f gf2k.Field, sender, round int) *Strategy {
	entry := 1 + f.ByteLen() // per-dealer record: status flag + element
	return NewStrategy(0).On(
		Match{Senders: []int{sender}, Round: RoundIs(round)},
		Tamper(func(to int, p []byte) []byte {
			if len(p) < entry {
				return p
			}
			n := len(p) / entry
			off := (to%n)*entry + 1
			if off < len(p) {
				p[off] ^= byte(to + 1)
			}
			return p
		}),
	)
}

// DealCorruptor returns a Strategy that perturbs the first share element of
// every dealing message `sender` sends in round `round`, with a different
// offset per recipient. The recipients' shares no longer lie on any degree-t
// polynomial, so the sender's Bit-Gen instance must fail decoding and the
// sender must drop out of the agreed clique.
func DealCorruptor(sender, round int) *Strategy {
	return NewStrategy(0).On(
		Match{Senders: []int{sender}, Round: RoundIs(round)},
		PerRecipientFlip(0),
	)
}

// VoteEquivocator returns a Strategy that rewrites every one-byte BA vote
// `sender` sends so even-indexed recipients read 0 and odd-indexed ones
// read 1 — the sender's own code can be honest; the attack lives entirely in
// the message layer.
func VoteEquivocator(sender int) *Strategy {
	return NewStrategy(0).On(
		Match{Senders: []int{sender}},
		Tamper(func(to int, p []byte) []byte {
			if len(p) == 1 {
				p[0] = byte(to & 1)
			}
			return p
		}),
	)
}

// ExposeAttacks names the share-vector corruptions ExposeAttack builds: what
// a faulty member of the reconstruction set can do to the one message it
// sends in a vector Coin-Expose round (Fig. 6 on k coins).
var ExposeAttacks = []string{
	"lie-all",       // every coordinate wrong, the same lie to every receiver
	"lie-from-3",    // honest in coordinates 0..2, lying from coordinate 3 on
	"lie-alternate", // every odd coordinate wrong
	"equivocate",    // a different wrong vector to each receiver
	"short",         // payload one byte short
	"long",          // payload one element long
	"empty",         // zero-length payload
	"silent",        // no message at all
}

// ExposeAttack returns the Strategy that applies the named corruption to
// every message `senders` send: the senders run honest code and the message
// layer rewrites their share vectors. Coin-Expose's guarantee under test:
// with at most t corrupted members of S, every honest player still outputs
// the dealt coin in every coordinate.
func ExposeAttack(name string, f gf2k.Field, senders []int, seed int64) (*Strategy, error) {
	bl := f.ByteLen()
	// lie flips the low bit of every coordinate j ≥ from with j ≡ from mod
	// step: the share stays a valid element but leaves its polynomial.
	lie := func(from, step int) Effect {
		return Tamper(func(to int, p []byte) []byte {
			for j := from; (j+1)*bl <= len(p); j += step {
				p[j*bl] ^= 1
			}
			return p
		})
	}
	var e Effect
	switch name {
	case "lie-all":
		e = lie(0, 1)
	case "lie-from-3":
		e = lie(3, 1)
	case "lie-alternate":
		e = lie(1, 2)
	case "equivocate":
		e = func(rng *rand.Rand, d simnet.Deliverable) []simnet.Deliverable {
			cp := append([]byte(nil), d.Payload...)
			for off := 0; off+bl <= len(cp); off += bl {
				cp[off] ^= byte(1 + rng.Intn(255))
			}
			d.Payload = cp
			return d.Pass()
		}
	case "short":
		e = Tamper(func(to int, p []byte) []byte {
			if len(p) > 0 {
				p = p[:len(p)-1]
			}
			return p
		})
	case "long":
		e = Tamper(func(to int, p []byte) []byte { return f.AppendElement(p, 1) })
	case "empty":
		e = Tamper(func(to int, p []byte) []byte { return p[:0] })
	case "silent":
		e = Drop()
	default:
		return nil, fmt.Errorf("adversary: unknown expose attack %q", name)
	}
	return NewStrategy(seed).On(Match{Senders: senders}, e), nil
}
