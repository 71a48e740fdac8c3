package coin

import (
	"fmt"

	"repro/internal/gf2k"
	"repro/internal/simnet"
)

// Store is a per-player FIFO of coin batches. It is itself a Source,
// draining batches in order; every honest player must Add structurally
// identical batches in the same order for exposures to stay in lockstep.
// The bootstrap generator (internal/core) keeps one Store per player and
// refills it by running Coin-Gen whenever Remaining drops below its
// threshold (§1.2: "Once the number of remaining coins drops beneath a
// certain level, a new batch is generated").
type Store struct {
	// Universe, when > 0, is the number of players in the deployment. Add
	// rejects batches whose reconstruction set references a player outside
	// [0, Universe). Zero leaves the universe unchecked (it is then bound
	// by the first batch added after BindUniverse, or never). The binding
	// is persisted by MarshalBinary, and once set it only changes through
	// RebindUniverse — the explicit committee-migration path used by
	// internal/reshare.
	Universe int

	// Generation counts dealer-free reshares: 0 for the store the trusted
	// dealer created, bumped by one each time internal/reshare hands the
	// tail to a new committee (or refreshes it in place). It tags the
	// persisted store so a daemon can tell a pre-reshare blob from a
	// post-reshare one and refuse the stale roster.
	Generation int

	batches []*Batch

	// Structural anchor, fixed by the first batch ever added (it survives
	// batches being drained and popped): all later batches must agree, or
	// exposures would desync across players.
	bound  bool
	fieldK int
	fieldM uint64
	t      int
}

var _ Source = (*Store)(nil)

// Add appends a batch to the store after checking it is structurally
// compatible with the batches already (or previously) stored: same field
// GF(2^k) with the same reduction polynomial, same fault bound t, and a
// reconstruction set drawn from the same player-id universe. A mismatched
// batch would not fail here but rounds later, as a desynchronized exposure
// at whichever player accepted it, so the store refuses it up front.
func (s *Store) Add(b *Batch) error {
	if b == nil {
		return fmt.Errorf("coin: Add of nil batch")
	}
	if err := b.Validate(); err != nil {
		return err
	}
	if s.Universe > 0 {
		for _, idx := range b.S {
			if idx >= s.Universe {
				return fmt.Errorf("coin: batch reconstruction set references player %d outside universe [0,%d)",
					idx, s.Universe)
			}
		}
	}
	if s.bound {
		if b.Field.K() != s.fieldK || b.Field.Modulus() != s.fieldM {
			return fmt.Errorf("coin: batch field GF(2^%d) (modulus %#x) incompatible with store field GF(2^%d) (modulus %#x)",
				b.Field.K(), b.Field.Modulus(), s.fieldK, s.fieldM)
		}
		if b.T != s.t {
			return fmt.Errorf("coin: batch fault bound t=%d incompatible with store t=%d", b.T, s.t)
		}
	} else {
		s.bound = true
		s.fieldK = b.Field.K()
		s.fieldM = b.Field.Modulus()
		s.t = b.T
	}
	s.batches = append(s.batches, b)
	return nil
}

// BindUniverse fixes the player-id universe to [0, n) and re-checks every
// batch already stored against it — the entry point for stores restored
// from disk. A store whose universe is already bound (set by a previous
// BindUniverse, or restored from a v2 encoding) refuses a different n: a
// store restored under the wrong roster must fail at resume time, not
// desync exposures rounds later. Changing the universe legitimately — a
// committee change — goes through RebindUniverse.
func (s *Store) BindUniverse(n int) error {
	if s.Universe > 0 && s.Universe != n {
		return fmt.Errorf("coin: store is bound to a %d-player universe (generation %d); restoring it under a %d-player roster needs RebindUniverse (the reshare migration path)",
			s.Universe, s.Generation, n)
	}
	return s.RebindUniverse(n)
}

// RebindUniverse sets the player-id universe to [0, n) even when a
// different universe is already bound, re-checking every stored batch
// against the new size. This is the explicit migration path for committee
// changes: internal/reshare builds the new committee's store with
// RebindUniverse after the old shares have been re-dealt, and nothing else
// should call it — accidental roster mismatches are BindUniverse's job to
// reject.
func (s *Store) RebindUniverse(n int) error {
	if n < 1 {
		return fmt.Errorf("coin: invalid universe size %d", n)
	}
	for _, b := range s.batches {
		for _, idx := range b.S {
			if idx >= n {
				return fmt.Errorf("coin: stored batch references player %d outside universe [0,%d)", idx, n)
			}
		}
	}
	s.Universe = n
	return nil
}

// Batches returns the stored batches, oldest first. The slice is a copy but
// the batches are shared; callers transferring them elsewhere (e.g. after an
// out-of-band refill) must not keep exposing from this store.
func (s *Store) Batches() []*Batch {
	out := make([]*Batch, len(s.batches))
	copy(out, s.batches)
	return out
}

// DetachTail removes the `count` newest sealed coins from the store into a
// new standalone Store, leaving the oldest Remaining()−count coins behind.
// The serving side keeps draining the front in FIFO order while the
// detached tail funds an out-of-band Coin-Gen on a separate network — the
// beacon's refill pipeline. Every honest player must detach the same count
// at the same logical instant; the resulting split is then structurally
// identical everywhere. count may be the whole store.
func (s *Store) DetachTail(count int) (*Store, error) {
	if rem := s.Remaining(); count < 1 || count > rem {
		return nil, fmt.Errorf("coin: cannot detach %d of %d remaining coins", count, rem)
	}
	out := &Store{Universe: s.Universe, Generation: s.Generation, bound: s.bound, fieldK: s.fieldK, fieldM: s.fieldM, t: s.t}
	var detached []*Batch
	for i := len(s.batches) - 1; i >= 0 && count > 0; i-- {
		b := s.batches[i]
		take := b.Remaining()
		if take == 0 {
			continue
		}
		if take > count {
			take = count
		}
		nb, err := b.Split(take)
		if err != nil {
			return nil, err
		}
		// Prepend: we walk newest→oldest but the detached store must stay
		// a FIFO (oldest first) like any other.
		detached = append([]*Batch{nb}, detached...)
		count -= take
	}
	out.batches = detached
	return out, nil
}

// Discard advances the store past the next `count` unexposed coins without
// consuming network rounds, draining batches front-to-back exactly as Expose
// would — the rejoin catch-up path (see Batch.Discard). A player that was
// down while the cluster opened coins calls Discard with the number it
// missed so its next Expose transmits the share the others expect.
func (s *Store) Discard(count int) error {
	if count < 0 || count > s.Remaining() {
		return fmt.Errorf("coin: cannot discard %d of %d remaining coins", count, s.Remaining())
	}
	for count > 0 {
		b := s.front()
		take := b.Remaining()
		if take > count {
			take = count
		}
		if err := b.Discard(take); err != nil {
			return err
		}
		count -= take
	}
	return nil
}

// Remaining returns the total number of unexposed coins across all batches.
func (s *Store) Remaining() int {
	total := 0
	for _, b := range s.batches {
		total += b.Remaining()
	}
	return total
}

// FrontRemaining returns how many unexposed coins the oldest batch with coins
// left still holds — the most one ExposeN round can open — or 0 when the
// store is dry. Unlike Batches it allocates nothing.
func (s *Store) FrontRemaining() int {
	for _, b := range s.batches {
		if r := b.Remaining(); r > 0 {
			return r
		}
	}
	return 0
}

// front pops drained batches and returns the oldest one with coins left,
// nil when the store is dry.
func (s *Store) front() *Batch {
	for len(s.batches) > 0 && s.batches[0].Remaining() == 0 {
		s.batches = s.batches[1:]
	}
	if len(s.batches) == 0 {
		return nil
	}
	return s.batches[0]
}

// Expose reveals the next sealed coin from the oldest non-empty batch.
func (s *Store) Expose(nd *simnet.Node) (gf2k.Element, error) {
	b := s.front()
	if b == nil {
		return 0, ErrExhausted
	}
	return b.Expose(nd)
}

// ExposeN reveals the next k sealed coins — the values k Expose calls would
// return, in the same order — in one network round per batch touched: each
// round takes min(coins still wanted, coins left in the front batch), so a
// vector never mixes two reconstruction sets. It is all or nothing: with
// fewer than k coins in the store it returns ErrExhausted before any round
// is consumed, which keeps lockstep callers aligned on the error path.
func (s *Store) ExposeN(nd *simnet.Node, k int) ([]gf2k.Element, error) {
	if k < 1 {
		return nil, fmt.Errorf("coin: cannot expose %d coins", k)
	}
	if k > s.Remaining() {
		return nil, ErrExhausted
	}
	out := make([]gf2k.Element, k)
	for off := 0; off < k; {
		b := s.front()
		take := b.Remaining()
		if take > k-off {
			take = k - off
		}
		if err := b.exposeNext(nd, out[off:off+take]); err != nil {
			return nil, err
		}
		off += take
	}
	return out, nil
}
