// Package core implements the paper's headline object: the bootstrapped
// distributed pseudo-random bit generator (D-PRBG, §1.1–1.2 and Fig. 1).
//
// A Generator is one player's handle on a self-sustaining stream of sealed
// shared coins. It starts from a small trusted-dealer seed (O(1) sealed
// coins, obtained once — "the services of a trusted dealer would be used
// only once, and for a small number of coins"). Whenever the number of
// remaining sealed coins drops below a threshold, the generator runs
// Coin-Gen to mint a fresh batch of M coins, spending an expected constant
// number of remaining coins to do so — the bootstrap loop of Fig. 1: each
// batch produces "not only the coins for the current execution but also the
// seed for the next execution".
//
// All honest players drive their Generators in lockstep; the refill
// decision depends only on shared state (the count of exposed coins), so it
// fires at the same instant everywhere.
//
// Because every batch is generated from fresh polynomials dealt by the
// current clique, the faulty set may change arbitrarily between batches
// (the paper's pro-active setting, §1.2): no long-lived secret outlives a
// batch.
package core

import (
	"errors"
	"fmt"
	"io"

	"repro/internal/coin"
	"repro/internal/coingen"
	"repro/internal/gf2k"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/simnet"
)

// DefaultThreshold is the refill trigger: a new batch is generated when
// fewer than this many sealed coins remain. It must cover Coin-Gen's own
// consumption (one challenge coin plus one coin per leader attempt); with
// t/n ≤ 1/6 the probability that a refill needs more than three leader
// draws is below 1/200.
const DefaultThreshold = 6

// Config parameterizes a D-PRBG.
type Config struct {
	// Field is GF(2^k): each coin is one element (a k-ary coin).
	Field gf2k.Field
	// N is the player count; T the fault bound; N ≥ 6T+1.
	N, T int
	// BatchSize is M, the number of sealed coins minted per Coin-Gen run.
	BatchSize int
	// Threshold triggers a refill when Remaining() < Threshold.
	// Defaults to DefaultThreshold. Must be ≤ BatchSize so refills make
	// net progress.
	Threshold int
	// HighWater, when > 0, is the proactive refill trigger used by serving
	// layers (internal/beacon): once Remaining() < HighWater, NeedsRefill
	// reports true so an out-of-band Coin-Gen can be started while clients
	// keep draining the current batch, long before a draw would have to
	// wait for one. It decides when a mint starts, never which coins fund
	// it or come out of it. Must be ≥ Threshold. Zero disables the
	// high-water mark (NeedsRefill then falls back to Threshold).
	HighWater int
	// Counters, when non-nil, records all protocol costs.
	Counters *metrics.Counters
	// Pool, when non-nil, fans the pure-compute phases of refills and
	// exposures out across idle cores (see internal/parallel). Like
	// Counters, the pool is runtime-only: it propagates into every batch
	// the generator mints, absorbs, or restores, and is never serialized.
	Pool *parallel.Pool
}

func (c Config) withDefaults() Config {
	if c.Threshold == 0 {
		c.Threshold = DefaultThreshold
	}
	return c
}

// Validate checks the configuration.
func (c Config) Validate() error {
	c = c.withDefaults()
	if c.Field.K() == 0 {
		return errors.New("core: config has no field (Field is the zero value; construct one with gf2k.New)")
	}
	if c.N < 6*c.T+1 {
		return fmt.Errorf("core: need n ≥ 6t+1, got n=%d t=%d", c.N, c.T)
	}
	if c.BatchSize < 1 {
		return fmt.Errorf("core: batch size must be ≥ 1, got %d", c.BatchSize)
	}
	if c.Threshold < 2 {
		return fmt.Errorf("core: threshold must be ≥ 2 (a refill itself consumes coins), got %d", c.Threshold)
	}
	if c.BatchSize <= c.Threshold {
		return fmt.Errorf("core: batch size %d must exceed threshold %d or refills cannot make progress",
			c.BatchSize, c.Threshold)
	}
	if c.HighWater != 0 && c.HighWater < c.Threshold {
		return fmt.Errorf("core: high-water mark %d below threshold %d would never fire ahead of demand",
			c.HighWater, c.Threshold)
	}
	return nil
}

// Stats summarizes a generator's lifetime activity.
type Stats struct {
	// CoinsDelivered counts coins handed to the application.
	CoinsDelivered int
	// Batches counts Coin-Gen refills.
	Batches int
	// SeedSpent counts coins consumed internally by refills.
	SeedSpent int
	// Attempts accumulates Coin-Gen leader-selection iterations.
	Attempts int
}

// Generator is one player's D-PRBG endpoint. Not safe for concurrent use;
// drive it from the player's protocol goroutine.
type Generator struct {
	cfg   Config
	store *coin.Store
	stats Stats
}

// SetupTrusted bootstraps n generators from a one-time trusted dealer that
// seals `seedCoins` initial coins (must be ≥ cfg.Threshold... at minimum
// enough to fund the first refill). This mirrors the paper's Rabin-style
// initialization; afterwards the system is self-sufficient.
func SetupTrusted(cfg Config, seedCoins int, rnd io.Reader) ([]*Generator, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if seedCoins < cfg.Threshold {
		return nil, fmt.Errorf("core: initial seed of %d coins is below threshold %d", seedCoins, cfg.Threshold)
	}
	batches, _, err := coin.DealTrusted(cfg.Field, cfg.N, cfg.T, seedCoins, rnd)
	if err != nil {
		return nil, err
	}
	gens := make([]*Generator, cfg.N)
	for i := range gens {
		st := &coin.Store{Universe: cfg.N}
		batches[i].Counters = cfg.Counters
		batches[i].Pool = cfg.Pool
		if err := st.Add(batches[i]); err != nil {
			return nil, err
		}
		gens[i] = &Generator{cfg: cfg, store: st}
	}
	return gens, nil
}

// NewFromBatch wraps an externally produced coin batch (e.g. from a prior
// session) as a generator. Every player must construct its generator from
// the matching per-player batch.
func NewFromBatch(cfg Config, b *coin.Batch) (*Generator, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := b.Validate(); err != nil {
		return nil, err
	}
	b.Pool = cfg.Pool
	st := &coin.Store{Universe: cfg.N}
	if err := st.Add(b); err != nil {
		return nil, err
	}
	return &Generator{cfg: cfg, store: st}, nil
}

// NewFromStore wraps a whole restored store (e.g. read back from disk via
// coin.UnmarshalStore after a beacon shutdown) as a generator. The store
// must hold at least 2 sealed coins — the minimum a refill needs to fund
// its challenge and first leader draw — or the restored system could never
// become self-sufficient and would need the trusted dealer again.
func NewFromStore(cfg Config, st *coin.Store) (*Generator, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if st == nil {
		return nil, errors.New("core: nil store")
	}
	if rem := st.Remaining(); rem < 2 {
		return nil, fmt.Errorf("core: restored store holds %d coins; need ≥ 2 to fund a refill without a dealer", rem)
	}
	if err := st.BindUniverse(cfg.N); err != nil {
		return nil, err
	}
	// Pools (like counters) are never serialized; re-attach to every
	// restored batch.
	for _, b := range st.Batches() {
		b.Pool = cfg.Pool
	}
	return &Generator{cfg: cfg, store: st}, nil
}

// Remaining reports the number of sealed coins currently in the store.
func (g *Generator) Remaining() int { return g.store.Remaining() }

// Stats returns a copy of the lifetime statistics.
func (g *Generator) Stats() Stats { return g.stats }

// Store returns the generator's coin store, for persistence (marshal every
// batch at shutdown) and out-of-band refill plumbing. The store must only
// be touched from the generator's protocol goroutine, or between protocol
// operations by whoever schedules them.
func (g *Generator) Store() *coin.Store { return g.store }

// NeedsRefill reports whether the store has dropped below the proactive
// high-water mark (or, with no high-water mark configured, below the
// blocking threshold). Serving layers poll this to start an out-of-band
// Coin-Gen before Next would ever have to block on one.
func (g *Generator) NeedsRefill() bool {
	hw := g.cfg.HighWater
	if hw == 0 {
		hw = g.cfg.Threshold
	}
	return g.store.Remaining() < hw
}

// Next returns the next shared coin, refilling first when the store has
// dropped below the threshold. Every honest player obtains the same value.
func (g *Generator) Next(nd *simnet.Node, rnd io.Reader) (gf2k.Element, error) {
	if err := g.maybeRefill(nd, rnd); err != nil {
		return 0, err
	}
	e, err := g.store.Expose(nd)
	if err != nil {
		return 0, err
	}
	g.stats.CoinsDelivered++
	return e, nil
}

// NextBit returns the next shared coin reduced to a single bit.
func (g *Generator) NextBit(nd *simnet.Node, rnd io.Reader) (byte, error) {
	e, err := g.Next(nd, rnd)
	if err != nil {
		return 0, err
	}
	return coin.Bit(e), nil
}

// NextMod returns the next shared coin reduced mod m into [1, m].
func (g *Generator) NextMod(nd *simnet.Node, rnd io.Reader, m int) (int, error) {
	if m <= 0 {
		return 0, fmt.Errorf("core: invalid modulus %d", m)
	}
	e, err := g.Next(nd, rnd)
	if err != nil {
		return 0, err
	}
	return coin.Mod(e, m), nil
}

// Expose reveals the next sealed coin with no refill check — the entry
// point for serving layers (internal/beacon) that schedule refills
// themselves, ahead of demand. When the store is dry it returns
// coin.ErrExhausted without consuming a network round, so all honest
// players stay in lockstep even on the error path.
func (g *Generator) Expose(nd *simnet.Node) (gf2k.Element, error) {
	e, err := g.store.Expose(nd)
	if err != nil {
		return 0, err
	}
	g.stats.CoinsDelivered++
	return e, nil
}

// ExposeN reveals the next k sealed coins, again with no refill check, in
// one network round per batch touched (coin.Store.ExposeN) — the values k
// Expose calls would return, for one barrier instead of k. All or nothing:
// with fewer than k coins left it returns coin.ErrExhausted before any round
// is consumed, so lockstep workers stay aligned on the error path too.
func (g *Generator) ExposeN(nd *simnet.Node, k int) ([]gf2k.Element, error) {
	vals, err := g.store.ExposeN(nd, k)
	if err != nil {
		return nil, err
	}
	g.stats.CoinsDelivered += k
	return vals, nil
}

// DetachSeed carves the `count` newest sealed coins out of the store as a
// standalone seed for an out-of-band refill (core.Mint on a separate
// network), leaving the older coins behind for the serving path to keep
// draining — possibly none: the mint's batch is the only refill the serving
// layer has, so nothing is held back for another. count must be ≥ 2 (a
// Coin-Gen spends one challenge coin plus at least one leader draw).
func (g *Generator) DetachSeed(count int) (*coin.Store, error) {
	if count < 2 {
		return nil, fmt.Errorf("core: a detached seed of %d coins cannot fund a refill (need ≥ 2)", count)
	}
	return g.store.DetachTail(count)
}

// MintResult is one player's outcome of an out-of-band Coin-Gen run.
type MintResult struct {
	// Batch holds the BatchSize new sealed coins.
	Batch *coin.Batch
	// Attempts is the number of leader-selection iterations used.
	Attempts int
	// SeedConsumed counts the sealed coins spent from the seed source.
	SeedConsumed int
}

// Mint runs one Coin-Gen funded by the supplied seed source, returning the
// minted batch without touching any Generator. This is the non-blocking
// refill entry point: a serving layer detaches a seed (DetachSeed), runs
// Mint for every player on a dedicated network while exposures continue on
// the serving network, and later hands the results back with Absorb once
// the serving side is quiescent.
func Mint(cfg Config, nd *simnet.Node, seed coin.Source, rnd io.Reader) (*MintResult, error) {
	cfg = cfg.withDefaults()
	sp := nd.Tracer().Start(nd.Index(), nd.Round(), obs.KindProtocol, "core/refill")
	defer func() { sp.End(nd.Round()) }()
	res, err := coingen.Run(nd, coingen.Config{
		Field:    cfg.Field,
		N:        cfg.N,
		T:        cfg.T,
		M:        cfg.BatchSize,
		Seed:     seed,
		Counters: cfg.Counters,
		Pool:     cfg.Pool,
	}, rnd)
	if err != nil {
		if errors.Is(err, coin.ErrExhausted) {
			return nil, fmt.Errorf("core: seed ran dry mid-refill (threshold too low for the adversary's luck): %w", err)
		}
		return nil, err
	}
	return &MintResult{Batch: res.Batch, Attempts: res.Attempts, SeedConsumed: res.SeedConsumed}, nil
}

// Absorb appends an out-of-band minted batch to the store and accounts it
// as a refill. Every honest player must absorb its matching result at the
// same logical instant for exposures to stay in lockstep.
func (g *Generator) Absorb(res *MintResult) error {
	if res == nil || res.Batch == nil {
		return errors.New("core: Absorb of nil mint result")
	}
	res.Batch.Pool = g.cfg.Pool
	if err := g.store.Add(res.Batch); err != nil {
		return err
	}
	g.stats.Batches++
	g.stats.Attempts += res.Attempts
	g.stats.SeedSpent += res.SeedConsumed
	return nil
}

// AbsorbBatch appends a bare batch — leftover coins of a detached seed, or
// a batch restored from disk — to the store without refill accounting.
func (g *Generator) AbsorbBatch(b *coin.Batch) error {
	b.Pool = g.cfg.Pool
	return g.store.Add(b)
}

// maybeRefill runs Coin-Gen when the store is low. The trigger depends only
// on state that is identical at every honest player, so all generators
// refill in the same round.
func (g *Generator) maybeRefill(nd *simnet.Node, rnd io.Reader) error {
	if g.store.Remaining() >= g.cfg.Threshold {
		return nil
	}
	return g.Refill(nd, rnd)
}

// Refill unconditionally runs one Coin-Gen funded by the generator's own
// store, adding a batch of BatchSize sealed coins to it. Exposed for
// applications that want to pre-mint coins during idle periods instead of
// on demand; the blocking counterpart of Mint+Absorb.
func (g *Generator) Refill(nd *simnet.Node, rnd io.Reader) error {
	res, err := Mint(g.cfg, nd, g.store, rnd)
	if err != nil {
		return err
	}
	return g.Absorb(res)
}
