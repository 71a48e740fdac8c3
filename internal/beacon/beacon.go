// Package beacon is the serving layer on top of the D-PRBG core: a
// long-running randomness-beacon Service in the style of modern beacon
// deployments (SoK: Decentralized Randomness Beacon Protocols; RandSolomon's
// "RNG as a service" argument), built on the paper's bootstrap generator.
//
// A Service owns the whole n-player simnet cluster in one process: one
// worker goroutine per player (the simnet round barrier requires every
// active player to end each round) plus a single protocol executive that is
// the only scheduler of protocol work. Clients never touch protocol state;
// they enqueue draw requests into a bounded queue and the executive serves
// them in lockstep sweeps across all players.
//
// The headline mechanism is the ahead-of-demand refill pipeline — the only
// refill a Service has. When the sealed-coin count falls below the
// high-water mark (core.Config.HighWater), the executive detaches a small
// seed from the tail of every player's store and starts a Coin-Gen on a
// dedicated refill network, while the serving network keeps exposing coins
// from the front. When the mint completes, the executive absorbs the new
// batch (and any unspent seed) at a quiescent instant, so the identical
// store mutation happens at every player. A draw almost never waits on a
// protocol round (Stats().BlockedDraws counts the ones that did); one that
// finds the store short and no mint in flight starts that same mint itself.
//
// Production ergonomics on the request path: context cancellation,
// backpressure (bounded queue, ErrOverloaded) and a Stats snapshot; rate
// limiting is per tenant, at the router in front (internal/multicell).
// Shutdown is graceful: Close
// absorbs any in-flight mint, serves the queued requests, stops the
// cluster, and Persist writes every player's sealed store to disk via the
// coin.Batch wire format — a restarted Service resumes from those files
// without ever consulting the trusted dealer again (§1.2).
//
// Service is the single-process deployment. The multi-process deployment —
// one OS process per player, peered over authenticated TCP — is Daemon
// (daemon.go): DealCluster runs the one-time ceremony for a
// simnet.PeerConfig, and each Daemon then loads its own state files, joins
// (or rejoins, after a crash) the running cluster, and appends every
// opened coin to an append-only public log that is byte-identical across
// players. docs/OPERATIONS.md is the operator runbook for that mode.
package beacon

import (
	"context"
	cryptorand "crypto/rand"
	"errors"
	"fmt"
	"io"
	"sync/atomic"

	"repro/internal/coin"
	"repro/internal/core"
	"repro/internal/gf2k"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/obs/prom"
	"repro/internal/parallel"
	"repro/internal/simnet"
)

var (
	// ErrOverloaded is returned when the bounded request queue is full —
	// the backpressure signal. Clients should retry after a delay.
	ErrOverloaded = errors.New("beacon: request queue full")
	// ErrClosed is returned for draws after Close has begun.
	ErrClosed = errors.New("beacon: service closed")
	// ErrBadRequest wraps every error that rejects a draw for its arguments
	// (batch size, bit count, modulus) before anything is queued — the
	// caller's fault, HTTP 400, as opposed to a failure of the service.
	ErrBadRequest = errors.New("bad request")
)

// MaxDrawBits bounds a single DrawBits request so one client cannot drain
// an unbounded number of sealed coins (and the refills behind them) at once.
const MaxDrawBits = 4096

// MaxDrawBatch bounds a single DrawN request for the same reason.
const MaxDrawBatch = 256

// sweepCoins caps how many coins one lockstep sweep exposes: queued
// requests are coalesced up to this budget, and the whole sweep is one
// vector Coin-Expose round (one per batch it touches).
const sweepCoins = 32

// serveMaxRounds is the round budget for the long-lived serving network
// and for refill networks: effectively unlimited (the default simnet
// budget of 1e5 exists to catch diverging protocols under test, but a
// beacon consumes one round per sweep for as long as it runs).
const serveMaxRounds = 1 << 40

// Config parameterizes a beacon Service.
type Config struct {
	// Core is the D-PRBG configuration (field, N, T, BatchSize, Threshold,
	// HighWater). HighWater is the store depth below which a mint starts
	// ahead of demand; at 0 a mint starts only when a draw has to wait for
	// it. It moves latency, never values: the coin stream is a function of
	// the dealer seed and Rand alone.
	Core core.Config
	// SeedCoins is the size of the one-time trusted-dealer seed used by
	// New. Defaults to Core.BatchSize. Resume ignores it.
	SeedCoins int
	// QueueDepth bounds the request queue; a full queue rejects with
	// ErrOverloaded. Defaults to 256.
	QueueDepth int
	// Counters, when non-nil, is attached to both networks, so
	// Stats().Counters reports the protocol cost of serving.
	Counters *metrics.Counters
	// Tracer, when non-nil, instruments refill networks, so every
	// pipelined Coin-Gen emits the usual per-phase spans (Batch-VSS,
	// Grade-Cast, BA, Coin-Expose) for obs.PhaseSummary. The serving
	// network is left untraced: its spans would interleave with refill
	// spans of the same player and draw latency is tracked by Stats
	// instead.
	Tracer *obs.Tracer
	// Metrics, when non-nil, exports the service's Prometheus families
	// (draw latency, queue depth, refill pipeline — see NewServiceMetrics);
	// one bundle per Service. Nil keeps the draw path free of clock reads.
	Metrics *ServiceMetrics
	// Rand supplies each player's private randomness (polynomial dealing
	// in Coin-Gen). Defaults to crypto/rand for every player; tests
	// substitute seeded readers for reproducibility.
	Rand func(player int) io.Reader
}

func (c Config) withDefaults() Config {
	if c.Core.Threshold == 0 {
		c.Core.Threshold = core.DefaultThreshold
	}
	if c.SeedCoins == 0 {
		c.SeedCoins = c.Core.BatchSize
	}
	if c.QueueDepth == 0 {
		c.QueueDepth = 256
	}
	if c.Rand == nil {
		c.Rand = func(int) io.Reader { return cryptorand.Reader }
	}
	return c
}

// seedReserve is the number of coins a mint detaches from the store tail to
// fund its Coin-Gen (the challenge and leader draws), and so the depth no
// sweep may expose into: Core.Threshold, ≥ 2 by core's rule. Defaults applied.
func (c Config) seedReserve() int { return c.Core.Threshold }

// LowWater is the store depth a router in front of several Services sheds
// on: a draw that would leave fewer coins behind has to wait on a Coin-Gen
// once the next mint's seed is detached (the reserve under every sweep plus
// that seed).
func (c Config) LowWater() int {
	c = c.withDefaults()
	return 2 * c.seedReserve()
}

// Validate checks the configuration.
func (c Config) Validate() error {
	c = c.withDefaults()
	if err := c.Core.Validate(); err != nil {
		return err
	}
	if c.QueueDepth < 1 {
		return fmt.Errorf("beacon: queue depth must be ≥ 1, got %d", c.QueueDepth)
	}
	return nil
}

// Stats is a point-in-time snapshot of the service's activity.
type Stats struct {
	// QueueDepth is the number of requests waiting in the bounded queue.
	QueueDepth int
	// Remaining is the number of sealed coins left in the store.
	Remaining int
	// CoinsDelivered and Draws count coins handed out and requests served.
	CoinsDelivered int64
	Draws          int64
	// Refills counts absorbed Coin-Gen batches, all minted on the refill
	// network: PipelinedRefills started ahead of demand (the store fell
	// below HighWater), BlockingRefills were started by a draw that then
	// had to wait for them.
	Refills          int64
	PipelinedRefills int64
	BlockingRefills  int64
	// BlockedDraws counts requests that had to wait on a Coin-Gen (already
	// in flight, or started for them) before their coins could be exposed.
	// With a well-tuned high-water mark this stays 0.
	BlockedDraws int64
	// Overloaded counts requests rejected by a full queue.
	Overloaded int64
	// RefillInFlight reports whether a Coin-Gen is running now.
	RefillInFlight bool
	// Resumed reports whether the service was restored from persisted
	// stores (no trusted dealer involved) rather than freshly seeded.
	Resumed bool
	// Counters is the protocol cost snapshot (zero unless Config.Counters
	// was set).
	Counters metrics.Snapshot
}

type workerResult struct {
	player int
	vals   []gf2k.Element
	err    error
}

type drawResult struct {
	vals []gf2k.Element
	seq  int64 // stream position of vals[0] (see DrawN)
	err  error
}

type request struct {
	ctx  context.Context
	need int
	resp chan drawResult
}

type refillOutcome struct {
	seeds   []*coin.Store      // detached seeds, possibly with leftover coins
	mints   []*core.MintResult // per-player minted batches
	refills *prom.Counter      // met.pipelined or met.blocking, by who started the mint
	err     error
}

// Service is a running randomness beacon. Create with New or Resume; all
// exported methods are safe for concurrent use.
type Service struct {
	cfg     Config
	n       int
	gens    []*core.Generator
	nw      *simnet.Network
	cmds    []chan int // coins to expose in the next lockstep round; closed to stop
	results chan workerResult
	// pools[i] is player i's fork of Core.Pool (nil when that is nil: fully
	// serial). All forks share the root's capacity tokens, so concurrent
	// draws and a background refill compete for — rather than multiply —
	// the root pool's width.
	pools []*parallel.Pool

	reqs       chan *request
	refillDone chan *refillOutcome
	stop       chan struct{}
	execDone   chan struct{}

	resumed bool

	// Executive-owned state (no locking: only the exec goroutine touches
	// these after Start). seq is the stream cursor: the number of coins
	// handed out so far, hence the position of the next one.
	dead error
	seq  int64

	// met holds the one counter per serving event (never nil); Stats and
	// /metrics both read it. The atomics are written by the executive
	// (inFlight: a refill Coin-Gen is running) and read by those two.
	met       *ServiceMetrics
	remaining atomic.Int64
	inFlight  atomic.Bool
	closed    atomic.Bool
}

// New creates and starts a beacon from a fresh one-time trusted-dealer
// seed of cfg.SeedCoins coins (the paper's Rabin-style setup, used once).
func New(cfg Config) (*Service, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	gens, err := core.SetupTrusted(cfg.Core, cfg.SeedCoins, cfg.Rand(0))
	if err != nil {
		return nil, err
	}
	return start(cfg, gens, false)
}

// Resume creates and starts a beacon from one restored store per player
// (see Persist / LoadStores). The trusted dealer is not consulted: the
// restored seed funds every future refill, exactly the §1.2 storage
// pattern.
func Resume(cfg Config, stores []*coin.Store) (*Service, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(stores) != cfg.Core.N {
		return nil, fmt.Errorf("beacon: %d restored stores for %d players", len(stores), cfg.Core.N)
	}
	gens := make([]*core.Generator, cfg.Core.N)
	for i, st := range stores {
		g, err := core.NewFromStore(cfg.Core, st)
		if err != nil {
			return nil, fmt.Errorf("beacon: player %d: %w", i, err)
		}
		gens[i] = g
	}
	return start(cfg, gens, true)
}

func start(cfg Config, gens []*core.Generator, resumed bool) (*Service, error) {
	n := cfg.Core.N
	if cfg.Metrics == nil {
		cfg.Metrics = NewServiceMetrics(nil)
	}
	s := &Service{
		cfg:        cfg,
		n:          n,
		gens:       gens,
		nw:         simnet.New(n, simnet.WithMaxRounds(serveMaxRounds), simnet.WithCounters(cfg.Counters)),
		cmds:       make([]chan int, n),
		results:    make(chan workerResult, n),
		reqs:       make(chan *request, cfg.QueueDepth),
		refillDone: make(chan *refillOutcome, 1),
		stop:       make(chan struct{}),
		execDone:   make(chan struct{}),
		resumed:    resumed,
		pools:      make([]*parallel.Pool, n),
		met:        cfg.Metrics,
	}
	for i := range s.pools {
		s.pools[i] = cfg.Core.Pool.Fork()
	}
	s.remaining.Store(int64(gens[0].Remaining()))
	s.met.registerGauges(s)
	for i := 0; i < n; i++ {
		s.cmds[i] = make(chan int)
		go s.worker(i, s.nw.Node(i))
	}
	go s.exec()
	return s, nil
}

// Stats returns a snapshot of the service's activity.
func (s *Service) Stats() Stats {
	pipelined, blocking := s.met.pipelined.Value(), s.met.blocking.Value()
	st := Stats{
		QueueDepth:       len(s.reqs),
		Remaining:        int(s.remaining.Load()),
		CoinsDelivered:   s.met.Coins.Value(),
		Draws:            s.met.Draws.Value(),
		Refills:          pipelined + blocking,
		PipelinedRefills: pipelined,
		BlockingRefills:  blocking,
		BlockedDraws:     s.met.Blocked.Value(),
		Overloaded:       s.met.overloaded.Value(),
		RefillInFlight:   s.inFlight.Load(),
		Resumed:          s.resumed,
	}
	if s.cfg.Counters != nil {
		st.Counters = s.cfg.Counters.Snapshot()
	}
	return st
}

// Draw returns one shared coin: a uniform element of GF(2^k).
func (s *Service) Draw(ctx context.Context) (gf2k.Element, error) {
	vals, _, err := s.draw(ctx, 1)
	if err != nil {
		return 0, err
	}
	return vals[0], nil
}

// DrawN returns n shared coins in one request, plus the sequence number of
// the first one: coins are numbered 0,1,2,… in the order this Service
// exposed them, so DrawN(ctx, 3) returning seq 17 means the caller holds
// coins 17, 18 and 19 of this beacon's stream. Batches are contiguous — the
// executive exposes all n coins in one coalesced sweep — which is what lets
// a front end serve per-cell verifiable positions without a round trip per
// coin. n must be in [1, MaxDrawBatch].
func (s *Service) DrawN(ctx context.Context, n int) ([]gf2k.Element, int64, error) {
	if n < 1 || n > MaxDrawBatch {
		return nil, 0, fmt.Errorf("beacon: batch size %d outside [1,%d]: %w", n, MaxDrawBatch, ErrBadRequest)
	}
	return s.draw(ctx, n)
}

// DrawBits returns nbits shared random bits packed LSB-first into
// ⌈nbits/8⌉ bytes (unused high bits zero). Each drawn coin contributes its
// full k bits: the coin F(0) is uniform over GF(2^k), so every bit of its
// representation is an unbiased shared coin. nbits must be in
// [1, MaxDrawBits].
func (s *Service) DrawBits(ctx context.Context, nbits int) ([]byte, error) {
	if nbits < 1 || nbits > MaxDrawBits {
		return nil, fmt.Errorf("beacon: bit count %d outside [1,%d]: %w", nbits, MaxDrawBits, ErrBadRequest)
	}
	k := s.cfg.Core.Field.K()
	vals, _, err := s.draw(ctx, (nbits+k-1)/k)
	if err != nil {
		return nil, err
	}
	return packBits(vals, k, nbits), nil
}

// packBits concatenates the low k bits of each value, LSB-first, into
// ⌈nbits/8⌉ bytes and zeroes everything past bit nbits. A coin lands with
// one shift per output byte it touches, not one per bit.
func packBits(vals []gf2k.Element, k, nbits int) []byte {
	out := make([]byte, (nbits+7)/8)
	bit := 0
	for _, e := range vals {
		v, width := uint64(e), k
		if width > nbits-bit {
			width = nbits - bit
			v &= 1<<uint(width) - 1
		}
		end := bit + width
		for bit < end {
			sh := bit & 7
			out[bit>>3] |= byte(v << uint(sh))
			v >>= uint(8 - sh)
			bit += 8 - sh
		}
		bit = end // the loop steps to a byte boundary, possibly past end
	}
	return out
}

// DrawMod returns a shared random value in [1, m], the 1-based reduction
// Coin-Gen's own leader election uses (Fig. 5 step 9). Unlike core.NextMod
// (which keeps the paper's raw reduction inside the protocol), the serving
// layer draws by rejection sampling, so the result is exactly uniform for
// every m — a draw landing in the ragged tail of [0, 2^k) is discarded and
// a fresh coin drawn. Each coin is a shared value, so every replica rejects
// the identical draws and consumes the identical coin count; the expected
// overhead is below one extra coin per call (acceptance > 1/2 always).
func (s *Service) DrawMod(ctx context.Context, m int) (int, error) {
	if m <= 0 {
		return 0, fmt.Errorf("beacon: invalid modulus %d: %w", m, ErrBadRequest)
	}
	k := uint(s.cfg.Core.Field.K())
	if k < 64 && uint64(m) > 1<<k {
		return 0, fmt.Errorf("beacon: modulus %d exceeds the field's %d-bit draw space: %w", m, k, ErrBadRequest)
	}
	if m == 1 {
		return 1, nil // the only outcome; no entropy to spend
	}
	for {
		vals, _, err := s.draw(ctx, 1)
		if err != nil {
			return 0, err
		}
		if modAccept(uint64(vals[0]), k, uint64(m)) {
			return coin.Mod(vals[0], m), nil
		}
	}
}

// modAccept reports whether a k-bit draw v lies below the rejection cutoff
// for modulus m: the largest multiple of m not exceeding 2^k. Draws at or
// above the cutoff fall in the ragged tail whose residues would be
// overrepresented by one part in ⌊2^k/m⌋, so DrawMod rejects and redraws.
// Requires m ≥ 1 and (for k < 64) m ≤ 2^k.
func modAccept(v uint64, k uint, m uint64) bool {
	if k >= 64 {
		// 2^64 overflows uint64: compute 2^64 mod m as (MaxUint64 mod m + 1)
		// mod m and accept v < 2^64 − that remainder.
		rem := (^uint64(0)%m + 1) % m
		return rem == 0 || v <= ^uint64(0)-rem
	}
	space := uint64(1) << k
	return v < space-space%m
}

// draw enqueues a request for `need` coins and waits for the executive.
// The returned int64 is the stream sequence number of the first coin.
func (s *Service) draw(ctx context.Context, need int) ([]gf2k.Element, int64, error) {
	if s.closed.Load() {
		return nil, 0, ErrClosed
	}
	t0 := s.met.stamp()
	req := &request{ctx: ctx, need: need, resp: make(chan drawResult, 1)}
	select {
	case s.reqs <- req:
	default:
		s.met.overloaded.Inc()
		return nil, 0, ErrOverloaded
	}
	var r drawResult
	select {
	case r = <-req.resp:
	case <-ctx.Done():
		// The executive may still expose coins for this request; the
		// buffered resp channel absorbs the late result.
		return nil, 0, ctx.Err()
	case <-s.execDone:
		select {
		case r = <-req.resp:
		default:
			return nil, 0, ErrClosed
		}
	}
	if r.err == nil {
		since(s.met.DrawLatency, t0)
	}
	return r.vals, r.seq, r.err
}

// Close shuts the service down gracefully: it stops accepting draws, waits
// for any in-flight mint and absorbs it (so no detached seed coin is ever
// lost), serves the requests already queued, and halts the cluster. After
// Close returns nil the stores are quiescent and may be persisted.
func (s *Service) Close(ctx context.Context) error {
	if s.closed.CompareAndSwap(false, true) {
		close(s.stop)
	}
	select {
	case <-s.execDone:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// --- protocol executive -------------------------------------------------------

// exec is the dedicated protocol goroutine: the only scheduler of lockstep
// work and the only mutator of the generators between commands.
func (s *Service) exec() {
	defer close(s.execDone)
	for {
		s.maybePipelineRefill()
		select {
		case req := <-s.reqs:
			s.serve(req)
		case out := <-s.refillDone:
			s.absorbRefill(out)
		case <-s.stop:
			s.drainAndStop()
			return
		}
	}
}

// serve coalesces queued requests up to the sweepCoins budget and
// exposes their coins in one lockstep sweep: one vector Coin-Expose, so a
// sweep of any width costs one network round per batch it touches.
func (s *Service) serve(first *request) {
	batch := make([]*request, 0, 8)
	need := 0
	add := func(r *request) bool {
		if r.ctx.Err() != nil {
			r.resp <- drawResult{err: r.ctx.Err()}
			return false
		}
		batch = append(batch, r)
		need += r.need
		return true
	}
	add(first)
	for need < sweepCoins {
		select {
		case r := <-s.reqs:
			add(r)
		default:
			goto gathered
		}
	}
gathered:
	if len(batch) == 0 {
		return
	}
	if err := s.ensure(need, len(batch)); err != nil {
		for _, r := range batch {
			r.resp <- drawResult{err: err}
		}
		return
	}
	vals, err := s.commandExpose(need)
	if err != nil {
		s.fail(err)
		for _, r := range batch {
			r.resp <- drawResult{err: err}
		}
		return
	}
	off := 0
	for _, r := range batch {
		// Every exposed coin is handed to exactly one request in exposure
		// order, so the cursor's value before this request IS the sequence
		// number of its first coin.
		// Full slice expressions: a caller appending to its result must
		// reallocate, not write into the next request's coins.
		r.resp <- drawResult{vals: vals[off : off+r.need : off+r.need], seq: s.seq}
		off += r.need
		s.seq += int64(r.need)
		s.met.Draws.Inc()
		s.met.Coins.Add(int64(r.need))
	}
}

// ensure makes the store deep enough to expose `need` coins with the seed
// reserve still under them: the next mint detaches those, so a seed is the
// same tail coins whenever its mint starts (only with a mint in flight may
// a sweep reach into them, see startMint). A shallow store waits for the
// mint in flight; when none is (HighWater 0, or a sweep wider than the
// high-water headroom) it starts one first. Any draw that reaches the wait
// is accounted in BlockedDraws.
func (s *Service) ensure(need, nreqs int) error {
	blocked := false
	for s.dead == nil && int(s.remaining.Load()) < need+s.cfg.seedReserve() {
		if !blocked {
			blocked = true
			s.met.Blocked.Add(int64(nreqs))
		}
		if s.inFlight.Load() || s.startMint(s.met.blocking, s.met.blockingDur) {
			s.absorbRefill(<-s.refillDone)
		}
	}
	return s.dead
}

// maybePipelineRefill starts a mint ahead of demand when the store has
// fallen below the high-water mark (HighWater 0: mints start on demand only).
func (s *Service) maybePipelineRefill() {
	if s.dead == nil && !s.inFlight.Load() && s.cfg.Core.HighWater > 0 && s.gens[0].NeedsRefill() {
		s.startMint(s.met.pipelined, s.met.pipelinedDur)
	}
}

// startMint is the one refill: it detaches the seed reserve from every
// player's store tail and launches a Coin-Gen cluster on a dedicated
// network, reporting whether the mint is now in flight (a store that cannot
// fund a seed fails the service). The serving path keeps exposing from the
// store fronts while the mint runs. refills and dur are the kind it counts
// under: blocking when a waiting draw started it, pipelined when the
// high-water mark did.
func (s *Service) startMint(refills *prom.Counter, dur *prom.Histogram) bool {
	// A store restored below the reserve funds the mint with all it has.
	count := s.cfg.seedReserve()
	if rem := int(s.remaining.Load()); rem < count {
		count = rem
	}
	out := &refillOutcome{seeds: make([]*coin.Store, s.n), mints: make([]*core.MintResult, s.n), refills: refills}
	for i, g := range s.gens {
		if out.seeds[i], out.err = g.DetachSeed(count); out.err != nil {
			// The stores are structurally identical, so a failure can only
			// hit player 0 before anything was detached — but absorbRefill
			// puts back what was, so no coin is ever stranded.
			out.err = fmt.Errorf("beacon: refill seed, player %d: %w", i, out.err)
			s.absorbRefill(out)
			return false
		}
	}
	// remaining is not re-read here, so until the next sweep syncs it it
	// still counts the seed: that one sweep may expose a reserve's worth
	// deeper — the next seed will come from the batch now being minted —
	// rather than wait on a mint that has only just started.
	s.inFlight.Store(true)
	go func() {
		nwR := simnet.New(s.n, simnet.WithMaxRounds(serveMaxRounds),
			simnet.WithCounters(s.cfg.Counters), simnet.WithTracer(s.cfg.Tracer))
		fns := make([]simnet.PlayerFunc, s.n)
		for i := range fns {
			// Each minting node computes on its own fork of the root pool:
			// the refill cluster and the serving path compete for the same
			// core budget instead of oversubscribing it.
			coreCfg := s.cfg.Core
			coreCfg.Pool = s.pools[i]
			fns[i] = func(nd *simnet.Node) (interface{}, error) {
				return core.Mint(coreCfg, nd, out.seeds[i], s.cfg.Rand(i))
			}
		}
		t0 := s.met.stamp()
		for i, r := range simnet.Run(nwR, fns) {
			if r.Err != nil {
				out.err = fmt.Errorf("beacon: refill, player %d: %w", i, r.Err)
				break
			}
			out.mints[i] = r.Value.(*core.MintResult)
		}
		since(dur, t0)
		s.refillDone <- out
	}()
	return true
}

// absorbRefill merges a completed mint back into every player's store:
// first the unspent seed coins, then the fresh batch, in the same order at
// every player.
func (s *Service) absorbRefill(out *refillOutcome) {
	s.inFlight.Store(false)
	for i, g := range s.gens {
		if out.seeds[i] == nil {
			break // startMint's detach failed here
		}
		for _, b := range out.seeds[i].Batches() {
			if b.Remaining() == 0 {
				continue
			}
			if err := g.AbsorbBatch(b); err != nil && out.err == nil {
				out.err = fmt.Errorf("beacon: absorb leftover seed, player %d: %w", i, err)
			}
		}
		if out.err == nil {
			if err := g.Absorb(out.mints[i]); err != nil {
				out.err = fmt.Errorf("beacon: absorb minted batch, player %d: %w", i, err)
			}
		}
	}
	s.syncRemaining()
	if out.err != nil {
		s.fail(out.err)
		return
	}
	out.refills.Inc()
}

// fail moves the service into a terminal error state: subsequent draws
// report the first error.
func (s *Service) fail(err error) {
	if s.dead == nil && err != nil {
		s.dead = err
	}
}

func (s *Service) syncRemaining() {
	s.remaining.Store(int64(s.gens[0].Remaining()))
}

// drainAndStop completes shutdown: absorb an in-flight mint, serve the
// queue, stop the workers.
func (s *Service) drainAndStop() {
	if s.inFlight.Load() {
		s.absorbRefill(<-s.refillDone)
	}
	for {
		select {
		case req := <-s.reqs:
			s.serve(req)
		default:
			for _, ch := range s.cmds {
				close(ch)
			}
			return
		}
	}
}

// --- lockstep commands --------------------------------------------------------

// commandExpose has every worker expose k coins and returns player 0's
// values after checking unanimity across the cluster.
func (s *Service) commandExpose(k int) ([]gf2k.Element, error) {
	for _, ch := range s.cmds {
		ch <- k
	}
	res := make([]workerResult, 0, s.n)
	for len(res) < s.n {
		res = append(res, <-s.results)
	}
	var vals []gf2k.Element
	for _, r := range res {
		if r.err != nil {
			return nil, fmt.Errorf("beacon: expose, player %d: %w", r.player, r.err)
		}
		if r.player == 0 {
			vals = r.vals
		}
	}
	for _, r := range res {
		for h := range r.vals {
			if r.vals[h] != vals[h] {
				return nil, fmt.Errorf("beacon: unanimity violated at player %d coin %d", r.player, h)
			}
		}
	}
	s.syncRemaining()
	return vals, nil
}

// worker is player i's protocol goroutine: it exposes the coins the
// executive asks for on its node, in lockstep with the other n−1 workers,
// until the executive closes its channel.
func (s *Service) worker(i int, nd *simnet.Node) {
	for k := range s.cmds[i] {
		// One round per batch touched, and a dry store fails before
		// consuming any, so all workers stay at the same round even on
		// the error path.
		vals, err := s.gens[i].ExposeN(nd, k)
		s.results <- workerResult{player: i, vals: vals, err: err}
	}
	nd.Halt()
}
