// Package multicell is the horizontal-scale serving layer: M independent
// beacon cells behind one router. The paper's Coin-Gen pipeline is
// inherently sequential — one beacon.Service is one coin stream, and its
// throughput is capped by a single protocol executive no matter how fast
// the hot path gets — so the way to serve "millions of clients" (ROADMAP)
// is sideways: run many full Services, each with its own simnet network,
// its own store and its own domain-separated dealer seed, sharing no
// protocol state whatsoever. Each cell's stream stays byte-reproducible on
// its own (TestCellStreamsMatchSingleCellReference pins cell i of an
// M-cell cluster against a standalone Service with the same seed), and the
// cluster's aggregate throughput scales with cell count because the cells
// never synchronize.
//
// The router in front implements the serving policy:
//
//   - Draw routing: a tenant key is consistent-hashed onto a cell (Ring),
//     so one tenant observes one cell's contiguous stream; anonymous draws
//     round-robin across healthy cells.
//   - Degrade: when a cell's refill pipeline falls behind (store depth
//     below the point where a draw would have to wait), the router sheds
//     the draw to the next healthy cell in ring order; when a cell's queue
//     is full it does the same; when every live cell is saturated the draw
//     fails with ErrSaturated, which front ends map to 429 + Retry-After.
//     A cell that fails terminally (closed or protocol-dead) is marked
//     down and routed around.
//   - Tenancy: per-tenant token-bucket rate limits (ErrRateLimited) and
//     live-stream quotas (ErrStreamQuota), enforced before routing so an
//     abusive tenant is rejected without touching any cell.
//
// Batched draws (DrawN) return the serving cell and the sequence number of
// the first coin in that cell's stream, so every response names a
// verifiable position: (cell, seq, value) can be checked against the
// cell's public stream after the fact. Streams (Stream) push coins the
// same way, one callback per coin. DrawBits and DrawMod route the cell's
// own bit-packing and rejection-sampling draws and name the serving cell.
// With Config.StateDir set, the sealed stores survive a graceful restart
// (§1.2: "the new seed is stored until the next execution").
//
// cmd/beacongw is the HTTP face of this package; docs/OPERATIONS.md §10 is
// the operator runbook.
package multicell

import (
	"context"
	cryptorand "crypto/rand"
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/beacon"
	"repro/internal/coin"
	"repro/internal/gf2k"
	"repro/internal/obs/prom"
)

var (
	// ErrSaturated is returned when every live cell rejected the draw with
	// a full queue — the cluster-wide backpressure signal (HTTP 429).
	ErrSaturated = errors.New("multicell: all cells saturated")
	// ErrAllCellsDown is returned when no cell is serving at all (503).
	ErrAllCellsDown = errors.New("multicell: no live cells")
	// ErrRateLimited is returned when the tenant's token bucket is empty.
	ErrRateLimited = errors.New("multicell: tenant rate limit exceeded")
	// ErrStreamQuota is returned when the tenant is at its live-stream cap.
	ErrStreamQuota = errors.New("multicell: tenant stream quota exhausted")
	// ErrClosed is returned after Close has begun.
	ErrClosed = errors.New("multicell: cluster closed")
)

// Config parameterizes a Cluster.
type Config struct {
	// Cells is the number of independent beacon cells (M ≥ 1).
	Cells int
	// Cell is the per-cell beacon configuration template. Rand and Metrics
	// must be left nil: see CellRand, and the cluster installs each cell's
	// Service families on the Metrics registry under a cell label. Tracer is
	// forked per cell (origin = cell index). Core.HighWater is free: a
	// cell's stream is a function of its dealer seed and CellRand alone.
	Cell beacon.Config
	// CellRand supplies the domain-separated randomness for cell `cell`,
	// player `player`: both the one-time dealer seed and every refill.
	// Distinct cells MUST receive computationally independent streams —
	// that is the whole cross-cell isolation argument. Nil defaults to
	// crypto/rand (trivially independent); deterministic deployments and
	// tests must key their generators by (cell, player, call#).
	CellRand func(cell, player int) io.Reader
	// TenantRate and TenantBurst configure each tenant's token bucket in
	// draws per second. TenantRate == 0 disables per-tenant limiting.
	TenantRate  float64
	TenantBurst int
	// MaxStreamsPerTenant caps concurrent Stream calls per tenant.
	// Defaults to 4; negative disables the quota.
	MaxStreamsPerTenant int
	// MaxTenants bounds the tenant table (attacker-invented keys must not
	// grow memory without limit); past it, new tenants share one overflow
	// bucket. Defaults to 8192.
	MaxTenants int
	// Replicas is the consistent-hash virtual-node count per cell
	// (DefaultReplicas when 0).
	Replicas int
	// StreamInterval paces Stream pushes (0 = as fast as draws allow).
	StreamInterval time.Duration
	// Metrics, when non-nil, exports the cluster's Prometheus families:
	// the router's own (see NewMetrics) and every cell's beacon_* Service
	// families with a cell label.
	Metrics *Metrics
	// StateDir, when set, is where the sealed stores outlive the process:
	// New resumes every cell from StateDir/cell-NN/player-NNN.store when
	// all of them are there, deals fresh when none is and refuses anything
	// in between; Persist writes them back after Close. A resume retires
	// the files it loaded, so only a graceful shutdown leaves stores behind:
	// a process that dies deals fresh, it does not replay its last session.
	StateDir string

	// now is the injectable clock for rate-limiter tests.
	now func() time.Time
}

func (c Config) withDefaults() Config {
	if c.MaxStreamsPerTenant == 0 {
		c.MaxStreamsPerTenant = 4
	}
	if c.MaxStreamsPerTenant < 0 {
		c.MaxStreamsPerTenant = 0 // quota disabled
	}
	if c.MaxTenants == 0 {
		c.MaxTenants = 8192
	}
	if c.now == nil {
		c.now = time.Now
	}
	return c
}

// Validate checks the configuration, including what the cell template
// must leave to the cluster (see Config.Cell).
func (c Config) Validate() error {
	c = c.withDefaults()
	if c.Cells < 1 {
		return fmt.Errorf("multicell: need at least one cell, got %d", c.Cells)
	}
	if c.Cell.Rand != nil {
		return errors.New("multicell: set Config.CellRand, not Cell.Rand — per-cell randomness must be domain-separated by cell index")
	}
	if c.Cell.Metrics != nil {
		return errors.New("multicell: leave Cell.Metrics nil; the cluster exports per-cell families with a cell label")
	}
	if c.TenantRate < 0 {
		return fmt.Errorf("multicell: negative tenant rate %v", c.TenantRate)
	}
	return nil
}

// Coin is one routed coin: the cell that served it, the coin's sequence
// number in that cell's stream, and its value.
type Coin struct {
	Cell int
	Seq  int64
	Val  gf2k.Element
}

// Batch is one routed batched draw: n contiguous coins of one cell's
// stream starting at Seq.
type Batch struct {
	Cell int
	Seq  int64
	Vals []gf2k.Element
}

// Cluster is a running multi-cell beacon. Create with New; all exported
// methods are safe for concurrent use.
type Cluster struct {
	cfg      Config
	lowWater int // a draw leaving less than this behind would wait on a refill
	cells    []*beacon.Service
	ring     *Ring
	rr       atomic.Uint64
	tenants  *tenantTable
	down     []atomic.Bool
	closed   atomic.Bool

	// met holds the one counter per routing event (never nil); CellStats,
	// RouterStats and /metrics all read it. routed[c][r] (draws cell c
	// served, by route) and shedAway[c] (draws c was primary for but lost)
	// are its per-cell children, resolved once: a draw is one atomic add.
	met           *Metrics
	routed        [][len(routeNames)]*prom.Counter
	shedAway      []*prom.Counter
	streamsActive atomic.Int64

	closeOnce sync.Once
	closeErr  error
}

// New starts M cells, each a full beacon.Service on its own network with
// its own domain-separated dealer seed — or, when Config.StateDir holds a
// complete set of persisted stores, resumed from those with no dealer — and
// the router in front of them.
func New(cfg Config) (*Cluster, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	stores, err := cfg.loadStores()
	if err != nil {
		return nil, err
	}
	cellRand := cfg.CellRand
	if cellRand == nil {
		cellRand = func(int, int) io.Reader { return cryptorand.Reader }
	}
	if cfg.Metrics == nil {
		cfg.Metrics = NewMetrics(nil)
	}
	cl := &Cluster{
		cfg:      cfg,
		lowWater: cfg.Cell.LowWater(),
		cells:    make([]*beacon.Service, cfg.Cells),
		tenants:  newTenantTable(cfg.TenantRate, cfg.TenantBurst, cfg.MaxStreamsPerTenant, cfg.MaxTenants, cfg.now),
		down:     make([]atomic.Bool, cfg.Cells),
		met:      cfg.Metrics,
		routed:   make([][len(routeNames)]*prom.Counter, cfg.Cells),
		shedAway: make([]*prom.Counter, cfg.Cells),
	}
	ids := make([]int, cfg.Cells)
	for i := range ids {
		ids[i] = i
		cell := strconv.Itoa(i)
		for r, name := range routeNames {
			cl.routed[i][r] = cl.met.RoutedDraws.With(cell, name)
		}
		cl.shedAway[i] = cl.met.Shed.With(cell)
	}
	cl.ring = NewRing(ids, cfg.Replicas)
	// unwind stops the cells already started so no goroutines leak.
	unwind := func(err error) (*Cluster, error) {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		for _, svc := range cl.cells {
			if svc != nil {
				svc.Close(ctx) //nolint:errcheck // best-effort unwind
			}
		}
		return nil, err
	}
	for i := 0; i < cfg.Cells; i++ {
		c := cfg.Cell
		c.Rand = func(player int) io.Reader { return cellRand(i, player) }
		c.Tracer = cfg.Cell.Tracer.Fork(i)
		c.Metrics = beacon.NewServiceMetrics(cl.met.reg.Labelled("cell", strconv.Itoa(i)))
		var svc *beacon.Service
		if stores != nil {
			svc, err = beacon.Resume(c, stores[i])
		} else {
			svc, err = beacon.New(c)
		}
		if err != nil {
			return unwind(fmt.Errorf("multicell: start cell %d: %w", i, err))
		}
		cl.cells[i] = svc
	}
	// Every cell is up on the loaded stores, so the files are spent: retire
	// them before any caller can draw (see Config.StateDir).
	for i := 0; stores != nil && i < cfg.Cells; i++ {
		if err := beacon.RemoveStores(cellDir(cfg.StateDir, i), cfg.Cell.Core.N); err != nil {
			return unwind(fmt.Errorf("multicell: cell %d: %w", i, err))
		}
	}
	cl.met.registerGauges(cl)
	return cl, nil
}

// cellDir is where cell i keeps its player stores under the state directory.
func cellDir(stateDir string, cell int) string {
	return filepath.Join(stateDir, fmt.Sprintf("cell-%02d", cell))
}

// loadStores reads every cell's persisted stores, or returns nil for a fresh
// start (no StateDir, or none of this configuration's stores in it). Anything
// in between — a cell or a player missing — is an error and touches nothing:
// resuming some cells and dealing others would put a trusted dealer back into
// a deployment that had retired its own.
func (c Config) loadStores() ([][]*coin.Store, error) {
	held := 0
	for i := 0; c.StateDir != "" && i < c.Cells; i++ {
		k, err := beacon.StoredPlayers(cellDir(c.StateDir, i))
		if err != nil {
			return nil, err
		}
		held += k
	}
	if held == 0 {
		return nil, nil
	}
	stores := make([][]*coin.Store, c.Cells)
	for i := range stores {
		var err error
		if stores[i], err = beacon.LoadStores(cellDir(c.StateDir, i), c.Cell.Core.N); err != nil {
			return nil, fmt.Errorf("multicell: %s holds %d player stores, not the %d a resume needs: cell %d: %w",
				c.StateDir, held, c.Cells*c.Cell.Core.N, i, err)
		}
	}
	return stores, nil
}

// Resumed reports whether the cells were restored from Config.StateDir (no
// trusted dealer involved) rather than freshly dealt.
func (cl *Cluster) Resumed() bool { return cl.cells[0].Stats().Resumed }

// Persist writes every cell's stores under Config.StateDir. Call only after
// Close has returned; the next New on the same directory resumes from them.
func (cl *Cluster) Persist() error {
	if cl.cfg.StateDir == "" {
		return errors.New("multicell: persist needs Config.StateDir")
	}
	for i, svc := range cl.cells {
		if err := svc.Persist(cellDir(cl.cfg.StateDir, i)); err != nil {
			return fmt.Errorf("multicell: persist cell %d: %w", i, err)
		}
	}
	return nil
}

// Cells returns the configured cell count.
func (cl *Cluster) Cells() int { return len(cl.cells) }

// Draw routes one coin for the tenant ("" = anonymous, round-robin).
func (cl *Cluster) Draw(ctx context.Context, tenant string) (Coin, error) {
	b, err := cl.DrawN(ctx, tenant, 1)
	if err != nil {
		return Coin{}, err
	}
	return Coin{Cell: b.Cell, Seq: b.Seq, Val: b.Vals[0]}, nil
}

// DrawN routes one batched draw of n coins for the tenant. All n coins
// come from one cell, contiguous in its stream from the returned Seq.
func (cl *Cluster) DrawN(ctx context.Context, tenant string, n int) (Batch, error) {
	// Validate here, before the tenant's bucket is charged for a request
	// no cell can serve.
	if n < 1 || n > beacon.MaxDrawBatch {
		return Batch{}, fmt.Errorf("multicell: batch size %d outside [1,%d]: %w", n, beacon.MaxDrawBatch, beacon.ErrBadRequest)
	}
	if err := cl.admit(tenant); err != nil {
		return Batch{}, err
	}
	return cl.drawRouted(ctx, tenant, n)
}

// DrawBits routes one beacon.Service.DrawBits for the tenant and names the
// cell that served it.
func (cl *Cluster) DrawBits(ctx context.Context, tenant string, nbits int) (bits []byte, cell int, err error) {
	if err := cl.admit(tenant); err != nil {
		return nil, 0, err
	}
	k := cl.cfg.Cell.Core.Field.K()
	cell, err = cl.route(ctx, tenant, (nbits+k-1)/k, func(svc *beacon.Service) (err error) {
		bits, err = svc.DrawBits(ctx, nbits)
		return err
	})
	return bits, cell, err
}

// DrawMod routes one beacon.Service.DrawMod — a value in [1, m], exactly
// uniform — for the tenant and names the cell that served it.
func (cl *Cluster) DrawMod(ctx context.Context, tenant string, m int) (v, cell int, err error) {
	if err := cl.admit(tenant); err != nil {
		return 0, 0, err
	}
	cell, err = cl.route(ctx, tenant, 1, func(svc *beacon.Service) (err error) {
		v, err = svc.DrawMod(ctx, m)
		return err
	})
	return v, cell, err
}

// admit is the tenancy check in front of one routed draw: the cluster is
// open and the tenant's token bucket has a token for it.
func (cl *Cluster) admit(tenant string) error {
	if cl.closed.Load() {
		return ErrClosed
	}
	if !cl.tenants.allow(tenant) {
		cl.met.rateLimited.Inc()
		return ErrRateLimited
	}
	return nil
}

// drawRouted is a routed DrawN past tenancy checks (Stream pushes come here
// directly: stream admission is governed by the quota and pacing, not the
// per-draw bucket).
func (cl *Cluster) drawRouted(ctx context.Context, tenant string, n int) (b Batch, err error) {
	b.Cell, err = cl.route(ctx, tenant, n, func(svc *beacon.Service) (err error) {
		b.Vals, b.Seq, err = svc.DrawN(ctx, n)
		return err
	})
	return b, err
}

// route is the routing core: it offers draw — one of a cell's own Draw*
// calls, expected to take about `need` coins — the tenant's cells in shed
// order until one serves it, and returns that cell.
func (cl *Cluster) route(ctx context.Context, tenant string, need int, draw func(*beacon.Service) error) (int, error) {
	order, route := cl.routeOrder(tenant)
	// Pass 0 skips cells whose refill has fallen behind (the draw would
	// wait on a Coin-Gen round — shed to a deeper cell instead); pass 1
	// accepts waiting, because when every live cell lags, a slow coin
	// beats no coin. Queue-full (ErrOverloaded) and terminal errors shed
	// to the next cell in ring order on both passes.
	for pass := 0; pass < 2; pass++ {
		for i, c := range order {
			if cl.down[c].Load() {
				continue
			}
			if pass == 0 && cl.lagging(c, need) {
				continue
			}
			err := draw(cl.cells[c])
			switch {
			case err == nil:
				if i > 0 {
					route = routeShed
					cl.shedAway[order[0]].Inc()
				}
				cl.routed[c][route].Inc()
				return c, nil
			case errors.Is(err, beacon.ErrOverloaded):
				continue
			case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded),
				errors.Is(err, beacon.ErrBadRequest): // the caller's doing, not the cell's
				return 0, err
			default:
				// ErrClosed or a terminal protocol error: the cell is gone.
				cl.down[c].Store(true)
				continue
			}
		}
	}
	// Nothing served: every cell is either down or rejected with a full
	// queue (pass 1 waits on lagging cells rather than erroring).
	for _, c := range order {
		if !cl.down[c].Load() {
			cl.met.saturated.Inc()
			return 0, ErrSaturated
		}
	}
	cl.met.allDown.Inc()
	return 0, ErrAllCellsDown
}

// How a served draw reached its cell, and the route label values in the
// same order.
const (
	routeHash = iota
	routeRR
	routeShed
)

var routeNames = [...]string{"hash", "rr", "shed"}

// routeOrder returns the cells to try, in order, and how the primary was
// chosen. Tenants get their consistent-hash successor chain; anonymous
// draws start round-robin and continue in index order.
func (cl *Cluster) routeOrder(tenant string) ([]int, int) {
	if tenant != "" {
		return cl.ring.Successors(tenant), routeHash
	}
	start := int(cl.rr.Add(1)-1) % len(cl.cells)
	order := make([]int, len(cl.cells))
	for i := range order {
		order[i] = (start + i) % len(cl.cells)
	}
	return order, routeRR
}

// lagging reports whether a draw of n coins on cell c would have to wait
// on a Coin-Gen round: its refill pipeline has fallen behind demand.
func (cl *Cluster) lagging(c, n int) bool {
	return cl.cells[c].Stats().Remaining < n+cl.lowWater
}

// Stream pushes coins to deliver, one per callback, until ctx is done, max
// coins have been pushed (max ≤ 0 = unbounded), or deliver returns an
// error. The tenant's stream quota is claimed for the duration; pushes are
// paced by Config.StreamInterval. Each pushed coin names its (cell, seq)
// position like any routed draw.
func (cl *Cluster) Stream(ctx context.Context, tenant string, max int, deliver func(Coin) error) error {
	if cl.closed.Load() {
		return ErrClosed
	}
	release, ok := cl.tenants.acquireStream(tenant)
	if !ok {
		cl.met.streamQuota.Inc()
		return ErrStreamQuota
	}
	defer release()
	cl.streamsActive.Add(1)
	defer cl.streamsActive.Add(-1)
	var tick *time.Ticker
	if cl.cfg.StreamInterval > 0 {
		tick = time.NewTicker(cl.cfg.StreamInterval)
		defer tick.Stop()
	}
	for i := 0; max <= 0 || i < max; i++ {
		b, err := cl.drawRouted(ctx, tenant, 1)
		if err != nil {
			return err
		}
		if err := deliver(Coin{Cell: b.Cell, Seq: b.Seq, Val: b.Vals[0]}); err != nil {
			return err
		}
		if tick != nil {
			select {
			case <-tick.C:
			case <-ctx.Done():
				return ctx.Err()
			}
		}
	}
	return nil
}

// CellStats is the router's view of one cell.
type CellStats struct {
	Cell           int   `json:"cell"`
	Down           bool  `json:"down"`
	Remaining      int   `json:"remaining"`
	QueueDepth     int   `json:"queue"`
	RefillInFlight bool  `json:"refilling"`
	RefillLag      int   `json:"refill_lag"` // coins below the high-water mark
	Draws          int64 `json:"draws"`
	Coins          int64 `json:"coins"`
	BlockedDraws   int64 `json:"blocked_draws"`
	Refills        int64 `json:"refills"`
	RoutedHash     int64 `json:"routed_hash"`
	RoutedRR       int64 `json:"routed_rr"`
	RoutedShed     int64 `json:"routed_shed"` // draws served here after shedding from elsewhere
	ShedAway       int64 `json:"shed_away"`   // draws this cell was primary for but lost
}

// CellStats snapshots every cell.
func (cl *Cluster) CellStats() []CellStats {
	out := make([]CellStats, len(cl.cells))
	for i, svc := range cl.cells {
		st := svc.Stats()
		lag := cl.cfg.Cell.Core.HighWater - st.Remaining
		if lag < 0 {
			lag = 0
		}
		out[i] = CellStats{
			Cell:           i,
			Down:           cl.down[i].Load(),
			Remaining:      st.Remaining,
			QueueDepth:     st.QueueDepth,
			RefillInFlight: st.RefillInFlight,
			RefillLag:      lag,
			Draws:          st.Draws,
			Coins:          st.CoinsDelivered,
			BlockedDraws:   st.BlockedDraws,
			Refills:        st.Refills,
			RoutedHash:     cl.routed[i][routeHash].Value(),
			RoutedRR:       cl.routed[i][routeRR].Value(),
			RoutedShed:     cl.routed[i][routeShed].Value(),
			ShedAway:       cl.shedAway[i].Value(),
		}
	}
	return out
}

// RouterStats is the cluster-wide rejection and stream accounting.
type RouterStats struct {
	RateLimited   int64 `json:"rate_limited"`
	Saturated     int64 `json:"saturated"`
	StreamQuota   int64 `json:"stream_quota"`
	StreamsActive int64 `json:"streams_active"`
	CellsDown     int   `json:"cells_down"`
}

// RouterStats snapshots the router's own counters.
func (cl *Cluster) RouterStats() RouterStats {
	st := RouterStats{
		RateLimited:   cl.met.rateLimited.Value(),
		Saturated:     cl.met.saturated.Value(),
		StreamQuota:   cl.met.streamQuota.Value(),
		StreamsActive: cl.streamsActive.Load(),
	}
	for i := range cl.down {
		if cl.down[i].Load() {
			st.CellsDown++
		}
	}
	return st
}

// CloseCell shuts one cell down (draining its queue); the router marks it
// down immediately and routes around it. Used by operators to retire a
// cell and by the degrade tests to kill one mid-load.
func (cl *Cluster) CloseCell(ctx context.Context, cell int) error {
	if cell < 0 || cell >= len(cl.cells) {
		return fmt.Errorf("multicell: no cell %d", cell)
	}
	cl.down[cell].Store(true)
	return cl.cells[cell].Close(ctx)
}

// Close shuts every cell down gracefully.
func (cl *Cluster) Close(ctx context.Context) error {
	cl.closeOnce.Do(func() {
		cl.closed.Store(true)
		var wg sync.WaitGroup
		errs := make([]error, len(cl.cells))
		for i, svc := range cl.cells {
			wg.Add(1)
			go func(i int, svc *beacon.Service) {
				defer wg.Done()
				if err := svc.Close(ctx); err != nil {
					errs[i] = fmt.Errorf("multicell: close cell %d: %w", i, err)
				}
			}(i, svc)
		}
		wg.Wait()
		cl.closeErr = errors.Join(errs...)
	})
	return cl.closeErr
}
