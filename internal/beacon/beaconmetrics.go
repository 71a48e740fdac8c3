package beacon

// Prometheus instrumentation for the serving layer. Two bundles mirror the
// two deployments: ServiceMetrics for the single-process Service (draw
// latency, queue pressure, refill pipeline), DaemonMetrics for the
// per-player Daemon (emission latency, join/refill progress). Inside the
// package a bundle is never nil — a deployment that configures none gets one
// built on a nil registry — so call sites use the handles directly; a nil
// registry switches off the export and the Service's clock reads, and the
// AllocsPerRun tests pin that no site allocates either way.

import (
	"time"

	"repro/internal/obs/prom"
)

// ServiceMetrics holds the Service's counters and latency histograms.
// Attach one bundle per Service via Config.Metrics to export it; a Service
// without one builds its own on no registry, because each event is counted
// once, here: Stats() and /metrics are two renderings of these counters.
// The gauge families (queue depth, store remaining, refill in-flight) are
// registered as scrape-time GaugeFuncs when the Service starts.
type ServiceMetrics struct {
	reg *prom.Registry

	// DrawLatency is beacon_draw_latency_seconds: wall-clock time a
	// successful draw spent from enqueue to response, including any
	// exposure rounds and refills it waited on. Nil (like the
	// refill durations) on no registry, and then no clock is read.
	DrawLatency *prom.Histogram
	// Draws is beacon_draws_total; Coins is beacon_coins_delivered_total.
	Draws *prom.Counter
	Coins *prom.Counter
	// Blocked is beacon_blocked_draws_total: requests that had to wait on a
	// Coin-Gen (the pipeline fell behind demand).
	Blocked *prom.Counter
	// beacon_rejected_total{reason}: overloaded.
	overloaded *prom.Counter
	// beacon_refills_total{kind} and beacon_refill_duration_seconds{kind}:
	// kind is pipelined (started ahead of demand, below the high-water
	// mark) or blocking (started by a draw that then waited for it).
	pipelined, blocking       *prom.Counter
	pipelinedDur, blockingDur *prom.Histogram
}

// NewServiceMetrics registers the Service families on r. On a nil r the
// counters still count but nothing is exported and the histograms are off.
func NewServiceMetrics(r *prom.Registry) *ServiceMetrics {
	live := r
	if live == nil {
		live = prom.NewRegistry()
	}
	rejected := live.CounterVec("beacon_rejected_total", "Draws rejected before reaching the queue (overloaded).", "reason")
	refills := live.CounterVec("beacon_refills_total", "Absorbed Coin-Gen batches by kind (pipelined, blocking).", "kind")
	refillDur := r.HistogramVec("beacon_refill_duration_seconds", "Coin-Gen wall-clock duration by kind (pipelined, blocking).",
		prom.ExpBuckets(0.005, 2, 14), "kind")
	return &ServiceMetrics{
		reg:          r,
		DrawLatency:  r.Histogram("beacon_draw_latency_seconds", "Latency of successful draws, enqueue to response.", nil),
		Draws:        live.Counter("beacon_draws_total", "Draw requests served."),
		Coins:        live.Counter("beacon_coins_delivered_total", "Coins handed out across all draws."),
		Blocked:      live.Counter("beacon_blocked_draws_total", "Draws that waited on a Coin-Gen round."),
		overloaded:   rejected.With("overloaded"),
		pipelined:    refills.With("pipelined"),
		blocking:     refills.With("blocking"),
		pipelinedDur: refillDur.With("pipelined"),
		blockingDur:  refillDur.With("blocking"),
	}
}

// registerGauges installs the scrape-time gauges for a running service.
func (m *ServiceMetrics) registerGauges(s *Service) {
	m.reg.GaugeFunc("beacon_queue_depth", "Draw requests waiting in the bounded queue.",
		func() float64 { return float64(len(s.reqs)) })
	m.reg.GaugeFunc("beacon_store_remaining", "Sealed coins left in the store.",
		func() float64 { return float64(s.remaining.Load()) })
	m.reg.GaugeFunc("beacon_refill_in_flight", "1 while a pipelined Coin-Gen is running.",
		func() float64 { return b2f(s.inFlight.Load()) })
}

// b2f renders a flag the way a gauge carries one.
func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// stamp reads the clock only when the latency histograms are on: a Service
// nobody scrapes must not pay for time.Now on the draw path.
func (m *ServiceMetrics) stamp() (t0 time.Time) {
	if m.DrawLatency != nil {
		t0 = time.Now()
	}
	return t0
}

// since feeds h the time elapsed since a stamp taken with the histograms on.
func since(h *prom.Histogram, t0 time.Time) {
	if h != nil {
		h.Observe(time.Since(t0).Seconds())
	}
}

// DaemonMetrics declares the Daemon metric families on a registry. Attach
// via DaemonConfig.Metrics; the position gauges (round, log length, epoch,
// store remaining, joined, refilling) are registered as scrape-time
// GaugeFuncs reading the daemon's state mirror.
type DaemonMetrics struct {
	reg *prom.Registry

	// EmitLatency is beacond_emit_latency_seconds: wall-clock time of one
	// emission round (one Coin-Expose round opening up to W coins, plus an
	// inline refill when one triggered — the long-tail bucket).
	EmitLatency *prom.Histogram
	// Coins is beacond_coins_total: coins appended to the public log, every
	// coin of an emission round.
	Coins *prom.Counter
	// Refills is beacond_refills_total; RefillDuration is
	// beacond_refill_duration_seconds (inline blocking Coin-Gens).
	Refills        *prom.Counter
	RefillDuration *prom.Histogram
	// SnapshotDuration is beacond_snapshot_seconds: wall-clock time of one
	// store snapshot (log fsync, then the slot write and its fsync), taken
	// after every refill, at the reshare cutover and at graceful exit.
	SnapshotDuration *prom.Histogram
	// JoinAttempts is beacond_join_attempts_total: choreography retries
	// before the daemon entered the cluster (1 = clean first try).
	JoinAttempts *prom.Counter
	// ReshareAttempts is beacond_reshare_attempts_total{result}: ceremony
	// attempts by outcome (ok, failed). ReshareDuration is
	// beacond_reshare_duration_seconds: wall-clock time per attempt.
	ReshareAttempts *prom.CounterVec
	ReshareDuration *prom.Histogram
}

// NewDaemonMetrics registers the Daemon families on r (nil r → every handle
// nil, every observation a no-op).
func NewDaemonMetrics(r *prom.Registry) *DaemonMetrics {
	return &DaemonMetrics{
		reg:         r,
		EmitLatency: r.Histogram("beacond_emit_latency_seconds", "Duration of one emission round (exposure, plus inline refill when triggered).", nil),
		Coins:       r.Counter("beacond_coins_total", "Coins appended to the public log."),
		Refills:     r.Counter("beacond_refills_total", "Inline blocking Coin-Gens completed."),
		RefillDuration: r.Histogram("beacond_refill_duration_seconds", "Wall-clock duration of inline Coin-Gens.",
			prom.ExpBuckets(0.005, 2, 14)),
		SnapshotDuration: r.Histogram("beacond_snapshot_seconds", "Wall-clock duration of one store snapshot (log fsync, then slot write and fsync).",
			prom.ExpBuckets(0.00005, 2, 14)),
		JoinAttempts:    r.Counter("beacond_join_attempts_total", "Join choreography attempts (1 = clean first try)."),
		ReshareAttempts: r.CounterVec("beacond_reshare_attempts_total", "Resharing ceremony attempts by outcome (ok, failed).", "result"),
		ReshareDuration: r.Histogram("beacond_reshare_duration_seconds", "Wall-clock duration of one resharing ceremony attempt.",
			prom.ExpBuckets(0.005, 2, 14)),
	}
}

// observeReshare records one ceremony attempt.
func (m *DaemonMetrics) observeReshare(seconds float64, ok bool) {
	result := "failed"
	if ok {
		result = "ok"
	}
	m.ReshareAttempts.With(result).Inc()
	m.ReshareDuration.Observe(seconds)
}

// observeEmit records one emission round that opened coins; when the round
// absorbed batches it is also an inline refill and feeds those series.
func (m *DaemonMetrics) observeEmit(seconds float64, coins, batches int) {
	m.EmitLatency.Observe(seconds)
	m.Coins.Add(int64(coins))
	if batches > 0 {
		m.Refills.Add(int64(batches))
		m.RefillDuration.Observe(seconds)
	}
}

// registerGauges installs the scrape-time position gauges for a daemon.
func (m *DaemonMetrics) registerGauges(d *Daemon) {
	snap := func(f func(DaemonStats) float64) func() float64 {
		return func() float64 {
			d.mu.Lock()
			st := d.state
			d.mu.Unlock()
			return f(st)
		}
	}
	m.reg.GaugeFunc("beacond_round", "Completed-round count of the local node.",
		snap(func(st DaemonStats) float64 { return float64(st.Round) }))
	m.reg.GaugeFunc("beacond_log_len", "Coins in the public log.",
		snap(func(st DaemonStats) float64 { return float64(st.LogLen) }))
	m.reg.GaugeFunc("beacond_epoch", "Refill epoch (batches absorbed since the ceremony).",
		snap(func(st DaemonStats) float64 { return float64(st.Epoch) }))
	m.reg.GaugeFunc("beacond_store_remaining", "Sealed coins left in the store.",
		snap(func(st DaemonStats) float64 { return float64(st.Remaining) }))
	m.reg.GaugeFunc("beacond_joined", "1 once the daemon has joined the cluster.",
		snap(func(st DaemonStats) float64 { return b2f(st.Joined) }))
	m.reg.GaugeFunc("beacond_refilling", "1 while an inline Coin-Gen is running.",
		snap(func(st DaemonStats) float64 { return b2f(st.Refilling) }))
	m.reg.GaugeFunc("beacond_generation", "Committee generation (0 = dealt, +1 per reshare).",
		snap(func(st DaemonStats) float64 { return float64(st.Generation) }))
}
