package multicell

import (
	"strconv"

	"repro/internal/obs/prom"
)

// Metrics holds the router's counters and declares the cluster's gauge
// families. Attach one bundle per Cluster via Config.Metrics to export it;
// a Cluster without one builds its own on no registry, because CellStats
// and RouterStats read these same counters: each routing event is counted
// once, inline on the draw path (an atomic add — no clock read, no label
// lookup). The per-cell depth gauges are snapshots taken by Refresh, which
// the gateway calls at scrape time so every /metrics response is current.
type Metrics struct {
	reg *prom.Registry

	// RoutedDraws is multicell_routed_draws_total{cell,route}: served
	// draws by serving cell and how they got there — hash (tenant's
	// consistent-hash home), rr (anonymous round-robin), shed (rerouted
	// off a saturated/lagging/down primary).
	RoutedDraws *prom.CounterVec
	// Shed is multicell_shed_total{cell}: draws whose PRIMARY was this
	// cell but which another cell served (the shed-away view; the
	// receiving side shows up under routed_draws{route="shed"}).
	Shed *prom.CounterVec
	// multicell_rejected_total{reason}: rate-limited, stream-quota,
	// saturated, down.
	rateLimited, streamQuota, saturated, allDown *prom.Counter

	// Per-cell snapshot gauges (Refresh): store depth, queue depth, refill
	// lag below the high-water mark, refill-in-flight, down flag.
	Depth          *prom.GaugeVec
	Queue          *prom.GaugeVec
	RefillLag      *prom.GaugeVec
	RefillInFlight *prom.GaugeVec
	Down           *prom.GaugeVec
	CellCoins      *prom.GaugeVec
	CellBlocked    *prom.GaugeVec
}

// NewMetrics registers the cluster families on r. On a nil r the counters
// still count but nothing is exported and the gauges are off.
func NewMetrics(r *prom.Registry) *Metrics {
	live := r
	if live == nil {
		live = prom.NewRegistry()
	}
	rejected := live.CounterVec("multicell_rejected_total", "Draws rejected by the router (rate-limited, stream-quota, saturated, down).", "reason")
	return &Metrics{
		reg:            r,
		RoutedDraws:    live.CounterVec("multicell_routed_draws_total", "Draws served, by serving cell and route (hash, rr, shed).", "cell", "route"),
		Shed:           live.CounterVec("multicell_shed_total", "Draws shed away from their primary cell (saturated, lagging or down).", "cell"),
		rateLimited:    rejected.With("rate-limited"),
		streamQuota:    rejected.With("stream-quota"),
		saturated:      rejected.With("saturated"),
		allDown:        rejected.With("down"),
		Depth:          r.GaugeVec("beacon_cell_depth", "Sealed coins left in the cell's store.", "cell"),
		Queue:          r.GaugeVec("beacon_cell_queue_depth", "Draw requests waiting in the cell's bounded queue.", "cell"),
		RefillLag:      r.GaugeVec("beacon_cell_refill_lag", "Coins the cell's store sits below its high-water mark (0 = pipeline keeping up).", "cell"),
		RefillInFlight: r.GaugeVec("beacon_cell_refill_in_flight", "1 while the cell runs a pipelined Coin-Gen.", "cell"),
		Down:           r.GaugeVec("beacon_cell_down", "1 once the cell failed terminally and was retired from routing.", "cell"),
		CellCoins:      r.GaugeVec("beacon_cell_coins_total", "Coins the cell has delivered (snapshot of the cell's own counter).", "cell"),
		CellBlocked:    r.GaugeVec("beacon_cell_blocked_draws", "Draws that waited on a Coin-Gen round inside this cell.", "cell"),
	}
}

// registerGauges installs the scrape-time cluster-level gauges.
func (m *Metrics) registerGauges(cl *Cluster) {
	m.reg.GaugeFunc("multicell_streams_active", "Live Stream subscriptions across all tenants.",
		func() float64 { return float64(cl.streamsActive.Load()) })
	m.reg.GaugeFunc("multicell_cells", "Configured cell count.",
		func() float64 { return float64(cl.Cells()) })
}

// Refresh snapshots every cell's depth gauges. The gateway wraps its
// /metrics handler with this so scrapes are always current.
func (m *Metrics) Refresh(cl *Cluster) {
	b2f := func(b bool) float64 {
		if b {
			return 1
		}
		return 0
	}
	for _, st := range cl.CellStats() {
		c := strconv.Itoa(st.Cell)
		m.Depth.With(c).SetInt(int64(st.Remaining))
		m.Queue.With(c).SetInt(int64(st.QueueDepth))
		m.RefillLag.With(c).SetInt(int64(st.RefillLag))
		m.RefillInFlight.With(c).Set(b2f(st.RefillInFlight))
		m.Down.With(c).Set(b2f(st.Down))
		m.CellCoins.With(c).SetInt(st.Coins)
		m.CellBlocked.With(c).SetInt(st.BlockedDraws)
	}
}
