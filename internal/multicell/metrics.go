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
// lookup). What a cell knows about itself (store depth, queue, refills,
// draw latency) is the cell's own beacon.ServiceMetrics, which New installs
// on the same registry under {cell}; only the two router-owned per-cell
// gauges are snapshots taken by Refresh, which the gateway calls at scrape
// time so every /metrics response is current.
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

	// Per-cell snapshot gauges (Refresh): refill lag below the high-water
	// mark (the router's shed criterion), down flag (the router's verdict).
	RefillLag *prom.GaugeVec
	Down      *prom.GaugeVec
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
		reg:         r,
		RoutedDraws: live.CounterVec("multicell_routed_draws_total", "Draws served, by serving cell and route (hash, rr, shed).", "cell", "route"),
		Shed:        live.CounterVec("multicell_shed_total", "Draws shed away from their primary cell (saturated, lagging or down).", "cell"),
		rateLimited: rejected.With("rate-limited"),
		streamQuota: rejected.With("stream-quota"),
		saturated:   rejected.With("saturated"),
		allDown:     rejected.With("down"),
		RefillLag:   r.GaugeVec("beacon_cell_refill_lag", "Coins the cell's store sits below its high-water mark (0 = pipeline keeping up).", "cell"),
		Down:        r.GaugeVec("beacon_cell_down", "1 once the cell failed terminally and was retired from routing.", "cell"),
	}
}

// registerGauges installs the scrape-time cluster-level gauges.
func (m *Metrics) registerGauges(cl *Cluster) {
	m.reg.GaugeFunc("multicell_streams_active", "Live Stream subscriptions across all tenants.",
		func() float64 { return float64(cl.streamsActive.Load()) })
	m.reg.GaugeFunc("multicell_cells", "Configured cell count.",
		func() float64 { return float64(cl.Cells()) })
}

// Refresh snapshots the router's two per-cell gauges. The gateway wraps its
// /metrics handler with this so scrapes are always current.
func (m *Metrics) Refresh(cl *Cluster) {
	for _, st := range cl.CellStats() {
		c := strconv.Itoa(st.Cell)
		m.RefillLag.With(c).SetInt(int64(st.RefillLag))
		down := int64(0)
		if st.Down {
			down = 1
		}
		m.Down.With(c).SetInt(down)
	}
}
