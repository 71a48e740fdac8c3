package simnet

// Peer-transport metrics: the prom instruments a daemon exports about its
// view of the cluster. Each daemon only sees its own connections and
// watermarks, so these series are per-process by construction; scraping all
// n daemons (cmd/beaconctl does) reassembles the cluster picture —
// watermark lag flags stragglers, demotion/reconnect counters flag flapping
// links, the RTT and round-duration histograms localize slowness.

import (
	"strconv"
	"time"

	"repro/internal/obs/prom"
)

// PeerMetrics declares the peer-transport metric families on a registry.
// Pass it to NewPeer via WithPeerMetrics. A network given none builds its
// own on no registry, so the transport uses the handles unconditionally: the
// counters and gauges still count, nothing is exported, and the two
// histograms — the only instruments that need a clock read — are off.
type PeerMetrics struct {
	// Watermark is simnet_peer_watermark{peer}: the highest round each peer
	// has declared complete, -1 until first heard from.
	Watermark *prom.GaugeVec
	// WatermarkLag is simnet_peer_watermark_lag{peer}: rounds the peer
	// trails the cluster lead (0 = keeping up). The straggler signal.
	WatermarkLag *prom.GaugeVec
	// Connected is simnet_peer_connected{peer}: 1 while the authenticated
	// outgoing connection is up.
	Connected *prom.GaugeVec
	// Epoch is simnet_peer_epoch{peer}: the beacon epoch each peer last
	// announced on a done/status frame, -1 until announced.
	Epoch *prom.GaugeVec
	// Demotions is simnet_peer_demotions_total{peer}: barriers that gave up
	// waiting for the peer and committed without it.
	Demotions *prom.CounterVec
	// Connects is simnet_peer_reconnects_total{peer}: successful
	// authenticated dials (the first connect counts as the first reconnect).
	Connects *prom.CounterVec
	// RedialBackoff is simnet_peer_redial_backoff_seconds{peer}: the current
	// backoff delay while the dial loop is retrying, 0 once connected.
	RedialBackoff *prom.GaugeVec
	// QueryRTT is simnet_peer_query_rtt_seconds{peer}: round-trip time of
	// out-of-band queries (the rejoin catch-up channel).
	QueryRTT *prom.HistogramVec
	// Handshakes is simnet_handshake_total{result}: outcome of every
	// outgoing dial attempt — "ok", "reject" (connected but the handshake
	// failed) or "dial-error" (no connection).
	Handshakes *prom.CounterVec
	// RoundDuration is simnet_round_duration_seconds: wall-clock time
	// EndRound spends flushing and waiting at the distributed barrier.
	RoundDuration *prom.Histogram
}

// NewPeerMetrics registers the peer-transport families on r. On a nil r
// nothing is exported and the histograms are off.
func NewPeerMetrics(r *prom.Registry) *PeerMetrics {
	live := r
	if live == nil {
		live = prom.NewRegistry()
	}
	return &PeerMetrics{
		Watermark:     live.GaugeVec("simnet_peer_watermark", "Highest round the peer declared complete (-1 if never heard from).", "peer"),
		WatermarkLag:  live.GaugeVec("simnet_peer_watermark_lag", "Rounds the peer trails the cluster lead.", "peer"),
		Connected:     live.GaugeVec("simnet_peer_connected", "1 while the authenticated outgoing connection to the peer is up.", "peer"),
		Epoch:         live.GaugeVec("simnet_peer_epoch", "Beacon epoch the peer last announced (-1 if never announced).", "peer"),
		Demotions:     live.CounterVec("simnet_peer_demotions_total", "Round barriers that timed out waiting for the peer and demoted it.", "peer"),
		Connects:      live.CounterVec("simnet_peer_reconnects_total", "Successful authenticated dials to the peer (first connect included).", "peer"),
		RedialBackoff: live.GaugeVec("simnet_peer_redial_backoff_seconds", "Current redial backoff delay while disconnected (0 when connected).", "peer"),
		QueryRTT:      r.HistogramVec("simnet_peer_query_rtt_seconds", "Round-trip time of out-of-band peer queries.", nil, "peer"),
		Handshakes:    live.CounterVec("simnet_handshake_total", "Outgoing dial attempts by outcome (ok, reject, dial-error).", "result"),
		RoundDuration: r.Histogram("simnet_round_duration_seconds", "EndRound wall-clock time: flush plus distributed barrier wait.", nil),
	}
}

// WithPeerMetrics attaches peer-transport instrumentation to a NewPeer
// network (in-memory networks ignore it).
func WithPeerMetrics(pm *PeerMetrics) Option {
	return func(nw *Network) { nw.peerOpts.metrics = pm }
}

// peerInstruments is the per-network resolved form of PeerMetrics: label
// lookups done once at NewPeer, so the round path touches only atomic
// handles. A peer network always has one.
type peerInstruments struct {
	watermark, lag, connected, backoff, epoch []*prom.Gauge
	demotions, connects                       []*prom.Counter
	queryRTT                                  []*prom.Histogram
	hsOK, hsReject, hsDialErr                 *prom.Counter
	roundDur                                  *prom.Histogram
}

func newPeerInstruments(pm *PeerMetrics, n int) *peerInstruments {
	if pm == nil {
		pm = NewPeerMetrics(nil)
	}
	pi := &peerInstruments{
		watermark: make([]*prom.Gauge, n),
		lag:       make([]*prom.Gauge, n),
		connected: make([]*prom.Gauge, n),
		backoff:   make([]*prom.Gauge, n),
		epoch:     make([]*prom.Gauge, n),
		demotions: make([]*prom.Counter, n),
		connects:  make([]*prom.Counter, n),
		queryRTT:  make([]*prom.Histogram, n),
		hsOK:      pm.Handshakes.With("ok"),
		hsReject:  pm.Handshakes.With("reject"),
		hsDialErr: pm.Handshakes.With("dial-error"),
		roundDur:  pm.RoundDuration,
	}
	for j := 0; j < n; j++ {
		l := strconv.Itoa(j)
		pi.watermark[j] = pm.Watermark.With(l)
		pi.lag[j] = pm.WatermarkLag.With(l)
		pi.connected[j] = pm.Connected.With(l)
		pi.backoff[j] = pm.RedialBackoff.With(l)
		pi.epoch[j] = pm.Epoch.With(l)
		pi.demotions[j] = pm.Demotions.With(l)
		pi.connects[j] = pm.Connects.With(l)
		pi.queryRTT[j] = pm.QueryRTT.With(l)
		pi.watermark[j].Set(-1)
		pi.epoch[j].Set(-1)
	}
	return pi
}

// stamp reads the clock only when the histograms are on: a transport nobody
// scrapes must not pay for time.Now on the round path.
func (pi *peerInstruments) stamp() (t0 time.Time) {
	if pi.roundDur != nil {
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

// updateLags refreshes the per-peer lag gauges against the given cluster
// lead (the max of every watermark and the local committed round).
func (pi *peerInstruments) updateLags(self, lead int, watermark []int) {
	for j, w := range watermark {
		if j == self {
			pi.lag[j].Set(0)
			continue
		}
		lag := lead - w
		if lag < 0 {
			lag = 0
		}
		pi.lag[j].SetInt(int64(lag))
	}
}
