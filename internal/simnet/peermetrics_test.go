package simnet

import (
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs/prom"
)

// startMeteredCluster brings up one peer Network per player, each with its
// own prom registry (as real daemons have — one process, one registry).
func startMeteredCluster(t *testing.T, cfg *PeerConfig, extra ...Option) ([]*Network, []*prom.Registry) {
	t.Helper()
	n := cfg.N()
	nws := make([]*Network, n)
	regs := make([]*prom.Registry, n)
	for i := 0; i < n; i++ {
		regs[i] = prom.NewRegistry()
		opts := append([]Option{WithPeerMetrics(NewPeerMetrics(regs[i]))}, extra...)
		nw, err := NewPeer(cfg, i, opts...)
		if err != nil {
			t.Fatalf("NewPeer(%d): %v", i, err)
		}
		t.Cleanup(nw.Close)
		nws[i] = nw
	}
	for i, nw := range nws {
		if err := nw.WaitPeers(n-1, 10*time.Second); err != nil {
			t.Fatalf("player %d mesh: %v", i, err)
		}
	}
	return nws, regs
}

func scrape(t *testing.T, r *prom.Registry) []prom.Sample {
	t.Helper()
	var sb strings.Builder
	if err := r.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	samples, err := prom.ParseText(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatalf("exposition does not parse: %v\n%s", err, sb.String())
	}
	return samples
}

// TestPeerMetricsEndToEnd runs a metered 3-player cluster for a few rounds
// and checks every advertised series reports what actually happened.
func TestPeerMetricsEndToEnd(t *testing.T) {
	cfg := testPeerCfg(t, 3)
	nws, regs := startMeteredCluster(t, cfg)
	const epoch = 5
	for i, nw := range nws {
		nw.SetEpoch(epoch)
		if err := nw.StartAt(0); err != nil {
			t.Fatalf("StartAt(%d): %v", i, err)
		}
	}
	const rounds = 3
	var wg sync.WaitGroup
	for i, nw := range nws {
		wg.Add(1)
		go func(i int, nw *Network) {
			defer wg.Done()
			nd := nw.Node(i)
			for r := 0; r < rounds; r++ {
				nd.SendAll([]byte{byte(r)})
				if _, err := nd.EndRound(); err != nil {
					t.Errorf("player %d round %d: %v", i, r, err)
					return
				}
			}
		}(i, nw)
	}
	wg.Wait()

	samples := scrape(t, regs[0])
	for _, peer := range []string{"1", "2"} {
		if v, ok := prom.Value(samples, "simnet_peer_watermark", "peer", peer); !ok || v < rounds-1 {
			t.Errorf("watermark{peer=%s} = %v, %v; want ≥ %d", peer, v, ok, rounds-1)
		}
		if v, ok := prom.Value(samples, "simnet_peer_connected", "peer", peer); !ok || v != 1 {
			t.Errorf("connected{peer=%s} = %v, %v; want 1", peer, v, ok)
		}
		if v, ok := prom.Value(samples, "simnet_peer_reconnects_total", "peer", peer); !ok || v < 1 {
			t.Errorf("reconnects{peer=%s} = %v, %v; want ≥ 1", peer, v, ok)
		}
		if v, ok := prom.Value(samples, "simnet_peer_watermark_lag", "peer", peer); !ok || v > 1 {
			t.Errorf("lag{peer=%s} = %v, %v; want ≤ 1", peer, v, ok)
		}
		if v, ok := prom.Value(samples, "simnet_peer_epoch", "peer", peer); !ok || v != epoch {
			t.Errorf("epoch{peer=%s} = %v, %v; want %d", peer, v, ok, epoch)
		}
	}
	if v, ok := prom.Value(samples, "simnet_handshake_total", "result", "ok"); !ok || v < 2 {
		t.Errorf("handshake ok = %v, %v; want ≥ 2", v, ok)
	}
	if v, ok := prom.Value(samples, "simnet_round_duration_seconds_count"); !ok || v != rounds {
		t.Errorf("round duration count = %v, %v; want %d", v, ok, rounds)
	}
	// The transport state agrees with the gauge; the own slot was never
	// announced to ourselves.
	nws[0].pn.mu.Lock()
	got := []int{nws[0].pn.peerEpoch[1], nws[0].pn.peerEpoch[0]}
	nws[0].pn.mu.Unlock()
	if got[0] != epoch || got[1] != -1 {
		t.Errorf("peerEpoch[1], peerEpoch[self] = %v, want [%d -1]", got, epoch)
	}
}

// TestPeerMetricsDemotionAndQueryRTT kills one daemon mid-run and checks the
// survivor's demotion counter and connected gauge, plus query RTT samples.
func TestPeerMetricsDemotionAndQueryRTT(t *testing.T) {
	cfg := testPeerCfg(t, 2)
	nws, regs := startMeteredCluster(t, cfg,
		WithRoundTimeout(200*time.Millisecond),
		WithQueryHandler(func(from int, req []byte) []byte { return append([]byte("ack:"), req...) }),
	)
	for i, nw := range nws {
		if err := nw.StartAt(0); err != nil {
			t.Fatalf("StartAt(%d): %v", i, err)
		}
	}
	// One out-of-band query to get an RTT sample.
	if _, err := nws[0].Query(1, []byte("ping"), 5*time.Second); err != nil {
		t.Fatalf("query: %v", err)
	}

	// Round 0 with both alive.
	var wg sync.WaitGroup
	for i, nw := range nws {
		wg.Add(1)
		go func(i int, nw *Network) {
			defer wg.Done()
			if _, err := nw.Node(i).EndRound(); err != nil {
				t.Errorf("player %d: %v", i, err)
			}
		}(i, nw)
	}
	wg.Wait()

	// Kill player 1; player 0's next barrier must demote it.
	nws[1].Close()
	if _, err := nws[0].Node(0).EndRound(); err != nil {
		t.Fatalf("survivor round: %v", err)
	}

	samples := scrape(t, regs[0])
	if v, ok := prom.Value(samples, "simnet_peer_demotions_total", "peer", "1"); !ok || v != 1 {
		t.Errorf("demotions{peer=1} = %v, %v; want 1", v, ok)
	}
	if v, ok := prom.Value(samples, "simnet_peer_query_rtt_seconds_count", "peer", "1"); !ok || v != 1 {
		t.Errorf("query RTT count{peer=1} = %v, %v; want 1", v, ok)
	}
}

// TestPeerMetricsDisabled pins the unexported path: a network given no
// metrics (or a nil *PeerMetrics) runs on a bundle built on no registry,
// whose counters and gauges are live and whose histograms — the clock
// reads — are off.
func TestPeerMetricsDisabled(t *testing.T) {
	pm := NewPeerMetrics(nil)
	if pm.Watermark == nil || pm.Handshakes == nil || pm.RoundDuration != nil || pm.QueryRTT != nil {
		t.Fatal("NewPeerMetrics(nil) should hand out live counters and gauges and no histograms")
	}
	if pi := newPeerInstruments(nil, 2); !pi.stamp().IsZero() {
		t.Fatal("instruments on no registry must not read the clock")
	}
	cfg := testPeerCfg(t, 2)
	nws := startPeerCluster(t, cfg, WithPeerMetrics(nil))
	for i, nw := range nws {
		nw.SetEpoch(1)
		if err := nw.StartAt(0); err != nil {
			t.Fatal(err)
		}
		_ = i
	}
	var wg sync.WaitGroup
	for i, nw := range nws {
		wg.Add(1)
		go func(i int, nw *Network) {
			defer wg.Done()
			if _, err := nw.Node(i).EndRound(); err != nil {
				t.Errorf("player %d: %v", i, err)
			}
		}(i, nw)
	}
	wg.Wait()
}
