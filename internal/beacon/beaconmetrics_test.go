package beacon

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs/prom"
	"repro/internal/simnet"
)

func scrapeRegistry(t *testing.T, r *prom.Registry) []prom.Sample {
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

// TestServiceMetricsEndToEnd drains a metered pipelined service and checks
// the exported series against the Stats snapshot ground truth.
func TestServiceMetricsEndToEnd(t *testing.T) {
	reg := prom.NewRegistry()
	cfg := testConfig(t, 24, 6, 16)
	cfg.Metrics = NewServiceMetrics(reg)
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	const draws = 60
	for i := 0; i < draws; i++ {
		if _, err := s.Draw(ctx); err != nil {
			t.Fatalf("draw %d: %v", i, err)
		}
	}
	mustClose(t, s)
	st := s.Stats()

	samples := scrapeRegistry(t, reg)
	if v, ok := prom.Value(samples, "beacon_draws_total"); !ok || v != draws {
		t.Errorf("beacon_draws_total = %v, %v; want %d", v, ok, draws)
	}
	if v, ok := prom.Value(samples, "beacon_coins_delivered_total"); !ok || v != draws {
		t.Errorf("beacon_coins_delivered_total = %v, %v; want %d", v, ok, draws)
	}
	if v, ok := prom.Value(samples, "beacon_draw_latency_seconds_count"); !ok || v != draws {
		t.Errorf("draw latency count = %v, %v; want %d", v, ok, draws)
	}
	if p99 := prom.Quantile(samples, "beacon_draw_latency_seconds", 0.99); !(p99 >= 0) {
		t.Errorf("draw latency p99 = %v, want a finite value", p99)
	}
	if v, ok := prom.Value(samples, "beacon_refills_total", "kind", "pipelined"); !ok || v != float64(st.PipelinedRefills) {
		t.Errorf("refills{pipelined} = %v, %v; want %d", v, ok, st.PipelinedRefills)
	}
	if v, ok := prom.Value(samples, "beacon_refill_duration_seconds_count", "kind", "pipelined"); !ok || v < 2 {
		t.Errorf("refill duration count{pipelined} = %v, %v; want ≥ 2", v, ok)
	}
	if v, ok := prom.Value(samples, "beacon_store_remaining"); !ok || int(v) != st.Remaining {
		t.Errorf("beacon_store_remaining = %v, %v; want %d", v, ok, st.Remaining)
	}
	if v, ok := prom.Value(samples, "beacon_queue_depth"); !ok || v != 0 {
		t.Errorf("beacon_queue_depth = %v, %v; want 0 after drain", v, ok)
	}
	if v, ok := prom.Value(samples, "beacon_refill_in_flight"); !ok || v != 0 {
		t.Errorf("beacon_refill_in_flight = %v, %v; want 0 after close", v, ok)
	}
}

// TestServiceMetricsBlockingAndRejections covers the slow path: a
// HighWater-0 service refills only when a draw waits for it (kind=blocking,
// draws counted as blocked). The rejection it can raise, a full queue, is
// TestStatsAgreeWithMetrics's.
func TestServiceMetricsBlockingAndRejections(t *testing.T) {
	reg := prom.NewRegistry()
	cfg := testConfig(t, 24, 6, 0) // no high-water mark: every refill is started by a waiting draw
	cfg.Metrics = NewServiceMetrics(reg)
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	const drawsOK = 40
	for i := 0; i < drawsOK; i++ {
		if _, err := s.Draw(ctx); err != nil {
			t.Fatalf("draw %d: %v", i, err)
		}
	}
	mustClose(t, s)
	st := s.Stats()
	if st.BlockingRefills < 1 || st.BlockedDraws < 1 {
		t.Fatalf("test did not exercise the blocking path: %+v", st)
	}

	samples := scrapeRegistry(t, reg)
	if v, ok := prom.Value(samples, "beacon_refills_total", "kind", "blocking"); !ok || v != float64(st.BlockingRefills) {
		t.Errorf("refills{blocking} = %v, %v; want %d", v, ok, st.BlockingRefills)
	}
	if v, ok := prom.Value(samples, "beacon_refill_duration_seconds_count", "kind", "blocking"); !ok || v != float64(st.BlockingRefills) {
		t.Errorf("refill duration count{blocking} = %v, %v; want %d", v, ok, st.BlockingRefills)
	}
	if v, ok := prom.Value(samples, "beacon_blocked_draws_total"); !ok || v != float64(st.BlockedDraws) {
		t.Errorf("blocked draws = %v, %v; want %d", v, ok, st.BlockedDraws)
	}
	if v, ok := prom.Value(samples, "beacon_draws_total"); !ok || v != float64(drawsOK) {
		t.Errorf("draws = %v, %v; want %d", v, ok, drawsOK)
	}
}

// TestStatsAgreeWithMetrics drives a mixed load — served single and batched
// draws, a draw blocked on a Coin-Gen, one bounced off the full queue — and
// checks that Stats() and the exposition
// report the same number for every event: they are two renderings of one
// counter each, so they cannot drift whatever the interleaving.
func TestStatsAgreeWithMetrics(t *testing.T) {
	gate := make(chan struct{})
	var armed atomic.Bool
	var reads atomic.Int64
	reg := prom.NewRegistry()
	cfg := testConfig(t, 24, 6, 0)
	cfg.Metrics = NewServiceMetrics(reg)
	cfg.SeedCoins, cfg.QueueDepth = 8, 1
	base := cfg.Rand
	cfg.Rand = func(i int) io.Reader {
		return &gatedReader{armed: &armed, gate: gate, reads: &reads, r: base(i)}
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for i := 0; i < 2; i++ { // two free draws drop the store to the threshold
		if _, err := s.Draw(ctx); err != nil {
			t.Fatalf("draw %d: %v", i, err)
		}
	}
	armed.Store(true)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); s.Draw(ctx) }() //nolint:errcheck // blocks on the gated refill
	waitFor(t, func() bool { return reads.Load() > 0 })
	go func() { defer wg.Done(); s.DrawN(ctx, 3) }() //nolint:errcheck // parks in the one queue slot
	waitFor(t, func() bool { return s.Stats().QueueDepth == 1 })
	if _, err := s.Draw(ctx); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("draw on a full queue: err=%v, want ErrOverloaded", err)
	}
	close(gate)
	wg.Wait()
	if _, err := s.Draw(ctx); err != nil {
		t.Fatal(err)
	}
	mustClose(t, s)

	st := s.Stats()
	if st.Draws != 5 || st.CoinsDelivered != 7 || st.BlockedDraws == 0 || st.Overloaded != 1 ||
		st.BlockingRefills == 0 || st.Refills != st.PipelinedRefills+st.BlockingRefills {
		t.Fatalf("load was not the intended mix: %+v", st)
	}
	samples := scrapeRegistry(t, reg)
	for _, c := range []struct {
		stat int64
		name string
		kv   []string
	}{
		{st.Draws, "beacon_draws_total", nil},
		{st.CoinsDelivered, "beacon_coins_delivered_total", nil},
		{st.Draws, "beacon_draw_latency_seconds_count", nil},
		{st.BlockedDraws, "beacon_blocked_draws_total", nil},
		{st.Overloaded, "beacon_rejected_total", []string{"reason", "overloaded"}},
		{st.PipelinedRefills, "beacon_refills_total", []string{"kind", "pipelined"}},
		{st.BlockingRefills, "beacon_refills_total", []string{"kind", "blocking"}},
		{st.BlockingRefills, "beacon_refill_duration_seconds_count", []string{"kind", "blocking"}},
		{int64(st.Remaining), "beacon_store_remaining", nil},
		{int64(st.QueueDepth), "beacon_queue_depth", nil},
	} {
		if v, ok := prom.Value(samples, c.name, c.kv...); !ok || v != float64(c.stat) {
			t.Errorf("%s%v = %v, %v; Stats() says %d", c.name, c.kv, v, ok, c.stat)
		}
	}
}

// TestDaemonMetricsEndToEnd runs a metered 7-daemon cluster across a refill
// boundary and checks player 0's registry: position gauges, emit/refill
// series, and the peer-transport epoch gauges fed by the daemon's
// SetEpoch hook.
func TestDaemonMetricsEndToEnd(t *testing.T) {
	const n, emit = 7, 30
	pc := testPeerConfig(t, n, 1, 24, 6, 24)
	base := t.TempDir()
	dirs := make([]string, n)
	for i := range dirs {
		dirs[i] = filepath.Join(base, fmt.Sprintf("p%d", i))
	}
	ceremony := filepath.Join(base, "deal")
	if err := DealCluster(pc, ceremony, rand.New(rand.NewSource(99))); err != nil {
		t.Fatalf("DealCluster: %v", err)
	}
	scatterStateDirs(t, ceremony, dirs)

	regs := make([]*prom.Registry, n)
	errs := make([]error, n)
	var d0 *Daemon
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		regs[i] = prom.NewRegistry()
		d, err := NewDaemon(DaemonConfig{
			Peers:          pc,
			Self:           i,
			StateDir:       dirs[i],
			Emit:           emit,
			Rand:           rand.New(rand.NewSource(7 + int64(i)*1009)),
			RoundTimeout:   2 * time.Second,
			DialBackoffMax: 200 * time.Millisecond,
			JoinTimeout:    20 * time.Second,
			Metrics:        NewDaemonMetrics(regs[i]),
			PeerMetrics:    simnet.NewPeerMetrics(regs[i]),
		})
		if err != nil {
			t.Fatalf("player %d: NewDaemon: %v", i, err)
		}
		if i == 0 {
			d0 = d
		}
		wg.Add(1)
		go func(i int, d *Daemon) {
			defer wg.Done()
			errs[i] = d.Run(context.Background())
		}(i, d)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("player %d: %v", i, err)
		}
	}

	// Unpaced, so W = 32. Seed 24, threshold 6: the first round opens
	// [0,19); the refill then spends some of the last 5 seed coins, a round
	// opens what is left of the seed batch (if anything), and a last one
	// opens the new batch up to coin 30.
	rounds := 3
	if d0.gen.Stats().SeedSpent == 5 {
		rounds = 2
	}
	samples := scrapeRegistry(t, regs[0])
	for name, want := range map[string]float64{
		"beacond_coins_total":                   emit,
		"beacond_log_len":                       emit,
		"beacond_epoch":                         1, // seed 24, threshold 6: exactly one refill before coin 30
		"beacond_joined":                        1,
		"beacond_refilling":                     0,
		"beacond_emit_latency_seconds_count":    float64(rounds),
		"beacond_refills_total":                 1,
		"beacond_refill_duration_seconds_count": 1,
		"beacond_snapshot_seconds_count":        2, // after the refill, and at the emit target
	} {
		if v, ok := prom.Value(samples, name); !ok || v != want {
			t.Errorf("%s = %v, %v; want %v", name, v, ok, want)
		}
	}
	if v, ok := prom.Value(samples, "beacond_round"); !ok || v <= float64(rounds) {
		t.Errorf("beacond_round = %v, %v; want > %d (exposure + refill rounds)", v, ok, rounds)
	}
	if v, ok := prom.Value(samples, "beacond_join_attempts_total"); !ok || v < 1 {
		t.Errorf("join attempts = %v, %v; want ≥ 1", v, ok)
	}
	// The refill bumped the epoch to 1 and the daemon re-stamped the
	// transport, so post-refill done frames announced epoch 1 cluster-wide.
	for _, peer := range []string{"1", "3", "6"} {
		if v, ok := prom.Value(samples, "simnet_peer_epoch", "peer", peer); !ok || v != 1 {
			t.Errorf("simnet_peer_epoch{peer=%s} = %v, %v; want 1", peer, v, ok)
		}
	}
}

// TestServiceMetricsZeroAlloc pins the instrumentation cost contract: every
// per-event site — counter bumps on pre-resolved handles, the stamp/since
// pair around a histogram — allocates nothing, whether the bundle sits on a
// registry or not, and a bundle on no registry never reads the clock.
func TestServiceMetricsZeroAlloc(t *testing.T) {
	events := func(m *ServiceMetrics, d *DaemonMetrics) func() {
		return func() {
			t0 := m.stamp()
			m.Draws.Inc()
			m.Coins.Add(1)
			since(m.DrawLatency, t0)
			m.overloaded.Inc()
			m.Blocked.Add(3)
			m.pipelined.Inc()
			since(m.blockingDur, t0)
			d.JoinAttempts.Inc()
			d.observeEmit(0.01, 32, 1)
		}
	}
	off := NewServiceMetrics(nil)
	if allocs := testing.AllocsPerRun(1000, events(off, NewDaemonMetrics(nil))); allocs != 0 {
		t.Fatalf("unexported metrics path allocates %v per draw, want 0", allocs)
	}
	if !off.stamp().IsZero() || off.Draws.Value() == 0 {
		t.Fatal("a bundle on no registry must count without reading the clock")
	}
	on := NewServiceMetrics(prom.NewRegistry())
	if allocs := testing.AllocsPerRun(1000, events(on, NewDaemonMetrics(prom.NewRegistry()))); allocs != 0 {
		t.Fatalf("live metrics path allocates %v per draw, want 0", allocs)
	}
	if on.DrawLatency.Count() == 0 {
		t.Fatal("a bundle on a registry must time its draws")
	}
}
