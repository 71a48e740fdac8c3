package multicell

import (
	"context"
	"errors"
	"io"
	"math/rand"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/beacon"
	"repro/internal/core"
	"repro/internal/gf2k"
	"repro/internal/obs/prom"
)

// newCellRand returns a fresh domain-separated deterministic randomness
// factory: streams are keyed by (seed, cell, player, per-(cell,player)
// call count). The counter MUST be per (cell, player), not per cell: a
// refill asks every player for randomness and the players' calls are
// goroutine-ordered, so a shared per-cell counter would hand out seeds by
// arrival order and break reproducibility (-race surfaces this). Per pair,
// call k always means the same thing — k=1 the dealer seed, k=j+1 refill j
// — no matter how calls interleave across players or cells. Each factory
// instance owns its own counters, so a reference run built from a second
// instance with the same seed replays cell i's exact streams.
func newCellRand(seed int64, cells int) func(cell, player int) io.Reader {
	var mu sync.Mutex
	calls := make(map[[2]int]int64)
	return func(cell, player int) io.Reader {
		mu.Lock()
		calls[[2]int{cell, player}]++
		k := calls[[2]int{cell, player}]
		mu.Unlock()
		return rand.New(rand.NewSource(seed +
			int64(cell)*7_777_777 +
			int64(player)*1009 +
			k*1_000_003))
	}
}

// testClusterConfig is the shared small-field cluster: GF(2^8), n=7, t=1
// cells with a high-water mark deep enough that mints start ahead of demand.
func testClusterConfig(tb testing.TB, cells int) Config {
	tb.Helper()
	f, err := gf2k.New(8)
	if err != nil {
		tb.Fatal(err)
	}
	return Config{
		Cells: cells,
		Cell: beacon.Config{
			Core: core.Config{
				Field: f, N: 7, T: 1,
				BatchSize: 96, Threshold: 8, HighWater: 64,
			},
			QueueDepth: 1024,
		},
		CellRand: newCellRand(42, cells),
	}
}

func mustCloseCluster(tb testing.TB, cl *Cluster) {
	tb.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	if err := cl.Close(ctx); err != nil {
		tb.Fatalf("Close: %v", err)
	}
}

// streamRecorder collects every routed coin by (cell, seq) and detects
// conflicting values for the same position.
type streamRecorder struct {
	mu    sync.Mutex
	cells map[int]map[int64]gf2k.Element
}

func newStreamRecorder() *streamRecorder {
	return &streamRecorder{cells: map[int]map[int64]gf2k.Element{}}
}

func (r *streamRecorder) record(tb testing.TB, b Batch) {
	tb.Helper()
	r.mu.Lock()
	defer r.mu.Unlock()
	m := r.cells[b.Cell]
	if m == nil {
		m = map[int64]gf2k.Element{}
		r.cells[b.Cell] = m
	}
	for i, v := range b.Vals {
		seq := b.Seq + int64(i)
		if prev, ok := m[seq]; ok && prev != v {
			tb.Errorf("cell %d seq %d served twice with different values: %v then %v", b.Cell, seq, prev, v)
		}
		m[seq] = v
	}
}

// verifyAgainstReference replays cell `cell`'s stream on a standalone
// single-cell beacon.Service seeded identically and asserts every recorded
// (seq, value) matches — the "no cross-cell state leakage" conformance
// check: a multi-cell cluster's cell i must be byte-identical to a lone
// Service with cell i's seed, coin for coin.
func (r *streamRecorder) verifyAgainstReference(t *testing.T, cfg Config, cell int) {
	t.Helper()
	r.mu.Lock()
	got := r.cells[cell]
	r.mu.Unlock()
	if len(got) == 0 {
		return
	}
	var max int64 = -1
	for seq := range got {
		if seq > max {
			max = seq
		}
	}
	refRand := newCellRand(42, cfg.Cells)
	refCfg := cfg.Cell
	refCfg.Rand = func(player int) io.Reader { return refRand(cell, player) }
	ref, err := beacon.New(refCfg)
	if err != nil {
		t.Fatalf("reference service for cell %d: %v", cell, err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		if err := ref.Close(ctx); err != nil {
			t.Fatalf("close reference: %v", err)
		}
	}()
	ctx := context.Background()
	stream := make([]gf2k.Element, 0, max+1)
	for int64(len(stream)) <= max {
		n := int(max) + 1 - len(stream)
		if n > beacon.MaxDrawBatch {
			n = beacon.MaxDrawBatch
		}
		vals, seq, err := ref.DrawN(ctx, n)
		if err != nil {
			t.Fatalf("reference draw: %v", err)
		}
		if seq != int64(len(stream)) {
			t.Fatalf("reference stream position %d, want %d", seq, len(stream))
		}
		stream = append(stream, vals...)
	}
	mismatches := 0
	for seq, v := range got {
		if stream[seq] != v {
			mismatches++
			if mismatches <= 5 {
				t.Errorf("cell %d seq %d: cluster served %v, reference stream has %v", cell, seq, v, stream[seq])
			}
		}
	}
	if mismatches > 0 {
		t.Fatalf("cell %d: %d/%d coins diverge from the single-cell reference", cell, mismatches, len(got))
	}
}

// TestCellStreamsMatchSingleCellReference is the acceptance conformance
// test: drive a cluster across several refills per cell, then replay every
// cell's recorded stream against a standalone Service with the same
// domain-separated seed. Any cross-cell state leakage — shared store,
// shared randomness, a coin served under the wrong cell label — shows up as
// a value mismatch, and so does a stream that depends on when a cell's
// mints start: the reference is drawn in MaxDrawBatch-wide requests, the
// cluster never is.
func TestCellStreamsMatchSingleCellReference(t *testing.T) {
	ctx := context.Background()
	for _, tc := range []struct {
		name      string
		cells     int
		highWater int
		load      func(t *testing.T, cl *Cluster, rec *streamRecorder)
	}{
		// Concurrent mixed-tenant traffic in small batches.
		{"hammer", 3, 64, func(t *testing.T, cl *Cluster, rec *streamRecorder) {
			var wg sync.WaitGroup
			tenants := []string{"", "alice", "bob", "carol", "dave", ""}
			const drawsPerClient = 60
			for g := 0; g < 8; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for i := 0; i < drawsPerClient; i++ {
						n := 1 + (g+i)%4
						b, err := cl.DrawN(ctx, tenants[g%len(tenants)], n)
						if err != nil {
							t.Errorf("client %d draw %d: %v", g, i, err)
							return
						}
						rec.record(t, b)
					}
				}(g)
			}
			wg.Wait()
		}},
		// Two sweeps wider than a shallow high-water mark's headroom drain
		// the store to within a seed of empty before any mint has started.
		{"wide sweeps", 1, 48, func(t *testing.T, cl *Cluster, rec *streamRecorder) {
			for i, n := range []int{46, 40, 1, 1, 1, 85, 6} {
				b, err := cl.DrawN(ctx, "", n)
				if err != nil {
					t.Fatalf("draw %d: %v", i, err)
				}
				rec.record(t, b)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := testClusterConfig(t, tc.cells)
			cfg.Cell.Core.HighWater = tc.highWater
			cl, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			rec := newStreamRecorder()
			tc.load(t, cl, rec)
			for _, st := range cl.CellStats() {
				if st.Down {
					t.Fatalf("cell %d marked down during a benign run", st.Cell)
				}
			}
			mustCloseCluster(t, cl)
			for cell := 0; cell < tc.cells; cell++ {
				rec.verifyAgainstReference(t, cfg, cell)
			}
		})
	}
}

// TestDrawNContiguity pins the DrawN contract: one batch = contiguous
// sequence numbers on one cell, and a tenant's successive draws stay on
// its home cell while that cell is healthy.
func TestDrawNContiguity(t *testing.T) {
	cfg := testClusterConfig(t, 2)
	cl, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer mustCloseCluster(t, cl)
	ctx := context.Background()
	home := -1
	next := int64(-1)
	for i := 0; i < 10; i++ {
		b, err := cl.DrawN(ctx, "tenant-x", 5)
		if err != nil {
			t.Fatal(err)
		}
		if len(b.Vals) != 5 {
			t.Fatalf("draw %d returned %d coins, want 5", i, len(b.Vals))
		}
		if home == -1 {
			home = b.Cell
		} else if b.Cell != home {
			t.Fatalf("tenant moved from healthy home cell %d to %d", home, b.Cell)
		}
		if next >= 0 && b.Seq != next {
			t.Fatalf("draw %d starts at seq %d, want %d (batches must be contiguous for a solo client)", i, b.Seq, next)
		}
		next = b.Seq + 5
	}
	if home != cl.ring.Lookup("tenant-x") {
		t.Fatalf("tenant served by cell %d, ring maps it to %d", home, cl.ring.Lookup("tenant-x"))
	}
}

// TestDrawNValidation: a bad batch size must be rejected at the router
// without poisoning any cell's health.
func TestDrawNValidation(t *testing.T) {
	cfg := testClusterConfig(t, 2)
	cl, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer mustCloseCluster(t, cl)
	ctx := context.Background()
	for _, n := range []int{0, -1, beacon.MaxDrawBatch + 1} {
		if _, err := cl.DrawN(ctx, "t", n); err == nil {
			t.Fatalf("DrawN(%d) accepted", n)
		}
	}
	if st := cl.RouterStats(); st.CellsDown != 0 {
		t.Fatalf("validation errors marked %d cells down", st.CellsDown)
	}
	if _, err := cl.Draw(ctx, "t"); err != nil {
		t.Fatalf("draw after validation errors: %v", err)
	}
}

// TestConfigValidate covers the router-level configuration contract.
func TestConfigValidate(t *testing.T) {
	base := func(tb testing.TB) Config { return testClusterConfig(tb, 2) }
	cases := []struct {
		name string
		mod  func(*Config)
		ok   bool
	}{
		{"valid", func(*Config) {}, true},
		{"zero cells", func(c *Config) { c.Cells = 0 }, false},
		{"cell rand set directly", func(c *Config) { c.Cell.Rand = func(int) io.Reader { return rand.New(rand.NewSource(1)) } }, false},
		{"cell metrics set directly", func(c *Config) { c.Cell.Metrics = beacon.NewServiceMetrics(nil) }, false},
		{"negative tenant rate", func(c *Config) { c.TenantRate = -1 }, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := base(t)
			tc.mod(&cfg)
			err := cfg.Validate()
			if tc.ok && err != nil {
				t.Fatalf("unexpected error: %v", err)
			}
			if !tc.ok && err == nil {
				t.Fatal("config accepted")
			}
		})
	}
}

// TestCellDownDraining kills one cell under concurrent load. Every
// in-flight draw must either complete with a verifiable (cell, seq, value)
// position or fail with a documented overload error — never hang, never
// return a coin attributed to the wrong cell (the post-run reference
// replay would catch that), and once the router notices, every subsequent
// draw lands on the surviving cells.
func TestCellDownDraining(t *testing.T) {
	const cells = 2
	cfg := testClusterConfig(t, cells)
	cl, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rec := newStreamRecorder()
	ctx := context.Background()
	victim := cl.ring.Lookup("tenant-a") // the cell tenant-a's draws home to

	var wg sync.WaitGroup
	var killed atomic.Bool
	var afterKillOnVictim atomic.Int64
	var served, degraded atomic.Int64
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			tenant := []string{"tenant-a", "tenant-b", ""}[g%3]
			for i := 0; i < 50; i++ {
				b, err := cl.DrawN(ctx, tenant, 2)
				switch {
				case err == nil:
					served.Add(1)
					rec.record(t, b)
					if killed.Load() && b.Cell == victim {
						afterKillOnVictim.Add(1)
					}
				case errors.Is(err, ErrSaturated), errors.Is(err, beacon.ErrOverloaded), errors.Is(err, ErrAllCellsDown):
					degraded.Add(1)
				default:
					t.Errorf("client %d: unexpected error class: %v", g, err)
					return
				}
			}
		}(g)
	}
	// Let the load ramp, then kill the victim cell mid-flight.
	time.Sleep(20 * time.Millisecond)
	killCtx, cancel := context.WithTimeout(ctx, 60*time.Second)
	defer cancel()
	if err := cl.CloseCell(killCtx, victim); err != nil {
		t.Fatalf("CloseCell: %v", err)
	}
	killed.Store(true)
	wg.Wait()

	if served.Load() == 0 {
		t.Fatal("no draw succeeded at all")
	}
	// Draws already in the victim's queue when CloseCell fired are drained
	// by the cell's graceful close — those may complete after the kill flag
	// flips, and the reference replay below proves each one is a genuine
	// position in the victim's stream. Anything beyond a queue's worth
	// would mean routing kept sending new draws to a down cell.
	if n := afterKillOnVictim.Load(); n > int64(cfg.Cell.QueueDepth) {
		t.Fatalf("%d draws served by the killed cell after CloseCell — more than could have been in-flight", n)
	}
	st := cl.RouterStats()
	if st.CellsDown != 1 {
		t.Fatalf("router reports %d cells down, want 1", st.CellsDown)
	}
	// Survivor must still serve, and tenant-a's draws must now shed there.
	b, err := cl.DrawN(ctx, "tenant-a", 1)
	if err != nil {
		t.Fatalf("draw after kill: %v", err)
	}
	if b.Cell == victim {
		t.Fatalf("draw after kill served by the dead cell %d", victim)
	}
	rec.record(t, b)
	mustCloseCluster(t, cl)
	// The decisive wrong-cell check: every recorded coin, including those
	// racing the kill, must sit at its exact position in its cell's
	// reference stream.
	for cell := 0; cell < cells; cell++ {
		rec.verifyAgainstReference(t, cfg, cell)
	}
}

// TestTenantIsolation runs a hostile tenant and a polite tenant
// concurrently under -race: the hostile tenant must exhaust its own token
// bucket, and only its own.
func TestTenantIsolation(t *testing.T) {
	cfg := testClusterConfig(t, 2)
	now := time.Now()
	cfg.now = func() time.Time { return now } // frozen clock: buckets never refill
	cfg.TenantRate = 1
	cfg.TenantBurst = 25
	cl, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer mustCloseCluster(t, cl)
	ctx := context.Background()

	var wg sync.WaitGroup
	var hostileOK, hostileLimited, politeFail atomic.Int64
	wg.Add(2)
	go func() { // hostile: 4× its budget
		defer wg.Done()
		for i := 0; i < 100; i++ {
			_, err := cl.Draw(ctx, "hostile")
			switch {
			case err == nil:
				hostileOK.Add(1)
			case errors.Is(err, ErrRateLimited):
				hostileLimited.Add(1)
			default:
				t.Errorf("hostile: %v", err)
			}
		}
	}()
	go func() { // polite: exactly its budget, concurrently
		defer wg.Done()
		for i := 0; i < 25; i++ {
			if _, err := cl.Draw(ctx, "polite"); err != nil {
				politeFail.Add(1)
				t.Errorf("polite draw %d rejected: %v", i, err)
			}
		}
	}()
	wg.Wait()
	if hostileOK.Load() != 25 || hostileLimited.Load() != 75 {
		t.Fatalf("hostile tenant: %d served / %d limited, want 25/75", hostileOK.Load(), hostileLimited.Load())
	}
	if politeFail.Load() != 0 {
		t.Fatalf("polite tenant saw %d rejections while hostile tenant was being limited", politeFail.Load())
	}
	if rl := cl.RouterStats().RateLimited; rl != 75 {
		t.Fatalf("router counted %d rate-limited draws, want 75", rl)
	}
}

// TestStreamQuota: a tenant at its stream cap is rejected; another tenant
// and the same tenant after release are admitted.
func TestStreamQuota(t *testing.T) {
	cfg := testClusterConfig(t, 2)
	cfg.MaxStreamsPerTenant = 1
	cl, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer mustCloseCluster(t, cl)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	started := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		first := true
		done <- cl.Stream(ctx, "alice", 0, func(Coin) error {
			if first {
				first = false
				close(started)
			}
			return nil
		})
	}()
	<-started
	if err := cl.Stream(ctx, "alice", 1, func(Coin) error { return nil }); !errors.Is(err, ErrStreamQuota) {
		t.Fatalf("second alice stream: %v, want ErrStreamQuota", err)
	}
	if err := cl.Stream(ctx, "bob", 3, func(Coin) error { return nil }); err != nil {
		t.Fatalf("bob's stream rejected while alice streams: %v", err)
	}
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("alice stream ended with %v, want context.Canceled", err)
	}
	if err := cl.Stream(context.Background(), "alice", 2, func(Coin) error { return nil }); err != nil {
		t.Fatalf("alice stream after release: %v", err)
	}
}

// TestStreamSequences: a bounded stream delivers coins with per-cell
// monotonically increasing sequence numbers, contiguous for a solo client.
func TestStreamSequences(t *testing.T) {
	cfg := testClusterConfig(t, 3)
	cl, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer mustCloseCluster(t, cl)
	var coins []Coin
	if err := cl.Stream(context.Background(), "streamer", 12, func(c Coin) error {
		coins = append(coins, c)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(coins) != 12 {
		t.Fatalf("stream delivered %d coins, want 12", len(coins))
	}
	home := cl.ring.Lookup("streamer")
	for i, c := range coins {
		if c.Cell != home {
			t.Fatalf("coin %d from cell %d, want home cell %d", i, c.Cell, home)
		}
		if c.Seq != int64(i) {
			t.Fatalf("coin %d has seq %d, want %d", i, c.Seq, i)
		}
	}
	if got := cl.RouterStats().StreamsActive; got != 0 {
		t.Fatalf("streams active after completion: %d", got)
	}
}

// TestAllCellsDown: with every cell closed, draws fail with
// ErrAllCellsDown (the 503, not the retryable 429).
func TestAllCellsDown(t *testing.T) {
	cfg := testClusterConfig(t, 2)
	cl, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for i := 0; i < 2; i++ {
		if err := cl.CloseCell(ctx, i); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := cl.Draw(ctx, "t"); !errors.Is(err, ErrAllCellsDown) {
		t.Fatalf("draw with all cells down: %v, want ErrAllCellsDown", err)
	}
	mustCloseCluster(t, cl)
	if _, err := cl.Draw(ctx, "t"); !errors.Is(err, ErrClosed) {
		t.Fatalf("draw after Close: %v, want ErrClosed", err)
	}
}

// TestStatsAgreeWithMetrics drives a mixed load through the router — hash
// and round-robin draws, a rate-limited tenant, a refused stream, a draw
// shed off a dead home cell, a draw with every cell down — and checks that
// CellStats(), RouterStats() and the exposition report the same number for
// every event: each is counted once, and the three are renderings of it.
func TestStatsAgreeWithMetrics(t *testing.T) {
	reg := prom.NewRegistry()
	cfg := testClusterConfig(t, 2)
	cfg.Metrics = NewMetrics(reg)
	now := time.Now()
	cfg.now = func() time.Time { return now } // frozen clock: buckets never refill
	cfg.TenantRate, cfg.TenantBurst, cfg.MaxStreamsPerTenant = 1, 3, 1
	cl, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for i := 0; i < 4; i++ { // three hash-routed draws, then the bucket is dry
		if _, err := cl.Draw(ctx, "alice"); (err != nil) != (i == 3) || (i == 3 && !errors.Is(err, ErrRateLimited)) {
			t.Fatalf("alice draw %d: %v", i, err)
		}
	}
	for i := 0; i < 2; i++ { // anonymous batches go round-robin, one per cell
		if _, err := cl.DrawN(ctx, "", 5); err != nil {
			t.Fatal(err)
		}
	}
	err = cl.Stream(ctx, "bob", 1, func(Coin) error { // a stream inside bob's only stream slot
		return cl.Stream(ctx, "bob", 1, func(Coin) error { return nil })
	})
	if !errors.Is(err, ErrStreamQuota) {
		t.Fatalf("nested stream: %v, want ErrStreamQuota", err)
	}
	home := cl.ring.Lookup("carol")
	if err := cl.CloseCell(ctx, home); err != nil {
		t.Fatal(err)
	}
	if b, err := cl.DrawN(ctx, "carol", 2); err != nil || b.Cell == home {
		t.Fatalf("draw off a dead home cell: served by %d, %v", b.Cell, err)
	}
	if err := cl.CloseCell(ctx, 1-home); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Draw(ctx, "carol"); !errors.Is(err, ErrAllCellsDown) {
		t.Fatalf("draw with all cells down: %v", err)
	}
	mustCloseCluster(t, cl)

	cells, router := cl.CellStats(), cl.RouterStats()
	var hash, rr, shed, away int64
	for _, c := range cells {
		hash, rr, shed, away = hash+c.RoutedHash, rr+c.RoutedRR, shed+c.RoutedShed, away+c.ShedAway
	}
	if hash != 4 || rr != 2 || shed != 1 || away != 1 || cells[home].ShedAway != 1 ||
		router.RateLimited != 1 || router.StreamQuota != 1 || router.CellsDown != 2 {
		t.Fatalf("load was not the intended mix: %+v %+v", cells, router)
	}
	cfg.Metrics.Refresh(cl)
	var sb strings.Builder
	if err := reg.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	samples, err := prom.ParseText(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	check := func(stat int64, name string, kv ...string) {
		t.Helper()
		if v, ok := prom.Value(samples, name, kv...); !ok || v != float64(stat) {
			t.Errorf("%s%v = %v, %v; the stats say %d", name, kv, v, ok, stat)
		}
	}
	for _, c := range cells {
		id := strconv.Itoa(c.Cell)
		check(c.RoutedHash, "multicell_routed_draws_total", "cell", id, "route", "hash")
		check(c.RoutedRR, "multicell_routed_draws_total", "cell", id, "route", "rr")
		check(c.RoutedShed, "multicell_routed_draws_total", "cell", id, "route", "shed")
		check(c.ShedAway, "multicell_shed_total", "cell", id)
		// The cell's own Service families, installed by New under {cell}.
		check(c.Draws, "beacon_draws_total", "cell", id)
		check(c.Draws, "beacon_draw_latency_seconds_count", "cell", id)
		check(c.Coins, "beacon_coins_delivered_total", "cell", id)
		check(c.BlockedDraws, "beacon_blocked_draws_total", "cell", id)
		check(int64(c.Remaining), "beacon_store_remaining", "cell", id)
		check(int64(c.QueueDepth), "beacon_queue_depth", "cell", id)
		check(1, "beacon_cell_down", "cell", id)
		check(int64(c.RefillLag), "beacon_cell_refill_lag", "cell", id)
		if c.Draws != c.RoutedHash+c.RoutedRR+c.RoutedShed {
			t.Errorf("cell %d served %d draws but the router routed %d to it", c.Cell, c.Draws, c.RoutedHash+c.RoutedRR+c.RoutedShed)
		}
	}
	check(router.RateLimited, "multicell_rejected_total", "reason", "rate-limited")
	check(router.StreamQuota, "multicell_rejected_total", "reason", "stream-quota")
	check(router.Saturated, "multicell_rejected_total", "reason", "saturated")
	check(1, "multicell_rejected_total", "reason", "down")
}
