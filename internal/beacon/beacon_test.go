package beacon

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/coin"
	"repro/internal/core"
	"repro/internal/gf2k"
	"repro/internal/metrics"
	"repro/internal/parallel"
)

var rndSalt atomic.Int64

// testRand returns a per-player deterministic randomness source. Each call
// for the same player yields a fresh stream (successive refills must not
// deal identical polynomials), which is why the salt counter is mixed in.
func testRand(base int64) func(int) io.Reader {
	return func(i int) io.Reader {
		return rand.New(rand.NewSource(base + int64(i)*1009 + rndSalt.Add(1)*1_000_003))
	}
}

func testConfig(tb testing.TB, batch, threshold, highWater int) Config {
	tb.Helper()
	f, err := gf2k.New(8)
	if err != nil {
		tb.Fatal(err)
	}
	return Config{
		Core: core.Config{
			Field: f, N: 7, T: 1,
			BatchSize: batch, Threshold: threshold, HighWater: highWater,
		},
		Rand: testRand(42),
	}
}

func mustClose(tb testing.TB, s *Service) {
	tb.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := s.Close(ctx); err != nil {
		tb.Fatalf("Close: %v", err)
	}
}

// TestDrawStream drains several batches' worth of coins through a pipelined
// service; every draw must succeed and the refill accounting must add up.
func TestDrawStream(t *testing.T) {
	s, err := New(testConfig(t, 24, 6, 16))
	if err != nil {
		t.Fatal(err)
	}
	defer mustClose(t, s)
	ctx := context.Background()
	const draws = 60
	for i := 0; i < draws; i++ {
		if _, err := s.Draw(ctx); err != nil {
			t.Fatalf("draw %d: %v", i, err)
		}
	}
	st := s.Stats()
	if st.CoinsDelivered != draws || st.Draws != draws {
		t.Fatalf("stats report %d coins / %d draws, want %d/%d",
			st.CoinsDelivered, st.Draws, draws, draws)
	}
	if st.Refills < 2 {
		t.Fatalf("draining %d coins from a %d-coin seed took only %d refills", draws, 24, st.Refills)
	}
	if st.Remaining < s.cfg.Core.Threshold {
		t.Fatalf("store left with %d coins, below threshold %d", st.Remaining, s.cfg.Core.Threshold)
	}
}

// TestServiceWithComputePool drives a full service with a caller-supplied
// compute pool. Correctness is checked by the executive itself — every sweep
// asserts cross-player unanimity, so a pool bug that desynced any player
// would fail the draw — and the counters must show the pool genuinely fanned
// out.
func TestServiceWithComputePool(t *testing.T) {
	var c metrics.Counters
	cfg := testConfig(t, 24, 6, 16)
	cfg.Core.Pool = parallel.New(4).WithCounters(&c)
	cfg.Counters = &c
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer mustClose(t, s)
	ctx := context.Background()
	const draws = 60 // forces several pipelined refills through the pool
	for i := 0; i < draws; i++ {
		if _, err := s.Draw(ctx); err != nil {
			t.Fatalf("draw %d with pool: %v", i, err)
		}
	}
	if st := s.Stats(); st.CoinsDelivered != draws {
		t.Fatalf("delivered %d coins, want %d", st.CoinsDelivered, draws)
	}
	if got := c.Snapshot().ParallelTasks; got == 0 {
		t.Fatal("ParallelTasks = 0: the pool was never engaged")
	}
}

// TestPipelinedNoBlocking is the in-package soak: paced clients drain three
// full batches while every refill runs ahead of demand — not one draw may
// wait on a Coin-Gen round.
func TestPipelinedNoBlocking(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test")
	}
	cfg := testConfig(t, 96, 8, 72)
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer mustClose(t, s)
	ctx := context.Background()
	// Pace the drain so the high-water headroom (72−8 = 64 coins) buys the
	// out-of-band mint far more wall-clock time than a Coin-Gen needs.
	const draws = 3 * 96
	for i := 0; i < draws; i++ {
		if _, err := s.Draw(ctx); err != nil {
			t.Fatalf("draw %d: %v", i, err)
		}
		time.Sleep(2 * time.Millisecond)
	}
	st := s.Stats()
	if st.BlockedDraws != 0 {
		t.Fatalf("%d draws blocked on a Coin-Gen round; pipeline failed to stay ahead", st.BlockedDraws)
	}
	if st.BlockingRefills != 0 {
		t.Fatalf("%d blocking refills despite the pipeline", st.BlockingRefills)
	}
	if st.PipelinedRefills < 3 {
		t.Fatalf("only %d pipelined refills after draining %d coins", st.PipelinedRefills, draws)
	}
}

// TestBlockingFallback disables the high-water mark; every refill is then
// started by a draw that waits for it, and coins keep coming.
func TestBlockingFallback(t *testing.T) {
	s, err := New(testConfig(t, 24, 6, 0))
	if err != nil {
		t.Fatal(err)
	}
	defer mustClose(t, s)
	ctx := context.Background()
	for i := 0; i < 40; i++ {
		if _, err := s.Draw(ctx); err != nil {
			t.Fatalf("draw %d: %v", i, err)
		}
	}
	st := s.Stats()
	if st.BlockingRefills < 1 {
		t.Fatalf("no blocking refills with the pipeline disabled (refills=%d)", st.Refills)
	}
	if st.PipelinedRefills != 0 {
		t.Fatalf("%d pipelined refills with HighWater=0", st.PipelinedRefills)
	}
	if st.BlockedDraws == 0 {
		t.Fatal("blocking refills must account their stalled draws in BlockedDraws")
	}
}

// callRand keys each player's randomness by that player's own call count,
// as cmd/beacongw's insecureCellRand does (testRand's salt is global): call
// k for a player is the same stream in every instance built from one seed,
// so two Services replay each other exactly if they ask in the same order.
func callRand(seed int64) func(int) io.Reader {
	var mu sync.Mutex
	calls := map[int]int64{}
	return func(i int) io.Reader {
		mu.Lock()
		calls[i]++
		k := calls[i]
		mu.Unlock()
		return rand.New(rand.NewSource(seed + int64(i)*1009 + k*1_000_003))
	}
}

// TestStreamIndependentOfHighWater is the property the single refill path
// buys: a Service's coin stream is a function of its dealer seed and Rand
// alone. The same script — single draws, batches narrower and wider than
// the high-water headroom, one wider than two whole batches, bit draws —
// must yield byte-identical (seq, value) replies whether every mint is
// started by a waiting draw (HighWater 0), by the high-water mark, or by a
// mix of both.
func TestStreamIndependentOfHighWater(t *testing.T) {
	script := []struct {
		kind byte // 'd' Draw, 'n' DrawN(n), 'b' DrawBits(n)
		n    int
	}{
		{'d', 0}, {'n', 40}, {'n', 85}, {'d', 0}, {'b', 100}, {'n', 200}, {'n', 40},
		{'d', 0}, {'d', 0}, {'d', 0}, {'n', 85}, {'b', 1000}, {'n', 46}, {'n', 40}, {'d', 0},
	}
	run := func(highWater int) ([]string, Stats) {
		cfg := testConfig(t, 96, 8, highWater)
		cfg.Rand = callRand(7)
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ctx := context.Background()
		var replies []string
		for i, st := range script {
			var reply string
			switch st.kind {
			case 'd':
				var v gf2k.Element
				v, err = s.Draw(ctx)
				reply = fmt.Sprint(v)
			case 'n':
				var vals []gf2k.Element
				var seq int64
				vals, seq, err = s.DrawN(ctx, st.n)
				reply = fmt.Sprint(seq, vals)
			case 'b':
				var bits []byte
				bits, err = s.DrawBits(ctx, st.n)
				reply = fmt.Sprintf("%x", bits)
			}
			if err != nil {
				t.Fatalf("HighWater %d, step %d: %v", highWater, i, err)
			}
			replies = append(replies, reply)
		}
		mustClose(t, s)
		return replies, s.Stats()
	}
	want, st0 := run(0)
	if st0.Refills < 4 || st0.BlockingRefills == 0 || st0.PipelinedRefills != 0 {
		t.Fatalf("HighWater 0: want ≥ 4 refills, all started by a waiting draw: %+v", st0)
	}
	for _, hw := range []int{48, 64} {
		got, st := run(hw)
		if st.Refills < 4 || st.PipelinedRefills == 0 {
			t.Errorf("HighWater %d: want ≥ 4 refills, some ahead of demand: %+v", hw, st)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("HighWater %d diverges from HighWater 0 at step %d:\n got %s\nwant %s", hw, i, got[i], want[i])
			}
		}
	}
}

// TestResumeBelowReserve: a store restored with fewer coins than the seed
// reserve (but the ≥ 2 a Coin-Gen needs) funds its first mint with all it
// has and serves on.
func TestResumeBelowReserve(t *testing.T) {
	cfg := testConfig(t, 24, 6, 16)
	batches, _, err := coin.DealTrusted(cfg.Core.Field, cfg.Core.N, cfg.Core.T, 3, cfg.Rand(0))
	if err != nil {
		t.Fatal(err)
	}
	stores := make([]*coin.Store, cfg.Core.N)
	for i, b := range batches {
		stores[i] = &coin.Store{}
		if err := stores[i].Add(b); err != nil {
			t.Fatal(err)
		}
	}
	s, err := Resume(cfg, stores)
	if err != nil {
		t.Fatal(err)
	}
	defer mustClose(t, s)
	if _, _, err := s.DrawN(context.Background(), 10); err != nil {
		t.Fatalf("draw on a 3-coin restored store: %v", err)
	}
	if st := s.Stats(); st.Refills < 1 || st.CoinsDelivered != 10 {
		t.Fatalf("restored store did not refill and serve: %+v", st)
	}
}

// gatedReader blocks reads on the shared gate channel once armed — it
// freezes Coin-Gen's polynomial dealing at a deterministic point so tests
// can observe the service mid-refill. Unarmed (during trusted setup) it
// passes straight through; the reads counter reports how many reads have
// reached the gate.
type gatedReader struct {
	armed *atomic.Bool
	gate  <-chan struct{}
	reads *atomic.Int64
	r     io.Reader
}

func (g *gatedReader) Read(p []byte) (int, error) {
	if g.armed.Load() {
		g.reads.Add(1)
		<-g.gate
	}
	return g.r.Read(p)
}

// TestBackpressure fills the bounded queue while the executive is pinned
// waiting on a refill a draw had to start and checks the overflow request
// is rejected with ErrOverloaded — then releases the refill and checks the
// queued requests complete.
func TestBackpressure(t *testing.T) {
	gate := make(chan struct{})
	var armed atomic.Bool
	var reads atomic.Int64
	cfg := testConfig(t, 24, 6, 0)
	cfg.SeedCoins = 8
	cfg.QueueDepth = 1
	base := cfg.Rand
	cfg.Rand = func(i int) io.Reader {
		return &gatedReader{armed: &armed, gate: gate, reads: &reads, r: base(i)}
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer mustClose(t, s)
	ctx := context.Background()
	// Exposing coins reads no randomness, so the first two draws run free
	// and drop the store to the threshold.
	for i := 0; i < 2; i++ {
		if _, err := s.Draw(ctx); err != nil {
			t.Fatalf("draw %d: %v", i, err)
		}
	}
	armed.Store(true)
	// The third draw has to start a refill, which parks the minting players
	// on the gated reader with the executive waiting on them. Once one has
	// reached the gate the executive is committed to the refill and can no
	// longer drain the queue.
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); s.Draw(ctx) }() //nolint:errcheck
	waitFor(t, func() bool { return reads.Load() > 0 })
	// Queue capacity is 1: park one more request in the buffer…
	go func() { defer wg.Done(); s.Draw(ctx) }() //nolint:errcheck
	waitFor(t, func() bool { return s.Stats().QueueDepth == 1 })
	// …and the next must bounce immediately.
	if _, err := s.Draw(ctx); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("draw on a full queue: err=%v, want ErrOverloaded", err)
	}
	if st := s.Stats(); st.Overloaded != 1 {
		t.Fatalf("Overloaded=%d, want 1", st.Overloaded)
	}
	close(gate) // release the refill; the parked draws must now complete
	wg.Wait()
	if st := s.Stats(); st.CoinsDelivered != 4 {
		t.Fatalf("CoinsDelivered=%d after the gate opened, want 4", st.CoinsDelivered)
	}
}

func waitFor(tb testing.TB, cond func() bool) {
	tb.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			tb.Fatal("condition not reached within 10s")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestTokenBucket unit-tests the limiter against a fake clock.
func TestTokenBucket(t *testing.T) {
	now := time.Unix(0, 0)
	tb := NewTokenBucket(10, 2, func() time.Time { return now }) // 10 tokens/s, burst 2
	if !tb.Allow() || !tb.Allow() {
		t.Fatal("burst tokens rejected")
	}
	if tb.Allow() {
		t.Fatal("empty bucket allowed a request")
	}
	now = now.Add(100 * time.Millisecond) // exactly one token refilled
	if !tb.Allow() {
		t.Fatal("refilled token rejected")
	}
	if tb.Allow() {
		t.Fatal("second request on one token allowed")
	}
	now = now.Add(time.Hour) // refill far beyond capacity
	if !tb.Allow() || !tb.Allow() {
		t.Fatal("bucket did not refill to burst")
	}
	if tb.Allow() {
		t.Fatal("bucket exceeded burst capacity")
	}
}

// TestContextCancellation: a pre-cancelled context must abort the draw.
func TestContextCancellation(t *testing.T) {
	s, err := New(testConfig(t, 24, 6, 0))
	if err != nil {
		t.Fatal(err)
	}
	defer mustClose(t, s)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.Draw(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("draw with cancelled context: err=%v, want context.Canceled", err)
	}
}

// TestDrawBits checks packing: nbits random bits LSB-first, unused high
// bits zero, argument validation.
func TestDrawBits(t *testing.T) {
	s, err := New(testConfig(t, 24, 6, 0))
	if err != nil {
		t.Fatal(err)
	}
	defer mustClose(t, s)
	ctx := context.Background()
	out, err := s.DrawBits(ctx, 20)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 3 {
		t.Fatalf("20 bits packed into %d bytes, want 3", len(out))
	}
	if out[2]&0xF0 != 0 {
		t.Fatalf("unused high bits of last byte not zero: %#x", out[2])
	}
	for _, bad := range []int{0, -1, MaxDrawBits + 1} {
		if _, err := s.DrawBits(ctx, bad); err == nil {
			t.Fatalf("DrawBits(%d) accepted", bad)
		}
	}
}

// TestDrawMod checks the 1-based range and argument validation.
func TestDrawMod(t *testing.T) {
	s, err := New(testConfig(t, 64, 6, 0))
	if err != nil {
		t.Fatal(err)
	}
	defer mustClose(t, s)
	ctx := context.Background()
	for i := 0; i < 30; i++ {
		l, err := s.DrawMod(ctx, 7)
		if err != nil {
			t.Fatal(err)
		}
		if l < 1 || l > 7 {
			t.Fatalf("DrawMod(7) = %d outside [1,7]", l)
		}
	}
	if _, err := s.DrawMod(ctx, 0); err == nil {
		t.Fatal("DrawMod(0) accepted")
	}
}

// TestPersistResume is the §1.2 restart story: shut the beacon down, write
// every player's store, load it back, and keep serving — the trusted dealer
// must never be involved again.
func TestPersistResume(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig(t, 24, 6, 16)
	s1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for i := 0; i < 30; i++ { // crosses at least one refill
		if _, err := s1.Draw(ctx); err != nil {
			t.Fatalf("session 1 draw %d: %v", i, err)
		}
	}
	if err := s1.Persist(dir); err == nil {
		t.Fatal("Persist on a live service accepted")
	}
	mustClose(t, s1)
	if err := s1.Persist(dir); err != nil {
		t.Fatalf("Persist: %v", err)
	}
	left := s1.Stats().Remaining
	if got, err := StoredPlayers(dir); got != cfg.Core.N || err != nil {
		t.Fatalf("StoredPlayers = %d, %v after Persist; want %d", got, err, cfg.Core.N)
	}
	if _, err := s1.Draw(ctx); !errors.Is(err, ErrClosed) {
		t.Fatal("draw after Close must report ErrClosed")
	}

	stores, err := LoadStores(dir, cfg.Core.N)
	if err != nil {
		t.Fatalf("LoadStores: %v", err)
	}
	s2, err := Resume(cfg, stores)
	if err != nil {
		t.Fatalf("Resume: %v", err)
	}
	defer mustClose(t, s2)
	// The loaded files are spent: retired before the first draw, a second
	// retirement finds nothing to remove.
	if err := RemoveStores(dir, cfg.Core.N); err != nil {
		t.Fatalf("RemoveStores: %v", err)
	}
	if got, err := StoredPlayers(dir); got != 0 || err != nil {
		t.Fatalf("StoredPlayers = %d, %v after RemoveStores; want 0", got, err)
	}
	if err := RemoveStores(dir, cfg.Core.N); err == nil {
		t.Fatal("RemoveStores on an emptied directory accepted")
	}
	if !s2.Stats().Resumed {
		t.Fatal("resumed service does not report Resumed")
	}
	if got := s2.Stats().Remaining; got != left {
		t.Fatalf("resumed store holds %d coins, persisted %d", got, left)
	}
	for i := 0; i < 30; i++ { // refills again, funded purely by the restored seed
		if _, err := s2.Draw(ctx); err != nil {
			t.Fatalf("session 2 draw %d: %v", i, err)
		}
	}
	if s2.Stats().Refills < 1 {
		t.Fatal("resumed service never refilled; not self-sufficient")
	}
}

// TestResumeValidation: mismatched store count must be rejected.
func TestResumeValidation(t *testing.T) {
	cfg := testConfig(t, 24, 6, 0)
	if _, err := Resume(cfg, nil); err == nil {
		t.Fatal("Resume with no stores accepted")
	}
}

// TestLoadStoresMissing: a fresh state directory distinguishes itself via
// os.ErrNotExist.
func TestLoadStoresMissing(t *testing.T) {
	dir := t.TempDir()
	for _, d := range []string{dir, filepath.Join(dir, "never-created")} {
		if got, err := StoredPlayers(d); got != 0 || err != nil {
			t.Fatalf("StoredPlayers(%s) = %d, %v; want 0", d, got, err)
		}
	}
	if _, err := LoadStores(dir, 7); err == nil {
		t.Fatal("LoadStores on an empty directory accepted")
	}
}

// TestConfigValidate covers the service-level configuration checks.
func TestConfigValidate(t *testing.T) {
	valid := testConfig(t, 24, 6, 16)
	cases := []struct {
		name string
		mut  func(*Config)
		ok   bool
	}{
		{"valid", func(*Config) {}, true},
		{"zero field", func(c *Config) { c.Core.Field = gf2k.Field{} }, false},
		{"threshold (= seed reserve) below a refill's own cost", func(c *Config) { c.Core.Threshold = 1 }, false},
		{"high water below threshold", func(c *Config) { c.Core.HighWater = 3 }, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := valid
			tc.mut(&cfg)
			err := cfg.Validate()
			if tc.ok && err != nil {
				t.Fatalf("unexpected error: %v", err)
			}
			if !tc.ok && err == nil {
				t.Fatal("invalid config accepted")
			}
		})
	}
}

// TestStatsCounters: with Counters attached, serving draws must account
// protocol traffic.
func TestStatsCounters(t *testing.T) {
	cfg := testConfig(t, 24, 6, 0)
	cfg.Counters = &metrics.Counters{}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer mustClose(t, s)
	if _, err := s.Draw(context.Background()); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Counters.Messages == 0 {
		t.Fatal("no protocol messages accounted after a draw")
	}
}

// TestConcurrentDraws hammers the service from many goroutines; with a
// deep queue and no limiter every draw must succeed and deliver exactly
// one coin each.
func TestConcurrentDraws(t *testing.T) {
	cfg := testConfig(t, 48, 6, 32)
	cfg.QueueDepth = 128
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer mustClose(t, s)
	const clients, each = 8, 12
	var wg sync.WaitGroup
	errs := make(chan error, clients*each)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if _, err := s.Draw(context.Background()); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("concurrent draw failed: %v", err)
	}
	if st := s.Stats(); st.CoinsDelivered != clients*each {
		t.Fatalf("CoinsDelivered=%d, want %d", st.CoinsDelivered, clients*each)
	}
}
