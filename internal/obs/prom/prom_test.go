package prom

import (
	"math"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

func TestCounterAndGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("requests_total", "Total requests.")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	g := r.Gauge("depth", "Queue depth.")
	g.Set(7)
	g.Add(-2.5)
	if got := g.Value(); got != 4.5 {
		t.Fatalf("gauge = %v, want 4.5", got)
	}
	g.SetInt(3)
	if got := g.Value(); got != 3 {
		t.Fatalf("gauge = %v, want 3", got)
	}
}

func TestVecChildrenAreCachedAndShared(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("hits_total", "Hits.", "peer")
	a1 := v.With("1")
	a2 := v.With("1")
	if a1 != a2 {
		t.Fatal("With should return the same child for the same labels")
	}
	a1.Inc()
	if a2.Value() != 1 {
		t.Fatal("children with identical labels must share state")
	}
	// Re-registering the same family returns the same children.
	v2 := r.CounterVec("hits_total", "Hits.", "peer")
	if v2.With("1") != a1 {
		t.Fatal("re-registered family must share children")
	}
}

func TestReRegisterShapeMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("m", "")
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on shape mismatch")
		}
	}()
	r.Gauge("m", "")
}

// TestHistogramBucketBoundaries pins the le-inclusive semantics: an
// observation exactly on a bucket's upper bound lands in that bucket.
func TestHistogramBucketBoundaries(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", "", []float64{1, 2, 5})
	for _, v := range []float64{0.5, 1, 1.0000001, 2, 5, 5.1, 100} {
		h.Observe(v)
	}
	cum, count, sum := h.snapshot()
	// buckets: ≤1 gets {0.5, 1}; ≤2 adds {1.0000001, 2}; ≤5 adds {5}; +Inf adds {5.1, 100}
	want := []uint64{2, 4, 5, 7}
	for i, w := range want {
		if cum[i] != w {
			t.Errorf("cum[%d] = %d, want %d", i, cum[i], w)
		}
	}
	if count != 7 {
		t.Errorf("count = %d, want 7", count)
	}
	wantSum := 0.5 + 1 + 1.0000001 + 2 + 5 + 5.1 + 100
	if math.Abs(sum-wantSum) > 1e-9 {
		t.Errorf("sum = %v, want %v", sum, wantSum)
	}
}

func TestHistogramBelowFirstAndNegative(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", "", []float64{1, 2})
	h.Observe(-3)
	h.Observe(0)
	cum, _, _ := h.snapshot()
	if cum[0] != 2 {
		t.Fatalf("cum[0] = %d, want 2 (values below first bound land in it)", cum[0])
	}
}

func TestConcurrentObservation(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c", "")
	g := r.Gauge("g", "")
	h := r.HistogramVec("h", "", []float64{0.25, 0.5, 0.75}, "w")
	const workers, per = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			child := h.With("x")
			for i := 0; i < per; i++ {
				c.Inc()
				g.Add(1)
				child.Observe(float64(i%100) / 100)
			}
		}(w)
	}
	// Scrape concurrently with observation; only checks it doesn't race/panic.
	for i := 0; i < 50; i++ {
		var sb strings.Builder
		if err := r.WriteText(&sb); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	if c.Value() != workers*per {
		t.Fatalf("counter = %d, want %d", c.Value(), workers*per)
	}
	if g.Value() != workers*per {
		t.Fatalf("gauge = %v, want %d", g.Value(), workers*per)
	}
	child := h.With("x")
	cum, count, _ := child.snapshot()
	if count != workers*per {
		t.Fatalf("hist count = %d, want %d", count, workers*per)
	}
	if cum[len(cum)-1] != count {
		t.Fatalf("+Inf cum = %d, want %d", cum[len(cum)-1], count)
	}
}

// TestGoldenExposition pins the exact text-exposition output.
func TestGoldenExposition(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("beacon_draws_total", "Total coin draws served.")
	c.Add(42)
	lag := r.GaugeVec("simnet_peer_watermark_lag", "Rounds behind the lead peer.", "peer")
	lag.With("1").Set(0)
	lag.With("2").Set(3)
	h := r.Histogram("beacon_draw_latency_seconds", "Draw latency.", []float64{0.001, 0.01})
	h.Observe(0.0005)
	h.Observe(0.005)
	h.Observe(2)
	r.GaugeFunc("beacond_round", "Current round.", func() float64 { return 17 })

	var sb strings.Builder
	if err := r.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	want := `# HELP beacon_draws_total Total coin draws served.
# TYPE beacon_draws_total counter
beacon_draws_total 42
# HELP simnet_peer_watermark_lag Rounds behind the lead peer.
# TYPE simnet_peer_watermark_lag gauge
simnet_peer_watermark_lag{peer="1"} 0
simnet_peer_watermark_lag{peer="2"} 3
# HELP beacon_draw_latency_seconds Draw latency.
# TYPE beacon_draw_latency_seconds histogram
beacon_draw_latency_seconds_bucket{le="0.001"} 1
beacon_draw_latency_seconds_bucket{le="0.01"} 2
beacon_draw_latency_seconds_bucket{le="+Inf"} 3
beacon_draw_latency_seconds_sum 2.0055
beacon_draw_latency_seconds_count 3
# HELP beacond_round Current round.
# TYPE beacond_round gauge
beacond_round 17
`
	if sb.String() != want {
		t.Fatalf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", sb.String(), want)
	}
}

func TestHandlerServesExposition(t *testing.T) {
	r := NewRegistry()
	r.Counter("x_total", "").Inc()
	srv := httptest.NewServer(r.Handler())
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Fatalf("Content-Type = %q", ct)
	}
	samples, err := ParseText(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := Value(samples, "x_total"); !ok || v != 1 {
		t.Fatalf("x_total = %v, %v", v, ok)
	}
}

func TestParseTextRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.CounterVec("a_total", "", "p", "q").With(`we"ird`, `ba\ck`).Add(9)
	r.Gauge("g", "").Set(-2.25)
	h := r.Histogram("h", "", []float64{0.5})
	h.Observe(0.1)
	h.Observe(0.9)
	var sb strings.Builder
	if err := r.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	samples, err := ParseText(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatalf("ParseText: %v\nexposition:\n%s", err, sb.String())
	}
	if v, ok := Value(samples, "a_total", "p", `we"ird`, "q", `ba\ck`); !ok || v != 9 {
		t.Fatalf("a_total = %v, %v", v, ok)
	}
	if v, ok := Value(samples, "g"); !ok || v != -2.25 {
		t.Fatalf("g = %v, %v", v, ok)
	}
	if v, ok := Value(samples, "h_bucket", "le", "+Inf"); !ok || v != 2 {
		t.Fatalf("h +Inf bucket = %v, %v", v, ok)
	}
	if v, ok := Value(samples, "h_count"); !ok || v != 2 {
		t.Fatalf("h_count = %v, %v", v, ok)
	}
}

func TestParseTextRejectsGarbage(t *testing.T) {
	for _, bad := range []string{
		"name_only\n",
		`m{a="x" 3` + "\n",
		`m{a=x} 3` + "\n",
		"m notanumber\n",
	} {
		if _, err := ParseText(strings.NewReader(bad)); err == nil {
			t.Errorf("ParseText(%q) accepted garbage", bad)
		}
	}
}

// FuzzParseText feeds arbitrary text to the exposition parser: it must
// never panic, and every sample it accepts has a name.
func FuzzParseText(f *testing.F) {
	r := NewRegistry()
	r.CounterVec("a_total", "", "p", "q").With(`we"ird`, `ba\ck`).Add(9)
	r.Gauge("g", "").Set(-2.25)
	r.Histogram("h", "", []float64{0.5}).Observe(0.9)
	var sb strings.Builder
	if err := r.WriteText(&sb); err != nil {
		f.Fatal(err)
	}
	f.Add(sb.String())
	for _, bad := range []string{"name_only\n", `m{a="x" 3` + "\n", `m{a=x} 3` + "\n", "m notanumber\n", `{a="x"} 1`} {
		f.Add(bad)
	}
	f.Fuzz(func(t *testing.T, text string) {
		samples, err := ParseText(strings.NewReader(text))
		if err != nil {
			return
		}
		for _, s := range samples {
			if s.Name == "" {
				t.Fatalf("accepted a sample without a name: %+v", s)
			}
		}
	})
}

func TestQuantile(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", "", []float64{0.1, 0.2, 0.4, 0.8})
	// 100 observations uniform in [0, 0.4): 25 per ≤0.1/≤0.2 band...
	for i := 0; i < 100; i++ {
		h.Observe(float64(i) / 250) // 0 .. 0.396
	}
	var sb strings.Builder
	if err := r.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	samples, err := ParseText(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	p50 := Quantile(samples, "lat", 0.5)
	if p50 < 0.15 || p50 > 0.25 {
		t.Fatalf("p50 = %v, want ≈0.2", p50)
	}
	p99 := Quantile(samples, "lat", 0.99)
	if p99 < 0.3 || p99 > 0.4 {
		t.Fatalf("p99 = %v, want ≈0.4", p99)
	}
	if !math.IsNaN(Quantile(samples, "absent", 0.5)) {
		t.Fatal("Quantile of absent histogram should be NaN")
	}
}

// TestNilSafety: every handle and the registry itself must be no-ops when
// nil — this is the disabled path protocol code relies on.
func TestNilSafety(t *testing.T) {
	var r *Registry
	c := r.Counter("a", "")
	c.Inc()
	c.Add(3)
	if c.Value() != 0 {
		t.Fatal("nil counter must read 0")
	}
	g := r.Gauge("b", "")
	g.Set(1)
	g.Add(1)
	g.SetInt(1)
	if g.Value() != 0 {
		t.Fatal("nil gauge must read 0")
	}
	h := r.Histogram("c", "", nil)
	h.Observe(1)
	if h.Count() != 0 || h.Sum() != 0 {
		t.Fatal("nil histogram must read 0")
	}
	r.GaugeFunc("d", "", func() float64 { return 1 })
	var cv *CounterVec
	cv.With("x").Inc()
	var gv *GaugeVec
	gv.With("x").Set(1)
	var hv *HistogramVec
	hv.With("x").Observe(1)
	if err := r.WriteText(&strings.Builder{}); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(r.Handler())
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("nil registry handler status = %d", resp.StatusCode)
	}
}

// TestZeroAllocDisabledPath pins the nil path at zero allocations — the
// draw hot path must not pay for metrics it doesn't emit.
func TestZeroAllocDisabledPath(t *testing.T) {
	var c *Counter
	var g *Gauge
	var h *Histogram
	if n := testing.AllocsPerRun(200, func() {
		c.Inc()
		g.Set(3)
		h.Observe(0.1)
	}); n != 0 {
		t.Fatalf("nil handles allocated %v per op", n)
	}
}

// TestZeroAllocLivePath pins the enabled hot path too: Observe/Inc/Set on
// resolved handles must not allocate.
func TestZeroAllocLivePath(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "")
	g := r.Gauge("g", "")
	h := r.Histogram("h", "", DefBuckets)
	if n := testing.AllocsPerRun(200, func() {
		c.Inc()
		g.Set(3)
		h.Observe(0.004)
	}); n != 0 {
		t.Fatalf("live handles allocated %v per op", n)
	}
}

func TestExpBuckets(t *testing.T) {
	e := ExpBuckets(0.001, 10, 4)
	want := []float64{0.001, 0.01, 0.1, 1}
	for i := range want {
		if math.Abs(e[i]-want[i]) > 1e-12 {
			t.Fatalf("ExpBuckets[%d] = %v, want %v", i, e[i], want[i])
		}
	}
}

func TestEmptyFamilyOmitted(t *testing.T) {
	r := NewRegistry()
	r.CounterVec("never_used_total", "x", "l") // no children created
	var sb strings.Builder
	if err := r.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	if sb.Len() != 0 {
		t.Fatalf("family with no children leaked into exposition:\n%s", sb.String())
	}
}

// TestLabelledView: two instances of one subsystem register the same
// families through labelled views and land as children of shared families
// on the root — counters, labelled vecs and scrape-time gauges alike.
func TestLabelledView(t *testing.T) {
	r := NewRegistry()
	for i, cell := range []string{"0", "1"} {
		v := r.Labelled("cell", cell)
		v.Counter("beacon_draws_total", "Draw requests served.").Add(int64(10 + i))
		v.CounterVec("beacon_refills_total", "Refills by kind.", "kind").With("pipelined").Inc()
		v.GaugeFunc("beacon_queue_depth", "Queued draws.", func() float64 { return float64(i) })
	}
	var sb strings.Builder
	if err := r.Labelled("cell", "9").WriteText(&sb); err != nil { // a view exposes its root
		t.Fatal(err)
	}
	want := `# HELP beacon_draws_total Draw requests served.
# TYPE beacon_draws_total counter
beacon_draws_total{cell="0"} 10
beacon_draws_total{cell="1"} 11
# HELP beacon_refills_total Refills by kind.
# TYPE beacon_refills_total counter
beacon_refills_total{cell="0",kind="pipelined"} 1
beacon_refills_total{cell="1",kind="pipelined"} 1
# HELP beacon_queue_depth Queued draws.
# TYPE beacon_queue_depth gauge
beacon_queue_depth{cell="0"} 0
beacon_queue_depth{cell="1"} 1
`
	if sb.String() != want {
		t.Fatalf("exposition:\n%s\nwant:\n%s", sb.String(), want)
	}
	if (*Registry)(nil).Labelled("cell", "0") != nil {
		t.Fatal("a nil registry must stay nil under Labelled")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("an unlabelled registration of a labelled family must panic")
		}
	}()
	r.Counter("beacon_draws_total", "Draw requests served.")
}
