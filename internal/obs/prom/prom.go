// Package prom is a small, dependency-free metrics registry with a
// Prometheus text-exposition handler — the cluster-observability face of the
// repository. Every beacond daemon serves a Registry on GET /metrics, so one
// scrape config (or cmd/beaconctl) sees the whole multi-process beacon:
// per-peer watermark lag, round and draw latency distributions, refill
// pipeline timing, handshake outcomes.
//
// Three metric kinds are supported, mirroring the Prometheus data model:
//
//   - Counter: a monotonically increasing int64 (events, totals).
//   - Gauge: a float64 that goes up and down (positions, depths, lags).
//     GaugeFunc registers a callback sampled at scrape time instead — the
//     right shape for values the program already tracks elsewhere.
//   - Histogram: fixed upper-bound buckets with a running sum and count
//     (latencies). Buckets are chosen at registration and never change, so
//     observation is a binary search plus two atomic adds.
//
// Vec variants attach label dimensions ("peer", "phase", ...); With resolves
// a label combination to a child handle once, and call sites hold the child,
// so the hot path never touches a map. Labelled gives a view of a registry
// that puts one constant label pair in front of everything registered
// through it, so a subsystem written for one instance per process (a
// beacon.Service) can run many times on one registry ({cell="0"}, {cell="1"}).
//
// The disabled path is a nil handle: every method on a nil *Registry,
// *Counter, *Gauge or *Histogram (and the nil Vec types) returns immediately
// without locking or allocating, exactly like the nil *obs.Tracer. Protocol
// code therefore threads metric handles unconditionally; a process that
// never creates a Registry pays one pointer check per site.
package prom

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Registry holds metric families in registration order. The zero value is
// unusable; NewRegistry creates one. A nil *Registry hands out nil metric
// handles, making the whole instrumentation layer a no-op.
type Registry struct {
	mu   sync.Mutex
	fams []*family
	byN  map[string]*family

	// A Labelled view registers on root, with constName in front of each
	// family's label names and constValue in front of each child's values.
	root                  *Registry
	constName, constValue string
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{byN: make(map[string]*family)}
}

// Labelled returns a view of the root registry r on which every family
// carries the constant label name=value ahead of its own labels. Families
// and exposition are r's (scrape r, not the view); a nil registry stays nil.
func (r *Registry) Labelled(name, value string) *Registry {
	if r == nil {
		return nil
	}
	return &Registry{root: r, constName: name, constValue: value}
}

// family is one named metric with its type, help text, label schema and
// children (one child per label-value combination; the empty combination for
// unlabelled metrics).
type family struct {
	name, help, typ string
	labels          []string
	buckets         []float64 // histograms only

	mu       sync.Mutex
	order    []string // child keys in creation order
	children map[string]any
}

// gaugeFunc is the child kind GaugeFunc installs: sampled at scrape time.
type gaugeFunc func() float64

func (r *Registry) register(name, help, typ string, labels []string, buckets []float64) vec {
	if name == "" {
		panic("prom: empty metric name")
	}
	fixed := r.constValue
	if r.root != nil {
		labels = append([]string{r.constName}, labels...)
		r = r.root
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.byN[name]; ok {
		// Re-registration must agree on shape; families are then shared, so
		// two subsystems can contribute to one metric.
		if f.typ != typ || strings.Join(f.labels, ",") != strings.Join(labels, ",") {
			panic(fmt.Sprintf("prom: metric %s re-registered with a different shape", name))
		}
		return vec{f, fixed}
	}
	f := &family{
		name: name, help: help, typ: typ,
		labels:   append([]string(nil), labels...),
		buckets:  buckets,
		children: make(map[string]any),
	}
	r.fams = append(r.fams, f)
	r.byN[name] = f
	return vec{f, fixed}
}

// vec is what the three Vec types are: a family plus the constant label
// value of the registry view it was registered through ("" on the root).
type vec struct {
	f     *family
	fixed string
}

// child returns (creating on first use) the family's child for the given
// label values.
func (v vec) child(values []string, make func() any) any {
	f := v.f
	if v.fixed != "" {
		values = append([]string{v.fixed}, values...)
	}
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("prom: metric %s wants %d label values, got %d", f.name, len(f.labels), len(values)))
	}
	key := strings.Join(values, "\xff")
	f.mu.Lock()
	defer f.mu.Unlock()
	c, ok := f.children[key]
	if !ok {
		c = make()
		f.children[key] = c
		f.order = append(f.order, key)
	}
	return c
}

// --- counter ------------------------------------------------------------------

// Counter is a monotonically increasing value. Nil receivers are no-ops.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c == nil {
		return
	}
	c.v.Add(1)
}

// Add adds n (n must not be negative; counters only go up).
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value returns the current count (0 on nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Counter registers (or finds) an unlabelled counter. Nil-safe: a nil
// registry returns a nil handle.
func (r *Registry) Counter(name, help string) *Counter {
	if r == nil {
		return nil
	}
	return r.CounterVec(name, help).With()
}

// CounterVec is a counter family with label dimensions.
type CounterVec struct{ vec }

// CounterVec registers (or finds) a counter family with the given label
// names.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	if r == nil {
		return nil
	}
	return &CounterVec{r.register(name, help, "counter", labels, nil)}
}

// With resolves one label-value combination to its child counter. Resolve
// once and hold the child; With takes the family lock.
func (v *CounterVec) With(values ...string) *Counter {
	if v == nil {
		return nil
	}
	return v.child(values, func() any { return &Counter{} }).(*Counter)
}

// --- gauge --------------------------------------------------------------------

// Gauge is a value that can go up and down, stored as float64 bits. Nil
// receivers are no-ops.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// SetInt stores an integer value (sugar for the common case).
func (g *Gauge) SetInt(v int64) { g.Set(float64(v)) }

// Add adds d to the gauge (CAS loop; contended gauges should prefer Set).
func (g *Gauge) Add(d float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		if g.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+d)) {
			return
		}
	}
}

// Value returns the current value (0 on nil).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Gauge registers (or finds) an unlabelled gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	if r == nil {
		return nil
	}
	return r.GaugeVec(name, help).With()
}

// GaugeVec is a gauge family with label dimensions.
type GaugeVec struct{ vec }

// GaugeVec registers (or finds) a gauge family with the given label names.
func (r *Registry) GaugeVec(name, help string, labels ...string) *GaugeVec {
	if r == nil {
		return nil
	}
	return &GaugeVec{r.register(name, help, "gauge", labels, nil)}
}

// With resolves one label-value combination to its child gauge.
func (v *GaugeVec) With(values ...string) *Gauge {
	if v == nil {
		return nil
	}
	return v.child(values, func() any { return &Gauge{} }).(*Gauge)
}

// GaugeFunc registers a gauge whose value is computed by fn at scrape time —
// for state the program already tracks (queue depths, log positions) where a
// write-through gauge would just duplicate it.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	if r == nil {
		return
	}
	v := r.register(name, help, "gauge", nil, nil)
	v.f.mu.Lock()
	if _, ok := v.f.children[v.fixed]; !ok {
		v.f.order = append(v.f.order, v.fixed)
	}
	v.f.children[v.fixed] = gaugeFunc(fn) // registering again replaces the callback
	v.f.mu.Unlock()
}

// --- histogram ----------------------------------------------------------------

// Histogram counts observations into fixed upper-bound buckets, keeping a
// running sum and total count. Bucket upper bounds are inclusive (Prometheus
// `le` semantics) and the +Inf bucket is implicit. Nil receivers are no-ops.
type Histogram struct {
	upper  []float64
	counts []atomic.Uint64 // one per bucket, NOT cumulative; +Inf is the last
	count  atomic.Uint64
	sum    atomic.Uint64 // float64 bits, CAS-updated
}

// Observe records one observation.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	// Binary search for the first bucket with upper ≥ v; len(upper) is +Inf.
	lo, hi := 0, len(h.upper)
	for lo < hi {
		mid := (lo + hi) / 2
		if h.upper[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	h.counts[lo].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		if h.sum.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// Count returns the total number of observations (0 on nil).
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all observed values (0 on nil).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

// snapshot returns cumulative bucket counts aligned with upper (+Inf last),
// plus count and sum, coherent enough for exposition (individual loads are
// atomic; a scrape racing observations may be off by in-flight ones, which
// Prometheus tolerates by design).
func (h *Histogram) snapshot() (cum []uint64, count uint64, sum float64) {
	cum = make([]uint64, len(h.upper)+1)
	var run uint64
	for i := range h.counts {
		run += h.counts[i].Load()
		cum[i] = run
	}
	return cum, h.count.Load(), math.Float64frombits(h.sum.Load())
}

// Histogram registers (or finds) an unlabelled histogram with the given
// bucket upper bounds (sorted ascending; DefBuckets when nil).
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	if r == nil {
		return nil
	}
	return r.HistogramVec(name, help, buckets).With()
}

// HistogramVec is a histogram family with label dimensions.
type HistogramVec struct{ vec }

// HistogramVec registers (or finds) a histogram family. All children share
// the bucket layout fixed here.
func (r *Registry) HistogramVec(name, help string, buckets []float64, labels ...string) *HistogramVec {
	if r == nil {
		return nil
	}
	if buckets == nil {
		buckets = DefBuckets
	}
	b := append([]float64(nil), buckets...)
	if !sort.Float64sAreSorted(b) {
		panic(fmt.Sprintf("prom: histogram %s buckets not sorted", name))
	}
	return &HistogramVec{r.register(name, help, "histogram", labels, b)}
}

// With resolves one label-value combination to its child histogram.
func (v *HistogramVec) With(values ...string) *Histogram {
	if v == nil {
		return nil
	}
	f := v.f
	return v.child(values, func() any {
		return &Histogram{upper: f.buckets, counts: make([]atomic.Uint64, len(f.buckets)+1)}
	}).(*Histogram)
}

// DefBuckets is the default latency bucket layout, in seconds: 100µs to
// ~100s, a decade per three buckets — wide enough for both the sub-ms
// single-process draws and the multi-second distributed round timeouts.
var DefBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005,
	0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60,
}

// ExpBuckets returns n buckets starting at start, each factor× the last.
func ExpBuckets(start, factor float64, n int) []float64 {
	if start <= 0 || factor <= 1 || n < 1 {
		panic("prom: ExpBuckets wants start > 0, factor > 1, n ≥ 1")
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = start
		start *= factor
	}
	return out
}

// --- exposition ---------------------------------------------------------------

// WriteText renders the registry in the Prometheus text exposition format
// (version 0.0.4): families in registration order, children in creation
// order, so output is deterministic for a deterministic program.
func (r *Registry) WriteText(w io.Writer) error {
	if r == nil {
		return nil
	}
	if r.root != nil {
		r = r.root
	}
	r.mu.Lock()
	fams := append([]*family(nil), r.fams...)
	r.mu.Unlock()
	for _, f := range fams {
		if err := f.writeText(w); err != nil {
			return err
		}
	}
	return nil
}

func (f *family) writeText(w io.Writer) error {
	f.mu.Lock()
	keys := append([]string(nil), f.order...)
	children := make([]any, len(keys))
	for i, k := range keys {
		children[i] = f.children[k]
	}
	f.mu.Unlock()
	if len(children) == 0 {
		return nil // registered family with no children yet: omit
	}
	if f.help != "" {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n", f.name, escapeHelp(f.help)); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.typ); err != nil {
		return err
	}
	for i, key := range keys {
		values := strings.Split(key, "\xff")
		if key == "" {
			values = nil
		}
		if err := f.writeChild(w, values, children[i]); err != nil {
			return err
		}
	}
	return nil
}

func (f *family) writeChild(w io.Writer, values []string, c any) error {
	base := labelString(f.labels, values, "", "")
	switch m := c.(type) {
	case *Counter:
		_, err := fmt.Fprintf(w, "%s%s %d\n", f.name, base, m.Value())
		return err
	case *Gauge:
		_, err := fmt.Fprintf(w, "%s%s %s\n", f.name, base, formatValue(m.Value()))
		return err
	case gaugeFunc:
		_, err := fmt.Fprintf(w, "%s%s %s\n", f.name, base, formatValue(m()))
		return err
	case *Histogram:
		cum, count, sum := m.snapshot()
		for i, upper := range m.upper {
			le := labelString(f.labels, values, "le", formatValue(upper))
			if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", f.name, le, cum[i]); err != nil {
				return err
			}
		}
		le := labelString(f.labels, values, "le", "+Inf")
		if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", f.name, le, cum[len(cum)-1]); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", f.name, base, formatValue(sum)); err != nil {
			return err
		}
		_, err := fmt.Fprintf(w, "%s_count%s %d\n", f.name, base, count)
		return err
	}
	return fmt.Errorf("prom: unknown child type %T", c)
}

// labelString renders {a="x",b="y"} (plus an optional extra pair, for le),
// or "" when there are no labels at all.
func labelString(names, values []string, extraName, extraValue string) string {
	if len(names) == 0 && extraName == "" {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", n, values[i])
	}
	if extraName != "" {
		if len(names) > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", extraName, extraValue)
	}
	b.WriteByte('}')
	return b.String()
}

// formatValue renders a float the way Prometheus expects: integral values
// without an exponent, +Inf/-Inf/NaN by name.
func formatValue(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	case v == math.Trunc(v) && math.Abs(v) < 1e15:
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}

func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// Handler returns an http.Handler serving the text exposition — mount it on
// GET /metrics. A nil registry serves an empty (valid) exposition.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := r.WriteText(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
}
