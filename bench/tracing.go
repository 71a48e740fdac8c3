package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sync"
	"time"

	"repro/internal/metrics"
	"repro/internal/obs"
)

// tracing is everything a traced run attaches and an untraced run must not:
// protocol counters, the layers' own tracer, and the benchmark-side span
// recorder. A nil *tracing is the untraced run.
type tracing struct {
	ctr    *metrics.Counters
	tracer *obs.Tracer
	phases *phaseSink
	spans  *spanRecorder
}

func newTracing() *tracing {
	ctr := &metrics.Counters{}
	ph := newPhaseSink()
	return &tracing{ctr: ctr, tracer: obs.New(ctr, ph), phases: ph, spans: newSpanRecorder()}
}

// counters, obsTracer and rec are nil-safe accessors, so workload code
// passes them straight into the layers' optional hooks.
func (t *tracing) counters() *metrics.Counters {
	if t == nil {
		return nil
	}
	return t.ctr
}

func (t *tracing) obsTracer() *obs.Tracer {
	if t == nil {
		return nil
	}
	return t.tracer
}

func (t *tracing) rec() *spanRecorder {
	if t == nil {
		return nil
	}
	return t.spans
}

// benchSpan is one benchmark-side span: a call the benchmark made into a
// layer (or the op that caused it). Spans of one op share Op; Parent is the
// ID of the span that caused this one, 0 at the root.
type benchSpan struct {
	ID      uint64 `json:"id"`
	Parent  uint64 `json:"parent,omitempty"`
	Op      uint64 `json:"op"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// spanRecorder keeps spans in memory until the run ends. A nil recorder
// records nothing, so call sites need no traced/untraced branch.
type spanRecorder struct {
	epoch time.Time
	mu    sync.Mutex
	next  uint64
	spans []benchSpan
}

func newSpanRecorder() *spanRecorder { return &spanRecorder{epoch: time.Now()} }

// record stores one closed span and returns its id for use as a parent.
func (r *spanRecorder) record(name string, op, parent uint64, start, end time.Time) uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	r.next++
	id := r.next
	r.spans = append(r.spans, benchSpan{
		ID: id, Parent: parent, Op: op, Name: name,
		StartNS: start.Sub(r.epoch).Nanoseconds(), EndNS: end.Sub(r.epoch).Nanoseconds(),
	})
	r.mu.Unlock()
	return id
}

// call records the op's root span and, under it, the span of the one call
// the op made into a layer.
func (r *spanRecorder) call(layerCall string, op uint64, start, end time.Time) {
	if r == nil {
		return
	}
	root := r.record("op", op, 0, start, end)
	r.record(layerCall, op, root, start, end)
}

// writeJSONL writes every recorded span, one JSON object per line.
func (r *spanRecorder) writeJSONL(path string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range r.spans {
		if err := enc.Encode(&r.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// phaseSink reduces the layers' own obs span stream (attached through
// simnet.WithTracer) to what the per-layer metrics need: wall time per
// span name, Coin-Gen runs, leader draws and the seed coins they spent.
// Only player 0's spans are read: lockstep keeps every player in the same
// phase, so one player's view is the phase table (see obs.PhaseCost).
//
// obs.Tracer calls Emit under its own mutex and every traced run attaches
// exactly one tracer to the sink, so Emit needs no lock; readers wait until
// the traced system is closed.
type phaseSink struct {
	open       map[uint64]openPhase
	busy       map[string]time.Duration
	mints      int64 // closed "coingen" spans
	leaders    int64 // leader draws (Coin-Gen attempts)
	seedSpent  int64 // coin-expose spans opened inside a Coin-Gen
	seedParent map[uint64]bool
}

// seedExpose is the name phaseSink files a Coin-Gen's own exposures under.
const seedExpose = "coingen/coin-expose"

type openPhase struct {
	name  string
	start time.Time
}

func newPhaseSink() *phaseSink {
	return &phaseSink{
		open:       make(map[uint64]openPhase),
		busy:       make(map[string]time.Duration),
		seedParent: make(map[uint64]bool),
	}
}

// Emit implements obs.Sink.
func (p *phaseSink) Emit(e obs.Event) {
	if e.Player != 0 {
		return
	}
	switch e.Type {
	case obs.EvSpanBegin:
		name := e.Name
		switch name {
		case "coingen", "coingen/agree":
			p.seedParent[e.Span] = true
		case "coin-expose":
			// A daemon's tracer also sees the serving exposures; only the
			// challenge and leader draws belong to Coin-Gen.
			if p.seedParent[e.Parent] {
				p.seedSpent++
				name = seedExpose
			}
		}
		p.open[e.Span] = openPhase{name: name, start: time.Now()}
	case obs.EvSpanEnd:
		o, ok := p.open[e.Span]
		if !ok {
			return
		}
		delete(p.open, e.Span)
		delete(p.seedParent, e.Span)
		p.busy[o.name] += time.Since(o.start)
		if o.name == "coingen" {
			p.mints++
		}
	case obs.EvLeader:
		p.leaders++
	}
}

// frac is the share of Coin-Gen wall time spent in the named phases.
func (p *phaseSink) frac(names ...string) float64 {
	total := p.busy["coingen"]
	if total == 0 {
		return 0
	}
	var d time.Duration
	for _, n := range names {
		d += p.busy[n]
	}
	return float64(d) / float64(total)
}

// perCoin turns a counter diff over a traced window into the paper's units
// per coin, and adds what the phase sink saw of the Coin-Gens that ran
// (whole traced execution, warm-up included: these are ratios).
func (t *tracing) perCoin(cost metrics.Snapshot, coins float64) map[string]float64 {
	out := map[string]float64{
		"gf2k.muls_per_coin":     float64(cost.FieldMuls) / coins,
		"gf2k.invs_per_coin":     float64(cost.FieldInvs) / coins,
		"poly.interps_per_coin":  float64(cost.Interpolations) / coins,
		"simnet.rounds_per_coin": float64(cost.Rounds) / coins,
		"simnet.msgs_per_coin":   float64(cost.Messages) / coins,
		"simnet.bytes_per_coin":  float64(cost.Bytes) / coins,
	}
	if lookups := cost.DomainHits + cost.DomainMisses; lookups > 0 {
		out["poly.domain_hit_rate"] = float64(cost.DomainHits) / float64(lookups)
	}
	ph := t.phases
	if ph.mints > 0 {
		out["coingen.attempts_per_mint"] = float64(ph.leaders) / float64(ph.mints)
		out["core.seed_spent_per_mint"] = float64(ph.seedSpent) / float64(ph.mints)
		out["coingen.phase_batch_vss_frac"] = ph.frac("bitgen/deal", "bitgen/gamma")
		out["coingen.phase_grade_cast_frac"] = ph.frac("gradecast")
		out["coingen.phase_ba_frac"] = ph.frac("ba/phase-king")
		out["coingen.phase_coin_expose_frac"] = ph.frac(seedExpose)
	}
	return out
}
