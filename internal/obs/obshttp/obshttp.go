// Package obshttp is the observability a serving process mounts on its HTTP
// listener, built once for cmd/beacond and cmd/beacongw: the Prometheus
// registry and the always-on flight recorder — a tracer feeding an in-memory
// ring (served at /debug/trace) and, when a trace path is given, a JSONL
// file as well.
package obshttp

import (
	"encoding/json"
	"net/http"
	"os"
	"strconv"

	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/obs/prom"
)

// Observability is one process's registry and flight recorder. Whoever runs
// the protocol stamps Tracer (or a Fork of it) with its origin and epoch, so
// dumps from different processes correlate.
type Observability struct {
	Reg    *prom.Registry
	Tracer *obs.Tracer

	ring  *obs.Ring
	close func() // flushes and closes the trace file, if any
}

// New builds the registry and a recorder retaining the last `events` events
// (0: obs.DefaultRingCapacity). ctr, when non-nil, gives every span its
// protocol-cost diff; tracePath, when non-empty, is created and receives
// every event as obs JSONL until Close.
func New(ctr *metrics.Counters, tracePath string, events int) (*Observability, error) {
	o := &Observability{Reg: prom.NewRegistry(), ring: obs.NewRing(events), close: func() {}}
	sinks := []obs.Sink{o.ring}
	if tracePath != "" {
		f, err := os.Create(tracePath)
		if err != nil {
			return nil, err
		}
		jsonl := obs.NewJSONL(f)
		o.close = func() {
			jsonl.Flush() //nolint:errcheck // best-effort trace file
			f.Close()
		}
		sinks = append(sinks, jsonl)
	}
	o.Tracer = obs.New(ctr, sinks...)
	return o, nil
}

// Close flushes and closes the trace file, if there is one.
func (o *Observability) Close() { o.close() }

// TraceHandler serves the in-memory flight recorder as obs JSONL: the last
// ?n= events (default: everything retained). The dump carries each event's
// origin/epoch correlation keys, so per-process dumps merge with
// obs.MergeJSONL into one cluster timeline (beaconctl timeline does).
func (o *Observability) TraceHandler() http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		evs := o.ring.Events()
		if q := r.URL.Query().Get("n"); q != "" {
			n, err := strconv.Atoi(q)
			if err != nil || n < 1 {
				http.Error(w, "malformed ?n= event count", http.StatusBadRequest)
				return
			}
			if len(evs) > n {
				evs = evs[len(evs)-n:]
			}
		}
		w.Header().Set("Content-Type", "application/x-ndjson")
		j := obs.NewJSONL(w)
		for _, e := range evs {
			j.Emit(e)
		}
		j.Flush() //nolint:errcheck // client went away; nothing to do
	}
}

// WriteJSON answers with v as a JSON body.
func WriteJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}
