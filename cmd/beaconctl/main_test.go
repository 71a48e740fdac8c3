package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/obs/prom"
)

// fakeDaemon is an httptest stand-in for one beacond -player process: it
// serves the same three observability endpoints beaconctl scrapes.
type fakeDaemon struct {
	id         int
	round      int
	logLen     int
	epoch      int
	generation int
	remaining  int
	joined     bool
	refilling  bool
	armed      bool
	cutover    int
	peers      []bool
	demotions  int
	trace      []obs.Event

	lastTraceQuery string // recorded ?n= forwarding
}

func (f *fakeDaemon) serve(t *testing.T) *httptest.Server {
	t.Helper()
	reg := prom.NewRegistry()
	emit := reg.Histogram("beacond_emit_latency_seconds",
		"time to emit one coin", prom.ExpBuckets(0.001, 2, 10))
	for i := 0; i < 8; i++ {
		emit.Observe(0.002)
	}
	emit.Observe(0.5)
	if f.demotions > 0 {
		dem := reg.CounterVec("simnet_peer_demotions_total", "demotions", "peer")
		dem.With("1").Add(int64(f.demotions))
	}

	mux := http.NewServeMux()
	mux.Handle("/metrics", reg.Handler())
	mux.HandleFunc("/v1/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(map[string]any{
			"status":     "ok",
			"player":     f.id,
			"joined":     f.joined,
			"round":      f.round,
			"log":        f.logLen,
			"epoch":      f.epoch,
			"generation": f.generation,
			"remaining":  f.remaining,
			"refilling":  f.refilling,
			"peers":      f.peers,
			"armed":      f.armed,
			"cutover":    f.cutover,
		})
	})
	mux.HandleFunc("/debug/trace", func(w http.ResponseWriter, r *http.Request) {
		f.lastTraceQuery = r.URL.RawQuery
		w.Header().Set("Content-Type", "application/x-ndjson")
		j := obs.NewJSONL(w)
		for _, e := range f.trace {
			j.Emit(e)
		}
		j.Flush()
	})
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv
}

// writeCtlPeersYAML writes a minimal valid peers.yaml whose http: fields
// point at the given observability addresses ("" omits the field).
func writeCtlPeersYAML(t *testing.T, httpAddrs []string) string {
	t.Helper()
	var b strings.Builder
	b.WriteString("cluster: ctltest\nsecret: 000102030405060708090a0b0c0d0e0f\npeers:\n")
	for i, h := range httpAddrs {
		fmt.Fprintf(&b, "  - id: %d\n    addr: 127.0.0.1:%d\n", i, 9400+i)
		if h != "" {
			fmt.Fprintf(&b, "    http: %s\n", h)
		}
	}
	path := filepath.Join(t.TempDir(), "peers.yaml")
	if err := os.WriteFile(path, []byte(b.String()), 0o600); err != nil {
		t.Fatal(err)
	}
	return path
}

func hostOf(srv *httptest.Server) string {
	return strings.TrimPrefix(srv.URL, "http://")
}

// TestStatusTable drives beaconctl status against a 3-player cluster where
// player 0 leads, player 1 trails beyond the -lag threshold, and player 2
// is dead (SIGKILL stand-in): the table must flag exactly those states.
func TestStatusTable(t *testing.T) {
	lead := (&fakeDaemon{id: 0, round: 40, logLen: 40, epoch: 2, generation: 1, remaining: 17,
		joined: true, armed: true, cutover: 43, peers: []bool{true, true, false}}).serve(t)
	straggler := (&fakeDaemon{id: 1, round: 35, logLen: 35, epoch: 2, generation: 1, remaining: 22,
		joined: true, refilling: true, demotions: 1, cutover: -1, peers: []bool{true, true, false}}).serve(t)
	dead := httptest.NewServer(http.NotFoundHandler())
	deadAddr := hostOf(dead)
	dead.Close() // connection refused from now on

	cfg := writeCtlPeersYAML(t, []string{hostOf(lead), hostOf(straggler), deadAddr})

	var out, errBuf bytes.Buffer
	if err := run([]string{"status", "-config", cfg, "-lag", "3"}, &out, &errBuf); err != nil {
		t.Fatalf("status: %v", err)
	}
	got := out.String()
	lines := strings.Split(strings.TrimRight(got, "\n"), "\n")
	if len(lines) != 5 { // header + 3 rows + summary
		t.Fatalf("want 5 output lines, got %d:\n%s", len(lines), got)
	}
	row := func(id int) string { return lines[1+id] }

	if !strings.Contains(lines[0], "GEN") {
		t.Errorf("header missing GEN column: %q", lines[0])
	}
	if strings.Contains(row(0), "STRAGGLER") || strings.Contains(row(0), "DOWN") {
		t.Errorf("lead row flagged: %q", row(0))
	}
	if !strings.Contains(row(0), "emit") {
		t.Errorf("lead row missing emit latency quantiles: %q", row(0))
	}
	if !strings.Contains(row(0), "2/3") {
		t.Errorf("lead row missing peers 2/3: %q", row(0))
	}
	if !strings.Contains(row(0), "reshare@43") {
		t.Errorf("armed lead not flagged with its committed cutover: %q", row(0))
	}
	if !strings.Contains(row(1), "STRAGGLER") {
		t.Errorf("straggler (lag 5 > 3) not flagged: %q", row(1))
	}
	for _, want := range []string{"refilling", "demoted-peers=1"} {
		if !strings.Contains(row(1), want) {
			t.Errorf("straggler row missing %q: %q", want, row(1))
		}
	}
	if !strings.Contains(row(2), "DOWN") {
		t.Errorf("dead daemon not flagged DOWN: %q", row(2))
	}
	if !strings.Contains(lines[4], "lead round 40") || !strings.Contains(lines[4], "1/3 players healthy") {
		t.Errorf("bad summary line: %q", lines[4])
	}
}

// TestStatusLagWithinThreshold checks the same cluster reads healthy once
// the straggler is within -lag rounds of the lead.
func TestStatusLagWithinThreshold(t *testing.T) {
	a := (&fakeDaemon{id: 0, round: 40, joined: true, peers: []bool{true, true}}).serve(t)
	b := (&fakeDaemon{id: 1, round: 38, joined: true, peers: []bool{true, true}}).serve(t)
	cfg := writeCtlPeersYAML(t, []string{hostOf(a), hostOf(b)})

	var out, errBuf bytes.Buffer
	if err := run([]string{"status", "-config", cfg, "-lag", "3"}, &out, &errBuf); err != nil {
		t.Fatalf("status: %v", err)
	}
	got := out.String()
	if strings.Contains(got, "STRAGGLER") || strings.Contains(got, "DOWN") {
		t.Errorf("healthy cluster flagged:\n%s", got)
	}
	if !strings.Contains(got, "2/2 players healthy") {
		t.Errorf("missing healthy summary:\n%s", got)
	}
}

// traceFor fabricates a tiny per-daemon trace: one round boundary plus one
// coin-sealed event per round. Origin is left 0 — MergeJSONL stamps it from
// the map key, exactly as it does for real per-daemon files.
func traceFor(player int, rounds ...int) []obs.Event {
	var evs []obs.Event
	seq := uint64(1)
	for _, r := range rounds {
		evs = append(evs,
			obs.Event{Seq: seq, Type: obs.EvRound, Player: -1, Round: r, Count: 3},
			obs.Event{Seq: seq + 1, Type: obs.EvCoinSealed, Player: player, Round: r, Count: 1},
		)
		seq += 2
	}
	return evs
}

// TestTimelineMergesAcrossDaemons fetches two daemons' flight recorders,
// merges them, and checks the rendered timeline interleaves both origins.
func TestTimelineMergesAcrossDaemons(t *testing.T) {
	d0 := &fakeDaemon{id: 0, joined: true, trace: traceFor(0, 1, 2)}
	d1 := &fakeDaemon{id: 1, joined: true, trace: traceFor(1, 1, 2)}
	s0, s1 := d0.serve(t), d1.serve(t)
	cfg := writeCtlPeersYAML(t, []string{hostOf(s0), hostOf(s1)})

	var out, errBuf bytes.Buffer
	if err := run([]string{"timeline", "-config", cfg, "-n", "128"}, &out, &errBuf); err != nil {
		t.Fatalf("timeline: %v", err)
	}
	got := out.String()
	if !strings.Contains(got, "8 events from 2 daemons") {
		t.Errorf("bad event accounting:\n%s", got)
	}
	// Multi-origin traces prefix every line with the emitting node.
	for _, want := range []string{"[n0 ", "[n1 "} {
		if !strings.Contains(got, want) {
			t.Errorf("timeline missing origin label %q:\n%s", want, got)
		}
	}
	if d0.lastTraceQuery != "n=128" {
		t.Errorf("-n not forwarded to /debug/trace: query %q", d0.lastTraceQuery)
	}
}

// TestTimelineMergedJSONLOutput exercises -o: the merged file must parse
// back as JSONL in canonical (epoch, round, origin) order with both
// origins stamped from the roster ids.
func TestTimelineMergedJSONLOutput(t *testing.T) {
	s0 := (&fakeDaemon{id: 0, joined: true, trace: traceFor(0, 1, 2)}).serve(t)
	s1 := (&fakeDaemon{id: 1, joined: true, trace: traceFor(1, 1, 2)}).serve(t)
	cfg := writeCtlPeersYAML(t, []string{hostOf(s0), hostOf(s1)})
	outPath := filepath.Join(t.TempDir(), "merged.jsonl")

	var out, errBuf bytes.Buffer
	if err := run([]string{"timeline", "-config", cfg, "-o", outPath}, &out, &errBuf); err != nil {
		t.Fatalf("timeline -o: %v", err)
	}
	f, err := os.Open(outPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	events, err := obs.ParseJSONL(f)
	if err != nil {
		t.Fatalf("merged file does not parse: %v", err)
	}
	if len(events) != 8 {
		t.Fatalf("want 8 merged events, got %d", len(events))
	}
	origins := map[int]int{}
	for i, e := range events {
		origins[e.Origin]++
		if e.Seq != uint64(i+1) {
			t.Errorf("event %d: want renumbered seq %d, got %d", i, i+1, e.Seq)
		}
		if i > 0 {
			prev := events[i-1]
			if e.Round < prev.Round {
				t.Errorf("event %d: round order violated (%d after %d)", i, e.Round, prev.Round)
			}
			if e.Round == prev.Round && e.Origin < prev.Origin {
				t.Errorf("event %d: origin order violated within round %d", i, e.Round)
			}
		}
	}
	if origins[0] != 4 || origins[1] != 4 {
		t.Errorf("want 4 events per origin, got %v", origins)
	}
}

// TestTimelineSurvivesDeadDaemon merges around an unreachable daemon
// instead of failing — the operator wants the partial cluster view during
// an outage, not an error.
func TestTimelineSurvivesDeadDaemon(t *testing.T) {
	s0 := (&fakeDaemon{id: 0, joined: true, trace: traceFor(0, 1)}).serve(t)
	dead := httptest.NewServer(http.NotFoundHandler())
	deadAddr := hostOf(dead)
	dead.Close()
	cfg := writeCtlPeersYAML(t, []string{hostOf(s0), deadAddr})

	var out, errBuf bytes.Buffer
	if err := run([]string{"timeline", "-config", cfg}, &out, &errBuf); err != nil {
		t.Fatalf("timeline with dead daemon: %v", err)
	}
	if !strings.Contains(out.String(), "2 events from 1 daemons") {
		t.Errorf("bad partial-merge accounting:\n%s", out.String())
	}
	if !strings.Contains(errBuf.String(), "player 1 unreachable") {
		t.Errorf("missing unreachable warning on stderr: %q", errBuf.String())
	}
}

// gatewayMetrics are two canned beacongw /metrics expositions: the second
// snapshot advances cell 0's routed and shed counters by 50 and 5 over the
// sampling window while cell 1 sits down and idle.
var gatewayMetrics = [2]string{
	`beacon_store_remaining{cell="0"} 60
beacon_store_remaining{cell="1"} 12
beacon_cell_refill_lag{cell="0"} 4
beacon_cell_refill_lag{cell="1"} 52
beacon_queue_depth{cell="0"} 2
beacon_queue_depth{cell="1"} 0
beacon_refill_in_flight{cell="0"} 1
beacon_refill_in_flight{cell="1"} 0
beacon_cell_down{cell="0"} 0
beacon_cell_down{cell="1"} 1
multicell_routed_draws_total{cell="0",route="hash"} 30
multicell_routed_draws_total{cell="0",route="rr"} 20
multicell_shed_total{cell="0"} 1
multicell_streams_active 3
multicell_rejected_total{reason="ratelimit"} 7
multicell_rejected_total{reason="saturated"} 2
`,
	`beacon_store_remaining{cell="0"} 60
beacon_store_remaining{cell="1"} 12
beacon_cell_refill_lag{cell="0"} 4
beacon_cell_refill_lag{cell="1"} 52
beacon_queue_depth{cell="0"} 2
beacon_queue_depth{cell="1"} 0
beacon_refill_in_flight{cell="0"} 1
beacon_refill_in_flight{cell="1"} 0
beacon_cell_down{cell="0"} 0
beacon_cell_down{cell="1"} 1
multicell_routed_draws_total{cell="0",route="hash"} 60
multicell_routed_draws_total{cell="0",route="rr"} 40
multicell_shed_total{cell="0"} 6
multicell_streams_active 3
multicell_rejected_total{reason="ratelimit"} 7
multicell_rejected_total{reason="saturated"} 2
`,
}

// TestCellsTable drives beaconctl cells against a fake gateway serving the
// two canned snapshots: DRAWS/S and SHED/S must come from the counter
// deltas over the window, gauges from the second snapshot, and the down
// cell must be flagged.
func TestCellsTable(t *testing.T) {
	var scrapes int
	gw := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/metrics" {
			http.NotFound(w, r)
			return
		}
		i := scrapes
		if i > 1 {
			i = 1
		}
		scrapes++
		fmt.Fprint(w, gatewayMetrics[i])
	}))
	t.Cleanup(gw.Close)

	var out, errBuf bytes.Buffer
	if err := run([]string{"cells", "-gw", hostOf(gw), "-interval", "100ms"}, &out, &errBuf); err != nil {
		t.Fatalf("cells: %v", err)
	}
	if scrapes != 2 {
		t.Fatalf("want exactly 2 scrapes, got %d", scrapes)
	}
	got := out.String()
	lines := strings.Split(strings.TrimRight(got, "\n"), "\n")
	if len(lines) != 4 { // header + 2 cells + cluster footer
		t.Fatalf("want 4 output lines, got %d:\n%s", len(lines), got)
	}
	for _, col := range []string{"CELL", "DEPTH", "LAG", "QUEUE", "REFILL", "DRAWS/S", "SHED/S"} {
		if !strings.Contains(lines[0], col) {
			t.Errorf("header missing %s column: %q", col, lines[0])
		}
	}
	// Cell 0: 50 routed draws over the 100ms window = 500.0/s; 5 shed = 50.0/s.
	for _, want := range []string{"60", "4", "2", "yes", "500.0", "50.0"} {
		if !strings.Contains(lines[1], want) {
			t.Errorf("cell 0 row missing %q: %q", want, lines[1])
		}
	}
	if strings.Contains(lines[1], "DOWN") {
		t.Errorf("healthy cell 0 flagged DOWN: %q", lines[1])
	}
	if !strings.Contains(lines[2], "DOWN") {
		t.Errorf("dead cell 1 not flagged DOWN: %q", lines[2])
	}
	if !strings.Contains(lines[2], "0.0") {
		t.Errorf("idle cell 1 should show a zero rate: %q", lines[2])
	}
	for _, want := range []string{"500.0 draws/s", "2 cells", "3 live streams", "9 draws rejected"} {
		if !strings.Contains(lines[3], want) {
			t.Errorf("footer missing %q: %q", want, lines[3])
		}
	}
}

// TestCellsRejectsNonGateway points cells at a daemon-style /metrics with
// no per-cell series: it must error instead of printing an empty table.
func TestCellsRejectsNonGateway(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, "beacond_emit_latency_seconds_count 8\n")
	}))
	t.Cleanup(srv.Close)

	var out, errBuf bytes.Buffer
	err := run([]string{"cells", "-gw", hostOf(srv), "-interval", "1ms"}, &out, &errBuf)
	if err == nil || !strings.Contains(err.Error(), "no per-cell series") {
		t.Fatalf("want no-cells error, got %v", err)
	}
}

// TestCLIErrors covers argument validation: missing subcommand, unknown
// subcommand, and a missing -config all fail with usage guidance.
func TestCLIErrors(t *testing.T) {
	var out, errBuf bytes.Buffer
	for _, args := range [][]string{
		nil,
		{"bogus"},
		{"status"},
		{"timeline"},
		{"cells"},
	} {
		if err := run(args, &out, &errBuf); err == nil {
			t.Errorf("run(%v): want error, got nil", args)
		}
	}
	if err := run([]string{"help"}, &out, &errBuf); err != nil {
		t.Errorf("help: %v", err)
	}
	if !strings.Contains(out.String(), "beaconctl") {
		t.Errorf("help printed nothing useful: %q", out.String())
	}
}
