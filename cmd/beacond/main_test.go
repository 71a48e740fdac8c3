package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/beacon"
	"repro/internal/coin"
	"repro/internal/core"
	"repro/internal/gf2k"
	"repro/internal/obs"
	"repro/internal/obs/prom"
)

// syncBuf is a goroutine-safe writer the daemon under test logs into.
type syncBuf struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuf) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuf) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

type daemon struct {
	url    string
	out    *syncBuf
	done   chan error
	cancel context.CancelFunc
}

var listenRe = regexp.MustCompile(`listening on (http://\S+)`)

// startDaemon runs the daemon in-process on an ephemeral port and waits
// until it announces its listen address.
func startDaemon(t *testing.T, extra ...string) *daemon {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	d := &daemon{out: &syncBuf{}, done: make(chan error, 1), cancel: cancel}
	args := append([]string{"-addr", "127.0.0.1:0"}, extra...)
	go func() { d.done <- run(ctx, args, d.out, d.out) }()
	deadline := time.Now().Add(30 * time.Second)
	for {
		if m := listenRe.FindStringSubmatch(d.out.String()); m != nil {
			d.url = m[1]
			break
		}
		select {
		case err := <-d.done:
			t.Fatalf("daemon exited before listening: %v\noutput:\n%s", err, d.out.String())
		default:
		}
		if time.Now().After(deadline) {
			t.Fatalf("daemon never announced its address; output:\n%s", d.out.String())
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Cleanup(func() { d.cancel(); <-d.done })
	return d
}

// stop sends the shutdown signal (the SIGTERM code path) and returns the
// accumulated output after a clean exit.
func (d *daemon) stop(t *testing.T) string {
	t.Helper()
	d.cancel()
	select {
	case err := <-d.done:
		if err != nil {
			t.Fatalf("daemon exit: %v\noutput:\n%s", err, d.out.String())
		}
		d.done <- nil // keep the cleanup drain happy
	case <-time.After(60 * time.Second):
		t.Fatalf("daemon did not shut down; output:\n%s", d.out.String())
	}
	return d.out.String()
}

// getJSON fetches path and decodes the JSON body (on any status).
func getJSON(t *testing.T, base, path string) (int, map[string]any) {
	t.Helper()
	resp, err := http.Get(base + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	var body map[string]any
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
			t.Fatalf("GET %s: decode: %v", path, err)
		}
	}
	return resp.StatusCode, body
}

// scrape fetches and parses /metrics.
func scrape(t *testing.T, base string) []prom.Sample {
	t.Helper()
	status, ctype, body := getRaw(t, base, "/metrics")
	if status != http.StatusOK || !strings.Contains(ctype, "version=0.0.4") {
		t.Fatalf("/metrics: status %d content-type %q", status, ctype)
	}
	samples, err := prom.ParseText(bytes.NewReader(body))
	if err != nil {
		t.Fatalf("/metrics does not parse: %v\n%s", err, body)
	}
	return samples
}

// series reads one series out of a scrape; it must be present.
func series(t *testing.T, samples []prom.Sample, name string, kv ...string) float64 {
	t.Helper()
	v, ok := prom.Value(samples, name, kv...)
	if !ok {
		t.Fatalf("/metrics has no %s%v", name, kv)
	}
	return v
}

// getRaw fetches path and returns status, Content-Type, and the raw body.
func getRaw(t *testing.T, base, path string) (int, string, []byte) {
	t.Helper()
	resp, err := http.Get(base + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: read: %v", path, err)
	}
	return resp.StatusCode, resp.Header.Get("Content-Type"), body
}

// TestObservabilityEndpoints covers the single-process mode's /metrics and
// /debug/trace surfaces: the exposition parses and carries the key series,
// and the trace dump is valid obs JSONL with refill spans.
func TestObservabilityEndpoints(t *testing.T) {
	d := startDaemon(t, "-n", "7", "-t", "1", "-k", "8",
		"-batch", "24", "-threshold", "6", "-highwater", "16", "-insecure-rand")
	const draws = 12 // 24-coin seed − 12 < the 16 high-water mark: forces a pipelined refill
	for i := 0; i < draws; i++ {
		if status, _ := getJSON(t, d.url, "/v1/coin"); status != http.StatusOK {
			t.Fatalf("draw %d: status %d", i, status)
		}
	}

	samples := scrape(t, d.url)
	if v := series(t, samples, "beacon_draws_total"); v != draws {
		t.Errorf("beacon_draws_total = %v; want %d", v, draws)
	}
	for _, name := range []string{"beacon_draw_latency_seconds_count", "beacon_store_remaining", "beacon_queue_depth"} {
		series(t, samples, name)
	}

	// The pipelined refill runs asynchronously; wait for its spans to land
	// in the flight recorder.
	deadline := time.Now().Add(10 * time.Second)
	var events []obs.Event
	var err error
	for {
		_, ctype, body := getRaw(t, d.url, "/debug/trace")
		if !strings.Contains(ctype, "ndjson") {
			t.Fatalf("/debug/trace content-type %q", ctype)
		}
		if events, err = obs.ParseJSONL(bytes.NewReader(body)); err != nil {
			t.Fatalf("/debug/trace is not valid obs JSONL: %v\n%s", err, body)
		}
		if len(events) > 0 || time.Now().After(deadline) {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if len(events) == 0 {
		t.Fatal("/debug/trace stayed empty after a pipelined refill")
	}
	if status, _, _ := getRaw(t, d.url, "/debug/trace?n=bogus"); status != http.StatusBadRequest {
		t.Errorf("/debug/trace?n=bogus: status %d, want 400", status)
	}
	_, _, tail := getRaw(t, d.url, "/debug/trace?n=3")
	tailEvents, err := obs.ParseJSONL(bytes.NewReader(tail))
	if err != nil || len(tailEvents) > 3 {
		t.Errorf("/debug/trace?n=3 returned %d events, err %v", len(tailEvents), err)
	}
	d.stop(t)
}

func TestFlagValidation(t *testing.T) {
	cases := [][]string{
		{"-k", "99"},                       // unsupported field degree
		{"-n", "3", "-t", "1"},             // violates n ≥ 6t+1
		{"-highwater", "2"},                // below the default threshold
		{"-batch", "4", "-threshold", "6"}, // refills could not make progress
		{"stray-positional"},
	}
	for _, args := range cases {
		t.Run(strings.Join(args, " "), func(t *testing.T) {
			if err := run(context.Background(), args, &syncBuf{}, &syncBuf{}); err == nil {
				t.Fatalf("args %v accepted", args)
			}
		})
	}
}

// TestModeFlagValidation pins the mode-selection rules: -all / -deal /
// -player are mutually exclusive, the multi-process modes need their
// supporting flags, and every rejection prints usage naming both the
// single-process and per-player modes.
func TestModeFlagValidation(t *testing.T) {
	cases := []struct {
		name    string
		args    []string
		wantErr string // required substring of the error; "" = must be accepted
	}{
		{"player without config", []string{"-player", "0", "-data", "d"}, "-player requires -config"},
		{"player without data", []string{"-player", "0", "-config", "peers.yaml"}, "-player requires -data"},
		{"deal without config", []string{"-deal", "-data", "d"}, "-deal requires -config"},
		{"deal without data", []string{"-deal", "-config", "peers.yaml"}, "-deal requires -data"},
		{"player plus all", []string{"-player", "0", "-config", "p.yaml", "-data", "d", "-all"}, "mutually exclusive"},
		{"deal plus player", []string{"-deal", "-player", "0", "-config", "p.yaml", "-data", "d"}, "mutually exclusive"},
		{"config without mode", []string{"-config", "peers.yaml"}, "only meaningful"},
		{"join plus player", []string{"-reshare-join", "7", "-player", "0", "-config", "p.yaml", "-reshare", "n.yaml", "-data", "d"}, "mutually exclusive"},
		{"join without rosters", []string{"-reshare-join", "7", "-data", "d"}, "-reshare-join requires both"},
		{"join without data", []string{"-reshare-join", "7", "-config", "p.yaml", "-reshare", "n.yaml"}, "-reshare-join requires -data"},
		{"stale without reshare", []string{"-player", "0", "-config", "p.yaml", "-data", "d", "-reshare-stale"}, "-reshare-stale requires -reshare"},
		{"stale joiner", []string{"-reshare-join", "7", "-config", "p.yaml", "-reshare", "n.yaml", "-data", "d", "-reshare-stale"}, "no store to be stale"},
		{"reshare with deal", []string{"-deal", "-config", "p.yaml", "-data", "d", "-reshare", "n.yaml"}, "only meaningful"},
		{"reshare single process", []string{"-reshare", "n.yaml"}, "only meaningful"},
		{"default single process", []string{"-n", "7", "-t", "1"}, ""},
		{"explicit all", []string{"-all"}, ""},
		{"player mode", []string{"-player", "2", "-config", "p.yaml", "-data", "d"}, ""},
		{"armed player", []string{"-player", "2", "-config", "p.yaml", "-data", "d", "-reshare", "n.yaml"}, ""},
		{"stale player", []string{"-player", "2", "-config", "p.yaml", "-data", "d", "-reshare", "n.yaml", "-reshare-stale"}, ""},
		{"joiner mode", []string{"-reshare-join", "7", "-config", "p.yaml", "-reshare", "n.yaml", "-data", "d"}, ""},
		{"deal mode", []string{"-deal", "-config", "p.yaml", "-data", "d"}, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c, err := parseFlags(tc.args, &syncBuf{})
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("args %v rejected: %v", tc.args, err)
				}
				_ = c
				return
			}
			if err == nil {
				t.Fatalf("args %v accepted", tc.args)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("args %v: error %q does not mention %q", tc.args, err, tc.wantErr)
			}
			// Every mode error must point the operator at both modes.
			for _, mode := range []string{"beacond -all", "beacond -player"} {
				if !strings.Contains(err.Error(), mode) {
					t.Fatalf("args %v: error %q does not name mode %q", tc.args, err, mode)
				}
			}
		})
	}
}

func TestEndpoints(t *testing.T) {
	d := startDaemon(t, "-n", "7", "-t", "1", "-k", "8",
		"-batch", "24", "-threshold", "6", "-highwater", "16", "-insecure-rand")

	status, body := getJSON(t, d.url, "/v1/coin")
	if status != http.StatusOK {
		t.Fatalf("/v1/coin: status %d", status)
	}
	coin, _ := body["coin"].(string)
	if !strings.HasPrefix(coin, "0x") || len(coin) != 4 { // 0x + 2 hex digits for k=8
		t.Fatalf("/v1/coin returned %q", coin)
	}

	status, body = getJSON(t, d.url, "/v1/bits?n=16")
	if status != http.StatusOK {
		t.Fatalf("/v1/bits: status %d", status)
	}
	if bits, _ := body["bits"].(string); len(bits) != 4 { // 16 bits = 2 bytes = 4 hex chars
		t.Fatalf("/v1/bits?n=16 returned %q", body["bits"])
	}
	if status, _ := getJSON(t, d.url, "/v1/bits?n=0"); status != http.StatusBadRequest {
		t.Fatalf("/v1/bits?n=0: status %d, want 400", status)
	}
	if status, _ := getJSON(t, d.url, "/v1/bits"); status != http.StatusBadRequest {
		t.Fatalf("/v1/bits without n: status %d, want 400", status)
	}

	status, body = getJSON(t, d.url, "/v1/modulo?m=5")
	if status != http.StatusOK {
		t.Fatalf("/v1/modulo: status %d", status)
	}
	if v, _ := body["value"].(float64); v < 1 || v > 5 {
		t.Fatalf("/v1/modulo?m=5 returned %v", body["value"])
	}
	if status, _ := getJSON(t, d.url, "/v1/modulo?m=-2"); status != http.StatusBadRequest {
		t.Fatalf("/v1/modulo?m=-2: status %d, want 400", status)
	}

	status, body = getJSON(t, d.url, "/v1/healthz")
	if status != http.StatusOK || body["status"] != "ok" {
		t.Fatalf("/v1/healthz: status %d body %v", status, body)
	}
	if got := series(t, scrape(t, d.url), "beacon_coins_delivered_total"); got < 3 {
		t.Fatalf("beacon_coins_delivered_total = %v, did not count the draws", got)
	}
	out := d.stop(t)
	if !strings.Contains(out, "served") {
		t.Fatalf("shutdown summary missing; output:\n%s", out)
	}
}

// TestIntegerQueryParams: an integer query parameter is the whole value or
// a 400 — a numeric prefix followed by anything else is not a number.
func TestIntegerQueryParams(t *testing.T) {
	d := startDaemon(t, "-n", "7", "-t", "1", "-k", "8",
		"-batch", "24", "-threshold", "6", "-highwater", "16", "-insecure-rand")
	for _, tc := range []struct {
		path string
		want int
	}{
		{"/v1/bits?n=12", http.StatusOK},
		{"/v1/bits?n=12xyz", http.StatusBadRequest},
		{"/v1/modulo?m=6", http.StatusOK},
		{"/v1/modulo?m=6x", http.StatusBadRequest},
		{"/debug/trace?n=5", http.StatusOK},
		{"/debug/trace?n=5x", http.StatusBadRequest},
	} {
		if status, _, _ := getRaw(t, d.url, tc.path); status != tc.want {
			t.Errorf("%s: status %d, want %d", tc.path, status, tc.want)
		}
	}
	d.stop(t)
}

// TestSoakPipelineAndResume is the subsystem's acceptance test: concurrent
// paced clients drain more than three full batches through the HTTP API
// with every refill pipelined — zero draws blocked on a Coin-Gen round —
// then SIGTERM persists the stores and a restarted daemon resumes from
// disk without a trusted-dealer re-seed.
func TestSoakPipelineAndResume(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test")
	}
	dir := t.TempDir()
	args := []string{"-n", "7", "-t", "1", "-k", "8",
		"-batch", "96", "-threshold", "8", "-highwater", "72",
		"-queue", "1024", "-data", dir, "-insecure-rand"}
	d := startDaemon(t, args...)

	// 4 clients, each pacing ~100 draws/s: the 64-coin high-water headroom
	// buys each pipelined mint ~160 ms of wall clock, far beyond a
	// Coin-Gen round even under the race detector.
	const clients, perClient = 4, 80
	var wg sync.WaitGroup
	errCh := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				resp, err := http.Get(d.url + "/v1/coin")
				if err != nil {
					errCh <- err
					return
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errCh <- fmt.Errorf("draw %d: status %d", i, resp.StatusCode)
					return
				}
				time.Sleep(10 * time.Millisecond)
			}
		}()
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatalf("soak client: %v", err)
	}

	samples := scrape(t, d.url)
	if got := series(t, samples, "beacon_coins_delivered_total"); got != clients*perClient {
		t.Fatalf("coins delivered = %v, want %d", got, clients*perClient)
	}
	if got := series(t, samples, "beacon_refills_total", "kind", "pipelined"); got < 3 {
		t.Fatalf("pipelined refills = %v after draining %d coins, want ≥ 3", got, clients*perClient)
	}
	if got := series(t, samples, "beacon_blocked_draws_total"); got != 0 {
		t.Fatalf("blocked draws = %v, want 0 — a draw waited on a Coin-Gen round", got)
	}
	// A label value never incremented has no series yet: absent means 0.
	if got, _ := prom.Value(samples, "beacon_refills_total", "kind", "blocking"); got != 0 {
		t.Fatalf("blocking refills = %v, want 0", got)
	}

	out := d.stop(t)
	if !strings.Contains(out, "persisted 7 player stores") {
		t.Fatalf("shutdown did not persist; output:\n%s", out)
	}
	for i := 0; i < 7; i++ {
		if _, err := os.Stat(filepath.Join(dir, fmt.Sprintf("player-%03d.store", i))); err != nil {
			t.Fatalf("missing persisted store: %v", err)
		}
	}

	// Second session: must resume from disk, not from the dealer.
	d2 := startDaemon(t, args...)
	if !strings.Contains(d2.out.String(), "resumed 7 players") {
		t.Fatalf("restart did not resume from disk; output:\n%s", d2.out.String())
	}
	status, body := getJSON(t, d2.url, "/v1/healthz")
	if status != http.StatusOK || body["resumed"] != true {
		t.Fatalf("resumed healthz: status %d body %v", status, body)
	}
	for i := 0; i < 30; i++ { // drains into another refill, dealer-free
		if status, _ := getJSON(t, d2.url, "/v1/coin"); status != http.StatusOK {
			t.Fatalf("post-resume draw %d: status %d", i, status)
		}
	}
	if out := d2.stop(t); !strings.Contains(out, "persisted 7 player stores") {
		t.Fatalf("second shutdown did not persist; output:\n%s", out)
	}
}

// inventory reduces a text exposition to its sorted family list, one
// "name type label,names help" line per family: what dashboards and alert
// rules key on, whatever the sample values are.
func inventory(t *testing.T, body []byte) []string {
	t.Helper()
	typ, help, labels := map[string]string{}, map[string]string{}, map[string]map[string]bool{}
	for _, line := range strings.Split(string(body), "\n") {
		if f := strings.SplitN(line, " ", 4); len(f) == 4 && f[0] == "#" {
			switch f[1] {
			case "TYPE":
				typ[f[2]], labels[f[2]] = f[3], map[string]bool{}
			case "HELP":
				help[f[2]] = f[3]
			}
		}
	}
	samples, err := prom.ParseText(bytes.NewReader(body))
	if err != nil {
		t.Fatalf("exposition does not parse: %v\n%s", err, body)
	}
	for _, s := range samples {
		fam := s.Name
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			if base := strings.TrimSuffix(fam, suffix); typ[fam] == "" && typ[base] == "histogram" {
				fam = base
			}
		}
		if typ[fam] == "" {
			t.Fatalf("sample %s has no # TYPE line", s.Name)
		}
		for l := range s.Labels {
			if l != "le" {
				labels[fam][l] = true
			}
		}
	}
	var out []string
	for fam, ty := range typ {
		var ls []string
		for l := range labels[fam] {
			ls = append(ls, l)
		}
		sort.Strings(ls)
		out = append(out, fmt.Sprintf("%s %s [%s] %s", fam, ty, strings.Join(ls, ","), help[fam]))
	}
	sort.Strings(out)
	return out
}

// checkSurface compares one process's /metrics family list and /v1/healthz
// key set with the lists recorded from the commit before the counters were
// unified (5da2673): names, types, label names, help text and JSON keys are
// what dashboards, alert rules and beaconctl parse, so they must not move.
func checkSurface(t *testing.T, base string, families, healthzKeys []string) {
	t.Helper()
	_, _, body := getRaw(t, base, "/metrics")
	if got := inventory(t, body); !reflect.DeepEqual(got, families) {
		t.Errorf("/metrics families moved:\n got %q\nwant %q", got, families)
	}
	_, hz := getJSON(t, base, "/v1/healthz")
	var keys []string
	for k := range hz {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if !reflect.DeepEqual(keys, healthzKeys) {
		t.Errorf("/v1/healthz keys moved: got %q, want %q", keys, healthzKeys)
	}
}

// TestSurfaceInventorySingleProcess pins the single-process surface after
// a load that touches every family (served draws, pipelined refills, a
// rate-limited draw).
func TestSurfaceInventorySingleProcess(t *testing.T) {
	d := startDaemon(t, "-n", "7", "-t", "1", "-k", "8", "-batch", "24", "-threshold", "6",
		"-highwater", "16", "-rate", "0.000001", "-burst", "30", "-insecure-rand")
	for i := 0; i < 31; i++ {
		if status, _ := getJSON(t, d.url, "/v1/coin"); (status != http.StatusOK) != (i == 30) {
			t.Fatalf("draw %d: status %d", i, status)
		}
	}
	checkSurface(t, d.url, []string{
		"beacon_blocked_draws_total counter [] Draws that waited on a Coin-Gen round.",
		"beacon_coins_delivered_total counter [] Coins handed out across all draws.",
		"beacon_draw_latency_seconds histogram [] Latency of successful draws, enqueue to response.",
		"beacon_draws_total counter [] Draw requests served.",
		"beacon_queue_depth gauge [] Draw requests waiting in the bounded queue.",
		"beacon_refill_duration_seconds histogram [kind] Coin-Gen wall-clock duration by kind (pipelined, blocking).",
		"beacon_refill_in_flight gauge [] 1 while a pipelined Coin-Gen is running.",
		"beacon_refills_total counter [kind] Absorbed Coin-Gen batches by kind (pipelined, blocking).",
		"beacon_rejected_total counter [reason] Draws rejected before reaching the queue (overloaded, rate-limited).",
		"beacon_store_remaining gauge [] Sealed coins left in the store.",
	}, []string{"queue", "refilling", "remaining", "resumed", "status"})
}

// startPlayers deals a 7-player loopback cluster and runs every player's
// daemon in-process (-player mode) until the test ends; it returns the
// players' observability base URLs.
func startPlayers(t *testing.T) []string {
	t.Helper()
	const n = 7
	reserve := func() string {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer ln.Close()
		return ln.Addr().String()
	}
	dir := t.TempDir()
	cfgPath := filepath.Join(dir, "peers.yaml")
	var b strings.Builder
	fmt.Fprintf(&b, "cluster: inventory\nsecret: %s\nt: 1\nk: 32\nbatch: 24\nthreshold: 6\nseedcoins: 24\npeers:\n", strings.Repeat("ab", 32))
	urls := make([]string, n)
	for i := range urls {
		http := reserve()
		urls[i] = "http://" + http
		fmt.Fprintf(&b, "  - id: %d\n    addr: %s\n    http: %s\n", i, reserve(), http)
	}
	if err := os.WriteFile(cfgPath, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	out := &syncBuf{}
	if err := run(context.Background(), []string{"-deal", "-config", cfgPath, "-data", dir, "-insecure-rand"}, out, out); err != nil {
		t.Fatalf("ceremony: %v\n%s", err, out.String())
	}
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			run(ctx, []string{"-player", fmt.Sprint(i), "-config", cfgPath, "-data", dir, //nolint:errcheck // ends by cancellation
				"-emit-interval", "5ms", "-round-timeout", "2s", "-dial-backoff", "200ms",
				"-insecure-rand", "-addr", strings.TrimPrefix(urls[i], "http://")}, out, out)
		}(i)
	}
	t.Cleanup(func() { cancel(); wg.Wait() })
	return urls
}

// TestSurfaceInventoryPlayer pins the -player surface (daemon plus peer
// transport families) of a 7-daemon cluster once it has crossed a refill.
func TestSurfaceInventoryPlayer(t *testing.T) {
	urls := startPlayers(t)
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get(urls[0] + "/v1/healthz")
		if err == nil {
			var hz struct{ Epoch int }
			err = json.NewDecoder(resp.Body).Decode(&hz)
			resp.Body.Close()
			if err == nil && hz.Epoch >= 1 {
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("player 0 never reported a refill (last error: %v)", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	checkSurface(t, urls[0], []string{
		"beacond_coins_total counter [] Coins appended to the public log.",
		"beacond_emit_latency_seconds histogram [] Duration of one emission iteration (exposure, plus inline refill when triggered).",
		"beacond_epoch gauge [] Refill epoch (batches absorbed since the ceremony).",
		"beacond_generation gauge [] Committee generation (0 = dealt, +1 per reshare).",
		"beacond_join_attempts_total counter [] Join choreography attempts (1 = clean first try).",
		"beacond_joined gauge [] 1 once the daemon has joined the cluster.",
		"beacond_log_len gauge [] Coins in the public log.",
		"beacond_refill_duration_seconds histogram [] Wall-clock duration of inline Coin-Gens.",
		"beacond_refilling gauge [] 1 while an inline Coin-Gen is running.",
		"beacond_refills_total counter [] Inline blocking Coin-Gens completed.",
		"beacond_reshare_duration_seconds histogram [] Wall-clock duration of one resharing ceremony attempt.",
		"beacond_round gauge [] Completed-round count of the local node.",
		"beacond_store_remaining gauge [] Sealed coins left in the store.",
		"simnet_handshake_total counter [result] Outgoing dial attempts by outcome (ok, reject, dial-error).",
		"simnet_peer_connected gauge [peer] 1 while the authenticated outgoing connection to the peer is up.",
		"simnet_peer_demotions_total counter [peer] Round barriers that timed out waiting for the peer and demoted it.",
		"simnet_peer_epoch gauge [peer] Beacon epoch the peer last announced (-1 if never announced).",
		"simnet_peer_query_rtt_seconds histogram [peer] Round-trip time of out-of-band peer queries.",
		"simnet_peer_reconnects_total counter [peer] Successful authenticated dials to the peer (first connect included).",
		"simnet_peer_redial_backoff_seconds gauge [peer] Current redial backoff delay while disconnected (0 when connected).",
		"simnet_peer_watermark gauge [peer] Highest round the peer declared complete (-1 if never heard from).",
		"simnet_peer_watermark_lag gauge [peer] Rounds the peer trails the cluster lead.",
		"simnet_round_duration_seconds histogram [] EndRound wall-clock time: flush plus distributed barrier wait.",
	}, []string{"armed", "cutover", "epoch", "generation", "joined", "log", "peers", "player", "refilling", "remaining", "round", "status"})
}

// TestWriteErrStatus: the HTTP status follows the error's identity, not its
// text. The store error below contains "outside", which used to turn an
// internal failure (raised while absorbing a refill) into a 400.
func TestWriteErrStatus(t *testing.T) {
	f := gf2k.MustNew(8)
	svc, err := beacon.New(beacon.Config{Core: core.Config{Field: f, N: 7, T: 1, BatchSize: 24}})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close(context.Background()) //nolint:errcheck // nothing in flight
	ctx := context.Background()
	_, _, errN := svc.DrawN(ctx, 0)
	_, errBits := svc.DrawBits(ctx, beacon.MaxDrawBits+1)
	_, errMod := svc.DrawMod(ctx, -2)
	_, errModWide := svc.DrawMod(ctx, 1<<9) // beyond GF(2^8)'s draw space

	batches, _, err := coin.DealTrusted(f, 7, 1, 2, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	errStore := (&coin.Store{Universe: 1}).Add(batches[0])
	if errStore == nil || !strings.Contains(errStore.Error(), "outside") {
		t.Fatalf("store accepted a batch from a larger universe: %v", errStore)
	}
	for _, tc := range []struct {
		err  error
		want int
	}{
		{errN, http.StatusBadRequest},
		{errBits, http.StatusBadRequest},
		{errMod, http.StatusBadRequest},
		{errModWide, http.StatusBadRequest},
		{fmt.Errorf("beacon: absorb minted batch, player 0: %w", errStore), http.StatusInternalServerError},
		{beacon.ErrOverloaded, http.StatusTooManyRequests},
		{beacon.ErrClosed, http.StatusServiceUnavailable},
	} {
		rec := httptest.NewRecorder()
		writeErr(rec, tc.err)
		if rec.Code != tc.want {
			t.Errorf("%v: status %d, want %d", tc.err, rec.Code, tc.want)
		}
	}
}
