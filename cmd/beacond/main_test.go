package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

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
