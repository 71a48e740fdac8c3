package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
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
	"repro/internal/gf2k"
	"repro/internal/multicell"
	"repro/internal/obs"
	"repro/internal/obs/obshttp"
	"repro/internal/obs/prom"
)

// testServer boots a small in-process cluster behind the real mux.
func testServer(t *testing.T, mod func(*config)) (*httptest.Server, *multicell.Cluster) {
	t.Helper()
	c := &config{
		cells: 2, n: 7, t: 1, k: 16,
		batch: 96, threshold: 8, highWater: 64, queue: 256,
		maxStreams:   2,
		insecureRand: true, rngSeed: 7,
	}
	if mod != nil {
		mod(c)
	}
	o, err := obshttp.New(nil, "", 0)
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := c.clusterConfig(o)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := multicell.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(newMux(cl, cfg.Metrics, o, c.k))
	t.Cleanup(func() {
		srv.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		if err := cl.Close(ctx); err != nil {
			t.Errorf("close cluster: %v", err)
		}
	})
	return srv, cl
}

func getJSON(t *testing.T, url string, hdr map[string]string, out any) *http.Response {
	t.Helper()
	req, err := http.NewRequest("GET", url, nil)
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decode %s: %v", url, err)
		}
	}
	return resp
}

// get fetches url and returns status, Content-Type and the raw body.
func get(t *testing.T, url string) (int, string, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: read: %v", url, err)
	}
	return resp.StatusCode, resp.Header.Get("Content-Type"), body
}

// scrape fetches and parses base's /metrics.
func scrape(t *testing.T, base string) []prom.Sample {
	t.Helper()
	status, ctype, body := get(t, base+"/metrics")
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

// syncBuf is a goroutine-safe writer the gateway under test logs into.
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

// gateway is one run() of the whole program, in-process on an ephemeral port.
type gateway struct {
	url    string
	out    *syncBuf
	done   chan error
	cancel context.CancelFunc
}

var listenRe = regexp.MustCompile(`listening on (http://\S+)`)

// startGateway runs the gateway with the given flags and waits until it
// announces its listen address.
func startGateway(t *testing.T, args ...string) *gateway {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	g := &gateway{out: &syncBuf{}, done: make(chan error, 1), cancel: cancel}
	args = append([]string{"-addr", "127.0.0.1:0"}, args...)
	go func() { g.done <- run(ctx, args, g.out, g.out) }()
	deadline := time.Now().Add(30 * time.Second)
	for {
		if m := listenRe.FindStringSubmatch(g.out.String()); m != nil {
			g.url = m[1]
			break
		}
		select {
		case err := <-g.done:
			t.Fatalf("gateway exited before listening: %v\noutput:\n%s", err, g.out.String())
		default:
		}
		if time.Now().After(deadline) {
			t.Fatalf("gateway never announced its address; output:\n%s", g.out.String())
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Cleanup(func() { g.cancel(); <-g.done })
	return g
}

// stop sends the shutdown signal (the SIGTERM code path) and returns the
// accumulated output after a clean exit.
func (g *gateway) stop(t *testing.T) string {
	t.Helper()
	g.cancel()
	select {
	case err := <-g.done:
		if err != nil {
			t.Fatalf("gateway exit: %v\noutput:\n%s", err, g.out.String())
		}
		g.done <- nil // keep the cleanup drain happy
	case <-time.After(60 * time.Second):
		t.Fatalf("gateway did not shut down; output:\n%s", g.out.String())
	}
	return g.out.String()
}

// oneCell is the small single-cluster gateway the end-to-end tests run: the
// 24-coin seed falls below the 16-coin high-water mark after 9 draws.
var oneCell = []string{"-cells", "1", "-n", "7", "-t", "1", "-k", "8",
	"-batch", "24", "-threshold", "6", "-highwater", "16", "-insecure-rand"}

// TestEndpoints drives every draw endpoint of a one-cell gateway end to end.
func TestEndpoints(t *testing.T) {
	g := startGateway(t, oneCell...)
	var body map[string]any
	if resp := getJSON(t, g.url+"/v1/coin", nil, &body); resp.StatusCode != http.StatusOK {
		t.Fatalf("/v1/coin: status %d", resp.StatusCode)
	}
	if coin, _ := body["coin"].(string); !strings.HasPrefix(coin, "0x") || len(coin) != 4 { // 0x + 2 hex digits for k=8
		t.Fatalf("/v1/coin returned %q", body["coin"])
	}

	body = nil
	if resp := getJSON(t, g.url+"/v1/bits?n=16", nil, &body); resp.StatusCode != http.StatusOK {
		t.Fatalf("/v1/bits: status %d", resp.StatusCode)
	}
	if bits, _ := body["bits"].(string); len(bits) != 4 || body["n"] != 16.0 || body["cell"] != 0.0 { // 16 bits = 2 bytes = 4 hex chars
		t.Fatalf("/v1/bits?n=16 returned %v", body)
	}
	for _, path := range []string{"/v1/bits?n=0", "/v1/bits", "/v1/modulo?m=-2", "/v1/modulo?m=512"} { // 512 > GF(2^8)'s draw space
		if resp := getJSON(t, g.url+path, nil, nil); resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400", path, resp.StatusCode)
		}
	}

	body = nil
	if resp := getJSON(t, g.url+"/v1/modulo?m=5", nil, &body); resp.StatusCode != http.StatusOK {
		t.Fatalf("/v1/modulo: status %d", resp.StatusCode)
	}
	if v, _ := body["value"].(float64); v < 1 || v > 5 || body["m"] != 5.0 || body["cell"] != 0.0 {
		t.Fatalf("/v1/modulo?m=5 returned %v", body)
	}

	body = nil
	if resp := getJSON(t, g.url+"/v1/healthz", nil, &body); resp.StatusCode != http.StatusOK || body["status"] != "ok" || body["resumed"] != false {
		t.Fatalf("/v1/healthz: status %d body %v", resp.StatusCode, body)
	}
	if got := series(t, scrape(t, g.url), "beacon_coins_delivered_total", "cell", "0"); got < 4 {
		t.Fatalf("beacon_coins_delivered_total = %v, did not count the draws", got)
	}
	if out := g.stop(t); !strings.Contains(out, "fresh start") || !strings.Contains(out, "served") {
		t.Fatalf("start-up or shutdown line missing; output:\n%s", out)
	}
}

// TestObservabilityEndpoints covers /metrics and /debug/trace: the
// exposition parses and carries the key series, and the trace dump is valid
// obs JSONL with the cell's refill spans.
func TestObservabilityEndpoints(t *testing.T) {
	g := startGateway(t, oneCell...)
	const draws = 12 // 24-coin seed − 12 < the 16 high-water mark: forces a pipelined refill
	for i := 0; i < draws; i++ {
		if resp := getJSON(t, g.url+"/v1/coin", nil, nil); resp.StatusCode != http.StatusOK {
			t.Fatalf("draw %d: status %d", i, resp.StatusCode)
		}
	}
	samples := scrape(t, g.url)
	if v := series(t, samples, "beacon_draws_total", "cell", "0"); v != draws {
		t.Errorf("beacon_draws_total = %v; want %d", v, draws)
	}
	if v := series(t, samples, "beacon_draw_latency_seconds_count", "cell", "0"); v != draws {
		t.Errorf("beacon_draw_latency_seconds_count = %v; want %d", v, draws)
	}
	for _, name := range []string{"beacon_store_remaining", "beacon_queue_depth"} {
		series(t, samples, name, "cell", "0")
	}

	// The pipelined refill runs asynchronously; wait for its spans to land
	// in the flight recorder.
	deadline := time.Now().Add(10 * time.Second)
	var events []obs.Event
	for {
		_, ctype, body := get(t, g.url+"/debug/trace")
		if !strings.Contains(ctype, "ndjson") {
			t.Fatalf("/debug/trace content-type %q", ctype)
		}
		var err error
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
	if status, _, _ := get(t, g.url+"/debug/trace?n=bogus"); status != http.StatusBadRequest {
		t.Errorf("/debug/trace?n=bogus: status %d, want 400", status)
	}
	_, _, tail := get(t, g.url+"/debug/trace?n=3")
	if tailEvents, err := obs.ParseJSONL(bytes.NewReader(tail)); err != nil || len(tailEvents) > 3 {
		t.Errorf("/debug/trace?n=3 returned %d events, err %v", len(tailEvents), err)
	}
	g.stop(t)
}

// TestSoakPipelineAndResume is the serving stack's acceptance test:
// concurrent paced clients drain more than three full batches through the
// HTTP API with every refill pipelined — zero draws blocked on a Coin-Gen
// round — then SIGTERM persists the stores and a restarted gateway resumes
// from disk without a trusted-dealer re-seed.
func TestSoakPipelineAndResume(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test")
	}
	dir := t.TempDir()
	args := []string{"-cells", "1", "-n", "7", "-t", "1", "-k", "8",
		"-batch", "96", "-threshold", "8", "-highwater", "72",
		"-queue", "1024", "-data", dir, "-insecure-rand"}
	g := startGateway(t, args...)

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
				resp, err := http.Get(g.url + "/v1/coin")
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

	samples := scrape(t, g.url)
	if got := series(t, samples, "beacon_coins_delivered_total", "cell", "0"); got != clients*perClient {
		t.Fatalf("coins delivered = %v, want %d", got, clients*perClient)
	}
	if got := series(t, samples, "beacon_refills_total", "cell", "0", "kind", "pipelined"); got < 3 {
		t.Fatalf("pipelined refills = %v after draining %d coins, want ≥ 3", got, clients*perClient)
	}
	if got := series(t, samples, "beacon_blocked_draws_total", "cell", "0"); got != 0 {
		t.Fatalf("blocked draws = %v, want 0 — a draw waited on a Coin-Gen round", got)
	}
	if got := series(t, samples, "beacon_refills_total", "cell", "0", "kind", "blocking"); got != 0 {
		t.Fatalf("blocking refills = %v, want 0", got)
	}

	out := g.stop(t)
	if !strings.Contains(out, "persisted 1 cells of 7 player stores") {
		t.Fatalf("shutdown did not persist; output:\n%s", out)
	}
	store := func(i int) string { return filepath.Join(dir, "cell-00", fmt.Sprintf("player-%03d.store", i)) }
	for i := 0; i < 7; i++ {
		if _, err := os.Stat(store(i)); err != nil {
			t.Fatalf("missing persisted store: %v", err)
		}
	}

	// Second session: must resume from disk, not from the dealer, and spend
	// the files doing so.
	g2 := startGateway(t, args...)
	if !strings.Contains(g2.out.String(), "resumed 1 cells of 7 players") || !strings.Contains(g2.out.String(), "trusted dealer not consulted") {
		t.Fatalf("restart did not resume from disk; output:\n%s", g2.out.String())
	}
	if _, err := os.Stat(store(0)); !os.IsNotExist(err) {
		t.Fatalf("the resumed store is still on disk (stat: %v)", err)
	}
	var body map[string]any
	if resp := getJSON(t, g2.url+"/v1/healthz", nil, &body); resp.StatusCode != http.StatusOK || body["resumed"] != true {
		t.Fatalf("resumed healthz: status %d body %v", resp.StatusCode, body)
	}
	refills := 0.0
	for i := 0; refills < 1; i++ { // drains into another refill, dealer-free
		if i == 300 {
			t.Fatalf("the resumed gateway served %d coins without a refill; not self-sufficient", i)
		}
		if resp := getJSON(t, g2.url+"/v1/coin", nil, nil); resp.StatusCode != http.StatusOK {
			t.Fatalf("post-resume draw %d: status %d", i, resp.StatusCode)
		}
		if i%10 == 9 {
			refills = series(t, scrape(t, g2.url), "beacon_refills_total", "cell", "0", "kind", "pipelined")
		}
	}
	if out := g2.stop(t); !strings.Contains(out, "persisted 1 cells of 7 player stores") {
		t.Fatalf("second shutdown did not persist; output:\n%s", out)
	}
}

// TestBusyPortKeepsStores: a start that cannot get its port fails before the
// resume, so the persisted stores — good for one resume — are still there for
// the start that can.
func TestBusyPortKeepsStores(t *testing.T) {
	dir := t.TempDir()
	args := append([]string{"-data", dir}, oneCell...)
	startGateway(t, args...).stop(t) // fresh start, graceful stop: stores on disk
	store := filepath.Join(dir, "cell-00", "player-000.store")
	if _, err := os.Stat(store); err != nil {
		t.Fatalf("no persisted store to test with: %v", err)
	}
	squatter := startGateway(t, oneCell...)
	busy := strings.TrimPrefix(squatter.url, "http://")
	if err := run(context.Background(), append([]string{"-addr", busy}, args...), &syncBuf{}, &syncBuf{}); err == nil {
		t.Fatal("a second gateway started on a port in use")
	}
	if _, err := os.Stat(store); err != nil {
		t.Fatalf("the failed start spent the persisted stores: %v", err)
	}
	if g := startGateway(t, args...); !strings.Contains(g.out.String(), "resumed 1 cells") {
		t.Fatalf("the next start did not resume; output:\n%s", g.out.String())
	}
}

// TestInsecureRandReproducible: -insecure-rand -rng-seed names the coin
// streams. Two runs of the whole program hand out the same coin at every
// (cell, seq), across refills — the per-(cell, player) call counters make a
// mint's randomness independent of which goroutine asked first.
func TestInsecureRandReproducible(t *testing.T) {
	const cells, perCell = 2, 200 // 96-coin batches: every cell refills at least once
	session := func() [cells][]string {
		g := startGateway(t, "-cells", "2", "-insecure-rand", "-rng-seed", "1")
		defer g.stop(t)
		var streams [cells][]string
		for i := 0; len(streams[0]) < perCell || len(streams[1]) < perCell; i++ {
			if i == 4*cells*perCell {
				t.Fatalf("%d draws left the cells at %d and %d coins", i, len(streams[0]), len(streams[1]))
			}
			var c struct {
				Cell int
				Seq  int
				Coin string
			}
			if resp := getJSON(t, g.url+"/v1/coin", nil, &c); resp.StatusCode != http.StatusOK {
				t.Fatalf("draw %d: status %d", i, resp.StatusCode)
			}
			if c.Seq != len(streams[c.Cell]) {
				t.Fatalf("draw %d: cell %d handed out seq %d after %d coins", i, c.Cell, c.Seq, len(streams[c.Cell]))
			}
			streams[c.Cell] = append(streams[c.Cell], c.Coin)
		}
		return streams
	}
	a, b := session(), session()
	for cell := range a {
		if !reflect.DeepEqual(a[cell][:perCell], b[cell][:perCell]) {
			t.Errorf("cell %d: two runs with one seed served different streams:\n%v\n%v", cell, a[cell][:perCell], b[cell][:perCell])
		}
	}
	if reflect.DeepEqual(a[0][:perCell], a[1][:perCell]) {
		t.Error("the two cells served one stream: per-cell randomness is not domain-separated")
	}
}

func TestCoinEndpoint(t *testing.T) {
	srv, _ := testServer(t, nil)
	var got struct {
		Cell int    `json:"cell"`
		Seq  int64  `json:"seq"`
		Coin string `json:"coin"`
		K    int    `json:"k"`
	}
	resp := getJSON(t, srv.URL+"/v1/coin", map[string]string{"X-Tenant": "alice"}, &got)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if !strings.HasPrefix(got.Coin, "0x") || got.K != 16 {
		t.Fatalf("malformed coin payload: %+v", got)
	}
	// A tenant's successive coins stay on one cell with advancing seqs.
	var second struct {
		Cell int   `json:"cell"`
		Seq  int64 `json:"seq"`
	}
	getJSON(t, srv.URL+"/v1/coin", map[string]string{"X-Tenant": "alice"}, &second)
	if second.Cell != got.Cell {
		t.Fatalf("tenant moved cells %d → %d with both healthy", got.Cell, second.Cell)
	}
	if second.Seq <= got.Seq {
		t.Fatalf("seq did not advance: %d then %d", got.Seq, second.Seq)
	}
}

func TestCoinsBatchEndpoint(t *testing.T) {
	srv, _ := testServer(t, nil)
	var got struct {
		Cell  int      `json:"cell"`
		Seq   int64    `json:"seq"`
		Coins []string `json:"coins"`
	}
	resp := getJSON(t, srv.URL+"/v1/coins?n=8&tenant=bob", nil, &got)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if len(got.Coins) != 8 {
		t.Fatalf("batch of %d coins, want 8", len(got.Coins))
	}
	for _, resp := range []*http.Response{
		getJSON(t, srv.URL+"/v1/coins", nil, nil),
		getJSON(t, srv.URL+"/v1/coins?n=0", nil, nil),
		getJSON(t, srv.URL+"/v1/coins?n=100000", nil, nil),
	} {
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("bad ?n= answered %d, want 400", resp.StatusCode)
		}
	}
}

// TestIntegerQueryParams: an integer query parameter is the whole value or
// a 400 — a numeric prefix followed by anything else is not a number.
func TestIntegerQueryParams(t *testing.T) {
	srv, _ := testServer(t, nil)
	for _, tc := range []struct {
		path string
		want int
	}{
		{"/v1/coins?n=3", http.StatusOK},
		{"/v1/coins?n=3junk", http.StatusBadRequest},
		{"/v1/stream?n=4", http.StatusOK},
		{"/v1/stream?n=4x", http.StatusBadRequest},
		{"/v1/bits?n=12", http.StatusOK},
		{"/v1/bits?n=12xyz", http.StatusBadRequest},
		{"/v1/modulo?m=6", http.StatusOK},
		{"/v1/modulo?m=6x", http.StatusBadRequest},
		{"/debug/trace?n=5", http.StatusOK},
		{"/debug/trace?n=5x", http.StatusBadRequest},
	} {
		if resp := getJSON(t, srv.URL+tc.path, nil, nil); resp.StatusCode != tc.want {
			t.Errorf("%s: status %d, want %d", tc.path, resp.StatusCode, tc.want)
		}
	}
}

func TestStreamSSE(t *testing.T) {
	srv, _ := testServer(t, nil)
	resp, err := http.Get(srv.URL + "/v1/stream?n=5&tenant=carol")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q", ct)
	}
	sc := bufio.NewScanner(resp.Body)
	var seqs []int64
	cell := -1
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		var coin struct {
			Cell int    `json:"cell"`
			Seq  int64  `json:"seq"`
			Coin string `json:"coin"`
		}
		if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &coin); err != nil {
			t.Fatalf("bad SSE payload %q: %v", line, err)
		}
		if cell == -1 {
			cell = coin.Cell
		} else if coin.Cell != cell {
			t.Fatalf("stream moved cells %d → %d", cell, coin.Cell)
		}
		seqs = append(seqs, coin.Seq)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(seqs) != 5 {
		t.Fatalf("stream delivered %d coins, want 5", len(seqs))
	}
	for i := 1; i < len(seqs); i++ {
		if seqs[i] <= seqs[i-1] {
			t.Fatalf("per-cell seqs not increasing: %v", seqs)
		}
	}
}

// TestStreamQuotaRejected: past the per-tenant cap, /v1/stream answers 429
// before any event is sent.
func TestStreamQuotaRejected(t *testing.T) {
	srv, _ := testServer(t, func(c *config) { c.maxStreams = 1 })
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, "GET", srv.URL+"/v1/stream?tenant=dave", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	// Read one event so the stream is definitely admitted.
	buf := make([]byte, 1)
	if _, err := resp.Body.Read(buf); err != nil {
		t.Fatal(err)
	}
	second, err := http.Get(srv.URL + "/v1/stream?tenant=dave&n=1")
	if err != nil {
		t.Fatal(err)
	}
	defer second.Body.Close()
	if second.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second stream answered %d, want 429", second.StatusCode)
	}
	if second.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
}

func TestRateLimit429(t *testing.T) {
	srv, _ := testServer(t, func(c *config) { c.tenantRate = 0.001; c.tenantBurst = 2 })
	hdr := map[string]string{"X-Tenant": "greedy"}
	for i := 0; i < 2; i++ {
		if resp := getJSON(t, srv.URL+"/v1/coin", hdr, nil); resp.StatusCode != http.StatusOK {
			t.Fatalf("draw %d within burst answered %d", i, resp.StatusCode)
		}
	}
	resp := getJSON(t, srv.URL+"/v1/coin", hdr, nil)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-budget draw answered %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	// Another tenant is unaffected.
	if resp := getJSON(t, srv.URL+"/v1/coin", map[string]string{"X-Tenant": "modest"}, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("isolated tenant answered %d", resp.StatusCode)
	}
}

func TestCellsAndHealthz(t *testing.T) {
	srv, cl := testServer(t, nil)
	getJSON(t, srv.URL+"/v1/coin", nil, nil)
	var cells struct {
		Cells  []multicell.CellStats `json:"cells"`
		Router multicell.RouterStats `json:"router"`
	}
	if resp := getJSON(t, srv.URL+"/v1/cells", nil, &cells); resp.StatusCode != http.StatusOK {
		t.Fatalf("/v1/cells status %d", resp.StatusCode)
	}
	if len(cells.Cells) != 2 {
		t.Fatalf("%d cells reported, want 2", len(cells.Cells))
	}
	var health struct {
		Status    string `json:"status"`
		CellsDown int    `json:"cells_down"`
	}
	getJSON(t, srv.URL+"/v1/healthz", nil, &health)
	if health.Status != "ok" {
		t.Fatalf("healthz %+v", health)
	}
	// Kill a cell: healthz degrades but still answers 200.
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := cl.CloseCell(ctx, 0); err != nil {
		t.Fatal(err)
	}
	resp := getJSON(t, srv.URL+"/v1/healthz", nil, &health)
	if resp.StatusCode != http.StatusOK || health.Status != "degraded" || health.CellsDown != 1 {
		t.Fatalf("degraded healthz: status %d, %+v", resp.StatusCode, health)
	}
	// Draws still succeed on the survivor.
	if resp := getJSON(t, srv.URL+"/v1/coin", nil, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("draw with one cell down answered %d", resp.StatusCode)
	}
}

// TestMetricsEndpoint: the scrape carries every cell's own families under
// {cell} and the router's gauges, refreshed at scrape time (lag present for
// every cell without any explicit Refresh call in between).
func TestMetricsEndpoint(t *testing.T) {
	srv, _ := testServer(t, nil)
	getJSON(t, srv.URL+"/v1/coin", map[string]string{"X-Tenant": "alice"}, nil)
	_, _, body := get(t, srv.URL+"/metrics")
	for _, want := range []string{
		`beacon_store_remaining{cell="0"}`,
		`beacon_store_remaining{cell="1"}`,
		`beacon_cell_refill_lag{cell="0"}`,
		`beacon_cell_refill_lag{cell="1"}`,
		`multicell_routed_draws_total{cell=`,
		"multicell_cells 2",
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("scrape missing %q", want)
		}
	}
}

// TestFlagValidation: a configuration no cell can run on stops run before
// anything listens.
func TestFlagValidation(t *testing.T) {
	for _, args := range [][]string{
		{"-k", "99"},                       // unsupported field degree
		{"-n", "3", "-t", "1"},             // violates n ≥ 6t+1
		{"-highwater", "2"},                // below the default threshold
		{"-batch", "4", "-threshold", "6"}, // refills could not make progress
		{"-cells", "0"},
		{"-tenant-rate", "-1"},
	} {
		t.Run(strings.Join(args, " "), func(t *testing.T) {
			if err := run(context.Background(), args, &syncBuf{}, &syncBuf{}); err == nil {
				t.Fatalf("args %v accepted", args)
			}
		})
	}
}

func TestParseFlagsRejectsArgs(t *testing.T) {
	if _, err := parseFlags([]string{"stray"}, &strings.Builder{}); err == nil {
		t.Fatal("stray argument accepted")
	}
	if _, err := parseFlags([]string{"-cells", "3"}, &strings.Builder{}); err != nil {
		t.Fatal(err)
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

// gatewayFamilies is the gateway's /metrics surface — names, types, label
// names and help text are what dashboards, alert rules and beaconctl key on,
// so they must not move: the router's families as recorded before the
// counters were unified (5da2673), and each cell's ten Service families as
// `beacond -all` exported them, with the cell label in front.
var gatewayFamilies = []string{
	"beacon_blocked_draws_total counter [cell] Draws that waited on a Coin-Gen round.",
	"beacon_cell_down gauge [cell] 1 once the cell failed terminally and was retired from routing.",
	"beacon_cell_refill_lag gauge [cell] Coins the cell's store sits below its high-water mark (0 = pipeline keeping up).",
	"beacon_coins_delivered_total counter [cell] Coins handed out across all draws.",
	"beacon_draw_latency_seconds histogram [cell] Latency of successful draws, enqueue to response.",
	"beacon_draws_total counter [cell] Draw requests served.",
	"beacon_queue_depth gauge [cell] Draw requests waiting in the bounded queue.",
	"beacon_refill_duration_seconds histogram [cell,kind] Coin-Gen wall-clock duration by kind (pipelined, blocking).",
	"beacon_refill_in_flight gauge [cell] 1 while a pipelined Coin-Gen is running.",
	"beacon_refills_total counter [cell,kind] Absorbed Coin-Gen batches by kind (pipelined, blocking).",
	"beacon_rejected_total counter [cell,reason] Draws rejected before reaching the queue (overloaded).",
	"beacon_store_remaining gauge [cell] Sealed coins left in the store.",
	"multicell_cells gauge [] Configured cell count.",
	"multicell_rejected_total counter [reason] Draws rejected by the router (rate-limited, stream-quota, saturated, down).",
	"multicell_routed_draws_total counter [cell,route] Draws served, by serving cell and route (hash, rr, shed).",
	"multicell_shed_total counter [cell] Draws shed away from their primary cell (saturated, lagging or down).",
	"multicell_streams_active gauge [] Live Stream subscriptions across all tenants.",
}

var healthzKeys = []string{"cells", "cells_down", "resumed", "status", "streams_active"}

func keysOf(m map[string]any) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// TestSurfaceInventorySingleProcess pins the one-cell gateway's surface
// after a load that touches every family (served draws, a pipelined refill,
// a rate-limited draw: -tenant-rate limits the anonymous tenant as a whole).
func TestSurfaceInventorySingleProcess(t *testing.T) {
	g := startGateway(t, append([]string{"-tenant-rate", "0.000001", "-tenant-burst", "30"}, oneCell...)...)
	for i := 0; i < 31; i++ {
		if resp := getJSON(t, g.url+"/v1/coin", nil, nil); (resp.StatusCode != http.StatusOK) != (i == 30) {
			t.Fatalf("draw %d: status %d", i, resp.StatusCode)
		}
	}
	_, _, body := get(t, g.url+"/metrics")
	if got := inventory(t, body); !reflect.DeepEqual(got, gatewayFamilies) {
		t.Errorf("/metrics families moved:\n got %q\nwant %q", got, gatewayFamilies)
	}
	var health map[string]any
	getJSON(t, g.url+"/v1/healthz", nil, &health)
	if got := keysOf(health); !reflect.DeepEqual(got, healthzKeys) {
		t.Errorf("/v1/healthz keys moved: got %q, want %q", got, healthzKeys)
	}
}

// TestSurfaceInventory pins the same family list, and the /v1/cells and
// /v1/healthz key sets, on two cells after a load that touches every router
// family: round-robin, hash and shed draws, a rate-limited tenant, a dead
// cell.
func TestSurfaceInventory(t *testing.T) {
	srv, cl := testServer(t, func(c *config) { c.tenantRate = 0.001; c.tenantBurst = 2 })
	for _, tenant := range []string{"", "alice", "alice", "alice"} { // rr, hash, hash, rate-limited
		getJSON(t, srv.URL+"/v1/coin", map[string]string{"X-Tenant": tenant}, nil)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := cl.CloseCell(ctx, 0); err != nil {
		t.Fatal(err)
	}
	for _, tenant := range []string{"a", "b", "c", "d", "e", "f"} { // those homed on cell 0 are shed
		getJSON(t, srv.URL+"/v1/coin", map[string]string{"X-Tenant": tenant}, nil)
	}
	get := func(path string) []byte {
		t.Helper()
		_, _, body := get(t, srv.URL+path)
		return body
	}
	if got := inventory(t, get("/metrics")); !reflect.DeepEqual(got, gatewayFamilies) {
		t.Errorf("/metrics families moved:\n got %q\nwant %q", got, gatewayFamilies)
	}
	var cells struct {
		Cells  []map[string]any `json:"cells"`
		Router map[string]any   `json:"router"`
	}
	if err := json.Unmarshal(get("/v1/cells"), &cells); err != nil || len(cells.Cells) != 2 {
		t.Fatalf("/v1/cells: %v, %d cells", err, len(cells.Cells))
	}
	var health map[string]any
	if err := json.Unmarshal(get("/v1/healthz"), &health); err != nil {
		t.Fatalf("/v1/healthz: %v", err)
	}
	for _, c := range []struct {
		what      string
		got, want []string
	}{
		{"/v1/cells cell", keysOf(cells.Cells[0]), []string{"blocked_draws", "cell", "coins", "down", "draws", "queue", "refill_lag",
			"refilling", "refills", "remaining", "routed_hash", "routed_rr", "routed_shed", "shed_away"}},
		{"/v1/cells router", keysOf(cells.Router), []string{"cells_down", "rate_limited", "saturated", "stream_quota", "streams_active"}},
		{"/v1/healthz", keysOf(health), healthzKeys},
	} {
		if !reflect.DeepEqual(c.got, c.want) {
			t.Errorf("%s keys moved: got %q, want %q", c.what, c.got, c.want)
		}
	}
}

// TestHealthzContentType: the reply is JSON and says so, on the 200 and on
// the all-cells-down 503 alike (the header used to be set after WriteHeader
// and the body went out sniffed as text/plain).
func TestHealthzContentType(t *testing.T) {
	srv, cl := testServer(t, nil)
	for _, want := range []int{http.StatusOK, http.StatusServiceUnavailable} {
		resp := getJSON(t, srv.URL+"/v1/healthz", nil, nil)
		if resp.StatusCode != want || resp.Header.Get("Content-Type") != "application/json" {
			t.Errorf("healthz: status %d (want %d), Content-Type %q", resp.StatusCode, want, resp.Header.Get("Content-Type"))
		}
		for i := 0; i < cl.Cells(); i++ { // second pass: every cell down
			if err := cl.CloseCell(context.Background(), i); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestWriteErrStatus: the HTTP status follows the error's identity, not its
// text. The store error below contains "outside", which used to turn an
// internal failure into a 400.
func TestWriteErrStatus(t *testing.T) {
	_, cl := testServer(t, nil)
	ctx := context.Background()
	_, errN := cl.DrawN(ctx, "t", 0)
	_, _, errBits := cl.DrawBits(ctx, "t", beacon.MaxDrawBits+1)
	_, _, errMod := cl.DrawMod(ctx, "t", -2)
	_, _, errModWide := cl.DrawMod(ctx, "t", 1<<17) // beyond GF(2^16)'s draw space
	batches, _, err := coin.DealTrusted(gf2k.MustNew(8), 7, 1, 2, rand.New(rand.NewSource(1)))
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
		{multicell.ErrRateLimited, http.StatusTooManyRequests},
		{multicell.ErrSaturated, http.StatusTooManyRequests},
		{multicell.ErrAllCellsDown, http.StatusServiceUnavailable},
		{multicell.ErrClosed, http.StatusServiceUnavailable},
	} {
		rec := httptest.NewRecorder()
		writeErr(rec, tc.err)
		if rec.Code != tc.want {
			t.Errorf("%v: status %d, want %d", tc.err, rec.Code, tc.want)
		}
	}
}
