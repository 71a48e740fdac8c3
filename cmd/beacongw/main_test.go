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
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/coin"
	"repro/internal/gf2k"
	"repro/internal/multicell"
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
	reg := prom.NewRegistry()
	mets := multicell.NewMetrics(reg)
	cfg, err := c.clusterConfig(mets)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := multicell.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(newMux(cl, mets, reg, c.k))
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

// TestMetricsEndpoint: the scrape carries the per-cell gauge families,
// refreshed at scrape time (depth present for every cell without any
// explicit Refresh call in between).
func TestMetricsEndpoint(t *testing.T) {
	srv, _ := testServer(t, nil)
	getJSON(t, srv.URL+"/v1/coin", map[string]string{"X-Tenant": "alice"}, nil)
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sb strings.Builder
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		sb.WriteString(sc.Text())
		sb.WriteByte('\n')
	}
	body := sb.String()
	for _, want := range []string{
		`beacon_cell_depth{cell="0"}`,
		`beacon_cell_depth{cell="1"}`,
		`beacon_cell_refill_lag{cell="0"}`,
		`multicell_routed_draws_total{cell=`,
		"multicell_cells 2",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("scrape missing %q", want)
		}
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

// TestSurfaceInventory pins the gateway's /metrics family list and the
// /v1/cells and /v1/healthz key sets against the lists recorded from the
// commit before the counters were unified (5da2673), after a load that
// touches every family: round-robin, hash and shed draws, a rate-limited
// tenant, a dead cell.
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
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return body
	}
	want := []string{
		"beacon_cell_blocked_draws gauge [cell] Draws that waited on a Coin-Gen round inside this cell.",
		"beacon_cell_coins_total gauge [cell] Coins the cell has delivered (snapshot of the cell's own counter).",
		"beacon_cell_depth gauge [cell] Sealed coins left in the cell's store.",
		"beacon_cell_down gauge [cell] 1 once the cell failed terminally and was retired from routing.",
		"beacon_cell_queue_depth gauge [cell] Draw requests waiting in the cell's bounded queue.",
		"beacon_cell_refill_in_flight gauge [cell] 1 while the cell runs a pipelined Coin-Gen.",
		"beacon_cell_refill_lag gauge [cell] Coins the cell's store sits below its high-water mark (0 = pipeline keeping up).",
		"multicell_cells gauge [] Configured cell count.",
		"multicell_rejected_total counter [reason] Draws rejected by the router (rate-limited, stream-quota, saturated, down).",
		"multicell_routed_draws_total counter [cell,route] Draws served, by serving cell and route (hash, rr, shed).",
		"multicell_shed_total counter [cell] Draws shed away from their primary cell (saturated, lagging or down).",
		"multicell_streams_active gauge [] Live Stream subscriptions across all tenants.",
	}
	if got := inventory(t, get("/metrics")); !reflect.DeepEqual(got, want) {
		t.Errorf("/metrics families moved:\n got %q\nwant %q", got, want)
	}
	keysOf := func(m map[string]any) []string {
		var keys []string
		for k := range m {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		return keys
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
		{"/v1/healthz", keysOf(health), []string{"cells", "cells_down", "status", "streams_active"}},
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
	_, errN := cl.DrawN(context.Background(), "t", 0)
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
		{fmt.Errorf("beacon: absorb minted batch, player 0: %w", errStore), http.StatusInternalServerError},
		{multicell.ErrSaturated, http.StatusTooManyRequests},
		{multicell.ErrAllCellsDown, http.StatusServiceUnavailable},
	} {
		rec := httptest.NewRecorder()
		writeErr(rec, tc.err)
		if rec.Code != tc.want {
			t.Errorf("%v: status %d, want %d", tc.err, rec.Code, tc.want)
		}
	}
}
