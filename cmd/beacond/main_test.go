package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

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

// TestModeFlagValidation pins the mode-selection rules: -deal, -player and
// -reshare-join are mutually exclusive, exactly one of them is required,
// each needs its supporting flags, and every rejection prints usage naming
// the per-player mode and where the single-process beacon went.
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
		{"deal plus player", []string{"-deal", "-player", "0", "-config", "p.yaml", "-data", "d"}, "mutually exclusive"},
		{"config without mode", []string{"-config", "peers.yaml"}, "no mode given"},
		{"join plus player", []string{"-reshare-join", "7", "-player", "0", "-config", "p.yaml", "-reshare", "n.yaml", "-data", "d"}, "mutually exclusive"},
		{"join without rosters", []string{"-reshare-join", "7", "-data", "d"}, "-reshare-join requires both"},
		{"join without data", []string{"-reshare-join", "7", "-config", "p.yaml", "-reshare", "n.yaml"}, "-reshare-join requires -data"},
		{"stale without reshare", []string{"-player", "0", "-config", "p.yaml", "-data", "d", "-reshare-stale"}, "-reshare-stale requires -reshare"},
		{"stale joiner", []string{"-reshare-join", "7", "-config", "p.yaml", "-reshare", "n.yaml", "-data", "d", "-reshare-stale"}, "no store to be stale"},
		{"reshare with deal", []string{"-deal", "-config", "p.yaml", "-data", "d", "-reshare", "n.yaml"}, "only meaningful"},
		{"reshare without mode", []string{"-reshare", "n.yaml"}, "no mode given"},
		{"no flags at all", nil, "beacongw -cells 1"},
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
			// Every mode error must point the operator at the daemon modes and
			// at where the single-process beacon went.
			for _, mode := range []string{"beacond -player", "beacongw -cells 1"} {
				if !strings.Contains(err.Error(), mode) {
					t.Fatalf("args %v: error %q does not name mode %q", tc.args, err, mode)
				}
			}
		})
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

// checkSurface compares a daemon's /metrics family list and /v1/healthz
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
		"beacond_emit_latency_seconds histogram [] Duration of one emission round (exposure, plus inline refill when triggered).",
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
		"beacond_snapshot_seconds histogram [] Wall-clock duration of one store snapshot (log fsync, then slot write and fsync).",
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
