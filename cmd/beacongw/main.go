// Command beacongw is the in-process beacon server: it hosts M independent
// beacon cells (internal/multicell), each a full n-player D-PRBG cluster, in
// one process and serves routed randomness over HTTP. One cell is one coin
// stream capped by a single protocol executive (-cells 1 is the plain
// single-cluster beacon); more cells are how the deployment scales sideways
// — cells share no protocol state, tenants are consistent-hashed onto cells
// so each tenant observes one contiguous per-cell stream, anonymous draws
// round-robin, and the router sheds load off lagging or saturated cells
// before it ever rejects.
//
//	beacongw -addr :8544 -cells 4 -n 7 -t 1 -k 32 -data /var/lib/beacongw
//
// Persistence: every cell is seeded once by a trusted dealer (the paper's
// only trusted step). With -data, SIGTERM/SIGINT shuts down gracefully and
// persists every player's sealed store under DIR/cell-NN/, and the next
// start resumes from those files without the dealer being consulted again
// (§1.2: "the new seed is stored until the next execution"). The files are
// good for one resume: a process that dies without the graceful shutdown
// finds none and deals fresh, rather than serve its last session again.
//
// Tenancy: a request's tenant is the X-Tenant header (or ?tenant=). Tenant
// draws are rate-limited per tenant (-tenant-rate/-tenant-burst) and
// live streams are quota'd (-max-streams), both enforced at the router
// before any cell is touched.
//
// HTTP endpoints:
//
//	GET /v1/coin          one routed coin: {"cell","seq","coin","k"} — the
//	                      (cell, seq) pair names the coin's verifiable
//	                      position in that cell's public stream
//	GET /v1/coins?n=32    one batched draw: n contiguous coins of one
//	                      cell's stream starting at "seq"
//	GET /v1/stream?n=100  Server-Sent Events: one "coin" event per coin,
//	                      each carrying its cell and per-cell sequence
//	                      number (n ≤ 0 or absent: until the client goes)
//	GET /v1/bits?n=128    n shared random bits, hex-encoded LSB-first:
//	                      {"bits","n","cell"}
//	GET /v1/modulo?m=6    a shared value in [1, m], exactly uniform (the
//	                      paper's leader draw): {"value","m","cell"}
//	GET /v1/cells         per-cell depth/lag/routing table + router totals
//	                      (the JSON behind `beaconctl cells`)
//	GET /v1/healthz       liveness: cells up, streams active, resumed
//	GET /metrics          Prometheus text exposition: the router's
//	                      multicell_* families and every cell's beacon_*
//	                      families (draw latency, refill pipeline) by {cell}
//	GET /debug/trace      last ?n= events from the in-memory flight recorder
//	                      (every cell's Coin-Gen spans, origin = cell), as
//	                      obs JSONL; -trace FILE writes the same to a file
//
// Degrade responses: 429 + Retry-After when the tenant is rate-limited or
// every live cell is saturated, 503 when no cell is serving at all.
package main

import (
	"context"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"sync"
	"syscall"
	"time"

	"repro/internal/beacon"
	"repro/internal/core"
	"repro/internal/gf2k"
	"repro/internal/multicell"
	"repro/internal/obs/obshttp"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout, os.Stderr); err != nil {
		log.Fatal(err)
	}
}

// config is the validated flag set of one invocation.
type config struct {
	addr           string
	cells          int
	n, t, k        int
	batch          int
	threshold      int
	highWater      int
	queue          int
	tenantRate     float64
	tenantBurst    int
	maxStreams     int
	maxTenants     int
	replicas       int
	streamInterval time.Duration
	data           string
	trace          string
	insecureRand   bool
	rngSeed        int64
}

func parseFlags(args []string, stderr io.Writer) (*config, error) {
	fs := flag.NewFlagSet("beacongw", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var c config
	fs.StringVar(&c.addr, "addr", "127.0.0.1:8544", "HTTP listen address")
	fs.IntVar(&c.cells, "cells", 4, "number of independent beacon cells")
	fs.IntVar(&c.n, "n", 7, "players per cell (n ≥ 6t+1)")
	fs.IntVar(&c.t, "t", 1, "Byzantine fault bound per cell")
	fs.IntVar(&c.k, "k", 32, "coin field GF(2^k), 2 ≤ k ≤ 64")
	fs.IntVar(&c.batch, "batch", 96, "Coin-Gen batch size M per cell")
	fs.IntVar(&c.threshold, "threshold", core.DefaultThreshold, "per-cell refill threshold: sealed coins held back to fund the next Coin-Gen")
	fs.IntVar(&c.highWater, "highwater", 64, "per-cell store depth below which a refill starts ahead of demand (0: only when a draw has to wait for it; never changes a cell's coin stream)")
	fs.IntVar(&c.queue, "queue", 256, "per-cell request queue depth")
	fs.Float64Var(&c.tenantRate, "tenant-rate", 0, "per-tenant token-bucket rate in draws/s (0 disables)")
	fs.IntVar(&c.tenantBurst, "tenant-burst", 0, "per-tenant token-bucket burst (default 1 when -tenant-rate is set)")
	fs.IntVar(&c.maxStreams, "max-streams", 4, "concurrent /v1/stream connections per tenant (negative disables the quota)")
	fs.IntVar(&c.maxTenants, "max-tenants", 0, "bound on distinct tracked tenants before they share an overflow bucket (0 = default 8192)")
	fs.IntVar(&c.replicas, "replicas", 0, "consistent-hash virtual nodes per cell (0 = default)")
	fs.DurationVar(&c.streamInterval, "stream-interval", 0, "pacing between pushed stream coins (0 = as fast as draws allow)")
	fs.StringVar(&c.data, "data", "", "state directory: persist every cell's sealed stores on a graceful shutdown and resume from them once (empty: no persistence)")
	fs.StringVar(&c.trace, "trace", "", "write the cells' Coin-Gen spans to this file as an obs JSONL trace")
	fs.BoolVar(&c.insecureRand, "insecure-rand", false, "use seeded math/rand instead of crypto/rand (reproducible demos ONLY)")
	fs.Int64Var(&c.rngSeed, "rng-seed", 1, "seed for -insecure-rand")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if fs.NArg() > 0 {
		return nil, fmt.Errorf("beacongw: unexpected arguments %v", fs.Args())
	}
	return &c, nil
}

func (c *config) clusterConfig(o *obshttp.Observability) (multicell.Config, error) {
	field, err := gf2k.New(c.k)
	if err != nil {
		return multicell.Config{}, err
	}
	cfg := multicell.Config{
		Cells: c.cells,
		Cell: beacon.Config{
			Core: core.Config{
				Field:     field,
				N:         c.n,
				T:         c.t,
				BatchSize: c.batch,
				Threshold: c.threshold,
				HighWater: c.highWater,
			},
			QueueDepth: c.queue,
			Tracer:     o.Tracer,
		},
		TenantRate:          c.tenantRate,
		TenantBurst:         c.tenantBurst,
		MaxStreamsPerTenant: c.maxStreams,
		MaxTenants:          c.maxTenants,
		Replicas:            c.replicas,
		StreamInterval:      c.streamInterval,
		Metrics:             multicell.NewMetrics(o.Reg),
		StateDir:            c.data,
	}
	if c.insecureRand {
		cfg.CellRand = insecureCellRand(c.rngSeed)
	}
	return cfg, cfg.Validate()
}

// insecureCellRand is the deterministic per-cell randomness for demos: each
// (cell, player) pair gets a private stream keyed by its own call counter,
// so a cell's coin stream is reproducible regardless of how refills from
// different cells interleave. NEVER for production — the seeds are public.
func insecureCellRand(seed int64) func(cell, player int) io.Reader {
	var mu sync.Mutex
	calls := make(map[[2]int]int64)
	return func(cell, player int) io.Reader {
		mu.Lock()
		calls[[2]int{cell, player}]++
		k := calls[[2]int{cell, player}]
		mu.Unlock()
		return rand.New(rand.NewSource(seed +
			int64(cell)*7_777_777 +
			int64(player)*1009 +
			k*1_000_003))
	}
}

// recorderEvents sizes the flight recorder: the last nine or so Coin-Gens at
// n = 7. The ring holds pointers, so every GC cycle scans all of it on the
// processor the draws need: at obs's default of 65 536 events gw-http's p99
// read 3.2–4.1 ms, at 8 192 1.7–1.9 ms, with no recorder 1.2–1.7 ms (E22).
const recorderEvents = 1 << 13

func run(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	c, err := parseFlags(args, stderr)
	if err != nil {
		return err
	}
	o, err := obshttp.New(nil, c.trace, recorderEvents)
	if err != nil {
		return err
	}
	defer o.Close()
	cfg, err := c.clusterConfig(o)
	if err != nil {
		return err
	}
	// Listen first: a resume spends the persisted stores, so nothing that can
	// fail as cheaply as a busy port may come between it and serving.
	ln, err := net.Listen("tcp", c.addr)
	if err != nil {
		return err
	}
	cl, err := multicell.New(cfg)
	if err != nil {
		ln.Close()
		return err
	}
	fmt.Fprintf(stdout, "beacongw: %d cells up (n=%d t=%d per cell, GF(2^%d))\n", c.cells, c.n, c.t, c.k)
	if cl.Resumed() {
		fmt.Fprintf(stdout, "beacongw: resumed %d cells of %d players from %s (%d coins; trusted dealer not consulted)\n",
			c.cells, c.n, c.data, sealedCoins(cl))
	} else {
		fmt.Fprintf(stdout, "beacongw: fresh start, one-time trusted-dealer seed of %d coins\n", sealedCoins(cl))
	}

	srv := &http.Server{Handler: newMux(cl, cfg.Metrics, o, c.k)}
	fmt.Fprintf(stdout, "beacongw: listening on http://%s\n", ln.Addr())
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	// A failed listener shuts down like a signal does: the stores still go
	// back to disk, and its error is the exit status.
	select {
	case err = <-serveErr:
	case <-ctx.Done():
	}
	fmt.Fprintln(stdout, "beacongw: shutting down")
	shutCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if serr := srv.Shutdown(shutCtx); serr != nil {
		fmt.Fprintf(stderr, "beacongw: http shutdown: %v\n", serr)
	}
	if cerr := cl.Close(shutCtx); cerr != nil {
		return fmt.Errorf("beacongw: close cluster: %w", cerr)
	}
	if c.data != "" {
		if perr := cl.Persist(); perr != nil {
			return perr
		}
		fmt.Fprintf(stdout, "beacongw: persisted %d cells of %d player stores to %s (%d coins)\n",
			c.cells, c.n, c.data, sealedCoins(cl))
	}
	var draws, coins int64
	for _, st := range cl.CellStats() {
		draws += st.Draws
		coins += st.Coins
	}
	rst := cl.RouterStats()
	fmt.Fprintf(stdout, "beacongw: served %d draws (%d coins) across %d cells; %d rate-limited, %d saturated\n",
		draws, coins, c.cells, rst.RateLimited, rst.Saturated)
	return err
}

// sealedCoins sums the sealed coins left across the cells' stores.
func sealedCoins(cl *multicell.Cluster) (coins int) {
	for _, st := range cl.CellStats() {
		coins += st.Remaining
	}
	return coins
}

// tenantOf extracts the request's tenant key: X-Tenant header first,
// ?tenant= fallback, empty = anonymous (round-robin routed).
func tenantOf(r *http.Request) string {
	if t := r.Header.Get("X-Tenant"); t != "" {
		return t
	}
	return r.URL.Query().Get("tenant")
}

func newMux(cl *multicell.Cluster, mets *multicell.Metrics, o *obshttp.Observability, k int) *http.ServeMux {
	hexCoin := func(e gf2k.Element) string { return fmt.Sprintf("0x%0*x", (k+3)/4, uint64(e)) }
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/coin", func(w http.ResponseWriter, r *http.Request) {
		coin, err := cl.Draw(r.Context(), tenantOf(r))
		if err != nil {
			writeErr(w, err)
			return
		}
		obshttp.WriteJSON(w, map[string]any{"cell": coin.Cell, "seq": coin.Seq, "coin": hexCoin(coin.Val), "k": k})
	})
	mux.HandleFunc("GET /v1/coins", func(w http.ResponseWriter, r *http.Request) {
		n, err := strconv.Atoi(r.URL.Query().Get("n"))
		if err != nil {
			http.Error(w, "beacongw: missing or malformed ?n= coin count", http.StatusBadRequest)
			return
		}
		b, err := cl.DrawN(r.Context(), tenantOf(r), n)
		if err != nil {
			writeErr(w, err)
			return
		}
		coins := make([]string, len(b.Vals))
		for i, v := range b.Vals {
			coins[i] = hexCoin(v)
		}
		obshttp.WriteJSON(w, map[string]any{"cell": b.Cell, "seq": b.Seq, "coins": coins, "k": k})
	})
	mux.HandleFunc("GET /v1/stream", func(w http.ResponseWriter, r *http.Request) {
		flusher, ok := w.(http.Flusher)
		if !ok {
			http.Error(w, "beacongw: streaming unsupported by this connection", http.StatusNotImplemented)
			return
		}
		max := 0
		if q := r.URL.Query().Get("n"); q != "" {
			var err error
			if max, err = strconv.Atoi(q); err != nil {
				http.Error(w, "beacongw: malformed ?n= coin count", http.StatusBadRequest)
				return
			}
		}
		w.Header().Set("Content-Type", "text/event-stream")
		w.Header().Set("Cache-Control", "no-store")
		// Errors after the first flush can only end the stream; the status
		// line is already on the wire. Quota rejections happen before any
		// coin is drawn, so probe by writing the header lazily.
		wroteHeader := false
		err := cl.Stream(r.Context(), tenantOf(r), max, func(coin multicell.Coin) error {
			if !wroteHeader {
				w.WriteHeader(http.StatusOK)
				wroteHeader = true
			}
			payload, err := json.Marshal(map[string]any{
				"cell": coin.Cell, "seq": coin.Seq, "coin": hexCoin(coin.Val), "k": k,
			})
			if err != nil {
				return err
			}
			if _, err := fmt.Fprintf(w, "event: coin\ndata: %s\n\n", payload); err != nil {
				return err
			}
			flusher.Flush()
			return nil
		})
		if err != nil && !wroteHeader {
			writeErr(w, err)
		}
	})
	mux.HandleFunc("GET /v1/bits", func(w http.ResponseWriter, r *http.Request) {
		n, err := strconv.Atoi(r.URL.Query().Get("n"))
		if err != nil {
			http.Error(w, "beacongw: missing or malformed ?n= bit count", http.StatusBadRequest)
			return
		}
		bits, cell, err := cl.DrawBits(r.Context(), tenantOf(r), n)
		if err != nil {
			writeErr(w, err)
			return
		}
		obshttp.WriteJSON(w, map[string]any{"bits": hex.EncodeToString(bits), "n": n, "cell": cell})
	})
	mux.HandleFunc("GET /v1/modulo", func(w http.ResponseWriter, r *http.Request) {
		m, err := strconv.Atoi(r.URL.Query().Get("m"))
		if err != nil {
			http.Error(w, "beacongw: missing or malformed ?m= modulus", http.StatusBadRequest)
			return
		}
		v, cell, err := cl.DrawMod(r.Context(), tenantOf(r), m)
		if err != nil {
			writeErr(w, err)
			return
		}
		obshttp.WriteJSON(w, map[string]any{"value": v, "m": m, "cell": cell})
	})
	mux.HandleFunc("GET /v1/cells", func(w http.ResponseWriter, r *http.Request) {
		obshttp.WriteJSON(w, map[string]any{"cells": cl.CellStats(), "router": cl.RouterStats()})
	})
	mux.HandleFunc("GET /v1/healthz", func(w http.ResponseWriter, r *http.Request) {
		rst := cl.RouterStats()
		status := "ok"
		code := http.StatusOK
		if rst.CellsDown == cl.Cells() {
			status = "down"
			code = http.StatusServiceUnavailable
		} else if rst.CellsDown > 0 {
			status = "degraded"
		}
		w.Header().Set("Content-Type", "application/json") // before WriteHeader freezes the header set
		w.WriteHeader(code)
		obshttp.WriteJSON(w, map[string]any{
			"status": status, "cells": cl.Cells(), "cells_down": rst.CellsDown,
			"streams_active": rst.StreamsActive, "resumed": cl.Resumed(),
		})
	})
	metricsHandler := o.Reg.Handler()
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		mets.Refresh(cl) // scrape-time snapshot of the per-cell gauges
		metricsHandler.ServeHTTP(w, r)
	})
	mux.HandleFunc("GET /debug/trace", o.TraceHandler())
	return mux
}

// writeErr maps router errors onto HTTP statuses: per-tenant and
// cluster-wide overload are retryable 429s, a dead cluster is 503,
// validation failures 400.
func writeErr(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, multicell.ErrRateLimited),
		errors.Is(err, multicell.ErrSaturated),
		errors.Is(err, multicell.ErrStreamQuota),
		errors.Is(err, beacon.ErrOverloaded):
		w.Header().Set("Retry-After", "1")
		http.Error(w, err.Error(), http.StatusTooManyRequests)
	case errors.Is(err, multicell.ErrAllCellsDown), errors.Is(err, multicell.ErrClosed):
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		http.Error(w, err.Error(), 499) // client closed request
	case errors.Is(err, beacon.ErrBadRequest):
		http.Error(w, err.Error(), http.StatusBadRequest)
	default:
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}
