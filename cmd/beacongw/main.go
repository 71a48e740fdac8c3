// Command beacongw is the multi-cell beacon gateway: it hosts M
// independent beacon cells (internal/multicell) in one process and serves
// routed randomness over HTTP. One beacond-style cell is one coin stream
// capped by a single protocol executive; the gateway is how the deployment
// scales sideways — cells share no protocol state, tenants are
// consistent-hashed onto cells so each tenant observes one contiguous
// per-cell stream, anonymous draws round-robin, and the router sheds load
// off lagging or saturated cells before it ever rejects.
//
//	beacongw -addr :8544 -cells 4 -n 7 -t 1 -k 32
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
//	GET /v1/cells         per-cell depth/lag/routing table + router totals
//	                      (the JSON behind `beaconctl cells`)
//	GET /v1/healthz       liveness: cells up, streams active
//	GET /metrics          Prometheus text exposition; per-cell gauges are
//	                      refreshed at scrape time
//
// Degrade responses: 429 + Retry-After when the tenant is rate-limited or
// every live cell is saturated, 503 when no cell is serving at all.
package main

import (
	"context"
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
	"repro/internal/obs/prom"
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

func (c *config) clusterConfig(m *multicell.Metrics) (multicell.Config, error) {
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
		},
		TenantRate:          c.tenantRate,
		TenantBurst:         c.tenantBurst,
		MaxStreamsPerTenant: c.maxStreams,
		MaxTenants:          c.maxTenants,
		Replicas:            c.replicas,
		StreamInterval:      c.streamInterval,
		Metrics:             m,
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

func run(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	c, err := parseFlags(args, stderr)
	if err != nil {
		return err
	}
	reg := prom.NewRegistry()
	mets := multicell.NewMetrics(reg)
	cfg, err := c.clusterConfig(mets)
	if err != nil {
		return err
	}
	cl, err := multicell.New(cfg)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "beacongw: %d cells up (n=%d t=%d per cell, GF(2^%d))\n", c.cells, c.n, c.t, c.k)

	ln, err := net.Listen("tcp", c.addr)
	if err != nil {
		return err
	}
	srv := &http.Server{Handler: newMux(cl, mets, reg, c.k)}
	fmt.Fprintf(stdout, "beacongw: listening on http://%s\n", ln.Addr())
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	select {
	case err := <-serveErr:
		return err
	case <-ctx.Done():
	}
	fmt.Fprintln(stdout, "beacongw: shutting down")
	shutCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutCtx); err != nil {
		fmt.Fprintf(stderr, "beacongw: http shutdown: %v\n", err)
	}
	if err := cl.Close(shutCtx); err != nil {
		return fmt.Errorf("beacongw: close cluster: %w", err)
	}
	var draws, coins int64
	for _, st := range cl.CellStats() {
		draws += st.Draws
		coins += st.Coins
	}
	rst := cl.RouterStats()
	fmt.Fprintf(stdout, "beacongw: served %d draws (%d coins) across %d cells; %d rate-limited, %d saturated\n",
		draws, coins, c.cells, rst.RateLimited, rst.Saturated)
	return nil
}

// tenantOf extracts the request's tenant key: X-Tenant header first,
// ?tenant= fallback, empty = anonymous (round-robin routed).
func tenantOf(r *http.Request) string {
	if t := r.Header.Get("X-Tenant"); t != "" {
		return t
	}
	return r.URL.Query().Get("tenant")
}

func newMux(cl *multicell.Cluster, mets *multicell.Metrics, reg *prom.Registry, k int) *http.ServeMux {
	hexCoin := func(e gf2k.Element) string { return fmt.Sprintf("0x%0*x", (k+3)/4, uint64(e)) }
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/coin", func(w http.ResponseWriter, r *http.Request) {
		coin, err := cl.Draw(r.Context(), tenantOf(r))
		if err != nil {
			writeErr(w, err)
			return
		}
		writeJSON(w, map[string]any{"cell": coin.Cell, "seq": coin.Seq, "coin": hexCoin(coin.Val), "k": k})
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
		writeJSON(w, map[string]any{"cell": b.Cell, "seq": b.Seq, "coins": coins, "k": k})
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
	mux.HandleFunc("GET /v1/cells", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, map[string]any{"cells": cl.CellStats(), "router": cl.RouterStats()})
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
		writeJSON(w, map[string]any{
			"status": status, "cells": cl.Cells(), "cells_down": rst.CellsDown,
			"streams_active": rst.StreamsActive,
		})
	})
	metricsHandler := reg.Handler()
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		mets.Refresh(cl) // scrape-time snapshot of the per-cell gauges
		metricsHandler.ServeHTTP(w, r)
	})
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

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}
