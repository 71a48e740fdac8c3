// Command dprbgsim runs a configurable D-PRBG simulation: n players
// (optionally some Byzantine), a one-time trusted seed, and a stream of
// shared coins generated on demand with full cost accounting. It is the
// interactive companion to the claim tests that EXPERIMENTS.md lists.
//
// Usage:
//
//	dprbgsim -n 13 -t 2 -k 32 -coins 200 -batch 32 -crash 2,9 -v
//
// Fault injection (shared vocabulary with internal/adversary):
//
//	-crash 2,9                        players 2 and 9 crash at start
//	-faults 'crash:2; garbage@40:9'   full spec — crash, crash-after@R,
//	                                  silent[@R], garbage[@R], replay[@R]
//
// Observability:
//
//	-trace coins.jsonl   write the full protocol trace as JSONL (replayable
//	                     with obs.ParseJSONL)
//	-timeline            print a per-round timeline (player 0 + network view)
//	-pprof :6060         serve net/http/pprof here while the simulation runs
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net/http"
	_ "net/http/pprof"
	"os"
	"strings"
	"time"

	"repro/internal/adversary"
	"repro/internal/core"
	"repro/internal/gf2k"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/simnet"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		log.Fatal(err)
	}
}

// config is the validated flag set of one invocation.
type config struct {
	n, t, k  int
	coins    int
	batch    int
	seed     int
	faults   adversary.Spec
	rngSeed  int64
	verbose  bool
	trace    string
	timeline bool
	pprof    string
}

// parseFlags parses args into a config, validating every combination up
// front so misconfigurations fail with a clear message instead of a late
// protocol error deep inside a run.
func parseFlags(args []string, stderr io.Writer) (*config, error) {
	fs := flag.NewFlagSet("dprbgsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		n        = fs.Int("n", 7, "number of players (n ≥ 6t+1)")
		t        = fs.Int("t", 1, "Byzantine fault bound")
		k        = fs.Int("k", 32, "coin field GF(2^k), 2 ≤ k ≤ 64")
		coins    = fs.Int("coins", 100, "shared coins to generate")
		batch    = fs.Int("batch", 16, "Coin-Gen batch size M")
		seed     = fs.Int("seed", 8, "initial trusted-dealer seed coins")
		crash    = fs.String("crash", "", "comma-separated player indices that crash at start (alias for -faults 'crash:...')")
		faults   = fs.String("faults", "", "fault spec 'behaviour[@param]:idx,idx;...' (behaviours: crash, crash-after@R, silent[@R], garbage[@R], replay[@R])")
		rngSeed  = fs.Int64("rngseed", time.Now().UnixNano(), "PRNG seed (reproducibility)")
		verbose  = fs.Bool("v", false, "print every coin")
		trace    = fs.String("trace", "", "write a JSONL protocol trace to this file")
		timeline = fs.Bool("timeline", false, "print a per-round timeline after the run")
		pprofA   = fs.String("pprof", "", "serve net/http/pprof on this address (e.g. :6060)")
	)
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if fs.NArg() != 0 {
		return nil, fmt.Errorf("unexpected positional arguments: %v", fs.Args())
	}

	if *t < 0 {
		return nil, fmt.Errorf("-t must be ≥ 0, got %d", *t)
	}
	if *n < 6**t+1 {
		return nil, fmt.Errorf("-n %d is too small for -t %d: the paper's Coin-Gen regime needs n ≥ 6t+1 = %d",
			*n, *t, 6**t+1)
	}
	if *k < 2 || *k > 64 {
		return nil, fmt.Errorf("-k must be in [2, 64], got %d", *k)
	}
	if *coins < 1 {
		return nil, fmt.Errorf("-coins must be ≥ 1, got %d", *coins)
	}
	if *batch < 1 {
		return nil, fmt.Errorf("-batch must be ≥ 1, got %d", *batch)
	}
	if *batch <= core.DefaultThreshold {
		return nil, fmt.Errorf("-batch %d must exceed the refill threshold %d or refills cannot make net progress",
			*batch, core.DefaultThreshold)
	}
	if *seed < core.DefaultThreshold {
		return nil, fmt.Errorf("-seed %d is below the refill threshold %d: the first refill would run out of challenge coins",
			*seed, core.DefaultThreshold)
	}

	// -crash is sugar for the crash behaviour of the full -faults spec; both
	// feed the same parser so every flag error reads identically.
	spec := *faults
	if *crash != "" {
		if spec != "" {
			spec += "; "
		}
		spec += "crash:" + *crash
	}
	parsed, err := adversary.ParseSpec(spec, *n, *rngSeed)
	if err != nil {
		return nil, err
	}
	if len(parsed) > *t {
		return nil, fmt.Errorf("%d faulty players exceed the fault bound -t %d", len(parsed), *t)
	}

	return &config{
		n: *n, t: *t, k: *k,
		coins: *coins, batch: *batch, seed: *seed,
		faults: parsed, rngSeed: *rngSeed,
		verbose: *verbose, trace: *trace, timeline: *timeline, pprof: *pprofA,
	}, nil
}

func run(args []string, stdout, stderr io.Writer) error {
	cfg, err := parseFlags(args, stderr)
	if err != nil {
		return err
	}

	field, err := gf2k.New(cfg.k)
	if err != nil {
		return err
	}

	var ctr metrics.Counters
	if cfg.pprof != "" {
		go func() {
			if err := http.ListenAndServe(cfg.pprof, nil); err != nil {
				fmt.Fprintf(stderr, "dprbgsim: pprof server: %v\n", err)
			}
		}()
		fmt.Fprintf(stderr, "dprbgsim: pprof on http://%s/debug/pprof/\n", cfg.pprof)
	}

	// Assemble the tracer: a JSONL export, an in-memory ring for the
	// timeline, or both. No flag → nil tracer → true zero-cost path.
	var sinks []obs.Sink
	var ring *obs.Ring
	var jsonl *obs.JSONL
	var traceFile *os.File
	if cfg.trace != "" {
		traceFile, err = os.Create(cfg.trace)
		if err != nil {
			return fmt.Errorf("create trace file: %w", err)
		}
		defer traceFile.Close()
		jsonl = obs.NewJSONL(traceFile)
		sinks = append(sinks, jsonl)
	}
	if cfg.timeline {
		ring = obs.NewRing(0)
		sinks = append(sinks, ring)
	}
	var tracer *obs.Tracer
	if len(sinks) > 0 {
		tracer = obs.New(&ctr, sinks...)
	}

	coreCfg := core.Config{
		Field:     field.WithCounters(&ctr),
		N:         cfg.n,
		T:         cfg.t,
		BatchSize: cfg.batch,
		Counters:  &ctr,
	}
	rng := rand.New(rand.NewSource(cfg.rngSeed))
	gens, err := core.SetupTrusted(coreCfg, cfg.seed, rng)
	if err != nil {
		return err
	}

	fmt.Fprintf(stderr, "dprbgsim: n=%d t=%d k=%d batch=%d seed=%d faults=[%s] rngseed=%d\n",
		cfg.n, cfg.t, cfg.k, cfg.batch, cfg.seed, describeFaults(cfg.faults), cfg.rngSeed)

	opts := []simnet.Option{simnet.WithCounters(&ctr)}
	if tracer != nil {
		opts = append(opts, simnet.WithTracer(tracer))
	}
	nw := simnet.New(cfg.n, opts...)
	fns := make([]simnet.PlayerFunc, cfg.n)
	for i := 0; i < cfg.n; i++ {
		if f, ok := cfg.faults[i]; ok {
			fns[i] = f.Fn
			continue
		}
		fns[i] = func(nd *simnet.Node) (interface{}, error) {
			rnd := rand.New(rand.NewSource(cfg.rngSeed + int64(i) + 1))
			out := make([]gf2k.Element, 0, cfg.coins)
			for len(out) < cfg.coins {
				c, err := gens[i].Next(nd, rnd)
				if err != nil {
					return nil, err
				}
				out = append(out, c)
			}
			return out, nil
		}
	}
	start := time.Now()
	results := simnet.Run(nw, fns)
	elapsed := time.Since(start)

	if jsonl != nil {
		if err := jsonl.Flush(); err != nil {
			return fmt.Errorf("write trace %s: %w", cfg.trace, err)
		}
		fmt.Fprintf(stderr, "dprbgsim: trace written to %s\n", cfg.trace)
	}

	var ref []gf2k.Element
	var refIdx int
	for i, r := range results {
		// Faulty players are outside the unanimity/error contract: some stop
		// with an error by design (e.g. silent players hit the round budget).
		if _, faulty := cfg.faults[i]; faulty {
			continue
		}
		if r.Err != nil {
			return fmt.Errorf("player %d: %w", i, r.Err)
		}
		if ref == nil {
			ref = r.Value.([]gf2k.Element)
			refIdx = i
			continue
		}
		got := r.Value.([]gf2k.Element)
		for h := range ref {
			if got[h] != ref[h] {
				return fmt.Errorf("UNANIMITY VIOLATION at coin %d between players %d and %d", h, refIdx, i)
			}
		}
	}

	if cfg.timeline {
		// One player's view plus the network events is the readable cut;
		// every honest player's timeline is identical up to span ids.
		var view []obs.Event
		for _, e := range ring.Events() {
			if e.Player == refIdx || e.Player < 0 {
				view = append(view, e)
			}
		}
		fmt.Fprintf(stdout, "--- timeline (player %d + network; %d of %d events) ---\n",
			refIdx, len(view), len(ring.Events()))
		obs.Timeline(stdout, view)
		if d := ring.Dropped(); d > 0 {
			fmt.Fprintf(stdout, "(ring dropped %d oldest events; timeline is truncated at the front)\n", d)
		}
	}

	if cfg.verbose {
		for h, c := range ref {
			fmt.Fprintf(stdout, "coin %4d: %0*x\n", h, (field.K()+3)/4, uint64(c))
		}
	}
	st := gens[refIdx].Stats()
	s := ctr.Snapshot()
	fmt.Fprintf(stdout, "coins delivered:   %d (all honest players unanimous)\n", st.CoinsDelivered)
	fmt.Fprintf(stdout, "refills:           %d (batch size %d; %.2f seed coins each; %.2f leader attempts each)\n",
		st.Batches, cfg.batch, float64(st.SeedSpent)/max1(st.Batches), float64(st.Attempts)/max1(st.Batches))
	fmt.Fprintf(stdout, "totals:            %d msgs, %d bytes, %d rounds, %d interpolations, %d field mults\n",
		s.Messages, s.Bytes, s.Rounds, s.Interpolations, s.FieldMuls)
	fmt.Fprintf(stdout, "amortized/coin:    %.1f msgs, %.1f bytes, %.2f rounds, %.2f interpolations\n",
		float64(s.Messages)/float64(cfg.coins), float64(s.Bytes)/float64(cfg.coins),
		float64(s.Rounds)/float64(cfg.coins), float64(s.Interpolations)/float64(cfg.coins))
	fmt.Fprintf(stdout, "wall clock:        %v (%.1f µs/coin)\n", elapsed,
		float64(elapsed.Microseconds())/float64(cfg.coins))
	return nil
}

func max1(v int) float64 {
	if v < 1 {
		return 1
	}
	return float64(v)
}

// describeFaults renders the parsed spec back as "idx:behaviour" pairs in
// index order for the startup banner.
func describeFaults(sp adversary.Spec) string {
	parts := make([]string, 0, len(sp))
	for _, i := range sp.Indices() {
		parts = append(parts, fmt.Sprintf("%d:%s", i, sp[i].Name))
	}
	return strings.Join(parts, " ")
}
