// Command bench is the repository's benchmark: five named workloads, the
// end-to-end metrics BENCHMARK.json bounds, and a traced run that yields
// the per-layer metrics (protocol counters per coin plus the draw and mint
// ladders). See bench/README.md.
//
//	go run ./bench                          every workload, then the traced run
//	go run ./bench -repeat 5                five sets, then spread against the bounds
//	go run ./bench -workload gw-http -seconds 20 -trace 0
//	                                        one run in the driver's contract shape
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync/atomic"
	"syscall"
	"time"
)

func main() {
	if os.Getenv(spinEnv) != "" {
		spinAtIdlePriority()
	}
	os.Exit(run(os.Args[1:]))
}

// declaration is BENCHMARK.json: the one place workloads, metrics, units
// and bounds are named. The program reads it rather than repeating it.
type declaration struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDecl `json:"end_to_end"`
	PerLayer []metricDecl `json:"per_layer"`
}

type metricDecl struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// moduleRoot walks up from the working directory to the directory holding
// go.mod and BENCHMARK.json (`go run ./bench` starts at the root, `go test`
// in bench/).
func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no go.mod above the working directory: run from a checkout of the repository")
		}
		dir = parent
	}
}

func loadDeclaration(root string) (*declaration, error) {
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var d declaration
	if err := json.Unmarshal(data, &d); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &d, nil
}

// metricValue is one reported number.
type metricValue struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
}

// runResult is one workload execution's report: the contract's last-line
// object in driver mode, one element of a set otherwise.
type runResult struct {
	Workload   string                 `json:"workload,omitempty"`
	Correct    bool                   `json:"correct"`
	Attempted  int64                  `json:"attempted"`
	Failed     int64                  `json:"failed"`
	FailedFrac float64                `json:"failed_frac"`
	Metrics    map[string]metricValue `json:"metrics"`
	Notes      []string               `json:"failures,omitempty"`
	Info       []string               `json:"info,omitempty"`

	// fed names the metrics something actually measured, as opposed to
	// the declared ones filled with 0 (the inventory test reads it).
	fed map[string]bool
}

// environment is recorded in every result.
type environment struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`     // at start; the parallel trial runs with it
	Workload   int     `json:"workload_procs"` // processors everything else runs on (see onOneProcessor)
	GoVersion  string  `json:"go_version"`
	CPUModel   string  `json:"cpu_model"`
	GitCommit  string  `json:"git_commit"`
	Seed       int64   `json:"seed"`
	WindowS    float64 `json:"window_s"`
	WallS      float64 `json:"wall_s"`
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func gitCommit(root string) string {
	cmd := exec.Command("git", "rev-parse", "--short", "HEAD")
	cmd.Dir = root
	out, err := cmd.Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// bench is one invocation's state.
type bench struct {
	decl   *declaration
	root   string
	outDir string
	seed   int64
	window time.Duration
	gwBin  string
}

// env is what one execution is given: `runs` windows of length window, the
// first of them warming up.
func (b *bench) env(tr *tracing, window time.Duration, runs int) *env {
	return &env{
		seed: b.seed, tr: tr, root: b.root, build: filepath.Join(b.root, "bench", ".build"),
		gwBin: b.gwBin, window: window, runs: runs,
	}
}

func run(args []string) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	workloadName := fs.String("workload", "", "run only this workload, end-to-end or traced as -trace says (default: all five, both ways)")
	seed := fs.Int64("seed", 1, "seed for every tenant sequence, request mix and protocol Rand stream")
	seconds := fs.Float64("seconds", defaultWindowSec, "measured window per workload, after warm-up")
	trace := fs.Int("trace", 0, "with -workload: 0 for the end-to-end metrics, 1 for the traced run's per-layer metrics")
	repeat := fs.Int("repeat", 1, "run this many end-to-end sets and print each metric's spread against its bound")
	outDir := fs.String("out", "", "directory for result and span files (default bench/.build/out)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "bench: unexpected arguments %v\n", fs.Args())
		return 2
	}
	window := time.Duration(*seconds * float64(time.Second))
	if window <= 0 || *repeat < 1 || *trace < 0 || *trace > 1 {
		fmt.Fprintln(os.Stderr, "bench: -seconds and -repeat must be positive, -trace 0 or 1")
		return 2
	}
	oneWorkload := *workloadName != ""

	started := time.Now()
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	fail := func(err error) int {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}

	root, err := moduleRoot()
	if err != nil {
		return fail(err)
	}
	decl, err := loadDeclaration(root)
	if err != nil {
		return fail(err)
	}
	b := &bench{decl: decl, root: root, seed: *seed, window: window, outDir: *outDir}
	if b.outDir == "" {
		b.outDir = filepath.Join(root, "bench", ".build", "out")
	}

	selected := specs
	if oneWorkload {
		sp, ok := findSpec(*workloadName)
		if !ok {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *workloadName)
			return 2
		}
		selected = []spec{sp}
	}
	// Sized for this box: never more client goroutines or connections
	// than processors, or clients would time each other's scheduling.
	for _, sp := range selected {
		if sp.clients > runtime.NumCPU() {
			fmt.Fprintf(os.Stderr, "bench: %s drives %d clients but this machine has %d processors; refusing to run\n",
				sp.name, sp.clients, runtime.NumCPU())
			return 1
		}
	}

	envRec := environment{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Workload: 1, GoVersion: runtime.Version(),
		CPUModel: cpuModel(), GitCommit: gitCommit(root), Seed: *seed, WindowS: window.Seconds(),
	}
	if err := os.MkdirAll(b.outDir, 0o755); err != nil {
		return fail(err)
	}
	// Compilation is never timed: build the gateway before anything runs.
	if b.gwBin, err = buildGateway(b.env(nil, 0, 0)); err != nil {
		return fail(err)
	}

	report := struct {
		Env    environment    `json:"env"`
		Sets   [][]*runResult `json:"end_to_end_sets,omitempty"`
		Traced []*runResult   `json:"traced,omitempty"`
	}{}
	ok := true

	if !oneWorkload || *trace == 0 {
		for set := 0; set < *repeat; set++ {
			var results []*runResult
			for _, sp := range selected {
				res, err := b.endToEnd(ctx, sp)
				if err != nil {
					return fail(err)
				}
				printResult(res, fmt.Sprintf("set %d/%d, seed %d, window %v", set+1, *repeat, *seed, window))
				ok = ok && res.Correct
				results = append(results, res)
			}
			report.Sets = append(report.Sets, results)
		}
		if *repeat > 1 {
			b.printSpreads(report.Sets)
		}
	}
	if !oneWorkload || *trace == 1 {
		// The traced pass splits one window: a quarter untraced and a
		// quarter traced per workload (half of each warm-up), half for the
		// ladders.
		var ladders map[string]float64
		var counts map[string]int
		tr := newTracing()
		ladders, counts, err = runLadders(ctx, b.env(tr, 0, 0), window/2)
		if err != nil {
			return fail(fmt.Errorf("ladders: %w", err))
		}
		if err := tr.spans.writeJSONL(filepath.Join(b.outDir, "spans-ladders.jsonl")); err != nil {
			return fail(err)
		}
		for _, sp := range selected {
			res, err := b.traced(ctx, sp, ladders, counts)
			if err != nil {
				return fail(err)
			}
			printResult(res, fmt.Sprintf("traced, seed %d, window %v", *seed, window/8))
			ok = ok && res.Correct
			report.Traced = append(report.Traced, res)
		}
	}

	envRec.WallS = time.Since(started).Seconds()
	report.Env = envRec
	envLine, _ := json.Marshal(envRec) //nolint:errcheck // plain struct
	fmt.Printf("env %s\n", envLine)
	full, _ := json.Marshal(report) //nolint:errcheck // plain struct
	resultPath := filepath.Join(b.outDir, fmt.Sprintf("result-%d.json", started.UnixNano()))
	if err := os.WriteFile(resultPath, append(full, '\n'), 0o644); err != nil {
		return fail(err)
	}

	// Last line of standard output: with -workload, the driver's contract
	// object; otherwise the whole report.
	if oneWorkload {
		var res *runResult
		if *trace == 0 {
			res = report.Sets[len(report.Sets)-1][0]
		} else {
			res = report.Traced[0]
		}
		line, _ := json.Marshal(struct { //nolint:errcheck // plain struct
			Correct   bool                   `json:"correct"`
			Attempted int64                  `json:"attempted"`
			Failed    int64                  `json:"failed"`
			Metrics   map[string]metricValue `json:"metrics"`
		}{res.Correct, res.Attempted, res.Failed, contractMetrics(res.Metrics)})
		fmt.Printf("%s\n", line)
	} else {
		fmt.Printf("%s\n", full)
	}
	if !ok {
		fmt.Fprintln(os.Stderr, "bench: correctness oracle failed")
		return 1
	}
	return 0
}

// contractMetrics strips the sample counts: the driver's object carries
// exactly value and unit.
func contractMetrics(in map[string]metricValue) map[string]metricValue {
	out := make(map[string]metricValue, len(in))
	for k, v := range in {
		out[k] = metricValue{Value: v.Value, Unit: v.Unit}
	}
	return out
}

// endToEnd runs one workload untraced — no counters, tracer or spans
// attached — over measuredWindows equal parts of the window, and reports
// the declared end-to-end metrics at the windows' quiet quartile.
func (b *bench) endToEnd(ctx context.Context, sp spec) (*runResult, error) {
	e := b.env(nil, b.window/measuredWindows, warmupWindows+measuredWindows)
	m, setupS, err := execute(ctx, sp, e, sp.setups)
	if err != nil {
		return nil, err
	}
	measured := m.windows[warmupWindows:]
	r := quietQuartile(measured)
	var ops, coins int
	for _, w := range measured {
		ops += len(w.ops)
		coins += int(w.coins)
	}
	values := map[string]metricValue{
		"coins_per_s":    {Value: r.coinsPerS, Samples: coins},
		"latency_p50_us": {Value: r.p50US, Samples: ops},
		"setup_s":        {Value: percentile(sortedCopy(setupS), 25), Samples: len(setupS)},
	}
	// The tail and the CPU cost are not bounded metrics (see README.md);
	// the traced run declares them, this run shows them: the tail over
	// every op of the measured windows, the cost at their quiet quartile.
	tailUS, tailPct := tailOf(measured, sp.tailPct)
	m.info = append(m.info,
		fmt.Sprintf("latency_tail_us (p%v of %d ops, not bounded): %.6g", tailPct, ops, tailUS),
		fmt.Sprintf("cpu_s_per_kcoin (not bounded): %.6g", r.cpuSPerKCoin))
	return b.result(sp, m, values, b.decl.EndToEnd)
}

// traced runs one workload twice over an eighth of the window each (after
// as long a warm-up) — untraced, then with counters, tracer and
// benchmark-side spans attached — and reports every declared per-layer
// metric: the traced execution's own, the ladders', and 0 for a layer the
// workload does not touch or cannot see into from outside a process.
func (b *bench) traced(ctx context.Context, sp spec, ladders map[string]float64, counts map[string]int) (*runResult, error) {
	window := b.window / 8
	plain, _, err := execute(ctx, sp, b.env(nil, window, 2), 1)
	if err != nil {
		return nil, err
	}
	tr := newTracing()
	var goroutines atomic.Int64
	sampler := time.AfterFunc(window*3/2, func() { goroutines.Store(int64(runtime.NumGoroutine())) })
	m, _, err := execute(ctx, sp, b.env(tr, window, 2), 1)
	sampler.Stop()
	if err != nil {
		return nil, err
	}
	if err := tr.spans.writeJSONL(filepath.Join(b.outDir, "spans-"+sp.name+".jsonl")); err != nil {
		return nil, err
	}

	values := make(map[string]metricValue)
	for name, v := range ladders {
		values[name] = metricValue{Value: v, Samples: counts[name]}
	}
	coins := int(m.last().coins)
	tailUS, tailPct := tailOf(plain.windows[1:], sp.tailPct)
	values["latency_tail_us"] = metricValue{Value: tailUS, Samples: len(plain.last().ops)}
	values["cpu_s_per_kcoin"] = metricValue{Value: reduce(plain.last()).cpuSPerKCoin, Samples: int(plain.last().coins)}
	if tailPct != sp.tailPct {
		m.info = append(m.info, fmt.Sprintf("window too short for p%v: latency_tail_us is p%v", sp.tailPct, tailPct))
	}
	plainRate := float64(plain.last().coins) / plain.last().seconds
	tracedRate := float64(coins) / m.last().seconds
	values["obs.trace_overhead_frac"] = metricValue{Value: 1 - tracedRate/plainRate, Samples: coins}
	values["proc.peak_rss_mb"] = metricValue{Value: peakRSSMB(os.Getpid())}
	pauses := gcPausesUS()
	values["proc.gc_pause_tail_us"] = metricValue{
		Value: percentile(pauses, supportedTail(len(pauses))), Samples: len(pauses),
	}
	values["proc.goroutines"] = metricValue{Value: float64(goroutines.Load())}
	for name, v := range m.layer {
		values[name] = metricValue{Value: v, Samples: coins}
	}
	m.attempted += plain.attempted
	m.failed += plain.failed
	m.notes = append(m.notes, plain.notes...)
	return b.result(sp, m, values, b.decl.PerLayer)
}

// gcPausesUS returns the recent GC stop-the-world pauses, ascending, in µs.
func gcPausesUS() []float64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	n := int(ms.NumGC)
	if n > len(ms.PauseNs) {
		n = len(ms.PauseNs)
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(ms.PauseNs[i]) / 1e3
	}
	return sortedCopy(out)
}

// result attaches units from the declaration and enforces the inventory:
// every declared metric is reported (0 when the workload does not feed it,
// per-layer only) and no undeclared name is emitted.
func (b *bench) result(sp spec, m *measurement, values map[string]metricValue, declared []metricDecl) (*runResult, error) {
	out := make(map[string]metricValue, len(declared))
	fed := make(map[string]bool, len(values))
	for name := range values {
		fed[name] = true
	}
	for _, d := range declared {
		v := values[d.Name]
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			return nil, fmt.Errorf("%s: metric %q is %v: the window held no work to divide by", sp.name, d.Name, v.Value)
		}
		v.Unit = d.Unit
		out[d.Name] = v
		delete(values, d.Name)
	}
	if len(values) > 0 {
		undeclared := make([]string, 0, len(values))
		for name := range values {
			undeclared = append(undeclared, name)
		}
		sort.Strings(undeclared)
		return nil, fmt.Errorf("%s: measured but not declared in BENCHMARK.json: %v", sp.name, undeclared)
	}
	res := &runResult{
		Workload: sp.name, Correct: m.failed == 0, Attempted: m.attempted, Failed: m.failed,
		FailedFrac: float64(m.failed) / float64(m.attempted), Metrics: out, Notes: m.notes, Info: m.info, fed: fed,
	}
	return res, nil
}

func printResult(r *runResult, header string) {
	fmt.Printf("== %s (%s)\n", r.Workload, header)
	names := make([]string, 0, len(r.Metrics))
	for name := range r.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		v := r.Metrics[name]
		fmt.Printf("  %-34s %14.6g %-8s n=%d\n", name, v.Value, v.Unit, v.Samples)
	}
	fmt.Printf("  %-34s %14.6g %-8s %d of %d\n", "failed_frac", r.FailedFrac, "ratio", r.Failed, r.Attempted)
	for _, note := range r.Info {
		fmt.Printf("  note: %s\n", note)
	}
	for _, note := range r.Notes {
		fmt.Printf("  FAILED: %s\n", note)
	}
}

// printSpreads is -repeat's summary: per (metric, workload) the median, min,
// max and quartile spread over the sets, against the metric's bound.
func (b *bench) printSpreads(sets [][]*runResult) {
	fmt.Printf("== spread over %d sets (quartile distance / median, against BENCHMARK.json's bound)\n", len(sets))
	fmt.Printf("  %-14s %-16s %12s %12s %12s %8s %7s\n", "workload", "metric", "median", "min", "max", "spread", "bound")
	for i, first := range sets[0] {
		for _, d := range b.decl.EndToEnd {
			var xs []float64
			for _, set := range sets {
				xs = append(xs, set[i].Metrics[d.Name].Value)
			}
			s := sortedCopy(xs)
			verdict := "ok"
			if spread(xs) > d.Bound {
				verdict = "WIDE"
			}
			fmt.Printf("  %-14s %-16s %12.6g %12.6g %12.6g %7.2f%% %6.0f%% %s\n",
				first.Workload, d.Name, median(xs), s[0], s[len(s)-1], 100*spread(xs), 100*d.Bound, verdict)
		}
	}
}
