package main

import (
	"context"
	"math"
	"net"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/beacon"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

	benchOnce sync.Once
	benchInst *bench
	benchErr  error
)

// TestMain lets the test binary stand in for the benchmark binary when
// onOneProcessor re-executes it as the idle-priority spinner.
func TestMain(m *testing.M) {
	if os.Getenv(spinEnv) != "" {
		spinAtIdlePriority()
	}
	os.Exit(m.Run())
}

// testBench loads BENCHMARK.json and builds the gateway once for the whole
// test binary; results go to the test's temp dir, not the tree.
func testBench(t *testing.T, window time.Duration) *bench {
	t.Helper()
	benchOnce.Do(func() {
		root, err := moduleRoot()
		if err != nil {
			benchErr = err
			return
		}
		decl, err := loadDeclaration(root)
		if err != nil {
			benchErr = err
			return
		}
		benchInst = &bench{decl: decl, root: root, seed: 1}
		benchInst.gwBin, benchErr = buildGateway(benchInst.env(nil, 0, 0))
	})
	if benchErr != nil {
		t.Fatal(benchErr)
	}
	b := *benchInst
	b.window = window
	b.outDir = t.TempDir()
	return &b
}

// TestSmokeAndInventory runs every workload over a 300 ms window, end to end
// and traced, asserting failed_frac == 0, and checks the inventory both ways:
// every metric and workload BENCHMARK.json names is emitted, and every
// emitted name is declared.
func TestSmokeAndInventory(t *testing.T) {
	ctx := context.Background()
	b := testBench(t, 300*time.Millisecond)

	seen := make(map[string]bool)
	declared := func(kind string, ds []metricDecl) map[string]bool {
		out := make(map[string]bool)
		for _, d := range ds {
			if !nameRE.MatchString(d.Name) {
				t.Errorf("%s metric name %q does not match [A-Za-z0-9_.-]+", kind, d.Name)
			}
			if !unitRE.MatchString(d.Unit) || (d.Better != "higher" && d.Better != "lower") {
				t.Errorf("%s metric %q: unit %q or better %q is malformed", kind, d.Name, d.Unit, d.Better)
			}
			if seen[d.Name] {
				t.Errorf("name %q is declared twice", d.Name)
			}
			seen[d.Name] = true
			out[d.Name] = true
		}
		return out
	}
	e2e := declared("end-to-end", b.decl.EndToEnd)
	layer := declared("per-layer", b.decl.PerLayer)
	if !e2e["setup_s"] {
		t.Error("BENCHMARK.json must declare setup_s")
	}

	if len(b.decl.Workloads) != len(specs) {
		t.Fatalf("BENCHMARK.json names %d workloads, the program has %d", len(b.decl.Workloads), len(specs))
	}
	for i, w := range b.decl.Workloads {
		if w.Name != specs[i].name {
			t.Errorf("workload %d: BENCHMARK.json says %q, the program %q", i, w.Name, specs[i].name)
		}
		if !nameRE.MatchString(w.Name) || seen[w.Name] {
			t.Errorf("workload name %q is malformed or reused", w.Name)
		}
		seen[w.Name] = true
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %q: why must be one line of at most 200 characters", w.Name)
		}
	}

	ladders, counts, err := runLadders(ctx, b.env(newTracing(), 0, 0), b.window)
	if err != nil {
		t.Fatalf("ladders: %v", err)
	}
	fed := make(map[string]bool)
	for _, sp := range specs {
		if sp.clients > runtime.NumCPU() {
			t.Logf("%s needs %d processors, have %d: skipped", sp.name, sp.clients, runtime.NumCPU())
			continue
		}
		for _, run := range []struct {
			kind     string
			declared map[string]bool
			do       func() (*runResult, error)
		}{
			{"end-to-end", e2e, func() (*runResult, error) { return b.endToEnd(ctx, sp) }},
			{"traced", layer, func() (*runResult, error) { return b.traced(ctx, sp, ladders, counts) }},
		} {
			t0 := time.Now()
			res, err := run.do()
			if err != nil {
				t.Fatalf("%s, %s: %v", sp.name, run.kind, err)
			}
			t.Logf("%s, %s: %v", sp.name, run.kind, time.Since(t0))
			if res.Failed != 0 || !res.Correct || res.FailedFrac != 0 {
				t.Errorf("%s, %s: failed_frac = %v (%d of %d): %v", sp.name, run.kind, res.FailedFrac, res.Failed, res.Attempted, res.Notes)
			}
			if len(res.Metrics) != len(run.declared) {
				t.Errorf("%s: %s run reports %d metrics, BENCHMARK.json declares %d", sp.name, run.kind, len(res.Metrics), len(run.declared))
			}
			for name, v := range res.Metrics {
				if !run.declared[name] {
					t.Errorf("%s: %s metric %q is emitted but not declared", sp.name, run.kind, name)
				}
				if run.kind == "end-to-end" && (!(v.Value > 0) || math.IsInf(v.Value, 0)) {
					t.Errorf("%s: end-to-end metric %q = %v, want a positive number", sp.name, name, v.Value)
				}
			}
			for name := range res.fed {
				fed[name] = true
			}
		}
	}
	if runtime.NumCPU() >= 2 {
		for name := range layer {
			if !fed[name] {
				t.Errorf("per-layer metric %q is declared but no ladder or workload measures it", name)
			}
		}
	}

	// Span files are written where -out says, never into the tree.
	spans, err := filepath.Glob(filepath.Join(b.outDir, "spans-*.jsonl"))
	if err != nil || len(spans) == 0 {
		t.Errorf("traced runs wrote no span files to %s (%v)", b.outDir, err)
	}
}

// TestTeardown checks that stopping a mesh or a gateway leaves no process
// and no listening port behind.
func TestTeardown(t *testing.T) {
	b := testBench(t, time.Second)
	rebind := func(addr string) {
		t.Helper()
		ln, err := net.Listen("tcp", addr)
		if err != nil {
			t.Errorf("%s is still bound after teardown: %v", addr, err)
			return
		}
		ln.Close()
	}

	cl, err := startMesh(b.env(nil, 0, 0), 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.waitFor(context.Background(), func(st beacon.DaemonStats) bool { return st.LogLen > 0 }); err != nil {
		t.Fatal(err)
	}
	cl.stop() // mid-run: the daemons are far from their Emit target
	for _, addr := range cl.addrs {
		rebind(addr)
	}

	proc, err := startGateway(b.gwBin, 1)
	if err != nil {
		t.Fatal(err)
	}
	pid := proc.cmd.Process.Pid
	proc.stop()
	if err := syscall.Kill(pid, 0); err != syscall.ESRCH {
		t.Errorf("gateway pid %d still exists after stop: %v", pid, err)
	}
	rebind(strings.TrimPrefix(proc.base, "http://"))
}

// TestStats pins the quartile rule to Python's statistics.quantiles(values,
// n=4), which the acceptance check uses, and the supported-tail rule.
func TestStats(t *testing.T) {
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	// quantiles → [2.75, 5.5, 8.25]; (8.25 − 2.75) / 5.5 = 1.
	if got := spread(xs); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread = %v, want 1", got)
	}
	if got := supportedTail(1500); got != 99 {
		t.Errorf("supportedTail(1500) = %v, want 99", got)
	}
	if got := supportedTail(600); got != 95 {
		t.Errorf("supportedTail(600) = %v, want 95", got)
	}
}
