package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"

	"repro/internal/gf2k"
	"repro/internal/simnet"
)

// Serving shape shared by serve-draw1, serve-batch32, gw-http (per cell) and
// the draw ladder: beacongw's per-cell defaults with the refill threshold
// raised to 8. mint-n13 and the mint ladder use the mint shape.
const (
	fieldK = 32

	serveN, serveT   = 7, 1
	serveBatch       = 96
	serveThreshold   = 8
	serveHighWater   = 64
	serveQueue       = 256
	gwCells          = 2
	gwConns          = 2
	mintN, mintT     = 13, 2
	mintBatch        = 256
	mintSeedCoins    = 16384
	unlimitedRounds  = 1 << 40
	referenceCoins   = 20000 // stream prefix replayed against a reference Service
	blockCoins       = 32    // coins per request on serve-batch32, per op on mesh-emit
	meshCoinsPerS    = 1600  // mesh-emit's fixed work per second of window (24 000 per 15 s)
	gwRate           = 3000  // gw-http offered load, requests per second
	gwTenants        = 64
	gwBatchN         = 8
	defaultWindowSec = 20
)

// env is what one workload execution is given.
type env struct {
	seed   int64
	tr     *tracing      // nil on the untraced run
	root   string        // module root: where cmd/beacongw is built from
	build  string        // <root>/bench/.build: binaries and scratch state
	gwBin  string        // the built cmd/beacongw binary (see buildGateway)
	window time.Duration // length of one window
	runs   int           // run calls a workload will get: the warm-up windows plus the measured ones
}

// scratchDir makes a fresh directory under the build dir; state the
// workloads persist (daemon stores, coin logs) never leaves the checkout.
func (e *env) scratchDir(label string) (string, error) {
	if err := os.MkdirAll(e.build, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(e.build, fmt.Sprintf("tmp-%d-%s-", os.Getpid(), label))
}

// op is one completed operation inside the window.
type op struct {
	latUS float64 // latency in µs
	coins int32   // coins it delivered, minted or emitted
}

// window is what one run call measured.
type window struct {
	seconds float64 // how long it actually lasted
	ops     []op    // every op completed inside it
	cpuS    float64 // serving-process user+sys CPU seconds between its edges
	coins   int64   // coins delivered, minted or emitted inside it
}

// measurement is what one execution of a workload yields.
type measurement struct {
	windows []window // one per run call, the warm-up's first

	attempted int64    // ops attempted since construction plus oracle checks
	failed    int64    // ops errored or refused plus oracle checks failed
	notes     []string // one line per failure
	info      []string // remarks that are not failures
	// layer holds the workload-class per-layer metrics, taken over the last
	// window; only a traced execution fills it.
	layer map[string]float64
}

// last is the final window, the one a traced execution reports.
func (m *measurement) last() window { return m.windows[len(m.windows)-1] }

// check counts one oracle check and, when it does not hold, its failure.
func (m *measurement) check(ok bool, format string, args ...interface{}) {
	m.attempted++
	if !ok {
		m.failed++
		m.notes = append(m.notes, fmt.Sprintf(format, args...))
	}
}

// workload is one of the five named traffic mixes. The harness calls setup
// (timed: constructor to first op served and first refill absorbed), run
// env.runs times (each call is one window of env.window; the first ones
// warm up) and finish (teardown plus correctness oracle); close releases
// whatever is still up on any path and is idempotent.
type workload interface {
	setup(ctx context.Context) error
	run(ctx context.Context) error
	finish(ctx context.Context) (*measurement, error)
	close()
}

// spec declares a workload: its fixed name, how many concurrent clients or
// connections it drives, the tail percentile its sample count supports (at
// least ten samples beyond it in a default run) and how many timed set-ups
// a run makes (about a second's worth).
type spec struct {
	name    string
	clients int
	tailPct float64
	setups  int
	new     func(e *env) workload
}

var specs = []spec{
	{"serve-draw1", 1, 99, 40, func(e *env) workload { return newServe(e, false) }},
	{"serve-batch32", 2, 99, 40, func(e *env) workload { return newServe(e, true) }},
	{"mint-n13", 1, 95, 11, func(e *env) workload { return newMint(e) }},
	{"mesh-emit", 1, 95, 9, func(e *env) workload { return newMesh(e) }},
	{"gw-http", 2, 99, 25, func(e *env) workload { return newGateway(e) }},
}

func findSpec(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// An end-to-end run sets a workload up spec.setups times (setup_s is their
// median), warms it up for warmupWindows windows and measures
// measuredWindows more, each a fortieth of -seconds: half a second by
// default, longer than anything the program does periodically and shorter
// than the host's disturbances. Every other end-to-end metric is taken over
// each window whole and reported at the windows' quiet quartile (see
// quietQuartile). The warm-up is there because the first second after this
// box has idled runs at 0.6 of full speed, and lazy initialisation belongs
// to no window.
const (
	warmupWindows   = 4
	measuredWindows = 40
)

// execute runs one workload on one processor that never halts (see
// onOneProcessor): `setups` timed set-ups, all but the last torn down at
// once; then e.runs windows and the oracle on the last.
func execute(ctx context.Context, sp spec, e *env, setups int) (m *measurement, setupS []float64, err error) {
	restore, err := onOneProcessor()
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %w", sp.name, err)
	}
	defer func() {
		if rerr := restore(); rerr != nil && err == nil {
			m, setupS, err = nil, nil, fmt.Errorf("%s: %w", sp.name, rerr)
		}
	}()
	for {
		w := sp.new(e)
		t0 := time.Now()
		err := w.setup(ctx)
		setupS = append(setupS, time.Since(t0).Seconds())
		if err != nil {
			w.close()
			return nil, nil, fmt.Errorf("%s: setup: %w", sp.name, err)
		}
		if len(setupS) < setups {
			w.close()
			continue
		}
		defer w.close()
		for i := 0; i < e.runs; i++ {
			if err := w.run(ctx); err != nil {
				return nil, nil, fmt.Errorf("%s: run: %w", sp.name, err)
			}
		}
		res, err := w.finish(ctx)
		if err != nil {
			return nil, nil, fmt.Errorf("%s: finish: %w", sp.name, err)
		}
		return res, setupS, nil
	}
}

// --- process accounting -------------------------------------------------------

// processCPU is the CPU time a process (0: this one) has used so far, user
// and system, every thread it has or had: its CPU-time clock, which the
// scheduler keeps to the nanosecond where getrusage and /proc/<pid>/stat
// round to ticks — too coarse for half-second windows.
func processCPU(pid int) (float64, error) {
	clock := uintptr(2) // CLOCK_PROCESS_CPUTIME_ID
	if pid != 0 {
		clock = uintptr(^pid)<<3 | 2 // as clock_getcpuclockid(3) builds it: CPUCLOCK_SCHED of that process
	}
	var ts syscall.Timespec
	if _, _, errno := syscall.RawSyscall(syscall.SYS_CLOCK_GETTIME, clock, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0, fmt.Errorf("CPU-time clock of process %d: %w", pid, errno)
	}
	return float64(ts.Sec) + float64(ts.Nsec)/1e9, nil
}

// selfCPU is this process's user+sys CPU time so far.
func selfCPU() float64 {
	s, _ := processCPU(0) //nolint:errcheck // a process can always read its own clock
	return s
}

// peakRSSMB reads VmHWM of a process from /proc (0 when unreadable).
func peakRSSMB(pid int) float64 {
	data, err := os.ReadFile(filepath.Join("/proc", fmt.Sprint(pid), "status"))
	if err != nil {
		return 0
	}
	var kb float64
	for _, line := range strings.Split(string(data), "\n") {
		if _, err := fmt.Sscanf(line, "VmHWM: %f kB", &kb); err == nil {
			return kb / 1024
		}
	}
	return 0
}

// --- lockstep loop --------------------------------------------------------------

// lockstepLoop runs body once per iteration on every node (one goroutine
// each; the nodes of one in-memory network, or one node from each of n peer
// networks), all nodes executing the same number of iterations: until
// `until` has passed and at least minIters ran, or maxIters ran (0 = no
// cap). Player 0 watches the clock: when it finishes iteration i and decides
// to stop, it publishes "stop after i+1". Every body consumes at least one
// network round, so no other player can finish iteration i+1 before that
// store is visible through the round barrier. onIter, when non-nil, is
// called by player 0 after each of its iterations. Nodes are halted when
// their loop returns. It returns each player's last body result and the
// iteration count.
func lockstepLoop(nodes []*simnet.Node, until time.Time, minIters, maxIters int64,
	body func(nd *simnet.Node, iter int64) (interface{}, error),
	onIter func(iter int64, done time.Time)) ([]interface{}, int64, error) {

	var stopAfter atomic.Int64
	stopAfter.Store(math.MaxInt64)
	out := make([]interface{}, len(nodes))
	errs := make([]error, len(nodes))
	var iters int64
	var wg sync.WaitGroup
	for p, nd := range nodes {
		wg.Add(1)
		go func(p int, nd *simnet.Node) {
			defer wg.Done()
			defer nd.Halt()
			for iter := int64(0); ; iter++ {
				v, err := body(nd, iter)
				if err != nil {
					errs[p] = fmt.Errorf("player %d, iteration %d: %w", p, iter, err)
					return
				}
				out[p] = v
				if p == 0 {
					now := time.Now()
					iters = iter + 1
					if onIter != nil {
						onIter(iter, now)
					}
					timeUp := iter+1 >= minIters && now.After(until)
					capped := maxIters > 0 && iter+2 >= maxIters
					if (timeUp || capped) && stopAfter.Load() == math.MaxInt64 {
						stopAfter.Store(iter + 1)
					}
				}
				if iter >= stopAfter.Load() {
					return
				}
			}
		}(p, nd)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, 0, err
		}
	}
	return out, iters, nil
}

// nodesOf lists the nodes of one in-memory network.
func nodesOf(nw *simnet.Network) []*simnet.Node {
	nodes := make([]*simnet.Node, nw.N())
	for i := range nodes {
		nodes[i] = nw.Node(i)
	}
	return nodes
}

// elementsEqual reports whether two coin sequences are identical.
func elementsEqual(a, b []gf2k.Element) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
