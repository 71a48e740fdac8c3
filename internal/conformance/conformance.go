// Package conformance is the seeded adversarial conformance suite: it
// sweeps {attack × protocol × (n, t)} configurations through the simnet
// fault-injection layer and asserts the paper's stated guarantees directly
// on the outputs — honest players agree, disqualified dealers are exactly
// the cheating ones, grades never split 2-vs-0, sealed coins are identical
// across honest players and unpredictable before Coin-Expose.
//
// Every scenario is a pure function of its (seed, config) pair: player
// randomness, adversary randomness and message interception are all derived
// from Scenario.Seed, and simnet delivers deterministically, so a failing
// table entry reproduces exactly from the name printed by `go test`. Each
// run is traced into an in-memory obs ring; failures attach the tail of the
// timeline for diagnosis.
//
// The non-test files hold the scenario runners (one per protocol) so that
// experiments and future fuzz drivers can execute the same scenarios
// outside `go test`.
package conformance

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/coin"
	"repro/internal/gf2k"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/simnet"
)

// TraceDirEnv names the directory where failing scenarios dump their full
// canonical timeline as JSONL (one file per scenario). CI sets it and
// uploads the directory as a failure artifact; unset means no dump.
const TraceDirEnv = "CONFORMANCE_TRACE_DIR"

// Scenario names one conformance case: a protocol under a named attack at a
// given size, fully reproducible from Seed.
type Scenario struct {
	// Protocol selects the runner: "vss", "batch-vss", "gradecast", "ba",
	// "coingen" or "coin-expose".
	Protocol string
	// Attack is the runner-specific attack key; "honest" is the control.
	Attack string
	// Variant is an optional protocol-specific knob (e.g. the BA input
	// pattern).
	Variant string
	// N, T are the network size and fault bound; M the batch size where the
	// protocol has one (for "coin-expose", the coins opened per round).
	N, T, M int
	// Seed derives every random choice in the scenario.
	Seed int64
	// Width, when > 1, runs every player's pure compute through a
	// parallel.Pool of that width (per-player forks of one root, as a
	// beacon deployment would). Verdicts and canonical transcripts must be
	// byte-identical to the serial run — that invariance is itself part of
	// the conformance contract.
	Width int
	// Schedule, when non-nil, runs the scenario under a hostile-network
	// schedule (simnet.WithSchedule): seeded delivery jitter, partitions
	// with heals, crash windows, within-round reordering. Players the
	// schedule disturbs (Schedule.Disturbed — charged against the fault
	// budget t exactly like corrupted players) are exempted from the
	// honest-output assertions; see the runners. The schedule-exploration
	// harness in conformance/schedules samples these.
	Schedule *simnet.Schedule
}

// String renders the scenario as the subtest name — quoting it back into
// the tables in suite_test.go reproduces the exact run.
func (s Scenario) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s/%s", s.Protocol, s.Attack)
	if s.Variant != "" {
		fmt.Fprintf(&b, "+%s", s.Variant)
	}
	fmt.Fprintf(&b, "/n=%d,t=%d", s.N, s.T)
	if s.M > 0 {
		fmt.Fprintf(&b, ",m=%d", s.M)
	}
	fmt.Fprintf(&b, ",seed=%d", s.Seed)
	if s.Width > 1 {
		fmt.Fprintf(&b, ",w=%d", s.Width)
	}
	if s.Schedule != nil {
		// The schedule seed completes the (scenario-seed, schedule-seed)
		// repro pair; the full rule list is printed by failf on failure.
		fmt.Fprintf(&b, ",sched=%d", s.Schedule.Seed)
	}
	return b.String()
}

// pools returns one compute pool per player: nil (serial) for Width ≤ 1,
// otherwise per-player forks sharing one root's capacity tokens.
func (s Scenario) pools() []*parallel.Pool {
	out := make([]*parallel.Pool, s.N)
	if s.Width > 1 {
		root := parallel.New(s.Width)
		for i := range out {
			out[i] = root.Fork()
		}
	}
	return out
}

// env is the per-scenario test substrate: a traced network plus trusted
// seed-coin batches for the protocols that consume sealed coins.
type env struct {
	sc    Scenario
	field gf2k.Field
	ring  *obs.Ring
	nw    *simnet.Network
	// seeds[i] is player i's batch of pre-dealt sealed coins; seedVals the
	// corresponding coin values (known to the test, not to the players).
	seeds    []*coin.Batch
	seedVals []gf2k.Element
}

// newEnv builds the scenario substrate. All randomness below the scenario —
// the trusted seed dealing now, player and adversary rngs later — derives
// from sc.Seed, and the interceptor (nil for player-level attacks) is
// installed before the first round, so the run is a pure function of
// (sc, ic).
func newEnv(sc Scenario, ic simnet.Interceptor, seedCoins int) (*env, error) {
	f := gf2k.MustNew(32)
	master := rand.New(rand.NewSource(sc.Seed))
	seeds, vals, err := coin.DealTrusted(f, sc.N, sc.T, seedCoins, master)
	if err != nil {
		return nil, fmt.Errorf("conformance: deal trusted seed: %w", err)
	}
	if err := sc.Schedule.Validate(sc.N); err != nil {
		return nil, fmt.Errorf("conformance: %w", err)
	}
	ring := obs.NewRing(1 << 15)
	nw := simnet.New(sc.N,
		simnet.WithTracer(obs.New(nil, ring)),
		simnet.WithMaxRounds(4096),
		simnet.WithInterceptor(ic),
		simnet.WithSchedule(sc.Schedule),
	)
	return &env{sc: sc, field: f, ring: ring, nw: nw, seeds: seeds, seedVals: vals}, nil
}

// playerRand returns player i's private randomness source, derived from the
// scenario seed.
func (e *env) playerRand(i int) *rand.Rand {
	return rand.New(rand.NewSource(e.sc.Seed + 7919*int64(i+1)))
}

// attackSeed derives the adversary's randomness for the player at index i.
func (e *env) attackSeed(i int) int64 {
	return e.sc.Seed ^ 0x5a5a5a5a ^ int64(i)<<16
}

// Diagnose renders the tail of the captured trace — the obs timeline of the
// last `lastRounds` worth of events — for attaching to a failure report.
func (e *env) Diagnose(lastEvents int) string {
	events := e.ring.Events()
	if len(events) > lastEvents {
		events = events[len(events)-lastEvents:]
	}
	var b strings.Builder
	fmt.Fprintf(&b, "scenario %s, trace tail (%d events):\n", e.sc, len(events))
	obs.Timeline(&b, events)
	return b.String()
}

// failf wraps a property violation with the reproduction pair and trace
// tail, and (when TraceDirEnv is set) dumps the full canonical timeline for
// artifact upload.
func (e *env) failf(format string, args ...interface{}) error {
	e.dumpTrace()
	return fmt.Errorf("%s: %s\n%s", e.sc, fmt.Sprintf(format, args...), e.Diagnose(60))
}

// dumpTrace writes the scenario's complete event stream — in canonical,
// scheduler-independent order — as JSONL into $CONFORMANCE_TRACE_DIR. The
// file name is the scenario name with path-hostile characters flattened, so
// a CI artifact maps back to the failing subtest. Dump errors are swallowed:
// the trace is diagnostics for an already-failing run, never a new failure.
func (e *env) dumpTrace() {
	dir := os.Getenv(TraceDirEnv)
	if dir == "" {
		return
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return
	}
	name := strings.NewReplacer("/", "_", ",", "_", "=", "-", "+", "_").Replace(e.sc.String())
	f, err := os.Create(filepath.Join(dir, name+".jsonl"))
	if err != nil {
		return
	}
	defer f.Close()
	sink := obs.NewJSONL(f)
	for _, ev := range obs.CanonicalOrder(e.ring.Events()) {
		sink.Emit(ev)
	}
	_ = sink.Flush()
}

// assertable returns the players whose outputs the scenario's properties
// are asserted on: everyone neither corrupted by the attack nor disturbed
// by the hostile schedule. A disturbed player runs honest code, but the
// schedule damages its connectivity in ways the paper charges against the
// fault budget t (see simnet.Schedule.Disturbed) — its own outputs carry no
// guarantee, exactly like a corrupted player's, while the undisturbed
// majority's guarantees must survive.
func (s Scenario) assertable(corrupt []int) []int {
	exempt := append([]int(nil), corrupt...)
	exempt = append(exempt, s.Schedule.Disturbed(s.N)...)
	return honestSet(s.N, exempt)
}

// disturbed reports whether the scenario's schedule disturbs player i.
func (s Scenario) disturbed(i int) bool {
	for _, d := range s.Schedule.Disturbed(s.N) {
		if d == i {
			return true
		}
	}
	return false
}

// honestSet returns all indices not in corrupt, ascending.
func honestSet(n int, corrupt []int) []int {
	bad := map[int]bool{}
	for _, i := range corrupt {
		bad[i] = true
	}
	out := make([]int, 0, n)
	for i := 0; i < n; i++ {
		if !bad[i] {
			out = append(out, i)
		}
	}
	return out
}

// checkHonest returns an error if any honest player's run failed.
func checkHonest(e *env, results []simnet.PlayerResult, honest []int) error {
	for _, i := range honest {
		if results[i].Err != nil {
			return e.failf("honest player %d failed: %v", i, results[i].Err)
		}
	}
	return nil
}
