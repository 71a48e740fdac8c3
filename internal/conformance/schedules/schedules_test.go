package schedules

import (
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/conformance"
	"repro/internal/simnet"
)

// TestHostileMatrix is the harness gate: the full conformance matrix, each
// scenario under K sampled hostile schedules. A failure prints the
// (scenario, schedule-seed) repro pair, the sampled schedule, and its
// greedy shrink to a 1-minimal rule set.
func TestHostileMatrix(t *testing.T) {
	k := K()
	for _, sc := range conformance.Scenarios() {
		for j := 0; j < k; j++ {
			seed := ScheduleSeed(sc, j)
			t.Run(fmt.Sprintf("%s/sched=%d", sc, seed), func(t *testing.T) {
				if _, err := Run(sc, seed); err != nil {
					shrunk := Shrink(sc, Sample(sc, seed))
					t.Fatalf("%s\nshrunk schedule: %q\n%v", Repro(sc, seed), shrunk, err)
				}
			})
		}
	}
}

// TestHostileDeterministic replays one hostile run per protocol family and
// requires byte-identical fingerprints — the repro contract: the printed
// (scenario, schedule-seed) pair IS the execution. The named Coin-Gen rows
// are E16's conditions on one honest victim, player 5: delivery jitter, a
// partition with a timed heal, and a crash/recover window. Each run passes
// the scenario's Check (clique, structure and coin agreement at the
// undisturbed players); the log shows each honest player's attempts,
// clique and coins.
func TestHostileDeterministic(t *testing.T) {
	coingen := conformance.Scenario{Protocol: "coingen", Attack: "honest", N: 7, T: 1, M: 3, Seed: 5}
	const victim = 5
	cases := []struct {
		name  string // the condition; empty for a sampled schedule
		sc    conformance.Scenario
		sched *simnet.Schedule // nil: the scenario's first sampled schedule
	}{
		{"", conformance.Scenario{Protocol: "vss", Attack: "honest", N: 7, T: 2, M: 1, Seed: 1}, nil},
		{"", conformance.Scenario{Protocol: "batch-vss", Attack: "crash-verifier", N: 7, T: 2, M: 4, Seed: 2}, nil},
		{"", conformance.Scenario{Protocol: "gradecast", Attack: "echo-liar", N: 7, T: 2, Seed: 3}, nil},
		{"", conformance.Scenario{Protocol: "ba", Attack: "griefer-king", Variant: "mixed", N: 11, T: 2, Seed: 4}, nil},
		{"", conformance.Scenario{Protocol: "coingen", Attack: "deal-corrupt", N: 13, T: 2, M: 3, Seed: 5}, nil},
		{"jitter", coingen, &simnet.Schedule{Seed: 16, Reorder: true, Delays: []simnet.DelayRule{
			{From: victim, To: simnet.Wildcard, Start: 0, End: 48,
				Dist: simnet.Dist{Kind: simnet.DistUniform, Min: 1, Max: 3}},
		}}},
		{"partition+heal", coingen, &simnet.Schedule{Seed: 16, Reorder: true, Partitions: []simnet.PartitionRule{
			{Isolated: []int{victim}, Start: 2, Heal: 6},
		}}},
		{"crash-recover", coingen, &simnet.Schedule{Seed: 16, Reorder: true, Crashes: []simnet.CrashRule{
			{Player: victim, Start: 1, Recover: 4},
		}}},
	}
	for _, c := range cases {
		sched, name := c.sched, c.sc.String()
		if sched == nil {
			sched = Sample(c.sc, ScheduleSeed(c.sc, 0))
		} else {
			name = c.name + "/" + name
		}
		t.Run(name, func(t *testing.T) {
			fp1, err1 := RunWith(c.sc, sched)
			fp2, err2 := RunWith(c.sc, sched)
			if (err1 == nil) != (err2 == nil) {
				t.Fatalf("verdict flipped between identical runs: %v vs %v", err1, err2)
			}
			if err1 != nil {
				t.Fatalf("hostile run failed: scenario={%s} schedule=%q\n%v", c.sc, sched, err1)
			}
			if fp1 != fp2 {
				t.Fatalf("fingerprint differs between identical runs:\n%s\n%s", fp1, fp2)
			}
			t.Logf("%q: PASS, %s", sched, fp1)
		})
	}
}

// injectedScenario and injectedSchedule are a hand-built failing pair: two
// whole-run crashes blow the n = 3t+1 = 4 fault budget (the honest dealer
// cannot survive two network-dead verifiers with t = 1), padded with rules
// that are irrelevant to the failure — a reorder flag, a delay window and a
// crash window far past protocol end, and a late partition. The shrinker
// must strip the padding and keep exactly the two live crashes.
func injectedScenario() conformance.Scenario {
	return conformance.Scenario{Protocol: "vss", Attack: "honest", N: 4, T: 1, M: 1, Seed: 1}
}

func injectedSchedule() *simnet.Schedule {
	return &simnet.Schedule{
		Seed:    99,
		Reorder: true,
		Delays: []simnet.DelayRule{
			{From: 1, To: simnet.Wildcard, Start: 100, End: 104,
				Dist: simnet.Dist{Kind: simnet.DistFixed, Min: 2}},
		},
		Partitions: []simnet.PartitionRule{
			{Isolated: []int{1}, Start: 300, Heal: 304},
		},
		Crashes: []simnet.CrashRule{
			{Player: 1, Start: 0, Recover: 64},
			{Player: 2, Start: 0, Recover: 64},
			{Player: 2, Start: 200, Recover: 204},
		},
	}
}

// TestInjectedFailureRepro pins the failure-path plumbing end to end on the
// injected pair: the run fails, fails identically on replay (first line —
// the property violation and repro header — is byte-identical; the trace
// tail below it is diagnostics, not contract), and the schedule string
// round-trips through ParseSchedule to the same failure.
func TestInjectedFailureRepro(t *testing.T) {
	sc, s := injectedScenario(), injectedSchedule()
	_, err1 := RunWith(sc, s)
	if err1 == nil {
		t.Fatal("injected over-budget schedule did not fail")
	}
	_, err2 := RunWith(sc, s)
	if err2 == nil {
		t.Fatal("injected failure did not reproduce")
	}
	first := func(err error) string { return strings.SplitN(err.Error(), "\n", 2)[0] }
	if first(err1) != first(err2) {
		t.Fatalf("failure not byte-identical across replays:\n%q\n%q", first(err1), first(err2))
	}
	parsed, perr := simnet.ParseSchedule(s.String())
	if perr != nil {
		t.Fatalf("schedule string %q does not parse back: %v", s, perr)
	}
	_, err3 := RunWith(sc, parsed)
	if err3 == nil || first(err3) != first(err1) {
		t.Fatalf("parsed schedule %q does not reproduce the failure: %v", s, err3)
	}
}

// TestInjectedFailureShrinks pins the shrinker: the padded 6-rule injected
// schedule must shrink to exactly the two live crash rules, the shrunk
// schedule must still fail, and it must be 1-minimal — removing either
// remaining rule makes the scenario pass.
func TestInjectedFailureShrinks(t *testing.T) {
	sc, s := injectedScenario(), injectedSchedule()
	shrunk := Shrink(sc, s)
	if shrunk == nil {
		t.Fatal("Shrink returned nil for a failing schedule")
	}
	want := simnet.Schedule{
		Seed: 99,
		Crashes: []simnet.CrashRule{
			{Player: 1, Start: 0, Recover: 64},
			{Player: 2, Start: 0, Recover: 64},
		},
	}
	if shrunk.String() != want.String() {
		t.Fatalf("shrunk to %q, want %q", shrunk, &want)
	}
	if _, err := RunWith(sc, shrunk); err == nil {
		t.Fatal("shrunk schedule no longer fails")
	}
	for i := 0; i < shrunk.RuleCount(); i++ {
		if _, err := RunWith(sc, shrunk.WithoutRule(i)); err != nil {
			t.Fatalf("shrunk schedule is not 1-minimal: still fails without rule %d: %v", i, err)
		}
	}
	// Shrink on a passing schedule reports "nothing to shrink".
	if got := Shrink(sc, &simnet.Schedule{Seed: 1, Reorder: true}); got != nil {
		t.Fatalf("Shrink of a passing schedule returned %q, want nil", got)
	}
}

// TestBenignGolden pins the schedule-off behavior across commits: the
// fingerprint of every benign (Schedule == nil) scenario, hashed together,
// must match testdata/benign.golden. Adding the schedule engine — or any
// future change — must not perturb a single benign output bit. Regenerate
// deliberately with UPDATE_GOLDEN=1 when the matrix itself changes.
func TestBenignGolden(t *testing.T) {
	var b strings.Builder
	for _, sc := range conformance.Scenarios() {
		fp, err := conformance.RunScenario(sc)
		if err != nil {
			t.Fatalf("benign scenario failed: %v", err)
		}
		fmt.Fprintf(&b, "%s=%s\n", sc, fp)
	}
	got := fmt.Sprintf("%x\n", sha256.Sum256([]byte(b.String())))
	golden := filepath.Join("testdata", "benign.golden")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", golden)
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (regenerate with UPDATE_GOLDEN=1): %v", err)
	}
	if got != string(want) {
		t.Fatalf("benign fingerprint hash drifted: got %s want %s — the schedule engine must be a strict no-op when off; regenerate with UPDATE_GOLDEN=1 only for a deliberate matrix change", got, want)
	}
}

// TestVictimsRespectBudget asserts the sampler's fault-budget arithmetic
// for every scenario: disturbed ∪ corrupt never exceeds t, victims never
// overlap corrupt or pinned players.
func TestVictimsRespectBudget(t *testing.T) {
	for _, sc := range conformance.Scenarios() {
		for j := 0; j < 3; j++ {
			seed := ScheduleSeed(sc, j)
			corrupt, pinned := conformance.ScenarioActors(sc)
			off := map[int]bool{}
			for _, i := range corrupt {
				off[i] = true
			}
			for _, i := range pinned {
				off[i] = true
			}
			s := Sample(sc, seed)
			dist := s.Disturbed(sc.N)
			if len(dist)+len(corrupt) > sc.T {
				t.Fatalf("%s sched=%d: %d disturbed + %d corrupt > t=%d (%q)",
					sc, seed, len(dist), len(corrupt), sc.T, s)
			}
			for _, v := range dist {
				if off[v] {
					t.Fatalf("%s sched=%d: disturbed player %d is corrupt or pinned (%q)", sc, seed, v, s)
				}
			}
			if !s.Reorder {
				t.Fatalf("%s sched=%d: sampled schedule lost the reorder flag", sc, seed)
			}
		}
	}
}
