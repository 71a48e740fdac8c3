package conformance

import (
	"testing"

	"repro/internal/gf2k"
)

// TestSuite is the seeded adversarial sweep: every scenario runs its
// protocol under its attack and asserts the paper's properties on the
// honest outputs. A failing entry reproduces from the subtest name. The
// matrix and dispatcher live in matrix.go (exported, so the schedule
// harness and the fuzz driver share them).
func TestSuite(t *testing.T) {
	for _, sc := range Scenarios() {
		t.Run(sc.String(), func(t *testing.T) {
			t.Parallel()
			if _, err := RunScenario(sc); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestSuiteDeterministic replays a cross-section of scenarios (one per
// protocol, including message-level interception) and requires bitwise
// identical honest outputs — the reproducibility contract behind quoting a
// (seed, config) pair in a bug report.
func TestSuiteDeterministic(t *testing.T) {
	cases := []Scenario{
		{Protocol: "vss", Attack: "inconsistent-dealer-overwhelming", N: 7, T: 2, M: 1, Seed: 11},
		{Protocol: "batch-vss", Attack: "garbage-verifier", N: 7, T: 2, M: 4, Seed: 12},
		{Protocol: "gradecast", Attack: "grade-split-half", N: 7, T: 2, Seed: 13},
		{Protocol: "ba", Attack: "vote-equivocator", Variant: "mixed", N: 6, T: 1, Seed: 14},
		{Protocol: "coingen", Attack: "deal-corrupt", N: 7, T: 1, M: 2, Seed: 15},
	}
	for _, sc := range cases {
		t.Run(sc.String(), func(t *testing.T) {
			t.Parallel()
			first, err := RunScenario(sc)
			if err != nil {
				t.Fatal(err)
			}
			second, err := RunScenario(sc)
			if err != nil {
				t.Fatal(err)
			}
			if first != second {
				t.Fatalf("outputs differ across identical runs:\n run 1: %s\n run 2: %s", first, second)
			}
		})
	}
}

// TestCoinUnpredictability drives the honest Coin-Gen scenario and then
// shows, for every generated coin, that the view of a t-member coalition
// admitted both openings until Coin-Expose: their shares interpolate to a
// valid degree-t completion for the real value and for its complement.
func TestCoinUnpredictability(t *testing.T) {
	for _, nt := range [][2]int{{7, 1}, {13, 2}} {
		sc := Scenario{Protocol: "coingen", Attack: "honest", N: nt[0], T: nt[1], M: 3, Seed: 21}
		t.Run(sc.String(), func(t *testing.T) {
			o, err := RunCoinGen(sc)
			if err != nil {
				t.Fatal(err)
			}
			if err := o.Check(); err != nil {
				t.Fatal(err)
			}
			// The hypothetical coalition: the last t players (honest here —
			// unpredictability is about what ANY t-subset's view determines).
			coalition := o.Honest[len(o.Honest)-sc.T:]
			ref := o.Players[o.Honest[0]]
			for h, exposed := range ref.Coins {
				shares := make([]gf2k.Element, len(coalition))
				for c, id := range coalition {
					shares[c] = o.Players[id].Res.Batch.Shares[h]
				}
				if err := UnpredictabilityWitness(o.Env.field, sc.T, coalition, shares, exposed); err != nil {
					t.Fatalf("coin %d: %v", h, err)
				}
			}
		})
	}
}
