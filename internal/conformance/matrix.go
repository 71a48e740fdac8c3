package conformance

// The scenario matrix and its dispatcher live outside the _test files so
// that the schedule-exploration harness (internal/conformance/schedules)
// and the nightly fuzz driver (cmd/schedulefuzz) can execute the exact same
// scenarios the suite gates.

import (
	"fmt"

	"repro/internal/adversary"
)

// vssAttacks is every VSS/Batch-VSS attack the suite sweeps; gradecast,
// ba and coingen attacks below likewise. The "honest" entry is the control
// run that pins the attack-free baseline.
var vssAttacks = []string{
	"honest",
	"wrong-degree-dealer",
	"equivocal-dealer",
	"silent-dealer",
	"inconsistent-dealer-tolerated",
	"inconsistent-dealer-overwhelming",
	"false-complainer",
	"delta-liar",
	"garbage-verifier",
	"crash-verifier",
}

var gradecastAttacks = []string{
	"honest",
	"grade-split-half",
	"grade-split-one",
	"echo-liar",
	"silent-sender",
	"crash-sender",
}

var baAttacks = []string{"honest", "griefer-king", "vote-equivocator", "crash"}

var coingenAttacks = []string{
	"honest",
	"crash",
	"silent",
	"wrong-degree-dealer",
	"deal-corrupt",
	"gamma-equivocate",
	"coin-share-liar",
}

// coinExposeAttacks are the vector Coin-Expose corruptions; the attack keys
// are adversary.ExposeAttack's.
var coinExposeAttacks = append([]string{"honest"}, adversary.ExposeAttacks...)

// Scenarios is the full {attack × protocol × (n,t)} sweep. Every entry
// reproduces from its printed name alone: `go test -run 'TestSuite/<name>'`.
func Scenarios() []Scenario {
	var scs []Scenario
	// VSS at n = 3t+1 (the tight bound) for two fault levels; Batch-VSS is
	// the same ceremony with M > 1.
	for _, nt := range [][2]int{{4, 1}, {7, 2}} {
		for _, a := range vssAttacks {
			scs = append(scs,
				Scenario{Protocol: "vss", Attack: a, N: nt[0], T: nt[1], M: 1, Seed: 1},
				Scenario{Protocol: "batch-vss", Attack: a, N: nt[0], T: nt[1], M: 4, Seed: 2},
			)
		}
		for _, a := range gradecastAttacks {
			scs = append(scs, Scenario{Protocol: "gradecast", Attack: a, N: nt[0], T: nt[1], Seed: 3})
		}
	}
	// Phase-king BA needs n ≥ 5t+1.
	for _, nt := range [][2]int{{6, 1}, {11, 2}} {
		for _, a := range baAttacks {
			for _, v := range []string{"ones", "zeros", "mixed"} {
				scs = append(scs, Scenario{Protocol: "ba", Attack: a, Variant: v, N: nt[0], T: nt[1], Seed: 4})
			}
		}
	}
	// Coin-Gen needs n ≥ 6t+1.
	for _, nt := range [][2]int{{7, 1}, {13, 2}} {
		for _, a := range coingenAttacks {
			scs = append(scs, Scenario{Protocol: "coingen", Attack: a, N: nt[0], T: nt[1], M: 3, Seed: 5})
		}
	}
	// Vector Coin-Expose at n = 3t+1 (S is everyone, the attack spends the
	// whole error budget), M = 8 coins per round.
	for _, nt := range [][2]int{{4, 1}, {7, 2}} {
		for _, a := range coinExposeAttacks {
			scs = append(scs, Scenario{Protocol: "coin-expose", Attack: a, N: nt[0], T: nt[1], M: 8, Seed: 6})
		}
	}
	return scs
}

// ScenarioActors reports, for a scenario, which players its attack corrupts
// and which additional players a hostile schedule must leave untouched
// (pinned). The schedule-exploration harness samples its disturbance
// victims from the complement of corrupt ∪ pinned:
//
//   - corrupt players are off-limits because the attack expectations are
//     calibrated against their exact behavior (e.g. "the cheating dealer is
//     expelled") — disturbing them would change what the attack does;
//   - pinned players are honest players whose exact traffic the scenario's
//     assertions are calibrated against: the VSS dealer (verdict exactness
//     is about THIS dealer's ceremony) and the chosen victims of the
//     inconsistent-dealer attacks (the paper's accept/reject boundary is
//     exactly t vs 2t lies, so the lie count must not drift).
func ScenarioActors(sc Scenario) (corrupt, pinned []int) {
	lastT := make([]int, 0, sc.T)
	for i := sc.N - sc.T; i < sc.N; i++ {
		lastT = append(lastT, i)
	}
	switch sc.Protocol {
	case "vss", "batch-vss":
		pinned = []int{vssDealer}
		switch sc.Attack {
		case "honest":
		case "wrong-degree-dealer", "equivocal-dealer", "silent-dealer":
			corrupt = []int{vssDealer}
		case "inconsistent-dealer-tolerated":
			// The dealing carries exactly t lies — the accept/reject boundary.
			// One more fault from the schedule (a partitioned or crashed
			// verifier reads as one more bad share) legitimately tips the
			// verdict to reject, so the "must accept" calibration only holds
			// with every other player undisturbed: pin them all. The
			// overwhelming variant below has no such knife edge — extra
			// faults only push it further past reject.
			corrupt = []int{vssDealer}
			pinned = honestSet(sc.N, nil)
		case "inconsistent-dealer-overwhelming":
			corrupt = []int{vssDealer}
			pinned = append(pinned, honestSet(sc.N, []int{vssDealer})[:2*sc.T]...)
		default: // verifier attacks
			corrupt = lastT
		}
	case "gradecast":
		if sc.Attack != "honest" {
			corrupt = []int{gcAttacker}
		}
	case "ba":
		if sc.Attack != "honest" {
			corrupt = []int{baAttacker}
		}
	case "coingen":
		if sc.Attack != "honest" {
			corrupt = []int{cgAttacker}
		}
	case "coin-expose":
		if sc.Attack != "honest" {
			corrupt = ceCorrupt(sc.T)
		}
	}
	return corrupt, pinned
}

// RunScenario dispatches one scenario to its runner and Check, returning a
// fingerprint of the honest outputs (used by the determinism tests).
func RunScenario(sc Scenario) (string, error) {
	switch sc.Protocol {
	case "vss", "batch-vss":
		o, err := RunVSS(sc)
		if err != nil {
			return "", err
		}
		if err := o.Check(); err != nil {
			return "", err
		}
		fp := ""
		for _, i := range o.Honest {
			fp += fmt.Sprintf("%d:%v:%x;", i, o.Players[i].Verdict, o.Players[i].Secrets)
		}
		return fp, nil
	case "gradecast":
		o, err := RunGradeCast(sc)
		if err != nil {
			return "", err
		}
		if err := o.Check(); err != nil {
			return "", err
		}
		fp := ""
		for _, i := range o.Honest {
			for d, got := range o.Outputs[i] {
				fp += fmt.Sprintf("%d/%d:%x/%d;", i, d, got.Value, got.Confidence)
			}
		}
		return fp, nil
	case "ba":
		o, err := RunBA(sc)
		if err != nil {
			return "", err
		}
		if err := o.Check(); err != nil {
			return "", err
		}
		fp := ""
		for _, i := range o.Honest {
			fp += fmt.Sprintf("%d:%d;", i, o.Decisions[i])
		}
		return fp, nil
	case "coingen":
		o, err := RunCoinGen(sc)
		if err != nil {
			return "", err
		}
		if err := o.Check(); err != nil {
			return "", err
		}
		fp := ""
		for _, i := range o.Honest {
			p := o.Players[i]
			fp += fmt.Sprintf("%d:a%d,c%v,x%x;", i, p.Res.Attempts, p.Res.Clique, p.Coins)
		}
		return fp, nil
	case "coin-expose":
		o, err := RunCoinExpose(sc)
		if err != nil {
			return "", err
		}
		if err := o.Check(); err != nil {
			return "", err
		}
		fp := ""
		for _, i := range o.Honest {
			fp += fmt.Sprintf("%d:%x;", i, o.Coins[i])
		}
		return fp, nil
	}
	return "", fmt.Errorf("conformance: unknown protocol %q", sc.Protocol)
}
