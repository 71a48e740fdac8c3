package ba

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/simnet"
)

// runBA executes phase-king with the given honest inputs; faulty players run
// the supplied adversary functions instead.
func runBA(t *testing.T, tf int, inputs []byte, faulty map[int]simnet.PlayerFunc) []simnet.PlayerResult {
	t.Helper()
	n := len(inputs)
	nw := simnet.New(n)
	fns := make([]simnet.PlayerFunc, n)
	for i := 0; i < n; i++ {
		if f, ok := faulty[i]; ok {
			fns[i] = f
			continue
		}
		in := inputs[i]
		fns[i] = func(nd *simnet.Node) (interface{}, error) {
			return PhaseKing{T: tf}.Run(nd, in)
		}
	}
	return simnet.Run(nw, fns)
}

func checkAgreementValidity(t *testing.T, results []simnet.PlayerResult, faulty map[int]simnet.PlayerFunc, inputs []byte) byte {
	t.Helper()
	decided := byte(0xff)
	for i, r := range results {
		if _, isFaulty := faulty[i]; isFaulty {
			continue
		}
		if r.Err != nil {
			t.Fatalf("player %d: %v", i, r.Err)
		}
		v := r.Value.(byte)
		if decided == 0xff {
			decided = v
		} else if v != decided {
			t.Fatalf("agreement violated: player %d decided %d, others %d", i, v, decided)
		}
	}
	// Validity: if all honest inputs equal, the decision must equal them.
	allSame, common := true, byte(0xff)
	for i, in := range inputs {
		if _, isFaulty := faulty[i]; isFaulty {
			continue
		}
		if common == 0xff {
			common = in
		} else if in != common {
			allSame = false
		}
	}
	if allSame && decided != common {
		t.Fatalf("validity violated: all honest inputs %d but decided %d", common, decided)
	}
	return decided
}

func TestAllZero(t *testing.T) {
	inputs := make([]byte, 6)
	results := runBA(t, 1, inputs, nil)
	if got := checkAgreementValidity(t, results, nil, inputs); got != 0 {
		t.Fatalf("decided %d, want 0", got)
	}
}

func TestAllOne(t *testing.T) {
	inputs := []byte{1, 1, 1, 1, 1, 1}
	results := runBA(t, 1, inputs, nil)
	if got := checkAgreementValidity(t, results, nil, inputs); got != 1 {
		t.Fatalf("decided %d, want 1", got)
	}
}

func TestMixedInputsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20; trial++ {
		inputs := make([]byte, 6)
		for i := range inputs {
			inputs[i] = byte(rng.Intn(2))
		}
		results := runBA(t, 1, inputs, nil)
		checkAgreementValidity(t, results, nil, inputs)
	}
}

// byzantineBA sends maximally confusing values: to each receiver a different
// bit in round A, and (as king) different bits in round B.
func byzantineBA(tf int, seed int64) simnet.PlayerFunc {
	return func(nd *simnet.Node) (interface{}, error) {
		rng := rand.New(rand.NewSource(seed + int64(nd.Index())))
		n := nd.N()
		for phase := 0; phase <= tf; phase++ {
			for j := 0; j < n; j++ {
				if j == nd.Index() {
					continue
				}
				nd.Send(j, []byte{byte(rng.Intn(2))})
			}
			if _, err := nd.EndRound(); err != nil {
				return nil, err
			}
			// Round B: equivocate as king too (harmless if not king).
			for j := 0; j < n; j++ {
				if j == nd.Index() {
					continue
				}
				nd.Send(j, []byte{byte(rng.Intn(2))})
			}
			if _, err := nd.EndRound(); err != nil {
				return nil, err
			}
		}
		return byte(0), nil
	}
}

func TestByzantineFaultsAgreement(t *testing.T) {
	// n = 11, t = 2 (n ≥ 5t+1): two Byzantine players, including one that
	// will be king in phase 0, cannot break agreement or validity.
	for trial := 0; trial < 30; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		n, tf := 11, 2
		inputs := make([]byte, n)
		for i := range inputs {
			inputs[i] = byte(rng.Intn(2))
		}
		faulty := map[int]simnet.PlayerFunc{
			0: byzantineBA(tf, int64(trial)*13),
			7: byzantineBA(tf, int64(trial)*29),
		}
		results := runBA(t, tf, inputs, faulty)
		checkAgreementValidity(t, results, faulty, inputs)
	}
}

func TestByzantineFaultsValidityPressure(t *testing.T) {
	// All honest players input 1; adversaries push 0 hard. Validity demands
	// the decision be 1.
	n, tf := 11, 2
	inputs := make([]byte, n)
	for i := range inputs {
		inputs[i] = 1
	}
	pushZero := func(nd *simnet.Node) (interface{}, error) {
		for phase := 0; phase <= tf; phase++ {
			for r := 0; r < 2; r++ {
				nd.SendAll([]byte{0})
				if _, err := nd.EndRound(); err != nil {
					return nil, err
				}
			}
		}
		return byte(0), nil
	}
	faulty := map[int]simnet.PlayerFunc{0: pushZero, 5: pushZero}
	results := runBA(t, tf, inputs, faulty)
	if got := checkAgreementValidity(t, results, faulty, inputs); got != 1 {
		t.Fatalf("decided %d under adversarial pressure, want 1", got)
	}
}

func TestCrashFaults(t *testing.T) {
	// Crashed players (halt immediately) are a special case of Byzantine.
	n, tf := 11, 2
	rng := rand.New(rand.NewSource(77))
	crash := func(nd *simnet.Node) (interface{}, error) { return byte(0), nil }
	for trial := 0; trial < 10; trial++ {
		inputs := make([]byte, n)
		for i := range inputs {
			inputs[i] = byte(rng.Intn(2))
		}
		faulty := map[int]simnet.PlayerFunc{2: crash, 9: crash}
		results := runBA(t, tf, inputs, faulty)
		checkAgreementValidity(t, results, faulty, inputs)
	}
}

func TestRoundsExact(t *testing.T) {
	n, tf := 6, 1
	nw := simnet.New(n)
	fns := make([]simnet.PlayerFunc, n)
	for i := 0; i < n; i++ {
		fns[i] = func(nd *simnet.Node) (interface{}, error) {
			if _, err := (PhaseKing{T: tf}).Run(nd, 1); err != nil {
				return nil, err
			}
			return nd.Round(), nil
		}
	}
	want := 2 * (tf + 1) // two rounds per phase, t+1 phases
	for i, r := range simnet.Run(nw, fns) {
		if r.Err != nil {
			t.Fatalf("player %d: %v", i, r.Err)
		}
		if r.Value.(int) != want {
			t.Fatalf("player %d: %v rounds, want %d", i, r.Value, want)
		}
	}
}

func TestInputValidation(t *testing.T) {
	nw := simnet.New(6)
	fns := make([]simnet.PlayerFunc, 6)
	for i := range fns {
		fns[i] = func(nd *simnet.Node) (interface{}, error) {
			if _, err := (PhaseKing{T: 1}).Run(nd, 2); err == nil {
				return nil, fmt.Errorf("input 2 accepted")
			}
			return nil, nil
		}
	}
	for i, r := range simnet.Run(nw, fns) {
		if r.Err != nil {
			t.Fatalf("player %d: %v", i, r.Err)
		}
	}
	// Too-small network.
	nw2 := simnet.New(5)
	fns2 := make([]simnet.PlayerFunc, 5)
	for i := range fns2 {
		fns2[i] = func(nd *simnet.Node) (interface{}, error) {
			if _, err := (PhaseKing{T: 1}).Run(nd, 0); err == nil {
				return nil, fmt.Errorf("n=5,t=1 accepted (needs 6)")
			}
			return nil, nil
		}
	}
	for i, r := range simnet.Run(nw2, fns2) {
		if r.Err != nil {
			t.Fatalf("player %d: %v", i, r.Err)
		}
	}
}

func TestSequentialAgreements(t *testing.T) {
	// Coin-Gen may re-run BA several times (Fig. 5 step 11); verify repeated
	// executions on the same network stay in lockstep.
	n, tf := 6, 1
	nw := simnet.New(n)
	fns := make([]simnet.PlayerFunc, n)
	for i := 0; i < n; i++ {
		in := byte(i % 2)
		fns[i] = func(nd *simnet.Node) (interface{}, error) {
			var outs []byte
			v := in
			for rep := 0; rep < 3; rep++ {
				got, err := (PhaseKing{T: tf}).Run(nd, v)
				if err != nil {
					return nil, err
				}
				outs = append(outs, got)
				v = 1 - got // alternate inputs, still common across honest
			}
			return outs, nil
		}
	}
	results := simnet.Run(nw, fns)
	first := results[0].Value.([]byte)
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("player %d: %v", i, r.Err)
		}
		got := r.Value.([]byte)
		for rep := range first {
			if got[rep] != first[rep] {
				t.Fatalf("repetition %d: player %d decided %d, player 0 decided %d", rep, i, got[rep], first[rep])
			}
		}
	}
}
