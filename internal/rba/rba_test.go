package rba

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/adversary"
	"repro/internal/coin"
	"repro/internal/gf2k"
	"repro/internal/simnet"
)

func runRBA(t *testing.T, n, tf, phases int, inputs []byte, seed int64, faulty map[int]simnet.PlayerFunc) []simnet.PlayerResult {
	t.Helper()
	f := gf2k.MustNew(32)
	rng := rand.New(rand.NewSource(seed))
	batches, _, err := coin.DealTrusted(f, n, tf, phases+2, rng)
	if err != nil {
		t.Fatal(err)
	}
	nw := simnet.New(n)
	fns := make([]simnet.PlayerFunc, n)
	for i := 0; i < n; i++ {
		if fb, ok := faulty[i]; ok {
			fns[i] = fb
			continue
		}
		fns[i] = func(nd *simnet.Node) (interface{}, error) {
			cfg := Config{N: n, T: tf, Phases: phases, Coins: batches[i]}
			return Run(nd, cfg, inputs[i])
		}
	}
	return simnet.Run(nw, fns)
}

func checkAgreed(t *testing.T, results []simnet.PlayerResult, faulty map[int]simnet.PlayerFunc) byte {
	t.Helper()
	decided := byte(0xff)
	for i, r := range results {
		if _, bad := faulty[i]; bad {
			continue
		}
		if r.Err != nil {
			t.Fatalf("player %d: %v", i, r.Err)
		}
		v := r.Value.(byte)
		if decided == 0xff {
			decided = v
		} else if v != decided {
			t.Fatalf("agreement violated: player %d has %d, others %d", i, v, decided)
		}
	}
	return decided
}

func TestValidity(t *testing.T) {
	for _, b := range []byte{0, 1} {
		inputs := make([]byte, 6)
		for i := range inputs {
			inputs[i] = b
		}
		results := runRBA(t, 6, 1, 10, inputs, int64(b)+1, nil)
		if got := checkAgreed(t, results, nil); got != b {
			t.Fatalf("validity: decided %d, want %d", got, b)
		}
	}
}

func TestMixedInputsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 10; trial++ {
		inputs := make([]byte, 6)
		for i := range inputs {
			inputs[i] = byte(rng.Intn(2))
		}
		results := runRBA(t, 6, 1, 16, inputs, int64(trial)*3+5, nil)
		checkAgreed(t, results, nil)
	}
}

func TestWithByzantineFaults(t *testing.T) {
	// Two Byzantine players must not break agreement. At n = 11 every
	// honest input is 1, so validity forces 1. At n = 13 the inputs split
	// 6 zeros / 7 ones with two garbage spammers, and 16 phases consume 16
	// shared coins (E14, the paper's §1 application).
	type row struct {
		name      string
		n, phases int
		ones      int // the last ones players input 1, the rest 0
		seed      int64
		faulty    map[int]simnet.PlayerFunc
		want      int // the forced decision, or −1 when only agreement is required
	}
	var rows []row
	for trial := 0; trial < 5; trial++ {
		rows = append(rows, row{fmt.Sprintf("n=11 all-1 trial %d", trial), 11, 12, 11, int64(trial)*13 + 1,
			map[int]simnet.PlayerFunc{
				1: adversary.GarbageSpammer(int64(trial), 1000, 8),
				7: adversary.SilentFor(100, nil),
			}, 1})
	}
	rows = append(rows, row{"n=13 split 6/7", 13, 16, 7, 14,
		map[int]simnet.PlayerFunc{
			3:  adversary.GarbageSpammer(3, 48, 8),
			10: adversary.GarbageSpammer(10, 48, 8),
		}, -1})
	for _, r := range rows {
		inputs := make([]byte, r.n)
		for i := r.n - r.ones; i < r.n; i++ {
			inputs[i] = 1
		}
		got := checkAgreed(t, runRBA(t, r.n, 2, r.phases, inputs, r.seed, r.faulty), r.faulty)
		t.Logf("%s, %d Byzantine: every honest player decided %d after %d phases, one shared coin each",
			r.name, len(r.faulty), got, r.phases)
		if r.want >= 0 && int(got) != r.want {
			t.Errorf("%s: decided %d, want %d", r.name, got, r.want)
		}
	}
}

func TestCrashFaults(t *testing.T) {
	n, tf := 11, 2
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 5; trial++ {
		inputs := make([]byte, n)
		for i := range inputs {
			inputs[i] = byte(rng.Intn(2))
		}
		faulty := map[int]simnet.PlayerFunc{
			0: adversary.Crash(),
			5: adversary.CrashAfter(4),
		}
		results := runRBA(t, n, tf, 12, inputs, int64(trial)*17+3, faulty)
		checkAgreed(t, results, faulty)
	}
}

func TestValidation(t *testing.T) {
	if err := (Config{N: 5, T: 1, Coins: &coin.Store{}}).Validate(); err == nil {
		t.Error("n=5,t=1 accepted (needs 6)")
	}
	if err := (Config{N: 6, T: 1}).Validate(); err == nil {
		t.Error("nil coin source accepted")
	}
	// Bad input bit surfaces as error.
	f := gf2k.MustNew(16)
	rng := rand.New(rand.NewSource(1))
	batches, _, err := coin.DealTrusted(f, 6, 1, 4, rng)
	if err != nil {
		t.Fatal(err)
	}
	nw := simnet.New(6)
	fns := make([]simnet.PlayerFunc, 6)
	for i := range fns {
		fns[i] = func(nd *simnet.Node) (interface{}, error) {
			if _, err := Run(nd, Config{N: 6, T: 1, Phases: 2, Coins: batches[i]}, 5); err == nil {
				return nil, nil
			}
			return "rejected", nil
		}
	}
	for i, r := range simnet.Run(nw, fns) {
		if r.Value != "rejected" {
			t.Fatalf("player %d: input 5 accepted", i)
		}
	}
}

func TestCoinConsumptionIsLockstep(t *testing.T) {
	// After an RBA run every player's coin cursor must be identical, so a
	// following protocol can keep using the same source.
	n, tf, phases := 6, 1, 8
	f := gf2k.MustNew(32)
	rng := rand.New(rand.NewSource(21))
	batches, _, err := coin.DealTrusted(f, n, tf, phases+4, rng)
	if err != nil {
		t.Fatal(err)
	}
	nw := simnet.New(n)
	fns := make([]simnet.PlayerFunc, n)
	for i := range fns {
		fns[i] = func(nd *simnet.Node) (interface{}, error) {
			cfg := Config{N: n, T: tf, Phases: phases, Coins: batches[i]}
			if _, err := Run(nd, cfg, byte(i%2)); err != nil {
				return nil, err
			}
			return batches[i].Cursor(), nil
		}
	}
	for i, r := range simnet.Run(nw, fns) {
		if r.Err != nil {
			t.Fatalf("player %d: %v", i, r.Err)
		}
		if r.Value.(int) != phases {
			t.Fatalf("player %d consumed %v coins, want %d", i, r.Value, phases)
		}
	}
}
