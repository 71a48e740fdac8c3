package coin_test

// The adversarial table lives in the external test package because the
// attacks are adversary.ExposeAttack's — the same ones the conformance
// matrix's coin-expose family runs — and adversary imports coin.

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/adversary"
	"repro/internal/bw"
	"repro/internal/coin"
	"repro/internal/gf2k"
	"repro/internal/simnet"
)

// exposeVectorUnder deals 2k coins for n players, corrupts what `corrupt`
// send with the named attack, and has everyone open two k-vectors. It
// returns each player's result.
func exposeVectorUnder(t *testing.T, n, tf, k int, attack string, corrupt []int) ([]simnet.PlayerResult, []gf2k.Element) {
	t.Helper()
	f := gf2k.MustNew(32)
	batches, values, err := coin.DealTrusted(f, n, tf, 2*k, rand.New(rand.NewSource(int64(31*n+k))))
	if err != nil {
		t.Fatal(err)
	}
	st, err := adversary.ExposeAttack(attack, f, corrupt, 99)
	if err != nil {
		t.Fatal(err)
	}
	fns := make([]simnet.PlayerFunc, n)
	for i := range fns {
		b := batches[i]
		fns[i] = func(nd *simnet.Node) (interface{}, error) {
			first, err := b.ExposeN(nd, k)
			if err != nil {
				return nil, err
			}
			second, err := b.ExposeN(nd, k)
			if err != nil {
				return nil, err
			}
			return append(first, second...), nil
		}
	}
	return simnet.Run(simnet.New(n, simnet.WithInterceptor(st)), fns), values
}

// TestExposeNUnderAttack is Fig. 6's guarantee on vectors: with at most t
// corrupted members of S — whatever they do to their share vectors, in
// whichever coordinates, to whichever receivers — every honest player opens
// the dealt coin in every coordinate. The corrupted members sit first in S
// (their points feed the decoder's fast-path candidate, so every lie takes
// the Berlekamp–Welch solve) or last (the candidate is clean and the lie
// shows up in the scan).
func TestExposeNUnderAttack(t *testing.T) {
	const k = 8
	for _, nt := range [][2]int{{4, 1}, {7, 2}} {
		n, tf := nt[0], nt[1]
		first, last := make([]int, tf), make([]int, tf)
		for i := range first {
			first[i], last[i] = i, n-tf+i
		}
		placements := [][]int{first, last}
		if tf > 1 {
			placements = append(placements, last[:1]) // under budget
		}
		for _, attack := range adversary.ExposeAttacks {
			for _, corrupt := range placements {
				t.Run(fmt.Sprintf("%s/n=%d,t=%d,corrupt=%v", attack, n, tf, corrupt), func(t *testing.T) {
					results, values := exposeVectorUnder(t, n, tf, k, attack, corrupt)
					bad := map[int]bool{}
					for _, c := range corrupt {
						bad[c] = true
					}
					for i, r := range results {
						if bad[i] {
							continue
						}
						if r.Err != nil {
							t.Fatalf("honest player %d: %v", i, r.Err)
						}
						got := r.Value.([]gf2k.Element)
						for h, want := range values {
							if got[h] != want {
								t.Fatalf("honest player %d coin %d: opened %#x, dealt %#x", i, h, got[h], want)
							}
						}
					}
				})
			}
		}
	}
}

// TestExposeNBeyondBudgetFails: t+1 members lying in every coordinate is
// outside the decoder's budget, and the honest players must get an error —
// never a value.
func TestExposeNBeyondBudgetFails(t *testing.T) {
	for _, nt := range [][2]int{{4, 1}, {7, 2}} {
		n, tf := nt[0], nt[1]
		corrupt := make([]int, tf+1)
		for i := range corrupt {
			corrupt[i] = i
		}
		results, _ := exposeVectorUnder(t, n, tf, 8, "lie-all", corrupt)
		for i := tf + 1; i < n; i++ {
			if !errors.Is(results[i].Err, bw.ErrNoCodeword) {
				t.Fatalf("n=%d t=%d: honest player %d got (%v, %v) against %d liars, want bw.ErrNoCodeword",
					n, tf, i, results[i].Value, results[i].Err, tf+1)
			}
		}
	}
}
