package coin

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/gf2k"
	"repro/internal/metrics"
	"repro/internal/poly"
	"repro/internal/simnet"
)

// TestExposeNMismatchedCounts: one player opens 4 coins in a round where
// the other six open 32, as a daemon with a smaller emission target does at
// its last block. Every 32-share vector is the wrong length to it, so it
// holds its own vector alone and must stop with ErrShortRound naming both
// counts; the others drop its 4-share vector and still decode all 32
// coins from the three members of S left.
func TestExposeNMismatchedCounts(t *testing.T) {
	const n, tf, short, long = 7, 1, 4, 32
	batches, values, err := DealTrusted(gf2k.MustNew(32), n, tf, long, rand.New(rand.NewSource(96)))
	if err != nil {
		t.Fatal(err)
	}
	fns := make([]simnet.PlayerFunc, n)
	for i := range fns {
		k := long
		if i == 0 {
			k = short
		}
		fns[i] = func(nd *simnet.Node) (interface{}, error) { return batches[nd.Index()].ExposeN(nd, k) }
	}
	results := simnet.Run(simnet.New(n), fns)
	err = results[0].Err
	if !errors.Is(err, ErrShortRound) {
		t.Fatalf("player 0 exposing %d of the others' %d: err = %v, want ErrShortRound", short, long, err)
	}
	if want := fmt.Sprintf("1 well-formed, %d needed", tf+1); !strings.Contains(err.Error(), want) {
		t.Errorf("player 0's error %q does not say %q", err, want)
	}
	for i, r := range results[1:] {
		if r.Err != nil {
			t.Fatalf("player %d: %v", i+1, r.Err)
		}
		for h, v := range r.Value.([]gf2k.Element) {
			if v != values[h] {
				t.Fatalf("player %d coin %d: %#x, want %#x", i+1, h, v, values[h])
			}
		}
	}
}

// TestExposeNFieldOpsFormula pins Coin-Expose's cost in the paper's units:
// with S the whole universe of m players at degree t, exposing k coins
// costs each player exactly k·(t+1)(m−t) multiplications — the parity rows
// of poly.Parity, F(0) included — and k interpolations, zero inversions.
// One warm-up exposure first builds the universe's prefix and parity rows,
// which are accounted once, like a domain's construction.
func TestExposeNFieldOpsFormula(t *testing.T) {
	for _, tc := range []struct{ m, t, k int }{{7, 1, 32}, {13, 2, 32}, {13, 2, 5}} {
		t.Run(fmt.Sprintf("m=%d,t=%d,k=%d", tc.m, tc.t, tc.k), func(t *testing.T) {
			batches, values, err := DealTrusted(gf2k.MustNew(32), tc.m, tc.t, 1+tc.k, rand.New(rand.NewSource(int64(tc.m))))
			if err != nil {
				t.Fatal(err)
			}
			all := make([]int, tc.m)
			for i := range all {
				all[i] = i
			}
			// Each player gets a private counter sink, and with it its own
			// cached universe over the IDs 1..m.
			ctrs := make([]metrics.Counters, tc.m)
			for i, b := range batches {
				b.S, b.Field, b.Counters = all, b.Field.WithCounters(&ctrs[i]), &ctrs[i]
				if _, err := poly.IDDomain(b.Field, tc.m, nil); err != nil {
					t.Fatal(err)
				}
			}
			costs := make([]metrics.Snapshot, tc.m)
			fns := make([]simnet.PlayerFunc, tc.m)
			for i := range fns {
				fns[i] = func(nd *simnet.Node) (interface{}, error) {
					b := batches[nd.Index()]
					if _, err := b.Expose(nd); err != nil {
						return nil, err
					}
					before := b.Counters.Snapshot()
					out, err := b.ExposeN(nd, tc.k)
					costs[nd.Index()] = metrics.Diff(before, b.Counters.Snapshot())
					return out, err
				}
			}
			want := int64(tc.k * (tc.t + 1) * (tc.m - tc.t))
			for i, r := range simnet.Run(simnet.New(tc.m), fns) {
				if r.Err != nil {
					t.Fatalf("player %d: %v", i, r.Err)
				}
				for h, v := range r.Value.([]gf2k.Element) {
					if v != values[1+h] {
						t.Fatalf("player %d coin %d: %#x, want %#x", i, 1+h, v, values[1+h])
					}
				}
				c := costs[i]
				if c.FieldMuls != want || c.Interpolations != int64(tc.k) || c.FieldInvs != 0 {
					t.Errorf("player %d: %d muls, %d interpolations, %d inversions; want %d = k·(t+1)(m−t), %d, 0",
						i, c.FieldMuls, c.Interpolations, c.FieldInvs, want, tc.k)
				}
			}
		})
	}
}
