package repro

import (
	"math/rand"
	"testing"
)

// TestFacadeEndToEnd exercises the public API exactly as README shows it.
func TestFacadeEndToEnd(t *testing.T) {
	field, err := NewField(32)
	if err != nil {
		t.Fatal(err)
	}
	var ctr Counters
	cfg := Config{Field: field.WithCounters(&ctr), N: 7, T: 1, BatchSize: 16, Counters: &ctr}
	rng := rand.New(rand.NewSource(1))
	gens, err := SetupTrusted(cfg, 8, rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(gens) != 7 {
		t.Fatalf("got %d generators", len(gens))
	}

	nw := NewNetwork(cfg.N, WithCounters(&ctr))
	fns := make([]PlayerFunc, cfg.N)
	for i := 0; i < cfg.N; i++ {
		fns[i] = func(nd *Node) (interface{}, error) {
			rnd := rand.New(rand.NewSource(int64(i + 100)))
			out := make([]Element, 0, 20)
			for len(out) < 20 {
				c, err := gens[i].Next(nd, rnd)
				if err != nil {
					return nil, err
				}
				out = append(out, c)
			}
			return out, nil
		}
	}
	results := Run(nw, fns)
	ref := results[0].Value.([]Element)
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("player %d: %v", i, r.Err)
		}
		got := r.Value.([]Element)
		for h := range ref {
			if got[h] != ref[h] {
				t.Fatalf("player %d coin %d differs", i, h)
			}
		}
	}
	if ctr.Snapshot().Messages == 0 {
		t.Error("counters recorded nothing")
	}
	st := gens[0].Stats()
	if st.CoinsDelivered != 20 || st.Batches < 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestMustNewFieldPanicsOnBadK(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustNewField(1) did not panic")
		}
	}()
	MustNewField(1)
}
