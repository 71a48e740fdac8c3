package poly

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/gf2k"
	"repro/internal/metrics"
)

// TestEvalAtMatchesEval checks the fixed-operand Horner path of an IDDomain
// universe against plain Eval — values and accounting — and that a plain
// domain over the same points takes the Eval path with the same result.
func TestEvalAtMatchesEval(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, k := range []int{8, 29, 32, 64} {
		var ctr metrics.Counters
		f := gf2k.MustNew(k).WithCounters(&ctr)
		const n = 13
		uni, err := IDDomain(f, n, nil)
		if err != nil {
			t.Fatal(err)
		}
		plain, err := NewDomain(f, uni.Xs())
		if err != nil {
			t.Fatal(err)
		}
		if uni.at == nil || plain.at != nil {
			t.Fatalf("k=%d: multiplier slots: universe %v, plain %v", k, uni.at != nil, plain.at != nil)
		}
		for _, deg := range []int{-1, 0, 1, 2, 7} {
			p := make(Poly, deg+1)
			for i := range p {
				p[i], _ = f.Rand(rng)
			}
			for i, x := range uni.Xs() {
				before := ctr.Snapshot()
				want := Eval(f, p, x)
				wantCost := metrics.Diff(before, ctr.Snapshot())
				before = ctr.Snapshot()
				got := uni.EvalAt(p, i)
				if cost := metrics.Diff(before, ctr.Snapshot()); got != want || cost != wantCost {
					t.Fatalf("k=%d deg=%d i=%d: EvalAt = %#x (%+v), Eval = %#x (%+v)", k, deg, i, got, cost, want, wantCost)
				}
				if got := plain.EvalAt(p, i); got != want {
					t.Fatalf("k=%d deg=%d i=%d: plain EvalAt = %#x, want %#x", k, deg, i, got, want)
				}
			}
		}
		// EvalMany finds the cached universe by its points alone.
		p, err := Random(f, 3, 0x5a, rng)
		if err != nil {
			t.Fatal(err)
		}
		if CachedUniverse(f, uni.Xs()) != uni || CachedUniverse(f, uni.Xs()[1:]) != nil {
			t.Fatalf("k=%d: CachedUniverse does not identify the universe by its points", k)
		}
		for i, y := range EvalMany(f, p, uni.Xs()) {
			if want := Eval(f, p, uni.Xs()[i]); y != want {
				t.Fatalf("k=%d: EvalMany[%d] = %#x, want %#x", k, i, y, want)
			}
		}
	}
}

// TestUniverseMultipliersBuiltOnce races the first use of every point's
// multiplier, and of each degree's parity rows, from many goroutines: each
// must be built exactly once (every goroutine sees the same one), with no
// data race under -race.
func TestUniverseMultipliersBuiltOnce(t *testing.T) {
	var ctr metrics.Counters // a private sink makes this universe a fresh cache entry
	f := gf2k.MustNew(31).WithCounters(&ctr)
	const n, workers = 9, 16
	uni, err := IDDomain(f, n, nil)
	if err != nil {
		t.Fatal(err)
	}
	p := Poly{3, 1, 4, 1, 5}
	seen := make([][]*gf2k.Multiplier, workers)
	parity := make([][]*Parity, workers)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			for i := 0; i < n; i++ {
				j := (i + g) % n
				if got, want := uni.EvalAt(p, j), Eval(f, p, uni.xs[j]); got != want {
					t.Errorf("worker %d point %d: %#x, want %#x", g, j, got, want)
				}
			}
			for i := range uni.at {
				seen[g] = append(seen[g], uni.at[i].m)
			}
			for deg := 0; deg < n; deg++ {
				par := uni.Parity((deg + g) % n)
				if s, ok := par.Secret(EvalMany(f, p[:1], uni.xs), nil); !ok || s != p[0] {
					t.Errorf("worker %d degree %d: constant word read (%#x, %v)", g, (deg+g)%n, s, ok)
				}
				parity[g] = append(parity[g], par)
			}
		}(g)
	}
	close(start)
	wg.Wait()
	for g := range seen {
		for i, m := range seen[g] {
			if m == nil || m != seen[0][i] {
				t.Fatalf("worker %d saw multiplier %p for point %d, worker 0 saw %p", g, m, i, seen[0][i])
			}
		}
		for i, par := range parity[g] {
			if deg := (i + g) % n; par == nil || par != uni.Parity(deg) {
				t.Fatalf("worker %d saw parity rows %p for degree %d, now %p", g, par, deg, uni.Parity(deg))
			}
		}
	}
}

// TestDomainChurnRetainsNoMultipliers fills the process-wide cache to its
// bound with distinct point sets, exercising every path that evaluates at
// domain points, and checks that none of those domains — nor their prefix
// sub-domains, nor a universe that arrives once the cache is full — holds a
// multiplier table: only cached IDDomain universes may.
func TestDomainChurnRetainsNoMultipliers(t *testing.T) {
	var ctr metrics.Counters
	f := gf2k.MustNew(32).WithCounters(&ctr)
	var keys []string
	t.Cleanup(func() {
		domainMu.Lock()
		defer domainMu.Unlock()
		for _, key := range keys {
			delete(domainCache, key)
		}
	})
	cached := func() int {
		domainMu.RLock()
		defer domainMu.RUnlock()
		return len(domainCache)
	}
	p := Poly{7, 7, 7}
	for c := 0; cached() < maxCachedDomains; c++ {
		xs := []gf2k.Element{gf2k.Element(4*c + 1), gf2k.Element(4*c + 2), gf2k.Element(4*c + 3), gf2k.Element(4*c + 4)}
		keys = append(keys, string(appendDomainKey(nil, f, xs, false)))
		d, err := DomainFor(f, xs, nil)
		if err != nil {
			t.Fatal(err)
		}
		d.EvalAt(p, 3)
		if _, err := d.FitsDegree(EvalMany(f, p, xs), 2, nil); err != nil {
			t.Fatal(err)
		}
		sub, err := d.Prefix(3)
		if err != nil {
			t.Fatal(err)
		}
		if d.at != nil || sub.at != nil || d.Parity(1) != nil {
			t.Fatalf("domain %d holds multiplier slots (domain %v, prefix %v) or parity rows", c, d.at != nil, sub.at != nil)
		}
	}
	late, err := IDDomain(f, 5, nil)
	if err != nil {
		t.Fatal(err)
	}
	if late.at != nil || late.Parity(1) != nil || CachedUniverse(f, late.xs) != nil {
		t.Fatal("a universe built after the cache filled must stay uncached and table-free")
	}
	if got, want := late.EvalAt(p, 4), Eval(f, p, 5); got != want {
		t.Fatalf("uncached universe EvalAt = %#x, want %#x", got, want)
	}
}

// TestDomainDotProductAccounting pins the units of the lazily reduced
// interpolation paths to what the per-product code charged: n products for
// InterpolateAt0, n per NONZERO value for Interpolate, no inversions.
func TestDomainDotProductAccounting(t *testing.T) {
	var ctr metrics.Counters
	f := gf2k.MustNew(32).WithCounters(&ctr)
	const n = 7
	d, err := NewDomain(f, []gf2k.Element{1, 2, 3, 4, 5, 6, 7})
	if err != nil {
		t.Fatal(err)
	}
	ys := []gf2k.Element{9, 0, 8, 7, 0, 6, 5} // two zeros
	before := ctr.Snapshot()
	if _, err := d.InterpolateAt0(ys, &ctr); err != nil {
		t.Fatal(err)
	}
	if c := metrics.Diff(before, ctr.Snapshot()); c.FieldMuls != n || c.FieldAdds != n || c.FieldInvs != 0 || c.Interpolations != 1 {
		t.Fatalf("InterpolateAt0 cost %+v, want %d muls, %d adds, 1 interpolation", c, n, n)
	}
	before = ctr.Snapshot()
	if _, err := d.Interpolate(ys, &ctr); err != nil {
		t.Fatal(err)
	}
	if c := metrics.Diff(before, ctr.Snapshot()); c.FieldMuls != 5*n || c.FieldAdds != 5*n || c.FieldInvs != 0 || c.Interpolations != 1 {
		t.Fatalf("Interpolate cost %+v, want %d muls, %d adds, 1 interpolation", c, 5*n, 5*n)
	}
}

// TestParityRows: a universe builds each degree's check once; a word
// failing a row is charged only the rows read up to it; and at degree n−1,
// with no rows at all, the check is InterpolateAt0 over the whole universe.
func TestParityRows(t *testing.T) {
	var ctr metrics.Counters
	f := gf2k.MustNew(32).WithCounters(&ctr)
	const n, deg = 7, 2
	uni, err := IDDomain(f, n, nil)
	if err != nil {
		t.Fatal(err)
	}
	par := uni.Parity(deg)
	if par == nil || uni.Parity(deg) != par || uni.Parity(-1) != nil || uni.Parity(n) != nil {
		t.Fatal("Parity is not one memoized check per degree in [0, n)")
	}
	p := Poly{11, 22, 33}
	ys := EvalMany(f, p, uni.Xs())
	before := ctr.Snapshot()
	if s, ok := par.Secret(ys, &ctr); !ok || s != p[0] {
		t.Fatalf("codeword: Secret = %#x, %v; want %#x, true", s, ok, p[0])
	}
	if c := metrics.Diff(before, ctr.Snapshot()); c.FieldMuls != (deg+1)*(n-deg) || c.FieldAdds != c.FieldMuls || c.Interpolations != 1 {
		t.Fatalf("codeword cost %+v, want %d muls and adds, 1 interpolation", c, (deg+1)*(n-deg))
	}
	ys[deg+2] ^= 1 // fails the second row
	before = ctr.Snapshot()
	if _, ok := par.Secret(ys, &ctr); ok {
		t.Fatal("a corrupted word passed the check")
	}
	if c := metrics.Diff(before, ctr.Snapshot()); c.FieldMuls != 2*(deg+1) || c.Interpolations != 1 {
		t.Fatalf("word failing row 2 cost %+v, want %d muls, 1 interpolation", c, 2*(deg+1))
	}
	want, err := uni.InterpolateAt0(ys, nil)
	if err != nil {
		t.Fatal(err)
	}
	if s, ok := uni.Parity(n-1).Secret(ys, nil); !ok || s != want {
		t.Fatalf("degree n−1: Secret = %#x, %v; InterpolateAt0 = %#x", s, ok, want)
	}
}
