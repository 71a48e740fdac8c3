package bw

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/gf2k"
	"repro/internal/metrics"
	"repro/internal/poly"
)

// fastPathShapes are the (|S|, t) pairs the fault-free check is held to.
var fastPathShapes = [][2]int{{4, 1}, {7, 1}, {13, 2}}

// fastPathFields holds one counted field per k for the whole process, so
// the universes these tests cache are six entries however many inputs the
// fuzzer runs.
var fastPathFields = map[int]*struct {
	f   gf2k.Field
	ctr metrics.Counters
}{8: {}, 32: {}}

func init() {
	for k, fc := range fastPathFields {
		fc.f = gf2k.MustNew(k).WithCounters(&fc.ctr)
	}
}

// checkFastPath decodes a degree-≤t word over the cached universe 1..n with
// the listed positions corrupted, and holds DecodeSecret to the reference —
// interpolation through the first t+1 points, the plain-Eval disagreement
// scan, Eval at 0 — and to the Berlekamp–Welch solve exactly when that scan
// finds a disagreement.
func checkFastPath(t *testing.T, k, n, deg int, seed int64, corrupt []int) {
	t.Helper()
	fc := fastPathFields[k]
	f, ctr := fc.f, &fc.ctr
	uni, err := poly.IDDomain(f, n, nil)
	if err != nil {
		t.Fatal(err)
	}
	xs := uni.Xs()
	rng := rand.New(rand.NewSource(seed))
	p, err := poly.Random(f, deg, 0, rng)
	if err != nil {
		t.Fatal(err)
	}
	p[0], _ = f.Rand(rng)
	ys := poly.EvalMany(f, p, xs)
	for _, i := range corrupt {
		d, _ := f.Rand(rng)
		ys[i] ^= d | 1
	}

	// Today's fault-free step, computed without the universe.
	pre, err := poly.DomainFor(f, xs[:deg+1], nil)
	if err != nil {
		t.Fatal(err)
	}
	cand := make(poly.Poly, deg+1)
	if err := pre.InterpolateInto(cand, ys[:deg+1], nil); err != nil {
		t.Fatal(err)
	}
	clean := len(disagreements(f, nil, cand, xs, ys, nil)) == 0
	if clean != (len(corrupt) == 0) {
		t.Fatalf("reference scan: clean = %v with %d corruptions", clean, len(corrupt))
	}

	var d Decoder
	if err := d.Reset(f, xs, deg, AdaptiveBudget(n, deg), ctr, nil); err != nil {
		t.Fatal(err)
	}
	par := uni.Parity(deg)
	if d.uni != uni || par == nil {
		t.Fatalf("Reset over the cached universe 1..%d did not resolve it (uni %v, parity %v)", n, d.uni != nil, par != nil)
	}
	if s, ok := par.Secret(ys, nil); ok != clean || (ok && s != poly.Eval(f, cand, 0)) {
		t.Fatalf("parity rows: (%#x, %v), reference (%#x, clean %v)", s, ok, poly.Eval(f, cand, 0), clean)
	}
	before := ctr.Snapshot()
	got, err := d.DecodeSecret(ys)
	cost := metrics.Diff(before, ctr.Snapshot())
	if err != nil || got != p[0] {
		t.Fatalf("DecodeSecret = %#x, %v; dealt %#x", got, err, p[0])
	}
	// The check counts one interpolation; the solve, only on a disagreement,
	// one more.
	wantInterps := int64(2)
	if clean {
		wantInterps = 1
		if want := int64((deg + 1) * (n - deg)); cost.FieldMuls != want {
			t.Errorf("fault-free word: %d multiplications, want (t+1)(n−t) = %d", cost.FieldMuls, want)
		}
	}
	if cost.Interpolations != wantInterps {
		t.Errorf("%d corruptions: %d interpolations, want %d", len(corrupt), cost.Interpolations, wantInterps)
	}
}

// TestDecodeFastPathDifferential runs checkFastPath over every shape and k
// with 0 to t corruptions, inside and outside the t+1 prefix.
func TestDecodeFastPathDifferential(t *testing.T) {
	for _, k := range []int{8, 32} {
		for _, sh := range fastPathShapes {
			n, deg := sh[0], sh[1]
			cases := [][]int{nil, {0}, {deg}, {deg + 1}, {n - 1}}
			if deg == 2 {
				cases = append(cases, []int{0, 1}, []int{1, n - 2}, []int{5, 9})
			}
			for i, corrupt := range cases {
				t.Run(fmt.Sprintf("k=%d,n=%d,t=%d,corrupt=%v", k, n, deg, corrupt), func(t *testing.T) {
					checkFastPath(t, k, n, deg, int64(100*i+n+k), corrupt)
				})
			}
		}
	}
}

// FuzzDecodeFastPath is checkFastPath on fuzzer-chosen shape, field,
// corruption count (≤ t) and positions. The top bit of corrupt moves the
// first corruption into the t+1 prefix.
func FuzzDecodeFastPath(f *testing.F) {
	f.Add(uint8(0), false, uint8(0), int64(1))
	f.Add(uint8(1), true, uint8(1), int64(2))
	f.Add(uint8(2), true, uint8(0x82), int64(3))
	f.Add(uint8(2), false, uint8(2), int64(4))
	f.Fuzz(func(t *testing.T, shape uint8, wide bool, corrupt uint8, seed int64) {
		sh := fastPathShapes[int(shape)%len(fastPathShapes)]
		n, deg := sh[0], sh[1]
		k := 8
		if wide {
			k = 32
		}
		rng := rand.New(rand.NewSource(seed))
		pos := rng.Perm(n)[:int(corrupt&0x7f)%(deg+1)]
		if corrupt&0x80 != 0 && len(pos) > 0 {
			in := rng.Intn(deg + 1)
			for i, q := range pos {
				if q == in { // already corrupted: bring it to the front
					pos[0], pos[i] = pos[i], pos[0]
				}
			}
			pos[0] = in
		}
		checkFastPath(t, k, n, deg, seed, pos)
	})
}
