package bw

import (
	"errors"
	"math/rand"
	"testing"

	"repro/internal/gf2k"
	"repro/internal/metrics"
	"repro/internal/poly"
)

func setup(t testing.TB, k, n, degree int, seed int64) (gf2k.Field, []gf2k.Element, []gf2k.Element, poly.Poly) {
	t.Helper()
	f := gf2k.MustNew(k)
	rng := rand.New(rand.NewSource(seed))
	p, err := poly.Random(f, degree, gf2k.Element(rng.Uint64())&((1<<k)-1), rng)
	if err != nil {
		t.Fatal(err)
	}
	xs := make([]gf2k.Element, n)
	for i := range xs {
		xs[i] = gf2k.Element(i + 1) // player ids 1..n
	}
	ys := poly.EvalMany(f, p, xs)
	return f, xs, ys, p
}

func polyEqual(f gf2k.Field, a, b poly.Poly) bool {
	if a.Degree() != b.Degree() {
		return false
	}
	for i := 0; i <= a.Degree(); i++ {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestDecodeNoErrors(t *testing.T) {
	f, xs, ys, p := setup(t, 32, 10, 3, 1)
	res, err := Decode(f, xs, ys, 3, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !polyEqual(f, res.Poly, p) {
		t.Fatalf("decoded %v, want %v", res.Poly, p)
	}
	if len(res.ErrorIndexes) != 0 {
		t.Fatalf("error indexes = %v, want none", res.ErrorIndexes)
	}
}

func TestDecodeWithErrors(t *testing.T) {
	// n = 10, degree = 3 → tolerates e ≤ 3.
	for e := 1; e <= 3; e++ {
		f, xs, ys, p := setup(t, 32, 10, 3, int64(e)*7)
		rng := rand.New(rand.NewSource(int64(e) * 13))
		corrupted := rng.Perm(len(xs))[:e]
		for _, i := range corrupted {
			ys[i] ^= gf2k.Element(rng.Uint32() | 1)
		}
		res, err := Decode(f, xs, ys, 3, 3, nil)
		if err != nil {
			t.Fatalf("e=%d: %v", e, err)
		}
		if !polyEqual(f, res.Poly, p) {
			t.Fatalf("e=%d: wrong polynomial", e)
		}
		if len(res.ErrorIndexes) != e {
			t.Fatalf("e=%d: reported %d errors, want %d", e, len(res.ErrorIndexes), e)
		}
	}
}

func TestDecodeErrorPositionsReported(t *testing.T) {
	f, xs, ys, _ := setup(t, 32, 13, 4, 3)
	ys[2] ^= 5
	ys[9] ^= 9
	res, err := Decode(f, xs, ys, 4, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.ErrorIndexes) != 2 || res.ErrorIndexes[0] != 2 || res.ErrorIndexes[1] != 9 {
		t.Fatalf("ErrorIndexes = %v, want [2 9]", res.ErrorIndexes)
	}
}

func TestDecodeTooManyErrors(t *testing.T) {
	// degree 3, n = 10 → bound e = 3; corrupt 4 points randomly. With
	// overwhelming probability there is no degree-3 polynomial within 3
	// errors of the corrupted word (field is large).
	f, xs, ys, _ := setup(t, 32, 10, 3, 5)
	rng := rand.New(rand.NewSource(17))
	for _, i := range rng.Perm(len(xs))[:4] {
		ys[i] ^= gf2k.Element(rng.Uint32() | 1)
	}
	if _, err := Decode(f, xs, ys, 3, 3, nil); !errors.Is(err, ErrNoCodeword) {
		t.Fatalf("err = %v, want ErrNoCodeword", err)
	}
}

func TestDecodeParameterValidation(t *testing.T) {
	f, xs, ys, _ := setup(t, 16, 8, 2, 9)
	if _, err := Decode(f, xs, ys[:5], 2, 2, nil); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := Decode(f, xs, ys, -1, 2, nil); err == nil {
		t.Error("negative degree accepted")
	}
	if _, err := Decode(f, xs, ys, 2, -1, nil); err == nil {
		t.Error("negative error bound accepted")
	}
	// Need degree + 2e + 1 = 2 + 6 + 1 = 9 > 8 points.
	if _, err := Decode(f, xs, ys, 2, 3, nil); err == nil {
		t.Error("insufficient points accepted")
	}
}

func TestDecodeZeroErrorBudgetRejectsCorruption(t *testing.T) {
	f, xs, ys, _ := setup(t, 32, 6, 2, 11)
	ys[4] ^= 1
	if _, err := Decode(f, xs, ys, 2, 0, nil); !errors.Is(err, ErrNoCodeword) {
		t.Fatalf("err = %v, want ErrNoCodeword", err)
	}
}

func TestDecodeExactThreshold(t *testing.T) {
	// Exactly n = degree + 2e + 1 points: the paper's Coin-Expose setting
	// (|S| = 3t+1, degree t, e = t).
	for tFaults := 1; tFaults <= 4; tFaults++ {
		n := 3*tFaults + 1
		f, xs, ys, p := setup(t, 32, n, tFaults, int64(tFaults)*23)
		rng := rand.New(rand.NewSource(int64(tFaults) * 29))
		for _, i := range rng.Perm(n)[:tFaults] {
			ys[i] ^= gf2k.Element(rng.Uint32() | 1)
		}
		res, err := Decode(f, xs, ys, tFaults, tFaults, nil)
		if err != nil {
			t.Fatalf("t=%d: %v", tFaults, err)
		}
		if !polyEqual(f, res.Poly, p) {
			t.Fatalf("t=%d: wrong polynomial", tFaults)
		}
	}
}

func TestDecodeRandomizedSweep(t *testing.T) {
	// Property: for random polynomials, random distinct points, and any
	// e ≤ maxErrors corruptions, Decode recovers the original exactly.
	rng := rand.New(rand.NewSource(42))
	f := gf2k.MustNew(24)
	for trial := 0; trial < 200; trial++ {
		degree := rng.Intn(5)
		maxE := rng.Intn(4)
		n := degree + 2*maxE + 1 + rng.Intn(4)
		p, err := poly.Random(f, degree, gf2k.Element(rng.Uint32())&0xffffff, rng)
		if err != nil {
			t.Fatal(err)
		}
		xs := make([]gf2k.Element, n)
		for i := range xs {
			xs[i] = gf2k.Element(i + 1)
		}
		ys := poly.EvalMany(f, p, xs)
		e := 0
		if maxE > 0 {
			e = rng.Intn(maxE + 1)
		}
		for _, i := range rng.Perm(n)[:e] {
			for {
				delta := gf2k.Element(rng.Uint32()) & 0xffffff
				if delta != 0 {
					ys[i] ^= delta
					break
				}
			}
		}
		res, err := Decode(f, xs, ys, degree, maxE, nil)
		if err != nil {
			t.Fatalf("trial %d (deg=%d maxE=%d n=%d e=%d): %v", trial, degree, maxE, n, e, err)
		}
		if !polyEqual(f, res.Poly, p) {
			t.Fatalf("trial %d: wrong polynomial", trial)
		}
		if len(res.ErrorIndexes) != e {
			t.Fatalf("trial %d: reported %d errors, injected %d", trial, len(res.ErrorIndexes), e)
		}
	}
}

func TestDecodeCountsInterpolations(t *testing.T) {
	var c metrics.Counters
	f, xs, ys, _ := setup(t, 32, 10, 3, 1)
	fc := f.WithCounters(&c)
	if _, err := Decode(fc, xs, ys, 3, 3, &c); err != nil {
		t.Fatal(err)
	}
	if got := c.Snapshot().Interpolations; got != 1 {
		t.Errorf("fault-free decode used %d interpolations, want 1", got)
	}
}

func TestPolyDiv(t *testing.T) {
	f := gf2k.MustNew(16)
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 50; trial++ {
		a, _ := poly.Random(f, 1+rng.Intn(6), gf2k.Element(rng.Uint32())&0xffff, rng)
		b, _ := poly.Random(f, 1+rng.Intn(3), gf2k.Element(rng.Uint32())&0xffff, rng)
		if b.Degree() < 0 {
			continue
		}
		q, r, err := polyDiv(f, a, b)
		if err != nil {
			t.Fatal(err)
		}
		// a = q*b + r with deg r < deg b.
		recon := poly.Add(f, poly.Mul(f, q, b), r)
		x, _ := f.Rand(rng)
		if poly.Eval(f, recon, x) != poly.Eval(f, a, x) {
			t.Fatal("polyDiv: a != q*b + r")
		}
		if r.Degree() >= b.Degree() {
			t.Fatalf("polyDiv: deg r = %d ≥ deg b = %d", r.Degree(), b.Degree())
		}
	}
	if _, _, err := polyDiv(f, poly.Poly{1}, poly.Poly{}); err == nil {
		t.Error("division by zero polynomial accepted")
	}
}

func TestMatrixSolveSingular(t *testing.T) {
	f := gf2k.MustNew(16)
	// Inconsistent system: x = 1, x = 2.
	m := newMatrix(2, 1)
	m.set(0, 0, 1)
	m.setRHS(0, 1)
	m.set(1, 0, 1)
	m.setRHS(1, 2)
	if _, ok := m.solve(f, nil); ok {
		t.Error("inconsistent system reported solvable")
	}
	// Underdetermined system: free variable gets zero.
	m = newMatrix(1, 2)
	m.set(0, 0, 1)
	m.set(0, 1, 1)
	m.setRHS(0, 7)
	sol, ok := m.solve(f, nil)
	if !ok || sol[0] != 7 || sol[1] != 0 {
		t.Errorf("underdetermined solve = %v ok=%v, want [7 0] true", sol, ok)
	}
}

func BenchmarkDecode(b *testing.B) {
	cases := []struct {
		name      string
		n, deg, e int
		corrupt   int
	}{
		{"n=7_clean", 7, 2, 2, 0},
		{"n=7_faulty", 7, 2, 2, 2},
		{"n=13_clean", 13, 4, 4, 0},
		{"n=13_faulty", 13, 4, 4, 4},
		{"n=25_faulty", 25, 8, 8, 8},
	}
	for _, tc := range cases {
		f, xs, ys, _ := setup(b, 32, tc.n, tc.deg, 1)
		rng := rand.New(rand.NewSource(2))
		for _, i := range rng.Perm(tc.n)[:tc.corrupt] {
			ys[i] ^= gf2k.Element(rng.Uint32() | 1)
		}
		b.Run(tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := Decode(f, xs, ys, tc.deg, tc.e, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestDecoderManyWordsOneSetUp: one Reset serves any number of words over
// the same points — clean ones, dirty ones, undecodable ones, in any order —
// each decoding exactly as a one-shot DecodeWith does, while the domain
// cache is consulted once per Reset instead of once per word.
func TestDecoderManyWordsOneSetUp(t *testing.T) {
	const n, degree, maxErrors, words = 10, 3, 3, 12
	var ctr metrics.Counters
	f, xs, _, _ := setup(t, 32, n, degree, 1)
	rng := rand.New(rand.NewSource(5))

	var d Decoder
	if err := d.Reset(f, xs, degree, maxErrors, &ctr, nil); err != nil {
		t.Fatal(err)
	}
	lookups := func() int64 { s := ctr.Snapshot(); return s.DomainHits + s.DomainMisses }
	after := lookups()
	if after != 1 {
		t.Fatalf("Reset consulted the domain cache %d times, want 1", after)
	}
	for w := 0; w < words; w++ {
		p, err := poly.Random(f, degree, gf2k.Element(rng.Uint32()), rng)
		if err != nil {
			t.Fatal(err)
		}
		ys := poly.EvalMany(f, p, xs)
		lies := w % (maxErrors + 2) // 0..maxErrors decodable, maxErrors+1 not
		for _, i := range rng.Perm(n)[:lies] {
			ys[i] ^= gf2k.Element(1 + rng.Intn(1000))
		}
		got, gotErr := d.Decode(ys)
		want, wantErr := DecodeWith(f, xs, ys, degree, maxErrors, nil, nil)
		if (gotErr == nil) != (wantErr == nil) || (lies > maxErrors) != (gotErr != nil) {
			t.Fatalf("word %d with %d lies: Decoder err %v, DecodeWith err %v", w, lies, gotErr, wantErr)
		}
		if gotErr != nil {
			if !errors.Is(gotErr, ErrNoCodeword) {
				t.Fatalf("word %d: %v, want ErrNoCodeword", w, gotErr)
			}
			continue
		}
		if !polyEqual(f, got.Poly, p) || !polyEqual(f, want.Poly, p) {
			t.Fatalf("word %d with %d lies: Decoder %v, DecodeWith %v, dealt %v", w, lies, got.Poly, want.Poly, p)
		}
		if len(got.ErrorIndexes) != lies {
			t.Fatalf("word %d: %d error positions reported, %d planted", w, len(got.ErrorIndexes), lies)
		}
	}
	if lookups() != after {
		t.Fatalf("%d words cost %d more domain-cache lookups, want none", words, lookups()-after)
	}
	if _, err := d.Decode(make([]gf2k.Element, n-1)); err == nil {
		t.Fatal("a word shorter than the point list was accepted")
	}
	if err := d.Reset(f, xs[:degree+2*maxErrors], degree, maxErrors, nil, nil); err == nil {
		t.Fatal("Reset accepted a point list too short for its error budget")
	}
}

// TestOpenSecretAdaptiveBudget: with t = 2 faulty of 13, s of them silent
// and the rest lying, the shares that did arrive always open to F(0) — the
// budget shrinks with the point list exactly as the possible lies do — and
// one lie more than that is refused rather than mis-decoded.
func TestOpenSecretAdaptiveBudget(t *testing.T) {
	for _, tc := range []struct{ points, t, want int }{
		{13, 2, 2}, {12, 2, 2}, {7, 2, 2}, {6, 2, 1}, {4, 2, 0}, {3, 2, 0}, {1, 2, 0},
	} {
		if got := AdaptiveBudget(tc.points, tc.t); got != tc.want {
			t.Errorf("AdaptiveBudget(%d, %d) = %d, want %d", tc.points, tc.t, got, tc.want)
		}
	}
	const n, deg = 13, 2
	for silent := 0; silent <= deg; silent++ {
		f, xs, ys, p := setup(t, 32, n, deg, int64(silent)+40)
		xs, ys = xs[silent:], ys[silent:]
		for lie := 0; lie < deg-silent; lie++ {
			ys[lie] ^= 1
		}
		got, err := OpenSecret(f, xs, ys, deg, nil, nil)
		if err != nil || got != p[0] {
			t.Errorf("%d silent, %d lying: opened %v, %v; want %v", silent, deg-silent, got, err, p[0])
		}
	}
	f, xs, ys, _ := setup(t, 32, 6, deg, 50)
	ys[0] ^= 1
	ys[1] ^= 1
	if _, err := OpenSecret(f, xs, ys, deg, nil, nil); !errors.Is(err, ErrNoCodeword) {
		t.Errorf("two lies among six points (budget 1): err = %v, want ErrNoCodeword", err)
	}
}
