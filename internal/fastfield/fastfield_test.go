package fastfield

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/gf2big"
	"repro/internal/gf2k"
)

func randElem(f *Field, rng *rand.Rand) Element {
	e := make(Element, f.L())
	for i := range e {
		e[i] = uint32(rng.Intn(int(f.Q())))
	}
	return e
}

func testFields(t testing.TB) []*Field {
	t.Helper()
	var out []*Field
	for _, k := range []int{16, 64, 256} {
		f, err := New(k)
		if err != nil {
			t.Fatalf("New(%d): %v", k, err)
		}
		out = append(out, f)
	}
	return out
}

func TestNewMeetsSecurityParameter(t *testing.T) {
	for _, k := range []int{8, 16, 64, 128, 512} {
		f, err := New(k)
		if err != nil {
			t.Fatalf("New(%d): %v", k, err)
		}
		if f.Bits() < float64(k) {
			t.Errorf("k=%d: field has only %.1f bits", k, f.Bits())
		}
		// The paper wants q = O(l): check q stays within a small factor.
		if float64(f.Q()) > 64*float64(f.L())+64 {
			t.Errorf("k=%d: q=%d not O(l) for l=%d", k, f.Q(), f.L())
		}
	}
	if _, err := New(1); err == nil {
		t.Error("New(1) accepted")
	}
}

func TestNewWithParamsValidation(t *testing.T) {
	if _, err := NewWithParams(15, 4); err == nil {
		t.Error("composite q accepted")
	}
	if _, err := NewWithParams(97, 1); err == nil {
		t.Error("l=1 accepted")
	}
	if _, err := NewWithParams(5, 8); err == nil {
		t.Error("q < 2l+1 accepted")
	}
	if _, err := NewWithParams(7, 4); err == nil {
		t.Error("q without NTT roots accepted") // 8 ∤ 6
	}
}

func TestModulusIrreducible(t *testing.T) {
	for _, f := range testFields(t) {
		if !f.isIrreducible(f.h) {
			t.Errorf("q=%d l=%d: modulus fails Ben-Or test", f.Q(), f.L())
		}
		if polyDeg(f.h) != f.L() || f.h[f.L()] != 1 {
			t.Errorf("modulus not monic of degree l")
		}
	}
}

func TestFieldAxioms(t *testing.T) {
	for _, f := range testFields(t) {
		rng := rand.New(rand.NewSource(int64(f.L())))
		for trial := 0; trial < 50; trial++ {
			a, b, c := randElem(f, rng), randElem(f, rng), randElem(f, rng)
			if !f.Equal(f.Mul(a, b), f.Mul(b, a)) {
				t.Fatalf("q=%d l=%d: commutativity fails", f.Q(), f.L())
			}
			if !f.Equal(f.Mul(f.Mul(a, b), c), f.Mul(a, f.Mul(b, c))) {
				t.Fatalf("q=%d l=%d: associativity fails", f.Q(), f.L())
			}
			if !f.Equal(f.Mul(a, f.Add(b, c)), f.Add(f.Mul(a, b), f.Mul(a, c))) {
				t.Fatalf("q=%d l=%d: distributivity fails", f.Q(), f.L())
			}
			if !f.Equal(f.Mul(a, f.One()), a) {
				t.Fatalf("q=%d l=%d: identity fails", f.Q(), f.L())
			}
			if !f.IsZero(f.Mul(a, f.Zero())) {
				t.Fatalf("q=%d l=%d: absorbing zero fails", f.Q(), f.L())
			}
			if !f.IsZero(f.Sub(a, a)) {
				t.Fatalf("q=%d l=%d: a−a ≠ 0", f.Q(), f.L())
			}
		}
	}
}

func TestMulMatchesNaive(t *testing.T) {
	// The NTT/Barrett path must agree with schoolbook on random inputs.
	for _, f := range testFields(t) {
		rng := rand.New(rand.NewSource(int64(f.Q())))
		for trial := 0; trial < 100; trial++ {
			a, b := randElem(f, rng), randElem(f, rng)
			fast := f.Mul(a, b)
			slow := f.MulNaive(a, b)
			if !f.Equal(fast, slow) {
				t.Fatalf("q=%d l=%d trial %d: NTT %v != naive %v", f.Q(), f.L(), trial, fast, slow)
			}
		}
	}
}

func TestInv(t *testing.T) {
	for _, f := range testFields(t) {
		rng := rand.New(rand.NewSource(99))
		for trial := 0; trial < 30; trial++ {
			a := randElem(f, rng)
			if f.IsZero(a) {
				continue
			}
			if got := f.Mul(a, f.Inv(a)); !f.Equal(got, f.One()) {
				t.Fatalf("q=%d l=%d: a·Inv(a) = %v", f.Q(), f.L(), got)
			}
		}
	}
}

func TestInvZeroPanics(t *testing.T) {
	f, err := New(16)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Inv(0) did not panic")
		}
	}()
	f.Inv(f.Zero())
}

func TestExpOrder(t *testing.T) {
	// Lagrange: a^(q^l − 1) = 1 for a ≠ 0 — checked in a small field where
	// q^l fits comfortably.
	f, err := NewWithParams(17, 2) // GF(17²): order 288
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	order := uint64(17*17 - 1)
	for trial := 0; trial < 20; trial++ {
		a := randElem(f, rng)
		if f.IsZero(a) {
			continue
		}
		if !f.Equal(f.Exp(a, order), f.One()) {
			t.Fatalf("a^%d != 1 for a=%v", order, a)
		}
	}
}

func TestRand(t *testing.T) {
	f, err := New(32)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	seen := make(map[string]bool)
	for i := 0; i < 50; i++ {
		e, err := f.Rand(rng)
		if err != nil {
			t.Fatal(err)
		}
		if !f.Valid(e) {
			t.Fatalf("invalid random element %v", e)
		}
		key := ""
		for _, c := range e {
			key += string(rune(c)) + ","
		}
		seen[key] = true
	}
	if len(seen) < 45 {
		t.Errorf("only %d/50 distinct random elements", len(seen))
	}
}

func TestNTTRoundTrip(t *testing.T) {
	z := newZq(97) // 97−1 = 96 = 2^5·3: supports size-32 NTT
	tr, err := newNTT(z, 32)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(6))
	a := make([]uint32, 32)
	for i := range a {
		a[i] = uint32(rng.Intn(97))
	}
	b := append([]uint32(nil), a...)
	tr.transform(b, false)
	tr.transform(b, true)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("NTT round trip failed at %d: %d != %d", i, b[i], a[i])
		}
	}
}

func TestNTTMulPolyMatchesSchoolbook(t *testing.T) {
	z := newZq(97)
	tr, err := newNTT(z, 32)
	if err != nil {
		t.Fatal(err)
	}
	f := &Field{z: z, l: 16}
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		la, lb := 1+rng.Intn(16), 1+rng.Intn(16)
		a := make([]uint32, la)
		b := make([]uint32, lb)
		for i := range a {
			a[i] = uint32(rng.Intn(97))
		}
		for i := range b {
			b[i] = uint32(rng.Intn(97))
		}
		got := tr.mulPoly(a, b)
		want := f.polyMulSchool(a, b)
		if polyDeg(got) != polyDeg(want) {
			t.Fatalf("degree mismatch: %d vs %d", polyDeg(got), polyDeg(want))
		}
		for i := 0; i <= polyDeg(want); i++ {
			if got[i] != want[i] {
				t.Fatalf("trial %d coeff %d: %d != %d", trial, i, got[i], want[i])
			}
		}
	}
}

func TestZqTableMatchesDirect(t *testing.T) {
	z := newZq(257) // tabled
	for a := uint32(0); a < 257; a += 13 {
		for b := uint32(0); b < 257; b += 7 {
			if z.mul(a, b) != uint32(uint64(a)*uint64(b)%257) {
				t.Fatalf("table mul wrong at %d,%d", a, b)
			}
		}
	}
	for a := uint32(1); a < 257; a++ {
		if z.mul(a, z.inv(a)) != 1 {
			t.Fatalf("inv wrong at %d", a)
		}
	}
}

func TestGenerator(t *testing.T) {
	z := newZq(97)
	g, err := z.generator()
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[uint32]bool)
	x := uint32(1)
	for i := 0; i < 96; i++ {
		seen[x] = true
		x = z.mul(x, g)
	}
	if len(seen) != 96 {
		t.Fatalf("generator %d has order %d, want 96", g, len(seen))
	}
}

func TestPolyDivMod(t *testing.T) {
	f := &Field{z: newZq(97), l: 8}
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 50; trial++ {
		a := make([]uint32, 1+rng.Intn(12))
		b := make([]uint32, 1+rng.Intn(6))
		for i := range a {
			a[i] = uint32(rng.Intn(97))
		}
		for i := range b {
			b[i] = uint32(rng.Intn(97))
		}
		if polyDeg(b) < 0 {
			continue
		}
		q, r := f.polyDivMod(a, b)
		recon := f.polySub(a, f.polySub(a, f.polyAddTest(f.polyMulSchool(q, b), r)))
		// recon should equal a: check a == q*b + r directly.
		qb := f.polyMulSchool(q, b)
		sum := f.polyAddTest(qb, r)
		if polyDeg(f.polySub(a, sum)) >= 0 {
			t.Fatalf("trial %d: a != q·b + r", trial)
		}
		if polyDeg(r) >= polyDeg(b) {
			t.Fatalf("trial %d: deg r ≥ deg b", trial)
		}
		_ = recon
	}
}

// polyAddTest is a test helper (addition is only needed here).
func (f *Field) polyAddTest(a, b []uint32) []uint32 {
	n := len(a)
	if len(b) > n {
		n = len(b)
	}
	out := make([]uint32, n)
	for i := range out {
		var x, y uint32
		if i < len(a) {
			x = a[i]
		}
		if i < len(b) {
			y = b[i]
		}
		out[i] = f.z.add(x, y)
	}
	return out
}

func TestBitsComputation(t *testing.T) {
	f, err := NewWithParams(17, 4)
	if err != nil {
		t.Fatal(err)
	}
	want := 4 * math.Log2(17)
	if math.Abs(f.Bits()-want) > 1e-9 {
		t.Errorf("Bits = %v, want %v", f.Bits(), want)
	}
}

func BenchmarkMulNTT(b *testing.B) {
	for _, k := range []int{64, 256, 1024, 4096} {
		f, err := New(k)
		if err != nil {
			b.Fatal(err)
		}
		rng := rand.New(rand.NewSource(1))
		x, y := randElem(f, rng), randElem(f, rng)
		b.Run(benchK(k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				x = f.Mul(x, y)
			}
		})
	}
}

func BenchmarkMulNaivePoly(b *testing.B) {
	for _, k := range []int{64, 256, 1024, 4096} {
		f, err := New(k)
		if err != nil {
			b.Fatal(err)
		}
		rng := rand.New(rand.NewSource(1))
		x, y := randElem(f, rng), randElem(f, rng)
		b.Run(benchK(k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				x = f.MulNaive(x, y)
			}
		})
	}
}

func benchK(k int) string {
	switch {
	case k < 100:
		return "k=00" + itoa(k)
	case k < 1000:
		return "k=0" + itoa(k)
	default:
		return "k=" + itoa(k)
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf []byte
	for n > 0 {
		buf = append([]byte{byte('0' + n%10)}, buf...)
		n /= 10
	}
	return string(buf)
}

// minNsPerOp runs op iters times, five times over, and returns the fastest
// pass's nanoseconds per call.
func minNsPerOp(iters int, op func()) float64 {
	best := math.Inf(1)
	for rep := 0; rep < 5; rep++ {
		start := time.Now()
		for i := 0; i < iters; i++ {
			op()
		}
		best = math.Min(best, float64(time.Since(start).Nanoseconds())/float64(iters))
	}
	return best
}

// TestMultiplicationCrossover checks the direction of §2's remark (E9):
// at small k the naive single-word GF(2^k) multiply beats both the
// multi-word naive GF(2^k) and the special field's O(k log k) NTT
// multiply, and at large k the NTT overtakes the schoolbook product in
// the same special field. Only gaps that measure ≥ 6× are asserted, with
// a 3× margin; the timings themselves are logged.
func TestMultiplicationCrossover(t *testing.T) {
	rng := rand.New(rand.NewSource(9))

	small := gf2k.MustNew(32)
	a, b := gf2k.Element(rng.Uint32()|1), gf2k.Element(rng.Uint32()|1)
	word := minNsPerOp(20000, func() { a = small.Mul(a, b) | 1 })
	big, err := gf2big.New(32)
	if err != nil {
		t.Fatal(err)
	}
	x, _ := big.Rand(rng)
	y, _ := big.Rand(rng)
	multiWord := minNsPerOp(2000, func() { x = big.Mul(x, y) })
	ff32, err := New(32)
	if err != nil {
		t.Fatal(err)
	}
	u, v := randElem(ff32, rng), randElem(ff32, rng)
	ntt32 := minNsPerOp(500, func() { u = ff32.Mul(u, v) })
	t.Logf("k=32: gf2k %.0f ns, gf2big %.0f ns, fastfield NTT %.0f ns per multiply", word, multiWord, ntt32)
	if 3*word > multiWord || 3*word > ntt32 {
		t.Errorf("k=32: single-word GF(2^k) (%.0f ns) is not 3× faster than gf2big (%.0f ns) and the NTT field (%.0f ns)",
			word, multiWord, ntt32)
	}

	ff, err := New(8192)
	if err != nil {
		t.Fatal(err)
	}
	u, v = randElem(ff, rng), randElem(ff, rng)
	naive := minNsPerOp(1, func() { ff.MulNaive(u, v) })
	ntt := minNsPerOp(1, func() { ff.Mul(u, v) })
	t.Logf("k=8192: fastfield schoolbook %.0f ns, NTT %.0f ns per multiply", naive, ntt)
	if 3*ntt > naive {
		t.Errorf("k=8192: NTT multiply (%.0f ns) is not 3× faster than the schoolbook one (%.0f ns)", ntt, naive)
	}
}
