package gf2k

import (
	"math/bits"
	"math/rand"
	"testing"

	"repro/internal/metrics"
)

// clmul64 is the bit-serial carry-less multiply the package used before the
// comb kernel; with reduce128 it is the oracle every kernel test compares
// against.
func clmul64(a, b uint64) (hi, lo uint64) {
	for b != 0 {
		i := bits.TrailingZeros64(b)
		b &= b - 1
		lo ^= a << i
		if i != 0 {
			hi ^= a >> (64 - i)
		}
	}
	return hi, lo
}

// refMul is the reference product: bit-serial multiply, long-division
// reduction.
func refMul(f Field, a, b Element) Element {
	hi, lo := clmul64(uint64(a), uint64(b))
	return Element(reduce128(hi, lo, f.k, f.taps))
}

// operands returns the edge elements 0, 1, x^{k−1} and all-ones followed by
// n random ones.
func operands(f Field, rng *rand.Rand, n int) []Element {
	out := []Element{0, 1, Element(1) << (f.k - 1), Element(f.mask())}
	for i := 0; i < n; i++ {
		out = append(out, randElem(f, rng))
	}
	return out
}

// TestKernelMatchesReference is the differential test for every degree the
// package supports: comb multiply + fold reduction, the dedicated squaring,
// the fixed-operand multiplier and the lazily reduced dot product all equal
// the bit-serial reference.
func TestKernelMatchesReference(t *testing.T) {
	for k := 2; k <= 64; k++ {
		f := MustNew(k)
		rng := rand.New(rand.NewSource(int64(k) * 101))
		ops := operands(f, rng, 24)
		rev := make([]Element, len(ops))
		var sum Element
		for i := range ops {
			rev[i] = ops[len(ops)-1-i]
			sum ^= refMul(f, ops[i], rev[i])
		}
		if got := f.Dot(ops, rev); got != sum {
			t.Fatalf("k=%d: Dot = %#x, want Σ Mul = %#x", k, got, sum)
		}
		for _, c := range ops {
			m := f.Multiplier(c)
			for _, x := range ops {
				want := refMul(f, c, x)
				if got := f.Mul(c, x); got != want {
					t.Fatalf("k=%d: Mul(%#x,%#x) = %#x, want %#x", k, c, x, got, want)
				}
				if got := m.Mul(x); got != want {
					t.Fatalf("k=%d: Multiplier(%#x).Mul(%#x) = %#x, want %#x", k, c, x, got, want)
				}
			}
			if got, want := f.Sqr(c), refMul(f, c, c); got != want {
				t.Fatalf("k=%d: Sqr(%#x) = %#x, want %#x", k, c, got, want)
			}
		}
		if got := f.Dot(nil, nil); got != 0 {
			t.Fatalf("k=%d: empty Dot = %#x", k, got)
		}
	}
}

func TestClmulMatchesBitSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	edge := []uint64{0, 1, 1 << 31, 1<<32 - 1, 1 << 60, 1 << 61, 7 << 61, 1 << 63, ^uint64(0)}
	check := func(a, b uint64) {
		t.Helper()
		whi, wlo := clmul64(a, b)
		if hi, lo := clmul(a, b); hi != whi || lo != wlo {
			t.Fatalf("clmul(%#x,%#x) = (%#x,%#x), want (%#x,%#x)", a, b, hi, lo, whi, wlo)
		}
		if a>>32 == 0 && b>>32 == 0 {
			if lo := clmul32(a, b); whi != 0 || lo != wlo {
				t.Fatalf("clmul32(%#x,%#x) = %#x, want %#x", a, b, lo, wlo)
			}
		}
		if shi, slo := spread(a); a == b && (shi != whi || slo != wlo) {
			t.Fatalf("spread(%#x) = (%#x,%#x), want (%#x,%#x)", a, shi, slo, whi, wlo)
		}
	}
	for _, a := range edge {
		for _, b := range edge {
			check(a, b)
		}
	}
	for i := 0; i < 2000; i++ {
		a, b := rng.Uint64(), rng.Uint64()
		check(a, b)
		check(a, a)
		check(a>>32, b>>32)
		check(a>>uint(rng.Intn(64)), b>>uint(rng.Intn(64)))
	}
}

// TestKernelDoesNotAllocate pins the hot products to the stack.
func TestKernelDoesNotAllocate(t *testing.T) {
	for _, k := range []int{8, 32, 64} {
		f := MustNew(k)
		m := f.Multiplier(Element(f.mask()) - 2)
		x := Element(f.mask()) - 6
		ys := []Element{x, x + 1, 3, 5}
		for name, fn := range map[string]func(){
			"Mul":            func() { x = f.Mul(x, x|1) | 1 },
			"Sqr":            func() { x = f.Sqr(x) | 1 },
			"Multiplier.Mul": func() { x = m.Mul(x) | 1 },
			"Dot":            func() { x = f.Dot(ys, ys) | 1 },
		} {
			if n := testing.AllocsPerRun(100, fn); n != 0 {
				t.Errorf("k=%d: %s allocates %v times per call", k, name, n)
			}
		}
	}
}

// TestBulkPrimitivesAreTalliedByCaller pins the accounting split: the bulk
// primitives never touch the counters, Tally adds exactly what it is told,
// and Sqr is one multiplication.
func TestBulkPrimitivesAreTalliedByCaller(t *testing.T) {
	var c metrics.Counters
	f := MustNew(32).WithCounters(&c)
	m := f.Multiplier(0xdeadbeef)
	m.Mul(3)
	f.Dot([]Element{1, 2, 3}, []Element{4, 5, 6})
	if s := c.Snapshot(); s != (metrics.Snapshot{}) {
		t.Fatalf("bulk primitives touched the counters: %+v", s)
	}
	f.Tally(7, 5)
	f.Sqr(9)
	if s := c.Snapshot(); s.FieldMuls != 8 || s.FieldAdds != 5 || s.FieldInvs != 0 {
		t.Fatalf("counters = %+v, want muls=8 adds=5", s)
	}
	MustNew(32).Tally(1, 1) // no counters attached: a no-op, not a panic
}

// FuzzMulMatchesReference drives Mul, Multiplier.Mul, Sqr and Dot against
// the bit-serial reference for arbitrary degrees and operands.
func FuzzMulMatchesReference(f *testing.F) {
	f.Add(uint8(32), uint64(0xdeadbeef), uint64(0x8badf00d), uint64(0xffffffff))
	f.Add(uint8(64), ^uint64(0), ^uint64(0), uint64(1)<<63)
	f.Add(uint8(2), uint64(3), uint64(2), uint64(1))
	f.Add(uint8(61), uint64(1)<<60, uint64(1)<<60|1, uint64(0))
	fields := map[int]Field{}
	f.Fuzz(func(t *testing.T, kRaw uint8, a, b, c uint64) {
		k := 2 + int(kRaw)%63
		fld, ok := fields[k]
		if !ok {
			fld = MustNew(k)
			fields[k] = fld
		}
		x, y, z := Element(a&fld.mask()), Element(b&fld.mask()), Element(c&fld.mask())
		want := refMul(fld, x, y)
		if got := fld.Mul(x, y); got != want {
			t.Fatalf("k=%d: Mul(%#x,%#x) = %#x, want %#x", k, x, y, got, want)
		}
		if got := fld.Multiplier(x).Mul(y); got != want {
			t.Fatalf("k=%d: Multiplier(%#x).Mul(%#x) = %#x, want %#x", k, x, y, got, want)
		}
		if got, want := fld.Sqr(z), refMul(fld, z, z); got != want {
			t.Fatalf("k=%d: Sqr(%#x) = %#x, want %#x", k, z, got, want)
		}
		if got, want := fld.Dot([]Element{x, y, z}, []Element{y, z, x}), want^refMul(fld, y, z)^refMul(fld, z, x); got != want {
			t.Fatalf("k=%d: Dot = %#x, want %#x", k, got, want)
		}
	})
}

func BenchmarkKernel(b *testing.B) {
	f := MustNew(32)
	rng := rand.New(rand.NewSource(1))
	x, c := randElem(f, rng), randElem(f, rng)
	m := f.Multiplier(c)
	ys, ws := make([]Element, 13), make([]Element, 13)
	for i := range ys {
		ys[i], ws[i] = randElem(f, rng), randElem(f, rng)
	}
	b.Run("Mul", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			x = f.Mul(x, c) | 1
		}
	})
	b.Run("Sqr", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			x = f.Sqr(x) | 1
		}
	})
	b.Run("Multiplier.Mul", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			x = m.Mul(x) | 1
		}
	})
	b.Run("Multiplier", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			m = f.Multiplier(x)
		}
	})
	b.Run("Dot13", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ys[0] = f.Dot(ys, ws) | 1
		}
	})
}
