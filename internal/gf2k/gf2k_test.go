package gf2k

import (
	"bytes"
	"encoding/binary"
	"io"
	"math/rand"
	"reflect"
	"testing"
	"testing/iotest"
	"testing/quick"

	"repro/internal/metrics"
)

// testDegrees spans small, medium, byte-aligned and extreme extension
// degrees; every algebraic property is checked on each of them.
var testDegrees = []int{2, 3, 4, 7, 8, 10, 13, 16, 24, 31, 32, 40, 53, 63, 64}

func randElem(f Field, rng *rand.Rand) Element {
	return Element(rng.Uint64()) & Element(f.mask())
}

func TestNewRejectsBadDegrees(t *testing.T) {
	for _, k := range []int{-1, 0, 1, 65, 128} {
		if _, err := New(k); err == nil {
			t.Errorf("New(%d): expected error, got nil", k)
		}
	}
}

func TestModulusIsIrreducible(t *testing.T) {
	for _, k := range testDegrees {
		f := MustNew(k)
		if !isIrreducible(k, f.Modulus()) {
			t.Errorf("GF(2^%d): modulus %#x fails Rabin irreducibility test", k, f.Modulus())
		}
	}
}

func TestKnownModuli(t *testing.T) {
	// Cross-check a few degrees against published low-weight irreducible
	// polynomials (these are the lexicographically smallest, e.g. AES's
	// x^8+x^4+x^3+x+1 for k=8).
	tests := []struct {
		k    int
		taps uint64
	}{
		{2, 0x3},  // x^2+x+1
		{3, 0x3},  // x^3+x+1
		{4, 0x3},  // x^4+x+1
		{8, 0x1b}, // x^8+x^4+x^3+x+1
	}
	for _, tt := range tests {
		f := MustNew(tt.k)
		if f.Modulus() != tt.taps {
			t.Errorf("GF(2^%d): modulus = %#x, want %#x", tt.k, f.Modulus(), tt.taps)
		}
	}
}

func TestAddIsXor(t *testing.T) {
	f := MustNew(16)
	if got := f.Add(0x1234, 0x00ff); got != 0x12cb {
		t.Errorf("Add = %#x, want %#x", got, 0x12cb)
	}
	if got := f.Add(0x1234, 0x1234); got != 0 {
		t.Errorf("a+a = %#x, want 0 (characteristic 2)", got)
	}
}

func TestMulSmallFieldTable(t *testing.T) {
	// GF(4) = {0,1,x,x+1} with x^2 = x+1: full multiplication table.
	f := MustNew(2)
	want := [4][4]Element{
		{0, 0, 0, 0},
		{0, 1, 2, 3},
		{0, 2, 3, 1},
		{0, 3, 1, 2},
	}
	for a := Element(0); a < 4; a++ {
		for b := Element(0); b < 4; b++ {
			if got := f.Mul(a, b); got != want[a][b] {
				t.Errorf("GF(4): %d*%d = %d, want %d", a, b, got, want[a][b])
			}
		}
	}
}

func TestFieldAxiomsQuick(t *testing.T) {
	for _, k := range testDegrees {
		f := MustNew(k)
		rng := rand.New(rand.NewSource(int64(k)))
		cfg := &quick.Config{
			MaxCount: 200,
			Values: func(vals []reflect.Value, _ *rand.Rand) {
				for i := range vals {
					vals[i] = reflect.ValueOf(randElem(f, rng))
				}
			},
		}
		if err := quick.Check(func(a, b, c Element) bool {
			// Commutativity, associativity, distributivity.
			if f.Mul(a, b) != f.Mul(b, a) {
				return false
			}
			if f.Mul(f.Mul(a, b), c) != f.Mul(a, f.Mul(b, c)) {
				return false
			}
			return f.Mul(a, f.Add(b, c)) == f.Add(f.Mul(a, b), f.Mul(a, c))
		}, cfg); err != nil {
			t.Errorf("GF(2^%d) axioms: %v", k, err)
		}
	}
}

func TestMulIdentityAndZero(t *testing.T) {
	for _, k := range testDegrees {
		f := MustNew(k)
		rng := rand.New(rand.NewSource(7 * int64(k)))
		for i := 0; i < 50; i++ {
			a := randElem(f, rng)
			if f.Mul(a, 1) != a {
				t.Fatalf("GF(2^%d): a*1 != a for a=%#x", k, a)
			}
			if f.Mul(a, 0) != 0 {
				t.Fatalf("GF(2^%d): a*0 != 0 for a=%#x", k, a)
			}
		}
	}
}

func TestInv(t *testing.T) {
	for _, k := range testDegrees {
		f := MustNew(k)
		rng := rand.New(rand.NewSource(11 * int64(k)))
		for i := 0; i < 50; i++ {
			a := randElem(f, rng)
			if a == 0 {
				continue
			}
			inv := f.Inv(a)
			if got := f.Mul(a, inv); got != 1 {
				t.Fatalf("GF(2^%d): a*Inv(a) = %#x, want 1 (a=%#x)", k, got, a)
			}
		}
	}
}

func TestInvZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Inv(0) did not panic")
		}
	}()
	MustNew(8).Inv(0)
}

func TestDivRoundTrip(t *testing.T) {
	f := MustNew(32)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 100; i++ {
		a, b := randElem(f, rng), randElem(f, rng)
		if b == 0 {
			continue
		}
		if got := f.Mul(f.Div(a, b), b); got != a {
			t.Fatalf("(a/b)*b = %#x, want %#x", got, a)
		}
	}
}

func TestExp(t *testing.T) {
	f := MustNew(16)
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 30; i++ {
		a := randElem(f, rng)
		want := Element(1)
		for e := uint64(0); e < 20; e++ {
			if got := f.Exp(a, e); got != want {
				t.Fatalf("Exp(%#x, %d) = %#x, want %#x", a, e, got, want)
			}
			want = f.Mul(want, a)
		}
	}
	// Fermat: a^(2^k - 1) = 1 for a != 0.
	for i := 0; i < 30; i++ {
		a := randElem(f, rng)
		if a == 0 {
			continue
		}
		if got := f.Exp(a, (1<<16)-1); got != 1 {
			t.Fatalf("a^(2^16-1) = %#x, want 1", got)
		}
	}
}

func TestFrobeniusFixedField(t *testing.T) {
	// x -> x^2 is a field automorphism: (a+b)^2 = a^2 + b^2.
	for _, k := range testDegrees {
		f := MustNew(k)
		rng := rand.New(rand.NewSource(13 * int64(k)))
		for i := 0; i < 30; i++ {
			a, b := randElem(f, rng), randElem(f, rng)
			if f.Sqr(f.Add(a, b)) != f.Add(f.Sqr(a), f.Sqr(b)) {
				t.Fatalf("GF(2^%d): Frobenius not additive", k)
			}
		}
	}
}

func TestRandProducesValidElements(t *testing.T) {
	for _, k := range testDegrees {
		f := MustNew(k)
		rng := rand.New(rand.NewSource(int64(k) * 17))
		for i := 0; i < 50; i++ {
			e, err := f.Rand(rng)
			if err != nil {
				t.Fatalf("GF(2^%d): Rand: %v", k, err)
			}
			if !f.Valid(e) {
				t.Fatalf("GF(2^%d): Rand produced out-of-range element %#x", k, e)
			}
		}
	}
}

func TestRandErrorPropagates(t *testing.T) {
	f := MustNew(8)
	if _, err := f.Rand(bytes.NewReader(nil)); err == nil {
		t.Fatal("expected error from empty randomness source")
	}
}

// randWord is Rand as it read before RandElements existed — one
// io.ReadFull of 8 bytes per element, masked — kept as the reference.
func randWord(f Field, r io.Reader) (Element, error) {
	var buf [8]byte
	if _, err := io.ReadFull(r, buf[:]); err != nil {
		return 0, err
	}
	return Element(binary.LittleEndian.Uint64(buf[:]) & f.mask()), nil
}

// TestRandElementsMatchesRand: one RandElements read yields the elements a
// loop of 8-byte reads yields, as does a loop of Rand, and each leaves the
// reader at the same position, for readers that split reads differently. A
// *rand.Rand also serves Uint32 calls around the draw, as a protocol's Rand
// stream may.
func TestRandElementsMatchesRand(t *testing.T) {
	const maxCount, probe = 40, 16
	data := make([]byte, 8*maxCount+probe)
	rand.New(rand.NewSource(7)).Read(data)
	readers := []struct {
		name string
		make func() io.Reader
	}{
		{"math/rand", func() io.Reader { return rand.New(rand.NewSource(11)) }},
		{"bytes.Reader", func() io.Reader { return bytes.NewReader(data) }},
		{"OneByteReader", func() io.Reader { return iotest.OneByteReader(bytes.NewReader(data)) }},
		{"HalfReader", func() io.Reader { return iotest.HalfReader(bytes.NewReader(data)) }},
	}
	loopOf := func(one func(Field, io.Reader) (Element, error)) func(Field, io.Reader, []Element) error {
		return func(f Field, r io.Reader, dst []Element) error {
			for i := range dst {
				e, err := one(f, r)
				if err != nil {
					return err
				}
				dst[i] = e
			}
			return nil
		}
	}
	draws := []struct {
		name string
		draw func(Field, io.Reader, []Element) error
	}{
		{"8-byte reads", loopOf(randWord)}, // the reference: first
		{"Rand", loopOf(Field.Rand)},
		{"RandElements", Field.RandElements},
	}
	// interleave draws a Uint32 from a *rand.Rand and reports it.
	interleave := func(r io.Reader) uint32 {
		if rr, ok := r.(*rand.Rand); ok {
			return rr.Uint32()
		}
		return 0
	}
	for _, k := range []int{5, 32, 64} {
		f := MustNew(k)
		for _, rc := range readers {
			for _, count := range []int{0, 1, 3, maxCount} {
				var want []Element
				var wantNext uint32
				var wantRest []byte
				for i, d := range draws {
					r := rc.make()
					interleave(r)
					got := make([]Element, count)
					if err := d.draw(f, r, got); err != nil {
						t.Fatalf("%s: %s: %v", rc.name, d.name, err)
					}
					next, rest := interleave(r), make([]byte, probe)
					if _, err := io.ReadFull(r, rest); err != nil {
						t.Fatal(err)
					}
					if i == 0 {
						want, wantNext, wantRest = got, next, rest
						continue
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("GF(2^%d) %s, %d elements: %s drew %#x, 8-byte reads %#x", k, rc.name, count, d.name, got, want)
					}
					if next != wantNext || !bytes.Equal(rest, wantRest) {
						t.Fatalf("GF(2^%d) %s, %d elements: %s left the reader at a different position", k, rc.name, count, d.name)
					}
				}
			}
		}
	}
	short := bytes.NewReader(data[:8*3-1])
	if err := MustNew(32).RandElements(iotest.HalfReader(short), make([]Element, 3)); err == nil {
		t.Fatal("RandElements accepted a reader one byte short")
	}
}

func TestElementFromID(t *testing.T) {
	f := MustNew(8)
	if _, err := f.ElementFromID(0); err == nil {
		t.Error("id 0 accepted")
	}
	if _, err := f.ElementFromID(-3); err == nil {
		t.Error("negative id accepted")
	}
	if _, err := f.ElementFromID(256); err == nil {
		t.Error("id 256 should not fit in GF(2^8)")
	}
	e, err := f.ElementFromID(255)
	if err != nil || e != 255 {
		t.Errorf("ElementFromID(255) = %v, %v", e, err)
	}
}

func TestElementEncodingRoundTrip(t *testing.T) {
	for _, k := range testDegrees {
		f := MustNew(k)
		rng := rand.New(rand.NewSource(23 * int64(k)))
		var buf []byte
		var want []Element
		for i := 0; i < 20; i++ {
			e := randElem(f, rng)
			want = append(want, e)
			buf = f.AppendElement(buf, e)
		}
		if len(buf) != 20*f.ByteLen() {
			t.Fatalf("GF(2^%d): encoded length %d, want %d", k, len(buf), 20*f.ByteLen())
		}
		got, rest, err := f.ReadElements(buf, 20)
		if err != nil {
			t.Fatalf("GF(2^%d): ReadElements: %v", k, err)
		}
		if len(rest) != 0 {
			t.Fatalf("GF(2^%d): %d leftover bytes", k, len(rest))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("GF(2^%d): element %d: got %#x want %#x", k, i, got[i], want[i])
			}
		}
	}
}

func TestReadElementErrors(t *testing.T) {
	f := MustNew(12) // ByteLen = 2, two high bits of second byte invalid
	if _, _, err := f.ReadElement([]byte{0x01}); err == nil {
		t.Error("short buffer accepted")
	}
	if _, _, err := f.ReadElement([]byte{0xff, 0xff}); err == nil {
		t.Error("out-of-range encoding accepted")
	}
}

func TestByteLen(t *testing.T) {
	tests := []struct{ k, want int }{{2, 1}, {8, 1}, {9, 2}, {16, 2}, {17, 3}, {64, 8}}
	for _, tt := range tests {
		if got := MustNew(tt.k).ByteLen(); got != tt.want {
			t.Errorf("ByteLen(k=%d) = %d, want %d", tt.k, got, tt.want)
		}
	}
}

func TestCountersRecordOps(t *testing.T) {
	var c metrics.Counters
	f := MustNew(16).WithCounters(&c)
	f.Add(1, 2)
	f.Mul(3, 4)
	f.Mul(5, 6)
	f.Inv(7)
	s := c.Snapshot()
	if s.FieldAdds != 1 || s.FieldMuls != 2 || s.FieldInvs != 1 {
		t.Errorf("counters = %+v, want adds=1 muls=2 invs=1", s)
	}
}

func TestOrder(t *testing.T) {
	if got := MustNew(10).Order(); got != 1024 {
		t.Errorf("Order(k=10) = %v, want 1024", got)
	}
}

func TestClmul64(t *testing.T) {
	// (x+1)(x+1) = x^2+1 (carry-less).
	if hi, lo := clmul64(3, 3); hi != 0 || lo != 5 {
		t.Errorf("clmul64(3,3) = (%d,%d), want (0,5)", hi, lo)
	}
	// Highest bits: x^63 * x^63 = x^126.
	if hi, lo := clmul64(1<<63, 1<<63); hi != 1<<62 || lo != 0 {
		t.Errorf("clmul64(x^63,x^63) = (%#x,%#x), want (%#x,0)", hi, lo, uint64(1)<<62)
	}
}

func TestDeg128(t *testing.T) {
	tests := []struct {
		hi, lo uint64
		want   int
	}{
		{0, 0, -1},
		{0, 1, 0},
		{0, 1 << 63, 63},
		{1, 0, 64},
		{1 << 62, 0, 126},
	}
	for _, tt := range tests {
		if got := deg128(tt.hi, tt.lo); got != tt.want {
			t.Errorf("deg128(%#x,%#x) = %d, want %d", tt.hi, tt.lo, got, tt.want)
		}
	}
}

func TestMulAgainstExpLog(t *testing.T) {
	// Brute-force cross-check in GF(2^8): compare Mul against repeated
	// addition via the generator's discrete log table.
	f := MustNew(8)
	// Find a generator.
	var g Element
	for cand := Element(2); cand < 256; cand++ {
		seen := make(map[Element]bool)
		x := Element(1)
		for i := 0; i < 255; i++ {
			seen[x] = true
			x = f.Mul(x, cand)
		}
		if len(seen) == 255 {
			g = cand
			break
		}
	}
	if g == 0 {
		t.Fatal("no generator found in GF(2^8)")
	}
	logT := make(map[Element]uint64, 255)
	x := Element(1)
	for i := uint64(0); i < 255; i++ {
		logT[x] = i
		x = f.Mul(x, g)
	}
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 200; i++ {
		a := Element(rng.Intn(255) + 1)
		b := Element(rng.Intn(255) + 1)
		want := f.Exp(g, (logT[a]+logT[b])%255)
		if got := f.Mul(a, b); got != want {
			t.Fatalf("Mul(%#x,%#x) = %#x, want %#x (exp/log)", a, b, got, want)
		}
	}
}

func BenchmarkMul(b *testing.B) {
	for _, k := range []int{8, 16, 32, 64} {
		f := MustNew(k)
		rng := rand.New(rand.NewSource(1))
		a, c := randElem(f, rng), randElem(f, rng)
		b.Run(benchName(k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				a = f.Mul(a, c) | 1
			}
		})
	}
}

func BenchmarkInv(b *testing.B) {
	for _, k := range []int{8, 16, 32, 64} {
		f := MustNew(k)
		b.Run(benchName(k), func(b *testing.B) {
			a := Element(3)
			for i := 0; i < b.N; i++ {
				a = f.Inv(a) | 3
			}
		})
	}
}

func benchName(k int) string {
	return "k=" + string(rune('0'+k/10)) + string(rune('0'+k%10))
}
