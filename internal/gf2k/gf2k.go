// Package gf2k implements arithmetic in the binary extension fields GF(2^k)
// for 2 ≤ k ≤ 64, the fields over which every protocol in the paper is
// presented ("For simplicity however the algorithms we provide below assume
// we work over GF(2^k)", §2).
//
// Elements are stored in a uint64 holding the coefficients of a degree-<k
// binary polynomial. Addition is XOR; multiplication is a carry-less
// 64×64→128-bit product (a 4-bit comb, see mul.go) followed by reduction
// modulo a fixed irreducible polynomial of degree k. The reduction polynomial
// is found at Field construction time by deterministic search and verified
// with Rabin's irreducibility test, so no hard-coded polynomial table needs
// to be trusted.
//
// Where one operand outlives thousands of products — a player's evaluation
// point, a Batch-VSS challenge — a Multiplier trades ⌈k/8⌉ × 2 KiB of tables
// for a product of ⌈k/8⌉ loads; where products are only summed, Dot reduces
// the sum once.
//
// A Field may carry a *metrics.Counters; when present, every arithmetic
// operation is accounted so protocol experiments can report field-operation
// costs in the units the paper uses.
package gf2k

import (
	"encoding/binary"
	"fmt"
	"io"

	"repro/internal/metrics"
)

// Element is an element of GF(2^k), k ≤ 64: the coefficients of a binary
// polynomial of degree < k, least-significant bit = constant term.
type Element uint64

// Field describes GF(2^k) together with its reduction polynomial.
//
// Construct with New. The zero value is not usable.
type Field struct {
	k    int
	taps uint64 // reduction polynomial minus the implicit x^k term
	ctr  *metrics.Counters
	red  *Multiplier // multiplies by x^k ≡ taps: the reduction step of every product
}

// New returns the field GF(2^k). The reduction polynomial is the
// lexicographically smallest irreducible binary polynomial of degree k,
// found by search (a few microseconds; deterministic).
//
// k must be in [2, 64].
func New(k int) (Field, error) {
	if k < 2 || k > 64 {
		return Field{}, fmt.Errorf("gf2k: k must be in [2,64], got %d", k)
	}
	taps, err := findIrreducibleTaps(k)
	if err != nil {
		return Field{}, err
	}
	f := Field{k: k, taps: taps}
	f.red = f.Multiplier(Element(taps))
	return f, nil
}

// MustNew is New but panics on error; for use with constant k in tests,
// examples and benchmarks.
func MustNew(k int) Field {
	f, err := New(k)
	if err != nil {
		panic(err)
	}
	return f
}

// WithCounters returns a copy of the field that records every operation in c.
func (f Field) WithCounters(c *metrics.Counters) Field {
	f.ctr = c
	return f
}

// Counters returns the metrics sink attached with WithCounters, or nil.
func (f Field) Counters() *metrics.Counters { return f.ctr }

// K returns the extension degree k.
func (f Field) K() int { return f.k }

// Order returns the field size p = 2^k as a float64 (exact for k ≤ 53,
// otherwise the nearest representable value). Used for probability bounds.
func (f Field) Order() float64 {
	return float64(uint64(1)) * pow2(f.k)
}

func pow2(k int) float64 {
	v := 1.0
	for i := 0; i < k; i++ {
		v *= 2
	}
	return v
}

// Modulus returns the reduction polynomial's coefficients below x^k.
// The full modulus is x^k + Modulus().
func (f Field) Modulus() uint64 { return f.taps }

// mask returns the bitmask of valid element bits.
func (f Field) mask() uint64 {
	if f.k == 64 {
		return ^uint64(0)
	}
	return (uint64(1) << f.k) - 1
}

// Valid reports whether a is a canonical element of the field.
func (f Field) Valid(a Element) bool { return uint64(a)&^f.mask() == 0 }

// Add returns a+b. In characteristic 2 subtraction is identical.
func (f Field) Add(a, b Element) Element {
	if f.ctr != nil {
		f.ctr.AddFieldAdds(1)
	}
	return a ^ b
}

// Tally records muls multiplications and adds additions performed through
// the unaccounted bulk primitives (Multiplier.Mul, Dot, or a plain XOR), in
// one step per counter: one product is still one FieldMuls, the paper's
// unit, but a traced run pays one atomic per call instead of one per product.
func (f Field) Tally(muls, adds int) {
	if f.ctr != nil {
		f.ctr.AddFieldMuls(int64(muls))
		f.ctr.AddFieldAdds(int64(adds))
	}
}

// Mul returns a·b. Cost: one 4-bit comb multiply (16 table entries and
// ⌈k/4⌉ lookups) and one table reduction (⌈k/8⌉ loads); no allocation.
func (f Field) Mul(a, b Element) Element {
	if f.ctr != nil {
		f.ctr.AddFieldMuls(1)
	}
	return f.mul(a, b)
}

// Sqr returns a², counted as one multiplication. Cost: one bit spread and
// one reduction.
func (f Field) Sqr(a Element) Element {
	if f.ctr != nil {
		f.ctr.AddFieldMuls(1)
	}
	return f.sqr(a)
}

// Exp returns a^e (e ≥ 0), with a^0 = 1 including 0^0 = 1.
func (f Field) Exp(a Element, e uint64) Element {
	result := Element(1)
	base := a
	for e > 0 {
		if e&1 == 1 {
			result = f.Mul(result, base)
		}
		base = f.Sqr(base)
		e >>= 1
	}
	return result
}

// Inv returns the multiplicative inverse of a. It panics if a is zero; the
// protocols only ever invert differences of distinct evaluation points.
// Cost: k−1 squarings (a bit spread and a reduction each) and k−1 multiplies.
func (f Field) Inv(a Element) Element {
	if a == 0 {
		panic("gf2k: inverse of zero")
	}
	if f.ctr != nil {
		f.ctr.AddFieldInvs(1)
	}
	// a^(2^k − 2) = a^{-1}. Addition-chain-free square-and-multiply: the
	// exponent is 111...10 in binary (k−1 ones followed by a zero). The
	// products are not counted, so an inversion is a single Inv, matching
	// the paper's accounting of "basic operations".
	result := Element(1)
	sq := a // a^(2^0)
	for i := 1; i < f.k; i++ {
		sq = f.sqr(sq) // a^(2^i)
		result = f.mul(result, sq)
	}
	return result
}

// Div returns a/b. It panics if b is zero.
func (f Field) Div(a, b Element) Element { return f.Mul(a, f.Inv(b)) }

// BatchInv returns the multiplicative inverses of all elements of a using
// Montgomery's trick: one field inversion plus 3(n−1) multiplications,
// instead of n inversions. An inversion costs k−1 squarings and k−1
// multiplications (Fermat exponentiation), about 50 multiplications' worth
// at k=32, so this is a ~12× reduction in field work for n ≥ 8. It returns
// an error if any element is zero.
func (f Field) BatchInv(a []Element) ([]Element, error) {
	n := len(a)
	out := make([]Element, n)
	if n == 0 {
		return out, nil
	}
	// Prefix products: out[i] = a[0]·…·a[i].
	for i, v := range a {
		if v == 0 {
			return nil, fmt.Errorf("gf2k: batch inverse of zero (index %d)", i)
		}
		if i == 0 {
			out[0] = v
		} else {
			out[i] = f.Mul(out[i-1], v)
		}
	}
	acc := out[n-1]
	// One inversion of the total product, then peel off factors backwards:
	// inv(a[i]) = inv(a[0]·…·a[i]) · (a[0]·…·a[i−1]).
	inv := f.Inv(acc)
	for i := n - 1; i > 0; i-- {
		out[i] = f.Mul(inv, out[i-1])
		inv = f.Mul(inv, a[i])
	}
	out[0] = inv
	return out, nil
}

// Rand returns a uniformly random field element read from r.
func (f Field) Rand(r io.Reader) (Element, error) {
	var e [1]Element
	err := f.RandElements(r, e[:])
	return e[0], err
}

// RandElements fills dst with uniformly random field elements from one
// io.ReadFull of 8·len(dst) bytes, each element the masked little-endian
// word Rand would read. A stream reader yields the same bytes however its
// reads are split, so this equals len(dst) calls of Rand, element for
// element, and leaves r at the same position.
func (f Field) RandElements(r io.Reader, dst []Element) error {
	if len(dst) == 0 {
		return nil
	}
	buf := make([]byte, 8*len(dst))
	if _, err := io.ReadFull(r, buf); err != nil {
		return fmt.Errorf("gf2k: read randomness: %w", err)
	}
	m := f.mask()
	for i := range dst {
		dst[i] = Element(binary.LittleEndian.Uint64(buf[8*i:]) & m)
	}
	return nil
}

// ElementFromID maps a 1-based player identifier to the field element with
// the same bit pattern. Player IDs must be nonzero and distinct, and the
// paper evaluates polynomials "at the players' id's"; this works for all
// id < 2^k.
func (f Field) ElementFromID(id int) (Element, error) {
	if id <= 0 {
		return 0, fmt.Errorf("gf2k: player id must be positive, got %d", id)
	}
	e := Element(uint64(id))
	if !f.Valid(e) {
		return 0, fmt.Errorf("gf2k: player id %d does not fit in GF(2^%d)", id, f.k)
	}
	return e, nil
}

// ByteLen returns the number of bytes needed to encode one element, ⌈k/8⌉.
// The paper measures communication in messages "of size k"; wire encodings
// use exactly this many bytes per element.
func (f Field) ByteLen() int { return (f.k + 7) / 8 }

// AppendElement appends the ⌈k/8⌉-byte little-endian encoding of a to dst.
func (f Field) AppendElement(dst []byte, a Element) []byte {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(a))
	return append(dst, buf[:f.ByteLen()]...)
}

// ReadElement decodes one element from the front of src, returning the
// element and the remaining bytes.
func (f Field) ReadElement(src []byte) (Element, []byte, error) {
	n := f.ByteLen()
	if len(src) < n {
		return 0, nil, fmt.Errorf("gf2k: short element encoding: have %d bytes, need %d", len(src), n)
	}
	var buf [8]byte
	copy(buf[:], src[:n])
	e := Element(binary.LittleEndian.Uint64(buf[:]))
	if !f.Valid(e) {
		return 0, nil, fmt.Errorf("gf2k: element encoding out of range for GF(2^%d)", f.k)
	}
	return e, src[n:], nil
}

// AppendElements appends the encodings of all elements in a.
func (f Field) AppendElements(dst []byte, a []Element) []byte {
	for _, e := range a {
		dst = f.AppendElement(dst, e)
	}
	return dst
}

// ReadElements decodes exactly count elements from the front of src.
func (f Field) ReadElements(src []byte, count int) ([]Element, []byte, error) {
	out := make([]Element, 0, count)
	var (
		e   Element
		err error
	)
	for i := 0; i < count; i++ {
		e, src, err = f.ReadElement(src)
		if err != nil {
			return nil, nil, err
		}
		out = append(out, e)
	}
	return out, src, nil
}
