package gf2k

// The multiplication kernel. A product is a carry-less (GF(2)[x]) multiply
// by a 4-bit comb — sixteen precomputed multiples a·u, one table lookup per
// nibble of b — followed by a table reduction: x^k ≡ taps, so the part of
// the product above x^k is folded back by ⌈k/8⌉ lookups in a table of its
// multiples of taps.
//
// Mul, Sqr, Inv and friends account every operation to the attached
// counters. The bulk primitives (Multiplier.Mul, Dot) do no accounting:
// their callers run them thousands of times per call and record the
// products once, with Tally.

// comb fills t[u] = a·u for the sixteen polynomials u of degree < 4. a must
// be below 2^61 so that no multiple overflows the word.
func comb(t *[16]uint64, a uint64) {
	t[1] = a
	t[2] = a << 1
	t[3] = t[2] ^ a
	t[4] = a << 2
	t[5] = t[4] ^ a
	t[6] = t[4] ^ t[2]
	t[7] = t[6] ^ a
	t[8] = a << 3
	t[9] = t[8] ^ a
	t[10] = t[8] ^ t[2]
	t[11] = t[10] ^ a
	t[12] = t[8] ^ t[4]
	t[13] = t[12] ^ a
	t[14] = t[12] ^ t[2]
	t[15] = t[14] ^ a
}

// clmul32 returns the carry-less product of a, b < 2^32, which fits one
// word. This is the path every field with k ≤ 32 multiplies through.
func clmul32(a, b uint64) uint64 {
	var t [16]uint64
	comb(&t, a)
	return t[b&15] ^ t[b>>4&15]<<4 ^ t[b>>8&15]<<8 ^ t[b>>12&15]<<12 ^
		t[b>>16&15]<<16 ^ t[b>>20&15]<<20 ^ t[b>>24&15]<<24 ^ t[b>>28&15]<<28
}

// clmul returns the 128-bit carry-less product of a and b.
func clmul(a, b uint64) (hi, lo uint64) {
	var t [16]uint64
	comb(&t, a&(1<<61-1))
	lo = t[b&15]
	for i := 4; b>>i != 0; i += 4 {
		v := t[b>>i&15]
		lo ^= v << i
		hi ^= v >> (64 - i)
	}
	// The three bits of a the comb could not hold.
	for s := 61; a>>s != 0; s++ {
		if a>>s&1 != 0 {
			lo ^= b << s
			hi ^= b >> (64 - s)
		}
	}
	return hi, lo
}

// spread returns a², the square of a polynomial over GF(2): its bits moved
// to the even positions.
func spread(a uint64) (hi, lo uint64) {
	return spread32(a >> 32), spread32(a & (1<<32 - 1))
}

func spread32(x uint64) uint64 {
	x = (x | x<<16) & 0x0000ffff0000ffff
	x = (x | x<<8) & 0x00ff00ff00ff00ff
	x = (x | x<<4) & 0x0f0f0f0f0f0f0f0f
	x = (x | x<<2) & 0x3333333333333333
	return (x | x<<1) & 0x5555555555555555
}

// reduce reduces a carry-less product of two elements, or an XOR of such
// products, modulo x^k + taps. The part above x^k has fewer than k bits, so
// it is itself an element h, and h·x^k ≡ h·taps is one fixed-operand
// product: the field's own Multiplier for taps does the whole reduction.
func (f Field) reduce(hi, lo uint64) Element {
	k := uint(f.k)
	return Element(lo&f.mask()) ^ f.red.Mul(Element(hi<<(64-k)|lo>>k))
}

// mul is Mul without the accounting.
func (f Field) mul(a, b Element) Element {
	if f.k <= 32 {
		return f.reduce(0, clmul32(uint64(a), uint64(b)))
	}
	return f.reduce(clmul(uint64(a), uint64(b)))
}

// sqr is Sqr without the accounting: one bit spread and one reduction, no
// multiply.
func (f Field) sqr(a Element) Element { return f.reduce(spread(uint64(a))) }

// Dot returns Σ a[i]·b[i]: the unreduced carry-less products are XORed
// together and reduced once. b must be at least as long as a. It performs
// len(a) multiplications and additions and records none of them (see Tally).
func (f Field) Dot(a, b []Element) Element {
	b = b[:len(a)]
	var hi, lo uint64
	if f.k <= 32 {
		for i, x := range a {
			lo ^= clmul32(uint64(x), uint64(b[i]))
		}
	} else {
		for i, x := range a {
			h, l := clmul(uint64(x), uint64(b[i]))
			hi, lo = hi^h, lo^l
		}
	}
	return f.reduce(hi, lo)
}

// Multiplier multiplies by one fixed element c: table i holds the reduced
// products c·(b·x^{8i}) for every byte b, so a product is ⌈k/8⌉ loads and
// XORs and no reduction. It costs ⌈k/8⌉ × 2 KiB, and building it about as
// much as 130 plain multiplications at k = 32, so it pays only where c
// meets hundreds of operands. Immutable and safe for concurrent use.
type Multiplier struct {
	tab [][256]Element
}

// Multiplier builds the fixed-operand multiplier for c. Table construction
// is not accounted as field multiplications.
func (f Field) Multiplier(c Element) *Multiplier {
	m := &Multiplier{tab: make([][256]Element, f.ByteLen())}
	v := c // c·x^j, for j = 0, 1, …
	for i := range m.tab {
		t := &m.tab[i]
		for b := 1; b < 256; b <<= 1 {
			// t[b+low] = v + t[low]: the entries below b are already final.
			src, dst := t[:b], t[b:2*b]
			for low := range dst {
				dst[low] = v ^ src[low]
			}
			top := v >> (f.k - 1)
			v = v << 1 & Element(f.mask())
			if top != 0 {
				v ^= Element(f.taps)
			}
		}
	}
	return m
}

// Mul returns c·x. Not accounted (see Tally).
func (m *Multiplier) Mul(x Element) Element {
	if t := m.tab; len(t) == 4 { // 24 < k ≤ 32, unrolled: half the time of the loop
		return t[0][byte(x)] ^ t[1][byte(x>>8)] ^ t[2][byte(x>>16)] ^ t[3][byte(x>>24)]
	}
	var r Element
	for i := range m.tab {
		r ^= m.tab[i][byte(x)]
		x >>= 8
	}
	return r
}
