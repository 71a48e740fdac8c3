package gf2k

import (
	"fmt"
	"math/bits"
)

// findIrreducibleTaps returns the low-order coefficients (everything below
// the x^k term) of the lexicographically smallest irreducible binary
// polynomial of degree k, verified with Rabin's irreducibility test:
//
//	f of degree k is irreducible over GF(2) iff
//	  x^(2^k) ≡ x (mod f), and
//	  gcd(x^(2^(k/p)) − x mod f, f) = 1 for every prime p dividing k.
func findIrreducibleTaps(k int) (uint64, error) {
	if k < 2 || k > 64 {
		return 0, fmt.Errorf("gf2k: degree out of range: %d", k)
	}
	limit := uint64(1) << uint(min(k, 63))
	// The constant term must be 1 (otherwise x divides f).
	for taps := uint64(1); taps < limit; taps += 2 {
		if isIrreducible(k, taps) {
			return taps, nil
		}
	}
	return 0, fmt.Errorf("gf2k: no irreducible polynomial of degree %d found", k)
}

// isIrreducible applies Rabin's test to f = x^k + taps.
func isIrreducible(k int, taps uint64) bool {
	// x^(2^k) mod f must equal x.
	if frobenius(k, taps, k) != 2 {
		return false
	}
	for _, p := range primeDivisors(k) {
		h := frobenius(k, taps, k/p) ^ 2 // x^(2^(k/p)) − x mod f
		if polyGCDWithModulus(k, taps, h) != 1 {
			return false
		}
	}
	return true
}

// frobenius returns x^(2^j) mod f, computed by squaring x (the element with
// bit 1 set) j times modulo f = x^k + taps.
func frobenius(k int, taps uint64, j int) uint64 {
	v := uint64(2) // the polynomial x
	for i := 0; i < j; i++ {
		hi, lo := spread(v)
		v = reduce128(hi, lo, k, taps)
	}
	return v
}

// reduce128 reduces the 128-bit polynomial (hi, lo) modulo x^k + taps by
// long division, for any taps. It is the reference reducer: the search uses
// it on candidate moduli, which have no reduction table yet, and the tests
// compare the table reduction of mul.go against it.
func reduce128(hi, lo uint64, k int, taps uint64) uint64 {
	var mhi, mlo uint64
	if k == 64 {
		mhi, mlo = 1, taps
	} else {
		mhi, mlo = 0, taps|(uint64(1)<<k)
	}
	for {
		d := deg128(hi, lo)
		if d < k {
			return lo
		}
		shi, slo := shl128(mhi, mlo, d-k)
		hi ^= shi
		lo ^= slo
	}
}

// polyGCDWithModulus computes gcd(f, h) where f = x^k + taps (degree k,
// possibly overflowing a uint64 for k = 64) and h has degree < k.
// The result is a polynomial of degree < k, returned in a uint64; the gcd is
// 1 exactly when the returned value is 1.
func polyGCDWithModulus(k int, taps uint64, h uint64) uint64 {
	if h == 0 {
		// gcd(f, 0) = f, which has degree k ≥ 2 ≠ 1; report a non-unit.
		return 0
	}
	// First step of Euclid: r = f mod h, bringing both operands below
	// degree k so the rest runs in uint64.
	a := polyModF(k, taps, h) // f mod h
	b := h
	// Invariant: gcd(a, b) = gcd(f, h); loop on plain binary polynomials.
	for a != 0 {
		a, b = polyMod(b, a), a
	}
	return b
}

// polyModF reduces f = x^k + taps modulo h (h ≠ 0, deg h < k).
func polyModF(k int, taps uint64, h uint64) uint64 {
	dh := 63 - bits.LeadingZeros64(h)
	// Fold the x^k term first: x^k mod h by shifting h up repeatedly.
	hi, lo := uint64(0), taps
	if k < 64 {
		lo |= uint64(1) << k
	} else {
		hi = 1
	}
	for {
		d := deg128(hi, lo)
		if d < dh {
			return lo
		}
		shi, slo := shl128(0, h, d-dh)
		hi ^= shi
		lo ^= slo
	}
}

// polyMod returns a mod b for binary polynomials in uint64, b ≠ 0.
func polyMod(a, b uint64) uint64 {
	db := 63 - bits.LeadingZeros64(b)
	for {
		if a == 0 {
			return 0
		}
		da := 63 - bits.LeadingZeros64(a)
		if da < db {
			return a
		}
		a ^= b << (da - db)
	}
}

// primeDivisors returns the distinct prime divisors of n ≥ 2 in increasing
// order.
func primeDivisors(n int) []int {
	var out []int
	for p := 2; p*p <= n; p++ {
		if n%p == 0 {
			out = append(out, p)
			for n%p == 0 {
				n /= p
			}
		}
	}
	if n > 1 {
		out = append(out, n)
	}
	return out
}

// deg128 returns the degree of the binary polynomial in (hi, lo), or -1 for
// the zero polynomial.
func deg128(hi, lo uint64) int {
	if hi != 0 {
		return 127 - bits.LeadingZeros64(hi)
	}
	return 63 - bits.LeadingZeros64(lo)
}

// shl128 shifts (hi, lo) left by s bits (0 ≤ s ≤ 127).
func shl128(hi, lo uint64, s int) (uint64, uint64) {
	switch {
	case s == 0:
		return hi, lo
	case s < 64:
		return hi<<s | lo>>(64-s), lo << s
	default:
		return lo << (s - 64), 0
	}
}
