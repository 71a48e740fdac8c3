// Package poly implements univariate polynomial arithmetic over GF(2^k):
// Horner evaluation, Lagrange interpolation (full coefficients and
// value-at-zero), random polynomial sampling and degree checks. These are the
// "basic steps" of the paper's protocols (§2: "In some parts we consider the
// interpolation of a polynomial as a basic step").
//
// Two interpolation paths exist. The package-level Interpolate,
// InterpolateAt0 and FitsDegree recompute the Lagrange denominators — n
// field inversions — on every call; they are the reference implementation
// and the right choice for one-off point sets. The Domain type precomputes
// the Lagrange basis for a fixed point set once (a single Montgomery batch
// inversion) and then serves every later call with zero inversions;
// DomainFor adds a process-wide keyed cache. The protocol hot path
// (internal/bw, and through it vss, bitgen, coingen, coin) interpolates
// over the fixed player IDs 1..n every round and uses the cached path.
//
// Only the universes IDDomain caches over the IDs 1..n own fixed-operand
// multiplier tables (gf2k.Multiplier, ⌈k/8⌉ × 2 KiB each, 8 KiB at
// k = 32), all built on first use: one per point for EvalAt, and per
// degree t the (t+1)(n−t) of the fault-free Parity check, 12 × 8 KiB at
// n = 7, t = 1 and 33 × 8 KiB at n = 13, t = 2. CachedUniverse finds a
// universe without building one; DomainFor domains, prefix sub-domains and
// uncached domains own no tables.
//
// Every function documents its cost in the units internal/metrics tracks:
// field multiplications/additions/inversions and "interpolations" (the
// paper's basic-step unit).
package poly

import (
	"errors"
	"fmt"
	"io"

	"repro/internal/gf2k"
	"repro/internal/metrics"
)

// Poly is a polynomial over GF(2^k); Poly[i] is the coefficient of x^i.
// Trailing zero coefficients are permitted; Degree ignores them.
type Poly []gf2k.Element

// ErrDuplicatePoint is returned when interpolation points share an x value.
var ErrDuplicatePoint = errors.New("poly: duplicate interpolation point")

// Degree returns the degree of p, with -1 for the zero polynomial.
func (p Poly) Degree() int {
	for i := len(p) - 1; i >= 0; i-- {
		if p[i] != 0 {
			return i
		}
	}
	return -1
}

// Clone returns a copy of p.
func (p Poly) Clone() Poly {
	out := make(Poly, len(p))
	copy(out, p)
	return out
}

// Eval returns p(x) by Horner's rule. Cost: len(p) multiplications and
// additions (the leading 0·x is counted).
func Eval(f gf2k.Field, p Poly, x gf2k.Element) gf2k.Element {
	var acc gf2k.Element
	for i := len(p) - 1; i >= 0; i-- {
		acc = f.Add(f.Mul(acc, x), p[i])
	}
	return acc
}

// EvalMany evaluates p at each of the given points. Cost: len(xs)·len(p)
// multiplications and additions; when the points are the player IDs 1..n
// and their IDDomain universe is already cached, the products run through
// its fixed-operand multipliers (Domain.EvalAt).
func EvalMany(f gf2k.Field, p Poly, xs []gf2k.Element) []gf2k.Element {
	out := make([]gf2k.Element, len(xs))
	if d := CachedUniverse(f, xs); d != nil {
		for i := range xs {
			out[i] = d.EvalAt(p, i)
		}
		return out
	}
	for i, x := range xs {
		out[i] = Eval(f, p, x)
	}
	return out
}

// Random returns a uniformly random polynomial of degree at most deg with
// p(0) = secret, sampled from r. This is a Shamir sharing polynomial.
// Cost: deg field-element reads from r; no field operations.
func Random(f gf2k.Field, deg int, secret gf2k.Element, r io.Reader) (Poly, error) {
	if deg < 0 {
		return nil, fmt.Errorf("poly: negative degree %d", deg)
	}
	p := make(Poly, deg+1)
	p[0] = secret
	if err := f.RandElements(r, p[1:]); err != nil {
		return nil, err
	}
	return p, nil
}

// Add returns p+q.
func Add(f gf2k.Field, p, q Poly) Poly {
	n := max(len(p), len(q))
	out := make(Poly, n)
	for i := range out {
		var a, b gf2k.Element
		if i < len(p) {
			a = p[i]
		}
		if i < len(q) {
			b = q[i]
		}
		out[i] = f.Add(a, b)
	}
	return out
}

// ScalarMul returns c·p.
func ScalarMul(f gf2k.Field, c gf2k.Element, p Poly) Poly {
	out := make(Poly, len(p))
	for i := range p {
		out[i] = f.Mul(c, p[i])
	}
	return out
}

// Mul returns p·q (schoolbook; both inputs are short in this codebase).
func Mul(f gf2k.Field, p, q Poly) Poly {
	if p.Degree() < 0 || q.Degree() < 0 {
		return Poly{}
	}
	out := make(Poly, len(p)+len(q)-1)
	for i, a := range p {
		if a == 0 {
			continue
		}
		for j, b := range q {
			out[i+j] = f.Add(out[i+j], f.Mul(a, b))
		}
	}
	return out
}

// Interpolate returns the unique polynomial of degree < len(xs) passing
// through the points (xs[i], ys[i]). The xs must be pairwise distinct.
//
// If counters are attached to the field, the call is additionally recorded
// as one "interpolation" — the unit in which the paper counts the dominant
// protocol cost.
//
// Cost: O(n²) multiplications/additions and n inversions, n = len(xs). For
// repeated interpolation over one point set, Domain.Interpolate performs
// the same O(n²) multiplications but NO per-call inversions.
func Interpolate(f gf2k.Field, xs, ys []gf2k.Element, ctr *metrics.Counters) (Poly, error) {
	if len(xs) != len(ys) {
		return nil, fmt.Errorf("poly: interpolate: %d xs vs %d ys", len(xs), len(ys))
	}
	if len(xs) == 0 {
		return Poly{}, nil
	}
	if ctr != nil {
		ctr.AddInterpolations(1)
	}
	for i := range xs {
		for j := i + 1; j < len(xs); j++ {
			if xs[i] == xs[j] {
				return nil, fmt.Errorf("%w: x=%#x", ErrDuplicatePoint, xs[i])
			}
		}
	}
	// Master polynomial N(x) = Π (x + x_i); char 2, so x − x_i = x + x_i.
	master := Poly{1}
	for _, x := range xs {
		master = Mul(f, master, Poly{x, 1})
	}
	out := make(Poly, len(xs))
	for i := range xs {
		// L_i(x) = N(x)/(x + x_i), scaled so L_i(x_i) = 1, times y_i.
		li := synthDiv(f, master, xs[i])
		denom := Eval(f, li, xs[i])
		scale := f.Div(ys[i], denom)
		for j := range li {
			out[j] = f.Add(out[j], f.Mul(scale, li[j]))
		}
	}
	return out, nil
}

// InterpolateAt0 returns the value at zero of the unique degree-<len(xs)
// polynomial through the points, using Lagrange weights directly (cheaper
// than recovering all coefficients when only the secret is needed).
//
// Cost: O(n²) multiplications and n inversions, n = len(xs). For repeated
// reconstruction over one point set, Domain.InterpolateAt0 costs n
// multiplications and no inversions per call.
func InterpolateAt0(f gf2k.Field, xs, ys []gf2k.Element, ctr *metrics.Counters) (gf2k.Element, error) {
	if len(xs) != len(ys) {
		return 0, fmt.Errorf("poly: interpolateAt0: %d xs vs %d ys", len(xs), len(ys))
	}
	if len(xs) == 0 {
		return 0, errors.New("poly: interpolateAt0: no points")
	}
	if ctr != nil {
		ctr.AddInterpolations(1)
	}
	var acc gf2k.Element
	for i := range xs {
		num, den := gf2k.Element(1), gf2k.Element(1)
		for j := range xs {
			if j == i {
				continue
			}
			if xs[i] == xs[j] {
				return 0, fmt.Errorf("%w: x=%#x", ErrDuplicatePoint, xs[i])
			}
			num = f.Mul(num, xs[j])               // (0 + x_j)
			den = f.Mul(den, f.Add(xs[i], xs[j])) // (x_i + x_j)
		}
		acc = f.Add(acc, f.Mul(ys[i], f.Div(num, den)))
	}
	return acc, nil
}

// FitsDegree reports whether the points (xs, ys) all lie on a polynomial of
// degree ≤ maxDeg. It interpolates through the first maxDeg+1 points and
// checks the remainder — the paper's §3.1 "basic solution" to degree
// checking. Cost: one Interpolate over maxDeg+1 points (including its
// maxDeg+1 inversions; Domain.FitsDegree avoids them) plus
// (len(xs)−maxDeg−1)·(maxDeg+1) multiplications of checking.
func FitsDegree(f gf2k.Field, xs, ys []gf2k.Element, maxDeg int, ctr *metrics.Counters) (bool, error) {
	if len(xs) != len(ys) {
		return false, fmt.Errorf("poly: fitsDegree: %d xs vs %d ys", len(xs), len(ys))
	}
	if len(xs) <= maxDeg+1 {
		return true, nil
	}
	p, err := Interpolate(f, xs[:maxDeg+1], ys[:maxDeg+1], ctr)
	if err != nil {
		return false, err
	}
	for i := maxDeg + 1; i < len(xs); i++ {
		if Eval(f, p, xs[i]) != ys[i] {
			return false, nil
		}
	}
	return true, nil
}

// synthDiv divides p by (x + root), assuming the division is exact
// (root is a root of p's factorization as used by Interpolate).
func synthDiv(f gf2k.Field, p Poly, root gf2k.Element) Poly {
	out := make(Poly, len(p)-1)
	carry := gf2k.Element(0)
	for i := len(p) - 1; i >= 1; i-- {
		carry = f.Add(p[i], f.Mul(carry, root))
		out[i-1] = carry
	}
	return out
}
