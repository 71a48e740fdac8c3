// Interpolation domains: precomputed Lagrange contexts for a fixed set of
// evaluation points.
//
// The paper's amortization claims (Batch-VSS, Fig. 3; Coin-Gen, Fig. 5) all
// interpolate over the SAME point set again and again — the player IDs
// 1..n (or a fixed prefix of them) — once per sharing, per dealer, per
// round. The plain Interpolate/InterpolateAt0 functions rebuild the
// Lagrange denominators and pay one field inversion per point on every
// call; a Domain pays that cost once (with a single Montgomery batch
// inversion) and then serves every later interpolation over the same
// points with zero inversions.
package poly

import (
	"encoding/binary"
	"fmt"
	"sync"
	"unsafe"

	"repro/internal/gf2k"
	"repro/internal/metrics"
)

// Domain is a precomputed interpolation context for a fixed (field, xs)
// pair. It caches the master polynomial N(x) = Π(x + x_i), the barycentric
// weights w_i = 1/Π_{j≠i}(x_i + x_j), and the normalized Lagrange basis
// polynomials L_i(x) = w_i·N(x)/(x + x_i), so that interpolating values
// over the same points costs no field inversions at all.
//
// Construction costs O(n²) multiplications and exactly ONE field inversion
// (gf2k.Field.BatchInv); every plain Interpolate call over the same points
// would pay n inversions. Domains are immutable after construction and safe
// for concurrent use.
//
// Interpolation is a set of dot products against the cached coefficients
// (gf2k.Field.Dot: one reduction per output, not one per product), so the
// weights never need multiplier tables. Only the cached universes IDDomain
// hands out own fixed-operand multipliers: one per point, each built on
// first use by EvalAt, n × ⌈k/8⌉ × 2 KiB once all are built (56 KiB at
// n = 7, k = 32); and, per degree t asked for, the (t+1)(n−t) of a Parity
// check. Prefix sub-domains, DomainFor domains and uncached domains never
// build any, so cache churn cannot retain tables.
type Domain struct {
	f  gf2k.Field
	xs []gf2k.Element
	// w[i] = 1/Π_{j≠i}(x_i + x_j): the barycentric weights.
	w []gf2k.Element
	// coef[j][i] is the coefficient of x^j in the basis polynomial L_i(x),
	// L_i(x_j) = δ_ij: the interpolant's x^j coefficient is the dot product
	// of the values with coef[j], and coef[0] holds the Lagrange-at-zero
	// coefficients L_i(0).
	coef [][]gf2k.Element
	// at[i] lazily holds the multiplier for xs[i], and parity[t] the
	// degree-t fault-free check (see Parity); both nil except on IDDomain
	// universes.
	at     []pointMultiplier
	parity []parityCheck

	mu       sync.Mutex
	prefixes map[int]*Domain // lazily built sub-domains over xs[:m]
}

// pointMultiplier builds one evaluation point's multiplier at most once.
type pointMultiplier struct {
	once sync.Once
	m    *gf2k.Multiplier
}

// NewDomain precomputes the interpolation context for the points xs, which
// must be nonempty and pairwise distinct (ErrDuplicatePoint otherwise).
// Field operations performed during construction are accounted to f's
// attached counters, like every other call in this package.
//
// Cost: O(n²) multiplications/additions + 1 inversion, n = len(xs).
func NewDomain(f gf2k.Field, xs []gf2k.Element) (*Domain, error) {
	n := len(xs)
	if n == 0 {
		return nil, fmt.Errorf("poly: domain over no points")
	}
	for i := range xs {
		for j := i + 1; j < n; j++ {
			if xs[i] == xs[j] {
				return nil, fmt.Errorf("%w: x=%#x", ErrDuplicatePoint, xs[i])
			}
		}
	}
	d := &Domain{f: f, xs: append([]gf2k.Element(nil), xs...)}

	// Master polynomial N(x) = Π (x + x_i); char 2, so x − x_i = x + x_i.
	master := Poly{1}
	for _, x := range d.xs {
		master = Mul(f, master, Poly{x, 1})
	}

	// Denominators Π_{j≠i}(x_i + x_j), inverted together with one
	// Montgomery batch inversion — the Domain's whole point.
	den := make([]gf2k.Element, n)
	for i := range d.xs {
		p := gf2k.Element(1)
		for j := range d.xs {
			if j != i {
				p = f.Mul(p, f.Add(d.xs[i], d.xs[j]))
			}
		}
		den[i] = p
	}
	w, err := f.BatchInv(den)
	if err != nil {
		// Unreachable: distinct xs make every denominator nonzero.
		return nil, fmt.Errorf("poly: domain weights: %v", err)
	}
	d.w = w

	d.coef = make([][]gf2k.Element, n)
	for j := range d.coef {
		d.coef[j] = make([]gf2k.Element, n)
	}
	for i := range d.xs {
		for j, c := range ScalarMul(f, w[i], synthDiv(f, master, d.xs[i])) {
			d.coef[j][i] = c
		}
	}
	return d, nil
}

// Len returns the number of interpolation points.
func (d *Domain) Len() int { return len(d.xs) }

// Xs returns a copy of the domain's evaluation points, in order.
func (d *Domain) Xs() []gf2k.Element { return append([]gf2k.Element(nil), d.xs...) }

// Interpolate returns the unique polynomial of degree < n through the
// points (xs[i], ys[i]), like the package-level Interpolate but with the
// Lagrange basis already precomputed. Recorded as one "interpolation" in
// ctr, matching the plain function.
//
// Cost per call: n dot products of length n — n² carry-less multiplies
// but only n reductions — and ZERO inversions (vs n inversions for the
// plain Interpolate). Accounted as n multiplications and n additions per
// nonzero value: a zero value contributes nothing and is not charged.
func (d *Domain) Interpolate(ys []gf2k.Element, ctr *metrics.Counters) (Poly, error) {
	out := make(Poly, len(d.xs))
	if err := d.InterpolateInto(out, ys, ctr); err != nil {
		return nil, err
	}
	return out, nil
}

// InterpolateInto is Interpolate writing the n coefficients into dst, which
// must have length n — for callers that interpolate many value vectors over
// one domain and keep the coefficient buffer between calls.
func (d *Domain) InterpolateInto(dst Poly, ys []gf2k.Element, ctr *metrics.Counters) error {
	n := len(d.xs)
	if len(ys) != n || len(dst) != n {
		return fmt.Errorf("poly: domain interpolate: %d xs vs %d ys into %d coefficients", n, len(ys), len(dst))
	}
	if ctr != nil {
		ctr.AddInterpolations(1)
	}
	for j := range dst {
		dst[j] = d.f.Dot(ys, d.coef[j])
	}
	nonzero := 0
	for _, y := range ys {
		if y != 0 {
			nonzero++
		}
	}
	d.f.Tally(nonzero*n, nonzero*n)
	return nil
}

// InterpolateAt0 returns the value at zero of the unique degree-<n
// polynomial through the points — the secret, in Shamir terms. Recorded as
// one "interpolation" in ctr.
//
// Cost per call: one dot product — n multiplications and additions with a
// single reduction — and ZERO inversions (vs n inversions for the plain
// InterpolateAt0).
func (d *Domain) InterpolateAt0(ys []gf2k.Element, ctr *metrics.Counters) (gf2k.Element, error) {
	n := len(d.xs)
	if len(ys) != n {
		return 0, fmt.Errorf("poly: domain interpolateAt0: %d xs vs %d ys", n, len(ys))
	}
	if ctr != nil {
		ctr.AddInterpolations(1)
	}
	d.f.Tally(n, n)
	return d.f.Dot(ys, d.coef[0]), nil
}

// EvalAt returns p(xs[i]) by Horner's rule, like Eval at the domain's i-th
// point. On an IDDomain universe every product is a fixed-operand multiply
// by that point (⌈k/8⌉ table loads; the table is built on first use);
// elsewhere it is Eval. Cost: len(p) multiplications and additions, as Eval
// accounts them, recorded in one step.
func (d *Domain) EvalAt(p Poly, i int) gf2k.Element {
	if d.at == nil {
		return Eval(d.f, p, d.xs[i])
	}
	pm := &d.at[i]
	pm.once.Do(func() { pm.m = d.f.Multiplier(d.xs[i]) })
	var acc gf2k.Element
	for j := len(p) - 1; j >= 0; j-- {
		acc = pm.m.Mul(acc) ^ p[j]
	}
	d.f.Tally(len(p), len(p))
	return acc
}

// EvalBasis returns the Lagrange basis values L_0(x), …, L_{n−1}(x), so
// that the interpolant through any ys is Σ_i ys[i]·L_i(x). When x is one of
// the domain points the result is the corresponding indicator vector.
//
// Cost per call: 3n multiplications, n additions, zero inversions, via
// prefix/suffix products of the factors (x + x_j).
func (d *Domain) EvalBasis(x gf2k.Element) []gf2k.Element {
	n := len(d.xs)
	f := d.f
	out := make([]gf2k.Element, n)
	// out[i] starts as prefix[i] = Π_{j<i}(x + x_j); a backward suffix scan
	// then multiplies in Π_{j>i}(x + x_j) and the weight w_i.
	acc := gf2k.Element(1)
	for i := range d.xs {
		out[i] = acc
		acc = f.Mul(acc, f.Add(x, d.xs[i]))
	}
	acc = 1
	for i := n - 1; i >= 0; i-- {
		out[i] = f.Mul(d.w[i], f.Mul(out[i], acc))
		acc = f.Mul(acc, f.Add(x, d.xs[i]))
	}
	return out
}

// FitsDegree reports whether the points (xs, ys) all lie on a polynomial of
// degree ≤ maxDeg: it interpolates through the first maxDeg+1 points (over
// a cached prefix sub-domain) and checks the remainder, the paper's §3.1
// "basic solution" to degree checking.
//
// Cost per call: (maxDeg+1)² multiplications for the interpolation plus
// (n−maxDeg−1)(maxDeg+1) for the checks; zero inversions after the prefix
// sub-domain is first built.
func (d *Domain) FitsDegree(ys []gf2k.Element, maxDeg int, ctr *metrics.Counters) (bool, error) {
	n := len(d.xs)
	if len(ys) != n {
		return false, fmt.Errorf("poly: domain fitsDegree: %d xs vs %d ys", n, len(ys))
	}
	if maxDeg < 0 {
		return false, fmt.Errorf("poly: domain fitsDegree: negative degree %d", maxDeg)
	}
	if n <= maxDeg+1 {
		return true, nil
	}
	sub, err := d.Prefix(maxDeg + 1)
	if err != nil {
		return false, err
	}
	p, err := sub.Interpolate(ys[:maxDeg+1], ctr)
	if err != nil {
		return false, err
	}
	for i := maxDeg + 1; i < n; i++ {
		if d.EvalAt(p, i) != ys[i] {
			return false, nil
		}
	}
	return true, nil
}

// Prefix returns the sub-domain over the first m points, building and
// memoizing it on first use. Berlekamp–Welch's fast path interpolates
// through exactly such a prefix, so the memo turns its per-call setup into
// a one-time cost too.
func (d *Domain) Prefix(m int) (*Domain, error) {
	n := len(d.xs)
	if m <= 0 || m > n {
		return nil, fmt.Errorf("poly: domain prefix %d out of range [1,%d]", m, n)
	}
	if m == n {
		return d, nil
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if sub, ok := d.prefixes[m]; ok {
		return sub, nil
	}
	sub, err := NewDomain(d.f, d.xs[:m])
	if err != nil {
		return nil, err
	}
	if d.prefixes == nil {
		d.prefixes = make(map[int]*Domain)
	}
	d.prefixes[m] = sub
	return sub, nil
}

// --- keyed domain cache -----------------------------------------------------

// maxCachedDomains bounds the process-wide cache. Protocol runs use a
// handful of distinct point sets (the IDs 1..n and their prefixes, plus one
// set per observed fault pattern); the cap only matters if an adversary
// forces many distinct patterns, in which case extra domains are built on
// demand and dropped.
const maxCachedDomains = 1024

var (
	domainMu    sync.RWMutex
	domainCache = make(map[string]*Domain) // keyed by appendDomainKey
)

// DomainFor returns the cached Domain for (f, xs), constructing and caching
// it on first use. The cache key is the field (k and modulus), the field's
// attached counter identity, and the exact point sequence, so callers with
// different metrics sinks never share (and never mis-attribute) field-op
// accounting. ctr records the lookup as a domain hit or miss.
//
// This is the entry point the protocol hot path uses: Batch-VSS, Bit-Gen,
// Coin-Gen and Coin-Expose all interpolate over the player IDs 1..n (or a
// fixed prefix) every round, so after the first round every lookup is a
// hit and interpolation costs no inversions at all.
func DomainFor(f gf2k.Field, xs []gf2k.Element, ctr *metrics.Counters) (*Domain, error) {
	return cachedDomain(f, xs, ctr, false)
}

// cachedDomain is DomainFor; a universe is cached under its own key and,
// once it is certain to be cached, given the slots for its points'
// multipliers.
func cachedDomain(f gf2k.Field, xs []gf2k.Element, ctr *metrics.Counters, universe bool) (*Domain, error) {
	var buf [keyBufLen]byte
	key := appendDomainKey(buf[:0], f, xs, universe)
	if d := lookupDomain(key); d != nil {
		if ctr != nil {
			ctr.AddDomainHits(1)
		}
		return d, nil
	}
	if ctr != nil {
		ctr.AddDomainMisses(1)
	}
	d, err := NewDomain(f, xs)
	if err != nil {
		return nil, err
	}
	domainMu.Lock()
	defer domainMu.Unlock()
	if cached, ok := domainCache[string(key)]; ok {
		return cached, nil
	}
	if len(domainCache) >= maxCachedDomains {
		return d, nil // cache full: hand out an uncached domain
	}
	if universe {
		d.at = make([]pointMultiplier, len(xs))
		d.parity = make([]parityCheck, len(xs))
	}
	domainCache[string(key)] = d
	return d, nil
}

// lookupDomain returns the cached Domain under key, or nil; a hit does not
// allocate.
func lookupDomain(key []byte) *Domain {
	domainMu.RLock()
	defer domainMu.RUnlock()
	return domainCache[string(key)]
}

// IDDomain returns the cached Domain over the player IDs 1..n — the point
// set every protocol in the paper evaluates and interpolates at. These
// universes, and only these, own fixed-operand multipliers for their points
// (see Domain and EvalAt): a player's ID lives for the whole run and meets
// every coefficient of every polynomial dealt.
func IDDomain(f gf2k.Field, n int, ctr *metrics.Counters) (*Domain, error) {
	xs := make([]gf2k.Element, n)
	for i := 0; i < n; i++ {
		id, err := f.ElementFromID(i + 1)
		if err != nil {
			return nil, err
		}
		xs[i] = id
	}
	return cachedDomain(f, xs, ctr, true)
}

// CachedUniverse returns the IDDomain universe over exactly the points xs
// if one is cached already, and nil otherwise; it never builds one, so no
// point list a caller receives can make tables appear.
func CachedUniverse(f gf2k.Field, xs []gf2k.Element) *Domain {
	for i, x := range xs {
		if x != gf2k.Element(i+1) {
			return nil
		}
	}
	var buf [keyBufLen]byte
	return lookupDomain(appendDomainKey(buf[:0], f, xs, true))
}

// keyBufLen holds the cache key of up to 28 points without a heap buffer.
const keyBufLen = 256

// appendDomainKey appends the cache identity of (f, xs) and of being a
// universe to buf: k, the modulus, the address of f's counters, the points
// and a universe mark.
func appendDomainKey(buf []byte, f gf2k.Field, xs []gf2k.Element, universe bool) []byte {
	buf = binary.LittleEndian.AppendUint64(buf, uint64(f.K()))
	buf = binary.LittleEndian.AppendUint64(buf, f.Modulus())
	buf = binary.LittleEndian.AppendUint64(buf, uint64(uintptr(unsafe.Pointer(f.Counters()))))
	for _, x := range xs {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(x))
	}
	if universe {
		buf = append(buf, 'U')
	}
	return buf
}
