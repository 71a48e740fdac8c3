// Package bw implements the Berlekamp–Welch decoder referenced throughout
// the paper (§2: "Methods such as the Berlekamp-Welch decoder [5] can be used
// to implement this operation"; Figs. 4 and 6 use it to interpolate through
// share sets containing up to t values contributed by faulty players).
//
// Given n points of which at most e are in error, with n ≥ t + 2e + 1, Decode
// recovers the unique polynomial of degree ≤ t agreeing with at least n−e of
// the points, or reports that no such polynomial exists.
package bw

import (
	"errors"
	"fmt"

	"repro/internal/gf2k"
	"repro/internal/metrics"
	"repro/internal/parallel"
	"repro/internal/poly"
)

// ErrNoCodeword is returned when the points are not within maxErrors of any
// polynomial of the stated degree.
var ErrNoCodeword = errors.New("bw: no polynomial within error bound")

// Result is the output of a successful decode.
type Result struct {
	// Poly is the recovered polynomial of degree ≤ t.
	Poly poly.Poly
	// ErrorIndexes lists the positions i where ys[i] ≠ Poly(xs[i]),
	// in increasing order.
	ErrorIndexes []int
}

// Decode recovers the unique polynomial of degree ≤ degree that agrees with
// at least len(xs)−maxErrors of the points (xs[i], ys[i]). It requires
// len(xs) ≥ degree + 2·maxErrors + 1 and pairwise-distinct xs.
//
// The happy path (zero errors) is detected first with a single
// interpolation through the first degree+1 points, which keeps the cost at
// "one polynomial interpolation" in the fault-free runs the paper's
// amortized analysis assumes. That interpolation runs over a cached
// poly.Domain, so repeated decodes over the same point set — every round
// of Batch-VSS, Bit-Gen and Coin-Expose — pay no per-call inversions and
// no Lagrange setup.
func Decode(f gf2k.Field, xs, ys []gf2k.Element, degree, maxErrors int, ctr *metrics.Counters) (Result, error) {
	return DecodeWith(f, xs, ys, degree, maxErrors, ctr, nil)
}

// evalChunk is the fixed number of points one candidate-evaluation task
// covers. Chunking by a constant — never by pool width — keeps the task
// boundaries, and therefore the exact field-op schedule, identical at every
// parallelism level.
const evalChunk = 16

// DecodeWith is Decode with an optional parallel.Pool: the candidate-
// evaluation scan (testing the interpolant against all n points) and, on
// the error path, the Berlekamp–Welch matrix construction and elimination
// fan out across the pool's workers. A nil pool is the plain serial
// Decode. Results are identical at every width: each task writes only its
// own chunk/row and outputs are combined in index order.
func DecodeWith(f gf2k.Field, xs, ys []gf2k.Element, degree, maxErrors int, ctr *metrics.Counters, pl *parallel.Pool) (Result, error) {
	var d Decoder
	if err := d.Reset(f, xs, degree, maxErrors, ctr, pl); err != nil {
		return Result{}, err
	}
	return d.Decode(ys)
}

// AdaptiveBudget is the error budget for opening a degree-≤t sharing from
// the shares actually received, when whoever stayed silent is among the ≤ t
// faulty: s silent faulty members shrink the point list by s but also
// shrink the number of possible lies to t−s, so ⌊(points−t−1)/2⌋ (clamped
// to [0, t]) always covers the remaining errors.
func AdaptiveBudget(points, t int) int {
	budget := (points - t - 1) / 2
	if budget > t {
		budget = t
	}
	if budget < 0 {
		budget = 0
	}
	return budget
}

// OpenSecret decodes the degree-≤t sharing received as (xs[i], ys[i]) under
// the adaptive budget and returns the shared secret F(0) (see
// Decoder.DecodeSecret).
func OpenSecret(f gf2k.Field, xs, ys []gf2k.Element, t int, ctr *metrics.Counters, pl *parallel.Pool) (gf2k.Element, error) {
	var d Decoder
	if err := d.Reset(f, xs, t, AdaptiveBudget(len(xs), t), ctr, pl); err != nil {
		return 0, err
	}
	return d.DecodeSecret(ys)
}

// Decoder decodes any number of words received over one point list: Reset
// validates the point count against the error budget and resolves the cached
// prefix domain once, and every Decode after it is the arithmetic alone. A
// vector Coin-Expose decodes its k coordinates through one Decoder; the zero
// value is ready for Reset, and a Decoder kept between rounds reuses its
// candidate buffer.
type Decoder struct {
	f                 gf2k.Field
	xs                []gf2k.Element
	degree, maxErrors int
	ctr               *metrics.Counters
	pl                *parallel.Pool
	dom               *poly.Domain // over xs[:degree+1]
	uni               *poly.Domain // the IDDomain universe over xs, or nil
	cand              poly.Poly    // the fast path's interpolant
}

// Reset points the decoder at the list xs (retained, not copied: it must
// stay unchanged until the next Reset) with Decode's requirements on
// degree, maxErrors and len(xs). When xs is exactly the player IDs 1..n and
// their IDDomain universe is cached, the decoder evaluates through the
// universe's multipliers and DecodeSecret checks through its parity rows,
// which only DecodeSecret looks up (and builds on first use).
func (d *Decoder) Reset(f gf2k.Field, xs []gf2k.Element, degree, maxErrors int, ctr *metrics.Counters, pl *parallel.Pool) error {
	n := len(xs)
	if degree < 0 || maxErrors < 0 {
		return fmt.Errorf("bw: negative degree (%d) or error bound (%d)", degree, maxErrors)
	}
	if n < degree+2*maxErrors+1 {
		return fmt.Errorf("bw: need ≥ %d points for degree %d with %d errors, have %d",
			degree+2*maxErrors+1, degree, maxErrors, n)
	}
	// The prefix domain is cached across calls, so in steady state the fast
	// path performs zero field inversions.
	dom, err := poly.DomainFor(f, xs[:degree+1], ctr)
	if err != nil {
		return err
	}
	if cap(d.cand) < degree+1 {
		d.cand = make(poly.Poly, degree+1)
	}
	*d = Decoder{f: f, xs: xs, degree: degree, maxErrors: maxErrors, ctr: ctr, pl: pl,
		dom: dom, uni: poly.CachedUniverse(f, xs), cand: d.cand[:degree+1]}
	return nil
}

// Decode decodes the word ys[i] received at xs[i]. Result.Poly of an
// error-free word is the decoder's own buffer: it is valid until the next
// Decode or Reset.
func (d *Decoder) Decode(ys []gf2k.Element) (Result, error) {
	if len(ys) != len(d.xs) {
		return Result{}, fmt.Errorf("bw: %d xs vs %d ys", len(d.xs), len(ys))
	}

	// Fast path: interpolate through the first degree+1 points and test the
	// rest. Succeeds whenever there are no errors at all.
	if err := d.dom.InterpolateInto(d.cand, ys[:d.degree+1], d.ctr); err != nil {
		return Result{}, err
	}
	if idx := disagreements(d.f, d.uni, d.cand, d.xs, ys, d.pl); len(idx) == 0 {
		return Result{Poly: d.cand}, nil
	}
	return d.correct(ys)
}

// DecodeSecret decodes the word ys like Decode and returns only F(0), the
// shared secret. Over a cached universe (see Reset) a fault-free word is
// recognised by the universe's degree-t parity rows (poly.Parity), which
// yield F(0) without the interpolant: (t+1)(n−t) table products instead of
// Decode's interpolation, n Horner evaluations and one more at 0. A word
// failing a row holds a disagreement, exactly where Decode's scan would
// find one, and goes straight to the Berlekamp–Welch solve. Over any other
// point list it is Decode followed by an evaluation at 0. Either way it
// records one interpolation for the fault-free step, as Decode does.
func (d *Decoder) DecodeSecret(ys []gf2k.Element) (gf2k.Element, error) {
	if len(ys) != len(d.xs) {
		return 0, fmt.Errorf("bw: %d xs vs %d ys", len(d.xs), len(ys))
	}
	var (
		res Result
		err error
	)
	var par *poly.Parity
	if d.uni != nil {
		par = d.uni.Parity(d.degree)
	}
	if par != nil {
		if secret, ok := par.Secret(ys, d.ctr); ok {
			return secret, nil
		}
		res, err = d.correct(ys)
	} else {
		res, err = d.Decode(ys)
	}
	if err != nil {
		return 0, err
	}
	return poly.Eval(d.f, res.Poly, 0), nil
}

// correct decodes a word the fault-free check rejected: the
// Berlekamp–Welch solve at the full error budget, accepted only within it.
func (d *Decoder) correct(ys []gf2k.Element) (Result, error) {
	if d.maxErrors == 0 {
		return Result{}, ErrNoCodeword
	}
	p, err := solve(d.f, d.xs, ys, d.degree, d.maxErrors, d.ctr, d.pl)
	if err != nil {
		return Result{}, err
	}
	idx := disagreements(d.f, d.uni, p, d.xs, ys, d.pl)
	if len(idx) > d.maxErrors {
		return Result{}, ErrNoCodeword
	}
	return Result{Poly: p, ErrorIndexes: idx}, nil
}

// solve runs the Berlekamp–Welch linear system at the full error bound e:
// find E(x) = x^e + Σ_{j<e} E_j x^j and Q(x) of degree ≤ degree+e with
// Q(x_i) = y_i·E(x_i) for all i, then return Q/E.
func solve(f gf2k.Field, xs, ys []gf2k.Element, degree, e int, ctr *metrics.Counters, pl *parallel.Pool) (poly.Poly, error) {
	n := len(xs)
	qLen := degree + e + 1 // unknown coefficients of Q
	unknowns := qLen + e   // plus the e non-leading coefficients of E

	// Build the augmented matrix: one row per point. Rows are independent,
	// so they fan out across the pool; each task touches only its own row.
	// Σ_j Q_j x^j  +  y·Σ_{j<e} E_j x^j  =  y·x^e.
	m := newMatrix(n, unknowns)
	pl.ForEach(n, func(i int) {
		xp := gf2k.Element(1)
		for j := 0; j < qLen; j++ {
			m.set(i, j, xp)
			if j < qLen-1 {
				xp = f.Mul(xp, xs[i])
			}
		}
		xp = gf2k.Element(1)
		for j := 0; j < e; j++ {
			m.set(i, qLen+j, f.Mul(ys[i], xp))
			xp = f.Mul(xp, xs[i])
		}
		// xp is now x^e.
		m.setRHS(i, f.Mul(ys[i], xp))
	})

	sol, ok := m.solve(f, pl)
	if !ok {
		return nil, ErrNoCodeword
	}
	if ctr != nil {
		// The linear solve replaces the plain interpolation; count it as one
		// interpolation-equivalent for the paper's cost accounting.
		ctr.AddInterpolations(1)
	}

	q := poly.Poly(sol[:qLen])
	ePoly := make(poly.Poly, e+1)
	copy(ePoly, sol[qLen:])
	ePoly[e] = 1 // monic

	quot, rem, err := polyDiv(f, q, ePoly)
	if err != nil {
		return nil, err
	}
	if rem.Degree() >= 0 {
		return nil, ErrNoCodeword
	}
	if quot.Degree() > degree {
		return nil, ErrNoCodeword
	}
	return quot, nil
}

// disagreements returns indices where p(xs[i]) != ys[i], in increasing
// order. Over a cached universe each evaluation runs through the point's
// multiplier (poly.Domain.EvalAt), with Eval's accounting. With a pool, the
// scan fans out in fixed-size chunks; each task appends to its own chunk's
// list and the lists concatenate in chunk order, so the result (and the
// per-point field-op schedule) is width-invariant.
func disagreements(f gf2k.Field, uni *poly.Domain, p poly.Poly, xs, ys []gf2k.Element, pl *parallel.Pool) []int {
	n := len(xs)
	chunks := parallel.Chunks(n, evalChunk)
	if chunks <= 1 || pl.Width() == 1 {
		var idx []int
		for i := range xs {
			if evalAt(f, uni, p, xs, i) != ys[i] {
				idx = append(idx, i)
			}
		}
		return idx
	}
	perChunk := make([][]int, chunks)
	pl.ForEach(chunks, func(c int) {
		lo, hi := c*evalChunk, (c+1)*evalChunk
		if hi > n {
			hi = n
		}
		for i := lo; i < hi; i++ {
			if evalAt(f, uni, p, xs, i) != ys[i] {
				perChunk[c] = append(perChunk[c], i)
			}
		}
	})
	var idx []int
	for _, part := range perChunk {
		idx = append(idx, part...)
	}
	return idx
}

// evalAt returns p(xs[i]), through uni when it is the universe over xs.
func evalAt(f gf2k.Field, uni *poly.Domain, p poly.Poly, xs []gf2k.Element, i int) gf2k.Element {
	if uni != nil {
		return uni.EvalAt(p, i)
	}
	return poly.Eval(f, p, xs[i])
}

// polyDiv returns quotient and remainder of a ÷ b (b ≠ 0).
func polyDiv(f gf2k.Field, a, b poly.Poly) (quot, rem poly.Poly, err error) {
	db := b.Degree()
	if db < 0 {
		return nil, nil, errors.New("bw: division by zero polynomial")
	}
	rem = a.Clone()
	da := rem.Degree()
	if da < db {
		return poly.Poly{}, rem, nil
	}
	quot = make(poly.Poly, da-db+1)
	invLead := f.Inv(b[db])
	for d := da; d >= db; d-- {
		if rem[d] == 0 {
			continue
		}
		c := f.Mul(rem[d], invLead)
		quot[d-db] = c
		for j := 0; j <= db; j++ {
			rem[d-db+j] = f.Add(rem[d-db+j], f.Mul(c, b[j]))
		}
	}
	return quot, rem, nil
}

// matrix is a dense augmented matrix over GF(2^k).
type matrix struct {
	rows, cols int // cols excludes the RHS column
	a          [][]gf2k.Element
}

func newMatrix(rows, cols int) *matrix {
	a := make([][]gf2k.Element, rows)
	backing := make([]gf2k.Element, rows*(cols+1))
	for i := range a {
		a[i], backing = backing[:cols+1], backing[cols+1:]
	}
	return &matrix{rows: rows, cols: cols, a: a}
}

func (m *matrix) set(r, c int, v gf2k.Element) { m.a[r][c] = v }
func (m *matrix) setRHS(r int, v gf2k.Element) { m.a[r][m.cols] = v }

// solve performs Gaussian elimination and back-substitution, assigning zero
// to free variables. It returns false if the system is inconsistent. The
// per-pivot row eliminations are independent of each other and fan out
// across the pool; every width performs the identical field operations.
func (m *matrix) solve(f gf2k.Field, pl *parallel.Pool) ([]gf2k.Element, bool) {
	pivotCol := make([]int, 0, m.rows) // column of each pivot row
	row := 0
	for col := 0; col < m.cols && row < m.rows; col++ {
		// Find a pivot.
		pr := -1
		for r := row; r < m.rows; r++ {
			if m.a[r][col] != 0 {
				pr = r
				break
			}
		}
		if pr == -1 {
			continue
		}
		m.a[row], m.a[pr] = m.a[pr], m.a[row]
		inv := f.Inv(m.a[row][col])
		for c := col; c <= m.cols; c++ {
			m.a[row][c] = f.Mul(m.a[row][c], inv)
		}
		pivot := m.a[row]
		pl.ForEach(m.rows, func(r int) {
			if r == row || m.a[r][col] == 0 {
				return
			}
			factor := m.a[r][col]
			for c := col; c <= m.cols; c++ {
				m.a[r][c] = f.Add(m.a[r][c], f.Mul(factor, pivot[c]))
			}
		})
		pivotCol = append(pivotCol, col)
		row++
	}
	// Inconsistency: a zero row with nonzero RHS.
	for r := row; r < m.rows; r++ {
		if m.a[r][m.cols] != 0 {
			return nil, false
		}
	}
	sol := make([]gf2k.Element, m.cols)
	for r, c := range pivotCol {
		sol[c] = m.a[r][m.cols]
	}
	return sol, true
}
