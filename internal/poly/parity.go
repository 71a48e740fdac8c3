package poly

import (
	"sync"

	"repro/internal/gf2k"
	"repro/internal/metrics"
)

// Parity is the fault-free codeword check of degree t over an IDDomain
// universe x_0, …, x_{n−1}. With L_0, …, L_t the Lagrange basis of the
// prefix x_0, …, x_t, a word y lies on a polynomial F of degree ≤ t iff
//
//	y_j = Σ_{i≤t} L_i(x_j)·y_i   for every j > t,
//
// and then F(0) = Σ_{i≤t} L_i(0)·y_i. These sums are the values at x_j and
// at 0 of the interpolant through the prefix, so Secret returns bit for bit
// what interpolating the prefix, scanning the other points and evaluating
// at 0 returns, without building the interpolant.
//
// Every coefficient is a fixed-operand gf2k.Multiplier: (t+1)(n−t) tables
// of ⌈k/8⌉ × 2 KiB, 12 × 8 KiB at n = 7, t = 1 and 33 × 8 KiB at n = 13,
// t = 2 (k = 32). Immutable and safe for concurrent use.
type Parity struct {
	f gf2k.Field
	t int
	// rows[r][i] multiplies by L_i(x_{t+1+r}); at0[i] by L_i(0).
	rows [][]*gf2k.Multiplier
	at0  []*gf2k.Multiplier
}

// parityCheck builds one degree's Parity at most once.
type parityCheck struct {
	once sync.Once
	p    *Parity
}

// Parity returns the degree-t check over the domain's points, building and
// memoizing it on first use. It is nil unless the domain is an IDDomain
// universe and 0 ≤ t < Len(). Building costs one prefix sub-domain (if not
// cached yet), 3(t+1) accounted multiplications per point beyond the prefix
// (Domain.EvalBasis) and the tables, which are not accounted.
func (d *Domain) Parity(t int) *Parity {
	if d.parity == nil || t < 0 || t >= len(d.xs) {
		return nil
	}
	pc := &d.parity[t]
	pc.once.Do(func() {
		sub, err := d.Prefix(t + 1)
		if err != nil {
			return // unreachable: 1 ≤ t+1 ≤ Len()
		}
		tables := func(cs []gf2k.Element) []*gf2k.Multiplier {
			out := make([]*gf2k.Multiplier, len(cs))
			for i, c := range cs {
				out[i] = d.f.Multiplier(c)
			}
			return out
		}
		p := &Parity{f: d.f, t: t, at0: tables(sub.coef[0])}
		for _, x := range d.xs[t+1:] {
			p.rows = append(p.rows, tables(sub.EvalBasis(x)))
		}
		pc.p = p
	})
	return pc.p
}

// Secret checks the word ys — one value per universe point, in order —
// row by row, stopping at the first row that fails, and returns F(0) when
// every row holds. Recorded as one "interpolation" in ctr, the
// interpolation it stands in for. Cost: t+1 table products and additions
// per row checked, and t+1 more for F(0): (t+1)(n−t) for a codeword, zero
// inversions.
func (p *Parity) Secret(ys []gf2k.Element, ctr *metrics.Counters) (gf2k.Element, bool) {
	if ctr != nil {
		ctr.AddInterpolations(1)
	}
	prefix := ys[:p.t+1]
	checked := 0
	for r, row := range p.rows {
		checked++
		if combine(row, prefix) != ys[p.t+1+r] {
			p.f.Tally(checked*len(prefix), checked*len(prefix))
			return 0, false
		}
	}
	p.f.Tally((checked+1)*len(prefix), (checked+1)*len(prefix))
	return combine(p.at0, prefix), true
}

// combine returns Σ_i m[i]·ys[i].
func combine(m []*gf2k.Multiplier, ys []gf2k.Element) gf2k.Element {
	var acc gf2k.Element
	for i, y := range ys {
		acc ^= m[i].Mul(y)
	}
	return acc
}
