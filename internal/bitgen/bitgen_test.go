package bitgen

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/gf2k"
	"repro/internal/metrics"
	"repro/internal/poly"
	"repro/internal/simnet"
)

// runBitGen executes DealAll + ExchangeGammas for all players with a common
// challenge; faulty players run the given functions instead.
func runBitGen(t *testing.T, cfg Config, r gf2k.Element, seed int64, faulty map[int]simnet.PlayerFunc) []simnet.PlayerResult {
	t.Helper()
	nw := simnet.New(cfg.N, simnet.WithCounters(cfg.Counters))
	fns := make([]simnet.PlayerFunc, cfg.N)
	for i := 0; i < cfg.N; i++ {
		if f, ok := faulty[i]; ok {
			fns[i] = f
			continue
		}
		fns[i] = func(nd *simnet.Node) (interface{}, error) {
			rnd := rand.New(rand.NewSource(seed + int64(i)))
			sh, err := DealAll(nd, cfg, rnd)
			if err != nil {
				return nil, err
			}
			v, err := ExchangeGammas(nd, cfg, sh, r)
			if err != nil {
				return nil, err
			}
			return struct {
				Sh *Shares
				V  *View
			}{sh, v}, nil
		}
	}
	return simnet.Run(nw, fns)
}

type runOut struct {
	Sh *Shares
	V  *View
}

func out(t *testing.T, r simnet.PlayerResult) runOut {
	t.Helper()
	if r.Err != nil {
		t.Fatal(r.Err)
	}
	v := r.Value.(struct {
		Sh *Shares
		V  *View
	})
	return runOut{v.Sh, v.V}
}

func TestAllHonestAllInstancesOK(t *testing.T) {
	for _, tc := range []struct{ n, tf, m int }{{4, 1, 1}, {7, 2, 4}, {13, 2, 16}} {
		cfg := Config{Field: gf2k.MustNew(32), N: tc.n, T: tc.tf, M: tc.m}
		results := runBitGen(t, cfg, 0x1234567, int64(tc.n), nil)
		for i, r := range results {
			o := out(t, r)
			for j := 0; j < tc.n; j++ {
				if !o.V.Outputs[j].OK {
					t.Fatalf("n=%d player %d: dealer %d not OK", tc.n, i, j)
				}
				if o.V.Outputs[j].F.Degree() > tc.tf {
					t.Fatalf("player %d dealer %d: F degree %d > t", i, j, o.V.Outputs[j].F.Degree())
				}
			}
		}
	}
}

func TestFAgreesAcrossPlayers(t *testing.T) {
	// Any two honest players that decode dealer j must get the same F_j.
	cfg := Config{Field: gf2k.MustNew(32), N: 7, T: 2, M: 3}
	results := runBitGen(t, cfg, 0x99, 7, nil)
	ref := out(t, results[0])
	for i := 1; i < cfg.N; i++ {
		o := out(t, results[i])
		for j := 0; j < cfg.N; j++ {
			fa, fb := ref.V.Outputs[j].F, o.V.Outputs[j].F
			if fa.Degree() != fb.Degree() {
				t.Fatalf("player %d dealer %d: degree mismatch", i, j)
			}
			for c := 0; c <= fa.Degree(); c++ {
				if fa[c] != fb[c] {
					t.Fatalf("player %d dealer %d: F differs", i, j)
				}
			}
		}
	}
}

func TestGammaMatchesPolynomialCombination(t *testing.T) {
	// F_j must equal g_j + Σ r^h f_{j,h} — check against dealer's own polys.
	cfg := Config{Field: gf2k.MustNew(32), N: 7, T: 2, M: 4}
	r := gf2k.Element(0xabcdef)
	results := runBitGen(t, cfg, r, 11, nil)
	f := cfg.Field
	for j := 0; j < cfg.N; j++ {
		oj := out(t, results[j])
		want := oj.Sh.OwnPolys[cfg.M] // mask
		scale := r
		for h := 0; h < cfg.M; h++ {
			want = poly.Add(f, want, poly.ScalarMul(f, scale, oj.Sh.OwnPolys[h]))
			scale = f.Mul(scale, r)
		}
		got := out(t, results[0]).V.Outputs[j].F
		for _, x := range []gf2k.Element{1, 2, 77, 0x5555} {
			if poly.Eval(f, got, x) != poly.Eval(f, want, x) {
				t.Fatalf("dealer %d: F != masked combination", j)
			}
		}
	}
}

func TestCheatingDealerFlaggedLocally(t *testing.T) {
	// Dealer 0 deals a degree-(t+1) sharing; honest players' verdict for
	// instance 0 must be ⊥ (whp in GF(2^32)).
	cfg := Config{Field: gf2k.MustNew(32), N: 7, T: 2, M: 2}
	r := gf2k.Element(0x31337)
	bad := func(nd *simnet.Node) (interface{}, error) {
		f := cfg.Field
		rnd := rand.New(rand.NewSource(404))
		polys := make([]poly.Poly, cfg.M+1)
		for j := range polys {
			p, err := poly.Random(f, cfg.T+1, gf2k.Element(rnd.Uint32()), rnd)
			if err != nil {
				return nil, err
			}
			if p[cfg.T+1] == 0 {
				p[cfg.T+1] = 1
			}
			polys[j] = p
		}
		sh := &Shares{
			Alpha:    make([][]gf2k.Element, cfg.N),
			Mask:     make([]gf2k.Element, cfg.N),
			Received: make([]bool, cfg.N),
			OwnPolys: polys,
		}
		for i := 0; i < cfg.N; i++ {
			id, _ := f.ElementFromID(i + 1)
			if i == nd.Index() {
				row := make([]gf2k.Element, cfg.M)
				for h := 0; h < cfg.M; h++ {
					row[h] = poly.Eval(f, polys[h], id)
				}
				sh.Alpha[i], sh.Mask[i], sh.Received[i] = row, poly.Eval(f, polys[cfg.M], id), true
				continue
			}
			buf := make([]byte, 0, (cfg.M+1)*f.ByteLen())
			for _, p := range polys {
				buf = f.AppendElement(buf, poly.Eval(f, p, id))
			}
			nd.Send(i, buf)
		}
		if _, err := nd.EndRound(); err != nil {
			return nil, err
		}
		// Read nothing; participate honestly in the γ exchange.
		v, err := ExchangeGammas(nd, cfg, sh, r)
		return struct {
			Sh *Shares
			V  *View
		}{sh, v}, err
	}
	results := runBitGen(t, cfg, r, 21, map[int]simnet.PlayerFunc{0: bad})
	for i := 1; i < cfg.N; i++ {
		o := out(t, results[i])
		if o.V.Outputs[0].OK {
			t.Fatalf("player %d accepted a degree-%d dealing from dealer 0", i, cfg.T+1)
		}
		for j := 1; j < cfg.N; j++ {
			if !o.V.Outputs[j].OK {
				t.Fatalf("player %d: honest dealer %d rejected", i, j)
			}
		}
	}
}

func TestSilentDealerFlagged(t *testing.T) {
	cfg := Config{Field: gf2k.MustNew(32), N: 7, T: 2, M: 2}
	r := gf2k.Element(5)
	silent := func(nd *simnet.Node) (interface{}, error) {
		for rr := 0; rr < 2; rr++ {
			if _, err := nd.EndRound(); err != nil {
				return nil, err
			}
		}
		return struct {
			Sh *Shares
			V  *View
		}{nil, nil}, nil
	}
	results := runBitGen(t, cfg, r, 31, map[int]simnet.PlayerFunc{4: silent})
	for i := 0; i < cfg.N; i++ {
		if i == 4 {
			continue
		}
		o := out(t, results[i])
		if o.V.Outputs[4].OK {
			t.Fatalf("player %d accepted silent dealer 4", i)
		}
	}
}

func TestEdgesHonestComplete(t *testing.T) {
	cfg := Config{Field: gf2k.MustNew(32), N: 7, T: 2, M: 2}
	results := runBitGen(t, cfg, 0x77, 41, nil)
	for i, r := range results {
		o := out(t, r)
		for j := 0; j < cfg.N; j++ {
			for k := 0; k < cfg.N; k++ {
				if !o.V.Edge(cfg.Field, j, k) {
					t.Fatalf("player %d: missing edge %d→%d in all-honest run", i, j, k)
				}
			}
		}
	}
}

func TestEquivocatingGammaBreaksEdgeLocally(t *testing.T) {
	// Player 3 sends correct γ vectors to half the players and corrupted
	// ones to the rest: edge j→3 must differ per receiver but honest
	// instances must still decode everywhere.
	cfg := Config{Field: gf2k.MustNew(32), N: 7, T: 2, M: 2}
	r := gf2k.Element(0x4242)
	equivocate := func(nd *simnet.Node) (interface{}, error) {
		rnd := rand.New(rand.NewSource(51))
		sh, err := DealAll(nd, cfg, rnd)
		if err != nil {
			return nil, err
		}
		f := cfg.Field
		buf := make([]byte, 0, cfg.N*(1+f.ByteLen()))
		for j := 0; j < cfg.N; j++ {
			g, _ := sh.Gamma(f, j, r)
			buf = append(buf, 0)
			buf = f.AppendElement(buf, g)
		}
		for i := 0; i < cfg.N; i++ {
			if i == nd.Index() {
				continue
			}
			if i%2 == 0 {
				nd.Send(i, buf)
			} else {
				bad := append([]byte(nil), buf...)
				bad[1] ^= 0xff // corrupt γ for dealer 0
				nd.Send(i, bad)
			}
		}
		if _, err := nd.EndRound(); err != nil {
			return nil, err
		}
		return struct {
			Sh *Shares
			V  *View
		}{sh, nil}, nil
	}
	results := runBitGen(t, cfg, r, 61, map[int]simnet.PlayerFunc{3: equivocate})
	for i := 0; i < cfg.N; i++ {
		if i == 3 {
			continue
		}
		o := out(t, results[i])
		for j := 0; j < cfg.N; j++ {
			if !o.V.Outputs[j].OK {
				t.Fatalf("player %d: dealer %d should decode (only γ equivocation happened)", i, j)
			}
		}
		wantEdge := i%2 == 0
		if got := o.V.Edge(cfg.Field, 0, 3); got != wantEdge {
			t.Fatalf("player %d: edge 0→3 = %v, want %v", i, got, wantEdge)
		}
	}
}

func TestConfigValidation(t *testing.T) {
	f := gf2k.MustNew(16)
	bad := []Config{
		{Field: f, N: 6, T: 2, M: 1},
		{Field: f, N: 7, T: -1, M: 1},
		{Field: f, N: 7, T: 2, M: 0},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("case %d: invalid config accepted: %+v", i, cfg)
		}
	}
	if err := (Config{Field: f, N: 7, T: 2, M: 1}).Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
}

func TestDealAllRoundCount(t *testing.T) {
	cfg := Config{Field: gf2k.MustNew(16), N: 4, T: 1, M: 2}
	nw := simnet.New(4)
	fns := make([]simnet.PlayerFunc, 4)
	for i := range fns {
		fns[i] = func(nd *simnet.Node) (interface{}, error) {
			rnd := rand.New(rand.NewSource(int64(i)))
			sh, err := DealAll(nd, cfg, rnd)
			if err != nil {
				return nil, err
			}
			if nd.Round() != 1 {
				return nil, fmt.Errorf("deal consumed %d rounds", nd.Round())
			}
			if _, err := ExchangeGammas(nd, cfg, sh, 3); err != nil {
				return nil, err
			}
			if nd.Round() != 2 {
				return nil, fmt.Errorf("exchange consumed %d total rounds", nd.Round())
			}
			return nil, nil
		}
	}
	for i, r := range simnet.Run(nw, fns) {
		if r.Err != nil {
			t.Fatalf("player %d: %v", i, r.Err)
		}
	}
}

// TestCommunicationMatchesLemma6 checks Lemma 6 and Corollary 2 (E5). With
// all n dealers running Bit-Gen in parallel, as Coin-Gen runs it, every
// ordered pair of players carries one deal message of M+1 elements and one
// γ vector of n flagged elements: n(n−1)((M+1)·⌈k/8⌉ + n(1+⌈k/8⌉)) bytes
// in all, the n dealers' nMk + 2n²k bits. Per sealed bit it falls with M.
func TestCommunicationMatchesLemma6(t *testing.T) {
	const k = 32
	elem := (k + 7) / 8
	for _, tc := range []struct{ n, tf, m int }{{7, 1, 4}, {7, 1, 64}, {13, 2, 16}} {
		var ctr metrics.Counters
		cfg := Config{Field: gf2k.MustNew(k), N: tc.n, T: tc.tf, M: tc.m, Counters: &ctr}
		for _, r := range runBitGen(t, cfg, 0x1234, int64(tc.n), nil) {
			out(t, r)
		}
		got := ctr.Snapshot().Bytes
		want := int64(tc.n * (tc.n - 1) * ((tc.m+1)*elem + tc.n*(1+elem)))
		t.Logf("n=%d t=%d M=%d: %d bytes (formula %d), %.2f bytes per sealed bit",
			tc.n, tc.tf, tc.m, got, want, float64(got)/float64(tc.n*tc.m*k))
		if got != want {
			t.Errorf("n=%d M=%d: bytes = %d, want n(n−1)((M+1)·⌈k/8⌉ + n(1+⌈k/8⌉)) = %d", tc.n, tc.m, got, want)
		}
	}
}
