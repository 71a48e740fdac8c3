package vss

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/coin"
	"repro/internal/gf2k"
	"repro/internal/metrics"
	"repro/internal/poly"
	"repro/internal/simnet"
)

// harness bundles a network, per-player coin batches and a config.
type harness struct {
	cfg     Config
	n, t    int
	f       gf2k.Field
	nw      *simnet.Network
	batches []*coin.Batch
}

func newHarness(t *testing.T, n, tf, k, nCoins int, seed int64, ctr *metrics.Counters) *harness {
	t.Helper()
	f := gf2k.MustNew(k)
	rng := rand.New(rand.NewSource(seed))
	batches, _, err := coin.DealTrusted(f, n, tf, nCoins, rng)
	if err != nil {
		t.Fatal(err)
	}
	var opts []simnet.Option
	if ctr != nil {
		opts = append(opts, simnet.WithCounters(ctr))
		f = f.WithCounters(ctr)
	}
	return &harness{
		cfg:     Config{Field: f, N: n, T: tf, Counters: ctr},
		n:       n,
		t:       tf,
		f:       f,
		nw:      simnet.New(n, opts...),
		batches: batches,
	}
}

// player returns a PlayerFunc running Deal+Verify with the given secrets
// (only used at the dealer).
func (h *harness) player(dealer int, secrets []gf2k.Element, seed int64) simnet.PlayerFunc {
	return func(nd *simnet.Node) (interface{}, error) {
		cfg := h.cfg
		cfg.Coins = h.batches[nd.Index()]
		var rnd *rand.Rand
		var mySecrets []gf2k.Element
		if nd.Index() == dealer {
			rnd = rand.New(rand.NewSource(seed))
			mySecrets = secrets
		}
		inst, err := Deal(nd, cfg, dealer, mySecrets, rnd)
		if err != nil {
			return nil, err
		}
		ok, err := inst.Verify(nd)
		if err != nil {
			return nil, err
		}
		return ok, nil
	}
}

func TestHonestDealerAccepted(t *testing.T) {
	for _, tc := range []struct{ n, t, m int }{
		{4, 1, 1}, {7, 2, 1}, {7, 2, 8}, {10, 3, 32},
	} {
		h := newHarness(t, tc.n, tc.t, 32, 2, int64(tc.n*100+tc.m), nil)
		rng := rand.New(rand.NewSource(9))
		secrets := make([]gf2k.Element, tc.m)
		for j := range secrets {
			secrets[j], _ = h.f.Rand(rng)
		}
		fns := make([]simnet.PlayerFunc, tc.n)
		for i := range fns {
			fns[i] = h.player(0, secrets, 55)
		}
		for i, r := range simnet.Run(h.nw, fns) {
			if r.Err != nil {
				t.Fatalf("n=%d M=%d player %d: %v", tc.n, tc.m, i, r.Err)
			}
			if r.Value != true {
				t.Fatalf("n=%d M=%d player %d rejected an honest dealer", tc.n, tc.m, i)
			}
		}
	}
}

// cheatingDealer deals shares of a polynomial of degree t+1 (invalid) and
// then follows the protocol honestly. With planted set it is Lemma 3's
// optimal cheater: the degree-(t+1) coefficients of the mask and the M
// secrets are q_0, q_1..q_M of Q(r) = Π_{i=1..M} (r − i), so the combined
// top coefficient at challenge r is Q(r) and the sharing passes exactly
// when r is one of the M planted roots, with probability M/p.
func cheatingDealer(h *harness, m int, seed int64, planted bool) simnet.PlayerFunc {
	return func(nd *simnet.Node) (interface{}, error) {
		cfg := h.cfg
		cfg.Coins = h.batches[nd.Index()]
		rnd := rand.New(rand.NewSource(seed))
		f := cfg.Field

		polys := make([]poly.Poly, m+1)
		for j := 0; j <= m; j++ {
			p, err := poly.Random(f, cfg.T+1, gf2k.Element(rnd.Uint64())&((1<<f.K())-1), rnd)
			if err != nil {
				return nil, err
			}
			// Force genuinely bad degree for the secret polynomials.
			if j < m && p[cfg.T+1] == 0 {
				p[cfg.T+1] = 1
			}
			polys[j] = p
		}
		if planted {
			q := poly.Poly{1}
			for i := 1; i <= m; i++ {
				root, err := f.ElementFromID(i)
				if err != nil {
					return nil, err
				}
				q = poly.Mul(f, q, poly.Poly{root, 1})
			}
			polys[m][cfg.T+1] = q[0]
			for j := 1; j <= m; j++ {
				polys[j-1][cfg.T+1] = q[j]
			}
		}
		var myShares []gf2k.Element
		var myMask gf2k.Element
		for i := 0; i < cfg.N; i++ {
			id, err := f.ElementFromID(i + 1)
			if err != nil {
				return nil, err
			}
			buf := make([]byte, 0, (m+1)*f.ByteLen())
			shares := make([]gf2k.Element, 0, m+1)
			for _, p := range polys {
				v := poly.Eval(f, p, id)
				shares = append(shares, v)
				buf = f.AppendElement(buf, v)
			}
			if i == nd.Index() {
				myShares = shares[:m]
				myMask = shares[m]
				continue
			}
			nd.Send(i, buf)
		}
		if _, err := nd.EndRound(); err != nil {
			return nil, err
		}
		inst := NewInstance(cfg, nd.Index(), myShares, myMask)
		return inst.Verify(nd)
	}
}

func TestCheatingDealerRejected(t *testing.T) {
	// With k=32 the acceptance probability is M/2^32; over a handful of
	// trials rejection is essentially certain.
	for trial := 0; trial < 5; trial++ {
		for _, m := range []int{1, 8} {
			h := newHarness(t, 7, 2, 32, 2, int64(trial*10+m), nil)
			fns := make([]simnet.PlayerFunc, h.n)
			fns[0] = cheatingDealer(h, m, int64(trial)*31+7, false)
			for i := 1; i < h.n; i++ {
				fns[i] = h.player(0, nil, 0)
			}
			for i, r := range simnet.Run(h.nw, fns) {
				if r.Err != nil {
					t.Fatalf("player %d: %v", i, r.Err)
				}
				if r.Value != false {
					t.Fatalf("trial %d M=%d: player %d accepted a degree-%d sharing", trial, m, i, h.t+1)
				}
			}
		}
	}
}

func TestVerdictUnanimity(t *testing.T) {
	// Whatever the dealer does, all honest players return the same verdict.
	rng := rand.New(rand.NewSource(33))
	for trial := 0; trial < 10; trial++ {
		h := newHarness(t, 7, 2, 8, 2, int64(trial), nil) // tiny field: accepts sometimes
		fns := make([]simnet.PlayerFunc, h.n)
		fns[0] = cheatingDealer(h, 4, rng.Int63(), false)
		for i := 1; i < h.n; i++ {
			fns[i] = h.player(0, nil, 0)
		}
		results := simnet.Run(h.nw, fns)
		verdict := results[1].Value.(bool)
		for i := 2; i < h.n; i++ {
			if results[i].Err != nil {
				t.Fatalf("player %d: %v", i, results[i].Err)
			}
			if results[i].Value.(bool) != verdict {
				t.Fatalf("trial %d: verdicts differ between honest players", trial)
			}
		}
	}
}

func TestFaultyPlayersCannotFrameHonestDealer(t *testing.T) {
	// t Byzantine players broadcast garbage δ; verification must still
	// accept the honest dealer's sharing.
	h := newHarness(t, 7, 2, 32, 2, 77, nil)
	secrets := []gf2k.Element{1, 2, 3}
	fns := make([]simnet.PlayerFunc, h.n)
	for i := range fns {
		fns[i] = h.player(0, secrets, 13)
	}
	for _, bad := range []int{2, 5} {
		fns[bad] = func(nd *simnet.Node) (interface{}, error) {
			cfg := h.cfg
			cfg.Coins = h.batches[nd.Index()]
			if _, err := Deal(nd, cfg, 0, nil, nil); err != nil {
				return nil, err
			}
			// Participate in coin expose (must keep lockstep), then lie.
			if _, err := cfg.Coins.Expose(nd); err != nil {
				return nil, err
			}
			nd.Broadcast(cfg.Field.AppendElement(nil, gf2k.Element(0xbadbad)))
			if _, err := nd.EndRound(); err != nil {
				return nil, err
			}
			return false, nil
		}
	}
	for i, r := range simnet.Run(h.nw, fns) {
		if i == 2 || i == 5 {
			continue
		}
		if r.Err != nil {
			t.Fatalf("player %d: %v", i, r.Err)
		}
		if r.Value != true {
			t.Fatalf("player %d rejected honest dealer framed by faulty players", i)
		}
	}
}

func TestSilentDealerRejected(t *testing.T) {
	h := newHarness(t, 7, 2, 32, 2, 99, nil)
	fns := make([]simnet.PlayerFunc, h.n)
	fns[3] = func(nd *simnet.Node) (interface{}, error) {
		cfg := h.cfg
		cfg.Coins = h.batches[nd.Index()]
		// Dealer deals nothing.
		if _, err := nd.EndRound(); err != nil {
			return nil, err
		}
		if _, err := cfg.Coins.Expose(nd); err != nil {
			return nil, err
		}
		if _, err := nd.EndRound(); err != nil {
			return nil, err
		}
		return false, nil
	}
	for i := range fns {
		if i == 3 {
			continue
		}
		fns[i] = h.player(3, nil, 0)
	}
	for i, r := range simnet.Run(h.nw, fns) {
		if i == 3 {
			continue
		}
		if r.Err != nil {
			t.Fatalf("player %d: %v", i, r.Err)
		}
		if r.Value != false {
			t.Fatalf("player %d accepted a silent dealer", i)
		}
	}
}

// TestDealDrawOrder: the dealer's one read of randomness yields the
// polynomials a coefficient-by-coefficient draw yields — each secret's t
// coefficients in turn, then the mask's secret and coefficients — and
// leaves the reader where that draw leaves it.
func TestDealDrawOrder(t *testing.T) {
	h := newHarness(t, 7, 2, 32, 2, 101, nil)
	secrets := []gf2k.Element{0xabcdef, 42, 7}
	rnd, ref := rand.New(rand.NewSource(5)), rand.New(rand.NewSource(5))
	var want []poly.Poly
	draw := func(s gf2k.Element) {
		p, err := poly.Random(h.f, h.t, s, ref)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, p)
	}
	for _, s := range secrets {
		draw(s)
	}
	maskSecret, err := h.f.Rand(ref)
	if err != nil {
		t.Fatal(err)
	}
	draw(maskSecret)
	fns := make([]simnet.PlayerFunc, h.n)
	for i := range fns {
		fns[i] = func(nd *simnet.Node) (interface{}, error) {
			if nd.Index() != 0 {
				return Deal(nd, h.cfg, 0, nil, nil)
			}
			return Deal(nd, h.cfg, 0, secrets, rnd)
		}
	}
	res := simnet.Run(h.nw, fns)
	if res[0].Err != nil {
		t.Fatal(res[0].Err)
	}
	if got := res[0].Value.(*Instance).Polys; !reflect.DeepEqual(got, want) {
		t.Fatalf("dealt polynomials %v, want %v", got, want)
	}
	if rnd.Uint64() != ref.Uint64() {
		t.Fatal("Deal left the dealer's reader at a different position")
	}
}

func TestReconstruct(t *testing.T) {
	h := newHarness(t, 7, 2, 32, 2, 101, nil)
	secrets := []gf2k.Element{0xabcdef, 42, 7}
	fns := make([]simnet.PlayerFunc, h.n)
	for i := range fns {
		fns[i] = func(nd *simnet.Node) (interface{}, error) {
			cfg := h.cfg
			cfg.Coins = h.batches[nd.Index()]
			var rnd *rand.Rand
			var s []gf2k.Element
			if nd.Index() == 0 {
				rnd = rand.New(rand.NewSource(5))
				s = secrets
			}
			inst, err := Deal(nd, cfg, 0, s, rnd)
			if err != nil {
				return nil, err
			}
			if ok, err := inst.Verify(nd); err != nil || !ok {
				return nil, fmt.Errorf("verify: ok=%v err=%v", ok, err)
			}
			out := make([]gf2k.Element, len(secrets))
			for j := range secrets {
				v, err := inst.Reconstruct(nd, j)
				if err != nil {
					return nil, err
				}
				out[j] = v
			}
			return out, nil
		}
	}
	for i, r := range simnet.Run(h.nw, fns) {
		if r.Err != nil {
			t.Fatalf("player %d: %v", i, r.Err)
		}
		got := r.Value.([]gf2k.Element)
		for j, want := range secrets {
			if got[j] != want {
				t.Fatalf("player %d secret %d: %#x, want %#x", i, j, got[j], want)
			}
		}
	}
}

// binomialRange returns the largest lo and smallest hi with P(X < lo) ≤ 10⁻⁶
// and P(X > hi) ≤ 10⁻⁶ for X ~ Bin(n, p), from the exact tails.
func binomialRange(n int, p float64) (lo, hi int) {
	const tail = 1e-6
	pmf := func(k int) float64 {
		a, _ := math.Lgamma(float64(n + 1))
		b, _ := math.Lgamma(float64(k + 1))
		c, _ := math.Lgamma(float64(n - k + 1))
		return math.Exp(a - b - c + float64(k)*math.Log(p) + float64(n-k)*math.Log1p(-p))
	}
	for s := 0.0; lo < n && s+pmf(lo) <= tail; lo++ {
		s += pmf(lo)
	}
	hi = n
	for s := 0.0; hi > 0 && s+pmf(hi) <= tail; hi-- {
		s += pmf(hi)
	}
	return lo, hi
}

// TestSoundnessBoundSmallField checks Lemmas 1 and 3 (E1, E3) in GF(2^8):
// the optimal cheating dealer passes with probability M/p, so over seeded
// trials the acceptance count is no higher than Bin(trials, M/p) allows at
// 10⁻⁶. At the largest M it is also no lower, which shows the bound is
// tight.
func TestSoundnessBoundSmallField(t *testing.T) {
	if testing.Short() {
		t.Skip("Monte Carlo")
	}
	const k, trials = 8, 1000
	ms := []int{1, 4, 16}
	for _, m := range ms {
		accepted := 0
		for trial := 0; trial < trials; trial++ {
			h := newHarness(t, 4, 1, k, 1, int64(m*100000+trial), nil)
			fns := make([]simnet.PlayerFunc, h.n)
			fns[0] = cheatingDealer(h, m, int64(trial)*3+11, true)
			for i := 1; i < h.n; i++ {
				fns[i] = h.player(0, nil, 0)
			}
			results := simnet.Run(h.nw, fns)
			for i := 1; i < h.n; i++ {
				if results[i].Err != nil {
					t.Fatalf("M=%d trial %d player %d: %v", m, trial, i, results[i].Err)
				}
			}
			if results[1].Value == true {
				accepted++
			}
		}
		bound := float64(m) / (1 << k)
		lo, hi := binomialRange(trials, bound)
		t.Logf("k=%d M=%d: accepted %d/%d = %.3f%%, bound M/p = %.3f%%, allowed [%d, %d]",
			k, m, accepted, trials, 100*float64(accepted)/trials, 100*bound, lo, hi)
		if accepted > hi {
			t.Errorf("M=%d: cheating dealer accepted %d times; Bin(%d, %g) exceeds %d with probability ≤ 10⁻⁶", m, accepted, trials, bound, hi)
		}
		if m == ms[len(ms)-1] && accepted < lo {
			t.Errorf("M=%d: optimal cheater accepted only %d times, below %d: the M/p bound is not reached", m, accepted, lo)
		}
	}
}

// TestCommunicationCostsMatchLemma checks Lemmas 2 and 4 with Corollary 1
// (E2, E4): dealing is n−1 messages of (M+1)·k bits, verification is n
// broadcasts of k bits, and the ceremony takes 3 rounds (deal, challenge
// expose, verify) and one interpolation per player whatever M is. The
// harness's coin batches carry no counters, so the challenge expose's
// interpolation is not counted here.
func TestCommunicationCostsMatchLemma(t *testing.T) {
	const n, tf, k = 7, 2, 32
	elem := int64((k + 7) / 8)
	for _, m := range []int{1, 16, 256} {
		var ctr metrics.Counters
		h := newHarness(t, n, tf, k, 1, 5, &ctr)
		secrets := make([]gf2k.Element, m)
		for j := range secrets {
			secrets[j] = gf2k.Element(j + 1)
		}
		fns := make([]simnet.PlayerFunc, n)
		for i := range fns {
			fns[i] = h.player(0, secrets, 21)
		}
		for i, r := range simnet.Run(h.nw, fns) {
			if r.Err != nil || r.Value != true {
				t.Fatalf("M=%d player %d: %+v", m, i, r)
			}
		}
		d := ctr.Snapshot()
		t.Logf("n=%d t=%d M=%d: rounds %d, messages %d, broadcasts %d, interpolations %d, bytes %d (%.1f per secret)",
			n, tf, m, d.Rounds, d.Messages, d.Broadcasts, d.Interpolations, d.Bytes, float64(d.Bytes)/float64(m))
		if d.Rounds != 3 {
			t.Errorf("M=%d: rounds = %d, want 3 (deal, expose, verify)", m, d.Rounds)
		}
		if d.Broadcasts != n {
			t.Errorf("M=%d: broadcasts = %d, want %d", m, d.Broadcasts, n)
		}
		// Unicast: deal (n−1) + expose (|S| = 3t+1 members × (n−1)); each
		// of the n broadcasts is delivered to n players.
		wantUnicast := int64(n-1) + int64(3*tf+1)*int64(n-1)
		if got := d.Messages - n*n; got != wantUnicast {
			t.Errorf("M=%d: unicast messages = %d, want %d", m, got, wantUnicast)
		}
		// Bytes: deal + expose shares + n² copies of δ and its flag byte.
		wantBytes := int64(n-1)*int64(m+1)*elem + int64(3*tf+1)*int64(n-1)*elem + int64(n*n)*(elem+1)
		if d.Bytes != wantBytes {
			t.Errorf("M=%d: bytes = %d, want %d", m, d.Bytes, wantBytes)
		}
		if d.Interpolations != n {
			t.Errorf("M=%d: interpolations = %d, want %d (one per player)", m, d.Interpolations, n)
		}
	}
}

func TestConfigValidation(t *testing.T) {
	f := gf2k.MustNew(16)
	if err := (Config{Field: f, N: 6, T: 2}).Validate(); err == nil {
		t.Error("n=6,t=2 accepted (needs 7)")
	}
	if err := (Config{Field: f, N: 4, T: -1}).Validate(); err == nil {
		t.Error("negative t accepted")
	}
	if err := (Config{Field: f, N: 7, T: 2}).Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
}

func TestMaskKeepsSecretsHidden(t *testing.T) {
	// The broadcast δ values must not determine the secrets: run two
	// ceremonies with different secrets but identical randomness for the
	// mask... instead, statistically: δ of a fixed player over repeated
	// ceremonies with the SAME secret should be close to uniform (it is
	// γ + combination, with γ fresh every time).
	h0 := newHarness(t, 4, 1, 16, 1, 1, nil)
	f := h0.f
	seen := make(map[gf2k.Element]bool)
	const reps = 120
	for rep := 0; rep < reps; rep++ {
		h := newHarness(t, 4, 1, 16, 1, int64(rep+1000), nil)
		var captured gf2k.Element
		fns := make([]simnet.PlayerFunc, h.n)
		for i := range fns {
			fns[i] = func(nd *simnet.Node) (interface{}, error) {
				cfg := h.cfg
				cfg.Coins = h.batches[nd.Index()]
				var rnd *rand.Rand
				var s []gf2k.Element
				if nd.Index() == 0 {
					rnd = rand.New(rand.NewSource(int64(rep + 5000)))
					s = []gf2k.Element{0x42} // fixed secret
				}
				inst, err := Deal(nd, cfg, 0, s, rnd)
				if err != nil {
					return nil, err
				}
				r, err := cfg.Coins.Expose(nd)
				if err != nil {
					return nil, err
				}
				if i == 1 {
					captured = inst.combination(r)
				}
				ok, err := inst.verifyWithChallenge(nd, r)
				if err != nil || !ok {
					return nil, fmt.Errorf("verify failed: %v %v", ok, err)
				}
				return nil, nil
			}
		}
		for i, r := range simnet.Run(h.nw, fns) {
			if r.Err != nil {
				t.Fatalf("rep %d player %d: %v", rep, i, r.Err)
			}
		}
		seen[captured] = true
	}
	_ = f
	if len(seen) < reps*3/4 {
		t.Errorf("δ took only %d/%d distinct values for a fixed secret; mask not hiding", len(seen), reps)
	}
}

// partialDealer deals proper shares to all but `skip` players (who get
// nothing) and otherwise runs the protocol honestly.
func partialDealer(h *harness, skip map[int]bool, seed int64) simnet.PlayerFunc {
	return func(nd *simnet.Node) (interface{}, error) {
		cfg := h.cfg
		cfg.Coins = h.batches[nd.Index()]
		rnd := rand.New(rand.NewSource(seed))
		f := cfg.Field
		p, err := poly.Random(f, cfg.T, 0x77, rnd)
		if err != nil {
			return nil, err
		}
		mask, err := poly.Random(f, cfg.T, gf2k.Element(rnd.Uint32()), rnd)
		if err != nil {
			return nil, err
		}
		var myShares []gf2k.Element
		var myMask gf2k.Element
		for i := 0; i < cfg.N; i++ {
			id, err := f.ElementFromID(i + 1)
			if err != nil {
				return nil, err
			}
			sv, mv := poly.Eval(f, p, id), poly.Eval(f, mask, id)
			if i == nd.Index() {
				myShares, myMask = []gf2k.Element{sv}, mv
				continue
			}
			if skip[i] {
				continue
			}
			buf := f.AppendElement(nil, sv)
			buf = f.AppendElement(buf, mv)
			nd.Send(i, buf)
		}
		if _, err := nd.EndRound(); err != nil {
			return nil, err
		}
		inst := NewInstance(cfg, nd.Index(), myShares, myMask)
		return inst.Verify(nd)
	}
}

func TestComplaintBoundary(t *testing.T) {
	// A dealer that skips exactly t players is accepted (their complaints
	// fit the budget and the remaining shares are consistent); skipping
	// t+1 players must be rejected by everyone.
	for _, tc := range []struct {
		skip int
		want bool
	}{
		{2, true},  // = t
		{3, false}, // = t+1
	} {
		h := newHarness(t, 7, 2, 32, 2, int64(tc.skip)*7+1, nil)
		skip := map[int]bool{}
		for i := 1; i <= tc.skip; i++ {
			skip[i] = true
		}
		fns := make([]simnet.PlayerFunc, h.n)
		fns[0] = partialDealer(h, skip, 17)
		for i := 1; i < h.n; i++ {
			fns[i] = h.player(0, nil, 0)
		}
		for i, r := range simnet.Run(h.nw, fns) {
			if r.Err != nil {
				t.Fatalf("skip=%d player %d: %v", tc.skip, i, r.Err)
			}
			if r.Value != tc.want {
				t.Fatalf("skip=%d player %d: verdict %v, want %v", tc.skip, i, r.Value, tc.want)
			}
		}
	}
}
