package coingen

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/adversary"
	"repro/internal/ba"
	"repro/internal/bitgen"
	"repro/internal/coin"
	"repro/internal/gf2k"
	"repro/internal/gradecast"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/poly"
	"repro/internal/simnet"
)

// fixture builds a network plus seed batches for a Coin-Gen run.
type fixture struct {
	cfg   Config
	f     gf2k.Field
	nw    *simnet.Network
	seeds []*coin.Batch
}

func newFixture(t testing.TB, n, tf, m, seedCoins int, seed int64, opts ...simnet.Option) *fixture {
	t.Helper()
	f := gf2k.MustNew(32)
	rng := rand.New(rand.NewSource(seed))
	seeds, _, err := coin.DealTrusted(f, n, tf, seedCoins, rng)
	if err != nil {
		t.Fatal(err)
	}
	return &fixture{
		cfg:   Config{Field: f, N: n, T: tf, M: m},
		f:     f,
		nw:    simnet.New(n, opts...),
		seeds: seeds,
	}
}

// exposed is what honestThenExpose returns.
type exposed = struct {
	Res   *Result
	Coins []gf2k.Element
}

// runUnanimous runs honestThenExpose(i, seed) at every player outside
// faulty, which run their own functions, and returns the first honest
// player's output after checking that every honest player agreed on the
// clique, the attempt count and every coin.
func runUnanimous(t *testing.T, fx *fixture, seed int64, faulty map[int]simnet.PlayerFunc) exposed {
	t.Helper()
	fns := make([]simnet.PlayerFunc, len(fx.seeds))
	for i := range fns {
		if fns[i] = faulty[i]; fns[i] == nil {
			fns[i] = fx.honestThenExpose(i, seed)
		}
	}
	var ref *exposed
	for i, r := range simnet.Run(fx.nw, fns) {
		if faulty[i] != nil {
			continue
		}
		if r.Err != nil {
			t.Fatalf("player %d: %v", i, r.Err)
		}
		o := r.Value.(exposed)
		if ref == nil {
			ref = &o
			continue
		}
		if !reflect.DeepEqual(o.Res.Clique, ref.Res.Clique) || o.Res.Attempts != ref.Res.Attempts {
			t.Fatalf("player %d: clique %v, %d attempts; first honest player: %v, %d",
				i, o.Res.Clique, o.Res.Attempts, ref.Res.Clique, ref.Res.Attempts)
		}
		if !reflect.DeepEqual(o.Coins, ref.Coins) {
			t.Fatalf("player %d opened %x, first honest player %x (unanimity violated)", i, o.Coins, ref.Coins)
		}
	}
	return *ref
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

func (fx *fixture) honest(i int, seed int64) simnet.PlayerFunc {
	return func(nd *simnet.Node) (interface{}, error) {
		cfg := fx.cfg
		cfg.Seed = fx.seeds[nd.Index()]
		rnd := rand.New(rand.NewSource(seed + int64(i)))
		return Run(nd, cfg, rnd)
	}
}

// exposeAllAfter runs Coin-Gen then exposes every generated coin.
func (fx *fixture) honestThenExpose(i int, seed int64) simnet.PlayerFunc {
	return func(nd *simnet.Node) (interface{}, error) {
		cfg := fx.cfg
		cfg.Seed = fx.seeds[nd.Index()]
		rnd := rand.New(rand.NewSource(seed + int64(i)))
		res, err := Run(nd, cfg, rnd)
		if err != nil {
			return nil, err
		}
		coins := make([]gf2k.Element, 0, cfg.M)
		for res.Batch.Remaining() > 0 {
			c, err := res.Batch.Expose(nd)
			if err != nil {
				return nil, err
			}
			coins = append(coins, c)
		}
		return exposed{res, coins}, nil
	}
}

func TestAllHonestGeneratesUnanimousCoins(t *testing.T) {
	for _, tc := range []struct{ n, tf, m int }{{7, 1, 4}, {13, 2, 8}} {
		fx := newFixture(t, tc.n, tc.tf, tc.m, 6, int64(tc.n))
		ref := runUnanimous(t, fx, 100, nil)
		if len(ref.Coins) != tc.m {
			t.Fatalf("generated %d coins, want %d", len(ref.Coins), tc.m)
		}
		if ref.Res.Attempts != 1 {
			t.Errorf("all-honest run took %d attempts, want 1", ref.Res.Attempts)
		}
		if ref.Res.SeedConsumed != 2 {
			t.Errorf("all-honest run consumed %d seed coins, want 2", ref.Res.SeedConsumed)
		}
		if len(ref.Res.Clique) != tc.n {
			t.Errorf("all-honest clique size %d, want %d", len(ref.Res.Clique), tc.n)
		}
	}
}

// badDealerPlayer deals a wrong-degree sharing but is otherwise honest.
func (fx *fixture) badDealer(i int, seed int64) simnet.PlayerFunc {
	return func(nd *simnet.Node) (interface{}, error) {
		cfg := fx.cfg
		cfg.Seed = fx.seeds[nd.Index()]
		rnd := rand.New(rand.NewSource(seed + int64(i)))
		return nil, badDealOnce(nd, cfg, rnd)
	}
}

// badDealOnce participates in one full Coin-Gen as a wrong-degree dealer
// while staying in lockstep with the honest players, so the same player can
// rejoin honestly in a later batch (the paper's mobile-adversary setting).
func badDealOnce(nd *simnet.Node, cfg Config, rnd *rand.Rand) error {
	{
		f := cfg.Field

		// Fig. 4 step 1 with degree t+1 polynomials (invalid dealing).
		polys := make([]poly.Poly, cfg.M+1)
		for j := range polys {
			p, err := poly.Random(f, cfg.T+1, gf2k.Element(rnd.Uint32()), rnd)
			if err != nil {
				return err
			}
			if p[cfg.T+1] == 0 {
				p[cfg.T+1] = 1
			}
			polys[j] = p
		}
		sh := &bitgen.Shares{
			Alpha:    make([][]gf2k.Element, cfg.N),
			Mask:     make([]gf2k.Element, cfg.N),
			Received: make([]bool, cfg.N),
			OwnPolys: polys,
		}
		for p := 0; p < cfg.N; p++ {
			id, _ := f.ElementFromID(p + 1)
			if p == nd.Index() {
				row := make([]gf2k.Element, cfg.M)
				for h := 0; h < cfg.M; h++ {
					row[h] = poly.Eval(f, polys[h], id)
				}
				sh.Alpha[p], sh.Mask[p], sh.Received[p] = row, poly.Eval(f, polys[cfg.M], id), true
				continue
			}
			buf := make([]byte, 0, (cfg.M+1)*f.ByteLen())
			for _, pp := range polys {
				buf = f.AppendElement(buf, poly.Eval(f, pp, id))
			}
			nd.Send(p, buf)
		}
		if _, err := nd.EndRound(); err != nil {
			return err
		}
		// Continue the protocol honestly from here.
		r, err := cfg.Seed.Expose(nd)
		if err != nil {
			return err
		}
		bcfg := bitgen.Config{Field: f, N: cfg.N, T: cfg.T, M: cfg.M}
		view, err := bitgen.ExchangeGammas(nd, bcfg, sh, r)
		if err != nil {
			return err
		}
		_ = view
		// Grade-cast garbage and follow the leader loop silently.
		if _, err := gradecast.RunAll(nd, cfg.T, []byte{0xff}); err != nil {
			return err
		}
		for {
			if _, err := cfg.Seed.Expose(nd); err != nil {
				return err
			}
			dec, err := (ba.PhaseKing{T: cfg.T}).Run(nd, 0)
			if err != nil {
				return err
			}
			if dec == 1 {
				return nil
			}
		}
	}
}

func TestByzantineDealerExcludedFromClique(t *testing.T) {
	n, tf, m := 7, 1, 3
	fx := newFixture(t, n, tf, m, 8, 3)
	ref := runUnanimous(t, fx, 300, map[int]simnet.PlayerFunc{2: fx.badDealer(2, 900)})
	for _, member := range ref.Res.Clique {
		if member == 2 {
			t.Fatalf("bad dealer 2 ended up in agreed clique %v", ref.Res.Clique)
		}
	}
	if len(ref.Res.Clique) < n-2*tf {
		t.Fatalf("clique %d < n−2t", len(ref.Res.Clique))
	}
}

// grieferPlayer participates correctly through the γ exchange (so it stays
// in the clique) but grade-casts garbage and votes 0 in every BA, forcing
// retries whenever it is chosen leader.
func (fx *fixture) griefer(i int, seed int64) simnet.PlayerFunc {
	return func(nd *simnet.Node) (interface{}, error) {
		cfg := fx.cfg
		cfg.Seed = fx.seeds[nd.Index()]
		rnd := rand.New(rand.NewSource(seed + int64(i)))
		bcfg := bitgen.Config{Field: cfg.Field, N: cfg.N, T: cfg.T, M: cfg.M}
		sh, err := bitgen.DealAll(nd, bcfg, rnd)
		if err != nil {
			return nil, err
		}
		r, err := cfg.Seed.Expose(nd)
		if err != nil {
			return nil, err
		}
		if _, err := bitgen.ExchangeGammas(nd, bcfg, sh, r); err != nil {
			return nil, err
		}
		if _, err := gradecast.RunAll(nd, cfg.T, nil); err != nil { // garbage cast
			return nil, err
		}
		for {
			if _, err := cfg.Seed.Expose(nd); err != nil {
				return nil, err
			}
			dec, err := (ba.PhaseKing{T: cfg.T}).Run(nd, 0)
			if err != nil {
				return nil, err
			}
			if dec == 1 {
				return nil, nil
			}
		}
	}
}

func TestFaultyLeaderForcesRetry(t *testing.T) {
	// Lemma 8: the protocol re-iterates only when the drawn leader is
	// faulty; it must terminate once an honest leader is drawn, and the
	// coins must still be unanimous.
	n, tf, m := 7, 1, 2
	sawRetry := false
	for trial := 0; trial < 8; trial++ {
		fx := newFixture(t, n, tf, m, 12, int64(40+trial))
		ref := runUnanimous(t, fx, int64(trial)*11, map[int]simnet.PlayerFunc{4: fx.griefer(4, int64(trial)*7)})
		sawRetry = sawRetry || ref.Res.Attempts > 1
	}
	if !sawRetry {
		t.Error("griefer was never drawn as leader across 8 trials; expected at least one retry")
	}
}

// TestCrashedLeaderRetriesGeometric checks Lemma 8 (E7). With one crashed
// player a drawn leader fails with probability q = t/n, so attempts are
// geometric with mean 1/(1−q). Over seeded trials the total attempts stay
// below the count x at which P(Bin(x, 1−q) < trials) ≤ 10⁻⁶, and no run
// takes more than the cap c with trials·q^c ≤ 10⁻⁶.
func TestCrashedLeaderRetriesGeometric(t *testing.T) {
	const n, tf, trials = 7, 1, 200
	q := float64(tf) / n
	maxAttempts := int(math.Ceil(math.Log(1e-6/trials) / math.Log(q)))
	maxTotal := trials
	for lo, _ := binomialRange(maxTotal, 1-q); lo < trials; lo, _ = binomialRange(maxTotal, 1-q) {
		maxTotal++
	}
	hist := make([]int, maxAttempts+1)
	total := 0
	for trial := 0; trial < trials; trial++ {
		// The seed holds the challenge and maxAttempts leader draws, so a
		// run that needs more fails with an exhausted seed.
		fx := newFixture(t, n, tf, 1, 1+maxAttempts, int64(trial*131))
		a := runUnanimous(t, fx, int64(trial), map[int]simnet.PlayerFunc{trial % n: adversary.Crash()}).Res.Attempts
		hist[a]++
		total += a
	}
	for a := 1; a < len(hist) && hist[a] > 0; a++ {
		t.Logf("attempts %d: %d runs (%.1f%%), geometric %.1f%%",
			a, hist[a], 100*float64(hist[a])/trials, 100*math.Pow(q, float64(a-1))*(1-q))
	}
	t.Logf("mean %.3f attempts, expectation 1/(1−t/n) = %.3f, allowed ≤ %.3f",
		float64(total)/trials, 1/(1-q), float64(maxTotal)/trials)
	if total > maxTotal {
		t.Errorf("%d attempts over %d trials; more than %d happens with probability ≤ 10⁻⁶", total, trials, maxTotal)
	}
}

func TestCliquePropertiesLemma7(t *testing.T) {
	// Lemma 7 (E6): |U| ≥ n−2t, the same clique at every honest player, and
	// every coin of the batch reconstructs unanimously (property 3), with
	// up to t players crashed from the start.
	for _, tc := range []struct{ n, tf, crashed int }{{13, 2, 0}, {7, 1, 1}, {13, 2, 2}, {19, 3, 3}} {
		const m = 2
		fx := newFixture(t, tc.n, tc.tf, m, 10, int64(tc.n*10+tc.crashed))
		crashed := map[int]simnet.PlayerFunc{}
		for c := 0; c < tc.crashed; c++ {
			crashed[3*c+1] = adversary.Crash()
		}
		ref := runUnanimous(t, fx, 500, crashed)
		t.Logf("n=%d t=%d, %d crashed: clique %v (size %d, bound n−2t = %d), %d coins unanimous",
			tc.n, tc.tf, tc.crashed, ref.Res.Clique, len(ref.Res.Clique), tc.n-2*tc.tf, len(ref.Coins))
		if len(ref.Res.Clique) < tc.n-2*tc.tf {
			t.Errorf("n=%d t=%d: clique %d < n−2t = %d", tc.n, tc.tf, len(ref.Res.Clique), tc.n-2*tc.tf)
		}
		if len(ref.Coins) != m {
			t.Errorf("n=%d t=%d: opened %d coins, want %d", tc.n, tc.tf, len(ref.Coins), m)
		}
	}
}

func TestSeedExhaustionSurfaces(t *testing.T) {
	n, tf := 7, 1
	fx := newFixture(t, n, tf, 2, 1, 9) // only 1 seed coin: not enough
	fns := make([]simnet.PlayerFunc, n)
	for i := range fns {
		fns[i] = fx.honest(i, 700)
	}
	for i, r := range simnet.Run(fx.nw, fns) {
		if !errors.Is(r.Err, coin.ErrExhausted) {
			t.Fatalf("player %d: err = %v, want ErrExhausted", i, r.Err)
		}
	}
}

func TestConfigValidation(t *testing.T) {
	f := gf2k.MustNew(16)
	src := &coin.Store{}
	bad := []Config{
		{Field: f, N: 6, T: 1, M: 1, Seed: src}, // n < 6t+1
		{Field: f, N: 7, T: 1, M: 0, Seed: src}, // M < 1
		{Field: f, N: 7, T: 1, M: 1, Seed: nil}, // nil seed
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
	if err := (Config{Field: f, N: 7, T: 1, M: 1, Seed: src}).Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
}

func TestCliqueMsgRoundTrip(t *testing.T) {
	cfg := Config{Field: gf2k.MustNew(32), N: 7, T: 1, M: 1}
	// Build a fake view with decoded outputs for members {0,2,3,5,6}.
	view := &bitgen.View{Outputs: make([]bitgen.Output, 7)}
	members := []int{0, 2, 3, 5, 6}
	for _, j := range members {
		view.Outputs[j] = bitgen.Output{OK: true, F: poly.Poly{gf2k.Element(j + 1), 7}}
	}
	enc, err := encodeCliqueMsg(cfg, members, view)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := decodeCliqueMsg(cfg, enc)
	if err != nil {
		t.Fatal(err)
	}
	if len(dec.members) != len(members) {
		t.Fatalf("decoded %d members", len(dec.members))
	}
	for i, j := range members {
		if dec.members[i] != j {
			t.Fatalf("member %d: got %d want %d", i, dec.members[i], j)
		}
		if dec.polys[i][0] != gf2k.Element(j+1) || dec.polys[i][1] != 7 {
			t.Fatalf("member %d: wrong polynomial", i)
		}
	}
}

func TestCliqueMsgRejectsMalformed(t *testing.T) {
	cfg := Config{Field: gf2k.MustNew(32), N: 7, T: 1, M: 1}
	view := &bitgen.View{Outputs: make([]bitgen.Output, 7)}
	for j := 0; j < 7; j++ {
		view.Outputs[j] = bitgen.Output{OK: true, F: poly.Poly{1}}
	}
	good, err := encodeCliqueMsg(cfg, []int{0, 1, 2, 3, 4}, view)
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{
		"empty":          {},
		"truncated":      good[:len(good)-1],
		"tiny clique":    mustEncode(t, cfg, []int{0, 1}, view),
		"trailing bytes": append(append([]byte{}, good...), 0xff),
	}
	for name, b := range cases {
		if _, err := decodeCliqueMsg(cfg, b); err == nil {
			t.Errorf("%s: malformed clique message accepted", name)
		}
	}
	// Unsorted / duplicate members.
	bad := append([]byte{}, good...)
	bad[2], bad[3] = 6, 0 // first member index becomes 6 > later members
	if _, err := decodeCliqueMsg(cfg, bad); err == nil {
		t.Error("unsorted members accepted")
	}
}

func mustEncode(t *testing.T, cfg Config, members []int, view *bitgen.View) []byte {
	t.Helper()
	b, err := encodeCliqueMsg(cfg, members, view)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestGeneratedCoinsLookRandom(t *testing.T) {
	// Coins across several runs should not repeat (GF(2^32) collisions are
	// vanishingly unlikely) and bits should not be constant.
	if testing.Short() {
		t.Skip("multiple protocol runs")
	}
	n, tf, m := 7, 1, 8
	seen := make(map[gf2k.Element]bool)
	ones := 0
	for trial := 0; trial < 5; trial++ {
		fx := newFixture(t, n, tf, m, 6, int64(1000+trial))
		for _, c := range runUnanimous(t, fx, int64(trial)*37, nil).Coins {
			if seen[c] {
				t.Fatalf("coin %#x repeated across runs", c)
			}
			seen[c] = true
			ones += int(c & 1)
		}
	}
	if ones == 0 || ones == 40 {
		t.Errorf("coin low bits constant (%d/40 ones)", ones)
	}
}

func TestByzantineRotationAcrossBatches(t *testing.T) {
	// E13 (Byzantine flavour): player 2 is a wrong-degree dealer during the
	// first batch and honest during the second; player 5 is honest first
	// and a wrong-degree dealer second. Both batches must succeed with
	// unanimous coins, and the recovered player must be back inside the
	// second agreed clique.
	n, tf, m := 7, 1, 2
	fx := newFixture(t, n, tf, m, 16, 71)
	type twoRuns struct {
		Cliques [2][]int
		Coins   [2][]gf2k.Element
	}
	mk := func(i int, badPhase int) simnet.PlayerFunc {
		return func(nd *simnet.Node) (interface{}, error) {
			cfg := fx.cfg
			cfg.Seed = fx.seeds[nd.Index()]
			out := twoRuns{}
			for phase := 0; phase < 2; phase++ {
				rnd := rand.New(rand.NewSource(int64(i*100 + phase)))
				if phase == badPhase {
					if err := badDealOnce(nd, cfg, rnd); err != nil {
						return nil, err
					}
					// A bad dealer gets no batch; stay in lockstep with the
					// honest players' exposures below by decoding passively:
					// it cannot (it lacks the batch), so it just keeps pace
					// through empty rounds.
					for c := 0; c < m; c++ {
						if _, err := nd.EndRound(); err != nil {
							return nil, err
						}
					}
					continue
				}
				res, err := Run(nd, cfg, rnd)
				if err != nil {
					return nil, err
				}
				out.Cliques[phase] = res.Clique
				for res.Batch.Remaining() > 0 {
					cn, err := res.Batch.Expose(nd)
					if err != nil {
						return nil, err
					}
					out.Coins[phase] = append(out.Coins[phase], cn)
				}
			}
			return out, nil
		}
	}
	fns := make([]simnet.PlayerFunc, n)
	for i := range fns {
		switch i {
		case 2:
			fns[i] = mk(i, 0)
		case 5:
			fns[i] = mk(i, 1)
		default:
			fns[i] = mk(i, -1)
		}
	}
	results := simnet.Run(fx.nw, fns)
	ref := results[0].Value.(twoRuns)
	inClique := func(c []int, v int) bool {
		for _, x := range c {
			if x == v {
				return true
			}
		}
		return false
	}
	if inClique(ref.Cliques[0], 2) {
		t.Error("phase 1: bad dealer 2 in clique")
	}
	if !inClique(ref.Cliques[1], 2) {
		t.Error("phase 2: recovered player 2 missing from clique")
	}
	if inClique(ref.Cliques[1], 5) {
		t.Error("phase 2: bad dealer 5 in clique")
	}
	for i, r := range results {
		if i == 2 || i == 5 {
			continue
		}
		if r.Err != nil {
			t.Fatalf("player %d: %v", i, r.Err)
		}
		o := r.Value.(twoRuns)
		for phase := 0; phase < 2; phase++ {
			for h := range ref.Coins[phase] {
				if o.Coins[phase][h] != ref.Coins[phase][h] {
					t.Fatalf("player %d phase %d coin %d differs", i, phase, h)
				}
			}
		}
	}
}

// forgingLeader participates honestly through the γ exchange (so it stays
// in the clique and can be drawn as leader) but grade-casts a syntactically
// VALID clique message whose polynomials are forged. Honest players must
// evaluate condition iii against their own γ views, reject it as leader,
// and retry until an honest leader is drawn.
func (fx *fixture) forgingLeader(i int, seed int64) simnet.PlayerFunc {
	return func(nd *simnet.Node) (interface{}, error) {
		cfg := fx.cfg
		cfg.Seed = fx.seeds[nd.Index()]
		rnd := rand.New(rand.NewSource(seed + int64(i)))
		bcfg := bitgen.Config{Field: cfg.Field, N: cfg.N, T: cfg.T, M: cfg.M}
		sh, err := bitgen.DealAll(nd, bcfg, rnd)
		if err != nil {
			return nil, err
		}
		r, err := cfg.Seed.Expose(nd)
		if err != nil {
			return nil, err
		}
		view, err := bitgen.ExchangeGammas(nd, bcfg, sh, r)
		if err != nil {
			return nil, err
		}
		// Forge: well-formed clique of all n members, random polynomials.
		forged := &bitgen.View{Outputs: make([]bitgen.Output, cfg.N)}
		members := make([]int, cfg.N)
		for j := 0; j < cfg.N; j++ {
			members[j] = j
			p, err := poly.Random(cfg.Field, cfg.T, gf2k.Element(rnd.Uint32()), rnd)
			if err != nil {
				return nil, err
			}
			forged.Outputs[j] = bitgen.Output{OK: true, F: p}
		}
		payload, err := encodeCliqueMsg(cfg, members, forged)
		if err != nil {
			return nil, err
		}
		if _, err := gradecast.RunAll(nd, cfg.T, payload); err != nil {
			return nil, err
		}
		_ = view
		for {
			if _, err := cfg.Seed.Expose(nd); err != nil {
				return nil, err
			}
			dec, err := (ba.PhaseKing{T: cfg.T}).Run(nd, 1) // votes for itself
			if err != nil {
				return nil, err
			}
			if dec == 1 {
				return nil, nil
			}
		}
	}
}

func TestForgedCliqueMessageRejectedAsLeader(t *testing.T) {
	// Across trials the forger is drawn as leader at least once; whenever
	// it is, honest players must push the decision to 0 (condition iii
	// fails in every honest view) and the final coins stay unanimous.
	n, tf, m := 7, 1, 2
	sawForgerRetry := false
	for trial := 0; trial < 10; trial++ {
		fx := newFixture(t, n, tf, m, 14, int64(900+trial))
		ref := runUnanimous(t, fx, int64(trial)*23, map[int]simnet.PlayerFunc{3: fx.forgingLeader(3, int64(trial)*19)})
		sawForgerRetry = sawForgerRetry || ref.Res.Attempts > 1
	}
	if !sawForgerRetry {
		t.Error("forger never drawn as leader in 10 trials; test needs more trials")
	}
}

func TestLargeNetworkStress(t *testing.T) {
	// n=25, t=4 (n = 6t+1): the largest configuration in the E2/E8 sweeps,
	// with t crashed players and a forging grade-caster, exposing a full
	// batch. Gated because 25 players × many rounds is comparatively slow.
	if testing.Short() {
		t.Skip("stress test")
	}
	n, tf, m := 25, 4, 4
	fx := newFixture(t, n, tf, m, 16, 2027)
	ref := runUnanimous(t, fx, 111, map[int]simnet.PlayerFunc{
		3: adversary.Crash(), 11: adversary.Crash(), 19: adversary.Crash(),
		7: fx.forgingLeader(7, 99),
	})
	if len(ref.Res.Clique) < n-2*tf {
		t.Fatalf("clique %d < n−2t = %d", len(ref.Res.Clique), n-2*tf)
	}
}

// inconsistentDealer deals syntactically valid, correct-degree polynomials
// but sends DIFFERENT polynomial evaluations to different halves of the
// network (two parallel sharings). Honest players' γ announcements then
// disagree, so the dealer cannot sit in the agreed clique together with
// honest players from both halves — yet the batch must still come out
// unanimous.
func (fx *fixture) inconsistentDealer(i int, seed int64) simnet.PlayerFunc {
	return func(nd *simnet.Node) (interface{}, error) {
		cfg := fx.cfg
		cfg.Seed = fx.seeds[nd.Index()]
		f := cfg.Field
		rnd := rand.New(rand.NewSource(seed + int64(i)))
		mk := func() ([]poly.Poly, error) {
			ps := make([]poly.Poly, cfg.M+1)
			for j := range ps {
				p, err := poly.Random(f, cfg.T, gf2k.Element(rnd.Uint32()), rnd)
				if err != nil {
					return nil, err
				}
				ps[j] = p
			}
			return ps, nil
		}
		polysA, err := mk()
		if err != nil {
			return nil, err
		}
		polysB, err := mk()
		if err != nil {
			return nil, err
		}
		sh := &bitgen.Shares{
			Alpha:    make([][]gf2k.Element, cfg.N),
			Mask:     make([]gf2k.Element, cfg.N),
			Received: make([]bool, cfg.N),
			OwnPolys: polysA,
		}
		for p := 0; p < cfg.N; p++ {
			id, err := f.ElementFromID(p + 1)
			if err != nil {
				return nil, err
			}
			polys := polysA
			if p%2 == 1 {
				polys = polysB
			}
			if p == nd.Index() {
				row := make([]gf2k.Element, cfg.M)
				for h := 0; h < cfg.M; h++ {
					row[h] = poly.Eval(f, polys[h], id)
				}
				sh.Alpha[p], sh.Mask[p], sh.Received[p] = row, poly.Eval(f, polys[cfg.M], id), true
				continue
			}
			buf := make([]byte, 0, (cfg.M+1)*f.ByteLen())
			for _, pp := range polys {
				buf = f.AppendElement(buf, poly.Eval(f, pp, id))
			}
			nd.Send(p, buf)
		}
		if _, err := nd.EndRound(); err != nil {
			return nil, err
		}
		r, err := cfg.Seed.Expose(nd)
		if err != nil {
			return nil, err
		}
		bcfg := bitgen.Config{Field: f, N: cfg.N, T: cfg.T, M: cfg.M}
		if _, err := bitgen.ExchangeGammas(nd, bcfg, sh, r); err != nil {
			return nil, err
		}
		if _, err := gradecast.RunAll(nd, cfg.T, nil); err != nil {
			return nil, err
		}
		for {
			if _, err := cfg.Seed.Expose(nd); err != nil {
				return nil, err
			}
			dec, err := (ba.PhaseKing{T: cfg.T}).Run(nd, 0)
			if err != nil {
				return nil, err
			}
			if dec == 1 {
				return nil, nil
			}
		}
	}
}

func TestInconsistentSharesDealerHandled(t *testing.T) {
	n, tf, m := 7, 1, 2
	for trial := 0; trial < 4; trial++ {
		fx := newFixture(t, n, tf, m, 12, int64(3000+trial))
		ref := runUnanimous(t, fx, int64(trial)*47, map[int]simnet.PlayerFunc{4: fx.inconsistentDealer(4, int64(trial)*43)})
		if len(ref.Res.Clique) < n-2*tf {
			t.Fatalf("trial %d: clique %d < n−2t", trial, len(ref.Res.Clique))
		}
	}
}

func TestRoundAccountingExact(t *testing.T) {
	// One all-honest Coin-Gen plus M exposures consumes exactly
	// 1 (deal) + 1 (challenge expose) + 1 (γ) + 3 (grade-cast)
	// + attempts·(1 leader expose + 2(t+1) BA) + M (exposures) rounds.
	n, tf, m := 7, 1, 3
	fx := newFixture(t, n, tf, m, 6, 77)
	fns := make([]simnet.PlayerFunc, n)
	for i := range fns {
		fns[i] = func(nd *simnet.Node) (interface{}, error) {
			cfg := fx.cfg
			cfg.Seed = fx.seeds[nd.Index()]
			rnd := rand.New(rand.NewSource(int64(i)))
			res, err := Run(nd, cfg, rnd)
			if err != nil {
				return nil, err
			}
			for res.Batch.Remaining() > 0 {
				if _, err := res.Batch.Expose(nd); err != nil {
					return nil, err
				}
			}
			want := 6 + res.Attempts*(1+2*(cfg.T+1)) + m
			if nd.Round() != want {
				return nil, fmt.Errorf("consumed %d rounds, want %d (attempts=%d)", nd.Round(), want, res.Attempts)
			}
			return nil, nil
		}
	}
	for i, r := range simnet.Run(fx.nw, fns) {
		if r.Err != nil {
			t.Fatalf("player %d: %v", i, r.Err)
		}
	}
}

// TestPerCoinCostCorollary3 checks Theorem 2 and Corollary 3 (E8). An
// all-honest Coin-Gen that deals and exposes M coins costs exactly
// a + b·M bytes and a′ + n(n−1)·M messages: each extra coin adds one dealt
// element and one exposed share per ordered pair of players,
// b = 2n(n−1)·⌈k/8⌉, but only the exposure adds messages. The γ exchange,
// Grade-Cast and BA are the fixed a and a′. The per-coin cost b + a/M is
// Corollary 3's n + O(n⁴/M).
func TestPerCoinCostCorollary3(t *testing.T) {
	const n, tf = 7, 1
	var a, a2 int64 = -1, -1
	for _, m := range []int{4, 16, 64, 256} {
		var ctr metrics.Counters
		fx := newFixture(t, n, tf, m, 8, int64(m), simnet.WithCounters(&ctr))
		runUnanimous(t, fx, int64(m), nil)
		s := ctr.Snapshot()
		b, b2 := int64(2*n*(n-1)*fx.f.ByteLen()), int64(n*(n-1))
		fixed, fixed2 := s.Bytes-b*int64(m), s.Messages-b2*int64(m)
		t.Logf("M=%d: %d bytes = %d + %d·M, %d messages = %d + %d·M, %.1f bytes/coin",
			m, s.Bytes, fixed, b, s.Messages, fixed2, b2, float64(s.Bytes)/float64(m))
		if a < 0 {
			a, a2 = fixed, fixed2
		} else if fixed != a || fixed2 != a2 {
			t.Errorf("M=%d: bytes − b·M = %d and messages − n(n−1)·M = %d, want %d and %d as at M=4",
				m, fixed, fixed2, a, a2)
		}
	}
}

// TestGradeCastBytesInN pins Grade-Cast's share of Corollary 3's fixed cost
// (E8) as a function of n, by summing the bytes sent in the rounds of
// player 0's gradecast span. With every player honest each clique C is all
// n players, so each grade-cast value is L = 2 + |C|·(2 + (t+1)·⌈k/8⌉)
// bytes: round 1 sends it to n−1 players, and rounds 2 and 3 each send every
// instance's value with a 6-byte header to n−1 players, n(n−1)·[L + 2n(L+6)]
// in all. The t+1 factor in L makes this Θ(n⁴·t), not Corollary 3's O(n⁴).
func TestGradeCastBytesInN(t *testing.T) {
	const m = 4
	for _, c := range []struct{ n, t int }{{7, 1}, {13, 2}, {19, 3}} {
		var ctr metrics.Counters
		ring := obs.NewRing(1 << 20)
		fx := newFixture(t, c.n, c.t, m, 10, int64(c.n),
			simnet.WithCounters(&ctr), simnet.WithTracer(obs.New(&ctr, ring)))
		runUnanimous(t, fx, int64(c.n), nil)
		events := ring.Events()
		var span *obs.PhaseCost
		for _, r := range obs.PhaseSummary(events, 0) {
			if r.Name == "gradecast" {
				span = &r
			}
		}
		if span == nil || span.Rounds() != 3 {
			t.Fatalf("n=%d: no 3-round gradecast span for player 0: %+v", c.n, span)
		}
		var got int64
		for _, e := range events {
			if e.Type == obs.EvSend && e.Round >= span.BeginRound && e.Round < span.EndRound {
				got += e.Bytes
			}
		}
		L := 2 + c.n*(2+(c.t+1)*fx.f.ByteLen())
		want := int64(c.n * (c.n - 1) * (L + 2*c.n*(L+6)))
		fixed := ctr.Snapshot().Bytes - int64(2*c.n*(c.n-1)*fx.f.ByteLen()*m)
		t.Logf("n=%d t=%d: L=%d, Grade-Cast %d bytes of the fixed a = %d (%.1f %%), a/n⁴ = %.1f",
			c.n, c.t, L, got, fixed, 100*float64(got)/float64(fixed), float64(fixed)/math.Pow(float64(c.n), 4))
		if got != want {
			t.Errorf("n=%d t=%d: Grade-Cast sent %d bytes, want n(n−1)·[L + 2n(L+6)] = %d", c.n, c.t, got, want)
		}
	}
}

// TestPhaseRoundBudget checks Theorem 2's round budget phase by phase (E15)
// on one traced Coin-Gen. Player 0's leaf spans take 1 round to deal, 1 for
// γ, 3 for Grade-Cast, 2(t+1) BA rounds per attempt, and 1 per exposed
// coin: the challenge, each leader draw and the M batch coins. The counters
// are shared, so each span carries its phase's cost across all players.
// The trace survives a JSONL round trip.
func TestPhaseRoundBudget(t *testing.T) {
	const n, tf, m = 7, 1, 16
	var ctr metrics.Counters
	ring := obs.NewRing(0)
	var buf bytes.Buffer
	jsonl := obs.NewJSONL(&buf)
	fx := newFixture(t, n, tf, m, 10, 151,
		simnet.WithCounters(&ctr), simnet.WithTracer(obs.New(&ctr, ring, jsonl)))
	attempts := runUnanimous(t, fx, 151, nil).Res.Attempts

	events := ring.Events()
	rows := obs.PhaseSummary(events, 0)
	parents := map[uint64]bool{}
	for _, r := range rows {
		parents[r.Parent] = true
	}
	rounds := map[string]int{}
	cost := map[string]metrics.Snapshot{}
	for _, r := range rows {
		if !parents[r.Span] {
			rounds[r.Name] += r.Rounds()
			cost[r.Name] = cost[r.Name].Add(r.Cost)
		}
	}
	names := make([]string, 0, len(rounds))
	for name := range rounds {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		c := cost[name]
		t.Logf("%-15s rounds %3d, messages %4d, bytes %6d", name, rounds[name], c.Messages, c.Bytes)
	}
	want := map[string]int{
		"bitgen/deal":    1,
		"bitgen/gamma":   1,
		"gradecast":      3,
		"coingen/clique": 0,
		"ba/phase-king":  attempts * 2 * (tf + 1),
		"coin-expose":    1 + attempts + m,
	}
	if !reflect.DeepEqual(rounds, want) {
		t.Errorf("leaf-span rounds = %v, want %v (attempts = %d)", rounds, want, attempts)
	}

	if err := jsonl.Flush(); err != nil {
		t.Fatal(err)
	}
	parsed, err := obs.ParseJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(parsed, events) {
		t.Errorf("JSONL round trip: %d events exported, %d parsed back, not identical", len(events), len(parsed))
	}
}

// TestFieldOpCountsGolden pins the paper's units: a seeded all-honest n = 7,
// M = 64 Coin-Gen costs exactly these field operations and interpolations.
// The numbers were recorded with the bit-serial multiplier, before
// fixed-operand tables and lazily-reduced dot products existed, so any
// arithmetic shortcut that skips or double-counts a product fails here. The
// first run only warms the process-wide domain cache (concurrent first use
// may build a domain more than once, which is counted); the second, measured
// run finds every domain cached.
func TestFieldOpCountsGolden(t *testing.T) {
	const n, tf, m = 7, 1, 64
	var ctr metrics.Counters
	f := gf2k.MustNew(32).WithCounters(&ctr)
	seeds, _, err := coin.DealTrusted(f, n, tf, 8, rand.New(rand.NewSource(2024)))
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range seeds {
		b.Counters = &ctr
	}
	run := func(seed int64) {
		t.Helper()
		fns := make([]simnet.PlayerFunc, n)
		for i := range fns {
			fns[i] = func(nd *simnet.Node) (interface{}, error) {
				cfg := Config{Field: f, N: n, T: tf, M: m, Seed: seeds[nd.Index()], Counters: &ctr}
				return Run(nd, cfg, rand.New(rand.NewSource(seed+int64(i))))
			}
		}
		for i, r := range simnet.Run(simnet.New(n), fns) {
			if r.Err != nil {
				t.Fatalf("player %d: %v", i, r.Err)
			}
		}
	}
	run(1000)
	before := ctr.Snapshot()
	run(2000)
	d := metrics.Diff(before, ctr.Snapshot())
	got := [4]int64{d.FieldMuls, d.FieldAdds, d.FieldInvs, d.Interpolations}
	want := [4]int64{15190, 18424, 0, 63}
	if got != want {
		t.Errorf("muls/adds/invs/interpolations = %v, want %v", got, want)
	}
	if d.DomainMisses != 0 {
		t.Errorf("measured run missed the domain cache %d times", d.DomainMisses)
	}
}
