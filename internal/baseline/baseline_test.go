package baseline

import (
	"errors"
	"math/big"
	"math/rand"
	"testing"
	"time"

	"repro/internal/coin"
	"repro/internal/core"
	"repro/internal/gf2k"
	"repro/internal/metrics"
	"repro/internal/poly"
	"repro/internal/simnet"
	"repro/internal/vss"
)

func TestCCDVSSHonestDealerAccepted(t *testing.T) {
	f := gf2k.MustNew(32)
	for _, tc := range []struct{ n, tf, kappa int }{{4, 1, 8}, {7, 2, 16}} {
		cfg := CCDConfig{Field: f, N: tc.n, T: tc.tf, Kappa: tc.kappa}
		nw := simnet.New(tc.n)
		fns := make([]simnet.PlayerFunc, tc.n)
		for i := range fns {
			fns[i] = func(nd *simnet.Node) (interface{}, error) {
				rnd := rand.New(rand.NewSource(int64(i + 1)))
				var secret gf2k.Element = 0x1234
				ok, share, err := CCDVSS(nd, cfg, 0, secret, rnd)
				if err != nil {
					return nil, err
				}
				return struct {
					OK    bool
					Share gf2k.Element
				}{ok, share}, nil
			}
		}
		results := simnet.Run(nw, fns)
		for i, r := range results {
			if r.Err != nil {
				t.Fatalf("n=%d player %d: %v", tc.n, i, r.Err)
			}
			o := r.Value.(struct {
				OK    bool
				Share gf2k.Element
			})
			if !o.OK {
				t.Fatalf("n=%d player %d rejected honest dealer", tc.n, i)
			}
		}
		// Shares reconstruct the secret.
		ids := make([]int, tc.tf+1)
		shares := make([]gf2k.Element, tc.tf+1)
		for i := range ids {
			ids[i] = i + 1
			shares[i] = results[i].Value.(struct {
				OK    bool
				Share gf2k.Element
			}).Share
		}
		xs := make([]gf2k.Element, len(ids))
		for i, id := range ids {
			xs[i] = gf2k.Element(id)
		}
		got, err := poly.InterpolateAt0(f, xs, shares, nil)
		if err != nil || got != 0x1234 {
			t.Fatalf("reconstructed %#x err=%v, want 0x1234", got, err)
		}
	}
}

func TestCCDVSSCheatingDealerRejectedMostly(t *testing.T) {
	// A dealer sharing a degree-(t+1) f must be caught except with
	// probability ~2^−κ. With κ=16 rejection is essentially certain.
	f := gf2k.MustNew(32)
	n, tf, kappa := 4, 1, 16
	cfg := CCDConfig{Field: f, N: n, T: tf, Kappa: kappa}
	for trial := 0; trial < 3; trial++ {
		nw := simnet.New(n)
		fns := make([]simnet.PlayerFunc, n)
		fns[0] = func(nd *simnet.Node) (interface{}, error) {
			rnd := rand.New(rand.NewSource(int64(trial) * 7))
			ff := cfg.Field
			// Bad f (degree t+1), honest masks.
			polys := make([]poly.Poly, kappa+1)
			var err error
			polys[0], err = poly.Random(ff, tf+1, 9, rnd)
			if err != nil {
				return nil, err
			}
			if polys[0][tf+1] == 0 {
				polys[0][tf+1] = 1
			}
			for j := 1; j <= kappa; j++ {
				polys[j], err = poly.Random(ff, tf, gf2k.Element(rnd.Uint32()), rnd)
				if err != nil {
					return nil, err
				}
			}
			for i := 1; i < n; i++ {
				id, _ := ff.ElementFromID(i + 1)
				buf := make([]byte, 0, (kappa+1)*ff.ByteLen())
				for _, p := range polys {
					buf = ff.AppendElement(buf, poly.Eval(ff, p, id))
				}
				nd.Send(i, buf)
			}
			if _, err := nd.EndRound(); err != nil {
				return nil, err
			}
			ownID, _ := ff.ElementFromID(1)
			own := make([]gf2k.Element, kappa+1)
			for j := range polys {
				own[j] = poly.Eval(ff, polys[j], ownID)
			}
			ok, _, err := ccdVerify(nd, cfg, own, rnd)
			return struct {
				OK    bool
				Share gf2k.Element
			}{ok, 0}, err
		}
		for i := 1; i < n; i++ {
			fns[i] = func(nd *simnet.Node) (interface{}, error) {
				rnd := rand.New(rand.NewSource(int64(trial*100 + i)))
				ok, share, err := CCDVSS(nd, cfg, 0, 0, rnd)
				if err != nil {
					return nil, err
				}
				return struct {
					OK    bool
					Share gf2k.Element
				}{ok, share}, nil
			}
		}
		results := simnet.Run(nw, fns)
		for i := 1; i < n; i++ {
			if results[i].Err != nil {
				t.Fatalf("player %d: %v", i, results[i].Err)
			}
			o := results[i].Value.(struct {
				OK    bool
				Share gf2k.Element
			})
			if o.OK {
				t.Fatalf("trial %d: player %d accepted a degree-%d dealing", trial, i, tf+1)
			}
		}
	}
}

func TestFeldmanVSSHonest(t *testing.T) {
	grp, err := NewFeldmanGroup()
	if err != nil {
		t.Fatal(err)
	}
	cfg := FeldmanConfig{Group: grp, N: 4, T: 1}
	nw := simnet.New(4)
	fns := make([]simnet.PlayerFunc, 4)
	for i := range fns {
		fns[i] = func(nd *simnet.Node) (interface{}, error) {
			rnd := rand.New(rand.NewSource(int64(i + 10)))
			ok, share, err := FeldmanVSS(nd, cfg, 0, big.NewInt(424242), rnd)
			if err != nil {
				return nil, err
			}
			if share == nil {
				return nil, nil
			}
			return ok, nil
		}
	}
	for i, r := range simnet.Run(nw, fns) {
		if r.Err != nil {
			t.Fatalf("player %d: %v", i, r.Err)
		}
		if r.Value != true {
			t.Fatalf("player %d rejected honest Feldman dealer", i)
		}
	}
}

func TestFeldmanVSSWrongShareDetected(t *testing.T) {
	// Dealer sends player 2 a corrupted share: player 2 must complain, but
	// with only one complaint the sharing is still accepted (≤ t).
	grp, err := NewFeldmanGroup()
	if err != nil {
		t.Fatal(err)
	}
	cfg := FeldmanConfig{Group: grp, N: 4, T: 1}
	nw := simnet.New(4)
	fns := make([]simnet.PlayerFunc, 4)
	fns[0] = func(nd *simnet.Node) (interface{}, error) {
		rnd := rand.New(rand.NewSource(3))
		// Honest commitments/shares, then corrupt player 2's share.
		coeffs := []*big.Int{big.NewInt(5), big.NewInt(7)}
		var commitBuf []byte
		for _, c := range coeffs {
			commitBuf = appendBig(commitBuf, new(big.Int).Exp(grp.G, c, grp.P))
		}
		nd.Broadcast(commitBuf)
		for i := 1; i < 4; i++ {
			share := evalPoly(coeffs, int64(i+1), grp.Q)
			if i == 2 {
				share = new(big.Int).Add(share, big.NewInt(1))
			}
			nd.Send(i, appendBig(nil, share))
		}
		if _, err := nd.EndRound(); err != nil {
			return nil, err
		}
		nd.Broadcast([]byte{0})
		if _, err := nd.EndRound(); err != nil {
			return nil, err
		}
		_ = rnd
		return true, nil
	}
	verdicts := make([]bool, 4)
	for i := 1; i < 4; i++ {
		fns[i] = func(nd *simnet.Node) (interface{}, error) {
			ok, _, err := FeldmanVSS(nd, cfg, 0, nil, nil)
			verdicts[i] = ok
			return ok, err
		}
	}
	for i, r := range simnet.Run(nw, fns) {
		if r.Err != nil {
			t.Fatalf("player %d: %v", i, r.Err)
		}
	}
	// One complaint ≤ t: accepted overall (the complaining player's share
	// would be publicly resolved in a full protocol).
	for i := 1; i < 4; i++ {
		if !verdicts[i] {
			t.Fatalf("player %d rejected with a single complaint", i)
		}
	}
}

func TestFromScratchCoinUnanimous(t *testing.T) {
	f := gf2k.MustNew(32)
	for _, tc := range []struct{ n, tf int }{{4, 1}, {7, 2}} {
		cfg := FromScratchConfig{Field: f, N: tc.n, T: tc.tf, Kappa: 8}
		nw := simnet.New(tc.n)
		fns := make([]simnet.PlayerFunc, tc.n)
		for i := range fns {
			fns[i] = func(nd *simnet.Node) (interface{}, error) {
				rnd := rand.New(rand.NewSource(int64(i*31 + tc.n)))
				return FromScratchCoin(nd, cfg, rnd)
			}
		}
		results := simnet.Run(nw, fns)
		ref := results[0].Value.(gf2k.Element)
		for i, r := range results {
			if r.Err != nil {
				t.Fatalf("n=%d player %d: %v", tc.n, i, r.Err)
			}
			if r.Value.(gf2k.Element) != ref {
				t.Fatalf("n=%d: coin differs at player %d", tc.n, i)
			}
		}
	}
}

func TestFromScratchCoinWithCrashedPlayer(t *testing.T) {
	f := gf2k.MustNew(32)
	n, tf := 7, 2
	cfg := FromScratchConfig{Field: f, N: n, T: tf, Kappa: 8}
	nw := simnet.New(n)
	fns := make([]simnet.PlayerFunc, n)
	fns[3] = func(nd *simnet.Node) (interface{}, error) { return gf2k.Element(0), nil }
	for i := range fns {
		if i == 3 {
			continue
		}
		fns[i] = func(nd *simnet.Node) (interface{}, error) {
			rnd := rand.New(rand.NewSource(int64(i * 17)))
			return FromScratchCoin(nd, cfg, rnd)
		}
	}
	results := simnet.Run(nw, fns)
	var ref *gf2k.Element
	for i, r := range results {
		if i == 3 {
			continue
		}
		if r.Err != nil {
			t.Fatalf("player %d: %v", i, r.Err)
		}
		v := r.Value.(gf2k.Element)
		if ref == nil {
			ref = &v
			continue
		}
		if v != *ref {
			t.Fatalf("player %d: coin differs", i)
		}
	}
}

func TestFromScratchCoinsDiffer(t *testing.T) {
	// Different runs give different coins (randomness sanity).
	f := gf2k.MustNew(32)
	cfg := FromScratchConfig{Field: f, N: 4, T: 1, Kappa: 4}
	seen := make(map[gf2k.Element]bool)
	for trial := 0; trial < 4; trial++ {
		nw := simnet.New(4)
		fns := make([]simnet.PlayerFunc, 4)
		for i := range fns {
			fns[i] = func(nd *simnet.Node) (interface{}, error) {
				rnd := rand.New(rand.NewSource(int64(trial*1000 + i)))
				return FromScratchCoin(nd, cfg, rnd)
			}
		}
		results := simnet.Run(nw, fns)
		c := results[0].Value.(gf2k.Element)
		if seen[c] {
			t.Fatalf("coin repeated across independent runs")
		}
		seen[c] = true
	}
}

func TestConfigValidation(t *testing.T) {
	f := gf2k.MustNew(16)
	if err := (CCDConfig{Field: f, N: 3, T: 1, Kappa: 4}).Validate(); err == nil {
		t.Error("CCD n<3t+1 accepted")
	}
	if err := (CCDConfig{Field: f, N: 4, T: 1, Kappa: 0}).Validate(); err == nil {
		t.Error("CCD kappa=0 accepted")
	}
	nw := simnet.New(3)
	fns := make([]simnet.PlayerFunc, 3)
	for i := range fns {
		fns[i] = func(nd *simnet.Node) (interface{}, error) {
			if _, err := FromScratchCoin(nd, FromScratchConfig{Field: f, N: 3, T: 1, Kappa: 1}, rand.New(rand.NewSource(1))); err == nil {
				return nil, nil
			}
			return "rejected", nil
		}
	}
	for i, r := range simnet.Run(nw, fns) {
		if r.Value != "rejected" {
			t.Fatalf("player %d: undersized network accepted", i)
		}
	}
}

func TestLiteratureCoinCosts(t *testing.T) {
	costs := LiteratureCoinCosts(16, 64, 256)
	if len(costs) != 4 {
		t.Fatalf("got %d rows", len(costs))
	}
	byName := map[string]CoinCost{}
	for _, c := range costs {
		if c.Ops <= 0 || c.Msgs <= 0 || c.Name == "" {
			t.Fatalf("degenerate row %+v", c)
		}
		byName[c.Name] = c
	}
	ours := byName["D-PRBG (this paper)"]
	fm := byName["Feldman-Micali [14]"]
	if ours.Ops >= fm.Ops || ours.Msgs >= fm.Msgs {
		t.Errorf("model does not reproduce the paper's ordering: ours %+v vs FM %+v", ours, fm)
	}
	// As M grows, our per-coin messages approach n.
	big := LiteratureCoinCosts(16, 64, 1<<20)
	for _, c := range big {
		if c.Name == "D-PRBG (this paper)" && c.Msgs > 17 {
			t.Errorf("per-coin messages should approach n for huge M, got %.1f", c.Msgs)
		}
	}
}

// countedRun runs play at every player of an n-player network that counts
// into ctr, and returns the counter diff and the wall time.
func countedRun(t *testing.T, n int, ctr *metrics.Counters, play func(nd *simnet.Node) error) (metrics.Snapshot, time.Duration) {
	t.Helper()
	fns := make([]simnet.PlayerFunc, n)
	for i := range fns {
		fns[i] = func(nd *simnet.Node) (interface{}, error) { return nil, play(nd) }
	}
	before, start := ctr.Snapshot(), time.Now()
	for i, r := range simnet.Run(simnet.New(n, simnet.WithCounters(ctr)), fns) {
		if r.Err != nil {
			t.Fatalf("player %d: %v", i, r.Err)
		}
	}
	return metrics.Diff(before, ctr.Snapshot()), time.Since(start)
}

// TestDPRBGBeatsFromScratch checks §1.4's headline (E10): at n = 7, t = 1,
// 64 coins drawn from the bootstrapped D-PRBG, refills included, cost at
// least 2× less per coin than 64 coins generated from scratch, on bytes,
// messages, rounds, interpolations and field multiplications. The
// from-scratch coins run at κ = 16, weaker than the D-PRBG's 2^-32.
func TestDPRBGBeatsFromScratch(t *testing.T) {
	const n, tf, coins = 7, 1, 64
	f := gf2k.MustNew(32)
	var dctr, sctr metrics.Counters
	cfg := core.Config{Field: f.WithCounters(&dctr), N: n, T: tf, BatchSize: 32, Counters: &dctr}
	gens, err := core.SetupTrusted(cfg, 8, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	d, dTime := countedRun(t, n, &dctr, func(nd *simnet.Node) error {
		rnd := rand.New(rand.NewSource(int64(nd.Index()) + 10))
		for c := 0; c < coins; c++ {
			if _, err := gens[nd.Index()].Next(nd, rnd); err != nil {
				return err
			}
		}
		return nil
	})
	scfg := FromScratchConfig{Field: f.WithCounters(&sctr), N: n, T: tf, Kappa: 16, Counters: &sctr}
	s, sTime := countedRun(t, n, &sctr, func(nd *simnet.Node) error {
		rnd := rand.New(rand.NewSource(int64(nd.Index()) + 99))
		for c := 0; c < coins; c++ {
			if _, err := FromScratchCoin(nd, scfg, rnd); err != nil {
				return err
			}
		}
		return nil
	})
	for _, ax := range []struct {
		name           string
		dprbg, scratch int64
	}{
		{"bytes", d.Bytes, s.Bytes},
		{"messages", d.Messages, s.Messages},
		{"rounds", d.Rounds, s.Rounds},
		{"interpolations", d.Interpolations, s.Interpolations},
		{"field mults", d.FieldMuls, s.FieldMuls},
	} {
		t.Logf("%-14s per coin: D-PRBG %8.1f, from scratch %9.1f, ratio %5.1f×",
			ax.name, float64(ax.dprbg)/coins, float64(ax.scratch)/coins, float64(ax.scratch)/float64(ax.dprbg))
		if 2*ax.dprbg > ax.scratch {
			t.Errorf("%s: D-PRBG %d vs from scratch %d over %d coins, want a ≥ 2× saving", ax.name, ax.dprbg, ax.scratch, coins)
		}
	}
	t.Logf("wall clock per coin: D-PRBG %v, from scratch %v", dTime/coins, sTime/coins)
}

// TestVSSComparison checks §3.1 (E11) on one secret at n = 7, t = 2. The
// coin-challenged VSS interpolates once per player; CCD's cut-and-choose
// at the same 2^-k soundness interpolates κ = k times and Feldman's VSS
// not at all, paying with exponentiations and the discrete-log
// assumption. The coin-challenged VSS sends fewer bytes than either.
func TestVSSComparison(t *testing.T) {
	const n, tf, k = 7, 2, 32
	f := gf2k.MustNew(k)
	batches, _, err := coin.DealTrusted(f, n, tf, 1, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	honest := func(ok bool, err error) error {
		if err == nil && !ok {
			err = errors.New("honest dealer rejected")
		}
		return err
	}

	var octr, cctr, fctr metrics.Counters
	ours, oTime := countedRun(t, n, &octr, func(nd *simnet.Node) error {
		cfg := vss.Config{Field: f.WithCounters(&octr), N: n, T: tf, Coins: batches[nd.Index()], Counters: &octr}
		var secrets []gf2k.Element
		if nd.Index() == 0 {
			secrets = []gf2k.Element{0x42}
		}
		inst, err := vss.Deal(nd, cfg, 0, secrets, rand.New(rand.NewSource(int64(nd.Index()))))
		if err != nil {
			return err
		}
		return honest(inst.Verify(nd))
	})
	ccfg := CCDConfig{Field: f.WithCounters(&cctr), N: n, T: tf, Kappa: k, Counters: &cctr}
	ccd, cTime := countedRun(t, n, &cctr, func(nd *simnet.Node) error {
		ok, _, err := CCDVSS(nd, ccfg, 0, 0x42, rand.New(rand.NewSource(int64(nd.Index()))))
		return honest(ok, err)
	})
	grp, err := NewFeldmanGroup()
	if err != nil {
		t.Fatal(err)
	}
	fcfg := FeldmanConfig{Group: grp, N: n, T: tf, Counters: &fctr}
	feldman, fTime := countedRun(t, n, &fctr, func(nd *simnet.Node) error {
		ok, _, err := FeldmanVSS(nd, fcfg, 0, big.NewInt(777), rand.New(rand.NewSource(int64(nd.Index()))))
		return honest(ok, err)
	})
	for _, row := range []struct {
		name   string
		c      metrics.Snapshot
		interp int64
		wall   time.Duration
	}{
		{"this paper", ours, 1, oTime},
		{"CCD [9]", ccd, k, cTime},
		{"Feldman [12]", feldman, 0, fTime},
	} {
		t.Logf("%-12s %5d bytes, %2d interpolations per player, %v", row.name, row.c.Bytes, row.c.Interpolations/n, row.wall)
		if row.c.Interpolations != row.interp*n {
			t.Errorf("%s: %d interpolations, want %d per player", row.name, row.c.Interpolations, row.interp)
		}
	}
	if ours.Bytes >= ccd.Bytes || ours.Bytes >= feldman.Bytes {
		t.Errorf("bytes: ours %d, CCD %d, Feldman %d; want ours below both", ours.Bytes, ccd.Bytes, feldman.Bytes)
	}
}
