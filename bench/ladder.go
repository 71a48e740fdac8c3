package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"time"

	"repro/internal/ba"
	"repro/internal/beacon"
	"repro/internal/bitgen"
	"repro/internal/bw"
	"repro/internal/clique"
	"repro/internal/coin"
	"repro/internal/coingen"
	"repro/internal/core"
	"repro/internal/gf2k"
	"repro/internal/gradecast"
	"repro/internal/metrics"
	"repro/internal/multicell"
	"repro/internal/parallel"
	"repro/internal/poly"
	"repro/internal/reshare"
	"repro/internal/simnet"
	"repro/internal/vss"
)

// The ladders time each layer's public entry point from outside, at one
// closed-loop caller, in the workloads' exact shapes: the draw ladder in the
// serving shape (HTTP GET → multicell.Cluster.Draw → beacon.Service.Draw →
// Generator.Expose on 7 nodes → bare simnet round + InterpolateAt0), the
// mint ladder in the mint shape (coingen.Run → the vss/bitgen/gradecast/
// ba/clique/bw entry points). A layer's self time is its rung's p50 minus
// the rung below. Every rung is measured untraced; spans around the calls
// go to the traced run's recorder.

// ladder accumulates rung results.
type ladder struct {
	e      *env
	ctx    context.Context
	per    time.Duration // time budget of one rung
	out    map[string]float64
	counts map[string]int // samples behind each timing
	op     uint64
}

const ladderMinIters = 3

// put stores a rung's p50 in the given unit (scale converts from µs).
func (l *ladder) put(name string, samplesUS []float64, scale float64) float64 {
	p50 := percentile(sortedCopy(samplesUS), 50) * scale
	l.out[name] = p50
	l.counts[name] = len(samplesUS)
	return p50
}

// timeCalls times fn in a closed loop for the rung budget, one sample per
// call, recording a span per call.
func (l *ladder) timeCalls(span string, fn func() error) ([]float64, error) {
	rec := l.e.tr.rec()
	var samples []float64
	deadline := time.Now().Add(l.per)
	for i := 0; i < ladderMinIters || time.Now().Before(deadline); i++ {
		if err := l.ctx.Err(); err != nil {
			return nil, err
		}
		t0 := time.Now()
		err := fn()
		t1 := time.Now()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", span, err)
		}
		samples = append(samples, float64(t1.Sub(t0).Nanoseconds())/1e3)
		l.op++
		rec.record(span, l.op, 0, t0, t1)
	}
	return samples, nil
}

// timeBatched times a nanosecond-scale pure function: each sample is the
// mean of `batch` back-to-back calls, so the clock reads do not dominate.
// Samples are in µs per call.
func (l *ladder) timeBatched(span string, batch int, fn func()) []float64 {
	samples, _ := l.timeCalls(span, func() error { //nolint:errcheck // fn cannot fail
		for i := 0; i < batch; i++ {
			fn()
		}
		return nil
	})
	for i := range samples {
		samples[i] /= float64(batch)
	}
	return samples
}

// timeLockstep runs body in lockstep on the nodes for the rung budget and
// returns player 0's time per iteration in µs.
func (l *ladder) timeLockstep(span string, nodes []*simnet.Node, maxIters int64,
	body func(nd *simnet.Node, iter int64) (interface{}, error)) ([]float64, error) {
	rec := l.e.tr.rec()
	var samples []float64
	prev := time.Now()
	_, _, err := lockstepLoop(nodes, prev.Add(l.per), ladderMinIters, maxIters, body,
		func(_ int64, done time.Time) {
			samples = append(samples, float64(done.Sub(prev).Nanoseconds())/1e3)
			l.op++
			rec.record(span, l.op, 0, prev, done)
			prev = done
		})
	if err != nil {
		return nil, fmt.Errorf("%s: %w", span, err)
	}
	return samples, nil
}

func memNodes(n int) []*simnet.Node {
	return nodesOf(simnet.New(n, simnet.WithMaxRounds(unlimitedRounds)))
}

// runLadders measures every ladder-class per-layer metric within roughly
// `budget`, split evenly over the rungs. The parallel trial has the machine's
// processors, since it is what they add that it measures; every other rung
// runs as the workloads do, on one processor that never halts, so that the
// rungs of a ladder add up to the workload's own latency.
func runLadders(ctx context.Context, e *env, budget time.Duration) (out map[string]float64, counts map[string]int, err error) {
	const rungs = 26
	l := &ladder{e: e, ctx: ctx, per: budget / rungs, out: make(map[string]float64), counts: make(map[string]int)}
	if err := l.parallelTrial(); err != nil {
		return nil, nil, err
	}
	restore, err := onOneProcessor()
	if err != nil {
		return nil, nil, err
	}
	defer func() {
		if rerr := restore(); rerr != nil && err == nil {
			out, counts, err = nil, nil, rerr
		}
	}()
	for _, step := range []func() error{
		l.fieldAndPoly, l.decode, l.rounds, l.drawLadder, l.stores,
		l.mintLadder, l.reshareRefresh, l.meshRungs,
	} {
		if err := ctx.Err(); err != nil {
			return nil, nil, err
		}
		if err := step(); err != nil {
			return nil, nil, err
		}
	}
	return l.out, l.counts, nil
}

func ids(f gf2k.Field, n int) []gf2k.Element {
	xs := make([]gf2k.Element, n)
	for i := range xs {
		xs[i], _ = f.ElementFromID(i + 1) //nolint:errcheck // small positive ids always fit
	}
	return xs
}

// fieldAndPoly: gf2k.mul_ns, gf2k.inv_ns, poly.interp0_ns (7 points, the
// draw ladder's base rung), poly.interp0_n13_ns, multicell.ring_lookup_ns.
func (l *ladder) fieldAndPoly() error {
	f := gf2k.MustNew(fieldK)
	rng := rand.New(rand.NewSource(derive(l.e.seed, "ladder/field")))
	x, _ := f.Rand(rng) //nolint:errcheck // math/rand never fails
	y, _ := f.Rand(rng) //nolint:errcheck // math/rand never fails
	x |= 1
	l.put("gf2k.mul_ns", l.timeBatched("gf2k.Field.Mul", 4096, func() { x = f.Mul(x, y) | 1 }), 1e3)
	l.put("gf2k.inv_ns", l.timeBatched("gf2k.Field.Inv", 1024, func() { x = f.Inv(x) ^ y | 1 }), 1e3)

	for _, tc := range []struct {
		n    int
		name string
	}{{serveN, "poly.interp0_ns"}, {mintN, "poly.interp0_n13_ns"}} {
		dom, err := poly.IDDomain(f, tc.n, nil)
		if err != nil {
			return err
		}
		p, err := poly.Random(f, tc.n-1, x, rng)
		if err != nil {
			return err
		}
		ys := poly.EvalMany(f, p, ids(f, tc.n))
		var sink gf2k.Element
		l.put(tc.name, l.timeBatched("poly.Domain.InterpolateAt0", 1024, func() {
			v, _ := dom.InterpolateAt0(ys, nil) //nolint:errcheck // length matches the domain
			sink ^= v
		}), 1e3)
	}

	cells := make([]int, gwCells)
	for i := range cells {
		cells[i] = i
	}
	ring := multicell.NewRing(cells, 0)
	var sink int
	l.put("multicell.ring_lookup_ns", l.timeBatched("multicell.Ring.Successors", 1024, func() {
		sink += ring.Successors("tenant-17")[0]
	}), 1e3)
	return nil
}

// decode: bw.decode_clean_us and bw.decode_terr_us at n=13, degree t=2.
func (l *ladder) decode() error {
	f := gf2k.MustNew(fieldK)
	rng := rand.New(rand.NewSource(derive(l.e.seed, "ladder/bw")))
	xs := ids(f, mintN)
	p, err := poly.Random(f, mintT, 0x1234, rng)
	if err != nil {
		return err
	}
	clean := poly.EvalMany(f, p, xs)
	dirty := append([]gf2k.Element(nil), clean...)
	for i := 0; i < mintT; i++ {
		dirty[2*i+1] ^= 0x5a5a // t wrong shares
	}
	for _, tc := range []struct {
		name string
		ys   []gf2k.Element
	}{{"bw.decode_clean_us", clean}, {"bw.decode_terr_us", dirty}} {
		samples, err := l.timeCalls("bw.Decode", func() error {
			for i := 0; i < 64; i++ {
				if _, err := bw.Decode(f, xs, tc.ys, mintT, mintT, nil); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
		l.put(tc.name, samples, 1.0/64)
	}
	return nil
}

// rounds: simnet.mem_round_us (7 nodes, SendAll one share + EndRound),
// simnet.peer_round_us (the same over 7 in-process NewPeer networks) and
// simnet.peer_join_ms (NewPeer×7 until the full two-way mesh is up).
func (l *ladder) rounds() error {
	f := gf2k.MustNew(fieldK)
	share := f.AppendElement(nil, 0xdeadbeef)
	round := func(nd *simnet.Node, _ int64) (interface{}, error) {
		nd.SendAll(share)
		_, err := nd.EndRound()
		return nil, err
	}
	samples, err := l.timeLockstep("simnet.Node.EndRound", memNodes(serveN), 0, round)
	if err != nil {
		return err
	}
	l.put("simnet.mem_round_us", samples, 1)

	pc, err := meshPeerConfig(serveN)
	if err != nil {
		return err
	}
	t0 := time.Now()
	nws := make([]*simnet.Network, 0, serveN)
	defer func() {
		for _, nw := range nws {
			nw.Close()
		}
	}()
	nodes := make([]*simnet.Node, serveN)
	for i := 0; i < serveN; i++ {
		nw, err := simnet.NewPeer(pc, i, simnet.WithMaxRounds(unlimitedRounds))
		if err != nil {
			return err
		}
		nws = append(nws, nw)
		nodes[i] = nw.Node(i)
	}
	for _, nw := range nws {
		if err := nw.WaitPeers(serveN-1, 30*time.Second); err != nil {
			return err
		}
	}
	for _, nw := range nws {
		if err := nw.StartAt(0); err != nil {
			return err
		}
	}
	t1 := time.Now()
	l.out["simnet.peer_join_ms"] = float64(t1.Sub(t0).Nanoseconds()) / 1e6
	l.counts["simnet.peer_join_ms"] = 1
	l.e.tr.rec().record("simnet.NewPeer+WaitPeers", 0, 0, t0, t1)
	samples, err = l.timeLockstep("simnet.Node.EndRound(peer)", nodes, 0, round)
	if err != nil {
		return err
	}
	l.put("simnet.peer_round_us", samples, 1)
	return nil
}

// drawLadder: beacongw.get_us, multicell.draw_us, beacon.draw_us,
// coin.expose_us and the self times between them.
func (l *ladder) drawLadder() error {
	ctx := l.ctx

	// Rung 1: HTTP GET /v1/coin against the beacongw subprocess.
	proc, err := startGateway(l.e.gwBin, derive(l.e.seed, "ladder/gw")%(1<<40))
	if err != nil {
		return err
	}
	conn := newGwConn(proc.base, 0)
	samples, err := l.timeCalls("http GET /v1/coin", func() error {
		if conn.do(gwRequest{path: "/v1/coin", coins: 1}) != 1 {
			return fmt.Errorf("GET /v1/coin failed: %s", conn.firstErr)
		}
		return nil
	})
	conn.close()
	proc.stop()
	if err != nil {
		return err
	}
	get := l.put("beacongw.get_us", samples, 1)

	// Rung 2: multicell.Cluster.Draw, two cells, anonymous.
	cellCfg := serveConfig(nil, nil)
	cl, err := multicell.New(multicell.Config{
		Cells:    gwCells,
		Cell:     cellCfg,
		CellRand: cellRand(derive(l.e.seed, "ladder/multicell")),
	})
	if err != nil {
		return err
	}
	samples, err = l.timeCalls("multicell.Cluster.Draw", func() error {
		_, err := cl.Draw(ctx, "")
		return err
	})
	cl.Close(ctx) //nolint:errcheck // teardown
	if err != nil {
		return err
	}
	mc := l.put("multicell.draw_us", samples, 1)

	// Rung 3: beacon.Service.Draw.
	svc, err := beacon.New(serveConfig(serveRand(derive(l.e.seed, "ladder/beacon")), nil))
	if err != nil {
		return err
	}
	samples, err = l.timeCalls("beacon.Service.Draw", func() error {
		_, err := svc.Draw(ctx)
		return err
	})
	svc.Close(ctx) //nolint:errcheck // teardown
	if err != nil {
		return err
	}
	draw := l.put("beacon.draw_us", samples, 1)

	// Rung 4: Generator.Expose on 7 nodes, from one large minted batch so
	// the reconstruction set is a Coin-Gen clique as in steady-state serving.
	const exposeCoins = 8192
	mcl, err := newMintCluster(derive(l.e.seed, "ladder/expose"), serveN, serveT, exposeCoins, 64, nil, nil)
	if err != nil {
		return err
	}
	minted, _, err := mcl.loop(time.Now(), 1, nil)
	if err != nil {
		return err
	}
	gens := make([]*core.Generator, serveN)
	for p, res := range minted {
		gens[p], err = core.NewFromBatch(serveConfig(nil, nil).Core, res.Batch)
		if err != nil {
			return err
		}
	}
	samples, err = l.timeLockstep("core.Generator.Expose", memNodes(serveN), exposeCoins,
		func(nd *simnet.Node, _ int64) (interface{}, error) {
			return gens[nd.Index()].Expose(nd)
		})
	if err != nil {
		return err
	}
	expose := l.put("coin.expose_us", samples, 1)

	l.out["beacongw.self_us"] = get - mc
	l.out["multicell.self_us"] = mc - draw
	l.out["beacon.self_us"] = draw - expose
	l.out["coin.self_us"] = expose - l.out["simnet.mem_round_us"] - l.out["poly.interp0_ns"]/1e3
	return nil
}

// stores: core.setup_trusted_ms, coin.store_marshal_us, beacon.persist_ms.
func (l *ladder) stores() error {
	cfg := serveConfig(nil, nil)
	rng := rand.New(rand.NewSource(derive(l.e.seed, "ladder/stores")))
	var gens []*core.Generator
	samples, err := l.timeCalls("core.SetupTrusted", func() (err error) {
		gens, err = core.SetupTrusted(cfg.Core, serveBatch, rng)
		return err
	})
	if err != nil {
		return err
	}
	l.put("core.setup_trusted_ms", samples, 1e-3)

	st := gens[0].Store()
	samples, err = l.timeCalls("coin.Store.MarshalBinary+UnmarshalStore", func() error {
		enc, err := st.MarshalBinary()
		if err != nil {
			return err
		}
		_, err = coin.UnmarshalStore(enc)
		return err
	})
	if err != nil {
		return err
	}
	l.put("coin.store_marshal_us", samples, 1)

	svc, err := beacon.New(serveConfig(serveRand(derive(l.e.seed, "ladder/persist")), nil))
	if err != nil {
		return err
	}
	if err := svc.Close(l.ctx); err != nil {
		return err
	}
	dir, err := l.e.scratchDir("persist")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	samples, err = l.timeCalls("beacon.Service.Persist+LoadStores", func() error {
		if err := svc.Persist(dir); err != nil {
			return err
		}
		_, err := beacon.LoadStores(dir, serveN)
		return err
	})
	if err != nil {
		return err
	}
	l.put("beacon.persist_ms", samples, 1e-3)
	return nil
}

// mintLadder: core.mint_ms in the serving shape, then at n=13 t=2 M=256
// coingen.run_ms and each sub-protocol's public entry point.
func (l *ladder) mintLadder() error {
	seed := derive(l.e.seed, "ladder/mint")
	serving, err := newMintCluster(seed, serveN, serveT, serveBatch, mintSeedCoins, nil, nil)
	if err != nil {
		return err
	}
	var samples []float64
	prev := time.Now()
	if _, _, err := serving.loop(prev.Add(l.per), ladderMinIters, func(_ int64, done time.Time) {
		samples = append(samples, float64(done.Sub(prev).Nanoseconds())/1e3)
		prev = done
	}); err != nil {
		return err
	}
	l.put("core.mint_ms", samples, 1e-3)

	f := gf2k.MustNew(fieldK)
	seeds, _, err := coin.DealTrusted(f, mintN, mintT, mintSeedCoins, playerRand(seed, 0, 0, 0))
	if err != nil {
		return err
	}
	rnd := func(p int, iter int64) *rand.Rand { return playerRand(seed, 1, p, iter) }

	samples, err = l.timeLockstep("coingen.Run", memNodes(mintN), 0, func(nd *simnet.Node, iter int64) (interface{}, error) {
		p := nd.Index()
		return coingen.Run(nd, coingen.Config{Field: f, N: mintN, T: mintT, M: mintBatch, Seed: seeds[p]}, rnd(p, iter))
	})
	if err != nil {
		return err
	}
	l.put("coingen.run_ms", samples, 1e-3)

	// vss.batch_verify_ms: dealer 0 deals M secrets, everyone verifies.
	secrets := make([]gf2k.Element, mintBatch)
	for i := range secrets {
		secrets[i] = gf2k.Element(i + 1)
	}
	samples, err = l.timeLockstep("vss.Deal+Verify", memNodes(mintN), 0, func(nd *simnet.Node, iter int64) (interface{}, error) {
		p := nd.Index()
		cfg := vss.Config{Field: f, N: mintN, T: mintT, Coins: seeds[p]}
		var sec []gf2k.Element
		if p == 0 {
			sec = secrets
		}
		inst, err := vss.Deal(nd, cfg, 0, sec, rnd(p, iter))
		if err != nil {
			return nil, err
		}
		ok, err := inst.Verify(nd)
		if err == nil && !ok {
			err = fmt.Errorf("honest dealer rejected")
		}
		return nil, err
	})
	if err != nil {
		return err
	}
	l.put("vss.batch_verify_ms", samples, 1e-3)

	// bitgen.deal_ms and bitgen.gammas_ms: player 0 times its own calls.
	bcfg := bitgen.Config{Field: f, N: mintN, T: mintT, M: mintBatch}
	var deal, gammas []float64
	rec := l.e.tr.rec()
	_, err = l.timeLockstep("bitgen.DealAll+ExchangeGammas", memNodes(mintN), 0, func(nd *simnet.Node, iter int64) (interface{}, error) {
		p := nd.Index()
		t0 := time.Now()
		sh, err := bitgen.DealAll(nd, bcfg, rnd(p, iter))
		if err != nil {
			return nil, err
		}
		t1 := time.Now()
		_, err = bitgen.ExchangeGammas(nd, bcfg, sh, 0x5555)
		if p == 0 {
			t2 := time.Now()
			deal = append(deal, float64(t1.Sub(t0).Nanoseconds())/1e3)
			gammas = append(gammas, float64(t2.Sub(t1).Nanoseconds())/1e3)
			rec.record("bitgen.DealAll", uint64(iter), 0, t0, t1)
			rec.record("bitgen.ExchangeGammas", uint64(iter), 0, t1, t2)
		}
		return nil, err
	})
	if err != nil {
		return err
	}
	l.put("bitgen.deal_ms", deal, 1e-3)
	l.put("bitgen.gammas_ms", gammas, 1e-3)

	// gradecast.runall_us: a clique message is ~13 members × (t+1)
	// coefficients of 4 bytes plus the member list.
	payload := make([]byte, mintN*(mintT+1)*f.ByteLen()+mintN+2)
	samples, err = l.timeLockstep("gradecast.RunAll", memNodes(mintN), 0, func(nd *simnet.Node, _ int64) (interface{}, error) {
		return gradecast.RunAll(nd, mintT, payload)
	})
	if err != nil {
		return err
	}
	l.put("gradecast.runall_us", samples, 1)

	samples, err = l.timeLockstep("ba.PhaseKing.Run", memNodes(mintN), 0, func(nd *simnet.Node, _ int64) (interface{}, error) {
		return ba.PhaseKing{T: mintT}.Run(nd, 1)
	})
	if err != nil {
		return err
	}
	l.put("ba.run_us", samples, 1)

	g := clique.NewGraph(mintN)
	for a := 0; a < mintN; a++ {
		for b := a + 1; b < mintN; b++ {
			g.AddEdge(a, b)
		}
	}
	var sink int
	l.put("clique.approx_us", l.timeBatched("clique.ApproxClique", 256, func() { sink += len(clique.ApproxClique(g)) }), 1)
	return nil
}

// parallelTrial: parallel.speedup_w2 and parallel.tasks_per_mint — the
// mint-n13 shape at pool width 2 against no pool, the trial ROADMAP asks
// internal/parallel to stand.
func (l *ladder) parallelTrial() error {
	seed := derive(l.e.seed, "ladder/parallel")
	p50 := func(pool *parallel.Pool) (float64, int64, error) {
		cl, err := newMintCluster(seed, mintN, mintT, mintBatch, mintSeedCoins, nil, pool)
		if err != nil {
			return 0, 0, err
		}
		var samples []float64
		prev := time.Now()
		_, mints, err := cl.loop(prev.Add(l.per), ladderMinIters, func(_ int64, done time.Time) {
			samples = append(samples, float64(done.Sub(prev).Nanoseconds())/1e3)
			prev = done
		})
		return percentile(sortedCopy(samples), 50), mints, err
	}
	serial, _, err := p50(nil)
	if err != nil {
		return err
	}
	var ctr metrics.Counters
	wide, mints, err := p50(parallel.New(2).WithCounters(&ctr))
	if err != nil {
		return err
	}
	l.out["parallel.speedup_w2"] = serial / wide
	l.out["parallel.tasks_per_mint"] = float64(ctr.Snapshot().ParallelTasks) / float64(mints)
	l.counts["parallel.speedup_w2"] = int(mints)
	return nil
}

// reshareRefresh: reshare.refresh_ms, reshare.msgs, reshare.bytes — a 7→7
// proactive refresh of 96-coin stores on an in-memory network.
func (l *ladder) reshareRefresh() error {
	f := gf2k.MustNew(fieldK)
	seed := derive(l.e.seed, "ladder/reshare")
	batches, _, err := coin.DealTrusted(f, serveN, serveT, serveBatch, playerRand(seed, 0, 0, 0))
	if err != nil {
		return err
	}
	stores := make([]*coin.Store, serveN)
	newOf := make([]int, serveN)
	for i, b := range batches {
		stores[i] = &coin.Store{}
		if err := stores[i].Add(b); err != nil {
			return err
		}
		if err := stores[i].BindUniverse(serveN); err != nil {
			return err
		}
		newOf[i] = i
	}
	var ctr metrics.Counters
	cfg := reshare.Config{
		Field: f, OldN: serveN, OldT: serveT, NewN: serveN, NewT: serveT,
		NewOf: newOf, Generation: 1, Counters: &ctr,
	}
	// The ceremony only reads the old stores, so it can be repeated.
	samples, err := l.timeCalls("reshare.Run", func() error {
		nw := simnet.New(serveN, simnet.WithCounters(&ctr))
		fns := make([]simnet.PlayerFunc, serveN)
		for i := range fns {
			i := i
			fns[i] = func(nd *simnet.Node) (interface{}, error) {
				return reshare.Run(nd, cfg, stores[i], playerRand(seed, 1, i, int64(l.op)))
			}
		}
		for i, r := range simnet.Run(nw, fns) {
			if r.Err != nil {
				return fmt.Errorf("player %d: %w", i, r.Err)
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	l.put("reshare.refresh_ms", samples, 1e-3)
	cost := ctr.Snapshot()
	l.out["reshare.msgs"] = float64(cost.Messages) / float64(len(samples))
	l.out["reshare.bytes"] = float64(cost.Bytes) / float64(len(samples))
	return nil
}

// meshRungs: beacon.daemon_join_ms and beacon.daemon_self_us from a short
// 7-daemon mesh — µs per emitted coin minus the bare peer rounds it took
// (simnet.peer_round_us × rounds per coin).
func (l *ladder) meshRungs() error {
	emit := meshSetupCoins + meshCoins(l.per)
	start := time.Now()
	cl, err := startMesh(&env{seed: derive(l.e.seed, "ladder/mesh"), build: l.e.build}, emit)
	if err != nil {
		return err
	}
	defer cl.stop()
	allJoined := func(beacon.DaemonStats) bool {
		for _, d := range cl.daemons {
			if !d.Stats().Joined {
				return false
			}
		}
		return true
	}
	if err := cl.waitFor(l.ctx, allJoined); err != nil {
		return err
	}
	joined := time.Now()
	l.out["beacon.daemon_join_ms"] = float64(joined.Sub(start).Nanoseconds()) / 1e6
	l.counts["beacon.daemon_join_ms"] = 1
	l.e.tr.rec().record("beacon.NewDaemon+join", 0, 0, start, joined)

	var first time.Time
	var firstLen int
	if err := cl.waitFor(l.ctx, func(st beacon.DaemonStats) bool {
		if first.IsZero() && st.LogLen > 0 {
			first, firstLen = time.Now(), st.LogLen
		}
		return st.LogLen >= emit
	}); err != nil {
		return err
	}
	done := time.Now()
	if err := cl.wait(l.ctx); err != nil {
		return err
	}
	st := cl.daemons[0].Stats()
	perCoin := float64(done.Sub(first).Nanoseconds()) / 1e3 / float64(emit-firstLen)
	roundsPerCoin := float64(st.Round) / float64(st.LogLen)
	l.out["beacon.daemon_self_us"] = perCoin - l.out["simnet.peer_round_us"]*roundsPerCoin
	l.counts["beacon.daemon_self_us"] = emit - firstLen
	l.e.tr.rec().record("beacon.Daemon.emit", 0, 0, first, done)
	return cl.checkLogs()
}
