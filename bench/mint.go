package main

import (
	"context"
	"fmt"
	"time"

	"repro/internal/coin"
	"repro/internal/core"
	"repro/internal/gf2k"
	"repro/internal/metrics"
	"repro/internal/parallel"
	"repro/internal/simnet"
)

// mintCluster is the Coin-Gen pipeline alone: n players on one in-memory
// network, every player looping core.Mint against its share of one large
// trusted-dealt seed. The mint-n13 workload and the mint ladder share it.
type mintCluster struct {
	cfg   core.Config
	seeds []*coin.Batch
	seed  int64
	calls int64 // mints run so far: keys each player's Rand by (player, call#)
	tr    *tracing
}

func newMintCluster(seed int64, n, t, m, seedCoins int, tr *tracing, pool *parallel.Pool) (*mintCluster, error) {
	field := gf2k.MustNew(fieldK)
	if tr != nil {
		field = field.WithCounters(tr.ctr)
	}
	cfg := core.Config{Field: field, N: n, T: t, BatchSize: m, Counters: tr.counters(), Pool: pool}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	seeds, _, err := coin.DealTrusted(field, n, t, seedCoins, playerRand(derive(seed, "mint/dealer"), 0, 0, 0))
	if err != nil {
		return nil, err
	}
	for _, b := range seeds {
		b.Counters = tr.counters()
	}
	return &mintCluster{cfg: cfg, seeds: seeds, seed: derive(seed, "mint/rand"), tr: tr}, nil
}

// network makes a fresh lockstep network for one loop over the cluster
// (simnet.Run retires a network's nodes when the player functions return).
func (c *mintCluster) network() *simnet.Network {
	opts := []simnet.Option{simnet.WithMaxRounds(unlimitedRounds)}
	if c.tr != nil {
		opts = append(opts, simnet.WithCounters(c.tr.ctr), simnet.WithTracer(c.tr.tracer))
	}
	return simnet.New(c.cfg.N, opts...)
}

// loop mints in lockstep until `until` (at least minIters mints) and returns
// every player's last result plus the mint count. onMint sees player 0's
// completion times.
func (c *mintCluster) loop(until time.Time, minIters int64, onMint func(iter int64, done time.Time)) ([]*core.MintResult, int64, error) {
	nw := c.network()
	base := c.calls
	rec := c.tr.rec()
	cfgs := make([]core.Config, c.cfg.N)
	for p := range cfgs {
		cfgs[p] = c.cfg
		cfgs[p].Pool = c.cfg.Pool.Fork()
	}
	body := func(nd *simnet.Node, iter int64) (interface{}, error) {
		p := nd.Index()
		t0 := time.Now()
		res, err := core.Mint(cfgs[p], nd, c.seeds[p], playerRand(c.seed, 0, p, base+iter+1))
		if rec != nil {
			rec.record("core.Mint", uint64(base+iter+1), 0, t0, time.Now())
		}
		return res, err
	}
	last, iters, err := lockstepLoop(nodesOf(nw), until, minIters, 0, body, onMint)
	if err != nil {
		return nil, 0, err
	}
	c.calls += iters
	out := make([]*core.MintResult, len(last))
	for p, v := range last {
		out[p] = v.(*core.MintResult)
	}
	return out, iters, nil
}

// exposeAll has every player expose its whole minted batch on a fresh
// network: the oracle's input.
func (c *mintCluster) exposeAll(mints []*core.MintResult) ([][]gf2k.Element, error) {
	fns := make([]simnet.PlayerFunc, c.cfg.N)
	for p := range fns {
		batch := mints[p].Batch
		fns[p] = func(nd *simnet.Node) (interface{}, error) {
			out := make([]gf2k.Element, 0, batch.Remaining())
			for batch.Remaining() > 0 {
				v, err := batch.Expose(nd)
				if err != nil {
					return nil, err
				}
				out = append(out, v)
			}
			return out, nil
		}
	}
	exposed := make([][]gf2k.Element, c.cfg.N)
	for p, r := range simnet.Run(c.network(), fns) {
		if r.Err != nil {
			return nil, fmt.Errorf("expose minted batch, player %d: %w", p, r.Err)
		}
		exposed[p] = r.Value.([]gf2k.Element)
	}
	return exposed, nil
}

// checkUnanimous exposes the minted batch everywhere and reports whether
// every player saw the same `want` coins.
func (c *mintCluster) checkUnanimous(mints []*core.MintResult, want int) error {
	exposed, err := c.exposeAll(mints)
	if err != nil {
		return err
	}
	return unanimous(exposed, want)
}

// unanimous reports whether every player exposed the same `want` coins.
func unanimous(exposed [][]gf2k.Element, want int) error {
	for p, vals := range exposed {
		if len(vals) != want {
			return fmt.Errorf("player %d exposed %d coins of the final batch, want %d", p, len(vals), want)
		}
		if !elementsEqual(vals, exposed[0]) {
			return fmt.Errorf("player %d exposed a different final batch than player 0", p)
		}
	}
	return nil
}

// mintWorkload is mint-n13: op = one mint of 256 coins by 13 players.
type mintWorkload struct {
	e  *env
	cl *mintCluster

	wins []window
	last []*core.MintResult
	cost metrics.Snapshot
}

func newMint(e *env) *mintWorkload { return &mintWorkload{e: e} }

func (w *mintWorkload) setup(ctx context.Context) error {
	cl, err := newMintCluster(w.e.seed, mintN, mintT, mintBatch, mintSeedCoins, w.e.tr, nil)
	if err != nil {
		return err
	}
	w.cl = cl
	// First successful op: one mint, its batch exposed unanimously.
	first, _, err := cl.loop(time.Now(), 1, nil)
	if err != nil {
		return err
	}
	return cl.checkUnanimous(first, mintBatch)
}

func (w *mintWorkload) run(ctx context.Context) error {
	var ctr0 metrics.Snapshot
	if w.e.tr != nil {
		ctr0 = w.e.tr.ctr.Snapshot()
	}
	var ops []op
	cpu0 := selfCPU()
	start := time.Now()
	prev := start
	last, mints, err := w.cl.loop(start.Add(w.e.window), 1, func(_ int64, done time.Time) {
		ops = append(ops, op{float64(done.Sub(prev).Nanoseconds()) / 1e3, mintBatch})
		prev = done
	})
	if err != nil {
		return err
	}
	w.last = last
	w.wins = append(w.wins, window{
		seconds: prev.Sub(start).Seconds(),
		ops:     ops,
		cpuS:    selfCPU() - cpu0,
		coins:   mints * mintBatch,
	})
	if w.e.tr != nil {
		w.cost = metrics.Diff(ctr0, w.e.tr.ctr.Snapshot())
	}
	return nil
}

func (w *mintWorkload) finish(ctx context.Context) (*measurement, error) {
	m := &measurement{windows: w.wins, attempted: 1} // the set-up mint
	for _, win := range w.wins {
		m.attempted += int64(len(win.ops))
	}
	err := w.cl.checkUnanimous(w.last, mintBatch)
	m.check(err == nil, "final batch: %v", err)
	if w.e.tr != nil {
		m.layer = w.e.tr.perCoin(w.cost, float64(m.last().coins))
	}
	return m, nil
}

func (w *mintWorkload) close() {}
