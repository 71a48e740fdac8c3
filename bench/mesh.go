package main

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"os"
	"strconv"
	"sync"
	"time"

	"repro/internal/beacon"
	"repro/internal/metrics"
	"repro/internal/obs/prom"
	"repro/internal/simnet"
)

// meshCluster is n real beacon.Daemons in this process, peered over
// loopback TCP (simnet.NewPeer, HMAC handshake) on ports reserved from
// 127.0.0.1:0, after a DealCluster ceremony into a scratch state dir.
type meshCluster struct {
	n       int
	emit    int
	dir     string
	addrs   []string
	daemons []*beacon.Daemon
	cancel  context.CancelFunc
	wg      sync.WaitGroup
	errs    []error
	done    chan struct{} // closed once every daemon's Run has returned

	// Traced runs only: daemon 0 carries the tracing counters and tracer,
	// the other daemons share `others` (each daemon's transport counts its
	// own rounds, so rounds are read from daemon 0 alone).
	others *metrics.Counters
	peers  *simnet.PeerMetrics
}

// reservePorts picks n distinct loopback addresses by binding port 0 n
// times, then releases them all; the daemons re-bind them a moment later.
func reservePorts(n int) ([]string, error) {
	addrs := make([]string, n)
	lns := make([]net.Listener, 0, n)
	defer func() {
		for _, ln := range lns {
			ln.Close()
		}
	}()
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, fmt.Errorf("reserve port: %w", err)
		}
		lns = append(lns, ln)
		addrs[i] = ln.Addr().String()
	}
	return addrs, nil
}

func meshPeerConfig(n int) (*simnet.PeerConfig, error) {
	addrs, err := reservePorts(n)
	if err != nil {
		return nil, err
	}
	pc := &simnet.PeerConfig{
		Cluster:   "bench",
		Secret:    []byte("bench-mesh-shared-secret-0123456"),
		T:         serveT,
		K:         fieldK,
		Batch:     serveBatch,
		Threshold: serveThreshold,
		SeedCoins: serveBatch,
	}
	for i, a := range addrs {
		pc.Peers = append(pc.Peers, simnet.Peer{ID: i, Addr: a})
	}
	return pc, pc.Validate()
}

// startMesh runs the ceremony and starts every daemon; they join, emit
// `emit` coins each into their public logs and stop at the same round.
func startMesh(e *env, emit int) (*meshCluster, error) {
	pc, err := meshPeerConfig(serveN)
	if err != nil {
		return nil, err
	}
	dir, err := e.scratchDir("mesh")
	if err != nil {
		return nil, err
	}
	c := &meshCluster{n: serveN, emit: emit, dir: dir, errs: make([]error, serveN), done: make(chan struct{})}
	for _, p := range pc.Peers {
		c.addrs = append(c.addrs, p.Addr)
	}
	seed := derive(e.seed, "mesh/rand")
	if err := beacon.DealCluster(pc, dir, playerRand(seed, 0, 0, 0)); err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	if e.tr != nil {
		c.others = &metrics.Counters{}
		c.peers = simnet.NewPeerMetrics(prom.NewRegistry())
	}
	ctx, cancel := context.WithCancel(context.Background())
	c.cancel = cancel
	for i := 0; i < c.n; i++ {
		cfg := beacon.DaemonConfig{
			Peers:    pc,
			Self:     i,
			StateDir: dir,
			Emit:     emit,
			Rand:     playerRand(seed, 0, i, 1),
		}
		if e.tr != nil {
			cfg.Counters = c.others
			if i == 0 {
				cfg.Counters, cfg.Tracer, cfg.PeerMetrics = e.tr.ctr, e.tr.tracer, c.peers
			}
		}
		d, err := beacon.NewDaemon(cfg)
		if err != nil {
			c.stop()
			return nil, fmt.Errorf("daemon %d: %w", i, err)
		}
		c.daemons = append(c.daemons, d)
		c.wg.Add(1)
		go func(i int) {
			defer c.wg.Done()
			c.errs[i] = d.Run(ctx)
		}(i)
	}
	go func() { c.wg.Wait(); close(c.done) }()
	return c, nil
}

// waitFor polls player 0's position every millisecond until cond holds,
// the daemons have all returned, or ctx is done.
func (c *meshCluster) waitFor(ctx context.Context, cond func(beacon.DaemonStats) bool) error {
	for {
		if cond(c.daemons[0].Stats()) {
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-c.done:
			if cond(c.daemons[0].Stats()) {
				return nil
			}
			return fmt.Errorf("daemons stopped early: %v", c.firstErr())
		case <-time.After(time.Millisecond):
		}
	}
}

func (c *meshCluster) firstErr() error {
	for i, err := range c.errs {
		if err != nil {
			return fmt.Errorf("daemon %d: %w", i, err)
		}
	}
	return nil
}

// wait blocks until every daemon has reached its Emit target and returned.
func (c *meshCluster) wait(ctx context.Context) error {
	select {
	case <-c.done:
		return c.firstErr()
	case <-ctx.Done():
		return ctx.Err()
	}
}

// checkLogs is the mesh oracle: all public coin logs are byte-identical
// and hold exactly `emit` entries.
func (c *meshCluster) checkLogs() error {
	var ref []byte
	for i := 0; i < c.n; i++ {
		data, err := os.ReadFile(beacon.CoinLogFile(c.dir, i))
		if err != nil {
			return err
		}
		if i == 0 {
			ref = data
			if lines := bytes.Count(data, []byte("\n")); lines != c.emit {
				return fmt.Errorf("player 0 log holds %d coins, want %d", lines, c.emit)
			}
			continue
		}
		if !bytes.Equal(data, ref) {
			return fmt.Errorf("player %d public log differs from player 0's", i)
		}
	}
	return nil
}

// demotions sums daemon 0's peer-demotion counters (traced runs).
func (c *meshCluster) demotions() float64 {
	if c.peers == nil {
		return 0
	}
	var total int64
	for j := 0; j < c.n; j++ {
		total += c.peers.Demotions.With(strconv.Itoa(j)).Value()
	}
	return float64(total)
}

// stop cancels the daemons, waits for every Run to return (which closes
// their listeners and sockets) and removes the state dir.
func (c *meshCluster) stop() {
	if c.cancel != nil {
		c.cancel()
	}
	c.wg.Wait()
	os.RemoveAll(c.dir)
}

// meshWorkload is mesh-emit: every daemon emits the same fixed number of
// coins (24 000 per 15 s of window), so the work is identical on any two
// commits, and a window is a fixed share of it. Op = blockCoins consecutive
// coins; block boundaries come from sampling player 0's LogLen every
// millisecond and interpolating the crossing inside the sampling interval.
type meshWorkload struct {
	e  *env
	cl *meshCluster

	wins []window
	cost metrics.Snapshot
}

func newMesh(e *env) *meshWorkload { return &meshWorkload{e: e} }

// meshCoins is the fixed work one window of length d stands for: whole
// blocks, at least one.
func meshCoins(d time.Duration) int {
	blocks := int(meshCoinsPerS*d.Seconds()) / blockCoins
	if blocks < 1 {
		blocks = 1
	}
	return blocks * blockCoins
}

// meshSetupCoins is room for the seed batch and the first refill, which
// set-up waits for.
const meshSetupCoins = 2 * serveBatch

func (w *meshWorkload) setup(ctx context.Context) error {
	cl, err := startMesh(w.e, meshSetupCoins+w.e.runs*meshCoins(w.e.window))
	if err != nil {
		return err
	}
	w.cl = cl
	// First coin in the log and first (inline) refill absorbed.
	return cl.waitFor(ctx, func(st beacon.DaemonStats) bool { return st.LogLen > 0 && st.Epoch >= 1 })
}

// run follows the daemons through the next window's share of the fixed
// work; the first call also takes whatever set-up left of its room.
func (w *meshWorkload) run(ctx context.Context) error {
	var ctr0 metrics.Snapshot
	if w.e.tr != nil {
		ctr0 = w.snapshot()
	}
	endLen := w.cl.emit - (w.e.runs-1-len(w.wins))*meshCoins(w.e.window)
	var ops []op
	cpu0 := selfCPU()
	start := time.Now()
	startLen := w.cl.daemons[0].Stats().LogLen
	rec := w.e.tr.rec()

	// Sample LogLen; each time it crosses the next block boundary, place
	// the crossing between the two samples in proportion to the coins.
	prevT, prevLen := start, startLen
	blockStart, next := start, startLen+blockCoins
	err := w.cl.waitFor(ctx, func(st beacon.DaemonStats) bool {
		now := time.Now()
		for st.LogLen >= next {
			frac := float64(next-prevLen) / float64(st.LogLen-prevLen)
			cross := prevT.Add(time.Duration(frac * float64(now.Sub(prevT))))
			ops = append(ops, op{float64(cross.Sub(blockStart).Nanoseconds()) / 1e3, blockCoins})
			rec.record("op", uint64(next/blockCoins), 0, blockStart, cross)
			blockStart = cross
			next += blockCoins
		}
		prevT, prevLen = now, st.LogLen
		return st.LogLen >= endLen
	})
	if err != nil {
		return err
	}
	w.wins = append(w.wins, window{
		seconds: prevT.Sub(start).Seconds(),
		ops:     ops,
		cpuS:    selfCPU() - cpu0,
		coins:   int64(prevLen - startLen),
	})
	if endLen == w.cl.emit {
		if err := w.cl.wait(ctx); err != nil {
			return err
		}
	}
	if w.e.tr != nil {
		w.cost = metrics.Diff(ctr0, w.snapshot())
	}
	return nil
}

// snapshot is the whole mesh's cost so far: daemon 0's counters plus the
// other daemons', with rounds taken from daemon 0 only.
func (w *meshWorkload) snapshot() metrics.Snapshot {
	own := w.e.tr.ctr.Snapshot()
	sum := own.Add(w.cl.others.Snapshot())
	sum.Rounds = own.Rounds
	return sum
}

func (w *meshWorkload) finish(ctx context.Context) (*measurement, error) {
	m := &measurement{windows: w.wins}
	for _, win := range w.wins {
		m.attempted += int64(len(win.ops))
	}
	err := w.cl.checkLogs()
	m.check(err == nil, "public logs: %v", err)
	if w.e.tr != nil {
		m.layer = w.e.tr.perCoin(w.cost, float64(m.last().coins))
		m.layer["simnet.peer_demotions"] = w.cl.demotions()
	}
	return m, nil
}

func (w *meshWorkload) close() {
	if w.cl != nil {
		w.cl.stop()
		w.cl = nil
	}
}
