package beacon

// Daemon is the multi-process deployment of the beacon: one process per
// player, each running its own Coin-Gen/Coin-Expose state machine over the
// authenticated peer transport (simnet.NewPeer) instead of hosting all n
// players in one process like Service does.
//
// Lifecycle:
//
//   1. Ceremony (once): DealCluster runs the one-time trusted dealer and
//      writes every player's initial store; the operator distributes each
//      player-NNN.* file set to its machine (docs/OPERATIONS.md).
//   2. Each daemon opens its own state — store reconciled against the
//      public coin log, see openPlayerState — and joins the cluster.
//   3. Joining is self-synchronizing, with no extra consensus round:
//      - Cold start: no peer is running rounds yet. Wait for the full
//        mesh, agree on the longest public log among the peers (a crashed
//        cluster's logs can differ by the final in-flight coins), backfill
//        and fast-forward to it, and start at round 0 together.
//      - Rejoin: the cluster is live. Ask the most advanced peer where it
//        is (round R opening log positions [P, N), refill epoch),
//        fast-forward the store to position N, backfill the missed public
//        values [ours, N) from t+1 peers, and start at round R+1 — peers
//        flush round R+1's traffic only after our connections are already
//        up, and their barriers re-admit us as soon as our first
//        status/done markers arrive. A refill inside the join lag would
//        desynchronize the position↔round alignment, so the join waits one
//        out when it is imminent.
//   4. Emission loop: one emission round per iteration — the inline
//      blocking refill when the store is low, exactly the Fig. 1 loop, then
//      one Coin-Expose round opening the vector of coins emitWidth allows
//      (one coin when paced, up to sweepCoins when not). The vector is
//      appended to the public log in one write; the stamped store snapshot
//      is written (into the older of two slots, in place) after each refill
//      and at graceful shutdown.
//
// A daemon that was down across a refill cannot rejoin (its store lacks
// the shares of the batch minted while it was gone) — it fails with a
// clear epoch-mismatch error, and the operator recovers it with a
// proactive reshare: the member re-enters the ceremony as a stale
// participant (ReshareConfig.Stale) and receives fresh shares. This is
// inherent: shares are secrets, so no honest peer can hand them over
// directly — only a resharing ceremony can re-arm the member. The same
// machinery rotates the committee itself: arm the daemons with the
// next-generation roster (DaemonConfig.ReshareNext), let them negotiate a
// cutover and run RunReshare — see reshare.go and docs/OPERATIONS.md.

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/coin"
	"repro/internal/core"
	"repro/internal/gf2k"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/simnet"
)

// ErrEpochMismatch marks a rejoin attempt by a daemon that missed a refill
// while it was down: its store no longer contains shares for the cluster's
// current batches. No peer can hand shares over — recover the member with
// a proactive reshare, rejoining the ceremony as a stale participant
// (docs/OPERATIONS.md, "Membership change & proactive refresh").
var ErrEpochMismatch = errors.New("beacon: refill epoch mismatch (this player missed a Coin-Gen; recover it with a proactive reshare — docs/OPERATIONS.md)")

// errWidthMismatch marks a peer whose emission rounds open a different
// number of coins than ours: its rounds would carry a different number of
// shares, so the two can never share one.
var errWidthMismatch = errors.New("beacon: emission width mismatch (set -emit-interval alike on every daemon: all zero or all non-zero)")

// DaemonConfig parameterizes one per-player daemon.
type DaemonConfig struct {
	// Peers is the cluster roster and protocol parameters (peers.yaml).
	Peers *simnet.PeerConfig
	// Self is this daemon's 0-based player index.
	Self int
	// StateDir holds this player's store and public coin log. The
	// ceremony (DealCluster) must have populated it.
	StateDir string
	// Emit stops the daemon once the public log holds this many coins
	// (0 = run until the context is cancelled). All daemons configured with
	// the same Emit stop at the same round. An unpaced daemon's rounds end
	// at the target, so an unpaced cluster must share it.
	Emit int
	// EmitInterval paces the beacon: the minimum delay between consecutive
	// coin openings, one coin per round. Zero runs unpaced: each round opens
	// up to sweepCoins (32) coins, as fast as the cluster can run rounds,
	// and never across a multiple of 32, a batch boundary, the refill point
	// or Emit (emitWidth). It decides how many shares a round carries, so
	// every daemon of a cluster must set it alike — all zero or all
	// non-zero; join refuses a peer that differs. A paced beacon is also
	// what makes crash recovery practical — the rejoin window between two
	// refills lasts EmitInterval × BatchSize instead of milliseconds.
	EmitInterval time.Duration
	// Rand is this player's private randomness for Coin-Gen dealing.
	Rand io.Reader
	// Counters and Tracer instrument the protocol stack as usual. The
	// tracer is additionally stamped with this daemon's correlation keys
	// (origin = Self, epoch = the store's refill epoch, re-stamped after
	// every refill), so per-daemon trace files merge cleanly with
	// obs.MergeJSONL.
	Counters *metrics.Counters
	Tracer   *obs.Tracer
	// Metrics, when non-nil, exports the daemon's Prometheus families
	// (position gauges, emit latency, inline refills — see
	// NewDaemonMetrics). PeerMetrics instruments the peer transport on the
	// same registry (watermarks, lag, demotions, handshakes).
	Metrics     *DaemonMetrics
	PeerMetrics *simnet.PeerMetrics
	// RoundTimeout and DialBackoffMax tune the peer transport (zero =
	// simnet defaults).
	RoundTimeout   time.Duration
	DialBackoffMax time.Duration
	// JoinTimeout bounds the whole join choreography — mesh wait, state
	// queries, backfill (default 30s).
	JoinTimeout time.Duration
	// ReshareNext, when non-nil, ARMS the daemon for a dealer-free
	// handover to this next-generation roster (generation must be
	// Peers.Generation+1). An armed daemon negotiates a common cutover
	// position with its armed peers over the Query channel, journals it,
	// pauses emission there and returns ErrReshareCutover from Run once a
	// quorum of peers has confirmed the same position — the caller then
	// runs the RunReshare ceremony and restarts against ReshareNext.
	ReshareNext *simnet.PeerConfig
	// Logf, when non-nil, receives human-readable progress lines.
	Logf func(format string, args ...interface{})
}

// CoreConfig derives the D-PRBG configuration every daemon of the cluster
// must share from the peer config's protocol parameters (zero values take
// the same defaults everywhere — they are part of the config digest, so
// mismatched daemons cannot even connect).
func CoreConfig(pc *simnet.PeerConfig, ctr *metrics.Counters) (core.Config, error) {
	field, err := gf2k.New(effectiveK(pc))
	if err != nil {
		return core.Config{}, err
	}
	if ctr != nil {
		field = field.WithCounters(ctr)
	}
	threshold := pc.Threshold
	if threshold == 0 {
		threshold = core.DefaultThreshold
	}
	cfg := core.Config{
		Field:     field,
		N:         pc.N(),
		T:         pc.T,
		BatchSize: effectiveBatch(pc),
		Threshold: threshold,
		Counters:  ctr,
	}
	return cfg, cfg.Validate()
}

// SeedCoinCount is the ceremony seed size for the cluster: the configured
// seedcoins, defaulting to the batch size.
func SeedCoinCount(pc *simnet.PeerConfig) int {
	if pc.SeedCoins > 0 {
		return pc.SeedCoins
	}
	return effectiveBatch(pc)
}

// effectiveBatch is the one batch default, as effectiveK is the one for k.
func effectiveBatch(pc *simnet.PeerConfig) int {
	if pc.Batch == 0 {
		return 64
	}
	return pc.Batch
}

// DealCluster is the bootstrap ceremony: run the one-time trusted dealer
// for the whole cluster and write every player's initial store and empty
// coin log under dir. The operator then moves each player-NNN.* set
// to its machine's state directory. This is the only moment any process
// sees more than one player's shares.
func DealCluster(pc *simnet.PeerConfig, dir string, rnd io.Reader) error {
	cfg, err := CoreConfig(pc, nil)
	if err != nil {
		return err
	}
	gens, err := core.SetupTrusted(cfg, SeedCoinCount(pc), rnd)
	if err != nil {
		return err
	}
	for i, g := range gens {
		if err := writeGeneration(dir, i, nil, g.Store()); err != nil {
			return err
		}
	}
	return nil
}

// queryTimeout bounds one peer query (STATE, LOG, RESHARE, RPOS, RLOG).
const queryTimeout = 2 * time.Second

// transportOptions turns what a daemon or a ceremony participant was
// configured with — instrumentation, the two transport timings and its
// query handler — into peer-transport options. Zero values are passed
// through: simnet reads a nil or zero setting as "use the default".
func transportOptions(ctr *metrics.Counters, tr *obs.Tracer, pm *simnet.PeerMetrics,
	roundTimeout, dialBackoffMax time.Duration, h simnet.QueryHandler) []simnet.Option {
	opts := []simnet.Option{simnet.WithQueryHandler(h), simnet.WithCounters(ctr), simnet.WithTracer(tr),
		simnet.WithPeerMetrics(pm), simnet.WithRoundTimeout(roundTimeout)}
	if dialBackoffMax > 0 {
		opts = append(opts, simnet.WithDialBackoff(50*time.Millisecond, dialBackoffMax))
	}
	return opts
}

// closeOnDone closes nw as soon as ctx ends — which is what unblocks a
// pending EndRound or Query — and, through the returned func (meant to be
// deferred), when the caller is done with the network.
func closeOnDone(ctx context.Context, nw *simnet.Network) func() {
	stop := context.AfterFunc(ctx, func() { nw.Close() })
	return func() { stop(); nw.Close() }
}

// DaemonStats is a daemon's position: the state the run loop keeps, the
// snapshot Stats returns (the JSON tags are cmd/beacond's /v1/healthz keys)
// and, in the fields formatState writes, the STATE answer a joiner reads
// the cluster's position from.
type DaemonStats struct {
	Player int `json:"player"`
	// Round is the local node's next round, which opens log positions
	// [LogLen, Next); Remaining is the store's coin count at LogLen.
	Round     int `json:"round"`
	LogLen    int `json:"log"`
	Next      int `json:"-"`
	Epoch     int `json:"epoch"`
	Remaining int `json:"remaining"`
	// Width is W, the most coins one emission round opens (see emitWidth).
	Width int `json:"-"`
	// Generation is the committee generation this daemon serves (its
	// store's; bumped only by a completed reshare + restart).
	Generation int  `json:"generation"`
	Refilling  bool `json:"refilling"`
	Joined     bool `json:"joined"`
	// ReshareArmed is true when the daemon holds a next-generation roster;
	// Cutover is the committed handover position (-1 while unarmed or still
	// negotiating).
	ReshareArmed bool `json:"armed"`
	Cutover      int  `json:"cutover"`
	// Peers is outgoing connection liveness, self always false (filled in
	// by Stats only).
	Peers []bool `json:"peers"`
}

// Daemon is one player's beacon process. Create with NewDaemon, drive with
// Run; Stats is safe to call concurrently from serving goroutines.
type Daemon struct {
	cfg  DaemonConfig
	core core.Config
	gen  *core.Generator
	nw   *simnet.Network
	nd   *simnet.Node
	rnd  io.Reader
	// ps is this player's on-disk state; the run loop is its only mutator.
	ps *playerState

	// reshareAttempt mirrors the journal's attempt counter so cutover
	// re-commits do not clobber it (guarded by mu); resharePause marks
	// when the daemon reached the cutover and reshareArmedSeen records
	// which peers have ever answered a RESHARE probe as armed (both used
	// only by the emit goroutine).
	reshareAttempt   int
	resharePause     time.Time
	reshareArmedSeen []bool

	mu    sync.Mutex
	state DaemonStats
}

// NewDaemon loads player cfg.Self's persisted state, reconciles the store
// against the public log, and brings the peer transport up (dialing starts
// immediately; the round machinery waits for Run).
func NewDaemon(cfg DaemonConfig) (*Daemon, error) {
	if cfg.Peers == nil {
		return nil, errors.New("beacon: daemon needs a peer config")
	}
	coreCfg, err := CoreConfig(cfg.Peers, cfg.Counters)
	if err != nil {
		return nil, err
	}
	if cfg.Self < 0 || cfg.Self >= coreCfg.N {
		return nil, fmt.Errorf("beacon: player %d outside cluster of %d", cfg.Self, coreCfg.N)
	}
	if cfg.JoinTimeout <= 0 {
		cfg.JoinTimeout = 30 * time.Second
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...interface{}) {}
	}
	if cfg.Metrics == nil {
		cfg.Metrics = NewDaemonMetrics(nil)
	}

	cutover, attempt := -1, 0
	if cfg.ReshareNext != nil {
		if _, _, err := CombinedConfig(cfg.Peers, cfg.ReshareNext, 0); err != nil {
			return nil, err
		}
		// A crash after the cutover was journaled must not renegotiate a
		// different position: re-adopt the committed one.
		j, err := LoadReshareJournal(cfg.StateDir)
		if err != nil {
			return nil, err
		}
		if j != nil {
			if j.ToGeneration != cfg.ReshareNext.Generation {
				return nil, fmt.Errorf("beacon: reshare journal targets generation %d but -reshare says %d — mixed roster files?",
					j.ToGeneration, cfg.ReshareNext.Generation)
			}
			cutover, attempt = j.Cutover, j.Attempt
		}
	}
	ps, err := openPlayerState(cfg.StateDir, cfg.Self, cfg.Peers.Generation)
	if errors.Is(err, os.ErrNotExist) {
		return nil, fmt.Errorf("%w (run the dealer ceremony first: beacond -deal)", err)
	}
	if err != nil {
		return nil, err
	}
	gen, err := core.NewFromStore(coreCfg, ps.store)
	if err != nil {
		ps.close()
		return nil, err
	}
	d := &Daemon{cfg: cfg, core: coreCfg, gen: gen, rnd: cfg.Rand, ps: ps, reshareAttempt: attempt}
	d.state = DaemonStats{Player: cfg.Self, Width: d.width(),
		Generation: ps.store.Generation, ReshareArmed: cfg.ReshareNext != nil, Cutover: cutover}
	d.publish(0)

	nw, err := simnet.NewPeer(cfg.Peers, cfg.Self,
		transportOptions(cfg.Counters, cfg.Tracer, cfg.PeerMetrics, cfg.RoundTimeout, cfg.DialBackoffMax, d.handleQuery)...)
	if err != nil {
		ps.close()
		return nil, err
	}
	d.nw = nw
	d.nd = nw.Node(cfg.Self)
	// Correlation keys: every trace event and peer frame this process emits
	// carries who it is and which refill epoch it is in.
	cfg.Tracer.SetOrigin(cfg.Self)
	cfg.Tracer.SetEpoch(ps.epoch)
	nw.SetEpoch(ps.epoch)
	cfg.Metrics.registerGauges(d)
	return d, nil
}

// Stats snapshots the daemon's position for health reporting.
func (d *Daemon) Stats() DaemonStats {
	d.mu.Lock()
	st := d.state
	d.mu.Unlock()
	st.Peers = d.nw.PeerConnected()
	return st
}

// handleQuery answers peer STATE and LOG requests on the transport's
// reader goroutines; it must stay quick and lock-light.
func (d *Daemon) handleQuery(from int, req []byte) []byte {
	s := string(req)
	switch {
	case s == "STATE":
		d.mu.Lock()
		st := d.state
		d.mu.Unlock()
		return formatState(st)
	case s == "RESHARE":
		// Reshare negotiation probe: whether this daemon is armed, and the
		// cutover it has committed (-1 while undecided).
		d.mu.Lock()
		cut := d.state.Cutover
		d.mu.Unlock()
		return []byte(fmt.Sprintf("%t %d", d.cfg.ReshareNext != nil, cut))
	case strings.HasPrefix(s, "LOG "):
		return d.ps.serve(s)
	}
	return nil
}

// stateFormat is the STATE answer: joined, refilling, the round, the log
// positions it opens [LogLen, Next), epoch, remaining coins and W.
const stateFormat = "%t %t %d %d %d %d %d %d"

func formatState(st DaemonStats) []byte {
	return fmt.Appendf(nil, stateFormat,
		st.Joined, st.Refilling, st.Round, st.LogLen, st.Next, st.Epoch, st.Remaining, st.Width)
}

func parseState(resp []byte) (DaemonStats, error) {
	var st DaemonStats
	_, err := fmt.Sscanf(string(resp), stateFormat,
		&st.Joined, &st.Refilling, &st.Round, &st.LogLen, &st.Next, &st.Epoch, &st.Remaining, &st.Width)
	return st, err
}

// Run joins the cluster and drives the emission loop until the context is
// cancelled or the Emit target is reached. It owns the node goroutine; all
// other access goes through Stats.
func (d *Daemon) Run(ctx context.Context) error {
	defer d.ps.close()
	defer closeOnDone(ctx, d.nw)()

	if err := d.join(ctx); err != nil {
		return err
	}
	if err := d.emit(ctx); err != nil {
		if errors.Is(err, ErrReshareCutover) {
			// The pause position is the handover state: snapshot it so the
			// ceremony (a separate process invocation) reshapes exactly the
			// tail behind the cutover.
			if perr := d.snapshot(); perr != nil {
				return perr
			}
		}
		return err
	}
	return d.snapshot()
}

// snapshot makes the daemon's position durable (playerState.snapshot),
// timed into beacond_snapshot_seconds.
func (d *Daemon) snapshot() error {
	t0 := time.Now()
	err := d.ps.snapshot()
	d.cfg.Metrics.SnapshotDuration.Observe(time.Since(t0).Seconds())
	return err
}

// reshareStep runs one iteration of the armed daemon's cutover
// negotiation, between emission rounds. It returns (true, nil) while the
// daemon should keep emitting toward the cutover, (false, nil) while paused
// at it waiting for the peer quorum, and (false, ErrReshareCutover) once a
// quorum of peers reports the same committed position.
//
// The negotiation is sticky and raise-only: the committed cutover is the
// maximum over every committed value seen, and a daemon whose log already
// passed the committed position raises a fresh proposal instead of
// adopting one it can no longer honor. Raising strictly increases the
// committed value and proposals are bounded by the proposal rule below, so
// the cluster converges within a few rounds of the last arm — without any
// leader, matching the join choreography's self-synchronizing style. A
// quorum of n−t ARMED daemons gates the first proposal, so rolling `kill;
// restart -reshare` across the fleet cannot strand an early-armed daemon
// at a position the others never heard of.
//
// A proposal is roundUp(logLen+2W+1, W): a multiple of W (logLen+3 when
// paced) at least three rounds ahead — enough for every armed peer to poll
// and adopt it. Every multiple of W is a round boundary at every daemon and
// emitWidth never looks at the cutover, so a daemon lands on it exactly
// whenever it adopts it.
func (d *Daemon) reshareStep(ctx context.Context, logLen int) (bool, error) {
	w := d.width()
	propose := (logLen + 2*w + 1 + w - 1) / w * w
	n, t := d.core.N, d.core.T
	d.mu.Lock()
	committed := d.state.Cutover
	attempt := d.reshareAttempt
	d.mu.Unlock()

	if d.reshareArmedSeen == nil {
		d.reshareArmedSeen = make([]bool, d.core.N)
	}
	// departed counts peers that were armed earlier but no longer answer:
	// they have left serving mode for the ceremony (or died — in which
	// case the ceremony tolerates them as one of its ≤ t absentees), so
	// they must not stall the confirmation quorum.
	armedCount, confirm, departed, maxSeen := 1, 0, 0, committed
	for j, up := range d.nw.PeerConnected() {
		if j == d.cfg.Self {
			continue
		}
		answered := false
		if up {
			if resp, err := d.query(j, []byte("RESHARE")); err == nil {
				var armed bool
				var cut int
				if _, err := fmt.Sscanf(string(resp), "%t %d", &armed, &cut); err == nil {
					answered = true
					if armed {
						armedCount++
						d.reshareArmedSeen[j] = true
					}
					if cut > maxSeen {
						maxSeen = cut
					}
					if committed >= 0 && cut == committed {
						confirm++
					}
				}
			}
		}
		if !answered && d.reshareArmedSeen[j] {
			departed++
		}
	}

	cut := committed
	switch {
	case maxSeen > committed:
		cut = maxSeen
	case committed < 0 && armedCount >= n-t:
		cut = propose
	}
	if cut >= 0 && cut < logLen {
		// Armed too late to stop there: raise. Peers adopt the maximum.
		cut = propose
	}
	if cut != committed {
		if err := SaveReshareJournal(d.cfg.StateDir, ReshareJournal{
			ToGeneration: d.cfg.ReshareNext.Generation, Cutover: cut, Attempt: attempt,
		}); err != nil {
			return false, err
		}
		d.mu.Lock()
		d.state.Cutover = cut
		d.mu.Unlock()
		d.cfg.Logf("reshare cutover committed at log position %d (→ generation %d)",
			cut, d.cfg.ReshareNext.Generation)
		committed = cut
		confirm = 0 // peer answers counted against the old value
	}
	if committed < 0 || logLen < committed {
		return true, nil
	}

	// Paused at the cutover. Leave once n−t daemons (self included) agree
	// on this exact position, counting departed peers as agreement — they
	// paused before they left. A patience valve covers the pathological
	// remainder; the ceremony itself tolerates ≤ t absentees.
	if d.resharePause.IsZero() {
		d.resharePause = time.Now()
	}
	if confirm+departed+1 >= n-t {
		return false, ErrReshareCutover
	}
	if time.Since(d.resharePause) > d.cfg.JoinTimeout {
		d.cfg.Logf("reshare quorum wait timed out (%d/%d confirmed); proceeding to the ceremony", confirm+1, n-t)
		return false, ErrReshareCutover
	}
	select {
	case <-ctx.Done():
		return false, ctx.Err()
	case <-time.After(150 * time.Millisecond):
	}
	return false, nil
}

// join runs the self-synchronizing entry choreography described on the
// package comment: cold start when no peer is running rounds, projection-
// based rejoin otherwise.
func (d *Daemon) join(ctx context.Context) error {
	deadline := time.Now().Add(d.cfg.JoinTimeout)
	meshErr := d.nw.WaitPeers(d.core.N-1, d.cfg.JoinTimeout/2)

	for attempt := 0; ; attempt++ {
		d.cfg.Metrics.JoinAttempts.Inc()
		if ctx.Err() != nil {
			return ctx.Err()
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("beacon: player %d failed to join within %v", d.cfg.Self, d.cfg.JoinTimeout)
		}
		states, peers := d.queryStates()
		if err := d.sameWidth(states, peers); err != nil {
			return err
		}
		running := -1
		anyRefilling := false
		for i, st := range states {
			if !st.Joined {
				continue
			}
			if st.Refilling {
				anyRefilling = true
			}
			if running == -1 || st.Round > states[running].Round {
				running = i
			}
		}
		var err error
		switch {
		case running >= 0 && states[running].Round > 0:
			err = d.rejoin(states, peers, running)
		case running >= 0 && anyRefilling:
			err = errors.New("cluster is mid-refill at startup")
		case running >= 0:
			// Peers have started but none has committed a round yet —
			// their round-0 barriers are waiting for us (for up to the
			// round timeout), so joining round 0 directly is still safe:
			// their round-0 traffic was flushed after the two-way mesh
			// came up and is staged for us.
			err = d.coldStart(states, peers)
		default:
			if meshErr != nil {
				return fmt.Errorf("beacon: cold start needs the full mesh: %w", meshErr)
			}
			if len(peers) < d.core.N-1 {
				time.Sleep(100 * time.Millisecond)
				continue
			}
			err = d.coldStart(states, peers)
		}
		if err == nil {
			return nil
		}
		if errors.Is(err, ErrEpochMismatch) || errors.Is(err, errLogAppend) || ctx.Err() != nil {
			return err
		}
		// Transient (peer mid-refill, window too tight, a query timed
		// out): wait a moment and retry the choreography from scratch.
		d.cfg.Logf("join attempt %d: %v; retrying", attempt, err)
		time.Sleep(200 * time.Millisecond)
	}
}

// queryStates asks every connected peer for its STATE, returning the
// parsed answers and the responding peer ids (aligned slices).
func (d *Daemon) queryStates() ([]DaemonStats, []int) {
	var states []DaemonStats
	var peers []int
	for j, up := range d.nw.PeerConnected() {
		if !up {
			continue
		}
		resp, err := d.query(j, []byte("STATE"))
		if err != nil {
			continue
		}
		st, err := parseState(resp)
		if err != nil {
			continue
		}
		states = append(states, st)
		peers = append(peers, j)
	}
	return states, peers
}

// sameWidth refuses peers whose emission rounds are a different width — a
// cold start or a rejoin with them would stall on the first round.
func (d *Daemon) sameWidth(states []DaemonStats, peers []int) error {
	w := d.width()
	for i, st := range states {
		if st.Width != w {
			return fmt.Errorf("%w: peer %d opens up to %d coins per round, this player %d", errWidthMismatch, peers[i], st.Width, w)
		}
	}
	return nil
}

// coldStart aligns a cluster whose daemons are all booting: everyone
// fast-forwards to the longest public log (a crashed cluster's logs differ
// by at most the final in-flight coins) and starts at round 0.
func (d *Daemon) coldStart(states []DaemonStats, peers []int) error {
	target, epoch := len(d.ps.log), d.ps.epoch
	for i, st := range states {
		if st.Epoch != epoch {
			return fmt.Errorf("%w: peer %d at epoch %d, this player at %d", ErrEpochMismatch, peers[i], st.Epoch, epoch)
		}
		if st.LogLen > target {
			target = st.LogLen
		}
	}
	if err := d.fastForward(target, peers); err != nil {
		return err
	}
	d.cfg.Logf("cold start at log position %d (epoch %d)", target, epoch)
	return d.start(0)
}

// rejoin re-enters a live cluster one round past the most advanced peer's
// in-flight round. The in-flight round itself is off-limits: a peer
// flushes a round's shares once, and it may have done so before its
// reconnection to us came up, so those bytes can be unrecoverable. Every
// round AFTER it is safe — WaitPeers already confirmed the peers'
// connections to us are bound, and a peer only flushes round R+1 after
// committing R, which is after it answered our STATE query. The skipped
// coins are backfilled from the peers' public logs instead (retrying until
// they commit them), and if the cluster commits another round or two
// before our StartAt lands, the round-keyed staging lets us drain the
// backlog instantly and our done markers re-promote us at each peer within
// a round — the logs stay byte-identical throughout.
func (d *Daemon) rejoin(states []DaemonStats, peers []int, leadIdx int) error {
	lead := states[leadIdx]
	if lead.Refilling {
		return fmt.Errorf("peer %d is mid-refill", peers[leadIdx])
	}
	epoch := d.ps.epoch
	if lead.Epoch != epoch {
		return fmt.Errorf("%w: cluster at epoch %d, this player at %d", ErrEpochMismatch, lead.Epoch, epoch)
	}
	// A refill inside the join lag would mint rounds that are not
	// exposures and desync the position↔round alignment we rely on, so
	// wait it out when one is imminent: when no more than two full rounds
	// (2W coins, the join lag) lie between the in-flight round's end and
	// the lead's refill point.
	if refillAt := lead.LogLen + lead.Remaining - d.core.Threshold + 1; refillAt-lead.Next <= 2*lead.Width {
		return fmt.Errorf("peer %d is about to refill (at log position %d); waiting for it to pass", peers[leadIdx], refillAt)
	}
	// Round lead.Round opens [lead.LogLen, lead.Next), so our first round,
	// lead.Round+1, starts at lead.Next.
	if err := d.fastForward(lead.Next, peers); err != nil {
		return err
	}
	d.cfg.Logf("rejoining at round %d, log position %d (epoch %d)", lead.Round+1, lead.Next, epoch)
	return d.start(lead.Round + 1)
}

// start flips the transport's round machinery on and publishes the join.
func (d *Daemon) start(round int) error {
	if err := d.nw.StartAt(round); err != nil {
		return err
	}
	d.publish(round)
	d.mu.Lock()
	d.state.Joined = true
	d.mu.Unlock()
	return nil
}

// publish refreshes the mirror Stats and STATE read from the run loop's
// position between two rounds: the round the node runs next, the log
// positions it opens, the store and epoch at its start, and no refill in
// flight.
func (d *Daemon) publish(round int) {
	logLen := len(d.ps.log)
	next := logLen + max(emitWidth(d.gen.Store(), logLen, d.width(), d.core.Threshold, d.cfg.Emit), 0)
	d.mu.Lock()
	d.state.Round = round
	d.state.LogLen = logLen
	d.state.Next = next
	d.state.Remaining = d.gen.Remaining()
	d.state.Epoch = d.ps.epoch
	d.state.Refilling = false
	d.mu.Unlock()
}

// halted is the error a failed emission round ends Run with: none when the
// context ended, which is what cut the round short.
func (d *Daemon) halted(ctx context.Context, logLen int, err error) error {
	if ctx.Err() != nil {
		return nil
	}
	return fmt.Errorf("beacon: player %d halted at log position %d: %w", d.cfg.Self, logLen, err)
}

// fastForward advances store and log to absolute position target (see
// playerState.fastForward for the order that makes a retry safe).
func (d *Daemon) fastForward(target int, peers []int) error {
	pos := len(d.ps.log)
	err := d.ps.fastForward(target, d.query, peers, d.core.T+1, d.cfg.JoinTimeout/2)
	if err == nil && target > pos {
		d.cfg.Logf("backfilled %d missed public coins [%d,%d)", target-pos, pos, target)
	}
	return err
}

// query asks one peer one question, bounded by queryTimeout.
func (d *Daemon) query(peer int, req []byte) ([]byte, error) {
	return d.nw.Query(peer, req, queryTimeout)
}

// shuffledCopy is a deterministic rotation (not a random shuffle — the
// daemon's randomness budget belongs to the protocol) so repeated fetches
// spread load across peers. The counter is atomic: in-process clusters
// (tests) and concurrent reshare participants share it.
var fetchRotation atomic.Int64

func shuffledCopy(peers []int) []int {
	out := append([]int(nil), peers...)
	sort.Ints(out)
	if len(out) > 1 {
		r := int(fetchRotation.Add(1)) % len(out)
		out = append(out[r:], out[:r]...)
	}
	return out
}

// width is W: the most coins one emission round opens — one when paced,
// the Service's sweepCoins when not.
func (d *Daemon) width() int {
	if d.cfg.EmitInterval > 0 {
		return 1
	}
	return sweepCoins
}

// emitWidth is how many coins the emission round starting at log position p
// opens: up to the next multiple of w, and never past the front batch of st
// (one reconstruction set per round), the refill point (the position where
// fewer than threshold coins remain) or a non-zero emit target. Only the
// grouping of coins into rounds depends on w, never which coins open or
// where the store refills, and every multiple of w is a round boundary. It
// is ≤ 0 when the store must refill first.
func emitWidth(st *coin.Store, p, w, threshold, emit int) int {
	k := min(w-p%w, st.FrontRemaining(), st.Remaining()-threshold+1)
	if emit > 0 {
		k = min(k, emit-p)
	}
	return k
}

// emit is the daemon's main loop: one emission round per iteration (after
// an inline blocking refill when the store runs low), its coins appended to
// the public log in one write, the store snapshotted after each refill.
func (d *Daemon) emit(ctx context.Context) error {
	for {
		logLen := len(d.ps.log)
		if d.cfg.Emit > 0 && logLen >= d.cfg.Emit {
			d.cfg.Logf("emit target %d reached; stopping", d.cfg.Emit)
			return nil
		}
		if ctx.Err() != nil {
			return nil // graceful: Run persists on the way out
		}
		if d.cfg.ReshareNext != nil {
			emitRound, err := d.reshareStep(ctx, logLen)
			if err != nil {
				return err
			}
			if !emitRound {
				continue // paused at the cutover, polling for quorum
			}
		}

		t0 := time.Now()
		refilled := 0
		if d.gen.Remaining() < d.core.Threshold {
			d.mu.Lock()
			d.state.Refilling = true
			d.mu.Unlock()
			d.cfg.Logf("refill starting at log position %d (epoch %d)", logLen, d.ps.epoch)
			if err := d.gen.Refill(d.nd, d.rnd); err != nil {
				return d.halted(ctx, logLen, err)
			}
			refilled = 1
		}
		vals, err := d.gen.ExposeN(d.nd, emitWidth(d.gen.Store(), logLen, d.width(), d.core.Threshold, d.cfg.Emit))
		if err != nil {
			return d.halted(ctx, logLen, err)
		}
		d.cfg.Metrics.observeEmit(time.Since(t0).Seconds(), len(vals), refilled)

		werr := d.ps.append(vals...)
		d.ps.epoch += refilled
		d.publish(d.nd.Round())
		if werr != nil {
			// Halt without persisting: the snapshot must not stamp a LogLen
			// the on-disk log never reached, and the restart replays
			// the lost tail from peers.
			return werr
		}
		if refilled > 0 {
			// Re-stamp the correlation keys: trace events and peer frames
			// emitted from here on belong to the new epoch.
			d.cfg.Tracer.SetEpoch(d.ps.epoch)
			d.nw.SetEpoch(d.ps.epoch)
			if err := d.snapshot(); err != nil {
				return err
			}
			d.cfg.Logf("refill complete: epoch %d, %d coins in store", d.ps.epoch, d.gen.Remaining())
		}

		if d.cfg.EmitInterval > 0 {
			select {
			case <-ctx.Done():
			case <-time.After(d.cfg.EmitInterval):
			}
		}
	}
}
