// Command beacond is the multi-process face of internal/beacon: one OS
// process per player, peered over authenticated TCP. (All n players in one
// process, serving draws over HTTP, is cmd/beacongw — `beacongw -cells 1`.)
// It runs in one of three modes:
//
// Ceremony (-deal): run the one-time trusted dealer for a multi-process
// cluster described by a peer config, writing every player's initial state
// files under -data for the operator to distribute (docs/OPERATIONS.md).
//
//	beacond -deal -config peers.yaml -data /tmp/ceremony
//
// Per-player daemon (-player): run exactly ONE player's Coin-Gen/Coin-Expose
// state machine, speaking authenticated TCP to the other daemons listed in
// the peer config. Every daemon appends the shared coins to an append-only
// public log under -data; the logs are byte-identical across honest
// daemons. Crash recovery and late joins are automatic as long as the
// player has not missed a refill (see internal/beacon Daemon docs).
//
//	beacond -player 3 -config peers.yaml -data /var/lib/beacond
//
// Resharing (-reshare, -reshare-join, -reshare-stale): a daemon given the
// NEXT generation's roster arms for a dealer-free handover — it negotiates
// a common cutover position with its peers, pauses the public log there,
// runs the resharing ceremony in-process, writes the next generation's
// state files and exits for a restart against the new peers.yaml. A pure
// joiner (a machine not in the old roster) takes part with -reshare-join;
// a member whose store missed a refill recovers through the same ceremony
// with -reshare-stale. See docs/OPERATIONS.md ("Membership change &
// proactive refresh").
//
//	beacond -player 3 -config peers.yaml -data DIR -reshare peers-g2.yaml
//	beacond -reshare-join 7 -config peers.yaml -reshare peers-g2.yaml -data DIR
//
// HTTP endpoints: a daemon's coins go to its public log, not over HTTP; on
// -addr (when set) it serves the observability endpoints only:
//
//	GET /v1/healthz     liveness plus the daemon's position (round, log,
//	                    epoch, generation, peers)
//	GET /metrics        Prometheus text exposition (emit latency, refills,
//	                    per-peer watermarks)
//	GET /debug/trace    last ?n= events from the in-memory flight recorder,
//	                    as obs JSONL (mergeable with beaconctl timeline)
package main

import (
	"context"
	cryptorand "crypto/rand"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/beacon"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/obs/obshttp"
	"repro/internal/simnet"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout, os.Stderr); err != nil {
		log.Fatal(err)
	}
}

// config is the validated flag set of one invocation.
type config struct {
	addr         string
	data         string
	insecureRand bool
	rngSeed      int64

	// Mode selection (see usageModes).
	deal       bool
	player     int
	configPath string

	// Daemon-mode tuning.
	emit         int
	emitInterval time.Duration
	roundTimeout time.Duration
	dialBackoff  time.Duration
	joinTimeout  time.Duration
	trace        string

	// Dealer-free resharing (see usageModes and docs/OPERATIONS.md).
	resharePath   string
	reshareJoin   int
	reshareStale  bool
	reshareLinger time.Duration
}

// usageModes names the invocation shapes; every mode-selection error points
// the operator at it.
const usageModes = `modes:
  beacond -deal   -config peers.yaml -data DIR        one-time dealer ceremony for a multi-process cluster
  beacond -player I -config peers.yaml -data DIR      one player's daemon, peered over authenticated TCP
  beacond -player I ... -reshare next.yaml            armed daemon: serve, then hand over to the next roster
  beacond -reshare-join J -config old.yaml -reshare next.yaml -data DIR
                                                      pure joiner: take part in the handover ceremony only
(all n players in one process, serving draws over HTTP: beacongw -cells 1)`

func parseFlags(args []string, stderr io.Writer) (*config, error) {
	fs := flag.NewFlagSet("beacond", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var c config
	fs.StringVar(&c.addr, "addr", "127.0.0.1:8433", "HTTP listen address of the observability endpoints (empty disables HTTP)")
	fs.StringVar(&c.data, "data", "", "state directory: the ceremony's output (-deal), the player's store and public log (-player, -reshare-join)")
	fs.BoolVar(&c.insecureRand, "insecure-rand", false, "use seeded math/rand instead of crypto/rand (reproducible demos ONLY)")
	fs.Int64Var(&c.rngSeed, "rng-seed", 1, "seed for -insecure-rand")
	fs.BoolVar(&c.deal, "deal", false, "run the one-time dealer ceremony for -config, write state files under -data, and exit")
	fs.IntVar(&c.player, "player", -1, "multi-process mode: run only this player's daemon (requires -config and -data)")
	fs.StringVar(&c.configPath, "config", "", "peer config (peers.yaml)")
	fs.IntVar(&c.emit, "emit", 0, "daemon mode: stop after the public log reaches this many coins (0 = run forever)")
	fs.DurationVar(&c.emitInterval, "emit-interval", 0, "daemon mode: minimum delay between coin openings (0 = as fast as rounds allow)")
	fs.DurationVar(&c.roundTimeout, "round-timeout", 0, "daemon mode: barrier timeout before lagging peers are dropped from a round (0 = transport default)")
	fs.DurationVar(&c.dialBackoff, "dial-backoff", 0, "daemon mode: maximum reconnect backoff between dial attempts (0 = transport default)")
	fs.DurationVar(&c.joinTimeout, "join-timeout", 0, "daemon mode: bound on join choreography and reshare mesh formation (0 = default 30s)")
	fs.StringVar(&c.trace, "trace", "", "daemon mode: write an obs JSONL protocol trace to this file")
	fs.StringVar(&c.resharePath, "reshare", "", "next-generation peers.yaml: arm the daemon for a dealer-free handover (with -player), or name the target roster (with -reshare-join)")
	fs.IntVar(&c.reshareJoin, "reshare-join", -1, "run only the handover ceremony, as NEW-roster player J joining the committee (requires -config OLD -reshare NEXT -data DIR)")
	fs.BoolVar(&c.reshareStale, "reshare-stale", false, "with -player and -reshare: this member's store missed a refill; skip serving and recover fresh shares through the ceremony")
	fs.DurationVar(&c.reshareLinger, "reshare-linger", 0, "keep the observability endpoints up this long after a successful handover before exiting")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if fs.NArg() > 0 {
		return nil, fmt.Errorf("beacond: unexpected arguments %v", fs.Args())
	}
	if err := c.validateModes(); err != nil {
		return nil, fmt.Errorf("%w\n%s", err, usageModes)
	}
	return &c, nil
}

// validateModes enforces that exactly one invocation shape was requested
// and that it has what it needs.
func (c *config) validateModes() error {
	modes := 0
	for _, on := range []bool{c.deal, c.player >= 0, c.reshareJoin >= 0} {
		if on {
			modes++
		}
	}
	if modes > 1 {
		return fmt.Errorf("beacond: -deal, -player and -reshare-join are mutually exclusive")
	}
	switch {
	case c.deal:
		if c.configPath == "" {
			return fmt.Errorf("beacond: -deal requires -config peers.yaml")
		}
		if c.data == "" {
			return fmt.Errorf("beacond: -deal requires -data (where to write the ceremony output)")
		}
		if c.resharePath != "" || c.reshareStale {
			return fmt.Errorf("beacond: -reshare flags are only meaningful with -player or -reshare-join")
		}
	case c.player >= 0:
		if c.configPath == "" {
			return fmt.Errorf("beacond: -player requires -config peers.yaml (without it there is no cluster to join; beacongw -cells 1 is the single-process beacon)")
		}
		if c.data == "" {
			return fmt.Errorf("beacond: -player requires -data (the player's state directory from the -deal ceremony)")
		}
		if c.reshareStale && c.resharePath == "" {
			return fmt.Errorf("beacond: -reshare-stale requires -reshare next-peers.yaml (the generation being reshared into)")
		}
	case c.reshareJoin >= 0:
		if c.configPath == "" || c.resharePath == "" {
			return fmt.Errorf("beacond: -reshare-join requires both -config (the OLD roster) and -reshare (the NEXT roster)")
		}
		if c.data == "" {
			return fmt.Errorf("beacond: -reshare-join requires -data (where this joiner's state files will be written)")
		}
		if c.reshareStale {
			return fmt.Errorf("beacond: -reshare-stale is for old members (-player); a joiner has no store to be stale")
		}
	default:
		return fmt.Errorf("beacond: no mode given: one of -deal, -player or -reshare-join is required (the single-process beacon is beacongw -cells 1)")
	}
	return nil
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	c, err := parseFlags(args, stderr)
	if err != nil {
		return err
	}
	switch {
	case c.deal:
		return runDeal(c, stdout)
	case c.player >= 0:
		return runPlayer(ctx, c, stdout)
	default: // validateModes admits exactly these three
		return runReshareJoin(ctx, c, stdout)
	}
}

// runDeal executes the one-time dealer ceremony for a multi-process
// cluster: every player's initial store lands under -data, ready to be
// scattered to the daemons' machines.
func runDeal(c *config, stdout io.Writer) error {
	pc, err := simnet.LoadPeerConfig(c.configPath)
	if err != nil {
		return err
	}
	if err := beacon.DealCluster(pc, c.data, dealerRand(c)); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "beacond: dealt %d seed coins to %d players under %s\n",
		beacon.SeedCoinCount(pc), pc.N(), c.data)
	fmt.Fprintf(stdout, "beacond: distribute each player-NNN.* file set to its machine; the files contain secret shares\n")
	return nil
}

// runPlayer runs one player's daemon until the context is cancelled, the
// -emit target is reached, or — when armed with -reshare — the negotiated
// cutover is reached, at which point it runs the handover ceremony
// in-process and exits for a restart against the next-generation roster.
func runPlayer(ctx context.Context, c *config, stdout io.Writer) error {
	pc, err := simnet.LoadPeerConfig(c.configPath)
	if err != nil {
		return err
	}
	var next *simnet.PeerConfig
	if c.resharePath != "" {
		if next, err = simnet.LoadPeerConfig(c.resharePath); err != nil {
			return err
		}
	}
	logf := func(format string, args ...any) {
		fmt.Fprintf(stdout, "beacond[player %d]: "+format+"\n", append([]any{c.player}, args...)...)
	}
	if c.reshareStale {
		// The store missed a refill (ErrEpochMismatch): there is nothing to
		// serve, so go straight to the ceremony and recover fresh shares.
		logf("stale member: skipping serving, joining the resharing ceremony to generation %d", next.Generation)
		return runReshareCeremony(ctx, c, pc, next, c.player, nil, nil, nil, logf)
	}
	ctr := &metrics.Counters{}
	o, err := obshttp.New(ctr, c.trace, 0)
	if err != nil {
		return err
	}
	defer o.Close()
	dm := beacon.NewDaemonMetrics(o.Reg)
	pm := simnet.NewPeerMetrics(o.Reg)
	d, err := beacon.NewDaemon(beacon.DaemonConfig{
		Peers:          pc,
		Self:           c.player,
		StateDir:       c.data,
		Emit:           c.emit,
		EmitInterval:   c.emitInterval,
		Rand:           playerRand(c),
		Counters:       ctr,
		Tracer:         o.Tracer,
		Metrics:        dm,
		PeerMetrics:    pm,
		RoundTimeout:   c.roundTimeout,
		DialBackoffMax: c.dialBackoff,
		JoinTimeout:    c.joinTimeout,
		ReshareNext:    next,
		Logf:           logf,
	})
	if err != nil {
		return err
	}

	var srv *http.Server
	if c.addr != "" {
		mux := http.NewServeMux()
		mux.HandleFunc("GET /v1/healthz", func(w http.ResponseWriter, r *http.Request) {
			obshttp.WriteJSON(w, struct {
				Status string `json:"status"`
				beacon.DaemonStats
			}{"ok", d.Stats()})
		})
		mux.Handle("GET /metrics", o.Reg.Handler())
		mux.HandleFunc("GET /debug/trace", o.TraceHandler())
		ln, err := net.Listen("tcp", c.addr)
		if err != nil {
			return err
		}
		logf("stats on http://%s", ln.Addr())
		srv = &http.Server{Handler: mux}
		go srv.Serve(ln)
	}

	logf("joining cluster %q as player %d of %d (log %s)",
		pc.Cluster, c.player, pc.N(), beacon.CoinLogFile(c.data, c.player))
	runErr := d.Run(ctx)
	reshared := false
	if next != nil && errors.Is(runErr, beacon.ErrReshareCutover) {
		// The whole committee paused at the same log position; the ceremony
		// runs in-process on the same state dir, with the observability
		// endpoints still up so the reshare metrics can be scraped.
		logf("cutover reached at log %d; starting the resharing ceremony to generation %d",
			d.Stats().Cutover, next.Generation)
		runErr = runReshareCeremony(ctx, c, pc, next, c.player, dm, pm, o.Tracer, logf)
		reshared = runErr == nil
		if reshared && c.reshareLinger > 0 {
			logf("observability endpoints linger %v for a final scrape", c.reshareLinger)
			select {
			case <-ctx.Done():
			case <-time.After(c.reshareLinger):
			}
		}
	}
	if srv != nil {
		shutCtx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		srv.Shutdown(shutCtx)
	}
	if runErr != nil {
		return fmt.Errorf("beacond: player %d: %w", c.player, runErr)
	}
	if reshared {
		return nil
	}
	st := d.Stats()
	logf("stopped cleanly at log position %d (epoch %d, %d coins in store)", st.LogLen, st.Epoch, st.Remaining)
	return nil
}

// runReshareJoin is the pure joiner's entry point: a machine that is not
// in the old roster takes part in the handover ceremony, receives its
// shares and the public log, and writes its first state files under -data.
func runReshareJoin(ctx context.Context, c *config, stdout io.Writer) error {
	old, err := simnet.LoadPeerConfig(c.configPath)
	if err != nil {
		return err
	}
	next, err := simnet.LoadPeerConfig(c.resharePath)
	if err != nil {
		return err
	}
	j := c.reshareJoin
	var addr string
	for _, p := range next.Peers {
		if p.ID == j {
			addr = p.Addr
		}
	}
	if addr == "" {
		return fmt.Errorf("beacond: -reshare-join %d is not in the next roster (%d peers)", j, next.N())
	}
	for _, p := range old.Peers {
		if p.Addr == addr {
			return fmt.Errorf("beacond: %s is already old-roster player %d — an existing member hands over with -player %d -reshare, not -reshare-join",
				addr, p.ID, p.ID)
		}
	}
	logf := func(format string, args ...any) {
		fmt.Fprintf(stdout, "beacond[joiner %d]: "+format+"\n", append([]any{j}, args...)...)
	}
	logf("joining the resharing ceremony to generation %d as new player %d (%s)", next.Generation, j, addr)
	return runReshareCeremony(ctx, c, old, next, -1, nil, nil, nil, logf)
}

// runReshareCeremony executes this process's side of the dealer-free
// handover (beacon.RunReshare) and tells the operator what to run next.
func runReshareCeremony(ctx context.Context, c *config, old, next *simnet.PeerConfig,
	oldSelf int, dm *beacon.DaemonMetrics, pm *simnet.PeerMetrics, tracer *obs.Tracer,
	logf func(string, ...any)) error {
	newSelf := c.reshareJoin
	if oldSelf >= 0 && oldSelf < old.N() { // out of range: RunReshare rejects it
		// An old member's index in the next roster (-1: it is leaving) is
		// the ceremony's own old → new map, matched by dial address.
		_, newOf, err := beacon.CombinedConfig(old, next, 0)
		if err != nil {
			return err
		}
		newSelf = newOf[oldSelf]
	}
	res, err := beacon.RunReshare(ctx, beacon.ReshareConfig{
		Old:          old,
		Next:         next,
		OldSelf:      oldSelf,
		NewSelf:      newSelf,
		StateDir:     c.data,
		Stale:        c.reshareStale,
		Rand:         reshareRand(c, oldSelf, newSelf),
		JoinTimeout:  c.joinTimeout,
		RoundTimeout: c.roundTimeout,
		Metrics:      dm,
		PeerMetrics:  pm,
		Tracer:       tracer,
		Logf:         logf,
	})
	if err != nil {
		return err
	}
	if res.Resumed {
		logf("reshare to generation %d had already completed; journal cleared", res.Generation)
	} else {
		logf("handover complete: generation %d at cutover %d (%d coins reshared, cheaters %v, attempt %d)",
			res.Generation, res.Cutover, res.Coins, res.Cheaters, res.Attempt)
	}
	if newSelf < 0 {
		logf("this member left the committee; its share store has been retired (the public log under %s remains)", c.data)
		return nil
	}
	logf("restart with: beacond -player %d -config %s -data %s", newSelf, c.resharePath, c.data)
	return nil
}

// dealerRand is the ceremony's randomness source; playerRand is one
// daemon's private source. -insecure-rand pins both to a deterministic
// stream for reproducible demos and the soak harness.
func dealerRand(c *config) io.Reader {
	if c.insecureRand {
		return rand.New(rand.NewSource(c.rngSeed))
	}
	return cryptorand.Reader
}

func playerRand(c *config) io.Reader {
	if c.insecureRand {
		return rand.New(rand.NewSource(c.rngSeed + int64(c.player)*1009))
	}
	return cryptorand.Reader
}

// reshareRand is one participant's private sub-dealing randomness for the
// handover ceremony. With -insecure-rand the stream is keyed away from the
// serving daemons' streams (and joiners away from old members) so no
// polynomial coefficients repeat across the two protocols.
func reshareRand(c *config, oldSelf, newSelf int) io.Reader {
	if !c.insecureRand {
		return cryptorand.Reader
	}
	idx := oldSelf
	if idx < 0 {
		idx = 100_000 + newSelf
	}
	return rand.New(rand.NewSource(c.rngSeed + 500_009 + int64(idx)*1009))
}
