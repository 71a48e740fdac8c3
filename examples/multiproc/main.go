// Command multiproc is the N-process soak harness for the per-player
// beacond daemons: it builds beacond, runs the dealer ceremony, launches
// one OS process per player, SIGKILLs a minority of them mid-batch,
// restarts the victims, and verifies that
//
//   - the survivors keep opening coins while the victims are down,
//   - the restarted daemons rejoin and every process exits cleanly, and
//   - all n public coin logs are byte-identical to each other AND to a
//     reference run of the same cluster that was never interrupted —
//     crash + recovery must be invisible in the beacon's output stream.
//
// The interrupted leg also exercises the observability surface end to end:
// every daemon serves /metrics on its peers.yaml http: address and the
// harness scrapes all of them mid-run (the exposition must parse and carry
// the per-peer watermark-lag and round-latency series), runs beaconctl
// status against the live cluster during the outage (the victims must be
// flagged) and again after the rejoin (the cluster must read healthy), and
// finally merges all n per-daemon obs traces with obs.MergeJSONL into one
// canonically ordered cluster timeline, written to merged-timeline.jsonl
// next to the raw traces.
//
// Run it from the repository root:
//
//	go run ./examples/multiproc
//	go run ./examples/multiproc -n 7 -kill 1 -emit 50 -workdir soak-out -keep
//
// Unless -reshare=false, a third leg (reshare.go) then exercises the
// dealer-free resharing machinery over the same CLI surface: a live 7→9
// committee change with the leaving member SIGKILLed mid-reshare, a
// byte-identity check of the post-handover stream against a never-reshared
// reference, and a proactive share refresh that must rotate every share
// store on disk without perturbing the public log.
//
// The CI multiproc job runs exactly this with -workdir so the per-daemon
// obs traces and stdout logs can be uploaded as artifacts when it fails.
// Parameters are tuned so the kill lands after the cluster's first refill:
// the victims' recovery therefore exercises store-snapshot reload, crash
// reconciliation against the coin log, AND the live rejoin catch-up.
package main

import (
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/beacon"
	"repro/internal/obs"
	"repro/internal/obs/prom"
)

var (
	n        = flag.Int("n", 7, "cluster size (n ≥ 6t+1)")
	t        = flag.Int("t", 1, "fault bound; ⌊t⌋ daemons are killed")
	kill     = flag.Int("kill", 0, "how many daemons to SIGKILL (default t)")
	emit     = flag.Int("emit", 50, "coins per run; every daemon stops at this log length")
	killAt   = flag.Int("kill-at", 30, "SIGKILL the victims once their logs reach this many coins")
	interval = flag.Duration("interval", 75*time.Millisecond, "emission pacing (-emit-interval)")
	seed     = flag.Int64("seed", 7, "deterministic -rng-seed base for both runs")
	workdir  = flag.String("workdir", "", "working directory (default: a temp dir)")
	keep     = flag.Bool("keep", false, "keep the working directory on success")
	verbose  = flag.Bool("v", false, "stream daemon stdout to the console")
	reshare  = flag.Bool("reshare", true, "also run the dealer-free resharing leg (7→9 handover + proactive refresh)")
)

func main() {
	flag.Parse()
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "soak: FAIL:", err)
		os.Exit(1)
	}
}

func run() error {
	if *kill == 0 {
		*kill = *t
	}
	if *kill > *t {
		return fmt.Errorf("killing %d > t=%d daemons cannot work: the BW decoder tolerates at most t missing/faulty players", *kill, *t)
	}
	dir := *workdir
	if dir == "" {
		var err error
		if dir, err = os.MkdirTemp("", "beacond-soak-*"); err != nil {
			return err
		}
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	fmt.Printf("soak: workdir %s\n", dir)

	bin := filepath.Join(dir, "beacond")
	if out, err := exec.Command("go", "build", "-o", bin, "./cmd/beacond").CombinedOutput(); err != nil {
		return fmt.Errorf("build beacond: %v\n%s", err, out)
	}
	ctl := filepath.Join(dir, "beaconctl")
	if out, err := exec.Command("go", "build", "-o", ctl, "./cmd/beaconctl").CombinedOutput(); err != nil {
		return fmt.Errorf("build beaconctl: %v\n%s", err, out)
	}

	// Leg 1: the interrupted run — kill ⌊t⌋ daemons mid-batch, restart them.
	soakDir := filepath.Join(dir, "soak")
	if err := runCluster(bin, ctl, soakDir, true); err != nil {
		return fmt.Errorf("interrupted run: %w (artifacts in %s)", err, dir)
	}
	// Observability post-mortem of the interrupted leg: every daemon's obs
	// trace must merge into one canonically ordered cluster timeline.
	if err := mergeClusterTimeline(soakDir); err != nil {
		return fmt.Errorf("cluster timeline: %w (artifacts in %s)", err, dir)
	}
	// Leg 2: the reference run — same seeds, same cluster, no interruption.
	refDir := filepath.Join(dir, "reference")
	if err := runCluster(bin, ctl, refDir, false); err != nil {
		return fmt.Errorf("reference run: %w (artifacts in %s)", err, dir)
	}

	// Verdict: unanimity within the interrupted run, and byte-equality of
	// the interrupted stream against the uninterrupted reference.
	ref, err := os.ReadFile(beacon.CoinLogFile(filepath.Join(soakDir, "data"), 0))
	if err != nil {
		return err
	}
	if got := strings.Count(string(ref), "\n"); got != *emit {
		return fmt.Errorf("player 0 opened %d coins, want %d", got, *emit)
	}
	for i := 1; i < *n; i++ {
		b, err := os.ReadFile(beacon.CoinLogFile(filepath.Join(soakDir, "data"), i))
		if err != nil {
			return err
		}
		if string(b) != string(ref) {
			return fmt.Errorf("player %d's log differs from player 0's within the interrupted run (artifacts in %s)", i, dir)
		}
	}
	unref, err := os.ReadFile(beacon.CoinLogFile(filepath.Join(refDir, "data"), 0))
	if err != nil {
		return err
	}
	if string(unref) != string(ref) {
		return fmt.Errorf("interrupted run's stream differs from the uninterrupted reference (artifacts in %s)", dir)
	}

	fmt.Printf("soak: PASS — %d daemons, %d killed+restarted, %d coins, all logs byte-identical to the uninterrupted reference\n",
		*n, *kill, *emit)

	// Leg 3: the dealer-free resharing leg — a live 7→9 committee change
	// under a mid-reshare SIGKILL of the leaving member, a stream-identity
	// check against a never-reshared reference, and a proactive share
	// refresh that must rotate every store without touching the public log.
	if *reshare {
		if err := runReshareLeg(bin, ctl, filepath.Join(dir, "reshare")); err != nil {
			return fmt.Errorf("reshare leg: %w (artifacts in %s)", err, dir)
		}
	}
	if !*keep && *workdir == "" {
		os.RemoveAll(dir)
	}
	return nil
}

// runCluster performs one full cluster lifecycle under base: ceremony,
// launch, optional kill/restart (with live observability checks), and a
// clean unanimous exit.
func runCluster(bin, ctl, base string, interrupt bool) error {
	dataDir := filepath.Join(base, "data")
	traceDir := filepath.Join(base, "traces")
	logDir := filepath.Join(base, "logs")
	for _, d := range []string{dataDir, traceDir, logDir} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return err
		}
	}
	cfgPath := filepath.Join(base, "peers.yaml")
	httpAddrs, err := writePeersYAML(cfgPath)
	if err != nil {
		return err
	}

	if out, err := exec.Command(bin, "-deal", "-config", cfgPath, "-data", dataDir,
		"-insecure-rand", "-rng-seed", fmt.Sprint(*seed)).CombinedOutput(); err != nil {
		return fmt.Errorf("ceremony: %v\n%s", err, out)
	}

	daemons := make([]*exec.Cmd, *n)
	launch := func(i int) error {
		cmd := exec.Command(bin,
			"-player", fmt.Sprint(i), "-config", cfgPath, "-data", dataDir,
			"-emit", fmt.Sprint(*emit), "-emit-interval", interval.String(),
			"-round-timeout", "2s", "-dial-backoff", "250ms",
			"-insecure-rand", "-rng-seed", fmt.Sprint(*seed),
			"-addr", httpAddrs[i], "-trace", filepath.Join(traceDir, fmt.Sprintf("player-%d.jsonl", i)))
		logF, err := os.OpenFile(filepath.Join(logDir, fmt.Sprintf("player-%d.log", i)),
			os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
		if err != nil {
			return err
		}
		if *verbose {
			cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		} else {
			cmd.Stdout, cmd.Stderr = logF, logF
		}
		if err := cmd.Start(); err != nil {
			logF.Close()
			return err
		}
		daemons[i] = cmd
		return nil
	}
	for i := 0; i < *n; i++ {
		if err := launch(i); err != nil {
			return fmt.Errorf("launch player %d: %w", i, err)
		}
	}

	if interrupt {
		// Let the cluster work through its first refill, then SIGKILL the
		// victims mid-stream — no graceful persist, no socket shutdown.
		victims := make([]int, *kill)
		for v := range victims {
			victims[v] = 1 + v // player 0 stays up as the comparison anchor
		}
		for _, v := range victims {
			if err := waitLogLines(beacon.CoinLogFile(dataDir, v), *killAt, 60*time.Second); err != nil {
				return err
			}
		}
		// Mid-run, cluster at full strength: every daemon's /metrics must
		// parse and carry the cross-process correlation series.
		if err := checkMetrics(httpAddrs); err != nil {
			return fmt.Errorf("mid-run metrics scrape: %w", err)
		}
		fmt.Printf("soak: scraped /metrics from all %d daemons mid-run\n", *n)
		for _, v := range victims {
			if err := daemons[v].Process.Kill(); err != nil {
				return fmt.Errorf("kill player %d: %w", v, err)
			}
			daemons[v].Wait()
			fmt.Printf("soak: killed player %d at ≥%d coins\n", v, *killAt)
		}
		// Survivors must demote the victims and keep the stream moving on
		// their own before we bring the victims back.
		if err := waitLogLines(beacon.CoinLogFile(dataDir, 0), *killAt+3, 60*time.Second); err != nil {
			return fmt.Errorf("survivors stalled after the kill: %w", err)
		}
		// The operator's view during the outage: beaconctl status must flag
		// every victim as unhealthy against the live survivors.
		out, err := exec.Command(ctl, "status", "-config", cfgPath, "-lag", "3").CombinedOutput()
		if err != nil {
			return fmt.Errorf("beaconctl status during outage: %v\n%s", err, out)
		}
		if got := strings.Count(string(out), "DOWN"); got < *kill {
			return fmt.Errorf("beaconctl status flagged %d daemons DOWN during the outage, want ≥ %d:\n%s",
				got, *kill, out)
		}
		fmt.Printf("soak: beaconctl flagged the outage (%d DOWN)\n", strings.Count(string(out), "DOWN"))
		for _, v := range victims {
			if err := launch(v); err != nil {
				return fmt.Errorf("restart player %d: %w", v, err)
			}
			fmt.Printf("soak: restarted player %d\n", v)
		}
		// And after the rejoin: once the victims' logs catch back up, a
		// status sweep must read healthy again — no DOWN, no STRAGGLER.
		for _, v := range victims {
			if err := waitLogLines(beacon.CoinLogFile(dataDir, v), *killAt+3, 60*time.Second); err != nil {
				return fmt.Errorf("victim %d never caught up after restart: %w", v, err)
			}
		}
		if err := waitStatusHealthy(ctl, cfgPath, 30*time.Second); err != nil {
			return err
		}
		fmt.Printf("soak: beaconctl reads the rejoined cluster healthy\n")
	}

	var firstErr error
	for i, cmd := range daemons {
		if err := cmd.Wait(); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("player %d exited: %w (see %s)", i, err,
				filepath.Join(logDir, fmt.Sprintf("player-%d.log", i)))
		}
	}
	return firstErr
}

// waitLogLines polls the public coin log at path until it holds at least
// `want` entries.
func waitLogLines(path string, want int, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if b, err := os.ReadFile(path); err == nil && strings.Count(string(b), "\n") >= want {
			return nil
		}
		time.Sleep(25 * time.Millisecond)
	}
	return fmt.Errorf("%s never reached %d coins within %v", path, want, timeout)
}

// writePeersYAML reserves 2n loopback ports (transport + observability per
// peer) and writes the cluster config; the http: addresses are returned so
// the harness can scrape the daemons directly. Batch 40 over seed 24 with
// threshold 6 puts the first refill at coin 20, safely before the default
// -kill-at of 30, and leaves enough coins that no second refill lands near
// the end of the run.
func writePeersYAML(path string) ([]string, error) {
	addrs, err := reserveAddrs(2 * *n)
	if err != nil {
		return nil, err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "cluster: soak\nsecret: %s\n", strings.Repeat("ab", 32))
	fmt.Fprintf(&b, "t: %d\nk: 32\nbatch: 40\nthreshold: 6\nseedcoins: 24\npeers:\n", *t)
	httpAddrs := make([]string, *n)
	for i := range httpAddrs {
		httpAddrs[i] = addrs[2*i+1]
		fmt.Fprintf(&b, "  - id: %d\n    addr: %s\n    http: %s\n", i, addrs[2*i], httpAddrs[i])
	}
	return httpAddrs, os.WriteFile(path, []byte(b.String()), 0o644)
}

// reserveAddrs returns count distinct loopback addresses. Every listener
// stays open until all are picked, so the kernel cannot hand out one port
// twice; closing them leaves only the small race with other processes that
// any port-0 reservation has.
func reserveAddrs(count int) ([]string, error) {
	addrs := make([]string, count)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		defer ln.Close()
		addrs[i] = ln.Addr().String()
	}
	return addrs, nil
}

// checkMetrics scrapes every daemon's /metrics and asserts the exposition
// parses and carries the series the cluster dashboards key on: the
// per-peer watermark-lag gauges, the round-duration histogram, and the
// emit-latency histogram with real observations behind it.
func checkMetrics(httpAddrs []string) error {
	client := &http.Client{Timeout: 5 * time.Second}
	for i, addr := range httpAddrs {
		resp, err := client.Get("http://" + addr + "/metrics")
		if err != nil {
			return fmt.Errorf("player %d: %w", i, err)
		}
		samples, err := prom.ParseText(resp.Body)
		resp.Body.Close()
		if err != nil {
			return fmt.Errorf("player %d: exposition does not parse: %w", i, err)
		}
		if _, ok := prom.Value(samples, "beacond_round"); !ok {
			return fmt.Errorf("player %d: beacond_round missing", i)
		}
		if lags := prom.Find(samples, "simnet_peer_watermark_lag"); len(lags) != *n {
			return fmt.Errorf("player %d: want %d simnet_peer_watermark_lag series (one per roster entry), got %d",
				i, *n, len(lags))
		}
		for _, name := range []string{"simnet_round_duration_seconds_count", "beacond_emit_latency_seconds_count"} {
			if v, ok := prom.Value(samples, name); !ok || v <= 0 {
				return fmt.Errorf("player %d: %s absent or zero mid-run (%v, %v)", i, name, v, ok)
			}
		}
	}
	return nil
}

// waitStatusHealthy polls beaconctl status until no row is flagged DOWN or
// STRAGGLER — the operator's definition of a recovered cluster.
func waitStatusHealthy(ctl, cfgPath string, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	var last []byte
	for time.Now().Before(deadline) {
		out, err := exec.Command(ctl, "status", "-config", cfgPath, "-lag", "5").CombinedOutput()
		if err == nil && !strings.Contains(string(out), "DOWN") && !strings.Contains(string(out), "STRAGGLER") {
			return nil
		}
		last = out
		time.Sleep(100 * time.Millisecond)
	}
	return fmt.Errorf("cluster never read healthy after the rejoin; last status:\n%s", last)
}

// mergeClusterTimeline fuses the interrupted leg's n per-daemon obs traces
// into one canonically ordered cluster timeline (merged-timeline.jsonl next
// to the raw traces — the artifact CI uploads on failure) and verifies the
// merge invariants: every daemon contributed, order is (epoch, round,
// origin), and sequence numbers were renumbered globally.
func mergeClusterTimeline(base string) error {
	streams := map[int]io.Reader{}
	files := make([]*os.File, 0, *n)
	defer func() {
		for _, f := range files {
			f.Close()
		}
	}()
	for i := 0; i < *n; i++ {
		f, err := os.Open(filepath.Join(base, "traces", fmt.Sprintf("player-%d.jsonl", i)))
		if err != nil {
			return err
		}
		files = append(files, f)
		streams[i] = f
	}
	merged, err := obs.MergeJSONL(streams)
	if err != nil {
		return err
	}
	outPath := filepath.Join(base, "traces", "merged-timeline.jsonl")
	out, err := os.Create(outPath)
	if err != nil {
		return err
	}
	j := obs.NewJSONL(out)
	for _, e := range merged {
		j.Emit(e)
	}
	if err := j.Flush(); err != nil {
		out.Close()
		return err
	}
	if err := out.Close(); err != nil {
		return err
	}

	origins := map[int]bool{}
	for i, e := range merged {
		origins[e.Origin] = true
		if e.Seq != uint64(i+1) {
			return fmt.Errorf("event %d: seq not renumbered (got %d)", i, e.Seq)
		}
		if i == 0 {
			continue
		}
		p := merged[i-1]
		if e.Epoch < p.Epoch ||
			(e.Epoch == p.Epoch && e.Round < p.Round) ||
			(e.Epoch == p.Epoch && e.Round == p.Round && e.Origin < p.Origin) {
			return fmt.Errorf("event %d: canonical (epoch, round, origin) order violated: (%d,%d,%d) after (%d,%d,%d)",
				i, e.Epoch, e.Round, e.Origin, p.Epoch, p.Round, p.Origin)
		}
	}
	if len(origins) != *n {
		return fmt.Errorf("merged timeline carries %d origins, want all %d daemons", len(origins), *n)
	}
	fmt.Printf("soak: merged %d trace events from %d daemons into %s\n", len(merged), *n, outPath)
	return nil
}
