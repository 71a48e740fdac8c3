// The dealer-free resharing leg of the multi-process soak: a live 7→9
// committee change followed by a proactive share refresh, with a minority
// member SIGKILLed mid-reshare, run entirely through the beacond CLI
// surface (-reshare / -reshare-join) over real loopback TCP.
//
// The leg's phases (all sequential, every daemon its own OS process and —
// unlike the base soak — its own state directory, exactly as deployed):
//
//	H  handover: 7 generation-0 daemons serve armed with the generation-1
//	   roster (6 stayers + 3 joiners; old player 6 leaves). The leaving
//	   member is SIGKILLed mid-reshare — paused at the committed cutover,
//	   journal written, ceremony not yet run — and the handover must
//	   complete without it (a dead old member is a tolerated silent
//	   sub-dealer). The reshare metrics are scraped off a lingering stayer
//	   before it exits.
//	A  the generation-1 committee serves rsEmitG1 coins; every daemon's
//	   beacond_generation gauge must read 1 mid-run.
//	R  reference: the ORIGINAL 7-player committee, restarted from a copy
//	   of the same ceremony output, emits rsEmitG1+6 coins uninterrupted.
//	   The generation-1 stream must byte-match it: identical up to the
//	   cutover, then offset by the 2 tail coins each handover attempt
//	   consumed — the committee changed, the beacon's output stream
//	   did not.
//	B  proactive refresh: the 9 daemons hand over to an identical
//	   generation-2 roster. Every share store must change on disk while
//	   the public stream is preserved.
//	C  the generation-2 committee serves to rsEmitG2 coins — far enough
//	   to force an inline refill, proving the twice-reshared stores still
//	   run Coin-Gen — and all 9 logs must come out byte-identical with
//	   the phase-B stream as a prefix.
package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/beacon"
	"repro/internal/obs/prom"
)

const (
	rsOldN   = 7  // generation-0 committee size
	rsNewN   = 9  // generation-1/2 committee size (6 stayers + 3 joiners)
	rsLeaver = 6  // old-roster member that leaves — and is SIGKILLed mid-reshare
	rsEmitG1 = 16 // coins the generation-1 committee serves before the refresh
	rsEmitG2 = 28 // final target; forces a post-refresh inline refill (32 seeds − 2×2 consumed)
	rsSeeds  = 32 // seedcoins: every pre-refill coin is determined at the deal
)

// rsCluster is the reshare leg's process-level view of the three rosters:
// config paths, every participant's state directory, and the daemons'
// observability addresses.
type rsCluster struct {
	base             string
	g0, g1, g2       string   // peers.yaml paths per generation
	oldDirs          []string // state dir per old-roster member
	newDirs          []string // state dir per new-roster member (stayers alias oldDirs)
	oldHTTP, newHTTP []string
	logDir           string
}

func runReshareLeg(bin, ctl, base string) error {
	rc, err := rsSetup(bin, base)
	if err != nil {
		return err
	}

	// Phase H: armed generation-0 daemons, victim killed mid-reshare.
	cut1, att1, err := rc.runHandover(bin, ctl)
	if err != nil {
		return fmt.Errorf("handover: %w", err)
	}
	fmt.Printf("soak: reshare handover 7→9 complete at cutover %d on attempt %d (leaver %d killed mid-reshare)\n",
		cut1, att1, rsLeaver)

	// Phase A: the generation-1 committee serves.
	if err := rc.runCommittee(bin, rc.g1, rsEmitG1, 1); err != nil {
		return fmt.Errorf("generation-1 serving: %w", err)
	}
	gen1, err := rsCoinValues(beacon.CoinLogFile(rc.newDirs[0], 0))
	if err != nil {
		return err
	}
	if err := rc.checkLogsIdentical(rsEmitG1); err != nil {
		return fmt.Errorf("generation-1 logs: %w", err)
	}
	fmt.Printf("soak: generation-1 committee served %d coins, all 9 logs byte-identical\n", rsEmitG1)

	// Phase R: the uninterrupted reference stream from the original
	// committee. Each handover attempt consumed 2 tail coins (challenge +
	// mask) at fixed attempt-indexed positions, so the new committee's coin
	// i ≥ cut1 is the old committee's would-be coin i+2(att1+1). The
	// reference emits enough to cover the worst case (3 attempts).
	if err := rc.runReference(bin); err != nil {
		return fmt.Errorf("reference run: %w", err)
	}
	ref, err := rsCoinValues(beacon.CoinLogFile(filepath.Join(rc.base, "ref-0"), 0))
	if err != nil {
		return err
	}
	if len(ref) != rsEmitG1+6 {
		return fmt.Errorf("reference run emitted %d coins, want %d", len(ref), rsEmitG1+6)
	}
	burn := 2 * (att1 + 1)
	for i, v := range gen1 {
		want := ref[i]
		if i >= cut1 {
			want = ref[i+burn]
		}
		if v != want {
			return fmt.Errorf("post-handover stream diverged at coin %d (cutover %d, burn %d): %s != reference %s",
				i, cut1, burn, v, want)
		}
	}
	fmt.Printf("soak: generation-1 stream byte-matches the never-reshared reference (offset %d past the cutover)\n", burn)

	// Phase B: proactive refresh g1 → g2 (identical membership).
	storeBefore, err := rsFileHash(filepath.Join(rc.newDirs[0], "player-000.store"))
	if err != nil {
		return err
	}
	cut2, err := rc.runRefresh(bin)
	if err != nil {
		return fmt.Errorf("proactive refresh: %w", err)
	}
	storeAfter, err := rsFileHash(filepath.Join(rc.newDirs[0], "player-000.store"))
	if err != nil {
		return err
	}
	if storeBefore == storeAfter {
		return fmt.Errorf("proactive refresh left player 0's share store byte-identical — shares were not refreshed")
	}
	if _, err := os.Stat(filepath.Join(rc.newDirs[0], "reshare-journal.json")); !os.IsNotExist(err) {
		return fmt.Errorf("reshare journal not cleared after the refresh (err=%v)", err)
	}
	prefix, err := rsCoinValues(beacon.CoinLogFile(rc.newDirs[0], 0))
	if err != nil {
		return err
	}
	fmt.Printf("soak: proactive refresh complete at cutover %d, share stores rotated on disk\n", cut2)

	// Phase C: the generation-2 committee serves through an inline refill.
	if err := rc.runCommittee(bin, rc.g2, rsEmitG2, 2); err != nil {
		return fmt.Errorf("generation-2 serving: %w", err)
	}
	if err := rc.checkLogsIdentical(rsEmitG2); err != nil {
		return fmt.Errorf("generation-2 logs: %w", err)
	}
	final, err := rsCoinValues(beacon.CoinLogFile(rc.newDirs[0], 0))
	if err != nil {
		return err
	}
	for i, v := range prefix {
		if final[i] != v {
			return fmt.Errorf("refresh changed public coin %d: %s != %s", i, final[i], v)
		}
	}
	fmt.Printf("soak: reshare leg PASS — 7→9 handover under a mid-reshare SIGKILL, proactive refresh, %d coins through 3 committee generations\n", rsEmitG2)
	return nil
}

// rsSetup reserves ports, writes the three rosters, runs the one-time
// dealer ceremony and scatters each old member's state files into its own
// directory (the deal output itself is kept pristine for the reference run).
func rsSetup(bin, base string) (*rsCluster, error) {
	rc := &rsCluster{base: base, logDir: filepath.Join(base, "logs")}
	dealDir := filepath.Join(base, "deal")
	for _, d := range []string{base, rc.logDir, dealDir} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, err
		}
	}

	// One peer and one HTTP address per old member and per joiner, all
	// reserved at once.
	joiners := rsNewN - (rsOldN - 1)
	addrs, err := reserveAddrs(2 * (rsOldN + joiners))
	if err != nil {
		return nil, err
	}
	oldAddrs := make([]string, rsOldN)
	rc.oldHTTP = make([]string, rsOldN)
	for i := range oldAddrs {
		oldAddrs[i], rc.oldHTTP[i] = addrs[2*i], addrs[2*i+1]
	}
	// Generation 1: old members 0..5 keep their addresses (the dial address
	// is a member's identity across generations); member 6 leaves; three
	// joiners take new-roster ids 6..8 on fresh ports.
	newAddrs := append([]string(nil), oldAddrs[:rsOldN-1]...)
	rc.newHTTP = append([]string(nil), rc.oldHTTP[:rsOldN-1]...)
	for j := rsOldN; len(newAddrs) < rsNewN; j++ {
		newAddrs = append(newAddrs, addrs[2*j])
		rc.newHTTP = append(rc.newHTTP, addrs[2*j+1])
	}

	roster := func(path string, addrs, https []string, generation int) error {
		var b strings.Builder
		fmt.Fprintf(&b, "cluster: rsoak\nsecret: %s\n", strings.Repeat("cd", 32))
		fmt.Fprintf(&b, "t: %d\nk: 32\nbatch: 40\nthreshold: 6\nseedcoins: %d\n", 1, rsSeeds)
		if generation > 0 {
			fmt.Fprintf(&b, "generation: %d\n", generation)
		}
		b.WriteString("peers:\n")
		for i, a := range addrs {
			fmt.Fprintf(&b, "  - id: %d\n    addr: %s\n    http: %s\n", i, a, https[i])
		}
		return os.WriteFile(path, []byte(b.String()), 0o644)
	}
	rc.g0 = filepath.Join(base, "peers-g0.yaml")
	rc.g1 = filepath.Join(base, "peers-g1.yaml")
	rc.g2 = filepath.Join(base, "peers-g2.yaml")
	if err := roster(rc.g0, oldAddrs, rc.oldHTTP, 0); err != nil {
		return nil, err
	}
	if err := roster(rc.g1, newAddrs, rc.newHTTP, 1); err != nil {
		return nil, err
	}
	if err := roster(rc.g2, newAddrs, rc.newHTTP, 2); err != nil {
		return nil, err
	}

	if out, err := exec.Command(bin, "-deal", "-config", rc.g0, "-data", dealDir,
		"-insecure-rand", "-rng-seed", fmt.Sprint(*seed)).CombinedOutput(); err != nil {
		return nil, fmt.Errorf("ceremony: %v\n%s", err, out)
	}

	// One state directory per machine, as deployed: stayers keep theirs
	// across generations, joiners start from an empty one.
	rc.oldDirs = make([]string, rsOldN)
	for i := range rc.oldDirs {
		rc.oldDirs[i] = filepath.Join(base, fmt.Sprintf("node-%d", i))
		if err := rsScatter(dealDir, rc.oldDirs[i], i); err != nil {
			return nil, err
		}
	}
	rc.newDirs = append([]string(nil), rc.oldDirs[:rsOldN-1]...)
	for j := rsOldN - 1; j < rsNewN; j++ {
		d := filepath.Join(base, fmt.Sprintf("joiner-%d", j))
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, err
		}
		rc.newDirs = append(rc.newDirs, d)
	}
	return rc, nil
}

// runHandover is phase H: arm the old committee, SIGKILL the leaver while
// the reshare is in flight, attach the joiners, and scrape the reshare
// metrics off a lingering stayer. Returns the handover cutover.
func (rc *rsCluster) runHandover(bin, ctl string) (int, int, error) {
	// -join-timeout 40s: the ceremony's mesh window is half of it. Entry is
	// skewed by up to a second or two between the stayers' exit-quorum
	// polls and the joiners' process startup, which the window absorbs
	// easily. A full mesh ends the wait early; only the dead leaver makes
	// participants sit out the whole window.
	procs := make([]*exec.Cmd, rsOldN)
	for i := 0; i < rsOldN; i++ {
		cmd, err := rsLaunch(bin, rc.logDir, fmt.Sprintf("handover-%d", i),
			"-player", fmt.Sprint(i), "-config", rc.g0, "-data", rc.oldDirs[i],
			"-emit", "0", "-emit-interval", interval.String(),
			"-round-timeout", "2s", "-dial-backoff", "250ms", "-join-timeout", "40s",
			"-reshare", rc.g1, "-reshare-linger", "10s",
			"-insecure-rand", "-rng-seed", fmt.Sprint(*seed), "-addr", rc.oldHTTP[i])
		if err != nil {
			return 0, 0, err
		}
		procs[i] = cmd
	}

	// Let the committee arm and start emitting, then check the operator's
	// view: every row must carry a reshare flag.
	if err := waitLogLines(beacon.CoinLogFile(rc.oldDirs[rsLeaver], rsLeaver), 2, 60*time.Second); err != nil {
		return 0, 0, err
	}
	out, err := exec.Command(ctl, "status", "-config", rc.g0, "-lag", "5").CombinedOutput()
	if err != nil {
		return 0, 0, fmt.Errorf("beaconctl status while armed: %v\n%s", err, out)
	}
	if got := strings.Count(string(out), "reshare"); got < rsOldN {
		return 0, 0, fmt.Errorf("beaconctl flagged only %d/%d armed daemons:\n%s", got, rsOldN, out)
	}
	fmt.Printf("soak: beaconctl shows all %d daemons armed for the handover\n", rsOldN)

	// SIGKILL the leaving member mid-reshare, but only once EVERY daemon is
	// paused at the committed cutover. A kill before the pause stalls the
	// survivors for ~20s while they demote the dead peer to mint the coins
	// up to the cutover — and that stall staggers their ceremony entries
	// past each other's per-attempt mesh windows. Paused, they hold no
	// in-flight round: the exit quorum closes on the surviving six alone
	// and everyone crosses into the ceremony within a poll cycle.
	if err := rsWaitAllPaused(rc.oldHTTP, 60*time.Second); err != nil {
		return 0, 0, err
	}
	if err := procs[rsLeaver].Process.Kill(); err != nil {
		return 0, 0, err
	}
	procs[rsLeaver].Wait()
	fmt.Printf("soak: SIGKILLed leaving member %d mid-reshare\n", rsLeaver)

	// Attach the joiners immediately; the stayers enter the ceremony within
	// about a second, so both sides open the same attempt's mesh (the
	// per-attempt cluster label rejects everything else).
	joiners := make([]*exec.Cmd, 0, rsNewN-rsOldN+1)
	for j := rsOldN - 1; j < rsNewN; j++ {
		cmd, err := rsLaunch(bin, rc.logDir, fmt.Sprintf("join-%d", j),
			"-reshare-join", fmt.Sprint(j), "-config", rc.g0, "-reshare", rc.g1,
			"-data", rc.newDirs[j], "-round-timeout", "2s", "-join-timeout", "40s",
			"-insecure-rand", "-rng-seed", fmt.Sprint(*seed))
		if err != nil {
			return 0, 0, err
		}
		joiners = append(joiners, cmd)
	}

	// The ceremony metrics must be scrapeable: a stayer lingers after the
	// handover, and its counter must show one successful attempt.
	if err := rsWaitMetric(rc.oldHTTP[0], "beacond_reshare_attempts_total", 1, 120*time.Second,
		"result", "ok"); err != nil {
		return 0, 0, fmt.Errorf("reshare metrics never appeared on stayer 0: %w", err)
	}
	fmt.Printf("soak: scraped beacond_reshare_attempts_total{result=\"ok\"} off the lingering stayer\n")

	for i, cmd := range procs {
		if i == rsLeaver {
			continue
		}
		if err := cmd.Wait(); err != nil {
			return 0, 0, fmt.Errorf("stayer %d exited: %w (see %s)", i, err, rsLogPath(rc.logDir, fmt.Sprintf("handover-%d", i)))
		}
	}
	for j, cmd := range joiners {
		if err := cmd.Wait(); err != nil {
			return 0, 0, fmt.Errorf("joiner %d exited: %w (see %s)", rsOldN-1+j, err, rsLogPath(rc.logDir, fmt.Sprintf("join-%d", rsOldN-1+j)))
		}
	}

	// The ceremony rewrote every continuing member's log truncated at the
	// cutover; its length IS the negotiated position. The succeeded attempt
	// number (from the stayer's log) tells how many tail coins were burned:
	// attempt a consumes store positions cutover+2a and cutover+2a+1, so
	// the new committee resumes at the old committee's coin cut+2(a+1).
	vals, err := rsCoinValues(beacon.CoinLogFile(rc.newDirs[0], 0))
	if err != nil {
		return 0, 0, err
	}
	if len(vals) < 1 || len(vals) > 12 {
		return 0, 0, fmt.Errorf("implausible handover cutover %d", len(vals))
	}
	attempt, err := rsParseAttempt(rsLogPath(rc.logDir, "handover-0"))
	if err != nil {
		return 0, 0, err
	}
	return len(vals), attempt, nil
}

// runCommittee launches the full new-roster committee against cfg, waits
// for the emit target, and asserts the generation gauge mid-run.
func (rc *rsCluster) runCommittee(bin, cfg string, emitTarget, wantGen int) error {
	tag := fmt.Sprintf("g%d", wantGen)
	procs := make([]*exec.Cmd, rsNewN)
	for i := 0; i < rsNewN; i++ {
		cmd, err := rsLaunch(bin, rc.logDir, fmt.Sprintf("%s-%d", tag, i),
			"-player", fmt.Sprint(i), "-config", cfg, "-data", rc.newDirs[i],
			"-emit", fmt.Sprint(emitTarget), "-emit-interval", interval.String(),
			"-round-timeout", "2s", "-dial-backoff", "250ms",
			"-insecure-rand", "-rng-seed", fmt.Sprint(*seed), "-addr", rc.newHTTP[i])
		if err != nil {
			return err
		}
		procs[i] = cmd
	}
	// As soon as each daemon's exposition is up it must report the new
	// committee generation (scraped before the short run can finish).
	for i, addr := range rc.newHTTP {
		if err := rsWaitMetric(addr, "beacond_generation", float64(wantGen), 30*time.Second); err != nil {
			return fmt.Errorf("player %d generation gauge: %w", i, err)
		}
	}
	for i, cmd := range procs {
		if err := cmd.Wait(); err != nil {
			return fmt.Errorf("player %d exited: %w (see %s)", i, err, rsLogPath(rc.logDir, fmt.Sprintf("%s-%d", tag, i)))
		}
	}
	return nil
}

// runReference replays the ORIGINAL generation-0 committee from a pristine
// copy of the deal output, uninterrupted, to rsEmitG1+6 coins (enough to
// cover the tail burned by up to 3 handover attempts).
func (rc *rsCluster) runReference(bin string) error {
	dirs := make([]string, rsOldN)
	for i := range dirs {
		dirs[i] = filepath.Join(rc.base, fmt.Sprintf("ref-%d", i))
		if err := rsScatter(filepath.Join(rc.base, "deal"), dirs[i], i); err != nil {
			return err
		}
	}
	procs := make([]*exec.Cmd, rsOldN)
	for i := 0; i < rsOldN; i++ {
		cmd, err := rsLaunch(bin, rc.logDir, fmt.Sprintf("ref-%d", i),
			"-player", fmt.Sprint(i), "-config", rc.g0, "-data", dirs[i],
			"-emit", fmt.Sprint(rsEmitG1+6), "-emit-interval", interval.String(),
			"-round-timeout", "2s", "-dial-backoff", "250ms",
			"-insecure-rand", "-rng-seed", fmt.Sprint(*seed), "-addr", rc.oldHTTP[i])
		if err != nil {
			return err
		}
		procs[i] = cmd
	}
	for i, cmd := range procs {
		if err := cmd.Wait(); err != nil {
			return fmt.Errorf("reference player %d exited: %w (see %s)", i, err, rsLogPath(rc.logDir, fmt.Sprintf("ref-%d", i)))
		}
	}
	return nil
}

// runRefresh is phase B: the generation-1 committee hands over to the
// identical generation-2 roster (a pure proactive share refresh).
func (rc *rsCluster) runRefresh(bin string) (int, error) {
	procs := make([]*exec.Cmd, rsNewN)
	for i := 0; i < rsNewN; i++ {
		cmd, err := rsLaunch(bin, rc.logDir, fmt.Sprintf("refresh-%d", i),
			"-player", fmt.Sprint(i), "-config", rc.g1, "-data", rc.newDirs[i],
			"-emit", "0", "-emit-interval", interval.String(),
			"-round-timeout", "2s", "-dial-backoff", "250ms", "-join-timeout", "40s",
			"-reshare", rc.g2,
			"-insecure-rand", "-rng-seed", fmt.Sprint(*seed+1), "-addr", rc.newHTTP[i])
		if err != nil {
			return 0, err
		}
		procs[i] = cmd
	}
	for i, cmd := range procs {
		if err := cmd.Wait(); err != nil {
			return 0, fmt.Errorf("refresh player %d exited: %w (see %s)", i, err, rsLogPath(rc.logDir, fmt.Sprintf("refresh-%d", i)))
		}
	}
	vals, err := rsCoinValues(beacon.CoinLogFile(rc.newDirs[0], 0))
	if err != nil {
		return 0, err
	}
	if len(vals) < rsEmitG1 {
		return 0, fmt.Errorf("refresh cutover %d is before the generation-1 emit target %d", len(vals), rsEmitG1)
	}
	return len(vals), nil
}

// checkLogsIdentical asserts all rsNewN public logs hold exactly want
// coins and are byte-identical.
func (rc *rsCluster) checkLogsIdentical(want int) error {
	ref, err := os.ReadFile(beacon.CoinLogFile(rc.newDirs[0], 0))
	if err != nil {
		return err
	}
	if got := strings.Count(string(ref), "\n"); got != want {
		return fmt.Errorf("player 0 holds %d coins, want %d", got, want)
	}
	for i := 1; i < rsNewN; i++ {
		b, err := os.ReadFile(beacon.CoinLogFile(rc.newDirs[i], i))
		if err != nil {
			return err
		}
		if string(b) != string(ref) {
			return fmt.Errorf("player %d's log differs from player 0's", i)
		}
	}
	return nil
}

// --- small process/file helpers, local to the reshare leg ---

func rsLogPath(logDir, tag string) string {
	return filepath.Join(logDir, tag+".log")
}

// rsLaunch starts one beacond process with stdout+stderr appended to a
// per-process log file under logDir.
func rsLaunch(bin, logDir, tag string, args ...string) (*exec.Cmd, error) {
	cmd := exec.Command(bin, args...)
	f, err := os.OpenFile(rsLogPath(logDir, tag), os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, err
	}
	if *verbose {
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
	} else {
		cmd.Stdout, cmd.Stderr = f, f
	}
	if err := cmd.Start(); err != nil {
		f.Close()
		return nil, err
	}
	return cmd, nil
}

// rsScatter copies player id's dealt store from the ceremony output into
// the member's own state directory.
func rsScatter(dealDir, dst string, id int) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	name := fmt.Sprintf("player-%03d.store", id)
	b, err := os.ReadFile(filepath.Join(dealDir, name))
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dst, name), b, 0o600)
}

// rsWaitAllPaused polls every daemon's /v1/healthz until each reports an
// armed reshare with a committed cutover AND a public log that has reached
// it — the paused-at-cutover state mid-handover.
func rsWaitAllPaused(httpAddrs []string, timeout time.Duration) error {
	client := &http.Client{Timeout: 2 * time.Second}
	deadline := time.Now().Add(timeout)
	var lastState string
	for time.Now().Before(deadline) {
		paused := 0
		lastState = ""
		for _, addr := range httpAddrs {
			var hz struct {
				Log     int  `json:"log"`
				Armed   bool `json:"armed"`
				Cutover int  `json:"cutover"`
			}
			resp, err := client.Get("http://" + addr + "/v1/healthz")
			if err != nil {
				lastState += fmt.Sprintf("%s: %v; ", addr, err)
				continue
			}
			err = json.NewDecoder(resp.Body).Decode(&hz)
			resp.Body.Close()
			if err != nil {
				lastState += fmt.Sprintf("%s: %v; ", addr, err)
				continue
			}
			if hz.Armed && hz.Cutover >= 0 && hz.Log == hz.Cutover {
				paused++
			} else {
				lastState += fmt.Sprintf("%s: armed=%t cutover=%d log=%d; ", addr, hz.Armed, hz.Cutover, hz.Log)
			}
		}
		if paused == len(httpAddrs) {
			return nil
		}
		time.Sleep(50 * time.Millisecond)
	}
	return fmt.Errorf("cluster never paused at the cutover within %v (%s)", timeout, lastState)
}

// rsParseAttempt extracts the succeeded ceremony attempt number from a
// stayer's "handover complete: ... attempt N)" log line.
func rsParseAttempt(path string) (int, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		idx := strings.LastIndex(line, "attempt ")
		if !strings.Contains(line, "handover complete") || idx < 0 {
			continue
		}
		var a int
		if _, err := fmt.Sscanf(line[idx:], "attempt %d", &a); err == nil {
			return a, nil
		}
	}
	return 0, fmt.Errorf("%s carries no \"handover complete ... attempt N\" line", path)
}

// rsCoinValues parses a public coin log into its hex value column (the
// positions differ between a pre- and post-handover log only in count, so
// comparisons are by value).
func rsCoinValues(path string) ([]string, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var vals []string
	for _, line := range strings.Split(strings.TrimSpace(string(b)), "\n") {
		if line == "" {
			continue
		}
		f := strings.Fields(line)
		if len(f) != 2 {
			return nil, fmt.Errorf("%s: malformed log line %q", path, line)
		}
		vals = append(vals, f[1])
	}
	return vals, nil
}

// rsWaitMetric polls addr's /metrics until the named series (optionally
// narrowed by label pairs) reaches at least want.
func rsWaitMetric(addr, name string, want float64, timeout time.Duration, kv ...string) error {
	client := &http.Client{Timeout: 2 * time.Second}
	deadline := time.Now().Add(timeout)
	var last float64
	for time.Now().Before(deadline) {
		resp, err := client.Get("http://" + addr + "/metrics")
		if err == nil {
			samples, perr := prom.ParseText(resp.Body)
			resp.Body.Close()
			if perr == nil {
				if v, ok := prom.Value(samples, name, kv...); ok {
					last = v
					if v >= want {
						return nil
					}
				}
			}
		}
		time.Sleep(100 * time.Millisecond)
	}
	return fmt.Errorf("%s%v on %s never reached %v (last %v)", name, kv, addr, want, last)
}

func rsFileHash(path string) (string, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("%x", sha256.Sum256(b)), nil
}
