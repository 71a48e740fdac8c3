package beacon

import (
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/coin"
	"repro/internal/gf2k"
	"repro/internal/simnet"
)

// reserveAddrs returns n distinct loopback addresses, none of them in taken.
// Every listener stays open until all n are picked, so the kernel cannot
// hand out one port twice, and a port a roster already names is skipped.
// Closing them leaves a tiny race with other processes, which is fine for
// tests.
func reserveAddrs(t *testing.T, n int, taken ...string) []string {
	t.Helper()
	var lns []net.Listener
	defer func() {
		for _, ln := range lns {
			ln.Close()
		}
	}()
	addrs := make([]string, 0, n)
	for len(addrs) < n {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("reserve port: %v", err)
		}
		lns = append(lns, ln)
		if addr := ln.Addr().String(); !slices.Contains(taken, addr) {
			addrs = append(addrs, addr)
		}
	}
	return addrs
}

// testPeerConfig builds an n-player loopback cluster config with freshly
// reserved ports.
func testPeerConfig(t *testing.T, n, tolerance, batch, threshold, seedCoins int) *simnet.PeerConfig {
	t.Helper()
	pc := &simnet.PeerConfig{
		Cluster:   "test",
		Secret:    []byte("0123456789abcdef0123456789abcdef"),
		T:         tolerance,
		K:         32,
		Batch:     batch,
		Threshold: threshold,
		SeedCoins: seedCoins,
	}
	for i, addr := range reserveAddrs(t, n) {
		pc.Peers = append(pc.Peers, simnet.Peer{ID: i, Addr: addr})
	}
	if err := pc.Validate(); err != nil {
		t.Fatalf("test config invalid: %v", err)
	}
	return pc
}

func testDaemon(t *testing.T, pc *simnet.PeerConfig, dir string, self, emit int, seed int64, interval time.Duration) *Daemon {
	t.Helper()
	d, err := NewDaemon(DaemonConfig{
		Peers:          pc,
		Self:           self,
		StateDir:       dir,
		Emit:           emit,
		EmitInterval:   interval,
		Rand:           rand.New(rand.NewSource(seed + int64(self)*1009)),
		RoundTimeout:   2 * time.Second,
		DialBackoffMax: 200 * time.Millisecond,
		JoinTimeout:    20 * time.Second,
		Logf:           func(f string, a ...interface{}) { t.Logf("player %d: "+f, append([]interface{}{self}, a...)...) },
	})
	if err != nil {
		t.Fatalf("player %d: NewDaemon: %v", self, err)
	}
	return d
}

func readLogFile(t *testing.T, dir string, player int) string {
	t.Helper()
	data, err := os.ReadFile(CoinLogFile(dir, player))
	if err != nil {
		t.Fatalf("read player %d log: %v", player, err)
	}
	return string(data)
}

// runCluster runs one unpaced daemon per player to completion and fails the
// test on any daemon error.
func runCluster(t *testing.T, pc *simnet.PeerConfig, dirs []string, emit int, seed int64) {
	t.Helper()
	runPacedCluster(t, pc, dirs, emit, seed, 0)
}

// runPacedCluster is runCluster with every daemon paced at interval.
func runPacedCluster(t *testing.T, pc *simnet.PeerConfig, dirs []string, emit int, seed int64, interval time.Duration) {
	t.Helper()
	n := pc.N()
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		d := testDaemon(t, pc, dirs[i], i, emit, seed, interval)
		wg.Add(1)
		go func(i int, d *Daemon) {
			defer wg.Done()
			errs[i] = d.Run(context.Background())
		}(i, d)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("player %d: %v", i, err)
		}
	}
}

// TestDaemonClusterRoundTrip runs a full 7-daemon cluster through enough
// coins to cross a refill boundary and checks every public log is
// byte-identical and complete.
func TestDaemonClusterRoundTrip(t *testing.T) {
	const n, emit = 7, 30
	pc := testPeerConfig(t, n, 1, 24, 6, 24)
	base := t.TempDir()
	dirs := make([]string, n)
	for i := range dirs {
		dirs[i] = filepath.Join(base, fmt.Sprintf("p%d", i))
	}
	// The ceremony writes all players into one directory; scatter the
	// per-player files into per-daemon state dirs like a real deployment.
	ceremony := filepath.Join(base, "deal")
	if err := DealCluster(pc, ceremony, rand.New(rand.NewSource(99))); err != nil {
		t.Fatalf("DealCluster: %v", err)
	}
	scatterStateDirs(t, ceremony, dirs)

	runCluster(t, pc, dirs, emit, 7)

	ref := readLogFile(t, dirs[0], 0)
	if got := countLines(ref); got != emit {
		t.Fatalf("player 0 log has %d entries, want %d", got, emit)
	}
	for i := 1; i < n; i++ {
		if log := readLogFile(t, dirs[i], i); log != ref {
			t.Fatalf("player %d log differs from player 0:\n%q\nvs\n%q", i, log, ref)
		}
	}
	// Seed 24 coins, threshold 6: the refill must have fired before coin 30.
	meta, _ := readStamp(t, dirs[0], 0)
	if meta.Epoch != 1 {
		t.Fatalf("expected exactly one refill epoch, got %d", meta.Epoch)
	}
}

// TestDaemonRejoinAfterKill kills one daemon mid-run, restarts it, and
// checks the survivors never stall and the rejoined player's final log is
// byte-identical to everyone else's.
func TestDaemonRejoinAfterKill(t *testing.T) {
	const n, emit, victim = 7, 30, 3
	const pace = 100 * time.Millisecond
	pc := testPeerConfig(t, n, 1, 40, 6, 40) // big seed: no refill near the kill window
	base := t.TempDir()
	dirs := make([]string, n)
	for i := range dirs {
		dirs[i] = filepath.Join(base, fmt.Sprintf("p%d", i))
	}
	ceremony := filepath.Join(base, "deal")
	if err := DealCluster(pc, ceremony, rand.New(rand.NewSource(42))); err != nil {
		t.Fatalf("DealCluster: %v", err)
	}
	scatterStateDirs(t, ceremony, dirs)

	errs := make([]error, n)
	var wg sync.WaitGroup
	ctxVictim, cancelVictim := context.WithCancel(context.Background())
	for i := 0; i < n; i++ {
		d := testDaemon(t, pc, dirs[i], i, emit, 11, pace)
		ctx := context.Background()
		if i == victim {
			ctx = ctxVictim
		}
		wg.Add(1)
		go func(i int, d *Daemon, ctx context.Context) {
			defer wg.Done()
			errs[i] = d.Run(ctx)
		}(i, d, ctx)
	}

	// Cancel the victim once its log shows some progress. Cancellation
	// closes its sockets mid-round — the survivors must demote it and
	// keep opening coins without it.
	waitForLogLines(t, CoinLogFile(dirs[victim], victim), 8, 30*time.Second)
	cancelVictim()

	// Let the survivors demote the victim and open a few coins without
	// it, so the restart exercises a genuine catch-up, then bring the
	// victim back.
	waitForLogLines(t, CoinLogFile(dirs[0], 0), 12, 30*time.Second)
	d := testDaemon(t, pc, dirs[victim], victim, emit, 11, pace)
	var rerr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		rerr = d.Run(context.Background())
	}()

	wg.Wait()
	cancelVictim()
	for i, err := range errs {
		if i != victim && err != nil {
			t.Fatalf("survivor %d: %v", i, err)
		}
	}
	if rerr != nil {
		t.Fatalf("rejoined player: %v", rerr)
	}
	ref := readLogFile(t, dirs[0], 0)
	if got := countLines(ref); got != emit {
		t.Fatalf("player 0 log has %d entries, want %d", got, emit)
	}
	for i := 0; i < n; i++ {
		if log := readLogFile(t, dirs[i], i); log != ref {
			t.Fatalf("player %d log differs after rejoin (len %d vs %d)", i, countLines(log), countLines(ref))
		}
	}
}

// TestDaemonColdRestartResumes stops a whole cluster at its Emit target and
// restarts it with a higher target: the daemons must reload their stores,
// reconcile, agree on the longest log, and continue the same stream.
func TestDaemonColdRestartResumes(t *testing.T) {
	const n = 7
	pc := testPeerConfig(t, n, 1, 40, 6, 40)
	base := t.TempDir()
	dirs := make([]string, n)
	for i := range dirs {
		dirs[i] = filepath.Join(base, fmt.Sprintf("p%d", i))
	}
	ceremony := filepath.Join(base, "deal")
	if err := DealCluster(pc, ceremony, rand.New(rand.NewSource(5))); err != nil {
		t.Fatalf("DealCluster: %v", err)
	}
	scatterStateDirs(t, ceremony, dirs)

	runCluster(t, pc, dirs, 10, 3)
	firstLeg := readLogFile(t, dirs[0], 0)

	// Fresh ports for the second leg: a real restart rebinds too.
	pc2 := testPeerConfig(t, n, 1, 40, 6, 40)
	runCluster(t, pc2, dirs, 20, 3)

	ref := readLogFile(t, dirs[0], 0)
	if got := countLines(ref); got != 20 {
		t.Fatalf("player 0 log has %d entries, want 20", got)
	}
	if ref[:len(firstLeg)] != firstLeg {
		t.Fatalf("restart rewrote the first leg of the log")
	}
	for i := 1; i < n; i++ {
		if log := readLogFile(t, dirs[i], i); log != ref {
			t.Fatalf("player %d log differs after cold restart", i)
		}
	}
}

// TestEmitWidth walks stores of several batches position by position under
// the width rule, refilling as the daemon does, and checks every vector
// against the store's own batch layout: it never crosses a multiple of W, a
// batch boundary, the refill point or the Emit target, it stops only at one
// of them, W = 1 always opens one coin, and the refills land at the same
// log positions whatever W is.
func TestEmitWidth(t *testing.T) {
	const threshold, refillSize, spend = 6, 40, 2
	field, err := gf2k.New(16)
	if err != nil {
		t.Fatal(err)
	}
	newStore := func(sizes []int) *coin.Store {
		st := &coin.Store{}
		for i, size := range sizes {
			batches, _, err := coin.DealTrusted(field, 7, 1, size, rand.New(rand.NewSource(int64(i))))
			if err != nil {
				t.Fatal(err)
			}
			if err := st.Add(batches[0]); err != nil {
				t.Fatal(err)
			}
		}
		return st
	}
	frontOf := func(st *coin.Store) int {
		for _, b := range st.Batches() {
			if b.Remaining() > 0 {
				return b.Remaining()
			}
		}
		return 0
	}
	for _, sizes := range [][]int{{7}, {24}, {96}, {33, 5, 64}, {2, 3, 40, 1, 1, 70}, {31, 32, 33}} {
		for _, emit := range []int{0, 1, 17, 32, 100, 203} {
			end := emit
			if end == 0 {
				end = 300
			}
			var refills [2][]int
			for wi, w := range []int{1, sweepCoins} {
				st := newStore(sizes)
				for p := 0; p < end; {
					if st.Remaining() < threshold {
						// A refill spends seed coins from the front and adds a batch.
						refills[wi] = append(refills[wi], p)
						if err := st.Discard(min(spend, st.Remaining())); err != nil {
							t.Fatal(err)
						}
						if err := st.Add(newStore([]int{refillSize}).Batches()[0]); err != nil {
							t.Fatal(err)
						}
					}
					k := emitWidth(st, p, w, threshold, emit)
					front, rem := frontOf(st), st.Remaining()
					where := fmt.Sprintf("sizes %v emit %d W %d at %d: k=%d (front %d, remaining %d)", sizes, emit, w, p, k, front, rem)
					switch {
					case k < 1:
						t.Fatalf("%s: no coin to open", where)
					case w == 1 && k != 1:
						t.Fatalf("%s: a paced round opens one coin", where)
					case p%w+k > w:
						t.Fatalf("%s: crosses a multiple of W", where)
					case k > front:
						t.Fatalf("%s: crosses a batch boundary", where)
					case rem-k < threshold-1:
						t.Fatalf("%s: crosses the refill point", where)
					case emit > 0 && p+k > emit:
						t.Fatalf("%s: crosses the Emit target", where)
					case k != w-p%w && k != front && rem-k != threshold-1 && p+k != emit:
						t.Fatalf("%s: stops short of every limit", where)
					}
					if err := st.Discard(k); err != nil {
						t.Fatal(err)
					}
					p += k
				}
			}
			if !slices.Equal(refills[0], refills[1]) {
				t.Fatalf("sizes %v emit %d: refills at %v with W = 1, at %v with W = %d", sizes, emit, refills[0], refills[1], sweepCoins)
			}
		}
	}
}

// dealStateDirs runs the dealer ceremony for pc and scatters its output
// into one state directory per player under base.
func dealStateDirs(t *testing.T, pc *simnet.PeerConfig, base string, dealSeed int64) []string {
	t.Helper()
	dirs := make([]string, pc.N())
	for i := range dirs {
		dirs[i] = filepath.Join(base, fmt.Sprintf("p%d", i))
	}
	ceremony := filepath.Join(base, "deal")
	if err := DealCluster(pc, ceremony, rand.New(rand.NewSource(dealSeed))); err != nil {
		t.Fatalf("DealCluster: %v", err)
	}
	scatterStateDirs(t, ceremony, dirs)
	return dirs
}

// sameLogs fails the test unless all n public logs under dirs are
// byte-identical and hold want coins; it returns player 0's.
func sameLogs(t *testing.T, dirs []string, want int) string {
	t.Helper()
	ref := readLogFile(t, dirs[0], 0)
	if got := countLines(ref); got != want {
		t.Fatalf("player 0 log has %d entries, want %d", got, want)
	}
	for i := 1; i < len(dirs); i++ {
		if log := readLogFile(t, dirs[i], i); log != ref {
			t.Fatalf("player %d log differs from player 0's", i)
		}
	}
	return ref
}

// TestDaemonStreamIndependentOfWidth: an unpaced cluster (up to 32 coins a
// round) and a 1 ns-paced one (one coin a round), from one deal and one set
// of seeds, write byte-identical public logs across at least two refills.
func TestDaemonStreamIndependentOfWidth(t *testing.T) {
	const n, emit = 7, 150
	pc := testPeerConfig(t, n, 1, 48, 6, 48)
	unpaced := dealStateDirs(t, pc, filepath.Join(t.TempDir(), "unpaced"), 21)
	paced := dealStateDirs(t, pc, filepath.Join(t.TempDir(), "paced"), 21)

	runCluster(t, pc, unpaced, emit, 4)
	runPacedCluster(t, testPeerConfig(t, n, 1, 48, 6, 48), paced, emit, 4, time.Nanosecond)

	ref := sameLogs(t, unpaced, emit)
	if got := sameLogs(t, paced, emit); got != ref {
		t.Fatal("the paced cluster's stream differs from the unpaced cluster's")
	}
	if meta, _ := readStamp(t, unpaced[0], 0); meta.Epoch < 2 {
		t.Fatalf("only %d refills; the test needs at least 2", meta.Epoch)
	}
}

// TestDaemonStreamGolden pins the public stream of a 7-daemon unpaced
// cluster across three refills to the SHA-256 recorded when every round
// opened one coin: grouping coins into rounds must not move a single byte.
func TestDaemonStreamGolden(t *testing.T) {
	const n, emit = 7, 700
	const golden = "fda61e4810023e13bcfbb921739d7a0baf71980ee07a18828ad113948ce21238"
	pc := testPeerConfig(t, n, 1, 200, 6, 200)
	dirs := dealStateDirs(t, pc, t.TempDir(), 700)
	runCluster(t, pc, dirs, emit, 70)
	ref := sameLogs(t, dirs, emit)
	if meta, _ := readStamp(t, dirs[0], 0); meta.Epoch != 3 {
		t.Fatalf("epoch %d after %d coins, want 3", meta.Epoch, emit)
	}
	if got := fmt.Sprintf("%x", sha256.Sum256([]byte(ref))); got != golden {
		t.Fatalf("stream SHA-256 %s, want %s", got, golden)
	}
}

// TestDaemonUnpacedRejoin cancels one daemon of an unpaced cluster, whose
// rounds open up to 32 coins, and restarts it while the survivors run on:
// it must enter at the end of the lead's in-flight round — the Next its
// STATE names — catch up from the rounds staged for it, and write the same
// log as everyone else.
func TestDaemonUnpacedRejoin(t *testing.T) {
	const n, emit, victim = 7, 12000, 3
	pc := testPeerConfig(t, n, 1, 12288, 6, 12288) // no refill in the run
	dirs := dealStateDirs(t, pc, t.TempDir(), 13)

	ctxVictim, cancelVictim := context.WithCancel(context.Background())
	errs := make([]error, n)
	var wg, victimWG sync.WaitGroup
	for i := 0; i < n; i++ {
		d := testDaemon(t, pc, dirs[i], i, emit, 17, 0)
		c, group := context.Background(), &wg
		if i == victim {
			c, group = ctxVictim, &victimWG
		}
		group.Add(1)
		go func(i int) {
			defer group.Done()
			errs[i] = d.Run(c)
		}(i)
	}
	waitForLogLines(t, CoinLogFile(dirs[victim], victim), 100, 30*time.Second)
	cancelVictim()
	victimWG.Wait()
	waitPortFree(t, pc.Peers[victim].Addr)

	d := testDaemon(t, pc, dirs[victim], victim, emit, 17, 0)
	wg.Add(1)
	go func() {
		defer wg.Done()
		errs[victim] = d.Run(context.Background())
	}()
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("player %d: %v", i, err)
		}
	}
	sameLogs(t, dirs, emit)
}

// TestDaemonWidthMismatchRefused: a daemon restarted paced into a running
// unpaced cluster is refused with the error naming -emit-interval, and the
// cluster runs on.
func TestDaemonWidthMismatchRefused(t *testing.T) {
	const n, victim = 7, 6
	pc := testPeerConfig(t, n, 1, 64, 6, 64)
	dirs := dealStateDirs(t, pc, t.TempDir(), 8)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ctxVictim, cancelVictim := context.WithCancel(ctx)
	errs := make([]error, n)
	var wg, victimWG sync.WaitGroup
	for i := 0; i < n; i++ {
		d := testDaemon(t, pc, dirs[i], i, 0, 5, 0)
		c, group := ctx, &wg
		if i == victim {
			c, group = ctxVictim, &victimWG
		}
		group.Add(1)
		go func(i int) {
			defer group.Done()
			errs[i] = d.Run(c)
		}(i)
	}
	waitForLogLines(t, CoinLogFile(dirs[victim], victim), 64, 30*time.Second)
	cancelVictim()
	victimWG.Wait()
	waitPortFree(t, pc.Peers[victim].Addr)

	err := testDaemon(t, pc, dirs[victim], victim, 0, 5, time.Millisecond).Run(ctx)
	if !errors.Is(err, errWidthMismatch) || !strings.Contains(err.Error(), "-emit-interval") {
		t.Fatalf("paced daemon joining an unpaced cluster: %v, want %v", err, errWidthMismatch)
	}
	cancel()
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("player %d: %v", i, err)
		}
	}
}

func scatterStateDirs(t *testing.T, ceremony string, dirs []string) {
	t.Helper()
	for i, dir := range dirs {
		if err := os.MkdirAll(dir, 0o700); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(storeFile(ceremony, i))
		if err != nil {
			t.Fatalf("ceremony output: %v", err)
		}
		if err := os.WriteFile(storeFile(dir, i), data, 0o600); err != nil {
			t.Fatal(err)
		}
	}
}

// waitPortFree waits until addr can be bound again: a stopped daemon's
// listener is released once its accept loop has woken up, a moment after
// Run returns.
func waitPortFree(t *testing.T, addr string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		ln, err := net.Listen("tcp", addr)
		if err == nil {
			ln.Close()
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("port %s still taken: %v", addr, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func waitForLogLines(t *testing.T, path string, want int, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if data, err := os.ReadFile(path); err == nil && countLines(string(data)) >= want {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("log %s never reached %d lines", path, want)
}

func countLines(s string) int {
	n := 0
	for _, c := range s {
		if c == '\n' {
			n++
		}
	}
	return n
}
