package beacon

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"
	"time"

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

// runCluster runs one daemon per player to completion and fails the test
// on any daemon error.
func runCluster(t *testing.T, pc *simnet.PeerConfig, dirs []string, emit int, seed int64) {
	t.Helper()
	n := pc.N()
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		d := testDaemon(t, pc, dirs[i], i, emit, seed, 0)
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
