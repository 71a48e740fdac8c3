package beacon

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/gf2k"
	"repro/internal/simnet"
)

// armedDaemon builds a daemon armed with a next-generation roster, paced at
// interval (a paced daemon opens one coin per round, so its cutover is
// coin-precise).
func armedDaemon(t *testing.T, pc, next *simnet.PeerConfig, dir string, self int, seed int64, interval time.Duration) *Daemon {
	t.Helper()
	d, err := NewDaemon(DaemonConfig{
		Peers:          pc,
		Self:           self,
		StateDir:       dir,
		EmitInterval:   interval,
		Rand:           rand.New(rand.NewSource(seed + int64(self)*1009)),
		RoundTimeout:   2 * time.Second,
		DialBackoffMax: 200 * time.Millisecond,
		JoinTimeout:    20 * time.Second,
		ReshareNext:    next,
		Logf:           func(f string, a ...interface{}) { t.Logf("player %d: "+f, append([]interface{}{self}, a...)...) },
	})
	if err != nil {
		t.Fatalf("player %d: NewDaemon (armed): %v", self, err)
	}
	return d
}

// runArmedCluster runs every daemon armed for a handover; each must exit
// with ErrReshareCutover, and all must agree on the cutover position.
// Returns that position.
func runArmedCluster(t *testing.T, pc, next *simnet.PeerConfig, dirs []string, seed int64, interval time.Duration) int {
	t.Helper()
	n := pc.N()
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		d := armedDaemon(t, pc, next, dirs[i], i, seed, interval)
		wg.Add(1)
		go func(i int, d *Daemon) {
			defer wg.Done()
			errs[i] = d.Run(context.Background())
		}(i, d)
	}
	wg.Wait()
	for i, err := range errs {
		if !errors.Is(err, ErrReshareCutover) {
			t.Fatalf("armed player %d: got %v, want ErrReshareCutover", i, err)
		}
	}
	cut := -1
	for i := 0; i < n; i++ {
		meta, _ := readStamp(t, dirs[i], i)
		j, err := LoadReshareJournal(dirs[i])
		if err != nil || j == nil {
			t.Fatalf("player %d journal after cutover: %v %v", i, j, err)
		}
		if meta.LogLen != j.Cutover {
			t.Fatalf("player %d paused at %d but journaled cutover %d", i, meta.LogLen, j.Cutover)
		}
		if cut == -1 {
			cut = j.Cutover
		} else if j.Cutover != cut {
			t.Fatalf("player %d cutover %d != player 0's %d", i, j.Cutover, cut)
		}
	}
	return cut
}

// reshareParticipant describes one RunReshare invocation.
type reshareParticipant struct {
	oldSelf, newSelf int
	dir              string
	stale            bool
}

// runCeremony executes RunReshare concurrently for every participant and
// checks all agree on cutover and cheater list. Returns the shared result.
func runCeremony(t *testing.T, old, next *simnet.PeerConfig, parts []reshareParticipant, seed int64) *ReshareResult {
	t.Helper()
	results := make([]*ReshareResult, len(parts))
	errs := make([]error, len(parts))
	var wg sync.WaitGroup
	for i, p := range parts {
		wg.Add(1)
		go func(i int, p reshareParticipant) {
			defer wg.Done()
			results[i], errs[i] = RunReshare(context.Background(), ReshareConfig{
				Old: old, Next: next,
				OldSelf: p.oldSelf, NewSelf: p.newSelf,
				StateDir: p.dir, Stale: p.stale,
				Rand:         rand.New(rand.NewSource(seed + int64(i)*7919)),
				RoundTimeout: 2 * time.Second,
				JoinTimeout:  20 * time.Second,
				Logf: func(f string, a ...interface{}) {
					t.Logf("participant (%d→%d): "+f, append([]interface{}{p.oldSelf, p.newSelf}, a...)...)
				},
			})
		}(i, p)
	}
	wg.Wait()
	var ref *ReshareResult
	for i, err := range errs {
		if err != nil {
			t.Fatalf("participant %d (%d→%d): %v", i, parts[i].oldSelf, parts[i].newSelf, err)
		}
		r := results[i]
		if ref == nil {
			ref = r
			continue
		}
		if r.Cutover != ref.Cutover || r.Generation != ref.Generation || r.Coins != ref.Coins {
			t.Fatalf("participant %d result %+v != %+v", i, r, ref)
		}
		if fmt.Sprint(r.Cheaters) != fmt.Sprint(ref.Cheaters) {
			t.Fatalf("participant %d cheaters %v != %v", i, r.Cheaters, ref.Cheaters)
		}
	}
	for _, p := range parts {
		if j, err := LoadReshareJournal(p.dir); err != nil || j != nil {
			t.Fatalf("journal not cleared in %s: %v %v", p.dir, j, err)
		}
	}
	return ref
}

func loadValues(t *testing.T, dir string, player int) []gf2k.Element {
	t.Helper()
	vals, err := loadCoinLog(CoinLogFile(dir, player))
	if err != nil {
		t.Fatalf("load log %s player %d: %v", dir, player, err)
	}
	return vals
}

func makeStateDirs(t *testing.T, base, prefix string, n int) []string {
	t.Helper()
	dirs := make([]string, n)
	for i := range dirs {
		dirs[i] = filepath.Join(base, fmt.Sprintf("%s%d", prefix, i))
		if err := os.MkdirAll(dirs[i], 0o700); err != nil {
			t.Fatal(err)
		}
	}
	return dirs
}

// TestDaemonReshareHandover is the acceptance e2e: a (7,1) committee hands
// its beacon to a disjoint-majority (9,1) committee — 2 members stay under
// new indices, 5 leave, 7 join — via the armed-cutover choreography and
// the dealer-free ceremony. The new committee's public stream must
// byte-match what the old committee would have produced from the same
// tail, which a twin cluster (same deal, never reshared) pins down.
// DealCluster runs exactly once per cluster, at bootstrap.
func TestDaemonReshareHandover(t *testing.T) {
	const n, seedCoins, dealSeed = 7, 48, 99
	const firstLeg = 12 // plain coins before the operator arms the reshare
	base := t.TempDir()

	// Twin cluster A: identical deal, no reshare, run far enough to cover
	// the comparison window. (Exposure is deterministic in the dealt
	// stores, so same deal seed ⇒ same stream.)
	pcA := testPeerConfig(t, n, 1, seedCoins, 6, seedCoins)
	dirsA := makeStateDirs(t, base, "a", n)
	cerA := filepath.Join(base, "dealA")
	if err := DealCluster(pcA, cerA, rand.New(rand.NewSource(dealSeed))); err != nil {
		t.Fatalf("DealCluster: %v", err)
	}
	scatterStateDirs(t, cerA, dirsA)
	runCluster(t, pcA, dirsA, 40, 1)
	valsA := loadValues(t, dirsA[0], 0)

	// Cluster B: same deal, first leg plain.
	pcB := testPeerConfig(t, n, 1, seedCoins, 6, seedCoins)
	dirsB := makeStateDirs(t, base, "b", n)
	cerB := filepath.Join(base, "dealB")
	if err := DealCluster(pcB, cerB, rand.New(rand.NewSource(dealSeed))); err != nil {
		t.Fatalf("DealCluster: %v", err)
	}
	scatterStateDirs(t, cerB, dirsB)
	runCluster(t, pcB, dirsB, firstLeg, 1)

	// Next-generation roster: old members 5 and 6 stay (as new indices 0
	// and 1), everyone else leaves, seven fresh members join.
	next := &simnet.PeerConfig{
		Cluster:    "test-g1",
		Secret:     pcB.Secret,
		T:          1,
		K:          32,
		Batch:      seedCoins,
		Threshold:  6,
		SeedCoins:  seedCoins,
		Generation: 1,
	}
	next.Peers = append(next.Peers,
		simnet.Peer{ID: 0, Addr: pcB.Peers[5].Addr},
		simnet.Peer{ID: 1, Addr: pcB.Peers[6].Addr},
	)
	for j, addr := range reserveAddrs(t, 7, next.Peers[0].Addr, next.Peers[1].Addr) {
		next.Peers = append(next.Peers, simnet.Peer{ID: 2 + j, Addr: addr})
	}
	if err := next.Validate(); err != nil {
		t.Fatalf("next config invalid: %v", err)
	}

	// Second leg: restart armed. The daemons negotiate a cutover a few
	// coins ahead, pause there together, and exit for the ceremony.
	cut := runArmedCluster(t, pcB, next, dirsB, 2, time.Millisecond)
	if cut < firstLeg {
		t.Fatalf("cutover %d is before the restart position %d", cut, firstLeg)
	}

	// Both members checked below hold a snapshot slot to retire.
	for _, f := range []string{slotFile(dirsB[5], 5, 0), slotFile(dirsB[0], 0, 0)} {
		if _, err := os.Stat(f); err != nil {
			t.Fatalf("before the handover: %v", err)
		}
	}
	oldIdentity := map[string][]byte{}
	for _, f := range []string{storeFile(dirsB[5], 5), slotFile(dirsB[5], 5, 0)} {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		oldIdentity[f] = data
	}

	// The ceremony: all 7 old members (5 leaving, 2 staying) plus 7
	// joiners.
	jdirs := makeStateDirs(t, base, "j", 9)
	parts := []reshareParticipant{
		{0, -1, dirsB[0], false}, {1, -1, dirsB[1], false}, {2, -1, dirsB[2], false},
		{3, -1, dirsB[3], false}, {4, -1, dirsB[4], false},
		{5, 0, dirsB[5], false}, {6, 1, dirsB[6], false},
	}
	for j := 2; j < 9; j++ {
		parts = append(parts, reshareParticipant{-1, j, jdirs[j], false})
	}
	res := runCeremony(t, pcB, next, parts, 1234)
	if res.Cutover != cut {
		t.Fatalf("ceremony cutover %d != negotiated %d", res.Cutover, cut)
	}
	if len(res.Cheaters) != 0 {
		t.Fatalf("honest handover branded cheaters %v", res.Cheaters)
	}
	if res.Generation != 1 {
		t.Fatalf("generation = %d, want 1", res.Generation)
	}
	// The staying members' old-identity files are gone; leaving members'
	// stores are destroyed (toxic waste), their public logs kept.
	for _, f := range append([]string{storeFile(dirsB[5], 5), metaFile(dirsB[5], 5), CoinLogFile(dirsB[5], 5)}, slotFiles(dirsB[5], 5)...) {
		if _, err := os.Stat(f); !os.IsNotExist(err) {
			t.Fatalf("old-identity file %s survived the handover", f)
		}
	}
	if _, err := os.Stat(storeFile(dirsB[0], 0)); !os.IsNotExist(err) {
		t.Fatal("leaving member 0 kept its store after the handover")
	}
	for _, f := range slotFiles(dirsB[0], 0) {
		if _, err := os.Stat(f); !os.IsNotExist(err) {
			t.Fatalf("leaving member 0 kept its snapshot slot %s after the handover", f)
		}
	}
	if _, err := os.Stat(CoinLogFile(dirsB[0], 0)); err != nil {
		t.Fatalf("leaving member 0 lost its public log: %v", err)
	}
	// A crash between the new files and the retirement leaves the old
	// identity's shares behind; the re-run that finds the handover complete
	// retires them.
	for f, data := range oldIdentity {
		if err := os.WriteFile(f, data, 0o600); err != nil {
			t.Fatal(err)
		}
	}
	again, err := RunReshare(context.Background(), ReshareConfig{
		Old: pcB, Next: next, OldSelf: 5, NewSelf: 0, StateDir: dirsB[5], Rand: rand.New(rand.NewSource(1)),
	})
	if err != nil || !again.Resumed {
		t.Fatalf("re-run after success: %+v, %v (want Resumed)", again, err)
	}
	for f := range oldIdentity {
		if _, err := os.Stat(f); !os.IsNotExist(err) {
			t.Fatalf("re-run after success left old-identity file %s", f)
		}
	}

	// Third leg: the NEW committee serves generation 1 — 2 stayers + 7
	// joiners, n=9 — and continues the exact stream. Emit target chosen so
	// neither cluster refills (refill coins are freshly dealt and would
	// legitimately diverge between the twins).
	newDirs := []string{dirsB[5], dirsB[6]}
	newDirs = append(newDirs, jdirs[2:9]...)
	runCluster(t, next, newDirs, 38, 3)

	valsB := loadValues(t, newDirs[0], 0)
	if len(valsB) != 38 {
		t.Fatalf("new committee log has %d coins, want 38", len(valsB))
	}
	for i := 0; i < cut; i++ {
		if valsB[i] != valsA[i] {
			t.Fatalf("pre-cutover coin %d: %#x != twin's %#x", i, valsB[i], valsA[i])
		}
	}
	// The ceremony consumed two tail coins (challenge + mask), so the new
	// committee's coin cut+i is the seed coin the old committee would have
	// exposed as cut+2+i.
	for i := cut; i < len(valsB); i++ {
		if want := valsA[i+2]; valsB[i] != want {
			t.Fatalf("post-cutover coin %d: %#x, want twin's coin %d = %#x", i, valsB[i], i+2, want)
		}
	}
	// Every new member agrees, and their generation stuck.
	ref := readLogFile(t, newDirs[0], 0)
	for j := 1; j < 9; j++ {
		if log := readLogFile(t, newDirs[j], j); log != ref {
			t.Fatalf("new member %d log differs", j)
		}
		if _, gen := readStamp(t, newDirs[j], j); gen != 1 {
			t.Fatalf("new member %d generation %d, want 1", j, gen)
		}
	}
}

// TestDaemonProactiveRefresh keeps the roster and re-randomizes every
// share in place: same stream before and after, generation bumped, and a
// second RunReshare invocation after success is a harmless no-op (the
// crash-after-write recovery path).
func TestDaemonProactiveRefresh(t *testing.T) {
	const n, seedCoins = 7, 48
	base := t.TempDir()
	pc := testPeerConfig(t, n, 1, seedCoins, 6, seedCoins)
	dirs := makeStateDirs(t, base, "p", n)
	ceremony := filepath.Join(base, "deal")
	if err := DealCluster(pc, ceremony, rand.New(rand.NewSource(17))); err != nil {
		t.Fatalf("DealCluster: %v", err)
	}
	scatterStateDirs(t, ceremony, dirs)

	runCluster(t, pc, dirs, 10, 5)

	next := &simnet.PeerConfig{}
	*next = *pc
	next.Generation = 1

	cut := runArmedCluster(t, pc, next, dirs, 6, time.Millisecond)
	before := loadValues(t, dirs[0], 0) // the full pre-refresh stream [0, cut)
	oldStore, err := os.ReadFile(storeFile(dirs[0], 0))
	if err != nil {
		t.Fatal(err)
	}
	oldSlot, err := os.ReadFile(slotFile(dirs[0], 0, 0))
	if err != nil {
		t.Fatal(err)
	}

	parts := make([]reshareParticipant, n)
	for i := range parts {
		parts[i] = reshareParticipant{i, i, dirs[i], false}
	}
	res := runCeremony(t, pc, next, parts, 4321)
	if len(res.Cheaters) != 0 {
		t.Fatalf("honest refresh branded cheaters %v", res.Cheaters)
	}
	newStore, err := os.ReadFile(storeFile(dirs[0], 0))
	if err != nil {
		t.Fatal(err)
	}
	if string(oldStore) == string(newStore) {
		t.Fatal("refresh left player 0's share file unchanged")
	}
	noSlots := func(when string) {
		t.Helper()
		for _, f := range slotFiles(dirs[0], 0) {
			if _, err := os.Stat(f); !os.IsNotExist(err) {
				t.Fatalf("%s: generation-0 snapshot slot %s survived the refresh", when, f)
			}
		}
	}
	noSlots("after the ceremony")

	// Idempotent re-run: crash-after-write recovery just clears up — also
	// a generation-0 slot that a crash kept from being retired.
	if err := os.WriteFile(slotFile(dirs[0], 0, 1), oldSlot, 0o600); err != nil {
		t.Fatal(err)
	}
	again, err := RunReshare(context.Background(), ReshareConfig{
		Old: pc, Next: next, OldSelf: 0, NewSelf: 0, StateDir: dirs[0],
		Rand: rand.New(rand.NewSource(1)),
	})
	if err != nil || !again.Resumed {
		t.Fatalf("re-run after success: %+v, %v (want Resumed)", again, err)
	}
	noSlots("after the re-run")

	runCluster(t, next, dirs, 25, 7)
	after := loadValues(t, dirs[0], 0)
	if len(after) != 25 {
		t.Fatalf("log has %d coins, want 25", len(after))
	}
	for i, v := range before[:cut] {
		if after[i] != v {
			t.Fatalf("refresh changed public coin %d: %#x != %#x", i, after[i], v)
		}
	}
	ref := readLogFile(t, dirs[0], 0)
	for i := 1; i < n; i++ {
		if log := readLogFile(t, dirs[i], i); log != ref {
			t.Fatalf("player %d log differs after refresh", i)
		}
	}
}

// TestDaemonStaleMemberRecoversViaRefresh is the ErrEpochMismatch escape
// hatch e2e: one member's store is stale (it missed a refill), so it joins
// the refresh ceremony receive-only — branded a cheater by the committee
// but re-armed with fresh shares — and serves generation 1 like everyone
// else.
func TestDaemonStaleMemberRecoversViaRefresh(t *testing.T) {
	const n, seedCoins, stale = 7, 48, 3
	base := t.TempDir()
	pc := testPeerConfig(t, n, 1, seedCoins, 6, seedCoins)
	dirs := makeStateDirs(t, base, "p", n)
	ceremony := filepath.Join(base, "deal")
	if err := DealCluster(pc, ceremony, rand.New(rand.NewSource(23))); err != nil {
		t.Fatalf("DealCluster: %v", err)
	}
	scatterStateDirs(t, ceremony, dirs)

	runCluster(t, pc, dirs, 8, 9)

	next := &simnet.PeerConfig{}
	*next = *pc
	next.Generation = 1
	cut := runArmedCluster(t, pc, next, dirs, 10, time.Millisecond)

	parts := make([]reshareParticipant, n)
	for i := range parts {
		parts[i] = reshareParticipant{i, i, dirs[i], i == stale}
	}
	res := runCeremony(t, pc, next, parts, 5555)
	if len(res.Cheaters) != 1 || res.Cheaters[0] != stale {
		t.Fatalf("cheaters = %v, want [%d] (the stale abstainer)", res.Cheaters, stale)
	}
	if res.Cutover != cut {
		t.Fatalf("ceremony cutover %d != negotiated %d", res.Cutover, cut)
	}

	// The recovered member serves the new generation alongside the rest.
	runCluster(t, next, dirs, 20, 11)
	ref := readLogFile(t, dirs[0], 0)
	if got := countLines(ref); got != 20 {
		t.Fatalf("log has %d entries, want 20", got)
	}
	for i := 1; i < n; i++ {
		if log := readLogFile(t, dirs[i], i); log != ref {
			t.Fatalf("player %d log differs after stale recovery", i)
		}
	}
	if _, gen := readStamp(t, dirs[stale], stale); gen != 1 {
		t.Fatalf("recovered member generation %d, want 1", gen)
	}
}

// TestDaemonUnpacedHandover arms an unpaced cluster, whose rounds open up to
// W = 32 coins: every daemon pauses at one negotiated multiple of W, and
// after a proactive refresh the stream continues the never-reshared twin's,
// offset by the ceremony's 2-coin burn.
func TestDaemonUnpacedHandover(t *testing.T) {
	const n, seedCoins, dealSeed, firstLeg = 7, 256, 31, 10
	base := t.TempDir()

	// The twin: same deal, never reshared. 256 seed coins at threshold 6
	// put its first refill at coin 251, past the comparison window.
	pcA := testPeerConfig(t, n, 1, seedCoins, 6, seedCoins)
	dirsA := dealStateDirs(t, pcA, filepath.Join(base, "twin"), dealSeed)
	runCluster(t, pcA, dirsA, 250, 1)
	valsA := loadValues(t, dirsA[0], 0)

	pc := testPeerConfig(t, n, 1, seedCoins, 6, seedCoins)
	dirs := dealStateDirs(t, pc, filepath.Join(base, "live"), dealSeed)
	runCluster(t, pc, dirs, firstLeg, 1)

	next := &simnet.PeerConfig{}
	*next = *pc
	next.Generation = 1
	cut := runArmedCluster(t, pc, next, dirs, 2, 0)
	if cut%sweepCoins != 0 || cut < firstLeg+2*sweepCoins+1 {
		t.Fatalf("cutover %d: want a multiple of %d at least three rounds past %d", cut, sweepCoins, firstLeg)
	}

	parts := make([]reshareParticipant, n)
	for i := range parts {
		parts[i] = reshareParticipant{i, i, dirs[i], false}
	}
	res := runCeremony(t, pc, next, parts, 77)
	if res.Cutover != cut || len(res.Cheaters) != 0 {
		t.Fatalf("ceremony: cutover %d (negotiated %d), cheaters %v", res.Cutover, cut, res.Cheaters)
	}

	// One more window of W after the cutover, short of the refreshed
	// store's refill (its 254−cut coins at threshold 6).
	end := cut + sweepCoins
	if end+2 > len(valsA) {
		t.Fatalf("cutover %d leaves the twin's %d coins", cut, len(valsA))
	}
	runCluster(t, next, dirs, end, 3)
	sameLogs(t, dirs, end)
	valsB := loadValues(t, dirs[0], 0)
	for i, v := range valsB {
		want := valsA[i]
		if i >= cut {
			want = valsA[i+2]
		}
		if v != want {
			t.Fatalf("coin %d (cutover %d): %#x, want the twin's %#x", i, cut, v, want)
		}
	}
}

// TestNewDaemonGenerationFence: a daemon pointed at a roster file whose
// generation does not match its on-disk state must fail loudly at startup.
func TestNewDaemonGenerationFence(t *testing.T) {
	pc := testPeerConfig(t, 7, 1, 24, 6, 24)
	dir := t.TempDir()
	if err := DealCluster(pc, dir, rand.New(rand.NewSource(3))); err != nil {
		t.Fatal(err)
	}
	wrong := &simnet.PeerConfig{}
	*wrong = *pc
	wrong.Generation = 1
	_, err := NewDaemon(DaemonConfig{Peers: wrong, Self: 0, StateDir: dir, Rand: rand.New(rand.NewSource(1))})
	if err == nil {
		t.Fatal("NewDaemon accepted generation-mismatched state")
	}
}
