package beacon

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/coin"
	"repro/internal/core"
	"repro/internal/gf2k"
	"repro/internal/simnet"
)

// TestLoadCoinLogTornTailDropped pins the crash-recovery contract for the
// public coin log: a final line not terminated by '\n' is a torn append and
// must be dropped even when the fragment still parses. "2 deadbeef" torn to
// "2 dead" yields index 2 with value 0xdead — loading it would silently
// fork this daemon's log from the cluster's.
func TestLoadCoinLogTornTailDropped(t *testing.T) {
	cases := []struct {
		name, data string
		want       []gf2k.Element
	}{
		{"clean", "0 aa\n1 bb\n", []gf2k.Element{0xaa, 0xbb}},
		{"torn parseable", "0 aa\n1 bb\n2 dead", []gf2k.Element{0xaa, 0xbb}},
		{"torn garbage", "0 aa\n1 bb\n2 de", []gf2k.Element{0xaa, 0xbb}},
		{"torn mid-index", "0 aa\n1", []gf2k.Element{0xaa}},
		{"single torn line", "0 a", nil},
		{"empty", "", nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "coins")
			if err := os.WriteFile(path, []byte(tc.data), 0o600); err != nil {
				t.Fatal(err)
			}
			got, err := loadCoinLog(path)
			if err != nil {
				t.Fatalf("loadCoinLog: %v", err)
			}
			if len(got) != len(tc.want) {
				t.Fatalf("loaded %d entries, want %d", len(got), len(tc.want))
			}
			for i := range got {
				if got[i] != tc.want[i] {
					t.Fatalf("entry %d = %x, want %x", i, uint64(got[i]), uint64(tc.want[i]))
				}
			}
		})
	}
}

// TestLoadCoinLogCorruptInterior checks that damage inside the terminated
// prefix is still a loud failure, not a silent truncation.
func TestLoadCoinLogCorruptInterior(t *testing.T) {
	for name, data := range map[string]string{
		"bad line":  "0 aa\nnonsense\n2 cc\n",
		"index gap": "0 aa\n2 cc\n",
	} {
		t.Run(name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "coins")
			if err := os.WriteFile(path, []byte(data), 0o600); err != nil {
				t.Fatal(err)
			}
			if _, err := loadCoinLog(path); err == nil || !strings.Contains(err.Error(), "corrupt") {
				t.Fatalf("loadCoinLog error = %v, want corruption failure", err)
			}
		})
	}
}

// TestLoadCoinLogRejectsNonCanonical: a terminated line that parses but is
// not byte-for-byte what the line codec renders is corruption — it must not
// be accepted and silently rewritten.
func TestLoadCoinLogRejectsNonCanonical(t *testing.T) {
	for name, data := range map[string]string{
		"leading zero index": "0 aa\n01 bb\n",
		"leading zero value": "0 0aa\n",
		"upper-case hex":     "0 AA\n",
		"trailing junk":      "0 aa zz\n1 bb\n",
		"trailing space":     "0 aa \n",
		"leading space":      " 0 aa\n",
		"signed index":       "+0 aa\n",
		"blank line":         "0 aa\n\n1 bb\n",
		"carriage return":    "0 aa\r\n",
	} {
		t.Run(name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "coins")
			if err := os.WriteFile(path, []byte(data), 0o600); err != nil {
				t.Fatal(err)
			}
			if _, err := loadCoinLog(path); err == nil || !strings.Contains(err.Error(), "corrupt") {
				t.Fatalf("loadCoinLog error = %v, want corruption failure", err)
			}
		})
	}
}

func inode(t *testing.T, path string) uint64 {
	t.Helper()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return fi.Sys().(*syscall.Stat_t).Ino
}

// TestTornTailHealedInPlace: opening a log with a torn final line truncates
// the file to its verified prefix — same inode, prefix bytes untouched, no
// temp file — and the next append lands right behind the prefix.
func TestTornTailHealedInPlace(t *testing.T) {
	dir := t.TempDir()
	path := CoinLogFile(dir, 2)
	if err := os.WriteFile(path, []byte("0 aa\n1 bb\n2 de"), 0o600); err != nil {
		t.Fatal(err)
	}
	before := inode(t, path)
	ps, err := openPlayerLog(dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer ps.close()
	if got, _ := os.ReadFile(path); string(got) != "0 aa\n1 bb\n" {
		t.Fatalf("healed log = %q, want the verified prefix", got)
	}
	if inode(t, path) != before {
		t.Fatal("healing replaced the log file instead of truncating it in place")
	}
	if names, _ := os.ReadDir(dir); len(names) != 1 {
		t.Fatalf("healing left %d files in the state dir, want only the log", len(names))
	}
	if err := ps.append(0xcc, 0xdd); err != nil {
		t.Fatal(err)
	}
	if got, _ := os.ReadFile(path); string(got) != "0 aa\n1 bb\n2 cc\n3 dd\n" {
		t.Fatalf("log after append = %q", got)
	}
}

// dealtDir deals a 7-player cluster into a fresh directory.
func dealtDir(t *testing.T, seed int64) (*simnet.PeerConfig, string) {
	t.Helper()
	pc := &simnet.PeerConfig{Cluster: "t", Secret: []byte("0123456789abcdef0123456789abcdef"),
		T: 1, K: 32, Batch: 24, Threshold: 6, SeedCoins: 24}
	for i := 0; i < 7; i++ {
		pc.Peers = append(pc.Peers, simnet.Peer{ID: i, Addr: fmt.Sprintf("127.0.0.1:%d", 1000+i)})
	}
	dir := t.TempDir()
	if err := DealCluster(pc, dir, rand.New(rand.NewSource(seed))); err != nil {
		t.Fatal(err)
	}
	return pc, dir
}

// exposeAll opens k coins from the n players' stores on an in-memory network.
func exposeAll(t *testing.T, pc *simnet.PeerConfig, stores []*coin.Store, k int) []gf2k.Element {
	t.Helper()
	cfg, err := CoreConfig(pc, nil)
	if err != nil {
		t.Fatal(err)
	}
	fns := make([]simnet.PlayerFunc, len(stores))
	for i, st := range stores {
		g, err := core.NewFromStore(cfg, st)
		if err != nil {
			t.Fatal(err)
		}
		fns[i] = func(nd *simnet.Node) (interface{}, error) { return g.ExposeN(nd, k) }
	}
	res := simnet.Run(simnet.New(len(stores)), fns)
	for i, r := range res {
		if r.Err != nil {
			t.Fatalf("player %d expose: %v", i, r.Err)
		}
	}
	return res[0].Value.([]gf2k.Element)
}

// TestOpenPlayerState drives the seam's open: a clean state, the crash gap,
// and each fence, table-driven over what is on disk.
func TestOpenPlayerState(t *testing.T) {
	cases := []struct {
		name       string
		log        string // player 0's log file ("" = as dealt)
		meta       *playerMeta
		rmStore    bool
		generation int
		handover   bool
		wantErr    string // "" = opens; otherwise a required substring
		wantLeft   int    // sealed coins after reconciliation
	}{
		{name: "clean", wantLeft: 24},
		{name: "crash gap replayed", log: "0 aa\n1 bb\n2 cc\n", wantLeft: 21},
		{name: "torn tail not replayed", log: "0 aa\n1 bb\n2 c", wantLeft: 22},
		{name: "gap inside snapshot", log: "0 aa\n1 bb\n2 cc\n", meta: &playerMeta{LogLen: 2}, wantLeft: 23},
		{name: "log behind snapshot", log: "0 aa\n", meta: &playerMeta{LogLen: 3}, wantErr: "behind its store snapshot"},
		{name: "gap beyond the store", log: logOf(30), wantErr: "crash reconciliation"},
		{name: "roster generation mismatch", generation: 1, wantErr: "state is generation 0/0 (store/meta) but peers.yaml says 1"},
		{name: "meta generation mismatch", meta: &playerMeta{Generation: 1}, wantErr: "state is generation 0/1"},
		{name: "meta ahead tolerated mid-handover", meta: &playerMeta{Generation: 1}, handover: true, wantLeft: 24},
		{name: "meta two ahead is never fine", meta: &playerMeta{Generation: 2}, handover: true, wantErr: "state is generation 0/2"},
		{name: "no store", rmStore: true, wantErr: "no such file"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, dir := dealtDir(t, 7)
			if tc.log != "" {
				if err := os.WriteFile(CoinLogFile(dir, 0), []byte(tc.log), 0o600); err != nil {
					t.Fatal(err)
				}
			}
			if tc.meta != nil {
				if err := saveMeta(dir, 0, *tc.meta); err != nil {
					t.Fatal(err)
				}
			}
			if tc.rmStore {
				os.Remove(storeFile(dir, 0))
			}
			ps, err := openPlayerState(dir, 0, tc.generation, tc.handover)
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("open error = %v, want %q", err, tc.wantErr)
				}
				if tc.rmStore && !errors.Is(err, os.ErrNotExist) {
					t.Fatalf("missing store must wrap os.ErrNotExist, got %v", err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			defer ps.close()
			if got := ps.store.Remaining(); got != tc.wantLeft {
				t.Fatalf("store holds %d coins after open, want %d", got, tc.wantLeft)
			}
		})
	}
}

func logOf(n int) string {
	return string(appendLogLines(nil, 0, make([]gf2k.Element, n)))
}

// TestCrashGapReplaysToReferenceCursor: a cluster that crashed k coins past
// its last snapshot reopens with every share cursor exactly where the
// uninterrupted stream is — the next coin it opens is the reference's coin k.
func TestCrashGapReplaysToReferenceCursor(t *testing.T) {
	const n, k, more = 7, 5, 4
	pc, refDir := dealtDir(t, 11)
	refStores, err := LoadStores(refDir, n)
	if err != nil {
		t.Fatal(err)
	}
	ref := exposeAll(t, pc, refStores, k+more)

	// Same deal; every log holds the first k public values but no snapshot
	// was taken since the deal: the SIGKILL state.
	_, dir := dealtDir(t, 11)
	stores := make([]*coin.Store, n)
	for i := range stores {
		if err := os.WriteFile(CoinLogFile(dir, i), appendLogLines(nil, 0, ref[:k]), 0o600); err != nil {
			t.Fatal(err)
		}
		ps, err := openPlayerState(dir, i, 0, false)
		if err != nil {
			t.Fatalf("player %d: %v", i, err)
		}
		ps.close()
		stores[i] = ps.store
	}
	got := exposeAll(t, pc, stores, more)
	for i, v := range got {
		if v != ref[k+i] {
			t.Fatalf("coin %d after the crash = %#x, reference stream has %#x", k+i, v, ref[k+i])
		}
	}
}

// TestSnapshotThenReopen: snapshot records the position it was taken at, so
// a reopen after it replays only the coins logged since.
func TestSnapshotThenReopen(t *testing.T) {
	_, dir := dealtDir(t, 5)
	ps, err := openPlayerState(dir, 0, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := ps.append(1, 2, 3); err != nil {
		t.Fatal(err)
	}
	if err := ps.store.Discard(3); err != nil { // what exposing three coins does to the cursor
		t.Fatal(err)
	}
	ps.meta.Epoch = 4
	if err := ps.snapshot(); err != nil {
		t.Fatal(err)
	}
	if err := ps.append(4); err != nil { // logged after the snapshot, then "crash"
		t.Fatal(err)
	}
	ps.close()
	meta, err := loadMeta(dir, 0)
	if err != nil || meta != (playerMeta{Epoch: 4, LogLen: 3}) {
		t.Fatalf("meta after snapshot = %+v, %v", meta, err)
	}
	re, err := openPlayerState(dir, 0, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	defer re.close()
	if len(re.log) != 4 || re.store.Remaining() != 24-4 || re.meta.Epoch != 4 {
		t.Fatalf("reopened at log %d, %d coins, epoch %d; want 4, 20, 4", len(re.log), re.store.Remaining(), re.meta.Epoch)
	}
}

// TestWriteGenerationOrder makes each step of the next-generation write
// fail in turn (a directory squatting on the file's name defeats open and
// rename alike) and checks the order is log → meta → store: whatever step
// fails, every earlier file is complete and no later file exists — so a
// store on disk implies its meta and log.
func TestWriteGenerationOrder(t *testing.T) {
	_, dealt := dealtDir(t, 3)
	st, err := loadStore(dealt, 0)
	if err != nil {
		t.Fatal(err)
	}
	log := []gf2k.Element{0xa, 0xb, 0xc}
	meta := playerMeta{LogLen: 3, Generation: 1}
	present := func(path string) bool { fi, err := os.Stat(path); return err == nil && fi.Mode().IsRegular() }
	for step, block := range []func(dir string, player int) string{CoinLogFile, metaFile, storeFile, nil} {
		dir := t.TempDir()
		if block != nil {
			if err := os.Mkdir(block(dir, 4), 0o700); err != nil {
				t.Fatal(err)
			}
		}
		err := writeGeneration(dir, 4, log, meta, st)
		if (err == nil) != (block == nil) {
			t.Fatalf("step %d blocked: writeGeneration error = %v", step, err)
		}
		got := []bool{present(CoinLogFile(dir, 4)), present(metaFile(dir, 4)), present(storeFile(dir, 4))}
		for i, ok := range got {
			if ok != (i < step) {
				t.Fatalf("step %d blocked: log/meta/store present = %v", step, got)
			}
		}
		if step > 0 {
			if data, _ := os.ReadFile(CoinLogFile(dir, 4)); string(data) != "0 a\n1 b\n2 c\n" {
				t.Fatalf("step %d blocked: log = %q", step, data)
			}
		}
	}

	// A log already under the identity must be a prefix of the committee's.
	dir := t.TempDir()
	if err := os.WriteFile(CoinLogFile(dir, 4), []byte("0 a\n1 ff\n"), 0o600); err != nil {
		t.Fatal(err)
	}
	if err := writeGeneration(dir, 4, log, meta, st); err == nil || !strings.Contains(err.Error(), "not a prefix") {
		t.Fatalf("diverging local log: error = %v", err)
	}
	if present(metaFile(dir, 4)) || present(storeFile(dir, 4)) {
		t.Fatal("diverging local log: meta/store written anyway")
	}
}

// fakeLogServers answers LOG queries from per-server logs; a nil log is a
// server that does not answer.
type fakeLogServers struct {
	logs  map[int][]gf2k.Element
	calls int
	// grow, when set, is applied to the logs after every call (coins
	// trickling in while the fetch retries).
	grow func(calls int, logs map[int][]gf2k.Element)
}

func (f *fakeLogServers) query(peer int, req []byte) ([]byte, error) {
	f.calls++
	defer func() {
		if f.grow != nil {
			f.grow(f.calls, f.logs)
		}
	}()
	log, ok := f.logs[peer]
	if !ok {
		return nil, errors.New("timed out")
	}
	if log == nil {
		return []byte("garbage\n"), nil
	}
	return logRange(log, "LOG", string(req)), nil
}

// TestFastForwardBackfill drives fastForward against fake log servers:
// the fetch must cross-check, retry short answers until patience runs out,
// and on ANY failure leave the share cursor and the log file untouched.
func TestFastForwardBackfill(t *testing.T) {
	full := []gf2k.Element{10, 11, 12, 13, 14, 15, 16, 17}
	forged := append(append([]gf2k.Element(nil), full[:5]...), 99, 16, 17)
	cases := []struct {
		name    string
		servers []int
		logs    map[int][]gf2k.Element
		grow    func(int, map[int][]gf2k.Element)
		wantErr string
	}{
		{name: "agreeing quorum", servers: []int{1, 2, 3}, logs: map[int][]gf2k.Element{1: full, 2: full, 3: full}},
		{name: "one silent server within quorum", servers: []int{1, 2, 3}, logs: map[int][]gf2k.Element{1: full, 3: full}},
		{name: "short answers complete on retry", servers: []int{1, 2}, logs: map[int][]gf2k.Element{1: full[:4], 2: full[:6]},
			grow: func(calls int, logs map[int][]gf2k.Element) {
				if calls >= 2 {
					logs[1], logs[2] = full, full
				}
			}},
		{name: "disagreement aborts", servers: []int{1, 2}, logs: map[int][]gf2k.Element{1: full, 2: forged}, wantErr: "disagree on public coin 5"},
		{name: "short answers exhaust patience", servers: []int{1, 2}, logs: map[int][]gf2k.Element{1: full[:6], 2: full[:6]}, wantErr: "stalled at 4/6"},
		{name: "quorum shortfall", servers: []int{1, 2, 3}, logs: map[int][]gf2k.Element{2: full}, wantErr: "only 1/2 peers answered"},
		{name: "malformed answer", servers: []int{1, 2}, logs: map[int][]gf2k.Element{1: nil, 2: nil}, wantErr: "malformed log"},
		{name: "nobody to ask", wantErr: "no peers reachable"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, dir := dealtDir(t, 9)
			if err := os.WriteFile(CoinLogFile(dir, 0), appendLogLines(nil, 0, full[:2]), 0o600); err != nil {
				t.Fatal(err)
			}
			ps, err := openPlayerState(dir, 0, 0, false)
			if err != nil {
				t.Fatal(err)
			}
			defer ps.close()
			left := ps.store.Remaining()
			fileBefore, _ := os.ReadFile(CoinLogFile(dir, 0))

			srv := &fakeLogServers{logs: tc.logs, grow: tc.grow}
			err = ps.fastForward(len(full), srv.query, tc.servers, 2, 250*time.Millisecond)
			fileAfter, _ := os.ReadFile(CoinLogFile(dir, 0))
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("fastForward error = %v, want %q", err, tc.wantErr)
				}
				if ps.store.Remaining() != left || len(ps.log) != 2 || !bytes.Equal(fileAfter, fileBefore) {
					t.Fatalf("failed backfill mutated local state: %d→%d coins, log %d entries, file %q",
						left, ps.store.Remaining(), len(ps.log), fileAfter)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if ps.store.Remaining() != left-6 || !bytes.Equal(fileAfter, appendLogLines(nil, 0, full)) {
				t.Fatalf("after fastForward: %d coins (want %d), file %q", ps.store.Remaining(), left-6, fileAfter)
			}
			if tc.grow != nil && srv.calls <= 2 {
				t.Fatalf("short answers were not retried (%d queries)", srv.calls)
			}
		})
	}
}

// TestParentLayoutStateOpens loads state files dealt and run by the commit
// before the player-state seam existed (testdata/state-pr21/README.md):
// every player opens unchanged — player 3 through the crash reconciliation —
// and the cluster continues the very stream that commit's twin run produced.
func TestParentLayoutStateOpens(t *testing.T) {
	const n = 7
	dir := t.TempDir()
	files, err := filepath.Glob("testdata/state-pr21/player-*")
	if err != nil || len(files) != 3*n {
		t.Fatalf("fixture: %d files, %v", len(files), err)
	}
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, filepath.Base(f)), data, 0o600); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		ps, err := openPlayerState(dir, i, 0, false)
		if err != nil {
			t.Fatalf("player %d: %v", i, err)
		}
		ps.close()
		if len(ps.log) != 10 || ps.store.Remaining() != 30 {
			t.Fatalf("player %d opened at log %d with %d coins, want 10 and 30", i, len(ps.log), ps.store.Remaining())
		}
	}

	pc := testPeerConfig(t, n, 1, 40, 6, 40)
	dirs := make([]string, n)
	for i := range dirs {
		dirs[i] = dir
	}
	runCluster(t, pc, dirs, 20, 3)
	want, err := os.ReadFile("testdata/state-pr21/reference.coins")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if got := readLogFile(t, dir, i); got != string(want) {
			t.Fatalf("player %d continued the parent-commit state to\n%q\nwant the parent's own stream\n%q", i, got, want)
		}
	}
}

// FuzzParseLogLines: the line codec shared by the log file and the LOG/RLOG
// wire answers accepts exactly its own renderings, and never panics on
// what a bad disk or a Byzantine peer can hand it.
func FuzzParseLogLines(f *testing.F) {
	for _, seed := range []string{"", "0 aa\n1 bb\n", "0 aa\n1 bb\n2 de", "5 deadbeef\n6 0\n", "0 AA\n", "01 a\n",
		"0 aa\n\n", "0 ffffffffffffffffff\n", "-1 a\n", "0 a b\n", "9223372036854775807 1\n"} {
		f.Add([]byte(seed), 0)
		f.Add([]byte(seed), 5)
	}
	dir := f.TempDir()
	f.Fuzz(func(t *testing.T, data []byte, from int) {
		vals, err := parseLogLines(data, from)
		if err == nil && !bytes.Equal(appendLogLines(nil, from, vals), data) {
			t.Fatalf("accepted %q but it re-renders as %q", data, appendLogLines(nil, from, vals))
		}
		// The file reader: whatever it accepts is the canonical prefix of
		// the file, followed by at most one unterminated line.
		path := filepath.Join(dir, "coins")
		if err := os.WriteFile(path, data, 0o600); err != nil {
			t.Fatal(err)
		}
		log, err := loadCoinLog(path)
		if err != nil {
			return
		}
		prefix := appendLogLines(nil, 0, log)
		if !bytes.HasPrefix(data, prefix) || bytes.IndexByte(data[len(prefix):], '\n') >= 0 {
			t.Fatalf("loaded %d entries from %q: not its canonical prefix + torn tail", len(log), data)
		}
	})
}

// FuzzParseState: STATE answers come from peers; parsing one must never
// panic and must read back exactly what handleQuery's format writes.
func FuzzParseState(f *testing.F) {
	for _, seed := range []string{"true false 12 11 1 40", "false false 0 0 0 0", "", "true", "true false 1 2 3",
		"yes no 1 2 3 4", "true false -1 -2 -3 -4", "true false 99999999999999999999 0 0 0"} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, resp []byte) {
		st, err := parseState(resp)
		if err != nil {
			return
		}
		again, err := parseState([]byte(fmt.Sprintf("%t %t %d %d %d %d",
			st.Joined, st.Refilling, st.Round, st.LogLen, st.Epoch, st.Remaining)))
		if err != nil || !reflect.DeepEqual(again, st) {
			t.Fatalf("%q parsed to %+v, which re-parses to %+v, %v", resp, st, again, err)
		}
	})
}
