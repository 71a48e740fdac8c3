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

// localConfig is a 7-player config (t=1, threshold 6) whose addresses
// nothing dials, with batch as both its batch and its seed size.
func localConfig(batch int) *simnet.PeerConfig {
	pc := &simnet.PeerConfig{Cluster: "t", Secret: []byte("0123456789abcdef0123456789abcdef"),
		T: 1, K: 32, Batch: batch, Threshold: 6, SeedCoins: batch}
	for i := 0; i < 7; i++ {
		pc.Peers = append(pc.Peers, simnet.Peer{ID: i, Addr: fmt.Sprintf("127.0.0.1:%d", 1000+i)})
	}
	return pc
}

// dealtDir deals a 7-player cluster into a fresh directory.
func dealtDir(t testing.TB, seed int64) (*simnet.PeerConfig, string) {
	t.Helper()
	pc := localConfig(24)
	dir := t.TempDir()
	if err := DealCluster(pc, dir, rand.New(rand.NewSource(seed))); err != nil {
		t.Fatal(err)
	}
	noMeta(t, dir)
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
// the fence, and the legacy layout (a bare store with the stamp in a .meta
// beside it), table-driven over what is on disk.
func TestOpenPlayerState(t *testing.T) {
	cases := []struct {
		name       string
		log        string // player 0's log file ("" = as dealt)
		at         stamp  // the stamped store's header
		meta       string // legacy: write the store bare, with this .meta ("-" = none)
		rmStore    bool
		generation int
		wantErr    string // "" = opens; otherwise a required substring
		wantLeft   int    // sealed coins after reconciliation
		wantEpoch  int
	}{
		{name: "clean", wantLeft: 24},
		{name: "crash gap replayed", log: "0 aa\n1 bb\n2 cc\n", wantLeft: 21},
		{name: "torn tail not replayed", log: "0 aa\n1 bb\n2 c", wantLeft: 22},
		{name: "gap inside snapshot", log: "0 aa\n1 bb\n2 cc\n", at: stamp{Epoch: 2, LogLen: 2}, wantLeft: 23, wantEpoch: 2},
		{name: "log behind snapshot", log: "0 aa\n", at: stamp{LogLen: 3}, wantErr: "behind its store snapshot"},
		{name: "gap beyond the store", log: logOf(30), wantErr: "crash reconciliation"},
		{name: "roster generation mismatch", generation: 1, wantErr: "store is generation 0 but peers.yaml says 1"},
		{name: "no store", rmStore: true, wantErr: "no such file"},
		{name: "legacy gap inside snapshot", log: "0 aa\n1 bb\n2 cc\n", meta: `{"Epoch":2,"LogLen":2}`, wantLeft: 23, wantEpoch: 2},
		{name: "legacy log behind snapshot", log: "0 aa\n", meta: `{"Epoch":0,"LogLen":3}`, wantErr: "behind its store snapshot"},
		{name: "legacy missing meta reads as zero", log: "0 aa\n", meta: "-", wantLeft: 23},
		{name: "legacy meta generation ignored", meta: `{"Epoch":0,"LogLen":0,"Generation":1}`, wantLeft: 24},
		{name: "legacy meta garbage", meta: `{"LogLen":`, wantErr: "JSON input"},
		{name: "legacy meta negative", log: "0 aa\n", meta: `{"LogLen":-1}`, wantErr: "negative snapshot stamp"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, dir := dealtDir(t, 7)
			if tc.log != "" {
				if err := os.WriteFile(CoinLogFile(dir, 0), []byte(tc.log), 0o600); err != nil {
					t.Fatal(err)
				}
			}
			st, _, _, err := loadStore(dir, 0)
			if err != nil {
				t.Fatal(err)
			}
			if tc.meta != "" {
				writeLegacy(t, dir, 0, st, tc.meta)
			} else if err := writeStore(dir, 0, tc.at, st); err != nil {
				t.Fatal(err)
			}
			if tc.rmStore {
				os.Remove(storeFile(dir, 0))
			}
			ps, err := openPlayerState(dir, 0, tc.generation)
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
			if got := ps.store.Remaining(); got != tc.wantLeft || ps.epoch != tc.wantEpoch {
				t.Fatalf("store holds %d coins at epoch %d after open, want %d at %d", got, ps.epoch, tc.wantLeft, tc.wantEpoch)
			}
		})
	}
}

// TestLoadStoreNewest drives the loader's choice between the .store and
// the slot records, table-driven over what is on disk: the valid record of
// the .store's generation with the highest sequence number wins unless the
// .store is ahead of it, and the next snapshot goes to the slot that does
// not hold the highest sequence number.
func TestLoadStoreNewest(t *testing.T) {
	_, dealt := dealtDir(t, 4)
	st, _, _, err := loadStore(dealt, 0)
	if err != nil {
		t.Fatal(err)
	}
	enc, err := st.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	next, err := coin.UnmarshalStore(enc)
	if err != nil {
		t.Fatal(err)
	}
	next.Generation = 1
	encNext, err := next.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	rec := func(seq uint64, at stamp) []byte { return appendSlotRecord(nil, seq, at, enc) }
	torn := func(b []byte) []byte { return b[:len(b)-5] }
	cases := []struct {
		name     string
		store    stamp
		slots    [2][]byte // nil = no such file
		want     stamp
		wantNext int
	}{
		{name: "no slots", store: stamp{Epoch: 1, LogLen: 5}, want: stamp{Epoch: 1, LogLen: 5}},
		{name: "slot ahead", slots: [2][]byte{rec(1, stamp{Epoch: 2, LogLen: 9})}, want: stamp{Epoch: 2, LogLen: 9}, wantNext: 1},
		{name: "newer slot", slots: [2][]byte{rec(3, stamp{Epoch: 2, LogLen: 8}), rec(2, stamp{Epoch: 1, LogLen: 4})},
			want: stamp{Epoch: 2, LogLen: 8}, wantNext: 1},
		{name: "newer slot torn", slots: [2][]byte{torn(rec(3, stamp{Epoch: 2, LogLen: 8})), rec(2, stamp{Epoch: 1, LogLen: 4})},
			want: stamp{Epoch: 1, LogLen: 4}, wantNext: 0},
		{name: "both torn", store: stamp{LogLen: 1}, slots: [2][]byte{torn(rec(3, stamp{Epoch: 2})), torn(rec(4, stamp{Epoch: 3}))},
			want: stamp{LogLen: 1}},
		{name: "store ahead of the slots", store: stamp{Epoch: 3, LogLen: 20}, slots: [2][]byte{nil, rec(7, stamp{Epoch: 2, LogLen: 9})},
			want: stamp{Epoch: 3, LogLen: 20}, wantNext: 0},
		{name: "other generation", slots: [2][]byte{appendSlotRecord(nil, 5, stamp{Epoch: 4, LogLen: 4}, encNext)}, wantNext: 1},
		{name: "longer record's tail ignored", slots: [2][]byte{nil, append(rec(1, stamp{Epoch: 1, LogLen: 2}), rec(9, stamp{Epoch: 9})...)},
			want: stamp{Epoch: 1, LogLen: 2}, wantNext: 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			if err := writeStore(dir, 0, tc.store, st); err != nil {
				t.Fatal(err)
			}
			for i, data := range tc.slots {
				if data != nil {
					if err := os.WriteFile(slotFile(dir, 0, i), data, 0o600); err != nil {
						t.Fatal(err)
					}
				}
			}
			got, at, _, cur, err := readState(dir, 0)
			if err != nil {
				t.Fatal(err)
			}
			if at != tc.want || got.Generation != 0 || cur.next != tc.wantNext {
				t.Fatalf("loaded generation %d at %+v, next slot %d; want generation 0 at %+v, next slot %d",
					got.Generation, at, cur.next, tc.want, tc.wantNext)
			}
		})
	}
}

func logOf(n int) string {
	return string(appendLogLines(nil, 0, make([]gf2k.Element, n)))
}

// writeLegacy lays player's state out the way the commits before the store
// header did: the bare coin.Store encoding, and meta ("-" = none) beside it.
func writeLegacy(t *testing.T, dir string, player int, st *coin.Store, meta string) {
	t.Helper()
	enc, err := st.MarshalBinary()
	if err == nil {
		err = writeAtomic(storeFile(dir, player), enc)
	}
	if err == nil && meta != "-" {
		err = os.WriteFile(metaFile(dir, player), []byte(meta), 0o600)
	}
	if err != nil {
		t.Fatal(err)
	}
}

// noMeta fails when dir holds any .meta: no code path writes one.
func noMeta(t testing.TB, dir string) {
	t.Helper()
	if metas, _ := filepath.Glob(filepath.Join(dir, "player-*.meta")); len(metas) != 0 {
		t.Fatalf("%s holds %v", dir, metas)
	}
}

// readStamp reads the stamp and generation of player's store, and checks no
// .meta lies in dir.
func readStamp(t *testing.T, dir string, player int) (stamp, int) {
	t.Helper()
	noMeta(t, dir)
	st, at, bare, err := loadStore(dir, player)
	if err != nil || bare {
		t.Fatalf("player %d store: bare %t, %v", player, bare, err)
	}
	return at, st.Generation
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
		ps, err := openPlayerState(dir, i, 0)
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
	ps, err := openPlayerState(dir, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := ps.append(1, 2, 3); err != nil {
		t.Fatal(err)
	}
	if err := ps.store.Discard(3); err != nil { // what exposing three coins does to the cursor
		t.Fatal(err)
	}
	ps.epoch = 4
	if err := ps.snapshot(); err != nil {
		t.Fatal(err)
	}
	if err := ps.append(4); err != nil { // logged after the snapshot, then "crash"
		t.Fatal(err)
	}
	ps.close()
	if at, _ := readStamp(t, dir, 0); at != (stamp{Epoch: 4, LogLen: 3}) {
		t.Fatalf("stamp after snapshot = %+v", at)
	}
	re, err := openPlayerState(dir, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer re.close()
	if len(re.log) != 4 || re.store.Remaining() != 24-4 || re.epoch != 4 {
		t.Fatalf("reopened at log %d, %d coins, epoch %d; want 4, 20, 4", len(re.log), re.store.Remaining(), re.epoch)
	}
}

// TestWriteGenerationOrder makes each step of the next-generation write
// fail in turn (a directory squatting on the file's name defeats open and
// rename alike) and checks the order is log → store: whatever step fails,
// every earlier file is complete and no later file exists — so a store on
// disk implies its log, and carries the stamp (epoch 0, len(log)).
func TestWriteGenerationOrder(t *testing.T) {
	_, dealt := dealtDir(t, 3)
	st, _, _, err := loadStore(dealt, 0)
	if err != nil {
		t.Fatal(err)
	}
	log := []gf2k.Element{0xa, 0xb, 0xc}
	present := func(path string) bool { fi, err := os.Stat(path); return err == nil && fi.Mode().IsRegular() }
	for step, block := range []func(dir string, player int) string{CoinLogFile, storeFile, nil} {
		dir := t.TempDir()
		if block != nil {
			if err := os.Mkdir(block(dir, 4), 0o700); err != nil {
				t.Fatal(err)
			}
		}
		err := writeGeneration(dir, 4, log, st)
		if (err == nil) != (block == nil) {
			t.Fatalf("step %d blocked: writeGeneration error = %v", step, err)
		}
		got := []bool{present(CoinLogFile(dir, 4)), present(storeFile(dir, 4))}
		for i, ok := range got {
			if ok != (i < step) {
				t.Fatalf("step %d blocked: log/store present = %v", step, got)
			}
		}
		if step > 0 {
			if data, _ := os.ReadFile(CoinLogFile(dir, 4)); string(data) != "0 a\n1 b\n2 c\n" {
				t.Fatalf("step %d blocked: log = %q", step, data)
			}
		}
		if block == nil {
			if at, _ := readStamp(t, dir, 4); at != (stamp{LogLen: 3}) {
				t.Fatalf("generation stamp = %+v, want epoch 0 at 3", at)
			}
		}
	}

	// A log already under the identity must be a prefix of the committee's.
	dir := t.TempDir()
	if err := os.WriteFile(CoinLogFile(dir, 4), []byte("0 a\n1 ff\n"), 0o600); err != nil {
		t.Fatal(err)
	}
	if err := writeGeneration(dir, 4, log, st); err == nil || !strings.Contains(err.Error(), "not a prefix") {
		t.Fatalf("diverging local log: error = %v", err)
	}
	if present(storeFile(dir, 4)) {
		t.Fatal("diverging local log: store written anyway")
	}
}

// TestSnapshotCrashPoints blocks each durable step of snapshot in turn —
// closing the log defeats its fsync, a non-empty directory squatting on a
// file's name defeats create, rename and unlink alike — on stamped state and
// on the layout from before the stamp, then reopens: whatever step the crash
// hit, every player's next opened coin is the uninterrupted stream's, and the
// epoch read back is the one stored with that store. Three rows damage what
// a finished snapshot left instead: its slot record torn mid-body or with
// one byte flipped (the previous slot stands, and the next snapshot
// overwrites the damaged one), or both slots lost, as a binary from before the slots reads the
// directory — one epoch back, where the epoch fence stops the player from
// joining the cluster that moved on.
func TestSnapshotCrashPoints(t *testing.T) {
	const n, a, more = 7, 3, 4
	layouts := []struct {
		name  string
		state func(t *testing.T) (*simnet.PeerConfig, string)
		steps []string
	}{
		{"stamped", func(t *testing.T) (*simnet.PeerConfig, string) { return dealtDir(t, 13) },
			[]string{"log fsync", "slot write", "torn slot", "flipped slot", "slots lost", "none"}},
		{"legacy", func(t *testing.T) (*simnet.PeerConfig, string) { return localConfig(40), parentLayoutDir(t) },
			[]string{"log fsync", "store rename", "meta removal", "none"}},
	}
	openAll := func(t *testing.T, dir string) ([]*playerState, []*coin.Store) {
		pss, stores := make([]*playerState, n), make([]*coin.Store, n)
		for i := range pss {
			ps, err := openPlayerState(dir, i, 0)
			if err != nil {
				t.Fatalf("player %d: %v", i, err)
			}
			pss[i], stores[i] = ps, ps.store
		}
		return pss, stores
	}
	for _, lay := range layouts {
		pc, dir := lay.state(t)
		pss, stores := openAll(t, dir)
		ref := exposeAll(t, pc, stores, a+more) // the uninterrupted stream
		for _, ps := range pss {
			ps.close()
		}
		for _, step := range lay.steps {
			t.Run(lay.name+"/"+step, func(t *testing.T) {
				_, dir := lay.state(t)
				pss, stores := openAll(t, dir)
				damaged := strings.HasSuffix(step, "slot")
				if damaged {
					for _, ps := range pss { // the slot to fall back to
						if err := ps.snapshot(); err != nil {
							t.Fatal(err)
						}
					}
				}
				vals := exposeAll(t, pc, stores, a)
				for i, ps := range pss {
					if err := ps.append(vals...); err != nil {
						t.Fatal(err)
					}
					ps.epoch++ // as if the a-th coin had ended a refill
					var squat string
					switch step {
					case "log fsync":
						ps.file.Close()
					case "slot write":
						squat = slotFile(dir, i, ps.cur.next)
					case "store rename":
						squat = storeFile(dir, i)
					case "meta removal":
						squat = metaFile(dir, i)
					}
					if squat != "" {
						if err := os.Rename(squat, squat+".aside"); err != nil && !os.IsNotExist(err) {
							t.Fatal(err)
						}
						if err := os.MkdirAll(filepath.Join(squat, "squatter"), 0o700); err != nil {
							t.Fatal(err)
						}
					}
					blocked := squat != "" || step == "log fsync"
					if err := ps.snapshot(); (err == nil) == blocked {
						t.Fatalf("player %d, %q blocked: snapshot error = %v", i, step, err)
					}
					ps.close()
					if squat != "" {
						if err := os.RemoveAll(squat); err != nil {
							t.Fatal(err)
						}
						if err := os.Rename(squat+".aside", squat); err != nil && !os.IsNotExist(err) {
							t.Fatal(err)
						}
					}
					written := slotFile(dir, i, 1-ps.cur.next)
					switch step {
					case "torn slot", "flipped slot":
						rec, err := os.ReadFile(written)
						if err != nil {
							t.Fatal(err)
						}
						if step == "torn slot" {
							rec = rec[:len(rec)/2]
						} else {
							rec[len(rec)/2] ^= 0x10
						}
						if err := os.WriteFile(written, rec, 0o600); err != nil {
							t.Fatal(err)
						}
					case "slots lost":
						if removed, err := syncDir(dir, slotFiles(dir, i)...); removed != 1 || err != nil {
							t.Fatalf("player %d: removed %d slots, %v; want the one snapshot's", i, removed, err)
						}
					}
				}
				pss, stores = openAll(t, dir)
				defer func() {
					for _, ps := range pss {
						ps.close()
					}
				}()
				storeWritten := step == "meta removal" || step == "none"
				for i, ps := range pss {
					if storeWritten != (ps.epoch == 1) {
						t.Fatalf("player %d reopened at epoch %d with the store written: %t", i, ps.epoch, storeWritten)
					}
					// The pre-snapshot wrote slot 0 and the damaged one slot 1.
					if damaged && ps.cur.next != 1 {
						t.Fatalf("player %d: next snapshot goes to slot %d, over the one that stood", i, ps.cur.next)
					}
					if step == "slots lost" {
						err := (&Daemon{ps: ps}).coldStart([]DaemonStats{{Epoch: 1}}, []int{(i + 1) % n})
						if !errors.Is(err, ErrEpochMismatch) {
							t.Fatalf("player %d opened from its .store alone: cold start beside epoch-1 peers = %v, want the epoch fence", i, err)
						}
					}
				}
				if step == "none" {
					noMeta(t, dir)
				}
				for i, v := range exposeAll(t, pc, stores, more) {
					if v != ref[a+i] {
						t.Fatalf("coin %d after a crash at %q = %#x, the uninterrupted stream has %#x", a+i, step, v, ref[a+i])
					}
				}
			})
		}
	}
}

// parentLayoutDir copies testdata/state-pr21 — a bare store, a .meta and a
// log per player, written before the player-state seam existed — into a
// fresh directory.
func parentLayoutDir(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	files, err := filepath.Glob("testdata/state-pr21/player-*")
	if err != nil || len(files) != 3*7 {
		t.Fatalf("fixture: %d files, %v", len(files), err)
	}
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err == nil {
			err = os.WriteFile(filepath.Join(dir, filepath.Base(f)), data, 0o600)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// TestLoadStoresReadsBareEncoding: stores persisted the way Service.Persist
// wrote them before the header — writeAtomic(storeFile, MarshalBinary()) —
// still load, unchanged.
func TestLoadStoresReadsBareEncoding(t *testing.T) {
	_, dealt := dealtDir(t, 21)
	want, err := LoadStores(dealt, 7)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	for i, st := range want {
		writeLegacy(t, dir, i, st, "-")
	}
	got, err := LoadStores(dir, 7)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		a, _ := want[i].MarshalBinary()
		b, _ := got[i].MarshalBinary()
		if !bytes.Equal(a, b) {
			t.Fatalf("player %d: bare store loaded differently", i)
		}
	}
}

// FuzzLoadStore: the store-file reader — stamped header or bare store plus
// .meta — takes what a bad disk hands it without panicking, and a stamped
// file it accepts re-encodes byte for byte (a stamped file around coin's
// legacy v1 encoding, which no writer produces, is the one exception: it
// loads, and upgrades like coin.UnmarshalStore's own v1 input does).
func FuzzLoadStore(f *testing.F) {
	const headerLen = len(storeFileMagic) + 16
	_, dealt := dealtDir(f, 2)
	st, _, _, err := loadStore(dealt, 0)
	if err != nil {
		f.Fatal(err)
	}
	bare, _ := st.MarshalBinary()
	if err := writeStore(dealt, 0, stamp{Epoch: 3, LogLen: 17}, st); err != nil {
		f.Fatal(err)
	}
	stamped, _ := os.ReadFile(storeFile(dealt, 0))
	for _, seed := range []struct{ store, meta []byte }{
		{stamped, nil},
		{stamped, []byte(`{"Epoch":9,"LogLen":1}`)},
		{bare, []byte(`{"Epoch":1,"LogLen":5,"Generation":1}`)},
		{bare, nil},
		{bare, []byte(`{"LogLen":`)},
		{bare, []byte(`{"LogLen":-4}`)},
		{bare, []byte(`[]`)},
		{stamped[:headerLen-1], nil},
		{stamped[:len(storeFileMagic)], nil},
		{stamped[:headerLen], nil},
		{append([]byte(storeFileMagic), bytes.Repeat([]byte{0xff}, 16)...), nil},
	} {
		f.Add(seed.store, seed.meta)
	}
	dir, reDir := f.TempDir(), f.TempDir()
	f.Fuzz(func(t *testing.T, store, meta []byte) {
		if err := os.WriteFile(storeFile(dir, 0), store, 0o600); err != nil {
			t.Fatal(err)
		}
		os.Remove(metaFile(dir, 0))
		if meta != nil {
			if err := os.WriteFile(metaFile(dir, 0), meta, 0o600); err != nil {
				t.Fatal(err)
			}
		}
		st, at, bare, err := loadStore(dir, 0)
		if err != nil || bare || bytes.HasPrefix(store[headerLen:], []byte("DPRBGs1\x00")) {
			return
		}
		if err := writeStore(reDir, 0, at, st); err != nil {
			t.Fatalf("accepted stamped file %x fails to re-encode: %v", store, err)
		}
		if re, _ := os.ReadFile(storeFile(reDir, 0)); !bytes.Equal(re, store) {
			t.Fatalf("accepted stamped file %x re-encodes as %x", store, re)
		}
	})
}

// FuzzLoadSlot: whatever a bad disk leaves in a slot beside a dealt .store
// — a torn or flipped record, another generation's, garbage — the loader
// takes without panicking. A record whose CRC checks out re-renders byte for
// byte; one that fails it leaves the .store standing; and one holding the
// .store's generation is what loads (a body in coin's legacy v1 encoding,
// which no writer produces, loads and upgrades, as in FuzzLoadStore).
func FuzzLoadSlot(f *testing.F) {
	_, dir := dealtDir(f, 2)
	ps, err := openPlayerState(dir, 0, 0)
	if err != nil {
		f.Fatal(err)
	}
	ps.epoch = 3
	if err := ps.append(7, 8); err != nil {
		f.Fatal(err)
	}
	err = ps.snapshot()
	ps.close()
	if err != nil {
		f.Fatal(err)
	}
	rec, err := os.ReadFile(slotFile(dir, 0, 0))
	if err != nil {
		f.Fatal(err)
	}
	body := rec[slotHeaderLen : len(rec)-4]
	next, err := coin.UnmarshalStore(body)
	if err != nil {
		f.Fatal(err)
	}
	next.Generation = 1
	nextBody, err := next.MarshalBinary()
	if err != nil {
		f.Fatal(err)
	}
	flipped := bytes.Clone(rec)
	flipped[len(rec)/2] ^= 1
	for _, seed := range [][]byte{
		rec,
		append(bytes.Clone(rec), rec[:100]...), // a longer record's tail
		rec[:len(rec)/2],
		rec[:len(rec)-1],
		flipped,
		rec[:slotHeaderLen],
		[]byte(slotMagic),
		{},
		appendSlotRecord(nil, 9, stamp{Epoch: 1, LogLen: 2}, nextBody),
		appendSlotRecord(nil, 9, stamp{Epoch: -1, LogLen: 2}, body),
		appendSlotRecord(nil, 9, stamp{}, []byte("not a store")),
	} {
		f.Add(seed)
	}
	os.Remove(slotFile(dir, 0, 1))
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(slotFile(dir, 0, 0), data, 0o600); err != nil {
			t.Fatal(err)
		}
		st, at, _, err := loadStore(dir, 0)
		rec, ok := parseSlotRecord(data)
		if !ok {
			if err != nil || at != (stamp{}) {
				t.Fatalf("slot %x fails its CRC, yet the dealt .store does not stand: %+v, %v", data, at, err)
			}
			return
		}
		if re := appendSlotRecord(nil, rec.seq, rec.at, rec.body); !bytes.HasPrefix(data, re) {
			t.Fatalf("slot record %x re-renders as %x", data, re)
		}
		want, derr := coin.UnmarshalStore(rec.body)
		if err != nil || derr != nil || want.Generation != 0 || bytes.HasPrefix(rec.body, []byte("DPRBGs1\x00")) {
			return
		}
		enc, _ := st.MarshalBinary()
		if at != rec.at || !bytes.Equal(enc, rec.body) {
			t.Fatalf("slot record %x of the .store's generation loads as %+v, %x", data, at, enc)
		}
	})
}

// TestLegacySnapshotMigrates: the first snapshot of a directory in the
// layout from before the stamp writes the stamped store and removes the
// .meta; a reopen finds the same position, epoch and store.
func TestLegacySnapshotMigrates(t *testing.T) {
	dir := parentLayoutDir(t)
	for i := 0; i < 7; i++ {
		ps, err := openPlayerState(dir, i, 0)
		if err != nil {
			t.Fatalf("player %d: %v", i, err)
		}
		before, err := ps.store.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if !ps.bare {
			t.Fatalf("player %d: fixture store opened as stamped", i)
		}
		err = ps.snapshot()
		ps.close()
		if err != nil {
			t.Fatalf("player %d snapshot: %v", i, err)
		}
		if _, err := os.Stat(metaFile(dir, i)); !os.IsNotExist(err) {
			t.Fatalf("player %d .meta survived the first snapshot: %v", i, err)
		}
		re, err := openPlayerState(dir, i, 0)
		if err != nil {
			t.Fatal(err)
		}
		re.close()
		after, err := re.store.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if re.bare || len(re.log) != len(ps.log) || re.epoch != ps.epoch || !bytes.Equal(after, before) {
			t.Fatalf("player %d reopened bare=%t at log %d epoch %d; want stamped at %d epoch %d, same store",
				i, re.bare, len(re.log), re.epoch, len(ps.log), ps.epoch)
		}
	}
	noMeta(t, dir)
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
			ps, err := openPlayerState(dir, 0, 0)
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
		ps, err := openPlayerState(dir, i, 0)
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
// panic and must read back exactly what formatState writes.
func FuzzParseState(f *testing.F) {
	for _, seed := range []string{"true false 12 11 1 40", "false false 0 0 0 0", "", "true", "true false 1 2 3",
		"yes no 1 2 3 4", "true false -1 -2 -3 -4", "true false 99999999999999999999 0 0 0",
		"true false 12 352 384 3 90 32", "false false 0 0 1 0 24 1", "true true 7 64 64 1 5 32",
		"true false 1 2 3 4 5 6 -7", "true false 1 2 3 4 5 6 99999999999999999999", "true false 12 11 1 40 7"} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, resp []byte) {
		st, err := parseState(resp)
		if err != nil {
			return
		}
		again, err := parseState(formatState(st))
		if err != nil || !reflect.DeepEqual(again, st) {
			t.Fatalf("%q parsed to %+v, which re-parses to %+v, %v", resp, st, again, err)
		}
	})
}
