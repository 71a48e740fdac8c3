package multicell

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"repro/internal/beacon"
	"repro/internal/gf2k"
)

// drawPerCell draws k coins from every cell (tenant-free: anonymous draws
// round-robin) and returns them by cell, in stream order.
func drawPerCell(t *testing.T, cl *Cluster, k int) [][]gf2k.Element {
	t.Helper()
	out := make([][]gf2k.Element, cl.Cells())
	for i := 0; i < k*cl.Cells(); i++ {
		c, err := cl.Draw(context.Background(), "")
		if err != nil {
			t.Fatalf("draw %d: %v", i, err)
		}
		out[c.Cell] = append(out[c.Cell], c.Val)
	}
	return out
}

func storedPlayers(t *testing.T, dir string, cell int) int {
	t.Helper()
	k, err := beacon.StoredPlayers(cellDir(dir, cell))
	if err != nil {
		t.Fatal(err)
	}
	return k
}

// TestStateDirSingleUse is the regression test for replayed sessions: a set
// of persisted stores funds exactly one resume. A cluster that resumed and
// then died without persisting leaves nothing behind, so the next start
// deals fresh — it does not reload the same files and expose the coins the
// dead session had already handed out.
func TestStateDirSingleUse(t *testing.T) {
	dir := t.TempDir()
	start := func(seed int64) *Cluster {
		t.Helper()
		cfg := testClusterConfig(t, 2)
		cfg.CellRand = newCellRand(seed, 2) // a new seed per process, as crypto/rand would be
		cfg.StateDir = dir
		cl, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return cl
	}

	first := start(1)
	if first.Resumed() {
		t.Fatal("a cluster on an empty state directory reports resumed")
	}
	drawPerCell(t, first, 3)
	if err := first.Persist(); err == nil {
		t.Fatal("Persist on a live cluster accepted")
	}
	mustCloseCluster(t, first)
	if err := first.Persist(); err != nil {
		t.Fatalf("Persist: %v", err)
	}
	for cell := 0; cell < 2; cell++ {
		if k := storedPlayers(t, dir, cell); k != 7 {
			t.Fatalf("cell %d: %d stores persisted, want 7", cell, k)
		}
	}

	second := start(2)
	if !second.Resumed() {
		t.Fatal("a cluster on a complete state directory did not resume")
	}
	for cell := 0; cell < 2; cell++ {
		if k := storedPlayers(t, dir, cell); k != 0 {
			t.Fatalf("cell %d: %d stores still on disk after the resume; they must be retired before the first draw", cell, k)
		}
	}
	const k = 20
	served := drawPerCell(t, second, k)
	mustCloseCluster(t, second) // frees its goroutines; no Persist — the process "died"

	third := start(3)
	defer mustCloseCluster(t, third)
	if third.Resumed() {
		t.Fatal("a cluster started after an unpersisted session reports resumed")
	}
	for cell, again := range drawPerCell(t, third, k) {
		if reflect.DeepEqual(again, served[cell]) {
			t.Fatalf("cell %d served the dead session's %d coins a second time: %v", cell, k, again)
		}
	}
}

// TestStateDirRefusesPartialState: a directory that is neither empty nor
// complete for this configuration stops New, and New leaves it as it found it.
func TestStateDirRefusesPartialState(t *testing.T) {
	persisted := func(t *testing.T) string {
		t.Helper()
		cfg := testClusterConfig(t, 2)
		cfg.StateDir = t.TempDir()
		cl, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		mustCloseCluster(t, cl)
		if err := cl.Persist(); err != nil {
			t.Fatal(err)
		}
		return cfg.StateDir
	}
	for _, tc := range []struct {
		name  string
		spoil func(t *testing.T, dir string)
		left  []int // stores that must still be in cell-00, cell-01 afterwards
	}{
		{"one cell's stores missing", func(t *testing.T, dir string) {
			if err := os.RemoveAll(cellDir(dir, 1)); err != nil {
				t.Fatal(err)
			}
		}, []int{7, 0}},
		{"one player's store missing", func(t *testing.T, dir string) {
			if err := os.Remove(filepath.Join(cellDir(dir, 0), "player-003.store")); err != nil {
				t.Fatal(err)
			}
		}, []int{6, 7}},
		{"stores outside any cell directory", func(t *testing.T, dir string) {
			if err := os.Rename(filepath.Join(cellDir(dir, 0), "player-000.store"), filepath.Join(dir, "player-000.store")); err != nil {
				t.Fatal(err)
			}
		}, []int{6, 7}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := persisted(t)
			tc.spoil(t, dir)
			cfg := testClusterConfig(t, 2)
			cfg.StateDir = dir
			if cl, err := New(cfg); err == nil {
				mustCloseCluster(t, cl)
				t.Fatal("New accepted the directory")
			}
			for cell, want := range tc.left {
				if k := storedPlayers(t, dir, cell); k != want {
					t.Errorf("cell %d holds %d stores after the refused start, want %d", cell, k, want)
				}
			}
		})
	}
	if err := (&Cluster{}).Persist(); err == nil {
		t.Fatal("Persist without a state directory accepted")
	}

	// Fewer cells than the directory holds is not partial state: the cells
	// asked for resume, and the others' stores — persisted, never resumed, so
	// their coins never exposed — stay for a later start to pick up.
	cfg := testClusterConfig(t, 1)
	cfg.StateDir = persisted(t)
	cl, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer mustCloseCluster(t, cl)
	if !cl.Resumed() || storedPlayers(t, cfg.StateDir, 0) != 0 || storedPlayers(t, cfg.StateDir, 1) != 7 {
		t.Fatalf("one cell on a two-cell directory: resumed %v, stores left %d and %d (want 0 and 7)",
			cl.Resumed(), storedPlayers(t, cfg.StateDir, 0), storedPlayers(t, cfg.StateDir, 1))
	}
}

// TestDrawBitsAndModRouted: the two derived draws go through the same router
// as DrawN — one tenant bucket, the tenant's home cell and its stream, shed
// off a dead home — and a bad argument is the caller's error, not the cell's.
func TestDrawBitsAndModRouted(t *testing.T) {
	cfg := testClusterConfig(t, 2)
	now := time.Now()
	cfg.now = func() time.Time { return now } // frozen clock: buckets never refill
	cfg.TenantRate, cfg.TenantBurst = 1, 5
	cl, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer mustCloseCluster(t, cl)
	ctx := context.Background()
	home := cl.ring.Lookup("alice")

	first, err := cl.DrawN(ctx, "alice", 1)
	if err != nil || first.Cell != home {
		t.Fatalf("DrawN: cell %d (home %d), %v", first.Cell, home, err)
	}
	bits, cell, err := cl.DrawBits(ctx, "alice", 20) // GF(2^8): three coins
	if err != nil || cell != home || len(bits) != 3 || bits[2]&0xf0 != 0 {
		t.Fatalf("DrawBits(20) = %x from cell %d (home %d), %v", bits, cell, home, err)
	}
	v, cell, err := cl.DrawMod(ctx, "alice", 2) // accepts every coin: exactly one
	if err != nil || cell != home || v < 1 || v > 2 {
		t.Fatalf("DrawMod(2) = %d from cell %d (home %d), %v", v, cell, home, err)
	}
	if next, err := cl.DrawN(ctx, "alice", 1); err != nil || next.Seq != first.Seq+1+3+1 {
		t.Fatalf("after a 3-coin DrawBits and a 1-coin DrawMod the stream stands at %d (started at %d), %v", next.Seq, first.Seq, err)
	}

	// Bad arguments spend the fifth token and then the bucket is dry: one
	// bucket for every kind of draw. Neither marks a cell down.
	if _, _, err := cl.DrawBits(ctx, "alice", beacon.MaxDrawBits+1); !errors.Is(err, beacon.ErrBadRequest) {
		t.Fatalf("oversized DrawBits: %v, want ErrBadRequest", err)
	}
	if _, _, err := cl.DrawMod(ctx, "alice", 3); !errors.Is(err, ErrRateLimited) {
		t.Fatalf("sixth draw: %v, want ErrRateLimited", err)
	}
	if _, _, err := cl.DrawMod(ctx, "bob", -2); !errors.Is(err, beacon.ErrBadRequest) {
		t.Fatalf("DrawMod(-2): %v, want ErrBadRequest", err)
	}
	if st := cl.RouterStats(); st.CellsDown != 0 || st.RateLimited != 1 {
		t.Fatalf("after two bad requests and one dry bucket: %+v", st)
	}

	// A dead home cell sheds both draws to the survivor.
	if err := cl.CloseCell(ctx, home); err != nil {
		t.Fatal(err)
	}
	if _, cell, err := cl.DrawBits(ctx, "carol", 8); err != nil || cell != 1-home {
		t.Fatalf("DrawBits with cell %d down: served by %d, %v", home, cell, err)
	}
	if _, cell, err := cl.DrawMod(ctx, "dave", 6); err != nil || cell != 1-home {
		t.Fatalf("DrawMod with cell %d down: served by %d, %v", home, cell, err)
	}
	mustCloseCluster(t, cl)
	if _, _, err := cl.DrawBits(ctx, "erin", 8); !errors.Is(err, ErrClosed) {
		t.Fatalf("DrawBits on a closed cluster: %v, want ErrClosed", err)
	}
}
