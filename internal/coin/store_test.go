package coin

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/gf2k"
)

// dealOne returns player 0's batch of `coins` sealed coins over GF(2^k).
func dealOne(t *testing.T, k, n, coins int, seed int64) *Batch {
	t.Helper()
	f := gf2k.MustNew(k)
	batches, _, err := DealTrusted(f, n, 1, coins, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	return batches[0]
}

// TestStoreAddRejectsMismatches: a store must refuse structurally
// incompatible batches — different field, different reconstruction degree,
// or share indices outside the bound player-id universe — instead of
// silently desyncing future exposures.
func TestStoreAddRejectsMismatches(t *testing.T) {
	base := dealOne(t, 32, 7, 2, 1)
	st := &Store{Universe: 7}
	if err := st.Add(base); err != nil {
		t.Fatalf("compatible batch rejected: %v", err)
	}
	if err := st.Add(nil); err == nil {
		t.Error("nil batch accepted")
	}
	if err := st.Add(dealOne(t, 16, 7, 2, 2)); err == nil {
		t.Error("batch over a different field accepted")
	}
	// Same field, different T.
	f := gf2k.MustNew(32)
	b2, _, err := DealTrusted(f, 13, 2, 2, rand.New(rand.NewSource(4)))
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Add(b2[0]); err == nil {
		t.Error("batch with mismatched T accepted")
	}
	// Reconstruction set outside the universe: t=3 puts S = {0..9}, which a
	// 7-player deployment cannot expose.
	big, _, err := DealTrusted(f, 13, 3, 2, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	fresh := &Store{Universe: 7}
	if err := fresh.Add(big[0]); err == nil {
		t.Error("batch with player indices ≥ Universe accepted")
	}
}

// TestStoreBindUniverse: binding after the fact re-validates resident
// batches, the path taken by restored stores.
func TestStoreBindUniverse(t *testing.T) {
	f := gf2k.MustNew(32)
	// t=3 ⇒ S = {0..9}: too wide for a 7-player universe.
	batches, _, err := DealTrusted(f, 13, 3, 2, rand.New(rand.NewSource(6)))
	if err != nil {
		t.Fatal(err)
	}
	st := &Store{}
	if err := st.Add(batches[0]); err != nil { // unbound store takes anything well-formed
		t.Fatal(err)
	}
	if err := st.BindUniverse(7); err == nil {
		t.Error("BindUniverse(7) accepted a batch naming player 9")
	}
	if err := st.BindUniverse(13); err != nil {
		t.Errorf("BindUniverse(13): %v", err)
	}
	if err := st.BindUniverse(0); err == nil {
		t.Error("BindUniverse(0) accepted")
	}
}

// TestBatchSplit: splitting carves the newest coins into a new batch and
// leaves the rest (and the cursor) behind.
func TestBatchSplit(t *testing.T) {
	b := dealOne(t, 32, 7, 6, 7)
	if _, err := b.Split(0); err == nil {
		t.Error("Split(0) accepted")
	}
	if _, err := b.Split(7); err == nil {
		t.Error("Split beyond Remaining accepted")
	}
	tail, err := b.Split(2)
	if err != nil {
		t.Fatal(err)
	}
	if b.Remaining() != 4 || tail.Remaining() != 2 {
		t.Fatalf("split 6 into %d + %d, want 4 + 2", b.Remaining(), tail.Remaining())
	}
	if tail.Field.K() != b.Field.K() || tail.T != b.T {
		t.Fatal("split batch lost its field or degree")
	}
}

// TestStoreDetachTail: the detached store holds exactly the newest coins;
// FIFO order within it is preserved; bounds are enforced.
func TestStoreDetachTail(t *testing.T) {
	f := gf2k.MustNew(32)
	rng := rand.New(rand.NewSource(8))
	b1, _, err := DealTrusted(f, 7, 1, 3, rng)
	if err != nil {
		t.Fatal(err)
	}
	b2, _, err := DealTrusted(f, 7, 1, 3, rng)
	if err != nil {
		t.Fatal(err)
	}
	st := &Store{}
	if err := st.Add(b1[0]); err != nil {
		t.Fatal(err)
	}
	if err := st.Add(b2[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := st.DetachTail(7); err == nil {
		t.Error("DetachTail of more than the store holds accepted")
	}
	if _, err := st.DetachTail(0); err == nil {
		t.Error("DetachTail(0) accepted")
	}
	// 4 newest = all of b2 (3) + the newest coin of b1: crosses a batch
	// boundary.
	tail, err := st.DetachTail(4)
	if err != nil {
		t.Fatal(err)
	}
	if st.Remaining() != 2 || tail.Remaining() != 4 {
		t.Fatalf("detach left %d + %d, want 2 + 4", st.Remaining(), tail.Remaining())
	}
	if got := len(tail.Batches()); got != 2 {
		t.Fatalf("detached tail spans %d batches, want 2", got)
	}
	// The whole remaining store may go: an on-demand mint takes it as seed.
	rest, err := st.DetachTail(2)
	if err != nil {
		t.Fatal(err)
	}
	if st.Remaining() != 0 || rest.Remaining() != 2 {
		t.Fatalf("detaching the whole store left %d + %d, want 0 + 2", st.Remaining(), rest.Remaining())
	}
}

// TestStoreMarshalRoundTrip: multi-batch stores with partially exposed
// batches survive the wire format byte-for-byte.
func TestStoreMarshalRoundTrip(t *testing.T) {
	f := gf2k.MustNew(32)
	rng := rand.New(rand.NewSource(9))
	st := &Store{}
	for s := 0; s < 3; s++ {
		bs, _, err := DealTrusted(f, 7, 1, 2+s, rng)
		if err != nil {
			t.Fatal(err)
		}
		if err := st.Add(bs[0]); err != nil {
			t.Fatal(err)
		}
	}
	enc, err := st.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	got, err := UnmarshalStore(enc)
	if err != nil {
		t.Fatal(err)
	}
	if got.Remaining() != st.Remaining() || len(got.Batches()) != len(st.Batches()) {
		t.Fatalf("restored store has %d coins in %d batches, want %d in %d",
			got.Remaining(), len(got.Batches()), st.Remaining(), len(st.Batches()))
	}
	again, err := got.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, enc) {
		t.Fatal("store encoding is not stable across a round trip")
	}
}

// TestUnmarshalStoreRejectsMalformed covers truncation, bad magic,
// trailing garbage, and structurally incompatible member batches.
func TestUnmarshalStoreRejectsMalformed(t *testing.T) {
	f := gf2k.MustNew(32)
	rng := rand.New(rand.NewSource(10))
	st := &Store{}
	bs, _, err := DealTrusted(f, 7, 1, 2, rng)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Add(bs[0]); err != nil {
		t.Fatal(err)
	}
	enc, err := st.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{
		"empty":        {},
		"bad magic":    append([]byte("NOTDPRBG"), enc[8:]...),
		"truncated":    enc[:len(enc)-3],
		"trailing":     append(append([]byte{}, enc...), 0xff),
		"batch magic":  bytes.Replace(enc, []byte(batchMagic), []byte("XXXXXXXX"), 1),
		"count too hi": append(append([]byte{}, enc[:len(storeMagicV2)+8]...), 0xff, 0xff, 0xff, 0x7f),
	}
	for name, data := range cases {
		if _, err := UnmarshalStore(data); err == nil {
			t.Errorf("%s: malformed store encoding accepted", name)
		}
	}
	// A file whose batches disagree structurally must fail Add's checks.
	b16, _, err := DealTrusted(gf2k.MustNew(16), 7, 1, 2, rng)
	if err != nil {
		t.Fatal(err)
	}
	e16, err := b16[0].MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	mixed := &Store{}
	if err := mixed.Add(bs[0]); err != nil {
		t.Fatal(err)
	}
	menc, err := mixed.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	// Forge a two-batch file: the valid GF(2^32) batch followed by a
	// GF(2^16) batch. The v2 header (universe + generation) is kept as-is.
	forged := append([]byte{}, menc[:len(storeMagicV2)+8]...)
	forged = append(forged, 2, 0, 0, 0)
	body := menc[len(storeMagicV2)+12:]
	forged = append(forged, body...)
	forged = append(forged, byte(len(e16)), byte(len(e16)>>8), byte(len(e16)>>16), byte(len(e16)>>24))
	forged = append(forged, e16...)
	if _, err := UnmarshalStore(forged); err == nil {
		t.Error("store mixing fields accepted")
	}
}

// TestDiscardFastForward: Discard must advance the cursor exactly as that
// many Exposes would — across batch boundaries, popping drained batches —
// so a rejoining player's next transmitted share index matches the cluster.
func TestDiscardFastForward(t *testing.T) {
	st := &Store{Universe: 7}
	if err := st.Add(dealOne(t, 32, 7, 3, 1)); err != nil {
		t.Fatal(err)
	}
	if err := st.Add(dealOne(t, 32, 7, 4, 1)); err != nil {
		t.Fatal(err)
	}
	if err := st.Discard(5); err != nil {
		t.Fatal(err)
	}
	if got := st.Remaining(); got != 2 {
		t.Fatalf("Remaining after Discard(5) = %d, want 2", got)
	}
	// The front batch is fully drained; the survivor's cursor sits at 2.
	if bs := st.Batches(); len(bs) != 1 || bs[0].Cursor() != 2 {
		t.Fatalf("post-discard batches = %d, front cursor = %d; want 1 batch at cursor 2",
			len(bs), bs[0].Cursor())
	}
	if err := st.Discard(3); err == nil {
		t.Error("Discard beyond Remaining accepted")
	}
	if err := st.Discard(-1); err == nil {
		t.Error("negative Discard accepted")
	}
	if err := st.Discard(2); err != nil {
		t.Fatal(err)
	}
	if st.Remaining() != 0 {
		t.Fatalf("Remaining after draining = %d, want 0", st.Remaining())
	}
}

// TestBatchDiscardMatchesExposeCursor: Batch.Discard(k) leaves the batch at
// the same cursor as k sequential Exposes would, so the share transmitted
// next is the one the rest of the cluster expects.
func TestBatchDiscardMatchesExposeCursor(t *testing.T) {
	b := dealOne(t, 32, 7, 6, 9)
	if err := b.Discard(4); err != nil {
		t.Fatal(err)
	}
	if b.Cursor() != 4 || b.Remaining() != 2 {
		t.Fatalf("cursor %d remaining %d after Discard(4), want 4 and 2", b.Cursor(), b.Remaining())
	}
	if err := b.Discard(0); err != nil {
		t.Fatalf("Discard(0) should be a no-op: %v", err)
	}
	if err := b.Discard(3); err == nil {
		t.Error("Discard past the end accepted")
	}
}
