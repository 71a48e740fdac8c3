package beacon

import (
	"bytes"
	"context"
	"io"
	"math/rand"
	"testing"
	"time"

	"repro/internal/gf2k"
	"repro/internal/metrics"
)

// fixedRand gives every player the same stream on every call, so two
// Services built from one config deal the same seed — usable only where no
// test crosses two refills.
func fixedRand(base int64) func(int) io.Reader {
	return func(i int) io.Reader { return rand.New(rand.NewSource(base + int64(i))) }
}

// gateCtx is a context whose Err blocks until the gate opens and then
// reports cancellation: handed to the executive as a request, it parks the
// executive inside serve (which checks ctx.Err before anything else) while
// the test fills the queue behind it.
type gateCtx struct {
	context.Context
	gate chan struct{}
}

func (g gateCtx) Err() error {
	<-g.gate
	return context.Canceled
}

type drawn struct {
	vals []gf2k.Element
	seq  int64
	err  error
}

// queueBehindGate parks the executive, queues one DrawN per entry of needs
// in that order, releases the executive, and returns the results: the
// requests are then coalesced into one sweep (sweepCoins permitting).
func queueBehindGate(t *testing.T, s *Service, needs []int) []drawn {
	t.Helper()
	gate := make(chan struct{})
	blocker := &request{ctx: gateCtx{context.Background(), gate}, need: 1, resp: make(chan drawResult, 1)}
	s.reqs <- blocker
	for len(s.reqs) != 0 { // until the executive has taken it and is parked
		time.Sleep(time.Millisecond)
	}
	out := make([]chan drawn, len(needs))
	for i, need := range needs {
		out[i] = make(chan drawn, 1)
		go func(ch chan drawn, need int) {
			vals, seq, err := s.DrawN(context.Background(), need)
			ch <- drawn{vals, seq, err}
		}(out[i], need)
		for len(s.reqs) != i+1 {
			time.Sleep(time.Millisecond)
		}
	}
	close(gate)
	res := make([]drawn, len(needs))
	for i, ch := range out {
		res[i] = <-ch
		if res[i].err != nil {
			t.Fatalf("queued DrawN(%d): %v", needs[i], res[i].err)
		}
	}
	return res
}

// TestCoalescedResultsDoNotAlias: two requests served by one sweep are cut
// from one backing array; a caller appending to its result must not write
// into its neighbour's coins.
func TestCoalescedResultsDoNotAlias(t *testing.T) {
	cfg := testConfig(t, 24, 6, 0)
	cfg.Rand = fixedRand(7)
	var ctr metrics.Counters
	cfg.Counters = &ctr

	ref, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	stream := make([]gf2k.Element, 7)
	for i := range stream {
		if stream[i], err = ref.Draw(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	mustClose(t, ref)

	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer mustClose(t, s)
	before := ctr.Snapshot().Rounds
	res := queueBehindGate(t, s, []int{3, 4})
	if got := ctr.Snapshot().Rounds - before; got != 1 {
		t.Fatalf("the two requests cost %d rounds: they were not coalesced into one sweep", got)
	}
	a, b := res[0], res[1]
	if a.seq != 0 || b.seq != 3 {
		t.Fatalf("sequence numbers %d and %d, want 0 and 3", a.seq, b.seq)
	}
	if cap(a.vals) != len(a.vals) || cap(b.vals) != len(b.vals) {
		t.Fatalf("results have spare capacity (len/cap %d/%d and %d/%d): append would write into a neighbour",
			len(a.vals), cap(a.vals), len(b.vals), cap(b.vals))
	}
	_ = append(a.vals, 0xff, 0xff)
	for i, want := range stream[3:] {
		if b.vals[i] != want {
			t.Fatalf("second request's coin %d is %#x after the first caller appended, stream has %#x", i, b.vals[i], want)
		}
	}
	for i, want := range stream[:3] {
		if a.vals[i] != want {
			t.Fatalf("first request's coin %d is %#x, stream has %#x", i, a.vals[i], want)
		}
	}
}

// TestDrawNIsOneRoundPerBatchTouched: with no refill anywhere near, one
// DrawN(32) is one lockstep round — where it used to be 32 — and returns
// the 32 coins a Service drawing one at a time returns; a DrawN straddling
// the boundary between the seed batch and a minted one is two.
func TestDrawNIsOneRoundPerBatchTouched(t *testing.T) {
	cfg := testConfig(t, 48, 6, 0) // no high-water mark: no pipelined refill
	cfg.Rand = fixedRand(9)
	ctx := context.Background()

	ref, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]gf2k.Element, 32)
	for i := range want {
		if want[i], err = ref.Draw(ctx); err != nil {
			t.Fatal(err)
		}
	}
	mustClose(t, ref)

	var ctr metrics.Counters
	cfg.Counters = &ctr
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer mustClose(t, s)
	before := ctr.Snapshot().Rounds
	got, seq, err := s.DrawN(ctx, 32)
	if err != nil {
		t.Fatal(err)
	}
	if rounds := ctr.Snapshot().Rounds - before; rounds != 1 {
		t.Fatalf("DrawN(32) from one batch cost %d rounds, want 1", rounds)
	}
	if seq != 0 || len(got) != 32 {
		t.Fatalf("DrawN(32) returned %d coins at seq %d", len(got), seq)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("coin %d: DrawN %#x, one at a time %#x", i, got[i], want[i])
		}
	}

	// 16 left. Eleven more leave 5 < 1 + Threshold, so the next draw starts
	// a refill and waits for it; after it the store is a nearly spent seed
	// batch followed by a full minted one, and a 32-coin request needs no
	// refill of its own (more than 48 ≥ 32 + 6 coins remain) but touches both.
	if _, _, err := s.DrawN(ctx, 11); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Draw(ctx); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.BlockingRefills != 1 || st.Remaining <= 48 {
		t.Fatalf("set-up: %d blocking refills, %d coins left; want 1 refill and a store straddling two batches", st.BlockingRefills, st.Remaining)
	}
	before = ctr.Snapshot().Rounds
	if _, _, err := s.DrawN(ctx, 32); err != nil {
		t.Fatal(err)
	}
	if rounds := ctr.Snapshot().Rounds - before; rounds != 2 {
		t.Fatalf("DrawN(32) across a batch boundary cost %d rounds, want 2", rounds)
	}
	if s.Stats().BlockingRefills != 1 {
		t.Fatal("the straddling DrawN triggered a refill; its round count proves nothing")
	}
}

// packBitsRef is the per-bit definition of DrawBits' packing.
func packBitsRef(vals []gf2k.Element, k, nbits int) []byte {
	out := make([]byte, (nbits+7)/8)
	for b := 0; b < nbits; b++ {
		bit := (uint64(vals[b/k]) >> (b % k)) & 1
		out[b/8] |= byte(bit << (b % 8))
	}
	return out
}

// TestPackBitsMatchesPerBitReference: word-wise packing is bit-for-bit the
// per-bit loop, for bit counts that are multiples of neither k nor 8, at the
// field widths this package's tests run (8 and 32) and at awkward ones.
func TestPackBitsMatchesPerBitReference(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, k := range []int{1, 5, 8, 13, 32, 57, 63, 64} {
		for _, nbits := range []int{1, 7, 8, 9, 20, 31, 33, 63, 64, 65, 100, 1023, 1024, 4095, MaxDrawBits} {
			vals := make([]gf2k.Element, (nbits+k-1)/k)
			for i := range vals {
				vals[i] = gf2k.Element(rng.Uint64())
				if k < 64 {
					vals[i] &= 1<<uint(k) - 1
				}
			}
			got, want := packBits(vals, k, nbits), packBitsRef(vals, k, nbits)
			if !bytes.Equal(got, want) {
				t.Fatalf("k=%d nbits=%d: packed %x, per-bit reference %x", k, nbits, got, want)
			}
		}
	}
}
