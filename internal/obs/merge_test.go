package obs

import (
	"bytes"
	"io"
	"reflect"
	"strings"
	"testing"
)

// traceFor records a tiny per-daemon trace: origin stamped, one phase span
// and a coin event per round.
func traceFor(origin, rounds int) []Event {
	ring := NewRing(0)
	tr := New(nil, ring)
	tr.SetOrigin(origin)
	tr.SetEpoch(1)
	for r := 0; r < rounds; r++ {
		sp := tr.Start(origin, r, KindPhase, "emit")
		tr.CoinExposed(origin, r, uint64(100*origin+r), r)
		sp.End(r + 1)
	}
	return ring.Events()
}

// TestTracerStampsOriginAndEpoch pins that SetOrigin/SetEpoch mark every
// subsequent event and that the stamps survive a JSONL round trip.
func TestTracerStampsOriginAndEpoch(t *testing.T) {
	var buf bytes.Buffer
	ring := NewRing(0)
	jsonl := NewJSONL(&buf)
	tr := New(nil, ring, jsonl)
	tr.SetOrigin(3)
	tr.SetEpoch(2)
	sp := tr.Start(3, 5, KindPhase, "emit")
	sp.End(6)
	if err := jsonl.Flush(); err != nil {
		t.Fatal(err)
	}
	for _, e := range ring.Events() {
		if e.Origin != 3 || e.Epoch != 2 {
			t.Fatalf("event %+v missing origin/epoch stamp", e)
		}
	}
	parsed, err := ParseJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(parsed, ring.Events()) {
		t.Fatalf("JSONL round trip lost correlation keys:\ngot  %+v\nwant %+v", parsed, ring.Events())
	}
}

// TestForkKeepsSpanStacksApart: two forks feed one ring; each stamps its own
// origin, and player 0's open span in one fork does not become the parent of
// player 0's span in the other.
func TestForkKeepsSpanStacksApart(t *testing.T) {
	ring := NewRing(0)
	root := New(nil, ring)
	a, b := root.Fork(0), root.Fork(1)
	outer := a.Start(0, 0, KindProtocol, "coin-gen")
	inner := b.Start(0, 0, KindProtocol, "coin-gen")
	inner.End(1)
	outer.End(1)
	evs := ring.Events()
	if len(evs) != 4 {
		t.Fatalf("%d events in the shared ring, want 4", len(evs))
	}
	for i, wantOrigin := range []int{0, 1, 1, 0} {
		if evs[i].Origin != wantOrigin || evs[i].Parent != 0 {
			t.Errorf("event %d: origin %d parent %d, want origin %d and no parent", i, evs[i].Origin, evs[i].Parent, wantOrigin)
		}
	}
	if (*Tracer)(nil).Fork(3) != nil {
		t.Fatal("the nop tracer must fork to the nop tracer")
	}
}

func TestMergeTracesOrdersAndRemaps(t *testing.T) {
	streams := map[int][]Event{
		0: traceFor(0, 3),
		2: traceFor(2, 3),
		5: traceFor(5, 2),
	}
	merged := MergeTraces(streams)
	want := 0
	for _, s := range streams {
		want += len(s)
	}
	if len(merged) != want {
		t.Fatalf("merged %d events, want %d", len(merged), want)
	}
	// Global Seq renumbered 1..n.
	for i, e := range merged {
		if e.Seq != uint64(i+1) {
			t.Fatalf("merged[%d].Seq = %d, want %d", i, e.Seq, i+1)
		}
	}
	// Canonical (Epoch, Round, Origin) order.
	for i := 1; i < len(merged); i++ {
		a, b := merged[i-1], merged[i]
		ka := [3]int{a.Epoch, a.Round, a.Origin}
		kb := [3]int{b.Epoch, b.Round, b.Origin}
		for j := 0; j < 3; j++ {
			if ka[j] < kb[j] {
				break
			}
			if ka[j] > kb[j] {
				t.Fatalf("merged[%d..%d] out of order: %v then %v", i-1, i, ka, kb)
			}
		}
	}
	// Per-origin span ids (which collide across streams: every tracer
	// numbers from 1) must be distinct after the merge.
	type spanKey struct {
		origin int
		span   uint64
	}
	seen := map[uint64]spanKey{}
	for _, e := range merged {
		if e.Type != EvSpanBegin {
			continue
		}
		if prev, dup := seen[e.Span]; dup {
			t.Fatalf("span id %d assigned to both %v and origin %d", e.Span, prev, e.Origin)
		}
		seen[e.Span] = spanKey{e.Origin, e.Span}
	}
	// Each round's span must appear for every origin that was live then.
	perRound := map[int]map[int]bool{}
	for _, e := range merged {
		if e.Type != EvSpanBegin {
			continue
		}
		if perRound[e.Round] == nil {
			perRound[e.Round] = map[int]bool{}
		}
		perRound[e.Round][e.Origin] = true
	}
	for r := 0; r < 2; r++ {
		for _, o := range []int{0, 2, 5} {
			if !perRound[r][o] {
				t.Fatalf("round %d missing span from origin %d", r, o)
			}
		}
	}
	// Merging is deterministic: same inputs, same output.
	if again := MergeTraces(streams); !reflect.DeepEqual(again, merged) {
		t.Fatal("MergeTraces is not deterministic")
	}
}

func TestMergeTracesOverridesStampedOrigin(t *testing.T) {
	// Stream recorded without SetOrigin (all Origin 0) merged under key 4:
	// the map key wins.
	raw := traceFor(0, 1)
	merged := MergeTraces(map[int][]Event{4: raw})
	for _, e := range merged {
		if e.Origin != 4 {
			t.Fatalf("event %+v should carry merge-key origin 4", e)
		}
	}
}

func TestMergeJSONL(t *testing.T) {
	encode := func(evs []Event) io.Reader {
		var buf bytes.Buffer
		j := NewJSONL(&buf)
		for _, e := range evs {
			j.Emit(e)
		}
		if err := j.Flush(); err != nil {
			t.Fatal(err)
		}
		return &buf
	}
	s0, s1 := traceFor(0, 2), traceFor(1, 2)
	merged, err := MergeJSONL(map[int]io.Reader{0: encode(s0), 1: encode(s1)})
	if err != nil {
		t.Fatal(err)
	}
	want := MergeTraces(map[int][]Event{0: s0, 1: s1})
	if !reflect.DeepEqual(merged, want) {
		t.Fatalf("MergeJSONL != MergeTraces:\ngot  %+v\nwant %+v", merged, want)
	}
	// A torn tail in one stream is tolerated (the daemon was SIGKILLed).
	var torn bytes.Buffer
	j := NewJSONL(&torn)
	for _, e := range s1 {
		j.Emit(e)
	}
	if err := j.Flush(); err != nil {
		t.Fatal(err)
	}
	torn.WriteString(`{"seq":999,"type":"rou`) // no trailing newline
	merged2, err := MergeJSONL(map[int]io.Reader{0: encode(s0), 1: &torn})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(merged2, want) {
		t.Fatal("torn tail should be dropped, leaving the merge unchanged")
	}
}

// TestParseJSONLTornTail is the regression test for the torn-tail
// hardening: a final line without '\n' must be dropped, not half-parsed —
// even when the torn prefix happens to be valid JSON.
func TestParseJSONLTornTail(t *testing.T) {
	whole := `{"seq":1,"type":"round","player":-1,"round":0}` + "\n"
	tornValid := `{"seq":2,"type":"round","player":-1,"round":1}` // valid JSON, no newline
	events, err := ParseJSONL(strings.NewReader(whole + tornValid))
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 1 || events[0].Seq != 1 {
		t.Fatalf("got %d events (%+v), want only the terminated line", len(events), events)
	}
	tornGarbage := `{"seq":2,"ty`
	events, err = ParseJSONL(strings.NewReader(whole + tornGarbage))
	if err != nil || len(events) != 1 {
		t.Fatalf("torn garbage tail: events=%d err=%v, want 1 event no error", len(events), err)
	}
	// A terminated malformed line is still a hard error.
	if _, err := ParseJSONL(strings.NewReader(whole + tornGarbage + "\n")); err == nil {
		t.Fatal("terminated malformed line must still error")
	}
	// CRLF terminators are tolerated.
	events, err = ParseJSONL(strings.NewReader(strings.ReplaceAll(whole, "\n", "\r\n")))
	if err != nil || len(events) != 1 {
		t.Fatalf("CRLF: events=%d err=%v", len(events), err)
	}
}

func TestTimelineInterleavesOrigins(t *testing.T) {
	merged := MergeTraces(map[int][]Event{
		1: traceFor(1, 2),
		2: traceFor(2, 2),
	})
	var buf bytes.Buffer
	Timeline(&buf, merged)
	out := buf.String()
	for _, want := range []string{"[n1 p1]", "[n2 p2]"} {
		if !strings.Contains(out, want) {
			t.Fatalf("timeline missing %q:\n%s", want, out)
		}
	}
	// Single-origin streams keep the compact label.
	buf.Reset()
	Timeline(&buf, traceFor(1, 1))
	if strings.Contains(buf.String(), "[n1") {
		t.Fatalf("single-origin timeline should not carry node labels:\n%s", buf.String())
	}
	// Multi-epoch streams carry the epoch in round headers.
	e0, e1 := traceFor(1, 1), traceFor(1, 1)
	for i := range e1 {
		e1[i].Epoch = 2
	}
	buf.Reset()
	Timeline(&buf, append(e0, e1...))
	if !strings.Contains(buf.String(), "epoch 1 round 0") || !strings.Contains(buf.String(), "epoch 2 round 0") {
		t.Fatalf("multi-epoch timeline missing epoch headers:\n%s", buf.String())
	}
}
