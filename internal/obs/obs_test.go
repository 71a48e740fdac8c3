package obs

import (
	"bytes"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/metrics"
)

// TestSpanNestingConcurrent drives one tracer from many per-player
// goroutines (the simnet shape) and checks the invariants the rest of the
// repo relies on: per-player spans nest properly (parent = enclosing span),
// begin/end pair up, and Seq is strictly increasing and gap-free across
// players. Run under -race this also proves the locking is sound.
func TestSpanNestingConcurrent(t *testing.T) {
	const players = 8
	const reps = 50
	ring := NewRing(players * reps * 8)
	tr := New(nil, ring)

	var wg sync.WaitGroup
	for p := 0; p < players; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for rep := 0; rep < reps; rep++ {
				run := tr.Start(p, rep, KindRun, "run")
				proto := tr.Start(p, rep, KindProtocol, "proto")
				phase := tr.Start(p, rep, KindPhase, "phase")
				tr.Send(p, (p+1)%players, 16, rep)
				phase.End(rep)
				proto.End(rep)
				run.End(rep)
			}
		}(p)
	}
	wg.Wait()

	events := ring.Events()
	if ring.Dropped() != 0 {
		t.Fatalf("ring dropped %d events; size the buffer up", ring.Dropped())
	}
	// Seq strictly increasing and gap-free in emission order.
	for i, e := range events {
		if e.Seq != uint64(i+1) {
			t.Fatalf("event %d has seq %d, want %d", i, e.Seq, i+1)
		}
	}
	// Per player: reconstruct the stack and check nesting and pairing.
	type frame struct {
		id   uint64
		name string
	}
	stacks := make(map[int][]frame)
	begun := map[uint64]Event{}
	ended := map[uint64]bool{}
	for _, e := range events {
		switch e.Type {
		case EvSpanBegin:
			st := stacks[e.Player]
			wantParent := uint64(0)
			if len(st) > 0 {
				wantParent = st[len(st)-1].id
			}
			if e.Parent != wantParent {
				t.Fatalf("player %d span %q has parent %d, want %d", e.Player, e.Name, e.Parent, wantParent)
			}
			stacks[e.Player] = append(st, frame{e.Span, e.Name})
			begun[e.Span] = e
		case EvSpanEnd:
			st := stacks[e.Player]
			if len(st) == 0 || st[len(st)-1].id != e.Span {
				t.Fatalf("player %d ended span %d out of order (stack %v)", e.Player, e.Span, st)
			}
			stacks[e.Player] = st[:len(st)-1]
			if ended[e.Span] {
				t.Fatalf("span %d ended twice", e.Span)
			}
			ended[e.Span] = true
			b := begun[e.Span]
			if b.Name != e.Name || b.Kind != e.Kind {
				t.Fatalf("span %d end (%s,%s) does not match begin (%s,%s)",
					e.Span, e.Name, e.Kind, b.Name, b.Kind)
			}
		}
	}
	for p, st := range stacks {
		if len(st) != 0 {
			t.Fatalf("player %d left spans open: %v", p, st)
		}
	}
	if len(begun) != players*reps*3 {
		t.Fatalf("saw %d spans, want %d", len(begun), players*reps*3)
	}
	for id := range begun {
		if !ended[id] {
			t.Fatalf("span %d never ended", id)
		}
	}
}

// TestLeakedSpanDoesNotCorruptHierarchy checks the defensive pop: ending an
// outer span while an inner one leaked (error path) clears both, so the
// next root span has no parent.
func TestLeakedSpanDoesNotCorruptHierarchy(t *testing.T) {
	ring := NewRing(16)
	tr := New(nil, ring)
	outer := tr.Start(0, 0, KindProtocol, "outer")
	_ = tr.Start(0, 0, KindPhase, "leaked") // never ended
	outer.End(1)
	next := tr.Start(0, 1, KindProtocol, "next")
	next.End(2)

	events := ring.Events()
	var got Event
	for _, e := range events {
		if e.Type == EvSpanBegin && e.Name == "next" {
			got = e
		}
	}
	if got.Parent != 0 {
		t.Fatalf("span after leak has parent %d, want 0 (root)", got.Parent)
	}
}

// TestJSONLRoundTrip pins the acceptance property: exporting a trace as
// JSONL and parsing it back yields the identical event sequence, including
// counter-diff payloads, -1 player/to markers, and every event type.
func TestJSONLRoundTrip(t *testing.T) {
	var ctr metrics.Counters
	ring := NewRing(0)
	var buf bytes.Buffer
	jsonl := NewJSONL(&buf)
	emitEveryType(New(&ctr, ring, jsonl), &ctr)

	if err := jsonl.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	want := ring.Events()
	got, err := ParseJSONL(&buf)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip mismatch:\ngot  %+v\nwant %+v", got, want)
	}
}

// emitEveryType traces nested spans with counter diffs and one event of
// every type.
func emitEveryType(tr *Tracer, ctr *metrics.Counters) {
	sp := tr.Start(0, 0, KindProtocol, "coingen")
	ctr.AddFieldMuls(7)
	ctr.AddMessages(3)
	ctr.AddBytes(120)
	inner := tr.Start(0, 0, KindPhase, "bitgen/deal")
	ctr.AddInterpolations(2)
	inner.End(1)
	tr.Send(0, 3, 64, 1)
	tr.Broadcast(2, 32, 1)
	tr.Deliver(0, 3, 64, 1)
	tr.RoundBoundary(1, 4, 256)
	tr.DealerDisqualified(4, 1, 2)
	tr.CliqueFound(0, 5, 2)
	tr.LeaderElected(0, 6, 1, 3)
	tr.Decision(0, 1, 4)
	tr.CoinSealed(0, 16, 4)
	tr.CoinExposed(0, 3, 0xdeadbeef, 5)
	sp.End(5)
}

// FuzzParseJSONL feeds arbitrary bytes to the trace parser: it must never
// panic, and whatever it accepts must survive a second trip through the
// JSONL sink unchanged.
func FuzzParseJSONL(f *testing.F) {
	var buf bytes.Buffer
	jsonl := NewJSONL(&buf)
	var ctr metrics.Counters
	emitEveryType(New(&ctr, jsonl), &ctr)
	if err := jsonl.Flush(); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte(`{"seq":1,"type":"round","player":-1,"round":0}` + "\n" + `{"seq":2,"type":"not-a-type","player":0,"round":0}` + "\n"))
	f.Add([]byte(`{"seq":1,"type":"span-end","player":0,"round":2,"cost":{}}` + "\r\n\n" + `{"seq":2,"ty`))
	f.Fuzz(func(t *testing.T, data []byte) {
		events, err := ParseJSONL(bytes.NewReader(data))
		if err != nil {
			return
		}
		var out bytes.Buffer
		sink := NewJSONL(&out)
		for _, e := range events {
			sink.Emit(e)
		}
		if err := sink.Flush(); err != nil {
			t.Fatal(err)
		}
		again, err := ParseJSONL(&out)
		if err != nil {
			t.Fatalf("re-encoded trace does not parse: %v\n%s", err, out.Bytes())
		}
		if !reflect.DeepEqual(again, events) {
			t.Fatalf("round trip changed the events:\nfirst  %+v\nsecond %+v", events, again)
		}
	})
}

// TestParseJSONLBadLine checks malformed input is rejected with a line
// number instead of silently dropped.
func TestParseJSONLBadLine(t *testing.T) {
	input := `{"seq":1,"type":"round","player":-1,"round":0}` + "\n" + `{"seq":2,"type":"not-a-type","player":0,"round":0}` + "\n"
	_, err := ParseJSONL(strings.NewReader(input))
	if err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Fatalf("err = %v, want parse error naming line 2", err)
	}
}

// TestNopTracerZeroAlloc is the zero-cost-path guarantee: with tracing
// disabled (nil *Tracer, the simnet default) every tracer call must be
// allocation-free so the protocol hot path is unaffected.
func TestNopTracerZeroAlloc(t *testing.T) {
	var tr *Tracer // the nop tracer
	allocs := testing.AllocsPerRun(1000, func() {
		sp := tr.Start(3, 7, KindPhase, "vss/verify")
		tr.Send(0, 1, 64, 7)
		tr.Broadcast(0, 64, 7)
		tr.Deliver(0, 1, 64, 7)
		tr.RoundBoundary(7, 10, 640)
		tr.DealerDisqualified(0, 1, 7)
		tr.CliqueFound(0, 5, 7)
		tr.LeaderElected(0, 2, 1, 7)
		tr.Decision(0, 1, 7)
		tr.CoinSealed(0, 8, 7)
		tr.CoinExposed(0, 0, 42, 7)
		sp.End(8)
	})
	if allocs != 0 {
		t.Fatalf("nop tracer allocates %.1f per op, want 0", allocs)
	}
}

// TestRingEviction checks the flight-recorder semantics: oldest events are
// dropped first and the drop count is reported.
func TestRingEviction(t *testing.T) {
	r := NewRing(4)
	for i := 1; i <= 7; i++ {
		r.Emit(Event{Seq: uint64(i), Type: EvRound, Player: -1})
	}
	events := r.Events()
	if len(events) != 4 {
		t.Fatalf("ring holds %d events, want 4", len(events))
	}
	for i, e := range events {
		if e.Seq != uint64(i+4) {
			t.Fatalf("event %d has seq %d, want %d (oldest-first)", i, e.Seq, i+4)
		}
	}
	if r.Dropped() != 3 {
		t.Fatalf("dropped = %d, want 3", r.Dropped())
	}
}

// TestPhaseSummary checks span extraction: depth, rounds and cost.
func TestPhaseSummary(t *testing.T) {
	var ctr metrics.Counters
	ring := NewRing(0)
	tr := New(&ctr, ring)

	outer := tr.Start(0, 0, KindProtocol, "coingen")
	deal := tr.Start(0, 0, KindPhase, "bitgen/deal")
	ctr.AddMessages(6)
	ctr.AddRounds(1)
	deal.End(1)
	gc := tr.Start(0, 1, KindPhase, "gradecast")
	ctr.AddMessages(18)
	ctr.AddRounds(3)
	gc.End(4)
	outer.End(4)
	// A second exposure-style root span with the same name as nothing above.
	exp := tr.Start(0, 4, KindPhase, "coin-expose")
	ctr.AddMessages(6)
	ctr.AddRounds(1)
	exp.End(5)
	// Another player's span must not leak into player 0's summary.
	other := tr.Start(1, 0, KindPhase, "gradecast")
	other.End(4)

	rows := PhaseSummary(ring.Events(), 0)
	if len(rows) != 4 {
		t.Fatalf("got %d rows, want 4: %+v", len(rows), rows)
	}
	if rows[0].Name != "coingen" || rows[0].Depth != 0 || rows[0].Rounds() != 4 {
		t.Fatalf("bad outer row: %+v", rows[0])
	}
	if rows[1].Name != "bitgen/deal" || rows[1].Depth != 1 || rows[1].Cost.Messages != 6 || rows[1].Rounds() != 1 {
		t.Fatalf("bad deal row: %+v", rows[1])
	}
	if rows[2].Name != "gradecast" || rows[2].Cost.Rounds != 3 {
		t.Fatalf("bad gradecast row: %+v", rows[2])
	}
	if rows[3].Name != "coin-expose" || rows[3].Depth != 0 {
		t.Fatalf("bad expose row: %+v", rows[3])
	}

}

// TestTimelineRenders smoke-tests the per-round renderer.
func TestTimelineRenders(t *testing.T) {
	ring := NewRing(0)
	tr := New(nil, ring)
	sp := tr.Start(0, 0, KindPhase, "vss/deal")
	tr.Send(0, 1, 64, 0)
	tr.Deliver(0, 1, 64, 0)
	tr.RoundBoundary(0, 1, 64)
	sp.End(1)
	tr.CoinExposed(2, 0, 0x2a, 1)

	var buf strings.Builder
	Timeline(&buf, ring.Events())
	out := buf.String()
	for _, want := range []string{
		"round 0: 1 sent (+0 bcast), 1 delivered, 64 B",
		"[p0] ▶ phase vss/deal",
		"[p2] coin 0 exposed = 0x2a",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("timeline missing %q:\n%s", want, out)
		}
	}
}

// TestEventTypeNamesComplete guards the wire-name tables against new enum
// values being added without names (which would break JSONL round-trips).
func TestEventTypeNamesComplete(t *testing.T) {
	for ty := EvSpanBegin; ty <= EvCoinExposed; ty++ {
		if strings.HasPrefix(ty.String(), "event(") {
			t.Fatalf("EventType %d has no wire name", ty)
		}
		var back EventType
		if err := back.UnmarshalText([]byte(ty.String())); err != nil || back != ty {
			t.Fatalf("EventType %d does not round-trip: %v", ty, err)
		}
	}
	for k := KindRun; k <= KindRound; k++ {
		if strings.HasPrefix(k.String(), "kind(") {
			t.Fatalf("SpanKind %d has no wire name", k)
		}
	}
}
