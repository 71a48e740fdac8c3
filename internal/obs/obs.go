package obs

import (
	"sync"

	"repro/internal/metrics"
)

// Tracer records spans and events into one or more sinks. A nil *Tracer is
// the nop tracer: every method (including Span methods obtained from it)
// returns immediately without locking or allocating, so call sites never
// need a nil check.
//
// A Tracer is safe for concurrent use; the simnet lockstep runs one
// goroutine per player and all of them share one Tracer. Emission order
// (Event.Seq) is the order in which the tracer's mutex was acquired, which
// for single-player sequences matches program order.
type Tracer struct {
	ctr *metrics.Counters

	mu       sync.Mutex
	sinks    []Sink
	seq      uint64
	nextSpan uint64
	// origin and epoch are stamped onto every emitted event (see
	// Event.Origin/Event.Epoch). Both default to 0: a single-process tracer
	// never sets them and its JSON output is unchanged.
	origin int
	epoch  int
	// stack[player] holds the ids of the player's currently open spans,
	// outermost first. New spans auto-parent to the top of the stack, so
	// protocol modules compose into a hierarchy without threading span
	// handles across package boundaries.
	stack map[int][]uint64
}

// New creates a Tracer writing to the given sinks. ctr, when non-nil, is
// snapshotted at span entry/exit so each span carries its own cost diff —
// phase-scoped attribution of the same counters experiments already diff
// whole-run. Passing no sinks yields a tracer that discards everything
// (useful only in tests; prefer a nil *Tracer for the true zero-cost path).
func New(ctr *metrics.Counters, sinks ...Sink) *Tracer {
	return &Tracer{ctr: ctr, sinks: sinks, stack: make(map[int][]uint64)}
}

// Fork returns a tracer on t's sinks and counters that stamps its events with
// origin and keeps its own span stacks and numbering. One process hosting
// several clusters (the gateway's cells) forks one per cluster: player i of
// two cells must not share a span stack, and origin tells their events apart
// in the shared flight recorder exactly as it does across daemons.
func (t *Tracer) Fork(origin int) *Tracer {
	if t == nil {
		return nil
	}
	f := New(t.ctr, t.sinks...)
	f.origin = origin
	return f
}

// SetOrigin stamps all subsequently emitted events with the given process
// id (the daemon's player id). Call it once at startup, before the first
// span; it exists so per-daemon traces are self-identifying when merged.
func (t *Tracer) SetOrigin(origin int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.origin = origin
	t.mu.Unlock()
}

// SetEpoch stamps all subsequently emitted events with the given beacon
// epoch. Daemons call it at join and after each refill, so every event
// carries the (epoch, round) correlation key.
func (t *Tracer) SetEpoch(epoch int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.epoch = epoch
	t.mu.Unlock()
}

// emitLocked assigns the sequence number, stamps the origin/epoch
// correlation keys, and fans the event out. Caller holds t.mu.
func (t *Tracer) emitLocked(e Event) {
	t.seq++
	e.Seq = t.seq
	e.Origin = t.origin
	e.Epoch = t.epoch
	for _, s := range t.sinks {
		s.Emit(e)
	}
}

// Emit records a fully formed event, assigning its sequence number. Most
// call sites should prefer the typed helpers below.
func (t *Tracer) Emit(e Event) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.emitLocked(e)
	t.mu.Unlock()
}

// Span is an open trace span. The zero Span (and any span from a nil
// tracer) is a nop; End on it does nothing. Spans are values, not pointers,
// so opening one allocates nothing beyond the emitted event.
type Span struct {
	t      *Tracer
	id     uint64
	player int
	kind   SpanKind
	name   string
	entry  metrics.Snapshot
}

// Start opens a span for player at the given completed-round count. The
// span auto-parents to the player's innermost open span, building the
// run → protocol → phase hierarchy without explicit plumbing. player -1 is
// the network itself.
func (t *Tracer) Start(player, round int, kind SpanKind, name string) Span {
	if t == nil {
		return Span{}
	}
	var entry metrics.Snapshot
	if t.ctr != nil {
		entry = t.ctr.Snapshot()
	}
	t.mu.Lock()
	t.nextSpan++
	id := t.nextSpan
	st := t.stack[player]
	var parent uint64
	if len(st) > 0 {
		parent = st[len(st)-1]
	}
	t.stack[player] = append(st, id)
	t.emitLocked(Event{
		Type: EvSpanBegin, Player: player, Round: round,
		Span: id, Parent: parent, Kind: kind, Name: name,
	})
	t.mu.Unlock()
	return Span{t: t, id: id, player: player, kind: kind, name: name, entry: entry}
}

// End closes the span at the given completed-round count, emitting the
// counter diff observed since Start. Ending a span pops it (and anything
// erroneously left open above it) off its player's stack, so a span leaked
// on an error path cannot corrupt the hierarchy for later spans.
func (s Span) End(round int) {
	if s.t == nil {
		return
	}
	t := s.t
	var cost *metrics.Snapshot
	if t.ctr != nil {
		d := metrics.Diff(s.entry, t.ctr.Snapshot())
		cost = &d
	}
	t.mu.Lock()
	st := t.stack[s.player]
	for i := len(st) - 1; i >= 0; i-- {
		if st[i] == s.id {
			t.stack[s.player] = st[:i]
			break
		}
	}
	t.emitLocked(Event{
		Type: EvSpanEnd, Player: s.player, Round: round,
		Span: s.id, Kind: s.kind, Name: s.name, Cost: cost,
	})
	t.mu.Unlock()
}

// --- typed event helpers -----------------------------------------------------
//
// Each helper is nil-safe and mirrors one EventType. They exist so call
// sites stay one line and cannot mislabel fields.

// Send records a staged unicast from → to of size bytes during round.
func (t *Tracer) Send(from, to, bytes, round int) {
	if t == nil {
		return
	}
	t.Emit(Event{Type: EvSend, Player: from, Round: round, From: from, To: to, Bytes: int64(bytes)})
}

// Broadcast records a staged ideal broadcast by from of size bytes.
func (t *Tracer) Broadcast(from, bytes, round int) {
	if t == nil {
		return
	}
	t.Emit(Event{Type: EvBroadcast, Player: from, Round: round, From: from, To: -1, Bytes: int64(bytes)})
}

// Deliver records one message delivery at the boundary completing round.
func (t *Tracer) Deliver(from, to, bytes, round int) {
	if t == nil {
		return
	}
	t.Emit(Event{Type: EvDeliver, Player: -1, Round: round, From: from, To: to, Bytes: int64(bytes)})
}

// RoundBoundary records the boundary completing round: delivered messages
// carrying totalBytes of payload were released to their recipients.
func (t *Tracer) RoundBoundary(round, delivered int, totalBytes int64) {
	if t == nil {
		return
	}
	t.Emit(Event{Type: EvRound, Player: -1, Round: round, Count: int64(delivered), Bytes: totalBytes})
}

// DealerDisqualified records player's local verdict that dealer failed
// verification (or never dealt).
func (t *Tracer) DealerDisqualified(player, dealer, round int) {
	if t == nil {
		return
	}
	t.Emit(Event{Type: EvDealerBad, Player: player, Round: round, From: dealer})
}

// CliqueFound records that player located a consistency-graph clique of
// the given size.
func (t *Tracer) CliqueFound(player, size, round int) {
	if t == nil {
		return
	}
	t.Emit(Event{Type: EvClique, Player: player, Round: round, Count: int64(size)})
}

// LeaderElected records a leader draw: attempt is 1-based, leader 0-based.
func (t *Tracer) LeaderElected(player, leader, attempt, round int) {
	if t == nil {
		return
	}
	t.Emit(Event{Type: EvLeader, Player: player, Round: round, Value: uint64(leader), Count: int64(attempt)})
}

// Decision records a Byzantine-agreement output bit.
func (t *Tracer) Decision(player int, decision byte, round int) {
	if t == nil {
		return
	}
	t.Emit(Event{Type: EvDecision, Player: player, Round: round, Value: uint64(decision)})
}

// CoinSealed records the assembly of a batch of count sealed coins.
func (t *Tracer) CoinSealed(player, count, round int) {
	if t == nil {
		return
	}
	t.Emit(Event{Type: EvCoinSealed, Player: player, Round: round, Count: int64(count)})
}

// CoinExposed records the revelation of coin index with the given value.
func (t *Tracer) CoinExposed(player, index int, value uint64, round int) {
	if t == nil {
		return
	}
	t.Emit(Event{Type: EvCoinExposed, Player: player, Round: round, Count: int64(index), Value: value})
}
