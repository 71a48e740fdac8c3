package obs

import (
	"fmt"
	"io"
	"sort"

	"repro/internal/metrics"
)

// PhaseCost is one closed span of a single player, with its position in the
// span hierarchy and the counter diff it observed.
//
// Attribution semantics: the tracer snapshots the shared (process-wide)
// counters at span entry and exit, and the simnet lockstep keeps every
// honest player inside the same phase between two round barriers. A phase
// span therefore observes (approximately) the total cost of that phase
// across ALL players — which is exactly the unit the paper's lemmas charge
// ("n messages of size k", "one interpolation per player" → n
// interpolations). Rounds are exact: they only advance at barriers. For a
// per-phase table, read one player's spans; do not sum the same phase over
// players, which would multiply-count by n.
type PhaseCost struct {
	// Span is the span id; Parent its enclosing span (0 at the root).
	Span, Parent uint64
	// Name and Kind identify the phase ("bitgen/deal", "gradecast", …).
	Name string
	Kind SpanKind
	// Depth is the nesting level (0 for root spans).
	Depth int
	// BeginRound/EndRound are the player's completed-round counts at span
	// entry and exit; EndRound−BeginRound is the span's round consumption
	// as seen by that player.
	BeginRound, EndRound int
	// Cost is the counter diff across the span (zero if the tracer had no
	// counters attached or the span never closed).
	Cost metrics.Snapshot
}

// Rounds returns the rounds consumed within the span.
func (p PhaseCost) Rounds() int { return p.EndRound - p.BeginRound }

// FieldOps returns the total field operations (adds+muls+invs) in the span.
func (p PhaseCost) FieldOps() int64 {
	return p.Cost.FieldAdds + p.Cost.FieldMuls + p.Cost.FieldInvs
}

// PhaseSummary extracts the closed spans of one player from an event
// sequence, in span-begin order. Spans that never closed are omitted.
func PhaseSummary(events []Event, player int) []PhaseCost {
	type open struct {
		row PhaseCost
		idx int // position in out, reserved at begin
	}
	byID := make(map[uint64]*open)
	var rows []*open
	depth := make(map[uint64]int) // span id -> depth
	for _, e := range events {
		if e.Player != player {
			continue
		}
		switch e.Type {
		case EvSpanBegin:
			d := 0
			if e.Parent != 0 {
				d = depth[e.Parent] + 1
			}
			depth[e.Span] = d
			o := &open{row: PhaseCost{
				Span: e.Span, Parent: e.Parent, Name: e.Name, Kind: e.Kind,
				Depth: d, BeginRound: e.Round, EndRound: -1,
			}}
			byID[e.Span] = o
			rows = append(rows, o)
		case EvSpanEnd:
			o, ok := byID[e.Span]
			if !ok {
				continue
			}
			o.row.EndRound = e.Round
			if e.Cost != nil {
				o.row.Cost = *e.Cost
			}
		}
	}
	out := make([]PhaseCost, 0, len(rows))
	for _, o := range rows {
		if o.row.EndRound < 0 {
			continue // never closed
		}
		out = append(out, o.row)
	}
	return out
}

// Timeline renders a human-readable per-round account of an event
// sequence: one block per network round with its delivery totals, listing
// span transitions and protocol events, with per-player send/broadcast
// traffic aggregated into one line per round.
//
// Merged cluster traces (MergeTraces/MergeJSONL) render too: when the
// stream carries more than one origin, every line is prefixed with the
// emitting node ("[n3 p3]") so one artifact shows a whole round interleaved
// across all processes, and when it spans more than one epoch the round
// headers carry the epoch.
func Timeline(w io.Writer, events []Event) {
	type roundKey struct{ epoch, round int }
	type roundAgg struct {
		key        roundKey
		sends      int64
		sendBytes  int64
		bcasts     int64
		delivered  int64
		delivBytes int64
		lines      []string
	}
	origins := make(map[int]bool)
	epochs := make(map[int]bool)
	for _, e := range events {
		origins[e.Origin] = true
		epochs[e.Epoch] = true
	}
	multiOrigin := len(origins) > 1
	multiEpoch := len(epochs) > 1
	who := func(e Event) string {
		if multiOrigin {
			return fmt.Sprintf("[n%d p%d]", e.Origin, e.Player)
		}
		return fmt.Sprintf("[p%d]", e.Player)
	}
	byRound := make(map[roundKey]*roundAgg)
	order := []roundKey{}
	get := func(k roundKey) *roundAgg {
		a, ok := byRound[k]
		if !ok {
			a = &roundAgg{key: k}
			byRound[k] = a
			order = append(order, k)
		}
		return a
	}
	for _, e := range events {
		a := get(roundKey{e.Epoch, e.Round})
		switch e.Type {
		case EvSend:
			a.sends++
			a.sendBytes += e.Bytes
		case EvBroadcast:
			a.bcasts++
			a.sendBytes += e.Bytes
		case EvDeliver:
			a.delivered++
			a.delivBytes += e.Bytes
		case EvRound:
			// totals already accumulated from deliveries; nothing to add
		case EvSpanBegin:
			a.lines = append(a.lines, fmt.Sprintf("%s ▶ %s %s", who(e), e.Kind, e.Name))
		case EvSpanEnd:
			line := fmt.Sprintf("%s ◀ %s %s", who(e), e.Kind, e.Name)
			if e.Cost != nil {
				line += fmt.Sprintf(" (%d rounds-span: msgs=%d bytes=%d interp=%d)",
					e.Cost.Rounds, e.Cost.Messages, e.Cost.Bytes, e.Cost.Interpolations)
			}
			a.lines = append(a.lines, line)
		case EvDealerBad:
			a.lines = append(a.lines, fmt.Sprintf("%s dealer %d disqualified", who(e), e.From))
		case EvClique:
			a.lines = append(a.lines, fmt.Sprintf("%s clique of %d found", who(e), e.Count))
		case EvLeader:
			a.lines = append(a.lines, fmt.Sprintf("%s leader %d elected (attempt %d)", who(e), e.Value, e.Count))
		case EvDecision:
			a.lines = append(a.lines, fmt.Sprintf("%s BA decided %d", who(e), e.Value))
		case EvCoinSealed:
			a.lines = append(a.lines, fmt.Sprintf("%s %d coins sealed", who(e), e.Count))
		case EvCoinExposed:
			a.lines = append(a.lines, fmt.Sprintf("%s coin %d exposed = %#x", who(e), e.Count, e.Value))
		}
	}
	sort.Slice(order, func(i, j int) bool {
		if order[i].epoch != order[j].epoch {
			return order[i].epoch < order[j].epoch
		}
		return order[i].round < order[j].round
	})
	for _, k := range order {
		a := byRound[k]
		if multiEpoch {
			fmt.Fprintf(w, "epoch %d round %d: %d sent (+%d bcast), %d delivered, %d B\n",
				k.epoch, k.round, a.sends, a.bcasts, a.delivered, a.delivBytes)
		} else {
			fmt.Fprintf(w, "round %d: %d sent (+%d bcast), %d delivered, %d B\n",
				k.round, a.sends, a.bcasts, a.delivered, a.delivBytes)
		}
		for _, l := range a.lines {
			fmt.Fprintf(w, "  %s\n", l)
		}
	}
}
