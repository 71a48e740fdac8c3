package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sync"
)

// Sink consumes trace events. Implementations must be safe for concurrent
// Emit calls: the Tracer serializes its own emissions, but a sink may be
// shared by several tracers or fed directly by tests.
type Sink interface {
	Emit(Event)
}

// --- ring buffer --------------------------------------------------------------

// Ring is a fixed-capacity in-memory sink that overwrites its oldest events
// when full — the always-on flight recorder. The zero value is unusable;
// call NewRing.
type Ring struct {
	mu      sync.Mutex
	buf     []Event // grows on demand up to limit: an idle recorder costs nothing
	limit   int
	next    int
	full    bool
	dropped int64
}

// DefaultRingCapacity is plenty for a multi-batch Coin-Gen run at n ≤ 32.
const DefaultRingCapacity = 1 << 16

// NewRing creates a ring buffer holding up to capacity events
// (DefaultRingCapacity if capacity ≤ 0).
func NewRing(capacity int) *Ring {
	if capacity <= 0 {
		capacity = DefaultRingCapacity
	}
	return &Ring{limit: capacity}
}

// Emit appends the event, evicting the oldest when at capacity.
func (r *Ring) Emit(e Event) {
	r.mu.Lock()
	if len(r.buf) < r.limit {
		r.buf = append(r.buf, e)
	} else {
		r.buf[r.next] = e
		r.next = (r.next + 1) % r.limit
		r.full = true
		r.dropped++
	}
	r.mu.Unlock()
}

// Events returns the retained events, oldest first.
func (r *Ring) Events() []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Event, 0, len(r.buf))
	if r.full {
		out = append(out, r.buf[r.next:]...)
		out = append(out, r.buf[:r.next]...)
	} else {
		out = append(out, r.buf...)
	}
	return out
}

// Dropped reports how many events were evicted to make room.
func (r *Ring) Dropped() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.dropped
}

// --- JSONL --------------------------------------------------------------------

// JSONL streams events to a writer, one JSON object per line — the
// replayable export format. Write errors are sticky and surfaced by Err
// (Emit cannot fail, matching the Sink interface).
type JSONL struct {
	mu  sync.Mutex
	w   *bufio.Writer
	enc *json.Encoder
	err error
}

// NewJSONL creates a JSONL sink over w. Call Flush before inspecting the
// underlying writer.
func NewJSONL(w io.Writer) *JSONL {
	bw := bufio.NewWriter(w)
	return &JSONL{w: bw, enc: json.NewEncoder(bw)}
}

// Emit writes one line. After the first error it is a no-op.
func (j *JSONL) Emit(e Event) {
	j.mu.Lock()
	if j.err == nil {
		j.err = j.enc.Encode(e)
	}
	j.mu.Unlock()
}

// Flush drains buffered output and returns the first error seen, if any.
func (j *JSONL) Flush() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.err != nil {
		return j.err
	}
	j.err = j.w.Flush()
	return j.err
}

// ParseJSONL reads a JSONL export back into the event sequence it encodes.
// It is the inverse of the JSONL sink: exporting and parsing yields the
// identical []Event (the round-trip property obs's tests pin down).
//
// A final line not terminated by '\n' is a torn tail — the writer died
// mid-record (SIGKILL during the multiproc soak, a full disk) — and is
// dropped rather than parsed: a truncated JSON object that happens to parse
// would silently corrupt the last event. Terminated lines that fail to
// parse, or that carry no event type, are still hard errors, with the line
// number.
func ParseJSONL(r io.Reader) ([]Event, error) {
	var out []Event
	br := bufio.NewReaderSize(r, 64*1024)
	line := 0
	for {
		b, err := br.ReadBytes('\n')
		if err != nil && err != io.EOF {
			return nil, fmt.Errorf("obs: read JSONL: %w", err)
		}
		if err == io.EOF && len(b) > 0 {
			// Torn tail: bytes after the last newline. Drop them.
			return out, nil
		}
		if err == io.EOF {
			return out, nil
		}
		line++
		b = b[:len(b)-1] // strip '\n'
		if len(b) > 0 && b[len(b)-1] == '\r' {
			b = b[:len(b)-1]
		}
		if len(b) == 0 {
			continue
		}
		var e Event
		if jerr := json.Unmarshal(b, &e); jerr != nil {
			return nil, fmt.Errorf("obs: parse JSONL line %d: %w", line, jerr)
		}
		if _, ok := eventTypeNames[e.Type]; !ok {
			return nil, fmt.Errorf("obs: parse JSONL line %d: no event type", line)
		}
		out = append(out, e)
	}
}
