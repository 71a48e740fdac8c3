// Package gradecast implements Grade-Cast, the "three level-outcome
// primitive" of Feldman–Micali used by Coin-Gen (Fig. 5, step 7): the dealer
// distributes a value, everybody echoes, and this is followed by another
// round of echoes. Each player outputs a value and a confidence in {0,1,2};
// confidence 2 means every honest player saw the same value with confidence
// at least 1.
//
// Guarantees for n ≥ 3t+1:
//
//  1. Honest dealer: every honest player outputs (v, 2).
//  2. If any honest player outputs (v, 2), every honest player outputs
//     (v, conf ≥ 1).
//  3. Any two honest players with confidence ≥ 1 hold the same value.
//
// Coin-Gen needs all n players to grade-cast simultaneously; RunAll
// multiplexes n instances over the same three rounds so the round count
// stays constant.
package gradecast

import (
	"bytes"
	"fmt"

	"repro/internal/obs"
	"repro/internal/simnet"
)

// Output is one player's view of one grade-cast instance.
type Output struct {
	// Value is the grade-casted value; nil when Confidence is 0.
	Value []byte
	// Confidence is 0, 1 or 2.
	Confidence int
}

// MinPlayers returns the minimum network size tolerating t faults.
func MinPlayers(t int) int { return 3*t + 1 }

// RunAll executes n simultaneous grade-cast instances, one per player:
// player i is the dealer of instance i and deals myValue. It consumes
// exactly three rounds and returns the outputs indexed by dealer.
func RunAll(nd *simnet.Node, t int, myValue []byte) ([]Output, error) {
	n := nd.N()
	if n < MinPlayers(t) {
		return nil, fmt.Errorf("gradecast: need n ≥ %d for t=%d, have %d", MinPlayers(t), t, n)
	}
	sp := nd.Tracer().Start(nd.Index(), nd.Round(), obs.KindPhase, "gradecast")
	defer func() { sp.End(nd.Round()) }()

	// Round 1: every dealer distributes its value.
	nd.SendAll(myValue)
	msgs, err := nd.EndRound()
	if err != nil {
		return nil, fmt.Errorf("gradecast round 1: %w", err)
	}
	me := nd.Index()
	received := make([][]byte, n) // received[d] = dealer d's value as seen here
	received[me] = myValue
	seen := make([]bool, n) // seen[j]: sender j's first message of the round is read
	for _, m := range msgs {
		if firstOf(seen, m.From) {
			received[m.From] = m.Payload
		}
	}

	// Round 2: echo every dealer's value.
	nd.SendAll(encodeInstanceValues(received))
	msgs, err = nd.EndRound()
	if err != nil {
		return nil, fmt.Errorf("gradecast round 2: %w", err)
	}
	// slots[d*n+j] is the value player j echoed for dealer d, nil if none.
	slots := make([][]byte, n*n)
	row := make([][]byte, n)
	tally(slots, row, seen, msgs, me, received)

	// Round 3: per instance, re-echo a value supported by ≥ n−t echoes.
	support := make([][]byte, n)
	for d := 0; d < n; d++ {
		if v, cnt := plurality(slots[d*n : (d+1)*n]); cnt >= n-t {
			support[d] = v
		}
	}
	nd.SendAll(encodeInstanceValues(support))
	msgs, err = nd.EndRound()
	if err != nil {
		return nil, fmt.Errorf("gradecast round 3: %w", err)
	}
	tally(slots, row, seen, msgs, me, support)

	// Outputs copy their values: a slot aliases a delivered payload.
	out := make([]Output, n)
	for d := 0; d < n; d++ {
		v, cnt := plurality(slots[d*n : (d+1)*n])
		switch {
		case cnt >= n-t:
			out[d] = Output{Value: bytes.Clone(v), Confidence: 2}
		case cnt >= t+1:
			out[d] = Output{Value: bytes.Clone(v), Confidence: 1}
		default:
			out[d] = Output{}
		}
	}
	return out, nil
}

// firstOf reports whether a message from sender is the first of the round
// from that sender, marking it read.
func firstOf(seen []bool, sender int) bool {
	if seen[sender] {
		return false
	}
	seen[sender] = true
	return true
}

// tally fills the n·n slot table, slots[d*n+j] being the value player j
// reported for instance d, from one round of frames: a sender's first
// message is its only one, and a malformed first message voids the sender.
// own is this player's report, filling the instances no delivered message
// from itself already did. row and seen are n-entry scratch.
func tally(slots, row [][]byte, seen []bool, msgs []simnet.Message, me int, own [][]byte) {
	n := len(row)
	clear(slots)
	clear(seen)
	for _, m := range msgs {
		if !firstOf(seen, m.From) || decodeInstanceValues(row, m.Payload) != nil {
			continue // a later message, or a malformed one from a faulty player
		}
		for d, v := range row {
			slots[d*n+m.From] = v
		}
	}
	for d, v := range own {
		if slots[d*n+me] == nil {
			slots[d*n+me] = v
		}
	}
}

// plurality returns the most frequent value in vals (nil entries skipped)
// and its count; the value is one of vals' entries, not a copy. Ties break
// toward the smallest value by bytes.Compare so all honest players resolve
// them identically. Each equality class is counted once, from its first
// member: at most len(vals)² compares, about 2·len(vals) when all agree.
func plurality(vals [][]byte) (best []byte, bestCnt int) {
next:
	for i, v := range vals {
		if v == nil {
			continue
		}
		for _, u := range vals[:i] {
			if u != nil && bytes.Equal(u, v) {
				continue next // v's class is already counted
			}
		}
		cnt := 1
		for _, u := range vals[i+1:] {
			if u != nil && bytes.Equal(u, v) {
				cnt++
			}
		}
		if cnt > bestCnt || (cnt == bestCnt && bytes.Compare(v, best) < 0) {
			best, bestCnt = v, cnt
		}
	}
	return best, bestCnt
}

// encodeInstanceValues frames per-instance values as a sequence of
// (uint16 instance, uint32 length, bytes) records; nil entries are omitted.
func encodeInstanceValues(vals [][]byte) []byte {
	size := 0
	for _, v := range vals {
		if v != nil {
			size += 6 + len(v)
		}
	}
	if size == 0 {
		return nil
	}
	buf := make([]byte, 0, size)
	for d, v := range vals {
		if v == nil {
			continue
		}
		l := len(v)
		buf = append(buf, byte(d), byte(d>>8), byte(l), byte(l>>8), byte(l>>16), byte(l>>24))
		buf = append(buf, v...)
	}
	return buf
}

// decodeInstanceValues parses a frame into out, one entry per instance,
// rejecting instances ≥ len(out), duplicate instances and truncated
// records. The values alias b; out's prior contents are cleared.
func decodeInstanceValues(out [][]byte, b []byte) error {
	n := len(out)
	clear(out)
	for len(b) > 0 {
		if len(b) < 6 {
			return fmt.Errorf("gradecast: truncated record header")
		}
		d := int(b[0]) | int(b[1])<<8
		l := int(b[2]) | int(b[3])<<8 | int(b[4])<<16 | int(b[5])<<24
		b = b[6:]
		if d >= n || l < 0 || l > len(b) {
			return fmt.Errorf("gradecast: bad record (instance %d, len %d)", d, l)
		}
		if out[d] != nil {
			return fmt.Errorf("gradecast: duplicate instance %d", d)
		}
		v := b[:l]
		if len(v) == 0 {
			v = []byte{} // distinguish "present, empty" from "absent"
		}
		out[d] = v
		b = b[l:]
	}
	return nil
}
