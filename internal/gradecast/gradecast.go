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
	received := make([][]byte, n) // received[d] = dealer d's value as seen here
	received[nd.Index()] = myValue
	for d, payload := range simnet.FirstFromEach(msgs) {
		received[d] = payload
	}

	// Round 2: echo every dealer's value.
	nd.SendAll(encodeInstanceValues(received))
	msgs, err = nd.EndRound()
	if err != nil {
		return nil, fmt.Errorf("gradecast round 2: %w", err)
	}
	// echoes[d] collects, per echoing player, the echoed value of dealer d.
	echoes := collectInstanceValues(n, msgs)
	echoes.add(nd.Index(), received) // count own echo

	// Round 3: per instance, re-echo a value supported by ≥ n−t echoes.
	support := make([][]byte, n)
	for d := 0; d < n; d++ {
		if v, cnt := plurality(echoes.byInstance[d]); cnt >= n-t {
			support[d] = v
		}
	}
	nd.SendAll(encodeInstanceValues(support))
	msgs, err = nd.EndRound()
	if err != nil {
		return nil, fmt.Errorf("gradecast round 3: %w", err)
	}
	finals := collectInstanceValues(n, msgs)
	finals.add(nd.Index(), support)

	out := make([]Output, n)
	for d := 0; d < n; d++ {
		v, cnt := plurality(finals.byInstance[d])
		switch {
		case cnt >= n-t:
			out[d] = Output{Value: v, Confidence: 2}
		case cnt >= t+1:
			out[d] = Output{Value: v, Confidence: 1}
		default:
			out[d] = Output{}
		}
	}
	return out, nil
}

// plurality returns the most frequent byte string (nil entries skipped) and
// its count. Ties break toward the lexicographically smallest value so all
// honest players resolve them identically.
func plurality(vals [][]byte) ([]byte, int) {
	counts := make(map[string]int, len(vals))
	for _, v := range vals {
		if v == nil {
			continue
		}
		counts[string(v)]++
	}
	var best string
	bestCnt := 0
	for v, c := range counts {
		if c > bestCnt || (c == bestCnt && v < best) {
			best, bestCnt = v, c
		}
	}
	if bestCnt == 0 {
		return nil, 0
	}
	return []byte(best), bestCnt
}

// instanceValues accumulates, per instance, the value contributed by each
// distinct player (at most one per player).
type instanceValues struct {
	byInstance [][][]byte
	seen       []map[int]bool
}

func collectInstanceValues(n int, msgs []simnet.Message) *instanceValues {
	iv := &instanceValues{
		byInstance: make([][][]byte, n),
		seen:       make([]map[int]bool, n),
	}
	for i := range iv.seen {
		iv.seen[i] = make(map[int]bool)
	}
	for from, payload := range simnet.FirstFromEach(msgs) {
		vals, err := decodeInstanceValues(n, payload)
		if err != nil {
			continue // malformed message from a faulty player
		}
		iv.add(from, vals)
	}
	return iv
}

func (iv *instanceValues) add(from int, vals [][]byte) {
	for d, v := range vals {
		if v == nil || iv.seen[d][from] {
			continue
		}
		iv.seen[d][from] = true
		iv.byInstance[d] = append(iv.byInstance[d], v)
	}
}

// encodeInstanceValues frames per-instance values as a sequence of
// (uint16 instance, uint32 length, bytes) records; nil entries are omitted.
func encodeInstanceValues(vals [][]byte) []byte {
	var buf bytes.Buffer
	for d, v := range vals {
		if v == nil {
			continue
		}
		buf.WriteByte(byte(d))
		buf.WriteByte(byte(d >> 8))
		l := len(v)
		buf.WriteByte(byte(l))
		buf.WriteByte(byte(l >> 8))
		buf.WriteByte(byte(l >> 16))
		buf.WriteByte(byte(l >> 24))
		buf.Write(v)
	}
	return buf.Bytes()
}

// decodeInstanceValues parses a frame, rejecting instances ≥ n, duplicate
// instances and truncated records.
func decodeInstanceValues(n int, b []byte) ([][]byte, error) {
	out := make([][]byte, n)
	for len(b) > 0 {
		if len(b) < 6 {
			return nil, fmt.Errorf("gradecast: truncated record header")
		}
		d := int(b[0]) | int(b[1])<<8
		l := int(b[2]) | int(b[3])<<8 | int(b[4])<<16 | int(b[5])<<24
		b = b[6:]
		if d >= n || l < 0 || l > len(b) {
			return nil, fmt.Errorf("gradecast: bad record (instance %d, len %d)", d, l)
		}
		if out[d] != nil {
			return nil, fmt.Errorf("gradecast: duplicate instance %d", d)
		}
		v := b[:l]
		if len(v) == 0 {
			v = []byte{} // distinguish "present, empty" from "absent"
		}
		out[d] = v
		b = b[l:]
	}
	return out, nil
}
