// Package ba provides deterministic binary Byzantine agreement. Coin-Gen
// (Fig. 5, step 10) says "Run any BA protocol"; the paper assumes
// deterministic BA "for simplicity" (§1.2) and so do we. The implementation
// is a two-round-per-phase phase-king protocol with t+1 phases.
//
// # Resilience
//
// Validity (all honest players start with b ⇒ all decide b) holds for
// n ≥ 4t+1: if every honest player holds b, each receives ≥ n−t values b,
// so mult ≥ n−t and the value persists through every phase.
//
// Agreement holds for n ≥ 5t+1: consider the first phase with an honest
// king. If some honest player keeps its majority value b (mult ≥ n−t), then
// ≥ n−2t honest players held b at the start of the phase, so every player —
// the king included — counts ≥ n−2t values of b against at most
// (n − (n−2t)) + t = 3t values of anything else; since n ≥ 5t+1 gives
// n−2t ≥ 3t+1 > 3t, every honest keeper's majority and the king's broadcast
// value are all b, and after the phase every honest player holds b, which
// then persists by the validity argument. Two honest players can never keep
// different values in one phase because their ≥ n−t supporting sets would
// overlap in ≥ n−3t ≥ 2t+1 > t players, forcing an honest player to have
// sent both values.
//
// Coin-Gen runs in the paper's n ≥ 6t+1 regime, which satisfies both bounds
// with slack.
package ba

import (
	"fmt"

	"repro/internal/obs"
	"repro/internal/simnet"
)

// PhaseKing is the deterministic phase-king protocol with t+1 phases of two
// rounds each. See the package comment for its resilience bounds.
type PhaseKing struct {
	// T is the maximum number of faulty players tolerated.
	T int
}

// MinPlayers returns the network size required for both validity and
// agreement, 5t+1 (see package comment).
func MinPlayers(t int) int { return 5*t + 1 }

// Run executes the protocol: every honest player calls it in the same round
// with its input bit (0 or 1), all consume exactly 2(t+1) rounds, and all
// return the agreed bit.
func (p PhaseKing) Run(nd *simnet.Node, input byte) (byte, error) {
	n := nd.N()
	if n < MinPlayers(p.T) {
		return 0, fmt.Errorf("ba: phase-king needs n ≥ %d for t=%d, have %d", MinPlayers(p.T), p.T, n)
	}
	if input > 1 {
		return 0, fmt.Errorf("ba: input must be 0 or 1, got %d", input)
	}
	sp := nd.Tracer().Start(nd.Index(), nd.Round(), obs.KindPhase, "ba/phase-king")
	defer func() { sp.End(nd.Round()) }()
	v := input
	for phase := 0; phase <= p.T; phase++ {
		// Round A: universal exchange.
		nd.SendAll([]byte{v})
		msgs, err := nd.EndRound()
		if err != nil {
			return 0, fmt.Errorf("ba: phase %d round A: %w", phase, err)
		}
		count := [2]int{}
		count[v]++ // own value
		for _, payload := range simnet.FirstFromEach(msgs) {
			if len(payload) == 1 && payload[0] <= 1 {
				count[payload[0]]++
			}
		}
		maj := byte(0)
		if count[1] > count[0] {
			maj = 1
		}
		mult := count[maj]

		// Round B: the king (player index == phase) announces its majority.
		if nd.Index() == phase {
			nd.SendAll([]byte{maj})
		}
		msgs, err = nd.EndRound()
		if err != nil {
			return 0, fmt.Errorf("ba: phase %d round B: %w", phase, err)
		}
		kingVal := byte(0)
		if nd.Index() == phase {
			kingVal = maj
		} else if payload, ok := simnet.FirstFrom(msgs, phase); ok {
			if len(payload) == 1 && payload[0] <= 1 {
				kingVal = payload[0]
			}
		}

		if mult >= n-p.T {
			v = maj
		} else {
			v = kingVal
		}
	}
	nd.Tracer().Decision(nd.Index(), v, nd.Round())
	return v, nil
}
