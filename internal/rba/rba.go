// Package rba implements randomized binary Byzantine agreement driven by a
// shared-coin source — the paper's motivating application ("Shared coins
// are needed, amongst other things, for Byzantine agreement (BA) and
// broadcast", §1.1). Each phase consumes ONE shared coin; a D-PRBG makes
// that cheap, which is exactly the speed-up the paper is after.
//
// The protocol (for n ≥ 5t+1) is the classic common-coin loop:
//
//	phase: every player sends its value; let maj be the majority value and
//	       c its count (including one's own vote); then one shared coin b
//	       is exposed; if c ≥ n−2t the player keeps maj, otherwise it
//	       adopts b.
//
// Correctness sketch: (validity) if all honest players hold v they each see
// c ≥ n−t and keep v forever. (agreement) within a phase, two honest
// players cannot keep different majority values — their ≥ n−2t supporter
// sets would overlap in ≥ n−4t ≥ t+1 players, one of them honest; so all
// "keepers" keep a common w, and with probability ≥ 1/2 the coin — which
// the adversary cannot predict when the phase's votes are already fixed —
// equals w and every honest player ends the phase with w, after which
// validity makes w permanent. After R phases all honest players agree
// except with probability ≤ 2^−R (plus the coins' own Mn·2^−k unanimity
// error).
//
// The phase count is fixed (not expected-constant with early exit) so that
// every player consumes the same number of shared coins and the coin
// source stays in lockstep for whatever runs next.
package rba

import (
	"fmt"

	"repro/internal/coin"
	"repro/internal/simnet"
)

// Config parameterizes a randomized agreement.
type Config struct {
	// N is the player count, T the fault bound; N ≥ 5T+1.
	N, T int
	// Phases is the number of coin phases R; residual disagreement
	// probability is ≤ 2^−R. Defaults to 20.
	Phases int
	// Coins supplies one shared coin per phase.
	Coins coin.Source
}

// MinPlayers returns the required network size, 5t+1.
func MinPlayers(t int) int { return 5*t + 1 }

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.N < MinPlayers(c.T) {
		return fmt.Errorf("rba: need n ≥ %d for t=%d, have %d", MinPlayers(c.T), c.T, c.N)
	}
	if c.Coins == nil {
		return fmt.Errorf("rba: nil coin source")
	}
	return nil
}

// Run executes the agreement with input bit 0 or 1 and returns the decided
// bit. Consumes exactly Phases · (1 + coin-expose) rounds.
func Run(nd *simnet.Node, cfg Config, input byte) (byte, error) {
	if err := cfg.Validate(); err != nil {
		return 0, err
	}
	if input > 1 {
		return 0, fmt.Errorf("rba: input must be 0 or 1, got %d", input)
	}
	phases := cfg.Phases
	if phases <= 0 {
		phases = 20
	}
	n, t := cfg.N, cfg.T
	v := input
	for phase := 0; phase < phases; phase++ {
		nd.SendAll([]byte{v})
		msgs, err := nd.EndRound()
		if err != nil {
			return 0, fmt.Errorf("rba: phase %d vote round: %w", phase, err)
		}
		count := [2]int{}
		count[v]++
		for _, payload := range simnet.FirstFromEach(msgs) {
			if len(payload) == 1 && payload[0] <= 1 {
				count[payload[0]]++
			}
		}
		maj := byte(0)
		if count[1] > count[0] {
			maj = 1
		}

		e, err := cfg.Coins.Expose(nd)
		if err != nil {
			return 0, fmt.Errorf("rba: phase %d coin: %w", phase, err)
		}
		b := coin.Bit(e)
		if count[maj] >= n-2*t {
			v = maj
		} else {
			v = b
		}
	}
	return v, nil
}
