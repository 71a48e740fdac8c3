// Package repro is a from-scratch implementation of "Distributed
// Pseudo-Random Bit Generators — A New Way to Speed-Up Shared Coin Tossing"
// (Bellare, Garay, Rabin; PODC 1996).
//
// The package re-exports the library's public surface:
//
//   - a Generator (the D-PRBG): a self-sustaining per-player stream of
//     sealed shared coins, bootstrapped from a one-time trusted-dealer seed
//     and refilled by the paper's Coin-Gen protocol whenever it runs low;
//   - the synchronous-network simulator the protocols run on (NewNetwork,
//     Run), modeling n players with private channels and up to t Byzantine
//     faults;
//   - the GF(2^k) coin field (NewField).
//
// Quick start (see examples/quickstart for the runnable version):
//
//	field, _ := repro.NewField(32)
//	cfg := repro.Config{Field: field, N: 7, T: 1, BatchSize: 16}
//	gens, _ := repro.SetupTrusted(cfg, 8, cryptorand.Reader)
//	nw := repro.NewNetwork(cfg.N)
//	repro.Run(nw, players...) // each player calls gens[i].Next(node, rnd)
//
// The lower-level protocol packages (internal/vss, internal/bitgen,
// internal/coingen, internal/coin, internal/rba, ...) mirror the paper's
// figures one-to-one; see DESIGN.md for the map.
package repro

import (
	"io"

	"repro/internal/coin"
	"repro/internal/core"
	"repro/internal/gf2k"
	"repro/internal/metrics"
	"repro/internal/simnet"
)

// Re-exported core types. See the internal packages for full documentation.
type (
	// Field is the coin field GF(2^k).
	Field = gf2k.Field
	// Element is a k-ary coin value.
	Element = gf2k.Element
	// Config parameterizes a D-PRBG deployment.
	Config = core.Config
	// Generator is one player's D-PRBG endpoint.
	Generator = core.Generator
	// Stats summarizes a generator's lifetime activity.
	Stats = core.Stats
	// Network is the synchronous network simulator.
	Network = simnet.Network
	// Node is one player's network endpoint.
	Node = simnet.Node
	// PlayerFunc is one player's protocol code.
	PlayerFunc = simnet.PlayerFunc
	// PlayerResult is the outcome of one player's run.
	PlayerResult = simnet.PlayerResult
	// Counters records protocol costs (field ops, messages, bytes, rounds).
	Counters = metrics.Counters
	// CoinSource yields sealed shared coins.
	CoinSource = coin.Source
	// CoinBatch is a batch of sealed shared coins.
	CoinBatch = coin.Batch
)

// NewField returns the coin field GF(2^k), 2 ≤ k ≤ 64.
func NewField(k int) (Field, error) { return gf2k.New(k) }

// MustNewField is NewField but panics on error.
func MustNewField(k int) Field { return gf2k.MustNew(k) }

// NewNetwork creates a synchronous network of n players (in-memory
// transport).
func NewNetwork(n int, opts ...simnet.Option) *Network { return simnet.New(n, opts...) }

// WithCounters attaches a metrics sink to a network.
func WithCounters(c *Counters) simnet.Option { return simnet.WithCounters(c) }

// SetupTrusted bootstraps one Generator per player from a one-time trusted
// dealer holding seedCoins sealed coins (the paper's Rabin-style setup).
func SetupTrusted(cfg Config, seedCoins int, rnd io.Reader) ([]*Generator, error) {
	return core.SetupTrusted(cfg, seedCoins, rnd)
}

// Run executes one PlayerFunc per node concurrently and collects results.
func Run(nw *Network, fns []PlayerFunc) []PlayerResult { return simnet.Run(nw, fns) }
