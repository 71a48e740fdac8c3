// Package coingen implements protocol Coin-Gen (Fig. 5): the generation of
// a batch of M sealed shared coins over point-to-point channels, tolerating
// t Byzantine players with n ≥ 6t+1.
//
// The flow follows the paper step by step:
//
//  1. Every player, as dealer, initiates Bit-Gen (Fig. 4 step 1): one round.
//  2. One sealed coin r is exposed from the seed; the same r is reused as
//     the batch-check challenge for all n Bit-Gen invocations (saving n
//     polynomial interpolations, as Theorem 2 remarks).
//  3. All players exchange their γ vectors and locally decode every
//     invocation (Fig. 4 steps 3–5): one round.
//  4. Each player builds the directed consistency graph G′ (edge j→k iff
//     F_j decoded and player k's γ lies on F_j) and its undirected core G.
//  5. Each player finds a clique of size ≥ n−2t (Gavril approximation).
//  6. Each player grade-casts its clique together with the decoded F
//     polynomials of the clique members: three rounds.
//  7. A sealed coin selects a leader l; every player checks the paper's
//     three conditions on l's grade-cast (confidence 2; |C_l| ≥ n−2t;
//     at least 3t+1 members of C_l whose announced γ's satisfy every F_k,
//     k ∈ C_l) and feeds the verdict into Byzantine agreement.
//  8. If BA decides 1, the batch is assembled from C_l; otherwise a new
//     leader is drawn and BA re-run (constant expected iterations, Lemma 8).
//
// # Batch assembly
//
// Coin h of the batch is Σ_{j∈C_l} f_{j,h}(0) — the sum of the sealed
// contributions of every clique member. (Fig. 6 sums over a fixed 3t+1
// subset S of the clique; summing over the entire agreed clique needs no
// extra agreement on which subset to use and only adds contributors, which
// strengthens unpredictability. At least 3t+1 members are honest, so the
// guarantee of Lemma 7(3) is preserved.) A player transmits during later
// exposures only if it passes the objective self-check — its own announced
// γ for every k ∈ C_l equals F_k(own id) under the agreed F's — which by
// batch soundness (Lemma 5) implies whp that its shares lie on the common
// polynomials f_{k,h}; honest self-checked transmitters therefore agree on
// every coin polynomial, and there are at least 2t+1 of them.
package coingen

import (
	"errors"
	"fmt"
	"io"

	"repro/internal/ba"
	"repro/internal/bitgen"
	"repro/internal/clique"
	"repro/internal/coin"
	"repro/internal/gf2k"
	"repro/internal/gradecast"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/poly"
	"repro/internal/simnet"
)

// ErrTooManyAttempts is returned when leader selection failed 8·N times in
// a row; with honest-majority leaders the probability decays exponentially.
var ErrTooManyAttempts = errors.New("coingen: leader selection exceeded attempt budget")

// Config parameterizes one Coin-Gen execution.
type Config struct {
	// Field is GF(2^k).
	Field gf2k.Field
	// N is the player count; T the fault bound. The paper's §4 regime
	// requires N ≥ 6T+1.
	N, T int
	// M is the number of sealed coins the batch produces.
	M int
	// Seed supplies the sealed coins Coin-Gen itself consumes (the batch
	// challenge plus one coin per leader attempt).
	Seed coin.Source
	// Counters, when non-nil, records costs.
	Counters *metrics.Counters
	// Pool, when non-nil, fans the pure-compute phases — Bit-Gen dealing
	// and decoding, the n² consistency-graph evaluations, the condition-iii
	// checks, the batch share sums — out across idle cores, and is handed
	// to the assembled coin.Batch for its exposure decodes. Verdicts and
	// transcripts are identical at every width.
	Pool *parallel.Pool
}

// Validate checks the paper's resilience requirement.
func (c Config) Validate() error {
	if c.N < 6*c.T+1 {
		return fmt.Errorf("coingen: need n ≥ 6t+1, got n=%d t=%d", c.N, c.T)
	}
	if c.M < 1 {
		return fmt.Errorf("coingen: batch size M must be ≥ 1, got %d", c.M)
	}
	if c.Seed == nil {
		return errors.New("coingen: nil seed coin source")
	}
	return nil
}

// Result is one player's outcome of a successful Coin-Gen run.
type Result struct {
	// Batch holds the M new sealed coins (identical structure at every
	// honest player).
	Batch *coin.Batch
	// Clique is the agreed set C_l of contributing dealers, sorted.
	Clique []int
	// Attempts is the number of leader-selection iterations used.
	Attempts int
	// SeedConsumed counts the sealed coins Coin-Gen spent (1 challenge +
	// 1 per attempt).
	SeedConsumed int
}

// Run executes Coin-Gen. Every honest player must call Run in the same
// round with identical Config (up to the per-player Seed handle) and a
// private randomness source.
func Run(nd *simnet.Node, cfg Config, rnd io.Reader) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if nd.N() != cfg.N {
		return nil, fmt.Errorf("coingen: network size %d != configured %d", nd.N(), cfg.N)
	}
	tr := nd.Tracer()
	sp := tr.Start(nd.Index(), nd.Round(), obs.KindProtocol, "coingen")
	defer func() { sp.End(nd.Round()) }()

	bcfg := bitgen.Config{Field: cfg.Field, N: cfg.N, T: cfg.T, M: cfg.M, Counters: cfg.Counters, Pool: cfg.Pool}

	// Steps 1–3: deal, expose the shared challenge, exchange γ's.
	sh, err := bitgen.DealAll(nd, bcfg, rnd)
	if err != nil {
		return nil, err
	}
	seedUsed := 0
	r, err := cfg.Seed.Expose(nd)
	if err != nil {
		return nil, fmt.Errorf("coingen: expose challenge: %w", err)
	}
	seedUsed++
	view, err := bitgen.ExchangeGammas(nd, bcfg, sh, r)
	if err != nil {
		return nil, err
	}

	// Steps 4–5: consistency graph and clique (local computation, no
	// rounds; the span isolates its field-op cost).
	cliqueSpan := tr.Start(nd.Index(), nd.Round(), obs.KindPhase, "coingen/clique")
	g, err := ConsistencyGraph(cfg, view)
	if err != nil {
		return nil, err
	}
	myClique := clique.ApproxClique(g)
	tr.CliqueFound(nd.Index(), len(myClique), nd.Round())
	cliqueSpan.End(nd.Round())

	// Step 7: grade-cast (clique, F's).
	payload, err := encodeCliqueMsg(cfg, myClique, view)
	if err != nil {
		return nil, err
	}
	casts, err := gradecast.RunAll(nd, cfg.T, payload)
	if err != nil {
		return nil, err
	}

	// Steps 9–11: leader selection and agreement, repeated until accepted.
	// Their checks evaluate the candidate's polynomials at player ids.
	ids, err := poly.IDDomain(cfg.Field, cfg.N, cfg.Counters)
	if err != nil {
		return nil, err
	}
	agreeSpan := tr.Start(nd.Index(), nd.Round(), obs.KindPhase, "coingen/agree")
	defer func() { agreeSpan.End(nd.Round()) }()
	for attempt := 1; attempt <= 8*cfg.N; attempt++ { // the attempt bound: ErrTooManyAttempts below
		e, err := cfg.Seed.Expose(nd)
		if err != nil {
			return nil, fmt.Errorf("coingen: expose leader coin: %w", err)
		}
		seedUsed++
		leader := coin.Mod(e, cfg.N) - 1 // 0-based index
		tr.LeaderElected(nd.Index(), leader, attempt, nd.Round())

		input := byte(0)
		var cand *cliqueMsg
		if casts[leader].Confidence >= 1 {
			cand, _ = decodeCliqueMsg(cfg, casts[leader].Value)
		}
		if casts[leader].Confidence == 2 && cand != nil && conditionIII(cfg, ids, view, cand) >= 3*cfg.T+1 {
			input = 1
		}

		decision, err := ba.PhaseKing{T: cfg.T}.Run(nd, input)
		if err != nil {
			return nil, err
		}
		if decision != 1 {
			continue
		}
		// Agreement on 1 implies ≥1 honest player verified all conditions,
		// so every honest player holds the value with confidence ≥ 1.
		if cand == nil {
			return nil, errors.New("coingen: BA accepted a leader whose grade-cast this player cannot decode (resilience assumption violated)")
		}
		batch := assembleBatch(cfg, ids, sh, cand, nd.Index(), r)
		tr.CoinSealed(nd.Index(), cfg.M, nd.Round())
		return &Result{
			Batch:        batch,
			Clique:       cand.members,
			Attempts:     attempt,
			SeedConsumed: seedUsed,
		}, nil
	}
	return nil, ErrTooManyAttempts
}

// ConsistencyGraph builds the undirected core G of Fig. 5 step 4 from one
// player's view: vertices are dealers, with an edge {j,k} iff both directed
// consistency relations hold (F_j decoded and γ_k lies on it, and vice
// versa). The n² polynomial evaluations — the quadratic term of a player's
// round work — fan out per dealer row across cfg.Pool; each task writes
// only its own row of the directed relation, and the edges are then added
// in (j,k) index order on the calling goroutine. Exported so benchmarks can
// drive one player's graph workload on a fabricated view.
func ConsistencyGraph(cfg Config, view *bitgen.View) (*clique.Graph, error) {
	n := cfg.N
	ids, err := poly.IDDomain(cfg.Field, n, cfg.Counters)
	if err != nil {
		return nil, err
	}
	directed := make([][]bool, n)
	cfg.Pool.ForEach(n, func(j int) {
		row := make([]bool, n)
		if view.Outputs[j].OK {
			for k := 0; k < n; k++ {
				row[k] = view.Has[k][j] &&
					ids.EvalAt(view.Outputs[j].F, k) == view.GammaOf[k][j]
			}
		}
		directed[j] = row
	})
	g := clique.NewGraph(n)
	for j := 0; j < n; j++ {
		for k := j + 1; k < n; k++ {
			if directed[j][k] && directed[k][j] {
				g.AddEdge(j, k)
			}
		}
	}
	return g, nil
}

// conditionIII counts the members j of the candidate clique whose announced
// γ's (in this player's view) satisfy every F_k of the candidate, k ∈ C_l —
// Fig. 5 step 10 condition iii. Cost: at most |C_l|² degree-t Horner
// evaluations, i.e. O(|C_l|²·t) multiplications, each by a member's id
// through the multipliers of ids, the IDDomain universe over 1..n. The
// per-member checks are independent and fan out across cfg.Pool; each task
// writes only its member's slot and the tally runs in member order.
func conditionIII(cfg Config, ids *poly.Domain, view *bitgen.View, cand *cliqueMsg) int {
	pass := make([]bool, len(cand.members))
	cfg.Pool.ForEach(len(cand.members), func(mi int) {
		j := cand.members[mi]
		for idx, k := range cand.members {
			if !view.Has[j][k] {
				return
			}
			if ids.EvalAt(cand.polys[idx], j) != view.GammaOf[j][k] {
				return
			}
		}
		pass[mi] = true
	})
	count := 0
	for _, ok := range pass {
		if ok {
			count++
		}
	}
	return count
}

// assembleBatch builds this player's handle on the new sealed coins: the
// combined share of coin h is Σ_{j∈C_l} α_i[j][h], and the player marks
// itself silent unless it passes the objective self-check against the
// agreed F's.
// sumChunk is the fixed number of coin indexes one share-summing task
// covers; constant (never width-dependent) so the add schedule is identical
// at every parallelism level.
const sumChunk = 64

func assembleBatch(cfg Config, ids *poly.Domain, sh *bitgen.Shares, cand *cliqueMsg, self int, r gf2k.Element) *coin.Batch {
	f := cfg.Field
	shares := make([]gf2k.Element, cfg.M)
	complete := true
	for _, j := range cand.members {
		if !sh.Received[j] {
			complete = false
		}
	}
	// Coin h's combined share Σ_{j∈C_l} α_i[j][h] touches every member row
	// at one column; distinct h are independent, so the M columns fan out
	// in fixed-size chunks.
	chunks := parallel.Chunks(cfg.M, sumChunk)
	cfg.Pool.ForEach(chunks, func(c int) {
		lo, hi := c*sumChunk, (c+1)*sumChunk
		if hi > cfg.M {
			hi = cfg.M
		}
		for _, j := range cand.members {
			if !sh.Received[j] {
				continue
			}
			row := sh.Alpha[j]
			for h := lo; h < hi; h++ {
				shares[h] = f.Add(shares[h], row[h])
			}
		}
	})
	return &coin.Batch{
		Field:    cfg.Field,
		T:        cfg.T,
		S:        append([]int(nil), cand.members...),
		Shares:   shares,
		Silent:   !complete || !selfCheck(cfg, ids, sh, cand, self, r),
		Counters: cfg.Counters,
		Pool:     cfg.Pool,
	}
}

// selfCheck verifies that this player's own announced γ for every clique
// member k equals F_k(own id) under the agreed polynomials. Passing implies
// (whp, Lemma 5) that the player's shares lie on the common coin
// polynomials, making it a safe transmitter for Coin-Expose. The γ's are
// recombined under the multiplier by r that ExchangeGammas left on sh.
func selfCheck(cfg Config, ids *poly.Domain, sh *bitgen.Shares, cand *cliqueMsg, self int, r gf2k.Element) bool {
	for idx, k := range cand.members {
		gamma, ok := sh.Gamma(cfg.Field, k, r)
		if !ok {
			return false
		}
		if ids.EvalAt(cand.polys[idx], self) != gamma {
			return false
		}
	}
	return true
}
