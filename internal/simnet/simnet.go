// Package simnet simulates the paper's communication model (§2): a
// synchronous network of n players connected by private authenticated
// channels, with an optional ideal broadcast facility (assumed in §3,
// dropped in §4).
//
// Every player runs as a goroutine and advances in lockstep: messages staged
// with Send or Broadcast during round r are delivered, all at once, when
// every active player has called EndRound for round r. Per-run message,
// byte, broadcast and round counts are recorded in a metrics.Counters so
// experiments can verify the paper's communication complexity claims
// exactly rather than approximately.
//
// Byzantine players are ordinary goroutines running adversarial code; they
// may send arbitrary (including inconsistent) messages, stay silent, or halt
// (crash). The ideal Broadcast facility enforces non-equivocation by
// construction, matching the paper's broadcast-channel assumption. Message-
// level attacks by corrupted senders — tampering, dropping, duplicating or
// misdelivering staged traffic — are modelled by an Interceptor installed
// WithInterceptor, which rewrites each staged message at the round boundary
// without breaking lockstep delivery.
//
// Two transports present the same Node API:
//
//   - New: in-memory, all players in one process — the paper's network
//     model, and the default for tests, experiments and the single-process
//     beacon.
//   - NewPeer: the multi-process deployment — this process hosts exactly
//     one player, peers over authenticated TCP per a PeerConfig, and the
//     round barrier is stretched across processes with crash-tolerant
//     demotion/promotion (see peer.go and ARCHITECTURE.md §9).
//
// Interceptors and WithMaxRounds apply to the in-memory transport only
// (adversarial tests need a vantage point that sees all n players' traffic,
// which no single daemon has; the peer barrier has no round budget);
// WithRoundTimeout, WithDialBackoff, WithScheduleUnit and WithQueryHandler
// apply to peer networks only, and the remaining Options apply to both.
package simnet

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sync"

	"repro/internal/metrics"
	"repro/internal/obs"
)

// ErrHalted is returned by EndRound after the node has halted. Returned
// errors wrap it with the node index and round; match with errors.Is.
var ErrHalted = errors.New("simnet: node has halted")

// ErrMaxRounds is the sentinel for a network that exceeded its round
// budget — almost always a deadlocked or diverging protocol under test.
// The error actually returned is a *RoundLimitError wrapping this sentinel
// with run context (round number, still-active players, staged traffic);
// match with errors.Is(err, ErrMaxRounds).
var ErrMaxRounds = errors.New("simnet: maximum round count exceeded")

// RoundLimitError reports a round-budget overflow with enough context to
// diagnose who stalled: the budget, the players that were still running
// protocol code when it blew (halted players have finished and cannot be
// the culprits), and how much traffic was pending delivery at the fatal
// boundary. It unwraps to ErrMaxRounds.
type RoundLimitError struct {
	// Limit is the configured round budget that was exceeded.
	Limit int
	// Active lists the 0-based indices of players that had not halted —
	// the suspects for a divergent or deadlocked protocol.
	Active []int
	// StagedMsgs and StagedBytes describe the traffic delivered at the
	// boundary that overflowed the budget (0/0 means the protocol was
	// spinning through empty rounds).
	StagedMsgs  int
	StagedBytes int64
}

// Error renders the diagnosis on one line.
func (e *RoundLimitError) Error() string {
	return fmt.Sprintf(
		"simnet: maximum round count exceeded: budget of %d rounds exhausted with players %v still active (%d msgs / %d bytes staged at the fatal boundary)",
		e.Limit, e.Active, e.StagedMsgs, e.StagedBytes)
}

// Unwrap makes errors.Is(err, ErrMaxRounds) hold.
func (e *RoundLimitError) Unwrap() error { return ErrMaxRounds }

// HaltedError reports EndRound being called on a node that already halted,
// identifying the node and its round. It unwraps to ErrHalted.
type HaltedError struct {
	// Player is the 0-based index of the halted node; Round its completed
	// round count when the call was made.
	Player, Round int
}

// Error renders the diagnosis on one line.
func (e *HaltedError) Error() string {
	return fmt.Sprintf("simnet: node %d has halted (round %d)", e.Player, e.Round)
}

// Unwrap makes errors.Is(err, ErrHalted) hold.
func (e *HaltedError) Unwrap() error { return ErrHalted }

// Kind distinguishes how a message was delivered.
type Kind int

const (
	// Unicast is a private point-to-point message.
	Unicast Kind = iota + 1
	// Broadcast was sent through the ideal broadcast facility and is
	// guaranteed identical at all receivers.
	Broadcast
)

// Message is one delivered message.
type Message struct {
	// From is the 0-based index of the sender.
	From int
	// Kind tells whether the message arrived by unicast or ideal broadcast.
	Kind Kind
	// Payload is the message body. Receivers must treat it as read-only.
	Payload []byte

	seq uint64 // global staging order, for deterministic delivery
}

// Deliverable is one staged message copy as presented to an Interceptor at
// the round boundary: the copy of From's message addressed to To.
type Deliverable struct {
	// Round is the 0-based round the message was staged in (the round the
	// boundary is completing).
	Round int
	// From is the sender. The channels are authenticated (§2), so an
	// interceptor cannot forge it: every copy it emits keeps this sender.
	From int
	// To is the recipient of this copy. Broadcast messages appear once per
	// recipient, so a per-copy rewrite of a Broadcast models a corrupted
	// sender equivocating *around* the ideal facility — the facility itself
	// stays non-equivocating for honest senders with no interceptor rule.
	To int
	// Kind records how the message was sent; like From, it is preserved on
	// every emitted copy.
	Kind Kind
	// Payload is the staged body. Copies of the same message share the
	// backing array, so interceptors must treat it as read-only and return
	// fresh slices for tampered copies.
	Payload []byte
}

// Pass returns the deliverable unchanged as a one-element slice — the
// identity result for interceptors that leave a message alone.
func (d Deliverable) Pass() []Deliverable { return []Deliverable{d} }

// Interceptor is the message-level adversary hook. At each round boundary
// the network presents every staged message copy, in deterministic order
// (recipient, then sender, then staging order), and delivers whatever the
// interceptor returns instead: an empty slice drops the copy, multiple
// results duplicate it, and a result with a different To misdelivers it
// (results addressed outside [0, n) are silently dropped). From and Kind are
// preserved regardless of what the interceptor sets them to. Lockstep
// semantics are unaffected: interception happens inside the boundary commit,
// so every player still observes the same round structure.
//
// Intercept is always called with the network lock held, from one goroutine
// at a time, so implementations may keep unguarded state (e.g. a seeded
// *rand.Rand) and stay deterministic.
type Interceptor interface {
	Intercept(d Deliverable) []Deliverable
}

// InterceptorFunc adapts a function to the Interceptor interface.
type InterceptorFunc func(d Deliverable) []Deliverable

// Intercept calls f.
func (f InterceptorFunc) Intercept(d Deliverable) []Deliverable { return f(d) }

// Network is a synchronous network of n nodes.
type Network struct {
	n         int
	maxRounds int
	ctr       *metrics.Counters
	tracer    *obs.Tracer
	icept     Interceptor
	sched     *Schedule
	eng       *schedEngine

	mu        sync.Mutex
	cond      *sync.Cond
	round     int
	arrived   int
	active    int
	seq       uint64
	staging   [][]Message         // staged for the next boundary, indexed by recipient
	deferred  map[int][][]Message // schedule-delayed traffic by delivery round, then recipient
	delivery  [][]Message         // delivered at the last boundary
	nodes     []*Node
	closedErr error

	// Multi-process peer transport state (nil outside daemon mode); see
	// peer.go. A peer-mode Network drives exactly one local node and
	// replaces the in-process barrier with the distributed watermark
	// barrier, so the shared-state fields above stay idle.
	pn       *peerNet
	peerOpts peerOptions
}

// Option configures a Network at construction. Options are shared by both
// transports (New, NewPeer); each transport ignores the options that do
// not apply to it — see the package comment for which apply where.
type Option func(*Network)

// WithCounters attaches a metrics sink recording messages, bytes, broadcasts
// and rounds.
func WithCounters(c *metrics.Counters) Option {
	return func(nw *Network) { nw.ctr = c }
}

// WithMaxRounds overrides the default round budget (100000) of an
// in-memory network; peer networks ignore it.
func WithMaxRounds(r int) Option {
	return func(nw *Network) { nw.maxRounds = r }
}

// WithTracer attaches an obs.Tracer: the network emits send, broadcast,
// delivery and round-boundary events, and protocol code reaches the same
// tracer through Node.Tracer to mark its phases. A nil tracer (the
// default) keeps the zero-cost path: no locking, no allocation.
func WithTracer(tr *obs.Tracer) Option {
	return func(nw *Network) { nw.tracer = tr }
}

// WithInterceptor installs a message-level adversary (see Interceptor). A
// nil interceptor (the default) keeps the honest fast path: the boundary
// commit performs no extra work and no extra allocation.
func WithInterceptor(ic Interceptor) Option {
	return func(nw *Network) { nw.icept = ic }
}

// WithSchedule installs a hostile-network Schedule (see schedule.go): seeded
// per-edge delivery delays, partitions with timed heals, crash/recover
// windows, and within-round delivery reordering. It applies to both
// transports at the same staging/commit seam as the Interceptor, AFTER
// interception (the message adversary acts on staged traffic; the network
// adversary then decides when the result arrives). A nil or zero-valued
// schedule is the benign network, byte-identical to not passing the option
// at all. The schedule must Validate against the network size; New panics
// otherwise, since a silently clipped schedule would not reproduce.
func WithSchedule(s *Schedule) Option {
	return func(nw *Network) { nw.sched = s }
}

// New creates a network of n nodes, all active.
func New(n int, opts ...Option) *Network {
	if n < 1 {
		panic(fmt.Sprintf("simnet: invalid network size %d", n))
	}
	nw := &Network{
		n:         n,
		maxRounds: 100000,
		active:    n,
		staging:   make([][]Message, n),
		delivery:  make([][]Message, n),
	}
	nw.cond = sync.NewCond(&nw.mu)
	for _, o := range opts {
		o(nw)
	}
	if err := nw.sched.Validate(n); err != nil {
		panic(err.Error())
	}
	nw.eng = newSchedEngine(nw.sched, n)
	nw.nodes = make([]*Node, n)
	for i := range nw.nodes {
		nw.nodes[i] = &Node{nw: nw, idx: i}
	}
	return nw
}

// N returns the network size.
func (nw *Network) N() int { return nw.n }

// Node returns the handle for the node with 0-based index i.
func (nw *Network) Node(i int) *Node { return nw.nodes[i] }

// activeIndicesLocked lists the nodes that have not halted. Caller holds
// nw.mu.
func (nw *Network) activeIndicesLocked() []int {
	out := make([]int, 0, nw.active)
	for i, nd := range nw.nodes {
		if !nd.halted {
			out = append(out, i)
		}
	}
	return out
}

// sortCanonical puts one recipient's messages into the canonical delivery
// order — sender, then staging sequence — that every transport, the
// interceptor and the schedule engine start from.
func sortCanonical(msgs []Message) {
	slices.SortFunc(msgs, func(a, b Message) int {
		if c := cmp.Compare(a.From, b.From); c != 0 {
			return c
		}
		return cmp.Compare(a.seq, b.seq)
	})
}

// interceptStagingLocked rewrites the staged traffic through the installed
// Interceptor. Messages are presented in deterministic order — recipient,
// then (sender, staging order) — and the copies the interceptor returns are
// restaged with fresh sequence numbers in emission order, so a fixed seed
// reproduces the identical post-attack delivery. Caller holds nw.mu.
func (nw *Network) interceptStagingLocked() {
	out := make([][]Message, nw.n)
	for to := 0; to < nw.n; to++ {
		msgs := nw.staging[to]
		sortCanonical(msgs)
		for _, m := range msgs {
			res := nw.icept.Intercept(Deliverable{
				Round:   nw.round,
				From:    m.From,
				To:      to,
				Kind:    m.Kind,
				Payload: m.Payload,
			})
			for _, d := range res {
				if d.To < 0 || d.To >= nw.n {
					continue // misdelivery off the network is a drop
				}
				out[d.To] = append(out[d.To], Message{
					From:    m.From, // authenticated channel: sender is not forgeable
					Kind:    m.Kind,
					Payload: d.Payload,
					seq:     nw.seq,
				})
				nw.seq++
			}
		}
	}
	nw.staging = out
}

// applyScheduleLocked runs the schedule engine over the staged traffic at
// the boundary of the current round: fresh messages are dropped (crash
// windows), deferred to a later boundary (delays, partitions), or kept;
// deferred traffic that has come due is merged back in. Copy indices — the
// per-edge occurrence numbers that key jitter samples — are assigned in
// canonical (From, seq) order so they are identical across transports and
// goroutine interleavings. Caller holds nw.mu.
func (nw *Network) applyScheduleLocked() {
	r := nw.round
	for to := 0; to < nw.n; to++ {
		msgs := nw.staging[to]
		if len(msgs) == 0 {
			continue
		}
		sortCanonical(msgs)
		occ := make(map[int]int, nw.n)
		keep := msgs[:0]
		for _, m := range msgs {
			c := occ[m.From]
			occ[m.From] = c + 1
			at, drop := nw.eng.fate(r, m.From, to, c)
			if drop {
				continue
			}
			if at > r {
				if nw.deferred == nil {
					nw.deferred = make(map[int][][]Message)
				}
				slot := nw.deferred[at]
				if slot == nil {
					slot = make([][]Message, nw.n)
					nw.deferred[at] = slot
				}
				slot[to] = append(slot[to], m)
				continue
			}
			keep = append(keep, m)
		}
		nw.staging[to] = keep
	}
	// Deferred messages keep their original (older) sequence numbers, so
	// after the canonical sort below they deliver ahead of same-sender
	// fresh traffic — a delayed FIFO channel, not a shuffled one.
	if due, ok := nw.deferred[r]; ok {
		for to, msgs := range due {
			nw.staging[to] = append(nw.staging[to], msgs...)
		}
		delete(nw.deferred, r)
	}
}

// commitLocked delivers all staged messages and advances the round.
// Caller holds nw.mu.
func (nw *Network) commitLocked() {
	if nw.icept != nil {
		nw.interceptStagingLocked()
	}
	if nw.eng != nil {
		nw.applyScheduleLocked()
	}
	for i := range nw.staging {
		msgs := nw.staging[i]
		sortCanonical(msgs)
		if nw.eng != nil {
			nw.staging[i] = nw.eng.reorder(nw.round, i, msgs)
		}
	}
	nw.delivery = nw.staging
	// Lockstep protocols repeat their traffic shape, so each recipient's next
	// staging slice is presized to this round's count, all from one array.
	total := 0
	for _, msgs := range nw.delivery {
		total += len(msgs)
	}
	next := make([]Message, total)
	nw.staging = make([][]Message, nw.n)
	for i, msgs := range nw.delivery {
		nw.staging[i], next = next[:0:len(msgs)], next[len(msgs):]
	}
	nw.round++
	nw.arrived = 0
	if nw.ctr != nil {
		nw.ctr.AddRounds(1)
	}
	if nw.tracer != nil {
		// Delivery and boundary events carry the index of the round the
		// messages were staged in (the just-completed round), matching the
		// Round field on the senders' EvSend events.
		completed := nw.round - 1
		delivered := 0
		var totalBytes int64
		for to, msgs := range nw.delivery {
			for _, m := range msgs {
				nw.tracer.Deliver(m.From, to, len(m.Payload), completed)
				delivered++
				totalBytes += int64(len(m.Payload))
			}
		}
		nw.tracer.RoundBoundary(completed, delivered, totalBytes)
	}
	if nw.round > nw.maxRounds && nw.closedErr == nil {
		staged, stagedBytes := 0, int64(0)
		for _, msgs := range nw.delivery {
			staged += len(msgs)
			for _, m := range msgs {
				stagedBytes += int64(len(m.Payload))
			}
		}
		nw.closedErr = &RoundLimitError{
			Limit:       nw.maxRounds,
			Active:      nw.activeIndicesLocked(),
			StagedMsgs:  staged,
			StagedBytes: stagedBytes,
		}
	}
	nw.cond.Broadcast()
}

// Node is one player's endpoint in the network. A Node must be used from a
// single goroutine.
type Node struct {
	nw     *Network
	idx    int
	round  int
	outbox []stagedMsg
	halted bool
}

type stagedMsg struct {
	to  int // -1 for broadcast
	msg Message
}

// Index returns the node's 0-based index. The paper's 1-based player id is
// Index()+1.
func (nd *Node) Index() int { return nd.idx }

// Tracer returns the network's obs.Tracer (nil when tracing is disabled).
// Protocol modules fetch it here to mark their phases, so configuring one
// WithTracer instruments the whole stack.
func (nd *Node) Tracer() *obs.Tracer { return nd.nw.tracer }

// N returns the network size.
func (nd *Node) N() int { return nd.nw.n }

// Round returns the node's current (0-based) round number.
func (nd *Node) Round() int { return nd.round }

// Send stages a private message to node `to` (0-based) for delivery at the
// next round boundary. Sending to self is allowed.
func (nd *Node) Send(to int, payload []byte) {
	if nd.halted {
		panic("simnet: Send after Halt")
	}
	if to < 0 || to >= nd.nw.n {
		panic(fmt.Sprintf("simnet: Send to invalid node %d", to))
	}
	nd.outbox = append(nd.outbox, stagedMsg{
		to:  to,
		msg: Message{From: nd.idx, Kind: Unicast, Payload: payload},
	})
	if nd.nw.ctr != nil {
		nd.nw.ctr.AddMessages(1)
		nd.nw.ctr.AddBytes(int64(len(payload)))
	}
	if nd.nw.tracer != nil {
		nd.nw.tracer.Send(nd.idx, to, len(payload), nd.round)
	}
}

// SendAll stages the same private message to every node except the sender.
// This is the paper's point-to-point substitute for announcing a value
// ("every time a player needs to announce a message, (s)he can only
// distribute it to each of the other players individually", §4).
func (nd *Node) SendAll(payload []byte) {
	for i := 0; i < nd.nw.n; i++ {
		if i == nd.idx {
			continue
		}
		nd.Send(i, payload)
	}
}

// Broadcast stages a message through the ideal broadcast facility: every
// node (including the sender) receives an identical copy, and equivocation
// is impossible by construction. Only §3 protocols, which assume a broadcast
// channel, may use this. Cost accounting charges n messages of the payload
// size, plus one broadcast invocation.
func (nd *Node) Broadcast(payload []byte) {
	if nd.halted {
		panic("simnet: Broadcast after Halt")
	}
	nd.outbox = append(nd.outbox, stagedMsg{
		to:  -1,
		msg: Message{From: nd.idx, Kind: Broadcast, Payload: payload},
	})
	if nd.nw.ctr != nil {
		nd.nw.ctr.AddBroadcasts(1)
		nd.nw.ctr.AddMessages(int64(nd.nw.n))
		nd.nw.ctr.AddBytes(int64(nd.nw.n) * int64(len(payload)))
	}
	if nd.nw.tracer != nil {
		nd.nw.tracer.Broadcast(nd.idx, len(payload), nd.round)
	}
}

// EndRound flushes this node's staged messages, waits for every other
// active node to end the round, and returns the messages delivered to this
// node, ordered by sender index (ties by send order).
func (nd *Node) EndRound() ([]Message, error) {
	nw := nd.nw
	if nw.pn != nil {
		return nw.pn.endRound(nd)
	}
	nw.mu.Lock()
	defer nw.mu.Unlock()
	if nd.halted {
		return nil, &HaltedError{Player: nd.idx, Round: nd.round}
	}
	if nw.closedErr != nil {
		return nil, nw.closedErr
	}
	for _, s := range nd.outbox {
		s.msg.seq = nw.seq
		nw.seq++
		if s.to >= 0 {
			nw.staging[s.to] = append(nw.staging[s.to], s.msg)
		} else {
			for i := 0; i < nw.n; i++ {
				nw.staging[i] = append(nw.staging[i], s.msg)
			}
		}
	}
	nd.outbox = nd.outbox[:0]

	myRound := nd.round
	nw.arrived++
	if nw.arrived == nw.active {
		nw.commitLocked()
	}
	for nw.round <= myRound && nw.closedErr == nil {
		nw.cond.Wait()
	}
	if nw.round <= myRound {
		return nil, nw.closedErr
	}
	nd.round++
	return nw.delivery[nd.idx], nil
}

// Halt removes the node from the network: it stops participating in round
// barriers and its pending messages are discarded. Halt is idempotent.
// A halted player models a crash fault (and is how the orchestrator retires
// players whose protocol function returned).
func (nd *Node) Halt() {
	nw := nd.nw
	if nw.pn != nil {
		// Peer mode has no shared barrier to release — the other players
		// live in other processes, and their barriers demote us once our
		// done markers stop arriving. Just retire the local node.
		nd.halted = true
		nd.outbox = nil
		return
	}
	nw.mu.Lock()
	defer nw.mu.Unlock()
	if nd.halted {
		return
	}
	nd.halted = true
	nd.outbox = nil
	nw.active--
	if nw.active > 0 && nw.arrived == nw.active {
		nw.commitLocked()
	} else if nw.active == 0 {
		nw.cond.Broadcast()
	}
}

// FirstFromEach indexes delivered messages by sender, keeping only the first
// message from each sender — the common shape for protocols where every
// player announces exactly one value per round.
func FirstFromEach(msgs []Message) map[int][]byte {
	out := make(map[int][]byte, len(msgs))
	for _, m := range msgs {
		if _, ok := out[m.From]; !ok {
			out[m.From] = m.Payload
		}
	}
	return out
}

// FirstFrom returns the payload of the first message from sender in msgs,
// and whether there is one: FirstFromEach(msgs)[sender] without the map.
func FirstFrom(msgs []Message, sender int) ([]byte, bool) {
	for _, m := range msgs {
		if m.From == sender {
			return m.Payload, true
		}
	}
	return nil, false
}

// PlayerFunc is one player's protocol code. It may return a protocol output
// and an error; the orchestrator halts the player's node when it returns.
type PlayerFunc func(nd *Node) (interface{}, error)

// PlayerResult is the outcome of one player's run.
type PlayerResult struct {
	Value interface{}
	Err   error
}

// Run executes fns[i] on node i concurrently and waits for all to finish.
// len(fns) must equal the network size. Each node is halted when its
// function returns, so stragglers do not block the round barrier.
func Run(nw *Network, fns []PlayerFunc) []PlayerResult {
	if len(fns) != nw.n {
		panic(fmt.Sprintf("simnet: %d player funcs for %d nodes", len(fns), nw.n))
	}
	results := make([]PlayerResult, nw.n)
	var wg sync.WaitGroup
	for i := range fns {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			nd := nw.Node(i)
			defer nd.Halt()
			v, err := fns[i](nd)
			results[i] = PlayerResult{Value: v, Err: err}
		}(i)
	}
	wg.Wait()
	return results
}
