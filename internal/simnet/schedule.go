package simnet

// Hostile-network schedule engine. A Schedule turns the benign lockstep
// network into an adversarially scheduled one while keeping every run a
// pure function of its seeds: per-edge delivery delays (fixed / uniform /
// heavy-tail jitter), network partitions with timed heals, crash windows
// with recovery, and within-round delivery reordering.
//
// The schedule is applied at the same staging/commit seam where the
// Interceptor lives, AFTER interception, so lockstep semantics are
// preserved where the protocol requires them (players still advance round
// by round; EndRound never blocks on a delayed message) and relaxed only
// where the paper's model permits (which messages a player sees at a given
// boundary, and in what order). Concretely, per transport:
//
//   - In-memory (lockstep barrier): a delay of d rounds on a message
//     staged in round r defers its delivery to the boundary of round
//     r+d. A partition defers messages crossing the cut to the heal
//     round; a crash window drops every message into or out of the crashed
//     player while it is down. Reordering permutes the cross-sender merge
//     order of each recipient's boundary delivery while preserving each
//     sender's emission order (the network may interleave senders
//     arbitrarily, but each point-to-point channel stays FIFO).
//   - Peer transport (real-time barrier): delays are enacted in wall-clock
//     on the round barrier itself — a peer's done frame for round r is held
//     for d × unit before it advances the local watermark, so the jittered
//     peer's whole round arrives late, exactly like a slow link. Crash and
//     partition windows drop that edge's data and done frames while
//     active, which (deliberately) drives the demotion/promotion machinery.
//     Within-round reordering applies at the local commit as above.
//
// Every random choice — jitter samples and reorder ranks — is a pure
// function of (Schedule.Seed, round, edge, copy index) via a splitmix-style
// hash, never of goroutine scheduling, so the same schedule replays
// byte-identically on either transport and survives -race interleavings.
//
// A Schedule is serializable (String / ParseSchedule round-trip exactly)
// so a failing run can be quoted in a bug report, and shrinkable (the
// conformance harness greedily removes Rules() entries) so the quoted
// schedule is minimal.

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"
)

// DistKind selects a delay distribution shape.
type DistKind int

const (
	// DistFixed delays every matching message by exactly Min rounds.
	DistFixed DistKind = iota + 1
	// DistUniform delays by a uniform sample from [Min, Max].
	DistUniform
	// DistHeavyTail delays by Min plus a geometric(1/2) tail capped at Max:
	// most messages are nearly on time, a few straggle badly — the classic
	// long-tail link.
	DistHeavyTail
)

func (k DistKind) String() string {
	switch k {
	case DistFixed:
		return "fixed"
	case DistUniform:
		return "uniform"
	case DistHeavyTail:
		return "heavytail"
	}
	return fmt.Sprintf("dist(%d)", int(k))
}

// Dist is a delay distribution in whole rounds.
type Dist struct {
	Kind     DistKind
	Min, Max int
}

// sample draws from the distribution using a uniform 64-bit hash value.
func (d Dist) sample(u uint64) int {
	switch d.Kind {
	case DistFixed:
		return d.Min
	case DistUniform:
		if d.Max <= d.Min {
			return d.Min
		}
		return d.Min + int(u%uint64(d.Max-d.Min+1))
	case DistHeavyTail:
		// Count leading ones of the hash: P(tail ≥ k) = 2^-k.
		tail := 0
		for u&1 == 1 && d.Min+tail < d.Max {
			tail++
			u >>= 1
		}
		return d.Min + tail
	}
	return 0
}

// max returns the largest delay the distribution can produce.
func (d Dist) max() int {
	if d.Kind == DistFixed {
		return d.Min
	}
	if d.Max > d.Min {
		return d.Max
	}
	return d.Min
}

// Wildcard matches any player index in a DelayRule endpoint.
const Wildcard = -1

// openEnd marks a rule window with no upper round bound.
const openEnd = 1 << 30

// DelayRule jitters one edge (or a wildcard family of edges) during a
// round window. The delay charge is on the SOURCE: delaying From's traffic
// models From being slow/silent toward its recipients, which the paper's
// fault budget covers when From is counted faulty — see (*Schedule).Disturbed.
type DelayRule struct {
	// From, To name the edge; Wildcard (-1) matches every player.
	From, To int
	// Start, End bound the active window [Start, End) in staging rounds;
	// End ≤ 0 means open-ended.
	Start, End int
	// Dist is the per-message delay distribution, in rounds.
	Dist Dist
}

// PartitionRule splits the network during [Start, Heal): messages crossing
// the cut between Isolated and the rest are queued and delivered at the
// boundary of round Heal (in-memory transport) or dropped while the
// window is active (peer transport, where the demotion machinery models
// the outage).
type PartitionRule struct {
	// Isolated is one side of the cut — by convention the minority side,
	// and the side charged to the fault budget.
	Isolated []int
	// Start, Heal bound the partition window [Start, Heal).
	Start, Heal int
}

// CrashRule takes player Player off the network during [Start, Recover):
// every message from or to the player staged in the window is dropped. The
// player's goroutine keeps running protocol code (this is a network-level
// crash — the process is unreachable, not stopped), so after Recover its
// traffic flows again.
type CrashRule struct {
	Player         int
	Start, Recover int
}

// Schedule is a deterministic, serializable hostile-network schedule.
// The zero value (and nil) is the benign schedule: installing it changes
// nothing, byte for byte.
type Schedule struct {
	// Seed drives every sampled choice (jitter, reorder ranks). Two runs of
	// the same protocol seed under the same Schedule are identical.
	Seed int64
	// Reorder permutes the cross-sender merge order of every boundary
	// delivery (per-sender FIFO order is preserved).
	Reorder bool

	Delays     []DelayRule
	Partitions []PartitionRule
	Crashes    []CrashRule
}

// IsZero reports whether the schedule has no effect (nil or no active
// behaviors); the network skips engine installation entirely for such
// schedules, keeping the benign fast path byte-identical.
func (s *Schedule) IsZero() bool {
	return s == nil || (!s.Reorder && len(s.Delays) == 0 && len(s.Partitions) == 0 && len(s.Crashes) == 0)
}

// Validate checks the schedule against a network of n players.
func (s *Schedule) Validate(n int) error {
	if s == nil {
		return nil
	}
	for i, d := range s.Delays {
		if (d.From != Wildcard && (d.From < 0 || d.From >= n)) || (d.To != Wildcard && (d.To < 0 || d.To >= n)) {
			return fmt.Errorf("simnet: delay rule %d: edge %d->%d outside [0,%d)", i, d.From, d.To, n)
		}
		if d.Start < 0 {
			return fmt.Errorf("simnet: delay rule %d: negative start round %d", i, d.Start)
		}
		switch d.Dist.Kind {
		case DistFixed, DistUniform, DistHeavyTail:
		default:
			return fmt.Errorf("simnet: delay rule %d: unknown distribution kind %d", i, int(d.Dist.Kind))
		}
		if d.Dist.Min < 0 || d.Dist.max() < d.Dist.Min {
			return fmt.Errorf("simnet: delay rule %d: bad distribution bounds [%d,%d]", i, d.Dist.Min, d.Dist.Max)
		}
	}
	for i, p := range s.Partitions {
		if len(p.Isolated) == 0 || len(p.Isolated) >= n {
			return fmt.Errorf("simnet: partition rule %d: isolated side must be a proper non-empty subset", i)
		}
		seen := map[int]bool{}
		for _, pl := range p.Isolated {
			if pl < 0 || pl >= n {
				return fmt.Errorf("simnet: partition rule %d: player %d outside [0,%d)", i, pl, n)
			}
			if seen[pl] {
				return fmt.Errorf("simnet: partition rule %d: duplicate player %d", i, pl)
			}
			seen[pl] = true
		}
		if p.Start < 0 || p.Heal <= p.Start {
			return fmt.Errorf("simnet: partition rule %d: bad window [%d,%d)", i, p.Start, p.Heal)
		}
	}
	for i, c := range s.Crashes {
		if c.Player < 0 || c.Player >= n {
			return fmt.Errorf("simnet: crash rule %d: player %d outside [0,%d)", i, c.Player, n)
		}
		if c.Start < 0 || c.Recover <= c.Start {
			return fmt.Errorf("simnet: crash rule %d: bad window [%d,%d)", i, c.Start, c.Recover)
		}
	}
	return nil
}

// MaxDelay returns the largest per-message delay (in rounds) any delay
// rule can produce. The peer transport derives its round-timeout grace
// from this: an honest peer under jitter can legitimately be MaxDelay
// units late, and must not be demoted for it.
func (s *Schedule) MaxDelay() int {
	if s == nil {
		return 0
	}
	m := 0
	for _, d := range s.Delays {
		if v := d.Dist.max(); v > m {
			m = v
		}
	}
	return m
}

// Disturbed returns the sorted set of players whose own outputs the
// schedule may damage — the players a property checker must exempt, and
// the players charged against the paper's fault budget t:
//
//   - a crashed player (its view and its visibility are both cut);
//   - every player on the Isolated side of a partition (traffic into the
//     minority side is queued past its usefulness);
//   - the From endpoint of every delay rule (delaying a source models that
//     source being slow/silent toward its recipients — the receivers'
//     guarantees survive because a slow source is charged as one of the
//     ≤ t tolerated faults, but the source's own round structure as seen
//     by others is no longer trustworthy). A wildcard From disturbs
//     every player.
//
// Receivers of delayed traffic are NOT disturbed: the paper's protocols
// tolerate up to t faulty-looking senders by construction, which is
// exactly what a delayed edge makes its source look like.
func (s *Schedule) Disturbed(n int) []int {
	if s == nil {
		return nil
	}
	set := map[int]bool{}
	for _, c := range s.Crashes {
		set[c.Player] = true
	}
	for _, p := range s.Partitions {
		for _, pl := range p.Isolated {
			set[pl] = true
		}
	}
	for _, d := range s.Delays {
		if d.From == Wildcard {
			for i := 0; i < n; i++ {
				set[i] = true
			}
			break
		}
		set[d.From] = true
	}
	out := make([]int, 0, len(set))
	for i := range set {
		out = append(out, i)
	}
	sort.Ints(out)
	return out
}

// RuleCount returns the number of removable rules (delay + partition +
// crash rules, plus the reorder flag) — the search space of the
// conformance shrinker.
func (s *Schedule) RuleCount() int {
	if s == nil {
		return 0
	}
	n := len(s.Delays) + len(s.Partitions) + len(s.Crashes)
	if s.Reorder {
		n++
	}
	return n
}

// WithoutRule returns a deep copy of the schedule with removable rule i
// (in RuleCount order: delays, partitions, crashes, reorder flag) deleted.
func (s *Schedule) WithoutRule(i int) *Schedule {
	c := s.Clone()
	switch {
	case i < len(c.Delays):
		c.Delays = append(c.Delays[:i], c.Delays[i+1:]...)
	case i < len(c.Delays)+len(c.Partitions):
		i -= len(c.Delays)
		c.Partitions = append(c.Partitions[:i], c.Partitions[i+1:]...)
	case i < len(c.Delays)+len(c.Partitions)+len(c.Crashes):
		i -= len(c.Delays) + len(c.Partitions)
		c.Crashes = append(c.Crashes[:i], c.Crashes[i+1:]...)
	default:
		c.Reorder = false
	}
	return c
}

// Clone returns a deep copy.
func (s *Schedule) Clone() *Schedule {
	if s == nil {
		return nil
	}
	c := &Schedule{Seed: s.Seed, Reorder: s.Reorder}
	c.Delays = append([]DelayRule(nil), s.Delays...)
	c.Crashes = append([]CrashRule(nil), s.Crashes...)
	c.Partitions = make([]PartitionRule, len(s.Partitions))
	for i, p := range s.Partitions {
		c.Partitions[i] = PartitionRule{Isolated: append([]int(nil), p.Isolated...), Start: p.Start, Heal: p.Heal}
	}
	return c
}

// ---------------------------------------------------------------------------
// Serialization: one line, semicolon-separated, exact round-trip.

func fmtEndpoint(p int) string {
	if p == Wildcard {
		return "*"
	}
	return strconv.Itoa(p)
}

func fmtWindow(start, end int) string {
	if end <= 0 || end >= openEnd {
		return fmt.Sprintf("r%d-", start)
	}
	return fmt.Sprintf("r%d-%d", start, end)
}

// String renders the schedule in the compact form ParseSchedule accepts:
//
//	seed=7;reorder;delay=3->*:r0-:uniform(1,3);partition=[1 4]:r2-6;crash=p2:r0-4
func (s *Schedule) String() string {
	if s == nil {
		return "benign"
	}
	parts := []string{fmt.Sprintf("seed=%d", s.Seed)}
	if s.Reorder {
		parts = append(parts, "reorder")
	}
	for _, d := range s.Delays {
		dist := ""
		switch d.Dist.Kind {
		case DistFixed:
			dist = fmt.Sprintf("fixed(%d)", d.Dist.Min)
		default:
			dist = fmt.Sprintf("%s(%d,%d)", d.Dist.Kind, d.Dist.Min, d.Dist.Max)
		}
		parts = append(parts, fmt.Sprintf("delay=%s->%s:%s:%s",
			fmtEndpoint(d.From), fmtEndpoint(d.To), fmtWindow(d.Start, d.End), dist))
	}
	for _, p := range s.Partitions {
		ids := make([]string, len(p.Isolated))
		for i, pl := range p.Isolated {
			ids[i] = strconv.Itoa(pl)
		}
		parts = append(parts, fmt.Sprintf("partition=[%s]:%s", strings.Join(ids, " "), fmtWindow(p.Start, p.Heal)))
	}
	for _, c := range s.Crashes {
		parts = append(parts, fmt.Sprintf("crash=p%d:%s", c.Player, fmtWindow(c.Start, c.Recover)))
	}
	return strings.Join(parts, ";")
}

func parseEndpoint(s string) (int, error) {
	if s == "*" {
		return Wildcard, nil
	}
	return strconv.Atoi(s)
}

func parseWindow(s string) (start, end int, err error) {
	if !strings.HasPrefix(s, "r") {
		return 0, 0, fmt.Errorf("window %q must start with r", s)
	}
	lo, hi, ok := strings.Cut(s[1:], "-")
	if !ok {
		return 0, 0, fmt.Errorf("window %q wants rSTART-END", s)
	}
	if start, err = strconv.Atoi(lo); err != nil {
		return 0, 0, fmt.Errorf("window %q: %v", s, err)
	}
	if hi == "" {
		return start, openEnd, nil
	}
	if end, err = strconv.Atoi(hi); err != nil {
		return 0, 0, fmt.Errorf("window %q: %v", s, err)
	}
	return start, end, nil
}

func parseDist(s string) (Dist, error) {
	name, rest, ok := strings.Cut(s, "(")
	if !ok || !strings.HasSuffix(rest, ")") {
		return Dist{}, fmt.Errorf("distribution %q wants kind(args)", s)
	}
	args := strings.Split(strings.TrimSuffix(rest, ")"), ",")
	var d Dist
	switch name {
	case "fixed":
		if len(args) != 1 {
			return Dist{}, fmt.Errorf("fixed wants one argument, got %q", s)
		}
		v, err := strconv.Atoi(strings.TrimSpace(args[0]))
		if err != nil {
			return Dist{}, err
		}
		return Dist{Kind: DistFixed, Min: v}, nil
	case "uniform":
		d.Kind = DistUniform
	case "heavytail":
		d.Kind = DistHeavyTail
	default:
		return Dist{}, fmt.Errorf("unknown distribution %q", name)
	}
	if len(args) != 2 {
		return Dist{}, fmt.Errorf("%s wants two arguments, got %q", name, s)
	}
	var err error
	if d.Min, err = strconv.Atoi(strings.TrimSpace(args[0])); err != nil {
		return Dist{}, err
	}
	if d.Max, err = strconv.Atoi(strings.TrimSpace(args[1])); err != nil {
		return Dist{}, err
	}
	return d, nil
}

// ParseSchedule parses the String form back into a Schedule. "benign" (and
// the empty string) parse to nil.
func ParseSchedule(s string) (*Schedule, error) {
	s = strings.TrimSpace(s)
	if s == "" || s == "benign" {
		return nil, nil
	}
	out := &Schedule{}
	for _, part := range strings.Split(s, ";") {
		part = strings.TrimSpace(part)
		if part == "reorder" {
			out.Reorder = true
			continue
		}
		key, val, ok := strings.Cut(part, "=")
		if !ok {
			return nil, fmt.Errorf("simnet: schedule element %q wants key=value", part)
		}
		switch key {
		case "seed":
			v, err := strconv.ParseInt(val, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("simnet: schedule seed %q: %v", val, err)
			}
			out.Seed = v
		case "delay":
			f := strings.SplitN(val, ":", 3)
			if len(f) != 3 {
				return nil, fmt.Errorf("simnet: delay %q wants edge:window:dist", val)
			}
			from, to, ok := strings.Cut(f[0], "->")
			if !ok {
				return nil, fmt.Errorf("simnet: delay edge %q wants from->to", f[0])
			}
			var r DelayRule
			var err error
			if r.From, err = parseEndpoint(from); err != nil {
				return nil, fmt.Errorf("simnet: delay from %q: %v", from, err)
			}
			if r.To, err = parseEndpoint(to); err != nil {
				return nil, fmt.Errorf("simnet: delay to %q: %v", to, err)
			}
			if r.Start, r.End, err = parseWindow(f[1]); err != nil {
				return nil, fmt.Errorf("simnet: delay: %v", err)
			}
			if r.Dist, err = parseDist(f[2]); err != nil {
				return nil, fmt.Errorf("simnet: delay: %v", err)
			}
			out.Delays = append(out.Delays, r)
		case "partition":
			body, window, ok := strings.Cut(val, "]:")
			if !ok || !strings.HasPrefix(body, "[") {
				return nil, fmt.Errorf("simnet: partition %q wants [ids]:window", val)
			}
			var r PartitionRule
			for _, id := range strings.Fields(strings.TrimPrefix(body, "[")) {
				v, err := strconv.Atoi(id)
				if err != nil {
					return nil, fmt.Errorf("simnet: partition player %q: %v", id, err)
				}
				r.Isolated = append(r.Isolated, v)
			}
			var err error
			if r.Start, r.Heal, err = parseWindow(window); err != nil {
				return nil, fmt.Errorf("simnet: partition: %v", err)
			}
			out.Partitions = append(out.Partitions, r)
		case "crash":
			player, window, ok := strings.Cut(val, ":")
			if !ok || !strings.HasPrefix(player, "p") {
				return nil, fmt.Errorf("simnet: crash %q wants pID:window", val)
			}
			var r CrashRule
			var err error
			if r.Player, err = strconv.Atoi(strings.TrimPrefix(player, "p")); err != nil {
				return nil, fmt.Errorf("simnet: crash player %q: %v", player, err)
			}
			if r.Start, r.Recover, err = parseWindow(window); err != nil {
				return nil, fmt.Errorf("simnet: crash: %v", err)
			}
			out.Crashes = append(out.Crashes, r)
		default:
			return nil, fmt.Errorf("simnet: unknown schedule element %q", key)
		}
	}
	return out, nil
}

// ---------------------------------------------------------------------------
// Deterministic hashing: every sampled choice is a pure function of
// (seed, round, edge, copy), independent of goroutine scheduling.

// mix is a splitmix64 finalizer round.
func mix(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// hashFor combines the schedule seed with a message/edge coordinate.
func hashFor(seed int64, round, from, to, copyIdx int) uint64 {
	h := mix(uint64(seed))
	h = mix(h ^ uint64(round)<<1 ^ 0xd1)
	h = mix(h ^ uint64(from)<<1 ^ 0xf2)
	h = mix(h ^ uint64(to)<<1 ^ 0x3b)
	h = mix(h ^ uint64(copyIdx)<<1 ^ 0x87)
	return h
}

// windowHas reports whether round r lies in [start, end) with end ≤ 0 (or
// openEnd) meaning open.
func windowHas(r, start, end int) bool {
	if r < start {
		return false
	}
	return end <= 0 || end >= openEnd || r < end
}

// schedEngine is the per-network runtime of one Schedule. All methods are
// called with the owning network's lock held (in-memory transport) or from
// a single reader goroutine per edge (peer transport), so the only shared
// state is the immutable schedule plus the partition membership cache.
type schedEngine struct {
	s *Schedule
	n int
	// iso[i] caches, per partition rule, whether player i is isolated.
	iso [][]bool
}

// newSchedEngine builds the runtime, or returns nil for a zero schedule.
func newSchedEngine(s *Schedule, n int) *schedEngine {
	if s.IsZero() {
		return nil
	}
	en := &schedEngine{s: s, n: n}
	en.iso = make([][]bool, len(s.Partitions))
	for pi, p := range s.Partitions {
		en.iso[pi] = make([]bool, n)
		for _, pl := range p.Isolated {
			en.iso[pi][pl] = true
		}
	}
	return en
}

// fate decides what happens to the copyIdx-th copy staged on edge from→to
// in round r: drop, or deliver at boundary deliverAt ≥ r. The self-loop
// edge never crosses the network (a network-crashed player still talks to
// itself), so the schedule leaves it alone — which also keeps the
// in-memory enactment coherent with the peer transport, where self-copies
// are staged locally and never see the wire.
func (en *schedEngine) fate(r, from, to, copyIdx int) (deliverAt int, drop bool) {
	if from == to {
		return r, false
	}
	s := en.s
	for _, c := range s.Crashes {
		if c.Player != from && c.Player != to {
			continue
		}
		if windowHas(r, c.Start, c.Recover) {
			return 0, true
		}
	}
	deliverAt = r
	for pi, p := range s.Partitions {
		if windowHas(r, p.Start, p.Heal) && en.iso[pi][from] != en.iso[pi][to] && p.Heal > deliverAt {
			deliverAt = p.Heal
		}
	}
	for _, d := range s.Delays {
		if d.From != Wildcard && d.From != from {
			continue
		}
		if d.To != Wildcard && d.To != to {
			continue
		}
		if !windowHas(r, d.Start, d.End) {
			continue
		}
		deliverAt += d.Dist.sample(hashFor(s.Seed, r, from, to, copyIdx))
		break // first matching delay rule wins
	}
	return deliverAt, false
}

// edgeDead reports whether a crash or partition window kills edge from→to
// at round r outright (the peer transport's enactment of those rules).
func (en *schedEngine) edgeDead(r, from, to int) bool {
	for _, c := range en.s.Crashes {
		if (c.Player == from || c.Player == to) && windowHas(r, c.Start, c.Recover) {
			return true
		}
	}
	for pi, p := range en.s.Partitions {
		if windowHas(r, p.Start, p.Heal) && en.iso[pi][from] != en.iso[pi][to] {
			return true
		}
	}
	return false
}

// delayRounds samples the wall-clock hold (in round units) the peer
// transport applies to from's round-r done frame arriving at to.
func (en *schedEngine) delayRounds(r, from, to int) int {
	s := en.s
	for _, d := range s.Delays {
		if d.From != Wildcard && d.From != from {
			continue
		}
		if d.To != Wildcard && d.To != to {
			continue
		}
		if !windowHas(r, d.Start, d.End) {
			continue
		}
		return d.Dist.sample(hashFor(s.Seed, r, from, to, 0))
	}
	return 0
}

// reorder block-permutes msgs (already in canonical (From, seq) order) by
// a per-(round, recipient) pseudorandom sender rank, preserving each
// sender's internal order. The permutation is a pure function of
// (seed, round, to).
func (en *schedEngine) reorder(round, to int, msgs []Message) []Message {
	if !en.s.Reorder || len(msgs) < 2 {
		return msgs
	}
	rank := func(from int) uint64 { return hashFor(en.s.Seed, round, from, to, 1<<20) }
	sort.SliceStable(msgs, func(a, b int) bool {
		ra, rb := rank(msgs[a].From), rank(msgs[b].From)
		if ra != rb {
			return ra < rb
		}
		return msgs[a].From < msgs[b].From // hash-collision tiebreak, still deterministic
	})
	return msgs
}

// ---------------------------------------------------------------------------
// Budget-aware sampling: hostile schedules the paper's guarantees must
// survive.

// SampleSchedule derives a random hostile schedule for an n-player network
// from a schedule seed. Disturbance is confined to the `victims` set — the
// players the caller can afford to charge against the fault budget
// (typically t − |corrupt| honest players, excluding any whose exact
// outcome the caller's assertions pin). With no victims the schedule
// still exercises within-round reordering, which every protocol must
// tolerate without any budget charge. The result always satisfies
// Disturbed(n) ⊆ victims and Validate(n).
func SampleSchedule(seed int64, n int, victims []int) *Schedule {
	rng := rand.New(rand.NewSource(seed ^ 0x5eedface))
	s := &Schedule{Seed: seed, Reorder: true}
	// Protocol runs in this repo finish within a few dozen rounds; windows
	// beyond that would sample to no-ops, so keep the action early.
	const horizon = 48
	window := func(minLen, maxLen int) (int, int) {
		start := rng.Intn(horizon)
		length := minLen + rng.Intn(maxLen-minLen+1)
		return start, start + length
	}
	for _, v := range victims {
		// Every victim gets at least one disturbance; which kind is a
		// seeded choice.
		kinds := 1 + rng.Intn(2)
		for k := 0; k < kinds; k++ {
			switch rng.Intn(3) {
			case 0: // outgoing jitter toward everyone
				dist := Dist{Kind: DistKind(1 + rng.Intn(3)), Min: 1 + rng.Intn(2)}
				dist.Max = dist.Min + rng.Intn(3)
				if dist.Kind == DistFixed {
					dist.Max = 0
				}
				start, end := window(4, 24)
				s.Delays = append(s.Delays, DelayRule{From: v, To: Wildcard, Start: start, End: end, Dist: dist})
			case 1: // crash with recovery
				start, end := window(2, 8)
				s.Crashes = append(s.Crashes, CrashRule{Player: v, Start: start, Recover: end})
			case 2: // jitter toward a single random recipient
				to := rng.Intn(n)
				if to == v {
					to = (to + 1) % n
				}
				dist := Dist{Kind: DistUniform, Min: 1, Max: 2 + rng.Intn(3)}
				start, end := window(6, 32)
				s.Delays = append(s.Delays, DelayRule{From: v, To: to, Start: start, End: end, Dist: dist})
			}
		}
	}
	// One partition isolating a random non-empty victim subset, sometimes.
	if len(victims) > 0 && rng.Intn(2) == 0 {
		iso := append([]int(nil), victims...)
		rng.Shuffle(len(iso), func(i, j int) { iso[i], iso[j] = iso[j], iso[i] })
		iso = iso[:1+rng.Intn(len(iso))]
		sort.Ints(iso)
		start, heal := window(2, 6)
		s.Partitions = append(s.Partitions, PartitionRule{Isolated: iso, Start: start, Heal: heal})
	}
	return s
}
