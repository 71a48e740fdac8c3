package simnet

import (
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// chatter runs a fixed n-player protocol for `rounds` rounds — every player
// sends a round-and-sender-stamped payload to every other player each round
// — and returns, per player, the flattened (round, From, payload) delivery
// transcript. It is the workload for schedule-semantics tests: any drop,
// shift or reorder the engine applies is visible in the transcript.
func chatter(nw *Network, rounds int) [][]string {
	n := nw.N()
	out := make([][]string, n)
	fns := make([]PlayerFunc, n)
	for i := 0; i < n; i++ {
		fns[i] = func(nd *Node) (interface{}, error) {
			var lines []string
			for r := 0; r < rounds; r++ {
				nd.SendAll([]byte(fmt.Sprintf("r%d-p%d", r, nd.Index())))
				msgs, err := nd.EndRound()
				if err != nil {
					return nil, err
				}
				for _, m := range msgs {
					lines = append(lines, fmt.Sprintf("@%d from%d:%s", r, m.From, m.Payload))
				}
			}
			return lines, nil
		}
	}
	results := Run(nw, fns)
	for i, r := range results {
		if r.Err != nil {
			panic(fmt.Sprintf("chatter player %d: %v", i, r.Err))
		}
		if r.Value != nil {
			out[i] = r.Value.([]string)
		}
	}
	return out
}

func TestScheduleZeroChange(t *testing.T) {
	// Installing a nil or zero schedule must be byte-identical to not
	// installing one: same transcripts, no engine.
	base := chatter(New(4), 6)
	for name, opt := range map[string]Option{
		"nil":  WithSchedule(nil),
		"zero": WithSchedule(&Schedule{Seed: 42}),
	} {
		nw := New(4, opt)
		if nw.eng != nil {
			t.Fatalf("%s schedule built an engine", name)
		}
		if got := chatter(nw, 6); !reflect.DeepEqual(got, base) {
			t.Fatalf("%s schedule changed delivery: %v vs %v", name, got, base)
		}
	}
}

func TestScheduleFixedDelayShiftsDelivery(t *testing.T) {
	// Delay 0→1 by exactly 2 rounds during rounds [0,2): those payloads
	// arrive at the boundary of round staged+2; everything else is on time.
	s := &Schedule{Seed: 1, Delays: []DelayRule{{
		From: 0, To: 1, Start: 0, End: 2, Dist: Dist{Kind: DistFixed, Min: 2},
	}}}
	got := chatter(New(3, WithSchedule(s)), 6)

	wantAt := func(lines []string, frag string) int {
		for _, l := range lines {
			if strings.Contains(l, frag) {
				at := 0
				fmt.Sscanf(l, "@%d", &at)
				return at
			}
		}
		return -1
	}
	// Player 1's copies of p0's rounds 0 and 1 arrive two boundaries late.
	if at := wantAt(got[1], "from0:r0-p0"); at != 2 {
		t.Fatalf("p1 got p0 round-0 payload at boundary %d, want 2", at)
	}
	if at := wantAt(got[1], "from0:r1-p0"); at != 3 {
		t.Fatalf("p1 got p0 round-1 payload at boundary %d, want 3", at)
	}
	// Outside the window, and on the untouched 0→2 edge, delivery is on time.
	if at := wantAt(got[1], "from0:r2-p0"); at != 2 {
		t.Fatalf("p1 got p0 round-2 payload at boundary %d, want 2", at)
	}
	if at := wantAt(got[2], "from0:r0-p0"); at != 0 {
		t.Fatalf("p2 got p0 round-0 payload at boundary %d, want 0", at)
	}
	// FIFO preserved on the delayed edge: the round-0 payload precedes the
	// round-1 payload even though both are late.
	i0, i1 := -1, -1
	for i, l := range got[1] {
		if strings.Contains(l, "from0:r0-p0") {
			i0 = i
		}
		if strings.Contains(l, "from0:r1-p0") {
			i1 = i
		}
	}
	if i0 == -1 || i1 == -1 || i0 > i1 {
		t.Fatalf("delayed edge lost FIFO order: r0 at %d, r1 at %d", i0, i1)
	}
}

func TestScheduleCrashDropsBothDirections(t *testing.T) {
	// Crash player 1 during rounds [1,3): everything from or to it in that
	// window vanishes; traffic before and after flows.
	s := &Schedule{Seed: 9, Crashes: []CrashRule{{Player: 1, Start: 1, Recover: 3}}}
	got := chatter(New(3, WithSchedule(s)), 5)

	has := func(lines []string, frag string) bool {
		for _, l := range lines {
			if strings.Contains(l, frag) {
				return true
			}
		}
		return false
	}
	for r := 0; r < 5; r++ {
		inWindow := r >= 1 && r < 3
		if has(got[0], fmt.Sprintf("from1:r%d-p1", r)) == inWindow {
			t.Fatalf("p0 seeing p1 round-%d traffic = %v, crash window = %v", r, !inWindow, inWindow)
		}
		if has(got[1], fmt.Sprintf("from0:r%d-p0", r)) == inWindow {
			t.Fatalf("p1 seeing p0 round-%d traffic = %v, crash window = %v", r, !inWindow, inWindow)
		}
		// The 0↔2 edge never involves the crashed player.
		if !has(got[2], fmt.Sprintf("from0:r%d-p0", r)) {
			t.Fatalf("p2 lost p0 round-%d traffic to an unrelated crash", r)
		}
	}
}

func TestSchedulePartitionDefersToHeal(t *testing.T) {
	// Partition {0} from {1,2} during [1,3): cross-cut traffic staged in the
	// window arrives at the boundary of round 3 (the heal), in FIFO order;
	// intra-side traffic is untouched.
	s := &Schedule{Seed: 5, Partitions: []PartitionRule{{Isolated: []int{0}, Start: 1, Heal: 3}}}
	got := chatter(New(3, WithSchedule(s)), 6)

	at := func(lines []string, frag string) int {
		for _, l := range lines {
			if strings.Contains(l, frag) {
				v := -1
				fmt.Sscanf(l, "@%d", &v)
				return v
			}
		}
		return -1
	}
	for r := 1; r < 3; r++ {
		if got := at(got[1], fmt.Sprintf("from0:r%d-p0", r)); got != 3 {
			t.Fatalf("cross-cut round-%d payload arrived at boundary %d, want heal boundary 3", r, got)
		}
		if got := at(got[0], fmt.Sprintf("from2:r%d-p2", r)); got != 3 {
			t.Fatalf("reverse cross-cut round-%d payload arrived at %d, want 3", r, got)
		}
		if got := at(got[2], fmt.Sprintf("from1:r%d-p1", r)); got != r {
			t.Fatalf("intra-side round-%d payload arrived at %d, want %d", r, got, r)
		}
	}
	if got := at(got[1], "from0:r3-p0"); got != 3 {
		t.Fatalf("post-heal payload arrived at %d, want 3", got)
	}
}

func TestScheduleReorderPreservesPerSenderFIFO(t *testing.T) {
	// Reorder permutes cross-sender merge order but never a single sender's
	// emission order. Each sender emits two messages per round.
	nw := New(4, WithSchedule(&Schedule{Seed: 77, Reorder: true}))
	n := nw.N()
	fns := make([]PlayerFunc, n)
	type rec struct{ order [][]int } // per round, sequence of From values
	recs := make([]rec, n)
	for i := 0; i < n; i++ {
		fns[i] = func(nd *Node) (interface{}, error) {
			for r := 0; r < 4; r++ {
				nd.SendAll([]byte{byte(r), 0})
				nd.SendAll([]byte{byte(r), 1})
				msgs, err := nd.EndRound()
				if err != nil {
					return nil, err
				}
				var froms []int
				seen := map[int]byte{}
				for _, m := range msgs {
					froms = append(froms, m.From)
					// Second copy from a sender must carry the higher tag.
					if prev, ok := seen[m.From]; ok && prev >= m.Payload[1] {
						return nil, fmt.Errorf("sender %d FIFO violated in round %d", m.From, r)
					}
					seen[m.From] = m.Payload[1]
				}
				recs[i].order = append(recs[i].order, froms)
			}
			return nil, nil
		}
	}
	for _, res := range Run(nw, fns) {
		if res.Err != nil {
			t.Fatal(res.Err)
		}
	}
	// The permutation must actually differ from canonical order somewhere —
	// otherwise Reorder is a no-op and the test is vacuous.
	shuffled := false
	for _, rc := range recs {
		for _, froms := range rc.order {
			if !sortedInts(froms) {
				shuffled = true
			}
		}
	}
	if !shuffled {
		t.Fatal("Reorder never permuted any delivery (seed degenerate or engine inert)")
	}
}

func sortedInts(v []int) bool {
	for i := 1; i < len(v); i++ {
		if v[i-1] > v[i] {
			return false
		}
	}
	return true
}

func TestScheduleDeterministicAcrossRuns(t *testing.T) {
	// The same schedule replays byte-identically run to run.
	s := &Schedule{
		Seed:    31337,
		Reorder: true,
		Delays: []DelayRule{
			{From: 0, To: Wildcard, Start: 0, End: 8, Dist: Dist{Kind: DistUniform, Min: 0, Max: 2}},
			{From: 2, To: 1, Start: 2, End: 6, Dist: Dist{Kind: DistHeavyTail, Min: 0, Max: 4}},
		},
		Partitions: []PartitionRule{{Isolated: []int{3}, Start: 1, Heal: 3}},
		Crashes:    []CrashRule{{Player: 1, Start: 4, Recover: 5}},
	}
	mem1 := chatter(New(4, WithSchedule(s)), 8)
	mem2 := chatter(New(4, WithSchedule(s)), 8)
	if !reflect.DeepEqual(mem1, mem2) {
		t.Fatal("same schedule, two in-memory runs differ")
	}
}

func TestScheduleStringRoundTrip(t *testing.T) {
	cases := []*Schedule{
		nil,
		{Seed: 7, Reorder: true},
		{
			Seed:    -3,
			Reorder: true,
			Delays: []DelayRule{
				{From: 0, To: Wildcard, Start: 0, End: 8, Dist: Dist{Kind: DistFixed, Min: 2}},
				{From: Wildcard, To: 3, Start: 4, End: openEnd, Dist: Dist{Kind: DistUniform, Min: 1, Max: 5}},
				{From: 2, To: 1, Start: 0, End: 0, Dist: Dist{Kind: DistHeavyTail, Min: 0, Max: 9}},
			},
			Partitions: []PartitionRule{{Isolated: []int{1, 4}, Start: 2, Heal: 6}},
			Crashes:    []CrashRule{{Player: 2, Start: 0, Recover: 4}},
		},
	}
	for _, s := range cases {
		text := s.String()
		back, err := ParseSchedule(text)
		if err != nil {
			t.Fatalf("ParseSchedule(%q): %v", text, err)
		}
		// Open-ended windows normalize (0 and openEnd both mean open), so
		// compare the re-rendered form.
		if back.String() != text {
			t.Fatalf("round-trip drift: %q → %q", text, back.String())
		}
		if s != nil {
			if len(back.Delays) != len(s.Delays) || len(back.Partitions) != len(s.Partitions) ||
				len(back.Crashes) != len(s.Crashes) || back.Seed != s.Seed || back.Reorder != s.Reorder {
				t.Fatalf("round-trip lost rules: %q → %+v", text, back)
			}
		}
	}
	for _, bad := range []string{
		"seed=x", "delay=0->1:r0-4", "delay=0>1:r0-4:fixed(1)", "crash=2:r0-4",
		"partition=[1:r0-4", "wat=1", "delay=0->1:r0-4:gauss(1,2)", "delay=0->1:0-4:fixed(1)",
	} {
		if _, err := ParseSchedule(bad); err == nil {
			t.Fatalf("ParseSchedule(%q) accepted garbage", bad)
		}
	}
}

// FuzzParseSchedule: a schedule string comes from a bug report or a flag;
// parsing one must never panic, and whatever parses must survive
// ParseSchedule(s.String()) unchanged — up to how an open window is spelled
// (an end ≤ 0 or ≥ openEnd renders "rN-" and parses back as openEnd).
func FuzzParseSchedule(f *testing.F) {
	for _, seed := range []string{
		"benign", "", "seed=7;reorder;delay=3->*:r0-:uniform(1,3);partition=[1 4]:r2-6;crash=p2:r0-4",
		"seed=-3;delay=*->3:r4-9:heavytail(0,9);delay=0->*:r0-8:fixed(2)", "reorder;reorder;seed=1;seed=2",
		"partition=[]:r0-1", "crash=p-1:r3-0", "delay=-1->+2:r+1--5:uniform( 1 , 2 )", "seed=x", "wat=1",
		"delay=0->1:r0-4", "partition=[1:r0-4", "crash=p1:r0-99999999999", " seed=5 ; reorder ",
	} {
		f.Add(seed)
	}
	openEnds := func(s *Schedule) *Schedule {
		if s == nil {
			return nil
		}
		c := *s
		norm := func(end int) int {
			if end <= 0 || end >= openEnd {
				return openEnd
			}
			return end
		}
		c.Delays = slices.Clone(s.Delays)
		for i := range c.Delays {
			c.Delays[i].End = norm(c.Delays[i].End)
		}
		c.Partitions = slices.Clone(s.Partitions)
		for i := range c.Partitions {
			c.Partitions[i].Heal = norm(c.Partitions[i].Heal)
		}
		c.Crashes = slices.Clone(s.Crashes)
		for i := range c.Crashes {
			c.Crashes[i].Recover = norm(c.Crashes[i].Recover)
		}
		return &c
	}
	f.Fuzz(func(t *testing.T, in string) {
		s, err := ParseSchedule(in)
		if err != nil {
			return
		}
		text := s.String()
		back, err := ParseSchedule(text)
		if err != nil {
			t.Fatalf("%q parsed, but its rendering %q does not: %v", in, text, err)
		}
		if !reflect.DeepEqual(back, openEnds(s)) {
			t.Fatalf("%q → %+v renders as %q, which parses to %+v", in, s, text, back)
		}
	})
}

func TestScheduleValidate(t *testing.T) {
	for name, s := range map[string]*Schedule{
		"edge-oob":       {Delays: []DelayRule{{From: 5, To: 0, Dist: Dist{Kind: DistFixed, Min: 1}}}},
		"bad-dist":       {Delays: []DelayRule{{From: 0, To: 1, Dist: Dist{Kind: DistKind(9), Min: 1}}}},
		"neg-min":        {Delays: []DelayRule{{From: 0, To: 1, Dist: Dist{Kind: DistUniform, Min: -1, Max: 2}}}},
		"empty-isolated": {Partitions: []PartitionRule{{Start: 0, Heal: 2}}},
		"full-isolated":  {Partitions: []PartitionRule{{Isolated: []int{0, 1, 2, 3}, Start: 0, Heal: 2}}},
		"dup-isolated":   {Partitions: []PartitionRule{{Isolated: []int{1, 1}, Start: 0, Heal: 2}}},
		"inverted":       {Partitions: []PartitionRule{{Isolated: []int{1}, Start: 3, Heal: 3}}},
		"crash-oob":      {Crashes: []CrashRule{{Player: -1, Start: 0, Recover: 1}}},
		"crash-empty":    {Crashes: []CrashRule{{Player: 0, Start: 2, Recover: 2}}},
	} {
		if err := s.Validate(4); err == nil {
			t.Errorf("%s: Validate accepted %v", name, s)
		}
	}
	ok := &Schedule{
		Seed:       1,
		Delays:     []DelayRule{{From: Wildcard, To: Wildcard, Start: 0, Dist: Dist{Kind: DistUniform, Min: 0, Max: 3}}},
		Partitions: []PartitionRule{{Isolated: []int{0, 2}, Start: 1, Heal: 4}},
		Crashes:    []CrashRule{{Player: 3, Start: 0, Recover: 9}},
	}
	if err := ok.Validate(4); err != nil {
		t.Fatalf("Validate rejected a good schedule: %v", err)
	}
	if err := (*Schedule)(nil).Validate(4); err != nil {
		t.Fatalf("nil schedule must validate: %v", err)
	}
}

func TestScheduleDisturbedAndMaxDelay(t *testing.T) {
	s := &Schedule{
		Delays: []DelayRule{
			{From: 1, To: Wildcard, Dist: Dist{Kind: DistUniform, Min: 1, Max: 4}},
			{From: 2, To: 0, Dist: Dist{Kind: DistFixed, Min: 6}},
		},
		Partitions: []PartitionRule{{Isolated: []int{3}, Start: 0, Heal: 2}},
		Crashes:    []CrashRule{{Player: 0, Start: 1, Recover: 2}},
	}
	if got := s.Disturbed(5); !reflect.DeepEqual(got, []int{0, 1, 2, 3}) {
		t.Fatalf("Disturbed = %v, want [0 1 2 3]", got)
	}
	if got := s.MaxDelay(); got != 6 {
		t.Fatalf("MaxDelay = %d, want 6", got)
	}
	wild := &Schedule{Delays: []DelayRule{{From: Wildcard, To: Wildcard, Dist: Dist{Kind: DistFixed, Min: 1}}}}
	if got := wild.Disturbed(3); !reflect.DeepEqual(got, []int{0, 1, 2}) {
		t.Fatalf("wildcard Disturbed = %v, want everyone", got)
	}
	if got := (*Schedule)(nil).Disturbed(4); got != nil {
		t.Fatalf("nil Disturbed = %v", got)
	}
}

func TestScheduleWithoutRule(t *testing.T) {
	s := &Schedule{
		Seed:       3,
		Reorder:    true,
		Delays:     []DelayRule{{From: 0, To: 1, Dist: Dist{Kind: DistFixed, Min: 1}}},
		Partitions: []PartitionRule{{Isolated: []int{1}, Start: 0, Heal: 2}},
		Crashes:    []CrashRule{{Player: 2, Start: 0, Recover: 1}},
	}
	if s.RuleCount() != 4 {
		t.Fatalf("RuleCount = %d, want 4", s.RuleCount())
	}
	for i := 0; i < s.RuleCount(); i++ {
		c := s.WithoutRule(i)
		if c.RuleCount() != 3 {
			t.Fatalf("WithoutRule(%d).RuleCount = %d, want 3", i, c.RuleCount())
		}
	}
	// Removal must not alias the original.
	c := s.WithoutRule(0)
	if len(s.Delays) != 1 {
		t.Fatal("WithoutRule mutated the original")
	}
	c.Partitions[0].Isolated[0] = 99
	if s.Partitions[0].Isolated[0] != 1 {
		t.Fatal("WithoutRule shares Isolated backing array with the original")
	}
}

func TestSampleScheduleRespectsVictims(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		victims := []int{1, 4}
		s := SampleSchedule(seed, 7, victims)
		if err := s.Validate(7); err != nil {
			t.Fatalf("seed %d: sampled schedule invalid: %v", seed, err)
		}
		allowed := map[int]bool{1: true, 4: true}
		for _, d := range s.Disturbed(7) {
			if !allowed[d] {
				t.Fatalf("seed %d: schedule disturbs %d outside victims %v: %s", seed, d, victims, s)
			}
		}
		if !s.Reorder {
			t.Fatalf("seed %d: sampled schedule must always reorder", seed)
		}
	}
	// No victims → reorder-only schedule, still valid, disturbing nobody.
	s := SampleSchedule(11, 4, nil)
	if err := s.Validate(4); err != nil {
		t.Fatal(err)
	}
	if d := s.Disturbed(4); len(d) != 0 {
		t.Fatalf("victimless schedule disturbs %v", d)
	}
}

func TestScheduleSelfLoopUntouched(t *testing.T) {
	// A player sending to itself is intra-process traffic: crash windows and
	// wildcard delays must leave it alone.
	s := &Schedule{
		Seed:    2,
		Delays:  []DelayRule{{From: Wildcard, To: Wildcard, Start: 0, Dist: Dist{Kind: DistFixed, Min: 3}}},
		Crashes: []CrashRule{{Player: 0, Start: 0, Recover: 10}},
	}
	nw := New(2, WithSchedule(s))
	res := Run(nw, []PlayerFunc{
		func(nd *Node) (interface{}, error) {
			nd.Send(0, []byte("self"))
			msgs, err := nd.EndRound()
			if err != nil {
				return nil, err
			}
			return len(msgs), nil
		},
		func(nd *Node) (interface{}, error) {
			_, err := nd.EndRound()
			return nil, err
		},
	})
	for i, r := range res {
		if r.Err != nil {
			t.Fatalf("player %d: %v", i, r.Err)
		}
	}
	if got := res[0].Value.(int); got != 1 {
		t.Fatalf("self-delivery under crash+delay = %d messages, want 1", got)
	}
}
