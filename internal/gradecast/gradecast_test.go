package gradecast

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/simnet"
)

// runSingle drives a one-dealer grade-cast: every honest player runs RunAll,
// the dealer casting value and everybody else nil, and reports its output
// for the dealer's instance. faulty maps a player index to alternative
// behaviour.
func runSingle(t *testing.T, n, tf, dealer int, value []byte, faulty map[int]simnet.PlayerFunc) []simnet.PlayerResult {
	t.Helper()
	nw := simnet.New(n)
	fns := make([]simnet.PlayerFunc, n)
	for i := 0; i < n; i++ {
		if f, ok := faulty[i]; ok {
			fns[i] = f
			continue
		}
		fns[i] = func(nd *simnet.Node) (interface{}, error) {
			var v []byte
			if nd.Index() == dealer {
				v = value
			}
			outs, err := RunAll(nd, tf, v)
			if err != nil {
				return nil, err
			}
			return outs[dealer], nil
		}
	}
	return simnet.Run(nw, fns)
}

func TestHonestDealerAllConfidence2(t *testing.T) {
	for _, tc := range []struct{ n, t int }{{4, 1}, {7, 2}, {10, 3}} {
		results := runSingle(t, tc.n, tc.t, 0, []byte("hello"), nil)
		for i, r := range results {
			if r.Err != nil {
				t.Fatalf("n=%d player %d: %v", tc.n, i, r.Err)
			}
			out := r.Value.(Output)
			if out.Confidence != 2 || string(out.Value) != "hello" {
				t.Fatalf("n=%d player %d: output %+v, want (hello, 2)", tc.n, i, out)
			}
		}
	}
}

// equivocatingDealer sends different values to each half of the players in
// round 1, echoes a third split of its own instance in round 2 and is silent
// in round 3.
func equivocatingDealer() simnet.PlayerFunc {
	return func(nd *simnet.Node) (interface{}, error) {
		n := nd.N()
		for i := 0; i < n; i++ {
			if i == nd.Index() {
				continue
			}
			nd.Send(i, []byte{byte(i % 2)})
		}
		if _, err := nd.EndRound(); err != nil {
			return nil, err
		}
		// Round 2: a well-formed echo frame whose value depends on the receiver.
		for i := 0; i < n; i++ {
			if i == nd.Index() {
				continue
			}
			echo := make([][]byte, n)
			echo[nd.Index()] = []byte{byte(i % 3)}
			nd.Send(i, encodeInstanceValues(echo))
		}
		if _, err := nd.EndRound(); err != nil {
			return nil, err
		}
		if _, err := nd.EndRound(); err != nil { // silent in round 3
			return nil, err
		}
		return Output{}, nil
	}
}

func TestEquivocatingDealerGradedAgreement(t *testing.T) {
	// Properties 2 and 3 must hold even when the dealer equivocates:
	// if anyone has confidence 2 all have ≥ 1, and all confident values agree.
	for trial := 0; trial < 5; trial++ {
		n, tf := 7, 2
		faulty := map[int]simnet.PlayerFunc{0: equivocatingDealer()}
		results := runSingle(t, n, tf, 0, nil, faulty)
		checkGradedConsistency(t, results, map[int]bool{0: true})
	}
}

func checkGradedConsistency(t *testing.T, results []simnet.PlayerResult, faulty map[int]bool) {
	t.Helper()
	var confident [][]byte
	any2 := false
	all1 := true
	for i, r := range results {
		if faulty[i] {
			continue
		}
		if r.Err != nil {
			t.Fatalf("player %d: %v", i, r.Err)
		}
		out := r.Value.(Output)
		if out.Confidence >= 1 {
			confident = append(confident, out.Value)
		} else {
			all1 = false
		}
		if out.Confidence == 2 {
			any2 = true
		}
	}
	for i := 1; i < len(confident); i++ {
		if !bytes.Equal(confident[i], confident[0]) {
			t.Fatalf("confident players disagree: %q vs %q", confident[0], confident[i])
		}
	}
	if any2 && !all1 {
		t.Fatal("a player has confidence 2 but another honest player has confidence 0")
	}
}

func TestSilentDealerConfidence0(t *testing.T) {
	n, tf := 7, 2
	faulty := map[int]simnet.PlayerFunc{
		3: func(nd *simnet.Node) (interface{}, error) {
			for r := 0; r < 3; r++ {
				if _, err := nd.EndRound(); err != nil {
					return nil, err
				}
			}
			return Output{}, nil
		},
	}
	results := runSingle(t, n, tf, 3, nil, faulty)
	for i, r := range results {
		if i == 3 {
			continue
		}
		out := r.Value.(Output)
		if out.Confidence != 0 {
			t.Fatalf("player %d: confidence %d for silent dealer, want 0", i, out.Confidence)
		}
	}
}

func TestRunAllHonest(t *testing.T) {
	n, tf := 7, 2
	nw := simnet.New(n)
	fns := make([]simnet.PlayerFunc, n)
	for i := 0; i < n; i++ {
		fns[i] = func(nd *simnet.Node) (interface{}, error) {
			return RunAll(nd, tf, []byte(fmt.Sprintf("value-%d", nd.Index())))
		}
	}
	results := simnet.Run(nw, fns)
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("player %d: %v", i, r.Err)
		}
		outs := r.Value.([]Output)
		if len(outs) != n {
			t.Fatalf("player %d: %d outputs", i, len(outs))
		}
		for d, out := range outs {
			want := fmt.Sprintf("value-%d", d)
			if out.Confidence != 2 || string(out.Value) != want {
				t.Fatalf("player %d instance %d: %+v, want (%s, 2)", i, d, out, want)
			}
		}
	}
}

func TestRunAllUsesThreeRounds(t *testing.T) {
	n, tf := 4, 1
	nw := simnet.New(n)
	fns := make([]simnet.PlayerFunc, n)
	for i := 0; i < n; i++ {
		fns[i] = func(nd *simnet.Node) (interface{}, error) {
			if _, err := RunAll(nd, tf, []byte{1}); err != nil {
				return nil, err
			}
			return nd.Round(), nil
		}
	}
	for i, r := range simnet.Run(nw, fns) {
		if r.Err != nil {
			t.Fatalf("player %d: %v", i, r.Err)
		}
		if r.Value.(int) != 3 {
			t.Fatalf("player %d consumed %v rounds, want 3", i, r.Value)
		}
	}
}

func TestRunAllWithByzantineDealers(t *testing.T) {
	// t players equivocate across all instances; honest instances must still
	// come out with confidence 2, and the graded-consistency property must
	// hold per instance.
	n, tf := 10, 3
	for trial := 0; trial < 5; trial++ {
		nw := simnet.New(n)
		fns := make([]simnet.PlayerFunc, n)
		faulty := map[int]bool{1: true, 4: true, 8: true}
		for i := 0; i < n; i++ {
			if faulty[i] {
				rng := rand.New(rand.NewSource(int64(5 + trial*100 + i)))
				fns[i] = func(nd *simnet.Node) (interface{}, error) {
					// Random garbage in every round, different per receiver.
					for r := 0; r < 3; r++ {
						for j := 0; j < n; j++ {
							if j == nd.Index() {
								continue
							}
							junk := make([]byte, rng.Intn(20))
							rng.Read(junk)
							nd.Send(j, junk)
						}
						if _, err := nd.EndRound(); err != nil {
							return nil, err
						}
					}
					return []Output(nil), nil
				}
				continue
			}
			fns[i] = func(nd *simnet.Node) (interface{}, error) {
				return RunAll(nd, tf, []byte{byte(nd.Index()), 0xaa})
			}
		}
		results := simnet.Run(nw, fns)
		for d := 0; d < n; d++ {
			var confident [][]byte
			for i, r := range results {
				if faulty[i] {
					continue
				}
				if r.Err != nil {
					t.Fatalf("player %d: %v", i, r.Err)
				}
				out := r.Value.([]Output)[d]
				if !faulty[d] {
					want := []byte{byte(d), 0xaa}
					if out.Confidence != 2 || !bytes.Equal(out.Value, want) {
						t.Fatalf("honest dealer %d at player %d: %+v", d, i, out)
					}
				}
				if out.Confidence >= 1 {
					confident = append(confident, out.Value)
				}
			}
			for i := 1; i < len(confident); i++ {
				if !bytes.Equal(confident[i], confident[0]) {
					t.Fatalf("instance %d: confident values disagree", d)
				}
			}
		}
	}
}

func TestParameterValidation(t *testing.T) {
	nw := simnet.New(3) // too small for t=1 (needs 4)
	fns := make([]simnet.PlayerFunc, 3)
	for i := range fns {
		fns[i] = func(nd *simnet.Node) (interface{}, error) {
			if _, err := RunAll(nd, 1, []byte{1}); err == nil {
				return nil, fmt.Errorf("RunAll accepted n=3, t=1")
			}
			if _, err := RunAll(nd, 1, nil); err == nil {
				return nil, fmt.Errorf("RunAll accepted n=3, t=1 from a non-dealer")
			}
			return nil, nil
		}
	}
	for i, r := range simnet.Run(nw, fns) {
		if r.Err != nil {
			t.Fatalf("player %d: %v", i, r.Err)
		}
	}
}

func TestEncodeDecodeInstanceValues(t *testing.T) {
	vals := make([][]byte, 5)
	vals[0] = []byte("abc")
	vals[3] = []byte{}
	vals[4] = []byte{1, 2, 3, 4}
	dec := make([][]byte, 5)
	if err := decodeInstanceValues(dec, encodeInstanceValues(vals)); err != nil {
		t.Fatal(err)
	}
	for i := range vals {
		if (vals[i] == nil) != (dec[i] == nil) {
			t.Fatalf("index %d: presence mismatch", i)
		}
		if !bytes.Equal(vals[i], dec[i]) {
			t.Fatalf("index %d: %v != %v", i, dec[i], vals[i])
		}
	}
}

func TestDecodeInstanceValuesRejectsMalformed(t *testing.T) {
	cases := [][]byte{
		{0x01},                            // truncated header
		{0x09, 0x00, 0x01, 0, 0, 0, 0xff}, // instance 9 ≥ n
		{0x01, 0x00, 0xff, 0, 0, 0},       // length longer than body
		append(encodeInstanceValues([][]byte{{1}}), encodeInstanceValues([][]byte{{2}})...), // duplicate instance
	}
	for i, c := range cases {
		if err := decodeInstanceValues(make([][]byte, 5), c); err == nil {
			t.Errorf("case %d: malformed frame accepted", i)
		}
	}
}

// pluralityCases are TestPlurality's rows and FuzzPlurality's seeds.
var pluralityCases = []struct {
	name string
	vals [][]byte
	want []byte // nil when cnt is 0
	cnt  int
}{
	{"majority", [][]byte{[]byte("a"), []byte("b"), []byte("a"), nil}, []byte("a"), 2},
	{"no values", nil, nil, 0},
	{"all nil", [][]byte{nil, nil, nil}, nil, 0},
	{"single class", [][]byte{[]byte("ab"), []byte("ab"), []byte("ab")}, []byte("ab"), 3},
	// Ties go to the smallest value by bytes.Compare, whatever the order.
	{"tie", [][]byte{[]byte("b"), []byte("a")}, []byte("a"), 1},
	{"tie of pairs", [][]byte{[]byte("c"), []byte("b"), nil, []byte("c"), []byte("b")}, []byte("b"), 2},
	{"tie with a prefix", [][]byte{[]byte("ab"), []byte("a")}, []byte("a"), 1},
	// A present empty value is a value, and the smallest one; nil is none.
	{"empty beats nil", [][]byte{nil, {}, nil}, []byte{}, 1},
	{"empty wins a tie", [][]byte{[]byte("a"), {}}, []byte{}, 1},
	{"empty loses a count", [][]byte{{}, []byte("a"), []byte("a")}, []byte("a"), 2},
}

func TestPlurality(t *testing.T) {
	for _, c := range pluralityCases {
		v, cnt := plurality(c.vals)
		if cnt != c.cnt || !bytes.Equal(v, c.want) || (v == nil) != (c.want == nil) {
			t.Errorf("%s: plurality = (%q, %d), want (%q, %d)", c.name, v, cnt, c.want, c.cnt)
		}
	}
}

// TestTallyFirstMessagePerSender pins how rounds 2 and 3 read a round: a
// sender's first message is its only one, a malformed first message voids
// the sender, a player's own echo counts exactly once and an instance a
// sender left out of its frame is not seen. n = 4 and t = 1, so a value
// needs 3 round-2 echoes for support, and 3 (2) round-3 votes for
// confidence 2 (1). Player 3 deals instance 3 and follows a script; the
// honest players 0–2 report their output for instance 3, which must be a
// copy, not the dealt slice.
func TestTallyFirstMessagePerSender(t *testing.T) {
	const n, tf = 4, 1
	frame := func(v []byte) []byte {
		vals := make([][]byte, n)
		vals[3] = v
		return encodeInstanceValues(vals)
	}
	b, a, empty := []byte("b"), []byte("a"), []byte{}
	none := Output{}
	// script[r][j] is what player 3 sends player j in round r+1, in order.
	type script [3][n - 1][][]byte
	cases := []struct {
		name string
		s    script
		want [n - 1]Output
	}{
		{
			// Every honest player tallies b from 0, 1 and 3 (first message),
			// and a from 2 and 3's ignored second message.
			name: "second different message ignored",
			s: script{
				{{b}, {b}, {a}},
				{{frame(b), frame(a)}, {frame(b), frame(a)}, {frame(b), frame(a)}},
			},
			want: [n - 1]Output{{b, 2}, {b, 2}, {b, 2}},
		},
		{
			// With 3 voided, b has only 2 echoes anywhere; falling back to
			// 3's second message would give it 3.
			name: "malformed first message voids the sender",
			s: script{
				{{b}, {b}, {a}},
				{{{0x01}, frame(b)}, {{0x01}, frame(b)}, {{0x01}, frame(b)}},
			},
			want: [n - 1]Output{none, none, none},
		},
		{
			// Only player 0 reaches 3 echoes of b (its own, 1's and 3's) and
			// supports b; its final tally is its own vote and 3's, so one
			// confidence-1 output. An own echo counted twice would make it 2,
			// one left out would make it 0.
			name: "own echo counts once",
			s: script{
				{{b}, {b}, {a}},
				{{frame(b)}, {frame(a)}, {frame(a)}},
				{{frame(b)}, nil, nil},
			},
			want: [n - 1]Output{{b, 1}, none, none},
		},
		{
			// 3 deals the empty value to 0 and 1 only, and its own echo
			// frame leaves instance 3 out: 2 echoes of the empty value.
			name: "omitted instance stays unseen",
			s: script{
				{{empty}, {empty}, nil},
				{{frame(nil)}, {frame(nil)}, {frame(nil)}},
			},
			want: [n - 1]Output{none, none, none},
		},
		{
			name: "present empty value counts",
			s: script{
				{{empty}, {empty}, {empty}},
				{{frame(empty)}, {frame(empty)}, {frame(empty)}},
			},
			want: [n - 1]Output{{empty, 2}, {empty, 2}, {empty, 2}},
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			fns := make([]simnet.PlayerFunc, n)
			for i := 0; i < n-1; i++ {
				fns[i] = func(nd *simnet.Node) (interface{}, error) {
					outs, err := RunAll(nd, tf, []byte{byte(nd.Index())})
					if err != nil {
						return nil, err
					}
					return outs[3], nil
				}
			}
			fns[3] = func(nd *simnet.Node) (interface{}, error) {
				for _, round := range c.s {
					for j, msgs := range round {
						for _, m := range msgs {
							nd.Send(j, m)
						}
					}
					if _, err := nd.EndRound(); err != nil {
						return nil, err
					}
				}
				return nil, nil
			}
			for i, r := range simnet.Run(simnet.New(n), fns)[:n-1] {
				if r.Err != nil {
					t.Fatalf("player %d: %v", i, r.Err)
				}
				got := r.Value.(Output)
				if got.Confidence != c.want[i].Confidence || !bytes.Equal(got.Value, c.want[i].Value) ||
					(got.Value == nil) != (c.want[i].Value == nil) {
					t.Errorf("player %d: got (%q, %d), want (%q, %d)",
						i, got.Value, got.Confidence, c.want[i].Value, c.want[i].Confidence)
				}
				if len(got.Value) > 0 && (&got.Value[0] == &b[0] || &got.Value[0] == &a[0]) {
					t.Errorf("player %d: output aliases the dealt value", i)
				}
			}
		})
	}
}
