package simnet

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/metrics"
	"repro/internal/obs"
)

func TestRoundDelivery(t *testing.T) {
	nw := New(3)
	results := Run(nw, []PlayerFunc{
		func(nd *Node) (interface{}, error) {
			nd.Send(1, []byte("from0"))
			if _, err := nd.EndRound(); err != nil {
				return nil, err
			}
			return nil, nil
		},
		func(nd *Node) (interface{}, error) {
			msgs, err := nd.EndRound()
			if err != nil {
				return nil, err
			}
			return msgs, nil
		},
		func(nd *Node) (interface{}, error) {
			msgs, err := nd.EndRound()
			return msgs, err
		},
	})
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("player %d: %v", i, r.Err)
		}
	}
	msgs := results[1].Value.([]Message)
	if len(msgs) != 1 || string(msgs[0].Payload) != "from0" || msgs[0].From != 0 {
		t.Fatalf("player 1 inbox = %v", msgs)
	}
	if got := results[2].Value.([]Message); len(got) != 0 {
		t.Fatalf("player 2 inbox should be empty, got %v", got)
	}
}

func TestMessagesNotDeliveredEarly(t *testing.T) {
	// A message staged in round 0 must not be visible until the boundary:
	// all nodes observe it only in the inbox returned by EndRound.
	nw := New(2)
	results := Run(nw, []PlayerFunc{
		func(nd *Node) (interface{}, error) {
			nd.Send(1, []byte("x"))
			_, err := nd.EndRound()
			return nil, err
		},
		func(nd *Node) (interface{}, error) {
			msgs, err := nd.EndRound()
			if err != nil {
				return nil, err
			}
			if len(msgs) != 1 {
				return nil, fmt.Errorf("round-0 inbox size %d, want 1", len(msgs))
			}
			msgs2, err := nd.EndRound()
			if err != nil {
				return nil, err
			}
			if len(msgs2) != 0 {
				return nil, fmt.Errorf("round-1 inbox size %d, want 0 (no redelivery)", len(msgs2))
			}
			return nil, nil
		},
	})
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("player %d: %v", i, r.Err)
		}
	}
}

func TestDeterministicOrdering(t *testing.T) {
	for trial := 0; trial < 20; trial++ {
		nw := New(4)
		fns := make([]PlayerFunc, 4)
		for i := 0; i < 3; i++ {
			fns[i] = func(nd *Node) (interface{}, error) {
				nd.Send(3, []byte{byte(i), 0})
				nd.Send(3, []byte{byte(i), 1})
				_, err := nd.EndRound()
				return nil, err
			}
		}
		fns[3] = func(nd *Node) (interface{}, error) {
			msgs, err := nd.EndRound()
			return msgs, err
		}
		results := Run(nw, fns)
		msgs := results[3].Value.([]Message)
		if len(msgs) != 6 {
			t.Fatalf("got %d messages, want 6", len(msgs))
		}
		for j, m := range msgs {
			wantFrom, wantSeq := j/2, byte(j%2)
			if m.From != wantFrom || m.Payload[1] != wantSeq {
				t.Fatalf("trial %d: position %d has from=%d seq=%d, want from=%d seq=%d",
					trial, j, m.From, m.Payload[1], wantFrom, wantSeq)
			}
		}
	}
}

func TestBroadcastIdenticalEverywhere(t *testing.T) {
	nw := New(4)
	fns := make([]PlayerFunc, 4)
	fns[0] = func(nd *Node) (interface{}, error) {
		nd.Broadcast([]byte("announcement"))
		msgs, err := nd.EndRound()
		return msgs, err
	}
	for i := 1; i < 4; i++ {
		fns[i] = func(nd *Node) (interface{}, error) {
			msgs, err := nd.EndRound()
			return msgs, err
		}
	}
	results := Run(nw, fns)
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("player %d: %v", i, r.Err)
		}
		msgs := r.Value.([]Message)
		if len(msgs) != 1 || msgs[0].Kind != Broadcast || string(msgs[0].Payload) != "announcement" {
			t.Fatalf("player %d: broadcast not delivered identically: %v", i, msgs)
		}
	}
}

func TestSendAllExcludesSelf(t *testing.T) {
	nw := New(3)
	fns := make([]PlayerFunc, 3)
	for i := range fns {
		fns[i] = func(nd *Node) (interface{}, error) {
			nd.SendAll([]byte{byte(nd.Index())})
			msgs, err := nd.EndRound()
			return msgs, err
		}
	}
	results := Run(nw, fns)
	for i, r := range results {
		msgs := r.Value.([]Message)
		if len(msgs) != 2 {
			t.Fatalf("player %d: inbox size %d, want 2", i, len(msgs))
		}
		for _, m := range msgs {
			if m.From == i {
				t.Fatalf("player %d received its own SendAll", i)
			}
		}
	}
}

func TestHaltedNodeDoesNotBlockBarrier(t *testing.T) {
	nw := New(3)
	results := Run(nw, []PlayerFunc{
		func(nd *Node) (interface{}, error) {
			return nil, nil // crashes immediately; Run halts the node
		},
		func(nd *Node) (interface{}, error) {
			for r := 0; r < 5; r++ {
				if _, err := nd.EndRound(); err != nil {
					return nil, err
				}
			}
			return "done", nil
		},
		func(nd *Node) (interface{}, error) {
			for r := 0; r < 5; r++ {
				if _, err := nd.EndRound(); err != nil {
					return nil, err
				}
			}
			return "done", nil
		},
	})
	for i := 1; i < 3; i++ {
		if results[i].Err != nil || results[i].Value != "done" {
			t.Fatalf("player %d: %+v", i, results[i])
		}
	}
}

func TestEndRoundAfterHalt(t *testing.T) {
	nw := New(1)
	nd := nw.Node(0)
	nd.Halt()
	if _, err := nd.EndRound(); !errors.Is(err, ErrHalted) {
		t.Fatalf("err = %v, want ErrHalted", err)
	}
	nd.Halt() // idempotent
}

func TestMaxRoundsStopsRunawayProtocol(t *testing.T) {
	nw := New(2, WithMaxRounds(10))
	fns := []PlayerFunc{
		func(nd *Node) (interface{}, error) {
			for {
				if _, err := nd.EndRound(); err != nil {
					return nil, err
				}
			}
		},
		func(nd *Node) (interface{}, error) {
			for {
				if _, err := nd.EndRound(); err != nil {
					return nil, err
				}
			}
		},
	}
	results := Run(nw, fns)
	for i, r := range results {
		if !errors.Is(r.Err, ErrMaxRounds) {
			t.Fatalf("player %d: err = %v, want ErrMaxRounds", i, r.Err)
		}
	}
}

func TestStatsAccounting(t *testing.T) {
	var c metrics.Counters
	nw := New(3, WithCounters(&c))
	fns := []PlayerFunc{
		func(nd *Node) (interface{}, error) {
			nd.Send(1, make([]byte, 10))
			nd.Broadcast(make([]byte, 4))
			_, err := nd.EndRound()
			return nil, err
		},
		func(nd *Node) (interface{}, error) {
			_, err := nd.EndRound()
			return nil, err
		},
		func(nd *Node) (interface{}, error) {
			_, err := nd.EndRound()
			return nil, err
		},
	}
	Run(nw, fns)
	s := c.Snapshot()
	if s.Messages != 1+3 {
		t.Errorf("messages = %d, want 4", s.Messages)
	}
	if s.Bytes != 10+3*4 {
		t.Errorf("bytes = %d, want 22", s.Bytes)
	}
	if s.Broadcasts != 1 {
		t.Errorf("broadcasts = %d, want 1", s.Broadcasts)
	}
	if s.Rounds != 1 {
		t.Errorf("rounds = %d, want 1", s.Rounds)
	}
}

func TestMultiRoundPingPong(t *testing.T) {
	// Two nodes alternate incrementing a counter; verifies lockstep.
	const rounds = 50
	nw := New(2)
	mk := func(self, peer int) PlayerFunc {
		return func(nd *Node) (interface{}, error) {
			val := byte(0)
			for r := 0; r < rounds; r++ {
				nd.Send(peer, []byte{val + 1})
				msgs, err := nd.EndRound()
				if err != nil {
					return nil, err
				}
				if len(msgs) != 1 {
					return nil, fmt.Errorf("round %d: %d msgs", r, len(msgs))
				}
				got := msgs[0].Payload[0]
				if got != val+1 {
					return nil, fmt.Errorf("round %d: got %d, want %d", r, got, val+1)
				}
				val = got
			}
			return int(val), nil
		}
	}
	results := Run(nw, []PlayerFunc{mk(0, 1), mk(1, 0)})
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("player %d: %v", i, r.Err)
		}
		if r.Value.(int) != rounds {
			t.Fatalf("player %d: final value %v, want %d", i, r.Value, rounds)
		}
	}
}

func TestFirstFromEach(t *testing.T) {
	msgs := []Message{
		{From: 2, Payload: []byte("a")},
		{From: 2, Payload: []byte("b")},
		{From: 0, Payload: []byte("c")},
	}
	m := FirstFromEach(msgs)
	if len(m) != 2 || string(m[2]) != "a" || string(m[0]) != "c" {
		t.Fatalf("FirstFromEach = %v", m)
	}
	for from := 0; from < 3; from++ {
		want, wantOK := m[from]
		if got, ok := FirstFrom(msgs, from); ok != wantOK || string(got) != string(want) {
			t.Errorf("FirstFrom(%d) = %q, %v; FirstFromEach has %q, %v", from, got, ok, want, wantOK)
		}
	}
}

func TestSendValidation(t *testing.T) {
	nw := New(2)
	nd := nw.Node(0)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Send to out-of-range node did not panic")
			}
		}()
		nd.Send(5, nil)
	}()
	nd.Halt()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Send after Halt did not panic")
			}
		}()
		nd.Send(1, nil)
	}()
}

func TestConcurrentNetworks(t *testing.T) {
	// Several independent networks running concurrently must not interfere.
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			nw := New(3)
			fns := make([]PlayerFunc, 3)
			for i := range fns {
				fns[i] = func(nd *Node) (interface{}, error) {
					for r := 0; r < 20; r++ {
						nd.SendAll([]byte{byte(r)})
						msgs, err := nd.EndRound()
						if err != nil {
							return nil, err
						}
						if len(msgs) != 2 {
							return nil, fmt.Errorf("round %d: %d msgs", r, len(msgs))
						}
					}
					return nil, nil
				}
			}
			for i, r := range Run(nw, fns) {
				if r.Err != nil {
					t.Errorf("net player %d: %v", i, r.Err)
				}
			}
		}()
	}
	wg.Wait()
}

func TestRoundLimitErrorDiagnosis(t *testing.T) {
	// A runaway protocol must fail with a diagnosis naming the players that
	// were still running (the halted one is innocent) and the traffic that
	// was pending at the fatal boundary.
	nw := New(3, WithMaxRounds(5))
	results := Run(nw, []PlayerFunc{
		func(nd *Node) (interface{}, error) {
			_, err := nd.EndRound()
			return nil, err // returns → halts after one round
		},
		func(nd *Node) (interface{}, error) {
			for {
				nd.Send(2, []byte("abc"))
				if _, err := nd.EndRound(); err != nil {
					return nil, err
				}
			}
		},
		func(nd *Node) (interface{}, error) {
			for {
				if _, err := nd.EndRound(); err != nil {
					return nil, err
				}
			}
		},
	})
	err := results[1].Err
	if !errors.Is(err, ErrMaxRounds) {
		t.Fatalf("err = %v, want ErrMaxRounds", err)
	}
	var rle *RoundLimitError
	if !errors.As(err, &rle) {
		t.Fatalf("err = %T, want *RoundLimitError", err)
	}
	if rle.Limit != 5 {
		t.Fatalf("Limit = %d, want 5", rle.Limit)
	}
	if len(rle.Active) != 2 || rle.Active[0] != 1 || rle.Active[1] != 2 {
		t.Fatalf("Active = %v, want [1 2]", rle.Active)
	}
	if rle.StagedMsgs != 1 || rle.StagedBytes != 3 {
		t.Fatalf("staged = %d msgs / %d bytes, want 1 / 3", rle.StagedMsgs, rle.StagedBytes)
	}
	msg := err.Error()
	for _, want := range []string{"budget of 5 rounds", "players [1 2] still active", "1 msgs / 3 bytes staged"} {
		if !strings.Contains(msg, want) {
			t.Fatalf("error %q missing %q", msg, want)
		}
	}
}

func TestHaltedErrorDiagnosis(t *testing.T) {
	nw := New(2)
	nd := nw.Node(1)
	nd.Halt()
	_, err := nd.EndRound()
	if !errors.Is(err, ErrHalted) {
		t.Fatalf("err = %v, want ErrHalted", err)
	}
	var he *HaltedError
	if !errors.As(err, &he) {
		t.Fatalf("err = %T, want *HaltedError", err)
	}
	if he.Player != 1 {
		t.Fatalf("Player = %d, want 1", he.Player)
	}
	if !strings.Contains(err.Error(), "node 1 has halted") {
		t.Fatalf("error %q does not name the node", err.Error())
	}
}

func TestTracerEmitsNetworkEvents(t *testing.T) {
	ring := obs.NewRing(0)
	tr := obs.New(nil, ring)
	nw := New(2, WithTracer(tr))
	results := Run(nw, []PlayerFunc{
		func(nd *Node) (interface{}, error) {
			if nd.Tracer() != tr {
				return nil, errors.New("node does not expose the network tracer")
			}
			nd.Send(1, []byte("hello"))
			nd.Broadcast([]byte("hi"))
			_, err := nd.EndRound()
			return nil, err
		},
		func(nd *Node) (interface{}, error) {
			msgs, err := nd.EndRound()
			if err != nil {
				return nil, err
			}
			if len(msgs) != 2 {
				return nil, fmt.Errorf("got %d msgs, want 2", len(msgs))
			}
			return nil, nil
		},
	})
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("player %d: %v", i, r.Err)
		}
	}
	var sends, bcasts, delivers, rounds int
	for _, e := range ring.Events() {
		switch e.Type {
		case obs.EvSend:
			sends++
			if e.From != 0 || e.To != 1 || e.Bytes != 5 || e.Round != 0 {
				t.Fatalf("bad send event: %+v", e)
			}
		case obs.EvBroadcast:
			bcasts++
			if e.From != 0 || e.Bytes != 2 {
				t.Fatalf("bad broadcast event: %+v", e)
			}
		case obs.EvDeliver:
			delivers++
			if e.From != 0 || e.Round != 0 {
				t.Fatalf("bad deliver event: %+v", e)
			}
		case obs.EvRound:
			rounds++
			// 3 deliveries: the unicast to p1 plus the broadcast copy at
			// every node (the ideal facility includes the sender).
			if e.Round != 0 || e.Count != 3 || e.Bytes != 9 {
				t.Fatalf("bad round event: %+v", e)
			}
		}
	}
	if sends != 1 || bcasts != 1 || delivers != 3 || rounds != 1 {
		t.Fatalf("event counts send=%d bcast=%d deliver=%d round=%d, want 1/1/3/1",
			sends, bcasts, delivers, rounds)
	}
}
