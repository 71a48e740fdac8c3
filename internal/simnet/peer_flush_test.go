package simnet

import (
	"fmt"
	"net"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// countingConn counts the round flushes written through it: every Write
// except the status announcements StartAt and a (re)connect make, which are
// not round traffic.
type countingConn struct {
	net.Conn
	flushes *atomic.Int64
}

func (c countingConn) Write(p []byte) (int, error) {
	if len(p) > 0 && p[0] != framePeerStatus {
		c.flushes.Add(1)
	}
	return c.Conn.Write(p)
}

// countFlushes swaps a countingConn into every outgoing connection of the
// cluster and returns the counters, indexed [sender][receiver] (nil at
// self).
func countFlushes(t *testing.T, nws []*Network) [][]*atomic.Int64 {
	t.Helper()
	counts := make([][]*atomic.Int64, len(nws))
	for i, nw := range nws {
		counts[i] = make([]*atomic.Int64, len(nws))
		for j, pc := range nw.pn.out {
			if pc == nil {
				continue
			}
			c := new(atomic.Int64)
			counts[i][j] = c
			pc.mu.Lock()
			if pc.conn == nil {
				pc.mu.Unlock()
				t.Fatalf("player %d: connection to %d is down", i, j)
			}
			pc.conn = countingConn{Conn: pc.conn, flushes: c}
			pc.mu.Unlock()
		}
	}
	return counts
}

func checkFlushes(t *testing.T, counts [][]*atomic.Int64, rounds int64) {
	t.Helper()
	for i, row := range counts {
		for j, c := range row {
			if c != nil && c.Load() != rounds {
				t.Errorf("player %d wrote %d times to player %d over %d rounds, want one write per round", i, c.Load(), j, rounds)
			}
		}
	}
}

// TestPeerFlushOneWritePerPeer pins the coalesced flush: a round of
// SendAll, Broadcast and a self-send (data, broadcast and done frames to
// every peer) is one socket write per peer, and a round that grew a flush
// buffer past maxPendingKeep does not leave it pinned.
func TestPeerFlushOneWritePerPeer(t *testing.T) {
	t.Run("mixed rounds", func(t *testing.T) {
		const n, rounds = 4, 5
		nws := startPeerCluster(t, testPeerCfg(t, n))
		counts := countFlushes(t, nws)
		runOnPeers(t, nws, func(nd *Node) (interface{}, error) {
			for r := 0; r < rounds; r++ {
				nd.SendAll([]byte{byte(nd.Index()), byte(r)})
				nd.Broadcast([]byte{0xb0, byte(r)})
				nd.Send(nd.Index(), []byte{0x5e, byte(r)})
				msgs, err := nd.EndRound()
				if err != nil {
					return nil, err
				}
				// n−1 SendAll copies, n broadcasts, one self-send.
				if len(msgs) != 2*n {
					return nil, fmt.Errorf("round %d: %d messages, want %d", r, len(msgs), 2*n)
				}
			}
			return nil, nil
		})
		checkFlushes(t, counts, rounds)
	})

	t.Run("large round", func(t *testing.T) {
		nws := startPeerCluster(t, testPeerCfg(t, 2))
		counts := countFlushes(t, nws)
		big := make([]byte, 1<<20)
		runOnPeers(t, nws, func(nd *Node) (interface{}, error) {
			for i := 0; i < 8; i++ {
				nd.Send(1-nd.Index(), big)
			}
			msgs, err := nd.EndRound()
			if err == nil && len(msgs) != 8 {
				err = fmt.Errorf("got %d messages, want 8", len(msgs))
			}
			return nil, err
		})
		checkFlushes(t, counts, 1)
		for i, nw := range nws {
			for j, pc := range nw.pn.out {
				if pc != nil && (len(pc.pending) != 0 || cap(pc.pending) > maxPendingKeep) {
					t.Errorf("player %d keeps a %d-byte flush buffer (len %d) for player %d, cap is %d",
						i, cap(pc.pending), len(pc.pending), j, maxPendingKeep)
				}
			}
		}
	})
}

// TestPeerStaleBarrierFire delivers barrier-timer fires late, as the runtime
// may: after the round they were armed for committed, and after the timer
// was re-armed for the next round. Neither may expire the next round: it
// waits for its barrier, delivers everyone's traffic and demotes no one.
// Close must then stop the timer, so none outlives the network.
func TestPeerStaleBarrierFire(t *testing.T) {
	nws := startPeerCluster(t, testPeerCfg(t, 2))
	for i, nw := range nws {
		if err := nw.StartAt(0); err != nil {
			t.Fatalf("StartAt(%d): %v", i, err)
		}
	}
	type result struct {
		msgs []Message
		err  error
	}
	play := func(i, r int, out chan<- result) {
		nd := nws[i].Node(i)
		nd.Broadcast([]byte{byte(i), byte(r)})
		msgs, err := nd.EndRound()
		out <- result{msgs, err}
	}
	res := make(chan result, 2)
	for i := range nws {
		go play(i, 0, res)
	}
	for range nws {
		if r := <-res; r.err != nil {
			t.Fatalf("round 0: %v", r.err)
		}
	}

	pn := nws[0].pn
	fireStale := func() {
		pn.mu.Lock()
		pn.expireLocked(0) // round 0's stamp, after round 0 committed
		pn.mu.Unlock()
		pn.barrierFired() // the timer's own callback, before the armed round is due
	}
	fireStale()
	go play(0, 1, res)
	for armed := false; !armed; runtime.Gosched() {
		pn.mu.Lock()
		armed = pn.barrierRound == 1
		pn.mu.Unlock()
	}
	fireStale() // player 0 is now waiting on round 1's barrier
	go play(1, 1, res)
	for range nws {
		r := <-res
		if r.err != nil {
			t.Fatalf("round 1: %v", r.err)
		}
		if len(r.msgs) != 2 {
			t.Fatalf("round 1 delivered %d messages, want 2: a stale fire expired the barrier early", len(r.msgs))
		}
	}
	pn.mu.Lock()
	expired := pn.expired
	pn.armBarrierLocked(2, time.Hour)
	pn.mu.Unlock()
	if expired != -1 {
		t.Fatalf("round %d expired; no barrier was due", expired)
	}

	nws[0].Close()
	if pn.barrier.Stop() {
		t.Fatal("Close left the barrier timer armed")
	}
}
