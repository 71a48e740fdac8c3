package simnet

import (
	"encoding/binary"
	"net"
	"testing"
	"time"
)

// TestQueryReplyBoundToPeer pins the anti-forgery contract of the query
// side-channel: query ids are sequential and predictable, so a Byzantine
// peer could pre-send replies on its OWN connection that claim the ids of
// queries addressed to honest peers. Such a reply must not settle the
// query (it would let one corrupt peer feed a rejoining daemon a
// fabricated public log, defeating the t+1 cross-check).
//
// Player 2 here is a fake: it completes the handshake, then floods forged
// framePeerReply frames for the first few query ids. Player 0's query to
// the honest player 1 must still return player 1's genuine answer.
func TestQueryReplyBoundToPeer(t *testing.T) {
	cfg := testPeerCfg(t, 3)
	digest := cfg.Digest()

	// Fake player 2: accept, authenticate, then forge replies.
	ln, err := net.Listen("tcp", cfg.ListenAddr(2))
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func(conn net.Conn) {
				defer conn.Close()
				if _, err := acceptHandshake(conn, cfg.Secret, 2, digest); err != nil {
					return
				}
				for {
					for id := uint64(0); id < 4; id++ {
						payload := make([]byte, 8, 8+6)
						binary.LittleEndian.PutUint64(payload, id)
						payload = append(payload, []byte("FORGED")...)
						if err := writeFrame(conn, framePeerReply, 0, payload); err != nil {
							return
						}
					}
					select {
					case <-stop:
						return
					case <-time.After(10 * time.Millisecond):
					}
				}
			}(conn)
		}
	}()

	handler := func(from int, req []byte) []byte {
		time.Sleep(150 * time.Millisecond) // keep the query pending while forgeries arrive
		return []byte("GENUINE")
	}
	var nws [2]*Network
	for i := 0; i < 2; i++ {
		nw, err := NewPeer(cfg, i, WithQueryHandler(handler),
			WithDialBackoff(20*time.Millisecond, 100*time.Millisecond))
		if err != nil {
			t.Fatalf("NewPeer(%d): %v", i, err)
		}
		t.Cleanup(nw.Close)
		nws[i] = nw
	}

	// Wait for 0↔1 both ways and 0→2 (the forgery channel) to come up.
	if err := nws[0].WaitPeers(1, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for !nws[0].PeerConnected()[2] {
		if time.Now().After(deadline) {
			t.Fatal("dial to fake player 2 never came up")
		}
		time.Sleep(10 * time.Millisecond)
	}
	time.Sleep(50 * time.Millisecond) // let forged replies for id 0 start flowing

	resp, err := nws[0].Query(1, []byte("ping"), 5*time.Second)
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	if string(resp) != "GENUINE" {
		t.Fatalf("query answered with %q — a forged cross-peer reply settled it", resp)
	}
}

// TestWatermarkClampedAfterStart checks the staging-horizon guard: once the
// round machinery is running, a peer declaring an absurd watermark (round
// 2^30) must be clamped to maxFutureWindow past the local committed round,
// so stageRemote's horizon — and with it the staged map — stays bounded.
// Before StartAt the declared value is kept: a rejoiner's local round is
// still 0 while the cluster may legitimately be far ahead.
func TestWatermarkClampedAfterStart(t *testing.T) {
	cfg := testPeerCfg(t, 2)
	nws := startPeerCluster(t, cfg)

	watermark := func(nw *Network, j int) int {
		nw.pn.mu.Lock()
		defer nw.pn.mu.Unlock()
		return nw.pn.watermark[j]
	}
	// Not started: the declared position is recorded as-is.
	nws[1].pn.advanceWatermark(0, 1<<30, -1)
	if got := watermark(nws[1], 0); got != 1<<30 {
		t.Fatalf("pre-start watermark = %d, want %d", got, 1<<30)
	}

	if err := nws[0].StartAt(0); err != nil {
		t.Fatal(err)
	}
	nws[0].pn.advanceWatermark(1, 1<<30, -1)
	if got := watermark(nws[0], 1); got != maxFutureWindow {
		t.Fatalf("post-start watermark = %d, want clamp at %d", got, maxFutureWindow)
	}
}
