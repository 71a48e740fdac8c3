package simnet

// Peer-transport enactment of hostile schedules: wall-clock holds on done
// frames, crash-window frame drops driving demotion/promotion, and the
// round-timeout grace regression — "slow under jitter" must not demote
// like "gone" does.

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

// runPeerChatter drives every daemon of the cluster through `rounds`
// all-to-all rounds and returns, per player per round, the set of senders
// seen at the boundary. A non-zero pace sleeps that long before each round
// flush — it keeps an undisturbed majority from blasting through its
// remaining rounds in microseconds after a demotion, so a recovering peer
// has a real boundary left to rejoin at (exactly what a beacon's steady
// round cadence provides in production).
func runPeerChatter(t *testing.T, nws []*Network, rounds int, pace time.Duration) [][]map[int]bool {
	t.Helper()
	seen := make([][]map[int]bool, len(nws))
	runOnPeers(t, nws, func(nd *Node) (interface{}, error) {
		i := nd.Index()
		for r := 0; r < rounds; r++ {
			if pace > 0 {
				time.Sleep(pace)
			}
			nd.SendAll([]byte(fmt.Sprintf("r%d-p%d", r, i)))
			msgs, err := nd.EndRound()
			if err != nil {
				return nil, fmt.Errorf("round %d: %w", r, err)
			}
			froms := map[int]bool{}
			for _, m := range msgs {
				froms[m.From] = true
			}
			seen[i] = append(seen[i], froms)
		}
		return nil, nil
	})
	return seen
}

// demotions counts peer-demoted-* spans in the ring.
func demotions(ring *obs.Ring) int {
	n := 0
	for _, e := range ring.Events() {
		if strings.HasPrefix(e.Name, "peer-demoted-") {
			n++
		}
	}
	return n
}

func TestPeerScheduleJitterGrace(t *testing.T) {
	// Player 2's done frames are held 4 schedule units (= 240ms) — far past
	// the 120ms round timeout. The grace multiplier derived from
	// Schedule.MaxDelay must keep the honest straggler in the required set:
	// no demotion, and its traffic present at every boundary.
	if testing.Short() {
		t.Skip("wall-clock schedule holds")
	}
	cfg := testPeerCfg(t, 3)
	sched := &Schedule{Seed: 3, Delays: []DelayRule{{
		From: 2, To: Wildcard, Start: 0, End: 0, Dist: Dist{Kind: DistFixed, Min: 4},
	}}}
	rings := make([]*obs.Ring, 3)
	nws := make([]*Network, 3)
	for i := 0; i < 3; i++ {
		rings[i] = obs.NewRing(1 << 12)
		nw, err := NewPeer(cfg, i,
			WithSchedule(sched),
			WithScheduleUnit(60*time.Millisecond),
			WithRoundTimeout(120*time.Millisecond),
			WithTracer(obs.New(nil, rings[i])))
		if err != nil {
			t.Fatalf("NewPeer(%d): %v", i, err)
		}
		t.Cleanup(nw.Close)
		nws[i] = nw
	}
	for i, nw := range nws {
		if err := nw.WaitPeers(2, 10*time.Second); err != nil {
			t.Fatalf("player %d mesh: %v", i, err)
		}
	}
	const rounds = 4
	seen := runPeerChatter(t, nws, rounds, 0)
	for i := 0; i < 3; i++ {
		if got := demotions(rings[i]); got != 0 {
			t.Errorf("player %d demoted %d peers under pure jitter — grace multiplier not applied", i, got)
		}
		for r := 0; r < rounds; r++ {
			for j := 0; j < 3; j++ {
				if j != i && !seen[i][r][j] {
					t.Errorf("player %d round %d missing traffic from %d", i, r, j)
				}
			}
		}
	}
}

func TestPeerScheduleCrashDemotesThenPromotes(t *testing.T) {
	// Crash player 2 for rounds [1,3): its frames are eaten, so the others
	// demote it (that IS the peer-mode enactment of a crash), commit the
	// window's rounds without it, and promote it back once its post-recovery
	// done frames flow again. Everyone finishes; the last round is whole.
	if testing.Short() {
		t.Skip("wall-clock demotion timeouts")
	}
	cfg := testPeerCfg(t, 3)
	sched := &Schedule{Seed: 8, Crashes: []CrashRule{{Player: 2, Start: 1, Recover: 3}}}
	rings := make([]*obs.Ring, 3)
	nws := make([]*Network, 3)
	for i := 0; i < 3; i++ {
		rings[i] = obs.NewRing(1 << 12)
		nw, err := NewPeer(cfg, i,
			WithSchedule(sched),
			WithScheduleUnit(20*time.Millisecond),
			WithRoundTimeout(250*time.Millisecond),
			WithTracer(obs.New(nil, rings[i])))
		if err != nil {
			t.Fatalf("NewPeer(%d): %v", i, err)
		}
		t.Cleanup(nw.Close)
		nws[i] = nw
	}
	for i, nw := range nws {
		if err := nw.WaitPeers(2, 10*time.Second); err != nil {
			t.Fatalf("player %d mesh: %v", i, err)
		}
	}
	const rounds = 6
	seen := runPeerChatter(t, nws, rounds, 60*time.Millisecond)

	// The crash must have been observed: players 0 and 1 demoted somebody.
	if demotions(rings[0])+demotions(rings[1]) == 0 {
		t.Error("crash window produced no demotion — schedule not enacted on the wire")
	}
	for i := 0; i < 2; i++ {
		// Inside the window the crashed player's traffic is gone...
		for r := 1; r < 3; r++ {
			if seen[i][r][2] {
				t.Errorf("player %d round %d saw traffic from crashed player 2", i, r)
			}
		}
		// ...and the final round is whole again: recovery promoted it back.
		if !seen[i][rounds-1][2] {
			t.Errorf("player %d round %d missing traffic from recovered player 2", i, rounds-1)
		}
	}
}
