package simnet

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"
)

// testPeerCfg builds an n-player loopback cluster with freshly reserved
// ports. Every listener stays open until all n are picked, so no port is
// handed out twice; closing them leaves a tiny race with other processes,
// which is fine for tests.
func testPeerCfg(t *testing.T, n int) *PeerConfig {
	t.Helper()
	cfg := &PeerConfig{
		Cluster: "peer-test",
		Secret:  []byte("0123456789abcdef0123456789abcdef"),
		T:       1, K: 32, Batch: 24, Threshold: 6,
	}
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("reserve port: %v", err)
		}
		defer ln.Close()
		cfg.Peers = append(cfg.Peers, Peer{ID: i, Addr: ln.Addr().String()})
	}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	return cfg
}

// startPeerCluster brings up one Network per player and waits for the full
// two-way mesh everywhere.
func startPeerCluster(t *testing.T, cfg *PeerConfig, opts ...Option) []*Network {
	t.Helper()
	n := cfg.N()
	nws := make([]*Network, n)
	for i := 0; i < n; i++ {
		nw, err := NewPeer(cfg, i, opts...)
		if err != nil {
			t.Fatalf("NewPeer(%d): %v", i, err)
		}
		t.Cleanup(nw.Close)
		nws[i] = nw
	}
	for i, nw := range nws {
		if err := nw.WaitPeers(n-1, 10*time.Second); err != nil {
			t.Fatalf("player %d mesh: %v", i, err)
		}
	}
	return nws
}

// --- peers.yaml parsing -------------------------------------------------------

const goodPeersYAML = `# demo cluster
cluster: demo
secret: 303132333435363738396162636465663031323334353637383961626364656
t: 1
k: 32
batch: 96
threshold: 6
seedcoins: 24
peers:
  - id: 1
    addr: 127.0.0.1:9401
  - id: 0
    addr: 127.0.0.1:9400
    listen: 0.0.0.0:9400
    http: 127.0.0.1:8433
`

func TestPeerConfigParseGood(t *testing.T) {
	// Pad the secret to an even hex length of 32 bytes.
	yaml := strings.Replace(goodPeersYAML,
		"secret: 303132333435363738396162636465663031323334353637383961626364656",
		"secret: "+strings.Repeat("61", 32), 1)
	cfg, err := ParsePeerConfig([]byte(yaml))
	if err != nil {
		t.Fatalf("ParsePeerConfig: %v", err)
	}
	if cfg.Cluster != "demo" || cfg.T != 1 || cfg.K != 32 || cfg.Batch != 96 ||
		cfg.Threshold != 6 || cfg.SeedCoins != 24 || cfg.N() != 2 {
		t.Fatalf("parsed config wrong: %+v", cfg)
	}
	// Validate sorts the roster by id.
	if cfg.Peers[0].ID != 0 || cfg.Peers[1].ID != 1 {
		t.Fatalf("roster not sorted: %+v", cfg.Peers)
	}
	if got := cfg.ListenAddr(0); got != "0.0.0.0:9400" {
		t.Fatalf("listen override lost: %q", got)
	}
	if got := cfg.Peers[0].HTTP; got != "127.0.0.1:8433" {
		t.Fatalf("http address lost: %q", got)
	}
	// The digest pins dial addresses but not node-local listen overrides,
	// observability addresses, or the secret — adding http: to a running
	// cluster's config must not force a re-ceremony.
	d1 := cfg.Digest()
	cfg.Peers[0].Listen = "0.0.0.0:19400"
	cfg.Peers[1].HTTP = "127.0.0.1:18433"
	cfg.Secret = []byte("another-32-byte-secret-value-...!")
	if d2 := cfg.Digest(); d2 != d1 {
		t.Fatal("digest depends on listen/http override or secret")
	}
	cfg.Peers[0].Addr = "127.0.0.1:9409"
	if d3 := cfg.Digest(); d3 == d1 {
		t.Fatal("digest missed a dial-address change")
	}
}

// TestPeerConfigGenerationRotatesDigest: the committee generation is part
// of the handshake digest — a reshared roster is a new cluster even when
// every peer row is identical — while generation 0 digests exactly like a
// config written before the field existed.
func TestPeerConfigGenerationRotatesDigest(t *testing.T) {
	sec := "secret: " + strings.Repeat("61", 32) + "\n"
	roster := "peers:\n  - id: 0\n    addr: 127.0.0.1:9400\n  - id: 1\n    addr: 127.0.0.1:9401\n"
	base, err := ParsePeerConfig([]byte(sec + roster))
	if err != nil {
		t.Fatalf("ParsePeerConfig: %v", err)
	}
	gen0, err := ParsePeerConfig([]byte(sec + "generation: 0\n" + roster))
	if err != nil {
		t.Fatalf("ParsePeerConfig generation 0: %v", err)
	}
	gen2, err := ParsePeerConfig([]byte(sec + "generation: 2\n" + roster))
	if err != nil {
		t.Fatalf("ParsePeerConfig generation 2: %v", err)
	}
	if gen2.Generation != 2 {
		t.Fatalf("generation parsed as %d, want 2", gen2.Generation)
	}
	if gen0.Digest() != base.Digest() {
		t.Fatal("explicit generation 0 changed the digest of a pre-resharing config")
	}
	if gen2.Digest() == base.Digest() {
		t.Fatal("generation bump did not rotate the handshake digest")
	}
	if _, err := ParsePeerConfig([]byte(sec + "generation: -1\n" + roster)); err == nil {
		t.Fatal("negative generation accepted")
	}
}

// TestPeerConfigParseErrors locks in the loud-failure contract: operator
// typos are startup errors with line numbers, never silent defaults.
func TestPeerConfigParseErrors(t *testing.T) {
	sec := "secret: " + strings.Repeat("61", 32) + "\n"
	roster := "peers:\n  - id: 0\n    addr: 127.0.0.1:9400\n  - id: 1\n    addr: 127.0.0.1:9401\n"
	cases := []struct {
		name, yaml, wantErr string
	}{
		{"tab indentation", sec + "peers:\n\t- id: 0\n", "tab indentation"},
		{"duplicate key", sec + "t: 1\nt: 2\n" + roster, `duplicate key "t"`},
		{"unknown key", sec + "tt: 1\n" + roster, `unknown key "tt"`},
		{"unknown peer key", sec + "peers:\n  - id: 0\n    address: x:1\n", `unknown peer key "address"`},
		{"bad secret hex", "secret: zz\n" + roster, "not valid hex"},
		{"short secret", "secret: 6161\n" + roster, "≥ 16 bytes"},
		{"non-integer t", sec + "t: one\n" + roster, "wants an integer"},
		{"peers scalar", sec + "peers: 3\n", "must introduce a list"},
		{"field before item", sec + "peers:\n    id: 0\n", "before any - item"},
		{"indent outside peers", sec + "t: 1\n  stray: 1\n", "outside peers"},
		{"missing peer id", sec + "peers:\n  - addr: 127.0.0.1:9400\n", "has no id"},
		{"duplicate peer id", sec + "peers:\n  - id: 0\n    addr: a:1\n  - id: 0\n    addr: b:1\n", "duplicate peer id"},
		{"id gap", sec + "peers:\n  - id: 0\n    addr: a:1\n  - id: 2\n    addr: b:1\n", "ids must cover"},
		{"duplicate addr", sec + "peers:\n  - id: 0\n    addr: a:1\n  - id: 1\n    addr: a:1\n", "share addr"},
		{"missing addr", sec + "peers:\n  - id: 0\n  - id: 1\n    addr: a:1\n", "has no addr"},
		{"unterminated quote", sec + "cluster: 'demo\n" + roster, "unterminated"},
		{"no colon", sec + "what\n" + roster, "expected key: value"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ParsePeerConfig([]byte(tc.yaml))
			if err == nil {
				t.Fatalf("accepted:\n%s", tc.yaml)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not mention %q", err, tc.wantErr)
			}
		})
	}
}

// --- handshake ----------------------------------------------------------------

var testDigest = [32]byte{1, 2, 3}

func handshakePipe() (dialer, accepter net.Conn) {
	return net.Pipe()
}

func TestHandshakeGood(t *testing.T) {
	secret := []byte("0123456789abcdef")
	dc, ac := handshakePipe()
	defer dc.Close()
	defer ac.Close()
	accErr := make(chan error, 1)
	go func() {
		from, err := acceptHandshake(ac, secret, 2, testDigest)
		if err == nil && from != 5 {
			err = fmt.Errorf("authenticated wrong dialer id %d", from)
		}
		accErr <- err
	}()
	if err := dialHandshake(dc, secret, 5, 2, testDigest); err != nil {
		t.Fatalf("dialer: %v", err)
	}
	if err := <-accErr; err != nil {
		t.Fatalf("accepter: %v", err)
	}
}

// TestHandshakeBadVersion crafts a HELLO from a build speaking a different
// wire version: the accepter must reject with ErrBadVersion, and the raw
// REJECT frame must map back to ErrBadVersion at the dialer.
func TestHandshakeBadVersion(t *testing.T) {
	secret := []byte("0123456789abcdef")
	dc, ac := handshakePipe()
	defer dc.Close()
	defer ac.Close()
	accErr := make(chan error, 1)
	go func() {
		_, err := acceptHandshake(ac, secret, 2, testDigest)
		accErr <- err
	}()

	hello := make([]byte, 0, helloLen)
	hello = append(hello, helloMagic...)
	hello = append(hello, peerWireVersion+1) // foreign build
	hello = append(hello, []byte{2, 0, 0, 0}...)
	hello = append(hello, testDigest[:]...)
	hello = append(hello, make([]byte, nonceLen)...)
	if err := writeFrame(dc, framePeerHello, 5, hello); err != nil {
		t.Fatal(err)
	}
	typ, code, payload, err := readFrame(dc)
	if err != nil {
		t.Fatal(err)
	}
	if typ != framePeerReject {
		t.Fatalf("expected a REJECT frame, got type %d", typ)
	}
	if err := rejectError(code, string(payload)); !errors.Is(err, ErrBadVersion) {
		t.Fatalf("reject maps to %v, want ErrBadVersion", err)
	}
	if err := <-accErr; !errors.Is(err, ErrBadVersion) {
		t.Fatalf("accepter error = %v, want ErrBadVersion", err)
	}
}

// TestHandshakeIdentityMismatch dials a listener that is not the player the
// roster promised: both sides must fail with ErrIdentityMismatch.
func TestHandshakeIdentityMismatch(t *testing.T) {
	secret := []byte("0123456789abcdef")
	dc, ac := handshakePipe()
	defer dc.Close()
	defer ac.Close()
	accErr := make(chan error, 1)
	go func() {
		_, err := acceptHandshake(ac, secret, 1, testDigest) // we are player 1...
		accErr <- err
	}()
	err := dialHandshake(dc, secret, 5, 2, testDigest) // ...dialer wanted player 2
	if !errors.Is(err, ErrIdentityMismatch) {
		t.Fatalf("dialer error = %v, want ErrIdentityMismatch", err)
	}
	if err := <-accErr; !errors.Is(err, ErrIdentityMismatch) {
		t.Fatalf("accepter error = %v, want ErrIdentityMismatch", err)
	}
}

// TestHandshakeConfigMismatch runs the handshake between two daemons that
// loaded different peers.yaml files: ErrConfigMismatch on both sides.
func TestHandshakeConfigMismatch(t *testing.T) {
	secret := []byte("0123456789abcdef")
	dc, ac := handshakePipe()
	defer dc.Close()
	defer ac.Close()
	otherDigest := testDigest
	otherDigest[0] ^= 0xFF
	accErr := make(chan error, 1)
	go func() {
		_, err := acceptHandshake(ac, secret, 2, otherDigest)
		accErr <- err
	}()
	err := dialHandshake(dc, secret, 5, 2, testDigest)
	if !errors.Is(err, ErrConfigMismatch) {
		t.Fatalf("dialer error = %v, want ErrConfigMismatch", err)
	}
	if err := <-accErr; !errors.Is(err, ErrConfigMismatch) {
		t.Fatalf("accepter error = %v, want ErrConfigMismatch", err)
	}
}

// TestHandshakeWrongSecret gives the accepter a different cluster secret:
// its WELCOME MAC cannot verify, so the dialer refuses to authenticate.
func TestHandshakeWrongSecret(t *testing.T) {
	dc, ac := handshakePipe()
	defer dc.Close()
	defer ac.Close()
	go func() {
		acceptHandshake(ac, []byte("wrong-secret-bbbb"), 2, testDigest)
	}()
	err := dialHandshake(dc, []byte("right-secret-aaaa"), 5, 2, testDigest)
	if !errors.Is(err, ErrIdentityMismatch) {
		t.Fatalf("dialer error = %v, want ErrIdentityMismatch (MAC failure)", err)
	}
}

// TestHandshakeRejectsNonHello: the first frame on an inbound connection must
// be a peer hello, not round traffic.
func TestHandshakeRejectsNonHello(t *testing.T) {
	dc, ac := handshakePipe()
	defer dc.Close()
	defer ac.Close()
	go writeFrame(dc, frameData, 0, []byte{0xAA})
	if _, err := acceptHandshake(ac, []byte("0123456789abcdef"), 2, testDigest); !errors.Is(err, ErrIdentityMismatch) {
		t.Fatalf("accepter error = %v, want ErrIdentityMismatch", err)
	}
}

// TestDuplicatePlayerRejected connects a full mesh, then impersonates an
// already-connected player against a live accepter: the second connection
// must be refused with ErrDuplicatePlayer and the mesh must stay intact.
func TestDuplicatePlayerRejected(t *testing.T) {
	cfg := testPeerCfg(t, 3)
	nws := startPeerCluster(t, cfg)

	conn, err := net.Dial("tcp", cfg.Peers[0].Addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	err = dialHandshake(conn, cfg.Secret, 1, 0, cfg.Digest())
	if err == nil {
		// The duplicate is only detected after the handshake binds; the
		// REJECT arrives as the next frame.
		typ, code, payload, rerr := readFrame(conn)
		if rerr != nil || typ != framePeerReject {
			t.Fatalf("no REJECT after duplicate handshake (type %d, err %v)", typ, rerr)
		}
		err = rejectError(code, string(payload))
	}
	if !errors.Is(err, ErrDuplicatePlayer) {
		t.Fatalf("duplicate dial error = %v, want ErrDuplicatePlayer", err)
	}
	// The real player 1's connection must still be bound.
	if !nws[0].pn.inboundBound(1) {
		t.Fatal("duplicate rejection displaced the legitimate connection")
	}
}

// --- rounds over the peer transport -------------------------------------------

// TestPeerRoundDelivery runs a lockstep broadcast protocol across three
// in-process daemons and checks every round delivers everyone's traffic in
// deterministic order.
func TestPeerRoundDelivery(t *testing.T) {
	const rounds = 5
	nws := startPeerCluster(t, testPeerCfg(t, 3))
	runOnPeers(t, nws, func(nd *Node) (interface{}, error) {
		for r := 0; r < rounds; r++ {
			nd.Broadcast([]byte{byte(nd.Index()), byte(r)})
			msgs, err := nd.EndRound()
			if err != nil {
				return nil, fmt.Errorf("round %d: %w", r, err)
			}
			if len(msgs) != 3 {
				return nil, fmt.Errorf("round %d: got %d messages, want 3", r, len(msgs))
			}
			for j, m := range msgs {
				if m.From != j || m.Payload[0] != byte(j) || m.Payload[1] != byte(r) {
					return nil, fmt.Errorf("round %d: message %d is %d/%v", r, j, m.From, m.Payload)
				}
			}
		}
		return nil, nil
	})
}

// runOnPeers opens the round machinery at round 0 on every daemon of the
// cluster, runs fn on each daemon's own node concurrently, and returns the
// per-player values; any player error fails the test.
func runOnPeers(t *testing.T, nws []*Network, fn PlayerFunc) []interface{} {
	t.Helper()
	for i, nw := range nws {
		if err := nw.StartAt(0); err != nil {
			t.Fatalf("StartAt(%d): %v", i, err)
		}
	}
	results := make([]PlayerResult, len(nws))
	var wg sync.WaitGroup
	for i, nw := range nws {
		wg.Add(1)
		go func(i int, nd *Node) {
			defer wg.Done()
			v, err := fn(nd)
			results[i] = PlayerResult{Value: v, Err: err}
		}(i, nw.Node(i))
	}
	wg.Wait()
	out := make([]interface{}, len(nws))
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("player %d: %v", i, r.Err)
		}
		out[i] = r.Value
	}
	return out
}

// TestPeerMatchesInMemorySemantics runs the same multi-round protocol —
// SendAll, Broadcast and self-sends mixed — on the in-memory network and on
// a 4-daemon loopback mesh, and compares every player's complete view:
// which messages arrive at which boundary, of which kind, in which order.
func TestPeerMatchesInMemorySemantics(t *testing.T) {
	const n, rounds = 4, 6
	protocol := func(nd *Node) (interface{}, error) {
		var transcript bytes.Buffer
		for r := 0; r < rounds; r++ {
			nd.SendAll([]byte{byte(nd.Index()), byte(r)})
			if r%2 == 0 {
				nd.Broadcast([]byte{0xb0, byte(r)})
			}
			if r%3 == 0 {
				nd.Send(nd.Index(), []byte{0x5e, byte(r)}) // self-send
			}
			msgs, err := nd.EndRound()
			if err != nil {
				return nil, err
			}
			for _, m := range msgs {
				fmt.Fprintf(&transcript, "r%d from%d kind%d %x;", r, m.From, m.Kind, m.Payload)
			}
		}
		return transcript.String(), nil
	}

	fns := make([]PlayerFunc, n)
	for i := range fns {
		fns[i] = protocol
	}
	mem := Run(New(n), fns)
	peer := runOnPeers(t, startPeerCluster(t, testPeerCfg(t, n)), protocol)
	for i := range mem {
		if mem[i].Err != nil {
			t.Fatalf("in-memory player %d: %v", i, mem[i].Err)
		}
		if mem[i].Value != peer[i] {
			t.Fatalf("player %d transcripts differ:\n mem:  %s\n peer: %s", i, mem[i].Value, peer[i])
		}
	}
}

// TestPeerLargePayloads pushes 8 × 1 MiB frames through both directions of
// one pair in the same round — more than an undrained loopback socket
// buffers, so each daemon's flush blocks until the other side's reader
// drains it. The flush runs outside the transport lock precisely so that
// this cannot deadlock.
func TestPeerLargePayloads(t *testing.T) {
	const frames = 8
	big := make([]byte, 1<<20)
	for i := range big {
		big[i] = byte(i * 7)
	}
	nws := startPeerCluster(t, testPeerCfg(t, 2))
	runOnPeers(t, nws, func(nd *Node) (interface{}, error) {
		for i := 0; i < frames; i++ {
			nd.Send(1-nd.Index(), big)
		}
		msgs, err := nd.EndRound()
		if err != nil {
			return nil, err
		}
		if len(msgs) != frames {
			return nil, fmt.Errorf("got %d messages, want %d", len(msgs), frames)
		}
		for _, m := range msgs {
			if !bytes.Equal(m.Payload, big) {
				return nil, fmt.Errorf("payload corrupted in transit")
			}
		}
		return nil, nil
	})
}

// TestPeerCloseUnblocksWaiters: Close must release an EndRound blocked on the
// distributed barrier (here player 1 never ends its round) with
// ErrPeerClosed, and be idempotent.
func TestPeerCloseUnblocksWaiters(t *testing.T) {
	nws := startPeerCluster(t, testPeerCfg(t, 2))
	if err := nws[0].StartAt(0); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := nws[0].Node(0).EndRound()
		done <- err
	}()
	nws[0].Close()
	if err := <-done; !errors.Is(err, ErrPeerClosed) {
		t.Fatalf("EndRound after Close = %v, want ErrPeerClosed", err)
	}
	nws[0].Close()
}

// TestPeerReconnectResumesRounds cuts one established connection mid-run.
// The transport must redial, and rounds must keep completing on every
// player — with at most the one in-flight message lost on the cut edge and
// later rounds carrying the sender's traffic again.
func TestPeerReconnectResumesRounds(t *testing.T) {
	const rounds, cutAfter = 8, 3
	cfg := testPeerCfg(t, 3)
	nws := startPeerCluster(t, cfg,
		WithRoundTimeout(5*time.Second),
		WithDialBackoff(20*time.Millisecond, 100*time.Millisecond))
	for _, nw := range nws {
		if err := nw.StartAt(0); err != nil {
			t.Fatal(err)
		}
	}

	// A reusable barrier so the cut happens between rounds, when no flush
	// is in flight anywhere.
	step := make(chan struct{})
	var arrived sync.WaitGroup
	sync3 := func() {
		arrived.Done()
		<-step
	}
	arrived.Add(3)
	go func() {
		for r := 0; r < rounds; r++ {
			arrived.Wait()
			arrived.Add(3)
			if r == cutAfter {
				// Sever player 0's established connection to player 1.
				pc := nws[0].pn.out[1]
				pc.mu.Lock()
				if pc.conn != nil {
					pc.conn.Close()
				}
				pc.mu.Unlock()
			}
			for i := 0; i < 3; i++ {
				step <- struct{}{}
			}
		}
	}()

	type tally struct{ total, lastFrom0 int }
	results := make([]tally, 3)
	errs := make([]error, 3)
	var wg sync.WaitGroup
	for i, nw := range nws {
		wg.Add(1)
		go func(i int, nw *Network) {
			defer wg.Done()
			nd := nw.Node(i)
			for r := 0; r < rounds; r++ {
				sync3()
				nd.Broadcast([]byte{byte(i), byte(r)})
				msgs, err := nd.EndRound()
				if err != nil {
					errs[i] = fmt.Errorf("round %d: %w", r, err)
					return
				}
				results[i].total += len(msgs)
				if r == rounds-1 {
					for _, m := range msgs {
						if m.From == 0 {
							results[i].lastFrom0++
						}
					}
				}
			}
		}(i, nw)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("player %d: %v", i, err)
		}
	}
	for i, res := range results {
		// Player 1 may lose the single message player 0 flushed into the
		// cut; everyone else sees full traffic.
		if res.total < rounds*3-1 {
			t.Fatalf("player %d delivered only %d/%d messages", i, res.total, rounds*3)
		}
		if res.lastFrom0 != 1 {
			t.Fatalf("player %d: final round carried %d messages from player 0, want 1 (reconnect failed?)", i, res.lastFrom0)
		}
	}
}
