package simnet

// Peer transport: the multi-process deployment of the synchronous network.
// Where the in-memory transport keeps all n players in one process and one
// barrier, this file gives each daemon exactly ONE live node — its own
// player — and stretches the round barrier across processes:
//
//   - Every daemon dials every other peer (full mesh, two simplex
//     connections per pair) and authenticates each connection with the
//     handshake in handshake.go before any protocol byte flows.
//   - Data, broadcast and done frames are round-stamped. A per-peer
//     *watermark* records the highest round each peer has declared complete
//     (its done markers, or the status frame it sends on (re)connect).
//   - EndRound(r) flushes this player's round-r traffic, then waits until
//     watermark[j] ≥ r for every peer j in the *required set*. Peers that
//     miss the round deadline are demoted out of the required set (the
//     barrier stops waiting for them — a crashed daemon must not stall the
//     beacon); a demoted peer that reconnects and announces a current
//     watermark is promoted back in. One timer per network, re-armed each
//     round, carries that deadline.
//   - A round costs one socket write per peer: the round's data and
//     broadcast frames for that peer, then its done marker, are appended to
//     one buffer and written together under one write deadline. The
//     receiving side reads each connection through a bufio.Reader, created
//     after the handshake, so the whole flush usually arrives in one read.
//     Only done and status frames wake the barrier: a connection is FIFO
//     and read by one goroutine, so a peer's round-r data is staged before
//     its round-r done marker can be.
//   - Frames for future rounds (a peer may legitimately run one round ahead,
//     or far ahead of a daemon that is still catching up) are buffered in a
//     round-keyed staging area; frames for already-committed rounds are
//     dropped. Delivery order within a round is (sender, sender's emission
//     order), so every daemon that receives the same frames delivers them in
//     the same order.
//
// Two departures from the in-memory transport, both inherent to real
// distribution, are worth knowing:
//
//   - Broadcast is fan-out, not an ideal facility. A *corrupt* sender could
//     equivocate across its point-to-point copies; the non-equivocation that
//     Network.Broadcast guarantees in-process holds here only for honest
//     senders. The §4 protocols the beacon runs do not assume the ideal
//     facility, so this is a documentation caveat, not a soundness hole.
//   - Delivery is not perfectly symmetric at a demoted/rejoining peer's
//     boundary rounds: one daemon may include a share another missed. The
//     Coin-Expose decoder tolerates exactly this (the Berlekamp–Welch error
//     budget adapts to the shares received), which is why demotion is safe
//     for up to t simultaneously missing players.
//
// A connection also carries an application query side-channel (STATE /
// log-fetch requests for rejoin catch-up, see internal/beacon): a daemon
// writes framePeerQuery on its outgoing connection and the peer answers
// with framePeerReply on the same connection, outside the round machinery.

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// ErrNotStarted is returned by EndRound on a peer network before StartAt.
var ErrNotStarted = errors.New("simnet: peer network not started (call StartAt)")

// ErrPeerClosed is the base error after Close tears the peer network down.
var ErrPeerClosed = errors.New("simnet: peer network closed")

// writeTimeout is the deadline of every socket write — one round's flush to
// a peer, one status, query or reply frame — and of a dial. Each write sets
// its own deadline first, so none is ever cleared. A blocked write marks the
// connection broken and hands it to the redial loop rather than stalling
// the round.
const writeTimeout = 5 * time.Second

// maxPendingKeep caps the flush buffer a peer connection keeps between
// rounds: a round that grew it past this (a megabyte payload) gives it back
// to the collector instead of pinning it.
const maxPendingKeep = 64 << 10

// maxFutureWindow bounds how far ahead of the newest known round a frame may
// be staged; anything further is dropped as garbage. One round of real
// traffic is small, so the window is generous.
const maxFutureWindow = 1024

// QueryHandler answers application queries from authenticated peers, outside
// the round machinery. It runs on the peer's inbound reader goroutine, so it
// must be quick and must not call into the Node round API. A nil return is
// sent as an empty reply.
type QueryHandler func(from int, req []byte) []byte

// peerOptions collects the peer-mode tunables, all settable through the
// regular Option mechanism (in-memory networks ignore them).
type peerOptions struct {
	roundTimeout time.Duration
	backoffMin   time.Duration
	backoffMax   time.Duration
	scheduleUnit time.Duration
	queryHandler QueryHandler
	metrics      *PeerMetrics
}

// WithRoundTimeout sets how long a peer-mode EndRound waits for lagging
// required peers before demoting them and committing the round without them
// (default 10s). Too low risks demoting healthy peers on scheduling jitter;
// too high stalls the beacon that long when a daemon crashes.
func WithRoundTimeout(d time.Duration) Option {
	return func(nw *Network) { nw.peerOpts.roundTimeout = d }
}

// WithDialBackoff sets the bounds of the exponential redial backoff in peer
// mode (defaults 100ms and 3s). Redialing never gives up until Close.
func WithDialBackoff(min, max time.Duration) Option {
	return func(nw *Network) {
		nw.peerOpts.backoffMin = min
		nw.peerOpts.backoffMax = max
	}
}

// WithQueryHandler installs the application query handler (see QueryHandler)
// answering framePeerQuery requests in peer mode.
func WithQueryHandler(h QueryHandler) Option {
	return func(nw *Network) { nw.peerOpts.queryHandler = h }
}

// WithScheduleUnit sets, for peer networks under a hostile Schedule, the
// wall-clock length of one schedule delay round (default 50ms): a done
// frame delayed d rounds by a DelayRule is held d×unit before it advances
// the local watermark. The in-memory transport, which enacts delays as
// round shifts, ignores it.
func WithScheduleUnit(d time.Duration) Option {
	return func(nw *Network) { nw.peerOpts.scheduleUnit = d }
}

// peerNet is the per-daemon transport state behind a peer-mode Network.
type peerNet struct {
	nw     *Network
	cfg    *PeerConfig
	self   int
	digest [32]byte
	opts   peerOptions

	ln   net.Listener
	out  []*peerConn      // outgoing authenticated connections, nil at self
	inst *peerInstruments // prom instrumentation (on no registry when not configured)

	// epoch is this daemon's beacon epoch + 1 (0 = never set), stamped on
	// every done/status frame so peers can track cluster epoch positions.
	epoch atomic.Int64

	mu        sync.Mutex
	cond      *sync.Cond
	round     int // committed barriers == local node's current round
	started   bool
	closed    bool
	closeErr  error
	watermark []int             // highest round each peer declared complete; -1 unseen
	required  []bool            // peers the barrier waits for
	peerEpoch []int             // epoch each peer last announced; -1 unseen
	staged    map[int][]Message // round → staged messages (remote + self copies)
	seq       uint64

	// The barrier timer: one per network, armed by each endRound for round
	// barrierRound, due at barrierDue; expired is the last round whose wait
	// it ended (-1 none). See barrierFired.
	barrier      *time.Timer
	barrierRound int
	barrierDue   time.Time
	expired      int

	inMu   sync.Mutex
	inConn []net.Conn // live inbound connection per peer id (duplicate guard)

	qMu      sync.Mutex
	qSeq     uint64
	qPending map[uint64]qWaiter

	done chan struct{}
	wg   sync.WaitGroup
}

// qWaiter is one in-flight Query: the peer it was addressed to and the
// channel its reply is delivered on. Binding the waiter to the target peer
// is what makes query ids unforgeable across peers: ids are sequential and
// predictable, so a Byzantine peer could otherwise pre-send replies on its
// OWN connection that answer queries addressed to honest peers — defeating
// the t+1 cross-check the rejoin log backfill relies on.
type qWaiter struct {
	to int
	ch chan []byte
}

// peerConn is one outgoing connection slot, owned by its dialLoop goroutine.
type peerConn struct {
	pn *peerNet
	to int

	// pending holds the current round's encoded frames for this peer until
	// flush writes them. Only the node goroutine (endRound) touches it.
	pending []byte

	mu      sync.Mutex
	conn    net.Conn // nil while disconnected
	flushed int      // last round whose done marker we wrote on any conn
}

// NewPeer creates the peer-mode network for player `self` of the cluster in
// cfg: it starts listening on cfg.ListenAddr(self), begins dialing every
// other peer (retrying forever with bounded backoff), and returns
// immediately. Only Node(self) may be driven; the other Node handles exist
// solely so protocol code sees the usual n-player index space. Call
// WaitPeers to block until the mesh is up, StartAt to open the round
// machinery, and Close to tear everything down.
//
// NewPeer does not retain or mutate cfg: it validates and uses a private
// copy, so one parsed config may safely back several NewPeer calls (as the
// in-process cluster tests do).
func NewPeer(cfg *PeerConfig, self int, opts ...Option) (*Network, error) {
	clone := *cfg
	clone.Peers = append([]Peer(nil), cfg.Peers...)
	clone.Secret = append([]byte(nil), cfg.Secret...)
	cfg = &clone
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if self < 0 || self >= cfg.N() {
		return nil, fmt.Errorf("simnet: player %d outside cluster of %d", self, cfg.N())
	}
	nw := New(cfg.N(), opts...)
	if nw.peerOpts.roundTimeout <= 0 {
		nw.peerOpts.roundTimeout = 10 * time.Second
	}
	if nw.peerOpts.backoffMin <= 0 {
		nw.peerOpts.backoffMin = 100 * time.Millisecond
	}
	if nw.peerOpts.backoffMax < nw.peerOpts.backoffMin {
		nw.peerOpts.backoffMax = 3 * time.Second
	}
	if nw.peerOpts.scheduleUnit <= 0 {
		nw.peerOpts.scheduleUnit = 50 * time.Millisecond
	}

	pn := &peerNet{
		nw:        nw,
		cfg:       cfg,
		self:      self,
		digest:    cfg.Digest(),
		opts:      nw.peerOpts,
		watermark: make([]int, cfg.N()),
		required:  make([]bool, cfg.N()),
		peerEpoch: make([]int, cfg.N()),
		staged:    make(map[int][]Message),
		expired:   -1,
		inConn:    make([]net.Conn, cfg.N()),
		qPending:  make(map[uint64]qWaiter),
		done:      make(chan struct{}),
	}
	pn.inst = newPeerInstruments(nw.peerOpts.metrics, cfg.N())
	pn.cond = sync.NewCond(&pn.mu)
	for i := range pn.watermark {
		pn.watermark[i] = -1
		pn.peerEpoch[i] = -1
		pn.required[i] = i != self
	}

	ln, err := net.Listen("tcp", cfg.ListenAddr(self))
	if err != nil {
		return nil, fmt.Errorf("simnet: peer %d listen %s: %w", self, cfg.ListenAddr(self), err)
	}
	pn.ln = ln
	nw.pn = pn

	pn.wg.Add(1)
	go pn.acceptLoop()

	pn.out = make([]*peerConn, cfg.N())
	for j := 0; j < cfg.N(); j++ {
		if j == self {
			continue
		}
		pc := &peerConn{pn: pn, to: j, flushed: -1}
		pn.out[j] = pc
		pn.wg.Add(1)
		go pc.dialLoop()
	}
	return nw, nil
}

// ---------------------------------------------------------------------------
// Outgoing side: dial, authenticate, redial on breakage.

// dialLoop owns the connection to one peer: dial with exponential backoff,
// run the handshake, announce our flush watermark with a status frame, then
// sit in replyRead until the connection breaks and go around again. It exits
// only at Close.
func (pc *peerConn) dialLoop() {
	pn := pc.pn
	defer pn.wg.Done()
	backoff := pn.opts.backoffMin
	for {
		select {
		case <-pn.done:
			return
		default:
		}
		conn, err := net.DialTimeout("tcp", pn.cfg.Peers[pc.to].Addr, writeTimeout)
		if err != nil {
			pn.inst.hsDialErr.Inc()
		} else {
			conn.SetDeadline(time.Now().Add(10 * time.Second))
			err = dialHandshake(conn, pn.cfg.Secret, pn.self, pc.to, pn.digest)
			if err != nil {
				pn.inst.hsReject.Inc()
				conn.Close()
			} else {
				pn.inst.hsOK.Inc()
				conn.SetDeadline(time.Time{})
			}
		}
		if err != nil {
			pn.inst.backoff[pc.to].Set(backoff.Seconds())
			select {
			case <-pn.done:
				return
			case <-time.After(backoff):
			}
			backoff *= 2
			if backoff > pn.opts.backoffMax {
				backoff = pn.opts.backoffMax
			}
			continue
		}
		backoff = pn.opts.backoffMin
		pn.inst.backoff[pc.to].Set(0)
		pn.inst.connects[pc.to].Inc()
		pn.inst.connected[pc.to].Set(1)

		pc.mu.Lock()
		pc.conn = conn
		flushed := pc.flushed
		pc.mu.Unlock()
		pn.mu.Lock()
		pn.cond.Broadcast() // wake WaitPeers
		started := pn.started
		pn.mu.Unlock()
		// Announce how far we have flushed so the peer can (re)admit us to
		// its required set at the right round. Before StartAt this is -1,
		// which is deliberately never promoting.
		if started || flushed >= 0 {
			pc.write(framePeerStatus, flushed, pn.epochPayload())
		}

		pc.replyRead(conn) // blocks until the connection dies
		pc.clear(conn)
		pn.inst.connected[pc.to].Set(0)
	}
}

// replyRead drains the peer's replies off our outgoing connection (the only
// frames an accepter sends after the handshake) and routes them to waiting
// Query calls. A reply only settles the pending query if that query was
// addressed to THIS peer (see qWaiter); a reply claiming another peer's id
// is a forgery attempt and drops the connection. Returning means the
// connection is broken.
func (pc *peerConn) replyRead(conn net.Conn) {
	pn := pc.pn
	br := bufio.NewReader(conn) // after the handshake, which reads the bare conn
	for {
		typ, _, payload, err := readFrame(br)
		if err != nil {
			return
		}
		if typ != framePeerReply || len(payload) < 8 {
			return // protocol violation: drop the connection, redial
		}
		id := binary.LittleEndian.Uint64(payload[:8])
		pn.qMu.Lock()
		w, ok := pn.qPending[id]
		if ok && w.to == pc.to {
			delete(pn.qPending, id)
		}
		pn.qMu.Unlock()
		switch {
		case ok && w.to == pc.to:
			w.ch <- payload[8:]
		case ok:
			return // reply to a query addressed to a different peer: forged
		default:
			// Unknown id: a legitimately late reply whose Query already
			// timed out and cancelled. Ignore it.
		}
	}
}

// send writes buf — whole encoded frames — to conn in one Write under a
// fresh deadline. It is the one write primitive after the handshake: round
// flushes, status and query frames, and query replies.
func send(conn net.Conn, buf []byte) error {
	conn.SetWriteDeadline(time.Now().Add(writeTimeout))
	_, err := conn.Write(buf)
	return err
}

// sendLocked sends buf on the peer's current connection. On any failure the
// connection is closed and cleared so the dialLoop redials; the error is
// returned for callers that care (the round flush does not — a peer missing
// our traffic is the demotion machinery's problem, not the barrier's).
// Caller holds pc.mu.
func (pc *peerConn) sendLocked(buf []byte) error {
	if pc.conn == nil {
		return fmt.Errorf("simnet: peer %d not connected", pc.to)
	}
	if err := send(pc.conn, buf); err != nil {
		pc.conn.Close()
		pc.conn = nil
		return err
	}
	return nil
}

// write sends one frame outside the round flush: a status announcement or
// a query.
func (pc *peerConn) write(typ byte, arg int, payload []byte) error {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	return pc.sendLocked(appendFrame(nil, typ, arg, payload))
}

// flush ends round r on this connection: the done marker joins the round's
// pending frames and all of them leave in one write. A flush that fails, or
// finds the peer disconnected, drops the round's frames exactly as a lost
// connection would; none is carried into the next round.
func (pc *peerConn) flush(r int, epoch []byte) {
	pc.pending = appendFrame(pc.pending, frameDone, r, epoch)
	pc.mu.Lock()
	pc.flushed = r
	_ = pc.sendLocked(pc.pending)
	pc.mu.Unlock()
	if cap(pc.pending) > maxPendingKeep {
		pc.pending = nil
	} else {
		pc.pending = pc.pending[:0]
	}
}

// clear drops the given connection if it is still current (a write failure
// may have cleared it already).
func (pc *peerConn) clear(conn net.Conn) {
	pc.mu.Lock()
	if pc.conn == conn {
		pc.conn = nil
	}
	pc.mu.Unlock()
	conn.Close()
}

// connected reports whether the outgoing connection is currently up.
func (pc *peerConn) connected() bool {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	return pc.conn != nil
}

// ---------------------------------------------------------------------------
// Inbound side: accept, authenticate, ingest round traffic and queries.

// acceptLoop admits inbound connections until the listener closes.
func (pn *peerNet) acceptLoop() {
	defer pn.wg.Done()
	for {
		conn, err := pn.ln.Accept()
		if err != nil {
			return
		}
		pn.wg.Add(1)
		go pn.handleInbound(conn)
	}
}

// handleInbound authenticates one inbound connection, enforces the one-live-
// connection-per-player rule, and runs the frame ingest loop until the
// connection dies. The slot a connection holds is released when its reader
// exits, so a crashed peer's replacement connection is admitted as soon as
// the kernel reports the old socket dead.
func (pn *peerNet) handleInbound(conn net.Conn) {
	defer pn.wg.Done()
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	from, err := acceptHandshake(conn, pn.cfg.Secret, pn.self, pn.digest)
	if err != nil || from == pn.self || from < 0 || from >= pn.cfg.N() {
		conn.Close()
		return
	}
	conn.SetDeadline(time.Time{})

	pn.inMu.Lock()
	if pn.inConn[from] != nil {
		pn.inMu.Unlock()
		rejectPeer(conn, rejectDuplicate,
			fmt.Sprintf("player %d already has a live connection (duplicate -player index, or a stale half-open socket)", from))
		conn.Close()
		return
	}
	pn.inConn[from] = conn
	pn.inMu.Unlock()
	pn.mu.Lock()
	pn.cond.Broadcast() // WaitPeers counts inbound bindings too
	pn.mu.Unlock()

	pn.ingest(from, conn)

	pn.inMu.Lock()
	if pn.inConn[from] == conn {
		pn.inConn[from] = nil
	}
	pn.inMu.Unlock()
	conn.Close()
}

// inboundBound reports whether a live authenticated inbound connection from
// peer j is currently bound.
func (pn *peerNet) inboundBound(j int) bool {
	pn.inMu.Lock()
	defer pn.inMu.Unlock()
	return pn.inConn[j] != nil
}

// ingest is the inbound frame loop for one authenticated peer: round traffic
// into the staging area, done/status frames into the watermark, queries to
// the application handler.
func (pn *peerNet) ingest(from int, conn net.Conn) {
	var wmu sync.Mutex          // serializes reply writes on this connection
	br := bufio.NewReader(conn) // after the handshake, which reads the bare conn
	for {
		typ, arg, payload, err := readFrame(br)
		if err != nil {
			return
		}
		switch typ {
		case frameData, frameBroadcast:
			// Hostile-schedule enactment, wire side: a crash or partition
			// window covering (round, from→self) eats the frame, exactly as
			// if the link were down.
			if en := pn.nw.eng; en != nil && en.edgeDead(arg, from, pn.self) {
				continue
			}
			kind := Unicast
			if typ == frameBroadcast {
				kind = Broadcast
			}
			pn.stageRemote(from, arg, kind, payload)
		case frameDone:
			// Done/status frames optionally carry the sender's beacon epoch
			// as a 4-byte little-endian payload (absent from older senders
			// and daemons that never call SetEpoch; readers before this
			// field existed ignored the payload entirely, so the wire
			// version is unchanged).
			epoch := -1
			if len(payload) >= 4 {
				epoch = int(binary.LittleEndian.Uint32(payload))
			}
			// Hostile-schedule enactment, barrier side: a dead edge eats the
			// watermark advance (driving the demotion machinery, which is
			// the peer-mode model of a crash/partition), and a delay rule
			// holds it for d×unit of wall clock — the peer's whole round
			// arrives late, like a slow link. The hold runs on this reader
			// goroutine, so later frames from the same peer queue behind it,
			// preserving per-edge FIFO.
			if en := pn.nw.eng; en != nil {
				if en.edgeDead(arg, from, pn.self) {
					continue
				}
				if d := en.delayRounds(arg, from, pn.self); d > 0 {
					t := time.NewTimer(time.Duration(d) * pn.opts.scheduleUnit)
					select {
					case <-t.C:
					case <-pn.done:
						t.Stop()
						return
					}
				}
			}
			pn.advanceWatermark(from, arg, epoch)
		case framePeerStatus:
			// Status frames are the (re)join choreography, not round
			// traffic: the schedule engine leaves them alone so a demoted
			// peer's recovery path stays intact under any schedule.
			epoch := -1
			if len(payload) >= 4 {
				epoch = int(binary.LittleEndian.Uint32(payload))
			}
			pn.advanceWatermark(from, arg, epoch)
		case framePeerQuery:
			if len(payload) < 8 {
				return
			}
			id := payload[:8]
			var resp []byte
			if h := pn.opts.queryHandler; h != nil {
				resp = h(from, payload[8:])
			}
			pn.wg.Add(1)
			go func(id, resp []byte) {
				// Replies go out on their own goroutine: the reader must
				// keep draining round traffic even if the querier is slow
				// to read.
				defer pn.wg.Done()
				wmu.Lock()
				defer wmu.Unlock()
				_ = send(conn, appendFrame(nil, framePeerReply, 0, append(id, resp...)))
			}(append([]byte{}, id...), resp)
		default:
			return // protocol violation: drop the connection
		}
	}
}

// stageRemote buffers one round-stamped message from an authenticated peer.
// Stale frames (round already committed) are dropped; so are frames
// implausibly far in the future of anything we have heard of. Staging wakes
// no one: the barrier waits on watermarks, and the sender's done marker for
// this round arrives behind this frame on the same connection.
func (pn *peerNet) stageRemote(from, round int, kind Kind, payload []byte) {
	pn.mu.Lock()
	defer pn.mu.Unlock()
	horizon := pn.round
	for _, w := range pn.watermark {
		if w > horizon {
			horizon = w
		}
	}
	if round < pn.round || round > horizon+maxFutureWindow {
		return
	}
	pn.staged[round] = append(pn.staged[round], Message{
		From:    from,
		Kind:    kind,
		Payload: payload,
		seq:     pn.seq,
	})
	pn.seq++
}

// advanceWatermark records that `from` has declared rounds ≤ r complete, and
// promotes the peer back into the required set when its declared position is
// current (it has completed our previous round, so it will be sending
// traffic for the round our barrier is waiting on).
//
// Once the round machinery is started, the accepted watermark is clamped to
// maxFutureWindow past the local committed round: an honest peer can only be
// a round or two ahead (the barrier holds it back), so the clamp never binds
// for honest traffic, while a misbehaving peer declaring round 2^31 would
// otherwise inflate stageRemote's horizon and let far-future frames pile up
// unboundedly in the staged map. Before StartAt no clamp applies — a
// rejoining daemon's pn.round is still 0 while the cluster may legitimately
// be thousands of rounds ahead, and that unclamped window only lasts for
// the (bounded) join choreography.
func (pn *peerNet) advanceWatermark(from, r, epoch int) {
	pn.mu.Lock()
	defer pn.mu.Unlock()
	if pn.started {
		if limit := pn.round + maxFutureWindow; r > limit {
			r = limit
		}
	}
	if r > pn.watermark[from] {
		pn.watermark[from] = r
		pn.inst.watermark[from].SetInt(int64(r))
	}
	if epoch > pn.peerEpoch[from] {
		pn.peerEpoch[from] = epoch
		pn.inst.epoch[from].SetInt(int64(epoch))
	}
	if from != pn.self && pn.watermark[from] >= pn.round-1 && pn.watermark[from] >= 0 {
		pn.required[from] = true
	}
	pn.cond.Broadcast()
}

// epochPayload renders the current beacon epoch as a done/status frame
// payload, or nil when SetEpoch was never called (keeping those frames
// byte-identical to the pre-epoch wire format).
func (pn *peerNet) epochPayload() []byte {
	e := pn.epoch.Load()
	if e == 0 {
		return nil
	}
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], uint32(e-1))
	return b[:]
}

// ---------------------------------------------------------------------------
// Round machinery.

// StartAt opens the round machinery at round r: round 0 for a cluster-wide
// cold start, or the agreed rejoin round for a daemon re-entering a running
// cluster (see internal/beacon's catch-up choreography for how r is
// chosen). It purges any traffic staged for rounds before r and announces
// the position to every connected peer. StartAt does not wait for
// connections — use WaitPeers first.
func (nw *Network) StartAt(r int) error {
	pn := nw.pn
	if pn == nil {
		return errors.New("simnet: StartAt on a non-peer network")
	}
	if r < 0 {
		return fmt.Errorf("simnet: StartAt round %d", r)
	}
	pn.mu.Lock()
	if pn.closed {
		pn.mu.Unlock()
		return pn.closeErr
	}
	if pn.started {
		pn.mu.Unlock()
		return errors.New("simnet: StartAt called twice")
	}
	pn.started = true
	pn.round = r
	for round := range pn.staged {
		if round < r {
			delete(pn.staged, round)
		}
	}
	pn.mu.Unlock()
	nw.nodes[pn.self].round = r

	status := appendFrame(nil, framePeerStatus, r-1, pn.epochPayload())
	for _, pc := range pn.out {
		if pc == nil {
			continue
		}
		pc.mu.Lock()
		pc.flushed = r - 1
		_ = pc.sendLocked(status) // a peer that misses it hears it from dialLoop on reconnect
		pc.mu.Unlock()
	}
	return nil
}

// endRound is the peer-mode implementation of Node.EndRound: flush this
// round's traffic to every peer, wait for the distributed barrier, commit.
func (pn *peerNet) endRound(nd *Node) ([]Message, error) {
	if nd.idx != pn.self {
		return nil, fmt.Errorf("simnet: node %d is not local to this daemon (player %d)", nd.idx, pn.self)
	}
	if nd.halted {
		return nil, &HaltedError{Player: nd.idx, Round: nd.round}
	}
	pn.mu.Lock()
	started, closed, closeErr := pn.started, pn.closed, pn.closeErr
	pn.mu.Unlock()
	if closed {
		return nil, closeErr
	}
	if !started {
		return nil, ErrNotStarted
	}
	r := nd.round
	t0 := pn.inst.stamp()

	// Flush outside the lock: socket writes may block on deadlines, and the
	// inbound readers need the lock to keep staging (TestPeerLargePayloads
	// deadlocks otherwise). Each peer's frames are appended in emission
	// order and leave in one write with the done marker. Per-peer write
	// errors are swallowed — the failed connection is already handed to its
	// dialLoop, and the peer's own barrier will demote us if we stay gone.
	for _, s := range nd.outbox {
		switch {
		case s.to == nd.idx:
			// self-delivery staged below
		case s.to >= 0:
			pc := pn.out[s.to]
			pc.pending = appendFrame(pc.pending, frameData, r, s.msg.Payload)
		default: // broadcast fan-out; self copy staged below
			for _, pc := range pn.out {
				if pc != nil {
					pc.pending = appendFrame(pc.pending, frameBroadcast, r, s.msg.Payload)
				}
			}
		}
	}
	epoch := pn.epochPayload()
	for _, pc := range pn.out {
		if pc != nil {
			pc.flush(r, epoch)
		}
	}

	pn.mu.Lock()
	// Stage our own copies (self-sends and our broadcast echo) in emission
	// order.
	for _, s := range nd.outbox {
		if s.to == nd.idx || s.to < 0 {
			m := s.msg
			m.seq = pn.seq
			pn.seq++
			pn.staged[r] = append(pn.staged[r], m)
		}
	}
	nd.outbox = nd.outbox[:0]

	// Distributed barrier: wait for every required peer's watermark to reach
	// r, or for the round timeout, whichever first. Under a hostile
	// Schedule the timeout is stretched by the schedule's worst-case
	// delivery delay: a jittered honest peer can legitimately be
	// MaxDelay×unit late (its done frame is held exactly that long, see
	// ingest), and "slow under jitter" must not demote like "gone" does.
	grace := pn.opts.roundTimeout
	if pn.nw.eng != nil {
		grace += time.Duration(pn.nw.sched.MaxDelay()) * pn.opts.scheduleUnit
	}
	pn.armBarrierLocked(r, grace)
	for !pn.closed && pn.expired != r && !pn.barrierMetLocked(r) {
		pn.cond.Wait()
	}
	pn.barrier.Stop()
	if pn.closed {
		err := pn.closeErr
		pn.mu.Unlock()
		return nil, err
	}
	if pn.expired == r {
		for j := range pn.required {
			if pn.required[j] && pn.watermark[j] < r {
				pn.required[j] = false
				pn.inst.demotions[j].Inc()
				// A zero-length span marks the demotion on the obs timeline.
				pn.nw.tracer.Start(pn.self, r, obs.KindPhase, fmt.Sprintf("peer-demoted-%d", j)).End(r)
			}
		}
	}
	msgs := pn.commitLocked(r)
	pn.mu.Unlock()

	since(pn.inst.roundDur, t0)
	nd.round++
	return msgs, nil
}

// armBarrierLocked arms the network's one barrier timer for round r, due d
// from now. Caller holds pn.mu.
func (pn *peerNet) armBarrierLocked(r int, d time.Duration) {
	pn.barrierRound, pn.barrierDue = r, time.Now().Add(d)
	if pn.barrier == nil {
		pn.barrier = time.AfterFunc(d, pn.barrierFired)
		return
	}
	pn.barrier.Reset(d)
}

// barrierFired is the barrier timer's callback. Stop and Reset cannot
// recall a callback that has already started, so a fire may land after the
// round it was armed for committed, and even after the timer was re-armed
// for the next round. The round stamp catches the first (expireLocked
// ignores a committed round); the deadline the second: a fire that lands
// before the armed round is due belongs to an earlier arm and is dropped.
func (pn *peerNet) barrierFired() {
	pn.mu.Lock()
	defer pn.mu.Unlock()
	if !time.Now().Before(pn.barrierDue) {
		pn.expireLocked(pn.barrierRound)
	}
}

// expireLocked ends round r's barrier wait: the waiting endRound demotes
// every required peer that has not declared r complete. A round that has
// already committed is left alone. Caller holds pn.mu.
func (pn *peerNet) expireLocked(r int) {
	if r < pn.round {
		return
	}
	pn.expired = r
	pn.cond.Broadcast()
}

// barrierMetLocked reports whether every required peer has declared round r
// complete. Caller holds pn.mu.
func (pn *peerNet) barrierMetLocked(r int) bool {
	for j, req := range pn.required {
		if req && pn.watermark[j] < r {
			return false
		}
	}
	return true
}

// commitLocked seals round r: sort the staged messages into the canonical
// (sender, emission-order) delivery order, advance the round, release the
// staging slot. Caller holds pn.mu.
func (pn *peerNet) commitLocked(r int) []Message {
	msgs := pn.staged[r]
	delete(pn.staged, r)
	sortCanonical(msgs)
	if pn.nw.eng != nil {
		msgs = pn.nw.eng.reorder(r, pn.self, msgs)
	}
	pn.round = r + 1
	lead := r
	for _, w := range pn.watermark {
		if w > lead {
			lead = w
		}
	}
	pn.inst.updateLags(pn.self, lead, pn.watermark)
	if pn.nw.ctr != nil {
		pn.nw.ctr.AddRounds(1)
	}
	if pn.nw.tracer != nil {
		delivered := 0
		var totalBytes int64
		for _, m := range msgs {
			pn.nw.tracer.Deliver(m.From, pn.self, len(m.Payload), r)
			delivered++
			totalBytes += int64(len(m.Payload))
		}
		pn.nw.tracer.RoundBoundary(r, delivered, totalBytes)
	}
	pn.cond.Broadcast()
	return msgs
}

// ---------------------------------------------------------------------------
// Daemon-facing helpers.

// WaitPeers blocks until at least `min` peers are connected in BOTH
// directions (our authenticated dial to them is live, and their dial to us
// is bound), or the timeout elapses (returning an error naming the peers
// still missing). Requiring the inbound direction matters for joining: a
// peer's round traffic reaches us only over its own outgoing connection, so
// counting only our dials would let a joiner pick a start round whose
// shares can never arrive. min is capped at n−1. Use n−1 before a cold
// start (the bootstrap round needs the full mesh) and a quorum before a
// rejoin.
func (nw *Network) WaitPeers(min int, timeout time.Duration) error {
	pn := nw.pn
	if pn == nil {
		return errors.New("simnet: WaitPeers on a non-peer network")
	}
	if min > pn.cfg.N()-1 {
		min = pn.cfg.N() - 1
	}
	expired := false
	timer := time.AfterFunc(timeout, func() {
		pn.mu.Lock()
		expired = true
		pn.cond.Broadcast()
		pn.mu.Unlock()
	})
	defer timer.Stop()
	pn.mu.Lock()
	defer pn.mu.Unlock()
	for {
		if pn.closed {
			return pn.closeErr
		}
		up := 0
		var missing []int
		for j, pc := range pn.out {
			if pc == nil {
				continue
			}
			if pc.connected() && pn.inboundBound(j) {
				up++
			} else {
				missing = append(missing, j)
			}
		}
		if up >= min {
			return nil
		}
		if expired {
			return fmt.Errorf("simnet: player %d: only %d/%d peers connected after %v (missing %v)",
				pn.self, up, min, timeout, missing)
		}
		pn.cond.Wait()
	}
}

// PeerConnected reports which outgoing peer connections are currently live
// (the self slot is always false).
func (nw *Network) PeerConnected() []bool {
	out := make([]bool, nw.n)
	if nw.pn == nil {
		return out
	}
	for j, pc := range nw.pn.out {
		if pc != nil {
			out[j] = pc.connected()
		}
	}
	return out
}

// SetEpoch records this daemon's beacon epoch. Peer mode stamps it on every
// subsequent done/status frame (as an optional 4-byte payload older readers
// ignore), so peers can correlate round positions with refill generations;
// the simnet_peer_epoch{peer} gauge reports what each peer announced.
// In-memory networks ignore it.
func (nw *Network) SetEpoch(epoch int) {
	if nw.pn == nil || epoch < 0 {
		return
	}
	nw.pn.epoch.Store(int64(epoch) + 1)
}

// Query sends an application request to peer `to` over the authenticated
// connection and waits for its reply, outside the round machinery. It is the
// rejoin catch-up channel (STATE and log-fetch requests, see
// internal/beacon). Safe to call before StartAt; fails fast when the peer is
// not connected.
func (nw *Network) Query(to int, req []byte, timeout time.Duration) ([]byte, error) {
	pn := nw.pn
	if pn == nil {
		return nil, errors.New("simnet: Query on a non-peer network")
	}
	if to < 0 || to >= pn.cfg.N() || to == pn.self {
		return nil, fmt.Errorf("simnet: Query to invalid peer %d", to)
	}
	pn.qMu.Lock()
	id := pn.qSeq
	pn.qSeq++
	ch := make(chan []byte, 1)
	pn.qPending[id] = qWaiter{to: to, ch: ch}
	pn.qMu.Unlock()
	cancel := func() {
		pn.qMu.Lock()
		delete(pn.qPending, id)
		pn.qMu.Unlock()
	}

	q0 := pn.inst.stamp()
	payload := make([]byte, 8, 8+len(req))
	binary.LittleEndian.PutUint64(payload, id)
	payload = append(payload, req...)
	if err := pn.out[to].write(framePeerQuery, 0, payload); err != nil {
		cancel()
		return nil, err
	}
	select {
	case resp := <-ch:
		since(pn.inst.queryRTT[to], q0)
		return resp, nil
	case <-time.After(timeout):
		cancel()
		return nil, fmt.Errorf("simnet: query to peer %d timed out after %v", to, timeout)
	case <-pn.done:
		cancel()
		return nil, ErrPeerClosed
	}
}

// Close tears a peer network down (no-op for in-memory networks, which hold
// nothing to release). Safe to call multiple times.
func (nw *Network) Close() {
	if nw.pn != nil {
		nw.pn.close()
	}
}

// close tears the peer network down: listener, all connections, all loops.
func (pn *peerNet) close() {
	pn.mu.Lock()
	if pn.closed {
		pn.mu.Unlock()
		return
	}
	pn.closed = true
	pn.closeErr = ErrPeerClosed
	if pn.barrier != nil {
		pn.barrier.Stop()
	}
	pn.cond.Broadcast()
	pn.mu.Unlock()

	close(pn.done)
	pn.ln.Close()
	for _, pc := range pn.out {
		if pc == nil {
			continue
		}
		pc.mu.Lock()
		if pc.conn != nil {
			pc.conn.Close()
			pc.conn = nil
		}
		pc.mu.Unlock()
	}
	pn.inMu.Lock()
	for i, c := range pn.inConn {
		if c != nil {
			c.Close()
			pn.inConn[i] = nil
		}
	}
	pn.inMu.Unlock()
	pn.wg.Wait()
}
