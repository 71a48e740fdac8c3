package beacon

// Dealer-free committee handover (internal/reshare) wired into the daemon
// deployment. The choreography has two halves:
//
//   - While serving, an ARMED daemon (DaemonConfig.ReshareNext set)
//     negotiates a round-aligned cutover position with its peers over the
//     Query channel — see (*Daemon).reshareStep — pauses emission there,
//     journals the decision, and returns ErrReshareCutover.
//   - The process (cmd/beacond) then calls RunReshare: every participant —
//     old members, pure joiners, stale members recovering from a missed
//     refill — brings up a COMBINED mesh (old ∪ new roster, its own
//     config digest, so it can never cross-talk with either committee's
//     serving mesh), runs the reshare.Run ceremony over the journaled
//     store tail, backfills the public log for members that lack it, and
//     writes the next generation's player-NNN.* state files. The daemons
//     then restart against the new-generation peers.yaml.
//
// Crash safety is journal-based: reshare-journal.json records the target
// generation, the committed cutover and the attempt counter. A daemon that
// dies mid-negotiation re-adopts the journaled cutover; a process that
// dies mid-ceremony retries with a bumped attempt number (stale attempts
// consumed their challenge coin publicly, so an attempt number is never
// reused — reshare.Config.Attempt); a process that dies after the new
// store was written finds it on restart and only clears the journal (the
// store is the last file written — see writeGeneration).

import (
	"context"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/coin"
	"repro/internal/gf2k"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/reshare"
	"repro/internal/simnet"
)

// ErrReshareCutover is returned by Daemon.Run when an armed daemon reached
// the negotiated cutover position: its state is persisted, emission is
// stopped cluster-wide at the same log length, and the operator's (or
// supervisor's) next move is RunReshare followed by a restart against the
// next-generation peers.yaml.
var ErrReshareCutover = errors.New("beacon: reshare cutover reached (run the resharing ceremony, then restart with the new peers.yaml)")

// ReshareJournal is the crash-recovery record for an in-flight handover,
// persisted as reshare-journal.json in the state directory from the moment
// a cutover is committed until the ceremony's state files are durable.
type ReshareJournal struct {
	// ToGeneration is the generation being reshared INTO (the next
	// peers.yaml's generation field).
	ToGeneration int
	// Cutover is the committed public-log length at which the old
	// committee stops emitting; every participant reshapes the store tail
	// behind this position. -1 while negotiating.
	Cutover int
	// Attempt is the next ceremony attempt number to use. Bumped (and
	// fsynced) BEFORE each attempt runs, so a crashed attempt — which may
	// have publicly exposed its challenge coin — is never replayed.
	Attempt int
}

func reshareJournalFile(dir string) string {
	return filepath.Join(dir, "reshare-journal.json")
}

// LoadReshareJournal reads the journal; (nil, nil) when none exists.
func LoadReshareJournal(dir string) (*ReshareJournal, error) {
	data, err := os.ReadFile(reshareJournalFile(dir))
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var j ReshareJournal
	if err := json.Unmarshal(data, &j); err != nil {
		return nil, fmt.Errorf("beacon: reshare journal corrupt: %w", err)
	}
	return &j, nil
}

// SaveReshareJournal atomically persists the journal.
func SaveReshareJournal(dir string, j ReshareJournal) error {
	enc, err := json.Marshal(j)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o700); err != nil {
		return err
	}
	return writeAtomic(reshareJournalFile(dir), enc)
}

// ClearReshareJournal removes the journal, durably (missing is fine).
func ClearReshareJournal(dir string) error {
	_, err := syncDir(dir, reshareJournalFile(dir))
	return err
}

// CombinedConfig derives the ceremony mesh's peer config from the old and
// next rosters: old members keep their node ids 0..oldN-1, new members
// already present in the old roster (matched by dial address) reuse their
// old node, and pure joiners are appended in next-roster order. The
// returned newOf maps combined node → next-committee index (-1 for leaving
// members), in the exact shape reshare.Config.NewOf wants.
//
// The combined config's digest — and hence its handshake — pins BOTH
// source digests, the target generation and the attempt number via the
// cluster label, so a participant reading a different roster file, or
// retrying a different attempt, cannot connect at all.
func CombinedConfig(old, next *simnet.PeerConfig, attempt int) (*simnet.PeerConfig, []int, error) {
	if old == nil || next == nil {
		return nil, nil, errors.New("beacon: reshare needs both the old and the next peer config")
	}
	if next.Generation != old.Generation+1 {
		return nil, nil, fmt.Errorf("beacon: next config generation %d must be old generation %d + 1",
			next.Generation, old.Generation)
	}
	if effectiveK(old) != effectiveK(next) {
		return nil, nil, fmt.Errorf("beacon: reshare cannot change the coin field (k=%d → k=%d)",
			effectiveK(old), effectiveK(next))
	}
	if next.N() < 6*next.T+1 {
		return nil, nil, fmt.Errorf("beacon: next committee n=%d < 6t+1=%d cannot run the beacon",
			next.N(), 6*next.T+1)
	}
	if attempt < 0 {
		return nil, nil, fmt.Errorf("beacon: negative reshare attempt %d", attempt)
	}

	oldN := old.N()
	oldByAddr := make(map[string]int, oldN)
	for _, p := range old.Peers {
		oldByAddr[p.Addr] = p.ID
	}
	peers := append([]simnet.Peer(nil), old.Peers...)
	newOf := make([]int, oldN)
	for i := range newOf {
		newOf[i] = -1
	}
	for _, p := range next.Peers {
		if o, ok := oldByAddr[p.Addr]; ok {
			newOf[o] = p.ID
			// The staying member may have moved its NAT bind or
			// observability address between generations; the ceremony mesh
			// uses the next roster's view of both.
			peers[o].Listen = p.Listen
			peers[o].HTTP = p.HTTP
			continue
		}
		joiner := p
		joiner.ID = len(peers)
		peers = append(peers, joiner)
		newOf = append(newOf, p.ID)
	}

	od, nd := old.Digest(), next.Digest()
	mac := hmac.New(sha256.New, append(append([]byte{}, old.Secret...), next.Secret...))
	fmt.Fprintf(mac, "dprbg-reshare-secret\n%x\n%x\n", od, nd)
	cc := &simnet.PeerConfig{
		Cluster: fmt.Sprintf("reshare-%x-%x-g%d-a%d", od[:8], nd[:8], next.Generation, attempt),
		Secret:  mac.Sum(nil),
		Peers:   peers,
		T:       old.T,
		K:       old.K,
	}
	if err := cc.Validate(); err != nil {
		return nil, nil, fmt.Errorf("beacon: combined reshare roster: %w", err)
	}
	return cc, newOf, nil
}

func effectiveK(pc *simnet.PeerConfig) int {
	if pc.K == 0 {
		return 32
	}
	return pc.K
}

// ReshareConfig parameterizes one participant's side of the ceremony.
type ReshareConfig struct {
	// Old and Next are the two generations' peers.yaml files. Next's
	// generation must be Old's + 1.
	Old, Next *simnet.PeerConfig
	// OldSelf is this participant's index in the OLD roster, -1 for a pure
	// joiner. NewSelf is its index in the NEXT roster, -1 for a leaving
	// member. At least one must be set; when both are, they must describe
	// the same peer (matching dial address).
	OldSelf, NewSelf int
	// StateDir holds the participant's player files and the journal.
	StateDir string
	// Stale marks an old member whose store missed a refill (the
	// ErrEpochMismatch recovery path): it participates receive-only — it
	// is branded a cheating sub-dealer by the others (≤ t such members are
	// tolerated) but still receives fresh next-generation shares and
	// backfills its public log.
	Stale bool
	// Rand is this participant's private randomness for sub-dealing.
	Rand io.Reader
	// JoinTimeout bounds each attempt's mesh formation and backfill
	// (default 30s). RoundTimeout tunes the ceremony transport.
	JoinTimeout  time.Duration
	RoundTimeout time.Duration

	Counters    *metrics.Counters
	Tracer      *obs.Tracer
	Metrics     *DaemonMetrics
	PeerMetrics *simnet.PeerMetrics
	Logf        func(format string, args ...interface{})
}

// ReshareResult reports a completed handover.
type ReshareResult struct {
	// Generation is the new committee generation now on disk.
	Generation int
	// Cutover is the public-log length the committees agreed to hand over
	// at; the new committee resumes emitting coin #Cutover.
	Cutover int
	// Coins is the sealed-coin count in the reshared store.
	Coins int
	// Cheaters lists old-roster indices identified as faulty sub-dealers
	// (a Stale participant appears here by design).
	Cheaters []int
	// Attempt is the ceremony attempt that succeeded.
	Attempt int
	// Resumed is true when the ceremony found this participant's
	// next-generation store already on disk (crash after the writes) and
	// only cleared the journal.
	Resumed bool
}

// RunReshare executes this participant's side of the dealer-free handover
// ceremony: mesh up with the combined roster, reshare the journaled store
// tail, write the next generation's state files, clear the journal. It is
// safe to re-run after a crash at any point. On success the caller restarts
// the daemon against the Next config (a leaving member instead retires its
// now-toxic store, which RunReshare has already deleted).
func RunReshare(ctx context.Context, rc ReshareConfig) (*ReshareResult, error) {
	if rc.Logf == nil {
		rc.Logf = func(string, ...interface{}) {}
	}
	if rc.Metrics == nil {
		rc.Metrics = NewDaemonMetrics(nil)
	}
	if rc.JoinTimeout <= 0 {
		rc.JoinTimeout = 30 * time.Second
	}
	if rc.Old == nil || rc.Next == nil {
		return nil, errors.New("beacon: reshare needs both peer configs")
	}
	if rc.OldSelf < 0 && rc.NewSelf < 0 {
		return nil, errors.New("beacon: reshare participant is neither an old nor a new member")
	}
	if rc.OldSelf >= rc.Old.N() || rc.NewSelf >= rc.Next.N() {
		return nil, fmt.Errorf("beacon: reshare self (%d, %d) outside rosters (%d, %d)",
			rc.OldSelf, rc.NewSelf, rc.Old.N(), rc.Next.N())
	}
	if rc.OldSelf >= 0 && rc.NewSelf >= 0 &&
		rc.Old.Peers[rc.OldSelf].Addr != rc.Next.Peers[rc.NewSelf].Addr {
		return nil, fmt.Errorf("beacon: old self %d and new self %d have different dial addresses",
			rc.OldSelf, rc.NewSelf)
	}
	if rc.Stale && rc.OldSelf < 0 {
		return nil, errors.New("beacon: only an old member can be stale")
	}

	// Idempotent completion: the store is written LAST (writeGeneration),
	// so next-generation state that opens cleanly means the crash happened
	// between the writes and the journal removal — possibly before the old
	// identity's files were retired.
	if rc.NewSelf >= 0 {
		if ps, err := openPlayerState(rc.StateDir, rc.NewSelf, rc.Next.Generation); err == nil {
			ps.close()
			if _, err := syncDir(rc.StateDir, rc.retired()...); err != nil {
				return nil, err
			}
			if err := ClearReshareJournal(rc.StateDir); err != nil {
				return nil, err
			}
			rc.Logf("reshare to generation %d already completed; cleared journal", rc.Next.Generation)
			return &ReshareResult{Generation: rc.Next.Generation, Cutover: len(ps.log),
				Coins: ps.store.Remaining(), Resumed: true}, nil
		}
	}

	journal, err := LoadReshareJournal(rc.StateDir)
	if err != nil {
		return nil, err
	}
	if journal == nil {
		journal = &ReshareJournal{ToGeneration: rc.Next.Generation, Cutover: -1}
	}
	if journal.ToGeneration != rc.Next.Generation {
		return nil, fmt.Errorf("beacon: journal targets generation %d but the next config says %d — mixed roster files?",
			journal.ToGeneration, rc.Next.Generation)
	}

	// Three tries per call; every attempt bumps the journaled attempt number
	// first, so a retry (here or after a restart) never reuses one.
	const maxAttempts = 3
	var lastErr error
	for try := 0; try < maxAttempts; try++ {
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		attempt := journal.Attempt
		journal.Attempt = attempt + 1
		if err := SaveReshareJournal(rc.StateDir, *journal); err != nil {
			return nil, err
		}
		t0 := time.Now()
		res, err := runReshareAttempt(ctx, rc, journal, attempt)
		rc.Metrics.observeReshare(time.Since(t0).Seconds(), err == nil)
		if err == nil {
			return res, nil
		}
		lastErr = err
		rc.Logf("reshare attempt %d failed: %v", attempt, err)
	}
	return nil, fmt.Errorf("beacon: resharing failed after %d attempts: %w", maxAttempts, lastErr)
}

// runReshareAttempt is one pass: mesh, position agreement, backfill,
// ceremony, state writes.
func runReshareAttempt(ctx context.Context, rc ReshareConfig, journal *ReshareJournal, attempt int) (*ReshareResult, error) {
	cc, newOf, err := CombinedConfig(rc.Old, rc.Next, attempt)
	if err != nil {
		return nil, err
	}
	oldN := rc.Old.N()
	self := rc.OldSelf
	if self < 0 {
		addr := rc.Next.Peers[rc.NewSelf].Addr
		for _, p := range cc.Peers[oldN:] {
			if p.Addr == addr {
				self = p.ID
				break
			}
		}
		if self < 0 {
			return nil, fmt.Errorf("beacon: joiner %s not in the combined roster", addr)
		}
	}
	if rc.NewSelf != newOf[self] {
		return nil, fmt.Errorf("beacon: reshare self mismatch: combined node %d maps to new index %d, not %d",
			self, newOf[self], rc.NewSelf)
	}

	coreCfg, err := CoreConfig(rc.Old, rc.Counters)
	if err != nil {
		return nil, err
	}

	// Old members load their persisted state; a stale member loads only
	// its (possibly short) public log and abstains from sub-dealing.
	var oldStore *coin.Store
	var log []gf2k.Element
	switch {
	case rc.OldSelf < 0: // pure joiner: nothing on disk yet
	case rc.Stale:
		if log, err = loadCoinLog(CoinLogFile(rc.StateDir, rc.OldSelf)); err != nil {
			return nil, err
		}
	default:
		ps, err := openPlayerState(rc.StateDir, rc.OldSelf, rc.Old.Generation)
		if errors.Is(err, os.ErrNotExist) {
			return nil, fmt.Errorf("%w (a member without a current store joins with -reshare-stale)", err)
		}
		if err != nil {
			return nil, err
		}
		ps.close()
		oldStore, log = ps.store, ps.log
	}

	// The ceremony mesh answers two queries, both served from the loaded
	// log: RPOS (the cutover position) and RLOG (public-log backfill for
	// joiners and stale members). Only non-stale old members may answer
	// RPOS — a stale member's log can be behind the cutover.
	served := log // as loaded: what this participant vouches for
	handler := func(from int, req []byte) []byte {
		switch s := string(req); {
		case s == "RPOS" && oldStore != nil:
			return []byte(fmt.Sprintf("%d", len(served)))
		case strings.HasPrefix(s, "RLOG "):
			return logRange(served, "RLOG", s)
		}
		return nil
	}

	nw, err := simnet.NewPeer(cc, self,
		transportOptions(rc.Counters, rc.Tracer, rc.PeerMetrics, rc.RoundTimeout, 0, handler)...)
	if err != nil {
		return nil, err
	}
	defer closeOnDone(ctx, nw)()

	// Mesh formation. The ceremony can tolerate ≤ t unreachable OLD
	// members (they become silent sub-dealers), but every NEW member must
	// be present — a joiner that misses the ceremony has no way to obtain
	// its shares afterwards.
	meshErr := nw.WaitPeers(cc.N()-1, rc.JoinTimeout/2)
	up := nw.PeerConnected()
	oldDown := 0
	var oldUp []int // the reachable old members: who RPOS and RLOG are asked of
	for node, j := range newOf {
		if node == self {
			continue
		}
		if j >= 0 && !up[node] {
			return nil, fmt.Errorf("beacon: new member %d (node %d, %s) unreachable — every new member must attend the ceremony (mesh: %v)",
				j, node, cc.Peers[node].Addr, meshErr)
		}
		if node < oldN && !up[node] {
			oldDown++
		} else if node < oldN {
			oldUp = append(oldUp, node)
		}
	}
	if oldDown > rc.Old.T {
		return nil, fmt.Errorf("beacon: %d old members unreachable, above the fault bound t=%d (mesh: %v)",
			oldDown, rc.Old.T, meshErr)
	}

	// Position agreement: t+1 identical RPOS answers pin the committed
	// cutover (at most t old members lie, so a (t+1)-supported value is
	// the honest committee's). A non-stale old member whose own log
	// disagrees missed the cutover memo while partitioned — its store
	// cursor is misaligned, so sub-dealing would only get it branded a
	// cheater; fail it loudly toward the stale path instead.
	query := func(peer int, req []byte) ([]byte, error) { return nw.Query(peer, req, queryTimeout) }
	cutover, err := queryCutover(query, oldUp, rc.Old.T+1)
	if err != nil {
		return nil, err
	}
	if oldStore != nil && len(served) != cutover {
		return nil, fmt.Errorf("beacon: this member paused at %d but the committee's cutover is %d — rejoin the ceremony as stale (-reshare-stale)",
			len(served), cutover)
	}
	if journal.Cutover >= 0 && journal.Cutover != cutover {
		return nil, fmt.Errorf("beacon: journal cutover %d disagrees with the cluster's %d — state dir mixed up?",
			journal.Cutover, cutover)
	}
	if journal.Cutover != cutover {
		journal.Cutover = cutover
		if err := SaveReshareJournal(rc.StateDir, *journal); err != nil {
			return nil, err
		}
	}

	// Continuing members need the public log up to the cutover: backfill
	// whatever is missing (everything, for a joiner) with t+1 agreement.
	if rc.NewSelf >= 0 && len(log) < cutover {
		got, err := backfill(query, "RLOG", oldUp, rc.Old.T+1, len(log), cutover, rc.JoinTimeout/2)
		if err != nil {
			return nil, err
		}
		log = append(log, got...)
	}
	if rc.NewSelf >= 0 && len(log) > cutover {
		return nil, fmt.Errorf("beacon: local log (%d entries) is ahead of the cutover %d — state dir mixed up?",
			len(log), cutover)
	}

	if err := nw.StartAt(0); err != nil {
		return nil, err
	}
	cfg := reshare.Config{
		Field:      coreCfg.Field,
		OldN:       oldN,
		OldT:       rc.Old.T,
		NewN:       rc.Next.N(),
		NewT:       rc.Next.T,
		NewOf:      newOf,
		Attempt:    attempt,
		Generation: rc.Next.Generation,
		Counters:   rc.Counters,
	}
	rc.Logf("reshare attempt %d: ceremony over %d nodes (%d old, %d new), cutover %d",
		attempt, cc.N(), oldN, rc.Next.N(), cutover)
	res, err := reshare.Run(nw.Node(self), cfg, oldStore, rc.Rand)
	if err != nil {
		return nil, err
	}
	rc.Logf("reshare attempt %d: %d coins reshared, quorum %v, cheaters %v",
		attempt, res.Coins, res.Quorum, res.Cheaters)

	out := &ReshareResult{Generation: rc.Next.Generation, Cutover: cutover,
		Coins: res.Coins, Cheaters: res.Cheaters, Attempt: attempt}
	if rc.NewSelf >= 0 {
		if err := writeGeneration(rc.StateDir, rc.NewSelf, log, res.Store); err != nil {
			return nil, err
		}
	}
	if _, err := syncDir(rc.StateDir, rc.retired()...); err != nil {
		return nil, err
	}
	if err := ClearReshareJournal(rc.StateDir); err != nil {
		return nil, err
	}
	return out, nil
}

// retired is the old-identity state a handover kills, removed only once the
// next generation's files are durable. A member keeping its index retires
// its old slots in writeGeneration.
func (rc *ReshareConfig) retired() []string {
	var retired []string
	switch {
	case rc.NewSelf < 0:
		// Leaving member: its job was sub-dealing. Destroy the old store
		// and slots — after the handover their shares are toxic waste that
		// could erode the new committee's proactive-security margin if
		// exfiltrated later. The public log stays (it is public output).
		retired = append(slotFiles(rc.StateDir, rc.OldSelf), storeFile(rc.StateDir, rc.OldSelf))
	case rc.OldSelf >= 0 && rc.OldSelf != rc.NewSelf:
		// The member continues under a different index: all its
		// old-identity files are dead (and the shares, again, toxic waste).
		retired = append(slotFiles(rc.StateDir, rc.OldSelf), storeFile(rc.StateDir, rc.OldSelf), CoinLogFile(rc.StateDir, rc.OldSelf))
	}
	if rc.OldSelf >= 0 {
		// A .meta from before store files carried their stamp is dead too.
		retired = append(retired, metaFile(rc.StateDir, rc.OldSelf))
	}
	return retired
}

// queryCutover asks the reachable old members for the committed cutover
// position, requiring quorum = t+1 identical answers — at most t Byzantine
// members exist, so any (t+1)-supported value is the honest committee's.
func queryCutover(query queryFunc, oldUp []int, quorum int) (int, error) {
	votes := map[int]int{}
	for _, node := range oldUp {
		resp, err := query(node, []byte("RPOS"))
		if err != nil || len(resp) == 0 {
			continue
		}
		var p int
		if _, err := fmt.Sscanf(string(resp), "%d", &p); err != nil || p < 0 {
			continue
		}
		votes[p]++
		if votes[p] >= quorum {
			return p, nil
		}
	}
	return 0, fmt.Errorf("beacon: no cutover position with %d matching answers (votes: %v)", quorum, votes)
}
