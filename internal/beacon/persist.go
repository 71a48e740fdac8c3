package beacon

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"sync"
	"time"

	"repro/internal/coin"
	"repro/internal/gf2k"
)

// Player state: everything a player keeps on disk — player-NNN.store and
// the two snapshot slots player-NNN.slot0/1 (the SECRET shares, stamped with
// the position they were taken at) and the public log player-NNN.coins —
// goes through this file. ARCHITECTURE.md ("Player state") describes the
// files, the four operations and the one write order. Files are created 0600
// and the directory 0700; the store is replaced atomically, a slot is
// overwritten in place, the log is only ever appended to, and every create,
// rename and unlink is made durable by syncDir. The single-process Service
// keeps only the store files, n side by side.

func storeFile(dir string, player int) string {
	return filepath.Join(dir, fmt.Sprintf("player-%03d.store", player))
}

// metaFile is where state written before store files carried their stamp
// kept it: read beside a bare store, removed by the first snapshot.
func metaFile(dir string, player int) string {
	return filepath.Join(dir, fmt.Sprintf("player-%03d.meta", player))
}

// CoinLogFile names player i's public coin log inside dir: one line per
// opened coin, "<index> <value-hex>", append-only. Identical at every
// honest player — this file IS the beacon's public output stream.
func CoinLogFile(dir string, player int) string {
	return filepath.Join(dir, fmt.Sprintf("player-%03d.coins", player))
}

// slotFile names player's snapshot slot i (0 or 1).
func slotFile(dir string, player, i int) string {
	return filepath.Join(dir, fmt.Sprintf("player-%03d.slot%d", player, i))
}

// slotFiles names both of player's snapshot slots.
func slotFiles(dir string, player int) []string {
	return []string{slotFile(dir, player, 0), slotFile(dir, player, 1)}
}

// stamp is the position a store snapshot was taken at. It travels in the
// header of the store file or slot record it stamps, so store and position
// are written together.
type stamp struct {
	// Epoch counts absorbed Coin-Gen refills since the current committee
	// took over (the dealer ceremony, or the last reshare). A rejoining
	// daemon whose epoch differs from the cluster's has missed a refill and
	// catches up with a proactive reshare (docs/OPERATIONS.md).
	Epoch int
	// LogLen is the public-log length at the moment of the snapshot; the
	// recovery discard is len(log) − LogLen. A Service keeps no log and
	// stamps zero.
	LogLen int
}

// storeFileMagic opens a stamped store file: magic, Epoch and LogLen as
// little-endian uint64s, then the coin.Store encoding unchanged. Files
// written before the header existed start with coin's own magic instead.
const storeFileMagic = "DPRBGp1\x00"

// writeStore is the one writer of player-NNN.store: a generation's first
// files, Service.Persist (stamp zero) and the one-time migration of a bare
// store all land here. A daemon's snapshots go to its slots instead.
func writeStore(dir string, player int, at stamp, st *coin.Store) error {
	enc, err := st.MarshalBinary()
	if err != nil {
		return fmt.Errorf("beacon: marshal player %d store: %w", player, err)
	}
	buf := binary.LittleEndian.AppendUint64([]byte(storeFileMagic), uint64(at.Epoch))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(at.LogLen))
	if err := writeAtomic(storeFile(dir, player), append(buf, enc...)); err != nil {
		return fmt.Errorf("beacon: persist player %d store: %w", player, err)
	}
	return nil
}

// loadStore is the one reader of player's stored state: it returns the
// newest of player-NNN.store and the valid slot records of the same
// generation (see readState), and the stamp it was written with. bare
// reports a .store without the header — written by a daemon or by
// Service.Persist before the header existed — whose stamp comes from the
// .meta beside it.
func loadStore(dir string, player int) (st *coin.Store, at stamp, bare bool, err error) {
	st, at, bare, _, err = readState(dir, player)
	return st, at, bare, err
}

// readState is loadStore plus what a snapshot needs to know of the slots.
// Generations never mix: a slot counts only when its store is the .store's
// generation, so a later generation's .store always wins. The newest such
// record — the highest sequence number — wins unless the .store is ahead of
// it (written there by a binary from before the slots). A slot whose record
// fails its CRC (torn by a crash mid-write) is passed over, leaving the
// other slot or the .store: one epoch back.
func readState(dir string, player int) (st *coin.Store, at stamp, bare bool, cur slotCursor, err error) {
	if st, at, bare, err = readStoreFile(dir, player); err != nil {
		return nil, at, false, cur, err
	}
	var newest *slotRecord
	for i, path := range slotFiles(dir, player) {
		data, err := os.ReadFile(path)
		if os.IsNotExist(err) {
			continue
		}
		if err != nil {
			return nil, at, false, cur, fmt.Errorf("beacon: load player %d slot %d: %w", player, i, err)
		}
		rec, ok := parseSlotRecord(data)
		if !ok {
			continue
		}
		if rec.seq >= cur.seq {
			cur.seq, cur.next = rec.seq, 1-i
		}
		// The CRC proves these are the bytes a snapshot wrote, so a stamp
		// or store that does not decode is a writer's fault, not a torn
		// write: fail loudly rather than fall back past it.
		if rec.at.Epoch < 0 || rec.at.LogLen < 0 {
			err = fmt.Errorf("negative snapshot stamp %+v", rec.at)
		} else {
			rec.st, err = coin.UnmarshalStore(rec.body)
		}
		if err != nil {
			return nil, at, false, cur, fmt.Errorf("beacon: load player %d slot %d: %w", player, i, err)
		}
		switch {
		case rec.st.Generation != st.Generation:
			cur.stale = append(cur.stale, path)
		case newest == nil || rec.seq > newest.seq:
			newest = &rec
		}
	}
	if newest != nil && !newest.at.before(at) {
		st, at = newest.st, newest.at
	}
	return st, at, bare, cur, nil
}

// before orders stamps of one generation: epochs only grow, and within an
// epoch so does the log.
func (a stamp) before(b stamp) bool {
	return a.Epoch < b.Epoch || a.Epoch == b.Epoch && a.LogLen < b.LogLen
}

// readStoreFile reads player-NNN.store alone. A bare store takes its stamp
// from the .meta beside it (a missing .meta reads as zero, its Generation
// field is ignored).
func readStoreFile(dir string, player int) (st *coin.Store, at stamp, bare bool, err error) {
	data, err := os.ReadFile(storeFile(dir, player))
	body, headed := bytes.CutPrefix(data, []byte(storeFileMagic))
	switch {
	case err != nil:
	case !headed:
		if data, err = os.ReadFile(metaFile(dir, player)); err == nil {
			err = json.Unmarshal(data, &at)
		} else if os.IsNotExist(err) {
			err = nil
		}
	case len(body) < 16:
		err = errors.New("truncated store header")
	default:
		at = stamp{Epoch: int(binary.LittleEndian.Uint64(body)), LogLen: int(binary.LittleEndian.Uint64(body[8:]))}
		body = body[16:]
	}
	if err == nil && (at.Epoch < 0 || at.LogLen < 0) {
		err = fmt.Errorf("negative snapshot stamp %+v", at)
	}
	if err == nil {
		st, err = coin.UnmarshalStore(body)
	}
	if err != nil {
		return nil, at, false, fmt.Errorf("beacon: load player %d store: %w", player, err)
	}
	return st, at, !headed, nil
}

// slotMagic opens a slot record. The record is magic, then sequence number,
// Epoch, LogLen and the body length as little-endian uint64s, then the body —
// the coin.Store encoding unchanged — then a CRC-32C (Castagnoli) of
// everything before it. Whatever follows the CRC is a longer record's tail
// and is ignored, so a slot is overwritten in place and never truncated.
const slotMagic = "DPRBGq1\x00"

const slotHeaderLen = len(slotMagic) + 4*8

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// slotRecord is one decoded slot: its sequence number, stamp and body, and
// the body's store once readState decodes it.
type slotRecord struct {
	seq  uint64
	at   stamp
	body []byte
	st   *coin.Store
}

// appendSlotRecord renders a slot record onto dst.
func appendSlotRecord(dst []byte, seq uint64, at stamp, body []byte) []byte {
	start := len(dst)
	dst = append(dst, slotMagic...)
	for _, v := range []uint64{seq, uint64(at.Epoch), uint64(at.LogLen), uint64(len(body))} {
		dst = binary.LittleEndian.AppendUint64(dst, v)
	}
	dst = append(dst, body...)
	return binary.LittleEndian.AppendUint32(dst, crc32.Checksum(dst[start:], castagnoli))
}

// parseSlotRecord reads the record at the start of data; ok is false when
// there is none whose CRC checks out.
func parseSlotRecord(data []byte) (rec slotRecord, ok bool) {
	if len(data) < slotHeaderLen+4 || string(data[:len(slotMagic)]) != slotMagic {
		return rec, false
	}
	h := data[len(slotMagic):]
	n := binary.LittleEndian.Uint64(h[24:])
	if n > uint64(len(data)-slotHeaderLen-4) {
		return rec, false
	}
	end := slotHeaderLen + int(n)
	if crc32.Checksum(data[:end], castagnoli) != binary.LittleEndian.Uint32(data[end:]) {
		return rec, false
	}
	return slotRecord{
		seq:  binary.LittleEndian.Uint64(h),
		at:   stamp{Epoch: int(binary.LittleEndian.Uint64(h[8:])), LogLen: int(binary.LittleEndian.Uint64(h[16:]))},
		body: data[slotHeaderLen:end],
	}, true
}

// slotCursor is where the next snapshot goes: seq is the highest sequence
// number of any valid record, next the slot not holding it. stale lists
// slots holding a store of another generation than the .store's.
type slotCursor struct {
	seq   uint64
	next  int
	stale []string
}

// Persist writes every player's store under dir. Call only after Close
// has returned: the stores must be quiescent. A restarted process resumes
// with LoadStores + Resume, never re-running the trusted dealer, and then
// calls RemoveStores: a set of stores is good for one resume (see there).
func (s *Service) Persist(dir string) error {
	select {
	case <-s.execDone: // the executive only exits after Close
	default:
		return fmt.Errorf("beacon: persist requires a closed service")
	}
	if err := os.MkdirAll(dir, 0o700); err != nil {
		return err
	}
	for i, g := range s.gens {
		if err := writeStore(dir, i, stamp{}, g.Store()); err != nil {
			return err
		}
	}
	return nil
}

// LoadStores reads n persisted player stores from dir. It returns
// os.ErrNotExist (wrapped) when no store files are present, so callers can
// distinguish "fresh start" from genuine corruption.
func LoadStores(dir string, n int) ([]*coin.Store, error) {
	stores := make([]*coin.Store, n)
	var err error
	for i := range stores {
		if stores[i], _, _, err = loadStore(dir, i); err != nil {
			return nil, err
		}
	}
	return stores, nil
}

// StoredPlayers counts the player stores dir holds (0 when dir is missing or
// empty), so a caller can tell a fresh start (0) from a resumable directory
// (n) from a half-written one (anything else) before loading any.
func StoredPlayers(dir string) (int, error) {
	ents, err := os.ReadDir(dir)
	if err != nil && !os.IsNotExist(err) {
		return 0, err
	}
	n := 0
	for _, e := range ents {
		if ok, _ := filepath.Match("player-*.store", e.Name()); ok {
			n++
		}
	}
	return n, nil
}

// RemoveStores deletes the n player stores under dir, durably. A resumed
// process calls it before it answers its first draw: the files describe
// coins that are about to be exposed, and a process that dies without a
// graceful Persist must find no stores — and deal afresh — rather than
// reload these and expose the same sealed coins a second time.
func RemoveStores(dir string, n int) error {
	paths := make([]string, n)
	for i := range paths {
		paths[i] = storeFile(dir, i)
	}
	removed, err := syncDir(dir, paths...)
	if err == nil && removed != n {
		err = fmt.Errorf("beacon: retire stores: %d of %d present in %s", removed, n, dir)
	}
	return err
}

// appendLogLines is the public-log line codec, shared by the file and the
// wire: it renders vals as the lines numbered from..from+len(vals)-1, each
// '\n'-terminated. Every writer — the log file, the LOG and RLOG query
// answers — goes through it, so logs stay byte-comparable across daemons.
func appendLogLines(dst []byte, from int, vals []gf2k.Element) []byte {
	for i, v := range vals {
		dst = strconv.AppendInt(dst, int64(from+i), 10)
		dst = append(dst, ' ')
		dst = strconv.AppendUint(dst, uint64(v), 16)
		dst = append(dst, '\n')
	}
	return dst
}

// parseLogLines is appendLogLines' inverse: data must be whole lines,
// numbered contiguously from `from`, each byte-for-byte what appendLogLines
// renders. A line that merely parses ("07 AA", trailing junk) is rejected:
// a file or a peer that is not canonical is damaged or lying, and silently
// normalizing it would hide that.
func parseLogLines(data []byte, from int) ([]gf2k.Element, error) {
	var out []gf2k.Element
	var canon []byte
	for len(data) > 0 {
		line, rest, _ := bytes.Cut(data, []byte{'\n'})
		var idx int
		var val uint64
		_, err := fmt.Sscanf(string(line), "%d %x", &idx, &val)
		out = append(out, gf2k.Element(val))
		canon = appendLogLines(canon[:0], idx, out[len(out)-1:])
		if err != nil || idx != from+len(out)-1 || !bytes.HasPrefix(data, canon) {
			return nil, fmt.Errorf("bad entry %q at offset %d", line, len(out)-1)
		}
		data = rest
	}
	return out, nil
}

// loadCoinLog reads a public coin log back into memory. A final line not
// terminated by '\n' (the signature of a crash mid-append) is dropped
// unconditionally — even when it happens to parse: "5 deadbeef\n" torn to
// "5 dead" yields the right index with a WRONG value, and loading it would
// silently fork this daemon's public log from the cluster's. The dropped
// entry replays from peers at rejoin. Any line inside the terminated
// prefix that is not canonical is corruption and fails. Entries must be
// contiguous from 0.
func loadCoinLog(path string) ([]gf2k.Element, error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	log, err := parseLogLines(data[:bytes.LastIndexByte(data, '\n')+1], 0)
	if err != nil {
		return nil, fmt.Errorf("beacon: coin log %s corrupt: %v", path, err)
	}
	return log, nil
}

// logRange answers a "<verb> <lo> <count>" query (LOG on the serving mesh,
// RLOG on the ceremony mesh) with the canonical lines of log[lo:lo+count],
// clipped to what the log holds; nil for a malformed request.
func logRange(log []gf2k.Element, verb, req string) []byte {
	var lo, count int
	if _, err := fmt.Sscanf(req, verb+" %d %d", &lo, &count); err != nil || lo < 0 || count < 1 {
		return nil
	}
	hi := min(lo+count, len(log))
	if lo >= hi {
		return nil // not opened yet: an empty answer, retried by backfill
	}
	return appendLogLines(nil, lo, log[lo:hi])
}

// queryFunc asks one peer one question over the transport's query channel.
type queryFunc func(peer int, req []byte) ([]byte, error)

// backfill fetches public-log entries [lo, hi) from servers with "<verb> lo
// count" queries and cross-checks them: each entry must be served
// identically by min(quorum, len(servers)) of them (with quorum = t+1 a
// value that passes is the honest committee's), and any disagreement is a
// fault that aborts. Values opened after the servers answered trickle into
// their logs within a round or two, so a short answer is retried until
// patience runs out. It returns the whole verified range or an error, never
// a partial one, and touches no local state.
func backfill(query queryFunc, verb string, servers []int, quorum, lo, hi int, patience time.Duration) ([]gf2k.Element, error) {
	quorum = min(quorum, len(servers))
	if quorum < 1 {
		return nil, errors.New("beacon: no peers reachable for log backfill")
	}
	deadline := time.Now().Add(patience)
	entries := make([]gf2k.Element, 0, hi-lo)
	for {
		pos := lo + len(entries)
		var verified []gf2k.Element
		responders := 0
		for _, j := range shuffledCopy(servers) {
			resp, err := query(j, fmt.Appendf(nil, "%s %d %d", verb, pos, hi-pos))
			if err != nil {
				continue
			}
			got, err := parseLogLines(resp, pos)
			if err != nil {
				return nil, fmt.Errorf("beacon: peer %d served a malformed log: %w", j, err)
			}
			if len(got) > hi-pos {
				got = got[:hi-pos]
			}
			if responders == 0 {
				verified = got
			}
			// Only cross-checked entries count: clip to the shorter answer.
			verified = verified[:min(len(verified), len(got))]
			for i, v := range verified {
				if got[i] != v {
					return nil, fmt.Errorf("beacon: peers disagree on public coin %d (%x vs %x) — Byzantine log server",
						pos+i, uint64(v), uint64(got[i]))
				}
			}
			if responders++; responders == quorum {
				break
			}
		}
		if responders < quorum {
			return nil, fmt.Errorf("beacon: only %d/%d peers answered the log fetch", responders, quorum)
		}
		entries = append(entries, verified...)
		if len(entries) == hi-lo {
			return entries, nil
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("beacon: backfill stalled at %d/%d entries", len(entries), hi-lo)
		}
		time.Sleep(100 * time.Millisecond)
	}
}

// playerState is one player's open on-disk state. It is the only code that
// reconciles a loaded store against the log, appends log lines, snapshots,
// or writes a generation's first files. One goroutine (the daemon's run
// loop) mutates it; mu lets the transport's reader goroutines serve the
// log meanwhile.
type playerState struct {
	dir    string
	player int
	// store is the live store (the one the daemon's core.Generator draws
	// from); epoch is kept current by the run loop, one bump per absorbed
	// refill, and stamped with the store by snapshot. bare marks a .store
	// in the layout before the header: a .meta may lie beside it.
	store *coin.Store
	epoch int
	bare  bool

	// slots are the snapshot slots' write handles, opened by the first
	// snapshot that writes each; cur says which one the next snapshot
	// overwrites. scratch is the run loop's encoding buffer.
	slots   [2]*os.File
	cur     slotCursor
	scratch []byte

	mu   sync.Mutex
	log  []gf2k.Element // guarded by mu
	file *os.File       // append handle on the coin log
}

// openPlayerLog opens (creating it when missing) player's public coin log
// for appending. A torn final line is healed in place: the file is
// truncated to its verified prefix and fsynced — never rewritten, so a
// power cut during start-up cannot roll the public log back.
func openPlayerLog(dir string, player int) (*playerState, error) {
	if err := os.MkdirAll(dir, 0o700); err != nil {
		return nil, err
	}
	path := CoinLogFile(dir, player)
	log, err := loadCoinLog(path)
	if err != nil {
		return nil, err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o600)
	if err != nil {
		return nil, err
	}
	// Every loaded line is canonical, so the verified prefix is exactly as
	// long as its re-rendering; whatever lies beyond is the torn tail.
	verified := int64(len(appendLogLines(nil, 0, log)))
	fi, err := f.Stat()
	if err == nil && fi.Size() != verified {
		if err = f.Truncate(verified); err == nil {
			err = f.Sync()
		}
	}
	if err != nil {
		f.Close()
		return nil, err
	}
	return &playerState{dir: dir, player: player, log: log, file: f}, nil
}

// openPlayerState loads player's store and log and reconciles them.
//
// Generation fence: state from another committee generation — a daemon
// pointed at the wrong roster file, or at state a reshare already
// superseded — fails here with a pointed error instead of desyncing later
// (the config digest separates the meshes anyway; this turns a confusing
// connect-timeout into a diagnosis). The store's own generation is the one
// fenced: a generation write replaces it in one rename, so a ceremony that
// crashed before that rename finds the old store, and one that crashed after
// it finds the new.
//
// Crash reconciliation: the log advances one line per coin while the store
// snapshot only advances at refill boundaries — the gap is replayed onto
// the share cursor. This is the only place that rule is applied.
func openPlayerState(dir string, player, generation int) (*playerState, error) {
	st, at, bare, cur, err := readState(dir, player)
	if err != nil {
		return nil, err
	}
	if st.Generation != generation {
		return nil, fmt.Errorf("beacon: player %d store is generation %d but peers.yaml says %d — finish the reshare or point the daemon at the matching roster file",
			player, st.Generation, generation)
	}
	// A slot of another generation holds superseded shares that a crash
	// kept from being retired with its generation (writeGeneration).
	if len(cur.stale) > 0 {
		if _, err := syncDir(dir, cur.stale...); err != nil {
			return nil, err
		}
	}
	ps, err := openPlayerLog(dir, player)
	if err != nil {
		return nil, err
	}
	gap := len(ps.log) - at.LogLen
	if gap < 0 {
		ps.close()
		return nil, fmt.Errorf("beacon: player %d log (%d entries) is behind its store snapshot (%d) — state dir corrupt",
			player, len(ps.log), at.LogLen)
	}
	if err := st.Discard(gap); err != nil {
		ps.close()
		return nil, fmt.Errorf("beacon: player %d crash reconciliation: %w", player, err)
	}
	ps.store, ps.epoch, ps.bare, ps.cur = st, at.Epoch, bare, cur
	return ps, nil
}

func (ps *playerState) close() {
	ps.file.Close()
	for _, f := range ps.slots {
		if f != nil {
			f.Close()
		}
	}
}

// serve answers a peer's LOG query from the live log.
func (ps *playerState) serve(req string) []byte {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	return logRange(ps.log, "LOG", req)
}

// errLogAppend marks a failed write to the public coin log (disk full, I/O
// error). The file may now hold part of the write, so the operation that
// hit it must halt rather than retry or snapshot — the next start heals
// the tail and replays the rest from peers.
var errLogAppend = errors.New("beacon: public coin log append failed")

// append writes vals as the next log lines, in one write, and only then
// extends the in-memory log. It is the only writer of a log line.
func (ps *playerState) append(vals ...gf2k.Element) error {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	ps.scratch = appendLogLines(ps.scratch[:0], len(ps.log), vals)
	if _, err := ps.file.Write(ps.scratch); err != nil {
		return fmt.Errorf("%w: player %d at log position %d: %v", errLogAppend, ps.player, len(ps.log), err)
	}
	ps.log = append(ps.log, vals...)
	return nil
}

// fastForward advances to absolute log position target: the share cursor
// skips the coins the cluster opened without this player, and their public
// values, backfilled from servers' logs, join the log.
//
// Order matters for retry safety: the whole range is fetched and verified
// BEFORE any local state is touched. A transient backfill failure (query
// timeout, stalled fetch, quorum not met) therefore leaves the store and
// log exactly as they were, so the join can rerun from the same position —
// Store.Discard is not idempotent, and discarding twice for one target
// would desynchronize this player's share cursor from the cluster's
// forever.
func (ps *playerState) fastForward(target int, query queryFunc, servers []int, quorum int, patience time.Duration) error {
	pos := len(ps.log) // the caller is the log's only writer
	if target < pos {
		return fmt.Errorf("beacon: player %d log (%d entries) is ahead of the cluster position %d — state dirs mixed up?",
			ps.player, pos, target)
	}
	if target == pos {
		return nil
	}
	entries, err := backfill(query, "LOG", servers, quorum, pos, target, patience)
	if err != nil {
		return err
	}
	if err := ps.store.Discard(len(entries)); err != nil {
		return fmt.Errorf("%w: %v", ErrEpochMismatch, err)
	}
	return ps.append(entries...)
}

// snapshot makes the current position durable: log fsync, then the store
// stamped with it, as one record overwriting the older slot in place and
// fsynced. The log goes first because the stamp's LogLen must never point
// past the durable log (open treats a log behind its snapshot as
// corruption); the log is otherwise only synced by the OS, one snapshot per
// refill. A record torn by a crash fails its CRC and the other slot — one
// snapshot back — stands. A bare .store is migrated instead, once: the
// stamped .store is written atomically and its .meta, stale from then on,
// goes, so the .store alone still opens at a true position.
func (ps *playerState) snapshot() error {
	if err := ps.file.Sync(); err != nil {
		return err
	}
	at := stamp{Epoch: ps.epoch, LogLen: len(ps.log)}
	if ps.bare {
		if err := writeStore(ps.dir, ps.player, at, ps.store); err != nil {
			return err
		}
		if _, err := syncDir(ps.dir, metaFile(ps.dir, ps.player)); err != nil {
			return err
		}
		ps.bare = false
		return nil
	}
	enc, err := ps.store.MarshalBinary()
	if err != nil {
		return fmt.Errorf("beacon: marshal player %d store: %w", ps.player, err)
	}
	if err := ps.writeSlot(ps.cur.next, ps.cur.seq+1, at, enc); err != nil {
		return fmt.Errorf("beacon: snapshot player %d to slot %d: %w", ps.player, ps.cur.next, err)
	}
	ps.cur.seq, ps.cur.next = ps.cur.seq+1, 1-ps.cur.next
	return nil
}

// writeSlot writes one record at the start of slot i and fsyncs it. The
// slot is created on first use, its directory entry made durable then.
func (ps *playerState) writeSlot(i int, seq uint64, at stamp, body []byte) error {
	if ps.slots[i] == nil {
		f, err := os.OpenFile(slotFile(ps.dir, ps.player, i), os.O_CREATE|os.O_WRONLY, 0o600)
		if err != nil {
			return err
		}
		if _, err := syncDir(ps.dir); err != nil {
			f.Close()
			return err
		}
		ps.slots[i] = f
	}
	ps.scratch = appendSlotRecord(ps.scratch[:0], seq, at, body)
	if _, err := ps.slots[i].WriteAt(ps.scratch, 0); err != nil {
		return err
	}
	return ps.slots[i].Sync()
}

// writeGeneration writes the first files of a committee generation for
// player — the dealer ceremony's generation 0, or a resharing ceremony's
// next one: the public log up to the handover position, then the store
// stamped epoch 0 at that position, each durable before the next is
// started. The store goes LAST so that finding a generation's store on disk
// proves its log is there too (RunReshare's idempotent completion check
// relies on it). The player's slots predate the new store, and their shares
// are retired once it is durable.
//
// Whatever log the identity already holds must be a prefix of log (a member
// keeping its index, a retry after a crash): only the missing suffix is
// appended, nothing is rewritten.
func writeGeneration(dir string, player int, log []gf2k.Element, st *coin.Store) error {
	ps, err := openPlayerLog(dir, player)
	if err != nil {
		return err
	}
	defer ps.close()
	if len(ps.log) > len(log) || !slices.Equal(ps.log, log[:len(ps.log)]) {
		return fmt.Errorf("beacon: player %d's log on disk (%d entries) is not a prefix of the committee's (%d) — state dir mixed up?",
			player, len(ps.log), len(log))
	}
	if err := ps.append(log[len(ps.log):]...); err != nil {
		return err
	}
	if err := ps.file.Sync(); err != nil {
		return err
	}
	if err := writeStore(dir, player, stamp{LogLen: len(log)}, st); err != nil {
		return err
	}
	_, err = syncDir(dir, slotFiles(dir, player)...)
	return err
}

// writeAtomic writes data to path via a temp file, fsync, rename and an
// fsync of the directory, so a crash mid-write never leaves a truncated file
// behind, the rename target is durable before it becomes visible, and the
// rename itself survives a power cut — a lost rename would bring the older
// store back, and with it coins already exposed.
func writeAtomic(path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".store-*") // created 0600
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	_, err = tmp.Write(data)
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err == nil {
		_, err = syncDir(dir)
	}
	return err
}

// syncDir unlinks paths, all inside dir (one already gone is skipped;
// removed counts the rest), then fsyncs dir: every slot creation, rename
// and unlink in a state directory is made durable here, before the caller
// moves on.
func syncDir(dir string, paths ...string) (removed int, err error) {
	for _, p := range paths {
		switch err := os.Remove(p); {
		case err == nil:
			removed++
		case !os.IsNotExist(err):
			return removed, err
		}
	}
	d, err := os.Open(dir)
	if err != nil {
		return removed, err
	}
	defer d.Close()
	return removed, d.Sync()
}
