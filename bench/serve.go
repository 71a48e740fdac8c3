package main

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"sync"
	"time"

	"repro/internal/beacon"
	"repro/internal/core"
	"repro/internal/gf2k"
	"repro/internal/metrics"
)

// serveConfig is one in-process beacon cell in the serving shape. rnd is the
// per-player protocol randomness; tr, when non-nil, attaches counters and
// the refill tracer (the untraced run attaches nothing).
func serveConfig(rnd func(player int) io.Reader, tr *tracing) beacon.Config {
	field := gf2k.MustNew(fieldK)
	if tr != nil {
		field = field.WithCounters(tr.ctr)
	}
	return beacon.Config{
		Core: core.Config{
			Field:     field,
			N:         serveN,
			T:         serveT,
			BatchSize: serveBatch,
			Threshold: serveThreshold,
			HighWater: serveHighWater,
			Counters:  tr.counters(),
		},
		QueueDepth: serveQueue,
		Counters:   tr.counters(),
		Tracer:     tr.obsTracer(),
		Rand:       rnd,
	}
}

// serveRand keys one cell's randomness by (player, call#) from the run seed.
func serveRand(seed int64) func(player int) io.Reader {
	cr := cellRand(derive(seed, "serve/rand"))
	return func(player int) io.Reader { return cr(0, player) }
}

// serveWorkload is serve-draw1 (batch=false: one closed-loop client calling
// Draw) or serve-batch32 (batch=true: one client calling DrawN(32), one
// calling DrawBits(1024)) against an in-process beacon.Service.
type serveWorkload struct {
	e     *env
	batch bool
	svc   *beacon.Service

	// Every reply since construction, warm-up included: the oracle tiles
	// the whole stream from position 0.
	single  []gf2k.Element // Draw replies; the only client, so reply i is coin i
	seqs    []int64        // DrawN replies: position of the first coin
	ranges  []gf2k.Element // DrawN replies: blockCoins values each
	bits    [][]byte       // DrawBits replies, in the order client B got them
	sent    int64
	opErrs  int64
	errNote string

	wins         []window
	statsAtStart beacon.Stats
	mem0, mem1   runtime.MemStats
	ctr0         metrics.Snapshot
}

func newServe(e *env, batch bool) *serveWorkload { return &serveWorkload{e: e, batch: batch} }

func (w *serveWorkload) setup(ctx context.Context) error {
	svc, err := beacon.New(serveConfig(serveRand(w.e.seed), w.e.tr))
	if err != nil {
		return err
	}
	w.svc = svc
	// Warm up until the first pipelined refill has been absorbed, so the
	// window starts in the steady double-buffered state.
	for svc.Stats().Refills == 0 {
		if err := ctx.Err(); err != nil {
			return err
		}
		if w.batch {
			err = w.drawN(ctx)
		} else {
			err = w.draw(ctx)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

func (w *serveWorkload) draw(ctx context.Context) error {
	w.sent++
	v, err := w.svc.Draw(ctx)
	if err != nil {
		return w.opFailed(ctx, err)
	}
	w.single = append(w.single, v)
	return nil
}

func (w *serveWorkload) drawN(ctx context.Context) error {
	w.sent++
	vals, seq, err := w.svc.DrawN(ctx, blockCoins)
	if err != nil {
		return w.opFailed(ctx, err)
	}
	w.seqs = append(w.seqs, seq)
	w.ranges = append(w.ranges, vals...)
	return nil
}

// opFailed counts a failed op; only a cancelled context stops the client.
func (w *serveWorkload) opFailed(ctx context.Context, err error) error {
	if ctx.Err() != nil {
		return ctx.Err()
	}
	w.opErrs++
	if w.errNote == "" {
		w.errNote = err.Error()
	}
	return nil
}

func (w *serveWorkload) run(ctx context.Context) error {
	rec := w.e.tr.rec()
	var ops [2][]op
	w.statsAtStart = w.svc.Stats()
	if w.e.tr != nil {
		runtime.ReadMemStats(&w.mem0)
		w.ctr0 = w.e.tr.ctr.Snapshot()
	}
	cpu0 := selfCPU()
	start := time.Now()
	deadline := start.Add(w.e.window)

	// Client A: Draw on serve-draw1, DrawN(32) on serve-batch32.
	clientA := func() error {
		call := "beacon.Service.Draw"
		if w.batch {
			call = "beacon.Service.DrawN"
		}
		for k := uint64(1); ; k++ {
			t0 := time.Now()
			if !t0.Before(deadline) || ctx.Err() != nil {
				return ctx.Err()
			}
			var err error
			if w.batch {
				err = w.drawN(ctx)
			} else {
				err = w.draw(ctx)
			}
			t1 := time.Now()
			if err != nil {
				return err
			}
			coins := int32(1)
			if w.batch {
				coins = blockCoins
			}
			ops[0] = append(ops[0], op{float64(t1.Sub(t0).Nanoseconds()) / 1e3, coins})
			rec.call(call, k<<1, t0, t1)
		}
	}
	// Client B (serve-batch32 only): DrawBits(1024) = 32 coins.
	var opsB, errsB int64
	clientB := func() error {
		for k := uint64(1); ; k++ {
			t0 := time.Now()
			if !t0.Before(deadline) || ctx.Err() != nil {
				return ctx.Err()
			}
			opsB++
			out, err := w.svc.DrawBits(ctx, blockCoins*fieldK)
			t1 := time.Now()
			if err != nil {
				if ctx.Err() != nil {
					return ctx.Err()
				}
				errsB++
				continue
			}
			w.bits = append(w.bits, out)
			ops[1] = append(ops[1], op{float64(t1.Sub(t0).Nanoseconds()) / 1e3, blockCoins})
			rec.call("beacon.Service.DrawBits", k<<1|1, t0, t1)
		}
	}

	var wg sync.WaitGroup
	errs := make([]error, 2)
	wg.Add(1)
	go func() { defer wg.Done(); errs[0] = clientA() }()
	if w.batch {
		wg.Add(1)
		go func() { defer wg.Done(); errs[1] = clientB() }()
	}
	wg.Wait()
	end := time.Now()
	w.wins = append(w.wins, window{
		seconds: end.Sub(start).Seconds(),
		ops:     append(ops[0], ops[1]...),
		cpuS:    selfCPU() - cpu0,
		coins:   w.svc.Stats().CoinsDelivered - w.statsAtStart.CoinsDelivered,
	})
	w.sent += opsB
	w.opErrs += errsB
	if w.e.tr != nil {
		runtime.ReadMemStats(&w.mem1)
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

func (w *serveWorkload) finish(ctx context.Context) (*measurement, error) {
	end := w.svc.Stats()
	var ctr1 metrics.Snapshot
	if w.e.tr != nil {
		ctr1 = w.e.tr.ctr.Snapshot()
	}
	if err := w.svc.Close(ctx); err != nil {
		return nil, err
	}
	final := w.svc.Stats()

	m := &measurement{windows: w.wins, attempted: w.sent}
	if w.opErrs > 0 {
		m.failed += w.opErrs
		m.notes = append(m.notes, fmt.Sprintf("%d ops failed, first: %s", w.opErrs, w.errNote))
	}
	w.oracle(ctx, m, final)

	if w.e.tr != nil {
		coins := float64(m.last().coins)
		draws := float64(end.Draws - w.statsAtStart.Draws)
		m.layer = w.e.tr.perCoin(metrics.Diff(w.ctr0, ctr1), coins)
		m.layer["core.refills_per_kcoin"] = 1000 * float64(end.Refills-w.statsAtStart.Refills) / coins
		m.layer["beacon.coins_per_request"] = coins / draws
		m.layer["beacon.blocked_draw_frac"] = float64(end.BlockedDraws-w.statsAtStart.BlockedDraws) / draws
		m.layer["beacon.blocking_refills"] = float64(final.BlockingRefills)
		m.layer["beacon.pipelined_refills"] = float64(end.PipelinedRefills - w.statsAtStart.PipelinedRefills)
		m.layer["beacon.overloaded"] = float64(final.Overloaded)
		m.layer["beacon.allocs_per_coin"] = float64(w.mem1.Mallocs-w.mem0.Mallocs) / coins
		m.layer["beacon.alloc_b_per_coin"] = float64(w.mem1.TotalAlloc-w.mem0.TotalAlloc) / coins
	}
	return m, nil
}

// oracle checks the serve-* correctness properties: the [seq, seq+n) ranges
// of all replies tile [0, total) with no gap or overlap, no refill ever
// blocked the serving network, and the first referenceCoins coins equal a
// fresh reference Service replayed with the same seed (the
// TestCellStreamsMatchSingleCellReference property).
func (w *serveWorkload) oracle(ctx context.Context, m *measurement, final beacon.Stats) {
	m.check(final.BlockingRefills == 0, "BlockingRefills = %d, want 0", final.BlockingRefills)

	// Reconstruct every reply's position. Draw replies are coin i; DrawN
	// replies carry theirs; DrawBits replies carry none, but client B is
	// closed-loop, so its replies fill the positions client A's leave
	// open, in order.
	total := int64(len(w.single))
	bitsPos := make([]int64, 0, len(w.bits))
	broken := ""
	if w.batch {
		pos := int64(0)
		nextBits := 0
		for _, seq := range w.seqs {
			for pos < seq && nextBits < len(w.bits) {
				bitsPos = append(bitsPos, pos)
				nextBits++
				pos += blockCoins
			}
			if pos != seq {
				broken = fmt.Sprintf("a DrawN reply at seq %d, but the replies before it tile [0,%d)", seq, pos)
				break
			}
			pos += blockCoins
		}
		for ; broken == "" && nextBits < len(w.bits); nextBits++ {
			bitsPos = append(bitsPos, pos)
			pos += blockCoins
		}
		total = pos
	}
	if broken == "" && total != final.CoinsDelivered {
		broken = fmt.Sprintf("replies tile [0,%d) but the service delivered %d coins", total, final.CoinsDelivered)
	}
	m.check(broken == "", "%s", broken)

	// Replay the stream prefix on a fresh Service with the same seed.
	want := total
	if want > referenceCoins {
		want = referenceCoins
	}
	ref, err := beacon.New(serveConfig(serveRand(w.e.seed), nil))
	if err != nil {
		m.check(false, "reference service: %v", err)
		return
	}
	defer ref.Close(ctx) //nolint:errcheck // reference replay only
	stream := make([]gf2k.Element, 0, want+blockCoins)
	for int64(len(stream)) < want {
		vals, _, err := ref.DrawN(ctx, blockCoins)
		if err != nil {
			m.check(false, "reference replay: %v", err)
			return
		}
		stream = append(stream, vals...)
	}
	mismatch := -1
	note := func(pos int64) {
		if mismatch < 0 {
			mismatch = int(pos)
		}
	}
	for i, v := range w.single {
		if int64(i) < want && v != stream[i] {
			note(int64(i))
		}
	}
	for r, seq := range w.seqs {
		if seq+blockCoins <= want && !elementsEqual(w.ranges[r*blockCoins:(r+1)*blockCoins], stream[seq:seq+blockCoins]) {
			note(seq)
		}
	}
	for r, pos := range bitsPos {
		if pos+blockCoins <= want && string(w.bits[r]) != string(packBits(stream[pos:pos+blockCoins])) {
			note(pos)
		}
	}
	m.check(mismatch < 0, "stream diverges from the reference Service at coin %d", mismatch)
}

// packBits packs coins LSB-first, fieldK bits each, as Service.DrawBits does.
func packBits(vals []gf2k.Element) []byte {
	nbits := len(vals) * fieldK
	out := make([]byte, (nbits+7)/8)
	for b := 0; b < nbits; b++ {
		bit := (uint64(vals[b/fieldK]) >> (b % fieldK)) & 1
		out[b/8] |= byte(bit << (b % 8))
	}
	return out
}

func (w *serveWorkload) close() {
	if w.svc == nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	w.svc.Close(ctx) //nolint:errcheck // teardown; Close is idempotent
}
