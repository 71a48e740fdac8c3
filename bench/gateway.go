package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// buildGateway compiles cmd/beacongw into the build dir. go build is a
// no-op when the binary is already current, so every run calls it; it is
// never inside a timed region.
func buildGateway(e *env) (string, error) {
	if err := os.MkdirAll(e.build, 0o755); err != nil {
		return "", err
	}
	bin := filepath.Join(e.build, "beacongw")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/beacongw")
	cmd.Dir = e.root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./cmd/beacongw: %v\n%s", err, out)
	}
	return bin, nil
}

// gwProcess is one running beacongw subprocess.
type gwProcess struct {
	cmd  *exec.Cmd
	base string // http://127.0.0.1:port
	out  sync.WaitGroup
}

// startGateway launches the built binary on an ephemeral port and parses
// the address from its "listening on" line. The child is killed if this
// process dies first (Pdeathsig), so no exit path strands it.
func startGateway(bin string, rngSeed int64) (*gwProcess, error) {
	cmd := exec.Command(bin,
		"-addr", "127.0.0.1:0",
		"-cells", strconv.Itoa(gwCells),
		"-n", strconv.Itoa(serveN), "-t", strconv.Itoa(serveT), "-k", strconv.Itoa(fieldK),
		"-batch", strconv.Itoa(serveBatch),
		"-threshold", strconv.Itoa(serveThreshold),
		"-highwater", strconv.Itoa(serveHighWater),
		"-queue", strconv.Itoa(serveQueue),
		"-insecure-rand", "-rng-seed", strconv.FormatInt(rngSeed, 10))
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	p := &gwProcess{cmd: cmd}
	addr := make(chan string, 1)
	p.out.Add(1)
	go func() {
		defer p.out.Done()
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			if _, rest, ok := strings.Cut(sc.Text(), "listening on "); ok {
				select {
				case addr <- strings.TrimSpace(rest):
				default:
				}
			}
		}
	}()
	select {
	case p.base = <-addr:
		return p, nil
	case <-time.After(30 * time.Second):
		p.stop()
		return nil, fmt.Errorf("beacongw did not report its address within 30s")
	}
}

// stop asks the gateway to shut down, waits for it to exit, and kills it if
// it has not exited within 10 seconds.
func (p *gwProcess) stop() {
	if p.cmd.ProcessState != nil {
		return
	}
	p.cmd.Process.Signal(syscall.SIGTERM) //nolint:errcheck // already-exited is fine
	timer := time.AfterFunc(10*time.Second, func() { p.cmd.Process.Kill() })
	p.out.Wait()
	p.cmd.Wait() //nolint:errcheck // exit status of a stopped server is not a result
	timer.Stop()
}

// cpu is the subprocess's user+sys CPU seconds so far.
func (p *gwProcess) cpu() (float64, error) { return processCPU(p.cmd.Process.Pid) }

// gwRequest is one generated request of the gw-http mix.
type gwRequest struct {
	path   string
	tenant string
	coins  int
}

// gwMix draws the seeded request mix: 60 % GET /v1/coin with X-Tenant drawn
// zipf from 64 tenants, 30 % anonymous GET /v1/coin, 10 % anonymous GET
// /v1/coins?n=8.
type gwMix struct {
	rng  *rand.Rand
	zipf *rand.Zipf
}

func newGwMix(seed int64) *gwMix {
	rng := rand.New(rand.NewSource(seed))
	return &gwMix{rng: rng, zipf: rand.NewZipf(rng, 1.2, 1, gwTenants-1)}
}

func (m *gwMix) next() gwRequest {
	switch r := m.rng.Intn(10); {
	case r < 6:
		return gwRequest{path: "/v1/coin", tenant: "tenant-" + strconv.FormatUint(m.zipf.Uint64(), 10), coins: 1}
	case r < 9:
		return gwRequest{path: "/v1/coin", coins: 1}
	default:
		return gwRequest{path: "/v1/coins?n=" + strconv.Itoa(gwBatchN), coins: gwBatchN}
	}
}

// gwReply is the part of a /v1/coin or /v1/coins body the oracle needs.
type gwReply struct {
	Cell  int      `json:"cell"`
	Seq   int64    `json:"seq"`
	Coin  string   `json:"coin"`
	Coins []string `json:"coins"`
}

// gwConn is one keep-alive HTTP/1.1 connection and what it observed. It
// writes requests straight onto the socket and parses replies with
// http.ReadResponse on the calling goroutine: net/http's client would add
// two goroutines and their wake-ups per connection, and on a 2-processor
// box the generator competes with the server it is measuring.
type gwConn struct {
	addr string // host:port
	conn net.Conn
	br   *bufio.Reader
	wbuf []byte
	mix  *gwMix

	ranges   [][3]int64 // (cell, seq, n) of every 200 reply since launch
	ops      []op       // window requests; latency is from when each was due
	lag      []float64  // µs the generator sent after the due time
	sent     int64
	coins    int64
	http429  int64
	http5xx  int64
	otherErr int64
	bytes    int64
	firstErr string
}

func newGwConn(base string, seed int64) *gwConn {
	return &gwConn{addr: strings.TrimPrefix(base, "http://"), mix: newGwMix(seed)}
}

// roundTrip sends one GET on the kept-alive connection (dialling it first
// if needed) and returns the status and body.
func (c *gwConn) roundTrip(rq gwRequest) (int, []byte, error) {
	if c.conn == nil {
		conn, err := net.DialTimeout("tcp", c.addr, 5*time.Second)
		if err != nil {
			return 0, nil, err
		}
		c.conn, c.br = conn, bufio.NewReader(conn)
	}
	b := append(c.wbuf[:0], "GET "...)
	b = append(b, rq.path...)
	b = append(b, " HTTP/1.1\r\nHost: "...)
	b = append(b, c.addr...)
	if rq.tenant != "" {
		b = append(b, "\r\nX-Tenant: "...)
		b = append(b, rq.tenant...)
	}
	b = append(b, "\r\n\r\n"...)
	c.wbuf = b
	c.conn.SetDeadline(time.Now().Add(30 * time.Second)) //nolint:errcheck // a dead socket fails the write below
	if _, err := c.conn.Write(b); err != nil {
		c.close()
		return 0, nil, err
	}
	resp, err := http.ReadResponse(c.br, nil)
	if err != nil {
		c.close()
		return 0, nil, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.Close {
		c.close()
	}
	return resp.StatusCode, body, err
}

func (c *gwConn) close() {
	if c.conn != nil {
		c.conn.Close()
		c.conn = nil
	}
}

// do sends one request and records the reply; it returns the coins served.
func (c *gwConn) do(rq gwRequest) int {
	c.sent++
	status, body, err := c.roundTrip(rq)
	c.bytes += int64(len(body))
	switch {
	case err != nil:
		c.fail(err.Error())
	case status == http.StatusTooManyRequests:
		c.http429++
	case status >= 500:
		c.http5xx++
	case status != http.StatusOK:
		c.fail(fmt.Sprintf("HTTP %d", status))
	default:
		var rp gwReply
		if err := json.Unmarshal(body, &rp); err != nil {
			c.fail("bad body: " + err.Error())
			return 0
		}
		n := len(rp.Coins)
		if rp.Coin != "" {
			n = 1
		}
		if n != rq.coins {
			c.fail(fmt.Sprintf("%s returned %d coins", rq.path, n))
			return 0
		}
		c.ranges = append(c.ranges, [3]int64{int64(rp.Cell), rp.Seq, int64(n)})
		c.coins += int64(n)
		return n
	}
	return 0
}

func (c *gwConn) fail(msg string) {
	c.otherErr++
	if c.firstErr == "" {
		c.firstErr = msg
	}
}

func (c *gwConn) failed() int64 { return c.http429 + c.http5xx + c.otherErr }

// gwCellsReply is what GET /v1/cells reports, reduced to the fields read here.
type gwCellsReply struct {
	Cells []struct {
		Draws        int64 `json:"draws"`
		Coins        int64 `json:"coins"`
		BlockedDraws int64 `json:"blocked_draws"`
		Refills      int64 `json:"refills"`
		RoutedShed   int64 `json:"routed_shed"`
	} `json:"cells"`
	Router struct {
		Saturated int64 `json:"saturated"`
	} `json:"router"`
}

// scrapeClient keeps no connection (and so no goroutine) alive between
// scrapes of a subprocess that is about to be stopped.
var scrapeClient = &http.Client{Transport: &http.Transport{DisableKeepAlives: true}, Timeout: 10 * time.Second}

func scrapeCells(ctx context.Context, base string) (*gwCellsReply, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/cells", nil)
	if err != nil {
		return nil, err
	}
	resp, err := scrapeClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var out gwCellsReply
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, err
	}
	return &out, nil
}

// gatewayWorkload is gw-http: the built cmd/beacongw binary as a
// subprocess, driven over real HTTP/1.1 keep-alive by an open-loop
// generator on two connections at a fixed 3000 req/s. Latency is timed
// from when each request was due.
type gatewayWorkload struct {
	e     *env
	proc  *gwProcess
	conns [gwConns]*gwConn

	wins   []window
	lag    []float64 // µs each request of the last window was sent after it was due
	cells0 *gwCellsReply
	cells1 *gwCellsReply
	rssMB  float64
}

func newGateway(e *env) *gatewayWorkload { return &gatewayWorkload{e: e} }

func (w *gatewayWorkload) setup(ctx context.Context) error {
	proc, err := startGateway(w.e.gwBin, derive(w.e.seed, "gw/rng-seed")%(1<<40))
	if err != nil {
		return err
	}
	w.proc = proc
	for i := range w.conns {
		w.conns[i] = newGwConn(proc.base, derive(w.e.seed, "gw/mix/"+strconv.Itoa(i)))
	}
	// Warm up until every cell has absorbed its first refill.
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		for i := 0; i < serveBatch; i++ {
			c := w.conns[i%len(w.conns)]
			if c.do(c.mix.next()) == 0 {
				return fmt.Errorf("warm-up request failed: %s", c.firstErr)
			}
		}
		cells, err := scrapeCells(ctx, proc.base)
		if err != nil {
			return err
		}
		warm := true
		for _, c := range cells.Cells {
			warm = warm && c.Refills > 0
		}
		if warm {
			return nil
		}
	}
}

func (w *gatewayWorkload) run(ctx context.Context) error {
	var err error
	if w.e.tr != nil {
		if w.cells0, err = scrapeCells(ctx, w.proc.base); err != nil {
			return err
		}
	}
	cpu0, err := w.proc.cpu()
	if err != nil {
		return err
	}
	rec := w.e.tr.rec()
	start := time.Now()
	perConn := time.Second * gwConns / gwRate // one connection's request interval
	total := int64(w.e.window / perConn)
	coins0 := w.coinsSoFar()

	var wg sync.WaitGroup
	ends := make([]time.Time, len(w.conns))
	for i, c := range w.conns {
		c.ops, c.lag = nil, nil
		wg.Add(1)
		go func(i int, c *gwConn) {
			defer wg.Done()
			// The two connections' schedules interleave: connection i's
			// k-th request is due at start + (k·conns + i)/rate.
			first := start.Add(perConn * time.Duration(i) / time.Duration(len(w.conns)))
			for k := int64(0); k < total && ctx.Err() == nil; k++ {
				due := first.Add(time.Duration(k) * perConn)
				preciseSleep(time.Until(due))
				rq := c.mix.next()
				sent := time.Now()
				n := c.do(rq)
				done := time.Now()
				c.lag = append(c.lag, float64(sent.Sub(due).Nanoseconds())/1e3)
				if n > 0 {
					c.ops = append(c.ops, op{float64(done.Sub(due).Nanoseconds()) / 1e3, int32(n)})
				}
				rec.call("http GET "+rq.path, uint64(k)<<1|uint64(i), sent, done)
				ends[i] = done
			}
		}(i, c)
	}
	wg.Wait()
	cpu1, err := w.proc.cpu()
	if err != nil {
		return err
	}
	win := window{cpuS: cpu1 - cpu0, coins: w.coinsSoFar() - coins0}
	w.lag = nil
	for i, c := range w.conns {
		win.ops = append(win.ops, c.ops...)
		w.lag = append(w.lag, c.lag...)
		if s := ends[i].Sub(start).Seconds(); s > win.seconds {
			win.seconds = s
		}
	}
	w.wins = append(w.wins, win)
	if w.e.tr != nil {
		if w.cells1, err = scrapeCells(ctx, w.proc.base); err != nil {
			return err
		}
		w.rssMB = peakRSSMB(w.proc.cmd.Process.Pid)
	}
	return ctx.Err()
}

// preciseSleep blocks the calling thread in nanosleep(2). time.Sleep parks
// the goroutine on the runtime's timers, which an otherwise idle process
// waits for in epoll_wait at millisecond granularity: at a 667 µs request
// interval that overshoot would be most of the measured latency.
func preciseSleep(d time.Duration) {
	if d <= 0 {
		return
	}
	ts := syscall.NsecToTimespec(d.Nanoseconds())
	syscall.Nanosleep(&ts, nil) //nolint:errcheck // an early wake-up only sends a request early
}

func (w *gatewayWorkload) coinsSoFar() int64 {
	var n int64
	for _, c := range w.conns {
		n += c.coins
	}
	return n
}

func (w *gatewayWorkload) finish(ctx context.Context) (*measurement, error) {
	m := &measurement{windows: w.wins}
	var ranges [][3]int64
	for _, c := range w.conns {
		ranges = append(ranges, c.ranges...)
		m.attempted += c.sent
		if n := c.failed(); n > 0 {
			m.failed += n
			m.notes = append(m.notes, fmt.Sprintf("%d requests failed (%d 429, %d 5xx), first other error: %q",
				n, c.http429, c.http5xx, c.firstErr))
		}
	}

	// Oracle: no (cell, seq) is ever returned twice and each cell's
	// positions are gap-free from 0.
	sort.Slice(ranges, func(i, j int) bool {
		if ranges[i][0] != ranges[j][0] {
			return ranges[i][0] < ranges[j][0]
		}
		return ranges[i][1] < ranges[j][1]
	})
	broken := ""
	cell, pos := int64(-1), int64(0)
	for _, r := range ranges {
		if r[0] != cell {
			cell, pos = r[0], 0
		}
		if r[1] != pos {
			broken = fmt.Sprintf("cell %d: a reply at seq %d, but the replies before it tile [0,%d)", cell, r[1], pos)
			break
		}
		pos += r[2]
	}
	m.check(broken == "", "%s", broken)

	if w.e.tr != nil {
		sorted := sortedCopy(w.lag)
		var h429, h5xx, bytes, sent float64
		for _, c := range w.conns {
			h429 += float64(c.http429)
			h5xx += float64(c.http5xx)
			bytes += float64(c.bytes)
			sent += float64(c.sent)
		}
		var draws, coins, blocked, refills, shed float64
		perCell := make([]float64, len(w.cells1.Cells))
		for i, c1 := range w.cells1.Cells {
			c0 := w.cells0.Cells[i]
			perCell[i] = float64(c1.Coins - c0.Coins)
			draws += float64(c1.Draws - c0.Draws)
			coins += perCell[i]
			blocked += float64(c1.BlockedDraws - c0.BlockedDraws)
			refills += float64(c1.Refills - c0.Refills)
			shed += float64(c1.RoutedShed - c0.RoutedShed)
		}
		sort.Float64s(perCell)
		m.layer = map[string]float64{
			"beacongw.gen_lag_tail_us": percentile(sorted, supportedTail(len(sorted))),
			"beacongw.http_429":        h429,
			"beacongw.http_5xx":        h5xx,
			"beacongw.resp_bytes":      bytes / sent,
			"multicell.shed_frac":      shed / draws,
			"multicell.cell_imbalance": perCell[len(perCell)-1]/(coins/float64(len(perCell))) - 1,
			"beacon.coins_per_request": coins / draws,
			"beacon.blocked_draw_frac": blocked / draws,
			"beacon.pipelined_refills": refills,
			"beacon.overloaded":        float64(w.cells1.Router.Saturated),
			"core.refills_per_kcoin":   1000 * refills / coins,
			"proc.peak_rss_mb":         w.rssMB,
		}
	}
	return m, nil
}

func (w *gatewayWorkload) close() {
	for _, c := range w.conns {
		if c != nil {
			c.close()
		}
	}
	if w.proc != nil {
		w.proc.stop()
		w.proc = nil
	}
}
