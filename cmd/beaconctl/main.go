// Command beaconctl is the cluster inspector for a multi-process beacon:
// it reads the same peers.yaml the daemons run from, scrapes every
// daemon's observability endpoints (/v1/healthz, /metrics, /debug/trace —
// the http: field of each roster entry), and renders the operator's view
// of the whole cluster from the outside.
//
//	beaconctl status   -config peers.yaml [-lag 3]
//	beaconctl timeline -config peers.yaml [-n 5000] [-o merged.jsonl]
//	beaconctl cells    -gw host:8544 [-interval 1s]
//
// cells inspects a multi-cell gateway (cmd/beacongw) instead of a daemon
// roster: it scrapes the gateway's /metrics twice, -interval apart, and
// prints one row per cell — store depth, refill lag below the high-water
// mark, queued draws, whether a pipelined Coin-Gen is in flight, routed
// draws/sec over the sampling window (from the multicell_routed_draws_total
// deltas), draws shed away from the cell, and its down flag. The footer
// sums cluster throughput and reports live streams and router rejections.
//
// status prints one row per player: its round/log/epoch position, the
// committee generation it serves (GEN — bumped by every dealer-free
// reshare), coins left in the store, how far it trails the cluster lead
// (LAG), its view of peer connectivity, and emit-latency quantiles.
// Players lagging the lead by more than -lag rounds are flagged STRAGGLER;
// unreachable daemons are flagged DOWN; daemons armed for a handover are flagged
// reshare-arming while the cutover is negotiated and reshare@N once it is
// committed. A daemon that was SIGKILLed shows DOWN until it restarts,
// STRAGGLER while it catches up, and a clean row once rejoined.
//
// timeline fetches every daemon's in-memory flight recorder
// (/debug/trace), merges the per-daemon streams into one canonically
// ordered cluster timeline (obs.MergeJSONL — ordered by epoch, round,
// player), and renders it with obs.Timeline; -o writes the merged JSONL
// instead, for offline analysis.
//
// beaconctl never speaks the authenticated peer transport and needs no
// secret material beyond read access to peers.yaml; it is safe to run from
// any operator machine that can reach the daemons' HTTP ports.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"text/tabwriter"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/prom"
	"repro/internal/simnet"
)

const usage = `beaconctl: inspect a multi-process beacon cluster over its observability endpoints

usage:
  beaconctl status   -config peers.yaml [-lag 3] [-timeout 2s]
  beaconctl timeline -config peers.yaml [-n 5000] [-o merged.jsonl] [-timeout 2s]
  beaconctl cells    -gw host:8544 [-interval 1s] [-timeout 2s]

the peers.yaml roster needs an http: field per peer (the daemon's -addr);
cells talks to a beacongw gateway instead and needs only its /metrics port.`

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	if len(args) == 0 {
		return fmt.Errorf("beaconctl: no subcommand\n%s", usage)
	}
	switch args[0] {
	case "status":
		return runStatus(args[1:], stdout, stderr)
	case "timeline":
		return runTimeline(args[1:], stdout, stderr)
	case "cells":
		return runCells(args[1:], stdout, stderr)
	case "help", "-h", "-help", "--help":
		fmt.Fprintln(stdout, usage)
		return nil
	default:
		return fmt.Errorf("beaconctl: unknown subcommand %q\n%s", args[0], usage)
	}
}

// peerView is everything status learned about one daemon.
type peerView struct {
	id   int
	http string
	err  error // unreachable / malformed answer

	// From /v1/healthz.
	joined     bool
	refilling  bool
	round      int
	logLen     int
	epoch      int
	generation int
	remaining  int
	peersUp    int
	peersAll   int
	armed      bool // holds a next-generation roster (reshare pending)
	cutover    int  // committed handover position, -1 while negotiating/unarmed

	// From /metrics.
	p50, p99   float64 // emit latency seconds; both 0 before the first coin
	demotions  float64 // sum over this daemon's simnet_peer_demotions_total
	reconnects float64 // sum over simnet_peer_reconnects_total
}

func runStatus(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("beaconctl status", flag.ContinueOnError)
	fs.SetOutput(stderr)
	configPath := fs.String("config", "", "peers.yaml with http: addresses")
	lagLimit := fs.Int("lag", 3, "flag a player STRAGGLER when it trails the cluster lead by more than this many rounds")
	timeout := fs.Duration("timeout", 2*time.Second, "per-daemon scrape timeout")
	if err := fs.Parse(args); err != nil {
		return err
	}
	pc, err := loadRoster(*configPath)
	if err != nil {
		return err
	}

	client := &http.Client{Timeout: *timeout}
	views := make([]*peerView, 0, pc.N())
	for _, p := range pc.Peers {
		views = append(views, scrapePeer(client, p))
	}

	// The cluster lead is the most advanced reachable player; lag is
	// measured against it, matching the transport's own watermark-lag
	// definition (everything is relative to the furthest committer).
	lead := -1
	for _, v := range views {
		if v.err == nil && v.round > lead {
			lead = v.round
		}
	}

	tw := tabwriter.NewWriter(stdout, 2, 8, 2, ' ', 0)
	fmt.Fprintln(tw, "PLAYER\tHTTP\tROUND\tLOG\tEPOCH\tGEN\tSTORE\tLAG\tPEERS\tLATENCY(p50/p99)\tFLAGS")
	stragglers := 0
	for _, v := range views {
		if v.err != nil {
			fmt.Fprintf(tw, "%d\t%s\t-\t-\t-\t-\t-\t-\t-\t-\tDOWN (%v)\n", v.id, orDash(v.http), v.err)
			stragglers++
			continue
		}
		lag := lead - v.round
		if lag < 0 {
			lag = 0
		}
		var flags []string
		if lag > *lagLimit {
			flags = append(flags, "STRAGGLER")
			stragglers++
		}
		if !v.joined {
			flags = append(flags, "joining")
		}
		if v.refilling {
			flags = append(flags, "refilling")
		}
		if v.armed {
			// A dealer-free handover is pending: the daemon pauses (and
			// exits for the ceremony) once its log reaches the cutover.
			if v.cutover >= 0 {
				flags = append(flags, fmt.Sprintf("reshare@%d", v.cutover))
			} else {
				flags = append(flags, "reshare-arming")
			}
		}
		if v.demotions > 0 {
			flags = append(flags, fmt.Sprintf("demoted-peers=%.0f", v.demotions))
		}
		lat := "-"
		if v.p99 > 0 {
			lat = fmt.Sprintf("emit %.0fms/%.0fms", v.p50*1000, v.p99*1000)
		}
		fmt.Fprintf(tw, "%d\t%s\t%d\t%d\t%d\t%d\t%d\t%d\t%d/%d\t%s\t%s\n",
			v.id, v.http, v.round, v.logLen, v.epoch, v.generation, v.remaining, lag,
			v.peersUp, v.peersAll, lat, strings.Join(flags, ","))
	}
	tw.Flush()
	if lead < 0 {
		fmt.Fprintln(stdout, "cluster: no daemon reachable")
	} else {
		fmt.Fprintf(stdout, "cluster: lead round %d, %d/%d players healthy\n",
			lead, len(views)-stragglers, len(views))
	}
	return nil
}

// scrapePeer collects one daemon's healthz and metrics; a partial answer
// (healthz up, metrics down) keeps the healthz half rather than erroring.
func scrapePeer(client *http.Client, p simnet.Peer) *peerView {
	v := &peerView{id: p.ID, http: p.HTTP}
	if p.HTTP == "" {
		v.err = fmt.Errorf("no http: address in peers.yaml")
		return v
	}
	base := "http://" + p.HTTP

	resp, err := client.Get(base + "/v1/healthz")
	if err != nil {
		v.err = err
		return v
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		v.err = fmt.Errorf("healthz status %d", resp.StatusCode)
		return v
	}
	var hz struct {
		Joined     bool   `json:"joined"`
		Refilling  bool   `json:"refilling"`
		Round      int    `json:"round"`
		Log        int    `json:"log"`
		Epoch      int    `json:"epoch"`
		Generation int    `json:"generation"`
		Remaining  int    `json:"remaining"`
		Peers      []bool `json:"peers"`
		Armed      bool   `json:"armed"`
		Cutover    *int   `json:"cutover"` // absent on pre-reshare daemons → unarmed
	}
	if err := json.NewDecoder(resp.Body).Decode(&hz); err != nil {
		v.err = fmt.Errorf("healthz: %v", err)
		return v
	}
	v.joined, v.refilling = hz.Joined, hz.Refilling
	v.round, v.logLen, v.epoch, v.remaining = hz.Round, hz.Log, hz.Epoch, hz.Remaining
	v.generation, v.armed = hz.Generation, hz.Armed
	v.cutover = -1
	if hz.Cutover != nil {
		v.cutover = *hz.Cutover
	}
	v.peersAll = len(hz.Peers)
	for _, up := range hz.Peers {
		if up {
			v.peersUp++
		}
	}

	mresp, err := client.Get(base + "/metrics")
	if err != nil {
		return v // healthz answered; metrics are best-effort
	}
	defer mresp.Body.Close()
	samples, err := prom.ParseText(mresp.Body)
	if err != nil {
		return v
	}
	if n, ok := prom.Value(samples, "beacond_emit_latency_seconds_count"); ok && n > 0 {
		v.p50 = prom.Quantile(samples, "beacond_emit_latency_seconds", 0.50)
		v.p99 = prom.Quantile(samples, "beacond_emit_latency_seconds", 0.99)
	}
	for _, s := range prom.Find(samples, "simnet_peer_demotions_total") {
		v.demotions += s.Value
	}
	for _, s := range prom.Find(samples, "simnet_peer_reconnects_total") {
		v.reconnects += s.Value
	}
	return v
}

func runTimeline(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("beaconctl timeline", flag.ContinueOnError)
	fs.SetOutput(stderr)
	configPath := fs.String("config", "", "peers.yaml with http: addresses")
	events := fs.Int("n", 0, "events to fetch per daemon (0 = all retained)")
	out := fs.String("o", "", "write merged JSONL to this file instead of rendering the timeline")
	timeout := fs.Duration("timeout", 5*time.Second, "per-daemon fetch timeout")
	if err := fs.Parse(args); err != nil {
		return err
	}
	pc, err := loadRoster(*configPath)
	if err != nil {
		return err
	}

	client := &http.Client{Timeout: *timeout}
	streams := map[int]io.Reader{}
	fetched := 0
	for _, p := range pc.Peers {
		if p.HTTP == "" {
			fmt.Fprintf(stderr, "beaconctl: player %d has no http: address; skipping\n", p.ID)
			continue
		}
		url := fmt.Sprintf("http://%s/debug/trace", p.HTTP)
		if *events > 0 {
			url += fmt.Sprintf("?n=%d", *events)
		}
		resp, err := client.Get(url)
		if err != nil {
			fmt.Fprintf(stderr, "beaconctl: player %d unreachable (%v); merging without it\n", p.ID, err)
			continue
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			fmt.Fprintf(stderr, "beaconctl: player %d trace fetch failed (status %d, %v); merging without it\n",
				p.ID, resp.StatusCode, err)
			continue
		}
		streams[p.ID] = strings.NewReader(string(body))
		fetched++
	}
	if fetched == 0 {
		return fmt.Errorf("beaconctl: no daemon served a trace")
	}
	merged, err := obs.MergeJSONL(streams)
	if err != nil {
		return err
	}
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		j := obs.NewJSONL(f)
		for _, e := range merged {
			j.Emit(e)
		}
		if err := j.Flush(); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "beaconctl: merged %d events from %d daemons into %s\n", len(merged), fetched, *out)
		return nil
	}
	fmt.Fprintf(stdout, "cluster timeline: %d events from %d daemons\n", len(merged), fetched)
	obs.Timeline(stdout, merged)
	return nil
}

// cellView is everything cells learned about one gateway cell from the
// two /metrics snapshots.
type cellView struct {
	depth, lag, queue float64
	refilling, down   bool
	routed            float64 // draws served over the window, all routes
	shedAway          float64 // draws this cell was primary for but lost, over the window
}

// runCells renders the per-cell table of a beacongw gateway from two
// /metrics scrapes taken -interval apart: gauges (depth, lag, queue,
// refill, down) come from the second snapshot, rates (DRAWS/S, SHED/S)
// from the counter deltas over the window.
func runCells(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("beaconctl cells", flag.ContinueOnError)
	fs.SetOutput(stderr)
	gw := fs.String("gw", "", "beacongw address (host:port of its -addr)")
	interval := fs.Duration("interval", time.Second, "sampling window between the two /metrics scrapes")
	timeout := fs.Duration("timeout", 2*time.Second, "per-scrape timeout")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *gw == "" {
		return fmt.Errorf("beaconctl: cells requires -gw host:port\n%s", usage)
	}
	client := &http.Client{Timeout: *timeout}
	first, err := scrapeGateway(client, *gw)
	if err != nil {
		return fmt.Errorf("beaconctl: gateway %s: %w", *gw, err)
	}
	time.Sleep(*interval)
	second, err := scrapeGateway(client, *gw)
	if err != nil {
		return fmt.Errorf("beaconctl: gateway %s: %w", *gw, err)
	}
	return renderCells(stdout, first, second, *interval)
}

// scrapeGateway fetches and parses one /metrics exposition.
func scrapeGateway(client *http.Client, gw string) ([]prom.Sample, error) {
	resp, err := client.Get("http://" + gw + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("metrics status %d", resp.StatusCode)
	}
	return prom.ParseText(resp.Body)
}

// renderCells turns the two snapshots into the operator table.
func renderCells(stdout io.Writer, first, second []prom.Sample, window time.Duration) error {
	cells := map[string]*cellView{}
	view := func(id string) *cellView {
		if cells[id] == nil {
			cells[id] = &cellView{}
		}
		return cells[id]
	}
	for _, s := range prom.Find(second, "beacon_store_remaining") {
		view(s.Label("cell")).depth = s.Value
	}
	for _, s := range prom.Find(second, "beacon_cell_refill_lag") {
		view(s.Label("cell")).lag = s.Value
	}
	for _, s := range prom.Find(second, "beacon_queue_depth") {
		view(s.Label("cell")).queue = s.Value
	}
	for _, s := range prom.Find(second, "beacon_refill_in_flight") {
		view(s.Label("cell")).refilling = s.Value > 0
	}
	for _, s := range prom.Find(second, "beacon_cell_down") {
		view(s.Label("cell")).down = s.Value > 0
	}
	// Counter deltas over the window. Counters are monotonic, so a missing
	// first-snapshot sample (cell served nothing yet) reads as 0.
	counterAt := func(samples []prom.Sample, name string) map[string]float64 {
		out := map[string]float64{}
		for _, s := range prom.Find(samples, name) {
			out[s.Label("cell")] += s.Value // sums routed_draws over its route label
		}
		return out
	}
	for name, into := range map[string]func(*cellView, float64){
		"multicell_routed_draws_total": func(v *cellView, d float64) { v.routed = d },
		"multicell_shed_total":         func(v *cellView, d float64) { v.shedAway = d },
	} {
		before, after := counterAt(first, name), counterAt(second, name)
		for id, a := range after {
			into(view(id), a-before[id])
		}
	}
	if len(cells) == 0 {
		return fmt.Errorf("beaconctl: no per-cell series in the exposition — is -gw pointing at a beacongw /metrics port?")
	}

	ids := make([]string, 0, len(cells))
	for id := range cells {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool {
		a, aerr := strconv.Atoi(ids[i])
		b, berr := strconv.Atoi(ids[j])
		if aerr != nil || berr != nil {
			return ids[i] < ids[j]
		}
		return a < b
	})
	secs := window.Seconds()
	tw := tabwriter.NewWriter(stdout, 2, 8, 2, ' ', 0)
	fmt.Fprintln(tw, "CELL\tDEPTH\tLAG\tQUEUE\tREFILL\tDRAWS/S\tSHED/S\tFLAGS")
	var totalRate float64
	for _, id := range ids {
		v := cells[id]
		rate := v.routed / secs
		totalRate += rate
		refill := "-"
		if v.refilling {
			refill = "yes"
		}
		flags := ""
		if v.down {
			flags = "DOWN"
		}
		fmt.Fprintf(tw, "%s\t%.0f\t%.0f\t%.0f\t%s\t%.1f\t%.1f\t%s\n",
			id, v.depth, v.lag, v.queue, refill, rate, v.shedAway/secs, flags)
	}
	tw.Flush()
	streams, _ := prom.Value(second, "multicell_streams_active")
	var rejected float64
	for _, s := range prom.Find(second, "multicell_rejected_total") {
		rejected += s.Value
	}
	fmt.Fprintf(stdout, "cluster: %.1f draws/s across %d cells, %.0f live streams, %.0f draws rejected since start\n",
		totalRate, len(cells), streams, rejected)
	return nil
}

// loadRoster loads peers.yaml and sorts the roster by id (Validate already
// does; the sort keeps the table stable if that ever changes).
func loadRoster(path string) (*simnet.PeerConfig, error) {
	if path == "" {
		return nil, fmt.Errorf("beaconctl: -config peers.yaml is required\n%s", usage)
	}
	pc, err := simnet.LoadPeerConfig(path)
	if err != nil {
		return nil, err
	}
	sort.Slice(pc.Peers, func(i, j int) bool { return pc.Peers[i].ID < pc.Peers[j].ID })
	return pc, nil
}

func orDash(s string) string {
	if s == "" {
		return "-"
	}
	return s
}
