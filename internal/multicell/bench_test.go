package multicell

import (
	"context"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// BenchmarkMultiCellLoad is the cluster load benchmark: C concurrent
// clients (half tenant-keyed, half anonymous) hammer an M-cell cluster
// with single-coin draws, and the benchmark reports aggregate draws/s and
// the p99 draw latency under that load. The M∈{1,2,4,8} sweep is the
// scaling story — cells share no protocol state, so on a machine with
// spare cores aggregate throughput grows with M (a 1-CPU box will
// honestly report ~flat scaling).
//
// ErrSaturated/ErrRateLimited never appear here (no tenant rate is set and
// queues are deep), so every iteration is a served draw; shed routing may
// engage when a cell's refill lags, which is part of what's being measured.
func BenchmarkMultiCellLoad(b *testing.B) {
	for _, m := range []int{1, 2, 4, 8} {
		for _, clients := range []int{16} {
			b.Run(benchName(m, clients), func(b *testing.B) {
				benchLoad(b, m, clients)
			})
		}
	}
}

func benchName(m, clients int) string {
	return "cells=" + itoa(m) + "/clients=" + itoa(clients)
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

func benchLoad(b *testing.B, cells, clients int) {
	cfg := testClusterConfig(b, cells)
	cl, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	defer mustCloseCluster(b, cl)
	ctx := context.Background()

	tenants := make([]string, clients)
	for i := range tenants {
		if i%2 == 0 {
			tenants[i] = "tenant-" + itoa(i) // hash-routed half
		} // odd clients stay anonymous → round-robin half
	}

	var next atomic.Int64
	lats := make([][]time.Duration, clients)
	var wg sync.WaitGroup
	b.ResetTimer()
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			lat := make([]time.Duration, 0, b.N/clients+1)
			for next.Add(1) <= int64(b.N) {
				t0 := time.Now()
				if _, err := cl.Draw(ctx, tenants[c]); err != nil {
					b.Error(err)
					return
				}
				lat = append(lat, time.Since(t0))
			}
			lats[c] = lat
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	b.StopTimer()

	var all []time.Duration
	for _, l := range lats {
		all = append(all, l...)
	}
	if len(all) == 0 {
		b.Fatal("no draws completed")
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	b.ReportMetric(float64(len(all))/elapsed.Seconds(), "draws/s")
	b.ReportMetric(float64(all[len(all)*99/100].Nanoseconds()), "p99-ns")
	var shed int64
	for _, st := range cl.CellStats() {
		shed += st.RoutedShed
	}
	b.ReportMetric(float64(shed), "shed")
}
