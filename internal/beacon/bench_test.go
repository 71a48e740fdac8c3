package beacon

import (
	"context"
	"math/rand"
	"sort"
	"testing"
	"time"

	"repro/internal/gf2k"
)

// benchDraw measures the serving path end to end — queue, executive sweep,
// lockstep exposure, refills — with one Draw per op on a 7-player Service
// (k = 8, M = 96), and reports the p99 draw latency beside ns/op. Both
// cases run the one refill, Service.startMint: "pipelined" starts it when
// the store falls below the high-water mark, ahead of demand; "blocking"
// sets HighWater 0, so the draw that finds the store short starts it and
// waits. The pair shows what starting ahead of demand takes off the tail.
func benchDraw(b *testing.B, highWater int) {
	cfg := testConfig(b, 96, 8, highWater)
	cfg.QueueDepth = 1024
	s, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	defer mustClose(b, s)
	ctx := context.Background()
	lat := make([]time.Duration, 0, b.N)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t0 := time.Now()
		if _, err := s.Draw(ctx); err != nil {
			b.Fatal(err)
		}
		lat = append(lat, time.Since(t0))
	}
	b.StopTimer()
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	b.ReportMetric(float64(lat[len(lat)*99/100].Nanoseconds()), "p99-ns/draw")
	st := s.Stats()
	b.ReportMetric(float64(st.Refills), "refills")
	b.ReportMetric(float64(st.BlockedDraws), "blocked-draws")
}

func BenchmarkBeaconDrawThroughput(b *testing.B) {
	b.Run("pipelined", func(b *testing.B) { benchDraw(b, 72) })
	b.Run("blocking", func(b *testing.B) { benchDraw(b, 0) })
}

// BenchmarkPlayerSnapshot is one daemon's disk work per refill, on one
// disk: each op is one playerState.snapshot of a freshly dealt player of the
// mesh's shape (n = 7, k = 32, M = 96) whose log gained a batch of lines
// since the last one (appended outside the timer). go run ./bench's
// mesh-emit has seven daemons snapshot at once on one disk; this is the
// single-daemon view beside it. It runs in the package's temporary
// directory, so it measures whatever file system holds that.
func BenchmarkPlayerSnapshot(b *testing.B) {
	pc := localConfig(96)
	dir := b.TempDir()
	if err := DealCluster(pc, dir, rand.New(rand.NewSource(1))); err != nil {
		b.Fatal(err)
	}
	ps, err := openPlayerState(dir, 0, 0)
	if err != nil {
		b.Fatal(err)
	}
	defer ps.close()
	batch := make([]gf2k.Element, pc.Batch)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		if err := ps.append(batch...); err != nil {
			b.Fatal(err)
		}
		ps.epoch++
		b.StartTimer()
		if err := ps.snapshot(); err != nil {
			b.Fatal(err)
		}
	}
}
