package main

import (
	"math"
	"sort"
)

// percentile returns the p-th percentile (0 < p ≤ 100) of an ascending
// slice by the nearest-rank rule, so every reported value is one that was
// actually measured.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// sortedCopy returns an ascending copy of xs.
func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// median of an unsorted slice (0 for an empty one).
func median(xs []float64) float64 {
	s := sortedCopy(xs)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// tailPercentiles are the candidates for "the highest percentile with at
// least ten samples beyond it".
var tailPercentiles = []float64{99.9, 99, 95, 90, 75}

// supportedTail returns the highest candidate percentile that leaves at
// least ten samples beyond it, and 50 when the sample is too small for any.
func supportedTail(n int) float64 {
	for _, p := range tailPercentiles {
		if float64(n)*(100-p)/100 >= 10 {
			return p
		}
	}
	return 50
}

// spread is the distance between the first and third quartile as a share of
// the median — the run-to-run noise figure BENCHMARK.json's bounds are
// compared against. Quartiles use the exclusive method, matching Python's
// statistics.quantiles(values, n=4).
func spread(xs []float64) float64 {
	s := sortedCopy(xs)
	if len(s) < 2 {
		return 0
	}
	q := func(k int) float64 {
		j := k * (len(s) + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > len(s)-1 {
			j = len(s) - 1
		}
		delta := float64(k*(len(s)+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	med := median(s)
	if med == 0 {
		return 0
	}
	return (q(3) - q(1)) / math.Abs(med)
}

// reduced is one window's end-to-end figures, or a run's.
type reduced struct {
	coinsPerS    float64
	p50US        float64
	cpuSPerKCoin float64
}

// reduce turns one window into the end-to-end metrics, each over the whole
// of it: coins per second of window, the median of every op's latency, CPU
// seconds between the window's edges per 1000 coins. A window in which
// nothing completed has rate 0 and infinite latency and cost.
func reduce(w window) reduced {
	r := reduced{p50US: math.Inf(1), cpuSPerKCoin: math.Inf(1)}
	if w.coins > 0 {
		r.coinsPerS = float64(w.coins) / w.seconds
		r.cpuSPerKCoin = 1000 * w.cpuS / float64(w.coins)
	}
	if len(w.ops) > 0 {
		r.p50US = percentile(latencies(w), 50)
	}
	return r
}

// latencies returns the op latencies of the windows, ascending, in µs.
func latencies(ws ...window) []float64 {
	var lat []float64
	for _, w := range ws {
		for _, o := range w.ops {
			lat = append(lat, o.latUS)
		}
	}
	sort.Float64s(lat)
	return lat
}

// quietQuartile reduces each window and reports every metric at the
// quartile of the windows on its better side: the rate three quarters of
// them stay under, the latency and the cost three quarters of them exceed.
// What disturbs a window on a shared host (a neighbour on the core, a
// stalled vCPU) only ever slows it, and comes in bursts of one to a few
// seconds; the better quartile of many half-second windows is the program
// with the host out of the way for as long as a quarter of the run is quiet,
// where the median needs half. Work the program itself does every few
// milliseconds (refills, GC) is inside every window and so in every figure.
func quietQuartile(ws []window) reduced {
	var rate, p50, cpu []float64
	for _, w := range ws {
		x := reduce(w)
		rate, p50, cpu = append(rate, x.coinsPerS), append(p50, x.p50US), append(cpu, x.cpuSPerKCoin)
	}
	return reduced{
		coinsPerS:    percentile(sortedCopy(rate), 75),
		p50US:        percentile(sortedCopy(p50), 25),
		cpuSPerKCoin: percentile(sortedCopy(cpu), 25),
	}
}

// tailOf is the wanted percentile of every op in the windows together, or
// the highest one their sample supports when that is lower.
func tailOf(ws []window, want float64) (tailUS, pct float64) {
	lat := latencies(ws...)
	pct = want
	if s := supportedTail(len(lat)); s < pct {
		pct = s
	}
	return percentile(lat, pct), pct
}
