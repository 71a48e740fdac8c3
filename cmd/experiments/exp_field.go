package main

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/fastfield"
	"repro/internal/gf2big"
	"repro/internal/gf2k"
)

// runE9 — §2's implementation remark: "when k is small, working over
// GF(2^k) with the naive O(k²) multiplication is faster than working over
// our special field with the O(k log k) multiplication, because of the
// sizes of the constants involved."
//
// Four multiplication paths are timed:
//   - gf2k: single-word GF(2^k), k ≤ 64 (4-bit comb multiply, table reduction);
//   - gf2big: multi-word GF(2^k) with naive O(k²) multiplication;
//   - fastfield naive: GF(q^l) with schoolbook O(l²) coefficient products;
//   - fastfield NTT: the paper's special field, O(l log l).
func runE9() {
	const iters = 20000
	fmt.Printf("%6s | %12s %12s %12s %12s\n", "k", "gf2k", "gf2big", "ff-naive", "ff-NTT")
	fmt.Printf("%6s | %12s %12s %12s %12s\n", "", "(ns/mul)", "(ns/mul)", "(ns/mul)", "(ns/mul)")
	for _, k := range []int{16, 32, 64, 128, 256, 1024, 4096, 8192} {
		row := fmt.Sprintf("%6d |", k)

		if k <= 64 {
			f := gf2k.MustNew(k)
			rng := rand.New(rand.NewSource(1))
			a, _ := f.Rand(rng)
			b, _ := f.Rand(rng)
			start := time.Now()
			for i := 0; i < iters; i++ {
				a = f.Mul(a, b) | 1
			}
			row += fmt.Sprintf(" %12.1f", float64(time.Since(start).Nanoseconds())/iters)
		} else {
			row += fmt.Sprintf(" %12s", "-")
		}

		{
			f, err := gf2big.New(k)
			if err != nil {
				panic(err)
			}
			rng := rand.New(rand.NewSource(2))
			a, _ := f.Rand(rng)
			b, _ := f.Rand(rng)
			n := iters
			if k >= 4096 {
				n = iters / 100
			}
			start := time.Now()
			for i := 0; i < n; i++ {
				a = f.Mul(a, b)
			}
			row += fmt.Sprintf(" %12.1f", float64(time.Since(start).Nanoseconds())/float64(n))
		}

		{
			f, err := fastfield.New(k)
			if err != nil {
				panic(err)
			}
			rng := rand.New(rand.NewSource(3))
			a, _ := f.Rand(rng)
			b, _ := f.Rand(rng)
			n := iters
			if k >= 4096 {
				n = iters / 100
			}
			start := time.Now()
			for i := 0; i < n; i++ {
				a = f.MulNaive(a, b)
			}
			naive := float64(time.Since(start).Nanoseconds()) / float64(n)
			start = time.Now()
			for i := 0; i < n; i++ {
				a = f.Mul(a, b)
			}
			nttNs := float64(time.Since(start).Nanoseconds()) / float64(n)
			row += fmt.Sprintf(" %12.1f %12.1f", naive, nttNs)
		}
		fmt.Println(row)
	}
	fmt.Println("\nexpected shape: at small k the naive single-word GF(2^k) wins by a wide")
	fmt.Println("margin (the paper's caveat); as k grows the O(k²) paths blow up")
	fmt.Println("quadratically while the NTT field grows quasi-linearly — the crossover")
	fmt.Println("against gf2big appears in the hundreds-to-thousands of bits.")
}
