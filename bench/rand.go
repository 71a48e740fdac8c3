package main

import (
	"hash/fnv"
	"io"
	"math/rand"
	"sync"
)

// derive maps the run seed and a label to an independent sub-seed, so every
// tenant sequence, request mix and protocol Rand stream comes from -seed
// without any two of them sharing a generator.
func derive(seed int64, label string) int64 {
	h := fnv.New64a()
	h.Write([]byte(label)) //nolint:errcheck // hash.Hash never fails
	z := h.Sum64() ^ uint64(seed)
	// splitmix64 finalizer: FNV alone clusters on short labels.
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64((z ^ (z >> 31)) >> 1)
}

// cellRand is the protocol randomness of one deterministic beacon cell,
// keyed like multicell's test newCellRand and beacongw's insecureCellRand:
// the k-th call for a (cell, player) pair gets its own stream, so call 1 is
// the dealer seed, call j+1 is refill j, and a cell's coin stream does not
// depend on how requests or refills interleave.
func cellRand(seed int64) func(cell, player int) io.Reader {
	var mu sync.Mutex
	calls := make(map[[2]int]int64)
	return func(cell, player int) io.Reader {
		mu.Lock()
		calls[[2]int{cell, player}]++
		k := calls[[2]int{cell, player}]
		mu.Unlock()
		return playerRand(seed, cell, player, k)
	}
}

// playerRand is the stream for one (cell, player, call#) triple.
func playerRand(seed int64, cell, player int, call int64) *rand.Rand {
	return rand.New(rand.NewSource(seed +
		int64(cell)*7_777_777 +
		int64(player)*1009 +
		call*1_000_003))
}
