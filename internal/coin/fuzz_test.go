package coin

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/gf2k"
	"repro/internal/simnet"
)

// FuzzUnmarshalBatch: the batch decoder must never panic, and everything it
// accepts must survive a marshal/unmarshal round trip unchanged.
func FuzzUnmarshalBatch(f *testing.F) {
	field := gf2k.MustNew(16)
	rng := rand.New(rand.NewSource(1))
	batches, _, err := DealTrusted(field, 4, 1, 3, rng)
	if err != nil {
		f.Fatal(err)
	}
	good, err := batches[0].MarshalBinary()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	f.Add([]byte{})
	f.Add([]byte(batchMagic))
	f.Add(append([]byte{}, good[:len(good)-1]...))

	f.Fuzz(func(t *testing.T, data []byte) {
		b, err := UnmarshalBatch(data)
		if err != nil {
			return
		}
		re, err := b.MarshalBinary()
		if err != nil {
			t.Fatalf("accepted batch fails to re-marshal: %v", err)
		}
		b2, err := UnmarshalBatch(re)
		if err != nil {
			t.Fatalf("re-marshalled batch rejected: %v", err)
		}
		if b2.T != b.T || b2.Silent != b.Silent || len(b2.S) != len(b.S) ||
			len(b2.Shares) != len(b.Shares) || b2.Cursor() != b.Cursor() {
			t.Fatal("round trip not idempotent")
		}
	})
}

// FuzzUnmarshalStore: the store decoder (the beacon's on-disk restart
// format) must never panic, and everything it accepts must re-marshal to a
// stable encoding — a v2 input is a fixed point byte-for-byte, a legacy v1
// input upgrades to v2 once and is a fixed point from then on.
func FuzzUnmarshalStore(f *testing.F) {
	field := gf2k.MustNew(16)
	rng := rand.New(rand.NewSource(2))
	st := &Store{}
	for s := 0; s < 2; s++ {
		batches, _, err := DealTrusted(field, 4, 1, 2, rng)
		if err != nil {
			f.Fatal(err)
		}
		if err := st.Add(batches[0]); err != nil {
			f.Fatal(err)
		}
	}
	good, err := st.MarshalBinary()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	f.Add([]byte{})
	f.Add([]byte(storeMagicV2))
	f.Add([]byte(storeMagicV1))
	f.Add(append([]byte{}, good[:len(good)-1]...))
	// A legacy v1 framing of the same batches.
	v1 := append([]byte(storeMagicV1), good[len(storeMagicV2)+8:]...)
	f.Add(v1)

	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := UnmarshalStore(data)
		if err != nil {
			return
		}
		re, err := s.MarshalBinary()
		if err != nil {
			t.Fatalf("accepted store fails to re-marshal: %v", err)
		}
		if len(data) >= len(storeMagicV2) && string(data[:len(storeMagicV2)]) == storeMagicV2 {
			if string(re) != string(data) {
				t.Fatal("accepted v2 store encoding is not canonical")
			}
			return
		}
		// v1 input: the upgrade must be a fixed point.
		s2, err := UnmarshalStore(re)
		if err != nil {
			t.Fatalf("upgraded v1 store rejected: %v", err)
		}
		re2, err := s2.MarshalBinary()
		if err != nil {
			t.Fatalf("upgraded v1 store fails to re-marshal: %v", err)
		}
		if string(re2) != string(re) {
			t.Fatal("v1 upgrade is not a fixed point")
		}
		if s2.Universe != 0 || s2.Generation != 0 || s2.Remaining() != s.Remaining() {
			t.Fatal("v1 decode changed semantics")
		}
	})
}

// FuzzExposeVector: the fuzz input is everything the t corrupted members of
// S put on the wire in one vector Coin-Expose round at (n, t) = (7, 2),
// k = 8 — for each corrupted member and each receiver a length byte (0xff:
// send nothing) followed by that many payload bytes. Whatever they send, no
// honest player may panic and every honest player must open the dealt coins.
func FuzzExposeVector(f *testing.F) {
	const n, tf, k = 7, 2, 8
	field := gf2k.MustNew(16)
	corrupt := []int{0, 4}
	honestLen := byte(k * field.ByteLen())
	var wellFormed, short, long, mixed []byte
	for range corrupt {
		for r := 0; r < n; r++ {
			wellFormed = append(append(wellFormed, honestLen), make([]byte, honestLen)...)
			short = append(append(short, honestLen-1), make([]byte, honestLen-1)...)
			long = append(append(long, honestLen+2), make([]byte, honestLen+2)...)
			mixed = append(mixed, byte(r)) // lengths 0..6, payload bytes run into the next length
		}
	}
	f.Add(wellFormed)
	f.Add(short)
	f.Add(long)
	f.Add(mixed)
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xff}, 2*n))

	f.Fuzz(func(t *testing.T, data []byte) {
		batches, values, err := DealTrusted(field, n, tf, k, rand.New(rand.NewSource(11)))
		if err != nil {
			t.Fatal(err)
		}
		fns := make([]simnet.PlayerFunc, n)
		for i := range fns {
			b := batches[i]
			fns[i] = func(nd *simnet.Node) (interface{}, error) { return b.ExposeN(nd, k) }
		}
		for _, c := range corrupt {
			var payloads [n][]byte
			for r := range payloads {
				if len(data) == 0 {
					break
				}
				l := int(data[0])
				data = data[1:]
				if l == 0xff {
					continue
				}
				if l > len(data) {
					l = len(data)
				}
				payloads[r], data = data[:l:l], data[l:]
			}
			fns[c] = func(nd *simnet.Node) (interface{}, error) {
				for r, p := range payloads {
					if p != nil {
						nd.Send(r, p)
					}
				}
				_, err := nd.EndRound()
				return nil, err
			}
		}
		for i, r := range simnet.Run(simnet.New(n), fns) {
			if i == corrupt[0] || i == corrupt[1] {
				continue
			}
			if r.Err != nil {
				t.Fatalf("honest player %d: %v", i, r.Err)
			}
			for h, got := range r.Value.([]gf2k.Element) {
				if got != values[h] {
					t.Fatalf("honest player %d coin %d: opened %#x, dealt %#x", i, h, got, values[h])
				}
			}
		}
	})
}
