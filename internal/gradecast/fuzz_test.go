package gradecast

import (
	"bytes"
	"testing"
)

// FuzzDecodeInstanceValues: the multiplexed-frame decoder must never panic
// and accepted frames must re-encode to an equivalent value set.
func FuzzDecodeInstanceValues(f *testing.F) {
	vals := make([][]byte, 5)
	vals[0] = []byte("abc")
	vals[3] = []byte{}
	f.Add(encodeInstanceValues(vals))
	f.Add([]byte{})
	f.Add([]byte{0x01, 0x00, 0xff, 0xff, 0xff, 0x7f})

	f.Fuzz(func(t *testing.T, data []byte) {
		out, out2 := make([][]byte, 5), make([][]byte, 5)
		if decodeInstanceValues(out, data) != nil {
			return
		}
		if err := decodeInstanceValues(out2, encodeInstanceValues(out)); err != nil {
			t.Fatalf("re-encoded frame rejected: %v", err)
		}
		for i := range out {
			if (out[i] == nil) != (out2[i] == nil) || !bytes.Equal(out[i], out2[i]) {
				t.Fatalf("round trip mismatch at instance %d", i)
			}
		}
	})
}

// pluralityRef is the string-keyed tally plurality replaced: the reference
// FuzzPlurality checks the equality-class count against.
func pluralityRef(vals [][]byte) ([]byte, int) {
	counts := make(map[string]int, len(vals))
	for _, v := range vals {
		if v == nil {
			continue
		}
		counts[string(v)]++
	}
	var best string
	bestCnt := 0
	for v, c := range counts {
		if c > bestCnt || (c == bestCnt && v < best) {
			best, bestCnt = v, c
		}
	}
	if bestCnt == 0 {
		return nil, 0
	}
	return []byte(best), bestCnt
}

// pluralityVals decodes a fuzz input into a row of values: byte 0xff is a
// nil entry, any other byte b starts a value of b%4 bytes over the alphabet
// {a, b, c}, so equal values and ties are common.
func pluralityVals(data []byte) [][]byte {
	var vals [][]byte
	for len(data) > 0 {
		b := data[0]
		data = data[1:]
		if b == 0xff {
			vals = append(vals, nil)
			continue
		}
		v := []byte{}
		for i := 0; i < int(b%4) && len(data) > 0; i++ {
			v = append(v, 'a'+data[0]%3)
			data = data[1:]
		}
		vals = append(vals, v)
	}
	return vals
}

// pluralityInput is pluralityVals' inverse for values of at most 3 bytes
// over {a, b, c}.
func pluralityInput(vals [][]byte) []byte {
	var data []byte
	for _, v := range vals {
		if v == nil {
			data = append(data, 0xff)
			continue
		}
		data = append(data, byte(len(v)))
		for _, c := range v {
			data = append(data, c-'a')
		}
	}
	return data
}

// FuzzPlurality: the equality-class tally must agree with the string-keyed
// reference on the winner, its count and nil-ness.
func FuzzPlurality(f *testing.F) {
	for _, c := range pluralityCases {
		f.Add(pluralityInput(c.vals))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		vals := pluralityVals(data)
		v, cnt := plurality(vals)
		rv, rcnt := pluralityRef(vals)
		if cnt != rcnt || !bytes.Equal(v, rv) || (v == nil) != (rv == nil) {
			t.Fatalf("plurality(%q) = (%q, %d), reference (%q, %d)", vals, v, cnt, rv, rcnt)
		}
	})
}
