package simnet

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"io"
	"strings"
	"testing"
	"testing/iotest"
)

// TestReadFrameRejectsOversizedLength checks the framing guard: a length
// field beyond the 16 MiB cap must be rejected before any allocation.
func TestReadFrameRejectsOversizedLength(t *testing.T) {
	var hdr [frameHeaderLen]byte
	hdr[0] = frameData
	binary.LittleEndian.PutUint32(hdr[5:], maxFramePayload+1)
	_, _, _, err := readFrame(bytes.NewReader(hdr[:]))
	if err == nil || !strings.Contains(err.Error(), "oversized frame") {
		t.Fatalf("readFrame error = %v, want oversized-frame rejection", err)
	}
}

// TestReadFrameTruncatedPayload checks that a frame whose connection dies
// mid-payload surfaces the underlying read error instead of short data.
func TestReadFrameTruncatedPayload(t *testing.T) {
	var hdr [frameHeaderLen]byte
	hdr[0] = frameData
	binary.LittleEndian.PutUint32(hdr[5:], 64)
	wire := append(hdr[:], 1, 2, 3) // 3 of 64 promised bytes
	if _, _, _, err := readFrame(bytes.NewReader(wire)); err == nil {
		t.Fatal("readFrame succeeded on truncated payload")
	}
}

// FuzzReadFrame feeds arbitrary bytes to the one decoder every peer
// connection runs before and after authentication. It must never panic,
// must reject a length past the cap before reading (let alone allocating)
// any payload, and must invert writeFrame exactly: a frame that decodes re-encodes to the bytes consumed
// and decodes again to the same frame.
func FuzzReadFrame(f *testing.F) {
	bodies := [][]byte{nil, {7, 0, 0, 0}, make([]byte, helloLen), bytes.Repeat([]byte{0xa5}, 300)}
	for _, typ := range []byte{
		frameData, frameBroadcast, frameDone,
		framePeerHello, framePeerWelcome, framePeerAuth, framePeerReject,
		framePeerStatus, framePeerQuery, framePeerReply,
	} {
		for i, body := range bodies {
			var buf bytes.Buffer
			if err := writeFrame(&buf, typ, i-1, body); err != nil {
				f.Fatal(err)
			}
			f.Add(buf.Bytes())
		}
	}
	f.Add([]byte{frameData, 0, 0, 0, 0, 1, 0, 0, 1})           // length one past the cap
	f.Add([]byte{frameData, 0, 0, 0, 0, 64, 0, 0, 0, 1, 2, 3}) // truncated payload

	f.Fuzz(func(t *testing.T, wire []byte) {
		r := bytes.NewReader(wire)
		typ, arg, payload, err := readFrame(r)
		consumed := len(wire) - r.Len()
		if len(wire) >= frameHeaderLen && binary.LittleEndian.Uint32(wire[5:]) > maxFramePayload {
			if err == nil || consumed != frameHeaderLen {
				t.Fatalf("oversized frame: err %v after reading %d bytes, want a rejection after the %d-byte header", err, consumed, frameHeaderLen)
			}
			return
		}
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := writeFrame(&buf, typ, arg, payload); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), wire[:consumed]) {
			t.Fatalf("re-encoding differs from the bytes consumed:\n got  %x\n want %x", buf.Bytes(), wire[:consumed])
		}
		typ2, arg2, payload2, err := readFrame(&buf)
		if err != nil || typ2 != typ || arg2 != arg || !bytes.Equal(payload2, payload) {
			t.Fatalf("round trip: (%d, %d, %x) → (%d, %d, %x), err %v", typ, arg, payload, typ2, arg2, payload2, err)
		}
	})
}

type frameRec struct {
	typ     byte
	arg     int
	payload []byte
}

// readFrames reads frames until the first error, which it returns with
// them.
func readFrames(r io.Reader) ([]frameRec, error) {
	var out []frameRec
	for {
		typ, arg, payload, err := readFrame(r)
		if err != nil {
			return out, err
		}
		out = append(out, frameRec{typ, arg, payload})
	}
}

func sameFrames(t *testing.T, wantName string, want []frameRec, gotName string, got []frameRec) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d frames, %s: %d", wantName, len(want), gotName, len(got))
	}
	for i, w := range want {
		g := got[i]
		if g.typ != w.typ || g.arg != w.arg || !bytes.Equal(g.payload, w.payload) {
			t.Fatalf("frame %d: %s (%d, %d, %x), %s (%d, %d, %x)", i, wantName, w.typ, w.arg, w.payload, gotName, g.typ, g.arg, g.payload)
		}
	}
}

// chunkReader hands out r's bytes in reads no longer than the successive
// cuts (each +1), then in whatever the caller asks for.
type chunkReader struct {
	r    io.Reader
	cuts []byte
}

func (c *chunkReader) Read(p []byte) (int, error) {
	if len(c.cuts) > 0 {
		if k := int(c.cuts[0]) + 1; k < len(p) {
			p = p[:k]
		}
		c.cuts = c.cuts[1:]
	}
	return c.r.Read(p)
}

// FuzzReadFrameStream checks the read path of a live connection: a round's
// frames arrive back to back and are read through a bufio.Reader. spec
// describes frames (type, signed arg byte, length byte, payload); they are
// encoded one after another with appendFrame — whose bytes must equal
// writeFrame's — followed by the raw tail. mode picks how the stream is
// chopped into reads (one byte, half of each request, the fuzzed cuts, or
// whole) and the bufio.Reader's size. The buffered read must yield exactly
// what per-frame readFrame yields on a bytes.Reader: the encoded frames,
// whatever the tail decodes to, and the same final error. A length past the
// cap is still refused right after its header, before any payload is read.
func FuzzReadFrameStream(f *testing.F) {
	long := append([]byte{frameData, 1, 200}, bytes.Repeat([]byte{0x3c}, 200)...)
	f.Add([]byte{frameData, 0, 2, 1, 2, frameBroadcast, 0, 1, 9, frameDone, 0, 0}, []byte(nil), []byte(nil), byte(0))
	f.Add(long, []byte(nil), []byte{3, 0, 17}, byte(2))
	f.Add(append(long, framePeerStatus, 0xff, 4, 1, 0, 0, 0), []byte(nil), []byte(nil), byte(1))
	f.Add(long, []byte{frameData, 0, 0, 0, 0, 1, 0, 0, 1}, []byte{8}, byte(6))             // oversized tail
	f.Add(long, []byte{frameData, 0, 0, 0, 0, 64, 0, 0, 0, 1, 2, 3}, []byte(nil), byte(3)) // truncated tail
	f.Add([]byte(nil), []byte{frameDone, 7, 0, 0, 0, 0, 0, 0}, []byte{4}, byte(10))        // torn header only

	f.Fuzz(func(t *testing.T, spec, tail, cuts []byte, mode byte) {
		var want []frameRec
		var wire []byte
		for len(spec) >= 3 {
			typ, arg, n := spec[0], int(int8(spec[1])), int(spec[2])
			spec = spec[3:]
			n = min(n, len(spec))
			payload := spec[:n]
			spec = spec[n:]
			var single bytes.Buffer
			if err := writeFrame(&single, typ, arg, payload); err != nil {
				t.Fatal(err)
			}
			if enc := appendFrame(nil, typ, arg, payload); !bytes.Equal(enc, single.Bytes()) {
				t.Fatalf("appendFrame %x, writeFrame %x", enc, single.Bytes())
			}
			wire = appendFrame(wire, typ, arg, payload)
			want = append(want, frameRec{typ, arg, payload})
		}
		wire = append(wire, tail...)

		// Reference: one readFrame at a time on a bytes.Reader.
		ref := bytes.NewReader(wire)
		refFrames, refErr := readFrames(ref)
		start := 0 // where the failing frame begins
		for _, fr := range refFrames {
			start += frameHeaderLen + len(fr.payload)
		}
		if rest := wire[start:]; len(rest) >= frameHeaderLen && binary.LittleEndian.Uint32(rest[5:]) > maxFramePayload {
			if consumed := len(wire) - ref.Len(); consumed != start+frameHeaderLen {
				t.Fatalf("oversized frame at %d: read to %d, want a rejection after the header", start, consumed)
			}
		}
		if len(refFrames) < len(want) {
			t.Fatalf("reference decoded %d frames, %d were encoded (err %v)", len(refFrames), len(want), refErr)
		}
		sameFrames(t, "encoded", want, "decoded", refFrames[:len(want)])

		var src io.Reader = bytes.NewReader(wire)
		switch mode & 3 {
		case 0:
			src = iotest.OneByteReader(src)
		case 1:
			src = iotest.HalfReader(src)
		case 2:
			src = &chunkReader{r: src, cuts: cuts}
		}
		got, err := readFrames(bufio.NewReaderSize(src, 16<<(mode>>2&7)))
		if err == nil || err.Error() != refErr.Error() {
			t.Fatalf("buffered read ended with %v, per-frame read with %v", err, refErr)
		}
		sameFrames(t, "per-frame", refFrames, "buffered", got)
	})
}
