package simnet

import (
	"bytes"
	"encoding/binary"
	"strings"
	"testing"
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
