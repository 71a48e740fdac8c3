package simnet

// The peer transport's wire framing: every byte between two daemons —
// handshake, round traffic, status and query side-channel — travels as
// [type:1][arg:4][len:4][payload], little-endian.

import (
	"encoding/binary"
	"fmt"
	"io"
)

// Round-traffic frame types; arg is the round the frame belongs to. (Type 1
// was the hello of the retired single-process loopback transport and stays
// unused so the wire version does not move.)
const (
	frameData byte = iota + 2
	frameBroadcast
	frameDone
)

// Handshake, status and query frame types, in a range disjoint from the
// round traffic so a frame read at the wrong protocol stage is caught
// immediately.
const (
	framePeerHello byte = iota + 16
	framePeerWelcome
	framePeerAuth
	framePeerReject
	framePeerStatus
	framePeerQuery
	framePeerReply
)

// maxFramePayload caps the length field readFrame accepts, so a corrupt or
// hostile header cannot make a reader allocate without bound.
const maxFramePayload = 1 << 24

const frameHeaderLen = 9

// appendFrame appends one encoded frame to dst and returns the extended
// slice. A round's frames for one peer are appended to one buffer and
// leave in one Write.
func appendFrame(dst []byte, typ byte, arg int, payload []byte) []byte {
	var hdr [frameHeaderLen]byte
	hdr[0] = typ
	binary.LittleEndian.PutUint32(hdr[1:], uint32(arg))
	binary.LittleEndian.PutUint32(hdr[5:], uint32(len(payload)))
	return append(append(dst, hdr[:]...), payload...)
}

// writeFrame writes one frame with a single Write call.
func writeFrame(w io.Writer, typ byte, arg int, payload []byte) error {
	_, err := w.Write(appendFrame(make([]byte, 0, frameHeaderLen+len(payload)), typ, arg, payload))
	return err
}

// readFrame reads one frame. An empty payload is returned as nil. Readers
// of a live connection pass a bufio.Reader, so a round's frames cost about
// one read between them.
func readFrame(r io.Reader) (typ byte, arg int, payload []byte, err error) {
	var hdr [frameHeaderLen]byte
	if _, err = io.ReadFull(r, hdr[:]); err != nil {
		return 0, 0, nil, err
	}
	typ = hdr[0]
	arg = int(int32(binary.LittleEndian.Uint32(hdr[1:])))
	length := binary.LittleEndian.Uint32(hdr[5:])
	if length > maxFramePayload {
		return 0, 0, nil, fmt.Errorf("simnet: oversized frame (%d bytes)", length)
	}
	if length > 0 {
		payload = make([]byte, length)
		if _, err = io.ReadFull(r, payload); err != nil {
			return 0, 0, nil, err
		}
	}
	return typ, arg, payload, nil
}
