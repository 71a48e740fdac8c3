package simnet

import (
	"bytes"
	"crypto/hmac"
	"encoding/binary"
	"net"
	"testing"
	"time"
)

// helloFrame encodes a dialer's HELLO claiming to be player `from`.
func helloFrame(from int, version byte, to int, digest [32]byte) []byte {
	p := append([]byte{}, helloMagic...)
	p = append(p, version)
	p = binary.LittleEndian.AppendUint32(p, uint32(to))
	p = append(p, digest[:]...)
	p = append(p, bytes.Repeat([]byte{0x6e}, nonceLen)...)
	return appendFrame(nil, framePeerHello, from, p)
}

// FuzzAcceptHandshake runs the accepter's side of the handshake over
// net.Pipe against a fuzzed dialer that writes `hello`, then `auth` — or,
// with sign set and a WELCOME received, the AUTH frame a holder of the
// secret would send for that WELCOME. The accepter must never panic or
// hang, and may return an identity only when the AUTH it consumed carries
// the MAC over that very exchange's nonces.
func FuzzAcceptHandshake(f *testing.F) {
	const self, dialer = 2, 5
	secret := []byte("0123456789abcdef")
	otherDigest := testDigest
	otherDigest[0] ^= 0xff
	good := helloFrame(dialer, peerWireVersion, self, testDigest)
	f.Add(good, []byte(nil), true)                                                           // a valid HELLO/AUTH pair
	f.Add(helloFrame(dialer, peerWireVersion+1, self, testDigest), []byte(nil), false)       // REJECT: version
	f.Add(helloFrame(dialer, peerWireVersion, self+1, testDigest), []byte(nil), false)       // REJECT: identity
	f.Add(helloFrame(dialer, peerWireVersion, self, otherDigest), []byte(nil), false)        // REJECT: config
	f.Add(good, appendFrame(nil, framePeerAuth, dialer, make([]byte, macLen)), false)        // REJECT: bad MAC
	f.Add(good, appendFrame(nil, framePeerAuth, dialer+1, make([]byte, macLen)), false)      // AUTH from another id
	f.Add(appendFrame(nil, frameData, 0, []byte{0xaa}), []byte(nil), false)                  // not a hello
	f.Add(good[:20], []byte(nil), true)                                                      // torn hello
	f.Add(append(good, appendFrame(nil, framePeerAuth, dialer, nil)...), []byte(nil), false) // both in one write

	f.Fuzz(func(t *testing.T, hello, auth []byte, sign bool) {
		dc, ac := net.Pipe()
		deadline := time.Now().Add(5 * time.Second)
		dc.SetDeadline(deadline)
		ac.SetDeadline(deadline)
		type accepted struct {
			id  int
			err error
		}
		result := make(chan accepted, 1)
		go func() {
			id, err := acceptHandshake(ac, secret, self, testDigest)
			ac.Close()
			result <- accepted{id, err}
		}()
		replies := make(chan frameRec, 4) // the accepter writes at most a WELCOME and a REJECT
		go func() {
			defer close(replies)
			for {
				typ, arg, payload, err := readFrame(dc)
				if err != nil {
					return
				}
				replies <- frameRec{typ, arg, payload}
			}
		}()

		write := func(b []byte) {
			if len(b) > 0 {
				dc.Write(b) // fails once the accepter has given up; that is its answer
			}
		}
		write(hello)
		var welcome *frameRec
		if _, _, _, err := readFrame(bytes.NewReader(hello)); sign && err == nil {
			// A whole first frame: the accepter answers or hangs up.
			if r, ok := <-replies; ok {
				welcome = &r
			}
		}
		if h, _, _ := parseHello(hello); welcome != nil && welcome.typ == framePeerWelcome && len(welcome.payload) == welcomeLen && h != nil {
			auth = appendFrame(nil, framePeerAuth, h.arg,
				hsMAC(secret, "cli", h.payload[43:], welcome.payload[1:1+nonceLen], h.arg, self, testDigest))
		}
		write(auth)
		dc.Close()
		got := <-result
		var sent []frameRec
		if welcome != nil {
			sent = append(sent, *welcome)
		}
		for r := range replies {
			sent = append(sent, r)
		}

		if got.err != nil {
			if got.id != -1 {
				t.Fatalf("failed handshake returned identity %d (%v)", got.id, got.err)
			}
			return
		}
		// Success: the consumed HELLO and AUTH must bind got.id to a MAC over
		// the nonces of this exchange.
		h, a, err := parseHello(append(append([]byte{}, hello...), auth...))
		if h == nil || a == nil {
			t.Fatalf("accepted identity %d without a parseable HELLO/AUTH (%v)", got.id, err)
		}
		if len(sent) == 0 || sent[0].typ != framePeerWelcome || len(sent[0].payload) != welcomeLen {
			t.Fatalf("accepted identity %d without sending a WELCOME", got.id)
		}
		want := hsMAC(secret, "cli", h.payload[43:], sent[0].payload[1:1+nonceLen], got.id, self, testDigest)
		if h.arg != got.id || a.typ != framePeerAuth || a.arg != got.id || !hmac.Equal(a.payload, want) {
			t.Fatalf("accepted identity %d without a valid MAC: hello from %d, auth (%d, %d, %x)", got.id, h.arg, a.typ, a.arg, a.payload)
		}
	})
}

// parseHello decodes a well-formed HELLO frame from the start of wire, and
// the frame after it when there is one. The HELLO is nil for anything else.
func parseHello(wire []byte) (hello, next *frameRec, err error) {
	br := bytes.NewReader(wire)
	typ, arg, payload, err := readFrame(br)
	if err != nil || typ != framePeerHello || len(payload) != helloLen {
		return nil, nil, err
	}
	hello = &frameRec{typ, arg, payload}
	typ, arg, payload, err = readFrame(br)
	if err != nil {
		return hello, nil, err
	}
	return hello, &frameRec{typ, arg, payload}, nil
}
