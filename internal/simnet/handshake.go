package simnet

// The peer handshake: every TCP connection between daemons is bound to a
// player identity before a single protocol byte flows. The paper assumes
// private authenticated channels (§2); over a real network that guarantee
// has to be manufactured, and this handshake supplies the authenticated
// half with a versioned HMAC challenge–response keyed by the cluster secret
// from peers.yaml:
//
//	dialer  → HELLO   {version, fromID, toID, configDigest, nonceA}
//	accepter→ WELCOME {version, selfID, nonceB,
//	                   macB = HMAC(secret, "srv"‖nonceA‖nonceB‖selfID‖fromID‖digest)}
//	dialer  → AUTH    {macA = HMAC(secret, "cli"‖nonceA‖nonceB‖fromID‖selfID‖digest)}
//
// Both MACs cover both nonces, both identities and the config digest, so a
// connection only binds when the two processes share the secret, agree on
// the peer config byte-for-byte (minus node-local fields), speak the same
// wire version, and each believes the other is who the roster says. The
// accepter additionally rejects a second live connection claiming an
// already-bound player id (REJECT frame, ErrDuplicatePlayer at the dialer).
//
// Confidentiality is NOT provided: frames travel in the clear. Deploy the
// daemons on a trusted network segment or under an encrypting overlay
// (WireGuard, stunnel); see docs/OPERATIONS.md "Security model".

import (
	"crypto/hmac"
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
)

// peerWireVersion is the peer-transport wire version. Bump it whenever the
// frame layout (frame.go) or handshake changes incompatibly — or what the
// rounds and queries on top of it carry does; mismatched daemons then fail
// their handshake with ErrBadVersion instead of desyncing mid-round.
// Version 2: an unpaced beacon daemon's emission round carries up to 32
// coin shares per sender instead of one, and its STATE answer names the
// round's end position and width, so a version-1 daemon is refused.
const peerWireVersion = 2

// Handshake failure modes, matchable with errors.Is. Each names the exact
// operator mistake that produces it.
var (
	// ErrBadVersion: the two daemons run incompatible builds.
	ErrBadVersion = errors.New("simnet: peer wire version mismatch")
	// ErrIdentityMismatch: the dialer reached a listener that is not the
	// player the roster maps that address to (or a MAC failed, meaning the
	// remote does not hold the cluster secret for the claimed identity).
	ErrIdentityMismatch = errors.New("simnet: peer identity mismatch")
	// ErrConfigMismatch: the two daemons loaded different peer configs.
	ErrConfigMismatch = errors.New("simnet: peer config digest mismatch")
	// ErrDuplicatePlayer: a live connection for this player id already
	// exists at the accepter — two daemons are running with the same
	// -player index.
	ErrDuplicatePlayer = errors.New("simnet: duplicate player id")
)

var helloMagic = []byte("DPRBGp")

const (
	nonceLen = 16
	macLen   = sha256.Size
)

// helloPayload: magic(6) ‖ version(1) ‖ toID(4) ‖ digest(32) ‖ nonceA(16).
const helloLen = 6 + 1 + 4 + 32 + nonceLen

// welcomePayload: version(1) ‖ nonceB(16) ‖ macB(32).
const welcomeLen = 1 + nonceLen + macLen

// hsMAC computes the handshake MAC for one direction. `role` domain-
// separates the two directions so a reflected MAC never verifies.
func hsMAC(secret []byte, role string, nonceA, nonceB []byte, senderID, receiverID int, digest [32]byte) []byte {
	m := hmac.New(sha256.New, secret)
	m.Write([]byte(role))
	m.Write(nonceA)
	m.Write(nonceB)
	var ids [8]byte
	binary.LittleEndian.PutUint32(ids[0:], uint32(senderID))
	binary.LittleEndian.PutUint32(ids[4:], uint32(receiverID))
	m.Write(ids[:])
	m.Write(digest[:])
	return m.Sum(nil)
}

// dialHandshake runs the dialer side, proving we are `self` and verifying
// the accepter is `to`. The caller is responsible for connection deadlines.
func dialHandshake(conn net.Conn, secret []byte, self, to int, digest [32]byte) error {
	nonceA := make([]byte, nonceLen)
	if _, err := rand.Read(nonceA); err != nil {
		return fmt.Errorf("simnet: handshake nonce: %w", err)
	}
	hello := make([]byte, 0, helloLen)
	hello = append(hello, helloMagic...)
	hello = append(hello, peerWireVersion)
	var to4 [4]byte
	binary.LittleEndian.PutUint32(to4[:], uint32(to))
	hello = append(hello, to4[:]...)
	hello = append(hello, digest[:]...)
	hello = append(hello, nonceA...)
	if err := writeFrame(conn, framePeerHello, self, hello); err != nil {
		return fmt.Errorf("simnet: handshake hello: %w", err)
	}

	typ, arg, payload, err := readFrame(conn)
	if err != nil {
		return fmt.Errorf("simnet: handshake welcome: %w", err)
	}
	if typ == framePeerReject {
		return rejectError(arg, string(payload))
	}
	if typ != framePeerWelcome || len(payload) != welcomeLen {
		return fmt.Errorf("%w: unexpected frame %d during welcome", ErrIdentityMismatch, typ)
	}
	if payload[0] != peerWireVersion {
		return fmt.Errorf("%w: we speak v%d, peer %d speaks v%d", ErrBadVersion, peerWireVersion, arg, payload[0])
	}
	if arg != to {
		return fmt.Errorf("%w: dialed player %d but player %d answered", ErrIdentityMismatch, to, arg)
	}
	nonceB := payload[1 : 1+nonceLen]
	macB := payload[1+nonceLen:]
	want := hsMAC(secret, "srv", nonceA, nonceB, to, self, digest)
	if !hmac.Equal(macB, want) {
		return fmt.Errorf("%w: player %d failed to prove identity (wrong secret or config?)", ErrIdentityMismatch, to)
	}
	macA := hsMAC(secret, "cli", nonceA, nonceB, self, to, digest)
	if err := writeFrame(conn, framePeerAuth, self, macA); err != nil {
		return fmt.Errorf("simnet: handshake auth: %w", err)
	}
	return nil
}

// acceptHandshake runs the accepter side, returning the authenticated
// player id of the dialer. The caller is responsible for deadlines and for
// the duplicate-identity policy (this function only binds one connection).
func acceptHandshake(conn net.Conn, secret []byte, self int, digest [32]byte) (int, error) {
	typ, from, payload, err := readFrame(conn)
	if err != nil {
		return -1, fmt.Errorf("simnet: handshake hello: %w", err)
	}
	if typ != framePeerHello || len(payload) != helloLen {
		return -1, fmt.Errorf("%w: first frame must be a peer hello, got type %d", ErrIdentityMismatch, typ)
	}
	p := payload
	if string(p[:6]) != string(helloMagic) {
		return -1, fmt.Errorf("%w: bad hello magic", ErrIdentityMismatch)
	}
	if p[6] != peerWireVersion {
		err := fmt.Errorf("%w: we speak v%d, dialer %d speaks v%d", ErrBadVersion, peerWireVersion, from, p[6])
		rejectPeer(conn, rejectVersion, err.Error())
		return -1, err
	}
	toID := int(binary.LittleEndian.Uint32(p[7:11]))
	if toID != self {
		err := fmt.Errorf("%w: dialer %d thinks this address is player %d, we are player %d",
			ErrIdentityMismatch, from, toID, self)
		rejectPeer(conn, rejectIdentity, err.Error())
		return -1, err
	}
	var theirDigest [32]byte
	copy(theirDigest[:], p[11:43])
	if theirDigest != digest {
		err := fmt.Errorf("%w: dialer %d loaded a different peers.yaml", ErrConfigMismatch, from)
		rejectPeer(conn, rejectConfig, err.Error())
		return -1, err
	}
	nonceA := p[43:]

	nonceB := make([]byte, nonceLen)
	if _, err := rand.Read(nonceB); err != nil {
		return -1, fmt.Errorf("simnet: handshake nonce: %w", err)
	}
	welcome := make([]byte, 0, welcomeLen)
	welcome = append(welcome, peerWireVersion)
	welcome = append(welcome, nonceB...)
	welcome = append(welcome, hsMAC(secret, "srv", nonceA, nonceB, self, from, digest)...)
	if err := writeFrame(conn, framePeerWelcome, self, welcome); err != nil {
		return -1, fmt.Errorf("simnet: handshake welcome: %w", err)
	}

	typ, authFrom, mac, err := readFrame(conn)
	if err != nil {
		return -1, fmt.Errorf("simnet: handshake auth: %w", err)
	}
	if typ != framePeerAuth || authFrom != from || len(mac) != macLen {
		return -1, fmt.Errorf("%w: malformed auth frame from dialer %d", ErrIdentityMismatch, from)
	}
	want := hsMAC(secret, "cli", nonceA, nonceB, from, self, digest)
	if !hmac.Equal(mac, want) {
		err := fmt.Errorf("%w: dialer claiming id %d failed to prove it (wrong secret?)", ErrIdentityMismatch, from)
		rejectPeer(conn, rejectIdentity, err.Error())
		return -1, err
	}
	return from, nil
}

// Reject codes carried in a REJECT frame's arg, mapped back onto the typed
// handshake errors at the dialer.
const (
	rejectVersion = iota + 1
	rejectIdentity
	rejectConfig
	rejectDuplicate
)

// rejectPeer best-effort notifies the dialer why it is being dropped.
func rejectPeer(conn net.Conn, code int, reason string) {
	_ = writeFrame(conn, framePeerReject, code, []byte(reason))
}

// rejectError turns a received REJECT frame into the matching typed error.
func rejectError(code int, reason string) error {
	base := ErrIdentityMismatch
	switch code {
	case rejectVersion:
		base = ErrBadVersion
	case rejectConfig:
		base = ErrConfigMismatch
	case rejectDuplicate:
		base = ErrDuplicatePlayer
	}
	return fmt.Errorf("%w: rejected by peer: %s", base, reason)
}
