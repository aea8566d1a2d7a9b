package protocol

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"

	"trust/internal/pki"
)

// Streamed session transport messages. The paper's continuous
// authentication is a *stream* of touch authenticators, but the
// request/response deployment re-pays full transport overhead per
// touch. These messages ride the length-prefixed frame codec
// (frame.go) over one long-lived connection per device:
//
//	client                          server
//	  | --- Hello (session MAC) ----> |   bind conn to session
//	  | <-- Welcome (nonce seed) ---- |   reset nonce chain
//	  | --- TouchBatch [reqs...] ---> |   per request:
//	  | <-- Page / Ack(error) ------- |     verify, advance chain
//	  | --- (close) ----------------> |   teardown
//
// Registration and login stay on the request/response path; the
// stream carries the steady-state hot path (docs/protocol.md,
// "Stream framing").

// StreamHello binds a connection to an established session. Like
// ResyncRequest it asserts no user action: the session-key MAC is the
// whole credential, so it needs no fresh touch. Replaying a captured
// hello opens a stream the attacker cannot use (requests still need
// MAC'd touch authenticators) but resets the session's nonce chain —
// it can stall a session, never advance one, the same bound as a
// replayed resync.
type StreamHello struct {
	Domain    string
	Account   string
	SessionID string
	MAC       []byte // HMAC-SHA256 under the session key
}

// StreamWelcome is the server's hello acknowledgment: the fresh nonce
// seed anchoring this connection's nonce chain, plus the server's
// current risk policy. The policy fields are informational: the server
// checks every request against its own policy.
type StreamWelcome struct {
	Domain    string
	SessionID string
	// NonceSeed parameterizes the connection's nonce chain: request i
	// must echo StreamNonce(key, seed, i), and the server's i-th
	// response rotates the session to StreamNonce(key, seed, i+1).
	// Both ends derive the chain locally, so the streamed hot path
	// never draws server entropy (and never takes the entropy lock).
	NonceSeed   []byte
	Window      int
	MinVerified int
	MAC         []byte
}

// MACBytes of a StreamHello covers everything but MAC.
func (m *StreamHello) MACBytes() []byte { return macBytes(m) }

// MACBytes of a StreamWelcome covers everything but MAC.
func (m *StreamWelcome) MACBytes() []byte { return macBytes(m) }

// streamNonceLabel domain-separates chain derivation from every other
// use of the session key.
const streamNonceLabel = "trust-stream-nonce-v1"

// StreamNonce derives position seq of a connection's nonce chain:
// HMAC-SHA256(key, label || seed || seq), truncated to the same
// 16-byte/32-hex shape as minted nonces. Knowing the seed without the
// session key predicts nothing; knowing both, client and server walk
// the chain in lockstep so batched requests can be built ahead of the
// responses they will be answered with.
//
// Each call keys a fresh HMAC; per-connection hot paths should hold a
// NonceChain instead.
func StreamNonce(key, seed []byte, seq uint64) Nonce {
	return NewNonceChain(key, seed).At(seq)
}

// NonceChain walks one connection's nonce chain without re-keying: it
// holds the session key's MACer and the MAC input label || seed ||
// counter, of which At rewrites only the counter, so a position costs
// the message blocks and the returned string. Not safe for concurrent
// use; each side's stream connection owns one (single read-loop
// goroutine on the server, the conn's owning goroutine on the client).
type NonceChain struct {
	mac *pki.MACer
	msg []byte // label || seed || 8-byte big-endian position
	sum [sha256.Size]byte
	hex [2 * 16]byte
}

// NewNonceChain binds a chain to a session key and a welcome's seed.
func NewNonceChain(key, seed []byte) *NonceChain {
	msg := make([]byte, 0, len(streamNonceLabel)+len(seed)+8)
	msg = append(append(msg, streamNonceLabel...), seed...)
	return &NonceChain{mac: pki.NewMACer(key), msg: binary.BigEndian.AppendUint64(msg, 0)}
}

// At derives position seq of the chain; identical output to
// StreamNonce(key, seed, seq). The returned string is its only
// allocation.
func (c *NonceChain) At(seq uint64) Nonce {
	binary.BigEndian.PutUint64(c.msg[len(c.msg)-8:], seq)
	sum := c.mac.AppendMAC(c.sum[:0], c.msg)
	hex.Encode(c.hex[:], sum[:16])
	return Nonce(c.hex[:])
}
