package protocol

import (
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
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
//	  | --- Heartbeat --------------> |
//	  | <-- Heartbeat (echo) -------- |
//	  | <-- PolicyPush -------------- |   server-initiated, any time
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
// seed anchoring this connection's nonce chain, plus the current risk
// policy so a reconnecting device starts with up-to-date requirements.
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

// PolicyPush is a server-initiated risk-policy update on a live
// stream — the continuous-auth requirement can tighten without waiting
// for the device's next request. Seq increases per connection so a
// replayed (or reordered) push can never roll a tightened policy back.
type PolicyPush struct {
	Domain      string
	SessionID   string
	Window      int
	MinVerified int
	Seq         uint64
	MAC         []byte
}

// MACBytes of a StreamHello covers everything but MAC.
func (m *StreamHello) MACBytes() []byte { return macBytes(m) }

// MACBytes of a StreamWelcome covers everything but MAC.
func (m *StreamWelcome) MACBytes() []byte { return macBytes(m) }

// MACBytes of a PolicyPush covers everything but MAC.
func (m *PolicyPush) MACBytes() []byte { return macBytes(m) }

// streamNonceLabel domain-separates chain derivation from every other
// use of the session key.
const streamNonceLabel = "trust-stream-nonce-v1"

var streamNonceLabelBytes = []byte(streamNonceLabel)

// StreamNonce derives position seq of a connection's nonce chain:
// HMAC-SHA256(key, label || seed || seq), truncated to the same
// 16-byte/32-hex shape as minted nonces. Knowing the seed without the
// session key predicts nothing; knowing both, client and server walk
// the chain in lockstep so batched requests can be built ahead of the
// responses they will be answered with.
//
// Each call re-runs the HMAC key schedule; per-connection hot paths
// should hold a NonceChain instead.
func StreamNonce(key, seed []byte, seq uint64) Nonce {
	c := NonceChain{mac: hmac.New(sha256.New, key), seed: seed}
	return c.At(seq)
}

// NonceChain walks one connection's nonce chain without re-keying:
// hmac.Reset restores the keyed initial state, so At pays only the
// message blocks — profiling showed the per-call key schedule in
// StreamNonce was among the largest allocation sources on the streamed
// hot path. Not safe for concurrent use; each side's stream connection
// owns one (single read-loop goroutine on the server, the conn's
// owning goroutine on the client).
type NonceChain struct {
	mac  hash.Hash
	seed []byte
	sum  [sha256.Size]byte
	hex  [2 * 16]byte
}

// NewNonceChain binds a chain to a session key and a welcome's seed.
func NewNonceChain(key, seed []byte) *NonceChain {
	return &NonceChain{mac: hmac.New(sha256.New, key), seed: append([]byte(nil), seed...)}
}

// At derives position seq of the chain; identical output to
// StreamNonce(key, seed, seq).
func (c *NonceChain) At(seq uint64) Nonce {
	c.mac.Reset()
	c.mac.Write(streamNonceLabelBytes)
	c.mac.Write(c.seed)
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], seq)
	c.mac.Write(b[:])
	sum := c.mac.Sum(c.sum[:0])
	hex.Encode(c.hex[:], sum[:16])
	return Nonce(c.hex[:])
}
