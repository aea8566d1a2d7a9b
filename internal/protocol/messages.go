// Package protocol defines the wire messages of the TRUST remote
// identity protocols — registration (the paper's Fig 9) and continuous
// authentication (Fig 10) — together with their authenticator input,
// and the FLock-side client that produces and verifies them.
//
// Terminology note: the paper writes "MAC: Encrypt ServerKeypriv(hash
// of key-value pairs)" for asymmetric authenticators; those are digital
// signatures here (ed25519). MACs under the symmetric session key use
// HMAC-SHA256. Session keys ride to the server under the certificate's
// X25519 key (see pki.EncryptTo).
package protocol

import (
	"trust/internal/frame"
	"trust/internal/pki"
)

// Nonce is a server-issued freshness token (hex string on the wire).
type Nonce string

// RegistrationPage is Fig 9 step 1: the server's response to a
// registration request.
type RegistrationPage struct {
	Domain     string
	Nonce      Nonce
	Page       *frame.Page
	ServerCert *pki.Certificate // CA-signed
	Signature  []byte           // server signature over SigningBytes
}

// RegistrationSubmit is Fig 9 step 3/4: the FLock module's signed
// binding submission, forwarded by the (untrusted) device.
type RegistrationSubmit struct {
	Domain     string
	Account    string
	Nonce      Nonce
	UserPub    []byte // pkA — the fresh per-service public key
	FrameHash  frame.Hash
	DeviceCert *pki.Certificate // FLock's CA-signed certificate
	Signature  []byte           // device-key signature over SigningBytes
}

// RegistrationResult is the server's verdict.
type RegistrationResult struct {
	OK     bool
	Reason string
}

// LoginPage is Fig 10 step 1: the server's login page plus fresh nonce.
type LoginPage struct {
	Domain    string
	Nonce     Nonce
	Page      *frame.Page
	Signature []byte // server signature
}

// LoginSubmit is Fig 10 step 2/3: account, nonce echo, session key
// encrypted to the server, frame hash, the risk factor, and an HMAC
// under the new session key.
type LoginSubmit struct {
	Domain       string
	Account      string
	Nonce        Nonce
	SessionKeyCT []byte // pki.EncryptTo(server KEM key, session key)
	FrameHash    frame.Hash
	RiskVerified int // x of the paper's "x out of n touches"
	RiskWindow   int // n
	// Signature binds the submission to the account's registered
	// per-service key (the paper's user-key authentication of the
	// session key), preventing anyone else from opening a session as
	// this account.
	Signature []byte
	MAC       []byte // HMAC-SHA256 under the session key
}

// ContentPage is the server's post-login page: session id, next nonce,
// page content, MAC under the session key.
type ContentPage struct {
	Domain    string
	SessionID string
	Nonce     Nonce
	Account   string
	Page      *frame.Page
	// Ticket, present only on login and resume responses, is the
	// opaque single-use session-resumption ticket (docs/protocol.md,
	// "Session resumption"): the session key and account binding
	// AEAD-sealed under the server's epoch-rotated ticket key. The
	// device caches it and presents it in a later ResumeSubmit to
	// re-establish a session without signatures or KEM. Covered by the
	// MAC like every other field.
	Ticket []byte `json:",omitempty"`
	MAC    []byte
}

// ResumeSubmit is the session-resumption fast login: instead of the
// Fig 10 cold path (login page fetch, ed25519 signature, KEM
// decapsulation) the device presents the opaque ticket a previous
// login issued. The MAC under the ticket's sealed session key proves
// the presenter owns the key the ticket binds; the frame hash and risk
// factor keep resume under the same continuous-auth policy as a full
// login. No signature and no nonce echo: the ticket itself is the
// single-use freshness token (the server burns its embedded nonce in
// the nonce table on first use).
type ResumeSubmit struct {
	Domain       string
	Account      string
	Ticket       []byte
	FrameHash    frame.Hash
	RiskVerified int
	RiskWindow   int
	MAC          []byte // HMAC-SHA256 under the ticket's sealed session key
}

// ResyncRequest is the session-recovery message: a device that lost a
// ContentPage in transit (the server rotated the session nonce but the
// echo never arrived) proves session-key knowledge and asks for the
// last page to be re-served under a fresh nonce. It asserts no user
// action, so it needs no touch authorization and no frame hash; the MAC
// under the session key is the whole credential. Replaying a captured
// ResyncRequest only rotates the nonce again — it can stall a session
// but never advance one.
type ResyncRequest struct {
	Domain    string
	Account   string
	SessionID string
	MAC       []byte // HMAC-SHA256 under the session key
}

// PageRequest is Fig 10 step 4: each subsequent user-to-server
// interaction, MAC'd under the session key.
type PageRequest struct {
	Domain       string
	Account      string
	SessionID    string
	Nonce        Nonce // echo of the last nonce the server issued
	Action       string
	FrameHash    frame.Hash
	RiskVerified int
	RiskWindow   int
	MAC          []byte
}

// authBytes returns m's authenticator input, which its signature or MAC
// covers: its encoding with that authenticator empty (docs/protocol.md,
// "Authenticator input"). A message with a field out of range has none.
func authBytes(m encoder) ([]byte, error) {
	var in []byte
	err := withEncoding(m.fields, true, func(b []byte) { in = append([]byte(nil), b...) })
	return in, err
}

// SigningBytes of a RegistrationPage covers everything but Signature.
func (m *RegistrationPage) SigningBytes() ([]byte, error) { return authBytes(m) }

// SigningBytes of a RegistrationSubmit covers everything but Signature.
func (m *RegistrationSubmit) SigningBytes() ([]byte, error) { return authBytes(m) }

// SigningBytes of a LoginPage covers everything but Signature.
func (m *LoginPage) SigningBytes() ([]byte, error) { return authBytes(m) }

// SigningBytes of a LoginSubmit covers everything but Signature and
// MAC (the signature is applied first, the MAC over the signed whole).
func (m *LoginSubmit) SigningBytes() ([]byte, error) { return authBytes((*loginSigning)(m)) }

// loginSigning walks a LoginSubmit with both authenticators empty.
type loginSigning LoginSubmit

func (m *loginSigning) fields(c *binCodec) {
	c.inner = true
	(*LoginSubmit)(m).fields(c)
}

// Authenticated is a message MAC'd under a session key: LoginSubmit,
// ContentPage, PageRequest, ResyncRequest, ResumeSubmit and the stream
// control messages. SealMAC and VerifyMAC hash its MAC input where it
// is encoded; MACBytes materialises it for tests to compare against.
type Authenticated interface {
	MACBytes() []byte
	encoder
}

// macBytes is MACBytes: nil for a message with a field out of range.
func macBytes(m Authenticated) []byte {
	b, _ := authBytes(m)
	return b
}

// SealMAC returns m's MAC under mc, equal to
// pki.MAC(key, m.MACBytes()), or nil if m has no MAC input. The
// returned tag is its only allocation.
func SealMAC(mc *pki.MACer, m Authenticated) []byte { return AppendMAC(nil, mc, m) }

// AppendMAC appends m's MAC under mc to dst, or returns dst unchanged
// if m has no MAC input. Sealing a message into its own tag's storage
// (m.MAC = AppendMAC(m.MAC[:0], mc, m)) allocates nothing: the MAC
// input encodes the tag empty.
func AppendMAC(dst []byte, mc *pki.MACer, m Authenticated) []byte {
	tag := dst
	withEncoding(m.fields, true, func(in []byte) { tag = mc.AppendMAC(dst, in) })
	return tag
}

// VerifyMAC reports, in constant time and without allocating, whether
// tag is m's MAC under mc — hmac.Equal(pki.MAC(key, m.MACBytes()), tag).
func VerifyMAC(mc *pki.MACer, m Authenticated, tag []byte) bool {
	ok := false
	withEncoding(m.fields, true, func(in []byte) { ok = mc.Check(in, tag) })
	return ok
}

// MACBytes of a LoginSubmit covers everything (including Signature)
// but MAC.
func (m *LoginSubmit) MACBytes() []byte { return macBytes(m) }

// MACBytes of a ContentPage covers everything but MAC.
func (m *ContentPage) MACBytes() []byte { return macBytes(m) }

// MACBytes of a PageRequest covers everything but MAC.
func (m *PageRequest) MACBytes() []byte { return macBytes(m) }

// MACBytes of a ResyncRequest covers everything but MAC.
func (m *ResyncRequest) MACBytes() []byte { return macBytes(m) }

// MACBytes of a ResumeSubmit covers everything but MAC.
func (m *ResumeSubmit) MACBytes() []byte { return macBytes(m) }
