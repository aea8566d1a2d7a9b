package protocol

import (
	"crypto/ed25519"
	"crypto/sha256"
	"crypto/subtle"
	"errors"
	"fmt"
	"time"

	"trust/internal/flock"
	"trust/internal/frame"
	"trust/internal/pki"
)

// Client is the FLock-side protocol engine: it runs inside the module's
// trust boundary, so certificate checks, signing, session-key handling,
// and frame hashing all happen in trusted hardware even when the host
// SoC is compromised (the paper's assumption (i) in Sec IV-B).
type Client struct {
	m *flock.Module
	// frameBuf is DisplayPage's render scratch: the repeater copies the
	// frame it is handed, so one buffer serves every displayed page.
	frameBuf []byte
	// verified maps a bound domain to the certDigest of the last server
	// certificate whose CA signature verified at login (checkServerCert).
	verified map[string][sha256.Size]byte
}

// NewClient wires a protocol client to a module.
func NewClient(m *flock.Module) *Client { return &Client{m: m} }

// Session is the client's view of an authenticated session.
type Session struct {
	Domain    string
	Account   string
	ID        string
	Key       []byte
	LastNonce Nonce

	// Reusable HMAC state for Key, split by direction so the streamed
	// transport's pipelining stays race-free: the device goroutine owns
	// buildMAC (BuildPageRequestAt), the goroutine consuming inbound
	// frames owns acceptMAC (AcceptContentPage). On the HTTP transport
	// both run on the one device goroutine. The login and resume
	// submissions keep the MACer that sealed them as buildMAC, and
	// AcceptResumePage keeps the one that verified the resumed page as
	// acceptMAC: it runs on the device goroutine before the device
	// hands the session to a stream's inbound reader. Cold-path
	// messages (hello, welcome, resync) use a fresh MACer
	// each, so no MACer gains a second owner.
	buildMAC  *pki.MACer
	acceptMAC *pki.MACer
}

// builder returns the session's build-side HMAC state (device
// goroutine only).
func (s *Session) builder() *pki.MACer {
	if s.buildMAC == nil {
		s.buildMAC = pki.NewMACer(s.Key)
	}
	return s.buildMAC
}

// accepter returns the session's accept-side HMAC state (inbound-frame
// goroutine only).
func (s *Session) accepter() *pki.MACer {
	if s.acceptMAC == nil {
		s.acceptMAC = pki.NewMACer(s.Key)
	}
	return s.acceptMAC
}

// Errors surfaced to callers (the device shows these to the user).
var (
	ErrServerCert   = errors.New("protocol: server certificate invalid")
	ErrServerAuth   = errors.New("protocol: server authenticator invalid")
	ErrNoFreshTouch = errors.New("protocol: no fresh verified touch")
)

// HandleRegistrationPage is Fig 9 step 2: verify the server certificate
// and message signature, generate the per-service key pair, store the
// record, and build the signed submission. The registration-button
// touch must already have verified (touch authorization), and the
// displayed frame's hash is taken from the repeater.
func (c *Client) HandleRegistrationPage(now time.Duration, msg *RegistrationPage, account string) (*RegistrationSubmit, error) {
	if msg == nil || msg.Page == nil {
		return nil, errors.New("protocol: empty registration page")
	}
	if err := msg.ServerCert.Verify(c.m.CAPublicKey(), pki.RoleServer); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrServerCert, err)
	}
	if msg.ServerCert.Subject != msg.Domain {
		return nil, fmt.Errorf("%w: certificate subject %q does not match domain %q", ErrServerCert, msg.ServerCert.Subject, msg.Domain)
	}
	if sb, err := msg.SigningBytes(); err != nil || !ed25519.Verify(msg.ServerCert.Key(), sb, msg.Signature) {
		return nil, ErrServerAuth
	}
	if !c.m.TouchAuthorized(now) {
		return nil, ErrNoFreshTouch
	}
	fh, ok := c.m.Repeater().LastHash()
	if !ok {
		return nil, errors.New("protocol: no displayed frame to attest")
	}
	rec, err := c.m.NewServiceKeys(msg.Domain, account, msg.ServerCert.Key())
	if err != nil {
		return nil, err
	}
	submit := &RegistrationSubmit{
		Domain:     msg.Domain,
		Account:    account,
		Nonce:      msg.Nonce,
		UserPub:    append([]byte(nil), rec.Keys.Public...),
		FrameHash:  fh,
		DeviceCert: c.m.DeviceCert(),
	}
	sb, err := submit.SigningBytes()
	if err != nil {
		return nil, err
	}
	sig, err := c.m.SignAsDevice(now, sb)
	if err != nil {
		return nil, err
	}
	submit.Signature = sig
	return submit, nil
}

// kemKeyFor returns the server's KEM key for a bound domain, verifying
// the presented certificate matches the stored binding (key pinning
// from registration).
func (c *Client) kemKeyFor(domain string, cert *pki.Certificate) ([]byte, error) {
	rec, err := c.m.Record(domain)
	if err != nil {
		return nil, err
	}
	if err := c.checkServerCert(domain, cert); err != nil {
		return nil, err
	}
	if string(cert.Key()) != string(rec.ServerPublicKey) {
		return nil, fmt.Errorf("%w: server key changed since registration", ErrServerCert)
	}
	if len(cert.KemKey) == 0 {
		return nil, fmt.Errorf("%w: server certificate lacks a KEM key", ErrServerCert)
	}
	return cert.KemKey, nil
}

// checkServerCert is cert.Verify for the server role, run once per
// certificate and domain. Verify's verdict depends only on the
// certificate's signing bytes, its signature, the module's fixed CA key
// and the role, which the signing bytes carry; so a certificate whose
// digest equals, in constant time, that of the last one to verify for
// domain needs no second ed25519 check. Any other certificate takes the
// full check and, passing it, becomes the one remembered.
func (c *Client) checkServerCert(domain string, cert *pki.Certificate) error {
	d, ok := certDigest(cert)
	if prev, hit := c.verified[domain]; ok && hit && subtle.ConstantTimeCompare(d[:], prev[:]) == 1 {
		return nil
	}
	if err := cert.Verify(c.m.CAPublicKey(), pki.RoleServer); err != nil {
		return fmt.Errorf("%w: %v", ErrServerCert, err)
	}
	if ok {
		if c.verified == nil {
			c.verified = make(map[string][sha256.Size]byte)
		}
		c.verified[domain] = d
	}
	return nil
}

// certDigest is SHA-256 over the SHA-256 of a certificate's signing
// bytes followed by its signature. ok is false for a certificate that
// cannot verify anyway: nil, one whose signing bytes do not encode, or
// one with a signature of the wrong size.
func certDigest(cert *pki.Certificate) (d [sha256.Size]byte, ok bool) {
	if cert == nil || len(cert.Signature) != ed25519.SignatureSize {
		return d, false
	}
	sb := cert.SigningBytes()
	if sb == nil {
		return d, false
	}
	var in [sha256.Size + ed25519.SignatureSize]byte
	signed := sha256.Sum256(sb)
	copy(in[:], signed[:])
	copy(in[sha256.Size:], cert.Signature)
	return sha256.Sum256(in[:]), true
}

// HandleLoginPage is Fig 10 step 2: verify the login page came from the
// bound server, then — given a verified login touch — mint a session
// key, encrypt it to the server, and build the MAC'd login submission
// carrying the frame hash and the current risk factor.
func (c *Client) HandleLoginPage(now time.Duration, msg *LoginPage, serverCert *pki.Certificate, account string, riskWindow int) (*LoginSubmit, *Session, error) {
	if msg == nil || msg.Page == nil {
		return nil, nil, errors.New("protocol: empty login page")
	}
	sb, err := msg.SigningBytes()
	if err == nil {
		err = c.m.VerifyServerSignature(msg.Domain, sb, msg.Signature)
	}
	if err != nil {
		return nil, nil, fmt.Errorf("%w: %v", ErrServerAuth, err)
	}
	kem, err := c.kemKeyFor(msg.Domain, serverCert)
	if err != nil {
		return nil, nil, err
	}
	if !c.m.TouchAuthorized(now) {
		return nil, nil, ErrNoFreshTouch
	}
	fh, ok := c.m.Repeater().LastHash()
	if !ok {
		return nil, nil, errors.New("protocol: no displayed frame to attest")
	}
	key, err := c.m.NewSessionKey()
	if err != nil {
		return nil, nil, err
	}
	ct, err := pki.EncryptTo(kem, key, c.m.Entropy())
	if err != nil {
		return nil, nil, err
	}
	verified, considered := c.m.RiskFactor(riskWindow)
	submit := &LoginSubmit{
		Domain:       msg.Domain,
		Account:      account,
		Nonce:        msg.Nonce,
		SessionKeyCT: ct,
		FrameHash:    fh,
		RiskVerified: verified,
		RiskWindow:   considered,
	}
	sb, err = submit.SigningBytes()
	if err != nil {
		return nil, nil, err
	}
	sig, err := c.m.SignAsService(now, msg.Domain, sb)
	if err != nil {
		return nil, nil, err
	}
	submit.Signature = sig
	mc := pki.NewMACer(key)
	submit.MAC = SealMAC(mc, submit)
	sess := &Session{Domain: msg.Domain, Account: account, Key: key, LastNonce: msg.Nonce, buildMAC: mc}
	return submit, sess, nil
}

// AcceptContentPage verifies a server content page against the session
// (MAC, account, domain) and rolls the session nonce forward.
func (c *Client) AcceptContentPage(sess *Session, msg *ContentPage) error {
	if msg == nil || msg.Page == nil {
		return errors.New("protocol: empty content page")
	}
	if msg.Domain != sess.Domain || msg.Account != sess.Account {
		return fmt.Errorf("protocol: content page for %s/%s on session %s/%s", msg.Domain, msg.Account, sess.Domain, sess.Account)
	}
	if !VerifyMAC(sess.accepter(), msg, msg.MAC) {
		return ErrServerAuth
	}
	if sess.ID == "" {
		sess.ID = msg.SessionID
	} else if sess.ID != msg.SessionID {
		return fmt.Errorf("protocol: session id changed from %q to %q", sess.ID, msg.SessionID)
	}
	sess.LastNonce = msg.Nonce
	return nil
}

// BuildPageRequest is Fig 10 step 4: each subsequent interaction. The
// triggering touch must have verified recently; the request carries the
// current frame hash and risk factor, MAC'd under the session key.
func (c *Client) BuildPageRequest(now time.Duration, sess *Session, action string, riskWindow int) (*PageRequest, error) {
	if sess == nil {
		return nil, errors.New("protocol: no established session")
	}
	return c.BuildPageRequestAt(now, sess, action, riskWindow, sess.LastNonce)
}

// BuildPageRequestAt is BuildPageRequest with the caller supplying the
// nonce to echo. Batched requests on the streamed transport use it to
// pre-compute the nonces later requests will need: the server's nonce
// chain is deterministic (StreamNonce), so request i of a batch can
// echo the nonce response i-1 will carry before that response exists.
func (c *Client) BuildPageRequestAt(now time.Duration, sess *Session, action string, riskWindow int, nonce Nonce) (*PageRequest, error) {
	if sess == nil || sess.ID == "" {
		return nil, errors.New("protocol: no established session")
	}
	if !c.m.TouchAuthorized(now) {
		return nil, ErrNoFreshTouch
	}
	fh, ok := c.m.Repeater().LastHash()
	if !ok {
		return nil, errors.New("protocol: no displayed frame to attest")
	}
	verified, considered := c.m.RiskFactor(riskWindow)
	req := &PageRequest{
		Domain:       sess.Domain,
		Account:      sess.Account,
		SessionID:    sess.ID,
		Nonce:        nonce,
		Action:       action,
		FrameHash:    fh,
		RiskVerified: verified,
		RiskWindow:   considered,
	}
	req.MAC = SealMAC(sess.builder(), req)
	return req, nil
}

// resumeRekeyLabel domain-separates the resumed-session key derivation
// from every other HMAC use of a session key.
const resumeRekeyLabel = "trust-resume-rekey-v1"

// ResumeKeyFrom derives the resumed session's key from the key a
// ticket sealed and the fresh session id the server chose for the
// resumed session. Both sides compute it independently: the server
// right after opening the ticket, the device from its cached ticket key
// when the response (welcome or content page) reveals the new session
// id. The derivation is one-way, so compromising a resumed session's
// key never reveals the key of the session the ticket came from. mc is
// an HMAC state already keyed with the ticket's session key — the one
// that sealed or verified the resume submission — so a resume keys
// that HMAC once.
func ResumeKeyFrom(mc *pki.MACer, sessionID string) []byte {
	in := make([]byte, 0, len(resumeRekeyLabel)+len(sessionID))
	in = append(in, resumeRekeyLabel...)
	return mc.MAC(append(in, sessionID...))
}

// BuildResumeSubmit builds the ticket fast login (docs/protocol.md,
// "Session resumption"): present an opaque ticket from a previous
// login plus a MAC under the session key that ticket sealed. Resume
// asserts a user action — it IS a login — so like the full path it
// requires a fresh verified touch, attests the displayed frame, and
// reports the current risk factor; unlike the full path it needs no
// server round trip first (no login page, no nonce issue), no
// signature, and no KEM. The returned Session is pending: its Key
// still holds the ticket's key and its ID is empty until
// AcceptResumePage rekeys it from the server's response.
func (c *Client) BuildResumeSubmit(now time.Duration, domain, account string, ticket, key []byte, riskWindow int) (*ResumeSubmit, *Session, error) {
	if len(ticket) == 0 || len(key) == 0 {
		return nil, nil, errors.New("protocol: no resumption ticket")
	}
	if !c.m.TouchAuthorized(now) {
		return nil, nil, ErrNoFreshTouch
	}
	fh, ok := c.m.Repeater().LastHash()
	if !ok {
		return nil, nil, errors.New("protocol: no displayed frame to attest")
	}
	verified, considered := c.m.RiskFactor(riskWindow)
	submit := &ResumeSubmit{
		Domain:       domain,
		Account:      account,
		Ticket:       ticket,
		FrameHash:    fh,
		RiskVerified: verified,
		RiskWindow:   considered,
	}
	mc := pki.NewMACer(key)
	submit.MAC = SealMAC(mc, submit)
	sess := &Session{Domain: domain, Account: account, Key: key, buildMAC: mc}
	return submit, sess, nil
}

// AcceptResumePage completes a resume: derive the resumed session key
// from the pending session's ticket key and the server-chosen session
// id, verify the content page's MAC under it, and promote the pending
// session to established. Server authentication is implicit — only the
// holder of the ticket-sealing master secret could recover the ticket
// key and MAC a page under the correct derived key.
func (c *Client) AcceptResumePage(sess *Session, msg *ContentPage) error {
	if msg == nil || msg.Page == nil {
		return errors.New("protocol: empty content page")
	}
	if sess == nil || sess.ID != "" {
		return errors.New("protocol: resume needs a pending session")
	}
	if msg.Domain != sess.Domain || msg.Account != sess.Account {
		return fmt.Errorf("protocol: content page for %s/%s on session %s/%s", msg.Domain, msg.Account, sess.Domain, sess.Account)
	}
	if msg.SessionID == "" {
		return errors.New("protocol: resume response lacks a session id")
	}
	key := ResumeKeyFrom(sess.builder(), msg.SessionID)
	mc := pki.NewMACer(key)
	if !VerifyMAC(mc, msg, msg.MAC) {
		return ErrServerAuth
	}
	sess.Key = key
	sess.ID = msg.SessionID
	sess.LastNonce = msg.Nonce
	sess.buildMAC, sess.acceptMAC = nil, mc
	return nil
}

// BuildResync builds the session-recovery message for a session whose
// nonce echo was lost in transit (docs/protocol.md, "Failure
// semantics"). Unlike BuildPageRequest it asserts no user action, so it
// requires no fresh touch and carries no frame hash — the session-key
// MAC alone proves the requester owns the session.
func (c *Client) BuildResync(sess *Session) (*ResyncRequest, error) {
	if sess == nil || sess.ID == "" {
		return nil, errors.New("protocol: no established session")
	}
	req := &ResyncRequest{Domain: sess.Domain, Account: sess.Account, SessionID: sess.ID}
	req.MAC = SealMAC(pki.NewMACer(sess.Key), req)
	return req, nil
}

// BuildStreamHello builds the stream-binding message for an
// established session. Like BuildResync it asserts no user action —
// the session-key MAC alone proves the connection belongs to the
// session's owner — so a device may (re)open its stream without a
// fresh touch. It needs no module access, so the stream transport can
// call it without holding a protocol client.
func BuildStreamHello(sess *Session) (*StreamHello, error) {
	if sess == nil || sess.ID == "" {
		return nil, errors.New("protocol: no established session")
	}
	h := &StreamHello{Domain: sess.Domain, Account: sess.Account, SessionID: sess.ID}
	h.MAC = SealMAC(pki.NewMACer(sess.Key), h)
	return h, nil
}

// AcceptStreamWelcome verifies the server's hello acknowledgment and
// resets the session's nonce to the head of the connection's nonce
// chain. The welcome's risk-policy fields are informational: the
// server applies its policy to every request itself.
func AcceptStreamWelcome(sess *Session, w *StreamWelcome) error {
	if w == nil || len(w.NonceSeed) == 0 {
		return errors.New("protocol: empty stream welcome")
	}
	if w.Domain != sess.Domain || w.SessionID != sess.ID {
		return fmt.Errorf("protocol: stream welcome for %s/%s on session %s/%s", w.Domain, w.SessionID, sess.Domain, sess.ID)
	}
	if !VerifyMAC(pki.NewMACer(sess.Key), w, w.MAC) {
		return ErrServerAuth
	}
	sess.LastNonce = StreamNonce(sess.Key, w.NonceSeed, 0)
	return nil
}

// DisplayPage renders a page at the default view through the module's
// display path and returns the frame hash — the device calls this
// whenever a server page reaches the screen. Like the display path it
// drives, it is not safe for concurrent use.
func (c *Client) DisplayPage(p *frame.Page, v frame.View) frame.Hash {
	c.frameBuf = frame.AppendRender(c.frameBuf[:0], p, v)
	h, _ := c.m.DisplayFrame(c.frameBuf)
	return h
}
