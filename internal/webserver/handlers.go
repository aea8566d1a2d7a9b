package webserver

import (
	"crypto/ed25519"
	"crypto/sha256"
	"crypto/subtle"
	"errors"
	"fmt"
	"math"
	"time"

	"trust/internal/frame"
	"trust/internal/pki"
	"trust/internal/protocol"
	"trust/internal/store"
)

// ServeRegistrationPage is Fig 9 step 1: the registration page with a
// fresh nonce, the server's certificate, and a signature over the
// whole.
func (s *Server) ServeRegistrationPage(now time.Duration) *protocol.RegistrationPage {
	msg := &protocol.RegistrationPage{
		Domain:     s.domain,
		Nonce:      s.newNonce(now),
		Page:       s.page(s.regURL),
		ServerCert: s.cert.Clone(),
	}
	msg.Signature = s.sign(msg.SigningBytes())
	return msg
}

// HandleRegistration is Fig 9 step 5: verify the device certificate
// against the CA, the submission signature against the device key, and
// the nonce; then store the account binding and log the frame hash.
func (s *Server) HandleRegistration(now time.Duration, sub *protocol.RegistrationSubmit, recoveryPassword string) protocol.RegistrationResult {
	fail := func(err error) protocol.RegistrationResult {
		return protocol.RegistrationResult{OK: false, Reason: s.reject(err).Error()}
	}
	if sub == nil {
		return fail(errors.New("empty submission"))
	}
	if s.degraded.Load() {
		// A previous backend write failed; refuse new enrollments
		// outright rather than acknowledge what cannot be made durable.
		s.failStorage()
		return fail(ErrStorage)
	}
	if sub.Domain != s.domain {
		return fail(errors.New("domain mismatch"))
	}
	if err := sub.DeviceCert.Verify(s.caPub, pki.RoleFLock); err != nil {
		return fail(fmt.Errorf("device certificate: %w", err))
	}
	if sb, err := sub.SigningBytes(); err != nil || !ed25519.Verify(sub.DeviceCert.Key(), sb, sub.Signature) {
		return fail(errors.New("submission signature invalid"))
	}
	nonceAge, ok := s.nonces.consumeAge(sub.Nonce, now)
	if !ok {
		return fail(errors.New("nonce unknown or replayed"))
	}
	if len(sub.UserPub) != ed25519.PublicKeySize {
		return fail(errors.New("malformed user key"))
	}
	// The durable enroll record states the id's length in 16 bits.
	if len(sub.Account) > math.MaxUint16 {
		return fail(fmt.Errorf("%w: %d-byte account id", ErrMalformed, len(sub.Account)))
	}
	acct := &Account{
		ID:            sub.Account,
		PublicKey:     append(ed25519.PublicKey(nil), sub.UserPub...),
		DeviceSubject: sub.DeviceCert.Subject,
		RegisteredAt:  now,
	}
	// Only the digest of the recovery credential is retained; the
	// all-zero digest stays reserved for "none enrolled".
	if recoveryPassword != "" {
		acct.RecoveryDigest = sha256.Sum256([]byte(recoveryPassword))
	}
	// Two-phase claim: reserve the id under the shard lock, make the
	// enroll record durable OUTSIDE all locks (the backend blocks on
	// storage), then publish. Of N concurrent claims on one id exactly
	// one reserves, so the backend sees exactly one enroll record, and
	// a binding is never visible before it is durable.
	if !s.accounts.beginClaim(acct) {
		return fail(ErrTaken)
	}
	if err := s.backend.Append(store.Record{
		Kind:           store.KindEnroll,
		At:             now,
		Account:        acct.ID,
		Gen:            acct.Gen,
		PublicKey:      acct.PublicKey,
		DeviceSubject:  acct.DeviceSubject,
		RecoveryDigest: acct.RecoveryDigest,
	}); err != nil {
		s.accounts.abortClaim(acct.ID)
		s.tripDegraded()
		s.failStorage()
		return fail(ErrStorage)
	}
	s.accounts.commitClaim(acct)
	s.audit.Append(frame.AuditEntry{
		Account: sub.Account,
		PageURL: s.regURL,
		Hash:    sub.FrameHash,
		At:      now,
	})
	s.accepted.Add(1)
	s.tel.enroll.Observe(nonceAge)
	return protocol.RegistrationResult{OK: true}
}

// ServeLoginPage is Fig 10 step 1: the login page under a fresh nonce.
func (s *Server) ServeLoginPage(now time.Duration) *protocol.LoginPage {
	msg := &protocol.LoginPage{
		Domain: s.domain,
		Nonce:  s.newNonce(now),
		Page:   s.page(s.loginURL),
	}
	msg.Signature = s.sign(msg.SigningBytes())
	return msg
}

// HandleLogin is Fig 10 step 3: recover the session key with the
// server's private KEM key, verify the account signature and the MAC,
// enforce the risk policy, then establish a session and return the
// first content page.
func (s *Server) HandleLogin(now time.Duration, sub *protocol.LoginSubmit) (*protocol.ContentPage, error) {
	if sub == nil || sub.Domain != s.domain {
		return nil, s.reject(fmt.Errorf("%w: login", ErrMalformed))
	}
	if s.accounts.failures(sub.Account) >= s.MaxLoginFailures {
		return nil, s.reject(ErrRateLimited)
	}
	acct, ok := s.accounts.get(sub.Account)
	if !ok {
		return nil, s.reject(ErrUnknownAccount)
	}
	if sb, err := sub.SigningBytes(); err != nil || !ed25519.Verify(acct.PublicKey, sb, sub.Signature) {
		s.accounts.addFailure(sub.Account)
		return nil, s.reject(ErrBadSignature)
	}
	nonceAge, ok := s.nonces.consumeAge(sub.Nonce, now)
	if !ok {
		return nil, s.reject(ErrBadNonce)
	}
	key, err := pki.DecryptWith(s.kem.Private, sub.SessionKeyCT)
	if err != nil || len(key) != pki.SessionKeySize {
		return nil, s.reject(ErrBadKey)
	}
	mc := pki.NewMACer(key)
	if !protocol.VerifyMAC(mc, sub, sub.MAC) {
		return nil, s.reject(ErrBadMAC)
	}
	if !s.riskPolicy().ok(sub.RiskVerified, sub.RiskWindow) {
		return nil, s.reject(fmt.Errorf("%w: %d of %d verified", ErrRiskPolicy, sub.RiskVerified, sub.RiskWindow))
	}

	sess := &session{
		id:      s.newSessionID(),
		account: sub.Account,
		key:     key,
		macer:   mc,
	}
	// Build the response (rotating the session nonce) before the
	// session becomes findable, so no request can observe it half
	// initialized. The attached ticket lets the device's next login
	// take the symmetric-only resume path (HandleResume).
	cp := s.contentPage(new(protocol.ContentPage), sess, s.PageForAction("login"), s.mintNonce(), s.issueTicket(now, acct, key))
	s.sessions.put(sess)
	s.accounts.clearFailures(sub.Account)
	s.audit.Append(frame.AuditEntry{Account: sub.Account, PageURL: s.loginURL, Hash: sub.FrameHash, At: now})
	s.accepted.Add(1)
	s.tel.fullLogins.Add(1)
	s.tel.login.Observe(nonceAge)
	return cp, nil
}

// HandleResume is the session-resumption fast login: the device
// presents the opaque ticket a previous HandleLogin (or HandleResume)
// issued and proves possession of the session key the ticket seals via
// the submission MAC. The whole path is symmetric crypto — one AEAD
// open and two HMACs — so a resumed login costs roughly what a
// continuous-auth page request costs, not what the Fig 10 cold path
// (signature verify plus KEM decapsulation) costs. A fresh session
// under a rekeyed session key is established and a replacement ticket
// rides back on the response. Direct calls and the HTTP front both come
// here; a stream binds to the resumed session with a hello afterwards.
// Entropy is drawn in one order: the session id, then the nonce, then
// the ticket.
//
// Check order matters:
//
//   - the MAC is verified before the nonce is consumed, so presenting
//     a stolen ticket without its key cannot burn the owner's ticket;
//   - the ticket's single-use nonce is consumed last, immediately
//     before the session is created, so of two concurrent
//     presentations of one ticket exactly the consume winner proceeds
//     (the nonce store serializes consume under its shard mutex).
func (s *Server) HandleResume(now time.Duration, sub *protocol.ResumeSubmit) (*protocol.ContentPage, error) {
	if sub == nil || sub.Domain != s.domain || len(sub.Ticket) == 0 {
		return nil, s.reject(fmt.Errorf("%w: resume", ErrMalformed))
	}
	if s.accounts.failures(sub.Account) >= s.MaxLoginFailures {
		return nil, s.reject(ErrRateLimited)
	}
	st, err := s.openTicket(now, sub.Ticket)
	if err != nil {
		// Expired epochs land here: the device's normal fallback to a
		// full login, not an attack — no failure charged.
		return nil, s.reject(err)
	}
	if st.account != sub.Account {
		return nil, s.reject(ErrBadTicket)
	}
	acct, ok := s.accounts.get(sub.Account)
	if !ok {
		return nil, s.reject(ErrUnknownAccount)
	}
	if acct.Gen != st.gen {
		// Ticket from before a ResetIdentity + re-register: the old
		// binding's tickets die with it.
		return nil, s.reject(ErrBadTicket)
	}
	ticketMAC := pki.NewMACer(st.key)
	if !protocol.VerifyMAC(ticketMAC, sub, sub.MAC) {
		s.accounts.addFailure(sub.Account)
		return nil, s.reject(ErrBadMAC)
	}
	if !s.riskPolicy().ok(sub.RiskVerified, sub.RiskWindow) {
		return nil, s.reject(fmt.Errorf("%w: %d of %d verified", ErrRiskPolicy, sub.RiskVerified, sub.RiskWindow))
	}
	nonceAge, ok := s.nonces.consumeAge(st.nonce, now)
	if !ok {
		// Replayed (or evicted past the nonce TTL — same answer):
		// single use is spent.
		return nil, s.reject(ErrBadTicket)
	}
	s.tel.resumeLogins.Add(1)
	s.tel.resume.Observe(nonceAge)

	sess := &session{id: s.newSessionID(), account: acct.ID}
	// Rekey: both sides derive the resumed session's key from the
	// ticket-sealed key and the fresh session id, so a ticket observed
	// in transit never equals a live session key, and two resumes from
	// the same ticket epoch never share one.
	sess.key = protocol.ResumeKeyFrom(ticketMAC, sess.id)
	cp := s.contentPage(new(protocol.ContentPage), sess, s.PageForAction("login"), s.mintNonce(), s.issueTicket(now, acct, sess.key))
	s.sessions.put(sess)
	s.accounts.clearFailures(acct.ID)
	// The resume's frame hash attests the login page the user touched,
	// exactly as a full login's does.
	s.audit.Append(frame.AuditEntry{Account: acct.ID, PageURL: s.loginURL, Hash: sub.FrameHash, At: now})
	s.accepted.Add(1)
	return cp, nil
}

// HandlePageRequest is Fig 10 step 4: verify session MAC, nonce echo,
// and the risk policy for every subsequent interaction; log the frame
// hash; serve the next page under a fresh nonce. The whole check-and-
// rotate runs under the session's own mutex: requests on the same
// session serialize (the nonce echo demands it), requests on different
// sessions run in parallel.
func (s *Server) HandlePageRequest(now time.Duration, req *protocol.PageRequest) (*protocol.ContentPage, error) {
	cp := new(protocol.ContentPage)
	if err := s.handlePageRequest(now, req, s.mintNonce, cp); err != nil {
		return nil, s.reject(err)
	}
	return cp, nil
}

// handlePageRequest is the shared page-request core; on success it
// fills cp with the response. nextNonce supplies the response nonce and
// is consulted only on the success path: the HTTP handlers mint from
// the entropy stream, the stream endpoint walks its per-connection
// nonce chain (stream.go) so the streamed hot path never touches the
// entropy lock. Like every shared core it returns rejections
// uncounted: the transport edge that answers one counts it
// (HandlePageRequest here, the stream's reject).
func (s *Server) handlePageRequest(now time.Duration, req *protocol.PageRequest, nextNonce func() protocol.Nonce, cp *protocol.ContentPage) error {
	if req == nil || req.Domain != s.domain {
		return fmt.Errorf("%w: page request", ErrMalformed)
	}
	sess, ok := s.sessions.get(req.SessionID)
	if !ok {
		return ErrUnknownSession
	}
	sess.mu.Lock()
	defer sess.mu.Unlock()
	if sess.revoked || sess.account != req.Account {
		return ErrUnknownSession
	}
	if !protocol.VerifyMAC(sess.macState(), req, req.MAC) {
		return ErrBadMAC
	}
	if subtle.ConstantTimeCompare([]byte(req.Nonce), []byte(sess.lastNonce)) != 1 {
		return ErrBadNonce
	}
	if !s.riskPolicy().ok(req.RiskVerified, req.RiskWindow) {
		sess.revoked = true // continuous auth failed: hard stop
		return fmt.Errorf("%w: %d of %d verified", ErrRiskPolicy, req.RiskVerified, req.RiskWindow)
	}
	sess.requests++
	if sess.seen {
		s.tel.page.Observe(now - sess.lastSeen)
	}
	sess.lastSeen, sess.seen = now, true
	// The request's frame hash attests the page the user was viewing
	// when touching — the page this session was last served.
	s.audit.Append(frame.AuditEntry{Account: req.Account, PageURL: sess.lastPage, Hash: req.FrameHash, At: now})
	s.accepted.Add(1)
	s.contentPage(cp, sess, s.PageForAction(req.Action), nextNonce(), nil)
	return nil
}

// HandleResync re-serves a session's last page under a fresh nonce for
// a device that lost a ContentPage in transit (the retry layer's nonce
// resync, docs/protocol.md "Failure semantics"). The requester proves
// session-key knowledge with the MAC; no user action is asserted, so no
// frame hash is logged and the risk policy is not consulted — resync
// can recover a session's nonce state but never advance the session.
func (s *Server) HandleResync(now time.Duration, req *protocol.ResyncRequest) (*protocol.ContentPage, error) {
	cp := new(protocol.ContentPage)
	if err := s.handleResync(now, req, s.mintNonce, cp); err != nil {
		return nil, s.reject(err)
	}
	return cp, nil
}

// handleResync is the shared resync core; see handlePageRequest for
// the nextNonce split, the response target and where rejections are
// counted.
func (s *Server) handleResync(now time.Duration, req *protocol.ResyncRequest, nextNonce func() protocol.Nonce, cp *protocol.ContentPage) error {
	if req == nil || req.Domain != s.domain {
		return fmt.Errorf("%w: resync request", ErrMalformed)
	}
	sess, ok := s.sessions.get(req.SessionID)
	if !ok {
		return ErrUnknownSession
	}
	sess.mu.Lock()
	defer sess.mu.Unlock()
	if sess.revoked || sess.account != req.Account {
		return ErrUnknownSession
	}
	if !protocol.VerifyMAC(sess.macState(), req, req.MAC) {
		return ErrBadMAC
	}
	if sess.seen {
		s.tel.resync.Observe(now - sess.lastSeen)
	}
	sess.lastSeen, sess.seen = now, true
	s.accepted.Add(1)
	s.contentPage(cp, sess, s.page(sess.lastPage), nextNonce(), nil)
	return nil
}

// contentPage fills cp with the MAC'd response and rotates the session
// nonce to the given one. cp is the caller's: a fresh page on the
// request/response paths, the connection's reused one on a stream,
// which encodes it before the next request. Every field is overwritten
// and the tag is sealed into cp's own MAC storage. The caller must own
// the session: either it is freshly created and not yet published, or
// its mutex is held. The login and resume responses attach a fresh
// resumption ticket, which must be in place before the MAC is computed
// (the MAC covers it); other responses pass a nil ticket.
func (s *Server) contentPage(cp *protocol.ContentPage, sess *session, page *frame.Page, nonce protocol.Nonce, ticket []byte) *protocol.ContentPage {
	sess.lastNonce = nonce
	sess.lastPage = page.URL
	*cp = protocol.ContentPage{
		Domain:    s.domain,
		SessionID: sess.id,
		Nonce:     nonce,
		Account:   sess.account,
		Page:      page,
		Ticket:    ticket,
		MAC:       cp.MAC[:0],
	}
	cp.MAC = protocol.AppendMAC(cp.MAC, sess.macState(), cp)
	return cp
}

// SessionAlive reports whether a session exists and is not revoked.
func (s *Server) SessionAlive(id string) bool {
	sess, ok := s.sessions.get(id)
	if !ok {
		return false
	}
	sess.mu.Lock()
	defer sess.mu.Unlock()
	return !sess.revoked
}

// ResetIdentity implements the paper's identity-reset flow: a user who
// lost her device proves ownership with the recovery password; the
// server removes the public-key binding (and kills live sessions) so a
// new device can re-register the account. Outstanding resumption
// tickets die with the binding: until re-registration the account is
// unknown, and afterwards the fresh binding carries a new generation
// that old tickets fail to match. The reset record is made durable
// before the binding disappears, so a crash after the acknowledgment
// cannot resurrect the old key.
func (s *Server) ResetIdentity(now time.Duration, account, recoveryPassword string) error {
	acct, ok := s.accounts.get(account)
	if !ok {
		return ErrUnknownAccount
	}
	// Digest-compare in constant time; the stored digest is sha256 of
	// the enrolled credential, zero when none was enrolled (the zero
	// check is constant-time too, so no branch leaks digest bytes).
	var zero [32]byte
	digest := sha256.Sum256([]byte(recoveryPassword))
	enrolled := subtle.ConstantTimeCompare(acct.RecoveryDigest[:], zero[:]) != 1
	if !enrolled || subtle.ConstantTimeCompare(acct.RecoveryDigest[:], digest[:]) != 1 {
		return ErrBadRecovery
	}
	if err := s.backend.Append(store.Record{Kind: store.KindReset, At: now, Account: account, Gen: acct.Gen}); err != nil {
		s.tripDegraded()
		s.failStorage()
		return fmt.Errorf("webserver: reset %s: %w", account, err)
	}
	s.accounts.remove(account)
	s.revokeSessions(account)
	return nil
}

// RevokeAccount permanently tombstones an account: the binding is
// removed, live sessions die, and the id can never be claimed again —
// the takeover block for a device reported stolen with no recovery
// credential. The revoke record is made durable before the tombstone
// takes effect.
//
//trustlint:allow deadexport -- the only writer of the WAL revoke record: the durable-restart tests check through it that the store's revoke replay keeps a revoked id unclaimable
func (s *Server) RevokeAccount(now time.Duration, account string) error {
	acct, ok := s.accounts.get(account)
	if !ok {
		return ErrUnknownAccount
	}
	if err := s.backend.Append(store.Record{Kind: store.KindRevoke, At: now, Account: account, Gen: acct.Gen}); err != nil {
		s.tripDegraded()
		s.failStorage()
		return fmt.Errorf("webserver: revoke %s: %w", account, err)
	}
	s.accounts.revoke(account)
	s.revokeSessions(account)
	return nil
}

// revokeSessions kills every live session bound to account.
func (s *Server) revokeSessions(account string) {
	s.sessions.forEach(func(sess *session) {
		if sess.account != account {
			return
		}
		sess.mu.Lock()
		sess.revoked = true
		sess.mu.Unlock()
	})
}
