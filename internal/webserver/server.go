// Package webserver implements the remote side of TRUST (Fig 8): a web
// service with a CA-signed certificate, account database holding each
// user's registered public key, nonce management, session keys, a
// continuous-authentication risk policy applied to every request, and
// the frame-hash audit log the paper's offline audit inspects.
//
// The server is safe for concurrent use: net/http calls the handlers
// from one goroutine per request, and all mutable state lives in
// sharded, individually locked stores (store.go) so requests on
// different sessions and accounts proceed in parallel. See
// docs/server-scaling.md for the concurrency design.
package webserver

import (
	"crypto/ed25519"
	"encoding/hex"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"trust/internal/frame"
	"trust/internal/pki"
	"trust/internal/protocol"
	"trust/internal/store"
)

// RiskPolicy is the server's continuous-auth requirement: of the last
// Window touches the module reports, at least MinVerified must have
// produced a verified fingerprint (the paper's k-of-n measure). A
// report with a shorter window (session just started) is accepted when
// it contains at least one verification.
type RiskPolicy struct {
	Window      int
	MinVerified int
}

// DefaultRiskPolicy matches the reproduction's capture rates: with
// optimized placement a third to a half of natural touches verify, so
// 2-of-12 tolerates quality rejections and off-sensor stretches while
// an impostor (0 verifications) fails immediately.
func DefaultRiskPolicy() RiskPolicy { return RiskPolicy{Window: 12, MinVerified: 2} }

// ok applies the policy to a reported risk factor.
func (p RiskPolicy) ok(verified, window int) bool {
	if window <= 0 {
		return false
	}
	if window >= p.Window {
		return verified >= p.MinVerified
	}
	need := p.MinVerified * window / p.Window
	if need < 1 {
		need = 1
	}
	return verified >= need
}

// Account is one registered user binding. Fields are immutable after
// registration, so accounts may be read without holding their shard
// lock once fetched.
type Account struct {
	ID            string
	PublicKey     ed25519.PublicKey
	DeviceSubject string
	// RecoveryDigest is the sha256 digest of the recovery password
	// supporting the paper's identity-reset fallback ("the user can
	// rely on her old passwords"). Only the digest is retained — the
	// all-zero value means no recovery credential was enrolled and
	// disables ResetIdentity for the account.
	RecoveryDigest [32]byte
	// Gen is the binding generation, assigned by the account store at
	// claim time and strictly increasing across the server's lifetime.
	// Resumption tickets seal the generation they were issued under, so
	// a ResetIdentity + re-register bumps Gen and strands every ticket
	// minted against the old binding.
	Gen          uint64
	RegisteredAt time.Duration
}

// session is the server-side session state. id, account, and key are
// immutable after login; the remaining fields are the per-session
// mutable state guarded by mu, which serializes requests on ONE
// session while leaving every other session free to proceed.
type session struct {
	id      string
	account string
	key     []byte

	mu        sync.Mutex
	macer     *pki.MACer // reusable HMAC state for key; access under mu
	lastNonce protocol.Nonce
	// lastPage is the URL of the page most recently served on this
	// session — the page the user is viewing when the next request's
	// frame hash arrives, and therefore the page that hash is audited
	// against.
	lastPage string
	requests int
	revoked  bool
	// lastSeen is the virtual time of the last accepted page/resync
	// interaction on this session (valid once seen is set); telemetry
	// derives the continuous-auth inter-request gap from it.
	lastSeen time.Duration
	seen     bool
}

// macState returns the session's reusable HMAC instance, building it
// on first use. The caller must own the session (mutex held, or the
// session not yet published) — the instance is single-owner state.
func (sess *session) macState() *pki.MACer {
	if sess.macer == nil {
		sess.macer = pki.NewMACer(sess.key)
	}
	return sess.macer
}

// Server is one TRUST-enabled web service.
type Server struct {
	domain string
	keys   pki.KeyPair
	kem    pki.KemPair
	cert   *pki.Certificate
	caPub  ed25519.PublicKey

	// entropy is the deterministic randomness stream for nonces and
	// session ids; entropyMu keeps concurrent draws from interleaving
	// mid-value. Single-threaded callers observe the exact same byte
	// sequence as before the stores were sharded.
	entropyMu sync.Mutex
	entropy   *pki.DeterministicRand

	accounts *accountStore
	sessions *sessionStore
	nonces   *nonceStore

	// backend is the pluggable durability layer behind accounts
	// (store.Memory for the historical in-memory behavior, *store.WAL
	// for crash-durable enrollment). Every account mutation appends a
	// record BEFORE the shard state changes, outside all locks.
	backend store.AccountBackend
	// degraded latches on the first backend append failure: new
	// enrollments are rejected with ErrStorage while already-durable
	// accounts keep logging in (docs/persistence.md "Degraded mode").
	degraded atomic.Bool

	// tickets seals session-resumption tickets (ticket.go) under
	// epoch-rotated keys; internally lock-free. ticketAAD is the
	// associated data every seal and open binds: ticketAADLabel
	// followed by the domain. Both are immutable after New.
	tickets   *pki.TicketKeys
	ticketAAD []byte

	pages    map[string]*frame.Page // served pages by URL; fixed in New, read unlocked
	homeURL  string
	loginURL string
	regURL   string

	policy   atomic.Pointer[RiskPolicy]
	audit    frame.AuditLog
	screenPX float64

	// MaxLoginFailures is the per-account failure budget; accounts lock
	// after this many failures until ResetIdentity or a successful
	// login within the budget. Set it before serving traffic.
	MaxLoginFailures int

	// Counters for the experiment harness (atomics: every handler
	// bumps one, concurrently under net/http).
	rejected atomic.Int64
	accepted atomic.Int64

	// tel is the rest of the always-on telemetry block (metrics.go);
	// ftdc, when set by EnableFTDC, is the server's request-driven
	// self-capture.
	tel  telemetry
	ftdc atomic.Pointer[ftdcState]
}

// New creates a server for domain with a certificate from ca, backed
// by the in-memory account store (accounts die with the process).
func New(domain string, ca *pki.CA, seed uint64) (*Server, error) {
	return NewDurable(domain, ca, seed, store.Memory{})
}

// NewDurable creates a server whose account store persists through the
// given backend. Accounts the backend recovered (a WAL replay after a
// crash) are live immediately: their logins succeed, their resumption
// tickets validate against the recovered generations, and re-claiming
// a recovered id fails with ErrTaken. Revoked ids stay unclaimable.
func NewDurable(domain string, ca *pki.CA, seed uint64, backend store.AccountBackend) (*Server, error) {
	entropy := pki.NewDeterministicRand(seed ^ 0x5e77e7)
	keys, err := pki.GenerateKeyPair(entropy)
	if err != nil {
		return nil, fmt.Errorf("webserver: keys: %w", err)
	}
	kem, err := pki.GenerateKemPair(entropy)
	if err != nil {
		return nil, fmt.Errorf("webserver: KEM keys: %w", err)
	}
	cert, err := ca.IssueWithKem(domain, pki.RoleServer, keys.Public, kem.Public.Bytes())
	if err != nil {
		return nil, fmt.Errorf("webserver: certificate: %w", err)
	}
	tickets, err := pki.NewTicketKeys(entropy, pki.DefaultTicketPeriod, pki.DefaultTicketWindow)
	if err != nil {
		return nil, fmt.Errorf("webserver: ticket epochs: %w", err)
	}
	s := &Server{
		domain:           domain,
		keys:             keys,
		kem:              kem,
		cert:             cert,
		caPub:            ca.PublicKey(),
		entropy:          entropy,
		accounts:         newAccountStore(),
		sessions:         newSessionStore(),
		nonces:           newNonceStore(DefaultNonceTTL, DefaultNonceCapacity),
		tickets:          tickets,
		ticketAAD:        append([]byte(ticketAADLabel), domain...),
		pages:            make(map[string]*frame.Page),
		backend:          backend,
		screenPX:         800,
		MaxLoginFailures: 10,
	}
	recs, gen := backend.State()
	s.accounts.seed(recs, gen)
	s.SetRiskPolicy(DefaultRiskPolicy())
	s.installDefaultPages()
	return s, nil
}

// Close releases the account backend's file handles. The server must
// not serve traffic afterwards.
func (s *Server) Close() error { return s.backend.Close() }

// Certificate returns the server's CA-signed certificate.
func (s *Server) Certificate() *pki.Certificate { return s.cert.Clone() }

// SetRiskPolicy overrides the continuous-auth policy. Every request
// after the call is checked against it, on every transport.
func (s *Server) SetRiskPolicy(p RiskPolicy) { s.policy.Store(&p) }

// riskPolicy returns the active policy.
func (s *Server) riskPolicy() RiskPolicy { return *s.policy.Load() }

// Account returns a registered account, if any.
func (s *Server) Account(id string) (*Account, bool) {
	return s.accounts.get(id)
}

// Pages returns the served pages keyed by URL (the audit input).
func (s *Server) Pages() map[string]*frame.Page {
	out := make(map[string]*frame.Page, len(s.pages))
	for k, v := range s.pages {
		out[k] = v
	}
	return out
}

// RunAudit verifies every logged frame hash against the finite view
// sets of the served pages (the paper's offline audit).
func (s *Server) RunAudit() frame.AuditReport {
	return frame.Audit(&s.audit, s.Pages(), s.screenPX)
}

// reject counts one rejected request and returns err, the reason the
// caller reports. Every handler rejection goes through it.
func (s *Server) reject(err error) error {
	s.rejected.Add(1)
	return err
}

// SessionCount reports the number of established sessions.
func (s *Server) SessionCount() int { return s.sessions.len() }

// mintNonce draws a fresh nonce value from the entropy stream without
// registering it for consumption — session-echo nonces (rotated on
// every content page, validated against the session's lastNonce) never
// enter the consumable store, so the page-request hot path does not
// touch it.
func (s *Server) mintNonce() protocol.Nonce {
	var b [16]byte
	s.entropyMu.Lock()
	s.entropy.Read(b[:])
	s.entropyMu.Unlock()
	var h [2 * len(b)]byte
	hex.Encode(h[:], b[:])
	return protocol.Nonce(h[:])
}

// newNonce mints a fresh single-use nonce and registers it for a
// future consume (registration and login pages).
func (s *Server) newNonce(now time.Duration) protocol.Nonce {
	n := s.mintNonce()
	s.nonces.issue(n, now)
	return n
}

// newSessionID draws a fresh session identifier.
func (s *Server) newSessionID() string {
	var b [12]byte
	s.entropyMu.Lock()
	s.entropy.Read(b[:])
	s.entropyMu.Unlock()
	var h [2 * len(b)]byte
	hex.Encode(h[:], b[:])
	return string(h[:])
}

func (s *Server) sign(data []byte, err error) []byte {
	if err != nil { // the server's own messages all encode (its pages are fixed at New)
		panic(fmt.Sprintf("webserver: signing own message: %v", err))
	}
	return ed25519.Sign(s.keys.Private, data)
}

// Errors the handlers return. Every rejection a handler can produce
// wraps exactly one of these sentinels, so clients (and the device's
// retry layer) classify failures with errors.Is instead of string
// matching; http.go maps each to a distinct HTTP status code and the
// device transport round-trips them back into the same typed values.
var (
	ErrMalformed      = errors.New("webserver: malformed message")
	ErrBadNonce       = errors.New("webserver: unknown or replayed nonce")
	ErrBadSignature   = errors.New("webserver: signature verification failed")
	ErrBadMAC         = errors.New("webserver: MAC verification failed")
	ErrBadKey         = errors.New("webserver: session key recovery failed")
	ErrUnknownAccount = errors.New("webserver: unknown account")
	ErrUnknownSession = errors.New("webserver: unknown or revoked session")
	ErrRiskPolicy     = errors.New("webserver: continuous-auth risk policy violated")
	ErrTaken          = errors.New("webserver: account already bound")
	ErrRateLimited    = errors.New("webserver: account locked after repeated login failures")
	ErrBadRecovery    = errors.New("webserver: recovery password mismatch")
	ErrBadTicket      = errors.New("webserver: invalid, expired, or replayed resume ticket")
)

// ErrStorage re-exports the store package's typed write-path failure:
// the durable backend could not persist a record, so the operation was
// NOT acknowledged and the server is degraded. Callers classify it with
// errors.Is exactly like the sentinels above.
var ErrStorage = store.ErrStorage
