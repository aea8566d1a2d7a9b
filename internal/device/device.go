// Package device models the untrusted half of the mobile phone: the
// host SoC running the browser and network stack. Per the paper's
// threat model (Sec IV-B assumption (i)), everything here may be under
// malware control — so the device only moves messages and pixels
// around, while all authentication state lives in the FLock module it
// embeds. Malware hooks let the attack harness corrupt exactly the
// things a compromised software stack could corrupt: displayed frames,
// outbound requests, and action routing.
package device

import (
	"errors"
	"fmt"
	"time"

	"trust/internal/fingerprint"
	"trust/internal/flock"
	"trust/internal/frame"
	"trust/internal/pki"
	"trust/internal/protocol"
	"trust/internal/sim"
	"trust/internal/touch"
)

// Transport moves protocol messages to a server. Implementations:
// InMemory (direct calls), HTTP (net/http loopback), and
// FaultyTransport (a deterministic lossy-network wrapper around either).
type Transport interface {
	FetchRegistrationPage(now time.Duration) (*protocol.RegistrationPage, error)
	SubmitRegistration(now time.Duration, sub *protocol.RegistrationSubmit, recovery string) (protocol.RegistrationResult, error)
	FetchLoginPage(now time.Duration) (*protocol.LoginPage, error)
	SubmitLogin(now time.Duration, sub *protocol.LoginSubmit) (*protocol.ContentPage, error)
	SubmitResume(now time.Duration, sub *protocol.ResumeSubmit) (*protocol.ContentPage, error)
	SubmitPageRequest(now time.Duration, req *protocol.PageRequest) (*protocol.ContentPage, error)
	SubmitResync(now time.Duration, req *protocol.ResyncRequest) (*protocol.ContentPage, error)
}

// sessionBinder is implemented by transports that hold per-session
// connection state (the streamed transport): the device hands them the
// session as soon as it is established so they can bind eagerly.
type sessionBinder interface {
	BindSession(sess *protocol.Session)
}

// batchTransport is implemented by transports that can carry several
// touch-authenticated requests in one exchange. PredictNonce exposes
// the deterministic response-nonce chain so request i of a batch can
// echo the nonce response i-1 will carry.
type batchTransport interface {
	SubmitPageBatch(now time.Duration, reqs []*protocol.PageRequest) ([]*protocol.ContentPage, error)
	PredictNonce(ahead int) (protocol.Nonce, bool)
}

// Malware models a compromised browser / software stack. A nil Malware
// is a clean device. Each capability corresponds to an attack in the
// paper's security analysis.
type Malware struct {
	// TamperFrame rewrites pages before display (UI spoofing: "change
	// the organization of user interface to fool the user").
	TamperFrame func(p *frame.Page) *frame.Page
	// RewriteAction changes the action attached to the user's touch
	// before the request is built (clickjacking the intent).
	RewriteAction func(action string) string
	// MutateRequest corrupts the signed/MAC'd request on the wire
	// (man-in-the-browser).
	MutateRequest func(req *protocol.PageRequest)
}

// Device is one phone: untrusted host plus embedded FLock module.
type Device struct {
	Name    string
	Module  *flock.Module
	Client  *protocol.Client
	Malware *Malware

	transport Transport
	session   *protocol.Session
	current   *frame.Page // page the server last sent
	view      frame.View
	// RiskWindow is the risk-factor window reported to servers.
	RiskWindow int

	// Retry, when non-nil, makes the *Resilient flows retry retryable
	// transport faults with capped exponential backoff in virtual time
	// (see retry.go). nil keeps the historical fail-fast behavior.
	Retry *RetryPolicy
	// retryRNG supplies the deterministic backoff jitter.
	retryRNG *sim.RNG
	// degraded marks the device as serving from local cache under the
	// module's local continuous auth after the server became
	// unreachable (the paper's local-mode fallback).
	degraded bool
	// tel counts recovery-path events (metrics.go).
	tel deviceTel

	// Resumption-ticket cache (device goroutine only). The server
	// attaches an opaque single-use ticket to every login and resume
	// response; LoginResume presents it to skip the Fig 10 cold path.
	// ticketKey is the session key the ticket seals — the MAC key a
	// resume submission must prove, and the input to the resumed-session
	// rekey. loginPage is the login page cached at the last full login:
	// resume needs a displayed login frame to attest (the server audits
	// a resume's frame hash against the login URL) without spending a
	// round trip fetching one.
	ticket        []byte
	ticketKey     []byte
	ticketDomain  string
	ticketAccount string
	loginPage     *frame.Page
}

// New assembles a device around a module and a transport.
func New(name string, m *flock.Module, t Transport) *Device {
	return &Device{
		Name:       name,
		Module:     m,
		Client:     protocol.NewClient(m),
		transport:  t,
		view:       frame.View{Zoom: 1},
		RiskWindow: 12,
	}
}

// Session returns the live session, if any.
func (d *Device) Session() *protocol.Session { return d.session }

// CurrentPage returns the page the server believes is displayed.
func (d *Device) CurrentPage() *frame.Page { return d.current }

// display pushes a page through the FLock display path, applying any
// malware frame tampering first. The repeater hashes what is actually
// shown — that is the whole point of the display repeater.
func (d *Device) display(p *frame.Page) {
	shown := p
	if d.Malware != nil && d.Malware.TamperFrame != nil {
		shown = d.Malware.TamperFrame(p.Clone())
	}
	d.Client.DisplayPage(shown, d.view)
	d.current = p
}

// Touch forwards a physical touch to the module.
func (d *Device) Touch(ev touch.Event, finger *fingerprint.Finger) flock.TouchOutcome {
	return d.Module.HandleTouch(ev, finger)
}

// Register runs the Fig 9 flow: fetch the registration page, display
// it, then submit once the module holds a fresh verified touch.
func (d *Device) Register(now time.Duration, account, recovery string) error {
	page, err := d.transport.FetchRegistrationPage(now)
	if err != nil {
		return fmt.Errorf("device: fetching registration page: %w", err)
	}
	d.display(page.Page)
	sub, err := d.Client.HandleRegistrationPage(now, page, account)
	if err != nil {
		return err
	}
	res, err := d.transport.SubmitRegistration(now, sub, recovery)
	if err != nil {
		return err
	}
	if !res.OK {
		return fmt.Errorf("device: registration rejected: %s", res.Reason)
	}
	return nil
}

// Login runs the Fig 10 login: fetch and display the login page,
// submit the session-key bundle after a verified touch, and accept the
// first content page. The server certificate comes from the transport;
// the FLock client checks it against the key pinned at registration.
func (d *Device) Login(now time.Duration, cert *pki.Certificate, account string) error {
	page, err := d.transport.FetchLoginPage(now)
	if err != nil {
		return fmt.Errorf("device: fetching login page: %w", err)
	}
	d.display(page.Page)
	sub, sess, err := d.Client.HandleLoginPage(now, page, cert, account, d.RiskWindow)
	if err != nil {
		return err
	}
	cp, err := d.transport.SubmitLogin(now, sub)
	if err != nil {
		return err
	}
	if err := d.Client.AcceptContentPage(sess, cp); err != nil {
		return err
	}
	d.session = sess
	d.loginPage = page.Page
	d.cacheTicket(cp.Ticket, sess)
	d.bindTransport()
	d.display(cp.Page)
	return nil
}

// cacheTicket retains the resumption ticket a login or resume response
// carried, together with the session key it seals. An empty ticket
// (server declined to issue) leaves any previous cache in place — the
// old ticket may still be live.
func (d *Device) cacheTicket(ticket []byte, sess *protocol.Session) {
	if len(ticket) == 0 {
		return
	}
	d.ticket = append(d.ticket[:0], ticket...)
	d.ticketKey = append(d.ticketKey[:0], sess.Key...)
	d.ticketDomain = sess.Domain
	d.ticketAccount = sess.Account
}

// clearTicket drops the cached ticket (it was spent, rejected, or its
// fate is unknown after a transport fault — all cases where presenting
// it again can only fail).
func (d *Device) clearTicket() {
	d.ticket = nil
	d.ticketKey = nil
}

// errNoTicket routes LoginResume straight to the full login.
var errNoTicket = errors.New("device: no cached resumption ticket")

// LoginResume is the resume-first login: present the cached ticket for
// a symmetric-only session re-establishment, falling back to the full
// Fig 10 login on any failure. The fallback is deliberately broad —
// expired or replayed tickets (ErrBadTicket), a reset account, a MAC
// verdict, or a network fault with the ticket's fate unknown all end
// with the ticket dropped and the cold path run — so the device always
// converges to a session if a full login can get one. Only a missing
// fresh touch propagates directly: the cold path requires the same
// touch and would fail identically.
func (d *Device) LoginResume(now time.Duration, cert *pki.Certificate, account string) error {
	err := d.tryResume(now, account)
	if err == nil {
		return nil
	}
	if errors.Is(err, protocol.ErrNoFreshTouch) {
		return err
	}
	if !errors.Is(err, errNoTicket) {
		d.clearTicket()
		d.tel.resumeFallbacks.Add(1)
	}
	return d.Login(now, cert, account)
}

// tryResume runs one ticket presentation end to end: re-display the
// cached login page (the frame hash a resume attests), build the MAC'd
// submission, submit, and accept the rekeyed session.
func (d *Device) tryResume(now time.Duration, account string) error {
	if len(d.ticket) == 0 || d.loginPage == nil || d.ticketAccount != account {
		return errNoTicket
	}
	d.display(d.loginPage)
	sub, sess, err := d.Client.BuildResumeSubmit(now, d.ticketDomain, account, d.ticket, d.ticketKey, d.RiskWindow)
	if err != nil {
		return err
	}
	cp, err := d.transport.SubmitResume(now, sub)
	if err != nil {
		return err
	}
	if err := d.Client.AcceptResumePage(sess, cp); err != nil {
		return err
	}
	d.session = sess
	d.cacheTicket(cp.Ticket, sess)
	d.bindTransport()
	d.display(cp.Page)
	return nil
}

// bindTransport hands the established session to a session-binding
// transport (no-op for the stateless ones).
func (d *Device) bindTransport() {
	if b, ok := d.transport.(sessionBinder); ok && d.session != nil {
		b.BindSession(d.session)
	}
}

// AdoptSession installs a session that was established by driving the
// protocol step by step outside the device (harness transcripts do
// this) so that Browse works afterwards.
func (d *Device) AdoptSession(sess *protocol.Session, cp *protocol.ContentPage) error {
	if sess == nil || cp == nil || cp.Page == nil {
		return errors.New("device: adopting incomplete session")
	}
	d.session = sess
	d.current = cp.Page
	d.bindTransport()
	return nil
}

// Browse issues one continuous-auth page request for the given action
// (the user just touched the corresponding button) and displays the
// response.
func (d *Device) Browse(now time.Duration, action string) error {
	if d.session == nil {
		return errors.New("device: no session")
	}
	if d.Malware != nil && d.Malware.RewriteAction != nil {
		action = d.Malware.RewriteAction(action)
	}
	req, err := d.Client.BuildPageRequest(now, d.session, action, d.RiskWindow)
	if err != nil {
		return err
	}
	if d.Malware != nil && d.Malware.MutateRequest != nil {
		d.Malware.MutateRequest(req)
	}
	cp, err := d.transport.SubmitPageRequest(now, req)
	if err != nil {
		return err
	}
	if err := d.Client.AcceptContentPage(d.session, cp); err != nil {
		return err
	}
	d.display(cp.Page)
	return nil
}

// BrowseBatch issues one touch-authenticated request per action,
// pipelined: on a batch-capable transport all requests travel in one
// frame, each echoing its pre-computed chain nonce, and the responses
// come back in order. On any other transport (or a downgraded stream)
// it degrades to sequential Browse calls — same outcome, one round
// trip per action.
func (d *Device) BrowseBatch(now time.Duration, actions []string) error {
	if len(actions) == 0 {
		return nil
	}
	if d.session == nil {
		return errors.New("device: no session")
	}
	bt, ok := d.transport.(batchTransport)
	if !ok {
		return d.browseSequential(now, actions)
	}
	reqs := make([]*protocol.PageRequest, 0, len(actions))
	for i, action := range actions {
		nonce, live := bt.PredictNonce(i)
		if !live {
			return d.browseSequential(now, actions)
		}
		if d.Malware != nil && d.Malware.RewriteAction != nil {
			action = d.Malware.RewriteAction(action)
		}
		req, err := d.Client.BuildPageRequestAt(now, d.session, action, d.RiskWindow, nonce)
		if err != nil {
			return err
		}
		if d.Malware != nil && d.Malware.MutateRequest != nil {
			d.Malware.MutateRequest(req)
		}
		reqs = append(reqs, req)
	}
	pages, err := bt.SubmitPageBatch(now, reqs)
	if err != nil {
		return err
	}
	for _, cp := range pages {
		if err := d.Client.AcceptContentPage(d.session, cp); err != nil {
			return err
		}
	}
	d.display(pages[len(pages)-1].Page)
	return nil
}

// browseSequential is BrowseBatch's one-at-a-time fallback.
func (d *Device) browseSequential(now time.Duration, actions []string) error {
	for _, action := range actions {
		if err := d.Browse(now, action); err != nil {
			return err
		}
	}
	return nil
}

// InjectRequest models malware asserting a user action with NO backing
// touch: it asks the module to build a signed request directly. The
// module's touch-authorization gate is what stands in the way.
func (d *Device) InjectRequest(now time.Duration, action string) error {
	if d.session == nil {
		return errors.New("device: no session")
	}
	req, err := d.Client.BuildPageRequest(now, d.session, action, d.RiskWindow)
	if err != nil {
		return err
	}
	_, err = d.transport.SubmitPageRequest(now, req)
	return err
}
