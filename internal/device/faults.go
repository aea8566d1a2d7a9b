package device

import (
	"errors"
	"fmt"
	"time"

	"trust/internal/protocol"
	"trust/internal/sim"
)

// ErrNetwork is the retryable fault class: the message (or its
// response) was lost or mangled in transit and the client cannot know
// whether the server processed it. Both the HTTP transport (socket
// failures) and FaultyTransport (injected loss) wrap it; the retry
// layer treats exactly this class as worth retrying.
var ErrNetwork = errors.New("device: network fault")

// FaultProfile configures fault injection. The zero value injects
// nothing (the wrappers are transparent). Rates are probabilities in
// [0, 1]. One profile serves both injection points, each reading its
// own layer's settings: FaultyTransport the message-level ones (drop,
// duplicate, corrupt), FaultyDialer the frame-level ones (cut, tear)
// — the failure modes a long-lived stream adds on top of per-message
// loss.
type FaultProfile struct {
	// DropRate is the per-direction loss probability: each request and
	// each response is independently lost with this probability. A lost
	// request never reaches the server; a lost response means the server
	// DID process the message — the asymmetry the retry layer's nonce
	// resync exists for.
	DropRate float64
	// DuplicateRate is the probability a delivered request is delivered
	// a second time (network-level duplication). The duplicate's
	// response is discarded; it exists to exercise server idempotency.
	DuplicateRate float64
	// CorruptRate is the probability a request has one MAC/signature
	// byte flipped before delivery, provoking a terminal typed
	// rejection.
	CorruptRate float64
	// CutRate is the probability a frame write is cut partway: a prefix
	// of the frame reaches the peer, then the connection closes. The
	// reader on the far side sees a truncated frame and must tear the
	// stream down without misparsing.
	CutRate float64
	// TearRate is the probability a frame write is split into two
	// separate writes (no loss — exercises reassembly across partial
	// arrivals).
	TearRate float64
}

// FaultStats counts what a fault injector did: the message-level
// counters belong to FaultyTransport, the frame-level ones (Conns
// onwards) to FaultyDialer.
type FaultStats struct {
	Calls            int
	DroppedRequests  int
	DroppedResponses int
	Duplicated       int
	Corrupted        int
	Conns            int
	Cuts             int
	Tears            int
}

// FaultyTransport wraps any Transport with deterministic, seeded fault
// injection: message loss, duplication, and corruption, all drawn from
// a sim.RNG in virtual time. Same seed + same call sequence
// → byte-identical fault schedule, so chaos experiments are exactly
// reproducible.
type FaultyTransport struct {
	Inner Transport
	// Profile may be swapped at any point between calls (load
	// generators build the fleet clean, then turn faults on).
	Profile FaultProfile
	Stats   FaultStats

	rng *sim.RNG
}

var _ Transport = (*FaultyTransport)(nil)

// NewFaultyTransport wraps inner with the given profile, drawing all
// fault decisions from rng.
func NewFaultyTransport(inner Transport, profile FaultProfile, rng *sim.RNG) *FaultyTransport {
	return &FaultyTransport{Inner: inner, Profile: profile, rng: rng}
}

// faultyRound runs one call through the fault schedule: request-drop
// draw, delivery (plus possible duplicate delivery), then response-drop
// draw. Draws happen in a fixed order so the schedule
// depends only on the RNG stream and the profile.
func faultyRound[R any](t *FaultyTransport, op string, now time.Duration, do func(time.Duration) (R, error)) (R, error) {
	var zero R
	t.Stats.Calls++
	if p := t.Profile.DropRate; p > 0 && t.rng.Bool(p) {
		t.Stats.DroppedRequests++
		return zero, fmt.Errorf("%w: %s request dropped", ErrNetwork, op)
	}
	resp, err := do(now)
	if p := t.Profile.DuplicateRate; p > 0 && t.rng.Bool(p) {
		// Second delivery of the same message. Its result is discarded —
		// the point is that the server must reject or tolerate it
		// without double-applying (idempotency under at-least-once
		// delivery).
		t.Stats.Duplicated++
		_, _ = do(now)
	}
	if p := t.Profile.DropRate; p > 0 && err == nil && t.rng.Bool(p) {
		t.Stats.DroppedResponses++
		return zero, fmt.Errorf("%w: %s response dropped", ErrNetwork, op)
	}
	return resp, err
}

// corrupt reports whether this call's request should be corrupted, and
// counts it.
func (t *FaultyTransport) corrupt() bool {
	if p := t.Profile.CorruptRate; p > 0 && t.rng.Bool(p) {
		t.Stats.Corrupted++
		return true
	}
	return false
}

// flipByte flips one bit of a random byte of b (no-op on empty b).
func (t *FaultyTransport) flipByte(b []byte) {
	if len(b) == 0 {
		return
	}
	b[t.rng.Intn(len(b))] ^= 1 << uint(t.rng.Intn(8))
}

// BindSession forwards the session binding to a wrapped streamed
// transport, so fault injection composes with session-bound inners.
func (t *FaultyTransport) BindSession(sess *protocol.Session) {
	if b, ok := t.Inner.(sessionBinder); ok {
		b.BindSession(sess)
	}
}

// FetchRegistrationPage implements Transport.
func (t *FaultyTransport) FetchRegistrationPage(now time.Duration) (*protocol.RegistrationPage, error) {
	return faultyRound(t, "registration page", now, t.Inner.FetchRegistrationPage)
}

// SubmitRegistration implements Transport.
func (t *FaultyTransport) SubmitRegistration(now time.Duration, sub *protocol.RegistrationSubmit, recovery string) (protocol.RegistrationResult, error) {
	if t.corrupt() {
		cp := *sub
		cp.Signature = append([]byte(nil), sub.Signature...)
		t.flipByte(cp.Signature)
		sub = &cp
	}
	return faultyRound(t, "registration", now, func(fnow time.Duration) (protocol.RegistrationResult, error) {
		return t.Inner.SubmitRegistration(fnow, sub, recovery)
	})
}

// FetchLoginPage implements Transport.
func (t *FaultyTransport) FetchLoginPage(now time.Duration) (*protocol.LoginPage, error) {
	return faultyRound(t, "login page", now, t.Inner.FetchLoginPage)
}

// SubmitLogin implements Transport.
func (t *FaultyTransport) SubmitLogin(now time.Duration, sub *protocol.LoginSubmit) (*protocol.ContentPage, error) {
	if t.corrupt() {
		sub = cloneLoginSubmit(sub)
		t.flipByte(sub.MAC)
	}
	return faultyRound(t, "login", now, func(fnow time.Duration) (*protocol.ContentPage, error) {
		return t.Inner.SubmitLogin(fnow, sub)
	})
}

// SubmitResume implements Transport.
func (t *FaultyTransport) SubmitResume(now time.Duration, sub *protocol.ResumeSubmit) (*protocol.ContentPage, error) {
	if t.corrupt() {
		cp := *sub
		cp.MAC = append([]byte(nil), sub.MAC...)
		t.flipByte(cp.MAC)
		sub = &cp
	}
	return faultyRound(t, "resume", now, func(fnow time.Duration) (*protocol.ContentPage, error) {
		return t.Inner.SubmitResume(fnow, sub)
	})
}

// SubmitPageRequest implements Transport.
func (t *FaultyTransport) SubmitPageRequest(now time.Duration, req *protocol.PageRequest) (*protocol.ContentPage, error) {
	if t.corrupt() {
		req = clonePageRequest(req)
		t.flipByte(req.MAC)
	}
	return faultyRound(t, "page request", now, func(fnow time.Duration) (*protocol.ContentPage, error) {
		return t.Inner.SubmitPageRequest(fnow, req)
	})
}

// SubmitResync implements Transport.
func (t *FaultyTransport) SubmitResync(now time.Duration, req *protocol.ResyncRequest) (*protocol.ContentPage, error) {
	if t.corrupt() {
		cp := *req
		cp.MAC = append([]byte(nil), req.MAC...)
		t.flipByte(cp.MAC)
		req = &cp
	}
	return faultyRound(t, "resync", now, func(fnow time.Duration) (*protocol.ContentPage, error) {
		return t.Inner.SubmitResync(fnow, req)
	})
}
