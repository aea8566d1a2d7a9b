package device

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"trust/internal/protocol"
	"trust/internal/sim"
	"trust/internal/webserver"
)

// DefaultRetryPolicy is a sane interactive policy: four tries, 50 ms
// base, 800 ms cap, ±20 % jitter — worst case ~2 s of virtual waiting,
// far inside the module's 30 s touch-authorization window so retries
// can still re-sign.
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{MaxAttempts: 4, BaseDelay: 50 * time.Millisecond, MaxDelay: 800 * time.Millisecond, JitterFrac: 0.2}
}

// armFaults wraps the fixture's transport in a FaultyTransport (clean
// profile — tests flip faults on after the setup flows) and arms the
// retry policy.
func armFaults(fx *fixture, seed uint64, policy RetryPolicy) *FaultyTransport {
	ft := NewFaultyTransport(fx.dev.transport, FaultProfile{}, sim.NewRNG(seed))
	fx.dev.transport = ft
	fx.dev.SetRetryPolicy(policy, sim.NewRNG(seed+1))
	return ft
}

// lossyBrowseTranscript runs the acceptance scenario once: clean
// register+login, then rounds of continuous-auth browsing over a
// 30 %-loss link with retries, recording every observable into a
// transcript string.
func lossyBrowseTranscript(t *testing.T, rounds int) string {
	t.Helper()
	fx := newFixture(t, nil)
	ft := armFaults(fx, 77, DefaultRetryPolicy())
	fx.registerAndLogin(t)
	ft.Profile = FaultProfile{DropRate: 0.3}

	var b strings.Builder
	for i := 0; i < rounds; i++ {
		fx.touchOwner(t)
		action := fmt.Sprintf("page-%d", i%5)
		now, err := fx.dev.BrowseResilient(fx.now, action)
		if err != nil {
			t.Fatalf("round %d: browse failed despite retries: %v", i, err)
		}
		fx.now = now
		fmt.Fprintf(&b, "round=%d action=%s now=%d degraded=%v nonce=%s\n",
			i, action, int64(fx.now), fx.dev.Degraded(), fx.dev.Session().LastNonce)
	}
	fmt.Fprintf(&b, "stats=%+v\n", ft.Stats)
	fmt.Fprintf(&b, "audit=%d accepted=%d rejected=%d sessions=%d\n",
		fx.server.RunAudit().Checked, fx.server.AcceptedRequests(),
		fx.server.RejectedRequests(), fx.server.SessionCount())
	return b.String()
}

// TestLossyBrowseCompletesDeterministically is the ISSUE's acceptance
// scenario: under FaultProfile{DropRate: 0.3} with a sane retry policy
// the continuous-auth flow completes every round, and two identical
// runs produce byte-identical transcripts.
func TestLossyBrowseCompletesDeterministically(t *testing.T) {
	const rounds = 20
	t1 := lossyBrowseTranscript(t, rounds)
	t2 := lossyBrowseTranscript(t, rounds)
	if t1 != t2 {
		t.Fatalf("lossy browse transcript not deterministic:\nrun1:\n%s\nrun2:\n%s", t1, t2)
	}
	// The link must actually have been lossy, or the test proves nothing.
	if strings.Contains(t1, "DroppedRequests:0 DroppedResponses:0") {
		t.Fatalf("fault injector never dropped anything:\n%s", t1)
	}
}

// TestLossyBrowseFailsWithoutRetries is the control: the same loss
// profile with retries disabled (plain fail-fast Browse) loses
// messages with no recovery, and once a response is lost the session
// nonce desynchronizes permanently.
func TestLossyBrowseFailsWithoutRetries(t *testing.T) {
	fx := newFixture(t, nil)
	ft := armFaults(fx, 77, RetryPolicy{MaxAttempts: 1})
	fx.registerAndLogin(t)
	ft.Profile = FaultProfile{DropRate: 0.3}

	var netErrs, nonceErrs int
	for i := 0; i < 20; i++ {
		fx.touchOwner(t)
		err := fx.dev.Browse(fx.now, "page")
		switch {
		case err == nil:
		case errors.Is(err, webserver.ErrBadNonce):
			nonceErrs++
		case Retryable(err):
			netErrs++
		default:
			t.Fatalf("round %d: unexpected error class: %v", i, err)
		}
	}
	if netErrs == 0 {
		t.Fatal("no network faults surfaced with retries disabled")
	}
	if ft.Stats.DroppedResponses > 0 && nonceErrs == 0 {
		t.Fatal("a response was dropped but the session never desynchronized")
	}
	if nonceErrs == 0 {
		t.Skip("seed produced no response drops; desync branch not reached")
	}
}

// TestBrowseResilientDegradesOffline: when every attempt dies on the
// network, the device falls back to the local cache under the module's
// local continuous auth, and recovers (clearing Degraded) once the
// link heals.
func TestBrowseResilientDegradesOffline(t *testing.T) {
	fx := newFixture(t, nil)
	ft := armFaults(fx, 3, DefaultRetryPolicy())
	fx.registerAndLogin(t)

	ft.Profile = FaultProfile{DropRate: 1} // total outage
	fx.touchOwner(t)
	before := fx.server.AcceptedRequests()
	now, err := fx.dev.BrowseResilient(fx.now, "page")
	if err != nil {
		t.Fatalf("offline browse should degrade, not fail: %v", err)
	}
	fx.now = now
	if !fx.dev.Degraded() {
		t.Fatal("device not marked degraded after total outage")
	}
	if fx.server.AcceptedRequests() != before {
		t.Fatal("server accepted a request during a total outage")
	}

	ft.Profile = FaultProfile{} // link heals
	fx.touchOwner(t)
	now, err = fx.dev.BrowseResilient(fx.now, "page")
	if err != nil {
		t.Fatalf("browse after link healed: %v", err)
	}
	fx.now = now
	if fx.dev.Degraded() {
		t.Fatal("degraded flag not cleared by a successful round-trip")
	}
}

// TestBrowseResilientNoFallbackWithoutTouch: degradation is gated on
// the module's local continuous auth. With backoffs long enough to
// outlive the touch-authorization window, an unreachable server is a
// hard failure.
func TestBrowseResilientNoFallbackWithoutTouch(t *testing.T) {
	fx := newFixture(t, nil)
	ft := armFaults(fx, 4, RetryPolicy{MaxAttempts: 3, BaseDelay: 20 * time.Second, MaxDelay: 20 * time.Second})
	fx.registerAndLogin(t)
	ft.Profile = FaultProfile{DropRate: 1}
	fx.touchOwner(t)
	_, err := fx.dev.BrowseResilient(fx.now, "page")
	if err == nil {
		t.Fatal("degraded mode granted without a live touch authorization")
	}
	if !errors.Is(err, protocol.ErrNoFreshTouch) {
		t.Fatalf("outage past the touch window should fail on the touch gate: %v", err)
	}
	if fx.dev.Degraded() {
		t.Fatal("device marked degraded despite failing the local-auth gate")
	}
}

// TestCorruptionIsTerminal: a corrupted MAC draws a typed ErrBadMAC
// from the server, which the retry layer must treat as a verdict — one
// delivery, no retries.
func TestCorruptionIsTerminal(t *testing.T) {
	fx := newFixture(t, nil)
	ft := armFaults(fx, 5, DefaultRetryPolicy())
	fx.registerAndLogin(t)
	ft.Profile = FaultProfile{CorruptRate: 1}
	fx.touchOwner(t)
	calls := ft.Stats.Calls
	_, err := fx.dev.BrowseResilient(fx.now, "page")
	if !errors.Is(err, webserver.ErrBadMAC) {
		t.Fatalf("corrupted request error = %v, want ErrBadMAC", err)
	}
	if got := ft.Stats.Calls - calls; got != 1 {
		t.Fatalf("terminal rejection retried: %d deliveries", got)
	}
	if ft.Stats.Corrupted == 0 {
		t.Fatal("corruption counter never advanced")
	}
}

// TestDuplicateDeliveryIsIdempotent: with every request delivered
// twice, browsing still works and the server applies each interaction
// exactly once — duplicates die on the consumed nonce and log nothing.
func TestDuplicateDeliveryIsIdempotent(t *testing.T) {
	fx := newFixture(t, nil)
	ft := armFaults(fx, 6, DefaultRetryPolicy())
	fx.registerAndLogin(t)
	auditAfterLogin := fx.server.RunAudit().Checked
	ft.Profile = FaultProfile{DuplicateRate: 1}
	const rounds = 5
	for i := 0; i < rounds; i++ {
		fx.touchOwner(t)
		now, err := fx.dev.BrowseResilient(fx.now, "page")
		if err != nil {
			t.Fatalf("round %d under duplication: %v", i, err)
		}
		fx.now = now
	}
	if ft.Stats.Duplicated < rounds {
		t.Fatalf("duplicated only %d of %d deliveries", ft.Stats.Duplicated, rounds)
	}
	if got := fx.server.RunAudit().Checked - auditAfterLogin; got != rounds {
		t.Fatalf("server logged %d interactions for %d browses — duplicates double-applied", got, rounds)
	}
	if fx.server.SessionCount() != 1 {
		t.Fatalf("duplicates created sessions: %d live", fx.server.SessionCount())
	}
}

// TestResyncRecoversLostResponse: when a response is lost AFTER the
// server applied the action (simulated by delivering a request behind
// the device's back), the device's next request draws ErrBadNonce and
// the resync protocol recovers the session.
func TestResyncRecoversLostResponse(t *testing.T) {
	fx := newFixture(t, nil)
	fx.registerAndLogin(t)

	// Deliver a page request whose response the device never sees: the
	// server rotates the session nonce past the device.
	fx.touchOwner(t)
	req, err := fx.dev.Client.BuildPageRequest(fx.now, fx.dev.Session(), "lost-action", fx.dev.RiskWindow)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fx.server.HandlePageRequest(fx.now, req); err != nil {
		t.Fatal(err)
	}

	// Fail-fast browse now desyncs on the stale nonce.
	fx.touchOwner(t)
	if err := fx.dev.Browse(fx.now, "page"); !errors.Is(err, webserver.ErrBadNonce) {
		t.Fatalf("stale-nonce browse error = %v, want ErrBadNonce", err)
	}

	// Resync re-serves the last page under a fresh nonce...
	if err := fx.dev.Resync(fx.now); err != nil {
		t.Fatalf("resync: %v", err)
	}
	// ...after which normal browsing resumes.
	fx.touchOwner(t)
	if err := fx.dev.Browse(fx.now, "page"); err != nil {
		t.Fatalf("browse after resync: %v", err)
	}
}

// TestBrowseResilientHealsBadNonceInline: the resilient flow handles
// the stale-nonce case by itself — no caller intervention.
func TestBrowseResilientHealsBadNonceInline(t *testing.T) {
	fx := newFixture(t, nil)
	armFaults(fx, 8, DefaultRetryPolicy())
	fx.registerAndLogin(t)

	fx.touchOwner(t)
	req, err := fx.dev.Client.BuildPageRequest(fx.now, fx.dev.Session(), "lost-action", fx.dev.RiskWindow)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fx.server.HandlePageRequest(fx.now, req); err != nil {
		t.Fatal(err)
	}

	fx.touchOwner(t)
	if _, err := fx.dev.BrowseResilient(fx.now, "page"); err != nil {
		t.Fatalf("resilient browse should heal a stale nonce: %v", err)
	}
}

// TestLoginResilientRetriesNetworkFaults: login refetches the page on
// every attempt (single-use nonces) and survives a lossy link.
func TestLoginResilientRetriesNetworkFaults(t *testing.T) {
	fx := newFixture(t, nil)
	ft := armFaults(fx, 9, RetryPolicy{MaxAttempts: 25, BaseDelay: 10 * time.Millisecond, MaxDelay: 80 * time.Millisecond, JitterFrac: 0.2})
	fx.touchOwner(t)
	if err := fx.dev.Register(fx.now, "acct", "pw"); err != nil {
		t.Fatal(err)
	}
	ft.Profile = FaultProfile{DropRate: 0.4}
	fx.touchOwner(t)
	now, err := fx.dev.LoginResilient(fx.now, fx.server.Certificate(), "acct")
	if err != nil {
		t.Fatalf("resilient login on lossy link: %v", err)
	}
	fx.now = now
	if fx.dev.Session() == nil {
		t.Fatal("no session after resilient login")
	}
	if ft.Stats.DroppedRequests+ft.Stats.DroppedResponses == 0 {
		t.Fatal("link was never lossy; test proves nothing")
	}
}

// TestResilientRetryAccounting pins the one retry loop behind all three
// resilient flows. Under total loss each flow spends its whole budget:
// four attempts, one dev_retries per backoff, and a returned clock that
// is the start plus exactly the backoffs drawn from the retry RNG. A
// corrupted request draws a typed rejection on the first attempt, which
// ends the loop with no retry and no wait.
func TestResilientRetryAccounting(t *testing.T) {
	const seed = 12
	policy := RetryPolicy{MaxAttempts: 4, BaseDelay: 50 * time.Millisecond, MaxDelay: 800 * time.Millisecond, JitterFrac: 0.2}
	// armFaults seeds the retry RNG with seed+1.
	var waits time.Duration
	rng := sim.NewRNG(seed + 1)
	for a := 1; a < policy.MaxAttempts; a++ {
		waits += policy.backoff(a, rng)
	}
	login := func(fx *fixture, now time.Duration) (time.Duration, error) {
		return fx.dev.LoginResilient(now, fx.server.Certificate(), "acct")
	}
	resume := func(fx *fixture, now time.Duration) (time.Duration, error) {
		return fx.dev.LoginResumeResilient(now, fx.server.Certificate(), "acct")
	}
	browse := func(fx *fixture, now time.Duration) (time.Duration, error) {
		return fx.dev.BrowseResilient(now, "page")
	}
	loss, corrupt := FaultProfile{DropRate: 1}, FaultProfile{CorruptRate: 1}
	cases := []struct {
		name    string
		run     func(*fixture, time.Duration) (time.Duration, error)
		profile FaultProfile
		noCache bool // drop the cached page, leaving no local fallback
		// calls counts transport deliveries: a login attempt that gets its
		// page stops at the submit, and the resume flow's first attempt
		// also presents (and loses) its ticket.
		calls, retries int
		wait           time.Duration
		wantErr        string // with wantIs nil, the flow must succeed degraded
		wantIs         error
	}{
		{"login/loss", login, loss, false, 4, 3, waits, "login failed after retries", ErrNetwork},
		{"resume/loss", resume, loss, false, 5, 3, waits, "login failed after retries", ErrNetwork},
		{"browse/loss", browse, loss, false, 4, 3, waits, "", nil},
		{"browse/loss-no-fallback", browse, loss, true, 4, 3, waits, "server unreachable", ErrNetwork},
		{"login/corrupt", login, corrupt, false, 2, 0, 0, "login failed after retries", webserver.ErrBadMAC},
		{"resume/corrupt", resume, corrupt, false, 3, 0, 0, "login failed after retries", webserver.ErrBadMAC},
		{"browse/corrupt", browse, corrupt, false, 1, 0, 0, "", webserver.ErrBadMAC},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			fx := newFixture(t, nil)
			ft := armFaults(fx, seed, policy)
			fx.registerAndLogin(t)
			fx.touchOwner(t)
			if c.noCache {
				fx.dev.current = nil
			}
			ft.Profile = c.profile
			calls, retries := ft.Stats.Calls, fx.dev.tel.retries.Load()

			now, err := c.run(fx, fx.now)
			if got := ft.Stats.Calls - calls; got != c.calls {
				t.Errorf("%d deliveries, want %d", got, c.calls)
			}
			if got := fx.dev.tel.retries.Load() - retries; got != int64(c.retries) {
				t.Errorf("dev_retries grew by %d, want %d", got, c.retries)
			}
			if now != fx.now+c.wait {
				t.Errorf("returned clock %v, want start %v + %v", now, fx.now, c.wait)
			}
			switch {
			case c.wantIs == nil:
				if err != nil || !fx.dev.Degraded() {
					t.Fatalf("err = %v, degraded = %v; want a degraded success", err, fx.dev.Degraded())
				}
			case !errors.Is(err, c.wantIs) || !strings.Contains(fmt.Sprint(err), c.wantErr):
				t.Fatalf("err = %v, want %v wrapped in %q", err, c.wantIs, c.wantErr)
			}
		})
	}
}

// TestRetryPolicyBackoffShape: capped exponential growth, jitter
// bounded by JitterFrac, deterministic for a fixed RNG stream.
func TestRetryPolicyBackoffShape(t *testing.T) {
	p := RetryPolicy{MaxAttempts: 8, BaseDelay: 50 * time.Millisecond, MaxDelay: 400 * time.Millisecond}
	for i, want := range []time.Duration{50, 100, 200, 400, 400, 400} {
		if got := p.backoff(i+1, nil); got != want*time.Millisecond {
			t.Errorf("backoff(%d) = %v, want %v", i+1, got, want*time.Millisecond)
		}
	}
	p.JitterFrac = 0.2
	rng := sim.NewRNG(1)
	for a := 1; a <= 6; a++ {
		nominal := p.backoff(a, nil)
		got := p.backoff(a, rng)
		lo := time.Duration(float64(nominal) * 0.8)
		hi := time.Duration(float64(nominal) * 1.2)
		if got < lo || got > hi {
			t.Errorf("jittered backoff(%d) = %v outside [%v, %v]", a, got, lo, hi)
		}
	}
	r1, r2 := sim.NewRNG(9), sim.NewRNG(9)
	for a := 1; a <= 6; a++ {
		if p.backoff(a, r1) != p.backoff(a, r2) {
			t.Fatal("jitter not deterministic for identical RNG streams")
		}
	}
}

// TestInterceptorCapturesSurviveMutation is the regression test for
// the shallow-copy capture bug: a tamper hook rewriting the live
// message in place must not silently rewrite the captured traffic.
func TestInterceptorCapturesSurviveMutation(t *testing.T) {
	fx := newFixture(t, nil)
	ic := &Interceptor{}
	fx.dev.transport.(*InMemory).Interceptor = ic

	var loginOrig, reqOrig byte
	ic.OnLoginSubmit = func(sub *protocol.LoginSubmit) *protocol.LoginSubmit {
		loginOrig = sub.MAC[0]
		sub.MAC[0] ^= 0xff // in-place tamper AFTER capture
		return sub
	}
	ic.OnPageRequest = func(req *protocol.PageRequest) *protocol.PageRequest {
		reqOrig = req.MAC[0]
		req.MAC[0] ^= 0xff
		return req
	}

	fx.touchOwner(t)
	if err := fx.dev.Register(fx.now, "acct", "pw"); err != nil {
		t.Fatal(err)
	}
	fx.touchOwner(t)
	// Both flows are rejected server-side (the MAC is tampered); the
	// point is what the interceptor retained.
	if err := fx.dev.Login(fx.now, fx.server.Certificate(), "acct"); !errors.Is(err, webserver.ErrBadMAC) {
		t.Fatalf("tampered login error = %v, want ErrBadMAC", err)
	}
	if ic.CapturedLogin == nil || ic.CapturedLogin.MAC[0] != loginOrig {
		t.Fatal("captured login submission aliased the tampered message")
	}

	// Establish a real session (hooks off), then tamper a page request.
	ic.OnLoginSubmit = nil
	fx.touchOwner(t)
	if err := fx.dev.Login(fx.now, fx.server.Certificate(), "acct"); err != nil {
		t.Fatal(err)
	}
	fx.touchOwner(t)
	if err := fx.dev.Browse(fx.now, "page"); !errors.Is(err, webserver.ErrBadMAC) {
		t.Fatalf("tampered browse error = %v, want ErrBadMAC", err)
	}
	last := ic.CapturedRequests[len(ic.CapturedRequests)-1]
	if last.MAC[0] != reqOrig {
		t.Fatal("captured page request aliased the tampered message")
	}
}

// TestWarpHeartbeatUsesFrameCodec checks the warp against frames built
// by the protocol's own builders: a lone heartbeat is rewritten (its
// sequence kept, its timestamp moved back and floored at zero), while a
// heartbeat batched with another frame, a torn heartbeat and any other
// frame type pass untouched.
func TestWarpHeartbeatUsesFrameCodec(t *testing.T) {
	hb := protocol.AppendHeartbeatFrame(nil, 7, 90*time.Second)
	q, ok := warpHeartbeat(hb, 30*time.Second)
	if !ok {
		t.Fatal("lone heartbeat frame not warped")
	}
	_, payload, err := protocol.ReadFrame(bytes.NewReader(q))
	if err != nil {
		t.Fatal(err)
	}
	if seq, now, err := protocol.DecodeHeartbeat(payload); err != nil || seq != 7 || now != 60*time.Second {
		t.Fatalf("warped heartbeat: seq %d now %v err %v, want 7 1m0s", seq, now, err)
	}
	if !bytes.Equal(hb, protocol.AppendHeartbeatFrame(nil, 7, 90*time.Second)) {
		t.Fatal("warp wrote to the caller's frame")
	}
	if q, _ := warpHeartbeat(hb, time.Hour); !bytes.Equal(q, protocol.AppendHeartbeatFrame(nil, 7, 0)) {
		t.Fatal("warp past zero not floored at zero")
	}
	ack, err := protocol.AppendAckFrame(nil, 7, "", "")
	if err != nil {
		t.Fatal(err)
	}
	for name, p := range map[string][]byte{
		"batched": protocol.AppendHeartbeatFrame(hb, 8, time.Second),
		"torn":    hb[:len(hb)-1],
		"ack":     ack,
	} {
		if _, ok := warpHeartbeat(p, time.Second); ok {
			t.Errorf("%s write warped", name)
		}
	}
}
