package device

import (
	"math"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"trust/internal/fingerprint"
	"trust/internal/frame"
	"trust/internal/pki"
	"trust/internal/protocol"
	"trust/internal/testbed"
	"trust/internal/webserver"
)

type fixture struct {
	ca     *pki.CA
	server *webserver.Server
	dev    *Device
	finger *fingerprint.Finger
	now    time.Duration
}

func newFixture(t *testing.T, mal *Malware) *fixture {
	t.Helper()
	ca, err := pki.NewCA("trust-root", pki.NewDeterministicRand(1))
	if err != nil {
		t.Fatal(err)
	}
	srv, err := webserver.New("www.xyz.com", ca, 7)
	if err != nil {
		t.Fatal(err)
	}
	f := fingerprint.Synthesize(4242, fingerprint.Loop)
	mod, err := testbed.Module(ca, "device-1", 99, f)
	if err != nil {
		t.Fatal(err)
	}
	dev := New("phone", mod, &InMemory{Server: srv})
	dev.Malware = mal
	return &fixture{ca: ca, server: srv, dev: dev, finger: f}
}

func (fx *fixture) touchOwner(t testing.TB) {
	t.Helper()
	at, err := testbed.TapUntilVerified(fx.dev.Module, fx.finger, fx.now)
	if err != nil {
		t.Fatal(err)
	}
	fx.now = at + testbed.TapInterval
}

func (fx *fixture) registerAndLogin(t testing.TB) {
	t.Helper()
	fx.touchOwner(t)
	if err := fx.dev.Register(fx.now, "acct", "recovery-pw"); err != nil {
		t.Fatalf("register: %v", err)
	}
	fx.touchOwner(t)
	if err := fx.dev.Login(fx.now, fx.server.Certificate(), "acct"); err != nil {
		t.Fatalf("login: %v", err)
	}
}

func TestCleanDeviceEndToEnd(t *testing.T) {
	fx := newFixture(t, nil)
	fx.registerAndLogin(t)
	if fx.dev.Session() == nil {
		t.Fatal("no session after login")
	}
	for _, action := range []string{"view-statement", "home"} {
		fx.touchOwner(t)
		if err := fx.dev.Browse(fx.now, action); err != nil {
			t.Fatalf("browse %s: %v", action, err)
		}
	}
	report := fx.server.RunAudit()
	if report.Tampered != 0 {
		t.Fatalf("clean device flagged by audit: %d of %d", report.Tampered, report.Checked)
	}
}

func TestMalwareFrameTamperCaughtByAudit(t *testing.T) {
	mal := &Malware{
		TamperFrame: func(p *frame.Page) *frame.Page {
			p.Body = "You won a prize! Touch to claim."
			return p
		},
	}
	fx := newFixture(t, mal)
	fx.registerAndLogin(t)
	fx.touchOwner(t)
	if err := fx.dev.Browse(fx.now, "view-statement"); err != nil {
		t.Fatalf("browse under tamper: %v", err)
	}
	report := fx.server.RunAudit()
	if report.Tampered == 0 {
		t.Fatal("audit missed tampered frames")
	}
}

func TestMalwareRequestMutationRejectedOnline(t *testing.T) {
	mal := &Malware{
		MutateRequest: func(req *protocol.PageRequest) {
			req.Action = "confirm-transfer"
		},
	}
	fx := newFixture(t, mal)
	fx.registerAndLogin(t)
	fx.touchOwner(t)
	err := fx.dev.Browse(fx.now, "view-statement")
	if err == nil {
		t.Fatal("MAC-broken request accepted")
	}
	if !strings.Contains(err.Error(), "MAC") {
		t.Fatalf("unexpected rejection: %v", err)
	}
}

func TestMalwareInjectionWithoutTouchFails(t *testing.T) {
	fx := newFixture(t, nil)
	fx.registerAndLogin(t)
	// Let the freshness window lapse, then inject.
	fx.now += time.Hour
	err := fx.dev.InjectRequest(fx.now, "confirm-transfer")
	if err != protocol.ErrNoFreshTouch {
		t.Fatalf("injection error = %v, want ErrNoFreshTouch", err)
	}
}

func TestInterceptorReplayRejected(t *testing.T) {
	fx := newFixture(t, nil)
	inter := &Interceptor{}
	fx.dev.transport = &InMemory{Server: fx.server, Interceptor: inter}
	fx.registerAndLogin(t)
	fx.touchOwner(t)
	if err := fx.dev.Browse(fx.now, "view-statement"); err != nil {
		t.Fatal(err)
	}
	if len(inter.CapturedRequests) == 0 {
		t.Fatal("interceptor captured nothing")
	}
	// Replay the captured request directly at the server.
	replayed := inter.CapturedRequests[len(inter.CapturedRequests)-1]
	if _, err := fx.server.HandlePageRequest(fx.now, replayed); err == nil {
		t.Fatal("replayed request accepted")
	}
}

func TestHTTPTransportEndToEnd(t *testing.T) {
	fx := newFixture(t, nil)
	ts := httptest.NewServer(fx.server.Handler())
	defer ts.Close()

	fx.dev.transport = &HTTP{BaseURL: ts.URL, Client: ts.Client()}

	cert, err := webserver.FetchCertificate(ts.Client(), ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	if err := cert.Verify(fx.ca.PublicKey(), pki.RoleServer); err != nil {
		t.Fatalf("fetched certificate invalid: %v", err)
	}

	fx.touchOwner(t)
	if err := fx.dev.Register(fx.now, "http-acct", "pw"); err != nil {
		t.Fatalf("HTTP register: %v", err)
	}
	fx.touchOwner(t)
	if err := fx.dev.Login(fx.now, cert, "http-acct"); err != nil {
		t.Fatalf("HTTP login: %v", err)
	}
	fx.touchOwner(t)
	if err := fx.dev.Browse(fx.now, "view-statement"); err != nil {
		t.Fatalf("HTTP browse: %v", err)
	}
	report := fx.server.RunAudit()
	if report.Tampered != 0 {
		t.Fatalf("HTTP honest session flagged: %d of %d", report.Tampered, report.Checked)
	}
}

// SetView changes the display transform (the user pinch-zoomed or
// scrolled) and re-renders the current page through the FLock display
// path, so the next request attests the view actually on screen. Zoom
// snaps to the nearest standard stop and scroll to the standard step —
// the finite view set the server audits against.
func (d *Device) SetView(v frame.View) {
	// Snap to the standard view lattice.
	best := frame.ZoomStops[0]
	for _, z := range frame.ZoomStops {
		if math.Abs(v.Zoom-z) < math.Abs(v.Zoom-best) {
			best = z
		}
	}
	v.Zoom = best
	if v.ScrollY < 0 {
		v.ScrollY = 0
	}
	v.ScrollY = float64(int(v.ScrollY/frame.ScrollStepPX)) * frame.ScrollStepPX
	d.view = v
	if d.current != nil {
		d.display(d.current)
	}
}

func TestZoomedBrowsingPassesAudit(t *testing.T) {
	fx := newFixture(t, nil)
	fx.registerAndLogin(t)

	// The user zooms in and scrolls; the view snaps to the standard
	// lattice, the repeater hashes the zoomed frame, and the audit
	// still verifies every entry.
	fx.dev.SetView(frame.View{Zoom: 1.4, ScrollY: 230}) // snaps to 1.5 / 200
	if v := fx.dev.view; v.Zoom != 1.5 || v.ScrollY != 200 {
		t.Fatalf("view did not snap: %+v", v)
	}
	fx.touchOwner(t)
	if err := fx.dev.Browse(fx.now, "view-statement"); err != nil {
		t.Fatalf("zoomed browse: %v", err)
	}
	fx.dev.SetView(frame.View{Zoom: 1, ScrollY: -50})
	if v := fx.dev.view; v.ScrollY != 0 {
		t.Fatalf("negative scroll not clamped: %+v", v)
	}
	fx.touchOwner(t)
	if err := fx.dev.Browse(fx.now, "home"); err != nil {
		t.Fatalf("reset-view browse: %v", err)
	}
	report := fx.server.RunAudit()
	if report.Tampered != 0 {
		t.Fatalf("zoomed honest session flagged: %d of %d", report.Tampered, report.Checked)
	}
}

func TestHTTPBinaryTransportEndToEnd(t *testing.T) {
	fx := newFixture(t, nil)
	ts := httptest.NewServer(fx.server.Handler())
	defer ts.Close()

	// Same flow as the JSON transport, but over the compact binary
	// codec — signatures and MACs must verify identically.
	fx.dev.transport = &HTTP{BaseURL: ts.URL, Client: ts.Client(), Binary: true}
	cert, err := webserver.FetchCertificate(ts.Client(), ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	fx.touchOwner(t)
	if err := fx.dev.Register(fx.now, "bin-acct", "pw"); err != nil {
		t.Fatalf("binary register: %v", err)
	}
	fx.touchOwner(t)
	if err := fx.dev.Login(fx.now, cert, "bin-acct"); err != nil {
		t.Fatalf("binary login: %v", err)
	}
	fx.touchOwner(t)
	if err := fx.dev.Browse(fx.now, "view-statement"); err != nil {
		t.Fatalf("binary browse: %v", err)
	}
	if report := fx.server.RunAudit(); report.Tampered != 0 {
		t.Fatalf("binary-transport honest session flagged: %d of %d", report.Tampered, report.Checked)
	}
}

func TestBrowseWithoutSession(t *testing.T) {
	fx := newFixture(t, nil)
	if err := fx.dev.Browse(0, "home"); err == nil {
		t.Fatal("browse without session succeeded")
	}
}

func TestLoginPinsServerKey(t *testing.T) {
	fx := newFixture(t, nil)
	fx.touchOwner(t)
	if err := fx.dev.Register(fx.now, "acct", "pw"); err != nil {
		t.Fatal(err)
	}
	// Present a different (but CA-signed) server certificate at login:
	// pinning must reject it.
	otherSrv, err := webserver.New("www.xyz.com", fx.ca, 1234)
	if err != nil {
		t.Fatal(err)
	}
	fx.touchOwner(t)
	if err := fx.dev.Login(fx.now, otherSrv.Certificate(), "acct"); err == nil {
		t.Fatal("key-swapped certificate accepted at login")
	}
}
