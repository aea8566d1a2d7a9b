package webserver

import (
	"strings"
	"testing"
	"time"

	"trust/internal/fingerprint"
	"trust/internal/flock"
	"trust/internal/frame"
	"trust/internal/pki"
	"trust/internal/protocol"
	"trust/internal/testbed"
)

// rig is a complete client+server test fixture.
type rig struct {
	ca     *pki.CA
	server *Server
	module *flock.Module
	client *protocol.Client
	finger *fingerprint.Finger
	now    time.Duration
}

func newRig(t testing.TB) *rig {
	t.Helper()
	ca, err := pki.NewCA("trust-root", pki.NewDeterministicRand(1))
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New("www.xyz.com", ca, 7)
	if err != nil {
		t.Fatal(err)
	}
	f := fingerprint.Synthesize(4242, fingerprint.Loop)
	mod, err := testbed.Module(ca, "device-1", 99, f)
	if err != nil {
		t.Fatal(err)
	}
	return &rig{ca: ca, server: srv, module: mod, client: protocol.NewClient(mod), finger: f}
}

// touchButton drives owner touches on the sensor-covered button until
// one verifies, advancing r.now.
func (r *rig) touchButton(t testing.TB) {
	t.Helper()
	at, err := testbed.TapUntilVerified(r.module, r.finger, r.now)
	if err != nil {
		t.Fatal(err)
	}
	r.now = at + testbed.TapInterval
}

// register runs the full Fig 9 flow and returns the account id.
func (r *rig) register(t testing.TB, account string) {
	t.Helper()
	regPage := r.server.ServeRegistrationPage(r.now)
	r.client.DisplayPage(regPage.Page, frame.View{Zoom: 1})
	r.touchButton(t)
	sub, err := r.client.HandleRegistrationPage(r.now, regPage, account)
	if err != nil {
		t.Fatalf("registration client: %v", err)
	}
	res := r.server.HandleRegistration(r.now, sub, "old-password-123")
	if !res.OK {
		t.Fatalf("registration rejected: %s", res.Reason)
	}
}

// login runs the full Fig 10 login and returns the live session plus
// the first content page.
func (r *rig) login(t testing.TB, account string) (*protocol.Session, *protocol.ContentPage) {
	t.Helper()
	lp := r.server.ServeLoginPage(r.now)
	r.client.DisplayPage(lp.Page, frame.View{Zoom: 1})
	r.touchButton(t)
	sub, sess, err := r.client.HandleLoginPage(r.now, lp, r.server.Certificate(), account, 12)
	if err != nil {
		t.Fatalf("login client: %v", err)
	}
	cp, err := r.server.HandleLogin(r.now, sub)
	if err != nil {
		t.Fatalf("login server: %v", err)
	}
	if err := r.client.AcceptContentPage(sess, cp); err != nil {
		t.Fatalf("content page rejected by client: %v", err)
	}
	return sess, cp
}

func TestRegistrationFlow(t *testing.T) {
	r := newRig(t)
	r.register(t, "ab12xyom")
	acct, ok := r.server.Account("ab12xyom")
	if !ok {
		t.Fatal("account not stored")
	}
	rec, err := r.module.Record("www.xyz.com")
	if err != nil {
		t.Fatal(err)
	}
	if string(acct.PublicKey) != string(rec.Keys.Public) {
		t.Fatal("server-stored key differs from module record")
	}
	if r.server.AuditLog().Len() != 1 {
		t.Fatalf("audit log has %d entries after registration", r.server.AuditLog().Len())
	}
}

func TestRegistrationRequiresTouch(t *testing.T) {
	r := newRig(t)
	regPage := r.server.ServeRegistrationPage(r.now)
	r.client.DisplayPage(regPage.Page, frame.View{Zoom: 1})
	if _, err := r.client.HandleRegistrationPage(r.now, regPage, "acct"); err != protocol.ErrNoFreshTouch {
		t.Fatalf("registration without touch: %v", err)
	}
}

func TestRegistrationRejectsTamperedPage(t *testing.T) {
	r := newRig(t)
	regPage := r.server.ServeRegistrationPage(r.now)
	r.client.DisplayPage(regPage.Page, frame.View{Zoom: 1})
	r.touchButton(t)

	tampered := *regPage
	tampered.Domain = "www.evil.com"
	if _, err := r.client.HandleRegistrationPage(r.now, &tampered, "acct"); err == nil {
		t.Fatal("tampered domain accepted")
	}
	tampered2 := *regPage
	tampered2.Nonce = "forged"
	if _, err := r.client.HandleRegistrationPage(r.now, &tampered2, "acct"); err == nil {
		t.Fatal("tampered nonce accepted")
	}
}

func TestRegistrationReplayRejected(t *testing.T) {
	r := newRig(t)
	regPage := r.server.ServeRegistrationPage(r.now)
	r.client.DisplayPage(regPage.Page, frame.View{Zoom: 1})
	r.touchButton(t)
	sub, err := r.client.HandleRegistrationPage(r.now, regPage, "acct-a")
	if err != nil {
		t.Fatal(err)
	}
	if res := r.server.HandleRegistration(r.now, sub, "pw"); !res.OK {
		t.Fatalf("first registration rejected: %s", res.Reason)
	}
	// Replaying the same submission must fail on the consumed nonce.
	if res := r.server.HandleRegistration(r.now, sub, "pw"); res.OK {
		t.Fatal("replayed registration accepted")
	}
}

func TestRegistrationRejectsForgedSubmission(t *testing.T) {
	r := newRig(t)
	regPage := r.server.ServeRegistrationPage(r.now)
	r.client.DisplayPage(regPage.Page, frame.View{Zoom: 1})
	r.touchButton(t)
	sub, err := r.client.HandleRegistrationPage(r.now, regPage, "acct")
	if err != nil {
		t.Fatal(err)
	}
	forged := *sub
	forged.Account = "other-account"
	if res := r.server.HandleRegistration(r.now, &forged, "pw"); res.OK {
		t.Fatal("account-swapped submission accepted")
	}
}

func TestLoginAndContinuousRequests(t *testing.T) {
	r := newRig(t)
	r.register(t, "ab12xyom")
	sess, cp := r.login(t, "ab12xyom")
	if cp.Page.URL != r.server.homeURL {
		t.Fatalf("login landed on %s", cp.Page.URL)
	}

	// Browse: three continuous-auth page requests.
	for i, action := range []string{"view-statement", "home", "view-statement"} {
		r.client.DisplayPage(cp.Page, frame.View{Zoom: 1})
		r.touchButton(t)
		req, err := r.client.BuildPageRequest(r.now, sess, action, 12)
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		cp, err = r.server.HandlePageRequest(r.now, req)
		if err != nil {
			t.Fatalf("request %d rejected: %v", i, err)
		}
		if err := r.client.AcceptContentPage(sess, cp); err != nil {
			t.Fatalf("request %d content: %v", i, err)
		}
	}
	if !r.server.SessionAlive(sess.ID) {
		t.Fatal("session died during honest browsing")
	}
	// Registration + login + 3 requests = 5 audit entries.
	if n := r.server.AuditLog().Len(); n != 5 {
		t.Fatalf("audit log has %d entries, want 5", n)
	}
}

func TestLoginRejectsUnknownAccount(t *testing.T) {
	r := newRig(t)
	r.register(t, "real-account")
	lp := r.server.ServeLoginPage(r.now)
	r.client.DisplayPage(lp.Page, frame.View{Zoom: 1})
	r.touchButton(t)
	// The module has no record for an unbound account's domain... but
	// the account rides the submission: forge it after the fact.
	sub, _, err := r.client.HandleLoginPage(r.now, lp, r.server.Certificate(), "real-account", 12)
	if err != nil {
		t.Fatal(err)
	}
	forged := *sub
	forged.Account = "ghost-account"
	if _, err := r.server.HandleLogin(r.now, &forged); err == nil {
		t.Fatal("unknown account logged in")
	}
}

func TestLoginNonceReplayRejected(t *testing.T) {
	r := newRig(t)
	r.register(t, "acct")
	lp := r.server.ServeLoginPage(r.now)
	r.client.DisplayPage(lp.Page, frame.View{Zoom: 1})
	r.touchButton(t)
	sub, _, err := r.client.HandleLoginPage(r.now, lp, r.server.Certificate(), "acct", 12)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.server.HandleLogin(r.now, sub); err != nil {
		t.Fatalf("first login failed: %v", err)
	}
	if _, err := r.server.HandleLogin(r.now, sub); err == nil {
		t.Fatal("replayed login accepted")
	}
}

func TestLoginRejectsRiskBelowPolicy(t *testing.T) {
	r := newRig(t)
	r.register(t, "acct")
	lp := r.server.ServeLoginPage(r.now)
	r.client.DisplayPage(lp.Page, frame.View{Zoom: 1})
	r.touchButton(t)
	sub, _, err := r.client.HandleLoginPage(r.now, lp, r.server.Certificate(), "acct", 12)
	if err != nil {
		t.Fatal(err)
	}
	// Malware cannot lower the MAC'd risk field without detection.
	forged := *sub
	forged.RiskVerified = 0
	if _, err := r.server.HandleLogin(r.now, &forged); err == nil {
		t.Fatal("risk-tampered login accepted")
	}
}

func TestPageRequestTamperDetected(t *testing.T) {
	r := newRig(t)
	r.register(t, "acct")
	sess, cp := r.login(t, "acct")
	r.client.DisplayPage(cp.Page, frame.View{Zoom: 1})
	r.touchButton(t)
	req, err := r.client.BuildPageRequest(r.now, sess, "view-statement", 12)
	if err != nil {
		t.Fatal(err)
	}
	// Malware rewrites the action to a money transfer: MAC breaks.
	forged := *req
	forged.Action = "confirm-transfer"
	if _, err := r.server.HandlePageRequest(r.now, &forged); err == nil {
		t.Fatal("action-tampered request accepted")
	}
	// Original still valid afterwards (rejections must not burn nonce).
	if _, err := r.server.HandlePageRequest(r.now, req); err != nil {
		t.Fatalf("honest request rejected after tamper attempt: %v", err)
	}
}

func TestPageRequestReplayRejected(t *testing.T) {
	r := newRig(t)
	r.register(t, "acct")
	sess, cp := r.login(t, "acct")
	r.client.DisplayPage(cp.Page, frame.View{Zoom: 1})
	r.touchButton(t)
	req, err := r.client.BuildPageRequest(r.now, sess, "view-statement", 12)
	if err != nil {
		t.Fatal(err)
	}
	cp2, err := r.server.HandlePageRequest(r.now, req)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.client.AcceptContentPage(sess, cp2); err != nil {
		t.Fatal(err)
	}
	// Replay of the earlier request: nonce already rotated.
	if _, err := r.server.HandlePageRequest(r.now, req); err == nil {
		t.Fatal("replayed page request accepted")
	}
}

func TestImpostorSessionRevoked(t *testing.T) {
	r := newRig(t)
	r.register(t, "acct")
	sess, cp := r.login(t, "acct")

	// Device stolen mid-session: impostor touches produce zero
	// verifications. Shortly after the theft the module is still
	// touch-authorized (the owner verified seconds ago), but the risk
	// factor the module reports is 0-of-12, so the SERVER rejects and
	// revokes the session — the paper's continuous-auth guarantee.
	impostor := fingerprint.Synthesize(31337, fingerprint.Whorl)
	for i := 0; i < 15; i++ {
		r.module.HandleTouch(testbed.Tap(r.now), impostor)
		r.now += testbed.TapInterval
	}
	r.client.DisplayPage(cp.Page, frame.View{Zoom: 1})
	req, err := r.client.BuildPageRequest(r.now, sess, "confirm-transfer", 12)
	if err != nil {
		t.Fatalf("building impostor request: %v", err)
	}
	if req.RiskVerified != 0 {
		t.Fatalf("impostor window reports %d verified", req.RiskVerified)
	}
	if _, err := r.server.HandlePageRequest(r.now, req); err == nil {
		t.Fatal("server accepted a 0-of-12 risk report")
	}
	if r.server.SessionAlive(sess.ID) {
		t.Fatal("session not revoked after risk failure")
	}

	// Once the freshness window also expires, the module itself
	// refuses to sign anything.
	r.now += time.Minute
	if _, err := r.client.BuildPageRequest(r.now, sess, "confirm-transfer", 12); err != protocol.ErrNoFreshTouch {
		t.Fatalf("stale-module request error = %v, want ErrNoFreshTouch", err)
	}
}

func TestFrameAuditCatchesTamperedDisplay(t *testing.T) {
	r := newRig(t)
	r.register(t, "acct")
	sess, cp := r.login(t, "acct")

	// Malware shows the user a doctored page (different label) while
	// requesting a transfer. The FLock repeater hashes what was really
	// displayed; the audit flags it.
	evil := cp.Page.Clone()
	evil.Elements[len(evil.Elements)-1].Label = "Cancel"
	r.client.DisplayPage(evil, frame.View{Zoom: 1})
	r.touchButton(t)
	req, err := r.client.BuildPageRequest(r.now, sess, "confirm-transfer", 12)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.server.HandlePageRequest(r.now, req); err != nil {
		t.Fatalf("request rejected online (audit is offline): %v", err)
	}
	report := r.server.RunAudit()
	if report.Tampered == 0 {
		t.Fatal("audit missed the tampered frame")
	}
}

func TestHonestSessionPassesAudit(t *testing.T) {
	r := newRig(t)
	r.register(t, "acct")
	sess, cp := r.login(t, "acct")
	for _, action := range []string{"view-statement", "home"} {
		r.client.DisplayPage(cp.Page, frame.View{Zoom: 1})
		r.touchButton(t)
		req, err := r.client.BuildPageRequest(r.now, sess, action, 12)
		if err != nil {
			t.Fatal(err)
		}
		cp, err = r.server.HandlePageRequest(r.now, req)
		if err != nil {
			t.Fatal(err)
		}
		r.client.AcceptContentPage(sess, cp)
	}
	report := r.server.RunAudit()
	if report.Tampered != 0 {
		for _, f := range report.Findings {
			if !f.OK {
				t.Logf("flagged: %s %s", f.Entry.PageURL, f.Entry.Hash.Short())
			}
		}
		t.Fatalf("honest session flagged: %d of %d", report.Tampered, report.Checked)
	}
}

func TestZoomedViewsPassAudit(t *testing.T) {
	// The paper: "displayed view of a web page can only belong to a
	// finite set of all the possible views" — a user who zooms and
	// scrolls still audits clean, because the hash matches SOME
	// standard view.
	r := newRig(t)
	r.register(t, "acct")
	sess, cp := r.login(t, "acct")
	views := []frame.View{
		{Zoom: 1.5, ScrollY: 0},
		{Zoom: 2.0, ScrollY: 200},
		{Zoom: 1.0, ScrollY: 0},
	}
	for i, v := range views {
		r.client.DisplayPage(cp.Page, v)
		r.touchButton(t)
		req, err := r.client.BuildPageRequest(r.now, sess, "home", 12)
		if err != nil {
			t.Fatalf("view %d: %v", i, err)
		}
		cp, err = r.server.HandlePageRequest(r.now, req)
		if err != nil {
			t.Fatalf("view %d rejected: %v", i, err)
		}
		if err := r.client.AcceptContentPage(sess, cp); err != nil {
			t.Fatal(err)
		}
	}
	report := r.server.RunAudit()
	if report.Tampered != 0 {
		t.Fatalf("zoomed honest views flagged: %d of %d", report.Tampered, report.Checked)
	}
	// A NON-standard view (free-form zoom) is indistinguishable from
	// tampering and must be flagged — the model's stated limitation.
	r.client.DisplayPage(cp.Page, frame.View{Zoom: 1.37, ScrollY: 123})
	r.touchButton(t)
	req, err := r.client.BuildPageRequest(r.now, sess, "home", 12)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.server.HandlePageRequest(r.now, req); err != nil {
		t.Fatal(err)
	}
	if report := r.server.RunAudit(); report.Tampered != 1 {
		t.Fatalf("non-standard view not flagged (%d tampered)", report.Tampered)
	}
}

func TestIdentityReset(t *testing.T) {
	r := newRig(t)
	r.register(t, "acct")
	sess, _ := r.login(t, "acct")

	if err := r.server.ResetIdentity(r.now, "acct", "wrong"); err == nil {
		t.Fatal("reset with wrong password accepted")
	}
	if err := r.server.ResetIdentity(r.now, "acct", "old-password-123"); err != nil {
		t.Fatalf("reset failed: %v", err)
	}
	if _, ok := r.server.Account("acct"); ok {
		t.Fatal("binding survived reset")
	}
	if r.server.SessionAlive(sess.ID) {
		t.Fatal("session survived reset")
	}
	// Re-registration from a (new) device must now succeed.
	r.register(t, "acct")
	if _, ok := r.server.Account("acct"); !ok {
		t.Fatal("re-registration failed after reset")
	}
}

func TestClientRejectsTamperedContentPage(t *testing.T) {
	r := newRig(t)
	r.register(t, "acct")
	sess, cp := r.login(t, "acct")
	evil := *cp
	evil.Page = cp.Page.Clone()
	evil.Page.Body = "Send your password to [email protected]"
	if err := r.client.AcceptContentPage(sess, &evil); err == nil {
		t.Fatal("tampered content page accepted by client")
	}
}

func TestRiskPolicyShapes(t *testing.T) {
	p := DefaultRiskPolicy()
	cases := []struct {
		verified, window int
		want             bool
	}{
		{6, 12, true},
		{2, 12, true},
		{1, 12, false},
		{0, 12, false},
		{0, 0, false},
		{1, 3, true}, // short window: proportional requirement
		{0, 3, false},
	}
	for _, c := range cases {
		if got := p.ok(c.verified, c.window); got != c.want {
			t.Errorf("policy(%d/%d) = %v, want %v", c.verified, c.window, got, c.want)
		}
	}
}

func TestCertificateSubjectMatchesDomain(t *testing.T) {
	r := newRig(t)
	cert := r.server.Certificate()
	if cert.Subject != "www.xyz.com" || !strings.Contains(string(cert.Role), "server") {
		t.Fatalf("certificate %q role %q", cert.Subject, cert.Role)
	}
}
