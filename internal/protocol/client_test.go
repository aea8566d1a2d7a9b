package protocol_test

import (
	"encoding/hex"
	"errors"
	"testing"
	"time"

	"trust/internal/fingerprint"
	"trust/internal/flock"
	"trust/internal/frame"
	"trust/internal/pki"
	"trust/internal/protocol"
	"trust/internal/testbed"
	"trust/internal/webserver"
)

type fixture struct {
	ca     *pki.CA
	server *webserver.Server
	module *flock.Module
	client *protocol.Client
	finger *fingerprint.Finger
	now    time.Duration
}

func newFixture(t *testing.T) *fixture {
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
	return &fixture{ca: ca, server: srv, module: mod, client: protocol.NewClient(mod), finger: f}
}

func (fx *fixture) verify(t *testing.T) {
	t.Helper()
	at, err := testbed.TapUntilVerified(fx.module, fx.finger, fx.now)
	if err != nil {
		t.Fatal(err)
	}
	fx.now = at + testbed.TapInterval
}

func TestHandleRegistrationPageNilInputs(t *testing.T) {
	fx := newFixture(t)
	if _, err := fx.client.HandleRegistrationPage(0, nil, "a"); err == nil {
		t.Fatal("nil page accepted")
	}
	if _, err := fx.client.HandleRegistrationPage(0, &protocol.RegistrationPage{}, "a"); err == nil {
		t.Fatal("empty page accepted")
	}
}

func TestHandleRegistrationPageRejectsSubjectMismatch(t *testing.T) {
	fx := newFixture(t)
	fx.verify(t)
	page := fx.server.ServeRegistrationPage(fx.now)
	fx.client.DisplayPage(page.Page, frame.View{Zoom: 1})
	// Certificate for another domain but CA-signed: a lure.
	other, err := webserver.New("www.evil.com", fx.ca, 8)
	if err != nil {
		t.Fatal(err)
	}
	lure := *page
	lure.ServerCert = other.Certificate()
	if _, err := fx.client.HandleRegistrationPage(fx.now, &lure, "a"); err == nil {
		t.Fatal("cert/domain mismatch accepted")
	}
}

func TestHandleRegistrationPageNeedsDisplayedFrame(t *testing.T) {
	fx := newFixture(t)
	fx.verify(t)
	page := fx.server.ServeRegistrationPage(fx.now)
	// No DisplayPage call: the repeater has nothing to attest.
	if _, err := fx.client.HandleRegistrationPage(fx.now, page, "a"); err == nil {
		t.Fatal("registration without a displayed frame accepted")
	}
}

func TestHandleLoginPageWithoutRecord(t *testing.T) {
	fx := newFixture(t)
	fx.verify(t)
	lp := fx.server.ServeLoginPage(fx.now)
	fx.client.DisplayPage(lp.Page, frame.View{Zoom: 1})
	// No registration happened: the module holds no record for the
	// domain, so the login page signature cannot even be checked.
	if _, _, err := fx.client.HandleLoginPage(fx.now, lp, fx.server.Certificate(), "a", 12); err == nil {
		t.Fatal("login without registration accepted")
	}
}

func TestHandleLoginPageTamperedSignature(t *testing.T) {
	fx := newFixture(t)
	fx.verify(t)
	regPage := fx.server.ServeRegistrationPage(fx.now)
	fx.client.DisplayPage(regPage.Page, frame.View{Zoom: 1})
	sub, err := fx.client.HandleRegistrationPage(fx.now, regPage, "acct")
	if err != nil {
		t.Fatal(err)
	}
	if res := fx.server.HandleRegistration(fx.now, sub, "pw"); !res.OK {
		t.Fatalf("registration failed: %s", res.Reason)
	}

	lp := fx.server.ServeLoginPage(fx.now)
	lp.Signature[0] ^= 1
	fx.client.DisplayPage(lp.Page, frame.View{Zoom: 1})
	if _, _, err := fx.client.HandleLoginPage(fx.now, lp, fx.server.Certificate(), "acct", 12); err == nil {
		t.Fatal("tampered login page accepted")
	}
}

func TestBuildPageRequestWithoutSession(t *testing.T) {
	fx := newFixture(t)
	if _, err := fx.client.BuildPageRequest(0, nil, "home", 12); err == nil {
		t.Fatal("nil session accepted")
	}
	if _, err := fx.client.BuildPageRequest(0, &protocol.Session{}, "home", 12); err == nil {
		t.Fatal("unestablished session accepted")
	}
}

func TestAcceptContentPageValidation(t *testing.T) {
	fx := newFixture(t)
	sess := &protocol.Session{Domain: "www.xyz.com", Account: "a", ID: "s1", Key: make([]byte, 32)}
	if err := fx.client.AcceptContentPage(sess, nil); err == nil {
		t.Fatal("nil content page accepted")
	}
	wrongDomain := &protocol.ContentPage{Domain: "other", Account: "a", SessionID: "s1", Page: &frame.Page{URL: "u"}}
	if err := fx.client.AcceptContentPage(sess, wrongDomain); err == nil {
		t.Fatal("cross-domain content page accepted")
	}
	wrongMAC := &protocol.ContentPage{Domain: "www.xyz.com", Account: "a", SessionID: "s1", Page: &frame.Page{URL: "u"}, MAC: []byte("bad")}
	if err := fx.client.AcceptContentPage(sess, wrongMAC); err == nil {
		t.Fatal("bad-MAC content page accepted")
	}
}

func TestFullProtocolFlowInPackage(t *testing.T) {
	fx := newFixture(t)

	// Registration.
	fx.verify(t)
	regPage := fx.server.ServeRegistrationPage(fx.now)
	fx.client.DisplayPage(regPage.Page, frame.View{Zoom: 1})
	sub, err := fx.client.HandleRegistrationPage(fx.now, regPage, "flow-acct")
	if err != nil {
		t.Fatal(err)
	}
	if res := fx.server.HandleRegistration(fx.now, sub, "pw"); !res.OK {
		t.Fatalf("registration: %s", res.Reason)
	}

	// Login.
	fx.verify(t)
	lp := fx.server.ServeLoginPage(fx.now)
	fx.client.DisplayPage(lp.Page, frame.View{Zoom: 1})
	loginSub, sess, err := fx.client.HandleLoginPage(fx.now, lp, fx.server.Certificate(), "flow-acct", 12)
	if err != nil {
		t.Fatal(err)
	}
	if loginSub.RiskWindow == 0 || len(loginSub.SessionKeyCT) == 0 {
		t.Fatalf("login submit incomplete: %+v", loginSub)
	}
	cp, err := fx.server.HandleLogin(fx.now, loginSub)
	if err != nil {
		t.Fatal(err)
	}
	if err := fx.client.AcceptContentPage(sess, cp); err != nil {
		t.Fatal(err)
	}
	if sess.ID == "" || sess.LastNonce != cp.Nonce {
		t.Fatalf("session not rolled forward: %+v", sess)
	}

	// Continuous request.
	fx.client.DisplayPage(cp.Page, frame.View{Zoom: 1})
	fx.verify(t)
	req, err := fx.client.BuildPageRequest(fx.now, sess, "view-statement", 12)
	if err != nil {
		t.Fatal(err)
	}
	cp2, err := fx.server.HandlePageRequest(fx.now, req)
	if err != nil {
		t.Fatal(err)
	}
	if err := fx.client.AcceptContentPage(sess, cp2); err != nil {
		t.Fatal(err)
	}
	if sess.LastNonce != cp2.Nonce {
		t.Fatal("nonce not rotated")
	}
}

func TestAcceptContentPageSessionIDPinned(t *testing.T) {
	fx := newFixture(t)
	sess := &protocol.Session{Domain: "www.xyz.com", Account: "a", ID: "s1", Key: make([]byte, 32)}
	cp := &protocol.ContentPage{Domain: "www.xyz.com", Account: "a", SessionID: "s2", Nonce: "n", Page: &frame.Page{URL: "u"}}
	cp.MAC = pki.NewMACer(sess.Key).MAC(cp.MACBytes())
	if err := fx.client.AcceptContentPage(sess, cp); err == nil {
		t.Fatal("session-id switch accepted")
	}
}

// TestResumeKeyGolden pins the resumed session key for a fixed ticket
// key and session id, so a change to the rekey derivation (label,
// input order, HMAC reuse) cannot slip past as self-consistent.
func TestResumeKeyGolden(t *testing.T) {
	key := make([]byte, pki.SessionKeySize)
	for i := range key {
		key[i] = byte(i)
	}
	const sid = "00112233445566778899aabb"
	const want = "4963af2ea0405d5db97327cf5576b4dd81be081171ad3ae01df132d525024e9e"
	if got := hex.EncodeToString(protocol.ResumeKey(key, sid)); got != want {
		t.Fatalf("ResumeKey = %s, want %s", got, want)
	}
	// The form the resume path uses: an HMAC state that has already
	// MAC'd a submission under the key must derive the same bytes.
	mc := pki.NewMACer(key)
	mc.MAC([]byte("resume submission"))
	if got := hex.EncodeToString(protocol.ResumeKeyFrom(mc, sid)); got != want {
		t.Fatalf("ResumeKeyFrom = %s, want %s", got, want)
	}
}

// TestServerCertCheckedOncePerCertificate pins the login's
// once-per-certificate CA check: after a login with the genuine server
// certificate, a certificate carrying the pinned signing key but an
// attacker's KEM key, with the genuine signature (which no longer
// covers its bytes) or a flipped one, is refused with ErrServerCert,
// and the genuine certificate is still accepted afterwards.
func TestServerCertCheckedOncePerCertificate(t *testing.T) {
	fx := newFixture(t)
	fx.verify(t)
	regPage := fx.server.ServeRegistrationPage(fx.now)
	fx.client.DisplayPage(regPage.Page, frame.View{Zoom: 1})
	sub, err := fx.client.HandleRegistrationPage(fx.now, regPage, "acct")
	if err != nil {
		t.Fatal(err)
	}
	if res := fx.server.HandleRegistration(fx.now, sub, "pw"); !res.OK {
		t.Fatalf("registration: %s", res.Reason)
	}
	login := func(cert *pki.Certificate) error {
		t.Helper()
		fx.verify(t)
		lp := fx.server.ServeLoginPage(fx.now)
		fx.client.DisplayPage(lp.Page, frame.View{Zoom: 1})
		_, _, err := fx.client.HandleLoginPage(fx.now, lp, cert, "acct", 12)
		return err
	}
	genuine := fx.server.Certificate()
	if err := login(genuine); err != nil {
		t.Fatalf("genuine certificate: %v", err)
	}
	attacker, err := pki.GenerateKemPair(pki.NewDeterministicRand(99))
	if err != nil {
		t.Fatal(err)
	}
	forged := genuine.Clone()
	forged.KemKey = attacker.Public.Bytes()
	flipped := forged.Clone()
	flipped.Signature[0] ^= 1
	for name, cert := range map[string]*pki.Certificate{"genuine signature": forged, "flipped signature": flipped} {
		if err := login(cert); !errors.Is(err, protocol.ErrServerCert) {
			t.Fatalf("%s over another KEM key: err %v, want ErrServerCert", name, err)
		}
	}
	if err := login(genuine); err != nil {
		t.Fatalf("genuine certificate after the forgeries: %v", err)
	}
}
