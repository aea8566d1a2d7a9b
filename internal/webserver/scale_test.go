package webserver

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"trust/internal/fingerprint"
	"trust/internal/flock"
	"trust/internal/frame"
	"trust/internal/pki"
	"trust/internal/protocol"
	"trust/internal/testbed"
)

func TestLoginRateLimiting(t *testing.T) {
	r := newRig(t)
	r.register(t, "victim")

	// An attacker hammers the login endpoint with forged submissions.
	lp := r.server.ServeLoginPage(r.now)
	r.client.DisplayPage(lp.Page, frame.View{Zoom: 1})
	r.touchButton(t)
	sub, _, err := r.client.HandleLoginPage(r.now, lp, r.server.Certificate(), "victim", 12)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < r.server.MaxLoginFailures+3; i++ {
		forged := *sub
		forged.Signature = append([]byte(nil), sub.Signature...)
		forged.Signature[0] ^= byte(i + 1)
		_, err := r.server.HandleLogin(r.now, &forged)
		if i >= r.server.MaxLoginFailures {
			if !errors.Is(err, ErrRateLimited) {
				t.Fatalf("attempt %d: err = %v, want rate limited", i, err)
			}
		} else if err == nil {
			t.Fatalf("forged login %d accepted", i)
		}
	}
	// The legitimate user is locked out too until reset — the fail-safe
	// trade-off; reset with the recovery password clears it.
	if _, err := r.server.HandleLogin(r.now, sub); !errors.Is(err, ErrRateLimited) {
		t.Fatalf("post-lockout login err = %v", err)
	}
	if err := r.server.ResetIdentity(r.now, "victim", "old-password-123"); err != nil {
		t.Fatal(err)
	}
	r.register(t, "victim")
	if _, cp := r.login(t, "victim"); cp == nil {
		t.Fatal("login after reset failed")
	}
}

// TestPageRequestNeedsVerifiedTouch is the paper's CAPTCHA replacement
// ("the use of real finger touches prove that the user is human") on
// the page-request path: an accepted request passed the session-key MAC
// and the risk policy, and a policy with MinVerified >= 1 refuses a
// report of zero verified touches even when its MAC is honest.
func TestPageRequestNeedsVerifiedTouch(t *testing.T) {
	for _, policy := range []RiskPolicy{DefaultRiskPolicy(), {Window: 12, MinVerified: 1}} {
		r := newRig(t)
		r.server.SetRiskPolicy(policy)
		r.register(t, "acct")
		sess, cp := r.login(t, "acct")
		r.client.DisplayPage(cp.Page, frame.View{Zoom: 1})
		r.touchButton(t)
		req, err := r.client.BuildPageRequest(r.now, sess, "home", 12)
		if err != nil {
			t.Fatal(err)
		}
		accepted := r.server.accepted.Load()
		// A bot forging the risk field breaks the MAC.
		forged := *req
		forged.RiskVerified = 12
		if _, err := r.server.HandlePageRequest(r.now, &forged); !errors.Is(err, ErrBadMAC) {
			t.Fatalf("policy %+v: risk-forged request: %v, want ErrBadMAC", policy, err)
		}
		// A zero-verification report is not proof of humanity, even
		// sealed with the session key.
		zero := *req
		zero.RiskVerified = 0
		zero.MAC = pki.NewMACer(sess.Key).MAC(zero.MACBytes())
		if _, err := r.server.HandlePageRequest(r.now, &zero); !errors.Is(err, ErrRiskPolicy) {
			t.Fatalf("policy %+v: verification-free request: %v, want ErrRiskPolicy", policy, err)
		}
		if got := r.server.accepted.Load(); got != accepted {
			t.Fatalf("policy %+v: accepted went %d -> %d on refused requests", policy, accepted, got)
		}
	}
}

func TestManyDevicesIsolatedSessions(t *testing.T) {
	// 20 devices register and log in against one server; each session
	// must stay isolated (one device's key cannot touch another's
	// account, nonces never collide).
	ca, err := pki.NewCA("trust-root", pki.NewDeterministicRand(2))
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New("big.example", ca, 3)
	if err != nil {
		t.Fatal(err)
	}

	type client struct {
		c    *protocol.Client
		m    *flock.Module
		f    *fingerprint.Finger
		sess *protocol.Session
	}
	const devices = 20
	clients := make([]*client, devices)
	now := time.Duration(0)

	for i := 0; i < devices; i++ {
		f := fingerprint.Synthesize(uint64(5000+i*13), fingerprint.PatternType(i%3))
		mod, err := testbed.Module(ca, fmt.Sprintf("dev-%d", i), uint64(1000+i), f)
		if err != nil {
			t.Fatal(err)
		}
		cl := &client{c: protocol.NewClient(mod), m: mod, f: f}
		clients[i] = cl

		at, err := testbed.TapUntilVerified(mod, f, now)
		if err != nil {
			t.Fatalf("device %d: %v", i, err)
		}
		now = at + testbed.TapInterval

		// Register.
		page := srv.ServeRegistrationPage(now)
		cl.c.DisplayPage(page.Page, frame.View{Zoom: 1})
		sub, err := cl.c.HandleRegistrationPage(now, page, fmt.Sprintf("acct-%d", i))
		if err != nil {
			t.Fatalf("device %d registration: %v", i, err)
		}
		if res := srv.HandleRegistration(now, sub, "pw"); !res.OK {
			t.Fatalf("device %d registration rejected: %s", i, res.Reason)
		}

		// Login.
		lp := srv.ServeLoginPage(now)
		cl.c.DisplayPage(lp.Page, frame.View{Zoom: 1})
		lsub, sess, err := cl.c.HandleLoginPage(now, lp, srv.Certificate(), fmt.Sprintf("acct-%d", i), 12)
		if err != nil {
			t.Fatalf("device %d login: %v", i, err)
		}
		cp, err := srv.HandleLogin(now, lsub)
		if err != nil {
			t.Fatalf("device %d login rejected: %v", i, err)
		}
		if err := cl.c.AcceptContentPage(sess, cp); err != nil {
			t.Fatal(err)
		}
		cl.sess = sess
	}

	// Cross-session isolation: device 0's session key cannot MAC a
	// request for device 1's account.
	forged := &protocol.PageRequest{
		Domain:       "big.example",
		Account:      "acct-1",
		SessionID:    clients[1].sess.ID,
		Nonce:        clients[1].sess.LastNonce,
		Action:       "home",
		RiskVerified: 12, RiskWindow: 12,
	}
	forged.MAC = pki.NewMACer(clients[0].sess.Key).MAC(forged.MACBytes())
	if _, err := srv.HandlePageRequest(now, forged); err == nil {
		t.Fatal("cross-session MAC accepted")
	}

	// All sessions still alive and distinct.
	seen := map[string]bool{}
	for i, cl := range clients {
		if !srv.SessionAlive(cl.sess.ID) {
			t.Fatalf("device %d session dead", i)
		}
		if seen[cl.sess.ID] {
			t.Fatalf("duplicate session id %s", cl.sess.ID)
		}
		seen[cl.sess.ID] = true
	}
}
