package webserver

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"trust/internal/frame"
	"trust/internal/pki"
	"trust/internal/protocol"
)

// buildResume builds a resume submission against the rig's module
// state (fresh verified touch, displayed frame) for the given ticket
// and the key it seals.
func (r *rig) buildResume(t testing.TB, account string, ticket, key []byte) (*protocol.ResumeSubmit, *protocol.Session) {
	t.Helper()
	lp := r.server.ServeLoginPage(r.now)
	r.client.DisplayPage(lp.Page, frame.View{Zoom: 1})
	r.touchButton(t)
	sub, sess, err := r.client.BuildResumeSubmit(r.now, "www.xyz.com", account, ticket, key, 12)
	if err != nil {
		t.Fatalf("building resume: %v", err)
	}
	return sub, sess
}

func TestLoginIssuesTicket(t *testing.T) {
	r := newRig(t)
	r.register(t, "acct")
	_, cp := r.login(t, "acct")
	if len(cp.Ticket) == 0 {
		t.Fatal("login response carries no resumption ticket")
	}
}

func TestResumeEstablishesWorkingSession(t *testing.T) {
	r := newRig(t)
	r.register(t, "acct")
	sess1, cp1 := r.login(t, "acct")

	sub, sess2 := r.buildResume(t, "acct", cp1.Ticket, sess1.Key)
	cp2, err := r.server.HandleResume(r.now, sub)
	if err != nil {
		t.Fatalf("resume rejected: %v", err)
	}
	if err := r.client.AcceptResumePage(sess2, cp2); err != nil {
		t.Fatalf("resume page rejected by client: %v", err)
	}
	if sess2.ID == sess1.ID {
		t.Fatal("resume reused the old session id")
	}
	if string(sess2.Key) == string(sess1.Key) {
		t.Fatal("resumed session key equals the ticket's sealed key (no rekey)")
	}
	if len(cp2.Ticket) == 0 {
		t.Fatal("resume response carries no replacement ticket")
	}

	// The resumed session must work for ordinary continuous-auth
	// browsing.
	r.client.DisplayPage(cp2.Page, frame.View{Zoom: 1})
	r.touchButton(t)
	req, err := r.client.BuildPageRequest(r.now, sess2, "view-statement", 12)
	if err != nil {
		t.Fatal(err)
	}
	cp3, err := r.server.HandlePageRequest(r.now, req)
	if err != nil {
		t.Fatalf("page request on resumed session rejected: %v", err)
	}
	if err := r.client.AcceptContentPage(sess2, cp3); err != nil {
		t.Fatal(err)
	}

	// An honest login + resume + browse history audits clean.
	if report := r.server.RunAudit(); report.Tampered != 0 {
		t.Fatalf("honest resume flagged by audit: %d of %d", report.Tampered, report.Checked)
	}
}

func TestResumeReplayRejected(t *testing.T) {
	r := newRig(t)
	r.register(t, "acct")
	sess1, cp1 := r.login(t, "acct")

	sub, _ := r.buildResume(t, "acct", cp1.Ticket, sess1.Key)
	if _, err := r.server.HandleResume(r.now, sub); err != nil {
		t.Fatalf("first resume rejected: %v", err)
	}
	// Verbatim replay: the ticket's single-use nonce is spent.
	if _, err := r.server.HandleResume(r.now, sub); !errors.Is(err, ErrBadTicket) {
		t.Fatalf("replayed resume: %v, want ErrBadTicket", err)
	}
	// A fresh submission over the same ticket fails identically.
	sub2, _ := r.buildResume(t, "acct", cp1.Ticket, sess1.Key)
	if _, err := r.server.HandleResume(r.now, sub2); !errors.Is(err, ErrBadTicket) {
		t.Fatalf("re-presented ticket: %v, want ErrBadTicket", err)
	}
}

func TestResumeExactlyOnceUnderConcurrency(t *testing.T) {
	r := newRig(t)
	r.register(t, "acct")
	sess1, cp1 := r.login(t, "acct")
	sub, _ := r.buildResume(t, "acct", cp1.Ticket, sess1.Key)

	const presenters = 16
	var wins atomic32
	var wg sync.WaitGroup
	for i := 0; i < presenters; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := r.server.HandleResume(r.now, sub); err == nil {
				wins.add(1)
			} else if !errors.Is(err, ErrBadTicket) {
				t.Errorf("losing presenter got %v, want ErrBadTicket", err)
			}
		}()
	}
	wg.Wait()
	if got := wins.load(); got != 1 {
		t.Fatalf("%d of %d concurrent presentations of one ticket succeeded, want exactly 1", got, presenters)
	}
}

// TestResumeAcrossEpochBoundaryUnderConcurrency resumes 16 accounts at
// once, half just before a ticket-epoch boundary and half just after,
// so the epoch AEAD table advances while callers on both sides of it
// (the earlier ones now lagging the table) seal and open tickets. Every
// ticket is inside every caller's window, so every resume must succeed
// and every device must derive the server's resumed key.
func TestResumeAcrossEpochBoundaryUnderConcurrency(t *testing.T) {
	const presenters = 16
	r := newRig(t)
	subs := make([]*protocol.ResumeSubmit, presenters)
	pending := make([]*protocol.Session, presenters)
	for i := range subs {
		account := fmt.Sprintf("acct-%02d", i)
		r.register(t, account)
		sess, cp := r.login(t, account)
		subs[i], pending[i] = r.buildResume(t, account, cp.Ticket, sess.Key)
	}
	boundary := pki.DefaultTicketPeriod
	if r.now >= boundary {
		t.Fatalf("setup ran to %v, past the first epoch boundary %v", r.now, boundary)
	}
	pages := make([]*protocol.ContentPage, presenters)
	var wg sync.WaitGroup
	for i := range subs {
		now := boundary + time.Duration(i/2+1)*time.Millisecond
		if i%2 == 0 {
			now = boundary - time.Duration(i/2+1)*time.Millisecond
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			cp, err := r.server.HandleResume(now, subs[i])
			if err != nil {
				t.Errorf("resume %d at %v: %v", i, now, err)
				return
			}
			pages[i] = cp
		}()
	}
	wg.Wait()
	for i, cp := range pages {
		if cp == nil {
			continue
		}
		if err := r.client.AcceptResumePage(pending[i], cp); err != nil {
			t.Errorf("resume %d: device rejected the resumed page: %v", i, err)
		}
	}
}

// atomic32 is a tiny local counter (sync/atomic's Int32 spelled out to
// keep the test dependency-light).
type atomic32 struct {
	mu sync.Mutex
	n  int
}

func (a *atomic32) add(d int) { a.mu.Lock(); a.n += d; a.mu.Unlock() }
func (a *atomic32) load() int { a.mu.Lock(); defer a.mu.Unlock(); return a.n }

func TestResumeEpochExpiry(t *testing.T) {
	r := newRig(t)
	r.register(t, "acct")
	sess1, cp1 := r.login(t, "acct")
	issued := r.now

	// Within the acceptance window (period 5m, window 1: up to two
	// epochs) the ticket opens.
	r.now = issued + 4*time.Minute
	sub, _ := r.buildResume(t, "acct", cp1.Ticket, sess1.Key)
	if _, err := r.server.HandleResume(r.now, sub); err != nil {
		t.Fatalf("resume at +4m rejected: %v", err)
	}

	// Far past the window the epoch key is gone.
	sess2, cp2 := r.login(t, "acct")
	r.now += 11 * time.Minute
	sub2, _ := r.buildResume(t, "acct", cp2.Ticket, sess2.Key)
	if _, err := r.server.HandleResume(r.now, sub2); !errors.Is(err, ErrBadTicket) {
		t.Fatalf("resume past epoch window: %v, want ErrBadTicket", err)
	}
}

func TestResumeInvalidatedByIdentityReset(t *testing.T) {
	r := newRig(t)
	r.register(t, "acct")
	sess1, cp1 := r.login(t, "acct")

	if err := r.server.ResetIdentity(r.now, "acct", "old-password-123"); err != nil {
		t.Fatalf("reset failed: %v", err)
	}
	// Binding gone: the ticket's account no longer exists.
	sub, _ := r.buildResume(t, "acct", cp1.Ticket, sess1.Key)
	if _, err := r.server.HandleResume(r.now, sub); !errors.Is(err, ErrUnknownAccount) {
		t.Fatalf("resume after reset: %v, want ErrUnknownAccount", err)
	}

	// Re-registered binding carries a new generation: the old ticket
	// must still fail, even though the account id matches again.
	r.register(t, "acct")
	sub2, _ := r.buildResume(t, "acct", cp1.Ticket, sess1.Key)
	if _, err := r.server.HandleResume(r.now, sub2); !errors.Is(err, ErrBadTicket) {
		t.Fatalf("pre-reset ticket after re-register: %v, want ErrBadTicket", err)
	}
}

func TestResumeTamperRejected(t *testing.T) {
	r := newRig(t)
	r.register(t, "acct")
	sess1, cp1 := r.login(t, "acct")

	// Flipped ticket byte: AEAD open fails.
	evilTicket := append([]byte(nil), cp1.Ticket...)
	evilTicket[len(evilTicket)/2] ^= 1
	sub, _ := r.buildResume(t, "acct", evilTicket, sess1.Key)
	if _, err := r.server.HandleResume(r.now, sub); !errors.Is(err, ErrBadTicket) {
		t.Fatalf("tampered ticket: %v, want ErrBadTicket", err)
	}

	// Flipped MAC byte: the presenter cannot prove key possession. The
	// ticket itself survives (the MAC check runs before the nonce is
	// burned), so the honest retry afterwards succeeds.
	sub2, _ := r.buildResume(t, "acct", cp1.Ticket, sess1.Key)
	evil := *sub2
	evil.MAC = append([]byte(nil), sub2.MAC...)
	evil.MAC[0] ^= 1
	if _, err := r.server.HandleResume(r.now, &evil); !errors.Is(err, ErrBadMAC) {
		t.Fatalf("MAC-flipped resume: %v, want ErrBadMAC", err)
	}
	if _, err := r.server.HandleResume(r.now, sub2); err != nil {
		t.Fatalf("honest resume after tamper attempt rejected: %v", err)
	}
}

func TestResumeRiskPolicyEnforcedBeforeBurn(t *testing.T) {
	r := newRig(t)
	r.register(t, "acct")
	sess1, cp1 := r.login(t, "acct")

	// Tighten the policy beyond what any module history can satisfy
	// (need scales with the reported window, and verified can never
	// exceed it): the resume must fail on ErrRiskPolicy, and — because
	// the risk check precedes the nonce burn — the ticket must survive
	// for a compliant retry.
	r.server.SetRiskPolicy(RiskPolicy{Window: 1, MinVerified: 1000})
	sub, _ := r.buildResume(t, "acct", cp1.Ticket, sess1.Key)
	if _, err := r.server.HandleResume(r.now, sub); !errors.Is(err, ErrRiskPolicy) {
		t.Fatalf("resume under impossible policy: %v, want ErrRiskPolicy", err)
	}
	r.server.SetRiskPolicy(DefaultRiskPolicy())
	sub2, _ := r.buildResume(t, "acct", cp1.Ticket, sess1.Key)
	if _, err := r.server.HandleResume(r.now, sub2); err != nil {
		t.Fatalf("resume after policy restored: %v", err)
	}
}

func TestResumeWrongAccountRejected(t *testing.T) {
	r := newRig(t)
	r.register(t, "acct")
	sess1, cp1 := r.login(t, "acct")

	sub, _ := r.buildResume(t, "acct", cp1.Ticket, sess1.Key)
	forged := *sub
	forged.Account = "other"
	// Account swap breaks the MAC binding before the ticket/account
	// comparison can even matter (the MAC covers the account field),
	// except when the forger also re-MACs — then the sealed account
	// mismatch catches it. Either way: rejected.
	if _, err := r.server.HandleResume(r.now, &forged); err == nil {
		t.Fatal("account-swapped resume accepted")
	}
}
