package device

import (
	"runtime"
	"testing"
	"time"

	"trust/internal/protocol"
	"trust/internal/sim"
)

// countingTransport wraps a Transport and counts the login-path calls,
// so tests can assert which path (ticket resume vs full cold login) a
// flow actually took.
type countingTransport struct {
	Transport
	logins  int
	resumes int
}

func (t *countingTransport) SubmitLogin(now time.Duration, sub *protocol.LoginSubmit) (*protocol.ContentPage, error) {
	t.logins++
	return t.Transport.SubmitLogin(now, sub)
}

func (t *countingTransport) SubmitResume(now time.Duration, sub *protocol.ResumeSubmit) (*protocol.ContentPage, error) {
	t.resumes++
	return t.Transport.SubmitResume(now, sub)
}

func (t *countingTransport) BindSession(sess *protocol.Session) {
	if b, ok := t.Transport.(sessionBinder); ok {
		b.BindSession(sess)
	}
}

// countFixture builds the standard in-memory fixture with the counting
// wrapper interposed.
func countFixture(t *testing.T) (*fixture, *countingTransport) {
	t.Helper()
	fx := newFixture(t, nil)
	ct := &countingTransport{Transport: fx.dev.transport}
	fx.dev.transport = ct
	return fx, ct
}

func TestLoginResumeSkipsColdPath(t *testing.T) {
	fx, ct := countFixture(t)
	fx.registerAndLogin(t)
	if len(fx.dev.ticket) == 0 {
		t.Fatal("no ticket cached after full login")
	}
	old := fx.dev.Session().ID

	fx.touchOwner(t)
	if err := fx.dev.LoginResume(fx.now, fx.server.Certificate(), "acct"); err != nil {
		t.Fatalf("resume login: %v", err)
	}
	if ct.resumes != 1 || ct.logins != 1 {
		t.Fatalf("resumes=%d logins=%d, want 1 resume and only the initial full login", ct.resumes, ct.logins)
	}
	if fx.dev.Session().ID == old {
		t.Fatal("resume did not establish a fresh session")
	}
	if len(fx.dev.ticket) == 0 {
		t.Fatal("resume response did not refresh the ticket cache")
	}

	// The resumed session browses normally and audits clean.
	fx.touchOwner(t)
	if err := fx.dev.Browse(fx.now, "view-statement"); err != nil {
		t.Fatalf("browse on resumed session: %v", err)
	}
	if report := fx.server.RunAudit(); report.Tampered != 0 {
		t.Fatalf("resumed session flagged by audit: %d of %d", report.Tampered, report.Checked)
	}
}

func TestLoginResumeChainsAcrossSessions(t *testing.T) {
	fx, ct := countFixture(t)
	fx.registerAndLogin(t)
	// Each resume's response carries a fresh ticket sealing the NEW key,
	// so resumes chain indefinitely within the epoch window.
	for i := 0; i < 3; i++ {
		fx.touchOwner(t)
		if err := fx.dev.LoginResume(fx.now, fx.server.Certificate(), "acct"); err != nil {
			t.Fatalf("resume %d: %v", i, err)
		}
	}
	if ct.resumes != 3 || ct.logins != 1 {
		t.Fatalf("resumes=%d logins=%d, want 3 chained resumes over one cold login", ct.resumes, ct.logins)
	}
}

func TestLoginResumeWithoutTicketRunsFullLogin(t *testing.T) {
	fx, ct := countFixture(t)
	fx.touchOwner(t)
	if err := fx.dev.Register(fx.now, "acct", "recovery-pw"); err != nil {
		t.Fatal(err)
	}
	fx.touchOwner(t)
	if err := fx.dev.LoginResume(fx.now, fx.server.Certificate(), "acct"); err != nil {
		t.Fatalf("ticketless resume-first login: %v", err)
	}
	if ct.resumes != 0 || ct.logins != 1 {
		t.Fatalf("resumes=%d logins=%d, want the cold path straight away", ct.resumes, ct.logins)
	}
	if len(fx.dev.ticket) == 0 {
		t.Fatal("cold login did not prime the ticket cache")
	}
}

func TestLoginResumeEpochExpiryFallsBack(t *testing.T) {
	fx, ct := countFixture(t)
	fx.registerAndLogin(t)

	// Let the ticket's epoch window lapse (period 5m, window 1): the
	// server rejects the ticket and the device must converge through the
	// cold path without surfacing an error.
	fx.now += 15 * time.Minute
	fx.touchOwner(t)
	if err := fx.dev.LoginResume(fx.now, fx.server.Certificate(), "acct"); err != nil {
		t.Fatalf("resume-first login after epoch expiry: %v", err)
	}
	if ct.resumes != 1 || ct.logins != 2 {
		t.Fatalf("resumes=%d logins=%d, want 1 rejected resume then a full login", ct.resumes, ct.logins)
	}
	if len(fx.dev.ticket) == 0 {
		t.Fatal("fallback login did not re-prime the ticket cache")
	}
	// The re-primed ticket is live: the next resume takes the fast path.
	fx.touchOwner(t)
	if err := fx.dev.LoginResume(fx.now, fx.server.Certificate(), "acct"); err != nil {
		t.Fatalf("resume after fallback: %v", err)
	}
	if ct.resumes != 2 || ct.logins != 2 {
		t.Fatalf("resumes=%d logins=%d after re-resume", ct.resumes, ct.logins)
	}
}

func TestLoginResumeResilientUnderFaults(t *testing.T) {
	fx, ct := countFixture(t)
	fx.registerAndLogin(t)
	fx.dev.SetRetryPolicy(RetryPolicy{MaxAttempts: 8, BaseDelay: 10 * time.Millisecond, MaxDelay: 100 * time.Millisecond}, sim.NewRNG(5))

	// Lossy network: drops hit the resume and the fallback alike. The
	// resilient flow must still converge to a session; a resume response
	// lost in transit burns the ticket server-side, which the device
	// handles by dropping its copy and going cold.
	ft := NewFaultyTransport(ct, FaultProfile{DropRate: 0.4}, sim.NewRNG(42))
	fx.dev.transport = ft

	fx.touchOwner(t)
	now, err := fx.dev.LoginResumeResilient(fx.now, fx.server.Certificate(), "acct")
	if err != nil {
		t.Fatalf("resilient resume login under 40%% loss: %v", err)
	}
	fx.now = now
	if fx.dev.Session() == nil {
		t.Fatal("no session after resilient login")
	}
	if ct.resumes+ct.logins < 2 {
		t.Fatalf("resumes=%d logins=%d, expected the faulty run to exercise both paths", ct.resumes, ct.logins)
	}
	// Browsing works on whatever session the lossy run established.
	fx.touchOwner(t)
	if _, err := fx.dev.BrowseResilient(fx.now, "view-statement"); err != nil {
		t.Fatalf("browse after lossy login: %v", err)
	}
}

func TestStreamResumeAdoptsConnection(t *testing.T) {
	fx, tr := newStreamFixture(t, nil)
	fx.registerAndLogin(t)
	if !tr.Streaming() {
		t.Fatal("not streaming after login")
	}

	// Resume-first re-login over the stream transport: the resume frame
	// handshake replaces the hello, and the connection it opened is
	// adopted for the new session instead of being redialed.
	fx.touchOwner(t)
	if err := fx.dev.LoginResume(fx.now, fx.server.Certificate(), "acct"); err != nil {
		t.Fatalf("stream resume login: %v", err)
	}
	if !tr.Streaming() {
		t.Fatal("stream not live after resume")
	}
	if st := tr.Stats(); st.Dials != 2 || st.Downgrades != 0 {
		t.Fatalf("stream stats %+v, want exactly one resume dial beyond the login dial", st)
	}
	// The replaced login stream unregisters when its server read loop
	// observes the closed pipe — asynchronous, so yield until it lands.
	for i := 0; i < 100000 && fx.server.StreamCount() != 1; i++ {
		runtime.Gosched()
	}
	if n := fx.server.StreamCount(); n != 1 {
		t.Fatalf("server tracks %d streams, want 1 (login stream replaced)", n)
	}

	// The adopted connection's nonce chain lines up for streamed
	// browsing from position 0.
	accepted := fx.server.AcceptedRequests()
	for _, action := range []string{"view-statement", "home"} {
		fx.touchOwner(t)
		if err := fx.dev.Browse(fx.now, action); err != nil {
			t.Fatalf("streamed browse %s after resume: %v", action, err)
		}
	}
	if got := fx.server.AcceptedRequests() - accepted; got != 2 {
		t.Fatalf("server accepted %d streamed requests after resume, want 2", got)
	}
	if report := fx.server.RunAudit(); report.Tampered != 0 {
		t.Fatalf("stream resume session flagged by audit: %d of %d", report.Tampered, report.Checked)
	}
}

func TestStreamResumeEpochExpiryFallsBackToHello(t *testing.T) {
	fx, tr := newStreamFixture(t, nil)
	fx.registerAndLogin(t)

	fx.now += 15 * time.Minute
	fx.touchOwner(t)
	// The streamed resume is rejected by ack; the device falls back to
	// the full login, which re-establishes the stream via hello.
	if err := fx.dev.LoginResume(fx.now, fx.server.Certificate(), "acct"); err != nil {
		t.Fatalf("stream resume-first login after expiry: %v", err)
	}
	if !tr.Streaming() {
		t.Fatal("stream not re-established after fallback")
	}
	fx.touchOwner(t)
	if err := fx.dev.Browse(fx.now, "home"); err != nil {
		t.Fatalf("browse after stream fallback: %v", err)
	}
}
