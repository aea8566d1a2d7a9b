package device

import (
	"strings"
	"testing"

	"trust/internal/fingerprint"
	"trust/internal/pki"
	"trust/internal/store"
	"trust/internal/testbed"
	"trust/internal/webserver"
)

// durableFixture is newFixture over a WAL-backed server so the account
// store survives a restart while every in-memory table (sessions,
// resumption-ticket nonces, page registry) is lost with the process.
func durableFixture(t *testing.T, fsys store.FS) *fixture {
	t.Helper()
	ca, err := pki.NewCA("trust-root", pki.NewDeterministicRand(1))
	if err != nil {
		t.Fatal(err)
	}
	wal, err := store.OpenWAL(fsys, store.WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := webserver.NewDurable("www.xyz.com", ca, 7, wal)
	if err != nil {
		t.Fatal(err)
	}
	f := fingerprint.Synthesize(4242, fingerprint.Loop)
	mod, err := testbed.Module(ca, "device-1", 99, f)
	if err != nil {
		t.Fatal(err)
	}
	dev := New("phone", mod, &InMemory{Server: srv})
	return &fixture{ca: ca, server: srv, dev: dev, finger: f}
}

// TestServerRestartResumeFallsBackToFullLogin: a server restart strands
// every in-memory session and resumption ticket but keeps the durable
// accounts. The device's resume-first login must shed its now-useless
// ticket, converge through the full cold login against the recovered
// account, and never create a duplicate enrollment.
func TestServerRestartResumeFallsBackToFullLogin(t *testing.T) {
	fsys := store.NewMemFS()
	fx := durableFixture(t, fsys)
	ct := &countingTransport{Transport: fx.dev.transport}
	fx.dev.transport = ct

	fx.registerAndLogin(t)
	if len(fx.dev.ticket) == 0 {
		t.Fatal("no ticket cached after full login")
	}

	// Hard restart: drop the server (and with it sessions, tickets,
	// nonces), reopen the same log, bring up a fresh instance. Close
	// flushes and closes the WAL through the backend.
	if err := fx.server.Close(); err != nil {
		t.Fatalf("close durable server: %v", err)
	}
	wal2, err := store.OpenWAL(fsys, store.WALOptions{})
	if err != nil {
		t.Fatalf("reopen WAL: %v", err)
	}
	srv2, err := webserver.NewDurable("www.xyz.com", fx.ca, 7, wal2)
	if err != nil {
		t.Fatalf("restart server: %v", err)
	}
	defer srv2.Close()
	fx.server = srv2
	ct.Transport = &InMemory{Server: srv2}

	// Resume-first login: the cached ticket is stranded (the restarted
	// server has never issued it), so the attempt must fall back to the
	// full login against the recovered account — no error surfaces.
	fx.touchOwner(t)
	now, err := fx.dev.LoginResumeResilient(fx.now, srv2.Certificate(), "acct")
	if err != nil {
		t.Fatalf("resume-first login after restart: %v", err)
	}
	fx.now = now
	if fx.dev.Session() == nil {
		t.Fatal("no session after post-restart login")
	}
	if ct.logins != 2 {
		t.Fatalf("logins=%d, want the pre-restart cold login plus exactly one fallback", ct.logins)
	}
	if len(fx.dev.ticket) == 0 {
		t.Fatal("fallback login did not re-prime the ticket cache")
	}

	// The re-primed ticket is live against the new instance.
	fx.touchOwner(t)
	if err := fx.dev.LoginResume(fx.now, srv2.Certificate(), "acct"); err != nil {
		t.Fatalf("resume against restarted server: %v", err)
	}

	// No duplicate account: the log still holds exactly one enrollment
	// for "acct", and re-registering it is rejected by the recovered
	// store rather than silently double-enrolled.
	recs, _, err := store.ReadLog(fsys)
	if err != nil {
		t.Fatal(err)
	}
	enrolls := 0
	for _, rec := range recs {
		if rec.Kind == store.KindEnroll && rec.Account == "acct" {
			enrolls++
		}
	}
	if enrolls != 1 {
		t.Fatalf("%d enroll records for acct after restart+relogin, want 1", enrolls)
	}
	fx.touchOwner(t)
	if err := fx.dev.Register(fx.now, "acct", "recovery-pw"); err == nil {
		t.Fatal("re-registering the recovered account succeeded")
	} else if !strings.Contains(err.Error(), "registration rejected") {
		t.Fatalf("re-register failed oddly: %v", err)
	}
}
