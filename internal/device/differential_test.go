package device

import (
	"errors"
	"io"
	"net"
	"net/http/httptest"
	"reflect"
	"testing"

	"trust/internal/frame"
	"trust/internal/protocol"
	"trust/internal/webserver"
)

// transportOutcome is what one run of the differential script leaves
// on the server: the audit trail, with each entry's verdict, and the
// counters every transport must move identically.
type transportOutcome struct {
	audit                    []frame.AuditFinding
	accepted, rejected       int64
	loginsFull, loginsResume int64
}

// TestTransportsAgree is the differential test over the four device
// transports — direct calls, HTTP with either codec, and the framed
// stream — which each carry the same protocol. One seeded device
// script runs on each: register, full login, three browses, a resync,
// a ticket resume, a resume with a corrupted ticket (refused, then the
// full-login fallback), and a page request whose MAC was flipped in
// transit. Every transport must leave the same audit entries and move
// the accepted, rejected and login counters by the same amounts. Every
// leg resumes through HandleResume, the server's one resume front: the
// stream leg's resume rides its Fallback, and a hello then binds the
// stream to the resumed session.
func TestTransportsAgree(t *testing.T) {
	legs := []struct {
		name string
		make func(srv *webserver.Server) (Transport, func())
	}{
		{"direct", func(srv *webserver.Server) (Transport, func()) {
			return &InMemory{Server: srv}, func() {}
		}},
		{"http-binary", func(srv *webserver.Server) (Transport, func()) {
			ts := httptest.NewServer(srv.Handler())
			return &HTTP{BaseURL: ts.URL, Client: ts.Client(), Binary: true}, ts.Close
		}},
		{"http-json", func(srv *webserver.Server) (Transport, func()) {
			ts := httptest.NewServer(srv.Handler())
			return &HTTP{BaseURL: ts.URL, Client: ts.Client()}, ts.Close
		}},
		{"stream", func(srv *webserver.Server) (Transport, func()) {
			tr := &Stream{
				Dial: func() (io.ReadWriteCloser, error) {
					c1, c2 := net.Pipe()
					go srv.ServeStream(c2)
					return c1, nil
				},
				Fallback: &InMemory{Server: srv},
			}
			return tr, func() { tr.Close() }
		}},
	}
	var want *transportOutcome
	for _, leg := range legs {
		fx := newFixture(t, nil)
		tr, stop := leg.make(fx.server)
		fx.dev.transport = tr
		got := runTransportScript(t, fx)
		stop()
		// Three stream connections, each opened by a hello: after the
		// full login, after the resume, and after the fallback login
		// that follows the refused resume.
		if st, ok := tr.(*Stream); ok && (st.Stats().Dials != 3 || st.Stats().Downgrades != 0) {
			t.Fatalf("stream leg did not stay on the stream: %+v", st.Stats())
		}
		if want == nil {
			want = got
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s disagrees with direct:\n got %+v\nwant %+v", leg.name, got, want)
		}
	}
	if len(want.audit) != 7 || want.rejected != 2 || want.loginsFull != 2 || want.loginsResume != 1 {
		t.Fatalf("script did not run as designed: %+v", want)
	}
}

// runTransportScript drives the differential script on fx's device and
// reports what it left on the server.
func runTransportScript(t *testing.T, fx *fixture) *transportOutcome {
	t.Helper()
	counters := func() []int64 {
		return []int64{
			serverMetric(t, fx.server, "accepted"), serverMetric(t, fx.server, "rejected"),
			serverMetric(t, fx.server, "logins_full"), serverMetric(t, fx.server, "logins_resume"),
		}
	}
	before := counters()
	fx.registerAndLogin(t)
	for _, action := range []string{"view-statement", "home", "view-statement"} {
		fx.touchOwner(t)
		if err := fx.dev.Browse(fx.now, action); err != nil {
			t.Fatalf("browse %s: %v", action, err)
		}
	}
	if err := fx.dev.Resync(fx.now); err != nil {
		t.Fatalf("resync: %v", err)
	}
	fx.touchOwner(t)
	if err := fx.dev.LoginResume(fx.now, fx.server.Certificate(), "acct"); err != nil {
		t.Fatalf("resume: %v", err)
	}
	fx.dev.ticket[len(fx.dev.ticket)-1] ^= 1
	fx.touchOwner(t)
	if err := fx.dev.LoginResume(fx.now, fx.server.Certificate(), "acct"); err != nil {
		t.Fatalf("resume fallback: %v", err)
	}
	if fx.dev.tel.resumeFallbacks.Load() != 1 {
		t.Fatal("corrupted ticket was not refused")
	}
	fx.dev.Malware = &Malware{MutateRequest: func(req *protocol.PageRequest) { req.MAC[0] ^= 1 }}
	fx.touchOwner(t)
	if err := fx.dev.Browse(fx.now, "home"); !errors.Is(err, webserver.ErrBadMAC) {
		t.Fatalf("MAC-flipped request: %v, want ErrBadMAC", err)
	}
	fx.dev.Malware = nil
	after := counters()
	return &transportOutcome{
		audit:        fx.server.RunAudit().Findings,
		accepted:     after[0] - before[0],
		rejected:     after[1] - before[1],
		loginsFull:   after[2] - before[2],
		loginsResume: after[3] - before[3],
	}
}
