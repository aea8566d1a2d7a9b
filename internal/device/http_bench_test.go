package device

import (
	"net/http/httptest"
	"testing"
	"time"

	"trust/internal/fingerprint"
	"trust/internal/frame"
	"trust/internal/pki"
	"trust/internal/protocol"
	"trust/internal/testbed"
	"trust/internal/webserver"
)

// benchWire isolates the HTTP transport hot path: a live session over
// a real loopback server, driven directly by the protocol client so
// the benchmark measures the wire (marshal, socket, decode) and not
// the touch pipeline. Guards the request/response-buffer pooling in
// http.go — the streamed transport exists precisely because this path
// was the per-touch tax, so regressions here matter even as fallback.
type benchWire struct {
	srv    *webserver.Server
	client *protocol.Client
	sess   *protocol.Session
	tr     *HTTP
	now    time.Duration
	close  func()
}

func newBenchWire(b *testing.B, binary bool) *benchWire {
	b.Helper()
	ca, err := pki.NewCA("trust-root", pki.NewDeterministicRand(1))
	if err != nil {
		b.Fatal(err)
	}
	srv, err := webserver.New("www.xyz.com", ca, 7)
	if err != nil {
		b.Fatal(err)
	}
	f := fingerprint.Synthesize(4242, fingerprint.Loop)
	mod, err := testbed.Module(ca, "device-1", 99, f)
	if err != nil {
		b.Fatal(err)
	}
	w := &benchWire{srv: srv, client: protocol.NewClient(mod)}
	touchOwner := func() {
		at, err := testbed.TapUntilVerified(mod, f, w.now)
		if err != nil {
			b.Fatal(err)
		}
		w.now = at + testbed.TapInterval
	}

	regPage := srv.ServeRegistrationPage(w.now)
	w.client.DisplayPage(regPage.Page, frame.View{Zoom: 1})
	touchOwner()
	sub, err := w.client.HandleRegistrationPage(w.now, regPage, "bench-acct")
	if err != nil {
		b.Fatal(err)
	}
	if res := srv.HandleRegistration(w.now, sub, "old-password-123"); !res.OK {
		b.Fatalf("registration rejected: %s", res.Reason)
	}
	lp := srv.ServeLoginPage(w.now)
	w.client.DisplayPage(lp.Page, frame.View{Zoom: 1})
	touchOwner()
	lsub, sess, err := w.client.HandleLoginPage(w.now, lp, srv.Certificate(), "bench-acct", 12)
	if err != nil {
		b.Fatal(err)
	}
	cp, err := srv.HandleLogin(w.now, lsub)
	if err != nil {
		b.Fatal(err)
	}
	if err := w.client.AcceptContentPage(sess, cp); err != nil {
		b.Fatal(err)
	}
	w.sess = sess

	ts := httptest.NewServer(srv.Handler())
	w.tr = &HTTP{BaseURL: ts.URL, Client: ts.Client(), Binary: binary}
	w.close = ts.Close
	return w
}

func benchmarkHTTPPageRequest(b *testing.B, binary bool) {
	w := newBenchWire(b, binary)
	defer w.close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req, err := w.client.BuildPageRequest(w.now, w.sess, "home", 12)
		if err != nil {
			b.Fatal(err)
		}
		cp, err := w.tr.SubmitPageRequest(w.now, req)
		if err != nil {
			b.Fatal(err)
		}
		if err := w.client.AcceptContentPage(w.sess, cp); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHTTPPageRequestBinary is the alloc guard for the pooled
// request/response buffers: run with -benchmem and compare allocs/op
// against docs/server-scaling.md.
func BenchmarkHTTPPageRequestBinary(b *testing.B) { benchmarkHTTPPageRequest(b, true) }

func BenchmarkHTTPPageRequestJSON(b *testing.B) { benchmarkHTTPPageRequest(b, false) }
