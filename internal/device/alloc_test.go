package device

import (
	"net/http/httptest"
	"testing"
)

// TestStreamBrowseAllocBudget pins the streamed continuous-auth round
// trip — Browse over a live stream, the device's exchange and the
// server's read loop included — after warm-up (interned fields cached,
// scratch buffers grown, batch slots recycled). What is left is what
// the round trip keeps:
//   - device, the request: the PageRequest and its tag, which a
//     Malware.MutateRequest hook may hold (2);
//   - device, the response: the decoded ContentPage, its Page and
//     Elements, its nonce and its tag, which the session and d.current
//     keep (5);
//   - server: the request's nonce string and the response's chain
//     nonce, which the session keeps as its last nonce (2).
//
// That is 9; the budget allows 12. The server half alone is pinned by
// webserver.TestServeStreamAllocBudget.
func TestStreamBrowseAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector intentionally defeats sync.Pool reuse")
	}
	fx, tr := newStreamFixture(t, nil)
	fx.registerAndLogin(t)
	if !tr.Streaming() {
		t.Fatal("transport not streaming after login")
	}
	browse := func() {
		if err := fx.dev.Browse(fx.now, "view-statement"); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 50; i++ {
		browse()
	}
	if allocs := testing.AllocsPerRun(500, browse); allocs > 12 {
		t.Fatalf("stream browse costs %.2f allocs, budget 12", allocs)
	}
}

// BenchmarkStreamBrowse is one single-request Browse over a live
// stream, the device's exchange and the server's read loop included:
// the component row for the streamed request/response round trip that
// TestStreamBrowseAllocBudget pins.
func BenchmarkStreamBrowse(b *testing.B) {
	fx, tr := newStreamFixture(b, nil)
	fx.registerAndLogin(b)
	if !tr.Streaming() {
		b.Fatal("transport not streaming after login")
	}
	for i := 0; i < 50; i++ {
		if err := fx.dev.Browse(fx.now, "view-statement"); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := fx.dev.Browse(fx.now, "view-statement"); err != nil {
			b.Fatal(err)
		}
	}
}

// newHTTPSessionRig serves fx's server over loopback HTTP with the
// binary codec and logs the device in through it. The returned func
// stops the server.
func newHTTPSessionRig(t testing.TB) (*fixture, func()) {
	fx := newFixture(t, nil)
	ts := httptest.NewServer(fx.server.Handler())
	fx.dev.transport = &HTTP{BaseURL: ts.URL, Client: ts.Client(), Binary: true}
	fx.registerAndLogin(t)
	fx.touchOwner(t)
	return fx, ts.Close
}

// httpLogin returns one cold Fig 10 login over the rig (login page GET,
// signed and MAC'd submission POST) or, with resume, one ticket resume.
func httpLogin(t testing.TB, fx *fixture, resume bool) func() {
	cert := fx.server.Certificate()
	if resume {
		return func() {
			if err := fx.dev.LoginResume(fx.now, cert, "acct"); err != nil {
				t.Fatal(err)
			}
		}
	}
	return func() {
		if err := fx.dev.Login(fx.now, cert, "acct"); err != nil {
			t.Fatal(err)
		}
	}
}

// TestHTTPResumeAllocBudget pins one ticket resume over the binary
// HTTP transport against a loopback server, both ends counted: the
// device's MAC'd submission and rekeyed acceptance, the server's ticket
// open, MAC check and fresh ticket, and net/http's request and
// response plumbing on each side. Measured 111: 140 before the device
// decoded through its own intern table, built its requests from pooled
// parts and a parsed route URL and sent Accept-Encoding: identity with
// no User-Agent, the server pooled its body and response buffers, and
// tickets bound their AAD without allocating (175 before the MACer
// saved its keyed states and the HTTP front stopped re-parsing the
// query and media type). The budget is that plus 10%.
func TestHTTPResumeAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector intentionally defeats sync.Pool reuse")
	}
	fx, stop := newHTTPSessionRig(t)
	defer stop()
	resume := httpLogin(t, fx, true)
	for i := 0; i < 20; i++ {
		resume()
	}
	if allocs := testing.AllocsPerRun(200, resume); allocs > 122 {
		t.Fatalf("HTTP resume costs %.2f allocs, budget 122", allocs)
	}
}

// TestHTTPLoginAllocBudget pins one cold Fig 10 login over the binary
// HTTP transport, both ends counted: the login page's GET and the
// signed, KEM-keyed submission's POST. Measured 206 (253 before the
// changes listed at TestHTTPResumeAllocBudget); the budget is that plus
// 10%.
func TestHTTPLoginAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector intentionally defeats sync.Pool reuse")
	}
	fx, stop := newHTTPSessionRig(t)
	defer stop()
	login := httpLogin(t, fx, false)
	for i := 0; i < 20; i++ {
		login()
	}
	if allocs := testing.AllocsPerRun(100, login); allocs > 226 {
		t.Fatalf("HTTP login costs %.2f allocs, budget 226", allocs)
	}
}

// BenchmarkHTTPResume and BenchmarkHTTPLogin are the component rows
// for login-churn's two operations, the rigs the alloc budgets above
// pin.
func BenchmarkHTTPResume(b *testing.B) { benchmarkHTTPLogin(b, true) }

func BenchmarkHTTPLogin(b *testing.B) { benchmarkHTTPLogin(b, false) }

func benchmarkHTTPLogin(b *testing.B, resume bool) {
	fx, stop := newHTTPSessionRig(b)
	defer stop()
	op := httpLogin(b, fx, resume)
	for i := 0; i < 20; i++ {
		op()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
}
