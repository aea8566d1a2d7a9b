package device

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"sync"
	"testing"
	"time"

	"trust/internal/frame"
	"trust/internal/protocol"
	"trust/internal/sim"
	"trust/internal/webserver"
)

// Wire-level robustness for the HTTP transport: typed error round
// trips, media-type parsing, and the response-size cap.

func TestHTTPTypedErrorRoundTrip(t *testing.T) {
	fx := newFixture(t, nil)
	ts := httptest.NewServer(fx.server.Handler())
	defer ts.Close()
	tr := &HTTP{BaseURL: ts.URL, Client: ts.Client()}

	_, err := tr.SubmitLogin(0, &protocol.LoginSubmit{Domain: "www.xyz.com", Account: "ghost"})
	if !errors.Is(err, webserver.ErrUnknownAccount) {
		t.Fatalf("forged login error = %v, want ErrUnknownAccount", err)
	}
	_, err = tr.SubmitPageRequest(0, &protocol.PageRequest{Domain: "www.xyz.com", Account: "g", SessionID: "nope"})
	if !errors.Is(err, webserver.ErrUnknownSession) {
		t.Fatalf("forged page request error = %v, want ErrUnknownSession", err)
	}
	_, err = tr.SubmitResync(0, &protocol.ResyncRequest{Domain: "www.xyz.com", Account: "g", SessionID: "nope"})
	if !errors.Is(err, webserver.ErrUnknownSession) {
		t.Fatalf("forged resync error = %v, want ErrUnknownSession", err)
	}
	if Retryable(err) {
		t.Fatal("typed server verdict classified as retryable")
	}
}

func TestHTTPNetworkErrorsRetryable(t *testing.T) {
	tr := &HTTP{BaseURL: "http://127.0.0.1:1", Client: http.DefaultClient}
	if _, err := tr.FetchLoginPage(0); !Retryable(err) {
		t.Fatalf("socket failure on GET not retryable: %v", err)
	}
	if _, err := tr.SubmitLogin(0, &protocol.LoginSubmit{}); !Retryable(err) {
		t.Fatalf("socket failure on POST not retryable: %v", err)
	}
}

// TestHTTPParameterizedBinaryContentType is the regression test for
// the exact-match Content-Type bug: a parameterized media type must
// still route to the binary decoder.
func TestHTTPParameterizedBinaryContentType(t *testing.T) {
	page := &frame.Page{URL: "login", Title: "Login", Body: "touch to log in"}
	data, err := protocol.EncodeBinary(&protocol.LoginPage{Domain: "www.xyz.com", Nonce: "n", Page: page, Signature: []byte{1}})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/octet-stream; v=1")
		w.Write(data)
	}))
	defer ts.Close()
	tr := &HTTP{BaseURL: ts.URL, Client: ts.Client(), Binary: true}
	got, err := tr.FetchLoginPage(0)
	if err != nil {
		t.Fatalf("parameterized binary content type misrouted: %v", err)
	}
	if got.Domain != "www.xyz.com" || got.Page == nil {
		t.Fatalf("binary page decoded wrong: %+v", got)
	}
}

func TestHTTPOversizedResponseRejected(t *testing.T) {
	big := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Write(bytes.Repeat([]byte{'x'}, webserver.MaxResponseBytes+1))
	}))
	defer big.Close()
	tr := &HTTP{BaseURL: big.URL, Client: big.Client()}
	if _, err := tr.FetchLoginPage(0); !errors.Is(err, webserver.ErrResponseTooLarge) {
		t.Fatalf("oversized JSON body error = %v, want ErrResponseTooLarge", err)
	}

	bigBin := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Write(bytes.Repeat([]byte{1}, webserver.MaxResponseBytes+1))
	}))
	defer bigBin.Close()
	tb := &HTTP{BaseURL: bigBin.URL, Client: bigBin.Client(), Binary: true}
	if _, err := tb.FetchLoginPage(0); !errors.Is(err, webserver.ErrResponseTooLarge) {
		t.Fatalf("oversized binary body error = %v, want ErrResponseTooLarge", err)
	}
}

// TestHTTPResponseExactlyAtCap: a body of exactly the cap is legal —
// the limit is a ceiling, not an off-by-one trap.
func TestHTTPResponseExactlyAtCap(t *testing.T) {
	page := &protocol.LoginPage{Domain: "www.xyz.com", Nonce: "n", Page: &frame.Page{URL: "u"}}
	base, err := json.Marshal(page)
	if err != nil {
		t.Fatal(err)
	}
	// Pad the page body so the marshalled JSON is exactly the cap: the
	// empty Body field is already present in base, and each padding
	// byte marshals to exactly one byte.
	pad := webserver.MaxResponseBytes - len(base)
	page.Page.Body = string(bytes.Repeat([]byte{'y'}, pad))
	body, err := json.Marshal(page)
	if err != nil {
		t.Fatal(err)
	}
	if len(body) != webserver.MaxResponseBytes {
		t.Fatalf("test construction off: body is %d bytes, want %d", len(body), webserver.MaxResponseBytes)
	}
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Write(body)
	}))
	defer ts.Close()
	tr := &HTTP{BaseURL: ts.URL, Client: ts.Client()}
	got, err := tr.FetchLoginPage(0)
	if err != nil {
		t.Fatalf("at-cap body rejected: %v", err)
	}
	if got.Domain != "www.xyz.com" {
		t.Fatalf("at-cap body decoded wrong: %q", got.Domain)
	}
}

// TestHTTPResilientEndToEnd drives the full retry stack over real
// sockets: register and log in clean, then browse across a lossy link
// with resync recovering lost responses.
func TestHTTPResilientEndToEnd(t *testing.T) {
	fx := newFixture(t, nil)
	ts := httptest.NewServer(fx.server.Handler())
	defer ts.Close()

	ft := NewFaultyTransport(&HTTP{BaseURL: ts.URL, Client: ts.Client()}, FaultProfile{}, sim.NewRNG(11))
	fx.dev.transport = ft
	fx.dev.SetRetryPolicy(DefaultRetryPolicy(), sim.NewRNG(12))

	fx.touchOwner(t)
	if err := fx.dev.Register(fx.now, "sock-acct", "pw"); err != nil {
		t.Fatal(err)
	}
	fx.touchOwner(t)
	if err := fx.dev.Login(fx.now, fx.server.Certificate(), "sock-acct"); err != nil {
		t.Fatal(err)
	}
	if err := fx.dev.Resync(fx.now); err != nil {
		t.Fatalf("clean resync over sockets: %v", err)
	}

	ft.Profile = FaultProfile{DropRate: 0.3}
	for i := 0; i < 8; i++ {
		fx.touchOwner(t)
		now, err := fx.dev.BrowseResilient(fx.now, "view-statement")
		if err != nil {
			t.Fatalf("resilient browse %d over sockets: %v", i, err)
		}
		fx.now = now
	}
	if ft.Stats.DroppedRequests+ft.Stats.DroppedResponses == 0 {
		t.Fatal("link was never lossy; test proves nothing")
	}
	if report := fx.server.RunAudit(); report.Tampered != 0 {
		t.Fatalf("lossy honest session flagged by audit: %d of %d", report.Tampered, report.Checked)
	}
}

// roundTripFunc is an http.RoundTripper over a function.
type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }

// TestHTTPRequestMatchesNewRequest checks the transport's pooled
// requests against what http.NewRequest builds from the URL string the
// transport no longer makes: method, URL, host, protocol, length and
// body, and a GetBody that yields the body again (redirects and
// retries use it). It also pins the headers the device sends.
func TestHTTPRequestMatchesNewRequest(t *testing.T) {
	for _, binary := range []bool{false, true} {
		var saw []*http.Request
		var bodies [][]byte
		tr := &HTTP{BaseURL: "http://trust.example:8080", Binary: binary, Client: &http.Client{Transport: roundTripFunc(func(r *http.Request) (*http.Response, error) {
			var body []byte
			if r.Body != nil {
				var err error
				if body, err = io.ReadAll(r.Body); err != nil {
					t.Fatal(err)
				}
			}
			if r.GetBody != nil {
				rc, err := r.GetBody()
				if err != nil {
					t.Fatal(err)
				}
				again, _ := io.ReadAll(rc)
				if !bytes.Equal(again, body) {
					t.Fatalf("GetBody yields %q, the body was %q", again, body)
				}
			}
			saw, bodies = append(saw, r.Clone(r.Context())), append(bodies, body)
			return &http.Response{StatusCode: http.StatusTeapot, Body: http.NoBody}, nil
		})}}
		tr.FetchLoginPage(7)
		tr.SubmitPageRequest(-3, &protocol.PageRequest{Domain: "www.xyz.com", Action: "home"})
		tr.SubmitRegistration(11, &protocol.RegistrationSubmit{Domain: "www.xyz.com"}, "pw&x")
		sub := &protocol.RegistrationSubmit{Domain: "www.xyz.com"}
		page := &protocol.PageRequest{Domain: "www.xyz.com", Action: "home"}
		encode := json.Marshal
		if binary {
			encode = protocol.EncodeBinary
		}
		pageBody, _ := encode(page)
		subBody, _ := encode(sub)
		wants := []struct {
			method, url string
			body        []byte
		}{
			{http.MethodGet, "http://trust.example:8080/trust/login?now=7", nil},
			{http.MethodPost, "http://trust.example:8080/trust/page?now=-3", pageBody},
			{http.MethodPost, "http://trust.example:8080/trust/register?now=11&recovery=pw%26x", subBody},
		}
		if len(saw) != len(wants) {
			t.Fatalf("binary=%v: %d requests sent, want %d", binary, len(saw), len(wants))
		}
		for i, w := range wants {
			var rd io.Reader
			if w.body != nil {
				rd = bytes.NewReader(w.body)
			}
			want, err := http.NewRequest(w.method, w.url, rd)
			if err != nil {
				t.Fatal(err)
			}
			got := saw[i]
			if got.Method != want.Method || got.URL.String() != want.URL.String() || got.Host != want.Host ||
				got.Proto != want.Proto || got.ContentLength != want.ContentLength || !bytes.Equal(bodies[i], w.body) ||
				(got.GetBody == nil) != (want.GetBody == nil) {
				t.Errorf("binary=%v request %d: got %s %s host %q %s len %d body %q getBody %v; want %s %s host %q %s len %d body %q",
					binary, i, got.Method, got.URL, got.Host, got.Proto, got.ContentLength, bodies[i], got.GetBody != nil,
					want.Method, want.URL, want.Host, want.Proto, want.ContentLength, w.body)
			}
			h := got.Header
			if h.Get("Accept-Encoding") != "identity" || h.Get("User-Agent") != "" || len(h["User-Agent"]) != 1 {
				t.Errorf("binary=%v request %d: Accept-Encoding %q, User-Agent %q; want identity and an empty one", binary, i, h.Get("Accept-Encoding"), h["User-Agent"])
			}
			wantAccept, wantType := "", ""
			if binary {
				wantAccept = webserver.BinaryMIME
			}
			if w.method == http.MethodPost {
				wantType = "application/json"
				if binary {
					wantType = webserver.BinaryMIME
				}
			}
			if h.Get("Accept") != wantAccept || h.Get("Content-Type") != wantType {
				t.Errorf("binary=%v request %d: Accept %q, Content-Type %q; want %q, %q", binary, i, h.Get("Accept"), h.Get("Content-Type"), wantAccept, wantType)
			}
		}
	}
}

// TestHTTPTransportConcurrent drives one binary transport from several
// goroutines against a loopback server: the server's own login pages,
// and content pages whose strings differ per request (fuzzPage), so
// the goroutines keep filling and evicting the transport's one intern
// table. Every response must come back intact; the -race leg checks
// the table's and the request pool's sharing.
func TestHTTPTransportConcurrent(t *testing.T) {
	fx := newFixture(t, nil)
	mux := http.NewServeMux()
	mux.Handle("GET /trust/login", fx.server.Handler())
	mux.HandleFunc("POST /trust/page", func(w http.ResponseWriter, r *http.Request) {
		now, _ := strconv.Atoi(r.URL.Query().Get("now"))
		data, err := protocol.EncodeBinary(fuzzPage(now))
		if err != nil {
			t.Error(err)
		}
		w.Header()["Content-Type"] = webserver.BinaryHeader
		w.Write(data)
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()
	tr := &HTTP{BaseURL: ts.URL, Client: ts.Client(), Binary: true}
	want := fx.server.ServeLoginPage(0).Page
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				lp, err := tr.FetchLoginPage(0)
				if err != nil {
					t.Error(err)
					return
				}
				if lp.Domain != "www.xyz.com" || !reflect.DeepEqual(lp.Page, want) {
					t.Errorf("login page %+v, want domain www.xyz.com and page %+v", lp, want)
					return
				}
				now := 100*g + i
				cp, err := tr.SubmitPageRequest(time.Duration(now), &protocol.PageRequest{Domain: "www.xyz.com", Action: "home"})
				if err != nil {
					t.Error(err)
					return
				}
				if !reflect.DeepEqual(cp, fuzzPage(now)) {
					t.Errorf("page %d: got %+v, want %+v", now, cp, fuzzPage(now))
					return
				}
			}
		}()
	}
	wg.Wait()
}
