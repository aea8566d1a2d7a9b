package device

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"

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
