package webserver

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"strings"
	"testing"

	"trust/internal/frame"
	"trust/internal/ftdc"
	"trust/internal/pki"
	"trust/internal/protocol"
)

func httpRig(t *testing.T) (*rig, *httptest.Server) {
	t.Helper()
	r := newRig(t)
	ts := httptest.NewServer(r.server.Handler())
	t.Cleanup(ts.Close)
	return r, ts
}

func TestHTTPCertEndpoint(t *testing.T) {
	r, ts := httpRig(t)
	cert, err := FetchCertificate(ts.Client(), ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	if err := cert.Verify(r.ca.PublicKey(), pki.RoleServer); err != nil {
		t.Fatalf("fetched certificate invalid: %v", err)
	}
}

func TestHTTPFetchCertificateBadURL(t *testing.T) {
	if _, err := FetchCertificate(http.DefaultClient, "http://127.0.0.1:1"); err == nil {
		t.Fatal("unreachable server returned a certificate")
	}
}

func TestHTTPFetchCertificateOversizedBody(t *testing.T) {
	big := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Write(bytes.Repeat([]byte{' '}, MaxResponseBytes+1))
	}))
	defer big.Close()
	if _, err := FetchCertificate(big.Client(), big.URL); !errors.Is(err, ErrResponseTooLarge) {
		t.Fatalf("oversized certificate body: err %v, want ErrResponseTooLarge", err)
	}
}

func TestHTTPRegistrationPageEndpoint(t *testing.T) {
	_, ts := httpRig(t)
	resp, err := ts.Client().Get(ts.URL + "/trust/register?now=5")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var page protocol.RegistrationPage
	if err := json.NewDecoder(resp.Body).Decode(&page); err != nil {
		t.Fatal(err)
	}
	if page.Domain != "www.xyz.com" || page.Nonce == "" || page.Page == nil {
		t.Fatalf("registration page malformed: %+v", page)
	}
}

func TestHTTPBadJSONBodyRejected(t *testing.T) {
	_, ts := httpRig(t)
	for _, path := range []string{"/trust/register", "/trust/login", "/trust/page"} {
		resp, err := ts.Client().Post(ts.URL+path, "application/json", strings.NewReader("{broken"))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s with broken JSON: status %d", path, resp.StatusCode)
		}
	}
}

func TestHTTPLoginRejectionTyped(t *testing.T) {
	_, ts := httpRig(t)
	body, _ := json.Marshal(&protocol.LoginSubmit{Domain: "www.xyz.com", Account: "ghost"})
	resp, err := ts.Client().Post(ts.URL+"/trust/login", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("forged login status %d, want 404", resp.StatusCode)
	}
	if code := resp.Header.Get(ErrorHeader); code != "unknown-account" {
		t.Fatalf("forged login error code %q, want unknown-account", code)
	}
	if !errors.Is(ErrorFromCode(resp.Header.Get(ErrorHeader)), ErrUnknownAccount) {
		t.Fatal("wire code did not round-trip to ErrUnknownAccount")
	}
}

func TestHTTPPageRequestRejectionTyped(t *testing.T) {
	_, ts := httpRig(t)
	body, _ := json.Marshal(&protocol.PageRequest{Domain: "www.xyz.com", Account: "g", SessionID: "nope"})
	resp, err := ts.Client().Post(ts.URL+"/trust/page", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusGone {
		t.Fatalf("forged page request status %d, want 410", resp.StatusCode)
	}
	if code := resp.Header.Get(ErrorHeader); code != "unknown-session" {
		t.Fatalf("forged page request error code %q, want unknown-session", code)
	}
}

func TestErrorCodeRoundTrip(t *testing.T) {
	for _, we := range wireErrors {
		if got := ErrorFromCode(we.code); !errors.Is(got, we.err) {
			t.Errorf("code %q round-tripped to %v, want %v", we.code, got, we.err)
		}
	}
	if ErrorFromCode("no-such-code") != nil {
		t.Error("unknown code should map to nil")
	}
	if ErrorFromCode("") != nil {
		t.Error("empty code should map to nil")
	}
}

func TestHTTPAuditEndpoint(t *testing.T) {
	r, ts := httpRig(t)
	r.register(t, "audit-acct")
	resp, err := ts.Client().Get(ts.URL + "/trust/audit")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]int
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out["checked"] != 1 || out["tampered"] != 0 {
		t.Fatalf("audit endpoint: %v", out)
	}
}

func TestHTTPEndToEndOverSockets(t *testing.T) {
	r, ts := httpRig(t)
	// Full registration + login over real HTTP, driving the protocol
	// client directly against the HTTP-decoded messages.
	resp, err := ts.Client().Get(ts.URL + "/trust/register?now=0")
	if err != nil {
		t.Fatal(err)
	}
	var regPage protocol.RegistrationPage
	if err := json.NewDecoder(resp.Body).Decode(&regPage); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	r.client.DisplayPage(regPage.Page, frame.View{Zoom: 1})
	r.touchButton(t)
	sub, err := r.client.HandleRegistrationPage(r.now, &regPage, "sock-acct")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := json.Marshal(sub)
	resp, err = ts.Client().Post(ts.URL+"/trust/register?recovery=pw", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var res protocol.RegistrationResult
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if !res.OK {
		t.Fatalf("HTTP registration rejected: %s", res.Reason)
	}
	if _, ok := r.server.Account("sock-acct"); !ok {
		t.Fatal("account not stored after HTTP registration")
	}
}

// TestHTTPFTDCEndpoint covers the capture lifecycle over HTTP: 404
// while capture is disabled, then — once enabled — every Nth request
// samples the telemetry row and GET /trust/ftdc serves a parsable
// capture.
func TestHTTPFTDCEndpoint(t *testing.T) {
	r, ts := httpRig(t)

	resp, err := ts.Client().Get(ts.URL + "/trust/ftdc")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("disabled capture served status %d, want 404", resp.StatusCode)
	}

	r.server.EnableFTDC(1)
	const hits = 5
	for i := 0; i < hits; i++ {
		resp, err := ts.Client().Get(ts.URL + "/trust/cert")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}

	resp, err = ts.Client().Get(ts.URL + "/trust/ftdc")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("capture fetch status %d", resp.StatusCode)
	}
	data, err := ftdc.Read(raw)
	if err != nil {
		t.Fatalf("served capture does not parse: %v", err)
	}
	// The cert hits sampled; the ftdc fetch itself samples after
	// serving, so the row count keeps moving — at least the cert hits
	// must be there.
	if data.Rows() < hits {
		t.Fatalf("capture holds %d rows after %d sampled requests", data.Rows(), hits)
	}
	if got, want := data.Names, r.server.MetricsSchema(); len(got) != len(want) {
		t.Fatalf("capture schema %d columns, server schema %d", len(got), len(want))
	}
}

// TestHTTPBinaryContentTypeVariants pins the server's media-type
// routing: the exact binary type, a parameterized one and a mixed-case
// one all reach the binary decoder, so a binary page request for an
// unknown session is refused as unknown-session, not as a malformed
// JSON body. The same bytes labelled JSON are malformed.
func TestHTTPBinaryContentTypeVariants(t *testing.T) {
	_, ts := httpRig(t)
	body, err := protocol.EncodeBinary(&protocol.PageRequest{Domain: "www.xyz.com", Account: "g", SessionID: "nope"})
	if err != nil {
		t.Fatal(err)
	}
	for ct, want := range map[string]string{
		"application/octet-stream":            "unknown-session",
		"application/octet-stream; charset=x": "unknown-session",
		"Application/Octet-Stream":            "unknown-session",
		"application/json":                    "malformed",
	} {
		resp, err := ts.Client().Post(ts.URL+"/trust/page?now=1", ct, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if code := resp.Header.Get(ErrorHeader); code != want {
			t.Errorf("Content-Type %q: error code %q, want %q", ct, code, want)
		}
	}
}

// TestFTDCHookDisabledAllocs pins the hook Handler runs after every
// request: with capture disabled it is one atomic load and adds no
// allocation, even for a query that parsing would have to unescape.
func TestFTDCHookDisabledAllocs(t *testing.T) {
	r := newRig(t)
	req := httptest.NewRequest(http.MethodPost, "/trust/register?recovery=a%20b+c&n%6Fw=5", nil)
	if n := testing.AllocsPerRun(100, func() { r.server.observeFTDC(req) }); n != 0 {
		t.Fatalf("disabled FTDC hook costs %.2f allocs per request, want 0", n)
	}
}

// FuzzRequestNow is the differential oracle for the HTTP front's query
// scan: on any raw query, requestNow and queryValue must agree with
// url.Values parsing — the first matching pair wins, pairs split on '&'
// only, a pair holding ';' is skipped, escapes are decoded and a pair
// that does not unescape is skipped.
func FuzzRequestNow(f *testing.F) {
	for _, q := range []string{
		"", "now=5", "now=5&now=7", "x=1&now=-9", "now=1;x=2&now=3", "now;=1&now=2",
		"n%6Fw=12", "now=%31%32", "now=+4", "now+=3&now=4", "now=%zz&now=6", "%zz=1&now=8",
		"&&now=2&", "=&now", "now", "now=9223372036854775807", "recovery=a%20b+c&now=1",
	} {
		f.Add(q)
	}
	f.Fuzz(func(t *testing.T, query string) {
		ref, _ := url.ParseQuery(query)
		for _, name := range []string{"now", "recovery"} {
			if got, want := queryValue(query, name), ref.Get(name); got != want {
				t.Fatalf("queryValue(%q, %q) = %q, url.Values says %q", query, name, got, want)
			}
		}
		r := &http.Request{URL: &url.URL{RawQuery: query}}
		want, _ := strconv.ParseInt(r.URL.Query().Get("now"), 10, 64)
		if got := requestNow(r); int64(got) != want {
			t.Fatalf("requestNow on %q = %d, want %d", query, got, want)
		}
	})
}
