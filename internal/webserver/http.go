package webserver

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"mime"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"time"

	"trust/internal/pki"
	"trust/internal/protocol"
)

// BinaryMIME selects the compact binary codec on the HTTP transport,
// in both directions.
const BinaryMIME = "application/octet-stream"

// BinaryHeader is the header value for BinaryMIME, shared by every
// request and response instead of a fresh one-element slice per
// Header.Set. net/http never writes into a header's value slice, only
// replaces it; no caller may write into it either.
var BinaryHeader = []string{BinaryMIME}

// IsBinaryType reports whether a Content-Type value selects the binary
// codec. The exact value both ends send is matched directly; anything
// else is parsed, so "application/octet-stream; charset=x" and
// mixed-case spellings still select the binary decoder, not JSON.
func IsBinaryType(ct string) bool {
	if ct == BinaryMIME {
		return true
	}
	mt, _, _ := mime.ParseMediaType(ct)
	return mt == BinaryMIME
}

// maxBodyBytes bounds request bodies on every POST route.
const maxBodyBytes = 1 << 20

var errBodyTooLarge = fmt.Errorf("body exceeds %d bytes", maxBodyBytes)

// MaxResponseBytes caps how much of a server response a client buffers.
const MaxResponseBytes = 1 << 20

// ErrResponseTooLarge reports a response body over MaxResponseBytes.
var ErrResponseTooLarge = fmt.Errorf("webserver: response body exceeds %d-byte cap", MaxResponseBytes)

// ReadResponse buffers a response body into buf, failing an oversized
// one with ErrResponseTooLarge rather than a confusing decode error. It
// caps r through lr, which it overwrites, so a client that pools lr
// with buf reads a body without allocating.
func ReadResponse(buf *bytes.Buffer, lr *io.LimitedReader, r io.Reader) error {
	*lr = io.LimitedReader{R: r, N: MaxResponseBytes + 1}
	n, err := buf.ReadFrom(lr)
	lr.R = nil
	if err != nil {
		return err
	}
	if n > MaxResponseBytes {
		return ErrResponseTooLarge
	}
	return nil
}

// httpBuf is one request's pooled scratch on the HTTP front: the
// buffer a binary request body lands in with the reader that caps it,
// and the buffer a binary response is encoded into. The decoder copies
// every field out of the body and w.Write copies the response, so the
// scratch goes back to the pool as soon as both return.
type httpBuf struct {
	body bytes.Buffer
	lr   io.LimitedReader
	resp []byte
}

var httpBufPool = sync.Pool{New: func() any { return new(httpBuf) }}

// ErrorHeader carries the typed rejection code on error responses, so
// clients recover the exact sentinel without parsing the body.
const ErrorHeader = "X-Trust-Error"

// wireErrors maps each handler sentinel to a short wire code and a
// distinct HTTP status. The device transport reverses the mapping
// (ErrorFromCode), which is what lets its retry layer split retryable
// from terminal rejections; see docs/protocol.md "Failure semantics".
var wireErrors = []struct {
	err    error
	code   string
	status int
}{
	{ErrMalformed, "malformed", http.StatusBadRequest},
	{ErrBadSignature, "bad-signature", http.StatusUnauthorized},
	{ErrBadMAC, "bad-mac", http.StatusForbidden},
	{ErrUnknownAccount, "unknown-account", http.StatusNotFound},
	{ErrBadNonce, "bad-nonce", http.StatusConflict},
	{ErrUnknownSession, "unknown-session", http.StatusGone},
	{ErrRiskPolicy, "risk-policy", http.StatusPreconditionFailed},
	{ErrBadKey, "bad-key", http.StatusUnprocessableEntity},
	{ErrRateLimited, "rate-limited", http.StatusTooManyRequests},
	{ErrBadTicket, "bad-ticket", http.StatusNotAcceptable},
	{ErrStorage, "storage", http.StatusServiceUnavailable},
}

// writeError puts a handler rejection on the wire: the matching
// sentinel's code in ErrorHeader plus its status. Rejections outside
// the table (none today) degrade to a bare 403.
func writeError(w http.ResponseWriter, err error) {
	for _, we := range wireErrors {
		if errors.Is(err, we.err) {
			w.Header().Set(ErrorHeader, we.code)
			http.Error(w, err.Error(), we.status)
			return
		}
	}
	http.Error(w, err.Error(), http.StatusForbidden)
}

// wireCode returns the wire code for a handler rejection, or "" when
// the error is outside the table. The stream endpoint rides these
// same codes in its ack frames, so both transports surface identical
// typed rejections.
func wireCode(err error) string {
	for _, we := range wireErrors {
		if errors.Is(err, we.err) {
			return we.code
		}
	}
	return ""
}

// ErrorFromCode maps a wire code from ErrorHeader back to its sentinel
// error; unknown codes return nil.
func ErrorFromCode(code string) error {
	for _, we := range wireErrors {
		if we.code == code {
			return we.err
		}
	}
	return nil
}

// requestNow extracts the virtual timestamp from the "now" query
// parameter (nanoseconds); omitted, it defaults to zero.
func requestNow(r *http.Request) time.Duration {
	ns, _ := strconv.ParseInt(queryValue(r.URL.RawQuery, "now"), 10, 64)
	return time.Duration(ns)
}

// queryValue returns url.ParseQuery(query).Get(name) without building
// the url.Values map: the first pair named name wins, pairs are split
// on '&' only, a pair holding ';' is skipped, and so is a pair whose
// name or value does not unescape.
func queryValue(query, name string) string {
	for query != "" {
		var pair string
		pair, query, _ = strings.Cut(query, "&")
		if pair == "" || strings.Contains(pair, ";") {
			continue
		}
		n, v, _ := strings.Cut(pair, "=")
		var err error
		if n, err = url.QueryUnescape(n); err != nil {
			continue
		}
		if v, err = url.QueryUnescape(v); err != nil {
			continue
		}
		if n == name {
			return v
		}
	}
	return ""
}

// writeResponse applies content negotiation: JSON by default; the
// compact binary codec when the client accepts
// application/octet-stream (the cookie-extension deployment's
// encoding).
func writeResponse(w http.ResponseWriter, r *http.Request, v any) {
	if r.Header.Get("Accept") == BinaryMIME {
		b := httpBufPool.Get().(*httpBuf)
		defer httpBufPool.Put(b)
		data, err := protocol.EncodeBinaryAppend(b.resp[:0], v)
		if err == nil {
			b.resp = data[:0]
			w.Header()["Content-Type"] = BinaryHeader
			w.Write(data)
			return
		}
		// Not binary-encodable (e.g. RegistrationResult): fall
		// through to JSON.
	}
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// decodeBody parses the request body into a freshly decoded *M. For
// the binary codec the decoder's own pointer is routed straight to the
// caller — no value copy in between. A body that does not decode is a
// typed, counted malformed rejection, answered like any other.
func decodeBody[M any](s *Server, w http.ResponseWriter, r *http.Request) (*M, bool) {
	m, err := readBody[M](r)
	if err != nil {
		writeError(w, s.reject(fmt.Errorf("%w: request body: %v", ErrMalformed, err)))
		return nil, false
	}
	return m, true
}

// readBody decodes the request body and closes it. Closing a body read
// to its end spares net/http the read it would otherwise make after the
// handler, looking for an end it has already seen.
func readBody[M any](r *http.Request) (*M, error) {
	defer r.Body.Close()
	if IsBinaryType(r.Header.Get("Content-Type")) {
		b := httpBufPool.Get().(*httpBuf)
		defer httpBufPool.Put(b)
		b.body.Reset()
		b.lr = io.LimitedReader{R: r.Body, N: maxBodyBytes + 1}
		n, err := b.body.ReadFrom(&b.lr)
		b.lr.R = nil
		switch {
		case err != nil:
			return nil, err
		case n > maxBodyBytes:
			return nil, errBodyTooLarge
		}
		return protocol.DecodeAs[M](b.body.Bytes())
	}
	m := new(M)
	if err := json.NewDecoder(io.LimitReader(r.Body, maxBodyBytes)).Decode(m); err != nil {
		return nil, err
	}
	return m, nil
}

// sessionRoute is the one shape of the POST routes that answer with a
// content page (login, resume, page, resync): decode the body, run the
// handler at the request's virtual time, and answer with the page or
// the handler's typed rejection.
func sessionRoute[M any](s *Server, handle func(time.Duration, *M) (*protocol.ContentPage, error)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		m, ok := decodeBody[M](s, w, r)
		if !ok {
			return
		}
		cp, err := handle(requestNow(r), m)
		if err != nil {
			writeError(w, err)
			return
		}
		writeResponse(w, r, cp)
	}
}

// Handler exposes the server over HTTP for the networked examples and
// the trustserver binary. Virtual time rides the "now" query parameter
// (nanoseconds) so simulated clients stay deterministic. There is no
// handler-level lock: net/http calls these functions from one goroutine
// per request, and the Server's sharded stores (store.go) carry all the
// synchronization, so requests on different sessions run in parallel.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()

	mux.HandleFunc("GET /trust/cert", func(w http.ResponseWriter, r *http.Request) {
		writeResponse(w, r, s.Certificate())
	})
	mux.HandleFunc("GET /trust/register", func(w http.ResponseWriter, r *http.Request) {
		writeResponse(w, r, s.ServeRegistrationPage(requestNow(r)))
	})
	mux.HandleFunc("POST /trust/register", func(w http.ResponseWriter, r *http.Request) {
		sub, ok := decodeBody[protocol.RegistrationSubmit](s, w, r)
		if !ok {
			return
		}
		writeResponse(w, r, s.HandleRegistration(requestNow(r), sub, queryValue(r.URL.RawQuery, "recovery")))
	})
	mux.HandleFunc("GET /trust/login", func(w http.ResponseWriter, r *http.Request) {
		writeResponse(w, r, s.ServeLoginPage(requestNow(r)))
	})
	mux.HandleFunc("POST /trust/login", sessionRoute(s, s.HandleLogin))
	mux.HandleFunc("POST /trust/resume", sessionRoute(s, s.HandleResume))
	mux.HandleFunc("POST /trust/page", sessionRoute(s, s.HandlePageRequest))
	mux.HandleFunc("POST /trust/resync", sessionRoute(s, s.HandleResync))
	mux.HandleFunc("GET /trust/audit", func(w http.ResponseWriter, r *http.Request) {
		report := s.RunAudit()
		writeResponse(w, r, map[string]any{
			"checked":  report.Checked,
			"tampered": report.Tampered,
		})
	})
	mux.HandleFunc("GET /trust/ftdc", s.handleFTDC)
	// Telemetry capture rides after each request so a sample reflects
	// the request's effect; with capture disabled the hook is one
	// atomic load (metrics.go).
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mux.ServeHTTP(w, r)
		s.observeFTDC(r)
	})
}

// FetchCertificate retrieves a server certificate over HTTP (client
// side helper shared by the HTTP transport and the trustdevice tool).
func FetchCertificate(client *http.Client, baseURL string) (*pki.Certificate, error) {
	resp, err := client.Get(baseURL + "/trust/cert")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("webserver: cert fetch status %s", resp.Status)
	}
	var body bytes.Buffer
	var lr io.LimitedReader
	if err := ReadResponse(&body, &lr, resp.Body); err != nil {
		return nil, err
	}
	var cert pki.Certificate
	if err := json.Unmarshal(body.Bytes(), &cert); err != nil {
		return nil, err
	}
	return &cert, nil
}
