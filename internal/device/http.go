package device

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"time"

	"trust/internal/protocol"
	"trust/internal/webserver"
)

// HTTP is the Transport implementation speaking to a webserver.Handler
// over real sockets. A literal naming only the exported fields is a
// working transport, and it is safe for concurrent use.
type HTTP struct {
	BaseURL string
	Client  *http.Client
	// Binary selects the compact binary codec (application/octet-
	// stream) instead of JSON on every request and response.
	Binary bool

	mu sync.Mutex // guards the fields below
	// dec decodes binary responses through this transport's own intern
	// table: the page fields a session moves between, its domain and
	// its account repeat from response to response. No other transport
	// shares it, so no other client's strings sit in its lookups.
	dec protocol.Decoder
	// routes holds BaseURL+path parsed once per route; each request
	// copies one and sets only its query. BaseURL must not change once
	// the transport has sent a request.
	routes map[string]*url.URL
}

var _ Transport = (*HTTP)(nil)

func (t *HTTP) client() *http.Client {
	if t.Client != nil {
		return t.Client
	}
	return http.DefaultClient
}

// route returns BaseURL+path parsed, the URL http.NewRequest would
// parse minus the query, parsing it on first use. A BaseURL carrying
// its own query or fragment is refused: a request's query could not be
// appended to it.
func (t *HTTP) route(path string) (*url.URL, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if u, ok := t.routes[path]; ok {
		return u, nil
	}
	u, err := url.Parse(t.BaseURL + path)
	if err != nil {
		return nil, err
	}
	if u.RawQuery != "" || u.ForceQuery || u.Fragment != "" {
		return nil, fmt.Errorf("device: base URL %q carries a query or fragment", t.BaseURL)
	}
	if t.routes == nil {
		t.routes = make(map[string]*url.URL)
	}
	t.routes[path] = u
	return u, nil
}

// Request header values, each one shared slice like
// webserver.BinaryHeader: net/http never writes into a header's value
// slice, and neither does this package.
var (
	jsonHeader = []string{"application/json"}
	// identity declines compression, which the server never applies.
	// Without an Accept-Encoding of the caller's, net/http's transport
	// adds "gzip" through a header map of its own per request and
	// readies transparent decompression for the response.
	identity = []string{"identity"}
	// noUserAgent suppresses net/http's default User-Agent line, which
	// the server would parse and never read.
	noUserAgent = []string{""}
)

// outgoing is one request's reusable parts: the request, its URL and
// header map, and for a POST the encoded body with the Body and
// GetBody that http.NewRequest makes for a *bytes.Reader. Body stays
// an io.NopCloser around a *bytes.Reader, a body net/http knows to be
// in memory and writes together with the headers. net/http lets a
// caller reuse a request once its response body is closed, so send
// returns it to the pool then. A request whose Do failed is left to
// the garbage collector: the transport may still close its body after
// Do returns.
type outgoing struct {
	req     http.Request
	url     url.URL
	buf     []byte
	rd      bytes.Reader
	body    io.ReadCloser                 // io.NopCloser(&rd)
	getBody func() (io.ReadCloser, error) // a fresh reader over buf
}

var outgoingPool = sync.Pool{New: func() any {
	o := new(outgoing)
	o.body = io.NopCloser(&o.rd)
	o.getBody = func() (io.ReadCloser, error) { return io.NopCloser(bytes.NewReader(o.buf)), nil }
	o.req.Header = make(http.Header, 5)
	return o
}}

// fill makes o the request http.NewRequest(method,
// BaseURL+path+"?"+query, body) would build, plus the transport's
// headers. The query is now=N and any extra values; a POST's body is
// o.buf. No URL string is built or parsed per request.
func (t *HTTP) fill(o *outgoing, method, path string, now time.Duration, extra url.Values) error {
	route, err := t.route(path)
	if err != nil {
		return err
	}
	o.url = *route
	if len(extra) == 0 {
		var q [24]byte // "now=" and an int64
		o.url.RawQuery = string(strconv.AppendInt(append(q[:0], "now="...), int64(now), 10))
	} else {
		q := url.Values{"now": {strconv.FormatInt(int64(now), 10)}}
		for k, vs := range extra {
			q[k] = vs
		}
		o.url.RawQuery = q.Encode()
	}
	h := o.req.Header
	clear(h)
	o.req = http.Request{
		Method:     method,
		URL:        &o.url,
		Proto:      "HTTP/1.1",
		ProtoMajor: 1,
		ProtoMinor: 1,
		Header:     h,
		Host:       o.url.Host,
	}
	if method == http.MethodPost {
		o.rd.Reset(o.buf)
		o.req.Body, o.req.GetBody = o.body, o.getBody
		o.req.ContentLength = int64(len(o.buf))
		if t.Binary {
			h["Content-Type"] = webserver.BinaryHeader
		} else {
			h["Content-Type"] = jsonHeader
		}
	}
	if t.Binary {
		h["Accept"] = webserver.BinaryHeader
	}
	h["Accept-Encoding"] = identity
	h["User-Agent"] = noUserAgent
	return nil
}

// send fills o as fill does, sends it and decodes a 200 answer into
// out. o goes back to the pool unless Do failed.
func send[M any](t *HTTP, o *outgoing, method, path string, now time.Duration, extra url.Values, out *M) error {
	if err := t.fill(o, method, path, now, extra); err != nil {
		outgoingPool.Put(o)
		return err
	}
	resp, err := t.client().Do(&o.req)
	if err != nil {
		// Socket-level failures are the retryable class: the request may
		// or may not have reached the server (see retry.go).
		return fmt.Errorf("%w: %s %s: %v", ErrNetwork, method, path, err)
	}
	err = decodeResponse(t, resp, out)
	resp.Body.Close()
	outgoingPool.Put(o)
	return err
}

func get[M any](t *HTTP, path string, now time.Duration, out *M) error {
	return send(t, outgoingPool.Get().(*outgoing), http.MethodGet, path, now, nil, out)
}

// post encodes in into a pooled request's body buffer: the
// continuous-auth hot path posts one PageRequest per touch, and a fresh
// body slice, reader and request for each dominated the transport's
// client-side allocation profile.
func post[M any](t *HTTP, path string, now time.Duration, extra url.Values, in any, out *M) error {
	o := outgoingPool.Get().(*outgoing)
	var err error
	if t.Binary {
		o.buf, err = protocol.EncodeBinaryAppend(o.buf[:0], in)
	} else {
		var body []byte
		body, err = json.Marshal(in)
		o.buf = append(o.buf[:0], body...)
	}
	if err != nil {
		outgoingPool.Put(o)
		return err
	}
	return send(t, o, http.MethodPost, path, now, extra, out)
}

// incoming is a pooled response-read buffer and the reader that caps
// it. Recycling is safe because neither decoder aliases its input: the
// binary decoder copies or interns every field, and json.Unmarshal
// never retains the data it parses.
type incoming struct {
	buf bytes.Buffer
	lr  io.LimitedReader
}

var incomingPool = sync.Pool{New: func() any { return new(incoming) }}

// decodeResponse decodes a 200 answer into out, a fresh message; a
// binary one goes through t's intern table, and the result equals
// protocol.DecodeAs's. Any other status returns the server's typed
// rejection.
func decodeResponse[M any](t *HTTP, resp *http.Response, out *M) error {
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 1024))
		// Round-trip the server's typed rejection so errors.Is sees the
		// same sentinel either transport would surface (the retry
		// layer's retryable/terminal split depends on it).
		if base := webserver.ErrorFromCode(resp.Header.Get(webserver.ErrorHeader)); base != nil {
			return fmt.Errorf("device: server returned %s: %w", resp.Status, base)
		}
		return fmt.Errorf("device: server returned %s: %s", resp.Status, bytes.TrimSpace(msg))
	}
	binary := webserver.IsBinaryType(resp.Header.Get("Content-Type"))
	in := incomingPool.Get().(*incoming)
	defer incomingPool.Put(in)
	in.buf.Reset()
	if err := webserver.ReadResponse(&in.buf, &in.lr, resp.Body); err != nil {
		return err
	}
	if binary {
		t.mu.Lock()
		defer t.mu.Unlock()
		return t.dec.DecodeMessage(in.buf.Bytes(), out)
	}
	return json.Unmarshal(in.buf.Bytes(), out)
}

// FetchRegistrationPage implements Transport.
func (t *HTTP) FetchRegistrationPage(now time.Duration) (*protocol.RegistrationPage, error) {
	var page protocol.RegistrationPage
	if err := get(t, "/trust/register", now, &page); err != nil {
		return nil, err
	}
	return &page, nil
}

// SubmitRegistration implements Transport.
func (t *HTTP) SubmitRegistration(now time.Duration, sub *protocol.RegistrationSubmit, recovery string) (protocol.RegistrationResult, error) {
	var res protocol.RegistrationResult
	err := post(t, "/trust/register", now, url.Values{"recovery": {recovery}}, sub, &res)
	return res, err
}

// FetchLoginPage implements Transport.
func (t *HTTP) FetchLoginPage(now time.Duration) (*protocol.LoginPage, error) {
	var page protocol.LoginPage
	if err := get(t, "/trust/login", now, &page); err != nil {
		return nil, err
	}
	return &page, nil
}

// SubmitLogin implements Transport.
func (t *HTTP) SubmitLogin(now time.Duration, sub *protocol.LoginSubmit) (*protocol.ContentPage, error) {
	var cp protocol.ContentPage
	if err := post(t, "/trust/login", now, nil, sub, &cp); err != nil {
		return nil, err
	}
	return &cp, nil
}

// SubmitResume implements Transport.
func (t *HTTP) SubmitResume(now time.Duration, sub *protocol.ResumeSubmit) (*protocol.ContentPage, error) {
	var cp protocol.ContentPage
	if err := post(t, "/trust/resume", now, nil, sub, &cp); err != nil {
		return nil, err
	}
	return &cp, nil
}

// SubmitPageRequest implements Transport.
func (t *HTTP) SubmitPageRequest(now time.Duration, req *protocol.PageRequest) (*protocol.ContentPage, error) {
	var cp protocol.ContentPage
	if err := post(t, "/trust/page", now, nil, req, &cp); err != nil {
		return nil, err
	}
	return &cp, nil
}

// SubmitResync implements Transport.
func (t *HTTP) SubmitResync(now time.Duration, req *protocol.ResyncRequest) (*protocol.ContentPage, error) {
	var cp protocol.ContentPage
	if err := post(t, "/trust/resync", now, nil, req, &cp); err != nil {
		return nil, err
	}
	return &cp, nil
}
