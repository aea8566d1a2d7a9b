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
// over real sockets.
type HTTP struct {
	BaseURL string
	Client  *http.Client
	// Binary selects the compact binary codec (application/octet-
	// stream) instead of JSON on every request and response.
	Binary bool
}

var _ Transport = (*HTTP)(nil)

func (t *HTTP) client() *http.Client {
	if t.Client != nil {
		return t.Client
	}
	return http.DefaultClient
}

// requestURL builds the endpoint URL. The hot path (no extra query
// values) is a plain concatenation — url.Values plus Encode costs four
// allocations per request for a query string that is always "now=N".
func (t *HTTP) requestURL(path string, now time.Duration, extra url.Values) string {
	if len(extra) == 0 {
		return t.BaseURL + path + "?now=" + strconv.FormatInt(int64(now), 10)
	}
	q := url.Values{"now": {strconv.FormatInt(int64(now), 10)}}
	for k, vs := range extra {
		q[k] = vs
	}
	return t.BaseURL + path + "?" + q.Encode()
}

func get[M any](t *HTTP, path string, now time.Duration, out *M) error {
	req, err := http.NewRequest(http.MethodGet, t.requestURL(path, now, nil), nil)
	if err != nil {
		return err
	}
	if t.Binary {
		req.Header["Accept"] = webserver.BinaryHeader
	}
	resp, err := t.client().Do(req)
	if err != nil {
		// Socket-level failures are the retryable class: the request may
		// or may not have reached the server (see retry.go).
		return fmt.Errorf("%w: GET %s: %v", ErrNetwork, path, err)
	}
	defer resp.Body.Close()
	return decodeResponse(resp, out)
}

// postBody recycles request-body buffers and their readers: the
// continuous-auth hot path posts one PageRequest per touch, and
// marshalling each into a fresh slice plus a fresh reader dominated
// the transport's client-side allocation profile. Safe to recycle
// after Do returns — the transport has fully sent (or abandoned) the
// body by then, and the buffer is not returned to the pool until the
// response is decoded.
type postBody struct {
	buf []byte
	rd  bytes.Reader
}

var postBodyPool = sync.Pool{New: func() any { return new(postBody) }}

func post[M any](t *HTTP, path string, now time.Duration, extra url.Values, in any, out *M) error {
	pb := postBodyPool.Get().(*postBody)
	defer postBodyPool.Put(pb)
	var err error
	if t.Binary {
		pb.buf, err = protocol.EncodeBinaryAppend(pb.buf[:0], in)
	} else {
		var body []byte
		body, err = json.Marshal(in)
		pb.buf = append(pb.buf[:0], body...)
	}
	if err != nil {
		return err
	}
	pb.rd.Reset(pb.buf)
	req, err := http.NewRequest(http.MethodPost, t.requestURL(path, now, extra), &pb.rd)
	if err != nil {
		return err
	}
	if t.Binary {
		req.Header["Content-Type"] = webserver.BinaryHeader
		req.Header["Accept"] = webserver.BinaryHeader
	} else {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := t.client().Do(req)
	if err != nil {
		return fmt.Errorf("%w: POST %s: %v", ErrNetwork, path, err)
	}
	defer resp.Body.Close()
	return decodeResponse(resp, out)
}

// respBufPool recycles response-read buffers. Recycling is safe
// because neither decoder aliases its input: the binary reader copies
// every byte slice and string out, and json.Unmarshal never retains
// the data it parses.
var respBufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

func decodeResponse[M any](resp *http.Response, out *M) error {
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
	buf := respBufPool.Get().(*bytes.Buffer)
	buf.Reset()
	defer respBufPool.Put(buf)
	if err := webserver.ReadResponse(buf, resp.Body); err != nil {
		return err
	}
	data := buf.Bytes()
	if binary {
		m, err := protocol.DecodeAs[M](data)
		if err != nil {
			return err
		}
		*out = *m
		return nil
	}
	return json.Unmarshal(data, out)
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
