package webserver

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"testing"

	"trust/internal/frame"
)

// TestRiskWraparoundForgeryRejected lifts an honest below-policy risk
// report over the policy by adding 2^32 to RiskVerified and keeps the
// honest authenticator. An authenticator input that wrote ints as
// uint32(v) gave both values one input, so the forgery verified. Every
// verify path must refuse it, whether the message arrives in memory
// (the Interceptor's position) or as HTTP-JSON, which carries the full
// int.
func TestRiskWraparoundForgeryRejected(t *testing.T) {
	for _, transport := range []string{"in-memory", "http-json"} {
		t.Run(transport, func(t *testing.T) {
			r, ts := httpRig(t)
			r.register(t, "acct")
			sess, cp := r.login(t, "acct")
			login, _ := buildLoginSubmit(t, r, "acct")
			resume, _ := r.buildResume(t, "acct", cp.Ticket, sess.Key)
			r.client.DisplayPage(cp.Page, frame.View{Zoom: 1})
			r.touchButton(t)
			page, err := r.client.BuildPageRequest(r.now, sess, "view-statement", 12)
			if err != nil {
				t.Fatal(err)
			}
			cases := []struct {
				path     string
				msg      any
				verified *int
				window   int
				direct   func() error
				want     error
			}{
				{"/trust/login", login, &login.RiskVerified, login.RiskWindow, func() error {
					_, err := r.server.HandleLogin(r.now, login)
					return err
				}, ErrBadSignature},
				{"/trust/resume", resume, &resume.RiskVerified, resume.RiskWindow, func() error {
					_, err := r.server.HandleResume(r.now, resume)
					return err
				}, ErrBadMAC},
				{"/trust/page", page, &page.RiskVerified, page.RiskWindow, func() error {
					_, err := r.server.HandlePageRequest(r.now, page)
					return err
				}, ErrBadMAC},
			}
			for _, c := range cases {
				honest := *c.verified
				r.server.SetRiskPolicy(RiskPolicy{Window: c.window, MinVerified: honest + 1})
				*c.verified += 1 << 32
				if p := r.server.riskPolicy(); p.ok(honest, c.window) || !p.ok(*c.verified, c.window) {
					t.Fatalf("%s: policy does not separate %d from %d of %d", c.path, honest, *c.verified, c.window)
				}
				var err error
				if transport == "in-memory" {
					err = c.direct()
				} else {
					err = postJSON(t, ts.Client(), fmt.Sprintf("%s%s?now=%d", ts.URL, c.path, int64(r.now)), c.msg)
				}
				if !errors.Is(err, c.want) {
					t.Errorf("%s with RiskVerified %d+2^32 of %d: err %v, want %v", c.path, honest, c.window, err, c.want)
				}
			}
		})
	}
}

// postJSON posts msg as a JSON body and returns the handler's typed
// rejection, or nil on 200.
func postJSON(t *testing.T, c *http.Client, url string, msg any) error {
	t.Helper()
	body, err := json.Marshal(msg)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := c.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		return nil
	}
	if err := ErrorFromCode(resp.Header.Get(ErrorHeader)); err != nil {
		return err
	}
	return fmt.Errorf("status %s", resp.Status)
}
