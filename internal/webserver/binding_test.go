package webserver

import (
	"errors"
	"fmt"
	"testing"

	"trust/internal/frame"
	"trust/internal/pki"
	"trust/internal/protocol"
)

// TestSessionBoundToItsAccount has a live session's holder name another
// registered account in a page request and in a resync. The holder
// re-seals the MAC with the session key, so the session's account
// binding is the only check in the way — and a forgery succeeds exactly
// where a check is missing (Gong et al.). Every front must refuse it as
// ErrUnknownSession, log no audit entry (which would blame the other
// account for the holder's touch) and leave the accepted count alone;
// the same request naming the holder's own account then goes through,
// so nothing but the binding refused it.
func TestSessionBoundToItsAccount(t *testing.T) {
	for _, front := range []string{"direct", "http", "stream"} {
		for _, kind := range []string{"page", "resync"} {
			t.Run(front+"/"+kind, func(t *testing.T) {
				r, ts := httpRig(t)
				// The rig's one device holds one key per domain: register
				// the victim first, then the holder who keeps the session.
				r.register(t, "victim")
				r.register(t, "holder")
				sess, cp := r.login(t, "holder")
				r.client.DisplayPage(cp.Page, frame.View{Zoom: 1})
				r.touchButton(t)

				var submit func(seq uint64, msg protocol.Authenticated) error
				nonce := cp.Nonce
				switch front {
				case "direct":
					submit = func(_ uint64, msg protocol.Authenticated) error {
						var err error
						switch m := msg.(type) {
						case *protocol.PageRequest:
							_, err = r.server.HandlePageRequest(r.now, m)
						case *protocol.ResyncRequest:
							_, err = r.server.HandleResync(r.now, m)
						}
						return err
					}
				case "http":
					submit = func(_ uint64, msg protocol.Authenticated) error {
						path := "/trust/page"
						if _, ok := msg.(*protocol.ResyncRequest); ok {
							path = "/trust/resync"
						}
						return postJSON(t, ts.Client(), fmt.Sprintf("%s%s?now=%d", ts.URL, path, int64(r.now)), msg)
					}
				case "stream":
					conn, w, _ := openStream(t, r, sess)
					t.Cleanup(func() { conn.Close() })
					nonce = protocol.StreamNonce(sess.Key, w.NonceSeed, 0)
					submit = func(seq uint64, msg protocol.Authenticated) error {
						var f []byte
						var err error
						switch m := msg.(type) {
						case *protocol.PageRequest:
							f, err = protocol.AppendTouchBatchFrame(nil, seq, r.now, []*protocol.PageRequest{m})
						case *protocol.ResyncRequest:
							f, err = protocol.AppendResyncFrame(nil, seq, m)
						}
						if err != nil {
							t.Fatal(err)
						}
						if _, err := conn.Write(f); err != nil {
							t.Fatal(err)
						}
						ft, payload, err := protocol.ReadFrame(conn)
						if err != nil {
							t.Fatal(err)
						}
						switch ft {
						case protocol.FramePage:
							return nil
						case protocol.FrameAck:
							_, code, _, err := protocol.DecodeAck(payload)
							if err != nil {
								t.Fatal(err)
							}
							return ErrorFromCode(code)
						}
						t.Fatalf("got %s frame", ft)
						return nil
					}
				}

				build := func(account string) protocol.Authenticated {
					if kind == "resync" {
						rr, err := r.client.BuildResync(sess)
						if err != nil {
							t.Fatal(err)
						}
						rr.Account = account
						rr.MAC = pki.MAC(sess.Key, rr.MACBytes())
						return rr
					}
					req, err := r.client.BuildPageRequestAt(r.now, sess, "home", 12, nonce)
					if err != nil {
						t.Fatal(err)
					}
					req.Account = account
					req.MAC = pki.MAC(sess.Key, req.MACBytes())
					return req
				}

				accepted, audited := r.server.AcceptedRequests(), r.server.AuditLog().Len()
				if err := submit(1, build("victim")); !errors.Is(err, ErrUnknownSession) {
					t.Fatalf("request naming another account: err %v, want ErrUnknownSession", err)
				}
				if got := r.server.AcceptedRequests(); got != accepted {
					t.Fatalf("accepted went %d -> %d on a refused request", accepted, got)
				}
				if got := r.server.AuditLog().Len(); got != audited {
					t.Fatalf("refused request appended %d audit entries", got-audited)
				}
				if err := submit(2, build("holder")); err != nil {
					t.Fatalf("the same request naming the holder's account: %v", err)
				}
			})
		}
	}
}
