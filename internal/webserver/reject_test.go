package webserver

import (
	"bytes"
	"encoding/binary"
	"io"
	"net"
	"net/http"
	"testing"
	"time"

	"trust/internal/protocol"
)

// TestServeStreamMalformedInputCounted pins that every frame the
// stream refuses as malformed is counted as a rejection before its ack
// goes out — the same accounting a rejected request gets — whether the
// refusal comes at the opening frame or on a bound connection.
func TestServeStreamMalformedInputCounted(t *testing.T) {
	r := newRig(t)
	r.register(t, "acct")
	garbage := append(binary.BigEndian.AppendUint64(nil, 5), 0xde, 0xad)
	opening := []struct {
		name    string
		ft      protocol.FrameType
		payload []byte
	}{
		{"undecodable hello", protocol.FrameHello, []byte{1, 2, 3}},
		{"undecodable resume", protocol.FrameResume, garbage},
		{"opening heartbeat", protocol.FrameHeartbeat, garbage},
	}
	for _, tc := range opening {
		t.Run(tc.name, func(t *testing.T) {
			c1, c2 := net.Pipe()
			defer c1.Close()
			exit := make(chan error, 1)
			go func() { exit <- r.server.ServeStream(c2) }()
			before := r.server.RejectedRequests()
			if err := protocol.WriteFrame(c1, tc.ft, tc.payload); err != nil {
				t.Fatal(err)
			}
			expectAck(t, c1, "malformed")
			if got := r.server.RejectedRequests() - before; got != 1 {
				t.Fatalf("rejections counted %d, want 1", got)
			}
			if err := <-exit; err == nil {
				t.Fatal("stream survived a malformed opening frame")
			}
		})
	}
	bound := []struct {
		name string
		send func(conn io.ReadWriteCloser) error
	}{
		{"touch-batch", func(c io.ReadWriteCloser) error { return protocol.WriteFrame(c, protocol.FrameTouchBatch, garbage) }},
		{"resync", func(c io.ReadWriteCloser) error { return protocol.WriteFrame(c, protocol.FrameResync, garbage) }},
		{"heartbeat", func(c io.ReadWriteCloser) error { return protocol.WriteFrame(c, protocol.FrameHeartbeat, garbage) }},
		{"unexpected welcome", func(c io.ReadWriteCloser) error { return protocol.WriteFrame(c, protocol.FrameWelcome, nil) }},
		{"heartbeat skew", func(c io.ReadWriteCloser) error {
			ft, payload := sendHeartbeat(t, c, 1, 4*time.Second)
			expectHeartbeatEcho(t, ft, payload, 1, 4*time.Second)
			_, err := c.Write(protocol.AppendHeartbeatFrame(nil, 2, 4*time.Second+MaxHeartbeatSkew+time.Second))
			return err
		}},
	}
	for _, tc := range bound {
		t.Run(tc.name, func(t *testing.T) {
			sess, _ := r.login(t, "acct")
			conn, _, exit := openStream(t, r, sess)
			defer conn.Close()
			before := r.server.RejectedRequests()
			if err := tc.send(conn); err != nil {
				t.Fatal(err)
			}
			expectAck(t, conn, "malformed")
			if got := r.server.RejectedRequests() - before; got != 1 {
				t.Fatalf("rejections counted %d, want 1", got)
			}
			if err := <-exit; err == nil {
				t.Fatal("stream survived a malformed frame")
			}
		})
	}
}

// TestHTTPMalformedBodyTypedAndCounted pins the HTTP side of the same
// rule: a body that does not decode — bad JSON, bad binary, or a
// binary message of the wrong type — is a typed malformed rejection
// (X-Trust-Error), counted like any other.
func TestHTTPMalformedBodyTypedAndCounted(t *testing.T) {
	r, ts := httpRig(t)
	hello, err := protocol.EncodeBinary(&protocol.StreamHello{Domain: "www.xyz.com"})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name, ctype string
		body        []byte
	}{
		{"bad json", "application/json", []byte("{")},
		{"bad binary", BinaryMIME, []byte{1, 2, 3}},
		{"wrong binary type", BinaryMIME, hello},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			before := r.server.RejectedRequests()
			resp, err := ts.Client().Post(ts.URL+"/trust/page?now=1", tc.ctype, bytes.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest || resp.Header.Get(ErrorHeader) != "malformed" {
				t.Fatalf("status %s, %s %q; want 400 with a malformed code", resp.Status, ErrorHeader, resp.Header.Get(ErrorHeader))
			}
			if got := r.server.RejectedRequests() - before; got != 1 {
				t.Fatalf("rejections counted %d, want 1", got)
			}
		})
	}
}
