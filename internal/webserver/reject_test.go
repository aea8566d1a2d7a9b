package webserver

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
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
		{"opening touch-batch", protocol.FrameTouchBatch, garbage},
		{"opening heartbeat", protocol.FrameType(5), garbage}, // retired
	}
	for _, tc := range opening {
		t.Run(tc.name, func(t *testing.T) {
			c1, c2 := net.Pipe()
			defer c1.Close()
			exit := make(chan error, 1)
			go func() { exit <- r.server.ServeStream(c2) }()
			before := r.server.rejected.Load()
			if err := writeFrame(c1, tc.ft, tc.payload); err != nil {
				t.Fatal(err)
			}
			expectAck(t, c1, "malformed")
			if got := r.server.rejected.Load() - before; got != 1 {
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
		{"touch-batch", func(c io.ReadWriteCloser) error { return writeFrame(c, protocol.FrameTouchBatch, garbage) }},
		{"resync", func(c io.ReadWriteCloser) error { return writeFrame(c, protocol.FrameResync, garbage) }},
		{"heartbeat", func(c io.ReadWriteCloser) error { return writeFrame(c, protocol.FrameType(5), garbage) }}, // retired
		{"unexpected welcome", func(c io.ReadWriteCloser) error { return writeFrame(c, protocol.FrameWelcome, nil) }},
	}
	for _, tc := range bound {
		t.Run(tc.name, func(t *testing.T) {
			sess, _ := r.login(t, "acct")
			conn, _, exit := openStream(t, r, sess)
			defer conn.Close()
			before := r.server.rejected.Load()
			if err := tc.send(conn); err != nil {
				t.Fatal(err)
			}
			expectAck(t, conn, "malformed")
			if got := r.server.rejected.Load() - before; got != 1 {
				t.Fatalf("rejections counted %d, want 1", got)
			}
			if err := <-exit; err == nil {
				t.Fatal("stream survived a malformed frame")
			}
		})
	}
}

// TestServeStreamResumeOpeningRefused pins the retired resume opening
// (frame type 10) from the server's side. A stale client opens a stream
// with one, carrying the owner's genuine ticket resume in the retired
// layout. The stream answers with one malformed ack, counts one
// rejection, creates no session and closes. The ticket is not spent, so
// its owner still resumes with it over HTTP.
func TestServeStreamResumeOpeningRefused(t *testing.T) {
	r, ts := httpRig(t)
	r.register(t, "acct")
	sess, cp := r.login(t, "acct")
	sub, resumed := r.buildResume(t, "acct", cp.Ticket, sess.Key)
	body, err := protocol.EncodeBinary(sub)
	if err != nil {
		t.Fatal(err)
	}
	// The retired opening's payload: the frame sequence, the virtual
	// time, then the resume submission behind its 4-byte length.
	payload := binary.BigEndian.AppendUint64(nil, 1)
	payload = binary.BigEndian.AppendUint64(payload, uint64(r.now))
	payload = binary.BigEndian.AppendUint32(payload, uint32(len(body)))
	payload = append(payload, body...)

	sessions, rejected := r.server.SessionCount(), r.server.rejected.Load()
	c1, c2 := net.Pipe()
	defer c1.Close()
	exit := make(chan error, 1)
	go func() { exit <- r.server.ServeStream(c2) }()
	if err := writeFrame(c1, protocol.FrameType(10), payload); err != nil {
		t.Fatal(err)
	}
	if seq := expectAck(t, c1, "malformed"); seq != 0 {
		t.Fatalf("the refusal echoes sequence %d, want 0", seq)
	}
	if err := <-exit; !errors.Is(err, ErrMalformed) {
		t.Fatalf("stream exit %v, want ErrMalformed", err)
	}
	if ft, _, err := protocol.ReadFrame(c1); err == nil {
		t.Fatalf("the server sent a %s frame after the ack", ft)
	}
	if got := r.server.rejected.Load() - rejected; got != 1 {
		t.Fatalf("rejections counted %d, want 1", got)
	}
	if got := r.server.SessionCount(); got != sessions {
		t.Fatalf("%d sessions after the refused opening, want %d", got, sessions)
	}

	req, err := http.NewRequest(http.MethodPost, fmt.Sprintf("%s/trust/resume?now=%d", ts.URL, int64(r.now)), bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", BinaryMIME)
	req.Header.Set("Accept", BinaryMIME)
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("owner's resume over HTTP: %s %q (%v)", resp.Status, resp.Header.Get(ErrorHeader), err)
	}
	page, err := protocol.DecodeAs[protocol.ContentPage](data)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.client.AcceptResumePage(resumed, page); err != nil {
		t.Fatalf("resume page rejected by client: %v", err)
	}
}

// TestServeStreamRetiredFramesRefused pins the retired heartbeat (5)
// and bye (9) frames from the server's side. A stale client sends each
// well-formed in its retired layout on a bound stream: a heartbeat's
// sequence and virtual time, and a bye's empty payload. The stream
// answers with one malformed ack echoing no sequence, counts one
// rejection, sends nothing more and closes with ErrMalformed.
func TestServeStreamRetiredFramesRefused(t *testing.T) {
	r := newRig(t)
	r.register(t, "acct")
	heartbeat := binary.BigEndian.AppendUint64(nil, 9)
	heartbeat = binary.BigEndian.AppendUint64(heartbeat, uint64(4*time.Second))
	for _, tc := range []struct {
		name    string
		ft      protocol.FrameType
		payload []byte
	}{
		{"heartbeat", protocol.FrameType(5), heartbeat},
		{"bye", protocol.FrameType(9), nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sess, _ := r.login(t, "acct")
			conn, _, exit := openStream(t, r, sess)
			defer conn.Close()
			rejected := r.server.rejected.Load()
			if err := writeFrame(conn, tc.ft, tc.payload); err != nil {
				t.Fatal(err)
			}
			if seq := expectAck(t, conn, "malformed"); seq != 0 {
				t.Fatalf("the refusal echoes sequence %d, want 0", seq)
			}
			if err := <-exit; !errors.Is(err, ErrMalformed) {
				t.Fatalf("stream exit %v, want ErrMalformed", err)
			}
			if ft, _, err := protocol.ReadFrame(conn); err == nil {
				t.Fatalf("the server sent a %s frame after the ack", ft)
			}
			if got := r.server.rejected.Load() - rejected; got != 1 {
				t.Fatalf("rejections counted %d, want 1", got)
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
			before := r.server.rejected.Load()
			resp, err := ts.Client().Post(ts.URL+"/trust/page?now=1", tc.ctype, bytes.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest || resp.Header.Get(ErrorHeader) != "malformed" {
				t.Fatalf("status %s, %s %q; want 400 with a malformed code", resp.Status, ErrorHeader, resp.Header.Get(ErrorHeader))
			}
			if got := r.server.rejected.Load() - before; got != 1 {
				t.Fatalf("rejections counted %d, want 1", got)
			}
		})
	}
}
