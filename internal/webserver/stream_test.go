package webserver

import (
	"encoding/binary"
	"errors"
	"io"
	"net"
	"testing"

	"trust/internal/protocol"
)

// openStream dials a net.Pipe into ServeStream and completes the
// hello/welcome handshake by hand, returning the client end, the
// welcome, and the ServeStream exit channel.
func openStream(t *testing.T, r *rig, sess *protocol.Session) (io.ReadWriteCloser, *protocol.StreamWelcome, chan error) {
	t.Helper()
	c1, c2 := net.Pipe()
	exit := make(chan error, 1)
	go func() { exit <- r.server.ServeStream(c2) }()
	hello, err := protocol.BuildStreamHello(sess)
	if err != nil {
		t.Fatal(err)
	}
	hp, err := protocol.EncodeBinary(hello)
	if err != nil {
		t.Fatal(err)
	}
	if err := writeFrame(c1, protocol.FrameHello, hp); err != nil {
		t.Fatal(err)
	}
	ft, payload, err := protocol.ReadFrame(c1)
	if err != nil {
		t.Fatalf("handshake read: %v", err)
	}
	if ft != protocol.FrameWelcome {
		t.Fatalf("handshake got %s frame", ft)
	}
	msg, err := protocol.DecodeBinary(payload)
	if err != nil {
		t.Fatal(err)
	}
	w, ok := msg.(*protocol.StreamWelcome)
	if !ok {
		t.Fatalf("welcome carries %T", msg)
	}
	if err := protocol.AcceptStreamWelcome(sess, w); err != nil {
		t.Fatalf("welcome rejected by client: %v", err)
	}
	return c1, w, exit
}

// writeFrame writes one frame carrying payload verbatim in a single
// write.
func writeFrame(w io.Writer, ft protocol.FrameType, payload []byte) error {
	frame, err := protocol.AppendFrame(nil, ft, payload)
	if err != nil {
		return err
	}
	_, err = w.Write(frame)
	return err
}

// expectAck reads one frame and asserts it is an ack with the given
// code, returning the sequence number the ack correlates to.
func expectAck(t *testing.T, conn io.Reader, wantCode string) uint64 {
	t.Helper()
	ft, payload, err := protocol.ReadFrame(conn)
	if err != nil {
		t.Fatalf("reading ack: %v", err)
	}
	if ft != protocol.FrameAck {
		t.Fatalf("got %s frame, want ack", ft)
	}
	seq, code, detail, err := protocol.DecodeAck(payload)
	if err != nil {
		t.Fatal(err)
	}
	if code != wantCode {
		t.Fatalf("ack code %q (%s), want %q", code, detail, wantCode)
	}
	return seq
}

// metricValue reads one named counter out of the server's telemetry
// schema (metrics.go); the schema and the value row stay index-aligned
// by construction.
func metricValue(t *testing.T, s *Server, name string) int64 {
	t.Helper()
	for i, n := range s.MetricsSchema() {
		if n == name {
			return s.AppendMetrics(nil)[i]
		}
	}
	t.Fatalf("metric %q not in schema", name)
	return 0
}

func TestServeStreamBatchHappyPath(t *testing.T) {
	r := newRig(t)
	r.register(t, "acct")
	sess, _ := r.login(t, "acct")
	conn, w, _ := openStream(t, r, sess)
	defer conn.Close()

	// The welcome seeds the deterministic chain: the client can build a
	// 3-request batch whose later requests echo nonces the server has
	// not issued yet.
	r.touchButton(t)
	var reqs []*protocol.PageRequest
	for i := 0; i < 3; i++ {
		nonce := protocol.StreamNonce(sess.Key, w.NonceSeed, uint64(i))
		req, err := r.client.BuildPageRequestAt(r.now, sess, "home", 12, nonce)
		if err != nil {
			t.Fatal(err)
		}
		reqs = append(reqs, req)
	}
	payload, err := protocol.AppendTouchBatchFrame(nil, 1, r.now, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(payload); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		ft, pp, err := protocol.ReadFrame(conn)
		if err != nil {
			t.Fatalf("response %d: %v", i, err)
		}
		if ft != protocol.FramePage {
			t.Fatalf("response %d is %s", i, ft)
		}
		seq, index, cp, err := new(protocol.Decoder).DecodePageFrame(pp)
		if err != nil {
			t.Fatal(err)
		}
		if seq != 1 || index != i {
			t.Fatalf("response %d labeled %d/%d", i, seq, index)
		}
		if err := r.client.AcceptContentPage(sess, cp); err != nil {
			t.Fatalf("response %d rejected: %v", i, err)
		}
		if want := protocol.StreamNonce(sess.Key, w.NonceSeed, uint64(i+1)); cp.Nonce != want {
			t.Fatalf("response %d nonce off the chain", i)
		}
	}
	if got, _ := SessionRequestsForTest(r.server, sess.ID); got != 3 {
		t.Fatalf("session served %d requests, want 3", got)
	}
}

func TestServeStreamHelloRejections(t *testing.T) {
	r := newRig(t)
	r.register(t, "acct")
	sess, _ := r.login(t, "acct")

	dial := func() (io.ReadWriteCloser, chan error) {
		c1, c2 := net.Pipe()
		exit := make(chan error, 1)
		go func() { exit <- r.server.ServeStream(c2) }()
		return c1, exit
	}
	sendHello := func(conn io.Writer, h *protocol.StreamHello) {
		t.Helper()
		hp, err := protocol.EncodeBinary(h)
		if err != nil {
			t.Fatal(err)
		}
		if err := writeFrame(conn, protocol.FrameHello, hp); err != nil {
			t.Fatal(err)
		}
	}

	// Bad MAC.
	conn, exit := dial()
	h, _ := protocol.BuildStreamHello(sess)
	h.MAC[0] ^= 1
	sendHello(conn, h)
	expectAck(t, conn, "bad-mac")
	if err := <-exit; !errors.Is(err, ErrBadMAC) {
		t.Fatalf("bad-mac hello exit: %v", err)
	}
	conn.Close()

	// Unknown session.
	conn, exit = dial()
	bogus := &protocol.Session{Domain: sess.Domain, Account: sess.Account, ID: "no-such-session", Key: sess.Key}
	h, _ = protocol.BuildStreamHello(bogus)
	sendHello(conn, h)
	expectAck(t, conn, "unknown-session")
	<-exit
	conn.Close()

	// First frame is not a hello.
	conn, exit = dial()
	ack, err := protocol.AppendAckFrame(nil, 1, "", "")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(ack); err != nil {
		t.Fatal(err)
	}
	expectAck(t, conn, "malformed")
	if err := <-exit; !errors.Is(err, ErrMalformed) {
		t.Fatalf("non-hello exit: %v", err)
	}
	conn.Close()

	if r.server.tel.streams.Load() != 0 {
		t.Fatal("rejected handshakes left registered streams")
	}
}

// TestServeStreamDuplicateBatchIdempotent verifies at-least-once
// delivery safety: replaying a delivered touch-batch frame cannot
// double-apply — the nonces were consumed by the first pass, so every
// duplicate dies on bad-nonce with no session-state side effects.
func TestServeStreamDuplicateBatchIdempotent(t *testing.T) {
	r := newRig(t)
	r.register(t, "acct")
	sess, _ := r.login(t, "acct")
	conn, w, _ := openStream(t, r, sess)
	defer conn.Close()

	r.touchButton(t)
	req, err := r.client.BuildPageRequestAt(r.now, sess, "home", 12, protocol.StreamNonce(sess.Key, w.NonceSeed, 0))
	if err != nil {
		t.Fatal(err)
	}
	payload, err := protocol.AppendTouchBatchFrame(nil, 1, r.now, []*protocol.PageRequest{req})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(payload); err != nil {
		t.Fatal(err)
	}
	ft, pp, err := protocol.ReadFrame(conn)
	if err != nil || ft != protocol.FramePage {
		t.Fatalf("first delivery: %s %v", ft, err)
	}
	_, _, cp, err := new(protocol.Decoder).DecodePageFrame(pp)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.client.AcceptContentPage(sess, cp); err != nil {
		t.Fatal(err)
	}

	// Replay the identical frame: rejected, nothing applied.
	before, _ := SessionRequestsForTest(r.server, sess.ID)
	if _, err := conn.Write(payload); err != nil {
		t.Fatal(err)
	}
	expectAck(t, conn, "bad-nonce")
	if after, _ := SessionRequestsForTest(r.server, sess.ID); after != before {
		t.Fatalf("duplicate advanced the session: %d -> %d", before, after)
	}

	// The chain is intact: the next in-order request still succeeds.
	r.touchButton(t)
	req2, err := r.client.BuildPageRequestAt(r.now, sess, "home", 12, sess.LastNonce)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := protocol.AppendTouchBatchFrame(nil, 2, r.now, []*protocol.PageRequest{req2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(p2); err != nil {
		t.Fatal(err)
	}
	if ft, _, err := protocol.ReadFrame(conn); err != nil || ft != protocol.FramePage {
		t.Fatalf("post-duplicate request: %s %v", ft, err)
	}
}

// TestServeStreamReplayedHelloStallsButNeverAdvances pins the hello's
// security bound: an attacker replaying a captured hello on a new
// connection resets the session's nonce chain (a stall the legitimate
// device recovers from via resync) but can never advance the session —
// the replayed connection holds no session key, so every request it
// could send dies on MAC or nonce.
func TestServeStreamReplayedHelloStallsButNeverAdvances(t *testing.T) {
	r := newRig(t)
	r.register(t, "acct")
	sess, _ := r.login(t, "acct")
	conn, w, _ := openStream(t, r, sess)
	defer conn.Close()

	// Capture the hello bytes and replay them on a second connection.
	hello, _ := protocol.BuildStreamHello(sess)
	hp, _ := protocol.EncodeBinary(hello)
	c1, c2 := net.Pipe()
	go r.server.ServeStream(c2)
	if err := writeFrame(c1, protocol.FrameHello, hp); err != nil {
		t.Fatal(err)
	}
	if ft, _, err := protocol.ReadFrame(c1); err != nil || ft != protocol.FrameWelcome {
		t.Fatalf("replayed hello: %s %v", ft, err)
	}

	// The replay reset the chain: the device's first-conn nonce is now
	// stale, so its request stalls on bad-nonce...
	before, _ := SessionRequestsForTest(r.server, sess.ID)
	r.touchButton(t)
	req, err := r.client.BuildPageRequestAt(r.now, sess, "home", 12, protocol.StreamNonce(sess.Key, w.NonceSeed, 0))
	if err != nil {
		t.Fatal(err)
	}
	payload, err := protocol.AppendTouchBatchFrame(nil, 1, r.now, []*protocol.PageRequest{req})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(payload); err != nil {
		t.Fatal(err)
	}
	expectAck(t, conn, "bad-nonce")
	if after, _ := SessionRequestsForTest(r.server, sess.ID); after != before {
		t.Fatalf("stalled request advanced the session: %d -> %d", before, after)
	}
	c1.Close()
}

// TestServeStreamMidFrameCutTearsDownCleanly verifies a connection cut
// mid-frame kills the read loop with a framing error and unregisters
// the stream, while the session itself survives untouched.
func TestServeStreamMidFrameCutTearsDownCleanly(t *testing.T) {
	r := newRig(t)
	r.register(t, "acct")
	sess, _ := r.login(t, "acct")
	conn, _, exit := openStream(t, r, sess)

	if r.server.tel.streams.Load() != 1 {
		t.Fatal("stream not registered")
	}
	// Write the first half of a frame, then vanish.
	var partial [7]byte
	partial[0] = byte(protocol.FrameTouchBatch)
	partial[4] = 64 // claims a 64-byte payload; only 2 arrive
	if _, err := conn.Write(partial[:]); err != nil {
		t.Fatal(err)
	}
	conn.Close()
	if err := <-exit; err == nil {
		t.Fatal("mid-frame cut reported as clean teardown")
	}
	if r.server.tel.streams.Load() != 0 {
		t.Fatal("dead stream still registered")
	}
	// The session is intact: the ordinary HTTP path still serves it
	// after a resync (the cut never reached the handlers).
	rr, err := r.client.BuildResync(sess)
	if err != nil {
		t.Fatal(err)
	}
	cp, err := r.server.HandleResync(r.now, rr)
	if err != nil {
		t.Fatalf("session damaged by cut: %v", err)
	}
	if err := r.client.AcceptContentPage(sess, cp); err != nil {
		t.Fatal(err)
	}
}

// TestServeStreamCloseCleanTeardown verifies the stream's one
// teardown: the device closes its connection between frames, and the
// read loop returns nil and unregisters the stream.
func TestServeStreamCloseCleanTeardown(t *testing.T) {
	r := newRig(t)
	r.register(t, "acct")
	sess, _ := r.login(t, "acct")
	conn, _, exit := openStream(t, r, sess)
	conn.Close()
	if err := <-exit; err != nil {
		t.Fatalf("close teardown: %v", err)
	}
	if r.server.tel.streams.Load() != 0 {
		t.Fatal("stream still registered after close")
	}
}

// TestServeStreamWelcomeNonceMatchesChain pins the seed→chain binding:
// after the hello the session's nonce is exactly StreamNonce(key,
// seed, 0), so HTTP and stream requests interleave on one shared
// lastNonce.
func TestServeStreamWelcomeNonceMatchesChain(t *testing.T) {
	r := newRig(t)
	r.register(t, "acct")
	sess, _ := r.login(t, "acct")
	conn, w, _ := openStream(t, r, sess)
	defer conn.Close()
	if sess.LastNonce != protocol.StreamNonce(sess.Key, w.NonceSeed, 0) {
		t.Fatal("client chain head mismatch")
	}
	// An HTTP-path page request echoing the chain head succeeds: the
	// transports share the session's nonce state.
	r.touchButton(t)
	req, err := r.client.BuildPageRequestAt(r.now, sess, "home", 12, sess.LastNonce)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.server.HandlePageRequest(r.now, req); err != nil {
		t.Fatalf("HTTP request off the stream chain head: %v", err)
	}
}

// TestServeStreamMalformedFrameAcksEchoSeq pins ack/sequence
// correlation on the undecodable-frame paths: a payload that fails to
// decode still leads with its 8-byte sequence, and the malformed ack
// must echo it rather than a hardcoded zero. The retired heartbeat (5)
// and policy-push (6) types bear no sequence and are refused like any
// unknown type. Each refusal counts one rejection.
func TestServeStreamMalformedFrameAcksEchoSeq(t *testing.T) {
	r := newRig(t)
	r.register(t, "acct")
	cases := []struct {
		name      string
		ft        protocol.FrameType
		lead, seq uint64 // the sequence the payload leads with, the one the ack echoes
	}{
		{"touch-batch", protocol.FrameTouchBatch, 77, 77},
		{"resync", protocol.FrameResync, 88, 88},
		{"heartbeat", protocol.FrameType(5), 99, 0},
		{"retired", protocol.FrameType(6), 66, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sess, _ := r.login(t, "acct")
			conn, _, exit := openStream(t, r, sess)
			defer conn.Close()
			rejected := r.server.rejected.Load()
			// A valid sequence prefix followed by garbage the decoder
			// must reject (a bare seq is itself undecodable for the
			// known types: each payload carries required fields beyond
			// it).
			payload := binary.BigEndian.AppendUint64(nil, tc.lead)
			payload = append(payload, 0xde, 0xad)
			if err := writeFrame(conn, tc.ft, payload); err != nil {
				t.Fatal(err)
			}
			if seq := expectAck(t, conn, "malformed"); seq != tc.seq {
				t.Fatalf("malformed ack correlates to seq %d, want %d", seq, tc.seq)
			}
			if err := <-exit; !errors.Is(err, ErrMalformed) {
				t.Fatalf("read loop ended with %v, want ErrMalformed", err)
			}
			if got := r.server.rejected.Load() - rejected; got != 1 {
				t.Fatalf("%d rejections counted, want 1", got)
			}
		})
	}
}

// TestServeStreamMalformedRequestClosesConnection pins that every
// malformed ack ends the stream: a well-formed page request or resync
// naming another domain is acked malformed, echoing its sequence, and
// then the read loop returns the rejection and closes the connection,
// as it does after an undecodable frame. A device may therefore drop
// its connection on any malformed ack.
func TestServeStreamMalformedRequestClosesConnection(t *testing.T) {
	r := newRig(t)
	r.register(t, "acct")
	for _, resync := range []bool{false, true} {
		sess, _ := r.login(t, "acct")
		conn, w, exit := openStream(t, r, sess)
		r.touchButton(t)
		var frame []byte
		var err error
		if resync {
			rr := &protocol.ResyncRequest{Domain: "www.evil.com", Account: sess.Account, SessionID: sess.ID}
			frame, err = protocol.AppendResyncFrame(nil, 4, rr)
		} else {
			req, berr := r.client.BuildPageRequestAt(r.now, sess, "home", 12, protocol.StreamNonce(sess.Key, w.NonceSeed, 0))
			if berr != nil {
				t.Fatal(berr)
			}
			req.Domain = "www.evil.com"
			frame, err = protocol.AppendTouchBatchFrame(nil, 4, r.now, []*protocol.PageRequest{req})
		}
		if err != nil {
			t.Fatal(err)
		}
		if _, err := conn.Write(frame); err != nil {
			t.Fatal(err)
		}
		if seq := expectAck(t, conn, "malformed"); seq != 4 {
			t.Fatalf("resync=%v: malformed ack correlates to seq %d, want 4", resync, seq)
		}
		// A net.Pipe write blocks until the peer reads or closes: a
		// server still serving reads this frame, a closed one fails it.
		if err := writeFrame(conn, protocol.FrameResync, nil); err == nil {
			conn.Close()
			t.Fatalf("resync=%v: connection still open after the malformed ack", resync)
		}
		if err := <-exit; !errors.Is(err, ErrMalformed) {
			t.Fatalf("resync=%v: read loop ended with %v, want ErrMalformed", resync, err)
		}
		conn.Close()
	}
}
