package webserver

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"sort"
	"sync"
	"time"

	"trust/internal/frame"
	"trust/internal/pki"
	"trust/internal/protocol"
)

// Streamed session transport, server side. Each connected device gets
// one long-lived connection and one read-loop goroutine; all state the
// loop touches lives in the existing sharded stores (sessions,
// accounts, nonces) plus a per-connection struct owned by the loop, so
// streams add no locks to the request hot path. The only cross-
// connection structure is the stream registry, touched at
// connect/teardown and on policy pushes — never per request.
//
// Wire shape (docs/protocol.md, "Stream framing"): the first frame
// must be a MAC-proof hello binding the connection to an established
// session; the server answers with a welcome carrying a fresh nonce
// seed. From then on request nonces walk the chain
// StreamNonce(key, seed, i), so the streamed hot path validates and
// rotates nonces without ever drawing server entropy (mintNonce's
// entropy lock is the one piece of global state the per-request path
// still shared).

// MaxHeartbeatSkew bounds how far past the connection's observed
// session time a heartbeat may jump it forward. Forward time is the
// client's prerogative on every transport (HTTP requests carry their
// own "now" too), but a jump of this size would expire every live
// nonce and ticket epoch at once, which no legitimate virtual clock
// does — the connection dies with a typed malformed ack instead. The
// bound applies only once the connection has observed a timestamp:
// the first time signal on a fresh hello-bound stream is accepted
// as-is, whatever the device's clock says.
const MaxHeartbeatSkew = 24 * time.Hour

// streamConn is one live device stream. The read loop owns rwc reads,
// seq, and lastNow; writes are serialized by wmu because policy pushes
// arrive from other goroutines.
type streamConn struct {
	s    *Server
	rwc  io.ReadWriteCloser
	sess *session
	seed []byte

	chain   *protocol.NonceChain // read loop only (created before the loop starts)
	seq     uint64               // nonce-chain position, read loop only
	lastNow time.Duration        // latest client-reported virtual time, read loop only
	out     []byte               // batch-response scratch, read loop only

	wmu     sync.Mutex // serializes frame writes (responses vs policy push)
	pushSeq uint64     // policy-push counter, under wmu
}

// nextNonce advances the connection's nonce chain; handlePageRequest
// calls it exactly once per accepted request, under the session mutex.
func (sc *streamConn) nextNonce() protocol.Nonce {
	sc.seq++
	return sc.chain.At(sc.seq)
}

// write sends one frame under the write mutex.
func (sc *streamConn) write(t protocol.FrameType, payload []byte) error {
	sc.wmu.Lock()
	defer sc.wmu.Unlock()
	return protocol.WriteFrame(sc.rwc, t, payload)
}

// writeRaw flushes pre-framed bytes in a single write under the write
// mutex. Frames are self-delimiting, so concatenating a whole batch's
// responses into one write keeps the wire identical while paying one
// syscall instead of one per page.
func (sc *streamConn) writeRaw(b []byte) error {
	if len(b) == 0 {
		return nil
	}
	sc.wmu.Lock()
	defer sc.wmu.Unlock()
	_, err := sc.rwc.Write(b)
	return err
}

// writeAck reports a request rejection (or acknowledges a bye).
func (sc *streamConn) writeAck(seq uint64, code, detail string) error {
	return sc.write(protocol.FrameAck, protocol.EncodeAck(seq, code, detail))
}

// ServeStream runs the per-connection read loop until the peer
// disconnects, misbehaves, or sends a bye frame. It returns nil on
// clean teardown (bye or EOF between frames) and the fatal error
// otherwise; either way the connection is closed on return. Callers
// typically run it in a goroutine per accepted connection
// (ServeStreamListener) — net.Pipe works just as well for tests.
func (s *Server) ServeStream(rwc io.ReadWriteCloser) error {
	defer rwc.Close()

	// All frame reads go through one buffered reader: ReadFrame issues
	// two reads per frame (header, payload), and on a raw socket each
	// would be its own syscall.
	br := bufio.NewReaderSize(rwc, 32<<10)

	// The first frame must bind the connection to a session: a hello
	// proving an established session's key, or a resume presenting a
	// ticket (which creates the session right here, saving the resumed
	// login an HTTP round trip). Anything else is a protocol violation
	// answered with a malformed ack.
	ft, payload, err := protocol.ReadFrame(br)
	if err != nil {
		return err
	}
	var sc *streamConn
	var opening []byte // pre-framed welcome (plus resume content page)
	switch ft {
	case protocol.FrameHello:
		msg, err := protocol.DecodeBinary(payload)
		if err != nil {
			_ = protocol.WriteFrame(rwc, protocol.FrameAck, protocol.EncodeAck(0, "malformed", err.Error()))
			return err
		}
		hello, ok := msg.(*protocol.StreamHello)
		if !ok {
			_ = protocol.WriteFrame(rwc, protocol.FrameAck, protocol.EncodeAck(0, "malformed", fmt.Sprintf("hello frame carries %T", msg)))
			return fmt.Errorf("%w: hello frame carries %T", ErrMalformed, msg)
		}
		conn, welcome, herr := s.acceptStreamHello(rwc, hello)
		if herr != nil {
			// Counted before the ack goes out: the peer may read the
			// counter as soon as it holds the ack.
			s.reject(herr)
			_ = protocol.WriteFrame(rwc, protocol.FrameAck, protocol.EncodeAck(0, wireCode(herr), herr.Error()))
			return herr
		}
		wp, err := protocol.EncodeBinary(welcome)
		if err != nil {
			return err
		}
		if opening, err = protocol.AppendFrame(opening, protocol.FrameWelcome, wp); err != nil {
			return err
		}
		sc = conn
	case protocol.FrameResume:
		seq, rnow, sub, err := protocol.DecodeResumeFrame(payload)
		if err != nil {
			_ = protocol.WriteFrame(rwc, protocol.FrameAck, protocol.EncodeAck(protocol.FrameSeq(ft, payload), "malformed", err.Error()))
			return err
		}
		conn, welcome, cp, herr := s.acceptStreamResume(rwc, rnow, sub)
		if herr != nil {
			// verifyResume already counted the rejection.
			_ = protocol.WriteFrame(rwc, protocol.FrameAck, protocol.EncodeAck(seq, wireCode(herr), herr.Error()))
			return herr
		}
		wp, err := protocol.EncodeBinary(welcome)
		if err != nil {
			return err
		}
		if opening, err = protocol.AppendFrame(opening, protocol.FrameWelcome, wp); err != nil {
			return err
		}
		// The resumed session's first content page (nonce chain head,
		// fresh ticket) rides directly behind the welcome, echoing the
		// resume frame's sequence number.
		if opening, err = protocol.AppendPageFrame(opening, seq, 0, cp); err != nil {
			return err
		}
		conn.lastNow = rnow
		sc = conn
	default:
		_ = protocol.WriteFrame(rwc, protocol.FrameAck, protocol.EncodeAck(0, "malformed", "expected hello or resume, got "+ft.String()))
		return fmt.Errorf("%w: stream opened with %s frame", ErrMalformed, ft)
	}
	// Register before the opening frames go out, holding the write
	// mutex across both so no policy push can overtake the welcome on
	// the wire — and so a connection whose client has seen the welcome
	// is guaranteed to be in the push registry.
	sc.wmu.Lock()
	s.registerStream(sc)
	_, werr := sc.rwc.Write(opening)
	sc.wmu.Unlock()
	defer s.unregisterStream(sc)
	if werr != nil {
		return werr
	}

	// The loop's decoder reuses one payload buffer and interns the
	// fields every request repeats; it is owned by this goroutine.
	var dec protocol.Decoder
	for {
		ft, payload, err := dec.ReadFrame(br)
		if err != nil {
			if errors.Is(err, io.EOF) {
				// The peer vanished between frames: normal teardown for a
				// device that lost power or link. Mid-frame cuts surface
				// as ErrUnexpectedEOF instead and are reported.
				return nil
			}
			return err
		}
		switch ft {
		case protocol.FrameTouchBatch:
			tb, err := dec.DecodeTouchBatch(payload)
			if err != nil {
				_ = sc.writeAck(protocol.FrameSeq(ft, payload), "malformed", err.Error())
				return err
			}
			// Session time only moves forward: a batch stamped earlier
			// than what this connection already saw is applied at its own
			// timestamp (exactly like the HTTP path), but it cannot drag
			// lastNow — and with it resync and expiry decisions — back.
			if tb.Now > sc.lastNow {
				sc.lastNow = tb.Now
			}
			if err := sc.handleBatch(tb); err != nil {
				return err
			}
		case protocol.FrameResync:
			seq, rr, err := protocol.DecodeResyncFrame(payload)
			if err != nil {
				_ = sc.writeAck(protocol.FrameSeq(ft, payload), "malformed", err.Error())
				return err
			}
			cp, herr := s.handleResync(sc.lastNow, rr, sc.nextNonce)
			if herr != nil {
				if err := sc.writeAck(seq, wireCode(herr), herr.Error()); err != nil {
					return err
				}
				continue
			}
			pp, err := protocol.EncodePageFrame(seq, 0, cp)
			if err != nil {
				return err
			}
			if err := sc.write(protocol.FramePage, pp); err != nil {
				return err
			}
		case protocol.FrameHeartbeat:
			seq, now, err := protocol.DecodeHeartbeat(payload)
			if err != nil {
				_ = sc.writeAck(protocol.FrameSeq(ft, payload), "malformed", err.Error())
				return err
			}
			// Heartbeat time advances the session clock under a
			// monotonicity contract (docs/protocol.md): backwards values
			// are clamped — a faulted or malicious client must not move
			// session time back past nonce/ticket expiry decisions — and
			// a jump past MaxHeartbeatSkew kills the connection with a
			// typed ack. The echo stays verbatim either way: it reports
			// what the server heard, which is what lets the device detect
			// in-flight tampering by comparing against what it sent.
			switch {
			case sc.lastNow > 0 && now > sc.lastNow+MaxHeartbeatSkew:
				s.tel.hbRejected.Add(1)
				err := fmt.Errorf("%w: heartbeat time %v jumps %v past session time %v", ErrMalformed, now, now-sc.lastNow, sc.lastNow)
				_ = sc.writeAck(seq, wireCode(err), err.Error())
				return err
			case now < sc.lastNow:
				s.tel.hbClamped.Add(1)
			default:
				sc.lastNow = now
			}
			if err := sc.write(protocol.FrameHeartbeat, protocol.EncodeHeartbeat(seq, now)); err != nil {
				return err
			}
		case protocol.FrameBye:
			return nil
		default:
			_ = sc.writeAck(protocol.FrameSeq(ft, payload), "malformed", "unexpected "+ft.String()+" frame")
			return fmt.Errorf("%w: unexpected %s frame on stream", ErrMalformed, ft)
		}
	}
}

// handleBatch applies a touch batch in order, answering each request
// with a page frame. The first rejection acks the error and abandons
// the rest of the batch — later requests echo nonces the chain will
// now never reach, so they could only fail too. Responses are framed
// directly into the connection's scratch buffer and go out as one
// write: same frames, same order, one syscall for the whole batch and
// no intermediate payload copies.
func (sc *streamConn) handleBatch(tb *protocol.TouchBatch) error {
	out := sc.out[:0]
	var err error
	for i, req := range tb.Requests {
		cp, herr := sc.s.handlePageRequest(tb.Now, req, sc.nextNonce)
		if herr != nil {
			// Flush the pages already answered, then the ack that ends
			// the batch — the wire order a per-frame writer would have
			// produced.
			out, err = protocol.AppendFrame(out, protocol.FrameAck, protocol.EncodeAck(tb.Seq, wireCode(herr), herr.Error()))
			if err != nil {
				return err
			}
			sc.out = out[:0]
			return sc.writeRaw(out)
		}
		out, err = protocol.AppendPageFrame(out, tb.Seq, i, cp)
		if err != nil {
			return err
		}
	}
	sc.out = out[:0]
	return sc.writeRaw(out)
}

// acceptStreamHello validates a hello against the session store and
// resets the session's nonce to the head of a fresh per-connection
// chain. The single entropy draw here (the seed) is the only one the
// whole stream will ever make.
func (s *Server) acceptStreamHello(rwc io.ReadWriteCloser, h *protocol.StreamHello) (*streamConn, *protocol.StreamWelcome, error) {
	if h == nil || h.Domain != s.domain {
		return nil, nil, fmt.Errorf("%w: stream hello", ErrMalformed)
	}
	sess, ok := s.sessions.get(h.SessionID)
	if !ok || sess.account != h.Account {
		return nil, nil, ErrUnknownSession
	}
	if !protocol.VerifyMAC(pki.NewMACer(sess.key), h, h.MAC) {
		return nil, nil, ErrBadMAC
	}
	seed := make([]byte, 16)
	sess.mu.Lock()
	if sess.revoked {
		sess.mu.Unlock()
		return nil, nil, ErrUnknownSession
	}
	s.entropyMu.Lock()
	s.entropy.Read(seed)
	s.entropyMu.Unlock()
	chain := protocol.NewNonceChain(sess.key, seed)
	sess.lastNonce = chain.At(0)
	sess.mu.Unlock()

	p := s.riskPolicy()
	welcome := &protocol.StreamWelcome{
		Domain:      s.domain,
		SessionID:   sess.id,
		NonceSeed:   seed,
		Window:      p.Window,
		MinVerified: p.MinVerified,
	}
	welcome.MAC = protocol.SealMAC(pki.NewMACer(sess.key), welcome)
	return &streamConn{s: s, rwc: rwc, sess: sess, seed: seed, chain: chain}, welcome, nil
}

// acceptStreamResume is the stream-first resume handshake: verify the
// presented ticket exactly as the HTTP handler does (shared
// verifyResume core), then create the resumed session already bound to
// a per-connection nonce chain — the session's first nonce is the
// chain head, so the device starts streaming page requests without any
// interim HTTP hop. Returns the connection, the MAC'd welcome, and the
// first content page (carrying the replacement ticket); the caller
// writes welcome-then-page before registering the stream.
func (s *Server) acceptStreamResume(rwc io.ReadWriteCloser, now time.Duration, sub *protocol.ResumeSubmit) (*streamConn, *protocol.StreamWelcome, *protocol.ContentPage, error) {
	st, acct, err := s.verifyResume(now, sub)
	if err != nil {
		return nil, nil, nil, err
	}
	sess := &session{id: s.newSessionID(), account: acct.ID}
	sess.key = protocol.ResumeKey(st.key, sess.id)
	seed := make([]byte, 16)
	s.entropyMu.Lock()
	s.entropy.Read(seed)
	s.entropyMu.Unlock()
	chain := protocol.NewNonceChain(sess.key, seed)
	cp := s.contentPage(sess, s.PageForAction("login"), chain.At(0), s.issueTicket(now, acct, sess.key))
	s.sessions.put(sess)
	s.accounts.clearFailures(acct.ID)
	s.audit.Append(frame.AuditEntry{Account: acct.ID, PageURL: s.loginURL, Hash: sub.FrameHash, At: now})
	s.accepted.Add(1)
	p := s.riskPolicy()
	welcome := &protocol.StreamWelcome{
		Domain:      s.domain,
		SessionID:   sess.id,
		NonceSeed:   seed,
		Window:      p.Window,
		MinVerified: p.MinVerified,
	}
	welcome.MAC = protocol.SealMAC(pki.NewMACer(sess.key), welcome)
	return &streamConn{s: s, rwc: rwc, sess: sess, seed: seed, chain: chain}, welcome, cp, nil
}

// registerStream adds a connection to the policy-push registry.
func (s *Server) registerStream(sc *streamConn) {
	s.streamsMu.Lock()
	if s.streams == nil {
		s.streams = make(map[*streamConn]struct{})
	}
	s.streams[sc] = struct{}{}
	s.streamsMu.Unlock()
}

// unregisterStream removes a connection from the registry.
func (s *Server) unregisterStream(sc *streamConn) {
	s.streamsMu.Lock()
	delete(s.streams, sc)
	s.streamsMu.Unlock()
}

// StreamCount reports the number of live device streams.
func (s *Server) StreamCount() int {
	s.streamsMu.Lock()
	defer s.streamsMu.Unlock()
	return len(s.streams)
}

// pushPolicy sends a MAC'd policy update to every live stream, in
// session-id order so the push sequence is deterministic. A write
// error just means that connection is already dying; its read loop
// will notice and tear it down.
func (s *Server) pushPolicy(p RiskPolicy) {
	s.streamsMu.Lock()
	conns := make([]*streamConn, 0, len(s.streams))
	for sc := range s.streams {
		conns = append(conns, sc)
	}
	s.streamsMu.Unlock()
	sort.Slice(conns, func(i, j int) bool { return conns[i].sess.id < conns[j].sess.id })
	for _, sc := range conns {
		sc.wmu.Lock()
		sc.pushSeq++
		msg := &protocol.PolicyPush{
			Domain:      s.domain,
			SessionID:   sc.sess.id,
			Window:      p.Window,
			MinVerified: p.MinVerified,
			Seq:         sc.pushSeq,
		}
		msg.MAC = protocol.SealMAC(pki.NewMACer(sc.sess.key), msg)
		if payload, err := protocol.EncodeBinary(msg); err == nil {
			_ = protocol.WriteFrame(sc.rwc, protocol.FramePolicyPush, payload)
		}
		sc.wmu.Unlock()
	}
}

// ServeStreamListener accepts stream connections until the listener is
// closed, running one ServeStream goroutine per connection. It is the
// raw-socket counterpart of Handler(): the trustserver binary (and
// loadgen) point a TCP listener here while HTTP keeps serving the
// request/response fallback on its own port.
func (s *Server) ServeStreamListener(l net.Listener) {
	for {
		conn, err := l.Accept()
		if err != nil {
			return
		}
		go func() { _ = s.ServeStream(conn) }()
	}
}
