package webserver

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"time"

	"trust/internal/pki"
	"trust/internal/protocol"
)

// Streamed session transport, server side. Each connected device gets
// one long-lived connection and one read-loop goroutine; all state the
// loop touches lives in the existing sharded stores (sessions,
// accounts, nonces) plus a per-connection struct owned by the loop, so
// streams add no locks to the request hot path. The read loop is the
// only writer of its connection; the only cross-connection state is the
// live-stream counter, moved at connect and teardown.
//
// Wire shape (docs/protocol.md, "Stream framing"): the first frame
// must be a MAC-proof hello binding the connection to an established
// session; the server answers with a welcome carrying a fresh nonce
// seed. From then on request nonces walk the chain
// StreamNonce(key, seed, i), so the streamed hot path validates and
// rotates nonces without ever drawing server entropy (mintNonce's
// entropy lock is the one piece of global state the per-request path
// still shared).

// streamConn is one live device stream, owned by its read loop: the
// loop alone reads and writes rwc and moves seq and lastNow.
type streamConn struct {
	s    *Server
	rwc  io.ReadWriteCloser
	sess *session
	seed []byte

	chain   *protocol.NonceChain // read loop only (created before the loop starts)
	seq     uint64               // nonce-chain position, read loop only
	lastNow time.Duration        // latest client-reported virtual time, read loop only
	out     []byte               // outbound frame scratch, read loop only

	// The read loop's reused messages: the touch batch each frame is
	// decoded into (valid until the next frame) and the content page
	// each answer is built in, framed into out before the next one.
	batch protocol.TouchBatch
	page  protocol.ContentPage
}

// nextNonce advances the connection's nonce chain; handlePageRequest
// calls it exactly once per accepted request, under the session mutex.
func (sc *streamConn) nextNonce() protocol.Nonce {
	sc.seq++
	return sc.chain.At(sc.seq)
}

// bind ties the connection to sess and draws its nonce-chain seed — the
// only entropy draw a stream ever makes. It returns the chain head, the
// nonce the session holds once the welcome is out. The caller holds
// sess's mutex.
func (sc *streamConn) bind(sess *session) protocol.Nonce {
	sc.sess = sess
	sc.seed = make([]byte, 16)
	sc.s.entropyMu.Lock()
	sc.s.entropy.Read(sc.seed)
	sc.s.entropyMu.Unlock()
	sc.chain = protocol.NewNonceChain(sess.key, sc.seed)
	return sc.chain.At(0)
}

// flush writes the frames the read loop appended to out in a single
// write and keeps out as the connection's scratch. Frames are
// self-delimiting, so concatenating a whole batch's responses into one
// write keeps the wire identical while paying one syscall instead of
// one per page.
func (sc *streamConn) flush(out []byte, err error) error {
	if err != nil {
		return err
	}
	sc.out = out[:0]
	if len(out) == 0 {
		return nil
	}
	_, err = sc.rwc.Write(out)
	return err
}

// batchSlots bounds the request slots a connection keeps between
// frames. A frame may carry maxBatchRequests (256) requests; keeping
// that many would cost an idle stream kilobytes, while the single
// request of a touch needs one.
const batchSlots = 4

// maxKeptMAC bounds the MAC storage a kept request slot retains: a
// SHA-256 tag is 32 bytes, and a forged request's longer MAC is not
// worth holding on to.
const maxKeptMAC = 64

// releaseBatch ends the decoded batch's use and bounds what the
// connection keeps of it: at most batchSlots empty requests, each with
// at most maxKeptMAC bytes of MAC storage, so a long nonce or field a
// peer sent is not held while the stream idles.
func (sc *streamConn) releaseBatch() {
	reqs := sc.batch.Requests
	if cap(reqs) > batchSlots {
		sc.batch = protocol.TouchBatch{}
		return
	}
	for _, r := range reqs[:cap(reqs)] {
		if r == nil {
			continue
		}
		mac := r.MAC[:0]
		if cap(mac) > maxKeptMAC {
			mac = nil
		}
		*r = protocol.PageRequest{MAC: mac}
	}
}

// reject is the stream's one rejection path. It counts err — before the
// ack goes out, since the peer may read the counter as soon as it holds
// the ack — then appends the typed ack echoing seq to out (the pages a
// batch answered before the rejection, or nothing) and flushes it. The
// shared handler cores leave counting to the transport that answers, so
// every rejection is counted exactly once. Callers that tear the
// connection down after the ack drop the write error: the connection
// closes either way.
func (sc *streamConn) reject(out []byte, seq uint64, err error) error {
	sc.s.reject(err)
	return sc.flush(protocol.AppendAckFrame(out, seq, wireCode(err), err.Error()))
}

// rejectRequest rejects one request on a bound stream. A malformed
// one (a request naming another domain) then ends the connection, like
// every other malformed ack, so a device may drop its connection on
// any malformed ack: it is closed either way.
func (sc *streamConn) rejectRequest(out []byte, seq uint64, herr error) error {
	if err := sc.reject(out, seq, herr); err != nil || !errors.Is(herr, ErrMalformed) {
		return err
	}
	return herr
}

// malformed rejects a frame that does not decode, or that its place in
// the stream does not allow, and returns the rejection. The ack echoes
// the sequence the payload's leading bytes carry when the frame type
// bears one — an undecodable frame usually still does — so the client
// can match the rejection to the request it answers.
func (sc *streamConn) malformed(ft protocol.FrameType, payload []byte, cause error) error {
	err := fmt.Errorf("%w: %s frame: %v", ErrMalformed, ft, cause)
	_ = sc.reject(sc.out[:0], protocol.FrameSeq(ft, payload), err)
	return err
}

// ServeStream runs the per-connection read loop until the peer
// disconnects or misbehaves. It returns nil on clean teardown (EOF
// between frames) and the fatal error otherwise; either way the
// connection is closed on return. Callers typically run it in a
// goroutine per accepted connection (ServeStreamListener) — net.Pipe
// works just as well for tests.
func (s *Server) ServeStream(rwc io.ReadWriteCloser) error {
	defer rwc.Close()

	// All frame reads go through one buffered reader: ReadFrame issues
	// two reads per frame (header, payload), and on a raw socket each
	// would be its own syscall.
	br := bufio.NewReaderSize(rwc, 32<<10)

	ft, payload, err := protocol.ReadFrame(br)
	if err != nil {
		return err
	}
	sc := &streamConn{s: s, rwc: rwc}
	opening, err := sc.open(ft, payload)
	if err != nil {
		return err
	}
	// Count the stream live before the opening frames go out, so a
	// client that has seen its welcome always finds itself counted.
	s.tel.streams.Add(1)
	defer s.tel.streams.Add(-1)
	if _, err := sc.rwc.Write(opening); err != nil {
		return err
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
			if err := dec.DecodeTouchBatchInto(payload, &sc.batch); err != nil {
				return sc.malformed(ft, payload, err)
			}
			// Session time only moves forward: a batch stamped earlier
			// than what this connection already saw is applied at its own
			// timestamp (exactly like the HTTP path), but it cannot drag
			// lastNow — and with it resync and expiry decisions — back.
			if sc.batch.Now > sc.lastNow {
				sc.lastNow = sc.batch.Now
			}
			err := sc.handleBatch(&sc.batch)
			sc.releaseBatch()
			if err != nil {
				return err
			}
		case protocol.FrameResync:
			seq, rr, err := protocol.DecodeResyncFrame(payload)
			if err != nil {
				return sc.malformed(ft, payload, err)
			}
			if herr := s.handleResync(sc.lastNow, rr, sc.nextNonce, &sc.page); herr != nil {
				err = sc.rejectRequest(sc.out[:0], seq, herr)
			} else {
				err = sc.flush(protocol.AppendPageFrame(sc.out[:0], seq, 0, &sc.page))
			}
			if err != nil {
				return err
			}
		default:
			return sc.malformed(ft, payload, errors.New("unexpected on a bound stream"))
		}
	}
}

// open binds a fresh connection from its opening frame and returns the
// welcome that answers it. The opening must be a hello proving an
// established session's key: a stream never creates a session. Any
// other frame, and any hello the server refuses, is rejected with an
// ack before the connection counts as live.
func (sc *streamConn) open(ft protocol.FrameType, payload []byte) ([]byte, error) {
	if ft != protocol.FrameHello {
		err := fmt.Errorf("%w: stream opened with %s frame", ErrMalformed, ft)
		_ = sc.reject(nil, 0, err)
		return nil, err
	}
	hello, err := protocol.DecodeAs[protocol.StreamHello](payload)
	if err != nil {
		return nil, sc.malformed(ft, payload, err)
	}
	if err := sc.s.acceptStreamHello(sc, hello); err != nil {
		_ = sc.reject(nil, 0, err)
		return nil, err
	}
	return sc.appendWelcome(nil)
}

// appendWelcome appends the MAC'd welcome: the connection's nonce seed
// and the current risk policy.
func (sc *streamConn) appendWelcome(dst []byte) ([]byte, error) {
	p := sc.s.riskPolicy()
	w := &protocol.StreamWelcome{
		Domain:      sc.s.domain,
		SessionID:   sc.sess.id,
		NonceSeed:   sc.seed,
		Window:      p.Window,
		MinVerified: p.MinVerified,
	}
	w.MAC = protocol.SealMAC(pki.NewMACer(sc.sess.key), w)
	return protocol.AppendMessageFrame(dst, protocol.FrameWelcome, w)
}

// handleBatch applies a touch batch in order, answering each request
// with a page frame. The first rejection acks the error and abandons
// the rest of the batch — later requests echo nonces the chain will
// now never reach, so they could only fail too. Each response is built
// in the connection's one content page and framed at once, directly
// into the connection's scratch buffer; the frames go out as one
// write: same frames, same order, one syscall for the whole batch and
// no intermediate payload copies.
func (sc *streamConn) handleBatch(tb *protocol.TouchBatch) error {
	out := sc.out[:0]
	for i, req := range tb.Requests {
		if herr := sc.s.handlePageRequest(tb.Now, req, sc.nextNonce, &sc.page); herr != nil {
			// The pages already answered, then the ack that ends the
			// batch — the wire order a per-frame writer would have
			// produced.
			return sc.rejectRequest(out, tb.Seq, herr)
		}
		var err error
		if out, err = protocol.AppendPageFrame(out, tb.Seq, i, &sc.page); err != nil {
			return err
		}
	}
	return sc.flush(out, nil)
}

// acceptStreamHello validates a hello against the session store and
// binds the connection to the session, resetting the session's nonce
// to the head of the connection's fresh chain.
func (s *Server) acceptStreamHello(sc *streamConn, h *protocol.StreamHello) error {
	if h.Domain != s.domain {
		return fmt.Errorf("%w: stream hello", ErrMalformed)
	}
	sess, ok := s.sessions.get(h.SessionID)
	if !ok || sess.account != h.Account {
		return ErrUnknownSession
	}
	if !protocol.VerifyMAC(pki.NewMACer(sess.key), h, h.MAC) {
		return ErrBadMAC
	}
	sess.mu.Lock()
	defer sess.mu.Unlock()
	if sess.revoked {
		return ErrUnknownSession
	}
	sess.lastNonce = sc.bind(sess)
	return nil
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
