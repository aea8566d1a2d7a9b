package device

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"trust/internal/protocol"
	"trust/internal/webserver"
)

// Stream is the multiplexed session transport: one long-lived framed
// connection per device instead of one HTTP request per touch. The
// registration and login flows (which predate a session) ride the
// Fallback transport; once a session is bound, page requests, batches,
// and resyncs travel as frames on the stream, with response nonces
// walking the deterministic per-connection chain the welcome seeded —
// no per-request connection setup, header parsing, or server entropy
// draw on the continuous-auth hot path.
//
// Failure handling mirrors the paper's graceful-degradation stance:
//
//   - dial or hello fails → sticky downgrade, every call uses Fallback
//     (the device keeps working over plain HTTP);
//   - an ESTABLISHED stream dies (cut, torn frame, reorder) → the next
//     submit redials and re-binds; the in-flight request surfaces as
//     ErrNetwork so the retry layer redelivers, and a stale nonce after
//     re-binding recovers through the ordinary bad-nonce resync path.
//
// Each call is one synchronous exchange on the caller's goroutine: it
// writes its frame and reads its own answer, and concurrent callers
// take turns. Nothing reads an idle connection, so one the server
// closed between calls reads as live until the next exchange finds it
// dead; that call fails with ErrNetwork and the one after redials.
type Stream struct {
	// Dial opens a raw connection to the server's stream listener
	// (net.Dial in deployment, net.Pipe or a fault-injecting wrapper in
	// tests).
	Dial func() (io.ReadWriteCloser, error)
	// Fallback carries everything the stream cannot: pre-session flows
	// always, and all traffic after a downgrade.
	Fallback Transport

	mu      sync.Mutex
	sess    *protocol.Session
	conn    *streamClientConn
	down    bool // sticky: dial/hello failed, Fallback carries everything
	pending *pendingResume

	// Stats counters (under mu).
	dials     int
	redials   int
	downgrade int
}

var _ Transport = (*Stream)(nil)

// StreamStats reports connection-lifecycle counts for tests and the
// load harness.
type StreamStats struct {
	Dials      int
	Redials    int
	Downgrades int
}

// Stats snapshots the lifecycle counters.
func (t *Stream) Stats() StreamStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	return StreamStats{Dials: t.dials, Redials: t.redials, Downgrades: t.downgrade}
}

// Streaming reports whether the transport currently holds a live
// stream (false before BindSession, after a downgrade, or between a
// cut and the redial). A connection the server closed while idle still
// reads as live until the next exchange finds it dead.
func (t *Stream) Streaming() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return !t.down && t.conn != nil && t.conn.alive()
}

// BindSession points the stream at an established session and eagerly
// dials so the first Browse already has the chain nonce. A failed dial
// downgrades to the Fallback transport; the device still works, so the
// error is not surfaced. When a SubmitResume handshake left a pending
// connection, the session adopts it instead of redialing — the resume
// round trip already seeded the nonce chain.
func (t *Stream) BindSession(sess *protocol.Session) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.sess = sess
	t.down = false
	if t.conn != nil {
		t.conn.kill(errors.New("device: stream rebound"))
		t.conn = nil
	}
	if p := t.pending; p != nil {
		// The resume frame spent sequence number 1; the chain head was
		// delivered with the resume content page, so prediction starts
		// at position 0 exactly as after a hello welcome. A welcome
		// that fails verification falls through to the hello redial.
		t.pending = nil
		if t.adoptLocked(p.rwc, p.br, p.w, sess, 1) == nil {
			return
		}
	}
	if t.Dial == nil {
		t.down = true
		t.downgrade++
		return
	}
	if err := t.redialLocked(); err != nil {
		t.down = true
		t.downgrade++
	}
}

// pendingResume is a connection opened by SubmitResume whose welcome
// could not yet be verified: the resumed session key only exists after
// the device accepts the resume content page. BindSession finishes the
// verification and promotes the connection to the live stream.
type pendingResume struct {
	rwc io.ReadWriteCloser
	br  *bufio.Reader
	w   *protocol.StreamWelcome
}

// clearPending closes and forgets any leftover pending connection
// (a resume that was never bound, or was superseded).
func (t *Stream) clearPending() {
	t.mu.Lock()
	p := t.pending
	t.pending = nil
	t.mu.Unlock()
	if p != nil {
		p.rwc.Close()
	}
}

// SubmitResume implements Transport: dial and open with a resume frame
// — ticket verification, session creation, and nonce-chain seeding in
// a single round trip. The welcome cannot be verified here (the
// resumed key is derived only once the device accepts the content
// page), so the connection parks as pending until BindSession adopts
// it. On a downgraded transport (or no Dial) the resume rides the
// Fallback like the other pre-session flows.
func (t *Stream) SubmitResume(now time.Duration, sub *protocol.ResumeSubmit) (*protocol.ContentPage, error) {
	t.clearPending()
	t.mu.Lock()
	canStream := t.Dial != nil && !t.down
	t.mu.Unlock()
	if !canStream {
		return t.Fallback.SubmitResume(now, sub)
	}
	opening, err := protocol.AppendResumeFrame(nil, 1, now, sub)
	if err != nil {
		return nil, err
	}
	rwc, br, w, err := t.handshake(opening)
	if err != nil {
		return nil, err
	}
	cp, err := readResumePage(br)
	if err != nil {
		rwc.Close()
		return nil, err
	}
	t.mu.Lock()
	t.pending = &pendingResume{rwc: rwc, br: br, w: w}
	t.mu.Unlock()
	return cp, nil
}

// readResumePage reads the content page that follows a resume's
// welcome, which must answer the resume frame (sequence 1, index 0).
func readResumePage(br *bufio.Reader) (*protocol.ContentPage, error) {
	ft, p, err := protocol.ReadFrame(br)
	if err != nil {
		return nil, fmt.Errorf("%w: stream resume page: %v", ErrNetwork, err)
	}
	if ft != protocol.FramePage {
		return nil, fmt.Errorf("device: stream resume handshake got %s frame", ft)
	}
	seq, index, cp, err := protocol.DecodePageFrame(p)
	if err != nil {
		return nil, err
	}
	if seq != 1 || index != 0 {
		return nil, fmt.Errorf("device: resume page frame seq %d/%d does not match 1/0", seq, index)
	}
	return cp, nil
}

// live returns a connected stream, redialing a dead one. It fails —
// and sticks the downgrade on dial/hello failure — rather than
// silently falling back, so callers decide per method what the
// fallback is.
func (t *Stream) live() (*streamClientConn, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.down {
		return nil, fmt.Errorf("%w: stream downgraded", ErrNetwork)
	}
	if t.sess == nil {
		return nil, errors.New("device: stream has no bound session")
	}
	if t.conn != nil && t.conn.alive() {
		return t.conn, nil
	}
	if t.conn != nil {
		t.redials++
	}
	if err := t.redialLocked(); err != nil {
		t.down = true
		t.downgrade++
		return nil, err
	}
	return t.conn, nil
}

// redialLocked opens a hello handshake for the bound session and
// installs the connection. Caller holds t.mu.
func (t *Stream) redialLocked() error {
	hello, err := protocol.BuildStreamHello(t.sess)
	if err != nil {
		return err
	}
	opening, err := protocol.AppendMessageFrame(nil, protocol.FrameHello, hello)
	if err != nil {
		return err
	}
	rwc, br, w, err := t.handshake(opening)
	if err != nil {
		return err
	}
	return t.adoptLocked(rwc, br, w, t.sess, 0)
}

// handshake is both openings' one exchange: dial, write the opening
// frame (hello or resume) as the connection's first write, and read the
// server's answer — the welcome, or the typed ack that refused the
// opening. The returned buffered reader serves every later read on the
// connection, halving the syscall count of ReadFrame's header+payload
// read pairs.
func (t *Stream) handshake(opening []byte) (io.ReadWriteCloser, *bufio.Reader, *protocol.StreamWelcome, error) {
	rwc, err := t.Dial()
	if err != nil {
		return nil, nil, nil, fmt.Errorf("%w: stream dial: %v", ErrNetwork, err)
	}
	br := bufio.NewReaderSize(rwc, 32<<10)
	w, err := exchangeOpening(rwc, br, opening)
	if err != nil {
		rwc.Close()
		return nil, nil, nil, err
	}
	return rwc, br, w, nil
}

// exchangeOpening is handshake's exchange on a dialed connection; the
// caller closes the connection when it fails.
func exchangeOpening(w io.Writer, br *bufio.Reader, opening []byte) (*protocol.StreamWelcome, error) {
	if _, err := w.Write(opening); err != nil {
		return nil, fmt.Errorf("%w: stream %s: %v", ErrNetwork, protocol.FrameType(opening[0]), err)
	}
	ft, payload, err := protocol.ReadFrame(br)
	if err != nil {
		return nil, fmt.Errorf("%w: stream welcome: %v", ErrNetwork, err)
	}
	switch ft {
	case protocol.FrameWelcome:
		return protocol.DecodeAs[protocol.StreamWelcome](payload)
	case protocol.FrameAck:
		_, code, detail, err := protocol.DecodeAck(payload)
		if err != nil {
			return nil, err
		}
		return nil, ackError(code, detail)
	}
	return nil, fmt.Errorf("device: stream handshake got %s frame", ft)
}

// adoptLocked verifies a welcome under sess and installs its
// connection as the live stream; lastSeq is the frame sequence the
// opening spent. A welcome that fails verification closes the
// connection. Caller holds t.mu.
func (t *Stream) adoptLocked(rwc io.ReadWriteCloser, br *bufio.Reader, w *protocol.StreamWelcome, sess *protocol.Session, lastSeq uint64) error {
	if err := protocol.AcceptStreamWelcome(sess, w); err != nil {
		rwc.Close()
		return err
	}
	c := &streamClientConn{
		rwc:     rwc,
		br:      br,
		chain:   protocol.NewNonceChain(sess.Key, w.NonceSeed),
		nextSeq: lastSeq,
	}
	t.conn = c
	t.dials++
	return nil
}

// ackError converts an ack frame's wire code back into the typed
// sentinel the HTTP transport would have produced, so the retry layer
// classifies stream rejections identically.
func ackError(code, detail string) error {
	if base := webserver.ErrorFromCode(code); base != nil {
		return fmt.Errorf("device: stream request rejected: %w (%s)", base, detail)
	}
	return fmt.Errorf("device: stream request rejected: %s (%s)", code, detail)
}

// PredictNonce returns the nonce the session will hold after `ahead`
// more responses on the live stream — the chain value a batched
// request at that offset must echo. ok is false when no live stream
// exists (callers should fall back to sequential requests).
func (t *Stream) PredictNonce(ahead int) (protocol.Nonce, bool) {
	t.mu.Lock()
	conn := t.conn
	down := t.down
	t.mu.Unlock()
	if down || conn == nil || !conn.alive() {
		return "", false
	}
	return conn.predictNonce(ahead), true
}

// FetchRegistrationPage implements Transport (pre-session: Fallback).
func (t *Stream) FetchRegistrationPage(now time.Duration) (*protocol.RegistrationPage, error) {
	return t.Fallback.FetchRegistrationPage(now)
}

// SubmitRegistration implements Transport (pre-session: Fallback).
func (t *Stream) SubmitRegistration(now time.Duration, sub *protocol.RegistrationSubmit, recovery string) (protocol.RegistrationResult, error) {
	return t.Fallback.SubmitRegistration(now, sub, recovery)
}

// FetchLoginPage implements Transport (pre-session: Fallback).
func (t *Stream) FetchLoginPage(now time.Duration) (*protocol.LoginPage, error) {
	return t.Fallback.FetchLoginPage(now)
}

// SubmitLogin implements Transport (pre-session: Fallback).
func (t *Stream) SubmitLogin(now time.Duration, sub *protocol.LoginSubmit) (*protocol.ContentPage, error) {
	return t.Fallback.SubmitLogin(now, sub)
}

// SubmitPageRequest implements Transport: a single-request touch batch
// on the stream, or the Fallback after a downgrade.
func (t *Stream) SubmitPageRequest(now time.Duration, req *protocol.PageRequest) (*protocol.ContentPage, error) {
	conn, err := t.live()
	if err != nil {
		if t.downgraded() {
			return t.Fallback.SubmitPageRequest(now, req)
		}
		return nil, err
	}
	var one [1]*protocol.ContentPage
	pages, err := conn.submitBatch(one[:0], now, []*protocol.PageRequest{req})
	if err != nil {
		return nil, err
	}
	return pages[0], nil
}

// SubmitPageBatch sends several touch-authenticated requests in one
// frame and returns their pages in order. The caller pre-computes each
// request's chain nonce with PredictNonce.
func (t *Stream) SubmitPageBatch(now time.Duration, reqs []*protocol.PageRequest) ([]*protocol.ContentPage, error) {
	conn, err := t.live()
	if err != nil {
		return nil, err
	}
	return conn.submitBatch(make([]*protocol.ContentPage, 0, len(reqs)), now, reqs)
}

// SubmitResync implements Transport: a resync frame on the stream, or
// the Fallback after a downgrade.
func (t *Stream) SubmitResync(now time.Duration, req *protocol.ResyncRequest) (*protocol.ContentPage, error) {
	conn, err := t.live()
	if err != nil {
		if t.downgraded() {
			return t.Fallback.SubmitResync(now, req)
		}
		return nil, err
	}
	return conn.submitResync(req)
}

// Ping sends a heartbeat and waits for the server's echo, verifying it
// round-tripped verbatim. Heartbeat cadence belongs to the caller,
// which stamps each heartbeat with the virtual instant now it is
// passed; the server checks that instant against MaxHeartbeatSkew.
//
//trustlint:allow deadexport -- the device-side heartbeat through which the server's MaxHeartbeatSkew defence is tested end to end
func (t *Stream) Ping(now time.Duration) error {
	conn, err := t.live()
	if err != nil {
		return err
	}
	return conn.ping(now)
}

// Close tears the live stream down (FrameBye, then close). It writes
// the bye only when no exchange holds the connection and never waits
// for one: an exchange blocked in a read fails with ErrNetwork once the
// connection closes. The transport stays usable: the next submit
// redials.
func (t *Stream) Close() error {
	t.clearPending()
	t.mu.Lock()
	conn := t.conn
	t.conn = nil
	t.mu.Unlock()
	if conn == nil {
		return nil
	}
	if conn.xmu.TryLock() {
		_ = protocol.WriteFrame(conn.rwc, protocol.FrameBye, nil)
		conn.xmu.Unlock()
	}
	conn.kill(errors.New("device: stream closed"))
	return nil
}

func (t *Stream) downgraded() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.down
}

// streamClientConn is one live framed connection. Each exchange runs on
// its caller's goroutine under the exchange lock: the caller writes its
// frame, then reads frames until its answer is complete. The server
// answers frames in the order they were sent and sends nothing else, so
// every frame an exchange reads must answer its own frame; any sequence
// or index skew (a reordered, replayed, or misdirected frame) kills the
// connection rather than risk pairing a response with the wrong touch.
type streamClientConn struct {
	rwc  io.ReadWriteCloser
	dead atomic.Bool // set once, as the connection is closed

	xmu     sync.Mutex           // held for a whole exchange; guards the fields below
	br      *bufio.Reader        // buffers rwc
	dec     protocol.Decoder     // frame payloads + intern table
	chain   *protocol.NonceChain // nonce prediction
	nextSeq uint64               // sequence number of the last frame sent
	wbuf    []byte               // outbound frame scratch
	served  uint64               // pages received = chain position of sess.LastNonce
}

func (c *streamClientConn) alive() bool { return !c.dead.Load() }

func (c *streamClientConn) predictNonce(ahead int) protocol.Nonce {
	c.xmu.Lock()
	defer c.xmu.Unlock()
	return c.chain.At(c.served + uint64(ahead))
}

// kill marks the connection dead and closes it, which also ends a read
// an exchange is blocked in, and returns cause as a retryable network
// error: the caller cannot know how much of its request the server
// processed, which is exactly the ErrNetwork contract the retry/resync
// layer is built for.
func (c *streamClientConn) kill(cause error) error {
	if c.dead.CompareAndSwap(false, true) {
		c.rwc.Close()
	}
	return fmt.Errorf("%w: stream failed: %v", ErrNetwork, cause)
}

// exchange sends one frame and reads its answer on the calling
// goroutine. build appends the whole frame, header included, to the
// connection's write scratch under the frame's sequence number. A
// request frame (want > 0) is answered by want page frames echoing its
// sequence in index order, which are appended to pages; a heartbeat
// (want == 0) by the verbatim echo of its sequence and stamp hb. An ack
// echoing the frame's sequence ends either answer early and returns
// the typed rejection it carries. Any other frame, and any read, write
// or decode error, kills the connection.
func (c *streamClientConn) exchange(want int, hb time.Duration, pages []*protocol.ContentPage, build func(dst []byte, seq uint64) ([]byte, error)) ([]*protocol.ContentPage, error) {
	c.xmu.Lock()
	defer c.xmu.Unlock()
	c.nextSeq++
	seq := c.nextSeq
	frame, err := build(c.wbuf[:0], seq)
	if err != nil {
		return nil, err
	}
	c.wbuf = frame[:0]
	if !c.alive() {
		return nil, fmt.Errorf("%w: stream closed", ErrNetwork)
	}
	if _, err := c.rwc.Write(frame); err != nil {
		return nil, c.kill(fmt.Errorf("stream write: %w", err))
	}
	for {
		ft, payload, err := c.dec.ReadFrame(c.br)
		if err != nil {
			return nil, c.kill(fmt.Errorf("stream read: %w", err))
		}
		switch {
		case ft == protocol.FramePage && want > 0:
			pseq, index, cp, err := c.dec.DecodePageFrame(payload)
			if err != nil {
				return nil, c.kill(err)
			}
			if pseq != seq || index != len(pages) {
				return nil, c.kill(fmt.Errorf("device: page frame seq %d/%d does not match expected %d/%d", pseq, index, seq, len(pages)))
			}
			pages = append(pages, cp)
			c.served++
			if len(pages) == want {
				return pages, nil
			}
		case ft == protocol.FrameHeartbeat && want == 0:
			eseq, now, err := protocol.DecodeHeartbeat(payload)
			if err != nil {
				return nil, c.kill(err)
			}
			if eseq != seq || now != hb {
				return nil, c.kill(fmt.Errorf("device: heartbeat echo %d/%v does not match %d/%v", eseq, now, seq, hb))
			}
			return nil, nil
		case ft == protocol.FrameAck:
			aseq, code, detail, err := protocol.DecodeAck(payload)
			if err != nil {
				return nil, c.kill(err)
			}
			if aseq != seq {
				return nil, c.kill(fmt.Errorf("device: ack seq %d does not match expected %d", aseq, seq))
			}
			err = ackError(code, detail)
			if errors.Is(err, webserver.ErrMalformed) {
				// The server closes the connection after every malformed
				// ack: drop it now, so the next call redials instead of
				// spending a round on a dead connection.
				c.kill(err)
			}
			return nil, err
		default:
			return nil, c.kill(fmt.Errorf("device: unexpected %s frame on stream", ft))
		}
	}
}

// submitBatch sends reqs as one touch-batch frame and appends their
// pages to pages, or returns the error ack that ended the batch.
func (c *streamClientConn) submitBatch(pages []*protocol.ContentPage, now time.Duration, reqs []*protocol.PageRequest) ([]*protocol.ContentPage, error) {
	return c.exchange(len(reqs), 0, pages, func(dst []byte, seq uint64) ([]byte, error) {
		return protocol.AppendTouchBatchFrame(dst, seq, now, reqs)
	})
}

// submitResync sends a resync frame and returns the recovered page.
func (c *streamClientConn) submitResync(req *protocol.ResyncRequest) (*protocol.ContentPage, error) {
	var one [1]*protocol.ContentPage
	pages, err := c.exchange(1, 0, one[:0], func(dst []byte, seq uint64) ([]byte, error) {
		return protocol.AppendResyncFrame(dst, seq, req)
	})
	if err != nil {
		return nil, err
	}
	return pages[0], nil
}

// ping sends a heartbeat stamped now and waits for its echo.
func (c *streamClientConn) ping(now time.Duration) error {
	_, err := c.exchange(0, now, nil, func(dst []byte, seq uint64) ([]byte, error) {
		return protocol.AppendHeartbeatFrame(dst, seq, now), nil
	})
	return err
}
