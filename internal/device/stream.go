package device

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"sync"
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
// cut and the redial).
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
		t.conn.fail(errors.New("device: stream rebound"))
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
// opening. It runs before any read loop exists, so it alone reads the
// connection. The returned buffered reader serves every later read
// on the connection, halving the syscall count of ReadFrame's
// header+payload read pairs.
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
// connection as the live stream, starting the read loop; lastSeq is
// the frame sequence the opening spent. A welcome that fails
// verification closes the connection. Caller holds t.mu.
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
	go c.readLoop()
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
	w, err := conn.submitBatch(now, []*protocol.PageRequest{req})
	if err != nil {
		return nil, err
	}
	cp := w.pages[0]
	conn.recycle(w)
	return cp, nil
}

// SubmitPageBatch sends several touch-authenticated requests in one
// frame and returns their pages in order. The caller pre-computes each
// request's chain nonce with PredictNonce.
func (t *Stream) SubmitPageBatch(now time.Duration, reqs []*protocol.PageRequest) ([]*protocol.ContentPage, error) {
	conn, err := t.live()
	if err != nil {
		return nil, err
	}
	w, err := conn.submitBatch(now, reqs)
	if err != nil {
		return nil, err
	}
	// The pages slice is the caller's now, so the waiter is not
	// recycled.
	return w.pages, nil
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
	return conn.submitResync(now, req)
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

// Close tears the live stream down (FrameBye, then close). The
// transport stays usable: the next submit redials.
func (t *Stream) Close() error {
	t.clearPending()
	t.mu.Lock()
	conn := t.conn
	t.conn = nil
	t.mu.Unlock()
	if conn == nil {
		return nil
	}
	conn.wmu.Lock()
	_ = protocol.WriteFrame(conn.rwc, protocol.FrameBye, nil)
	conn.wmu.Unlock()
	conn.fail(errors.New("device: stream closed"))
	return nil
}

func (t *Stream) downgraded() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.down
}

// streamClientConn is one live framed connection. A single reader
// goroutine owns all reads and dispatches responses to waiters in FIFO
// order — the server answers frames in the order they were sent, so
// the head waiter always matches the next response, and any sequence
// mismatch (a reordered, replayed, or misdirected frame) kills the
// connection rather than risk pairing a response with the wrong touch.
type streamClientConn struct {
	rwc   io.ReadWriteCloser
	br    *bufio.Reader        // buffers rwc; read-loop goroutine only
	dec   protocol.Decoder     // frame payloads + intern table; read-loop goroutine only
	chain *protocol.NonceChain // nonce prediction; device goroutine only

	wmu     sync.Mutex // serializes writes AND waiter-enqueue ordering
	nextSeq uint64     // frame sequence counter, under wmu
	wbuf    []byte     // outbound frame scratch, under wmu

	mu      sync.Mutex
	err     error              // first fatal error; conn is dead once set
	waiters fifo[*frameWaiter] // outstanding batches/resyncs
	hbs     fifo[*hbWaiter]    // outstanding heartbeats
	spare   *frameWaiter       // a recycled waiter for the next request frame
	served  uint64             // pages received = chain position of sess.LastNonce
}

// fifo is a queue that reuses its backing array once drained, so a
// connection with one request in flight at a time never reallocates
// it.
type fifo[T any] struct {
	q    []T
	head int
}

func (f *fifo[T]) len() int { return len(f.q) - f.head }

// peek returns the head; the queue must not be empty.
func (f *fifo[T]) peek() T { return f.q[f.head] }

func (f *fifo[T]) push(v T) { f.q = append(f.q, v) }

// pop removes and returns the head; the queue must not be empty.
func (f *fifo[T]) pop() T {
	v := f.q[f.head]
	var zero T
	f.q[f.head] = zero
	if f.head++; f.head == len(f.q) {
		f.q, f.head = f.q[:0], 0
	}
	return v
}

// take empties the queue and returns what it held, oldest first.
func (f *fifo[T]) take() []T {
	all := f.q[f.head:]
	*f = fifo[T]{}
	return all
}

// frameWaiter collects the responses to one request frame. done is
// signalled once per use (buffered, never closed), so a waiter whose
// pages were taken can serve the next frame.
type frameWaiter struct {
	seq   uint64
	want  int
	pages []*protocol.ContentPage
	err   error
	done  chan struct{}
}

// hbWaiter waits for one heartbeat echo.
type hbWaiter struct {
	seq  uint64
	now  time.Duration
	done chan error
}

func (c *streamClientConn) alive() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.err == nil
}

func (c *streamClientConn) predictNonce(ahead int) protocol.Nonce {
	c.mu.Lock()
	served := c.served
	c.mu.Unlock()
	// c.chain is safe outside c.mu: only the device goroutine predicts
	// nonces, and it owns the chain's scratch state.
	return c.chain.At(served + uint64(ahead))
}

// fail marks the connection dead, closes it, and releases every waiter
// with a retryable network error — the caller cannot know how much of
// its request the server processed, which is exactly the ErrNetwork
// contract the retry/resync layer is built for.
func (c *streamClientConn) fail(cause error) {
	c.mu.Lock()
	if c.err != nil {
		c.mu.Unlock()
		return
	}
	c.err = cause
	waiters := c.waiters.take()
	hbs := c.hbs.take()
	c.mu.Unlock()
	c.rwc.Close()
	for _, w := range waiters {
		w.err = fmt.Errorf("%w: stream failed: %v", ErrNetwork, cause)
		w.done <- struct{}{}
	}
	for _, h := range hbs {
		h.done <- fmt.Errorf("%w: stream failed: %v", ErrNetwork, cause)
	}
}

// send writes one frame and registers its waiter atomically with
// respect to other senders, so waiter FIFO order matches wire order.
// build appends the whole frame, header included, to the connection's
// write scratch.
func (c *streamClientConn) send(build func(dst []byte, seq uint64) ([]byte, error), w *frameWaiter, h *hbWaiter) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	c.nextSeq++
	seq := c.nextSeq
	frame, err := build(c.wbuf[:0], seq)
	if err != nil {
		return err
	}
	c.wbuf = frame[:0]
	c.mu.Lock()
	if c.err != nil {
		err := c.err
		c.mu.Unlock()
		return fmt.Errorf("%w: stream failed: %v", ErrNetwork, err)
	}
	if w != nil {
		w.seq = seq
		c.waiters.push(w)
	}
	if h != nil {
		h.seq = seq
		c.hbs.push(h)
	}
	c.mu.Unlock()
	if _, err := c.rwc.Write(frame); err != nil {
		c.fail(fmt.Errorf("stream write: %w", err))
		return fmt.Errorf("%w: stream write: %v", ErrNetwork, err)
	}
	return nil
}

// waiter returns a waiter for a frame answered by want pages: the
// recycled one if no other request frame holds it, else a new one.
func (c *streamClientConn) waiter(want int) *frameWaiter {
	c.mu.Lock()
	w := c.spare
	c.spare = nil
	c.mu.Unlock()
	if w == nil {
		w = &frameWaiter{done: make(chan struct{}, 1)}
	}
	w.want = want
	return w
}

// recycle hands back a completed waiter once its pages are taken, for
// the next request frame to reuse with its pages slice emptied.
func (c *streamClientConn) recycle(w *frameWaiter) {
	clear(w.pages)
	w.pages, w.err = w.pages[:0], nil
	c.mu.Lock()
	c.spare = w
	c.mu.Unlock()
}

// exchange sends one request frame and waits for its pages (or the
// error ack that ended the frame). On success the caller takes the
// pages and may recycle the waiter. A waiter whose frame went out is
// signalled exactly once, so it is recycled here after an ack; after a
// failed send it may still be signalled and is dropped.
func (c *streamClientConn) exchange(want int, build func(dst []byte, seq uint64) ([]byte, error)) (*frameWaiter, error) {
	w := c.waiter(want)
	if err := c.send(build, w, nil); err != nil {
		return nil, err
	}
	<-w.done
	if err := w.err; err != nil {
		c.recycle(w)
		return nil, err
	}
	return w, nil
}

// submitBatch sends reqs as one touch-batch frame and waits for all
// their pages (or the error ack that ended the batch).
func (c *streamClientConn) submitBatch(now time.Duration, reqs []*protocol.PageRequest) (*frameWaiter, error) {
	return c.exchange(len(reqs), func(dst []byte, seq uint64) ([]byte, error) {
		return protocol.AppendTouchBatchFrame(dst, seq, now, reqs)
	})
}

// submitResync sends a resync frame and waits for the recovered page.
func (c *streamClientConn) submitResync(now time.Duration, req *protocol.ResyncRequest) (*protocol.ContentPage, error) {
	w, err := c.exchange(1, func(dst []byte, seq uint64) ([]byte, error) {
		return protocol.AppendResyncFrame(dst, seq, req)
	})
	if err != nil {
		return nil, err
	}
	cp := w.pages[0]
	c.recycle(w)
	return cp, nil
}

// ping sends a heartbeat and waits for its echo.
func (c *streamClientConn) ping(now time.Duration) error {
	h := &hbWaiter{now: now, done: make(chan error, 1)}
	err := c.send(func(dst []byte, seq uint64) ([]byte, error) {
		return protocol.AppendHeartbeatFrame(dst, seq, now), nil
	}, nil, h)
	if err != nil {
		return err
	}
	return <-h.done
}

// readLoop is the connection's single reader: it dispatches pages and
// acks to the head request waiter and heartbeat echoes to the head
// heartbeat waiter until the connection dies; any other frame kills
// it.
func (c *streamClientConn) readLoop() {
	for {
		ft, payload, err := c.dec.ReadFrame(c.br)
		if err != nil {
			c.fail(fmt.Errorf("stream read: %w", err))
			return
		}
		switch ft {
		case protocol.FramePage:
			seq, index, cp, err := c.dec.DecodePageFrame(payload)
			if err != nil {
				c.fail(err)
				return
			}
			if err := c.deliverPage(seq, index, cp); err != nil {
				c.fail(err)
				return
			}
		case protocol.FrameAck:
			seq, code, detail, err := protocol.DecodeAck(payload)
			if err != nil {
				c.fail(err)
				return
			}
			if err := c.deliverAck(seq, code, detail); err != nil {
				c.fail(err)
				return
			}
		case protocol.FrameHeartbeat:
			seq, now, err := protocol.DecodeHeartbeat(payload)
			if err != nil {
				c.fail(err)
				return
			}
			if err := c.deliverHeartbeat(seq, now); err != nil {
				c.fail(err)
				return
			}
		default:
			c.fail(fmt.Errorf("device: unexpected %s frame on stream", ft))
			return
		}
	}
}

// deliverPage routes one page response to the head waiter, enforcing
// that it answers exactly the request the FIFO expects — any sequence
// or index skew means frames were reordered or replayed in transit,
// and the only safe reaction is to kill the connection before a page
// gets paired with the wrong touch.
func (c *streamClientConn) deliverPage(seq uint64, index int, cp *protocol.ContentPage) error {
	c.mu.Lock()
	if c.waiters.len() == 0 {
		c.mu.Unlock()
		return fmt.Errorf("device: unsolicited page frame (seq %d)", seq)
	}
	w := c.waiters.peek()
	if seq != w.seq || index != len(w.pages) {
		c.mu.Unlock()
		return fmt.Errorf("device: page frame seq %d/%d does not match expected %d/%d", seq, index, w.seq, len(w.pages))
	}
	w.pages = append(w.pages, cp)
	c.served++
	finished := len(w.pages) == w.want
	if finished {
		c.waiters.pop()
	}
	c.mu.Unlock()
	if finished {
		w.done <- struct{}{}
	}
	return nil
}

// deliverAck completes the waiter an ack answers with a typed error:
// the head request waiter (the server stops a batch at its first
// rejection), or the head heartbeat waiter when the ack echoes that
// heartbeat's sequence (a heartbeat past the server's skew bound).
func (c *streamClientConn) deliverAck(seq uint64, code, detail string) error {
	c.mu.Lock()
	if c.hbs.len() > 0 && c.hbs.peek().seq == seq {
		h := c.hbs.pop()
		c.mu.Unlock()
		h.done <- ackError(code, detail)
		return nil
	}
	if c.waiters.len() == 0 {
		c.mu.Unlock()
		return fmt.Errorf("device: unsolicited ack frame (%s)", code)
	}
	w := c.waiters.peek()
	if seq != w.seq {
		c.mu.Unlock()
		return fmt.Errorf("device: ack seq %d does not match expected %d", seq, w.seq)
	}
	c.waiters.pop()
	c.mu.Unlock()
	w.err = ackError(code, detail)
	w.done <- struct{}{}
	return nil
}

// deliverHeartbeat completes the head heartbeat waiter, verifying the
// echo is verbatim.
func (c *streamClientConn) deliverHeartbeat(seq uint64, now time.Duration) error {
	c.mu.Lock()
	if c.hbs.len() == 0 {
		c.mu.Unlock()
		return fmt.Errorf("device: unsolicited heartbeat echo (seq %d)", seq)
	}
	h := c.hbs.pop()
	c.mu.Unlock()
	if seq != h.seq || now != h.now {
		h.done <- fmt.Errorf("device: heartbeat echo %d/%v does not match %d/%v", seq, now, h.seq, h.now)
		return errors.New("device: heartbeat echo mismatch")
	}
	h.done <- nil
	return nil
}
