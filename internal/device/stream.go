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
// registration, login and ticket-resume flows (which create a session)
// ride the Fallback transport. Once a session is bound, a connection
// opens with its hello, and page requests, batches, and resyncs travel
// as frames on the stream, with response nonces walking the
// deterministic per-connection chain the welcome seeded — no
// per-request connection setup, header parsing, or server entropy draw
// on the continuous-auth hot path.
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

	mu   sync.Mutex
	sess *protocol.Session
	conn *streamClientConn
	down bool // sticky: dial/hello failed, Fallback carries everything

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
// error is not surfaced.
func (t *Stream) BindSession(sess *protocol.Session) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.sess = sess
	t.down = false
	if t.conn != nil {
		t.conn.kill(errors.New("device: stream rebound"))
		t.conn = nil
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

// redialLocked is the stream's one way to open a connection: dial,
// write the bound session's hello as the connection's first write, and
// read the server's answer. A welcome that verifies under the session
// installs the connection as the live stream, its nonce chain at
// position 0; a typed ack refused the hello. On failure the connection
// is closed. The buffered reader serves every later read on the
// connection, halving the syscall count of ReadFrame's header+payload
// read pairs. Caller holds t.mu.
func (t *Stream) redialLocked() (err error) {
	hello, err := protocol.BuildStreamHello(t.sess)
	if err != nil {
		return err
	}
	opening, err := protocol.AppendMessageFrame(nil, protocol.FrameHello, hello)
	if err != nil {
		return err
	}
	rwc, err := t.Dial()
	if err != nil {
		return fmt.Errorf("%w: stream dial: %v", ErrNetwork, err)
	}
	defer func() {
		if err != nil {
			rwc.Close()
		}
	}()
	if _, err := rwc.Write(opening); err != nil {
		return fmt.Errorf("%w: stream hello: %v", ErrNetwork, err)
	}
	br := bufio.NewReaderSize(rwc, 32<<10)
	ft, payload, err := protocol.ReadFrame(br)
	if err != nil {
		return fmt.Errorf("%w: stream welcome: %v", ErrNetwork, err)
	}
	switch ft {
	case protocol.FrameWelcome:
	case protocol.FrameAck:
		_, code, detail, err := protocol.DecodeAck(payload)
		if err != nil {
			return err
		}
		return ackError(code, detail)
	default:
		return fmt.Errorf("device: stream handshake got %s frame", ft)
	}
	w, err := protocol.DecodeAs[protocol.StreamWelcome](payload)
	if err != nil {
		return err
	}
	if err := protocol.AcceptStreamWelcome(t.sess, w); err != nil {
		return err
	}
	t.conn = &streamClientConn{rwc: rwc, br: br, chain: protocol.NewNonceChain(t.sess.Key, w.NonceSeed)}
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

// SubmitResume implements Transport (pre-session: Fallback).
func (t *Stream) SubmitResume(now time.Duration, sub *protocol.ResumeSubmit) (*protocol.ContentPage, error) {
	return t.Fallback.SubmitResume(now, sub)
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

// Close tears the live stream down by closing its connection; the
// server reads the close as clean teardown. It never waits for an
// exchange: one blocked in a read fails with ErrNetwork once the
// connection closes. The transport stays usable: the next submit
// redials.
func (t *Stream) Close() error {
	t.mu.Lock()
	conn := t.conn
	t.conn = nil
	t.mu.Unlock()
	if conn != nil {
		conn.kill(errors.New("device: stream closed"))
	}
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

// exchange sends one request frame and reads its answer on the calling
// goroutine. build appends the whole frame, header included, to the
// connection's write scratch under the frame's sequence number. The
// answer is want page frames echoing that sequence in index order,
// which are appended to pages; an ack echoing the sequence ends it
// early and returns the typed rejection it carries. Any other frame,
// and any read, write or decode error, kills the connection.
func (c *streamClientConn) exchange(want int, pages []*protocol.ContentPage, build func(dst []byte, seq uint64) ([]byte, error)) ([]*protocol.ContentPage, error) {
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
		switch ft {
		case protocol.FramePage:
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
		case protocol.FrameAck:
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
	return c.exchange(len(reqs), pages, func(dst []byte, seq uint64) ([]byte, error) {
		return protocol.AppendTouchBatchFrame(dst, seq, now, reqs)
	})
}

// submitResync sends a resync frame and returns the recovered page.
func (c *streamClientConn) submitResync(req *protocol.ResyncRequest) (*protocol.ContentPage, error) {
	var one [1]*protocol.ContentPage
	pages, err := c.exchange(1, one[:0], func(dst []byte, seq uint64) ([]byte, error) {
		return protocol.AppendResyncFrame(dst, seq, req)
	})
	if err != nil {
		return nil, err
	}
	return pages[0], nil
}
