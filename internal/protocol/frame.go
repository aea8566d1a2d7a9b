package protocol

import (
	"errors"
	"fmt"
	"io"
	"time"

	"trust/internal/wire"
)

// Length-prefixed frame codec for the streamed session transport. A
// frame is the unit one side writes atomically:
//
//	[1B type][4B big-endian payload length][payload]
//
// Payloads of the message-bearing frames (hello, welcome, touch-batch,
// page, resync) reuse the binary message codec, so a message verifies
// identically whether it arrived framed or as an HTTP body. Every frame
// is appended whole into the caller's buffer (appendFrameOf) and hits
// the connection in a single Write — one syscall per frame, and a torn
// or cut write can never interleave two frames.

// FrameType tags a stream frame.
type FrameType byte

// Frame types. Hello/Welcome bind a connection to a session,
// TouchBatch carries 1..n batched touch authenticators, Page answers
// one of them, Ack carries request errors and hello rejections, Resync
// recovers a lost page. A hello is the only opening: a stream binds to
// a session that a login or ticket resume created, and never creates
// one. Every frame after it is a request or its answer; teardown is a
// close.
const (
	FrameHello FrameType = iota + 1
	FrameWelcome
	FrameTouchBatch
	FramePage
	_ // 5: retired (a heartbeat echoed for liveness); an unknown type
	_ // 6: retired (a server-to-device policy push); an unknown type
	FrameAck
	FrameResync
	_ // 9: retired (a bye before teardown); an unknown type
	_ // 10: retired (a resume opening); an unknown type
)

// SeqBearing reports whether t's payload leads with an 8-byte
// big-endian sequence number (touch-batch, page, ack, resync).
// Hello/welcome carry binary-codec messages instead.
func (t FrameType) SeqBearing() bool {
	switch t {
	case FrameTouchBatch, FramePage, FrameAck, FrameResync:
		return true
	}
	return false
}

// FrameSeq peeks the leading sequence number of a seq-bearing frame's
// payload without decoding the rest — the error path's best-effort
// correlation: when a frame fails to decode fully, its seq usually
// still parsed, and the rejection ack should echo it so the client can
// match the ack to the request it answers. Non-seq-bearing types and
// payloads too short to carry a sequence report 0, the wire's
// "no sequence" value.
func FrameSeq(t FrameType, payload []byte) uint64 {
	var seq uint64
	if t.SeqBearing() {
		c := wire.NewDecoder(wire.BigEndian32, payload)
		c.U64(&seq)
	}
	return seq
}

func (t FrameType) String() string {
	switch t {
	case FrameHello:
		return "hello"
	case FrameWelcome:
		return "welcome"
	case FrameTouchBatch:
		return "touch-batch"
	case FramePage:
		return "page"
	case FrameAck:
		return "ack"
	case FrameResync:
		return "resync"
	}
	return fmt.Sprintf("frame(%d)", byte(t))
}

// frameHeaderLen is the fixed frame header size.
const frameHeaderLen = 5

// MaxFramePayload caps a single frame, mirroring the HTTP paths'
// 1 MiB body bound.
const MaxFramePayload = 1 << 20

// ErrFrame reports a malformed frame or frame payload.
var ErrFrame = errors.New("protocol: malformed stream frame")

// appendFrameOf appends one whole frame of type t to dst: the type
// byte and the payload length, backfilled once payload has walked the
// frame's payload fields behind it. Every frame builder goes through
// it, so a frame is always appended whole into the caller's buffer and
// the payload cap is checked in one place. On error it returns dst
// unchanged.
func appendFrameOf(dst []byte, t FrameType, payload func(c *binCodec)) ([]byte, error) {
	out := dst
	err := withEncoding(func(c *binCodec) {
		c.U8((*byte)(&t))
		at := c.Begin()
		payload(c)
		if n := c.Pos() - frameHeaderLen; n > MaxFramePayload {
			c.Fail(fmt.Errorf("%w: %d-byte payload exceeds %d cap", ErrFrame, n, MaxFramePayload))
		}
		c.End(at)
	}, false, func(enc []byte) { out = append(dst, enc...) })
	return out, err
}

// decodeFrame walks payload, a frame of type t, with its payload
// fields. A payload they do not fit fails as ErrFrame; a nested message
// that does not decode fails with the message codec's error.
func decodeFrame(t FrameType, payload []byte, intern *internTable, fields func(c *binCodec)) error {
	switch rest, err := withDecoding(payload, intern, fields); {
	case errors.Is(err, ErrFrame) || errors.Is(err, ErrBinaryDecode):
		return err
	case err != nil:
		return fmt.Errorf("%w: %s payload: %v", ErrFrame, t, err)
	case rest != 0:
		return fmt.Errorf("%w: %s payload: %d trailing bytes", ErrFrame, t, rest)
	}
	return nil
}

// nested walks a message a frame payload carries behind its length:
// encoded in place, and decoded by its own field list from the
// length-prefixed bytes (through the connection's intern table, if
// any) — into *m when the caller left one there to reuse, else into a
// fresh message, which a failed decode leaves nil.
func nested[M any, PM interface {
	*M
	encoder
}](c *binCodec, m **M) {
	if !c.Decoding() {
		at := c.Begin()
		PM(*m).fields(c)
		c.End(at)
		return
	}
	if raw := c.Sub(); c.Err() == nil {
		fresh := *m == nil
		if fresh {
			*m = new(M)
		}
		if err := decodeInto(raw, c.intern, PM(*m)); err != nil {
			if fresh {
				*m = nil
			}
			c.Fail(err)
		}
	}
}

// AppendFrame appends one whole frame carrying payload verbatim to dst
// and returns the extended slice.
func AppendFrame(dst []byte, t FrameType, payload []byte) ([]byte, error) {
	return appendFrameOf(dst, t, func(c *binCodec) { c.Fixed(payload) })
}

// AppendMessageFrame appends a frame whose payload is one binary-codec
// message: the hello and welcome frames.
func AppendMessageFrame(dst []byte, t FrameType, msg any) ([]byte, error) {
	m, ok := msg.(encoder)
	if !ok {
		return dst, fmt.Errorf("protocol: cannot binary-encode %T", msg)
	}
	return appendFrameOf(dst, t, m.fields)
}

// ReadFrame reads one frame from r. The returned payload is freshly
// allocated and owned by the caller. Oversized length prefixes fail
// before any payload is read, so a corrupted header cannot make the
// reader buffer unbounded garbage.
func ReadFrame(r io.Reader) (FrameType, []byte, error) {
	var hdr [frameHeaderLen]byte
	return readFrame(r, &hdr, nil)
}

// readFrame reads one frame, its header into hdr and its payload into
// buf when buf has the capacity (a fresh slice otherwise).
func readFrame(r io.Reader, hdr *[frameHeaderLen]byte, buf []byte) (FrameType, []byte, error) {
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, err
	}
	c := wire.NewDecoder(wire.BigEndian32, hdr[:])
	var t FrameType
	var n int
	c.U8((*byte)(&t))
	c.U32(&n)
	if n > MaxFramePayload {
		return 0, nil, fmt.Errorf("%w: %d-byte payload exceeds %d cap", ErrFrame, n, MaxFramePayload)
	}
	if n == 0 {
		return t, nil, nil
	}
	payload := buf[:0]
	if cap(payload) < n {
		payload = make([]byte, n)
	}
	payload = payload[:n]
	if _, err := io.ReadFull(r, payload); err != nil {
		return 0, nil, fmt.Errorf("%w: truncated %s payload: %v", ErrFrame, t, err)
	}
	return t, payload, nil
}

// Frame payloads. Each seq-bearing frame's payload is one field list,
// walked by its builder to encode and by its decoder to decode.

// TouchBatch is the decoded payload of a FrameTouchBatch: the client's
// frame sequence number (echoed by every response so a reordered or
// replayed frame is detected immediately), the virtual timestamp, and
// the batched touch-authenticated page requests, applied in order.
type TouchBatch struct {
	Seq      uint64
	Now      time.Duration
	Requests []*PageRequest
}

// maxBatchRequests bounds how many requests one touch-batch frame may
// carry.
const maxBatchRequests = 256

// fields walks the sequence, the timestamp, the request count and each
// request. A decoder reuses the batch's request slots: the slice, the
// requests it already holds and their MACs' storage.
func (tb *TouchBatch) fields(c *binCodec) {
	c.U64(&tb.Seq)
	c.I64((*int64)(&tb.Now))
	n := len(tb.Requests)
	if c.U32(&n); n < 1 || n > maxBatchRequests {
		c.Fail(fmt.Errorf("%w: batch of %d requests", ErrFrame, n))
		return
	}
	if c.Decoding() {
		if n > cap(tb.Requests) {
			// Growing keeps the slots already built.
			tb.Requests = append(make([]*PageRequest, 0, n), tb.Requests[:cap(tb.Requests)]...)
		}
		tb.Requests = tb.Requests[:n]
	}
	for i := range tb.Requests {
		nested(c, &tb.Requests[i])
	}
}

// AppendTouchBatchFrame appends a FrameTouchBatch frame to dst,
// encoding each request once.
func AppendTouchBatchFrame(dst []byte, seq uint64, now time.Duration, reqs []*PageRequest) ([]byte, error) {
	tb := TouchBatch{Seq: seq, Now: now, Requests: reqs}
	return appendFrameOf(dst, FrameTouchBatch, tb.fields)
}

// decodeTouchBatch decodes payload into tb, reusing its request slots.
// Every field of every request is overwritten; on error tb holds a
// partial decode that only a later decode into it may use.
func decodeTouchBatch(payload []byte, intern *internTable, tb *TouchBatch) error {
	return decodeFrame(FrameTouchBatch, payload, intern, tb.fields)
}

// pageFields is a FramePage payload's field list: the echoed request
// frame sequence, the index of the batched request it answers, and the
// content page. The batch response path builds its whole reply before
// a single write.
func pageFields(seq *uint64, index *int, cp **ContentPage) func(*binCodec) {
	return func(c *binCodec) {
		c.U64(seq)
		c.U32(index)
		nested(c, cp)
	}
}

// AppendPageFrame appends a FramePage frame to dst.
func AppendPageFrame(dst []byte, seq uint64, index int, cp *ContentPage) ([]byte, error) {
	return appendFrameOf(dst, FramePage, pageFields(&seq, &index, &cp))
}

// decodePageFrame parses a page-response frame payload, through intern
// when it is not nil.
func decodePageFrame(payload []byte, intern *internTable) (seq uint64, index int, cp *ContentPage, err error) {
	err = decodeFrame(FramePage, payload, intern, pageFields(&seq, &index, &cp))
	return seq, index, cp, err
}

// ackFields is a FrameAck payload's field list: the echoed frame
// sequence, a wire error code ("" = ok; otherwise one of the
// X-Trust-Error codes, so the stream surfaces the same typed
// rejections as the HTTP path), and a human-readable detail.
func ackFields(seq *uint64, code, detail *string) func(*binCodec) {
	return func(c *binCodec) {
		c.U64(seq)
		c.Str(code)
		c.Str(detail)
	}
}

// AppendAckFrame appends an ack/error frame to dst.
func AppendAckFrame(dst []byte, seq uint64, code, detail string) ([]byte, error) {
	return appendFrameOf(dst, FrameAck, ackFields(&seq, &code, &detail))
}

// DecodeAck parses an ack/error frame payload.
func DecodeAck(payload []byte) (seq uint64, code, detail string, err error) {
	err = decodeFrame(FrameAck, payload, nil, ackFields(&seq, &code, &detail))
	return seq, code, detail, err
}

// resyncFields is a FrameResync payload's field list: the client frame
// sequence plus the MAC-proof resync request.
func resyncFields(seq *uint64, req **ResyncRequest) func(*binCodec) {
	return func(c *binCodec) {
		c.U64(seq)
		nested(c, req)
	}
}

// AppendResyncFrame appends a resync carried on the stream to dst.
func AppendResyncFrame(dst []byte, seq uint64, req *ResyncRequest) ([]byte, error) {
	return appendFrameOf(dst, FrameResync, resyncFields(&seq, &req))
}

// DecodeResyncFrame parses a stream resync payload.
func DecodeResyncFrame(payload []byte) (seq uint64, req *ResyncRequest, err error) {
	err = decodeFrame(FrameResync, payload, nil, resyncFields(&seq, &req))
	return seq, req, err
}
