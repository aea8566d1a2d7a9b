package protocol

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"time"
)

// Length-prefixed frame codec for the streamed session transport. A
// frame is the unit one side writes atomically:
//
//	[1B type][4B big-endian payload length][payload]
//
// Payloads of the message-bearing frames (hello, welcome, touch-batch,
// page, policy-push, resync) reuse the binary message codec, so a
// message verifies identically whether it arrived framed or as an HTTP
// body. Every frame is appended whole into the caller's buffer
// (openFrame/closeFrame) and hits the connection in a single Write —
// one syscall per frame, and a torn or cut write can never interleave
// two frames.

// FrameType tags a stream frame.
type FrameType byte

// Frame types. Hello/Welcome bind a connection to a session,
// TouchBatch carries 1..n batched touch authenticators, Page answers
// one of them, Heartbeat is echoed for liveness, PolicyPush is the
// server-initiated risk-policy update, Ack carries request errors and
// hello rejections, Resync recovers a lost page, Bye is clean
// teardown. Resume opens a connection with a ticket fast login instead
// of a hello: the server answers with a welcome (seeding the nonce
// chain under the resumed key) followed by the login content page, so
// one round trip yields both a fresh session and a bound stream.
const (
	FrameHello FrameType = iota + 1
	FrameWelcome
	FrameTouchBatch
	FramePage
	FrameHeartbeat
	FramePolicyPush
	FrameAck
	FrameResync
	FrameBye
	FrameResume
)

// SeqBearing reports whether t's payload leads with an 8-byte
// big-endian sequence number (touch-batch, page, heartbeat, ack,
// resync, resume). Hello/welcome/policy-push carry binary-codec
// messages instead, and bye has no payload.
func (t FrameType) SeqBearing() bool {
	switch t {
	case FrameTouchBatch, FramePage, FrameHeartbeat, FrameAck, FrameResync, FrameResume:
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
	if !t.SeqBearing() || len(payload) < 8 {
		return 0
	}
	return binary.BigEndian.Uint64(payload)
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
	case FrameHeartbeat:
		return "heartbeat"
	case FramePolicyPush:
		return "policy-push"
	case FrameAck:
		return "ack"
	case FrameResync:
		return "resync"
	case FrameBye:
		return "bye"
	case FrameResume:
		return "resume"
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

// WriteFrame writes one frame to w in a single Write call. The payload
// may be nil (heartbeats, bye).
func WriteFrame(w io.Writer, t FrameType, payload []byte) error {
	frame, err := AppendFrame(nil, t, payload)
	if err != nil {
		return err
	}
	_, err = w.Write(frame)
	return err
}

// openFrame appends a frame header of type t to dst; closeFrame
// backfills its length once the payload behind it is in place. Every
// frame builder goes through this pair, so a frame is always appended
// whole into the caller's buffer and the payload cap is checked in
// one place.
func openFrame(dst []byte, t FrameType) []byte {
	return append(dst, byte(t), 0, 0, 0, 0)
}

// closeFrame completes the frame opened at dst[base:]: it backfills
// the header's payload length, or refuses a payload over
// MaxFramePayload and cuts dst back to base.
func closeFrame(dst []byte, base int) ([]byte, error) {
	n := len(dst) - base - frameHeaderLen
	if n > MaxFramePayload {
		return dst[:base], fmt.Errorf("%w: %d-byte payload exceeds %d cap", ErrFrame, n, MaxFramePayload)
	}
	binary.BigEndian.PutUint32(dst[base+1:], uint32(n))
	return dst, nil
}

// appendMessage appends msg's binary encoding behind a 4-byte length,
// the nested-message shape of the seq-bearing frames. On error it
// returns dst unchanged.
func appendMessage(dst []byte, msg any) ([]byte, error) {
	out, err := EncodeBinaryAppend(append(dst, 0, 0, 0, 0), msg)
	if err != nil {
		return dst, err
	}
	binary.BigEndian.PutUint32(out[len(dst):], uint32(len(out)-len(dst)-4))
	return out, nil
}

// AppendFrame appends one whole frame carrying payload verbatim to dst
// and returns the extended slice.
func AppendFrame(dst []byte, t FrameType, payload []byte) ([]byte, error) {
	return closeFrame(append(openFrame(dst, t), payload...), len(dst))
}

// AppendMessageFrame appends a frame whose payload is one binary-codec
// message: the hello, welcome and policy-push frames.
func AppendMessageFrame(dst []byte, t FrameType, msg any) ([]byte, error) {
	out, err := EncodeBinaryAppend(openFrame(dst, t), msg)
	if err != nil {
		return dst, err
	}
	return closeFrame(out, len(dst))
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
	t := FrameType(hdr[0])
	n := int(binary.BigEndian.Uint32(hdr[1:]))
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

// AppendTouchBatchFrame appends a FrameTouchBatch frame to dst,
// encoding each request once, straight into the caller's buffer.
func AppendTouchBatchFrame(dst []byte, seq uint64, now time.Duration, reqs []*PageRequest) ([]byte, error) {
	if len(reqs) == 0 || len(reqs) > maxBatchRequests {
		return dst, fmt.Errorf("%w: batch of %d requests", ErrFrame, len(reqs))
	}
	out := openFrame(dst, FrameTouchBatch)
	out = binary.BigEndian.AppendUint64(out, seq)
	out = binary.BigEndian.AppendUint64(out, uint64(now))
	out = binary.BigEndian.AppendUint32(out, uint32(len(reqs)))
	for _, req := range reqs {
		var err error
		if out, err = appendMessage(out, req); err != nil {
			return dst, err
		}
	}
	return closeFrame(out, len(dst))
}

// DecodeTouchBatch parses a touch-batch frame payload.
func DecodeTouchBatch(payload []byte) (*TouchBatch, error) {
	return decodeTouchBatch(payload, nil)
}

func decodeTouchBatch(payload []byte, intern *internTable) (*TouchBatch, error) {
	c := binCodec{buf: payload, decode: true}
	var seq, now uint64
	var n int
	c.u64(&seq)
	c.u64(&now)
	c.u32(&n)
	if c.err != nil || n < 1 || n > maxBatchRequests {
		return nil, fmt.Errorf("%w: touch-batch header", ErrFrame)
	}
	tb := &TouchBatch{Seq: seq, Now: time.Duration(now), Requests: make([]*PageRequest, 0, n)}
	for i := 0; i < n; i++ {
		raw := c.sub()
		if c.err != nil {
			return nil, fmt.Errorf("%w: touch-batch request %d", ErrFrame, i)
		}
		req, err := decodeAs[PageRequest](raw, intern)
		if err != nil {
			return nil, err
		}
		tb.Requests = append(tb.Requests, req)
	}
	if c.off != len(payload) {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrFrame, len(payload)-c.off)
	}
	return tb, nil
}

// AppendPageFrame appends a FramePage frame to dst: the echoed
// request frame sequence, the index of the batched request it answers,
// and the content page, encoded once, directly into dst. The batch
// response path builds its whole reply here before a single write.
func AppendPageFrame(dst []byte, seq uint64, index int, cp *ContentPage) ([]byte, error) {
	out := openFrame(dst, FramePage)
	out = binary.BigEndian.AppendUint64(out, seq)
	out = binary.BigEndian.AppendUint32(out, uint32(index))
	out, err := appendMessage(out, cp)
	if err != nil {
		return dst, err
	}
	return closeFrame(out, len(dst))
}

// DecodePageFrame parses a page-response frame payload.
func DecodePageFrame(payload []byte) (seq uint64, index int, cp *ContentPage, err error) {
	return decodePageFrame(payload, nil)
}

func decodePageFrame(payload []byte, intern *internTable) (seq uint64, index int, cp *ContentPage, err error) {
	c := binCodec{buf: payload, decode: true}
	c.u64(&seq)
	c.u32(&index)
	raw := c.sub()
	if c.err != nil || c.off != len(payload) {
		return 0, 0, nil, fmt.Errorf("%w: page frame", ErrFrame)
	}
	cp, err = decodeAs[ContentPage](raw, intern)
	if err != nil {
		return 0, 0, nil, err
	}
	return seq, index, cp, nil
}

// Heartbeat payload: a client-chosen sequence plus the virtual
// timestamp; the server echoes both verbatim.

// AppendHeartbeatFrame appends a heartbeat (or its echo) to dst.
func AppendHeartbeatFrame(dst []byte, seq uint64, now time.Duration) []byte {
	out := binary.BigEndian.AppendUint64(openFrame(dst, FrameHeartbeat), seq)
	out, _ = closeFrame(binary.BigEndian.AppendUint64(out, uint64(now)), len(dst)) // 16 bytes: never over the cap
	return out
}

// DecodeHeartbeat parses a heartbeat payload.
func DecodeHeartbeat(payload []byte) (seq uint64, now time.Duration, err error) {
	if len(payload) != 16 {
		return 0, 0, fmt.Errorf("%w: heartbeat of %d bytes", ErrFrame, len(payload))
	}
	return binary.BigEndian.Uint64(payload[:8]), time.Duration(binary.BigEndian.Uint64(payload[8:])), nil
}

// Ack payload: the echoed frame sequence, a wire error code ("" = ok;
// otherwise one of the X-Trust-Error codes, so the stream surfaces the
// same typed rejections as the HTTP path), and a human-readable
// detail.

// AppendAckFrame appends an ack/error frame to dst.
func AppendAckFrame(dst []byte, seq uint64, code, detail string) ([]byte, error) {
	out := binary.BigEndian.AppendUint64(openFrame(dst, FrameAck), seq)
	out = append(binary.BigEndian.AppendUint32(out, uint32(len(code))), code...)
	out = append(binary.BigEndian.AppendUint32(out, uint32(len(detail))), detail...)
	return closeFrame(out, len(dst))
}

// DecodeAck parses an ack/error frame payload.
func DecodeAck(payload []byte) (seq uint64, code, detail string, err error) {
	c := binCodec{buf: payload, decode: true}
	c.u64(&seq)
	c.str(&code)
	c.str(&detail)
	if c.err != nil || c.off != len(payload) {
		return 0, "", "", fmt.Errorf("%w: ack frame", ErrFrame)
	}
	return seq, code, detail, nil
}

// AppendResumeFrame appends a ticket fast login carried as a stream's
// opening frame: the client frame sequence, the virtual timestamp (a
// resume opens a connection, so unlike touch batches there is no
// preceding hello to carry it), and the ResumeSubmit.
func AppendResumeFrame(dst []byte, seq uint64, now time.Duration, sub *ResumeSubmit) ([]byte, error) {
	out := openFrame(dst, FrameResume)
	out = binary.BigEndian.AppendUint64(out, seq)
	out = binary.BigEndian.AppendUint64(out, uint64(now))
	out, err := appendMessage(out, sub)
	if err != nil {
		return dst, err
	}
	return closeFrame(out, len(dst))
}

// DecodeResumeFrame parses a stream resume payload.
func DecodeResumeFrame(payload []byte) (seq uint64, now time.Duration, sub *ResumeSubmit, err error) {
	c := binCodec{buf: payload, decode: true}
	var at uint64
	c.u64(&seq)
	c.u64(&at)
	raw := c.sub()
	if c.err != nil || c.off != len(payload) {
		return 0, 0, nil, fmt.Errorf("%w: resume frame", ErrFrame)
	}
	now = time.Duration(at)
	sub, err = DecodeAs[ResumeSubmit](raw)
	if err != nil {
		return 0, 0, nil, err
	}
	return seq, now, sub, nil
}

// AppendResyncFrame appends a resync carried on the stream: the
// client frame sequence plus the MAC-proof resync request.
func AppendResyncFrame(dst []byte, seq uint64, req *ResyncRequest) ([]byte, error) {
	out := binary.BigEndian.AppendUint64(openFrame(dst, FrameResync), seq)
	out, err := appendMessage(out, req)
	if err != nil {
		return dst, err
	}
	return closeFrame(out, len(dst))
}

// DecodeResyncFrame parses a stream resync payload.
func DecodeResyncFrame(payload []byte) (seq uint64, req *ResyncRequest, err error) {
	c := binCodec{buf: payload, decode: true}
	c.u64(&seq)
	raw := c.sub()
	if c.err != nil || c.off != len(payload) {
		return 0, nil, fmt.Errorf("%w: resync frame", ErrFrame)
	}
	req, err = DecodeAs[ResyncRequest](raw)
	if err != nil {
		return 0, nil, err
	}
	return seq, req, nil
}
