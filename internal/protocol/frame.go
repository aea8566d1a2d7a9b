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
// body. Frames are assembled in the pooled binary writer and hit the
// connection in a single Write — one syscall per frame, and a torn or
// cut write can never interleave two frames.

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
	if len(payload) > MaxFramePayload {
		return fmt.Errorf("%w: %d-byte payload exceeds %d cap", ErrFrame, len(payload), MaxFramePayload)
	}
	bw := writerPool.Get().(*binWriter)
	bw.buf.Reset()
	defer releaseWriter(bw)
	bw.u8(byte(t))
	bw.u32(len(payload))
	bw.buf.Write(payload)
	_, err := w.Write(bw.buf.Bytes())
	return err
}

// AppendFrame appends one whole frame (header + payload) to dst and
// returns the extended slice. Callers coalescing several frames into
// a single write build them here and flush dst once; the wire bytes
// are identical to consecutive WriteFrame calls.
func AppendFrame(dst []byte, t FrameType, payload []byte) ([]byte, error) {
	if len(payload) > MaxFramePayload {
		return dst, fmt.Errorf("%w: %d-byte payload exceeds %d cap", ErrFrame, len(payload), MaxFramePayload)
	}
	var hdr [frameHeaderLen]byte
	hdr[0] = byte(t)
	binary.BigEndian.PutUint32(hdr[1:], uint32(len(payload)))
	return append(append(dst, hdr[:]...), payload...), nil
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

// EncodeTouchBatch serializes a touch batch into a frame payload.
func EncodeTouchBatch(seq uint64, now time.Duration, reqs []*PageRequest) ([]byte, error) {
	f, err := AppendTouchBatchFrame(nil, seq, now, reqs)
	if err != nil {
		return nil, err
	}
	return f[frameHeaderLen:], nil
}

// AppendTouchBatchFrame appends a complete FrameTouchBatch frame —
// header included — to dst and returns the extended slice: the
// client-side mirror of AppendPageFrame, encoding each request once,
// straight into the caller's buffer.
func AppendTouchBatchFrame(dst []byte, seq uint64, now time.Duration, reqs []*PageRequest) ([]byte, error) {
	if len(reqs) == 0 || len(reqs) > maxBatchRequests {
		return dst, fmt.Errorf("%w: batch of %d requests", ErrFrame, len(reqs))
	}
	base := len(dst)
	dst = append(dst, byte(FrameTouchBatch), 0, 0, 0, 0)
	dst = binary.BigEndian.AppendUint64(dst, seq)
	dst = binary.BigEndian.AppendUint64(dst, uint64(now))
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(reqs)))
	for _, req := range reqs {
		at := len(dst)
		dst = append(dst, 0, 0, 0, 0)
		out, err := EncodeBinaryAppend(dst, req)
		if err != nil {
			return dst[:base], err
		}
		dst = out
		binary.BigEndian.PutUint32(dst[at:], uint32(len(dst)-at-4))
	}
	payload := len(dst) - base - frameHeaderLen
	if payload > MaxFramePayload {
		return dst[:base], fmt.Errorf("%w: %d-byte payload exceeds %d cap", ErrFrame, payload, MaxFramePayload)
	}
	binary.BigEndian.PutUint32(dst[base+1:], uint32(payload))
	return dst, nil
}

// DecodeTouchBatch parses a touch-batch frame payload.
func DecodeTouchBatch(payload []byte) (*TouchBatch, error) {
	return decodeTouchBatch(payload, nil)
}

func decodeTouchBatch(payload []byte, intern *internTable) (*TouchBatch, error) {
	r := &binReader{b: payload}
	seq, now := r.u64(), time.Duration(r.u64())
	n := r.u32()
	if r.err != nil || n < 1 || n > maxBatchRequests {
		return nil, fmt.Errorf("%w: touch-batch header", ErrFrame)
	}
	tb := &TouchBatch{Seq: seq, Now: now, Requests: make([]*PageRequest, 0, n)}
	for i := 0; i < n; i++ {
		raw := r.sub()
		if r.err != nil {
			return nil, fmt.Errorf("%w: touch-batch request %d", ErrFrame, i)
		}
		msg, err := decodeBinary(raw, intern)
		if err != nil {
			return nil, err
		}
		req, ok := msg.(*PageRequest)
		if !ok {
			return nil, fmt.Errorf("%w: touch-batch carries %T", ErrFrame, msg)
		}
		tb.Requests = append(tb.Requests, req)
	}
	if r.off != len(payload) {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrFrame, len(payload)-r.off)
	}
	return tb, nil
}

// EncodePageFrame serializes a page response: the echoed request frame
// sequence, the index of the batched request it answers, and the
// content page.
func EncodePageFrame(seq uint64, index int, cp *ContentPage) ([]byte, error) {
	body, err := EncodeBinary(cp)
	if err != nil {
		return nil, err
	}
	w := writerPool.Get().(*binWriter)
	w.buf.Reset()
	defer releaseWriter(w)
	w.u64(seq)
	w.u32(index)
	w.bytes(body)
	return append([]byte(nil), w.buf.Bytes()...), nil
}

// AppendPageFrame appends a complete FramePage frame — header included
// — to dst and returns the extended slice. It is the zero-copy variant
// of WriteFrame(w, FramePage, EncodePageFrame(...)): the content page
// is encoded once, directly into dst, instead of being serialized into
// an intermediate payload and copied twice more. The batch response
// path builds its whole reply here before a single write.
func AppendPageFrame(dst []byte, seq uint64, index int, cp *ContentPage) ([]byte, error) {
	base := len(dst)
	// Frame header: type byte + 4-byte payload length, backfilled once
	// the payload is in place.
	dst = append(dst, byte(FramePage), 0, 0, 0, 0)
	var fixed [12]byte
	binary.BigEndian.PutUint64(fixed[:8], seq)
	binary.BigEndian.PutUint32(fixed[8:], uint32(index))
	dst = append(dst, fixed[:]...)
	// Length-prefixed message body, length backfilled like the header.
	bodyAt := len(dst)
	dst = append(dst, 0, 0, 0, 0)
	out, err := EncodeBinaryAppend(dst, cp)
	if err != nil {
		return dst[:base], err
	}
	dst = out
	binary.BigEndian.PutUint32(dst[bodyAt:], uint32(len(dst)-bodyAt-4))
	payload := len(dst) - base - frameHeaderLen
	if payload > MaxFramePayload {
		return dst[:base], fmt.Errorf("%w: %d-byte payload exceeds %d cap", ErrFrame, payload, MaxFramePayload)
	}
	binary.BigEndian.PutUint32(dst[base+1:], uint32(payload))
	return dst, nil
}

// DecodePageFrame parses a page-response frame payload.
func DecodePageFrame(payload []byte) (seq uint64, index int, cp *ContentPage, err error) {
	return decodePageFrame(payload, nil)
}

func decodePageFrame(payload []byte, intern *internTable) (seq uint64, index int, cp *ContentPage, err error) {
	r := &binReader{b: payload}
	seq = r.u64()
	index = r.u32()
	raw := r.sub()
	if r.err != nil || r.off != len(payload) {
		return 0, 0, nil, fmt.Errorf("%w: page frame", ErrFrame)
	}
	msg, err := decodeBinary(raw, intern)
	if err != nil {
		return 0, 0, nil, err
	}
	cp, ok := msg.(*ContentPage)
	if !ok {
		return 0, 0, nil, fmt.Errorf("%w: page frame carries %T", ErrFrame, msg)
	}
	return seq, index, cp, nil
}

// Heartbeat payload: a client-chosen sequence plus the virtual
// timestamp; the server echoes both verbatim.

// EncodeHeartbeat serializes a heartbeat (or its echo).
func EncodeHeartbeat(seq uint64, now time.Duration) []byte {
	var b [16]byte
	binary.BigEndian.PutUint64(b[:8], seq)
	binary.BigEndian.PutUint64(b[8:], uint64(now))
	return b[:]
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

// EncodeAck serializes an ack/error frame payload.
func EncodeAck(seq uint64, code, detail string) []byte {
	w := writerPool.Get().(*binWriter)
	w.buf.Reset()
	defer releaseWriter(w)
	w.u64(seq)
	w.str(code)
	w.str(detail)
	return append([]byte(nil), w.buf.Bytes()...)
}

// DecodeAck parses an ack/error frame payload.
func DecodeAck(payload []byte) (seq uint64, code, detail string, err error) {
	r := &binReader{b: payload}
	seq = r.u64()
	code = r.str()
	detail = r.str()
	if r.err != nil || r.off != len(payload) {
		return 0, "", "", fmt.Errorf("%w: ack frame", ErrFrame)
	}
	return seq, code, detail, nil
}

// EncodeResumeFrame serializes a ticket fast login carried as a
// stream's opening frame: the client frame sequence, the virtual
// timestamp (a resume opens a connection, so unlike touch batches
// there is no preceding hello to carry it), and the ResumeSubmit.
func EncodeResumeFrame(seq uint64, now time.Duration, sub *ResumeSubmit) ([]byte, error) {
	body, err := EncodeBinary(sub)
	if err != nil {
		return nil, err
	}
	w := writerPool.Get().(*binWriter)
	w.buf.Reset()
	defer releaseWriter(w)
	w.u64(seq)
	w.u64(uint64(now))
	w.bytes(body)
	return append([]byte(nil), w.buf.Bytes()...), nil
}

// DecodeResumeFrame parses a stream resume payload.
func DecodeResumeFrame(payload []byte) (seq uint64, now time.Duration, sub *ResumeSubmit, err error) {
	r := &binReader{b: payload}
	seq = r.u64()
	now = time.Duration(r.u64())
	raw := r.sub()
	if r.err != nil || r.off != len(payload) {
		return 0, 0, nil, fmt.Errorf("%w: resume frame", ErrFrame)
	}
	msg, err := DecodeBinary(raw)
	if err != nil {
		return 0, 0, nil, err
	}
	rs, ok := msg.(*ResumeSubmit)
	if !ok {
		return 0, 0, nil, fmt.Errorf("%w: resume frame carries %T", ErrFrame, msg)
	}
	return seq, now, rs, nil
}

// EncodeResyncFrame serializes a resync carried on the stream: the
// client frame sequence plus the MAC-proof resync request.
func EncodeResyncFrame(seq uint64, req *ResyncRequest) ([]byte, error) {
	body, err := EncodeBinary(req)
	if err != nil {
		return nil, err
	}
	w := writerPool.Get().(*binWriter)
	w.buf.Reset()
	defer releaseWriter(w)
	w.u64(seq)
	w.bytes(body)
	return append([]byte(nil), w.buf.Bytes()...), nil
}

// DecodeResyncFrame parses a stream resync payload.
func DecodeResyncFrame(payload []byte) (seq uint64, req *ResyncRequest, err error) {
	r := &binReader{b: payload}
	seq = r.u64()
	raw := r.sub()
	if r.err != nil || r.off != len(payload) {
		return 0, nil, fmt.Errorf("%w: resync frame", ErrFrame)
	}
	msg, err := DecodeBinary(raw)
	if err != nil {
		return 0, nil, err
	}
	rr, ok := msg.(*ResyncRequest)
	if !ok {
		return 0, nil, fmt.Errorf("%w: resync frame carries %T", ErrFrame, msg)
	}
	return seq, rr, nil
}
