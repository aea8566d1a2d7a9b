package protocol

import (
	"fmt"
	"io"
)

// Per-connection decoding state. On a stream, consecutive frames repeat
// most of their short string fields — the domain, account, session id
// and action of every request, and the URL, title, body and element
// fields of the few pages a session moves between — so a connection's
// decoder keeps a small table of the strings it has already built and
// hands those out instead of copying the same bytes again. An HTTP
// transport's responses repeat the same page fields, so it keeps one
// decoder too.

// The intern table's bounds. A connection's table holds at most
// internSlots strings of at most internMaxLen bytes each, 16 KiB of
// string data; longer fields are copied as usual.
const (
	internSlots  = 64
	internMaxLen = 256
	internWays   = 4 // slots per set: a string may live in any slot of its set
)

// internTable is a bounded set-associative string cache. A miss in a
// full set evicts round-robin, so a peer that sends ever-new strings
// costs what the stateless decoder costs and never more memory.
type internTable struct {
	slots [internSlots]string
	next  uint8 // round-robin eviction cursor
}

// get returns a string equal to b: the cached one when the table holds
// it, otherwise a fresh copy, remembered when it is short enough. A nil
// table always copies.
func (t *internTable) get(b []byte) string {
	if t == nil || len(b) == 0 || len(b) > internMaxLen {
		return string(b)
	}
	h := uint32(2166136261) // FNV-1a
	for _, c := range b {
		h ^= uint32(c)
		h *= 16777619
	}
	base := int(h%(internSlots/internWays)) * internWays
	set := t.slots[base : base+internWays]
	for _, s := range set {
		if s == string(b) {
			return s
		}
	}
	s := string(b)
	for i := range set {
		if set[i] == "" {
			set[i] = s
			return s
		}
	}
	t.next++
	set[int(t.next)%internWays] = s
	return s
}

// Decoder decodes the frames of one stream connection. It reads each
// payload into a buffer it reuses, and decodes through the connection's
// intern table (fields listed at binCodec.istr). Every field a decoded
// message keeps is copied or interned, so reusing the payload buffer is
// safe. A Decoder is not safe for concurrent use: it belongs to one
// stream connection's reader, or to one HTTP transport, which decodes
// its responses under its own lock. The zero value is ready to use. Its
// output is identical to the package-level ReadFrame and DecodeAs, and
// to a decode that interns nothing: a zero Decoder's first decode
// copies every field, as the package-level decoders do.
//
// DecodePageFrame returns a fresh message, which stays valid for as
// long as the caller keeps it. DecodeTouchBatchInto instead decodes
// into a batch the caller owns and reuses — the server keeps one per
// connection — so that batch, its requests and their MACs are valid
// only until the next frame is decoded into it.
type Decoder struct {
	hdr    [frameHeaderLen]byte
	buf    []byte // payload scratch, at most maxPooledEncodeBuf
	intern internTable
}

// ReadFrame reads one frame like the package-level ReadFrame, but the
// payload it returns is only valid until the next call.
func (d *Decoder) ReadFrame(r io.Reader) (FrameType, []byte, error) {
	t, p, err := readFrame(r, &d.hdr, d.buf)
	// A larger frame than the scratch holds grows it, up to the pooling
	// cap; beyond that the frame had its own buffer and is not kept.
	if cap(p) > cap(d.buf) && cap(p) <= maxPooledEncodeBuf {
		d.buf = p[:0]
	}
	return t, p, err
}

// DecodeTouchBatchInto decodes a touch-batch payload into tb, reusing
// its request slice, the requests it holds and their MACs' storage;
// the result equals a decode into a fresh batch. Whatever tb held
// before is overwritten, so nothing of it may still be in use. On error
// tb holds a partial decode.
func (d *Decoder) DecodeTouchBatchInto(payload []byte, tb *TouchBatch) error {
	return decodeTouchBatch(payload, &d.intern, tb)
}

// DecodePageFrame parses a page-response frame payload through this
// connection's intern table.
func (d *Decoder) DecodePageFrame(payload []byte) (seq uint64, index int, cp *ContentPage, err error) {
	return decodePageFrame(payload, &d.intern)
}

// DecodeMessage decodes data into m, a fresh message of the type the
// caller's context fixes (an HTTP route), through this decoder's intern
// table: the HTTP twin of DecodePageFrame. It fails unless data encodes
// exactly one message of m's type, and on success m equals what
// DecodeAs returns for the same bytes. On error m holds a partial
// decode.
func (d *Decoder) DecodeMessage(data []byte, m any) error {
	e, ok := m.(encoder)
	if !ok {
		return fmt.Errorf("%w: %T is not a message", ErrBinaryDecode, m)
	}
	return decodeInto(data, &d.intern, e)
}
