package protocol

import "io"

// Per-connection decoding state. On a stream, consecutive frames repeat
// most of their short string fields — the domain, account, session id
// and action of every request, and the URL, title, body and element
// fields of the few pages a session moves between — so a connection's
// decoder keeps a small table of the strings it has already built and
// hands those out instead of copying the same bytes again.

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
// safe. A Decoder belongs to the connection's single read-loop
// goroutine; the zero value is ready to use. Its output is identical to
// the package-level ReadFrame, DecodeTouchBatch and DecodePageFrame.
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
// the result equals DecodeTouchBatch's. Whatever tb held before is
// overwritten, so nothing of it may still be in use. On error tb holds
// a partial decode.
func (d *Decoder) DecodeTouchBatchInto(payload []byte, tb *TouchBatch) error {
	return decodeTouchBatch(payload, &d.intern, tb)
}

// DecodePageFrame is the package-level DecodePageFrame through this
// connection's intern table.
func (d *Decoder) DecodePageFrame(payload []byte) (seq uint64, index int, cp *ContentPage, err error) {
	return decodePageFrame(payload, &d.intern)
}
