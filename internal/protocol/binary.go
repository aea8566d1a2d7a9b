package protocol

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sync"

	"trust/internal/frame"
	"trust/internal/geom"
	"trust/internal/pki"
)

// Binary wire codec: the paper rides its fields in cookie extensions,
// where every byte counts; this length-prefixed binary encoding is the
// production alternative to the JSON transport (see the Fig 10 wire
// overhead table for the size comparison). Authenticators still cover
// the canonical JSON bytes — the codec is pure transport, so a message
// may arrive over either encoding and verify identically.

const binVersion = 1

// Message tags.
const (
	tagRegistrationPage byte = iota + 1
	tagRegistrationSubmit
	tagLoginPage
	tagLoginSubmit
	tagContentPage
	tagPageRequest
	tagResyncRequest
	tagStreamHello
	tagStreamWelcome
	tagPolicyPush
	tagResumeSubmit
)

// ErrBinaryDecode reports malformed binary input.
var ErrBinaryDecode = errors.New("protocol: malformed binary message")

type binWriter struct{ buf bytes.Buffer }

func (w *binWriter) u8(v byte) { w.buf.WriteByte(v) }
func (w *binWriter) u32(v int) {
	var b [4]byte
	binary.BigEndian.PutUint32(b[:], uint32(v))
	w.buf.Write(b[:])
}
func (w *binWriter) u64(v uint64) {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], v)
	w.buf.Write(b[:])
}
func (w *binWriter) f64(v float64) { w.u64(math.Float64bits(v)) }
func (w *binWriter) bytes(b []byte) {
	w.u32(len(b))
	w.buf.Write(b)
}
func (w *binWriter) str(s string) {
	w.u32(len(s))
	w.buf.WriteString(s)
}
func (w *binWriter) hash(h frame.Hash) {
	w.buf.Write(h[:])
}

// binReader decodes one message. intern, when non-nil, is the stream
// connection's intern table: istr fields are looked up there instead of
// copied (see Decoder). The nil table is the stateless decoder.
type binReader struct {
	b      []byte
	off    int
	err    error
	intern *internTable
}

func (r *binReader) fail() {
	if r.err == nil {
		r.err = ErrBinaryDecode
	}
}
func (r *binReader) u8() byte {
	if r.err != nil || r.off+1 > len(r.b) {
		r.fail()
		return 0
	}
	v := r.b[r.off]
	r.off++
	return v
}
func (r *binReader) u32() int {
	if r.err != nil || r.off+4 > len(r.b) {
		r.fail()
		return 0
	}
	v := binary.BigEndian.Uint32(r.b[r.off:])
	r.off += 4
	return int(v)
}
func (r *binReader) u64() uint64 {
	if r.err != nil || r.off+8 > len(r.b) {
		r.fail()
		return 0
	}
	v := binary.BigEndian.Uint64(r.b[r.off:])
	r.off += 8
	return v
}
func (r *binReader) f64() float64 { return math.Float64frombits(r.u64()) }
func (r *binReader) bytes() []byte {
	b := r.sub()
	if r.err != nil {
		return nil
	}
	out := make([]byte, len(b))
	copy(out, b)
	return out
}

// sub returns a length-prefixed field as a subslice of the input, for
// nested payloads decoded on the spot; nothing it returns may be kept.
func (r *binReader) sub() []byte {
	n := r.u32()
	if r.err != nil || n < 0 || r.off+n > len(r.b) {
		r.fail()
		return nil
	}
	b := r.b[r.off : r.off+n : r.off+n]
	r.off += n
	return b
}

// str decodes a string field in one copy: the string conversion
// itself duplicates the input bytes, so routing through bytes() would
// pay a second, throwaway allocation on every string field.
func (r *binReader) str() string {
	return string(r.sub())
}

// istr decodes a string field that tends to repeat from frame to frame
// on one connection (domain, account, session id, action, page
// fields), through the intern table when there is one. Nonces, MACs and
// tickets never take this path: they are fresh on every message.
func (r *binReader) istr() string {
	return r.intern.get(r.sub())
}
func (r *binReader) hash() (h frame.Hash) {
	if r.err != nil || r.off+len(h) > len(r.b) {
		r.fail()
		return
	}
	copy(h[:], r.b[r.off:])
	r.off += len(h)
	return
}

// page encoding.

func writePage(w *binWriter, p *frame.Page) {
	if p == nil {
		w.u8(0)
		return
	}
	w.u8(1)
	w.str(p.URL)
	w.str(p.Title)
	w.str(p.Body)
	w.f64(p.HeightPX)
	w.u32(len(p.Elements))
	for _, e := range p.Elements {
		w.str(e.ID)
		w.u8(byte(e.Kind))
		w.str(e.Label)
		w.str(e.Action)
		w.f64(e.Bounds.Min.X)
		w.f64(e.Bounds.Min.Y)
		w.f64(e.Bounds.Max.X)
		w.f64(e.Bounds.Max.Y)
	}
}

// minElementLen is the smallest encoded page element: three empty
// strings (4-byte length each), the kind byte and four float64 bounds.
const minElementLen = 3*4 + 1 + 4*8

func readPage(r *binReader) *frame.Page {
	if !r.present() {
		return nil
	}
	p := &frame.Page{
		URL:      r.istr(),
		Title:    r.istr(),
		Body:     r.istr(),
		HeightPX: r.f64(),
	}
	// A page height is a layout extent: anything non-finite or negative
	// would make view enumeration loop and the canonical encoding's
	// integer conversion undefined.
	if math.IsNaN(p.HeightPX) || math.IsInf(p.HeightPX, 0) || p.HeightPX < 0 {
		r.fail()
		return nil
	}
	n := r.u32()
	// The count is bounded by the bytes left, so a short payload cannot
	// claim a large element slice.
	if r.err != nil || n < 0 || n > 10000 || n > (len(r.b)-r.off)/minElementLen {
		r.fail()
		return nil
	}
	if n > 0 {
		p.Elements = make([]frame.Element, n)
	}
	for i := range p.Elements {
		e := &p.Elements[i]
		e.ID = r.istr()
		e.Kind = frame.ElementKind(r.u8())
		e.Label = r.istr()
		e.Action = r.istr()
		e.Bounds = geom.Rect{
			Min: geom.Point{X: r.f64(), Y: r.f64()},
			Max: geom.Point{X: r.f64(), Y: r.f64()},
		}
	}
	return p
}

// present decodes an optional field's presence byte: 0 for absent, 1
// for present. Anything else is malformed, so every decodable input
// re-encodes to the bytes it came from.
func (r *binReader) present() bool {
	switch r.u8() {
	case 0:
		return false
	case 1:
		return true
	}
	r.fail()
	return false
}

// certificate encoding.

func writeCert(w *binWriter, c *pki.Certificate) {
	if c == nil {
		w.u8(0)
		return
	}
	w.u8(1)
	w.str(c.Subject)
	w.str(string(c.Role))
	w.bytes(c.PublicKey)
	w.bytes(c.KemKey)
	w.str(c.Issuer)
	w.u64(c.Serial)
	w.bytes(c.Signature)
}

func readCert(r *binReader) *pki.Certificate {
	if !r.present() {
		return nil
	}
	return &pki.Certificate{
		Subject:   r.str(),
		Role:      pki.Role(r.str()),
		PublicKey: r.bytes(),
		KemKey:    r.bytes(),
		Issuer:    r.str(),
		Serial:    r.u64(),
		Signature: r.bytes(),
	}
}

// writerPool recycles encode buffers across EncodeBinary calls (the
// per-request hot path re-encodes a ContentPage on every response).
// Oversized buffers are dropped instead of pooled so one huge message
// does not pin its allocation forever.
var writerPool = sync.Pool{New: func() any { return new(binWriter) }}

const maxPooledEncodeBuf = 64 << 10

// releaseWriter returns a borrowed writer to the pool unless it grew
// past the pooling cap.
func releaseWriter(w *binWriter) {
	if w.buf.Cap() <= maxPooledEncodeBuf {
		writerPool.Put(w)
	}
}

// EncodeBinary serializes any protocol message to the compact wire
// form. The returned slice is freshly allocated and owned by the
// caller.
func EncodeBinary(msg any) ([]byte, error) {
	return EncodeBinaryAppend(nil, msg)
}

// EncodeBinaryAppend appends msg's binary encoding to dst and returns
// the extended slice — the allocation-free variant for callers that
// recycle their own buffers (the device transport pools request
// bodies this way, mirroring the writer pool here).
func EncodeBinaryAppend(dst []byte, msg any) ([]byte, error) {
	w := writerPool.Get().(*binWriter)
	w.buf.Reset()
	defer releaseWriter(w)
	if err := encodeBinaryInto(w, msg); err != nil {
		return nil, err
	}
	return append(dst, w.buf.Bytes()...), nil
}

// encodeBinaryInto writes the versioned, tagged encoding of msg into w.
// Messages authenticated by a session-key MAC write their fields
// through their encode method, the one field list both the codec and
// the MAC input (Authenticated) use.
func encodeBinaryInto(w *binWriter, msg any) error {
	w.u8(binVersion)
	switch m := msg.(type) {
	case *RegistrationPage:
		w.u8(tagRegistrationPage)
		w.str(m.Domain)
		w.str(string(m.Nonce))
		writePage(w, m.Page)
		writeCert(w, m.ServerCert)
		w.bytes(m.Signature)
	case *RegistrationSubmit:
		w.u8(tagRegistrationSubmit)
		w.str(m.Domain)
		w.str(m.Account)
		w.str(string(m.Nonce))
		w.bytes(m.UserPub)
		w.hash(m.FrameHash)
		writeCert(w, m.DeviceCert)
		w.bytes(m.Signature)
	case *LoginPage:
		w.u8(tagLoginPage)
		w.str(m.Domain)
		w.str(string(m.Nonce))
		writePage(w, m.Page)
		w.bytes(m.Signature)
	case *LoginSubmit:
		w.u8(tagLoginSubmit)
		w.str(m.Domain)
		w.str(m.Account)
		w.str(string(m.Nonce))
		w.bytes(m.SessionKeyCT)
		w.hash(m.FrameHash)
		w.u32(m.RiskVerified)
		w.u32(m.RiskWindow)
		w.bytes(m.Signature)
		w.bytes(m.MAC)
	case *ContentPage:
		m.encode(w, m.MAC)
	case *PageRequest:
		m.encode(w, m.MAC)
	case *ResyncRequest:
		m.encode(w, m.MAC)
	case *ResumeSubmit:
		m.encode(w, m.MAC)
	case *StreamHello:
		m.encode(w, m.MAC)
	case *StreamWelcome:
		m.encode(w, m.MAC)
	case *PolicyPush:
		m.encode(w, m.MAC)
	default:
		return fmt.Errorf("protocol: cannot binary-encode %T", msg)
	}
	return nil
}

// Field writers of the MAC-authenticated messages: the tag, every
// field in wire order, and mac in the MAC slot — the message's own tag
// on the wire, nil for its MAC input.

func (m *ContentPage) encode(w *binWriter, mac []byte) {
	w.u8(tagContentPage)
	w.str(m.Domain)
	w.str(m.SessionID)
	w.str(string(m.Nonce))
	w.str(m.Account)
	writePage(w, m.Page)
	w.bytes(m.Ticket)
	w.bytes(mac)
}

func (m *PageRequest) encode(w *binWriter, mac []byte) {
	w.u8(tagPageRequest)
	w.str(m.Domain)
	w.str(m.Account)
	w.str(m.SessionID)
	w.str(string(m.Nonce))
	w.str(m.Action)
	w.hash(m.FrameHash)
	w.u32(m.RiskVerified)
	w.u32(m.RiskWindow)
	w.bytes(mac)
}

func (m *ResyncRequest) encode(w *binWriter, mac []byte) {
	w.u8(tagResyncRequest)
	w.str(m.Domain)
	w.str(m.Account)
	w.str(m.SessionID)
	w.bytes(mac)
}

func (m *ResumeSubmit) encode(w *binWriter, mac []byte) {
	w.u8(tagResumeSubmit)
	w.str(m.Domain)
	w.str(m.Account)
	w.bytes(m.Ticket)
	w.hash(m.FrameHash)
	w.u32(m.RiskVerified)
	w.u32(m.RiskWindow)
	w.bytes(mac)
}

func (m *StreamHello) encode(w *binWriter, mac []byte) {
	w.u8(tagStreamHello)
	w.str(m.Domain)
	w.str(m.Account)
	w.str(m.SessionID)
	w.bytes(mac)
}

func (m *StreamWelcome) encode(w *binWriter, mac []byte) {
	w.u8(tagStreamWelcome)
	w.str(m.Domain)
	w.str(m.SessionID)
	w.bytes(m.NonceSeed)
	w.u32(m.Window)
	w.u32(m.MinVerified)
	w.bytes(mac)
}

func (m *PolicyPush) encode(w *binWriter, mac []byte) {
	w.u8(tagPolicyPush)
	w.str(m.Domain)
	w.str(m.SessionID)
	w.u32(m.Window)
	w.u32(m.MinVerified)
	w.u64(m.Seq)
	w.bytes(mac)
}

// DecodeBinary parses a binary message, returning one of the protocol
// message pointer types.
func DecodeBinary(data []byte) (any, error) {
	return decodeBinary(data, nil)
}

// decodeBinary is the one message decoder; intern is the calling
// connection's intern table, or nil to copy every string field.
func decodeBinary(data []byte, intern *internTable) (any, error) {
	r := &binReader{b: data, intern: intern}
	if v := r.u8(); v != binVersion {
		return nil, fmt.Errorf("%w: version %d", ErrBinaryDecode, v)
	}
	tag := r.u8()
	var out any
	switch tag {
	case tagRegistrationPage:
		m := &RegistrationPage{}
		m.Domain = r.istr()
		m.Nonce = Nonce(r.str())
		m.Page = readPage(r)
		m.ServerCert = readCert(r)
		m.Signature = r.bytes()
		out = m
	case tagRegistrationSubmit:
		m := &RegistrationSubmit{}
		m.Domain = r.istr()
		m.Account = r.istr()
		m.Nonce = Nonce(r.str())
		m.UserPub = r.bytes()
		m.FrameHash = r.hash()
		m.DeviceCert = readCert(r)
		m.Signature = r.bytes()
		out = m
	case tagLoginPage:
		m := &LoginPage{}
		m.Domain = r.istr()
		m.Nonce = Nonce(r.str())
		m.Page = readPage(r)
		m.Signature = r.bytes()
		out = m
	case tagLoginSubmit:
		m := &LoginSubmit{}
		m.Domain = r.istr()
		m.Account = r.istr()
		m.Nonce = Nonce(r.str())
		m.SessionKeyCT = r.bytes()
		m.FrameHash = r.hash()
		m.RiskVerified = r.u32()
		m.RiskWindow = r.u32()
		m.Signature = r.bytes()
		m.MAC = r.bytes()
		out = m
	case tagContentPage:
		m := &ContentPage{}
		m.Domain = r.istr()
		m.SessionID = r.istr()
		m.Nonce = Nonce(r.str())
		m.Account = r.istr()
		m.Page = readPage(r)
		m.Ticket = r.bytes()
		m.MAC = r.bytes()
		out = m
	case tagPageRequest:
		m := &PageRequest{}
		m.Domain = r.istr()
		m.Account = r.istr()
		m.SessionID = r.istr()
		m.Nonce = Nonce(r.str())
		m.Action = r.istr()
		m.FrameHash = r.hash()
		m.RiskVerified = r.u32()
		m.RiskWindow = r.u32()
		m.MAC = r.bytes()
		out = m
	case tagResyncRequest:
		m := &ResyncRequest{}
		m.Domain = r.istr()
		m.Account = r.istr()
		m.SessionID = r.istr()
		m.MAC = r.bytes()
		out = m
	case tagResumeSubmit:
		m := &ResumeSubmit{}
		m.Domain = r.istr()
		m.Account = r.istr()
		m.Ticket = r.bytes()
		m.FrameHash = r.hash()
		m.RiskVerified = r.u32()
		m.RiskWindow = r.u32()
		m.MAC = r.bytes()
		out = m
	case tagStreamHello:
		m := &StreamHello{}
		m.Domain = r.istr()
		m.Account = r.istr()
		m.SessionID = r.istr()
		m.MAC = r.bytes()
		out = m
	case tagStreamWelcome:
		m := &StreamWelcome{}
		m.Domain = r.istr()
		m.SessionID = r.istr()
		m.NonceSeed = r.bytes()
		m.Window = r.u32()
		m.MinVerified = r.u32()
		m.MAC = r.bytes()
		out = m
	case tagPolicyPush:
		m := &PolicyPush{}
		m.Domain = r.istr()
		m.SessionID = r.istr()
		m.Window = r.u32()
		m.MinVerified = r.u32()
		m.Seq = r.u64()
		m.MAC = r.bytes()
		out = m
	default:
		return nil, fmt.Errorf("%w: tag %d", ErrBinaryDecode, tag)
	}
	if r.err != nil {
		return nil, r.err
	}
	if r.off != len(data) {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrBinaryDecode, len(data)-r.off)
	}
	return out, nil
}
