package protocol

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sync"

	"trust/internal/frame"
	"trust/internal/pki"
)

// Binary wire codec: the paper rides its fields in cookie extensions,
// where every byte counts; this length-prefixed binary encoding is the
// production alternative to the JSON transport (see the Fig 10 wire
// overhead table for the size comparison). Each message's one field
// list (its fields method) is also its decoder and its authenticator
// input (messages.go), so a message may arrive over either encoding
// and verify identically.

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

// errUnencodable reports an int outside [0, 2^32) or an element kind
// outside a byte: written truncated, it would share another's encoding.
var errUnencodable = errors.New("protocol: message field out of encodable range")

// binCodec walks one message's field list in either direction. Each
// field method encodes the field its pointer names by appending to buf,
// or, when decode is set, decodes it from buf[off:] and stores it
// there. So a message's fields method is at once its encoding, its
// decoding and its authenticator input, and the decoder cannot drift
// from what was signed. Encoding only reads through the pointers: the
// messages it walks may be shared between goroutines.
type binCodec struct {
	buf    []byte
	off    int
	decode bool
	// input walks the authenticator input: auth fields encode empty.
	// inner empties innerAuth fields too, for the input of the
	// signature a MAC covers (LoginSubmit's).
	input, inner bool
	err          error
	// intern, when non-nil, is the stream connection's intern table:
	// istr fields are looked up there instead of copied (see Decoder).
	// The nil table is the stateless decoder.
	intern *internTable
}

func (c *binCodec) fail(err error) {
	if c.err == nil {
		c.err = err
	}
}

// take consumes the next n input bytes, or fails and returns nil.
func (c *binCodec) take(n int) []byte {
	if c.err != nil || n < 0 || n > len(c.buf)-c.off {
		c.fail(ErrBinaryDecode)
		return nil
	}
	b := c.buf[c.off : c.off+n : c.off+n]
	c.off += n
	return b
}

func (c *binCodec) u8(v *byte) {
	if !c.decode {
		c.buf = append(c.buf, *v)
	} else if b := c.take(1); b != nil {
		*v = b[0]
	}
}

func (c *binCodec) u32(v *int) {
	if !c.decode {
		if *v < 0 || int64(*v) > math.MaxUint32 {
			c.fail(errUnencodable)
		}
		c.buf = binary.BigEndian.AppendUint32(c.buf, uint32(*v))
	} else if b := c.take(4); b != nil {
		*v = int(binary.BigEndian.Uint32(b))
	}
}

func (c *binCodec) u64(v *uint64) {
	if !c.decode {
		c.buf = binary.BigEndian.AppendUint64(c.buf, *v)
	} else if b := c.take(8); b != nil {
		*v = binary.BigEndian.Uint64(b)
	}
}

func (c *binCodec) f64(v *float64) {
	if !c.decode {
		c.buf = binary.BigEndian.AppendUint64(c.buf, math.Float64bits(*v))
	} else if b := c.take(8); b != nil {
		*v = math.Float64frombits(binary.BigEndian.Uint64(b))
	}
}

func (c *binCodec) hash(h *frame.Hash) {
	if !c.decode {
		c.buf = append(c.buf, h[:]...)
	} else if b := c.take(len(h)); b != nil {
		copy(h[:], b)
	}
}

// sub decodes a length-prefixed field as a subslice of the input, for
// nested payloads decoded on the spot; nothing it returns may be kept.
func (c *binCodec) sub() []byte {
	var n int
	c.u32(&n)
	return c.take(n)
}

func (c *binCodec) bytes(v *[]byte) {
	if !c.decode {
		c.lenPrefix(len(*v))
		c.buf = append(c.buf, *v...)
	} else if b := c.sub(); c.err == nil {
		*v = append(make([]byte, 0, len(b)), b...)
	}
}

// str decodes a string field in one copy, the string conversion.
func (c *binCodec) str(v *string) {
	if !c.decode {
		c.lenPrefix(len(*v))
		c.buf = append(c.buf, *v...)
	} else if b := c.sub(); c.err == nil {
		*v = string(b)
	}
}

// istr walks a string field that tends to repeat from frame to frame
// on one connection (domain, account, session id, action, page
// fields), decoding it through the intern table when there is one.
// Nonces, MACs and tickets never take this path: they are fresh on
// every message.
func (c *binCodec) istr(v *string) {
	if !c.decode {
		c.str(v)
	} else if b := c.sub(); c.err == nil {
		*v = c.intern.get(b)
	}
}

func (c *binCodec) lenPrefix(n int) { c.u32(&n) }

// auth walks a message's own authenticator, empty in its
// authenticator input.
func (c *binCodec) auth(v *[]byte) {
	if c.input {
		v = new([]byte)
	}
	c.bytes(v)
}

// innerAuth walks an authenticator that the message's own one covers:
// present in the MAC input, empty in the input it authenticates itself.
func (c *binCodec) innerAuth(v *[]byte) {
	if c.inner {
		v = new([]byte)
	}
	c.bytes(v)
}

// head walks the version byte and the message tag. The decoder picks
// the message type by tag before the walk, so here both only advance.
func (c *binCodec) head(tag byte) {
	v := byte(binVersion)
	c.u8(&v)
	c.u8(&tag)
}

// present walks an optional field's presence byte: 0 for absent, 1
// for present. Anything else is malformed, so every decodable input
// re-encodes to the bytes it came from.
func (c *binCodec) present(has bool) bool {
	b := byte(0)
	if has {
		b = 1
	}
	c.u8(&b)
	if b > 1 {
		c.fail(ErrBinaryDecode)
	}
	return b == 1
}

// minElementLen is the smallest encoded page element: three empty
// strings (4-byte length each), the kind byte and four float64 bounds.
const minElementLen = 3*4 + 1 + 4*8

// page walks an optional page.
func (c *binCodec) page(pp **frame.Page) {
	if !c.present(*pp != nil) {
		return
	}
	if c.decode {
		*pp = new(frame.Page)
	}
	p := *pp
	c.istr(&p.URL)
	c.istr(&p.Title)
	c.istr(&p.Body)
	c.f64(&p.HeightPX)
	n := len(p.Elements)
	c.u32(&n)
	if c.decode {
		// A page height is a layout extent: anything non-finite or
		// negative would make view enumeration loop and the canonical
		// encoding's integer conversion undefined. The element count
		// is bounded by the bytes left, so a short payload cannot
		// claim a large element slice.
		if h := p.HeightPX; math.IsNaN(h) || math.IsInf(h, 0) || h < 0 ||
			n < 0 || n > 10000 || n > (len(c.buf)-c.off)/minElementLen {
			c.fail(ErrBinaryDecode)
		}
		if c.err != nil {
			return
		}
		if n > 0 {
			p.Elements = make([]frame.Element, n)
		}
	}
	for i := range p.Elements {
		e := &p.Elements[i]
		c.istr(&e.ID)
		kind := byte(e.Kind)
		if frame.ElementKind(kind) != e.Kind {
			c.fail(errUnencodable)
		}
		c.u8(&kind)
		if c.decode {
			e.Kind = frame.ElementKind(kind)
		}
		c.istr(&e.Label)
		c.istr(&e.Action)
		c.f64(&e.Bounds.Min.X)
		c.f64(&e.Bounds.Min.Y)
		c.f64(&e.Bounds.Max.X)
		c.f64(&e.Bounds.Max.Y)
	}
}

// cert walks an optional certificate.
func (c *binCodec) cert(pc **pki.Certificate) {
	if !c.present(*pc != nil) {
		return
	}
	if c.decode {
		*pc = new(pki.Certificate)
	}
	x := *pc
	c.str(&x.Subject)
	c.str((*string)(&x.Role))
	c.bytes(&x.PublicKey)
	c.bytes(&x.KemKey)
	c.str(&x.Issuer)
	c.u64(&x.Serial)
	c.bytes(&x.Signature)
}

// codecPool recycles encode buffers across EncodeBinary calls (the
// per-request hot path re-encodes a ContentPage on every response).
// Oversized buffers are dropped instead of pooled so one huge message
// does not pin its allocation forever.
var codecPool = sync.Pool{New: func() any { return new(binCodec) }}

const maxPooledEncodeBuf = 64 << 10

// releaseCodec returns a borrowed codec to the pool unless its buffer
// grew past the pooling cap.
func releaseCodec(c *binCodec) {
	if cap(c.buf) <= maxPooledEncodeBuf {
		codecPool.Put(c)
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
// bodies this way, mirroring the codec pool here).
func EncodeBinaryAppend(dst []byte, msg any) ([]byte, error) {
	m, ok := msg.(encoder)
	if !ok {
		return nil, fmt.Errorf("protocol: cannot binary-encode %T", msg)
	}
	return withEncoding(m, false, func(enc []byte) []byte { return append(dst, enc...) })
}

// encoder is a message with a field list: fields walks its version
// byte, its tag and every field in wire order.
type encoder interface {
	fields(c *binCodec)
}

// withEncoding encodes m with a pooled codec, as its authenticator
// input when input is set, and hands the encoding to use, which must
// not keep it. The codec and every authenticator share it.
func withEncoding[T any](m encoder, input bool, use func(enc []byte) T) (out T, err error) {
	c := codecPool.Get().(*binCodec)
	defer releaseCodec(c)
	if err := c.encode(m, input); err != nil {
		return out, err
	}
	return use(c.buf), nil
}

// encode walks m's field list into the codec's emptied buffer.
func (c *binCodec) encode(m encoder, input bool) error {
	*c = binCodec{buf: c.buf[:0], input: input}
	m.fields(c)
	return c.err
}

// Field lists: the head, then every field in wire order.

func (m *RegistrationPage) fields(c *binCodec) {
	c.head(tagRegistrationPage)
	c.istr(&m.Domain)
	c.str((*string)(&m.Nonce))
	c.page(&m.Page)
	c.cert(&m.ServerCert)
	c.auth(&m.Signature)
}

func (m *RegistrationSubmit) fields(c *binCodec) {
	c.head(tagRegistrationSubmit)
	c.istr(&m.Domain)
	c.istr(&m.Account)
	c.str((*string)(&m.Nonce))
	c.bytes(&m.UserPub)
	c.hash(&m.FrameHash)
	c.cert(&m.DeviceCert)
	c.auth(&m.Signature)
}

func (m *LoginPage) fields(c *binCodec) {
	c.head(tagLoginPage)
	c.istr(&m.Domain)
	c.str((*string)(&m.Nonce))
	c.page(&m.Page)
	c.auth(&m.Signature)
}

// LoginSubmit's MAC input covers its signature; its signing input
// (loginSigning) covers neither.
func (m *LoginSubmit) fields(c *binCodec) {
	c.head(tagLoginSubmit)
	c.istr(&m.Domain)
	c.istr(&m.Account)
	c.str((*string)(&m.Nonce))
	c.bytes(&m.SessionKeyCT)
	c.hash(&m.FrameHash)
	c.u32(&m.RiskVerified)
	c.u32(&m.RiskWindow)
	c.innerAuth(&m.Signature)
	c.auth(&m.MAC)
}

func (m *ContentPage) fields(c *binCodec) {
	c.head(tagContentPage)
	c.istr(&m.Domain)
	c.istr(&m.SessionID)
	c.str((*string)(&m.Nonce))
	c.istr(&m.Account)
	c.page(&m.Page)
	c.bytes(&m.Ticket)
	c.auth(&m.MAC)
}

func (m *PageRequest) fields(c *binCodec) {
	c.head(tagPageRequest)
	c.istr(&m.Domain)
	c.istr(&m.Account)
	c.istr(&m.SessionID)
	c.str((*string)(&m.Nonce))
	c.istr(&m.Action)
	c.hash(&m.FrameHash)
	c.u32(&m.RiskVerified)
	c.u32(&m.RiskWindow)
	c.auth(&m.MAC)
}

func (m *ResyncRequest) fields(c *binCodec) {
	c.head(tagResyncRequest)
	c.istr(&m.Domain)
	c.istr(&m.Account)
	c.istr(&m.SessionID)
	c.auth(&m.MAC)
}

func (m *ResumeSubmit) fields(c *binCodec) {
	c.head(tagResumeSubmit)
	c.istr(&m.Domain)
	c.istr(&m.Account)
	c.bytes(&m.Ticket)
	c.hash(&m.FrameHash)
	c.u32(&m.RiskVerified)
	c.u32(&m.RiskWindow)
	c.auth(&m.MAC)
}

func (m *StreamHello) fields(c *binCodec) {
	c.head(tagStreamHello)
	c.istr(&m.Domain)
	c.istr(&m.Account)
	c.istr(&m.SessionID)
	c.auth(&m.MAC)
}

func (m *StreamWelcome) fields(c *binCodec) {
	c.head(tagStreamWelcome)
	c.istr(&m.Domain)
	c.istr(&m.SessionID)
	c.bytes(&m.NonceSeed)
	c.u32(&m.Window)
	c.u32(&m.MinVerified)
	c.auth(&m.MAC)
}

func (m *PolicyPush) fields(c *binCodec) {
	c.head(tagPolicyPush)
	c.istr(&m.Domain)
	c.istr(&m.SessionID)
	c.u32(&m.Window)
	c.u32(&m.MinVerified)
	c.u64(&m.Seq)
	c.auth(&m.MAC)
}

// DecodeBinary parses a binary message, returning one of the protocol
// message pointer types.
func DecodeBinary(data []byte) (any, error) {
	return decodeBinary(data, nil)
}

// DecodeAs decodes a binary message that must be a *M: the check every
// transport applies to a payload whose message type its context fixes
// (a frame type, an HTTP route).
func DecodeAs[M any](data []byte) (*M, error) {
	return decodeAs[M](data, nil)
}

func decodeAs[M any](data []byte, intern *internTable) (*M, error) {
	msg, err := decodeBinary(data, intern)
	if err != nil {
		return nil, err
	}
	m, ok := msg.(*M)
	if !ok {
		return nil, fmt.Errorf("%w: got %T, want %T", ErrBinaryDecode, msg, m)
	}
	return m, nil
}

// decodeBinary is the one message decoder: it picks the message type
// by tag and walks that type's field list. intern is the calling
// connection's intern table, or nil to copy every string field.
func decodeBinary(data []byte, intern *internTable) (any, error) {
	c := binCodec{buf: data, decode: true, intern: intern}
	var v, tag byte
	if c.u8(&v); v != binVersion {
		return nil, fmt.Errorf("%w: version %d", ErrBinaryDecode, v)
	}
	c.u8(&tag)
	c.off = 0 // the field list walks the head again
	var out any
	switch tag {
	case tagRegistrationPage:
		m := new(RegistrationPage)
		m.fields(&c)
		out = m
	case tagRegistrationSubmit:
		m := new(RegistrationSubmit)
		m.fields(&c)
		out = m
	case tagLoginPage:
		m := new(LoginPage)
		m.fields(&c)
		out = m
	case tagLoginSubmit:
		m := new(LoginSubmit)
		m.fields(&c)
		out = m
	case tagContentPage:
		m := new(ContentPage)
		m.fields(&c)
		out = m
	case tagPageRequest:
		m := new(PageRequest)
		m.fields(&c)
		out = m
	case tagResyncRequest:
		m := new(ResyncRequest)
		m.fields(&c)
		out = m
	case tagResumeSubmit:
		m := new(ResumeSubmit)
		m.fields(&c)
		out = m
	case tagStreamHello:
		m := new(StreamHello)
		m.fields(&c)
		out = m
	case tagStreamWelcome:
		m := new(StreamWelcome)
		m.fields(&c)
		out = m
	case tagPolicyPush:
		m := new(PolicyPush)
		m.fields(&c)
		out = m
	default:
		return nil, fmt.Errorf("%w: tag %d", ErrBinaryDecode, tag)
	}
	if c.err != nil {
		return nil, c.err
	}
	if c.off != len(data) {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrBinaryDecode, len(data)-c.off)
	}
	return out, nil
}
