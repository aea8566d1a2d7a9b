package protocol

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"trust/internal/frame"
	"trust/internal/pki"
	"trust/internal/wire"
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
	_ // 10: retired (a server-to-device policy push); an unknown tag
	tagResumeSubmit
)

// ErrBinaryDecode reports malformed binary input.
var ErrBinaryDecode = errors.New("protocol: malformed binary message")

// binCodec walks one message's field list in either direction on the
// shared byte grammar (internal/wire), big-endian with 4-byte lengths.
// A message's fields method is at once its encoding, its decoding and
// its authenticator input, so the decoder cannot drift from what was
// signed.
type binCodec struct {
	wire.Codec
	// input walks the authenticator input: auth fields encode empty.
	// inner empties innerAuth fields too, for the input of the
	// signature a MAC covers (LoginSubmit's).
	input, inner bool
	// intern, when non-nil, is the stream connection's intern table:
	// istr fields are looked up there instead of copied (see Decoder).
	// The nil table is the stateless decoder.
	intern *internTable
}

// istr walks a string field that tends to repeat from frame to frame
// on one connection (domain, account, session id, action, page
// fields), decoding it through the intern table when there is one.
// Nonces, MACs and tickets never take this path: they are fresh on
// every message.
func (c *binCodec) istr(v *string) {
	if !c.Decoding() {
		c.Str(v)
	} else if b := c.Sub(); c.Err() == nil {
		*v = c.intern.get(b)
	}
}

// auth walks a message's own authenticator, empty in its
// authenticator input.
func (c *binCodec) auth(v *[]byte) {
	if c.input {
		v = new([]byte)
	}
	c.Bytes(v)
}

// innerAuth walks an authenticator that the message's own one covers:
// present in the MAC input, empty in the input it authenticates itself.
func (c *binCodec) innerAuth(v *[]byte) {
	if c.inner {
		v = new([]byte)
	}
	c.Bytes(v)
}

// head walks the version byte and the message tag. A decoder fails on
// any other version or tag, so a field list only ever decodes its own
// message type.
func (c *binCodec) head(tag byte) {
	v, t := byte(binVersion), tag
	c.U8(&v)
	c.U8(&t)
	if v != binVersion || t != tag {
		c.Fail(ErrBinaryDecode)
	}
}

// present walks an optional field's presence byte: 0 for absent, 1
// for present. Anything else is malformed, so every decodable input
// re-encodes to the bytes it came from.
func (c *binCodec) present(has bool) bool {
	b := byte(0)
	if has {
		b = 1
	}
	c.U8(&b)
	if b > 1 {
		c.Fail(ErrBinaryDecode)
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
	if c.Decoding() {
		*pp = new(frame.Page)
	}
	p := *pp
	c.istr(&p.URL)
	c.istr(&p.Title)
	c.istr(&p.Body)
	c.F64(&p.HeightPX)
	n := len(p.Elements)
	c.U32(&n)
	if c.Decoding() {
		// A page height is a layout extent: anything non-finite or
		// negative would make view enumeration loop and the canonical
		// encoding's integer conversion undefined. The element count
		// is bounded by the bytes left, so a short payload cannot
		// claim a large element slice.
		if h := p.HeightPX; !finite(h) || h < 0 ||
			n < 0 || n > 10000 || n > c.Rest()/minElementLen {
			c.Fail(ErrBinaryDecode)
		}
		if c.Err() != nil {
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
			c.Fail(wire.ErrRange) // a kind outside a byte
		}
		c.U8(&kind)
		if c.Decoding() {
			e.Kind = frame.ElementKind(kind)
		}
		c.istr(&e.Label)
		c.istr(&e.Action)
		c.F64(&e.Bounds.Min.X)
		c.F64(&e.Bounds.Min.Y)
		c.F64(&e.Bounds.Max.X)
		c.F64(&e.Bounds.Max.Y)
		// Bounds are layout coordinates: a NaN or infinite one would
		// reach hit-testing and rendering, and the page could not be
		// re-sent as JSON.
		if c.Decoding() && !(finite(e.Bounds.Min.X) && finite(e.Bounds.Min.Y) && finite(e.Bounds.Max.X) && finite(e.Bounds.Max.Y)) {
			c.Fail(ErrBinaryDecode)
		}
	}
}

// finite reports whether v is neither NaN nor infinite.
func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// cert walks an optional certificate: the certificate's own signed
// field list (pki), then its CA signature.
func (c *binCodec) cert(pc **pki.Certificate) {
	if !c.present(*pc != nil) {
		return
	}
	if c.Decoding() {
		*pc = new(pki.Certificate)
	}
	(*pc).SignedFields(&c.Codec)
	c.Bytes(&(*pc).Signature)
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
	if cap(c.Data()) <= maxPooledEncodeBuf {
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
	var out []byte
	err := withEncoding(m.fields, false, func(enc []byte) { out = append(dst, enc...) })
	return out, err
}

// encoder is a message with a field list: fields walks its version
// byte, its tag and every field in wire order.
type encoder interface {
	fields(c *binCodec)
}

// withEncoding walks a field list (a message's fields, or a whole
// frame) on a pooled codec, as an authenticator input when input is
// set, and hands the encoding to use, which must not keep it. The
// codec, the frame builders and every authenticator share it, so a
// nested message always encodes on the pooled codec.
func withEncoding(walk func(*binCodec), input bool, use func(enc []byte)) error {
	c := codecPool.Get().(*binCodec)
	defer releaseCodec(c)
	*c = binCodec{Codec: wire.NewEncoder(wire.BigEndian32, c.Data()[:0]), input: input}
	if walk(c); c.Err() != nil {
		return c.Err()
	}
	use(c.Data())
	return nil
}

// withDecoding walks a field list over data on a pooled codec, where
// it may dispatch through an interface or a func value: a stack codec
// would escape to the heap on every decode. It returns the codec's
// failure and the bytes left after the walk. The borrowed codec gets
// its own buffer back before it returns to the pool, so a later encode
// never appends into data.
func withDecoding(data []byte, intern *internTable, walk func(*binCodec)) (rest int, err error) {
	c := codecPool.Get().(*binCodec)
	own := c.Data()
	*c = binCodec{Codec: wire.NewDecoder(wire.BigEndian32, data), intern: intern}
	walk(c)
	rest, err = c.Rest(), c.Err()
	*c = binCodec{Codec: wire.NewEncoder(wire.BigEndian32, own)}
	codecPool.Put(c)
	return rest, err
}

// Field lists: the head, then every field in wire order.

func (m *RegistrationPage) fields(c *binCodec) {
	c.head(tagRegistrationPage)
	c.istr(&m.Domain)
	c.Str((*string)(&m.Nonce))
	c.page(&m.Page)
	c.cert(&m.ServerCert)
	c.auth(&m.Signature)
}

func (m *RegistrationSubmit) fields(c *binCodec) {
	c.head(tagRegistrationSubmit)
	c.istr(&m.Domain)
	c.istr(&m.Account)
	c.Str((*string)(&m.Nonce))
	c.Bytes(&m.UserPub)
	c.Fixed(m.FrameHash[:])
	c.cert(&m.DeviceCert)
	c.auth(&m.Signature)
}

func (m *LoginPage) fields(c *binCodec) {
	c.head(tagLoginPage)
	c.istr(&m.Domain)
	c.Str((*string)(&m.Nonce))
	c.page(&m.Page)
	c.auth(&m.Signature)
}

// LoginSubmit's MAC input covers its signature; its signing input
// (loginSigning) covers neither.
func (m *LoginSubmit) fields(c *binCodec) {
	c.head(tagLoginSubmit)
	c.istr(&m.Domain)
	c.istr(&m.Account)
	c.Str((*string)(&m.Nonce))
	c.Bytes(&m.SessionKeyCT)
	c.Fixed(m.FrameHash[:])
	c.U32(&m.RiskVerified)
	c.U32(&m.RiskWindow)
	c.innerAuth(&m.Signature)
	c.auth(&m.MAC)
}

func (m *ContentPage) fields(c *binCodec) {
	c.head(tagContentPage)
	c.istr(&m.Domain)
	c.istr(&m.SessionID)
	c.Str((*string)(&m.Nonce))
	c.istr(&m.Account)
	c.page(&m.Page)
	c.Bytes(&m.Ticket)
	c.auth(&m.MAC)
}

func (m *PageRequest) fields(c *binCodec) {
	c.head(tagPageRequest)
	c.istr(&m.Domain)
	c.istr(&m.Account)
	c.istr(&m.SessionID)
	c.Str((*string)(&m.Nonce))
	c.istr(&m.Action)
	c.Fixed(m.FrameHash[:])
	c.U32(&m.RiskVerified)
	c.U32(&m.RiskWindow)
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
	c.Bytes(&m.Ticket)
	c.Fixed(m.FrameHash[:])
	c.U32(&m.RiskVerified)
	c.U32(&m.RiskWindow)
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
	c.Bytes(&m.NonceSeed)
	c.U32(&m.Window)
	c.U32(&m.MinVerified)
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
	msg, err := decodeBinary(data, nil)
	if err != nil {
		return nil, err
	}
	m, ok := msg.(*M)
	if !ok {
		return nil, fmt.Errorf("%w: got %T, want %T", ErrBinaryDecode, msg, m)
	}
	return m, nil
}

// newMessage makes an empty message of each tag for decodeBinary.
var newMessage = [...]func() encoder{
	tagRegistrationPage:   func() encoder { return new(RegistrationPage) },
	tagRegistrationSubmit: func() encoder { return new(RegistrationSubmit) },
	tagLoginPage:          func() encoder { return new(LoginPage) },
	tagLoginSubmit:        func() encoder { return new(LoginSubmit) },
	tagContentPage:        func() encoder { return new(ContentPage) },
	tagPageRequest:        func() encoder { return new(PageRequest) },
	tagResyncRequest:      func() encoder { return new(ResyncRequest) },
	tagStreamHello:        func() encoder { return new(StreamHello) },
	tagStreamWelcome:      func() encoder { return new(StreamWelcome) },
	tagResumeSubmit:       func() encoder { return new(ResumeSubmit) },
}

// decodeBinary is the one message decoder: it picks the message type
// by tag and walks that type's field list, head included. intern is
// the calling connection's intern table, or nil to copy every string
// field.
func decodeBinary(data []byte, intern *internTable) (any, error) {
	head := wire.NewDecoder(wire.BigEndian32, data)
	var v, tag byte
	if head.U8(&v); v != binVersion {
		return nil, fmt.Errorf("%w: version %d", ErrBinaryDecode, v)
	}
	if head.U8(&tag); int(tag) >= len(newMessage) || newMessage[tag] == nil {
		return nil, fmt.Errorf("%w: tag %d", ErrBinaryDecode, tag)
	}
	m := newMessage[tag]()
	if err := decodeInto(data, intern, m); err != nil {
		return nil, err
	}
	return m, nil
}

// decodeInto walks m's field list over data, head included, storing
// each field into m: a byte string into m's own storage when it has
// the capacity (wire.Codec.Bytes). It fails unless data encodes
// exactly one message of m's type. An optional page or certificate
// absent from data is not stored, so m must be fresh or a message
// without them (the reused requests of a touch batch).
func decodeInto(data []byte, intern *internTable, m encoder) error {
	switch rest, err := withDecoding(data, intern, m.fields); {
	case err != nil:
		return ErrBinaryDecode
	case rest != 0:
		return fmt.Errorf("%w: %d trailing bytes", ErrBinaryDecode, rest)
	}
	return nil
}
