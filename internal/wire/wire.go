// Package wire is the one byte grammar behind every binary format in
// the repository: the protocol messages and stream frame payloads,
// certificates, resumption-ticket state, and the WAL's records and
// snapshot header. A format is a field list, a function that walks a
// Codec over each of its fields in order. The same walk encodes a
// value (appending to the codec's buffer) or decodes one (consuming
// the input and storing through the field pointers), so no format has
// an encoder and a decoder that can drift apart.
//
// One range rule covers every field: a value its field cannot state (a
// negative int, or an int or a length past the field's width) is
// refused with ErrRange, never written truncated. A truncated value
// shares another value's bytes, and everything these formats carry is
// signed, MAC'd or replayed on recovery.
package wire

import (
	"encoding/binary"
	"errors"
	"math"
)

// Layout fixes a format's byte order and the width of its length
// prefixes. A codec takes its layout when it is made.
type Layout uint8

// The layouts, one per format family.
const (
	BigEndian32    Layout = iota // 4-byte lengths: protocol messages, stream frames, certificates
	BigEndian16                  // 2-byte lengths: sealed resumption-ticket state
	LittleEndian16               // 2-byte lengths: the WAL's records and snapshot header
)

var (
	// ErrRange refuses a value its field cannot state.
	ErrRange = errors.New("wire: value out of its field's range")
	// ErrShort reports input that ends inside a field.
	ErrShort = errors.New("wire: input ends inside a field")
)

// Codec walks field lists over one buffer in one direction. Encoding
// only reads through the field pointers, so the values it walks may be
// shared between goroutines. The first failure sticks: later fields
// still walk, but Err reports it and a decoder takes no more input.
type Codec struct {
	buf    []byte
	off    int
	err    error
	little bool // little-endian integers
	lenW   int  // length prefix width in bytes
	decode bool
}

// NewEncoder returns a codec that appends l's encoding to dst.
func NewEncoder(l Layout, dst []byte) Codec { return newCodec(l, dst, false) }

// NewDecoder returns a codec that decodes src in layout l.
func NewDecoder(l Layout, src []byte) Codec { return newCodec(l, src, true) }

func newCodec(l Layout, buf []byte, decode bool) Codec {
	lenW := 2
	if l == BigEndian32 {
		lenW = 4
	}
	return Codec{buf: buf, little: l == LittleEndian16, lenW: lenW, decode: decode}
}

// Decoding reports whether the codec decodes.
func (c *Codec) Decoding() bool { return c.decode }

// Err returns the codec's first failure.
func (c *Codec) Err() error { return c.err }

// Fail records err unless the codec has already failed.
func (c *Codec) Fail(err error) {
	if c.err == nil {
		c.err = err
	}
}

// Data returns the encoding so far, or a decoder's whole input.
func (c *Codec) Data() []byte { return c.buf }

// Pos returns how many bytes the codec has written or consumed.
func (c *Codec) Pos() int {
	if c.decode {
		return c.off
	}
	return len(c.buf)
}

// Rest returns how many input bytes a decoder has not consumed.
func (c *Codec) Rest() int { return len(c.buf) - c.off }

// take consumes the next n input bytes and returns them, aliasing the
// input, or fails and returns nil.
func (c *Codec) take(n int) []byte {
	if c.err == nil && uint(n) <= uint(len(c.buf)-c.off) {
		b := c.buf[c.off : c.off+n : c.off+n]
		c.off += n
		return b
	}
	c.Fail(ErrShort)
	return nil
}

// put appends v as an n-byte integer, refusing a v that needs more.
func (c *Codec) put(v uint64, n int) {
	if n < 8 && v>>(8*n) != 0 {
		c.Fail(ErrRange)
	}
	var b [8]byte
	if c.little {
		binary.LittleEndian.PutUint64(b[:], v)
		c.buf = append(c.buf, b[:n]...)
	} else {
		binary.BigEndian.PutUint64(b[:], v)
		c.buf = append(c.buf, b[8-n:]...)
	}
}

// get consumes an n-byte integer (n is 2, 4 or 8), or fails and
// returns 0.
func (c *Codec) get(n int) uint64 {
	in := c.take(n)
	switch {
	case in == nil:
		return 0
	case n == 8 && c.little:
		return binary.LittleEndian.Uint64(in)
	case n == 8:
		return binary.BigEndian.Uint64(in)
	case n == 4 && c.little:
		return uint64(binary.LittleEndian.Uint32(in))
	case n == 4:
		return uint64(binary.BigEndian.Uint32(in))
	case c.little:
		return uint64(binary.LittleEndian.Uint16(in))
	}
	return uint64(binary.BigEndian.Uint16(in))
}

// U8 walks a byte.
func (c *Codec) U8(v *byte) {
	if !c.decode {
		c.buf = append(c.buf, *v)
	} else if b := c.take(1); b != nil {
		*v = b[0]
	}
}

// U32 walks an int in [0, 2^32) as a 4-byte integer.
func (c *Codec) U32(v *int) {
	if c.decode {
		*v = int(c.get(4))
	} else if *v < 0 {
		c.Fail(ErrRange)
	} else {
		c.put(uint64(*v), 4)
	}
}

// U64 walks a uint64 as an 8-byte integer.
func (c *Codec) U64(v *uint64) {
	if c.decode {
		*v = c.get(8)
	} else {
		c.put(*v, 8)
	}
}

// I64 walks an int64 as the 8-byte integer of its two's complement
// bits.
func (c *Codec) I64(v *int64) {
	bits := uint64(*v)
	if c.U64(&bits); c.decode {
		*v = int64(bits)
	}
}

// F64 walks a float64 as the 8-byte integer of its IEEE 754 bits.
func (c *Codec) F64(v *float64) {
	bits := math.Float64bits(*v)
	if c.U64(&bits); c.decode {
		*v = math.Float64frombits(bits)
	}
}

// Fixed walks a fixed-size field, len(b) bytes with no length: it
// appends b, or decodes into it.
func (c *Codec) Fixed(b []byte) {
	if !c.decode {
		c.buf = append(c.buf, b...)
	} else if in := c.take(len(b)); in != nil {
		copy(b, in)
	}
}

// View walks a fixed-size field of n bytes held in a slice: encoding
// refuses any other length, and decoding sets *v to the n input bytes,
// aliasing the input instead of copying it.
func (c *Codec) View(v *[]byte, n int) {
	if c.decode {
		*v = c.take(n)
		return
	}
	if len(*v) != n {
		c.Fail(ErrRange)
	}
	c.buf = append(c.buf, *v...)
}

// Bytes walks a length-prefixed byte string, decoded into a copy: into
// *v's own storage when it has the capacity, so a decoder that reuses
// its target reuses the slice too (the target's old bytes must not be
// shared). A decoded string is never nil, even when empty.
func (c *Codec) Bytes(v *[]byte) {
	if !c.decode {
		c.put(uint64(len(*v)), c.lenW)
		c.buf = append(c.buf, *v...)
	} else if b := c.Sub(); c.err == nil {
		if *v == nil {
			*v = make([]byte, 0, len(b))
		}
		*v = append((*v)[:0], b...)
	}
}

// Str walks a length-prefixed string, decoded in one copy (the string
// conversion).
func (c *Codec) Str(v *string) {
	if !c.decode {
		c.put(uint64(len(*v)), c.lenW)
		c.buf = append(c.buf, *v...)
	} else if b := c.Sub(); c.err == nil {
		*v = string(b)
	}
}

// Sub decodes a length-prefixed field as a subslice of the input, for
// a nested payload decoded on the spot.
func (c *Codec) Sub() []byte { return c.take(int(c.get(c.lenW))) }

// Begin opens a nested length-prefixed field on an encoder: it writes
// a zero length and returns where, for End to backfill once the
// field's bytes follow it.
func (c *Codec) Begin() int {
	c.put(0, c.lenW)
	return len(c.buf) - c.lenW
}

// End backfills the length Begin wrote at at with the number of bytes
// written since, refusing a field longer than the length can state.
func (c *Codec) End(at int) {
	// put appends in place: the placeholder's bytes are within
	// capacity, so the backfill never reallocates.
	all := c.buf
	c.buf = all[:at]
	c.put(uint64(len(all)-at-c.lenW), c.lenW)
	c.buf = all
}
