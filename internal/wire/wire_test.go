package wire

import (
	"bytes"
	"encoding/hex"
	"errors"
	"math"
	"strings"
	"testing"
)

// sample is a value with one field of every kind.
type sample struct {
	b      byte
	n      int
	u      uint64
	i      int64
	f      float64
	fixed  [3]byte
	view   []byte
	bytes  []byte
	str    string
	nested string
}

func (s *sample) fields(c *Codec) {
	c.U8(&s.b)
	c.U32(&s.n)
	c.U64(&s.u)
	c.I64(&s.i)
	c.F64(&s.f)
	c.Fixed(s.fixed[:])
	c.View(&s.view, 2)
	c.Bytes(&s.bytes)
	c.Str(&s.str)
	if c.Decoding() {
		s.nested = string(c.Sub())
		return
	}
	at := c.Begin()
	c.Fixed([]byte(s.nested))
	c.End(at)
}

func testSample() sample {
	return sample{b: 7, n: 0x01020304, u: 0x1112131415161718, i: -2, f: 1.5,
		fixed: [3]byte{0xa, 0xb, 0xc}, view: []byte{0xd, 0xe}, bytes: []byte("by"), str: "st", nested: "ne"}
}

// TestLayouts pins one sample's bytes in each layout, and checks each
// decodes back to the sample.
func TestLayouts(t *testing.T) {
	want := map[Layout]string{
		BigEndian32: "07" + "01020304" + "1112131415161718" + "fffffffffffffffe" + "3ff8000000000000" +
			"0a0b0c" + "0d0e" + "000000026279" + "000000027374" + "000000026e65",
		BigEndian16: "07" + "01020304" + "1112131415161718" + "fffffffffffffffe" + "3ff8000000000000" +
			"0a0b0c" + "0d0e" + "00026279" + "00027374" + "00026e65",
		LittleEndian16: "07" + "04030201" + "1817161514131211" + "feffffffffffffff" + "000000000000f83f" +
			"0a0b0c" + "0d0e" + "02006279" + "02007374" + "02006e65",
	}
	for l, hexWant := range want {
		s := testSample()
		c := NewEncoder(l, []byte("prefix"))
		s.fields(&c)
		if c.Err() != nil {
			t.Fatalf("layout %d: %v", l, c.Err())
		}
		enc := c.Data()
		if got := hex.EncodeToString(enc[len("prefix"):]); got != hexWant {
			t.Errorf("layout %d encodes\n%s, want\n%s", l, got, hexWant)
		}
		var back sample
		d := NewDecoder(l, enc[len("prefix"):])
		back.fields(&d)
		if d.Err() != nil || d.Rest() != 0 || d.Pos() != len(enc)-len("prefix") {
			t.Fatalf("layout %d: decode err %v, %d bytes left", l, d.Err(), d.Rest())
		}
		if back.b != s.b || back.n != s.n || back.u != s.u || back.i != s.i || back.f != s.f || back.fixed != s.fixed ||
			!bytes.Equal(back.view, s.view) || !bytes.Equal(back.bytes, s.bytes) || back.str != s.str || back.nested != s.nested {
			t.Errorf("layout %d decodes to %+v, want %+v", l, back, s)
		}
	}
}

// TestDecodeShortInput: every proper prefix of an encoding fails with
// ErrShort, and a decoder that failed takes no more input.
func TestDecodeShortInput(t *testing.T) {
	s := testSample()
	c := NewEncoder(BigEndian32, nil)
	s.fields(&c)
	enc := c.Data()
	for n := 0; n < len(enc); n++ {
		var back sample
		d := NewDecoder(BigEndian32, enc[:n])
		back.fields(&d)
		if !errors.Is(d.Err(), ErrShort) {
			t.Fatalf("%d-byte prefix: err %v, want ErrShort", n, d.Err())
		}
		if d.take(0) != nil {
			t.Fatalf("%d-byte prefix: a failed decoder still takes input", n)
		}
	}
}

// TestRangeRule: a value its field cannot state is refused with
// ErrRange, and the largest value each field states is accepted.
func TestRangeRule(t *testing.T) {
	cases := []struct {
		name string
		l    Layout
		walk func(c *Codec)
		ok   bool
	}{
		{"u32 max", BigEndian32, func(c *Codec) { n := math.MaxUint32; c.U32(&n) }, true},
		{"u32 past max", BigEndian32, func(c *Codec) { n := math.MaxUint32 + 1; c.U32(&n) }, false},
		{"u32 negative", BigEndian32, func(c *Codec) { n := -1; c.U32(&n) }, false},
		{"len16 max", LittleEndian16, func(c *Codec) { s := strings.Repeat("x", math.MaxUint16); c.Str(&s) }, true},
		{"len16 past max", LittleEndian16, func(c *Codec) { s := strings.Repeat("x", math.MaxUint16+1); c.Str(&s) }, false},
		{"bytes16 past max", BigEndian16, func(c *Codec) { b := make([]byte, math.MaxUint16+1); c.Bytes(&b) }, false},
		{"view short", BigEndian32, func(c *Codec) { b := []byte{1}; c.View(&b, 2) }, false},
		{"nested16 max", BigEndian16, func(c *Codec) { at := c.Begin(); c.Fixed(make([]byte, math.MaxUint16)); c.End(at) }, true},
		{"nested16 past max", BigEndian16, func(c *Codec) { at := c.Begin(); c.Fixed(make([]byte, math.MaxUint16+1)); c.End(at) }, false},
	}
	for _, tc := range cases {
		c := NewEncoder(tc.l, nil)
		tc.walk(&c)
		if tc.ok && c.Err() != nil {
			t.Errorf("%s: refused: %v", tc.name, c.Err())
		}
		if !tc.ok && !errors.Is(c.Err(), ErrRange) {
			t.Errorf("%s: err %v, want ErrRange", tc.name, c.Err())
		}
	}
}

// TestFirstFailureSticks: a later failure does not replace the first.
func TestFirstFailureSticks(t *testing.T) {
	c := NewEncoder(BigEndian32, nil)
	n := -1
	c.U32(&n)
	c.Fail(ErrShort)
	if c.Err() != ErrRange {
		t.Fatalf("err %v, want the first failure, ErrRange", c.Err())
	}
}
