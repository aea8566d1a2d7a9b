package frame

import (
	"encoding/binary"
	"hash/fnv"
)

// Pixel rendering: a deterministic RGBA rasterizer for display frames.
// The canonical-bytes Render is what the protocol hashes (compact and
// fast for audits over many views); RenderPixels produces the actual
// framebuffer a hardware display repeater would see, and is used where
// physical realism matters (the Fig 5 hash-engine latency is measured
// over a real-size framebuffer).

// Framebuffer dimensions of the reference phone.
const (
	FBWidth  = 480
	FBHeight = 800
)

// RenderPixels rasterizes the page under the view into a WxHx4 RGBA
// buffer. Rendering is deterministic: element boxes fill with a color
// derived from the element id, labels and body text modulate the fill
// with a text hash, so ANY content change alters pixels.
func RenderPixels(p *Page, v View, w, h int) []byte {
	buf := make([]byte, w*h*4)
	// Background: subtle vertical gradient keyed to the page URL.
	base := hash32(p.URL + p.Title)
	for y := 0; y < h; y++ {
		shade := uint8(240 - y*20/h)
		for x := 0; x < w; x++ {
			i := (y*w + x) * 4
			buf[i] = shade
			buf[i+1] = shade
			buf[i+2] = uint8(int(shade) - int(base%16))
			buf[i+3] = 255
		}
	}
	// Body text band (page space 0..HeightPX maps through the view).
	fillBand(buf, w, h, v, 20, 140, hash32(p.Body))
	// Elements.
	for _, e := range p.Elements {
		c := hash32(e.ID + e.Label + e.Action + e.Kind.String())
		min := v.PageToScreen(e.Bounds.Min)
		max := v.PageToScreen(e.Bounds.Max)
		fillRect(buf, w, h, int(min.X), int(min.Y), int(max.X), int(max.Y), c)
	}
	return buf
}

// fillBand paints a horizontal page-space band through the view.
func fillBand(buf []byte, w, h int, v View, y0, y1 float64, c uint32) {
	top := v.PageToScreen(pagePoint(0, y0))
	bot := v.PageToScreen(pagePoint(0, y1))
	fillRect(buf, w, h, 10, int(top.Y), w-10, int(bot.Y), c)
}

func pagePoint(x, y float64) (p struct{ X, Y float64 }) {
	p.X, p.Y = x, y
	return
}

// fillRect fills a clipped rectangle with a color derived from c, with
// a per-pixel dither keyed to the same hash (so identical hashes give
// identical pixels, different hashes differ almost everywhere).
func fillRect(buf []byte, w, h, x0, y0, x1, y1 int, c uint32) {
	if x0 < 0 {
		x0 = 0
	}
	if y0 < 0 {
		y0 = 0
	}
	if x1 > w {
		x1 = w
	}
	if y1 > h {
		y1 = h
	}
	r := uint8(c >> 16)
	g := uint8(c >> 8)
	b := uint8(c)
	for y := y0; y < y1; y++ {
		for x := x0; x < x1; x++ {
			i := (y*w + x) * 4
			d := uint8((uint32(x*7+y*13) ^ c) & 0x0f)
			buf[i] = r + d
			buf[i+1] = g + d
			buf[i+2] = b + d
			buf[i+3] = 255
		}
	}
}

func hash32(s string) uint32 {
	f := fnv.New32a()
	f.Write([]byte(s))
	return f.Sum32()
}

// PixelViewConflict is a guard used by tests: two views or two page
// variants must produce different pixel buffers. It returns the first
// differing byte offset or -1.
func PixelViewConflict(a, b []byte) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	if len(a) != len(b) {
		return n
	}
	return -1
}

// FrameBytesLen documents the raw framebuffer size the hardware hash
// engine digests per displayed frame.
func FrameBytesLen() int { return FBWidth * FBHeight * 4 }

// EncodeDims prefixes a pixel buffer with its dimensions, making the
// byte stream self-describing for hashing.
func EncodeDims(w, h int, pixels []byte) []byte {
	out := make([]byte, 8+len(pixels))
	// w and h are framebuffer dimensions (FBWidth x FBHeight): small
	// and non-negative, so each fits its 4-byte field exactly.
	binary.BigEndian.PutUint32(out[0:], uint32(w)) //trustlint:allow wirewidth
	binary.BigEndian.PutUint32(out[4:], uint32(h)) //trustlint:allow wirewidth
	copy(out[8:], pixels)
	return out
}
