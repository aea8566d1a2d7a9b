// Package frame models the display path of the FLock architecture: the
// hyper-text pages a web server sends, their deterministic rendering
// into display frames under a finite set of view transforms (zoom and
// scroll), the frame hash engine that digests every displayed frame,
// and the display repeater that intercepts frames on their way to the
// panel (Fig 5). The server-side audit uses the finite view set exactly
// as the paper argues: a displayed view "can only belong to a finite
// set of all the possible views of the original page", so its hash can
// be checked against the enumerated set offline.
package frame

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"strconv"
	"time"

	"trust/internal/geom"
)

// ElementKind classifies page elements.
type ElementKind int

// Element kinds.
const (
	Text ElementKind = iota
	Button
	Input
	Image
)

func (k ElementKind) String() string {
	switch k {
	case Text:
		return "text"
	case Button:
		return "button"
	case Input:
		return "input"
	case Image:
		return "image"
	default:
		return fmt.Sprintf("ElementKind(%d)", int(k))
	}
}

// Element is one page element with its layout box in page coordinates
// (page space equals screen pixels at zoom 1, scroll 0).
type Element struct {
	ID     string
	Kind   ElementKind
	Label  string
	Bounds geom.Rect
	// Action names the request a button triggers (e.g. "submit",
	// "transfer-funds"). Empty for non-interactive elements.
	Action string
}

// Page is one hyper-text page as sent by the web server.
type Page struct {
	URL      string
	Title    string
	Body     string
	Elements []Element
	// HeightPX is the total page height; pages taller than the screen
	// scroll, enlarging the view set.
	HeightPX float64
}

// Canonical returns the page's canonical byte encoding — the quantity
// both device and server render from, so both ends derive identical
// frames for identical views.
func (p *Page) Canonical() []byte { return p.AppendCanonical(nil) }

// AppendCanonical appends the page's canonical encoding (Canonical) to
// dst and returns the extended slice; into a buffer with room it
// allocates nothing.
func (p *Page) AppendCanonical(dst []byte) []byte {
	dst = appendField(dst, p.URL)
	dst = appendField(dst, p.Title)
	dst = appendField(dst, p.Body)
	dst = binary.BigEndian.AppendUint64(dst, uint64(p.HeightPX))
	for _, e := range p.Elements {
		dst = appendField(dst, e.ID)
		dst = appendField(dst, e.Label)
		dst = appendField(dst, e.Action)
		// "|kind|minX,minY,maxX,maxY;" with one decimal per coordinate.
		dst = append(dst, '|')
		dst = strconv.AppendInt(dst, int64(e.Kind), 10)
		dst = append(dst, '|')
		dst = strconv.AppendFloat(dst, e.Bounds.Min.X, 'f', 1, 64)
		dst = append(dst, ',')
		dst = strconv.AppendFloat(dst, e.Bounds.Min.Y, 'f', 1, 64)
		dst = append(dst, ',')
		dst = strconv.AppendFloat(dst, e.Bounds.Max.X, 'f', 1, 64)
		dst = append(dst, ',')
		dst = strconv.AppendFloat(dst, e.Bounds.Max.Y, 'f', 1, 64)
		dst = append(dst, ';')
	}
	return dst
}

// appendField appends s with its 4-byte big-endian length prefix.
func appendField(dst []byte, s string) []byte {
	// Page strings arrive in messages under the 1 MiB frame and body
	// caps, or come from the server's own page templates: far below
	// the 2^32 the prefix states.
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(s))) //trustlint:allow wirewidth
	return append(dst, s...)
}

// Clone deep-copies the page (malware models mutate copies).
func (p *Page) Clone() *Page {
	out := *p
	out.Elements = append([]Element(nil), p.Elements...)
	return &out
}

// ElementAt returns the topmost interactive element containing the
// point (page coordinates), or nil.
func (p *Page) ElementAt(pt geom.Point) *Element {
	for i := len(p.Elements) - 1; i >= 0; i-- {
		e := &p.Elements[i]
		if e.Bounds.Contains(pt) {
			return e
		}
	}
	return nil
}

// View is one display transform from the finite set: a zoom factor and
// a vertical scroll offset. The paper's audit feasibility rests on this
// set being small.
type View struct {
	Zoom    float64
	ScrollY float64
}

// Standard zoom stops pinch gestures snap to.
var ZoomStops = []float64{1.0, 1.5, 2.0}

// ScrollStepPX quantizes scroll positions (fling scrolling snaps to
// step boundaries in this model).
const ScrollStepPX = 200.0

// StandardViews enumerates every view of the page on a screen of the
// given height: all zoom stops crossed with all reachable scroll stops.
// A page whose height is not finite has no scroll range to enumerate,
// so it gets one top view per zoom stop.
func StandardViews(p *Page, screenHeightPX float64) []View {
	var views []View
	for _, z := range ZoomStops {
		maxScroll := p.HeightPX*z - screenHeightPX
		if maxScroll < 0 || math.IsNaN(maxScroll) || math.IsInf(maxScroll, 0) {
			maxScroll = 0
		}
		for s := 0.0; ; s += ScrollStepPX {
			if s > maxScroll {
				s = maxScroll
			}
			views = append(views, View{Zoom: z, ScrollY: s})
			if s >= maxScroll {
				break
			}
		}
	}
	return views
}

// PageToScreen maps a page-space point into screen space under the
// view.
func (v View) PageToScreen(pt geom.Point) geom.Point {
	return geom.Point{X: pt.X * v.Zoom, Y: pt.Y*v.Zoom - v.ScrollY}
}

// ScreenToPage inverts PageToScreen.
func (v View) ScreenToPage(pt geom.Point) geom.Point {
	return geom.Point{X: pt.X / v.Zoom, Y: (pt.Y + v.ScrollY) / v.Zoom}
}

// Render produces the deterministic display frame for a page under a
// view. The "framebuffer" is a canonical serialization rather than RGB
// pixels: what matters to the security argument is that identical
// (page, view) pairs produce identical bytes on device and server, and
// any content tampering changes them.
func Render(p *Page, v View) []byte { return AppendRender(nil, p, v) }

// AppendRender appends the frame Render produces to dst and returns the
// extended slice; into a buffer with room it allocates nothing.
func AppendRender(dst []byte, p *Page, v View) []byte {
	dst = append(dst, "FRAME z="...)
	dst = strconv.AppendFloat(dst, v.Zoom, 'f', 2, 64)
	dst = append(dst, " s="...)
	dst = strconv.AppendFloat(dst, v.ScrollY, 'f', 1, 64)
	dst = append(dst, '\n')
	return p.AppendCanonical(dst)
}

// Hash is a frame digest. The paper mentions MD5 or SHA-256; this
// reproduction uses SHA-256 throughout.
type Hash [sha256.Size]byte

// HashBytes digests an arbitrary byte string.
func HashBytes(b []byte) Hash { return sha256.Sum256(b) }

// Hex returns the full lowercase hex digest.
func (h Hash) Hex() string { return hex.EncodeToString(h[:]) }

// Short returns an 8-character prefix for logs.
func (h Hash) Short() string { return h.Hex()[:8] }

// HashEngine is the FLock frame hash engine (Fig 5): a hardware SHA
// pipeline with a fixed throughput, so hashing time scales with frame
// size.
type HashEngine struct {
	BytesPerCycle float64
	ClockHz       float64
	frames        uint64
}

// NewHashEngine returns an engine with representative mobile-SoC
// throughput (8 B/cycle at 200 MHz = 1.6 GB/s).
func NewHashEngine() *HashEngine {
	return &HashEngine{BytesPerCycle: 8, ClockHz: 200e6}
}

// Sum hashes a frame and returns the digest plus the simulated engine
// latency.
func (e *HashEngine) Sum(frameBytes []byte) (Hash, time.Duration) {
	e.frames++
	cycles := float64(len(frameBytes)) / e.BytesPerCycle
	latency := time.Duration(cycles / e.ClockHz * float64(time.Second))
	return HashBytes(frameBytes), latency
}

// Frames reports how many frames the engine has digested.
func (e *HashEngine) Frames() uint64 { return e.frames }

// Repeater is the display repeater: it sits between the SoC's graphics
// output and the panel, forwarding frames while handing a copy to the
// hash engine (Fig 5's display path).
type Repeater struct {
	engine    *HashEngine
	lastFrame []byte
	lastHash  Hash
	haveFrame bool
}

// NewRepeater wires a repeater to an engine.
func NewRepeater(engine *HashEngine) *Repeater {
	return &Repeater{engine: engine}
}

// Display accepts a frame from the SoC, records its hash, and returns
// the hash plus hash-engine latency.
func (r *Repeater) Display(frameBytes []byte) (Hash, time.Duration) {
	r.lastFrame = append(r.lastFrame[:0], frameBytes...)
	h, lat := r.engine.Sum(frameBytes)
	r.lastHash = h
	r.haveFrame = true
	return h, lat
}

// LastHash returns the digest of the most recent displayed frame; ok is
// false before any frame was shown.
func (r *Repeater) LastHash() (Hash, bool) { return r.lastHash, r.haveFrame }

// PossibleHashes enumerates the hash of every standard view of the page
// — the finite set the server audits against.
func PossibleHashes(p *Page, screenHeightPX float64) map[Hash]View {
	out := make(map[Hash]View)
	var buf []byte
	for _, v := range StandardViews(p, screenHeightPX) {
		buf = AppendRender(buf[:0], p, v)
		out[HashBytes(buf)] = v
	}
	return out
}
