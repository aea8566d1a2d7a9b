package frame

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"testing"

	"trust/internal/geom"
	"trust/internal/sim"
)

// fmtRender is the reference renderer the Append* encoders must match
// byte for byte: the original bytes.Buffer + fmt.Fprintf formulation.
func fmtRender(p *Page, v View) []byte {
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "FRAME z=%.2f s=%.1f\n", v.Zoom, v.ScrollY)
	buf.Write(fmtCanonical(p))
	return buf.Bytes()
}

func fmtCanonical(p *Page) []byte {
	var buf bytes.Buffer
	wr := func(s string) {
		var l [4]byte
		binary.BigEndian.PutUint32(l[:], uint32(len(s)))
		buf.Write(l[:])
		buf.WriteString(s)
	}
	wr(p.URL)
	wr(p.Title)
	wr(p.Body)
	var h [8]byte
	binary.BigEndian.PutUint64(h[:], uint64(p.HeightPX))
	buf.Write(h[:])
	for _, e := range p.Elements {
		wr(e.ID)
		wr(e.Label)
		wr(e.Action)
		fmt.Fprintf(&buf, "|%d|%.1f,%.1f,%.1f,%.1f;",
			int(e.Kind), e.Bounds.Min.X, e.Bounds.Min.Y, e.Bounds.Max.X, e.Bounds.Max.Y)
	}
	return buf.Bytes()
}

// awkwardFloats are the values where a hand-rolled formatter most
// plausibly parts ways with fmt: signs, half-way rounding, exponent
// range, zero signs and the non-finite values.
var awkwardFloats = []float64{
	0, math.Copysign(0, -1), -0.04, 0.05, 0.15, 0.25, 0.35, 1.45, 2.675, -2.675,
	-1, -123.456, 1e21, -1e21, 1e300, 5e-324, math.MaxFloat64,
	math.Inf(1), math.Inf(-1), math.NaN(),
}

func seededPage(rng *sim.RNG) *Page {
	str := func() string {
		b := make([]byte, rng.Intn(40))
		for i := range b {
			b[i] = byte(rng.Intn(256))
		}
		return string(b)
	}
	coord := func() float64 {
		if rng.Intn(4) == 0 {
			return awkwardFloats[rng.Intn(len(awkwardFloats))]
		}
		return (rng.Float64() - 0.3) * 2000
	}
	p := &Page{URL: str(), Title: str(), Body: str(), HeightPX: rng.Float64() * 5000}
	for i := rng.Intn(6); i > 0; i-- {
		p.Elements = append(p.Elements, Element{
			ID: str(), Kind: ElementKind(rng.Intn(6) - 1), Label: str(), Action: str(),
			Bounds: geom.Rect{Min: geom.Point{X: coord(), Y: coord()}, Max: geom.Point{X: coord(), Y: coord()}},
		})
	}
	return p
}

func TestAppendRenderMatchesFmtReference(t *testing.T) {
	rng := sim.NewRNG(1)
	check := func(p *Page, v View) {
		t.Helper()
		if got, want := Render(p, v), fmtRender(p, v); !bytes.Equal(got, want) {
			t.Fatalf("Render(%+v, %+v)\n got %q\nwant %q", p, v, got, want)
		}
		prefix := []byte("keep")
		if got := AppendRender(prefix, p, v); !bytes.Equal(got, append([]byte("keep"), fmtRender(p, v)...)) {
			t.Fatalf("AppendRender did not append after dst's bytes")
		}
		if got, want := p.AppendCanonical(nil), fmtCanonical(p); !bytes.Equal(got, want) {
			t.Fatalf("AppendCanonical(nil, %+v)\n got %q\nwant %q", p, got, want)
		}
	}
	for i := 0; i < 500; i++ {
		p := seededPage(rng)
		check(p, View{Zoom: ZoomStops[rng.Intn(len(ZoomStops))], ScrollY: float64(rng.Intn(20)) * ScrollStepPX})
		check(p, View{Zoom: awkwardFloats[rng.Intn(len(awkwardFloats))], ScrollY: awkwardFloats[rng.Intn(len(awkwardFloats))]})
	}
	// Every awkward value in every coordinate slot and both view fields.
	for _, f := range awkwardFloats {
		p := loginPage()
		p.Elements[0].Bounds = geom.Rect{Min: geom.Point{X: f, Y: -f}, Max: geom.Point{X: f * 3, Y: f / 7}}
		check(p, View{Zoom: f, ScrollY: f})
	}
	check(&Page{}, View{})
}

func TestAppendRenderWarmBufferAllocatesNothing(t *testing.T) {
	p, v := longPage(), View{Zoom: 1.5, ScrollY: 200}
	buf := AppendRender(nil, p, v)
	if n := testing.AllocsPerRun(100, func() { buf = AppendRender(buf[:0], p, v) }); n != 0 {
		t.Fatalf("AppendRender into a warm buffer: %.0f allocs, want 0", n)
	}
}

// A page height that is not finite has no scroll range: the view set
// is one top view per zoom stop instead of an endless enumeration.
func TestStandardViewsNonFiniteHeight(t *testing.T) {
	for _, h := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		p := loginPage()
		p.HeightPX = h
		views := StandardViews(p, 800)
		if len(views) != len(ZoomStops) {
			t.Fatalf("height %v: %d views, want %d", h, len(views), len(ZoomStops))
		}
		for i, v := range views {
			if v.Zoom != ZoomStops[i] || v.ScrollY != 0 {
				t.Fatalf("height %v: view %d = %+v, want top view at zoom %v", h, i, v, ZoomStops[i])
			}
		}
	}
}
