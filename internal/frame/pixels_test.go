package frame

import (
	"bytes"
	"testing"
	"time"

	"trust/internal/geom"
)

func TestRenderPixelsDeterministic(t *testing.T) {
	p := loginPage()
	a := RenderPixels(p, View{Zoom: 1}, FBWidth, FBHeight)
	b := RenderPixels(p, View{Zoom: 1}, FBWidth, FBHeight)
	if !bytes.Equal(a, b) {
		t.Fatal("identical renders differ")
	}
	if len(a) != FBWidth*FBHeight*4 {
		t.Fatalf("framebuffer %d bytes, want %d", len(a), FBWidth*FBHeight*4)
	}
}

func TestRenderPixelsSensitiveToContent(t *testing.T) {
	p := loginPage()
	q := loginPage()
	q.Elements[1].Label = "Confirm transfer"
	a := RenderPixels(p, View{Zoom: 1}, FBWidth, FBHeight)
	b := RenderPixels(q, View{Zoom: 1}, FBWidth, FBHeight)
	if bytes.Equal(a, b) {
		t.Fatal("label change did not alter pixels")
	}
	q2 := loginPage()
	q2.Body = "phishing text"
	c := RenderPixels(q2, View{Zoom: 1}, FBWidth, FBHeight)
	if bytes.Equal(a, c) {
		t.Fatal("body change did not alter pixels")
	}
}

func TestRenderPixelsSensitiveToView(t *testing.T) {
	p := longPage()
	a := RenderPixels(p, View{Zoom: 1}, FBWidth, FBHeight)
	b := RenderPixels(p, View{Zoom: 1.5, ScrollY: 200}, FBWidth, FBHeight)
	if bytes.Equal(a, b) {
		t.Fatal("view change did not alter pixels")
	}
}

func TestRenderPixelsClipping(t *testing.T) {
	// Elements partially or fully off-screen must not panic or write
	// out of bounds.
	p := loginPage()
	p.Elements = append(p.Elements, Element{
		ID: "offscreen", Kind: Button, Label: "x",
		Bounds: geom.RectWH(-100, -100, 50, 50),
	}, Element{
		ID: "past-edge", Kind: Button, Label: "y",
		Bounds: geom.RectWH(FBWidth-10, FBHeight-10, 500, 500),
	})
	buf := RenderPixels(p, View{Zoom: 2, ScrollY: 400}, FBWidth, FBHeight)
	if len(buf) != FBWidth*FBHeight*4 {
		t.Fatalf("buffer size %d", len(buf))
	}
}

func TestHashEngineOnRealFramebuffer(t *testing.T) {
	// The Fig 5 physical-realism check: hashing a full 480x800 RGBA
	// frame at 1.6 GB/s takes ~1 ms — still inside a touch dwell.
	e := NewHashEngine()
	fb := EncodeDims(FBWidth, FBHeight, RenderPixels(loginPage(), View{Zoom: 1}, FBWidth, FBHeight))
	_, lat := e.Sum(fb)
	if lat < 100*time.Microsecond || lat > 10*time.Millisecond {
		t.Fatalf("full-frame hash latency %v implausible", lat)
	}
}

func TestEncodeDims(t *testing.T) {
	px := []byte{1, 2, 3, 4}
	out := EncodeDims(1, 1, px)
	if len(out) != 12 {
		t.Fatalf("encoded length %d", len(out))
	}
	a := EncodeDims(2, 1, px)
	if bytes.Equal(out, a) {
		t.Fatal("dimension change invisible")
	}
}
