package geom

import (
	"math"
	"testing"
	"testing/quick"
)

func TestPointArithmetic(t *testing.T) {
	p := Point{1, 2}
	q := Point{3, 5}
	if got := p.Add(q); got != (Point{4, 7}) {
		t.Errorf("Add = %v", got)
	}
	if got := q.Sub(p); got != (Point{2, 3}) {
		t.Errorf("Sub = %v", got)
	}
	if got := p.Scale(2); got != (Point{2, 4}) {
		t.Errorf("Scale = %v", got)
	}
	if got := p.Dist(Point{4, 6}); math.Abs(got-5) > 1e-12 {
		t.Errorf("Dist = %v, want 5", got)
	}
}

func TestPointRotate(t *testing.T) {
	p := Point{1, 0}
	got := p.Rotate(math.Pi / 2)
	if math.Abs(got.X) > 1e-12 || math.Abs(got.Y-1) > 1e-12 {
		t.Fatalf("Rotate(pi/2) = %v, want (0,1)", got)
	}
}

func TestRectBasics(t *testing.T) {
	r := RectWH(10, 20, 30, 40)
	if r.W() != 30 || r.H() != 40 || r.Area() != 1200 {
		t.Fatalf("W/H/Area = %v/%v/%v", r.W(), r.H(), r.Area())
	}
	if c := r.Center(); c != (Point{25, 40}) {
		t.Fatalf("Center = %v", c)
	}
	if !r.Contains(Point{10, 20}) {
		t.Error("Min corner should be contained")
	}
	if r.Contains(Point{40, 60}) {
		t.Error("Max corner should be excluded")
	}
}

func TestRectInset(t *testing.T) {
	r := RectWH(0, 0, 10, 10).Inset(2)
	if r != RectWH(2, 2, 6, 6) {
		t.Fatalf("Inset = %v", r)
	}
	if !RectWH(0, 0, 2, 2).Inset(2).Empty() {
		t.Fatal("over-inset should be empty")
	}
}

func TestRectClamp(t *testing.T) {
	r := RectWH(0, 0, 10, 10)
	if got := r.Clamp(Point{-5, 3}); got != (Point{0, 3}) {
		t.Fatalf("Clamp = %v", got)
	}
	if got := r.Clamp(Point{20, 30}); got != (Point{10, 10}) {
		t.Fatalf("Clamp = %v", got)
	}
}

func TestWrapAngleRange(t *testing.T) {
	if err := quick.Check(func(theta float64) bool {
		if math.IsNaN(theta) || math.IsInf(theta, 0) || math.Abs(theta) > 1e6 {
			return true
		}
		w := WrapAngle(theta)
		return w > -math.Pi-1e-9 && w <= math.Pi+1e-9
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestAngleDiff(t *testing.T) {
	if d := AngleDiff(0.1, 2*math.Pi+0.1); d > 1e-9 {
		t.Fatalf("full-turn diff = %v", d)
	}
	if d := AngleDiff(-math.Pi+0.01, math.Pi-0.01); math.Abs(d-0.02) > 1e-9 {
		t.Fatalf("wraparound diff = %v, want 0.02", d)
	}
}
