// Package geom provides the small 2-D geometry vocabulary shared by the
// touchscreen, sensor, placement, and touch-behaviour packages. All
// coordinates are in screen pixels unless a package states otherwise;
// physical dimensions carry explicit millimetre or micrometre names.
package geom

import (
	"fmt"
	"math"
)

// Point is a location in continuous screen coordinates. X grows right,
// Y grows down, matching display conventions.
type Point struct {
	X, Y float64
}

// Add returns p translated by q.
func (p Point) Add(q Point) Point { return Point{p.X + q.X, p.Y + q.Y} }

// Sub returns p - q.
func (p Point) Sub(q Point) Point { return Point{p.X - q.X, p.Y - q.Y} }

// Scale returns p scaled by s about the origin.
func (p Point) Scale(s float64) Point { return Point{p.X * s, p.Y * s} }

// Dist returns the Euclidean distance between p and q.
func (p Point) Dist(q Point) float64 {
	return math.Hypot(p.X-q.X, p.Y-q.Y)
}

// Rotate returns p rotated by theta radians about the origin.
func (p Point) Rotate(theta float64) Point {
	s, c := math.Sincos(theta)
	return Point{p.X*c - p.Y*s, p.X*s + p.Y*c}
}

func (p Point) String() string { return fmt.Sprintf("(%.1f, %.1f)", p.X, p.Y) }

// Rect is an axis-aligned rectangle. Min is the top-left corner and Max
// the bottom-right (exclusive); a Rect with Max <= Min on either axis
// is empty.
type Rect struct {
	Min, Max Point
}

// RectWH builds a rectangle from a top-left corner and a size.
func RectWH(x, y, w, h float64) Rect {
	return Rect{Point{x, y}, Point{x + w, y + h}}
}

// W returns the rectangle width (never negative).
func (r Rect) W() float64 { return math.Max(0, r.Max.X-r.Min.X) }

// H returns the rectangle height (never negative).
func (r Rect) H() float64 { return math.Max(0, r.Max.Y-r.Min.Y) }

// Area returns the rectangle area.
func (r Rect) Area() float64 { return r.W() * r.H() }

// Empty reports whether the rectangle contains no points.
func (r Rect) Empty() bool { return r.Max.X <= r.Min.X || r.Max.Y <= r.Min.Y }

// Center returns the rectangle centre.
func (r Rect) Center() Point {
	return Point{(r.Min.X + r.Max.X) / 2, (r.Min.Y + r.Max.Y) / 2}
}

// Contains reports whether p lies inside r (Min inclusive, Max
// exclusive).
func (r Rect) Contains(p Point) bool {
	return p.X >= r.Min.X && p.X < r.Max.X && p.Y >= r.Min.Y && p.Y < r.Max.Y
}

// Inset shrinks the rectangle by d on every side. A negative d grows
// it.
func (r Rect) Inset(d float64) Rect {
	out := Rect{Point{r.Min.X + d, r.Min.Y + d}, Point{r.Max.X - d, r.Max.Y - d}}
	if out.Empty() {
		return Rect{}
	}
	return out
}

// Clamp returns the point inside r closest to p.
func (r Rect) Clamp(p Point) Point {
	return Point{
		math.Min(math.Max(p.X, r.Min.X), r.Max.X),
		math.Min(math.Max(p.Y, r.Min.Y), r.Max.Y),
	}
}

func (r Rect) String() string {
	return fmt.Sprintf("[%s - %s]", r.Min, r.Max)
}

// WrapAngle normalizes an angle into (-pi, pi].
func WrapAngle(theta float64) float64 {
	for theta > math.Pi {
		theta -= 2 * math.Pi
	}
	for theta <= -math.Pi {
		theta += 2 * math.Pi
	}
	return theta
}

// AngleDiff returns the magnitude of the smallest rotation taking a to
// b, in [0, pi].
func AngleDiff(a, b float64) float64 {
	return math.Abs(WrapAngle(a - b))
}
