package fingerprint

import (
	"fmt"

	"trust/internal/geom"
)

// MinutiaType distinguishes ridge endings from bifurcations.
type MinutiaType int

// The two minutia classes used by the matcher.
const (
	Ending MinutiaType = iota
	Bifurcation
)

func (t MinutiaType) String() string {
	switch t {
	case Ending:
		return "ending"
	case Bifurcation:
		return "bifurcation"
	default:
		return fmt.Sprintf("MinutiaType(%d)", int(t))
	}
}

// Minutia is one ridge feature: a position (mm, in some stated frame),
// the ridge direction at the feature, and its class.
type Minutia struct {
	Pos   geom.Point
	Angle float64 // radians, (-pi, pi]
	Type  MinutiaType
}

// Transform returns the minutia rotated by theta about the origin and
// then translated by t.
func (m Minutia) Transform(theta float64, t geom.Point) Minutia {
	return Minutia{
		Pos:   m.Pos.Rotate(theta).Add(t),
		Angle: geom.WrapAngle(m.Angle + theta),
		Type:  m.Type,
	}
}

// Template is an enrolled reference: the minutiae constellation the
// FLock fingerprint processor stores in protected flash and matches
// captures against. Positions are in the finger frame.
type Template struct {
	Minutiae []Minutia
}

// NewTemplate builds an enrolment template directly from a finger's
// ground truth. The paper enrolls via an explicit unlock-button touch;
// EnrollFromCaptures models that noisier path.
func NewTemplate(f *Finger) *Template {
	return &Template{Minutiae: f.Minutiae()}
}

// EnrollFromCaptures merges several aligned captures into a template,
// keeping every minutia observed at least once and de-duplicating
// within tol millimetres. Captures must carry their true contact frame
// (i.e. be enrolment captures, where the user deliberately placed the
// finger).
func EnrollFromCaptures(captures []*Capture, tol float64) *Template {
	var merged []Minutia
	for _, c := range captures {
		for _, m := range c.MinutiaeInFingerFrame() {
			dup := false
			for _, ex := range merged {
				if ex.Pos.Dist(m.Pos) < tol && ex.Type == m.Type {
					dup = true
					break
				}
			}
			if !dup {
				merged = append(merged, m)
			}
		}
	}
	return &Template{Minutiae: merged}
}
