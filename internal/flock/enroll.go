package flock

import (
	"errors"
	"fmt"

	"trust/internal/fingerprint"
	"trust/internal/touch"
)

// Touch-driven enrolment: the paper's enrolment happens through
// deliberate touches on an on-screen target over a sensor ("an unlock
// button will appear above a fingerprint sensor"). The module collects
// several quality-passing captures, requires them to be mutually
// consistent (all from one finger), and merges them into a template —
// no ground-truth access, exactly what shipping hardware would do.

// EnrollmentSession accumulates captures for one new template.
type EnrollmentSession struct {
	m        *Module
	name     string
	captures []*fingerprint.Capture
	needed   int
	rejected int
}

// EnrollmentTouches is how many quality-passing captures enrolment
// needs; commercial enrolment uses 10-15 placements, but those sensors
// see a smaller window than our merged multi-placement template needs.
const EnrollmentTouches = 8

// Errors from enrolment.
var (
	ErrEnrollmentBusy         = errors.New("flock: enrollment already in progress")
	ErrNoEnrollment           = errors.New("flock: no enrollment in progress")
	ErrEnrollmentIncomplete   = errors.New("flock: enrollment needs more touches")
	ErrEnrollmentInconsistent = errors.New("flock: enrollment captures do not agree")
)

// BeginEnrollment starts collecting captures for a template slot.
func (m *Module) BeginEnrollment(name string) (*EnrollmentSession, error) {
	if m.enrollment != nil {
		return nil, ErrEnrollmentBusy
	}
	if name == "" {
		return nil, errors.New("flock: empty template name")
	}
	for _, e := range m.templates {
		if e.name == name {
			return nil, fmt.Errorf("flock: template %q already enrolled", name)
		}
	}
	s := &EnrollmentSession{m: m, name: name, needed: EnrollmentTouches}
	m.enrollment = s
	return s, nil
}

// Rejected reports how many touches failed the quality gate.
func (s *EnrollmentSession) Rejected() int { return s.rejected }

// AddTouch feeds one deliberate enrolment touch (the user pressing the
// enrolment target over sensor 0). It returns true when enough
// captures have been collected.
func (s *EnrollmentSession) AddTouch(ev touch.Event, finger *fingerprint.Finger) (bool, error) {
	if s.m.enrollment != s {
		return false, ErrNoEnrollment
	}
	// Enrolment touches are deliberate presses; run the same capture
	// path as normal touches but keep the raw capture.
	contact := fingerprint.Contact{
		Center:   finger.Bounds().Center().Add(ev.FingerOffsetMM),
		Radius:   ev.RadiusMM,
		Pressure: ev.Pressure,
		SpeedMMS: ev.SpeedMMS,
		Rotation: ev.FingerRotation,
	}
	cap := fingerprint.Acquire(finger, contact, s.m.rng)
	if !cap.Quality.OK() {
		s.rejected++
		return false, nil
	}
	s.captures = append(s.captures, cap)
	return len(s.captures) >= s.needed, nil
}

// Finish validates mutual consistency and installs the merged
// template. Consistency check: every capture must match a template
// built from all the OTHER captures (leave-one-out) at a relaxed bar —
// a different finger sneaking into enrolment fails it, while genuine
// captures at unusual fingertip offsets still pass because the
// leave-one-out template covers the full placement spread.
func (s *EnrollmentSession) Finish() error {
	if s.m.enrollment != s {
		return ErrNoEnrollment
	}
	if len(s.captures) < s.needed {
		return fmt.Errorf("%w: have %d of %d", ErrEnrollmentIncomplete, len(s.captures), s.needed)
	}
	relaxed := s.m.cfg.Matcher
	relaxed.Threshold *= 0.7
	if relaxed.MinMatched > 4 {
		relaxed.MinMatched = 4
	}
	for i, cap := range s.captures {
		others := make([]*fingerprint.Capture, 0, len(s.captures)-1)
		others = append(others, s.captures[:i]...)
		others = append(others, s.captures[i+1:]...)
		looTpl := fingerprint.EnrollFromCaptures(others, 0.5)
		if !relaxed.Match(looTpl, cap).Accepted {
			s.m.enrollment = nil
			return fmt.Errorf("%w: capture %d does not match the others", ErrEnrollmentInconsistent, i)
		}
	}
	tpl := fingerprint.EnrollFromCaptures(s.captures, 0.5)
	s.m.enrollment = nil
	return s.m.EnrollNamed(s.name, tpl)
}
