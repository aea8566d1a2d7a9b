package flock

import (
	"errors"
	"testing"
	"time"

	"trust/internal/fingerprint"
	"trust/internal/geom"
	"trust/internal/sim"
	"trust/internal/touch"
)

// Progress reports collected and required capture counts.
func (s *EnrollmentSession) Progress() (have, need int) {
	return len(s.captures), s.needed
}

// enrollTouch builds a deliberate, clean enrolment press with natural
// per-touch placement variation.
func enrollTouch(at time.Duration, rng *sim.RNG) touch.Event {
	return touch.Event{
		At: at, Pos: geom.Point{X: 240, Y: 720},
		Pressure: 0.75, RadiusMM: 4.2, SpeedMMS: 1,
		FingerOffsetMM: geom.Point{X: rng.Normal(0, 1.2), Y: rng.Normal(0, 1.5)},
		FingerRotation: rng.Normal(0, 0.12),
	}
}

// driveEnrollment feeds touches until the session is full.
func driveEnrollment(t *testing.T, s *EnrollmentSession, finger *fingerprint.Finger, rng *sim.RNG) {
	t.Helper()
	var at time.Duration
	for i := 0; i < 60; i++ {
		done, err := s.AddTouch(enrollTouch(at, rng), finger)
		if err != nil {
			t.Fatal(err)
		}
		at += 400 * time.Millisecond
		if done {
			return
		}
	}
	t.Fatal("enrollment never collected enough captures")
}

func TestTouchDrivenEnrollment(t *testing.T) {
	m, _ := newTestModule(t)
	rng := sim.NewRNG(1)
	finger := fingerprint.Synthesize(12345, fingerprint.Loop)

	s, err := m.BeginEnrollment("owner")
	if err != nil {
		t.Fatal(err)
	}
	driveEnrollment(t, s, finger, rng)
	have, need := s.Progress()
	if have < need {
		t.Fatalf("progress %d/%d after drive", have, need)
	}
	if err := s.Finish(); err != nil {
		t.Fatal(err)
	}
	if !m.Enrolled() {
		t.Fatal("enrollment did not install a template")
	}

	// The touch-enrolled template must verify the finger in normal use.
	matched := 0
	for i := 0; i < 20; i++ {
		out := m.HandleTouch(enrollTouch(time.Duration(100+i)*time.Second, rng), finger)
		if out.Kind == Matched {
			matched++
		}
	}
	if matched < 10 {
		t.Fatalf("touch-enrolled template matched only %d/20", matched)
	}

	// And reject an impostor.
	impostor := fingerprint.Synthesize(999, fingerprint.Whorl)
	for i := 0; i < 15; i++ {
		if m.HandleTouch(enrollTouch(time.Duration(200+i)*time.Second, rng), impostor).Kind == Matched {
			t.Fatal("impostor matched the touch-enrolled template")
		}
	}
}

func TestEnrollmentRejectsMixedFingers(t *testing.T) {
	m, _ := newTestModule(t)
	rng := sim.NewRNG(2)
	alice := fingerprint.Synthesize(111, fingerprint.Loop)
	eve := fingerprint.Synthesize(222, fingerprint.Whorl)

	s, err := m.BeginEnrollment("owner")
	if err != nil {
		t.Fatal(err)
	}
	// First half alice, second half eve: Finish must refuse.
	var at time.Duration
	for {
		have, need := s.Progress()
		if have >= need {
			break
		}
		finger := alice
		if have >= need/2 {
			finger = eve
		}
		if _, err := s.AddTouch(enrollTouch(at, rng), finger); err != nil {
			t.Fatal(err)
		}
		at += 400 * time.Millisecond
	}
	if err := s.Finish(); !errors.Is(err, ErrEnrollmentInconsistent) {
		t.Fatalf("mixed-finger enrollment: err = %v", err)
	}
	if m.Enrolled() {
		t.Fatal("inconsistent enrollment installed a template")
	}
}

func TestEnrollmentQualityGate(t *testing.T) {
	m, _ := newTestModule(t)
	rng := sim.NewRNG(3)
	finger := fingerprint.Synthesize(333, fingerprint.Arch)
	s, err := m.BeginEnrollment("owner")
	if err != nil {
		t.Fatal(err)
	}
	// A smeared touch must not count toward progress.
	bad := enrollTouch(0, rng)
	bad.SpeedMMS = 80
	done, err := s.AddTouch(bad, finger)
	if err != nil || done {
		t.Fatalf("smeared touch: done=%v err=%v", done, err)
	}
	if have, _ := s.Progress(); have != 0 {
		t.Fatalf("smeared touch counted: %d", have)
	}
	if s.Rejected() != 1 {
		t.Fatalf("rejected count %d", s.Rejected())
	}
}

func TestEnrollmentLifecycleErrors(t *testing.T) {
	m, _ := newTestModule(t)
	rng := sim.NewRNG(4)
	finger := fingerprint.Synthesize(444, fingerprint.Loop)

	if _, err := m.BeginEnrollment(""); err == nil {
		t.Fatal("empty name accepted")
	}
	s, err := m.BeginEnrollment("owner")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.BeginEnrollment("second"); !errors.Is(err, ErrEnrollmentBusy) {
		t.Fatalf("concurrent enrollment: %v", err)
	}
	if err := s.Finish(); !errors.Is(err, ErrEnrollmentIncomplete) {
		t.Fatalf("premature finish: %v", err)
	}
	m.enrollment = nil // the module drops the session
	if _, err := s.AddTouch(enrollTouch(0, rng), finger); !errors.Is(err, ErrNoEnrollment) {
		t.Fatalf("touch after cancel: %v", err)
	}
	if err := s.Finish(); !errors.Is(err, ErrNoEnrollment) {
		t.Fatalf("finish after cancel: %v", err)
	}

	// Enrolling a duplicate name fails at Begin.
	if err := m.Enroll(fingerprint.NewTemplate(finger)); err != nil {
		t.Fatal(err)
	}
	if _, err := m.BeginEnrollment("owner"); err == nil {
		t.Fatal("duplicate template name accepted")
	}
}
