package fingerprint

import (
	"math"
	"testing"

	"trust/internal/geom"
	"trust/internal/sim"
)

// TransformAll applies Transform to every minutia in ms.
func TransformAll(ms []Minutia, theta float64, t geom.Point) []Minutia {
	out := make([]Minutia, len(ms))
	for i, m := range ms {
		out[i] = m.Transform(theta, t)
	}
	return out
}

// goodContact returns a clean, nominal contact near the finger centre.
func goodContact(f *Finger, rng *sim.RNG) Contact {
	c := f.Bounds().Center()
	return Contact{
		Center:   geom.Point{X: c.X + rng.Normal(0, 1.5), Y: c.Y + rng.Normal(0, 1.5)},
		Radius:   NominalContactRadiusMM,
		Pressure: 0.6 + 0.3*rng.Float64(),
		SpeedMMS: 3 * rng.Float64(),
		Rotation: rng.Normal(0, 0.2),
	}
}

func TestGenuineCapturesAccepted(t *testing.T) {
	cfg := DefaultMatcher()
	rng := sim.NewRNG(1001)
	accepted, total := 0, 0
	for seed := uint64(0); seed < 8; seed++ {
		f := Synthesize(seed, PatternType(seed%3))
		tpl := NewTemplate(f)
		for i := 0; i < 25; i++ {
			cap := Acquire(f, goodContact(f, rng), rng)
			if !cap.Quality.OK() {
				continue
			}
			total++
			if cfg.Match(tpl, cap).Accepted {
				accepted++
			}
		}
	}
	if total == 0 {
		t.Fatal("no usable genuine captures produced")
	}
	if frr := 1 - float64(accepted)/float64(total); frr > 0.10 {
		t.Fatalf("genuine FRR = %.3f (%d/%d accepted), want <= 0.10", frr, accepted, total)
	}
}

func TestImpostorCapturesRejected(t *testing.T) {
	cfg := DefaultMatcher()
	rng := sim.NewRNG(2002)
	falseAccepts, total := 0, 0
	for seed := uint64(0); seed < 8; seed++ {
		enrolled := Synthesize(seed, PatternType(seed%3))
		impostor := Synthesize(seed+1000, PatternType((seed+1)%3))
		tpl := NewTemplate(enrolled)
		for i := 0; i < 25; i++ {
			cap := Acquire(impostor, goodContact(impostor, rng), rng)
			if !cap.Quality.OK() {
				continue
			}
			total++
			if cfg.Match(tpl, cap).Accepted {
				falseAccepts++
			}
		}
	}
	if total == 0 {
		t.Fatal("no usable impostor captures produced")
	}
	if far := float64(falseAccepts) / float64(total); far > 0.02 {
		t.Fatalf("impostor FAR = %.3f (%d/%d), want <= 0.02", far, falseAccepts, total)
	}
}

func TestGenuineImpostorSeparation(t *testing.T) {
	cfg := DefaultMatcher()
	rng := sim.NewRNG(3003)
	var genuineSum, impostorSum float64
	var genuineN, impostorN int
	for seed := uint64(0); seed < 6; seed++ {
		f := Synthesize(seed, Loop)
		g := Synthesize(seed+500, Loop)
		tpl := NewTemplate(f)
		for i := 0; i < 15; i++ {
			gc := Acquire(f, goodContact(f, rng), rng)
			ic := Acquire(g, goodContact(g, rng), rng)
			if gc.Quality.OK() {
				genuineSum += cfg.Match(tpl, gc).Score
				genuineN++
			}
			if ic.Quality.OK() {
				impostorSum += cfg.Match(tpl, ic).Score
				impostorN++
			}
		}
	}
	gMean := genuineSum / float64(genuineN)
	iMean := impostorSum / float64(impostorN)
	if gMean < iMean+0.25 {
		t.Fatalf("weak separation: genuine mean %.3f vs impostor mean %.3f", gMean, iMean)
	}
}

func TestMatchRecoversRotation(t *testing.T) {
	cfg := DefaultMatcher()
	rng := sim.NewRNG(4004)
	f := Synthesize(77, Whorl)
	tpl := NewTemplate(f)
	for _, rot := range []float64{-0.4, -0.2, 0, 0.2, 0.4} {
		c := goodContact(f, rng)
		c.Rotation = rot
		cap := Acquire(f, c, rng)
		if !cap.Quality.OK() {
			continue
		}
		res := cfg.Match(tpl, cap)
		if !res.Accepted {
			t.Errorf("rotation %v: genuine capture rejected (score %.3f)", rot, res.Score)
			continue
		}
		// Match recovers the inverse of the capture rotation.
		if geom.AngleDiff(res.Rotation, -rot) > 0.25 {
			t.Errorf("rotation %v: recovered %v", rot, res.Rotation)
		}
	}
}

func TestMatchEmptyProbeScoresZero(t *testing.T) {
	cfg := DefaultMatcher()
	f := Synthesize(5, Loop)
	tpl := NewTemplate(f)
	res := cfg.Match(tpl, &Capture{})
	if res.Score != 0 || res.Accepted {
		t.Fatalf("empty probe: %+v", res)
	}
}

func TestMatchEmptyTemplateScoresZero(t *testing.T) {
	cfg := DefaultMatcher()
	rng := sim.NewRNG(6006)
	f := Synthesize(5, Loop)
	cap := Acquire(f, goodContact(f, rng), rng)
	res := cfg.Match(&Template{}, cap)
	if res.Score != 0 || res.Accepted {
		t.Fatalf("empty template: %+v", res)
	}
}

func TestLowQualityCapturesFlagged(t *testing.T) {
	rng := sim.NewRNG(7007)
	f := Synthesize(9, Loop)
	cases := []struct {
		name   string
		c      Contact
		reason RejectReason
	}{
		{"too fast", Contact{Center: f.Bounds().Center(), Radius: 4.2, Pressure: 0.7, SpeedMMS: 60}, RejectTooFast},
		{"low pressure", Contact{Center: f.Bounds().Center(), Radius: 4.2, Pressure: 0.05, SpeedMMS: 1}, RejectLowPressure},
		{"off finger", Contact{Center: geom.Point{X: -3, Y: -3}, Radius: 4.2, Pressure: 0.7, SpeedMMS: 1}, RejectSmallArea},
		{"poor angle", Contact{Center: f.Bounds().Center(), Radius: 4.2, Pressure: 0.7, SpeedMMS: 1, Rotation: 1.2}, RejectPoorAngle},
	}
	for _, tc := range cases {
		cap := Acquire(f, tc.c, rng)
		if cap.Quality.OK() {
			t.Errorf("%s: capture passed quality gate", tc.name)
			continue
		}
		found := false
		for _, r := range cap.Quality.Reasons {
			if r == tc.reason {
				found = true
			}
		}
		if !found {
			t.Errorf("%s: reasons %v missing %v", tc.name, cap.Quality.Reasons, tc.reason)
		}
	}
}

func TestQualityScoreMonotoneInSpeed(t *testing.T) {
	rng := sim.NewRNG(8008)
	f := Synthesize(10, Arch)
	prev := math.Inf(1)
	for _, speed := range []float64{0, 10, 20, 30} {
		c := Contact{Center: f.Bounds().Center(), Radius: 4.2, Pressure: 0.8, SpeedMMS: speed}
		cap := Acquire(f, c, rng)
		if cap.Quality.Score > prev+1e-9 {
			t.Fatalf("quality rose with speed at %v mm/s", speed)
		}
		prev = cap.Quality.Score
	}
}

func TestEnrollFromCaptures(t *testing.T) {
	cfg := DefaultMatcher()
	rng := sim.NewRNG(9009)
	f := Synthesize(20, Loop)
	var caps []*Capture
	for i := 0; i < 6; i++ {
		c := goodContact(f, rng)
		caps = append(caps, Acquire(f, c, rng))
	}
	tpl := EnrollFromCaptures(caps, 0.5)
	if len(tpl.Minutiae) < MinProbeMinutiae {
		t.Fatalf("enrolment template has only %d minutiae", len(tpl.Minutiae))
	}
	// A fresh genuine capture should match the capture-built template.
	accepted := 0
	for i := 0; i < 10; i++ {
		cap := Acquire(f, goodContact(f, rng), rng)
		if cap.Quality.OK() && cfg.Match(tpl, cap).Accepted {
			accepted++
		}
	}
	if accepted < 6 {
		t.Fatalf("only %d/10 genuine captures matched enrolment-built template", accepted)
	}
}

func TestMatchInvariantUnderProbeFrameChoice(t *testing.T) {
	// Property: the matcher's accept decision must not depend on the
	// arbitrary rigid transform between probe frame and template frame
	// (within the rotation search bound) — the Hough alignment absorbs
	// it. Apply extra rotations/translations to a capture's minutiae
	// and require the decision to be stable.
	cfg := DefaultMatcher()
	rng := sim.NewRNG(12321)
	f := Synthesize(55, Loop)
	tpl := NewTemplate(f)
	stable, total := 0, 0
	for trial := 0; trial < 20; trial++ {
		cap := Acquire(f, goodContact(f, rng), rng)
		if !cap.Quality.OK() {
			continue
		}
		base := cfg.Match(tpl, cap).Accepted
		theta := rng.Normal(0, 0.2)
		shift := geom.Point{X: rng.Normal(0, 2), Y: rng.Normal(0, 2)}
		moved := &Capture{
			Contact:  cap.Contact,
			Quality:  cap.Quality,
			Minutiae: TransformAll(cap.Minutiae, theta, shift),
		}
		total++
		if cfg.Match(tpl, moved).Accepted == base {
			stable++
		}
	}
	if total == 0 {
		t.Fatal("no usable captures")
	}
	if float64(stable)/float64(total) < 0.85 {
		t.Fatalf("decision stable under re-framing in only %d/%d trials", stable, total)
	}
}

func TestRejectReasonStrings(t *testing.T) {
	for _, r := range []RejectReason{RejectNone, RejectTooFast, RejectLowPressure, RejectSmallArea, RejectFewFeatures} {
		if r.String() == "" {
			t.Errorf("empty string for reason %d", int(r))
		}
	}
}
