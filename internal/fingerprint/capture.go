package fingerprint

import (
	"fmt"
	"math"

	"trust/internal/geom"
	"trust/internal/sim"
)

// Contact describes one finger-on-glass event in the finger's own
// coordinate frame: where on the fingertip the sensor window landed and
// how the finger was moving while it did.
type Contact struct {
	Center   geom.Point // contact centre on the fingertip, mm
	Radius   float64    // contact patch radius, mm
	Pressure float64    // 0..1, nominal press ~0.6
	SpeedMMS float64    // fingertip speed during capture, mm/s
	Rotation float64    // finger rotation relative to enrolment, radians
}

// Nominal capture parameters. The quality model is calibrated around
// them.
const (
	NominalContactRadiusMM = 4.2
	// MaxCaptureSpeedMMS is the speed above which the scan smears
	// beyond use ("move too fast" in Fig 6).
	MaxCaptureSpeedMMS = 35.0
	// MinPressure below which the dermal layer does not couple to the
	// cells ("pressing with insufficient hardness").
	MinPressure = 0.22
	// MinProbeMinutiae is the least feature count the matcher will
	// accept ("incomplete data").
	MinProbeMinutiae = 5
	// MaxCaptureRotationRad is the finger rotation beyond which the
	// sensor sees too oblique a placement ("poor touch angle" in
	// Fig 6); it matches the matcher's rotation search bound.
	MaxCaptureRotationRad = 0.9
	// MinQualityScore is the composite quality below which a capture is
	// discarded even when no single hard gate fired: marginal captures
	// (e.g. a finger moving at half the smear limit) carry enough
	// feature noise to produce false rejects, and Fig 6's design point
	// is that bad data is dropped, not matched.
	MinQualityScore = 0.5
)

// RejectReason enumerates the quality gates of the paper's Figure 6.
type RejectReason int

// Reject reasons, matching Fig 6's examples of poor data.
const (
	RejectNone          RejectReason = iota
	RejectTooFast                    // finger moved too fast; smeared scan
	RejectLowPressure                // insufficient press; weak coupling
	RejectSmallArea                  // contact patch too small / off the fingertip
	RejectFewFeatures                // too few minutiae captured
	RejectLowConfidence              // composite quality below MinQualityScore
	RejectPoorAngle                  // finger rotated too far ("poor touch angle")
)

func (r RejectReason) String() string {
	switch r {
	case RejectNone:
		return "ok"
	case RejectTooFast:
		return "moved-too-fast"
	case RejectLowPressure:
		return "low-pressure"
	case RejectSmallArea:
		return "small-area"
	case RejectFewFeatures:
		return "few-features"
	case RejectLowConfidence:
		return "low-confidence"
	case RejectPoorAngle:
		return "poor-angle"
	default:
		return fmt.Sprintf("RejectReason(%d)", int(r))
	}
}

// Quality is the per-capture quality assessment performed before
// matching (Fig 6, decision 2).
type Quality struct {
	Area     float64 // contact area factor, 0..1
	Motion   float64 // motion factor, 0..1 (1 = stationary)
	Pressure float64 // pressure factor, 0..1
	Score    float64 // combined quality, 0..1
	Reasons  []RejectReason
}

// OK reports whether the capture passes the quality gate and may be
// used for recognition.
func (q Quality) OK() bool { return len(q.Reasons) == 0 }

// Capture is one opportunistic fingerprint acquisition: the noisy
// minutiae the sensor+extraction pipeline observed, expressed in the
// capture frame (origin at the contact centre, axes rotated by the
// unknown finger rotation).
type Capture struct {
	Contact  Contact
	Quality  Quality
	Minutiae []Minutia // capture-frame features, noise applied
	// trueFinger retains the source for enrolment-time merging; it is
	// deliberately unexported so protocol code cannot "cheat" by
	// reaching back to ground truth.
	trueRotation float64
	trueCenter   geom.Point
}

// Acquire simulates capturing the finger under the given contact and
// returns a new Capture. Callers that keep their captures (enrolment,
// attack models) use it; a per-touch pipeline that drops each capture
// after matching reuses one through AcquireInto.
func Acquire(f *Finger, c Contact, rng *sim.RNG) *Capture {
	var dst Capture
	AcquireInto(&dst, f, c, rng)
	return &dst
}

// AcquireInto is Acquire writing into *dst: it overwrites every field
// and reuses dst.Minutiae's backing array when it has room, so a warm
// dst makes a clean capture allocate nothing. Noise grows as quality
// drops: positions jitter, angles jitter, genuine minutiae drop out,
// and spurious minutiae appear. Quality.Reasons is always fresh (nil
// for a capture that passes), never storage carried over from dst, so
// a caller may keep it after dst is reused.
func AcquireInto(dst *Capture, f *Finger, c Contact, rng *sim.RNG) {
	q := assessQuality(f, c)
	*dst = Capture{
		Contact:      c,
		Quality:      q,
		Minutiae:     dst.Minutiae[:0],
		trueRotation: c.Rotation,
		trueCenter:   c.Center,
	}

	// Even rejected captures carry whatever features were visible; the
	// pipeline discards them at the quality gate, but attack models
	// (low-quality evasion) need the raw data to exist.
	noise := 1.0 - q.Score // 0 = clean, 1 = hopeless
	posSigma := 0.10 + 0.35*noise
	angSigma := 0.05 + 0.25*noise
	dropProb := 0.04 + 0.50*noise

	// The capture's features live in one allocation: room for every
	// ground-truth minutia inside the contact circle plus the usual few
	// spurious ones (append grows it only for an unusually smeared
	// capture).
	inCircle := 0
	for _, m := range f.minutiae {
		if c.covers(m) {
			inCircle++
		}
	}
	if cap(dst.Minutiae) < inCircle+spuriousHeadroom {
		dst.Minutiae = make([]Minutia, 0, inCircle+spuriousHeadroom)
	}
	for _, m := range f.minutiae {
		if !c.covers(m) {
			continue
		}
		if rng.Bool(dropProb) {
			continue
		}
		// Express in capture frame: translate to contact centre, rotate
		// by the (unknown to the matcher) finger rotation.
		local := Minutia{
			Pos:   m.Pos.Sub(c.Center).Rotate(c.Rotation),
			Angle: geom.WrapAngle(m.Angle + c.Rotation),
			Type:  m.Type,
		}
		local.Pos.X += rng.Normal(0, posSigma)
		local.Pos.Y += rng.Normal(0, posSigma)
		local.Angle = geom.WrapAngle(local.Angle + rng.Normal(0, angSigma))
		if rng.Bool(0.04 + 0.2*noise) { // type misclassification
			if local.Type == Ending {
				local.Type = Bifurcation
			} else {
				local.Type = Ending
			}
		}
		dst.Minutiae = append(dst.Minutiae, local)
	}

	// Spurious minutiae from smear and weak coupling.
	nSpurious := int(rng.Exp(0.25 + 2.0*noise))
	for i := 0; i < nSpurious; i++ {
		r := c.Radius * rng.Float64()
		theta := rng.Float64() * 2 * math.Pi
		typ := Ending
		if rng.Bool(0.5) {
			typ = Bifurcation
		}
		dst.Minutiae = append(dst.Minutiae, Minutia{
			Pos:   geom.Point{X: r * math.Cos(theta), Y: r * math.Sin(theta)},
			Angle: geom.WrapAngle(rng.Float64()*2*math.Pi - math.Pi),
			Type:  typ,
		})
	}

	if len(dst.Minutiae) < MinProbeMinutiae {
		dst.Quality.Reasons = appendReason(dst.Quality.Reasons, RejectFewFeatures)
	}
}

// spuriousHeadroom is the capacity AcquireInto reserves for spurious
// minutiae beyond the in-circle count. Their number is Exp-distributed
// with a mean of 0.25-2.25 and dropped genuine minutiae free room, so
// with four the slice grows on under 3% of captures even past the
// smear limit.
const spuriousHeadroom = 4

// covers reports whether a finger-frame minutia lies inside the contact
// circle, the part of the fingertip the sensor window sees.
func (c Contact) covers(m Minutia) bool { return m.Pos.Dist(c.Center) <= c.Radius }

// MinutiaeInFingerFrame maps the captured minutiae back into the finger
// frame using the true contact parameters. Only enrolment flows may use
// it (the verifier never knows the true frame).
func (c *Capture) MinutiaeInFingerFrame() []Minutia {
	out := make([]Minutia, len(c.Minutiae))
	for i, m := range c.Minutiae {
		out[i] = Minutia{
			Pos:   m.Pos.Rotate(-c.trueRotation).Add(c.trueCenter),
			Angle: geom.WrapAngle(m.Angle - c.trueRotation),
			Type:  m.Type,
		}
	}
	return out
}

// AssessContactQuality computes the Fig 6 quality gates from contact
// kinematics plus a skin-coverage estimate in [0, 1]. The statistical
// pipeline derives coverage from the (simulation-only) finger geometry;
// the image pipeline derives it from the scanned ridge fraction — a
// blank window means the finger missed the sensor.
func AssessContactQuality(c Contact, coverage float64) Quality {
	var q Quality
	sizeFactor := c.Radius / NominalContactRadiusMM
	if sizeFactor > 1 {
		sizeFactor = 1
	}
	if coverage < 0 {
		coverage = 0
	}
	if coverage > 1 {
		coverage = 1
	}
	q.Area = coverage * sizeFactor

	// Motion factor: linear falloff to zero at MaxCaptureSpeedMMS.
	q.Motion = 1 - c.SpeedMMS/MaxCaptureSpeedMMS
	if q.Motion < 0 {
		q.Motion = 0
	}

	// Pressure factor: saturating response above nominal.
	q.Pressure = c.Pressure / 0.6
	if q.Pressure > 1 {
		q.Pressure = 1
	}

	q.Score = q.Area * q.Motion * q.Pressure

	if c.SpeedMMS > MaxCaptureSpeedMMS {
		q.Reasons = appendReason(q.Reasons, RejectTooFast)
	}
	if c.Pressure < MinPressure {
		q.Reasons = appendReason(q.Reasons, RejectLowPressure)
	}
	if c.Rotation > MaxCaptureRotationRad || c.Rotation < -MaxCaptureRotationRad {
		q.Reasons = appendReason(q.Reasons, RejectPoorAngle)
	}
	if q.Area < 0.35 {
		q.Reasons = appendReason(q.Reasons, RejectSmallArea)
	}
	if q.Score < MinQualityScore {
		q.Reasons = appendReason(q.Reasons, RejectLowConfidence)
	}
	return q
}

// assessQuality is the simulation-side gate: coverage comes from the
// geometric overlap between the contact patch and the fingertip.
func assessQuality(f *Finger, c Contact) Quality {
	overlap := circleRectOverlapFraction(c.Center, c.Radius, f.Bounds())
	return AssessContactQuality(c, overlap)
}

func appendReason(rs []RejectReason, r RejectReason) []RejectReason {
	for _, ex := range rs {
		if ex == r {
			return rs
		}
	}
	return append(rs, r)
}

// circleRectOverlapFraction estimates the fraction of the circle's area
// inside the rectangle via a fixed sample grid; exact geometry is not
// needed for a quality factor.
func circleRectOverlapFraction(center geom.Point, radius float64, r geom.Rect) float64 {
	if radius <= 0 {
		return 0
	}
	const n = 16
	inside, total := 0, 0
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			dx := (float64(i)/(n-1)*2 - 1) * radius
			dy := (float64(j)/(n-1)*2 - 1) * radius
			if dx*dx+dy*dy > radius*radius {
				continue
			}
			total++
			if r.Contains(geom.Point{X: center.X + dx, Y: center.Y + dy}) {
				inside++
			}
		}
	}
	if total == 0 {
		return 0
	}
	return float64(inside) / float64(total)
}
