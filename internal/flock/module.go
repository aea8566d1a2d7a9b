// Package flock implements the paper's FLock module (Fig 5): the
// trusted hardware block combining a touchscreen controller, a
// fingerprint controller driving the transparent TFT sensors placed
// over hot-spot regions, a fingerprint processor matching captures
// against templates held in protected storage, a display repeater with
// a frame hash engine, a crypto processor with a built-in device key
// pair, and a host interface toward the untrusted mobile SoC.
//
// Trust boundary: everything inside Module is the paper's "secure"
// element. The host SoC (package device) can only talk to it through
// the exported host-interface methods, and those enforce the paper's
// invariant that signed requests originate from verified touch actions.
package flock

import (
	"crypto/ed25519"
	"errors"
	"fmt"
	"math"
	"time"

	"trust/internal/fingerprint"
	"trust/internal/frame"
	"trust/internal/geom"
	"trust/internal/pki"
	"trust/internal/placement"
	"trust/internal/sensor"
	"trust/internal/sim"
	"trust/internal/touch"
	"trust/internal/touchscreen"
)

// Config assembles a module.
type Config struct {
	Panel        touchscreen.Config
	SensorConfig sensor.Config
	Placement    placement.Placement
	Matcher      fingerprint.MatcherConfig
	// VerifiedTouchWindow is how long a verified touch authorizes host
	// requests (continuous-auth freshness).
	VerifiedTouchWindow time.Duration
	// MatchLatency models the fingerprint processor's template match
	// time.
	MatchLatency time.Duration
	// MatchEnergy is charged per match operation.
	MatchEnergy sim.Joule
	// UseImagePipeline runs the real CV extraction (internal/extract)
	// on the scanned window image instead of the fast statistical
	// capture model, and matches with the image operating point.
	// Templates must then also be image-extracted (EnrollFromScan).
	// Slower and more conservative; see experiment X10.
	UseImagePipeline bool
	// AdaptTemplates lets confident matches (score >= AdaptScoreMin)
	// nudge the matched template toward the observation, tracking slow
	// skin drift (experiment X11). Zero AdaptScoreMin disables it.
	AdaptScoreMin float64
	// AdaptAlpha is the adaptation EMA weight (default 0.3 when
	// adaptation is enabled).
	AdaptAlpha float64
}

// DefaultConfig returns the reproduction's reference FLock build: the
// default panel, the 8x8 mm TFT patch sensor, and the default matcher.
// Placement must still be supplied (it is workload-derived).
func DefaultConfig(p placement.Placement) Config {
	return Config{
		Panel:               touchscreen.DefaultConfig(),
		SensorConfig:        sensor.FLockConfig(),
		Placement:           p,
		Matcher:             fingerprint.DefaultMatcher(),
		VerifiedTouchWindow: 30 * time.Second,
		MatchLatency:        12 * time.Millisecond,
		MatchEnergy:         4e-6,
	}
}

// OutcomeKind classifies one touch's path through the Fig 6 pipeline.
type OutcomeKind int

// Pipeline outcomes.
const (
	// OutsideSensor: the touch landed outside every fingerprint sensor
	// (Fig 6, decision 1: "requires data capture outside the areas of
	// fingerprint sensors").
	OutsideSensor OutcomeKind = iota
	// LowQuality: captured but discarded at the quality gate (Fig 6,
	// decision 2).
	LowQuality
	// Matched: captured, passed quality, matched the enrolled template.
	Matched
	// Mismatched: captured, passed quality, did NOT match — the
	// impostor signal.
	Mismatched
	// NotSensed: the panel did not register the contact at all.
	NotSensed
)

func (k OutcomeKind) String() string {
	switch k {
	case OutsideSensor:
		return "outside-sensor"
	case LowQuality:
		return "low-quality"
	case Matched:
		return "matched"
	case Mismatched:
		return "mismatched"
	case NotSensed:
		return "not-sensed"
	default:
		return fmt.Sprintf("OutcomeKind(%d)", int(k))
	}
}

// Verified reports whether the outcome confirms the enrolled user.
func (k OutcomeKind) Verified() bool { return k == Matched }

// TouchOutcome is the full result of one opportunistic capture attempt.
type TouchOutcome struct {
	Kind        OutcomeKind
	At          time.Duration // touch-down time
	Pos         geom.Point    // detected panel position (px)
	SensorIndex int           // which placed sensor fired; -1 if none
	Score       float64       // match score when a match ran
	// Template names the enrolled template the capture matched (multi-
	// user devices); empty unless Kind == Matched.
	Template string
	Reasons  []fingerprint.RejectReason
	// Latency decomposition.
	PanelScan   time.Duration
	SensorScan  time.Duration
	MatchTime   time.Duration
	Total       time.Duration
	EnergySpent sim.Joule
}

// Stats aggregates pipeline counters for the Fig 6 experiment.
type Stats struct {
	Touches       int
	NotSensed     int
	OutsideSensor int
	LowQuality    int
	Matched       int
	Mismatched    int
	RejectReasons map[fingerprint.RejectReason]int
}

// CaptureRate is the fraction of touches yielding a verified match.
func (s Stats) CaptureRate() float64 {
	if s.Touches == 0 {
		return 0
	}
	return float64(s.Matched) / float64(s.Touches)
}

// Module is one FLock instance.
type Module struct {
	cfg    Config
	rng    *sim.RNG
	energy *sim.EnergyMeter

	panel  *touchscreen.Panel
	arrays []*sensor.Array

	// templates holds the enrolled users, in enrolment order. The
	// paper's fingerprint processor matches captures against "the
	// stored biometric templates" — devices may be shared, so several
	// fingers can be enrolled; the first is the owner whose identity
	// backs remote bindings.
	templates []enrolledTemplate
	repeater  *frame.Repeater
	engine    *frame.HashEngine

	deviceKeys pki.KeyPair
	deviceKem  pki.KemPair
	deviceCert *pki.Certificate
	caPub      ed25519.PublicKey

	records map[string]*Record

	lastVerified   time.Duration
	haveVerified   bool
	recentOutcomes []OutcomeKind
	stats          Stats
	entropy        *pki.DeterministicRand

	// enrollment is the in-progress touch-driven enrolment, if any.
	enrollment *EnrollmentSession
}

// New builds a module. The CA issues the module's device certificate at
// "manufacturing time" (the paper's unique built-in key pair).
func New(cfg Config, ca *pki.CA, deviceName string, seed uint64) (*Module, error) {
	if len(cfg.Placement.Sensors) == 0 {
		return nil, errors.New("flock: placement has no sensors")
	}
	rng := sim.NewRNG(seed ^ 0xf10c4)
	entropy := pki.NewDeterministicRand(seed ^ 0x5ec7e7)
	keys, err := pki.GenerateKeyPair(entropy)
	if err != nil {
		return nil, fmt.Errorf("flock: device keys: %w", err)
	}
	kem, err := pki.GenerateKemPair(entropy)
	if err != nil {
		return nil, fmt.Errorf("flock: device KEM keys: %w", err)
	}
	cert, err := ca.IssueWithKem(deviceName, pki.RoleFLock, keys.Public, kem.Public.Bytes())
	if err != nil {
		return nil, fmt.Errorf("flock: device certificate: %w", err)
	}
	m := &Module{
		cfg:        cfg,
		rng:        rng,
		energy:     sim.NewEnergyMeter(),
		panel:      touchscreen.New(cfg.Panel, rng.Fork(1)),
		engine:     frame.NewHashEngine(),
		deviceKeys: keys,
		deviceKem:  kem,
		deviceCert: cert,
		caPub:      ca.PublicKey(),
		records:    make(map[string]*Record),
		entropy:    entropy,
	}
	m.repeater = frame.NewRepeater(m.engine)
	for i := range cfg.Placement.Sensors {
		arr, err := sensor.New(cfg.SensorConfig, rng.Fork(uint64(10+i)))
		if err != nil {
			return nil, fmt.Errorf("flock: sensor %d: %w", i, err)
		}
		m.arrays = append(m.arrays, arr)
	}
	m.stats.RejectReasons = make(map[fingerprint.RejectReason]int)
	return m, nil
}

// DeviceCert returns the module's CA-signed certificate.
func (m *Module) DeviceCert() *pki.Certificate { return m.deviceCert.Clone() }

// CAPublicKey returns the root of trust the module ships with.
func (m *Module) CAPublicKey() ed25519.PublicKey { return m.caPub }

// Energy returns the module's energy meter.
func (m *Module) Energy() *sim.EnergyMeter { return m.energy }

// Stats returns pipeline counters accumulated so far.
func (m *Module) Stats() Stats {
	out := m.stats
	out.RejectReasons = make(map[fingerprint.RejectReason]int, len(m.stats.RejectReasons))
	for k, v := range m.stats.RejectReasons {
		out.RejectReasons[k] = v
	}
	return out
}

// Repeater returns the display repeater (the device's display path runs
// through it).
func (m *Module) Repeater() *frame.Repeater { return m.repeater }

// enrolledTemplate is one protected-flash template slot.
type enrolledTemplate struct {
	name string
	tpl  *fingerprint.Template
}

// Enrolled reports whether at least one template is present.
func (m *Module) Enrolled() bool { return len(m.templates) > 0 }

// EnrolledNames lists the enrolled template labels in enrolment order.
func (m *Module) EnrolledNames() []string {
	out := make([]string, len(m.templates))
	for i, e := range m.templates {
		out[i] = e.name
	}
	return out
}

// Enroll stores the owner's template in protected storage, replacing
// all enrolled templates. The paper's enrolment happens through the
// unlock-button flow; tests may also enroll from explicit captures via
// fingerprint.EnrollFromCaptures.
func (m *Module) Enroll(t *fingerprint.Template) error {
	m.templates = nil
	return m.EnrollNamed("owner", t)
}

// EnrollNamed adds a template slot without disturbing existing ones —
// a shared device enrolls each authorized user's finger. Names must be
// unique.
func (m *Module) EnrollNamed(name string, t *fingerprint.Template) error {
	if t == nil || len(t.Minutiae) < fingerprint.MinProbeMinutiae {
		return errors.New("flock: enrolment template too sparse")
	}
	if name == "" {
		return errors.New("flock: empty template name")
	}
	for _, e := range m.templates {
		if e.name == name {
			return fmt.Errorf("flock: template %q already enrolled", name)
		}
	}
	cp := &fingerprint.Template{Minutiae: append([]fingerprint.Minutia(nil), t.Minutiae...)}
	m.templates = append(m.templates, enrolledTemplate{name: name, tpl: cp})
	m.energy.AddEvent("flash-write", 1e-6)
	return nil
}

// RevokeTemplate removes an enrolled template slot by name.
func (m *Module) RevokeTemplate(name string) error {
	for i, e := range m.templates {
		if e.name == name {
			m.templates = append(m.templates[:i], m.templates[i+1:]...)
			m.energy.AddEvent("flash-write", 1e-6)
			return nil
		}
	}
	return fmt.Errorf("flock: no template %q", name)
}

// HandleTouch runs one physical touch through the Fig 6 pipeline. The
// finger argument is the simulation's ground truth of whose fingertip
// touched; the module never inspects it beyond what its sensors image.
func (m *Module) HandleTouch(ev touch.Event, finger *fingerprint.Finger) TouchOutcome {
	out := TouchOutcome{At: ev.At, SensorIndex: -1}
	m.stats.Touches++

	// Stage 1: the touchscreen controller locates the touch (~4 ms).
	scan := m.panel.Sense([]touchscreen.Contact{{
		Pos:      ev.Pos,
		Pressure: ev.Pressure,
		RadiusMM: ev.RadiusMM,
	}})
	out.PanelScan = scan.Elapsed
	m.energy.AddPower("touchscreen", 0.015, scan.Elapsed)
	if len(scan.Touches) == 0 {
		out.Kind = NotSensed
		out.Total = scan.Elapsed
		m.stats.NotSensed++
		m.record(out)
		return out
	}
	out.Pos = scan.Touches[0].Pos

	// Stage 2: the fingerprint controller translates the touchscreen
	// location into a sensor + cell addresses (Fig 6, decision 1).
	idx := m.cfg.Placement.SensorAt(out.Pos)
	if idx < 0 {
		out.Kind = OutsideSensor
		out.Total = scan.Elapsed
		m.stats.OutsideSensor++
		m.record(out)
		return out
	}
	out.SensorIndex = idx
	arr := m.arrays[idx]
	win := m.cfg.Placement.Sensors[idx]

	// Touch position within the sensor window, in sensor-frame mm.
	local := out.Pos.Sub(win.Min)
	pxPerMM := m.cfg.Panel.PXPerMM()
	sensorMM := geom.Point{X: local.X / pxPerMM, Y: local.Y / pxPerMM}

	// Stage 3: drive the sensor — selective rows/columns around the
	// touch point, parallel row addressing (the Fig 4 design). The
	// statistical capture model never reads the image, so by default
	// the sensor is only accounted: the Fig 4 cycles, time and energy
	// depend on the cell window alone. The image pipeline images the
	// whole patch instead: the CV matcher needs every ridge the contact
	// left on the sensor, and an 8 mm patch is already the size of one
	// selective window.
	fingertipCenter := finger.Bounds().Center().Add(ev.FingerOffsetMM)
	opts := sensor.ScanOptions{Addressing: sensor.ParallelRow, Transfer: sensor.SelectiveTransfer}
	var scanRes sensor.ScanResult
	if m.cfg.UseImagePipeline {
		// The rotation's sincos is hoisted out of the per-cell closure:
		// the sensor evaluates the field once per cell, and a Sincos per
		// cell was a measurable slice of the whole-scan cost.
		sinR, cosR := math.Sincos(-ev.FingerRotation)
		field := func(p geom.Point) float64 {
			// Sensor frame -> finger frame: translate so the contact
			// point maps to the fingertip contact centre, then rotate.
			d := p.Sub(sensorMM)
			rel := geom.Point{X: d.X*cosR - d.Y*sinR, Y: d.X*sinR + d.Y*cosR}
			return finger.RidgeValue(fingertipCenter.Add(rel))
		}
		scanRes = arr.Scan(field, arr.FullRegion(), opts)
	} else {
		scanRes = arr.Account(arr.RegionAround(sensorMM, ev.RadiusMM), opts)
	}
	out.SensorScan = scanRes.Elapsed
	m.energy.AddEvent("fingerprint-sensor", scanRes.Energy)
	out.EnergySpent += scanRes.Energy

	// Stage 4: acquire features and gate on quality (Fig 6, decision
	// 2). By default feature extraction is modelled statistically by
	// fingerprint.Acquire; with UseImagePipeline the scanned patch runs
	// through the real CV stack (validated against the statistical
	// model in experiment X10).
	contact := fingerprint.Contact{
		Center:   fingertipCenter,
		Radius:   ev.RadiusMM,
		Pressure: ev.Pressure,
		SpeedMMS: ev.SpeedMMS,
		Rotation: ev.FingerRotation,
	}
	var cap *fingerprint.Capture
	if m.cfg.UseImagePipeline {
		cap = m.imageCapture(contact, scanRes)
	} else {
		cap = fingerprint.Acquire(finger, contact, m.rng)
	}
	out.Reasons = cap.Quality.Reasons
	if !cap.Quality.OK() {
		out.Kind = LowQuality
		out.Total = scan.Elapsed + scanRes.Elapsed
		m.stats.LowQuality++
		for _, r := range cap.Quality.Reasons {
			m.stats.RejectReasons[r]++
		}
		m.record(out)
		return out
	}

	// Stage 5: the fingerprint processor matches against the enrolled
	// template.
	// One match operation per enrolled template (the processor walks
	// the template store); the best accepted score wins.
	nTemplates := len(m.templates)
	if nTemplates == 0 {
		nTemplates = 1
	}
	m.energy.AddEvent("fingerprint-match", m.cfg.MatchEnergy*sim.Joule(nTemplates))
	out.EnergySpent += m.cfg.MatchEnergy * sim.Joule(nTemplates)
	out.MatchTime = m.cfg.MatchLatency * time.Duration(nTemplates)
	out.Total = scan.Elapsed + scanRes.Elapsed + out.MatchTime
	if len(m.templates) == 0 {
		out.Kind = Mismatched
		out.Score = 0
		m.stats.Mismatched++
		m.record(out)
		return out
	}
	bestAccepted := -1.0
	var bestTpl *fingerprint.Template
	for _, e := range m.templates {
		res := m.cfg.Matcher.Match(e.tpl, cap)
		if res.Score > out.Score {
			out.Score = res.Score
		}
		if res.Accepted && res.Score > bestAccepted {
			bestAccepted = res.Score
			out.Kind = Matched
			out.Template = e.name
			bestTpl = e.tpl
		}
	}
	if out.Kind == Matched && m.cfg.AdaptScoreMin > 0 && bestAccepted >= m.cfg.AdaptScoreMin {
		alpha := m.cfg.AdaptAlpha
		if alpha == 0 {
			alpha = 0.3
		}
		if m.cfg.Matcher.AdaptTemplate(bestTpl, cap, m.cfg.AdaptScoreMin, alpha) {
			m.energy.AddEvent("flash-write", 0.5e-6)
		}
	}
	if out.Kind == Matched {
		m.stats.Matched++
		m.lastVerified = ev.At + out.Total
		m.haveVerified = true
	} else {
		out.Kind = Mismatched
		m.stats.Mismatched++
	}
	m.record(out)
	return out
}

// record keeps a bounded trail of recent outcomes for risk queries.
// A full trail shifts down in place, so once it holds keep entries
// recording allocates nothing.
func (m *Module) record(out TouchOutcome) {
	const keep = 64
	if len(m.recentOutcomes) == keep {
		copy(m.recentOutcomes, m.recentOutcomes[1:])
		m.recentOutcomes = m.recentOutcomes[:keep-1]
	}
	m.recentOutcomes = append(m.recentOutcomes, out.Kind)
}

// RiskFactor implements the paper's identity-risk definition: of the
// last n touches, how many produced a verified fingerprint. Returns
// (verified, considered).
func (m *Module) RiskFactor(n int) (verified, considered int) {
	if n <= 0 || len(m.recentOutcomes) == 0 {
		return 0, 0
	}
	start := len(m.recentOutcomes) - n
	if start < 0 {
		start = 0
	}
	window := m.recentOutcomes[start:]
	for _, k := range window {
		if k.Verified() {
			verified++
		}
	}
	return verified, len(window)
}

// TouchAuthorized reports whether a verified touch exists within the
// freshness window ending at now — the gate for host-interface signing.
func (m *Module) TouchAuthorized(now time.Duration) bool {
	return m.haveVerified && now-m.lastVerified <= m.cfg.VerifiedTouchWindow
}

// DisplayFrame runs a frame through the display repeater and returns
// its hash (host SoC display path).
func (m *Module) DisplayFrame(frameBytes []byte) (frame.Hash, time.Duration) {
	h, lat := m.repeater.Display(frameBytes)
	m.energy.AddPower("frame-hash", 0.02, lat)
	return h, lat
}

// IdleSensorEnergy charges the cost of keeping all sensors fully
// powered for d — the always-on strawman of experiment X4. The paper's
// design instead leaves sensors idle until the touchscreen reports a
// touch.
func (m *Module) IdleSensorEnergy(d time.Duration) sim.Joule {
	// An always-on sensor rescans continuously; energy = scans that fit
	// in d times full-scan energy. Only the accounting is needed.
	arr := m.arrays[0]
	full := arr.Account(arr.FullRegion(), sensor.ScanOptions{})
	if full.Elapsed <= 0 {
		return 0
	}
	scans := float64(d) / float64(full.Elapsed)
	return sim.Joule(scans) * full.Energy * sim.Joule(len(m.arrays))
}
