package flock

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"sort"
	"testing"
	"time"

	"trust/internal/fingerprint"
	"trust/internal/geom"
	"trust/internal/sim"
	"trust/internal/touch"
)

// outcomeHash accumulates a byte-exact digest of touch outcomes.
type outcomeHash struct{ h hash.Hash }

func newOutcomeHash() *outcomeHash { return &outcomeHash{h: sha256.New()} }

func (o *outcomeHash) u64(v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	o.h.Write(b[:])
}

func (o *outcomeHash) int(v int)                         { o.u64(uint64(int64(v))) }
func (o *outcomeHash) f64(v float64)                     { o.u64(math.Float64bits(v)) }
func (o *outcomeHash) dur(v time.Duration)               { o.u64(uint64(v)) }
func (o *outcomeHash) str(s string)                      { o.int(len(s)); o.h.Write([]byte(s)) }
func (o *outcomeHash) point(p geom.Point)                { o.f64(p.X); o.f64(p.Y) }
func (o *outcomeHash) sum() string                       { return hex.EncodeToString(o.h.Sum(nil)) }
func (o *outcomeHash) joule(v sim.Joule)                 { o.f64(float64(v)) }
func (o *outcomeHash) kind(k OutcomeKind)                { o.int(int(k)) }
func (o *outcomeHash) reason(r fingerprint.RejectReason) { o.int(int(r)) }

// outcome hashes every observable field of one touch outcome.
func (o *outcomeHash) outcome(out TouchOutcome) {
	o.kind(out.Kind)
	o.dur(out.At)
	o.point(out.Pos)
	o.int(out.SensorIndex)
	o.f64(out.Score)
	o.str(out.Template)
	o.int(len(out.Reasons))
	for _, r := range out.Reasons {
		o.reason(r)
	}
	o.dur(out.PanelScan)
	o.dur(out.SensorScan)
	o.dur(out.MatchTime)
	o.dur(out.Total)
	o.joule(out.EnergySpent)
}

// module hashes the state a touch sequence leaves behind: the pipeline
// counters, the k-of-n risk window and the sensor energy.
func (o *outcomeHash) module(m *Module) {
	s := m.Stats()
	for _, v := range []int{s.Touches, s.NotSensed, s.OutsideSensor, s.LowQuality, s.Matched, s.Mismatched} {
		o.int(v)
	}
	reasons := make([]int, 0, len(s.RejectReasons))
	for r := range s.RejectReasons {
		reasons = append(reasons, int(r))
	}
	sort.Ints(reasons)
	for _, r := range reasons {
		o.int(r)
		o.int(s.RejectReasons[fingerprint.RejectReason(r)])
	}
	verified, considered := m.RiskFactor(8)
	o.int(verified)
	o.int(considered)
	o.joule(m.Energy().Component("fingerprint-sensor"))
}

// goldenTouch draws one touch of the mixed workload: genuine taps on
// either sensor (some near a window edge, so the cell window clips),
// off-sensor taps, fast swipes that fail the quality gate, impostor
// taps and presses too light for the panel to register.
func goldenTouch(rng *sim.RNG, i int, owner, impostor *fingerprint.Finger) (touch.Event, *fingerprint.Finger) {
	ev := touch.Event{
		At:             time.Duration(i) * 700 * time.Millisecond,
		Pos:            geom.Point{X: 240 + rng.Normal(0, 12), Y: 720 + rng.Normal(0, 12)},
		Kind:           touch.Tap,
		Pressure:       0.6 + 0.2*rng.Float64(),
		RadiusMM:       3.8 + rng.Float64(),
		SpeedMMS:       2 * rng.Float64(),
		FingerOffsetMM: geom.Point{X: rng.Normal(0, 1), Y: rng.Normal(0, 1.2)},
		FingerRotation: rng.Normal(0, 0.15),
	}
	finger := owner
	switch k := rng.Intn(10); {
	case k < 3: // genuine on sensor 0
	case k == 3: // genuine on sensor 1
		ev.Pos.Y -= 380
	case k == 4: // genuine near sensor 0's left edge: clipped window
		ev.Pos.X = 183 + 4*rng.Float64()
	case k == 5: // off sensor
		ev.Pos = geom.Point{X: 40 + 400*rng.Float64(), Y: 40 + 240*rng.Float64()}
	case k == 6: // fast swipe: smeared, fails the quality gate
		ev.Kind = touch.Swipe
		ev.SpeedMMS = 40 + 60*rng.Float64()
	case k == 7, k == 8: // impostor
		finger = impostor
	case k == 9: // too light for the panel
		ev.Pressure = 0.05 + 0.05*rng.Float64()
	}
	return ev, finger
}

// TestHandleTouchOutcomesGolden pins the touch pipeline's observable
// output — every outcome field of a seeded mixed workload, then the
// counters, the risk window and the sensor energy it leaves — on the
// statistical path and, in a short leg, on the image pipeline. Any
// change to panel sense, sensor accounting, acquisition, matching or
// their RNG streams moves a digest here.
func TestHandleTouchOutcomesGolden(t *testing.T) {
	const (
		wantStatistical = "3d816428d84a055897cd2e3b1b8a6b9acec7ad323e83372ee54abd97ea139246"
		wantImage       = "69709f0bffbbaec15e8a6969e407ad2b6c68a90c71ca79e24358d984769a8cf3"
	)
	owner := fingerprint.Synthesize(4242, fingerprint.Loop)
	impostor := fingerprint.Synthesize(666, fingerprint.Whorl)

	m, _ := newTestModule(t)
	enrollOwner(t, m)
	rng := sim.NewRNG(0x901de)
	h := newOutcomeHash()
	kinds := map[OutcomeKind]int{}
	for i := 0; i < 200; i++ {
		ev, finger := goldenTouch(rng, i, owner, impostor)
		out := m.HandleTouch(ev, finger)
		kinds[out.Kind]++
		h.outcome(out)
	}
	h.module(m)
	for _, k := range []OutcomeKind{NotSensed, OutsideSensor, LowQuality, Matched, Mismatched} {
		if kinds[k] == 0 {
			t.Errorf("workload produced no %v outcome: %v", k, kinds)
		}
	}
	if got := h.sum(); got != wantStatistical {
		t.Errorf("statistical-path outcomes sha256 %s, want %s", got, wantStatistical)
	}

	im, imOwner := newImageModule(t)
	irng := sim.NewRNG(0x1a6e5)
	ih := newOutcomeHash()
	scanned := 0
	for i := 0; i < 8; i++ {
		ev, finger := goldenTouch(irng, i, imOwner, impostor)
		out := im.HandleTouch(ev, finger)
		if out.SensorScan > 0 {
			scanned++
		}
		ih.outcome(out)
	}
	ih.module(im)
	if scanned < 5 {
		t.Errorf("image leg imaged the sensor on %d touches, want at least 5", scanned)
	}
	if got := ih.sum(); got != wantImage {
		t.Errorf("image-pipeline outcomes sha256 %s, want %s", got, wantImage)
	}
}
