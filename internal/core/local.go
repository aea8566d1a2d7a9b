package core

import (
	"errors"
	"fmt"
	"time"

	"trust/internal/fingerprint"
	"trust/internal/flock"
	"trust/internal/geom"
	"trust/internal/touch"
)

// LocalDevice is the local identity management scenario (Sec IV-A): a
// FLock-equipped phone with an unlock flow ("an unlock button will
// appear above a fingerprint sensor") and continuous post-login
// verification driving pre-defined responses.
type LocalDevice struct {
	Module *flock.Module
	engine *RiskEngine

	locked bool
	halted bool
	// unlockButton is drawn over sensor 0, per the paper's unlock flow.
	unlockButton geom.Rect

	// Counters for session reports.
	lockEvents int
	haltEvents int
}

// NewLocalDevice wraps a module with the local policy. The unlock
// button is placed over the module's first sensor.
func NewLocalDevice(m *flock.Module, policy LocalPolicy, firstSensor geom.Rect) (*LocalDevice, error) {
	eng, err := NewRiskEngine(policy)
	if err != nil {
		return nil, err
	}
	return &LocalDevice{
		Module:       m,
		engine:       eng,
		locked:       true,
		unlockButton: firstSensor,
	}, nil
}

// Locked reports the lock state.
func (d *LocalDevice) Locked() bool { return d.locked }

// LockEvents and HaltEvents report how many responses fired.
func (d *LocalDevice) LockEvents() int { return d.lockEvents }
func (d *LocalDevice) HaltEvents() int { return d.haltEvents }

// Unlock attempts the unlock flow: the touch must land on the unlock
// button (hence on a sensor) and match the enrolled template. Only an
// authorized user can unlock (paper Sec IV-A).
func (d *LocalDevice) Unlock(ev touch.Event, finger *fingerprint.Finger) (flock.TouchOutcome, error) {
	if !d.locked {
		return flock.TouchOutcome{}, errors.New("core: device is not locked")
	}
	if !d.unlockButton.Contains(ev.Pos) {
		return flock.TouchOutcome{}, fmt.Errorf("core: unlock touch at %v missed the unlock button %v", ev.Pos, d.unlockButton)
	}
	out := d.Module.HandleTouch(ev, finger)
	if out.Kind == flock.Matched {
		d.locked = false
		d.halted = false
		d.engine.Reset()
	}
	return out, nil
}

// OnTouch processes one interaction touch: opportunistic capture plus
// the risk decision and response. Touches on a locked device are
// ignored (the lock screen only offers the unlock button).
func (d *LocalDevice) OnTouch(ev touch.Event, finger *fingerprint.Finger) (flock.TouchOutcome, Decision, error) {
	if d.locked {
		return flock.TouchOutcome{}, Decision{}, errors.New("core: device locked")
	}
	out := d.Module.HandleTouch(ev, finger)
	dec := d.engine.Observe(out.Kind)
	switch dec.Action {
	case LockDevice:
		d.locked = true
		d.lockEvents++
	case HaltInteraction:
		// A halt clears once a verified touch arrives; meanwhile the
		// device keeps capturing (it must, to clear the halt).
		if !d.halted {
			d.haltEvents++
		}
		d.halted = true
	case NoAction:
		if out.Kind == flock.Matched {
			d.halted = false
		}
	}
	return out, dec, nil
}

// SessionReport summarizes a simulated local session for the Fig 6 /
// X2 experiments.
type SessionReport struct {
	User       string
	Touches    int
	Stats      flock.Stats
	Trace      []RiskTracePoint
	Locked     bool
	LockEvents int
	HaltEvents int
	// ImpostorStart is the touch index where the impostor took over
	// (-1 for all-owner sessions).
	ImpostorStart int
	// DetectionTouches counts impostor touches until the first
	// LockDevice or HaltInteraction response (-1 = never detected).
	DetectionTouches int
	Duration         time.Duration
}

// CaptureRate is the fraction of touches that verified.
func (r SessionReport) CaptureRate() float64 { return r.Stats.CaptureRate() }

// RunLocalSession unlocks the device with the owner's finger and plays
// a generated session through it. If impostorStart >= 0, touches from
// that index onward come from the impostor's finger — the theft
// scenario. The report carries the full risk trace.
func RunLocalSession(d *LocalDevice, s *touch.Session, owner, impostor *fingerprint.Finger, impostorStart int) (SessionReport, error) {
	report := SessionReport{User: s.User.Name, ImpostorStart: impostorStart, DetectionTouches: -1}

	// Unlock first: retry the unlock button until the owner matches.
	unlockPos := d.unlockButton.Center()
	at := time.Duration(0)
	for attempt := 0; d.Locked(); attempt++ {
		if attempt > 50 {
			return report, errors.New("core: owner failed to unlock in 50 attempts")
		}
		ev := touch.Event{At: at, Pos: unlockPos, Pressure: 0.7, RadiusMM: 4.2, SpeedMMS: 1}
		if _, err := d.Unlock(ev, owner); err != nil {
			return report, err
		}
		at += 300 * time.Millisecond
	}

	for i, ev := range s.Events {
		finger := owner
		if impostorStart >= 0 && i >= impostorStart {
			finger = impostor
		}
		ev.At += at // shift past the unlock phase
		out, dec, err := d.OnTouch(ev, finger)
		if err != nil {
			// Device locked itself: stop the session, as the real UI
			// would.
			break
		}
		report.Touches++
		report.Trace = append(report.Trace, RiskTracePoint{
			Touch: i, At: ev.At, Outcome: out.Kind, Risk: dec.Risk,
			Action: dec.Action, Verified: dec.Verified, Window: dec.Window,
		})
		if impostorStart >= 0 && i >= impostorStart && report.DetectionTouches < 0 &&
			(dec.Action == LockDevice || dec.Action == HaltInteraction) {
			report.DetectionTouches = i - impostorStart + 1
		}
		if dec.Action == LockDevice {
			break
		}
	}
	report.Stats = d.Module.Stats()
	report.Locked = d.Locked()
	report.LockEvents = d.LockEvents()
	report.HaltEvents = d.HaltEvents()
	report.Duration = s.Duration()
	return report, nil
}
