// Package testbed is the standard one-button deployment that rigs,
// load generators and test fixtures share. Following the paper's
// placement rule (Fig 6/8), the critical button sits over the
// biometric-enabled region, so every deliberate tap on it is also a
// fingerprint capture. The package fixes that region, the tap that
// lands on it, the tap cadence, and the enrolled FLock module built on
// it; callers keep their own seeds, names, CA and server wiring.
package testbed

import (
	"fmt"
	"time"

	"trust/internal/fingerprint"
	"trust/internal/flock"
	"trust/internal/geom"
	"trust/internal/pki"
	"trust/internal/placement"
	"trust/internal/touch"
)

// Sensor is the one biometric-enabled region of the standard device.
// The webserver's served buttons have exactly these bounds.
var Sensor = geom.RectWH(180, 660, 120, 120)

// TapInterval is the cadence of deliberate taps on the button.
const TapInterval = 400 * time.Millisecond

// maxTaps bounds TapUntilVerified. A genuine enrolled finger verifies
// within a few taps; the bound only stops a finger that never will.
const maxTaps = 50

// Placement is the standard one-sensor layout.
func Placement() placement.Placement {
	return placement.Placement{Sensors: []geom.Rect{Sensor}}
}

// Tap is a deliberate tap at virtual time at on the centre of the
// sensor-covered button.
func Tap(at time.Duration) touch.Event {
	return touch.Event{At: at, Pos: Sensor.Center(), Pressure: 0.7, RadiusMM: 4.2, SpeedMMS: 1}
}

// Module builds the FLock module of the standard layout and enrolls
// finger as its owner.
func Module(ca *pki.CA, name string, seed uint64, finger *fingerprint.Finger) (*flock.Module, error) {
	mod, err := flock.New(flock.DefaultConfig(Placement()), ca, name, seed)
	if err != nil {
		return nil, err
	}
	if err := mod.Enroll(fingerprint.NewTemplate(finger)); err != nil {
		return nil, err
	}
	return mod, nil
}

// TapUntilVerified taps the button with finger every TapInterval from
// start until the module verifies a tap, and returns that tap's time.
// After maxTaps unverified taps it returns the last tap's time and an
// error. A caller whose clock moves past the tap adds TapInterval.
func TapUntilVerified(mod *flock.Module, finger *fingerprint.Finger, start time.Duration) (time.Duration, error) {
	for i := 0; i < maxTaps; i++ {
		at := start + time.Duration(i)*TapInterval
		if mod.HandleTouch(Tap(at), finger).Kind == flock.Matched {
			return at, nil
		}
	}
	return start + (maxTaps-1)*TapInterval, fmt.Errorf("testbed: finger not verified in %d taps", maxTaps)
}
