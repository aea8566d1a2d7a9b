// Package trust is the public API of the TRUST reproduction: continuous
// remote mobile identity management using a biometric-integrated
// touch-display (Feng et al., MICRO 2012 workshops).
//
// The package re-exports the stable surface of the internal packages:
//
//   - World / NewWorld — the full remote scenario (CA, servers, FLock
//     devices, the three reference users, optimized sensor placement).
//   - LocalDevice / RunLocalSession — the local identity management
//     scenario: unlock flow, opportunistic capture, k-of-n risk engine,
//     pre-defined responses.
//   - The attack suite and the sensor-placement optimizer for design
//     exploration.
//
// See examples/ for runnable entry points and DESIGN.md for the system
// inventory.
package trust

import (
	"trust/internal/attack"
	"trust/internal/core"
	"trust/internal/device"
	"trust/internal/extract"
	"trust/internal/fingerprint"
	"trust/internal/flock"
	"trust/internal/geom"
	"trust/internal/pki"
	"trust/internal/placement"
	"trust/internal/sensor"
	"trust/internal/sim"
	"trust/internal/touch"
	"trust/internal/touchscreen"
	"trust/internal/webserver"
)

// Core scenario types.
type (
	// World wires a CA, web servers, and FLock devices into the remote
	// scenario of the paper's Fig 8.
	World = core.World
	// LocalDevice is the local identity management scenario.
	LocalDevice = core.LocalDevice
	// LocalPolicy is the k-of-n window policy with responses.
	LocalPolicy = core.LocalPolicy
	// SessionReport summarizes a simulated local session.
	SessionReport = core.SessionReport
	// Device is the untrusted phone host embedding a FLock module.
	Device = device.Device
	// Server is a TRUST-enabled web service.
	Server = webserver.Server
	// Module is the FLock trusted hardware block.
	Module = flock.Module
	// Finger is one synthetic fingerprint.
	Finger = fingerprint.Finger
	// Placement is a chosen sensor layout.
	Placement = placement.Placement
	// AttackResult is one attack outcome from the security suite.
	AttackResult = attack.Result
	// TouchEvent is one physical touch-down.
	TouchEvent = touch.Event
	// UserModel is a touch-behaviour model (hot-spots + gestures).
	UserModel = touch.UserModel
	// DensityGrid is a touch-density histogram (Fig 7).
	DensityGrid = touch.DensityGrid
	// Point and Rect are screen-space geometry.
	Point = geom.Point
	Rect  = geom.Rect
	// RNG is the deterministic random stream every simulation uses.
	RNG = sim.RNG
	// CA is the certificate authority of the deployment.
	CA = pki.CA
)

// NewWorld builds the full remote scenario from a seed: CA, the three
// Fig 7 reference users, and a sensor placement optimized on their
// combined touch density.
func NewWorld(seed uint64) (*World, error) { return core.NewWorld(seed) }

// NewLocalDevice wraps a FLock module with the local risk policy; the
// unlock button sits over firstSensor.
func NewLocalDevice(m *Module, policy LocalPolicy, firstSensor Rect) (*LocalDevice, error) {
	return core.NewLocalDevice(m, policy, firstSensor)
}

// DefaultLocalPolicy returns the calibrated 2-of-12 window policy.
func DefaultLocalPolicy() LocalPolicy { return core.DefaultLocalPolicy() }

// RunLocalSession plays a generated touch session through a local
// device; see core.RunLocalSession.
func RunLocalSession(d *LocalDevice, s *touch.Session, owner, impostor *Finger, impostorStart int) (SessionReport, error) {
	return core.RunLocalSession(d, s, owner, impostor, impostorStart)
}

// ReferenceUsers returns the three Fig 7 user models.
func ReferenceUsers() []UserModel { return touch.ReferenceUsers() }

// GenerateSession produces a natural interaction trace for a user.
func GenerateSession(u UserModel, screen Rect, n int, rng *RNG) (*touch.Session, error) {
	return touch.GenerateSession(u, screen, n, rng)
}

// NewRNG returns a deterministic random stream.
func NewRNG(seed uint64) *RNG { return sim.NewRNG(seed) }

// SynthesizeFinger creates a per-seed synthetic fingerprint.
func SynthesizeFinger(seed uint64, pattern fingerprint.PatternType) *Finger {
	return fingerprint.Synthesize(seed, pattern)
}

// Fingerprint pattern classes.
const (
	Arch  = fingerprint.Arch
	Loop  = fingerprint.Loop
	Whorl = fingerprint.Whorl
)

// ScreenBounds returns the reference phone's screen rectangle in
// pixels.
func ScreenBounds() Rect { return touchscreen.DefaultConfig().BoundsPX() }

// OptimizePlacement runs the greedy sensor placement over a touch
// density.
func OptimizePlacement(density *DensityGrid, opts placement.Options) (Placement, error) {
	return placement.Optimize(density, opts)
}

// PlacementOptions configures OptimizePlacement.
type PlacementOptions = placement.Options

// NewDensityGrid builds an empty touch-density histogram.
func NewDensityGrid(screen Rect, cols, rows int) *DensityGrid {
	return touch.NewDensityGrid(screen, cols, rows)
}

// RunAttackSuite mounts the full Sec IV-B attack suite against fresh
// deployments and reports per-attack outcomes.
func RunAttackSuite(seed uint64) []AttackResult { return attack.All(seed) }

// ExtractMinutiae runs the image-based CV extraction pipeline
// (smoothing, thinning, crossing-number detection) on a sensor bit
// image; pitchMM is millimetres per pixel.
func ExtractMinutiae(img *sensor.BitImage, pitchMM float64) []fingerprint.Minutia {
	return extract.Minutiae(img, pitchMM, extract.DefaultOptions())
}

// ImageModuleConfig returns a FLock configuration that runs the real
// CV extraction on every capture (see experiment X10).
func ImageModuleConfig(p Placement) flock.Config { return flock.ImageConfig(p) }
