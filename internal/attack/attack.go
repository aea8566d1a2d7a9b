// Package attack is the executable security analysis of Sec IV-B: each
// attack from the paper's threat model is mounted against a fresh
// device/server deployment and must be blocked online or detected by
// the offline audit. The suite backs experiment X3 and the security
// rows of the benchmark harness.
package attack

import (
	"fmt"
	"time"

	"trust/internal/device"
	"trust/internal/fingerprint"
	"trust/internal/flock"
	"trust/internal/frame"
	"trust/internal/pki"
	"trust/internal/protocol"
	"trust/internal/sim"
	"trust/internal/testbed"
	"trust/internal/webserver"
)

// Result is one attack's outcome.
type Result struct {
	Name string
	// Description of the adversary capability exercised.
	Description string
	// Defended is true when the attack was blocked online or flagged
	// by the offline audit.
	Defended bool
	// Mechanism names the defence that fired.
	Mechanism string
	Err       error
}

// rig is one fresh deployment.
type rig struct {
	ca       *pki.CA
	server   *webserver.Server
	mod      *flock.Module
	dev      *device.Device
	inter    *device.Interceptor
	owner    *fingerprint.Finger
	impostor *fingerprint.Finger
	now      time.Duration
}

func newRig(seed uint64) (*rig, error) {
	ca, err := pki.NewCA("trust-root", pki.NewDeterministicRand(seed))
	if err != nil {
		return nil, err
	}
	srv, err := webserver.New("bank.example", ca, seed+1)
	if err != nil {
		return nil, err
	}
	owner := fingerprint.Synthesize(seed+1000, fingerprint.Loop)
	impostor := fingerprint.Synthesize(seed+2000, fingerprint.Whorl)
	mod, err := testbed.Module(ca, "victim-phone", seed+2, owner)
	if err != nil {
		return nil, err
	}
	inter := &device.Interceptor{}
	dev := device.New("victim-phone", mod, &device.InMemory{Server: srv, Interceptor: inter})
	return &rig{ca: ca, server: srv, mod: mod, dev: dev, inter: inter, owner: owner, impostor: impostor}, nil
}

// touch drives button taps with the given finger until one verifies or
// the tap bound is reached; returns whether a verified touch happened.
func (r *rig) touch(finger *fingerprint.Finger) bool {
	at, err := testbed.TapUntilVerified(r.dev.Module, finger, r.now)
	r.now = at + testbed.TapInterval
	return err == nil
}

// setup registers and logs in the honest owner.
func (r *rig) setup() error {
	if !r.touch(r.owner) {
		return fmt.Errorf("owner never verified")
	}
	if err := r.dev.Register(r.now, "victim", "recovery-pw"); err != nil {
		return err
	}
	if !r.touch(r.owner) {
		return fmt.Errorf("owner never verified for login")
	}
	return r.dev.Login(r.now, r.server.Certificate(), "victim")
}

// All runs the complete suite, one fresh deployment per attack.
func All(seed uint64) []Result {
	attacks := []struct {
		name string
		run  func(*rig) Result
	}{
		{"replay-login", replayLogin},
		{"replay-page-request", replayPageRequest},
		{"mitm-action-tamper", mitmActionTamper},
		{"mitm-risk-tamper", mitmRiskTamper},
		{"malware-frame-spoof", malwareFrameSpoof},
		{"malware-request-injection", malwareInjection},
		{"low-quality-evasion", lowQualityEvasion},
		{"stolen-device-session", stolenDevice},
		{"rogue-server-cert", rogueServer},
		{"account-takeover-foreign-device", foreignDevice},
	}
	// Each attack builds its own deployment from its own derived seed,
	// so the suite parallelizes trivially: results are identical to the
	// serial loop at any worker count (see sim.ParMap's contract).
	out, _ := sim.ParMap(len(attacks), func(i int) (Result, error) {
		a := attacks[i]
		r, err := newRig(seed + uint64(i)*64)
		if err != nil {
			return Result{Name: a.name, Defended: false, Err: err}, nil
		}
		res := a.run(r)
		res.Name = a.name
		return res, nil
	})
	return out
}

// replayLogin captures a login submission on the wire and replays it.
func replayLogin(r *rig) Result {
	d := Result{Description: "network attacker replays a captured login submission"}
	if err := r.setup(); err != nil {
		d.Err = err
		return d
	}
	if r.inter.CapturedLogin == nil {
		d.Err = fmt.Errorf("nothing captured")
		return d
	}
	_, err := r.server.HandleLogin(r.now, r.inter.CapturedLogin)
	d.Defended = err != nil
	d.Mechanism = "single-use nonce consumed at first login"
	d.Err = nil
	return d
}

// replayPageRequest replays a captured in-session request.
func replayPageRequest(r *rig) Result {
	d := Result{Description: "network attacker replays a captured page request"}
	if err := r.setup(); err != nil {
		d.Err = err
		return d
	}
	r.touch(r.owner)
	if err := r.dev.Browse(r.now, "view-statement"); err != nil {
		d.Err = err
		return d
	}
	req := r.inter.CapturedRequests[len(r.inter.CapturedRequests)-1]
	_, err := r.server.HandlePageRequest(r.now, req)
	d.Defended = err != nil
	d.Mechanism = "per-response nonce rotation"
	return d
}

// mitmActionTamper rewrites the action of an in-flight request.
func mitmActionTamper(r *rig) Result {
	d := Result{Description: "man-in-the-middle rewrites a request's action to a money transfer"}
	if err := r.setup(); err != nil {
		d.Err = err
		return d
	}
	r.inter.OnPageRequest = func(req *protocol.PageRequest) *protocol.PageRequest {
		m := *req
		m.Action = "confirm-transfer"
		return &m
	}
	r.touch(r.owner)
	err := r.dev.Browse(r.now, "view-statement")
	d.Defended = err != nil
	d.Mechanism = "session-key MAC over every request field"
	return d
}

// mitmRiskTamper inflates the reported risk factor in flight.
func mitmRiskTamper(r *rig) Result {
	d := Result{Description: "man-in-the-middle inflates the risk factor to keep a session alive"}
	if err := r.setup(); err != nil {
		d.Err = err
		return d
	}
	// The device is now in an impostor's hands: the genuine risk factor
	// collapses, and the MITM tries to patch it back up in flight.
	for i := 0; i < 15; i++ {
		r.dev.Touch(testbed.Tap(r.now), r.impostor)
		r.now += testbed.TapInterval
	}
	r.inter.OnPageRequest = func(req *protocol.PageRequest) *protocol.PageRequest {
		m := *req
		m.RiskVerified = m.RiskWindow // claim everything verified
		return &m
	}
	err := r.dev.Browse(r.now, "view-statement")
	d.Defended = err != nil
	d.Mechanism = "risk factor covered by the session-key MAC"
	return d
}

// malwareFrameSpoof shows the user a doctored page; the audit must
// flag the session.
func malwareFrameSpoof(r *rig) Result {
	d := Result{Description: "compromised browser renders a spoofed page to the user"}
	r.dev.Malware = &device.Malware{
		TamperFrame: func(p *frame.Page) *frame.Page {
			p.Body = "Security check: please confirm."
			return p
		},
	}
	if err := r.setup(); err != nil {
		d.Err = err
		return d
	}
	r.touch(r.owner)
	if err := r.dev.Browse(r.now, "view-statement"); err != nil {
		// Even better: rejected online.
		d.Defended = true
		d.Mechanism = "request rejected online"
		return d
	}
	report := r.server.RunAudit()
	d.Defended = report.Tampered > 0
	d.Mechanism = "frame-hash offline audit against the finite view set"
	return d
}

// malwareInjection asks the module to sign a request with no backing
// touch.
func malwareInjection(r *rig) Result {
	d := Result{Description: "malware injects a transfer request without any user touch"}
	if err := r.setup(); err != nil {
		d.Err = err
		return d
	}
	r.now += time.Hour // freshness window long gone
	err := r.dev.InjectRequest(r.now, "confirm-transfer")
	d.Defended = err != nil
	d.Mechanism = "FLock touch-authorization gate on signing"
	return d
}

// lowQualityEvasion: the impostor deliberately touches fast/lightly so
// captures are discarded, hoping to coast on the session.
func lowQualityEvasion(r *rig) Result {
	d := Result{Description: "impostor evades biometric capture with deliberately low-quality touches"}
	if err := r.setup(); err != nil {
		d.Err = err
		return d
	}
	// Impostor's evasive touches: fast swipes and feather taps.
	for i := 0; i < 20; i++ {
		ev := testbed.Tap(r.now)
		ev.Pressure, ev.RadiusMM, ev.SpeedMMS = 0.1, 3, 60
		r.dev.Touch(ev, r.impostor)
		r.now += testbed.TapInterval
	}
	// The touches were all discarded: the risk window now reports no
	// verifications, so the next request fails the server policy (or,
	// later, the signing gate).
	err := r.dev.Browse(r.now, "confirm-transfer")
	d.Defended = err != nil
	d.Mechanism = "k-of-n window: discarded captures count as unverified"
	return d
}

// stolenDevice: the impostor uses the phone normally mid-session.
func stolenDevice(r *rig) Result {
	d := Result{Description: "device stolen mid-session; impostor browses normally"}
	if err := r.setup(); err != nil {
		d.Err = err
		return d
	}
	for i := 0; i < 15; i++ {
		r.dev.Touch(testbed.Tap(r.now), r.impostor)
		r.now += testbed.TapInterval
	}
	err := r.dev.Browse(r.now, "confirm-transfer")
	if err == nil {
		d.Defended = false
		return d
	}
	d.Defended = true
	d.Mechanism = "continuous risk policy revokes the session"
	return d
}

// rogueServer presents a certificate from an unknown CA at
// registration.
func rogueServer(r *rig) Result {
	d := Result{Description: "phishing server with a rogue-CA certificate solicits registration"}
	rogueCA, err := pki.NewCA("rogue-root", pki.NewDeterministicRand(777))
	if err != nil {
		d.Err = err
		return d
	}
	rogue, err := webserver.New("bank.example", rogueCA, 31337)
	if err != nil {
		d.Err = err
		return d
	}
	r.dev = device.New("victim-phone", r.mod, &device.InMemory{Server: rogue})
	if !r.touch(r.owner) {
		d.Err = fmt.Errorf("owner never verified")
		return d
	}
	err = r.dev.Register(r.now, "victim", "pw")
	d.Defended = err != nil
	d.Mechanism = "CA signature check on the server certificate in FLock"
	return d
}

// foreignDevice: an attacker with their own FLock device tries to log
// in to the victim's account.
func foreignDevice(r *rig) Result {
	d := Result{Description: "attacker's own device attempts login to the victim's account"}
	if err := r.setup(); err != nil {
		d.Err = err
		return d
	}
	// Attacker hardware, enrolled with the attacker's finger, with a
	// legitimate certificate from the same CA.
	mod, err := testbed.Module(r.ca, "attacker-phone", 4321, r.impostor)
	if err != nil {
		d.Err = err
		return d
	}
	atk := device.New("attacker-phone", mod, &device.InMemory{Server: r.server})
	save := r.dev
	r.dev = atk
	verified := r.touch(r.impostor)
	r.dev = save
	if !verified {
		d.Err = fmt.Errorf("attacker never verified on own device")
		return d
	}
	// The attacker registers the victim's account name? Already taken.
	regErr := atk.Register(r.now, "victim", "pw")
	// Or logs in directly: no service record for the domain binding,
	// and no key matching the server's stored one.
	loginErr := atk.Login(r.now, r.server.Certificate(), "victim")
	d.Defended = regErr != nil && loginErr != nil
	d.Mechanism = "account bound to the victim's per-service public key"
	return d
}
