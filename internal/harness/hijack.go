package harness

import (
	"fmt"
	"time"

	"trust/internal/baseline"
	"trust/internal/sim"
)

// XHijack quantifies the paper's claim that "cookie expiration control
// is no longer needed": after credential theft, how long do the stolen
// credentials keep working, and how many requests does the attacker
// land? Compared: a conventional cookie session (30-minute expiry)
// versus TRUST, where every request needs fresh verified touches.
func XHijack(seed uint64) (Result, error) {
	rng := sim.NewRNG(seed ^ 0x41ac)

	// Baseline: cookie stolen at a random point in its lifetime.
	cookie := baseline.DefaultCookieSession()
	var winSum time.Duration
	reqSum := 0
	const trials = 50
	for i := 0; i < trials; i++ {
		out := cookie.Hijack(rng)
		winSum += out.Window
		reqSum += out.AttackerRequests
	}
	cookieWindow := winSum / trials
	cookieReqs := reqSum / trials

	// TRUST, passive attacker: full malware control of the browser the
	// moment the owner stops touching. Requests ride the stale risk
	// report until the module's touch-authorization freshness expires.
	r, err := newStdRig(seed)
	if err != nil {
		return Result{}, err
	}
	if err := r.loginFlow("victim"); err != nil {
		return Result{}, err
	}
	theft := r.now // owner's last verified touch is just before this
	trustReqs := 0
	var trustWindow time.Duration
	for step := 0; step < 10000; step++ {
		r.now = theft + time.Duration(step)*500*time.Millisecond
		err := r.dev.Browse(r.now, "home")
		if err != nil {
			trustWindow = r.now - theft
			break
		}
		trustReqs++
	}

	// TRUST, active impostor: touches the device to stay authorized —
	// the mismatches collapse the risk report instead.
	r2, err := newStdRig(seed + 1)
	if err != nil {
		return Result{}, err
	}
	if err := r2.loginFlow("victim"); err != nil {
		return Result{}, err
	}
	theft2 := r2.now
	impostorReqs := 0
	var impostorWindow time.Duration
	impostor := r2.world.Users["user3-index-finger"] // different finger
	for step := 0; step < 10000; step++ {
		// One impostor touch per request attempt.
		if _, err := r2.world.DriveTouches(r2.dev, impostor.Model.Name, 1, r2.now); err != nil {
			return Result{}, err
		}
		r2.now += 500 * time.Millisecond
		if err := r2.dev.Browse(r2.now, "home"); err != nil {
			impostorWindow = r2.now - theft2
			break
		}
		impostorReqs++
	}

	rows := [][]string{
		{"cookie session (30 min expiry)", cookieWindow.Round(time.Second).String(), fmt.Sprintf("%d", cookieReqs), "bearer token valid until expiry"},
		{"TRUST, passive attacker", trustWindow.Round(time.Second).String(), fmt.Sprintf("%d", trustReqs), "touch-authorization freshness expires"},
		{"TRUST, impostor touching", impostorWindow.Round(time.Second).String(), fmt.Sprintf("%d", impostorReqs), "mismatches collapse the risk window"},
	}
	text := fmtTable([]string{"scheme", "mean hijack window", "attacker requests", "what ends it"}, rows)
	text += "\nTRUST bounds post-compromise exposure to seconds without any expiry timer;\nthe paper's \"cookie expiration control is no longer needed\"\n"
	return Result{
		Title: "Post-theft session hijack window: cookies vs continuous auth (X9)",
		Text:  text,
		Metrics: map[string]float64{
			"cookie_window_s":   cookieWindow.Seconds(),
			"trust_window_s":    trustWindow.Seconds(),
			"impostor_window_s": impostorWindow.Seconds(),
			"cookie_requests":   float64(cookieReqs),
			"trust_requests":    float64(trustReqs),
		},
	}, nil
}
