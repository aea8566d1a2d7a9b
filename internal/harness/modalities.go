package harness

import (
	"fmt"
	"time"

	"trust/internal/fingerprint"
	"trust/internal/gesture"
	"trust/internal/keystroke"
	"trust/internal/sim"
	"trust/internal/touch"
)

// XModalities compares the paper's fingerprint-touch modality against
// the keystroke-dynamics implicit authentication of the related work
// ([5], [17], [11]) on equal-error rate and decision latency.
func XModalities(seed uint64) (Result, error) {
	rng := sim.NewRNG(seed ^ 0x30d)

	// Keystroke dynamics: population EER and window latency.
	ks, err := keystroke.EvaluateEER(16, 12, rng)
	if err != nil {
		return Result{}, err
	}
	// A decision needs WindowSize keystrokes of typing.
	ksModel := keystroke.NewUserModel("probe", rng)
	ksLatency := keystroke.Duration(ksModel.Sample(keystroke.WindowSize, rng))

	// Touch-gesture behavioural auth ([6][8][19]): the Fig 7 reference
	// users with realistic behavioural spread.
	gestureUsers := touch.ReferenceUsers()
	gestureUsers[0].PressureMean, gestureUsers[0].SwipeSpeedMMS = 0.45, 70
	gestureUsers[1].PressureMean, gestureUsers[1].SwipeSpeedMMS = 0.70, 120
	gestureUsers[2].ContactRadiusMeanMM = 3.4
	screen := panelConfig().BoundsPX()
	gs, err := gesture.EvaluateEER(gestureUsers, screen, 15, rng)
	if err != nil {
		return Result{}, err
	}
	// A gesture decision needs a window of natural touches (~1.2 s
	// think time each).
	gsLatency := time.Duration(gesture.WindowSize) * gestureUsers[0].InterGestureMean

	// Fingerprint touch: score distributions from quality-passing
	// captures, run through the same EER computation (scores negated:
	// the verifier accepts HIGH match scores).
	matcher := fingerprint.DefaultMatcher()
	var genuineLow, impostorLow []float64
	for i := 0; i < 16; i++ {
		f := fingerprint.Synthesize(seed+uint64(i)+300, fingerprint.PatternType(i%3))
		g := fingerprint.Synthesize(seed+uint64(i)+9300, fingerprint.PatternType((i+1)%3))
		tpl := fingerprint.NewTemplate(f)
		for p := 0; p < 12; p++ {
			contact := fingerprint.Contact{
				Center:   jitteredCenter(f, rng),
				Radius:   4.2,
				Pressure: 0.6 + 0.3*rng.Float64(),
				SpeedMMS: 3 * rng.Float64(),
				Rotation: rng.Normal(0, 0.2),
			}
			gc := fingerprint.Acquire(f, contact, rng)
			if gc.Quality.OK() {
				genuineLow = append(genuineLow, -matcher.Match(tpl, gc).Score)
			}
			icontact := contact
			icontact.Center = jitteredCenter(g, rng)
			ic := fingerprint.Acquire(g, icontact, rng)
			if ic.Quality.OK() {
				impostorLow = append(impostorLow, -matcher.Match(tpl, ic).Score)
			}
		}
	}
	fpEER, _ := keystroke.ComputeEER(genuineLow, impostorLow)
	// A decision needs one touch through the pipeline (~17 ms; Fig 5).
	fpLatency := 17 * time.Millisecond

	rows := [][]string{
		{"keystroke dynamics [5][17][11]", fmt.Sprintf("%.1f%%", ks.EER*100),
			fmt.Sprintf("%d keystrokes (%v)", keystroke.WindowSize, ksLatency.Round(100*time.Millisecond)),
			"none", "behavioural; drifts with mood/posture"},
		{"touch gestures [6][8][19]", fmt.Sprintf("%.1f%%", gs.EER*100),
			fmt.Sprintf("%d touches (%v)", gesture.WindowSize, gsLatency.Round(time.Second)),
			"none", "behavioural; needs many touches per decision"},
		{"fingerprint touch (this work)", fmt.Sprintf("%.1f%%", fpEER*100),
			fmt.Sprintf("1 touch (%v)", fpLatency),
			"transparent TFT sensors", "physiological; stable"},
	}
	text := fmtTable([]string{"modality", "EER", "decision latency", "extra hardware", "notes"}, rows)
	text += fmt.Sprintf("\nkeystroke evaluated over %d genuine / %d impostor windows; fingerprint over %d / %d quality-passing captures\n",
		ks.Genuine, ks.Impostor, len(genuineLow), len(impostorLow))
	return Result{
		Title: "Implicit-auth modalities: keystroke dynamics vs fingerprint touch (X8, Sec V)",
		Text:  text,
		Metrics: map[string]float64{
			"keystroke_eer":         ks.EER,
			"gesture_eer":           gs.EER,
			"fingerprint_eer":       fpEER,
			"keystroke_latency_s":   ksLatency.Seconds(),
			"gesture_latency_s":     gsLatency.Seconds(),
			"fingerprint_latency_s": fpLatency.Seconds(),
		},
	}, nil
}
