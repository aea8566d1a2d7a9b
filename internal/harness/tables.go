package harness

import (
	"fmt"
	"time"

	"trust/internal/baseline"
	"trust/internal/sensor"
	"trust/internal/sim"
)

// Table1 quantifies the paper's Table I: the three mobile
// authentication approaches compared on user burden, login speed,
// transparency, and continuous verification.
func Table1(seed uint64) (Result, error) {
	coverage, loginLat, err := measureIntegrated(seed)
	if err != nil {
		return Result{}, err
	}
	rows := baseline.Compare(200, coverage, loginLat, seed)

	var table [][]string
	for _, r := range rows {
		table = append(table, []string{
			r.Scheme.String(),
			boolCell(r.ContinuousVerification),
			r.UserBurden,
			r.MeanLoginTime.Round(time.Millisecond).String(),
			boolCell(r.Transparent),
			fmt.Sprintf("%.0f%%", r.PostLoginCoverage*100),
			fmt.Sprintf("%.0f%%", r.GuessingSuccess*100),
		})
	}
	text := fmtTable(
		[]string{"approach", "continuous", "user burden", "login time", "transparent", "post-login coverage", "1k-guess takeover"},
		table,
	)
	return Result{
		Title: "Comparison of three mobile user authentication approaches (Table I, quantified)",
		Text:  text,
		Metrics: map[string]float64{
			"password_login_seconds":   rows[0].MeanLoginTime.Seconds(),
			"swipe_login_seconds":      rows[1].MeanLoginTime.Seconds(),
			"integrated_login_seconds": rows[2].MeanLoginTime.Seconds(),
			"integrated_coverage":      rows[2].PostLoginCoverage,
			"password_guessing":        rows[0].GuessingSuccess,
		},
	}, nil
}

func boolCell(v bool) string {
	if v {
		return "yes"
	}
	return "no"
}

// Table2 regenerates the paper's Table II: the five published
// fingerprint sensor designs with the response our readout model
// produces next to the published response.
func Table2() (Result, error) {
	var rows [][]string
	metrics := map[string]float64{}
	for _, cfg := range sensor.TableIIConfigs() {
		arr, err := sensor.New(cfg, sim.NewRNG(1))
		if err != nil {
			return Result{}, err
		}
		got := arr.ResponseFullScan()
		clock := "not mentioned (derived)"
		if cfg.ClockHz > 0 {
			clock = fmt.Sprintf("%.0f kHz", cfg.ClockHz/1e3)
		}
		rows = append(rows, []string{
			cfg.Name,
			cfg.Reference,
			fmt.Sprintf("%.1f um", cfg.CellPitchUM),
			fmt.Sprintf("%d x %d", cfg.Cols, cfg.Rows),
			cfg.PaperResponse.String(),
			got.Round(10 * time.Microsecond).String(),
			clock,
		})
		metrics[cfg.Name+"_ratio"] = float64(got) / float64(cfg.PaperResponse)
	}
	// Our design point for reference.
	fl, err := sensor.New(sensor.FLockConfig(), sim.NewRNG(1))
	if err != nil {
		return Result{}, err
	}
	flResp := fl.ResponseFullScan()
	rows = append(rows, []string{
		"flock-tft", "this work", "50.0 um", "160 x 160", "-",
		flResp.Round(10 * time.Microsecond).String(), "4000 kHz",
	})
	metrics["flock_response_ms"] = float64(flResp) / float64(time.Millisecond)
	text := fmtTable(
		[]string{"design", "reference", "cell", "resolution", "paper response", "simulated response", "clock"},
		rows,
	)
	return Result{
		Title:   "Performance of several fingerprint sensors (Table II, regenerated)",
		Text:    text,
		Metrics: metrics,
	}, nil
}
