package harness

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"

	"trust/internal/core"
	"trust/internal/fingerprint"
	"trust/internal/flock"
	"trust/internal/frame"
	"trust/internal/geom"
	"trust/internal/sensor"
	"trust/internal/sim"
	"trust/internal/touch"
	"trust/internal/touchscreen"
)

// Fig1 exercises the capacitive touchscreen of the paper's Fig 1:
// localization accuracy over a tap grid and the 4 ms scan response.
func Fig1(seed uint64) (Result, error) {
	panel := touchscreen.New(panelConfig(), sim.NewRNG(seed))
	cfg := panel.Config()

	var errs []float64
	misses := 0
	for x := 40.0; x < float64(cfg.WidthPX); x += 50 {
		for y := 40.0; y < float64(cfg.HeightPX); y += 50 {
			pos := geom.Point{X: x, Y: y}
			res := panel.Sense([]touchscreen.Contact{{Pos: pos, Pressure: 0.8, RadiusMM: 4}})
			if len(res.Touches) == 0 {
				misses++
				continue
			}
			errs = append(errs, res.Touches[0].Pos.Dist(pos))
		}
	}
	sort.Float64s(errs)
	mean := 0.0
	for _, e := range errs {
		mean += e
	}
	mean /= float64(len(errs))
	p95 := errs[int(0.95*float64(len(errs)-1))]
	rows, cols := panel.Electrodes()

	text := fmtTable([]string{"metric", "value"}, [][]string{
		{"electrode matrix", fmt.Sprintf("%d rows x %d cols (%.1f mm pitch)", rows, cols, cfg.ElectrodePitchMM)},
		{"scan response", cfg.ScanTime.String()},
		{"taps probed", fmt.Sprintf("%d", len(errs)+misses)},
		{"missed taps", fmt.Sprintf("%d", misses)},
		{"mean localization error", fmt.Sprintf("%.1f px (%.2f mm)", mean, mean/cfg.PXPerMM())},
		{"p95 localization error", fmt.Sprintf("%.1f px (%.2f mm)", p95, p95/cfg.PXPerMM())},
	})
	return Result{
		Title: "Capacitive touchscreen sensing (Fig 1): localization and response",
		Text:  text,
		Metrics: map[string]float64{
			"scan_ms":     cfg.ScanTime.Seconds() * 1e3,
			"mean_err_px": mean,
			"p95_err_px":  p95,
			"missed_taps": float64(misses),
		},
	}, nil
}

// Fig2 images a synthetic finger through the TFT cell array of Fig 2
// and reports ridge/valley classification accuracy plus a sample patch.
func Fig2(seed uint64) (Result, error) {
	f := fingerprint.Synthesize(seed, fingerprint.Loop)
	arr, err := sensor.New(sensor.FLockConfig(), sim.NewRNG(seed))
	if err != nil {
		return Result{}, err
	}
	offset := geom.Point{X: 4, Y: 6}
	field := func(p geom.Point) float64 { return f.RidgeValue(p.Add(offset)) }
	res := arr.Scan(field, arr.FullRegion(), sensor.ScanOptions{})

	pitch := arr.Config().CellPitchUM / 1000
	correct, total := 0, 0
	for y := 0; y < res.Bits.H(); y++ {
		for x := 0; x < res.Bits.W(); x++ {
			p := geom.Point{X: (float64(x) + 0.5) * pitch, Y: (float64(y) + 0.5) * pitch}
			truth := f.RidgeValue(p.Add(offset))
			if math.Abs(truth) < 0.3 {
				continue
			}
			total++
			if (truth > 0) == res.Bits.Get(x, y) {
				correct++
			}
		}
	}
	acc := float64(correct) / float64(total)
	var sb strings.Builder
	sb.WriteString(fmtTable([]string{"metric", "value"}, [][]string{
		{"array", fmt.Sprintf("%dx%d cells @ %.0f um", arr.Config().Cols, arr.Config().Rows, arr.Config().CellPitchUM)},
		{"scan time", res.Elapsed.Round(10 * time.Microsecond).String()},
		{"ridge fraction", fmt.Sprintf("%.2f", res.Bits.RidgeFraction())},
		{"classification accuracy", fmt.Sprintf("%.1f%%", acc*100)},
	}))
	sb.WriteString("\nimaged patch (downsampled):\n")
	sb.WriteString(res.Bits.ASCII(4))
	return Result{
		Title: "TFT fingerprint sensor imaging (Fig 2)",
		Text:  sb.String(),
		Metrics: map[string]float64{
			"accuracy":       acc,
			"ridge_fraction": res.Bits.RidgeFraction(),
			"scan_ms":        res.Elapsed.Seconds() * 1e3,
		},
	}, nil
}

// Fig3 compares the optical baseline of Fig 3 against CMOS and TFT
// capacitive sensing.
func Fig3() (Result, error) {
	var rows [][]string
	metrics := map[string]float64{}
	for _, c := range sensor.CompareTechnologies() {
		rows = append(rows, []string{
			c.Technology,
			c.Response.Round(10 * time.Microsecond).String(),
			fmt.Sprintf("%.1f mm", c.ThicknessMM),
			boolCell(c.Transparent),
			boolCell(c.ScalesToArea),
			fmt.Sprintf("%.0fx", c.RelativeCost),
		})
	}
	techs := sensor.CompareTechnologies()
	metrics["optical_over_tft_response"] = float64(techs[0].Response) / float64(techs[2].Response)
	metrics["optical_over_tft_thickness"] = techs[0].ThicknessMM / techs[2].ThicknessMM
	text := fmtTable([]string{"technology", "response", "thickness", "transparent", "scales to display area", "relative cost"}, rows)
	return Result{
		Title:   "Fingerprint sensing technologies (Fig 3 context): optical vs capacitive vs TFT",
		Text:    text,
		Metrics: metrics,
	}, nil
}

// Fig4 ablates the readout architecture of Fig 4: serial vs parallel
// row addressing crossed with full vs selective column transfer, for a
// touch-sized window and a full-array scan.
func Fig4(seed uint64) (Result, error) {
	arr, err := sensor.New(sensor.FLockConfig(), sim.NewRNG(seed))
	if err != nil {
		return Result{}, err
	}
	field := func(geom.Point) float64 { return 0.5 }
	// A fingertip core covers ~2 mm of usable ridge detail around the
	// touch point; the controller addresses just that window, which is
	// what makes selective transfer pay off on an 8 mm patch.
	touchRegion := arr.RegionAround(geom.Point{X: 4, Y: 4}, 2.0)

	type combo struct {
		name string
		opts sensor.ScanOptions
	}
	combos := []combo{
		{"serial + full transfer (strawman)", sensor.ScanOptions{Addressing: sensor.SerialCell, Transfer: sensor.FullTransfer}},
		{"serial + selective", sensor.ScanOptions{Addressing: sensor.SerialCell, Transfer: sensor.SelectiveTransfer}},
		{"parallel + full transfer", sensor.ScanOptions{Addressing: sensor.ParallelRow, Transfer: sensor.FullTransfer}},
		{"parallel + selective (paper design)", sensor.ScanOptions{Addressing: sensor.ParallelRow, Transfer: sensor.SelectiveTransfer}},
	}
	var rows [][]string
	metrics := map[string]float64{}
	var strawman, design time.Duration
	for _, c := range combos {
		tr := arr.Scan(field, touchRegion, c.opts)
		fr := arr.Scan(field, arr.FullRegion(), c.opts)
		rows = append(rows, []string{
			c.name,
			tr.Elapsed.Round(time.Microsecond).String(),
			fmt.Sprintf("%d", tr.BitsMoved),
			fr.Elapsed.Round(time.Microsecond).String(),
			tr.Energy.String(),
		})
		if strings.HasPrefix(c.name, "serial + full") {
			strawman = tr.Elapsed
		}
		if strings.HasPrefix(c.name, "parallel + selective") {
			design = tr.Elapsed
		}
	}
	metrics["speedup_touch_window"] = float64(strawman) / float64(design)
	text := fmtTable([]string{"architecture", "touch-window scan", "bits moved", "full-array scan", "touch-window energy"}, rows)
	text += fmt.Sprintf("\npaper design speedup over strawman (touch window): %.1fx\n", metrics["speedup_touch_window"])
	return Result{
		Title:   "Readout architecture ablation (Fig 4): parallel addressing and selective transfer",
		Text:    text,
		Metrics: metrics,
	}, nil
}

// Fig5 measures the FLock module end to end: the latency decomposition
// of a verifying touch and the module energy breakdown over a session.
func Fig5(seed uint64) (Result, error) {
	ld, w, err := localDeviceRig(seed, core.DefaultLocalPolicy())
	if err != nil {
		return Result{}, err
	}
	u := w.Users["user1-right-thumb"]
	mod := ld.Module

	var verified *flock.TouchOutcome
	pos := w.Place.Sensors[0].Center()
	for i := 0; i < 60; i++ {
		ev := touch.Event{At: time.Duration(i) * 400 * time.Millisecond, Pos: pos, Pressure: 0.7, RadiusMM: 4.2, SpeedMMS: 1}
		out := mod.HandleTouch(ev, u.Finger)
		if out.Kind == flock.Matched {
			verified = &out
			break
		}
	}
	if verified == nil {
		return Result{}, fmt.Errorf("harness: no verifying touch for Fig5")
	}
	// Hash a real 480x800 RGBA framebuffer through the repeater — the
	// byte volume the hardware display repeater actually digests.
	page := &frame.Page{URL: "https://bank.example/home", Title: "home", Body: "balance", HeightPX: 800}
	fb := frame.EncodeDims(frame.FBWidth, frame.FBHeight,
		frame.RenderPixels(page, frame.View{Zoom: 1}, frame.FBWidth, frame.FBHeight))
	_, hashLat := mod.DisplayFrame(fb)

	var rows [][]string
	rows = append(rows,
		[]string{"touchscreen scan", verified.PanelScan.Round(time.Microsecond).String()},
		[]string{"sensor window scan", verified.SensorScan.Round(time.Microsecond).String()},
		[]string{"template match", verified.MatchTime.Round(time.Microsecond).String()},
		[]string{"total touch->verdict", verified.Total.Round(time.Microsecond).String()},
		[]string{fmt.Sprintf("frame hash (480x800 RGBA, %d KiB)", len(fb)/1024), hashLat.Round(time.Microsecond).String()},
	)
	text := "latency decomposition of one verifying touch:\n" +
		fmtTable([]string{"stage", "latency"}, rows) + "\nenergy breakdown:\n"
	var erows [][]string
	for _, ce := range mod.Energy().Breakdown() {
		erows = append(erows, []string{ce.Component, ce.Energy.String()})
	}
	text += fmtTable([]string{"component", "energy"}, erows)
	return Result{
		Title: "FLock module (Fig 5): end-to-end latency and energy",
		Text:  text,
		Metrics: map[string]float64{
			"total_ms": verified.Total.Seconds() * 1e3,
			"scan_ms":  verified.SensorScan.Seconds() * 1e3,
		},
	}, nil
}

// Fig6 runs the continuous/opportunistic authentication flow of Fig 6
// over a 1,000-touch natural session and reports the pipeline funnel.
//
// The session is sharded into independent segments, each on its own
// rig with a per-shard derived RNG. Funnel counters are per-touch and
// simply sum across shards; the k-of-n window resets at each shard
// boundary, which only matters for lock events — reported as "locked
// in any shard", the stricter reading. The risk-trace excerpt comes
// from shard 0.
func Fig6(seed uint64) (Result, error) {
	const shards = 4
	const touchesPerShard = 250
	reports, err := sim.ParMap(shards, func(si int) (core.SessionReport, error) {
		ld, w, err := localDeviceRig(seed, core.DefaultLocalPolicy())
		if err != nil {
			return core.SessionReport{}, err
		}
		u := w.Users["user1-right-thumb"]
		s, err := touch.GenerateSession(u.Model, w.Screen, touchesPerShard, sim.TrialRNG(seed^0xf16, si))
		if err != nil {
			return core.SessionReport{}, err
		}
		return core.RunLocalSession(ld, s, u.Finger, nil, -1)
	})
	if err != nil {
		return Result{}, err
	}
	report := reports[0]
	st := report.Stats
	st.RejectReasons = map[fingerprint.RejectReason]int{}
	for r, n := range report.Stats.RejectReasons {
		st.RejectReasons[r] = n
	}
	locked := report.Locked
	for _, rep := range reports[1:] {
		st.Touches += rep.Stats.Touches
		st.NotSensed += rep.Stats.NotSensed
		st.OutsideSensor += rep.Stats.OutsideSensor
		st.LowQuality += rep.Stats.LowQuality
		st.Matched += rep.Stats.Matched
		st.Mismatched += rep.Stats.Mismatched
		for r, n := range rep.Stats.RejectReasons {
			st.RejectReasons[r] += n
		}
		locked = locked || rep.Locked
	}
	frac := func(n int) string { return fmt.Sprintf("%d (%.1f%%)", n, 100*float64(n)/float64(st.Touches)) }
	var rows [][]string
	rows = append(rows,
		[]string{"touches", fmt.Sprintf("%d", st.Touches)},
		[]string{"not sensed by panel", frac(st.NotSensed)},
		[]string{"outside sensor areas (decision 1)", frac(st.OutsideSensor)},
		[]string{"discarded at quality gate (decision 2)", frac(st.LowQuality)},
		[]string{"matched (verified)", frac(st.Matched)},
		[]string{"mismatched", frac(st.Mismatched)},
	)
	text := fmtTable([]string{"pipeline stage", "touches"}, rows) + "\nquality reject reasons:\n"
	var rrows [][]string
	for r, n := range st.RejectReasons {
		rrows = append(rrows, []string{r.String(), fmt.Sprintf("%d", n)})
	}
	sort.Slice(rrows, func(i, j int) bool { return rrows[i][0] < rrows[j][0] })
	text += fmtTable([]string{"reason", "count"}, rrows)
	// Risk trace excerpt: first 12 points.
	text += "\nidentity-risk trace (first 12 touches):\n"
	var trows [][]string
	for i, p := range report.Trace {
		if i >= 12 {
			break
		}
		trows = append(trows, []string{
			fmt.Sprintf("%d", p.Touch), p.Outcome.String(),
			fmt.Sprintf("%.2f", p.Risk), p.Action.String(),
		})
	}
	text += fmtTable([]string{"touch", "outcome", "risk", "response"}, trows)
	definitive := st.Matched + st.Mismatched
	frr := 0.0
	if definitive > 0 {
		frr = float64(st.Mismatched) / float64(definitive)
	}
	return Result{
		Title: "Continuous and opportunistic authentication flow (Fig 6)",
		Text:  text,
		Metrics: map[string]float64{
			"capture_rate": st.CaptureRate(),
			"owner_frr":    frr,
			"outside_frac": float64(st.OutsideSensor) / float64(st.Touches),
			"lowq_frac":    float64(st.LowQuality) / float64(st.Touches),
			"locked":       boolMetric(locked),
		},
	}, nil
}

func boolMetric(v bool) float64 {
	if v {
		return 1
	}
	return 0
}

// Fig7 regenerates the three users' touch-density heatmaps and their
// pairwise overlap — the basis of the placement argument.
func Fig7(seed uint64) (Result, error) {
	screen := panelConfig().BoundsPX()
	users := touch.ReferenceUsers()
	rng := sim.NewRNG(seed ^ 0x7)
	grids := make([]*touch.DensityGrid, len(users))
	var sb strings.Builder
	for i, u := range users {
		grids[i] = touch.NewDensityGrid(screen, 24, 40)
		s, err := touch.GenerateSession(u, screen, 5000, rng)
		if err != nil {
			return Result{}, err
		}
		grids[i].AddSession(s)
		fmt.Fprintf(&sb, "%s (5000 touches):\n%s\n", u.Name, grids[i].ASCII())
	}
	metrics := map[string]float64{}
	sb.WriteString("pairwise Bhattacharyya overlap:\n")
	var rows [][]string
	for i := 0; i < len(grids); i++ {
		for j := i + 1; j < len(grids); j++ {
			ov, err := touch.Overlap(grids[i], grids[j])
			if err != nil {
				return Result{}, err
			}
			rows = append(rows, []string{users[i].Name, users[j].Name, fmt.Sprintf("%.3f", ov)})
			metrics[fmt.Sprintf("overlap_%d_%d", i+1, j+1)] = ov
		}
	}
	sb.WriteString(fmtTable([]string{"user A", "user B", "overlap"}, rows))
	return Result{
		Title:   "Distributions of touches from three users (Fig 7)",
		Text:    sb.String(),
		Metrics: metrics,
	}, nil
}

// Fig8 wires the full remote component set of Fig 8 — multiple devices
// and multiple servers under one CA — and checks every registration and
// login pairing.
func Fig8(seed uint64) (Result, error) {
	w, err := core.NewWorld(seed)
	if err != nil {
		return Result{}, err
	}
	domains := []string{"bank.example", "mail.example", "social.example"}
	for _, d := range domains {
		if _, err := w.AddServer(d); err != nil {
			return Result{}, err
		}
	}
	userNames := []string{"user1-right-thumb", "user2-two-thumbs", "user3-index-finger"}
	var rows [][]string
	success, total := 0, 0
	for i, un := range userNames {
		devName := fmt.Sprintf("phone-%d", i+1)
		for _, dom := range domains {
			// Each (user, server) pair gets its own device binding: the
			// device connects in-memory to that server.
			dev, err := w.AddDevice(fmt.Sprintf("%s@%s", devName, dom), un, dom)
			if err != nil {
				return Result{}, err
			}
			now, err := w.TouchButtonUntilVerified(dev, un, 0)
			if err != nil {
				return Result{}, err
			}
			acct := fmt.Sprintf("acct-%d-%s", i+1, dom)
			regErr := dev.Register(now, acct, "pw")
			var loginErr error
			if regErr == nil {
				now, err = w.TouchButtonUntilVerified(dev, un, now)
				if err != nil {
					return Result{}, err
				}
				loginErr = dev.Login(now, w.Servers[dom].Certificate(), acct)
			}
			total++
			ok := regErr == nil && loginErr == nil
			if ok {
				success++
			}
			rows = append(rows, []string{un, dom, boolCell(regErr == nil), boolCell(loginErr == nil)})
		}
	}
	text := fmtTable([]string{"user", "server", "registered", "logged in"}, rows)
	text += fmt.Sprintf("\n%d/%d (user, server) bindings established; one CA, %d servers, %d devices\n",
		success, total, len(domains), total)
	return Result{
		Title:   "Components for remote identity management (Fig 8): CA + servers + devices",
		Text:    text,
		Metrics: map[string]float64{"bindings_ok": float64(success), "bindings_total": float64(total)},
	}, nil
}
