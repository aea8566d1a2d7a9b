package harness

import (
	"fmt"
	"time"

	"trust/internal/attack"
	"trust/internal/core"
	"trust/internal/fingerprint"
	"trust/internal/flock"
	"trust/internal/frame"
	"trust/internal/placement"
	"trust/internal/sim"
	"trust/internal/touch"
)

// XPlacement sweeps sensor count and size: coverage vs display-area
// fraction (Sec IV-A challenge 2).
func XPlacement(seed uint64) (Result, error) {
	screen := panelConfig().BoundsPX()
	rng := sim.NewRNG(seed ^ 0x91)
	density := touch.NewDensityGrid(screen, 24, 40)
	for _, u := range touch.ReferenceUsers() {
		s, err := touch.GenerateSession(u, screen, 2500, rng)
		if err != nil {
			return Result{}, err
		}
		density.AddSession(s)
	}
	var rows [][]string
	metrics := map[string]float64{}
	for _, size := range []float64{48, 72, 96} {
		curve, err := placement.CoverageCurve(density, placement.Options{SensorWPX: size, SensorHPX: size}, 8)
		if err != nil {
			return Result{}, err
		}
		for k := 1; k <= 8; k++ {
			areaFrac := float64(k) * size * size / screen.Area()
			rows = append(rows, []string{
				fmt.Sprintf("%.0f px (%.1f mm)", size, size/panelConfig().PXPerMM()),
				fmt.Sprintf("%d", k),
				fmt.Sprintf("%.1f%%", curve[k-1]*100),
				fmt.Sprintf("%.1f%%", areaFrac*100),
				fmt.Sprintf("%.1fx", curve[k-1]/areaFrac),
			})
		}
		metrics[fmt.Sprintf("coverage_size%.0f_k8", size)] = curve[7]
	}
	text := fmtTable([]string{"sensor size", "sensors", "touch coverage", "area fraction", "leverage"}, rows)
	return Result{
		Title:   "Sensor placement: coverage vs sensor count and size (X1)",
		Text:    text,
		Metrics: metrics,
	}, nil
}

// XWindow sweeps the k-of-n local policy: impostor detection latency
// vs owner false lockouts (Sec IV-A window mechanism).
func XWindow(seed uint64) (Result, error) {
	type policyPoint struct {
		policy core.LocalPolicy
		name   string
	}
	points := []policyPoint{
		{core.LocalPolicy{Window: 8, MinVerified: 1, MaxMismatches: 2, Grace: 8}, "aggressive (1-of-8, lock@2)"},
		{core.LocalPolicy{Window: 12, MinVerified: 2, MaxMismatches: 3, Grace: 12}, "default (2-of-12, lock@3)"},
		{core.LocalPolicy{Window: 20, MinVerified: 2, MaxMismatches: 4, Grace: 20}, "lenient (2-of-20, lock@4)"},
	}
	const trials = 10
	// Every (policy, trial) pair is independent — each builds its rigs
	// from trialSeed alone — so the 3x10 grid runs through the sweep
	// engine. Seeds are unchanged from the serial version, so the
	// artifact is byte-identical at any worker count.
	type windowTrial struct {
		detected     bool
		detTouches   float64
		locks, halts int
	}
	trialResults, err := sim.ParMap(len(points)*trials, func(idx int) (windowTrial, error) {
		pi, trial := idx/trials, idx%trials
		pp := points[pi]
		trialSeed := seed + uint64(pi*100+trial)
		// Theft run: impostor takes over at touch 60.
		ld, w, err := localDeviceRig(trialSeed, pp.policy)
		if err != nil {
			return windowTrial{}, err
		}
		u := w.Users["user1-right-thumb"]
		impostor := fingerprint.Synthesize(trialSeed+9999, fingerprint.Whorl)
		s, err := touch.GenerateSession(u.Model, w.Screen, 160, sim.NewRNG(trialSeed^0x11))
		if err != nil {
			return windowTrial{}, err
		}
		rep, err := core.RunLocalSession(ld, s, u.Finger, impostor, 60)
		if err != nil {
			return windowTrial{}, err
		}
		out := windowTrial{}
		if rep.DetectionTouches >= 0 {
			out.detected = true
			out.detTouches = float64(rep.DetectionTouches)
		}
		// Owner-only run: false responses.
		ld2, w2, err := localDeviceRig(trialSeed+50, pp.policy)
		if err != nil {
			return windowTrial{}, err
		}
		u2 := w2.Users["user1-right-thumb"]
		s2, err := touch.GenerateSession(u2.Model, w2.Screen, 160, sim.NewRNG(trialSeed^0x22))
		if err != nil {
			return windowTrial{}, err
		}
		rep2, err := core.RunLocalSession(ld2, s2, u2.Finger, nil, -1)
		if err != nil {
			return windowTrial{}, err
		}
		out.locks = rep2.LockEvents
		out.halts = rep2.HaltEvents
		return out, nil
	})
	if err != nil {
		return Result{}, err
	}
	var rows [][]string
	metrics := map[string]float64{}
	for pi, pp := range points {
		var detSum float64
		detected, ownerLocks, ownerHalts := 0, 0, 0
		for trial := 0; trial < trials; trial++ {
			tr := trialResults[pi*trials+trial]
			if tr.detected {
				detected++
				detSum += tr.detTouches
			}
			ownerLocks += tr.locks
			ownerHalts += tr.halts
		}
		meanDet := "-"
		if detected > 0 {
			meanDet = fmt.Sprintf("%.1f touches", detSum/float64(detected))
		}
		rows = append(rows, []string{
			pp.name,
			fmt.Sprintf("%d/%d", detected, trials),
			meanDet,
			fmt.Sprintf("%d", ownerLocks),
			fmt.Sprintf("%d", ownerHalts),
		})
		metrics[fmt.Sprintf("p%d_detected", pi)] = float64(detected)
		metrics[fmt.Sprintf("p%d_owner_locks", pi)] = float64(ownerLocks)
		if detected > 0 {
			metrics[fmt.Sprintf("p%d_mean_detection", pi)] = detSum / float64(detected)
		}
	}
	text := fmtTable([]string{"policy", "thefts detected", "mean detection latency", "owner false locks", "owner halts"}, rows)
	text += fmt.Sprintf("\n%d theft trials and %d owner-only trials per policy; 160 touches each, takeover at touch 60\n", trials, trials)
	return Result{
		Title:   "k-of-n window policy: detection latency vs false responses (X2)",
		Text:    text,
		Metrics: metrics,
	}, nil
}

// XAttacks runs the Sec IV-B attack suite.
func XAttacks(seed uint64) (Result, error) {
	results := attack.All(seed)
	var rows [][]string
	defended := 0
	for _, r := range results {
		status := "DEFENDED"
		if !r.Defended {
			status = "BREACHED"
		}
		if r.Err != nil {
			status = "ERROR: " + r.Err.Error()
		}
		if r.Defended {
			defended++
		}
		rows = append(rows, []string{r.Name, r.Description, status, r.Mechanism})
	}
	text := fmtTable([]string{"attack", "adversary capability", "outcome", "defence mechanism"}, rows)
	text += fmt.Sprintf("\n%d/%d attacks defended\n", defended, len(results))
	return Result{
		Title:   "Security analysis attack suite (X3, Sec IV-B)",
		Text:    text,
		Metrics: map[string]float64{"defended": float64(defended), "total": float64(len(results))},
	}, nil
}

// XEnergy compares opportunistic capture against always-on sensing
// over one hour of natural use (Sec III-A power claim).
//
// The hour is sharded into independent session segments, each played
// through its own rig with a per-shard derived RNG, and the energy
// meters are summed. Sensor energy is charged per touch and the
// always-on baseline is proportional to wall time, so the aggregate
// ratio measures the same duty-cycle saving as one long session while
// the shards run concurrently on the sweep engine.
func XEnergy(seed uint64) (Result, error) {
	const shards = 5
	const touchesPerShard = 500 // ~2,500 touches is one hour of use
	type energyShard struct {
		opp, alwaysOn sim.Joule
		touches       int
		dur           time.Duration
	}
	parts, err := sim.ParMap(shards, func(si int) (energyShard, error) {
		ld, w, err := localDeviceRig(seed, core.DefaultLocalPolicy())
		if err != nil {
			return energyShard{}, err
		}
		u := w.Users["user1-right-thumb"]
		s, err := touch.GenerateSession(u.Model, w.Screen, touchesPerShard, sim.TrialRNG(seed^0xe, si))
		if err != nil {
			return energyShard{}, err
		}
		if _, err := core.RunLocalSession(ld, s, u.Finger, nil, -1); err != nil {
			return energyShard{}, err
		}
		mod := ld.Module
		return energyShard{
			opp:      mod.Energy().Component("fingerprint-sensor"),
			alwaysOn: mod.IdleSensorEnergy(s.Duration()),
			touches:  mod.Stats().Touches,
			dur:      s.Duration(),
		}, nil
	})
	if err != nil {
		return Result{}, err
	}
	var total energyShard
	for _, p := range parts {
		total.opp += p.opp
		total.alwaysOn += p.alwaysOn
		total.touches += p.touches
		total.dur += p.dur
	}
	ratio := float64(total.alwaysOn) / float64(total.opp)
	rows := [][]string{
		{"session length", total.dur.Round(time.Second).String()},
		{"touches", fmt.Sprintf("%d", total.touches)},
		{"opportunistic sensor energy", total.opp.String()},
		{"always-on sensor energy", total.alwaysOn.String()},
		{"saving", fmt.Sprintf("%.0fx", ratio)},
	}
	text := fmtTable([]string{"metric", "value"}, rows)
	return Result{
		Title:   "Opportunistic capture vs always-on sensing (X4)",
		Text:    text,
		Metrics: map[string]float64{"ratio": ratio},
	}, nil
}

// XFrameAudit measures the offline audit cost: view-set sizes and
// per-entry verification across page heights (Sec IV-B feasibility).
func XFrameAudit(seed uint64) (Result, error) {
	var rows [][]string
	metrics := map[string]float64{}
	for _, height := range []float64{800, 1600, 3200, 6400} {
		p := &frame.Page{
			URL:      fmt.Sprintf("https://bank.example/h%d", int(height)),
			Title:    "page",
			Body:     "content",
			HeightPX: height,
		}
		views := frame.StandardViews(p, 800)
		set := frame.PossibleHashes(p, 800)
		// Build an honest log over every view and audit it.
		var log frame.AuditLog
		for _, v := range views {
			log.Append(frame.AuditEntry{Account: "a", PageURL: p.URL, Hash: frame.HashBytes(frame.Render(p, v))})
		}
		report := frame.Audit(&log, map[string]*frame.Page{p.URL: p}, 800)
		rows = append(rows, []string{
			fmt.Sprintf("%.0f px", height),
			fmt.Sprintf("%d", len(views)),
			fmt.Sprintf("%d", len(set)),
			fmt.Sprintf("%d", report.HashesComputed),
			fmt.Sprintf("%d/%d", report.Checked-report.Tampered, report.Checked),
		})
		metrics[fmt.Sprintf("views_h%d", int(height))] = float64(len(views))
	}
	text := fmtTable([]string{"page height", "standard views", "distinct hashes", "hashes computed", "entries verified"}, rows)
	text += "\nthe view set stays small and grows linearly with page height — offline audit is cheap\n"
	return Result{
		Title:   "Frame-hash audit cost over the finite view set (X5)",
		Text:    text,
		Metrics: metrics,
	}, nil
}

// XTransfer runs identity transfer between devices and identity reset
// at the server (Sec IV-B flows).
func XTransfer(seed uint64) (Result, error) {
	r, err := newStdRig(seed)
	if err != nil {
		return Result{}, err
	}
	if err := r.loginFlow("acct-x"); err != nil {
		return Result{}, err
	}

	var rows [][]string
	ok := func(step string, err error) {
		status := "ok"
		if err != nil {
			status = "FAILED: " + err.Error()
		}
		rows = append(rows, []string{step, status})
	}

	// Transfer: old device -> new device.
	newMod, err := flock.New(flock.DefaultConfig(r.world.Place), r.world.CA, "new-phone", seed+77)
	if err != nil {
		return Result{}, err
	}
	now, err := r.world.TouchButtonUntilVerified(r.dev, r.user, r.now)
	if err != nil {
		return Result{}, err
	}
	r.now = now
	blob, err := r.dev.Module.ExportIdentity(r.now, newMod.DeviceCert())
	ok("export identity (touch-authorized, encrypted to new device)", err)
	if err != nil {
		return Result{}, err
	}
	impErr := newMod.ImportIdentity(blob)
	ok("import identity on new device", impErr)
	transferOK := impErr == nil && newMod.Enrolled() && len(newMod.Domains()) == 1

	// A third device must NOT be able to import the same blob.
	thief, err := flock.New(flock.DefaultConfig(r.world.Place), r.world.CA, "thief-phone", seed+88)
	if err != nil {
		return Result{}, err
	}
	thiefErr := thief.ImportIdentity(blob)
	ok("thief device import attempt (must fail)", nil)
	rows[len(rows)-1][1] = boolCell(thiefErr != nil) + " (rejected)"

	// Reset at the server with the recovery password.
	resetErr := r.server.ResetIdentity(r.now, "acct-x", "recovery-pw")
	ok("identity reset at server (recovery password)", resetErr)
	_, stillBound := r.server.Account("acct-x")

	text := fmtTable([]string{"step", "outcome"}, rows)
	return Result{
		Title: "Identity transfer and reset (X6, Sec IV-B)",
		Text:  text,
		Metrics: map[string]float64{
			"transfer_ok":    boolMetric(transferOK),
			"thief_rejected": boolMetric(thiefErr != nil),
			"reset_ok":       boolMetric(resetErr == nil && !stillBound),
		},
	}, nil
}
