package harness

import (
	"fmt"
	"io"
	"net"
	"time"

	"trust/internal/device"
	"trust/internal/fingerprint"
	"trust/internal/flock"
	"trust/internal/ftdc"
	"trust/internal/geom"
	"trust/internal/pki"
	"trust/internal/placement"
	"trust/internal/sim"
	"trust/internal/touch"
	"trust/internal/webserver"
)

// chaosModel is the chaos sweep's fault-model axis: which link a trial
// device browses over and which faults that link injects. Each model
// keeps its own grid, table columns and trial-seed stride, so its
// artifact stays stable.
type chaosModel struct {
	id, title string
	fault     string // the swept rate's name in metric keys
	header    []string
	rates     []float64
	budgets   []int
	stride    int // trial-seed step between consecutive sweep trials
	// stream selects mid-frame cuts and torn writes on a piped device
	// stream; otherwise requests and responses drop over InMemory.
	stream bool
}

var (
	dropChaos = chaosModel{
		id:      "x-chaos",
		title:   "Lossy-network chaos sweep: session survival vs retry budget (X14)",
		fault:   "drop",
		header:  []string{"drop rate", "retry budget", "server-acked", "degraded rounds", "retries/round", "mean recovery"},
		rates:   []float64{0, 0.15, 0.3, 0.45},
		budgets: []int{1, 2, 4, 8},
		stride:  131,
	}
	cutChaos = chaosModel{
		id:      "x-stream-chaos",
		title:   "Streamed-transport chaos sweep: mid-frame cuts vs retry budget (X14b)",
		fault:   "cut",
		header:  []string{"cut rate", "retry budget", "server-acked", "degraded rounds", "redials/round", "cuts", "tears", "mean recovery", "sessions lost"},
		rates:   []float64{0, 0.15, 0.3, 0.5},
		budgets: []int{2, 4, 8},
		stride:  151,
		stream:  true,
	}
)

// XChaos sweeps network drop rate against retry budget and reports how
// the continuous-auth session fares: the fraction of interactions the
// server actually acknowledged, how often the device fell back to its
// local degraded mode, and the virtual-time cost of recovering an
// interrupted round. Every trial is seeded independently, so the whole
// grid fans out through the sweep engine and the artifact is
// byte-identical at any worker count.
func XChaos(seed uint64) (Result, error) {
	res, _, err := chaosSweep(&dropChaos, seed, false)
	return res, err
}

// XChaosCapture runs the chaos sweep with per-trial FTDC telemetry
// capture: each trial samples the full server+device metric row after
// every browsing round, on its own virtual clock. The per-trial
// captures share one schema, so concatenating them in cell/trial index
// order yields a single valid capture — and because each trial is
// single-goroutine and independently seeded, the concatenation is
// byte-identical across runs and worker counts.
func XChaosCapture(seed uint64) (Result, []byte, error) {
	return chaosSweep(&dropChaos, seed, true)
}

// XStreamChaos is the streamed-transport counterpart of XChaos: it
// sweeps mid-frame cut rate against retry budget over a live device
// stream (hello/welcome, chained nonces, reconnect-and-resync) and
// reports interaction survival plus the cost of each recovery. Torn
// writes ride along at a fixed rate in every lossy cell — they are
// loss-free by construction, so they exercise frame reassembly without
// moving the metrics. The sweep's headline invariant is the last
// column: however hard the link is cut, a cleanly-healed link must
// always find the session intact — zero sessions lost, every
// enrollment still serving.
func XStreamChaos(seed uint64) (Result, error) {
	res, _, err := chaosSweep(&cutChaos, seed, false)
	return res, err
}

func chaosSweep(m *chaosModel, seed uint64, capture bool) (Result, []byte, error) {
	const (
		trials = 3
		rounds = 10
	)

	type cell struct {
		rate   float64
		budget int
	}
	var cells []cell
	for _, r := range m.rates {
		for _, b := range m.budgets {
			cells = append(cells, cell{r, b})
		}
	}

	outs, err := sim.ParMap(len(cells)*trials, func(idx int) (chaosTrialOut, error) {
		c, trial := cells[idx/trials], idx%trials
		trialSeed := seed + uint64(idx*m.stride+trial)
		return chaosTrial(m, trialSeed, c.rate, c.budget, rounds, capture)
	})
	if err != nil {
		return Result{}, nil, err
	}

	var rows [][]string
	metrics := map[string]float64{}
	for ci, c := range cells {
		var agg chaosTrialOut
		for _, o := range outs[ci*trials : (ci+1)*trials] {
			agg.acked += o.acked
			agg.degraded += o.degraded
			agg.extra += o.extra
			agg.recovery += o.recovery
			agg.recovered += o.recovered
			agg.cuts += o.cuts
			agg.tears += o.tears
			agg.lost += o.lost
		}
		total := trials * rounds
		ackedFrac := float64(agg.acked) / float64(total)
		meanRecovery := 0.0
		if agg.recovered > 0 {
			meanRecovery = float64(agg.recovery.Milliseconds()) / float64(agg.recovered)
		}
		row := []string{
			fmt.Sprintf("%.0f%%", c.rate*100),
			fmt.Sprintf("%d", c.budget),
			fmt.Sprintf("%.1f%%", ackedFrac*100),
			fmt.Sprintf("%.1f%%", float64(agg.degraded)/float64(total)*100),
			fmt.Sprintf("%.2f", float64(agg.extra)/float64(total)),
		}
		if m.stream {
			row = append(row, fmt.Sprintf("%d", agg.cuts), fmt.Sprintf("%d", agg.tears))
		}
		row = append(row, fmt.Sprintf("%.1f ms", meanRecovery))
		key := fmt.Sprintf("%s%.0f_budget%d", m.fault, c.rate*100, c.budget)
		metrics["acked_"+key] = ackedFrac
		if m.stream {
			row = append(row, fmt.Sprintf("%d", agg.lost))
			metrics["lost_"+key] = float64(agg.lost)
		}
		rows = append(rows, row)
	}
	var capt []byte
	if capture {
		for _, o := range outs {
			capt = append(capt, o.capture...)
		}
	}
	return Result{ID: m.id, Title: m.title, Text: fmtTable(m.header, rows), Metrics: metrics}, capt, nil
}

// chaosTrialOut is one trial's tallies.
type chaosTrialOut struct {
	acked, degraded int
	extra           int           // recovery work: deliveries beyond one per round, or redials
	recovery        time.Duration // backoff spent on recovered rounds
	recovered       int           // rounds that needed recovery work yet acked
	cuts, tears     int           // frame faults actually injected
	lost            int           // 1 if the session did not survive to a clean final browse (stream only)
	capture         []byte        // per-trial FTDC bytes (capture runs only)
}

// chaosTrial builds one device+server pair, establishes a session over
// a clean link, then runs the continuous-auth rounds over the model's
// link at the given fault rate and retry budget. A streamed trial ends
// with a healed-link browse that must find the session alive.
func chaosTrial(m *chaosModel, trialSeed uint64, rate float64, budget, rounds int, capture bool) (out chaosTrialOut, err error) {
	ca, err := pki.NewCA("trust-root", pki.NewDeterministicRand(trialSeed^0xc4a0))
	if err != nil {
		return out, err
	}
	srv, err := webserver.New("chaos.example", ca, trialSeed^0x5e7)
	if err != nil {
		return out, err
	}
	pl := placement.Placement{Sensors: []geom.Rect{geom.RectWH(180, 660, 120, 120)}}
	mod, err := flock.New(flock.DefaultConfig(pl), ca, "chaos-phone", trialSeed+5)
	if err != nil {
		return out, err
	}
	// Three shared finger seeds across all trials keep the synthesis
	// cost bounded without correlating the fault schedules.
	finger := fingerprint.Synthesize(9000+trialSeed%3, fingerprint.PatternType(trialSeed%3))
	if err := mod.Enroll(fingerprint.NewTemplate(finger)); err != nil {
		return out, err
	}

	// The link starts clean; lossy is armed on it after login.
	var (
		tr     device.Transport
		st     *device.Stream
		faults *device.FaultProfile
		stats  *device.FaultStats
		lossy  device.FaultProfile
	)
	faultRNG := sim.NewRNG(trialSeed ^ 0xfa01)
	if m.stream {
		dial := func() (io.ReadWriteCloser, error) {
			c1, c2 := net.Pipe()
			go func() { _ = srv.ServeStream(c2) }()
			return c1, nil
		}
		fd := device.NewFaultyDialer(dial, device.FaultProfile{}, faultRNG)
		st = &device.Stream{Dial: fd.Dial, Fallback: &device.InMemory{Server: srv}}
		tr, faults, stats = st, &fd.Profile, &fd.Stats
		lossy = device.FaultProfile{CutRate: rate, TearRate: 0.25 * min(1, rate*4)}
	} else {
		ft := device.NewFaultyTransport(&device.InMemory{Server: srv}, device.FaultProfile{}, faultRNG)
		tr, faults, stats = ft, &ft.Profile, &ft.Stats
		lossy = device.FaultProfile{DropRate: rate}
	}
	dev := device.New("chaos-phone", mod, tr)
	dev.SetRetryPolicy(device.RetryPolicy{
		MaxAttempts: budget,
		BaseDelay:   50 * time.Millisecond,
		MaxDelay:    800 * time.Millisecond,
		JitterFrac:  0.2,
	}, sim.NewRNG(trialSeed^0xfa02))

	now := time.Duration(0)
	verify := func() error {
		for a := 0; a < 40; a++ {
			ev := touch.Event{At: now, Pos: geom.Point{X: 240, Y: 720}, Pressure: 0.7, RadiusMM: 4.2, SpeedMMS: 1}
			if dev.Touch(ev, finger).Kind == flock.Matched {
				return nil
			}
			now += 400 * time.Millisecond
		}
		return fmt.Errorf("harness: chaos device never touch-verified")
	}

	// Session establishment runs over the clean link, and the stream's
	// fault injector never faults a connection's hello, so the sweep
	// measures an established session degrading, not login-under-fire
	// (XAttacks and the loadgen fault mode cover lossy logins).
	if err := verify(); err != nil {
		return out, err
	}
	if err := dev.Register(now, "chaos-acct", "recovery-pw"); err != nil {
		return out, err
	}
	if err := verify(); err != nil {
		return out, err
	}
	if err := dev.Login(now, srv.Certificate(), "chaos-acct"); err != nil {
		return out, err
	}
	if st != nil && !st.Streaming() {
		return out, fmt.Errorf("harness: stream chaos device not streaming after login")
	}

	// Telemetry capture: one sample of the combined server+device row
	// per browsing round, on the trial's own virtual clock. The schema
	// is identical across trials, which is what lets the sweep
	// concatenate per-trial captures into one artifact.
	var capt *ftdc.Capture
	var vals []int64
	if capture {
		capt = ftdc.NewCapture(ftdc.NewSchema(append(srv.MetricsSchema(), dev.MetricsSchema()...)))
	}
	sample := func(at time.Duration) {
		if capt == nil {
			return
		}
		vals = srv.AppendMetrics(vals[:0])
		vals = dev.AppendMetrics(vals)
		capt.Sample(int64(at), vals)
	}

	// work is the recovery effort spent before round r: redials on the
	// stream, deliveries beyond one per round on the message link.
	work := func(r int) int {
		if st != nil {
			return st.Stats().Redials
		}
		return stats.Calls - r
	}
	*faults = lossy
	for r := 0; r < rounds; r++ {
		if err := verify(); err != nil {
			return out, err
		}
		before := work(r)
		after, err := dev.BrowseResilient(now, fmt.Sprintf("page-%d", r%4))
		if err != nil {
			break
		}
		extra := work(r+1) - before
		out.extra += extra
		switch {
		case dev.Degraded():
			out.degraded++
		default:
			out.acked++
			if extra > 0 {
				out.recovered++
				out.recovery += after - now
			}
		}
		now = after
		sample(now)
	}
	out.cuts, out.tears = stats.Cuts, stats.Tears
	if capt != nil {
		out.capture = append([]byte(nil), capt.Bytes()...)
	}
	if st == nil {
		return out, nil
	}

	// Heal the link. Whatever the cuts did, the enrollment and session
	// must have survived server-side: one resilient browse over the
	// clean stream has to come back acked.
	*faults = device.FaultProfile{}
	if err := verify(); err != nil {
		return out, err
	}
	if _, err := dev.BrowseResilient(now, "home"); err != nil || dev.Degraded() {
		out.lost = 1
	}
	_ = st.Close()
	return out, nil
}
