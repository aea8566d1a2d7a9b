package main

import (
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"slices"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"trust/internal/sim"
	"trust/internal/store"
)

// config is one benchmark run.
type config struct {
	wl         *workload
	seed       uint64
	seconds    float64 // length of the measured window
	trace      bool    // measure per-layer metrics instead of end-to-end ones
	population int     // accounts in the recovered image
	setups     int     // set-ups timed for setup_s; the last one is measured
	// wrap, when non-nil, wraps the server's account backend (tests use
	// it to inject a store that loses a record).
	wrap func(store.AccountBackend) store.AccountBackend
}

const (
	// windows is the number of equal sub-windows the untraced window is
	// split into; ops_per_s is the median of their rates.
	windows = 6
	// traceSlices alternate untraced and traced in the traced run;
	// trace.overhead_share is the median over adjacent pairs, so the two
	// sides of each comparison run on the same fleet under the same drift.
	traceSlices = 20
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is a finished run.
type outcome struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// Timings are the untraced window's latency, rate and CPU figures.
	// They are reported but not gated (README.md, "Bounds").
	Timings map[string]metric `json:"-"`
	// Samples is the number of op latencies the percentiles rank, and
	// BeyondP99 how many of them lie above op_p99_us.
	Samples   int      `json:"-"`
	BeyondP99 int      `json:"-"`
	Problems  []string `json:"-"`
	Spans     []span   `json:"-"`
	// recoverAfterMs is how long reopening the WAL took after the window.
	recoverAfterMs float64
}

// worker drives one device in a closed loop: the next op starts only
// after the previous one returned.
type worker struct {
	d  *benchDevice
	op func(*benchDevice) error
	// lat and recs are allocated before the window they fill; running
	// out of room stops the worker and fails the run.
	lat  []int64
	recs []opRecord
	// done counts untraced ops, traced counts traced ones; the window
	// controller reads them while the worker runs.
	done     atomic.Int64
	traced   atomic.Int64
	failed   atomic.Int64
	err      error
	overflow bool
	nextID   int64 // id of the worker's latest traced op
}

func (w *worker) loop(stop, tracing *atomic.Bool, record bool, wg *sync.WaitGroup) {
	defer wg.Done()
	t := w.d.trace
	for !stop.Load() {
		on := tracing != nil && tracing.Load()
		if t != nil {
			if on {
				w.nextID++
			}
			t.begin(w.nextID, on)
		}
		t0 := nowNs()
		err := w.op(w.d)
		t1 := nowNs()
		if err != nil {
			w.failed.Add(1)
			w.err = err
			return
		}
		switch {
		case on:
			if len(w.recs) == cap(w.recs) {
				w.overflow = true
				return
			}
			w.recs = append(w.recs, t.end(t0, t1))
			w.traced.Add(1)
			continue
		case record:
			if len(w.lat) == cap(w.lat) {
				w.overflow = true
				return
			}
			w.lat = append(w.lat, t1-t0)
		}
		w.done.Add(1)
	}
}

// phase runs every worker until control returns.
func phase(ws []*worker, tracing *atomic.Bool, record bool, control func()) {
	var stop atomic.Bool
	var wg sync.WaitGroup
	for _, w := range ws {
		wg.Add(1)
		go w.loop(&stop, tracing, record, &wg)
	}
	control()
	stop.Store(true)
	wg.Wait()
}

func sum(ws []*worker, f func(*worker) int64) int64 {
	var n int64
	for _, w := range ws {
		n += f(w)
	}
	return n
}

func doneOps(w *worker) int64   { return w.done.Load() }
func tracedOps(w *worker) int64 { return w.traced.Load() }
func failedOps(w *worker) int64 { return w.failed.Load() }

func sleepUntil(t int64) {
	if d := t - nowNs(); d > 0 {
		sleep(time.Duration(d))
	}
}

func seconds(ns int64) float64 { return float64(ns) / 1e9 }

// run builds the population image, times the set-ups, warms up, and
// measures one window, end to end (cfg.trace false) or per layer.
func run(cfg config) (*outcome, error) {
	image, err := buildPopulation(cfg.seed, cfg.population)
	if err != nil {
		return nil, err
	}
	setups := cfg.setups
	if cfg.trace {
		setups = 1
	}
	var r *rig
	var setupNs []int64
	for i := 0; i < setups; i++ {
		if r != nil {
			r.close()
			r = nil // so the collection below frees it before the next set-up
		}
		fs := image.Crash()
		var tr *tracer
		if cfg.trace {
			tr = newTracer()
		}
		runtime.GC()
		t0 := nowNs()
		if r, err = newRig(cfg.wl, cfg.seed, fs, tr, cfg.wrap); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupNs = append(setupNs, nowNs()-t0)
	}
	defer r.close()

	base, err := r.counts()
	if err != nil {
		return nil, err
	}
	ws := make([]*worker, len(r.devs))
	for i, d := range r.devs {
		d.touches, d.matched = 0, 0
		ws[i] = &worker{d: d, op: cfg.wl.op}
	}

	// Warm-up: fills caches and lazy state, and its rate sizes the sample
	// buffers (2x headroom) so the window allocates nothing for the
	// benchmark's own bookkeeping.
	warm := time.Duration(math.Min(math.Max(cfg.seconds/5, 0.1), 5) * 1e9)
	phase(ws, nil, false, func() { sleep(warm) })
	for _, w := range ws {
		if w.err != nil {
			return finish(cfg, r, base, ws)
		}
	}
	for _, w := range ws {
		perSec := float64(w.done.Load()) / warm.Seconds()
		w.lat = make([]int64, 0, int(perSec*cfg.seconds*2)+1024)
	}

	if cfg.trace {
		return measureTraced(cfg, r, base, ws)
	}

	// The window is cut into equal sub-windows; rate, p50 and CPU per op
	// are computed per sub-window and reported as medians, so a burst of
	// outside interference moves at most one or two of them. p99 ranks
	// the whole window, so its tail rests on every sample.
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	mallocs0 := ms.Mallocs
	before := markEdge(ws) // workers idle, latency buffers empty
	var edges [windows + 1]edge
	window := int64(cfg.seconds * 1e9 / windows)
	phase(ws, nil, true, func() {
		edges[0] = markEdge(ws)
		for i := 1; i <= windows; i++ {
			sleepUntil(edges[0].t + int64(i)*window)
			edges[i] = markEdge(ws)
		}
	})
	runtime.ReadMemStats(&ms)
	ops := before.ops(markEdge(ws))

	var rates, p50s, cpus []float64
	for i := 0; i < windows; i++ {
		a, b := edges[i], edges[i+1]
		var lat []int64
		for j, w := range ws {
			lat = append(lat, w.lat[a.done[j]-before.done[j]:b.done[j]-before.done[j]]...)
		}
		slices.Sort(lat)
		n := float64(len(lat))
		rates = append(rates, n/seconds(b.t-a.t))
		p50s = append(p50s, float64(percentile(lat, 0.50))/1e3)
		cpus = append(cpus, float64(b.cpu-a.cpu)/1e3/n)
	}
	var all []int64
	for _, w := range ws {
		all = append(all, w.lat...)
	}
	slices.Sort(all)
	setupS := make([]float64, len(setupNs))
	for i, ns := range setupNs {
		setupS[i] = seconds(ns)
	}
	values := map[string]float64{
		"setup_s":       median(setupS),
		"allocs_per_op": float64(ms.Mallocs-mallocs0) / float64(ops),
	}
	timings := map[string]float64{
		"ops_per_s":     median(rates),
		"op_p50_us":     median(p50s),
		"op_p99_us":     float64(percentile(all, 0.99)) / 1e3,
		"cpu_us_per_op": median(cpus),
	}
	out, err := finish(cfg, r, base, ws)
	if err != nil {
		return nil, err
	}
	out.Metrics = emit(endToEndMetrics, values)
	out.Timings = emit(timingMetrics, timings)
	out.Samples = len(all)
	out.BeyondP99 = max(0, len(all)-1-rank(len(all), 0.99))
	out.Attempted = ops + out.Failed
	return out, nil
}

// edge is the state at a sub-window boundary: time, process CPU, and
// each worker's completed-op count (which is also the length of its
// latency buffer, since a sample is stored before the op is counted).
type edge struct {
	t, cpu int64
	done   [numDevices]int64
}

func markEdge(ws []*worker) edge {
	e := edge{t: nowNs(), cpu: cpuNs()}
	for i, w := range ws {
		e.done[i] = w.done.Load()
	}
	return e
}

// ops counts the ops completed between e and a later edge.
func (e edge) ops(later edge) int64 {
	var n int64
	for i := range e.done {
		n += later.done[i] - e.done[i]
	}
	return n
}

// measureTraced runs the traced pass: untraced and traced slices
// alternate on the warmed fleet, every traced op records its spans, and
// the per-layer metrics are computed from the traced ops.
func measureTraced(cfg config, r *rig, base serverCounts, ws []*worker) (*outcome, error) {
	reserve := 1024
	for _, w := range ws {
		n := cap(w.lat) / 2 // the traced half of the window, with the same 2x headroom
		w.lat = nil
		w.recs = make([]opRecord, 0, n)
		reserve += n
		w.d.trace.touchNs.reserve(n)
		w.d.trace.appendNs.reserve(n)
		w.d.trace.reset()
	}
	r.tr.spans.reserve(reserve / spanSampleEvery * 8)

	var tracing atomic.Bool
	var ratios []float64 // traced rate / untraced rate, per pair of adjacent slices
	var untracedRates []float64
	var peak uint64
	heap := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	// Which slice of a pair is traced is drawn per pair, so a periodic
	// cost such as GC cycles cannot line up with the traced half.
	order := sim.NewRNG(cfg.seed ^ 0x7ace)
	live0 := liveHeap()
	rt0 := readRuntime()
	u0, t0 := sum(ws, doneOps), sum(ws, tracedOps)
	slice := int64(cfg.seconds * 1e9 / traceSlices)
	phase(ws, &tracing, false, func() {
		start := nowNs()
		var untraced, traced float64 // rates of the current pair's slices
		for i := int64(0); i < traceSlices; i++ {
			on := !tracing.Load() // the second slice of a pair is the other kind
			if i%2 == 0 {
				on = order.Bool(0.5)
			}
			count := doneOps
			if on {
				count = tracedOps
			}
			tracing.Store(on)
			n0, s0 := sum(ws, count), nowNs()
			end := start + (i+1)*slice
			for nowNs() < end {
				sleepUntil(min(end, nowNs()+int64(50*time.Millisecond)))
				metrics.Read(heap)
				peak = max(peak, heap[0].Value.Uint64())
			}
			rate := float64(sum(ws, count)-n0) / seconds(nowNs()-s0)
			if on {
				traced = rate
			} else {
				untraced = rate
				untracedRates = append(untracedRates, rate)
			}
			if i%2 == 1 {
				ratios = append(ratios, ratio(traced, untraced))
			}
		}
	})
	rt1 := readRuntime()
	passOps := float64(sum(ws, doneOps) - u0 + sum(ws, tracedOps) - t0)
	live1 := liveHeap()

	out, err := finish(cfg, r, base, ws)
	if err != nil {
		return nil, err
	}
	values, err := layerValues(r, ws)
	if err != nil {
		return nil, err
	}
	values["op.ops_per_s"] = median(untracedRates)
	values["store.recover_after_ms"] = out.recoverAfterMs
	values["runtime.gc_cpu_share"] = delta(rt0, rt1, 0) / delta(rt0, rt1, 1)
	values["runtime.gc_cycles_per_kop"] = delta(rt0, rt1, 2) / passOps * 1000
	values["runtime.sched_wait_p99_us"] = histPercentile(rt0[3].Value.Float64Histogram(), rt1[3].Value.Float64Histogram(), 0.99) * 1e6
	values["runtime.heap_peak_mb"] = float64(peak) / 1e6
	values["runtime.retained_b_per_op"] = (float64(live1) - float64(live0)) / passOps
	values["trace.overhead_share"] = 1 - median(ratios)
	out.Metrics = emit(perLayerMetrics, values)
	out.Attempted = int64(passOps) + out.Failed
	for _, t := range r.tr.devices {
		if t.touchNs.overflow+t.appendNs.overflow > 0 {
			return nil, fmt.Errorf("device %d trace buffers overflowed", t.idx)
		}
	}
	if r.tr.spans.overflow > 0 {
		return nil, fmt.Errorf("span buffer overflowed by %d spans", r.tr.spans.overflow)
	}
	out.Spans = r.tr.spans.v
	return out, nil
}

// layerValues computes the per-layer metrics of the traced ops. Self
// time is a span minus its child spans, so the five self times of an op
// add up to its span exactly.
func layerValues(r *rig, ws []*worker) (map[string]float64, error) {
	var recs []opRecord
	for _, w := range ws {
		recs = append(recs, w.recs...)
	}
	var sumOp, sumFlock, sumDevice, sumTransport, sumWeb, sumStore float64
	opNs := make([]int64, len(recs))
	devSelf := make([]int64, len(recs))
	rtt := make([]int64, len(recs))
	transSelf := make([]int64, len(recs))
	service := make([]int64, len(recs))
	for i, rec := range recs {
		s := selfTimes(rec)
		sumOp += float64(rec.op)
		sumFlock += float64(s[layerFlock])
		sumDevice += float64(s[layerOp])
		sumTransport += float64(s[layerTransport])
		sumWeb += float64(s[layerWebserver])
		sumStore += float64(s[layerStore])
		opNs[i], devSelf[i], rtt[i], transSelf[i], service[i] = rec.op, s[layerOp], rec.transport, s[layerTransport], rec.webserver
	}
	for _, v := range [][]int64{opNs, devSelf, rtt, transSelf, service} {
		slices.Sort(v)
	}
	var touchNs, appendNs []int64
	var touches, matched int
	var bytes, dials int64
	for _, t := range r.tr.devices {
		touchNs = append(touchNs, t.touchNs.v...)
		appendNs = append(appendNs, t.appendNs.v...)
		touches += t.touches
		matched += t.matched
		bytes += t.bytes.Load()
		dials += t.dials.Load()
	}
	slices.Sort(touchNs)
	slices.Sort(appendNs)
	var retries, fallbacks int64
	for _, d := range r.devs {
		v, err := deviceCounters(d, "dev_retries", "dev_resume_fallbacks")
		if err != nil {
			return nil, err
		}
		retries += v[0]
		fallbacks += v[1]
	}
	c, err := r.counts()
	if err != nil {
		return nil, err
	}
	accounts, err := r.accountsLive()
	if err != nil {
		return nil, err
	}
	share := func(x float64) float64 { return ratio(x, sumOp) }
	us := func(ns int64) float64 { return float64(ns) / 1e3 }
	return map[string]float64{
		"op.us_p50":                 us(percentile(opNs, 0.50)),
		"op.us_p99":                 us(percentile(opNs, 0.99)),
		"flock.touch_us_p50":        us(percentile(touchNs, 0.50)),
		"flock.touch_us_p99":        us(percentile(touchNs, 0.99)),
		"flock.self_share":          share(sumFlock),
		"flock.touches":             float64(touches),
		"flock.match_ratio":         ratio(float64(matched), float64(touches)),
		"device.self_us_p50":        us(percentile(devSelf, 0.50)),
		"device.self_share":         share(sumDevice),
		"device.retries":            float64(retries),
		"device.resume_fallbacks":   float64(fallbacks),
		"transport.rtt_us_p50":      us(percentile(rtt, 0.50)),
		"transport.rtt_us_p99":      us(percentile(rtt, 0.99)),
		"transport.self_us_p50":     us(percentile(transSelf, 0.50)),
		"transport.self_share":      share(sumTransport),
		"transport.bytes_per_op":    ratio(float64(bytes), float64(len(recs))),
		"transport.dials":           float64(dials),
		"webserver.service_us_p50":  us(percentile(service, 0.50)),
		"webserver.service_us_p99":  us(percentile(service, 0.99)),
		"webserver.self_share":      share(sumWeb),
		"webserver.accepted":        float64(c.accepted),
		"webserver.rejected":        float64(c.rejected),
		"webserver.logins_full":     float64(c.loginsFull),
		"webserver.logins_resume":   float64(c.loginsResume),
		"webserver.nonce_evictions": float64(c.nonceEvictions),
		"webserver.sessions_live":   float64(r.srv.SessionCount()),
		"webserver.accounts_live":   float64(accounts),
		"store.append_us_p50":       us(percentile(appendNs, 0.50)),
		"store.append_us_max":       us(percentile(appendNs, 1)),
		"store.appends":             float64(len(appendNs)),
		"store.snapshots":           float64(r.wal.Stats().Snapshots),
		"store.self_share":          share(sumStore),
		"store.recover_ms":          float64(r.recoverNs) / 1e6,
	}, nil
}

// selfTimes splits a traced op into each layer's self time, indexed by
// layer; the op layer's entry is the device's share (the op span minus
// the tap and the transport spans).
func selfTimes(rec opRecord) [numLayers]int64 {
	var s [numLayers]int64
	s[layerOp] = rec.op - rec.flock - rec.transport
	s[layerFlock] = rec.flock
	s[layerTransport] = rec.transport - rec.webserver
	s[layerWebserver] = rec.webserver - rec.store
	s[layerStore] = rec.store
	return s
}

// finish runs the checks every workload shares, plus the workload's
// own, and reopens the WAL to check recovery.
func finish(cfg config, r *rig, base serverCounts, ws []*worker) (*outcome, error) {
	out := &outcome{}
	out.Failed = sum(ws, failedOps)
	for _, w := range ws {
		if w.overflow {
			return nil, fmt.Errorf("device %d: sample buffer full; the window ran more than twice the warm-up rate", w.d.idx)
		}
		if w.err != nil {
			out.Problems = append(out.Problems, fmt.Sprintf("device %d: op failed: %v", w.d.idx, w.err))
		}
	}
	c, err := r.counts()
	if err != nil {
		return nil, err
	}
	if c.rejected != base.rejected {
		out.Problems = append(out.Problems, fmt.Sprintf("server rejected %d requests", c.rejected-base.rejected))
	}
	if cfg.wl.check != nil && out.Failed == 0 {
		if err := cfg.wl.check(r, base); err != nil {
			out.Problems = append(out.Problems, err.Error())
		}
	}
	acked := 0
	for _, d := range r.devs {
		acked += d.acked
	}
	t0 := nowNs()
	wal, err := store.OpenWAL(r.fs.Crash(), store.WALOptions{})
	if err != nil {
		out.Problems = append(out.Problems, fmt.Sprintf("reopening the WAL: %v", err))
	} else {
		out.recoverAfterMs = float64(nowNs()-t0) / 1e6
		if live, want := wal.Stats().Live, cfg.population+numDevices+acked; live != want {
			out.Problems = append(out.Problems, fmt.Sprintf("reopened WAL holds %d accounts, want %d (population %d + %d devices + %d acknowledged enrollments)", live, want, cfg.population, numDevices, acked))
		}
		wal.Close()
	}
	out.Correct = len(out.Problems) == 0
	return out, nil
}

// rank is the index of the exact nearest-rank p-percentile among n
// sorted samples, the rule loadgen.Run uses: p*(n-1), rounded down.
func rank(n int, p float64) int { return int(p * float64(n-1)) }

func percentile(sorted []int64, p float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rank(len(sorted), p)]
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := slices.Clone(v)
	slices.Sort(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// liveHeap forces a full collection and returns the bytes still live.
func liveHeap() uint64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// cpuNs is the process's user plus system CPU time.
func cpuNs() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// runtimeSamples are the runtime/metrics the traced pass diffs.
var runtimeSamples = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/gc/cycles/total:gc-cycles",
	"/sched/latencies:seconds",
}

func readRuntime() []metrics.Sample {
	s := make([]metrics.Sample, len(runtimeSamples))
	for i, name := range runtimeSamples {
		s[i].Name = name
	}
	metrics.Read(s)
	return s
}

// delta is the growth of scalar runtime metric i between two reads.
func delta(a, b []metrics.Sample, i int) float64 {
	return value(b[i]) - value(a[i])
}

func value(s metrics.Sample) float64 {
	if s.Value.Kind() == metrics.KindUint64 {
		return float64(s.Value.Uint64())
	}
	return s.Value.Float64()
}

// histPercentile is the p-quantile of the observations a runtime
// histogram gained between reads a and b, interpolated linearly inside
// the bucket it falls in.
func histPercentile(a, b *metrics.Float64Histogram, p float64) float64 {
	var total uint64
	counts := make([]uint64, len(b.Counts))
	for i := range counts {
		counts[i] = b.Counts[i] - a.Counts[i]
		total += counts[i]
	}
	if total == 0 {
		return 0
	}
	target := p * float64(total)
	var cum float64
	for i, c := range counts {
		if c == 0 || cum+float64(c) < target {
			cum += float64(c)
			continue
		}
		lo, hi := b.Buckets[i], b.Buckets[i+1]
		if math.IsInf(lo, -1) {
			lo = 0
		}
		if math.IsInf(hi, 1) {
			return lo
		}
		return lo + (hi-lo)*(target-cum)/float64(c)
	}
	return b.Buckets[len(b.Buckets)-1]
}
