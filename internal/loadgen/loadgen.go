// Package loadgen drives fleets of simulated TRUST devices against one
// webserver to measure remote-auth throughput (the ROADMAP's
// "heavy traffic from millions of users" scaling story). Virtual time
// stays deterministic — each device's clock is frozen after its touch
// verification and rides the protocol's `now` parameter — while the
// wall-clock measurement itself comes from testing.Benchmark, the same
// instrument the repo's benchmarks use. Results feed cmd/trustload and
// benchtab's BENCH_server.json report.
package loadgen

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"trust/internal/device"
	"trust/internal/fingerprint"
	"trust/internal/ftdc"
	"trust/internal/pki"
	"trust/internal/sim"
	"trust/internal/store"
	"trust/internal/testbed"
	"trust/internal/webserver"
)

// Transport selects how device traffic reaches the server.
type Transport int

const (
	// Direct calls the handlers in-process: pure server-path cost, no
	// network or codec overhead.
	Direct Transport = iota
	// HTTPJSON drives a live httptest.Server with the JSON codec.
	HTTPJSON
	// HTTPBinary drives a live httptest.Server with the compact binary
	// codec.
	HTTPBinary
	// Stream drives the multiplexed framed transport over a live TCP
	// loopback listener — one long-lived connection per device — with
	// HTTP-binary as the pre-session/downgrade fallback. Same sockets as
	// the HTTP scenarios, minus the per-request tax.
	Stream
)

func (t Transport) String() string {
	switch t {
	case Direct:
		return "direct"
	case HTTPJSON:
		return "http-json"
	case HTTPBinary:
		return "http-binary"
	case Stream:
		return "stream"
	}
	return fmt.Sprintf("transport(%d)", int(t))
}

// Mode selects the operation each device repeats.
type Mode int

const (
	// PageRequest repeats the continuous-auth page request — the
	// steady-state hot path (one round trip per page view).
	PageRequest Mode = iota
	// Login repeats the full Fig 10 login: nonce issue/consume, KEM
	// decapsulation, session establishment.
	Login
	// Resume repeats the resume-first login: each op presents the ticket
	// cached by the previous login (the build phase primes the first)
	// and re-establishes a session with symmetric crypto only. Under
	// faults a burnt ticket falls back to the cold path, which re-primes
	// the cache for the next op.
	Resume
	// Churn mixes the two login paths 1:7 — every eighth op per device
	// is a cold full login, the rest resume — modeling a fleet where
	// most reconnects land inside the ticket's epoch window.
	Churn
	// Enroll repeats the full Fig 9 registration, each op claiming a
	// fresh unique account id — the write path the durable backend sits
	// on. Against the WAL backend every acknowledged op paid one
	// synced append.
	Enroll
)

func (m Mode) String() string {
	switch m {
	case PageRequest:
		return "page-request"
	case Login:
		return "login"
	case Resume:
		return "login-resume"
	case Churn:
		return "login-churn"
	case Enroll:
		return "enroll"
	}
	return fmt.Sprintf("mode(%d)", int(m))
}

// Backend selects the account store behind the measured server.
type Backend int

const (
	// MemoryBackend is the historical in-memory store (no durability).
	MemoryBackend Backend = iota
	// WALBackend persists every account mutation through a
	// store.WAL over an in-memory filesystem: the full append+sync
	// code path with none of the host disk's noise.
	WALBackend
)

// Config describes one load scenario.
type Config struct {
	// Devices is the number of concurrently driving simulated devices
	// (one goroutine each, one session/account each).
	Devices   int
	Transport Transport
	Mode      Mode
	// Seed parameterizes the deterministic fleet construction.
	Seed uint64
	// Faults, when non-zero, injects deterministic network faults into
	// the measured traffic (registration and session establishment stay
	// clean): its message-level rates on every transport, its
	// frame-level ones (mid-frame cuts, torn writes) on the Stream
	// transport. Lossy scenarios need RetryAttempts > 0 or ops fail.
	Faults device.FaultProfile
	// RetryAttempts arms the devices' resilient flows with this total
	// attempt budget; 0 leaves the historical fail-fast behavior.
	RetryAttempts int
	// Batch, when > 1 on the Stream transport with Mode PageRequest,
	// makes each op a pipelined BrowseBatch of this many actions in one
	// frame (Result says which figures count requests and which count
	// round trips).
	Batch int
	// Backend selects the account store (MemoryBackend default); the
	// WAL backend prices durable enrollment on the measured path.
	Backend Backend
	// FTDCEvery, when > 0, samples the server's full telemetry row into
	// an FTDC capture every FTDCEvery measured ops (Result.Capture).
	// The sample axis is the shared op counter, so a capture is
	// comparable across transports; unlike the chaos sweep's captures
	// it is best-effort, not byte-stable — concurrent workers race the
	// counters between sample points.
	FTDCEvery int
}

// Name is the scenario's identifier in reports.
func (c Config) Name() string {
	mode := c.Mode.String()
	if c.Backend == WALBackend {
		mode += "-wal"
	}
	if c.Batch > 1 {
		mode = fmt.Sprintf("%s-batch%d", mode, c.Batch)
	}
	name := fmt.Sprintf("%s_%s_%d", mode, c.Transport, c.Devices)
	if c.Faults.DropRate > 0 {
		name += fmt.Sprintf("_drop%.0fr%d", c.Faults.DropRate*100, c.RetryAttempts)
	}
	if c.Faults.CutRate > 0 {
		name += fmt.Sprintf("_cut%.0fr%d", c.Faults.CutRate*100, c.RetryAttempts)
	}
	return name
}

// Result is one measured scenario. In a batch scenario (Config.Batch
// > 1) one measured op is a round trip carrying Batch page requests:
// Ops, NsPerOp, OpsPerSec, AllocsPerOp and BytesPerOp then count
// requests, so they compare with the one-request rows, while P50Ns and
// P99Ns stay the latency of one whole batch round trip — a percentile
// of measured latencies, which a quotient of one would not be.
type Result struct {
	Name        string  `json:"name"`
	Devices     int     `json:"devices"`
	Ops         int     `json:"ops"`
	NsPerOp     int64   `json:"ns_per_op"`
	OpsPerSec   float64 `json:"ops_per_sec"`
	P50Ns       int64   `json:"p50_ns"`
	P99Ns       int64   `json:"p99_ns"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	// Capture holds the scenario's FTDC telemetry bytes when
	// Config.FTDCEvery was set (excluded from JSON reports; trustload
	// writes it to its own file).
	Capture []byte `json:"-"`
}

// loadDevice is one simulated device with its frozen virtual clock.
type loadDevice struct {
	dev *device.Device
	now time.Duration
	// ft is the device's fault injector, present only in -faults
	// scenarios; its profile is armed after the clean build phase.
	ft *device.FaultyTransport
	// fd is the device's stream-framing fault injector (Stream
	// transport only); armed after the clean build phase like ft.
	fd *device.FaultyDialer
	// ops counts this device's own operations (single driving goroutine,
	// no locking) so Churn's cold/resume split stays deterministic per
	// device regardless of how the shared iteration counter lands.
	ops int
}

// fleet is a fully constructed scenario ready to measure.
type fleet struct {
	cfg     Config
	server  *webserver.Server
	cert    *pki.Certificate
	ts      *httptest.Server
	ln      net.Listener
	devices []*loadDevice
}

func (fl *fleet) close() {
	if fl.ts != nil {
		fl.ts.Close()
	}
	if fl.ln != nil {
		fl.ln.Close()
	}
	if fl.server != nil {
		fl.server.Close()
	}
}

// build constructs the server and device fleet serially (the CA's
// entropy stream and certificate serials are sequential); only the
// measured traffic runs concurrently.
func build(cfg Config) (*fleet, error) {
	if cfg.Devices < 1 {
		return nil, fmt.Errorf("loadgen: %d devices", cfg.Devices)
	}
	ca, err := pki.NewCA("trust-root", pki.NewDeterministicRand(cfg.Seed^0x10ad))
	if err != nil {
		return nil, err
	}
	backend := store.AccountBackend(store.Memory{})
	if cfg.Backend == WALBackend {
		wal, err := store.OpenWAL(store.NewMemFS(), store.WALOptions{})
		if err != nil {
			return nil, err
		}
		backend = wal
	}
	srv, err := webserver.NewDurable("load.example", ca, cfg.Seed^0x5e7, backend)
	if err != nil {
		return nil, err
	}
	fl := &fleet{cfg: cfg, server: srv, cert: srv.Certificate()}

	var mkTransport func(i int, ld *loadDevice) device.Transport
	switch cfg.Transport {
	case Direct:
		mkTransport = func(int, *loadDevice) device.Transport { return &device.InMemory{Server: srv} }
	case HTTPJSON, HTTPBinary:
		fl.ts = httptest.NewServer(srv.Handler())
		client := &http.Client{Transport: &http.Transport{
			MaxIdleConns:        cfg.Devices * 2,
			MaxIdleConnsPerHost: cfg.Devices * 2,
		}}
		mkTransport = func(int, *loadDevice) device.Transport {
			return &device.HTTP{BaseURL: fl.ts.URL, Client: client, Binary: cfg.Transport == HTTPBinary}
		}
	case Stream:
		fl.ts = httptest.NewServer(srv.Handler())
		client := &http.Client{Transport: &http.Transport{
			MaxIdleConns:        cfg.Devices * 2,
			MaxIdleConnsPerHost: cfg.Devices * 2,
		}}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			fl.close()
			return nil, fmt.Errorf("loadgen: stream listener: %w", err)
		}
		fl.ln = ln
		go srv.ServeStreamListener(ln)
		addr := ln.Addr().String()
		mkTransport = func(i int, ld *loadDevice) device.Transport {
			dial := func() (io.ReadWriteCloser, error) { return net.Dial("tcp", addr) }
			if fp := cfg.Faults; fp.CutRate > 0 || fp.TearRate > 0 {
				// Build clean; the profile is armed after login with ft's.
				ld.fd = device.NewFaultyDialer(dial, device.FaultProfile{}, sim.NewRNG(cfg.Seed^0xfa02+uint64(i)*41))
				dial = ld.fd.Dial
			}
			return &device.Stream{
				Dial:     dial,
				Fallback: &device.HTTP{BaseURL: fl.ts.URL, Client: client, Binary: true},
			}
		}
	default:
		return nil, fmt.Errorf("loadgen: unknown transport %v", cfg.Transport)
	}

	for i := 0; i < cfg.Devices; i++ {
		f := fingerprint.Synthesize(cfg.Seed+9000+uint64(i)*13, fingerprint.PatternType(i%3))
		mod, err := testbed.Module(ca, fmt.Sprintf("load-dev-%d", i), cfg.Seed+100+uint64(i), f)
		if err != nil {
			fl.close()
			return nil, err
		}
		fp := cfg.Faults
		faulty := fp.DropRate > 0 || fp.DuplicateRate > 0 || fp.CorruptRate > 0 || (cfg.RetryAttempts > 0 && cfg.Transport != Stream)
		ld := &loadDevice{}
		tr := mkTransport(i, ld)
		if faulty {
			// Build-phase traffic runs through the wrapper with a clean
			// profile; the real profile is armed after login.
			ld.ft = device.NewFaultyTransport(tr, device.FaultProfile{}, sim.NewRNG(cfg.Seed^0xfa0+uint64(i)*31))
			tr = ld.ft
		}
		ld.dev = device.New(fmt.Sprintf("load-dev-%d", i), mod, tr)
		if cfg.RetryAttempts > 0 {
			ld.dev.SetRetryPolicy(device.RetryPolicy{
				MaxAttempts: cfg.RetryAttempts,
				BaseDelay:   50 * time.Millisecond,
				MaxDelay:    800 * time.Millisecond,
				JitterFrac:  0.2,
			}, sim.NewRNG(cfg.Seed^0xfa1+uint64(i)*37))
		}
		if ld.now, err = testbed.TapUntilVerified(mod, f, ld.now); err != nil {
			fl.close()
			return nil, fmt.Errorf("loadgen: device %d: %w", i, err)
		}
		// Enroll mode registers a fresh account per measured op; the
		// other modes bind the device's own account up front, and every
		// mode except the pure cold-login one also needs an established
		// session (PageRequest) or a primed ticket cache (Resume, Churn).
		if cfg.Mode != Enroll {
			if err := ld.dev.Register(ld.now, account(i), "recovery-pw"); err != nil {
				fl.close()
				return nil, fmt.Errorf("loadgen: device %d register: %w", i, err)
			}
			if cfg.Mode != Login {
				if err := ld.dev.Login(ld.now, fl.cert, account(i)); err != nil {
					fl.close()
					return nil, fmt.Errorf("loadgen: device %d login: %w", i, err)
				}
			}
		}
		fl.devices = append(fl.devices, ld)
	}
	// The build phase ran clean; arm the fault schedule for the
	// measured traffic.
	for _, ld := range fl.devices {
		if ld.ft != nil {
			ld.ft.Profile = cfg.Faults
		}
		if ld.fd != nil {
			ld.fd.Profile = cfg.Faults
		}
	}
	return fl, nil
}

func account(i int) string { return fmt.Sprintf("load-acct-%d", i) }

// op runs one operation on device i. Each device is driven by exactly
// one goroutine, so its clock and fault stream need no locking. The
// resilient flows return a backoff-advanced clock which is deliberately
// discarded: loadgen's devices keep their frozen post-touch timestamp
// so touch authorization never expires mid-measurement.
func (fl *fleet) op(i, iter int) error {
	ld := fl.devices[i]
	resilient := ld.dev.Retry != nil
	switch fl.cfg.Mode {
	case Enroll:
		// Each op claims a fresh id, unique per device (the per-device
		// counter needs no locking; the id embeds the device index).
		ld.ops++
		return ld.dev.Register(ld.now, fmt.Sprintf("enroll-%d-%d", i, ld.ops), "recovery-pw")
	case Login, Resume, Churn:
		cold := fl.cfg.Mode == Login
		if fl.cfg.Mode == Churn {
			ld.ops++
			cold = ld.ops%8 == 1
		}
		if !resilient {
			if cold {
				return ld.dev.Login(ld.now, fl.cert, account(i))
			}
			return ld.dev.LoginResume(ld.now, fl.cert, account(i))
		}
		// A login has no offline fallback the way BrowseResilient's
		// degraded mode absorbs retry exhaustion, and a full login is two
		// round trips (four drop draws per attempt) — so on lossy runs a
		// fixed attempt budget WILL eventually hit a losing streak over
		// thousands of measured ops. Persist through network-fault
		// streaks: the extra attempts surface in the sampled latency
		// instead of aborting the scenario. Typed server rejections still
		// abort — only the retryable fault class loops.
		for {
			var err error
			if cold {
				_, err = ld.dev.LoginResilient(ld.now, fl.cert, account(i))
			} else {
				_, err = ld.dev.LoginResumeResilient(ld.now, fl.cert, account(i))
			}
			if err == nil || !device.Retryable(err) {
				return err
			}
		}
	default:
		action := "view-statement"
		if iter%2 == 1 {
			action = "home"
		}
		if fl.cfg.Batch > 1 {
			actions := make([]string, fl.cfg.Batch)
			for j := range actions {
				actions[j] = action
				if (iter+j)%2 == 1 {
					actions[j] = "home"
				}
			}
			return ld.dev.BrowseBatch(ld.now, actions)
		}
		if resilient {
			_, err := ld.dev.BrowseResilient(ld.now, action)
			return err
		}
		return ld.dev.Browse(ld.now, action)
	}
}

// Run builds the scenario and measures it with testing.Benchmark: the
// b.N operations are spread over the device goroutines through a
// shared atomic counter, and per-op latencies are sampled as
// b.Elapsed() deltas inside each worker (the testing clock is the only
// wall clock this package touches).
func Run(cfg Config) (Result, error) {
	fl, err := build(cfg)
	if err != nil {
		return Result{}, err
	}
	defer fl.close()

	var (
		opErr  atomic.Value // error
		failed atomic.Bool
		lats   [][]time.Duration
		capt   *ftdc.Capture
		capMu  sync.Mutex
		capRow []int64
	)
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		// Keep only the final invocation's samples: testing.Benchmark
		// re-runs with growing b.N until the run is long enough.
		lats = make([][]time.Duration, cfg.Devices)
		if cfg.FTDCEvery > 0 {
			capt = ftdc.NewCapture(ftdc.NewSchema(fl.server.MetricsSchema()))
		}
		var next atomic.Int64
		var wg sync.WaitGroup
		b.ResetTimer()
		for w := 0; w < cfg.Devices; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for {
					n := next.Add(1)
					if n > int64(b.N) || failed.Load() {
						return
					}
					t0 := b.Elapsed()
					if err := fl.op(w, int(n)); err != nil {
						opErr.Store(fmt.Errorf("loadgen: device %d op %d: %w", w, n, err))
						failed.Store(true)
						return
					}
					lats[w] = append(lats[w], b.Elapsed()-t0)
					if capt != nil && n%int64(cfg.FTDCEvery) == 0 {
						capMu.Lock()
						capRow = fl.server.AppendMetrics(capRow[:0])
						capt.Sample(n, capRow)
						capMu.Unlock()
					}
					// Yield between sampled ops. Direct-mode ops never block,
					// so on a runner with fewer cores than devices a worker
					// otherwise runs until the ~10ms async-preemption quantum
					// and the op spanning the boundary is charged the whole
					// multi-worker scheduling round (a 141 ms login p99 on a
					// 1-core runner; docs/server-scaling.md). A voluntary
					// yield outside the sampled window keeps each sample at
					// the op's service time.
					runtime.Gosched()
				}
			}(w)
		}
		wg.Wait()
	})
	if failed.Load() {
		return Result{}, opErr.Load().(error)
	}

	var all []time.Duration
	for _, l := range lats {
		all = append(all, l...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	pct := func(p float64) int64 {
		if len(all) == 0 {
			return 0
		}
		i := int(p * float64(len(all)-1))
		return int64(all[i])
	}
	out := Result{
		Name:        cfg.Name(),
		Devices:     cfg.Devices,
		Ops:         res.N,
		NsPerOp:     res.NsPerOp(),
		AllocsPerOp: res.AllocsPerOp(),
		BytesPerOp:  res.AllocedBytesPerOp(),
		P50Ns:       pct(0.50),
		P99Ns:       pct(0.99),
	}
	if s := res.T.Seconds(); s > 0 {
		out.OpsPerSec = float64(res.N) / s
	}
	if capt != nil {
		out.Capture = append([]byte(nil), capt.Bytes()...)
	}
	if cfg.Batch > 1 {
		// Batch rows report per page-request rates and costs: one
		// measured op carried Batch pipelined requests on a single round
		// trip, so those figures are divided out (the scenario name keeps
		// the batch size), which makes them comparable to the
		// one-request-per-round-trip rows. The percentiles stay per
		// round trip: a sampled latency divided by Batch is the latency
		// of nothing.
		n := int64(cfg.Batch)
		out.Ops *= cfg.Batch
		out.NsPerOp /= n
		out.AllocsPerOp /= n
		out.BytesPerOp /= n
		out.OpsPerSec *= float64(cfg.Batch)
	}
	return out, nil
}

// Report is the machine-readable scaling report (BENCH_server.json):
// scenario results plus the hardware context they were measured on —
// ops/sec comparisons are meaningless without the core count.
type Report struct {
	GoMaxProcs int      `json:"gomaxprocs"`
	NumCPU     int      `json:"num_cpu"`
	Scenarios  []Result `json:"scenarios"`
}

// NewReport wraps results with the runtime's parallelism metadata.
func NewReport(results []Result) Report {
	return Report{
		GoMaxProcs: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Scenarios:  results,
	}
}
