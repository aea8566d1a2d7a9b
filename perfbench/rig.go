package main

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"time"

	"trust/internal/device"
	"trust/internal/fingerprint"
	"trust/internal/flock"
	"trust/internal/geom"
	"trust/internal/pki"
	"trust/internal/placement"
	"trust/internal/sim"
	"trust/internal/store"
	"trust/internal/touch"
	"trust/internal/webserver"
)

const (
	// numDevices is both the device count and the worker-goroutine count:
	// the reference runner has 2 cores, and each device belongs to exactly
	// one worker so its virtual clock and touch stream stay deterministic.
	numDevices = 2
	domain     = "bench.example"
	// tapInterval is the virtual time between two taps of one device, the
	// cadence core.TouchButtonUntilVerified uses.
	tapInterval = 400 * time.Millisecond
)

// fingers are the devices' enrolled fingers, fixed per device index
// rather than drawn from the seed: match cost depends on the finger, and
// a seed-dependent finger would make the seed a workload knob. Both
// verify on about 99.9% of taps from the tap distribution, so the
// touch-browse match-ratio check has margin.
var fingers = [numDevices]struct {
	seed    uint64
	pattern fingerprint.PatternType
}{{9000, fingerprint.Arch}, {9052, fingerprint.Loop}}

// sensorPlacement is the single FLock sensor every device carries; taps
// land on its centre.
var (
	sensorPlacement = placement.Placement{Sensors: []geom.Rect{geom.RectWH(180, 660, 120, 120)}}
	sensorCentre    = sensorPlacement.Sensors[0].Center()
)

// buildPopulation writes the seeded account image every server of a run
// recovers from: n enroll records with ids and keys drawn from sim.RNG.
// The image is what a server running with the default compaction
// threshold would leave behind — one snapshot at the last multiple of
// store.DefaultSnapshotEvery, the remaining records in the log.
func buildPopulation(seed uint64, n int) (*store.MemFS, error) {
	fsys := store.NewMemFS()
	wal, err := store.OpenWAL(fsys, store.WALOptions{SnapshotEvery: n - n%store.DefaultSnapshotEvery})
	if err != nil {
		return nil, err
	}
	rng := sim.NewRNG(seed ^ 0x9090)
	for i := 0; i < n; i++ {
		key := make([]byte, 32)
		var digest [32]byte
		fillRandom(rng, key)
		fillRandom(rng, digest[:])
		if err := wal.Append(store.Record{
			Kind:           store.KindEnroll,
			At:             time.Duration(i) * time.Millisecond,
			Account:        fmt.Sprintf("p%016x", rng.Uint64()),
			Gen:            uint64(i + 1),
			PublicKey:      key,
			DeviceSubject:  "population-device",
			RecoveryDigest: digest,
		}); err != nil {
			wal.Close()
			return nil, fmt.Errorf("population record %d: %w", i, err)
		}
	}
	if live := wal.Stats().Live; live != n {
		wal.Close()
		return nil, fmt.Errorf("population holds %d accounts, want %d (duplicate id drawn)", live, n)
	}
	return fsys, wal.Close()
}

func fillRandom(rng *sim.RNG, b []byte) {
	for i := 0; i < len(b); i += 8 {
		v := rng.Uint64()
		for j := i; j < i+8 && j < len(b); j++ {
			b[j] = byte(v)
			v >>= 8
		}
	}
}

// benchDevice is one simulated phone plus the benchmark state its worker
// owns: the virtual clock, the touch draw stream and per-device counts.
type benchDevice struct {
	idx     int
	account string
	cert    *pki.Certificate // the server certificate logins check
	dev     *device.Device
	finger  *fingerprint.Finger
	rng     *sim.RNG
	now     time.Duration
	stream  *device.Stream // stream workloads only
	client  *http.Client   // HTTP workload only
	trace   *devTrace      // nil on untraced runs

	ops     int // ops issued by this device
	touches int
	matched int
	cold    int // full logins issued
	acked   int // enrollments the server acknowledged
}

// rig is one recovered server with its fleet, ready to measure.
type rig struct {
	wl        *workload
	fs        *store.MemFS
	wal       *store.WAL
	srv       *webserver.Server
	cert      *pki.Certificate
	ts        *httptest.Server
	ln        net.Listener
	served    chan struct{} // closed when the stream accept loop returns
	devs      []*benchDevice
	tr        *tracer
	recoverNs int64
}

// newRig recovers a server from fs and builds the fleet: each device
// enrolls its finger, taps until verified, registers its own account
// and, on workloads that need a session, logs in. Everything here is
// what setup_s times. wrap, when non-nil, wraps the account backend
// (tests use it to inject a lossy store).
func newRig(wl *workload, seed uint64, fs *store.MemFS, tr *tracer, wrap func(store.AccountBackend) store.AccountBackend) (*rig, error) {
	r := &rig{wl: wl, fs: fs, tr: tr}
	t0 := nowNs()
	wal, err := store.OpenWAL(fs, store.WALOptions{})
	if err != nil {
		return nil, fmt.Errorf("recovering population: %w", err)
	}
	r.recoverNs = nowNs() - t0
	r.wal = wal
	var backend store.AccountBackend = wal
	if tr != nil {
		backend = tr.backend(backend)
	}
	if wrap != nil {
		backend = wrap(backend)
	}
	ca, err := pki.NewCA("trust-root", pki.NewDeterministicRand(seed^0x10ad))
	if err != nil {
		wal.Close()
		return nil, err
	}
	if r.srv, err = webserver.NewDurable(domain, ca, seed^0x5e7, backend); err != nil {
		wal.Close()
		return nil, err
	}
	r.cert = r.srv.Certificate()
	if err := r.listen(); err != nil {
		r.close()
		return nil, err
	}
	root := sim.NewRNG(seed)
	for i := 0; i < numDevices; i++ {
		d, err := r.newDevice(ca, seed, i, root.Fork(uint64(i+1)))
		if err != nil {
			r.close()
			return nil, fmt.Errorf("device %d: %w", i, err)
		}
		r.devs = append(r.devs, d)
	}
	return r, nil
}

// listen starts the server's network front for the workload's transport.
func (r *rig) listen() error {
	var h http.Handler = r.srv.Handler()
	switch r.wl.transport {
	case direct:
		return nil
	case httpBinary:
		if r.tr != nil {
			h = r.tr.handler(h)
		}
		r.ts = httptest.NewServer(h)
	case stream:
		// The HTTP front only carries set-up traffic (registration and
		// login predate the stream session).
		r.ts = httptest.NewServer(h)
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return fmt.Errorf("stream listener: %w", err)
		}
		if r.tr != nil {
			ln = r.tr.listener(ln)
		}
		r.ln = ln
		r.served = make(chan struct{})
		go r.serveStreams()
	}
	return nil
}

func (r *rig) serveStreams() {
	defer close(r.served)
	r.srv.ServeStreamListener(r.ln)
}

func (r *rig) newDevice(ca *pki.CA, seed uint64, i int, rng *sim.RNG) (*benchDevice, error) {
	name := fmt.Sprintf("bench-dev-%d", i)
	mod, err := flock.New(flock.DefaultConfig(sensorPlacement), ca, name, seed+100+uint64(i))
	if err != nil {
		return nil, err
	}
	finger := fingerprint.Synthesize(fingers[i].seed, fingers[i].pattern)
	if err := mod.Enroll(fingerprint.NewTemplate(finger)); err != nil {
		return nil, err
	}
	d := &benchDevice{idx: i, account: ownAccount(i), cert: r.cert, finger: finger, rng: rng}
	if r.tr != nil {
		d.trace = r.tr.devices[i]
	}
	var t device.Transport
	switch r.wl.transport {
	case direct:
		t = &device.InMemory{Server: r.srv}
		if d.trace != nil {
			t = &tracedDirect{inner: t, t: d.trace}
		}
	case httpBinary:
		// One client per device, one connection each: at most two
		// measured connections, and each belongs to one device.
		rt := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}
		var hrt http.RoundTripper = rt
		if d.trace != nil {
			var dialer net.Dialer
			rt.DialContext = func(ctx context.Context, network, addr string) (net.Conn, error) {
				c, err := dialer.DialContext(ctx, network, addr)
				if err != nil {
					return nil, err
				}
				return r.tr.clientConn(c, d.trace, false), nil
			}
			hrt = &tracedRoundTripper{inner: rt, t: d.trace}
		}
		d.client = &http.Client{Transport: hrt}
		t = &device.HTTP{BaseURL: r.ts.URL, Client: d.client, Binary: true}
	case stream:
		addr := r.ln.Addr().String()
		d.stream = &device.Stream{
			Dial: func() (io.ReadWriteCloser, error) {
				c, err := net.Dial("tcp", addr)
				if err != nil || d.trace == nil {
					return c, err
				}
				return r.tr.clientConn(c, d.trace, true), nil
			},
			Fallback: &device.HTTP{BaseURL: r.ts.URL, Client: r.ts.Client(), Binary: true},
		}
		t = d.stream
	}
	d.dev = device.New(name, mod, t)
	if err := d.touchUntilVerified(); err != nil {
		return nil, err
	}
	if err := d.dev.Register(d.now, d.account, "recovery-pw"); err != nil {
		return nil, fmt.Errorf("register: %w", err)
	}
	if r.wl.login {
		if err := d.dev.Login(d.now, r.cert, d.account); err != nil {
			return nil, fmt.Errorf("login: %w", err)
		}
	}
	return d, nil
}

// ownAccount and enrollAccount name the accounts device i creates; the
// tracer's store wrapper parses the device index back out of them.
func ownAccount(i int) string { return fmt.Sprintf("d%d-own", i) }

func enrollAccount(i, n int) string { return fmt.Sprintf("d%d-e%d", i, n) }

// tap delivers one deliberate touch on the sensor, drawn from the same
// distribution core.TouchButtonUntilVerified uses, and advances the
// device clock by one tap interval.
func (d *benchDevice) tap() flock.OutcomeKind {
	ev := touch.Event{
		At: d.now, Pos: sensorCentre,
		Pressure: 0.7, RadiusMM: 4.2, SpeedMMS: 1,
		FingerRotation: d.rng.Normal(0, 0.15),
		FingerOffsetMM: geom.Point{X: d.rng.Normal(0, 1.0), Y: d.rng.Normal(0, 1.2)},
	}
	d.now += tapInterval
	var t0 int64
	if d.trace != nil && d.trace.on.Load() {
		t0 = nowNs()
	}
	out := d.dev.Touch(ev, d.finger)
	if t0 != 0 {
		d.trace.touched(t0, nowNs(), out.Kind == flock.Matched)
	}
	d.touches++
	if out.Kind == flock.Matched {
		d.matched++
	}
	return out.Kind
}

func (d *benchDevice) touchUntilVerified() error {
	for a := 0; a < 50; a++ {
		if d.tap() == flock.Matched {
			return nil
		}
	}
	return fmt.Errorf("no verified touch in 50 taps")
}

// close tears the rig down: device streams and client connections
// first, then the listeners, then the account backend.
func (r *rig) close() {
	for _, d := range r.devs {
		if d.stream != nil {
			d.stream.Close()
		}
		if d.client != nil {
			d.client.CloseIdleConnections()
		}
	}
	if r.ts != nil {
		r.ts.Close()
	}
	if r.ln != nil {
		r.ln.Close()
		<-r.served
	}
	if r.srv != nil {
		r.srv.Close()
	}
}
