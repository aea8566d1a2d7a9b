package main

import (
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"trust/internal/device"
	"trust/internal/protocol"
	"trust/internal/store"
)

// Layers in nesting order. An op span holds a flock span (the tap) and
// transport spans; a transport span holds the webserver span of the
// request it carried; a webserver span holds the store spans of the
// appends it made. Spans come only from wrappers at public seams, so
// "device" is whatever the op span holds outside its child spans.
const (
	layerOp = iota
	layerFlock
	layerTransport
	layerWebserver
	layerStore
	numLayers
)

var (
	layerNames  = [numLayers]string{"op", "flock", "transport", "webserver", "store"}
	layerParent = [numLayers]string{"", "op", "op", "transport", "webserver"}
)

// spanSampleEvery: full span records are kept for one traced op in this
// many, starting with the first.
const spanSampleEvery = 64

// span is one recorded interval, as written to the trace directory.
type span struct {
	Op     int64  `json:"op"`
	Device int    `json:"device"`
	Name   string `json:"name"`
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// opRecord is one traced op: its span and the time each layer's spans
// covered inside it.
type opRecord struct {
	op, flock, transport, webserver, store int64
}

// buffer is a fixed-capacity, goroutine-safe append buffer. Capacity is
// reserved before a window starts; an add past it is counted as an
// overflow, which fails the run rather than silently dropping data.
type buffer[T any] struct {
	mu       sync.Mutex
	v        []T
	overflow int
}

func (b *buffer[T]) add(x T) {
	b.mu.Lock()
	if len(b.v) < cap(b.v) {
		b.v = append(b.v, x)
	} else {
		b.overflow++
	}
	b.mu.Unlock()
}

// reserve makes room for n more entries.
func (b *buffer[T]) reserve(n int) {
	b.mu.Lock()
	if cap(b.v)-len(b.v) < n {
		v := make([]T, len(b.v), len(b.v)+n)
		copy(v, b.v)
		b.v = v
	}
	b.mu.Unlock()
}

// tracer owns the traced run's per-device span state and builds the
// seam wrappers.
type tracer struct {
	devices []*devTrace
	// byAddr maps a client connection's local address to its device, so
	// server-side wrappers can attribute a request to the op it serves.
	byAddr sync.Map
	spans  buffer[span]
}

func newTracer() *tracer {
	tr := &tracer{}
	for i := 0; i < numDevices; i++ {
		t := &devTrace{idx: i, tr: tr}
		// Set-up is traced: taps and appends made while building the
		// fleet land in the flock and store distributions.
		t.on.Store(true)
		t.touchNs.reserve(256)
		t.appendNs.reserve(256)
		tr.devices = append(tr.devices, t)
	}
	tr.spans.reserve(1024)
	return tr
}

// devTrace is one device's trace state. Its fields are written by
// whichever goroutine runs a seam for the device — its worker, the
// stream read loop, a server connection goroutine — so they are atomic.
type devTrace struct {
	idx int
	tr  *tracer
	on  atomic.Bool  // the device's current op is traced
	op  atomic.Int64 // id of the latest traced op (1, 2, ...); 0 during set-up
	ns  [numLayers]atomic.Int64
	// bytes and dials count transport traffic while traced.
	bytes atomic.Int64
	dials atomic.Int64

	touches, matched int // traced taps (device goroutine only)
	touchNs          buffer[int64]
	appendNs         buffer[int64]
}

// record adds one span of a layer to the current op.
func (t *devTrace) record(layer int, start, end int64) {
	t.ns[layer].Add(end - start)
	if op := t.op.Load(); op%spanSampleEvery == 1 {
		t.tr.spans.add(span{Op: op, Device: t.idx, Name: layerNames[layer], Parent: layerParent[layer], Start: start, End: end})
	}
}

// begin starts op id on this device, traced or not.
func (t *devTrace) begin(id int64, on bool) {
	t.op.Store(id)
	t.on.Store(on)
}

// end closes a traced op spanning [start, end] and returns its record,
// resetting the per-op layer sums.
func (t *devTrace) end(start, end int64) opRecord {
	t.record(layerOp, start, end)
	return opRecord{
		op:        t.ns[layerOp].Swap(0),
		flock:     t.ns[layerFlock].Swap(0),
		transport: t.ns[layerTransport].Swap(0),
		webserver: t.ns[layerWebserver].Swap(0),
		store:     t.ns[layerStore].Swap(0),
	}
}

// reset drops whatever set-up left in the per-op sums and counters.
func (t *devTrace) reset() {
	for i := range t.ns {
		t.ns[i].Store(0)
	}
	t.bytes.Store(0)
	t.dials.Store(0)
}

func (t *devTrace) touched(start, end int64, matched bool) {
	t.record(layerFlock, start, end)
	t.touchNs.add(end - start)
	t.touches++
	if matched {
		t.matched++
	}
}

// lookup finds the device whose client connection has the given local
// address (nil for connections the tracer did not dial).
func (tr *tracer) lookup(addr string) *devTrace {
	if t, ok := tr.byAddr.Load(addr); ok {
		return t.(*devTrace)
	}
	return nil
}

// deviceOf parses the device index out of an account id the fleet
// created ("d<i>-..."); population accounts belong to no device.
func (tr *tracer) deviceOf(account string) *devTrace {
	rest, ok := strings.CutPrefix(account, "d")
	if !ok {
		return nil
	}
	idx, _, _ := strings.Cut(rest, "-")
	i, err := strconv.Atoi(idx)
	if err != nil || i < 0 || i >= len(tr.devices) {
		return nil
	}
	return tr.devices[i]
}

// clientConn wraps a device's connection: it counts bytes both ways
// and, on the stream transport, times each request from its first
// written byte to the first byte of the response (the transport span).
// HTTP requests are timed by tracedRoundTripper instead.
type clientConn struct {
	net.Conn
	t    *devTrace
	rtt  bool
	sent atomic.Int64 // first write of the outstanding request; 0 if none
}

func (tr *tracer) clientConn(c net.Conn, t *devTrace, rtt bool) net.Conn {
	tr.byAddr.Store(c.LocalAddr().String(), t)
	t.dials.Add(1)
	return &clientConn{Conn: c, t: t, rtt: rtt}
}

func (c *clientConn) Write(p []byte) (int, error) {
	if c.t.on.Load() {
		if c.rtt {
			c.sent.CompareAndSwap(0, nowNs())
		}
		c.t.bytes.Add(int64(len(p)))
	}
	return c.Conn.Write(p)
}

func (c *clientConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 && c.t.on.Load() {
		if s := c.sent.Swap(0); s != 0 {
			c.t.record(layerTransport, s, nowNs())
		}
		c.t.bytes.Add(int64(n))
	}
	return n, err
}

// tracedListener wraps the stream listener handed to
// Server.ServeStreamListener.
type tracedListener struct {
	net.Listener
	tr *tracer
}

func (tr *tracer) listener(ln net.Listener) net.Listener {
	return &tracedListener{Listener: ln, tr: tr}
}

func (l *tracedListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &serverConn{Conn: c, tr: l.tr}, nil
}

// serverConn times the server side of a stream: from the moment a
// request's bytes come off the socket to the moment the response write
// starts. The span is recorded before the write, so it is complete
// before the device can see the response.
type serverConn struct {
	net.Conn
	tr  *tracer
	t   atomic.Pointer[devTrace]
	got atomic.Int64 // arrival of the outstanding request; 0 if none
}

func (c *serverConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 {
		t := c.t.Load()
		if t == nil {
			if t = c.tr.lookup(c.RemoteAddr().String()); t != nil {
				c.t.Store(t)
			}
		}
		if t != nil && t.on.Load() {
			c.got.CompareAndSwap(0, nowNs())
		}
	}
	return n, err
}

func (c *serverConn) Write(p []byte) (int, error) {
	if t := c.t.Load(); t != nil && t.on.Load() {
		if g := c.got.Swap(0); g != 0 {
			t.record(layerWebserver, g, nowNs())
		}
	}
	return c.Conn.Write(p)
}

// tracedRoundTripper times each HTTP exchange on the client.
type tracedRoundTripper struct {
	inner http.RoundTripper
	t     *devTrace
}

func (rt *tracedRoundTripper) RoundTrip(req *http.Request) (*http.Response, error) {
	if !rt.t.on.Load() {
		return rt.inner.RoundTrip(req)
	}
	t0 := nowNs()
	resp, err := rt.inner.RoundTrip(req)
	rt.t.record(layerTransport, t0, nowNs())
	return resp, err
}

// tracedHandler times Server.Handler() from entry to the start of the
// response write.
type tracedHandler struct {
	inner http.Handler
	tr    *tracer
}

func (tr *tracer) handler(h http.Handler) http.Handler { return &tracedHandler{inner: h, tr: tr} }

func (h *tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	t := h.tr.lookup(r.RemoteAddr)
	if t == nil || !t.on.Load() {
		h.inner.ServeHTTP(w, r)
		return
	}
	tw := &timedWriter{ResponseWriter: w, t: t, start: nowNs()}
	h.inner.ServeHTTP(tw, r)
	tw.finish()
}

type timedWriter struct {
	http.ResponseWriter
	t      *devTrace
	start  int64
	closed bool
}

func (w *timedWriter) Write(p []byte) (int, error) {
	w.finish()
	return w.ResponseWriter.Write(p)
}

func (w *timedWriter) finish() {
	if !w.closed {
		w.closed = true
		w.t.record(layerWebserver, w.start, nowNs())
	}
}

// tracedDirect wraps device.InMemory. The transport span is the whole
// wrapped call, the webserver span the handler call inside it, so the
// direct transport's self time is the wrapper's own cost.
type tracedDirect struct {
	inner device.Transport
	t     *devTrace
}

func directCall[T any](d *tracedDirect, call func() (T, error)) (T, error) {
	if !d.t.on.Load() {
		return call()
	}
	t0 := nowNs()
	t1 := nowNs()
	v, err := call()
	t2 := nowNs()
	d.t.record(layerWebserver, t1, t2)
	d.t.record(layerTransport, t0, nowNs())
	return v, err
}

func (d *tracedDirect) FetchRegistrationPage(now time.Duration) (*protocol.RegistrationPage, error) {
	return directCall(d, func() (*protocol.RegistrationPage, error) { return d.inner.FetchRegistrationPage(now) })
}

func (d *tracedDirect) SubmitRegistration(now time.Duration, sub *protocol.RegistrationSubmit, recovery string) (protocol.RegistrationResult, error) {
	return directCall(d, func() (protocol.RegistrationResult, error) { return d.inner.SubmitRegistration(now, sub, recovery) })
}

func (d *tracedDirect) FetchLoginPage(now time.Duration) (*protocol.LoginPage, error) {
	return directCall(d, func() (*protocol.LoginPage, error) { return d.inner.FetchLoginPage(now) })
}

func (d *tracedDirect) SubmitLogin(now time.Duration, sub *protocol.LoginSubmit) (*protocol.ContentPage, error) {
	return directCall(d, func() (*protocol.ContentPage, error) { return d.inner.SubmitLogin(now, sub) })
}

func (d *tracedDirect) SubmitResume(now time.Duration, sub *protocol.ResumeSubmit) (*protocol.ContentPage, error) {
	return directCall(d, func() (*protocol.ContentPage, error) { return d.inner.SubmitResume(now, sub) })
}

func (d *tracedDirect) SubmitPageRequest(now time.Duration, req *protocol.PageRequest) (*protocol.ContentPage, error) {
	return directCall(d, func() (*protocol.ContentPage, error) { return d.inner.SubmitPageRequest(now, req) })
}

func (d *tracedDirect) SubmitResync(now time.Duration, req *protocol.ResyncRequest) (*protocol.ContentPage, error) {
	return directCall(d, func() (*protocol.ContentPage, error) { return d.inner.SubmitResync(now, req) })
}

// tracedBackend wraps the *store.WAL behind the server and times each
// Append, attributing it to the device whose account it writes.
type tracedBackend struct {
	store.AccountBackend
	tr *tracer
}

func (tr *tracer) backend(b store.AccountBackend) store.AccountBackend {
	return &tracedBackend{AccountBackend: b, tr: tr}
}

func (b *tracedBackend) Append(rec store.Record) error {
	t := b.tr.deviceOf(rec.Account)
	if t == nil || !t.on.Load() {
		return b.AccountBackend.Append(rec)
	}
	t0 := nowNs()
	err := b.AccountBackend.Append(rec)
	t1 := nowNs()
	t.record(layerStore, t0, t1)
	t.appendNs.add(t1 - t0)
	return err
}
