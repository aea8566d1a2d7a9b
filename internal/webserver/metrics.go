package webserver

import (
	"net/http"
	"sync"
	"sync/atomic"

	"trust/internal/ftdc"
)

// telemetry is the server's always-on counter block. Every field is an
// atomic or an ftdc.Hist (itself atomic), so handlers bump them
// lock-free on the hot path; the capture side reads them through
// AppendMetrics. Counters only ever increase — the capture's delta
// encoding turns a flat counter into a run of zero bytes — except
// streams, a gauge of live connections.
type telemetry struct {
	fullLogins    atomic.Int64 // HandleLogin successes (Fig 10 cold path)
	resumeLogins  atomic.Int64 // ticket-resume successes (HTTP + stream)
	degradedTrips atomic.Int64 // 0→1 transitions of the degraded latch
	storageErrors atomic.Int64 // requests rejected with ErrStorage
	streams       atomic.Int64 // live device streams: up once opened, down at teardown

	// Flow-latency histograms on the virtual clock. The enroll/login/
	// resume samples measure page-served to submission (the consumed
	// nonce's age); page/resync measure the inter-request gap on a
	// session — the continuous-auth cadence the risk window assumes.
	enroll ftdc.Hist
	login  ftdc.Hist
	resume ftdc.Hist
	page   ftdc.Hist
	resync ftdc.Hist
}

// tripDegraded latches degraded mode and counts the transition. The
// CAS makes the trip count exact under concurrent backend failures:
// of N racing failed appends exactly one observes the 0→1 edge.
func (s *Server) tripDegraded() {
	if s.degraded.CompareAndSwap(false, true) {
		s.tel.degradedTrips.Add(1)
	}
}

// failStorage records a storage-classified rejection; callers pair it
// with the ErrStorage rejection they return so the storage_errors
// column always matches the 503s clients observed.
func (s *Server) failStorage() {
	s.tel.storageErrors.Add(1)
}

// MetricsSchema returns the server's registered telemetry columns in
// capture order — the order AppendMetrics emits values. The schema is
// fixed at build time: columns never appear or vanish at runtime, which
// is what lets two captures diff metric-by-metric.
func (s *Server) MetricsSchema() []string {
	names := []string{
		"accepted", "rejected",
		"logins_full", "logins_resume",
		"degraded", "degraded_trips", "storage_errors",
		"nonce_evictions", "streams",
	}
	names = s.sessions.appendNames(names, "sessions")
	names = s.accounts.appendNames(names, "accounts")
	names = s.nonces.appendNames(names, "nonces")
	names = ftdc.SummaryNames(names, "enroll")
	names = ftdc.SummaryNames(names, "login")
	names = ftdc.SummaryNames(names, "resume")
	names = ftdc.SummaryNames(names, "page")
	names = ftdc.SummaryNames(names, "resync")
	return names
}

// AppendMetrics appends one value per MetricsSchema column — the
// capture's row. It allocates nothing beyond the caller's slice:
// collectors reuse one scratch slice across samples. Safe to call
// concurrently with traffic; each column is an independently atomic
// read (a row is not a single snapshot, which telemetry tolerates).
func (s *Server) AppendMetrics(vals []int64) []int64 {
	var degraded int64
	if s.degraded.Load() {
		degraded = 1
	}
	vals = append(vals,
		s.accepted.Load(), s.rejected.Load(),
		s.tel.fullLogins.Load(), s.tel.resumeLogins.Load(),
		degraded, s.tel.degradedTrips.Load(), s.tel.storageErrors.Load(),
		s.nonces.evictions.Load(), s.tel.streams.Load(),
	)
	vals = s.sessions.appendLens(vals)
	vals = s.accounts.appendLens(vals)
	vals = s.nonces.appendLens(vals)
	vals = s.tel.enroll.AppendSummary(vals)
	vals = s.tel.login.AppendSummary(vals)
	vals = s.tel.resume.AppendSummary(vals)
	vals = s.tel.page.AppendSummary(vals)
	vals = s.tel.resync.AppendSummary(vals)
	return vals
}

// ftdcState is the server's optional self-capture: when enabled, every
// every-th HTTP request samples AppendMetrics at that request's virtual
// time. One mutex serializes sampling; it nests outside the store
// locks AppendMetrics takes (a new root in the documented hierarchy —
// nothing acquires it while holding a store lock).
type ftdcState struct {
	mu      sync.Mutex
	capture *ftdc.Capture
	every   int64
	seen    int64
	scratch []int64
}

// EnableFTDC turns on the server's request-driven telemetry capture:
// one sample per every-th request, timestamped with the request's
// virtual "now". Call before serving traffic. The capture is served
// back over GET /trust/ftdc and via FTDCBytes.
func (s *Server) EnableFTDC(every int) {
	if every < 1 {
		every = 1
	}
	st := &ftdcState{capture: ftdc.NewCapture(ftdc.NewSchema(s.MetricsSchema())), every: int64(every)}
	s.ftdc.Store(st)
}

// FTDCBytes returns a copy of the capture recorded so far (nil when
// EnableFTDC was never called).
func (s *Server) FTDCBytes() []byte {
	st := s.ftdc.Load()
	if st == nil {
		return nil
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	return append([]byte(nil), st.capture.Bytes()...)
}

// observeFTDC is the per-request sampling hook Handler installs. With
// capture disabled it is one atomic load: r's virtual time is parsed
// only for a request that is sampled.
func (s *Server) observeFTDC(r *http.Request) {
	st := s.ftdc.Load()
	if st == nil {
		return
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	st.seen++
	if st.seen%st.every != 0 {
		return
	}
	st.scratch = s.AppendMetrics(st.scratch[:0])
	st.capture.Sample(int64(requestNow(r)), st.scratch)
}

// handleFTDC serves the capture as an octet stream; 404 until
// EnableFTDC is called (trustserver -ftdc).
func (s *Server) handleFTDC(w http.ResponseWriter, r *http.Request) {
	data := s.FTDCBytes()
	if data == nil {
		http.Error(w, "ftdc capture not enabled", http.StatusNotFound)
		return
	}
	w.Header()["Content-Type"] = BinaryHeader
	w.Write(data)
}
