package device

import "sync/atomic"

// deviceTel counts the device's recovery machinery firing: every
// counter here is an event the happy path never produces, so a capture
// of a healthy run is all zeros and a chaos run's counters localize
// which fallback absorbed the faults. Only the goroutine driving the
// device writes them; they are atomic so a sampler on another
// goroutine may read them.
type deviceTel struct {
	// retries counts backoff-then-redeliver rounds across the
	// *Resilient flows (one per wait, not per attempt).
	retries atomic.Int64
	// resyncs counts nonce-resynchronization round trips (Resync).
	resyncs atomic.Int64
	// resumeFallbacks counts resume-first logins that fell back to the
	// full cold path with a ticket in hand (a spent, rejected, or
	// fate-unknown ticket — not the routine no-ticket case).
	resumeFallbacks atomic.Int64
	// degradedEnters counts entries into local-cache degraded mode.
	degradedEnters atomic.Int64
}

// streamStatser is the transport facet exposing stream connection
// stats; only the streamed transport implements it.
type streamStatser interface{ Stats() StreamStats }

// MetricsSchema returns the device's telemetry column names, in the
// exact order AppendMetrics emits values. The last three columns are
// zero when the transport is not streamed.
func (d *Device) MetricsSchema() []string {
	return []string{
		"dev_retries", "dev_resyncs", "dev_resume_fallbacks", "dev_degraded_enters",
		"dev_stream_dials", "dev_stream_redials", "dev_stream_downgrades",
	}
}

// AppendMetrics appends the current telemetry values to vals in
// MetricsSchema order and returns the extended slice.
func (d *Device) AppendMetrics(vals []int64) []int64 {
	vals = append(vals,
		d.tel.retries.Load(),
		d.tel.resyncs.Load(),
		d.tel.resumeFallbacks.Load(),
		d.tel.degradedEnters.Load(),
	)
	var st StreamStats
	if ss, ok := d.transport.(streamStatser); ok {
		st = ss.Stats()
	}
	return append(vals, int64(st.Dials), int64(st.Redials), int64(st.Downgrades))
}
