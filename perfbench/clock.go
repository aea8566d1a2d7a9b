//trustlint:allow nowallclock -- the benchmark's measurement clock: every wall-clock read and wait lives in this file
package main

import "time"

// epoch anchors nowNs; time.Since reads the monotonic clock, so
// readings never jump with wall-clock adjustments.
var epoch = time.Now()

// nowNs returns monotonic nanoseconds since process start. It is the
// only clock the benchmark reads: op latencies, span edges, window
// lengths and set-up times all come from it.
func nowNs() int64 { return int64(time.Since(epoch)) }

// sleep blocks the calling goroutine for d of wall time (the window
// controller's only wait).
func sleep(d time.Duration) { time.Sleep(d) }
