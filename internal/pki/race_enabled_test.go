//go:build race

package pki

// raceEnabled reports whether this test binary was built with the race
// detector, whose instrumentation changes some allocation counts.
const raceEnabled = true
