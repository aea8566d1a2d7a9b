//go:build race

package flock

// raceEnabled reports whether this test binary was built with the race
// detector, which deliberately defeats sync.Pool reuse (the matcher's
// scratch pool) and so raises steady-state allocation counts.
const raceEnabled = true
