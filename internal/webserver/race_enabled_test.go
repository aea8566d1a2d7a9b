//go:build race

package webserver

// raceEnabled reports whether this test binary was built with the race
// detector, which deliberately defeats sync.Pool reuse and so breaks
// steady-state allocation assertions.
const raceEnabled = true
