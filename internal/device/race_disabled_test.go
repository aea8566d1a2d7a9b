//go:build !race

package device

const raceEnabled = false
