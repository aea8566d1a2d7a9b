//go:build !race

package flock

const raceEnabled = false
