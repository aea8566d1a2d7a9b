//go:build !race

package pki

const raceEnabled = false
