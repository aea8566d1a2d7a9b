// Package rsfix exercises the rngstream rule: trial closures handed to
// the sweep engine must derive their streams per trial index, never
// capture a shared generator.
package rsfix

import "trust/internal/sim"

// Bad shares one generator across concurrently scheduled trials, so
// draws depend on worker scheduling.
func Bad(seed uint64, n int) ([]float64, error) {
	rng := sim.NewRNG(seed)
	return sim.ParMap(n, func(i int) (float64, error) {
		return rng.Float64(), nil // want "captures \\*sim\\.RNG \"rng\""
	})
}

type rig struct {
	rng *sim.RNG
}

// BadField reaches a shared stream through a captured struct — the same
// bug with one more hop.
func BadField(seed uint64, params []int) ([]int, error) {
	r := rig{rng: sim.NewRNG(seed)}
	return sim.ParMapN(2, len(params), func(i int) (int, error) {
		return r.rng.Intn(params[i] + 1), nil // want "captures \\*sim\\.RNG \"rng\""
	})
}

// Good derives a per-trial stream from the trial index: equal
// (seed, trial) pairs give identical streams at any worker count.
func Good(seed uint64, n int) ([]float64, error) {
	return sim.ParMap(n, func(i int) (float64, error) {
		rng := sim.TrialRNG(seed, i)
		return rng.Float64(), nil
	})
}

// BadGoroutine races the spawned goroutine's draws against the
// spawner's: the interleaving — and therefore every value drawn after
// the spawn — depends on scheduling.
func BadGoroutine(seed uint64) float64 {
	rng := sim.NewRNG(seed)
	done := make(chan float64)
	go func() {
		done <- rng.Float64() // want "go-statement closure captures \\*sim\\.RNG \"rng\""
	}()
	_ = rng.Float64()
	return <-done
}

// GoodGoroutine gives the goroutine its own seeded stream.
func GoodGoroutine(seed uint64) float64 {
	done := make(chan float64)
	go func() {
		rng := sim.NewRNG(seed ^ 0x9e37)
		done <- rng.Float64()
	}()
	return <-done
}
