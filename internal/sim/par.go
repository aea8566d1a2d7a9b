package sim

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// This file implements the deterministic parallel sweep engine behind
// the harness experiments. The evaluation is a battery of Monte-Carlo
// sweeps (window policies, noise levels, probe batches); every trial is
// independent once it derives its own RNG from (seed, trialIndex), so
// trials can run on all cores while the merged result stays
// bit-identical to the serial order.
//
// Determinism contract:
//
//  1. A trial must derive every random stream it uses from its trial
//     index (TrialRNG or an equivalent seed arithmetic) and must not
//     touch state shared with other trials.
//  2. ParMap/ParMapN return results indexed by trial, in trial order,
//     regardless of worker count and OS scheduling.
//  3. On error, the error of the lowest-indexed failing trial is
//     returned — the same one a serial loop would have hit first.
//
// Under this contract workers=1 and workers=GOMAXPROCS produce
// identical outputs, which harness/determinism_test.go asserts for
// every parallelized experiment.

// maxWorkers overrides the worker count when positive; 0 means
// GOMAXPROCS. It exists so determinism tests (and operators debugging a
// sweep) can pin the pool size process-wide.
var maxWorkers atomic.Int32

// SetMaxWorkers pins the worker count used by ParMap.
// n <= 0 restores the default (GOMAXPROCS). It returns the previous
// setting.
func SetMaxWorkers(n int) int {
	return int(maxWorkers.Swap(int32(max(n, 0))))
}

// MaxWorkers reports the current worker count ParMap will use.
func MaxWorkers() int {
	if n := int(maxWorkers.Load()); n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// TrialRNG derives the canonical per-trial generator from an experiment
// seed and a trial index. Equal (seed, trial) pairs give identical
// streams; the stream does not depend on which worker runs the trial or
// in what order trials are scheduled.
func TrialRNG(seed uint64, trial int) *RNG {
	return NewRNG(seed).Fork(uint64(trial))
}

// ParMap runs fn(0..n-1) on a bounded worker pool and returns the
// results in index order. fn must follow the determinism contract
// above: derive all randomness from its index and share nothing
// mutable. The first error (by index, not by wall clock) aborts the
// merge and is returned; remaining in-flight trials still run to
// completion so shared sinks are never written concurrently with the
// caller.
func ParMap[T any](n int, fn func(i int) (T, error)) ([]T, error) {
	return ParMapN(MaxWorkers(), n, fn)
}

// ParMapN is ParMap with an explicit worker count (clamped to [1, n]).
func ParMapN[T any](workers, n int, fn func(i int) (T, error)) ([]T, error) {
	if n <= 0 {
		return nil, nil
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		// Serial fast path: no goroutines, same trial order.
		out := make([]T, n)
		for i := 0; i < n; i++ {
			v, err := fn(i)
			if err != nil {
				return nil, err
			}
			out[i] = v
		}
		return out, nil
	}

	out := make([]T, n)
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				out[i], errs[i] = fn(i)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}
