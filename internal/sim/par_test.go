package sim

import (
	"errors"
	"fmt"
	"testing"
)

func TestParMapOrderAndValues(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 8, 64} {
		got, err := ParMapN(workers, 100, func(i int) (int, error) {
			return i * i, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 100 {
			t.Fatalf("workers=%d: %d results", workers, len(got))
		}
		for i, v := range got {
			if v != i*i {
				t.Fatalf("workers=%d: result[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

func TestParMapEmpty(t *testing.T) {
	got, err := ParMap(0, func(i int) (int, error) { return 0, nil })
	if err != nil || got != nil {
		t.Fatalf("ParMap(0) = %v, %v", got, err)
	}
}

func TestParMapFirstErrorByIndex(t *testing.T) {
	errA := errors.New("a")
	errB := errors.New("b")
	for _, workers := range []int{1, 4} {
		_, err := ParMapN(workers, 50, func(i int) (int, error) {
			switch i {
			case 7:
				return 0, errA
			case 30:
				return 0, errB
			}
			return i, nil
		})
		// The lowest-indexed failure wins, as in a serial loop.
		if err != errA {
			t.Fatalf("workers=%d: err = %v, want %v", workers, err, errA)
		}
	}
}

func TestTrialRNGDeterministic(t *testing.T) {
	a := TrialRNG(42, 7)
	b := TrialRNG(42, 7)
	for i := 0; i < 16; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("TrialRNG not reproducible")
		}
	}
	// Neighbouring trials must decorrelate.
	c := TrialRNG(42, 8)
	same := 0
	d := TrialRNG(42, 7)
	for i := 0; i < 64; i++ {
		if c.Uint64() == d.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("trials 7 and 8 collided %d/64 draws", same)
	}
}

func TestSweepTrialsSeeIdenticalStreamsAcrossWorkerCounts(t *testing.T) {
	run := func(workers int) []string {
		out, err := ParMapN(workers, 32, func(i int) (string, error) {
			rng := TrialRNG(2012, i)
			return fmt.Sprintf("%x-%x", rng.Uint64(), rng.Uint64()), nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	serial := run(1)
	for _, workers := range []int{2, 4, 16} {
		par := run(workers)
		for i := range serial {
			if par[i] != serial[i] {
				t.Fatalf("workers=%d: trial %d diverged: %s vs %s", workers, i, par[i], serial[i])
			}
		}
	}
}

func TestSetMaxWorkers(t *testing.T) {
	prev := SetMaxWorkers(3)
	defer SetMaxWorkers(prev)
	if MaxWorkers() != 3 {
		t.Fatalf("MaxWorkers = %d, want 3", MaxWorkers())
	}
	params := []int{1, 2, 3, 4}
	out, err := ParMap(len(params), func(i int) (int, error) { return params[i] * 10, nil })
	if err != nil {
		t.Fatal(err)
	}
	want := []int{10, 20, 30, 40}
	for i := range want {
		if out[i] != want[i] {
			t.Fatalf("ParMap[%d] = %d, want %d", i, out[i], want[i])
		}
	}
	SetMaxWorkers(0)
	if MaxWorkers() < 1 {
		t.Fatalf("default MaxWorkers = %d", MaxWorkers())
	}
}
