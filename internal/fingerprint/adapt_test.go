package fingerprint

import (
	"testing"

	"trust/internal/sim"
)

func TestDriftedPreservesIdentityShape(t *testing.T) {
	f := Synthesize(50, Loop)
	d := f.Drifted(0.1, 1)
	if len(d.Minutiae()) != len(f.Minutiae()) {
		t.Fatalf("drift changed minutiae count: %d vs %d", len(d.Minutiae()), len(f.Minutiae()))
	}
	// Small drift: positions move, but only slightly.
	fm, dm := f.Minutiae(), d.Minutiae()
	var maxMove float64
	for i := range fm {
		if mv := fm[i].Pos.Dist(dm[i].Pos); mv > maxMove {
			maxMove = mv
		}
	}
	if maxMove == 0 {
		t.Fatal("drift moved nothing")
	}
	if maxMove > 0.6 {
		t.Fatalf("0.1 mm drift moved a minutia %.2f mm", maxMove)
	}
	if !d.Bounds().Contains(dm[0].Pos) {
		t.Fatal("drifted minutia escaped bounds")
	}
}

func TestHeavyDriftDegradesStaticTemplate(t *testing.T) {
	cfg := DefaultMatcher()
	rng := sim.NewRNG(60)
	f := Synthesize(51, Loop)
	tpl := NewTemplate(f)
	// Accumulated drift well past the pairing tolerance.
	drifted := f.Drifted(0.8, 2)
	fresh, old := 0, 0
	const n = 25
	for i := 0; i < n; i++ {
		cFresh := Acquire(f, goodContact(f, rng), rng)
		cOld := Acquire(drifted, goodContact(drifted, rng), rng)
		if cFresh.Quality.OK() && cfg.Match(tpl, cFresh).Accepted {
			fresh++
		}
		if cOld.Quality.OK() && cfg.Match(tpl, cOld).Accepted {
			old++
		}
	}
	if old >= fresh {
		t.Fatalf("heavy drift did not degrade static-template matching (%d vs %d)", old, fresh)
	}
}

func TestAdaptTemplateTracksDrift(t *testing.T) {
	cfg := DefaultMatcher()
	const epochs = 8
	const perEpochDrift = 0.22
	const probesPerEpoch = 15

	run := func(adapt bool, seedBase uint64) int {
		rng := sim.NewRNG(seedBase)
		f := Synthesize(52, Whorl)
		tpl := NewTemplate(f)
		finalAccepts := 0
		current := f
		for e := 0; e < epochs; e++ {
			current = current.Drifted(perEpochDrift, seedBase+uint64(e))
			for p := 0; p < probesPerEpoch; p++ {
				cap := Acquire(current, goodContact(current, rng), rng)
				if !cap.Quality.OK() {
					continue
				}
				if adapt {
					cfg.AdaptTemplate(tpl, cap, cfg.Match(tpl, cap), 0.6, 0.3, nil)
				}
				if e == epochs-1 && cfg.Match(tpl, cap).Accepted {
					finalAccepts++
				}
			}
		}
		return finalAccepts
	}

	static := run(false, 100)
	adaptive := run(true, 100)
	if adaptive <= static {
		t.Fatalf("adaptation did not help: static %d vs adaptive %d final-epoch accepts", static, adaptive)
	}
	if adaptive < probesPerEpoch/2 {
		t.Fatalf("adaptive template accepts only %d/%d in the final epoch", adaptive, probesPerEpoch)
	}
}

func TestAdaptTemplateRefusesImpostor(t *testing.T) {
	cfg := DefaultMatcher()
	rng := sim.NewRNG(70)
	f := Synthesize(53, Loop)
	g := Synthesize(54, Whorl)
	tpl := NewTemplate(f)
	before := append([]Minutia(nil), tpl.Minutiae...)
	for i := 0; i < 20; i++ {
		cap := Acquire(g, goodContact(g, rng), rng)
		if cfg.AdaptTemplate(tpl, cap, cfg.Match(tpl, cap), 0.6, 0.3, nil) {
			t.Fatal("impostor capture adapted the template")
		}
	}
	for i := range before {
		if before[i] != tpl.Minutiae[i] {
			t.Fatal("template mutated by rejected adaptations")
		}
	}
}
