package touchscreen

import (
	"math"
	"testing"
	"time"

	"trust/internal/geom"
	"trust/internal/sim"
)

func press(x, y float64) Contact {
	return Contact{Pos: geom.Point{X: x, Y: y}, Pressure: 0.8, RadiusMM: 4}
}

func TestSingleTouchLocalization(t *testing.T) {
	p := New(DefaultConfig(), sim.NewRNG(1))
	pxPerMM := p.Config().PXPerMM()
	maxErrPX := p.Config().ElectrodePitchMM * pxPerMM / 2 // half an electrode pitch

	for _, pos := range []geom.Point{{X: 100, Y: 150}, {X: 240, Y: 400}, {X: 380, Y: 700}, {X: 60, Y: 60}} {
		res := p.Sense([]Contact{{Pos: pos, Pressure: 0.8, RadiusMM: 4}})
		if len(res.Touches) != 1 {
			t.Fatalf("touch at %v: detected %d touches", pos, len(res.Touches))
		}
		if err := res.Touches[0].Pos.Dist(pos); err > maxErrPX {
			t.Errorf("touch at %v localized at %v (err %.1f px, max %.1f)", pos, res.Touches[0].Pos, err, maxErrPX)
		}
	}
}

func TestScanLatencyIs4ms(t *testing.T) {
	p := New(DefaultConfig(), sim.NewRNG(2))
	res := p.Sense([]Contact{press(200, 300)})
	if res.Elapsed != 4*time.Millisecond {
		t.Fatalf("scan latency %v, want 4ms (paper's capacitive panel response)", res.Elapsed)
	}
}

func TestNoTouchNoDetection(t *testing.T) {
	p := New(DefaultConfig(), sim.NewRNG(3))
	for i := 0; i < 20; i++ {
		if res := p.Sense(nil); len(res.Touches) != 0 {
			t.Fatalf("iteration %d: phantom touch detected: %+v", i, res.Touches)
		}
	}
}

func TestMultiTouchMutual(t *testing.T) {
	p := New(DefaultConfig(), sim.NewRNG(4))
	contacts := []Contact{press(100, 150), press(350, 650)}
	res := p.Sense(contacts)
	if len(res.Touches) != 2 {
		t.Fatalf("mutual scan detected %d touches, want 2", len(res.Touches))
	}
	for _, tc := range res.Touches {
		if tc.Ghost {
			t.Error("mutual scanning must not produce ghosts")
		}
	}
	// Each contact must have a nearby detection.
	for _, c := range contacts {
		best := math.Inf(1)
		for _, d := range res.Touches {
			best = math.Min(best, d.Pos.Dist(c.Pos))
		}
		if best > 40 {
			t.Errorf("contact %v unmatched (nearest detection %.1f px)", c.Pos, best)
		}
	}
}

func TestSelfCapacitanceGhosts(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Mutual = false
	p := New(cfg, sim.NewRNG(5))
	// Two diagonal touches -> 2 row peaks x 2 col peaks = 4 candidates,
	// 2 of them ghosts. This is the self-capacitance limitation the
	// mutual design removes.
	res := p.Sense([]Contact{press(100, 150), press(350, 650)})
	if len(res.Touches) != 4 {
		t.Fatalf("self-capacitance scan reported %d candidates, want 4", len(res.Touches))
	}
	ghosts := 0
	for _, tc := range res.Touches {
		if tc.Ghost {
			ghosts++
		}
	}
	if ghosts != 2 {
		t.Fatalf("%d ghosts, want 2", ghosts)
	}
}

func TestSelfCapacitanceSingleTouch(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Mutual = false
	p := New(cfg, sim.NewRNG(6))
	pos := geom.Point{X: 240, Y: 400}
	res := p.Sense([]Contact{{Pos: pos, Pressure: 0.8, RadiusMM: 4}})
	if len(res.Touches) != 1 {
		t.Fatalf("detected %d touches, want 1", len(res.Touches))
	}
	if res.Touches[0].Ghost {
		t.Fatal("single touch flagged as ghost")
	}
	maxErr := cfg.ElectrodePitchMM * cfg.PXPerMM()
	if err := res.Touches[0].Pos.Dist(pos); err > maxErr {
		t.Fatalf("self-cap localization error %.1f px", err)
	}
}

func TestLightTouchBelowThresholdIgnored(t *testing.T) {
	p := New(DefaultConfig(), sim.NewRNG(7))
	res := p.Sense([]Contact{{Pos: geom.Point{X: 240, Y: 400}, Pressure: 0.05, RadiusMM: 2}})
	if len(res.Touches) != 0 {
		t.Fatalf("feather touch detected: %+v", res.Touches)
	}
}

func TestUnitConversionsRoundTrip(t *testing.T) {
	cfg := DefaultConfig()
	for _, p := range []geom.Point{{X: 0, Y: 0}, {X: 480, Y: 800}, {X: 123, Y: 456}} {
		back := cfg.MMToPX(cfg.PXToMM(p))
		if back.Dist(p) > 1e-9 {
			t.Errorf("px->mm->px(%v) = %v", p, back)
		}
	}
}

func TestTouchesClampedToPanel(t *testing.T) {
	p := New(DefaultConfig(), sim.NewRNG(8))
	res := p.Sense([]Contact{press(5, 5)})
	for _, tc := range res.Touches {
		if !p.Config().BoundsPX().Contains(tc.Pos) && tc.Pos != (geom.Point{X: 480, Y: 800}) {
			t.Errorf("touch outside panel: %v", tc.Pos)
		}
	}
}

func TestElectrodeCounts(t *testing.T) {
	p := New(DefaultConfig(), sim.NewRNG(9))
	rows, cols := p.Electrodes()
	if rows < 15 || cols < 10 {
		t.Fatalf("electrode matrix %dx%d implausibly small", rows, cols)
	}
}

func TestDeterministicWithSeed(t *testing.T) {
	a := New(DefaultConfig(), sim.NewRNG(10))
	b := New(DefaultConfig(), sim.NewRNG(10))
	ra := a.Sense([]Contact{press(200, 300)})
	rb := b.Sense([]Contact{press(200, 300)})
	if len(ra.Touches) != len(rb.Touches) {
		t.Fatal("same-seed panels diverged")
	}
	for i := range ra.Touches {
		if ra.Touches[i].Pos != rb.Touches[i].Pos {
			t.Fatal("same-seed touch positions differ")
		}
	}
}

// TestTouchesValidUntilNextSense checks ScanResult.Touches' lifetime:
// a scan's touches equal those of a same-seeded twin panel and stay
// unchanged while another panel senses other contacts, until the
// panel's own next Sense refills the buffer. Both scan modes, with
// zero, one and two contacts.
func TestTouchesValidUntilNextSense(t *testing.T) {
	steps := [][]Contact{
		{press(200, 300)},
		{press(100, 150), press(350, 650)},
		nil,
		{press(420, 90)},
		{press(240, 400), press(60, 700)},
	}
	for _, mutual := range []bool{true, false} {
		cfg := DefaultConfig()
		cfg.Mutual = mutual
		p := New(cfg, sim.NewRNG(21))
		twin := New(cfg, sim.NewRNG(21))
		other := New(cfg, sim.NewRNG(22))
		for i, cs := range steps {
			res := p.Sense(cs)
			want := twin.Sense(cs).Touches
			held := append([]Touch(nil), res.Touches...)
			if !touchesEqual(held, want) {
				t.Fatalf("mutual=%v step %d: touches %v, twin panel %v", mutual, i, held, want)
			}
			other.Sense([]Contact{press(300, 500)})
			if !touchesEqual(res.Touches, held) {
				t.Fatalf("mutual=%v step %d: touches changed before the panel's next Sense", mutual, i)
			}
		}
	}
}

func touchesEqual(a, b []Touch) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestSenseAllocFree pins that a warm mutual-capacitance scan reuses
// the panel's electrode grid, contact constants and touch list.
func TestSenseAllocFree(t *testing.T) {
	p := New(DefaultConfig(), sim.NewRNG(23))
	contacts := []Contact{press(240, 400), press(100, 150)}
	p.Sense(contacts)
	if n := testing.AllocsPerRun(50, func() { p.Sense(contacts) }); n != 0 {
		t.Errorf("warm Sense costs %.0f allocs, want 0", n)
	}
}
