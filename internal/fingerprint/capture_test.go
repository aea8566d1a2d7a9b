package fingerprint

import (
	"reflect"
	"testing"

	"trust/internal/geom"
	"trust/internal/sim"
)

// TestAcquireIntoMatchesAcquire is the differential test of the in-place
// capture: over 1,200 seeded contacts, from clean presses to smeared,
// light and off-finger ones, a fresh Acquire and an AcquireInto that
// reuses one dst throughout, each drawing from its own RNG forked from
// the same seed, give field-equal captures (unexported ground truth
// included, and checked again through MinutiaeInFingerFrame) and leave
// their RNGs in step. The sequence must exercise the growth path (more
// minutiae than the reserved headroom) and a dst left over from a
// larger capture, so stale minutiae would show.
func TestAcquireIntoMatchesAcquire(t *testing.T) {
	fingers := []*Finger{Synthesize(31, Loop), Synthesize(32, Whorl), Synthesize(33, Arch)}
	draw := sim.NewRNG(0xacc1)
	fresh := sim.NewRNG(0xacc2).Fork(1)
	reused := sim.NewRNG(0xacc2).Fork(1)

	var dst Capture
	grown, shrunk := 0, 0
	for i := 0; i < 1200; i++ {
		f := fingers[i%len(fingers)]
		mid := f.Bounds().Center()
		c := Contact{
			Center:   geom.Point{X: mid.X + draw.Normal(0, 4), Y: mid.Y + draw.Normal(0, 5)},
			Radius:   2 + 5*draw.Float64(),
			Pressure: 0.1 + 0.9*draw.Float64(),
			SpeedMMS: 70 * draw.Float64() * draw.Float64(),
			Rotation: draw.Normal(0, 0.5),
		}
		want := Acquire(f, c, fresh)
		prevLen := len(dst.Minutiae)
		AcquireInto(&dst, f, c, reused)
		if !reflect.DeepEqual(&dst, want) {
			t.Fatalf("contact %d: AcquireInto\n%+v\nAcquire\n%+v", i, dst, *want)
		}
		if !reflect.DeepEqual(dst.MinutiaeInFingerFrame(), want.MinutiaeInFingerFrame()) {
			t.Fatalf("contact %d: finger-frame minutiae differ", i)
		}
		inCircle := 0
		for _, m := range f.minutiae {
			if c.covers(m) {
				inCircle++
			}
		}
		if len(dst.Minutiae) > inCircle+spuriousHeadroom {
			grown++
		}
		if len(dst.Minutiae) < prevLen {
			shrunk++
		}
	}
	if fresh.Uint64() != reused.Uint64() {
		t.Fatal("AcquireInto and Acquire left their RNGs out of step")
	}
	if grown == 0 || shrunk == 0 {
		t.Fatalf("sequence covered %d growth and %d shrink captures, want both > 0", grown, shrunk)
	}
}
