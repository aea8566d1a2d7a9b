package flock

import (
	"testing"
	"time"

	"trust/internal/geom"
)

// TestHandleTouchAllocBudget pins what one touch costs on the default
// (statistical) path of a warm module. An on-sensor touch is accounted,
// not imaged, panel sense reuses the panel's electrode grid, and the
// matcher's scratch is pooled, so what is left is the panel's Touches
// slice, the *Capture and its minutiae; an off-sensor touch keeps only
// the Touches slice. The race detector defeats sync.Pool reuse, so
// under it a match sometimes rebuilds its scratch.
func TestHandleTouchAllocBudget(t *testing.T) {
	m, _ := newTestModule(t)
	f := enrollOwner(t, m)
	at := time.Duration(0)
	on := func() {
		at += time.Second
		m.HandleTouch(onSensorEvent(at), f)
	}
	off := func() {
		at += time.Second
		ev := onSensorEvent(at)
		ev.Pos = geom.Point{X: 60, Y: 100}
		m.HandleTouch(ev, f)
	}
	for i := 0; i < 10; i++ {
		on()
	}
	onBudget, offBudget := 3.0, 1.0
	if raceEnabled {
		onBudget = 10 // measured 5-7: the pool drops a share of its puts
	}
	if n := testing.AllocsPerRun(200, on); n > onBudget {
		t.Errorf("on-sensor touch costs %.0f allocs, budget %.0f", n, onBudget)
	}
	if n := testing.AllocsPerRun(200, off); n > offBudget {
		t.Errorf("off-sensor touch costs %.0f allocs, budget %.0f", n, offBudget)
	}
}
