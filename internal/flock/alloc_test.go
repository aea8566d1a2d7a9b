package flock

import (
	"reflect"
	"testing"
	"time"

	"trust/internal/fingerprint"
	"trust/internal/geom"
	"trust/internal/sim"
)

// TestHandleTouchAllocBudget pins what one touch costs on the default
// (statistical) path of a warm module: nothing. An on-sensor touch is
// accounted, not imaged; panel sense reuses the panel's electrode grid
// and touch list; the capture is rewritten in the module's own storage;
// and the matcher's scratch is pooled. The race detector defeats
// sync.Pool reuse, so under it a match sometimes rebuilds its scratch.
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
	onBudget, offBudget := 0.0, 0.0
	if raceEnabled {
		onBudget = 7 // measured 2-4: the pool drops a share of its puts
	}
	if n := testing.AllocsPerRun(200, on); n > onBudget {
		t.Errorf("on-sensor touch costs %.0f allocs, budget %.0f", n, onBudget)
	}
	if n := testing.AllocsPerRun(200, off); n > offBudget {
		t.Errorf("off-sensor touch costs %.0f allocs, budget %.0f", n, offBudget)
	}
	// Template adaptation pairs minutiae in the module's kept scratch, so
	// an adapting module's confident match allocates nothing either.
	m.cfg.AdaptScoreMin = 0.6
	tpl := m.templates[0].tpl
	before := append([]fingerprint.Minutia(nil), tpl.Minutiae...)
	on()
	if n := testing.AllocsPerRun(200, on); n > onBudget {
		t.Errorf("adapting on-sensor touch costs %.0f allocs, budget %.0f", n, onBudget)
	}
	if reflect.DeepEqual(before, tpl.Minutiae) {
		t.Fatal("no touch adapted the template")
	}
}

// TestTouchOutcomesOutliveReuse is the aliasing oracle for the storage
// a module reuses across touches (panel touch list, capture, minutiae):
// every outcome HandleTouch returns is deep-copied at once, and after
// 50 further touches each must still equal its copy. The mix includes
// low-quality touches with differing reject reasons (fast swipes and
// poorly angled fingers), so an outcome whose Reasons shared storage
// with a later capture would change here.
func TestTouchOutcomesOutliveReuse(t *testing.T) {
	owner := fingerprint.Synthesize(4242, fingerprint.Loop)
	impostor := fingerprint.Synthesize(666, fingerprint.Whorl)
	m, _ := newTestModule(t)
	enrollOwner(t, m)
	rng := sim.NewRNG(0xa11a5)

	var kept, copies []TouchOutcome
	kinds := map[OutcomeKind]int{}
	reasonSets := map[string]bool{}
	for i := 0; i < 150; i++ {
		ev, finger := goldenTouch(rng, i, owner, impostor)
		if i%7 == 0 {
			ev.FingerRotation = 1.2 // beyond MaxCaptureRotationRad
		}
		out := m.HandleTouch(ev, finger)
		kinds[out.Kind]++
		if out.Kind == LowQuality {
			reasonSets[reasonKey(out.Reasons)] = true
		}
		if i < 100 {
			kept = append(kept, out)
			cp := out
			cp.Reasons = append([]fingerprint.RejectReason(nil), out.Reasons...)
			copies = append(copies, cp)
		}
	}
	for _, k := range []OutcomeKind{OutsideSensor, LowQuality, Matched} {
		if kinds[k] == 0 {
			t.Fatalf("workload produced no %v outcome: %v", k, kinds)
		}
	}
	if len(reasonSets) < 2 {
		t.Fatalf("low-quality touches gave %d distinct reason sets, want at least 2", len(reasonSets))
	}
	for i := range kept {
		if !reflect.DeepEqual(kept[i], copies[i]) {
			t.Errorf("outcome %d changed after later touches:\n got %+v\nwant %+v", i, kept[i], copies[i])
		}
	}
}

func reasonKey(rs []fingerprint.RejectReason) string {
	s := ""
	for _, r := range rs {
		s += r.String() + ","
	}
	return s
}
