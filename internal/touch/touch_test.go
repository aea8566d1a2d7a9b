package touch

import (
	"testing"
	"time"

	"trust/internal/geom"
	"trust/internal/sim"
)

// MassIn returns the fraction of touches inside the pixel rectangle r,
// approximated by cell-centre membership.
func (g *DensityGrid) MassIn(r geom.Rect) float64 {
	if g.total == 0 {
		return 0
	}
	mass := 0.0
	for cy := 0; cy < g.rows; cy++ {
		for cx := 0; cx < g.cols; cx++ {
			if r.Contains(g.CellRect(cx, cy).Center()) {
				mass += g.counts[cy*g.cols+cx]
			}
		}
	}
	return mass / g.total
}

var screen = geom.RectWH(0, 0, 480, 800)

func TestReferenceUsersValid(t *testing.T) {
	users := ReferenceUsers()
	if len(users) != 3 {
		t.Fatalf("got %d reference users, want 3 (Fig 7)", len(users))
	}
	seen := map[uint64]bool{}
	for _, u := range users {
		if err := u.Validate(); err != nil {
			t.Errorf("user %s: %v", u.Name, err)
		}
		if seen[u.FingerSeed] {
			t.Errorf("user %s shares a finger seed", u.Name)
		}
		seen[u.FingerSeed] = true
	}
}

func TestSamplePointOnScreen(t *testing.T) {
	rng := sim.NewRNG(1)
	for _, u := range ReferenceUsers() {
		for i := 0; i < 2000; i++ {
			p := u.SamplePoint(screen, rng)
			if !screen.Contains(p) {
				t.Fatalf("user %s sampled off-screen point %v", u.Name, p)
			}
		}
	}
}

func TestSamplePointConcentratesAtHotspots(t *testing.T) {
	rng := sim.NewRNG(2)
	u := ReferenceUsers()[0]
	near := 0
	const n = 5000
	for i := 0; i < n; i++ {
		p := u.SamplePoint(screen, rng)
		for _, h := range u.Hotspots {
			if p.Dist(h.Center) < 3*h.SigmaPX {
				near++
				break
			}
		}
	}
	if frac := float64(near) / n; frac < 0.9 {
		t.Fatalf("only %.2f of touches near declared hotspots", frac)
	}
}

func TestGenerateSessionLength(t *testing.T) {
	rng := sim.NewRNG(3)
	for _, n := range []int{1, 10, 500} {
		s, err := GenerateSession(ReferenceUsers()[1], screen, n, rng)
		if err != nil {
			t.Fatal(err)
		}
		if len(s.Events) != n {
			t.Fatalf("session has %d events, want %d", len(s.Events), n)
		}
	}
}

func TestGenerateSessionRejectsBadInput(t *testing.T) {
	rng := sim.NewRNG(4)
	if _, err := GenerateSession(ReferenceUsers()[0], screen, 0, rng); err == nil {
		t.Error("zero-length session accepted")
	}
	if _, err := GenerateSession(UserModel{Name: "x"}, screen, 5, rng); err == nil {
		t.Error("hotspot-free user accepted")
	}
}

func TestSessionEventsOrderedAndOnScreen(t *testing.T) {
	rng := sim.NewRNG(5)
	s, err := GenerateSession(ReferenceUsers()[2], screen, 300, rng)
	if err != nil {
		t.Fatal(err)
	}
	prev := time.Duration(-1)
	for i, e := range s.Events {
		if e.At < prev {
			t.Fatalf("event %d at %v before previous %v", i, e.At, prev)
		}
		prev = e.At
		if !screen.Contains(e.Pos) {
			t.Fatalf("event %d off-screen at %v", i, e.Pos)
		}
		if e.Pressure <= 0 || e.Pressure > 1 {
			t.Fatalf("event %d pressure %v", i, e.Pressure)
		}
		if e.RadiusMM < 2 {
			t.Fatalf("event %d radius %v", i, e.RadiusMM)
		}
		if e.DwellTime <= 0 {
			t.Fatalf("event %d dwell %v", i, e.DwellTime)
		}
	}
	if s.Duration() <= 0 {
		t.Fatal("session duration not positive")
	}
}

func TestSessionMixesGestures(t *testing.T) {
	rng := sim.NewRNG(6)
	s, _ := GenerateSession(ReferenceUsers()[0], screen, 800, rng)
	kinds := map[GestureKind]int{}
	for _, e := range s.Events {
		kinds[e.Kind]++
	}
	for _, k := range []GestureKind{Tap, Swipe, LongPress} {
		if kinds[k] == 0 {
			t.Errorf("no %v gestures in an 800-event session", k)
		}
	}
}

func TestSwipesFasterThanTaps(t *testing.T) {
	rng := sim.NewRNG(7)
	s, _ := GenerateSession(ReferenceUsers()[0], screen, 800, rng)
	var tapMax, swipeMax float64
	for _, e := range s.Events {
		switch e.Kind {
		case Tap:
			if e.SpeedMMS > tapMax {
				tapMax = e.SpeedMMS
			}
		case Swipe:
			if e.SpeedMMS > swipeMax {
				swipeMax = e.SpeedMMS
			}
		}
	}
	if swipeMax <= tapMax {
		t.Fatalf("swipe max speed %v not above tap max %v", swipeMax, tapMax)
	}
}

func TestDensityGridAccumulates(t *testing.T) {
	g := NewDensityGrid(screen, 12, 20)
	g.Add(geom.Point{X: 10, Y: 10})
	g.Add(geom.Point{X: 10, Y: 10})
	g.Add(geom.Point{X: 470, Y: 790})
	g.Add(geom.Point{X: -5, Y: 10}) // off-screen, ignored
	if g.total != 3 {
		t.Fatalf("total = %v, want 3", g.total)
	}
	if g.Count(0, 0) != 2 {
		t.Fatalf("corner cell = %v, want 2", g.Count(0, 0))
	}
}

func TestDensityGridMassIn(t *testing.T) {
	g := NewDensityGrid(screen, 12, 20)
	for i := 0; i < 100; i++ {
		g.Add(geom.Point{X: 100, Y: 100})
	}
	if m := g.MassIn(geom.RectWH(0, 0, 240, 400)); m != 1 {
		t.Fatalf("mass in covering quadrant = %v, want 1", m)
	}
	if m := g.MassIn(geom.RectWH(240, 400, 240, 400)); m != 0 {
		t.Fatalf("mass in empty quadrant = %v, want 0", m)
	}
}

func TestOverlapIdentityAndDisjoint(t *testing.T) {
	a := NewDensityGrid(screen, 12, 20)
	b := NewDensityGrid(screen, 12, 20)
	c := NewDensityGrid(screen, 12, 20)
	for i := 0; i < 50; i++ {
		a.Add(geom.Point{X: 100, Y: 100})
		b.Add(geom.Point{X: 100, Y: 100})
		c.Add(geom.Point{X: 400, Y: 700})
	}
	if ov, err := Overlap(a, b); err != nil || ov < 0.999 {
		t.Fatalf("identical overlap = %v, %v", ov, err)
	}
	if ov, err := Overlap(a, c); err != nil || ov > 1e-9 {
		t.Fatalf("disjoint overlap = %v, %v", ov, err)
	}
}

func TestOverlapErrors(t *testing.T) {
	a := NewDensityGrid(screen, 12, 20)
	b := NewDensityGrid(screen, 10, 20)
	if _, err := Overlap(a, b); err == nil {
		t.Error("mismatched grids accepted")
	}
	c := NewDensityGrid(screen, 12, 20)
	if _, err := Overlap(a, c); err == nil {
		t.Error("empty grids accepted")
	}
}

func TestReferenceUsersShareKeyboardRegion(t *testing.T) {
	// The paper's placement argument requires cross-user hot-spot
	// overlap; the keyboard band must attract substantial mass for all
	// three users.
	rng := sim.NewRNG(8)
	keyboard := geom.RectWH(40, 620, 400, 175)
	for _, u := range ReferenceUsers() {
		g := NewDensityGrid(screen, 24, 40)
		s, _ := GenerateSession(u, screen, 2000, rng)
		g.AddSession(s)
		if m := g.MassIn(keyboard); m < 0.2 {
			t.Errorf("user %s keyboard mass %.3f, want >= 0.2", u.Name, m)
		}
	}
}

func TestReferenceUsersPairwiseOverlap(t *testing.T) {
	rng := sim.NewRNG(9)
	users := ReferenceUsers()
	grids := make([]*DensityGrid, len(users))
	for i, u := range users {
		grids[i] = NewDensityGrid(screen, 24, 40)
		s, _ := GenerateSession(u, screen, 3000, rng)
		grids[i].AddSession(s)
	}
	for i := 0; i < len(grids); i++ {
		for j := i + 1; j < len(grids); j++ {
			ov, err := Overlap(grids[i], grids[j])
			if err != nil {
				t.Fatal(err)
			}
			if ov < 0.3 || ov > 0.95 {
				t.Errorf("users %d/%d overlap %.3f: want distinct-but-overlapping (0.3..0.95)", i, j, ov)
			}
		}
	}
}

func TestDensityASCIIShape(t *testing.T) {
	g := NewDensityGrid(screen, 12, 20)
	for i := 0; i < 10; i++ {
		g.Add(geom.Point{X: 240, Y: 400})
	}
	art := g.ASCII()
	lines := 0
	for _, r := range art {
		if r == '\n' {
			lines++
		}
	}
	if lines != 20 {
		t.Fatalf("ASCII has %d lines, want 20", lines)
	}
}

func TestGestureKindStrings(t *testing.T) {
	for _, k := range []GestureKind{Tap, Swipe, LongPress, Pinch} {
		if k.String() == "" {
			t.Errorf("kind %d has empty string", int(k))
		}
	}
}
