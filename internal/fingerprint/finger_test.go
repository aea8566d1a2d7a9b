package fingerprint

import (
	"math"
	"testing"
	"testing/quick"

	"trust/internal/geom"
)

func TestSynthesizeDeterministic(t *testing.T) {
	a := Synthesize(42, Loop)
	b := Synthesize(42, Loop)
	ma, mb := a.Minutiae(), b.Minutiae()
	if len(ma) != len(mb) {
		t.Fatalf("minutiae counts differ: %d vs %d", len(ma), len(mb))
	}
	for i := range ma {
		if ma[i] != mb[i] {
			t.Fatalf("minutia %d differs: %+v vs %+v", i, ma[i], mb[i])
		}
	}
	p := geom.Point{X: 8, Y: 10}
	if a.RidgeValue(p) != b.RidgeValue(p) {
		t.Fatal("ridge fields differ for same seed")
	}
}

func TestSynthesizeDistinctSeedsDiffer(t *testing.T) {
	a := Synthesize(1, Loop)
	b := Synthesize(2, Loop)
	same := 0
	for _, p := range []geom.Point{{X: 4, Y: 5}, {X: 8, Y: 10}, {X: 12, Y: 15}, {X: 6, Y: 12}} {
		if math.Abs(a.RidgeValue(p)-b.RidgeValue(p)) < 1e-9 {
			same++
		}
	}
	if same == 4 {
		t.Fatal("different seeds produced identical ridge values at all probes")
	}
}

func TestRidgeValueRange(t *testing.T) {
	f := Synthesize(7, Whorl)
	if err := quick.Check(func(xf, yf float64) bool {
		x := math.Mod(math.Abs(xf), FingerWidthMM)
		y := math.Mod(math.Abs(yf), FingerHeightMM)
		v := f.RidgeValue(geom.Point{X: x, Y: y})
		return v >= -1 && v <= 1
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRidgeValueOutsideBoundsIsZero(t *testing.T) {
	f := Synthesize(7, Arch)
	for _, p := range []geom.Point{{X: -1, Y: 5}, {X: 100, Y: 5}, {X: 5, Y: -0.1}, {X: 5, Y: 30}} {
		if v := f.RidgeValue(p); v != 0 {
			t.Errorf("RidgeValue(%v) = %v outside bounds", p, v)
		}
	}
}

func TestRidgePitchObserved(t *testing.T) {
	// Walking perpendicular to the ridges must cross sign changes at
	// roughly the ridge pitch (two zero crossings per period).
	f := Synthesize(3, Arch)
	center := f.Bounds().Center()
	theta := f.Orientation(center)
	normal := geom.Point{X: -math.Sin(theta), Y: math.Cos(theta)}
	const steps = 400
	const stepMM = 0.02
	crossings := 0
	prev := f.RidgeValue(center)
	for i := 1; i <= steps; i++ {
		p := center.Add(normal.Scale(float64(i) * stepMM))
		if !f.Bounds().Contains(p) {
			break
		}
		v := f.RidgeValue(p)
		if (v > 0) != (prev > 0) {
			crossings++
		}
		prev = v
	}
	if crossings < 10 {
		t.Fatalf("only %d ridge crossings along normal; field not ridge-like", crossings)
	}
}

func TestOrientationRange(t *testing.T) {
	f := Synthesize(11, Loop)
	for x := 1.0; x < FingerWidthMM; x += 2 {
		for y := 1.0; y < FingerHeightMM; y += 2 {
			theta := f.Orientation(geom.Point{X: x, Y: y})
			if theta <= -math.Pi/2-1e-9 || theta > math.Pi/2+1e-9 {
				t.Fatalf("Orientation(%v,%v) = %v out of (-pi/2, pi/2]", x, y, theta)
			}
		}
	}
}

func TestMinutiaeWithinBounds(t *testing.T) {
	for seed := uint64(0); seed < 10; seed++ {
		f := Synthesize(seed, PatternType(seed%3))
		for _, m := range f.Minutiae() {
			if !f.Bounds().Contains(m.Pos) {
				t.Fatalf("seed %d: minutia at %v outside bounds", seed, m.Pos)
			}
		}
	}
}

func TestMinutiaeCount(t *testing.T) {
	f := Synthesize(5, Whorl)
	if n := len(f.Minutiae()); n < minutiaeCount/2 {
		t.Fatalf("only %d minutiae synthesized, want near %d", n, minutiaeCount)
	}
}

func TestMinutiaeSeparation(t *testing.T) {
	f := Synthesize(9, Loop)
	ms := f.Minutiae()
	for i := range ms {
		for j := i + 1; j < len(ms); j++ {
			if d := ms[i].Pos.Dist(ms[j].Pos); d < 0.9-1e-9 {
				t.Fatalf("minutiae %d and %d only %.3f mm apart", i, j, d)
			}
		}
	}
}

func TestMinutiaeReturnsCopy(t *testing.T) {
	f := Synthesize(1, Arch)
	a := f.Minutiae()
	a[0].Pos.X = -999
	b := f.Minutiae()
	if b[0].Pos.X == -999 {
		t.Fatal("Minutiae exposes internal slice")
	}
}

func TestPatternTypeString(t *testing.T) {
	for _, c := range []struct {
		p    PatternType
		want string
	}{{Arch, "arch"}, {Loop, "loop"}, {Whorl, "whorl"}} {
		if c.p.String() != c.want {
			t.Errorf("%d.String() = %q", int(c.p), c.p.String())
		}
	}
}

func TestMinutiaTransformRoundTrip(t *testing.T) {
	if err := quick.Check(func(x, y, theta, tx, ty float64) bool {
		if math.Abs(x) > 100 || math.Abs(y) > 100 || math.Abs(theta) > 3 || math.Abs(tx) > 100 || math.Abs(ty) > 100 {
			return true
		}
		m := Minutia{Pos: geom.Point{X: x, Y: y}, Angle: geom.WrapAngle(theta), Type: Ending}
		fwd := m.Transform(theta, geom.Point{X: tx, Y: ty})
		back := Minutia{
			Pos:   fwd.Pos.Sub(geom.Point{X: tx, Y: ty}).Rotate(-theta),
			Angle: geom.WrapAngle(fwd.Angle - theta),
			Type:  fwd.Type,
		}
		return back.Pos.Dist(m.Pos) < 1e-9 && math.Abs(geom.WrapAngle(back.Angle-m.Angle)) < 1e-9
	}, nil); err != nil {
		t.Fatal(err)
	}
}

// TestRasterMatchesAnalyticPhase pins the complex-product raster fill
// (buildRaster) to the analytic reference it replaced (phaseAt): at
// every raster lattice point the stored value must equal
// cos(phaseAt(p)) to well under the sensor comparator noise floor.
func TestRasterMatchesAnalyticPhase(t *testing.T) {
	f := Synthesize(0x9a57e6, Whorl)
	f.rasterOnce.Do(f.buildRaster)
	worst := 0.0
	for iy := 0; iy < f.rasterH; iy += 3 {
		y := f.bounds.Min.Y + float64(iy)*rasterStepMM
		for ix := 0; ix < f.rasterW; ix += 3 {
			x := f.bounds.Min.X + float64(ix)*rasterStepMM
			want := math.Cos(f.phaseAt(geom.Point{X: x, Y: y}))
			got := float64(f.raster[iy*f.rasterW+ix])
			if d := math.Abs(got - want); d > worst {
				worst = d
			}
		}
	}
	// float32 storage plus the complex-product accumulation budget;
	// the comparator noise sigma the sensor adds on top is 0.12.
	if worst > 1e-4 {
		t.Fatalf("raster deviates from analytic phase by %g", worst)
	}
}

// phaseAt is the full ridge phase including the minutia dislocations:
// the analytic reference that buildRaster's complex-product form is
// checked against.
func (f *Finger) phaseAt(p geom.Point) float64 {
	phi := 2*math.Pi*f.flow(p)/f.pitch + f.phase
	for _, m := range f.minutiae {
		phi += math.Atan2(p.Y-m.Pos.Y, p.X-m.Pos.X)
	}
	return phi
}
