// Package fingerprint implements the synthetic fingerprint substrate of
// the reproduction: per-user ridge/valley fields with ground-truth
// minutiae, partial-contact capture with the quality gates of the
// paper's Figure 6, and a minutiae matcher with Hough alignment robust
// to the partial prints the touchscreen sensors deliver (paper
// assumption 3, Section IV-A, citing partial-fingerprint matching
// [12]).
//
// The paper's hardware images a real dermal layer; we substitute a
// synthetic but per-user-stable field. What downstream code needs is
// exactly what the substitute provides: a spatial ridge/valley signal
// for the capacitive cell model to sample, and a repeatable feature set
// for the FLock fingerprint processor to match.
package fingerprint

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"trust/internal/geom"
	"trust/internal/sim"
)

// PatternType is the global ridge-flow class of a finger.
type PatternType int

// The three classical pattern classes.
const (
	Arch PatternType = iota
	Loop
	Whorl
)

func (p PatternType) String() string {
	switch p {
	case Arch:
		return "arch"
	case Loop:
		return "loop"
	case Whorl:
		return "whorl"
	default:
		return fmt.Sprintf("PatternType(%d)", int(p))
	}
}

// Physical constants of the synthetic finger model. Dimensions are in
// millimetres; ridge pitch matches the ~0.45 mm of adult fingerprints.
const (
	FingerWidthMM  = 16.0
	FingerHeightMM = 20.0
	RidgePitchMM   = 0.45
)

// Finger is one synthetic fingerprint: a smooth scalar "flow" field
// whose level sets are the ridges, plus a ground-truth minutiae
// constellation. Fingers are immutable after synthesis and safe for
// concurrent use.
type Finger struct {
	seed     uint64
	pattern  PatternType
	bounds   geom.Rect
	pitch    float64
	dir      geom.Point   // base ridge direction (unit)
	centers  []geom.Point // warp attractors
	weights  []float64    // warp strengths
	phase    float64
	minutiae []Minutia

	// The ridge field carries a +2*pi phase dislocation at every
	// minutia, so ridge endings/bifurcations physically exist in the
	// imaged pattern (image-based extraction finds them). Evaluating 56
	// atan2 terms per sample is expensive, so the field is rasterized
	// once, lazily, at rasterStepMM resolution and sampled bilinearly.
	rasterOnce sync.Once
	raster     []float32
	rasterW    int
	rasterH    int
}

// fingerCache memoizes synthesized fingers. Fingers are immutable and
// fully determined by (seed, pattern), and the harness sweeps re-derive
// the same reference fingers in every trial rig — without the cache
// each rig pays synthesis plus a fresh lazy rasterization of the same
// ridge field. The cache is bounded: once full, new fingers are still
// returned, just not retained.
var (
	fingerCache     sync.Map // fingerKey -> *Finger
	fingerCacheSize atomic.Int32
)

const fingerCacheCap = 512

type fingerKey struct {
	seed    uint64
	pattern PatternType
}

// Synthesize builds a finger from a seed. Equal seeds give identical
// fingers; distinct seeds give fingers whose minutiae constellations
// are unrelated. Repeated calls with equal arguments return one shared
// immutable instance, so its lazily-built ridge raster is paid once.
func Synthesize(seed uint64, pattern PatternType) *Finger {
	key := fingerKey{seed, pattern}
	if v, ok := fingerCache.Load(key); ok {
		return v.(*Finger)
	}
	f := synthesize(seed, pattern)
	if fingerCacheSize.Load() >= fingerCacheCap {
		return f
	}
	if v, loaded := fingerCache.LoadOrStore(key, f); loaded {
		return v.(*Finger)
	}
	fingerCacheSize.Add(1)
	return f
}

func synthesize(seed uint64, pattern PatternType) *Finger {
	rng := sim.NewRNG(seed ^ 0xf1e2d3c4b5a69788)
	f := &Finger{
		seed:    seed,
		pattern: pattern,
		bounds:  geom.RectWH(0, 0, FingerWidthMM, FingerHeightMM),
		pitch:   RidgePitchMM * (1 + 0.1*(rng.Float64()-0.5)),
		phase:   rng.Float64() * 2 * math.Pi,
	}
	baseAngle := rng.Normal(0, 0.25)
	f.dir = geom.Point{X: math.Sin(baseAngle), Y: math.Cos(baseAngle)}

	// The warp attractors bend the otherwise parallel ridge flow into
	// arch/loop/whorl shapes: each attractor adds a radial component to
	// the flow field, and the number/strength of attractors increases
	// with pattern complexity.
	nAttractors := map[PatternType]int{Arch: 1, Loop: 2, Whorl: 3}[pattern]
	strength := map[PatternType]float64{Arch: 0.25, Loop: 0.6, Whorl: 0.9}[pattern]
	c := f.bounds.Center()
	for i := 0; i < nAttractors; i++ {
		f.centers = append(f.centers, geom.Point{
			X: c.X + rng.Normal(0, 2.5),
			Y: c.Y + rng.Normal(0, 2.5),
		})
		w := strength * (0.7 + 0.6*rng.Float64())
		if i%2 == 1 {
			w = -w // alternate push/pull, giving loop/whorl curvature
		}
		f.weights = append(f.weights, w)
	}

	f.minutiae = synthesizeMinutiae(f, rng)
	return f
}

// Seed returns the synthesis seed.
func (f *Finger) Seed() uint64 { return f.seed }

// Bounds returns the finger's domain in millimetres.
func (f *Finger) Bounds() geom.Rect { return f.bounds }

// flow is the scalar field whose level sets are ridges. Its gradient is
// perpendicular to the local ridge direction.
func (f *Finger) flow(p geom.Point) float64 {
	s := p.X*f.dir.X + p.Y*f.dir.Y
	for i, c := range f.centers {
		s += f.weights[i] * p.Dist(c)
	}
	return s
}

// rasterStepMM is the ridge-field raster resolution: six samples per
// ridge period keep bilinear interpolation error well under the
// comparator noise floor.
const rasterStepMM = 0.075

// phaseAt is the full ridge phase including the minutia dislocations.
func (f *Finger) phaseAt(p geom.Point) float64 {
	phi := 2*math.Pi*f.flow(p)/f.pitch + f.phase
	for _, m := range f.minutiae {
		phi += math.Atan2(p.Y-m.Pos.Y, p.X-m.Pos.X)
	}
	return phi
}

// buildRaster evaluates cos(phase) over the finger once.
//
// The naive evaluation is cos(base + sum over minutiae of
// atan2(dy, dx)) — 56 atan2 calls per sample, which made rasterization
// the single hottest path in the whole harness. The angle sum only
// matters modulo 2*pi, so it is computed instead as the argument of the
// complex product of the (dx + i*dy) displacement vectors: one complex
// multiply per minutia, one normalization per sample. Product
// magnitudes stay far inside float64 range (each factor is between the
// 0.9 mm minutia separation and the ~25 mm finger diagonal), and the
// accumulated rounding error is orders of magnitude below the
// comparator noise the sensor model adds on top.
func (f *Finger) buildRaster() {
	f.rasterW = int(f.bounds.W()/rasterStepMM) + 2
	f.rasterH = int(f.bounds.H()/rasterStepMM) + 2
	f.raster = make([]float32, f.rasterW*f.rasterH)
	for iy := 0; iy < f.rasterH; iy++ {
		y := f.bounds.Min.Y + float64(iy)*rasterStepMM
		row := f.raster[iy*f.rasterW : (iy+1)*f.rasterW]
		for ix := range row {
			x := f.bounds.Min.X + float64(ix)*rasterStepMM
			base := 2*math.Pi*f.flow(geom.Point{X: x, Y: y})/f.pitch + f.phase
			re, im := 1.0, 0.0
			for _, m := range f.minutiae {
				dx, dy := x-m.Pos.X, y-m.Pos.Y
				if dx == 0 && dy == 0 {
					// atan2(0, 0) = 0: the dislocation centre
					// contributes no phase.
					continue
				}
				re, im = re*dx-im*dy, re*dy+im*dx
			}
			mag := math.Sqrt(re*re + im*im)
			if mag == 0 {
				row[ix] = float32(math.Cos(base))
				continue
			}
			// cos(base + arg(re + i*im)) via the angle-addition identity.
			s, c := math.Sincos(base)
			row[ix] = float32((c*re - s*im) / mag)
		}
	}
}

// RidgeValue returns the ridge/valley height at p (finger frame, mm) in
// [-1, 1]. Positive values are ridges (conductive dermal peaks under
// the capacitive model), negative values valleys. Points outside the
// finger return 0 (no skin contact). The pattern contains a real ridge
// anomaly (phase dislocation) at every ground-truth minutia.
func (f *Finger) RidgeValue(p geom.Point) float64 {
	if !f.bounds.Contains(p) {
		return 0
	}
	f.rasterOnce.Do(f.buildRaster)
	fx := (p.X - f.bounds.Min.X) / rasterStepMM
	fy := (p.Y - f.bounds.Min.Y) / rasterStepMM
	ix, iy := int(fx), int(fy)
	if ix >= f.rasterW-1 {
		ix = f.rasterW - 2
	}
	if iy >= f.rasterH-1 {
		iy = f.rasterH - 2
	}
	dx, dy := fx-float64(ix), fy-float64(iy)
	r := f.raster
	w := f.rasterW
	v00 := float64(r[iy*w+ix])
	v10 := float64(r[iy*w+ix+1])
	v01 := float64(r[(iy+1)*w+ix])
	v11 := float64(r[(iy+1)*w+ix+1])
	return (v00*(1-dx)+v10*dx)*(1-dy) + (v01*(1-dx)+v11*dx)*dy
}

// Orientation returns the local ridge direction at p in radians,
// in (-pi/2, pi/2]. Ridges run perpendicular to the flow gradient.
func (f *Finger) Orientation(p geom.Point) float64 {
	const h = 1e-3
	gx := (f.flow(geom.Point{X: p.X + h, Y: p.Y}) - f.flow(geom.Point{X: p.X - h, Y: p.Y})) / (2 * h)
	gy := (f.flow(geom.Point{X: p.X, Y: p.Y + h}) - f.flow(geom.Point{X: p.X, Y: p.Y - h})) / (2 * h)
	theta := math.Atan2(gy, gx) + math.Pi/2 // perpendicular to gradient
	// Ridge orientation is direction-free; fold into (-pi/2, pi/2].
	for theta > math.Pi/2 {
		theta -= math.Pi
	}
	for theta <= -math.Pi/2 {
		theta += math.Pi
	}
	return theta
}

// Minutiae returns a copy of the ground-truth minutiae constellation in
// the finger frame.
func (f *Finger) Minutiae() []Minutia {
	out := make([]Minutia, len(f.minutiae))
	copy(out, f.minutiae)
	return out
}

// minutiaeCount is the nominal number of ground-truth minutiae on a
// full print; real fingers carry 40-100.
const minutiaeCount = 56

func synthesizeMinutiae(f *Finger, rng *sim.RNG) []Minutia {
	inner := f.bounds.Inset(1.0)
	var out []Minutia
	const minSeparation = 0.9 // mm; minutiae are never packed tighter
	for attempts := 0; len(out) < minutiaeCount && attempts < minutiaeCount*40; attempts++ {
		p := geom.Point{
			X: inner.Min.X + rng.Float64()*inner.W(),
			Y: inner.Min.Y + rng.Float64()*inner.H(),
		}
		tooClose := false
		for _, m := range out {
			if m.Pos.Dist(p) < minSeparation {
				tooClose = true
				break
			}
		}
		if tooClose {
			continue
		}
		typ := Ending
		if rng.Bool(0.45) {
			typ = Bifurcation
		}
		// A minutia's direction follows the local ridge orientation,
		// with a random choice between the two ridge directions.
		angle := f.Orientation(p)
		if rng.Bool(0.5) {
			angle += math.Pi
		}
		out = append(out, Minutia{Pos: p, Angle: geom.WrapAngle(angle), Type: typ})
	}
	return out
}
