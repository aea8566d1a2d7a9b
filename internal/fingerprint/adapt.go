package fingerprint

import (
	"trust/internal/geom"
	"trust/internal/sim"
)

// Drifted returns a copy of the finger whose minutiae have wandered by
// N(0, sigmaMM) — the slow skin change (growth, scarring, seasonal
// dryness) that degrades a static template over months. The ridge
// field regenerates around the moved dislocations, so image-based
// extraction sees the drift too.
func (f *Finger) Drifted(sigmaMM float64, seed uint64) *Finger {
	rng := sim.NewRNG(seed ^ 0xd51f7)
	out := &Finger{
		seed:    f.seed,
		pattern: f.pattern,
		bounds:  f.bounds,
		pitch:   f.pitch,
		dir:     f.dir,
		centers: append([]geom.Point(nil), f.centers...),
		weights: append([]float64(nil), f.weights...),
		phase:   f.phase,
	}
	inner := f.bounds.Inset(1.0)
	for _, m := range f.minutiae {
		m.Pos.X += rng.Normal(0, sigmaMM)
		m.Pos.Y += rng.Normal(0, sigmaMM)
		m.Pos = inner.Clamp(m.Pos)
		out.minutiae = append(out.minutiae, m)
	}
	return out
}

// AdaptTemplate performs template aging compensation: when a capture
// matches confidently (score >= minScore), the matched template
// minutiae are nudged toward the aligned observation with weight alpha
// (an exponential moving average). res is cfg.Match(t, c), which the
// caller has already run. It reports whether an adaptation happened.
// Only confident matches adapt — otherwise an impostor could slowly
// walk the template toward their own finger. scratch, when non-nil,
// holds the pairing's flags between calls: it is grown to the
// template's size as needed and kept, so a caller that keeps one
// adapts without allocating.
func (cfg MatcherConfig) AdaptTemplate(t *Template, c *Capture, res MatchResult, minScore, alpha float64, scratch *[]bool) bool {
	if !res.Accepted || res.Score < minScore {
		return false
	}
	if scratch == nil {
		scratch = new([]bool)
	}
	if cap(*scratch) < len(t.Minutiae) {
		*scratch = make([]bool, len(t.Minutiae))
	}
	used := (*scratch)[:len(t.Minutiae)]
	clear(used)
	// Re-derive the pairing under the winning transform and apply the
	// EMA to each matched template minutia.
	adapted := false
	for _, pm := range c.Minutiae {
		moved := pm.Transform(res.Rotation, res.Shift)
		bestIdx, bestDist := -1, cfg.PosTolMM
		for i, tm := range t.Minutiae {
			if used[i] || (!cfg.IgnoreType && tm.Type != moved.Type) {
				continue
			}
			if absAngle(cfg.angleDelta(tm.Angle, moved.Angle)) > cfg.AngleTolRad {
				continue
			}
			if d := tm.Pos.Dist(moved.Pos); d <= bestDist {
				bestDist, bestIdx = d, i
			}
		}
		if bestIdx < 0 {
			continue
		}
		used[bestIdx] = true
		tm := &t.Minutiae[bestIdx]
		tm.Pos.X = (1-alpha)*tm.Pos.X + alpha*moved.Pos.X
		tm.Pos.Y = (1-alpha)*tm.Pos.Y + alpha*moved.Pos.Y
		adapted = true
	}
	return adapted
}

func absAngle(a float64) float64 {
	if a < 0 {
		return -a
	}
	return a
}
