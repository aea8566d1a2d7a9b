package fingerprint

import (
	"math"
	"sync"

	"trust/internal/geom"
)

// Matcher parameters. The probe frame differs from the template frame
// by an unknown rotation and translation; the matcher recovers the
// transform by Hough voting over minutia pairs and then scores greedy
// one-to-one pairings under the recovered transform.
type MatcherConfig struct {
	PosTolMM    float64 // pairing tolerance in position
	AngleTolRad float64 // pairing tolerance in minutia direction
	RotBinRad   float64 // Hough rotation bin width
	PosBinMM    float64 // Hough translation bin width
	MaxRotRad   float64 // largest finger rotation considered
	Threshold   float64 // accept decision boundary on Score
	MinMatched  int     // accept also requires at least this many pairs
	// IgnoreType pairs minutiae regardless of ending/bifurcation class.
	// Crossing-number type flips under image noise, so image-extracted
	// feature sets match better type-agnostically; the statistical
	// pipeline keeps type checks on.
	IgnoreType bool
	// OrientationOnly compares minutia angles modulo pi: image-based
	// extraction estimates the (undirected) local ridge orientation,
	// which is far more stable under noise than a directed angle.
	OrientationOnly bool
}

// angleDelta is the signed rotation between two minutia angles under
// the configured angle semantics.
func (cfg MatcherConfig) angleDelta(a, b float64) float64 {
	d := geom.WrapAngle(a - b)
	if cfg.OrientationOnly {
		if d > math.Pi/2 {
			d -= math.Pi
		}
		if d <= -math.Pi/2 {
			d += math.Pi
		}
	}
	return d
}

// DefaultMatcher is calibrated for the synthetic finger model: genuine
// partial captures score well above Threshold, impostors well below
// (see match_test.go for the measured separation).
func DefaultMatcher() MatcherConfig {
	return MatcherConfig{
		PosTolMM:    0.65,
		AngleTolRad: 0.45,
		RotBinRad:   0.10,
		PosBinMM:    0.80,
		MaxRotRad:   0.9,
		Threshold:   0.45,
		MinMatched:  5,
	}
}

// MatchResult reports one template-vs-capture comparison.
type MatchResult struct {
	Score    float64 // matched fraction of usable probe minutiae, 0..1
	Matched  int     // paired minutiae under the best transform
	Probe    int     // usable probe minutiae
	Rotation float64 // recovered rotation (probe -> template)
	Shift    geom.Point
	Accepted bool
}

// hyp is one Hough transform hypothesis: a (rotation, translation) bin
// and its vote count.
type hyp struct {
	rot, tx, ty int
	count       int32
}

// hypLess is the deterministic hypothesis ordering: strongest first,
// ties broken on the bin key. It matches the order a serial sort of the
// old map-based accumulator produced, so hypothesis evaluation order —
// and therefore every MatchResult — is unchanged.
func hypLess(a, b hyp) bool {
	if a.count != b.count {
		return a.count > b.count
	}
	if a.rot != b.rot {
		return a.rot < b.rot
	}
	if a.tx != b.tx {
		return a.tx < b.tx
	}
	return a.ty < b.ty
}

// maxHyps is how many top vote peaks are scored exactly (neighbouring
// bins can split the true peak).
const maxHyps = 6

// matchScratch holds the per-call working memory of Match. The vote
// accumulator is a dense (rotation x tx x ty) grid reset sparsely via
// the touched list, so a comparison allocates nothing in steady state;
// scratches are recycled through a sync.Pool, which keeps the matcher
// safe under the parallel sweep engine (each worker checks out its
// own).
type matchScratch struct {
	votes   []int32 // dense vote grid, zero outside touched
	touched []int32 // indices of non-zero votes
	top     [maxHyps]hyp

	// rotTab holds the sine and cosine of every Hough rotation bin's
	// angle (bin b at index b+rotHalf) for the bin width rotTabBin, so
	// the vote rotates each probe minutia without a Sincos per pair.
	rotTab    []sincos
	rotTabBin float64

	// Spatial grid over template minutiae for countMatches: cellStart
	// is CSR-style offsets into cellItems, cells are PosTolMM-sized.
	cellStart []int32
	cellItems []int32
	cellCount []int32
	used      []bool

	gridMinX, gridMinY float64
	gridCell           float64
	gridCols, gridRows int
}

type sincos struct{ sin, cos float64 }

// fillRotTab makes sc.rotTab hold the 2*rotHalf+1 bins of width binRad,
// recomputing it only when either changed since the last match.
func (sc *matchScratch) fillRotTab(binRad float64, rotHalf int) {
	if sc.rotTabBin == binRad && len(sc.rotTab) == 2*rotHalf+1 {
		return
	}
	sc.rotTab = grow(sc.rotTab, 2*rotHalf+1)
	for i := range sc.rotTab {
		s, c := math.Sincos(float64(i-rotHalf) * binRad)
		sc.rotTab[i] = sincos{sin: s, cos: c}
	}
	sc.rotTabBin = binRad
}

var scratchPool = sync.Pool{New: func() any { return &matchScratch{} }}

// grow returns s resized to n, reusing capacity.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// Match compares an enrolled template against a capture. Captures that
// failed the quality gate still get a score (attack experiments need
// it); the caller is responsible for discarding them per Fig 6.
func (cfg MatcherConfig) Match(t *Template, c *Capture) MatchResult {
	probe := c.Minutiae
	res := MatchResult{Probe: len(probe)}
	if len(probe) < MinProbeMinutiae || len(t.Minutiae) == 0 {
		return res
	}

	sc := scratchPool.Get().(*matchScratch)
	defer scratchPool.Put(sc)

	// Dense Hough accumulator extents: rotation bins span [-MaxRot,
	// MaxRot]; translation bins are bounded by the largest possible
	// shift magnitude (rotation preserves the norm of a position, so
	// |shift| <= max|template pos| + max|probe pos|).
	rotHalf := int(cfg.MaxRotRad/cfg.RotBinRad) + 1
	maxNorm := func(ms []Minutia) float64 {
		m := 0.0
		for _, x := range ms {
			if n := math.Abs(x.Pos.X) + math.Abs(x.Pos.Y); n > m {
				m = n
			}
		}
		return m
	}
	posHalf := int((maxNorm(t.Minutiae)+maxNorm(probe))/cfg.PosBinMM) + 2
	rotSpan, posSpan := 2*rotHalf+1, 2*posHalf+1
	sc.votes = grow(sc.votes, rotSpan*posSpan*posSpan)
	sc.touched = sc.touched[:0]

	cfg.houghVote(sc, t.Minutiae, probe, rotHalf, posHalf, posSpan)
	if len(sc.touched) == 0 {
		return res
	}

	// Select the strongest few hypotheses by partial insertion into a
	// fixed top-k array under the deterministic hypLess order.
	nTop := 0
	for _, idx := range sc.touched {
		count := sc.votes[idx]
		sc.votes[idx] = 0 // sparse reset for the next call
		i := int(idx)
		ty := i%posSpan - posHalf
		i /= posSpan
		tx := i%posSpan - posHalf
		rot := i/posSpan - rotHalf
		h := hyp{rot: rot, tx: tx, ty: ty, count: count}
		if nTop == maxHyps && !hypLess(h, sc.top[nTop-1]) {
			continue
		}
		if nTop < maxHyps {
			nTop++
		}
		j := nTop - 1
		for j > 0 && hypLess(h, sc.top[j-1]) {
			sc.top[j] = sc.top[j-1]
			j--
		}
		sc.top[j] = h
	}

	// Spatial grid over the template for the pairing scans, and the
	// one-to-one usage marks.
	sc.buildTemplateGrid(t, cfg.PosTolMM)
	sc.used = grow(sc.used, len(t.Minutiae))

	best := res
	for _, h := range sc.top[:nTop] {
		rot := float64(h.rot) * cfg.RotBinRad
		shift := geom.Point{
			X: float64(h.tx) * cfg.PosBinMM,
			Y: float64(h.ty) * cfg.PosBinMM,
		}
		// Refine: the Hough bin centre carries up to half a bin of
		// translation error, which eats most of the pairing tolerance.
		// Re-centre the shift on the mean residual of the paired
		// minutiae and re-count (two rounds are enough to converge).
		matched, residual := cfg.countMatches(sc, t, probe, rot, shift)
		for round := 0; round < 2 && matched > 0; round++ {
			refined := shift.Add(residual)
			m2, r2 := cfg.countMatches(sc, t, probe, rot, refined)
			if m2 < matched {
				break
			}
			shift, matched, residual = refined, m2, r2
		}
		score := float64(matched) / float64(len(probe))
		if score > best.Score {
			best = MatchResult{
				Score:    score,
				Matched:  matched,
				Probe:    len(probe),
				Rotation: rot,
				Shift:    shift,
			}
		}
	}
	best.Accepted = best.Score >= cfg.Threshold && best.Matched >= cfg.MinMatched
	return best
}

// houghVote casts one vote per compatible (template, probe) minutia
// pair: the angle difference proposes a rotation bin, and within it
// the positions propose a translation bin. Votes land in the dense
// accumulator with first-touch indices recorded for sparse reset. The
// rotation comes from the per-bin table in the same X*c-Y*s, X*s+Y*c
// form as geom.Point.Rotate, so every vote lands where a per-pair
// Rotate would put it.
func (cfg MatcherConfig) houghVote(sc *matchScratch, tms, probe []Minutia, rotHalf, posHalf, posSpan int) {
	sc.fillRotTab(cfg.RotBinRad, rotHalf)
	for _, tm := range tms {
		for _, pm := range probe {
			if !cfg.IgnoreType && tm.Type != pm.Type {
				continue
			}
			dTheta := cfg.angleDelta(tm.Angle, pm.Angle)
			if math.Abs(dTheta) > cfg.MaxRotRad {
				continue
			}
			rotBin := int(math.Round(dTheta / cfg.RotBinRad))
			r := sc.rotTab[rotBin+rotHalf]
			moved := geom.Point{X: pm.Pos.X*r.cos - pm.Pos.Y*r.sin, Y: pm.Pos.X*r.sin + pm.Pos.Y*r.cos}
			shift := tm.Pos.Sub(moved)
			tx := int(math.Round(shift.X / cfg.PosBinMM))
			ty := int(math.Round(shift.Y / cfg.PosBinMM))
			idx := int32(((rotBin+rotHalf)*posSpan+(tx+posHalf))*posSpan + (ty + posHalf))
			if sc.votes[idx] == 0 {
				sc.touched = append(sc.touched, idx)
			}
			sc.votes[idx]++
		}
	}
}

// templateGridCell is the pairing-grid cell size in multiples of the
// position tolerance: with cells exactly one tolerance wide, every
// candidate within tolerance of a query sits in the 3x3 neighbourhood
// of the query's cell.
func (sc *matchScratch) buildTemplateGrid(t *Template, cellMM float64) {
	minX, minY := math.Inf(1), math.Inf(1)
	maxX, maxY := math.Inf(-1), math.Inf(-1)
	for _, m := range t.Minutiae {
		minX = math.Min(minX, m.Pos.X)
		minY = math.Min(minY, m.Pos.Y)
		maxX = math.Max(maxX, m.Pos.X)
		maxY = math.Max(maxY, m.Pos.Y)
	}
	sc.gridMinX, sc.gridMinY, sc.gridCell = minX, minY, cellMM
	sc.gridCols = int((maxX-minX)/cellMM) + 1
	sc.gridRows = int((maxY-minY)/cellMM) + 1
	n := sc.gridCols * sc.gridRows
	sc.cellCount = grow(sc.cellCount, n)
	for i := range sc.cellCount {
		sc.cellCount[i] = 0
	}
	for _, m := range t.Minutiae {
		sc.cellCount[sc.cellOf(m.Pos)]++
	}
	sc.cellStart = grow(sc.cellStart, n+1)
	acc := int32(0)
	for i := 0; i < n; i++ {
		sc.cellStart[i] = acc
		acc += sc.cellCount[i]
	}
	sc.cellStart[n] = acc
	sc.cellItems = grow(sc.cellItems, len(t.Minutiae))
	for i := range sc.cellCount {
		sc.cellCount[i] = 0
	}
	// Fill in template order so each cell lists minutiae by ascending
	// index — the tie-break below depends on knowing indices, not
	// order, so any fill order works; ascending keeps scans cache-tidy.
	for i, m := range t.Minutiae {
		c := sc.cellOf(m.Pos)
		sc.cellItems[sc.cellStart[c]+sc.cellCount[c]] = int32(i)
		sc.cellCount[c]++
	}
}

func (sc *matchScratch) cellOf(p geom.Point) int {
	cx := int((p.X - sc.gridMinX) / sc.gridCell)
	cy := int((p.Y - sc.gridMinY) / sc.gridCell)
	if cx < 0 {
		cx = 0
	} else if cx >= sc.gridCols {
		cx = sc.gridCols - 1
	}
	if cy < 0 {
		cy = 0
	} else if cy >= sc.gridRows {
		cy = sc.gridRows - 1
	}
	return cy*sc.gridCols + cx
}

// countMatches counts a greedy one-to-one pairing between the probe
// (moved by rot/shift) and the template, and returns the mean pairing
// residual (template minus moved probe) for transform refinement. The
// template is scanned through the scratch's spatial grid — only the
// 3x3 cell neighbourhood of each moved probe minutia — instead of the
// full O(template x probe) inner loop; the tie-break (equal distances
// resolve to the higher template index) replicates the full scan's
// "last best wins" behaviour exactly.
func (cfg MatcherConfig) countMatches(sc *matchScratch, t *Template, probe []Minutia, rot float64, shift geom.Point) (int, geom.Point) {
	for i := range sc.used[:len(t.Minutiae)] {
		sc.used[i] = false
	}
	matched := 0
	var residual geom.Point
	sinR, cosR := math.Sincos(rot)
	for _, pm := range probe {
		// Inline pm.Transform(rot, shift) with the hoisted sincos.
		moved := Minutia{
			Pos: geom.Point{
				X: pm.Pos.X*cosR - pm.Pos.Y*sinR + shift.X,
				Y: pm.Pos.X*sinR + pm.Pos.Y*cosR + shift.Y,
			},
			Angle: geom.WrapAngle(pm.Angle + rot),
			Type:  pm.Type,
		}
		bestIdx, bestDist := -1, cfg.PosTolMM

		cx := int((moved.Pos.X - sc.gridMinX) / sc.gridCell)
		cy := int((moved.Pos.Y - sc.gridMinY) / sc.gridCell)
		for dy := -1; dy <= 1; dy++ {
			gy := cy + dy
			if gy < 0 || gy >= sc.gridRows {
				continue
			}
			for dx := -1; dx <= 1; dx++ {
				gx := cx + dx
				if gx < 0 || gx >= sc.gridCols {
					continue
				}
				cell := gy*sc.gridCols + gx
				for _, ti := range sc.cellItems[sc.cellStart[cell]:sc.cellStart[cell+1]] {
					i := int(ti)
					tm := t.Minutiae[i]
					if sc.used[i] || (!cfg.IgnoreType && tm.Type != moved.Type) {
						continue
					}
					if math.Abs(cfg.angleDelta(tm.Angle, moved.Angle)) > cfg.AngleTolRad {
						continue
					}
					d := tm.Pos.Dist(moved.Pos)
					if d < bestDist || (d == bestDist && i > bestIdx) {
						bestDist, bestIdx = d, i
					}
				}
			}
		}
		if bestIdx >= 0 {
			residual = residual.Add(t.Minutiae[bestIdx].Pos.Sub(moved.Pos))
			sc.used[bestIdx] = true
			matched++
		}
	}
	if matched > 0 {
		residual = residual.Scale(1 / float64(matched))
	}
	return matched, residual
}
