package touch

import (
	"fmt"
	"math"
	"strings"

	"trust/internal/geom"
)

// DensityGrid is a 2-D histogram of touch locations over the screen —
// the data structure behind the paper's Fig 7 heatmaps and the input to
// the sensor placement optimizer.
type DensityGrid struct {
	screen geom.Rect
	cols   int
	rows   int
	counts []float64
	total  float64
}

// NewDensityGrid builds an empty grid of cols x rows cells over the
// screen rectangle (pixel space).
func NewDensityGrid(screen geom.Rect, cols, rows int) *DensityGrid {
	if cols <= 0 || rows <= 0 {
		panic("touch: non-positive density grid size")
	}
	return &DensityGrid{
		screen: screen,
		cols:   cols,
		rows:   rows,
		counts: make([]float64, cols*rows),
	}
}

// Size returns (cols, rows).
func (g *DensityGrid) Size() (cols, rows int) { return g.cols, g.rows }

// Screen returns the pixel rectangle the grid covers.
func (g *DensityGrid) Screen() geom.Rect { return g.screen }

// CellRect returns the pixel rectangle of cell (cx, cy).
func (g *DensityGrid) CellRect(cx, cy int) geom.Rect {
	cw := g.screen.W() / float64(g.cols)
	ch := g.screen.H() / float64(g.rows)
	return geom.RectWH(g.screen.Min.X+float64(cx)*cw, g.screen.Min.Y+float64(cy)*ch, cw, ch)
}

// cellIndex maps a point to its cell, reporting ok=false off-screen.
func (g *DensityGrid) cellIndex(p geom.Point) (int, bool) {
	if !g.screen.Contains(p) {
		return 0, false
	}
	cx := int((p.X - g.screen.Min.X) / g.screen.W() * float64(g.cols))
	cy := int((p.Y - g.screen.Min.Y) / g.screen.H() * float64(g.rows))
	if cx >= g.cols {
		cx = g.cols - 1
	}
	if cy >= g.rows {
		cy = g.rows - 1
	}
	return cy*g.cols + cx, true
}

// Add accumulates one touch. Off-screen points are ignored.
func (g *DensityGrid) Add(p geom.Point) {
	if i, ok := g.cellIndex(p); ok {
		g.counts[i]++
		g.total++
	}
}

// AddSession accumulates every event of a session.
func (g *DensityGrid) AddSession(s *Session) {
	for _, e := range s.Events {
		g.Add(e.Pos)
	}
}

// Count returns the raw count in cell (cx, cy).
func (g *DensityGrid) Count(cx, cy int) float64 {
	if cx < 0 || cx >= g.cols || cy < 0 || cy >= g.rows {
		panic("touch: density cell out of range")
	}
	return g.counts[cy*g.cols+cx]
}

// Overlap returns the Bhattacharyya coefficient between two grids of
// identical geometry: 1 for identical distributions, 0 for disjoint.
// The paper's Fig 7 observation — different users' hot-spots overlap —
// is quantified with this.
func Overlap(a, b *DensityGrid) (float64, error) {
	if a.cols != b.cols || a.rows != b.rows {
		return 0, fmt.Errorf("touch: overlap of %dx%d grid with %dx%d grid", a.cols, a.rows, b.cols, b.rows)
	}
	if a.total == 0 || b.total == 0 {
		return 0, fmt.Errorf("touch: overlap of empty grid")
	}
	sum := 0.0
	for i := range a.counts {
		sum += math.Sqrt(a.counts[i] / a.total * b.counts[i] / b.total)
	}
	return sum, nil
}

// ASCII renders the grid as a heatmap using a density ramp, the
// benchtab rendition of Fig 7.
func (g *DensityGrid) ASCII() string {
	ramp := []byte(" .:-=+*#%@")
	maxCount := 0.0
	for _, c := range g.counts {
		maxCount = math.Max(maxCount, c)
	}
	var sb strings.Builder
	for cy := 0; cy < g.rows; cy++ {
		for cx := 0; cx < g.cols; cx++ {
			level := 0
			if maxCount > 0 {
				level = int(g.Count(cx, cy) / maxCount * float64(len(ramp)-1))
			}
			sb.WriteByte(ramp[level])
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}
