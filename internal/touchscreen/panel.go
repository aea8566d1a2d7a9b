// Package touchscreen models the paper's capacitive touch panel
// (Fig 1): two ITO electrode layers providing row and column sensing,
// a controller that scans the electrode matrix in ~4 ms, and peak
// detection that turns capacitance profiles into touch coordinates.
// The panel is the first stage of the FLock capture pipeline: it tells
// the fingerprint controller *where* to activate a sensor.
package touchscreen

import (
	"math"
	"time"

	"trust/internal/geom"
	"trust/internal/sim"
)

// Config describes one touch panel.
type Config struct {
	WidthPX, HeightPX  int     // reported coordinate space
	WidthMM, HeightMM  float64 // physical panel size
	ElectrodePitchMM   float64 // ITO electrode spacing
	ScanTime           time.Duration
	NoiseSigma         float64 // electrode noise relative to unit touch signal
	DetectionThreshold float64 // peak strength needed to report a touch
	// Mutual selects mutual-capacitance intersection scanning (true
	// multi-touch). False models the self-capacitance row+column
	// profiles the paper's Fig 1 describes, which produce ghost points
	// for 2+ simultaneous touches.
	Mutual bool
}

// DefaultConfig models the 2012-era 4.3" smartphone panel of the
// paper's experiments (HTC-class device): 480x800 px, ~4 ms scan
// (Atmel controller datasheet the paper cites).
func DefaultConfig() Config {
	return Config{
		WidthPX: 480, HeightPX: 800,
		WidthMM: 53.0, HeightMM: 88.0,
		ElectrodePitchMM:   4.6,
		ScanTime:           4 * time.Millisecond,
		NoiseSigma:         0.02,
		DetectionThreshold: 0.18,
		Mutual:             true,
	}
}

// PXPerMM returns the horizontal pixel density.
func (c Config) PXPerMM() float64 { return float64(c.WidthPX) / c.WidthMM }

// PXToMM converts a panel-space pixel point to millimetres.
func (c Config) PXToMM(p geom.Point) geom.Point {
	return geom.Point{
		X: p.X * c.WidthMM / float64(c.WidthPX),
		Y: p.Y * c.HeightMM / float64(c.HeightPX),
	}
}

// MMToPX converts a millimetre point to panel pixels.
func (c Config) MMToPX(p geom.Point) geom.Point {
	return geom.Point{
		X: p.X * float64(c.WidthPX) / c.WidthMM,
		Y: p.Y * float64(c.HeightPX) / c.HeightMM,
	}
}

// BoundsPX returns the panel rectangle in pixel space.
func (c Config) BoundsPX() geom.Rect {
	return geom.RectWH(0, 0, float64(c.WidthPX), float64(c.HeightPX))
}

// Contact is a physical finger press the panel senses.
type Contact struct {
	Pos      geom.Point // pixel coordinates
	Pressure float64    // 0..1
	RadiusMM float64    // contact patch radius
}

// Touch is a detected touch reported by the controller.
type Touch struct {
	Pos      geom.Point // pixel coordinates (centroid-refined)
	Strength float64    // peak signal
	Ghost    bool       // true for self-capacitance ghost points
}

// ScanResult is one controller scan. Touches lives in the panel's own
// buffer: it is valid until the panel's next Sense, which overwrites
// it, so a caller that keeps touches past that copies them.
type ScanResult struct {
	Touches []Touch
	Elapsed time.Duration
}

// Panel is one touch panel instance. It is not safe for concurrent
// use: a scan mutates its RNG and its electrode grid.
type Panel struct {
	cfg        Config
	rng        *sim.RNG
	rows, cols int
	// grid is the mutual scan's rows×cols electrode signal, row-major,
	// reused by every scan.
	grid []float64
	// sources holds the current scan's contacts in electrode terms and
	// touches its detected touches (ScanResult.Touches); both are
	// refilled from [:0] by every scan.
	sources []source
	touches []Touch
}

// source is one contact as the electrode sum sees it: its centre in mm
// and the constants of its Gaussian falloff, computed once per scan.
type source struct {
	mm       geom.Point
	pressure float64
	twoVar   float64 // 2*sigma*sigma, sigma = max(radius, 1 mm)
}

// New builds a panel. A nil rng gets a fixed-seed stream.
func New(cfg Config, rng *sim.RNG) *Panel {
	if rng == nil {
		rng = sim.NewRNG(0x70a6c)
	}
	rows := int(math.Ceil(cfg.HeightMM/cfg.ElectrodePitchMM)) + 1
	cols := int(math.Ceil(cfg.WidthMM/cfg.ElectrodePitchMM)) + 1
	return &Panel{cfg: cfg, rng: rng, rows: rows, cols: cols, grid: make([]float64, rows*cols)}
}

// Config returns the panel configuration.
func (p *Panel) Config() Config { return p.cfg }

// Electrodes returns the electrode matrix size (rows, cols).
func (p *Panel) Electrodes() (rows, cols int) { return p.rows, p.cols }

// signalAt returns the coupled capacitance change at an electrode
// intersection (mm coordinates) from every contact of the scan (the
// sources Sense filled): a Gaussian falloff with the contact radius as
// spatial constant.
func (p *Panel) signalAt(xMM, yMM float64) float64 {
	s := 0.0
	for _, c := range p.sources {
		d2 := (c.mm.X-xMM)*(c.mm.X-xMM) + (c.mm.Y-yMM)*(c.mm.Y-yMM)
		s += c.pressure * math.Exp(-d2/c.twoVar)
	}
	return s
}

// Sense performs one controller scan over the current contacts. The
// result's Touches is valid until the next Sense (see ScanResult).
func (p *Panel) Sense(contacts []Contact) ScanResult {
	p.sources = p.sources[:0]
	for _, c := range contacts {
		sigma := math.Max(c.RadiusMM, 1.0)
		p.sources = append(p.sources, source{mm: p.cfg.PXToMM(c.Pos), pressure: c.Pressure, twoVar: 2 * sigma * sigma})
	}
	if p.cfg.Mutual {
		return ScanResult{Touches: p.senseMutual(), Elapsed: p.cfg.ScanTime}
	}
	return ScanResult{Touches: p.senseSelf(), Elapsed: p.cfg.ScanTime}
}

// senseMutual scans every row/column intersection and reports local
// maxima above threshold, centroid-refined.
func (p *Panel) senseMutual() []Touch {
	pitch := p.cfg.ElectrodePitchMM
	cols := p.cols
	grid := p.grid
	for r := 0; r < p.rows; r++ {
		for c := 0; c < cols; c++ {
			v := p.signalAt(float64(c)*pitch, float64(r)*pitch)
			grid[r*cols+c] = v + p.rng.Normal(0, p.cfg.NoiseSigma)
		}
	}

	touches := p.touches[:0]
	for r := 1; r < p.rows-1; r++ {
		for c := 1; c < cols-1; c++ {
			v := grid[r*cols+c]
			if v < p.cfg.DetectionThreshold {
				continue
			}
			isPeak := true
			for dr := -1; dr <= 1 && isPeak; dr++ {
				for dc := -1; dc <= 1; dc++ {
					if dr == 0 && dc == 0 {
						continue
					}
					if grid[(r+dr)*cols+c+dc] > v {
						isPeak = false
						break
					}
				}
			}
			if !isPeak {
				continue
			}
			// Centroid refinement over the 3x3 neighbourhood.
			var wsum, xsum, ysum float64
			for dr := -1; dr <= 1; dr++ {
				for dc := -1; dc <= 1; dc++ {
					w := math.Max(grid[(r+dr)*cols+c+dc], 0)
					wsum += w
					xsum += w * float64(c+dc)
					ysum += w * float64(r+dr)
				}
			}
			mm := geom.Point{X: xsum / wsum * pitch, Y: ysum / wsum * pitch}
			px := p.cfg.MMToPX(mm)
			touches = append(touches, Touch{Pos: p.cfg.BoundsPX().Clamp(px), Strength: v})
		}
	}
	p.touches = touches
	return touches
}

// senseSelf scans the row profile and column profile separately (the
// Fig 1 description) and pairs the peaks. With k row peaks and k column
// peaks it reports all k*k candidates, marking combinations beyond the
// strongest diagonal pairing as ghosts.
func (p *Panel) senseSelf() []Touch {
	pitch := p.cfg.ElectrodePitchMM
	rowProf := make([]float64, p.rows)
	colProf := make([]float64, p.cols)
	for r := 0; r < p.rows; r++ {
		// A row electrode integrates signal along its length.
		for c := 0; c < p.cols; c++ {
			rowProf[r] += p.signalAt(float64(c)*pitch, float64(r)*pitch)
		}
		rowProf[r] += p.rng.Normal(0, p.cfg.NoiseSigma*math.Sqrt(float64(p.cols)))
	}
	for c := 0; c < p.cols; c++ {
		for r := 0; r < p.rows; r++ {
			colProf[c] += p.signalAt(float64(c)*pitch, float64(r)*pitch)
		}
		colProf[c] += p.rng.Normal(0, p.cfg.NoiseSigma*math.Sqrt(float64(p.rows)))
	}

	rowPeaks := profilePeaks(rowProf, p.cfg.DetectionThreshold)
	colPeaks := profilePeaks(colProf, p.cfg.DetectionThreshold)

	touches := p.touches[:0]
	for ri, r := range rowPeaks {
		for ci, c := range colPeaks {
			mm := geom.Point{X: c.pos * pitch, Y: r.pos * pitch}
			px := p.cfg.MMToPX(mm)
			touches = append(touches, Touch{
				Pos:      p.cfg.BoundsPX().Clamp(px),
				Strength: math.Min(r.strength, c.strength),
				// The diagonal pairing (strongest-with-strongest) is
				// reported as real; off-diagonal combinations are the
				// classic self-capacitance ghosts.
				Ghost: ri != ci,
			})
		}
	}
	p.touches = touches
	return touches
}

type peak struct {
	pos      float64 // fractional electrode index
	strength float64
}

// profilePeaks finds local maxima above threshold with parabolic
// sub-sample refinement, strongest first.
func profilePeaks(prof []float64, threshold float64) []peak {
	var peaks []peak
	for i := 1; i < len(prof)-1; i++ {
		if prof[i] < threshold || prof[i] < prof[i-1] || prof[i] < prof[i+1] {
			continue
		}
		// Parabolic interpolation around the peak.
		denom := prof[i-1] - 2*prof[i] + prof[i+1]
		shift := 0.0
		if denom != 0 {
			shift = 0.5 * (prof[i-1] - prof[i+1]) / denom
		}
		if shift > 0.5 {
			shift = 0.5
		}
		if shift < -0.5 {
			shift = -0.5
		}
		peaks = append(peaks, peak{pos: float64(i) + shift, strength: prof[i]})
	}
	// Sort strongest first (insertion sort; profiles are short).
	for i := 1; i < len(peaks); i++ {
		for j := i; j > 0 && peaks[j].strength > peaks[j-1].strength; j-- {
			peaks[j], peaks[j-1] = peaks[j-1], peaks[j]
		}
	}
	return peaks
}
