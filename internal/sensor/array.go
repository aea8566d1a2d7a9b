package sensor

import (
	"fmt"
	"time"

	"trust/internal/geom"
	"trust/internal/sim"
)

// Field is the analog input the array images: ridge height in [-1, 1]
// at a point in the sensor's own frame (mm, origin at the array's
// top-left cell). Points off the finger return 0.
type Field func(p geom.Point) float64

// AddressingMode selects how cells are enabled (the Fig 4 ablation).
type AddressingMode int

const (
	// ParallelRow enables one full row per cycle; all comparators fire
	// simultaneously (the paper's design).
	ParallelRow AddressingMode = iota
	// SerialCell addresses one cell per cycle (the strawman the paper's
	// design improves on).
	SerialCell
)

func (m AddressingMode) String() string {
	if m == ParallelRow {
		return "parallel-row"
	}
	return "serial-cell"
}

// TransferMode selects how latched bits reach the controller.
type TransferMode int

const (
	// SelectiveTransfer moves only the columns inside the requested
	// region (the paper's design: the controller computes begin/end
	// column addresses).
	SelectiveTransfer TransferMode = iota
	// FullTransfer moves every column of each scanned row.
	FullTransfer
)

func (m TransferMode) String() string {
	if m == SelectiveTransfer {
		return "selective"
	}
	return "full"
}

// Region is a rectangular window of cells, half-open on both axes.
type Region struct {
	Row0, Row1 int // rows [Row0, Row1)
	Col0, Col1 int // cols [Col0, Col1)
}

// Rows and Cols give the region size.
func (r Region) Rows() int { return r.Row1 - r.Row0 }
func (r Region) Cols() int { return r.Col1 - r.Col0 }

// Empty reports whether the region selects no cells.
func (r Region) Empty() bool { return r.Rows() <= 0 || r.Cols() <= 0 }

func (r Region) String() string {
	return fmt.Sprintf("rows[%d,%d) cols[%d,%d)", r.Row0, r.Row1, r.Col0, r.Col1)
}

// ScanOptions selects the readout architecture for one scan.
type ScanOptions struct {
	Addressing AddressingMode
	Transfer   TransferMode
}

// ScanResult is one completed scan: the binarized image plus exact
// cycle accounting. Bits is nil for an empty region and for a scan that
// was only accounted (Account).
type ScanResult struct {
	Bits      *BitImage
	Region    Region
	Cycles    uint64
	Elapsed   time.Duration
	CellsRead int
	BitsMoved int
	Energy    sim.Joule
}

// Per-operation energy constants (arbitrary but consistent units; see
// sim.Joule). Comparator events dominate serial scans, transfer events
// dominate full-transfer scans, which is exactly the trade-off Fig 4's
// design optimizes.
const (
	energyPerCompare  sim.Joule = 2.0e-10
	energyPerBitMoved sim.Joule = 0.5e-10
	energyRowSetup    sim.Joule = 1.0e-9
)

// Array is one TFT fingerprint sensor instance.
type Array struct {
	cfg Config
	rng *sim.RNG
}

// New builds an array from cfg, filling modelling defaults and
// validating. The rng drives comparator noise; pass a forked stream.
func New(cfg Config, rng *sim.RNG) (*Array, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if rng == nil {
		rng = sim.NewRNG(0x5e4507)
	}
	return &Array{cfg: cfg, rng: rng}, nil
}

// Config returns the array's configuration (with defaults filled).
func (a *Array) Config() Config { return a.cfg }

// FullRegion selects every cell.
func (a *Array) FullRegion() Region {
	return Region{Row0: 0, Row1: a.cfg.Rows, Col0: 0, Col1: a.cfg.Cols}
}

// RegionAround returns the clipped cell window covering a circle of the
// given centre and radius (sensor frame, mm) — the controller's
// begin/end row and column address computation from Fig 4.
func (a *Array) RegionAround(center geom.Point, radiusMM float64) Region {
	pitchMM := a.cfg.CellPitchUM / 1000
	clamp := func(v, lo, hi int) int {
		if v < lo {
			return lo
		}
		if v > hi {
			return hi
		}
		return v
	}
	r := Region{
		Col0: clamp(int((center.X-radiusMM)/pitchMM), 0, a.cfg.Cols),
		Col1: clamp(int((center.X+radiusMM)/pitchMM)+1, 0, a.cfg.Cols),
		Row0: clamp(int((center.Y-radiusMM)/pitchMM), 0, a.cfg.Rows),
		Row1: clamp(int((center.Y+radiusMM)/pitchMM)+1, 0, a.cfg.Rows),
	}
	if r.Empty() {
		return Region{}
	}
	return r
}

// Scan images the field over the region with the selected readout
// architecture and returns the bit image plus cycle-exact timing. It
// draws one comparator-noise sample per cell, in row-major order, from
// the array's RNG; the accounting is Account's.
func (a *Array) Scan(field Field, region Region, opts ScanOptions) ScanResult {
	res := a.Account(region, opts)
	if region.Empty() {
		return res
	}
	pitchMM := a.cfg.CellPitchUM / 1000
	res.Bits = NewBitImage(region.Cols(), region.Rows())

	// Sense: each cell's comparator digitizes ridge height plus noise.
	for r := region.Row0; r < region.Row1; r++ {
		for c := region.Col0; c < region.Col1; c++ {
			p := geom.Point{
				X: (float64(c) + 0.5) * pitchMM,
				Y: (float64(r) + 0.5) * pitchMM,
			}
			v := field(p) + a.rng.Normal(0, a.cfg.NoiseSigma)
			if v > 0 {
				res.Bits.Set(c-region.Col0, r-region.Row0)
			}
		}
	}
	return res
}

// Account returns the Fig 4 cycle accounting of a scan of the region —
// cycles, elapsed time, cells read, bits moved and energy — without
// imaging it: every figure depends only on the region's geometry and
// the readout architecture, so Bits is nil and the array's RNG does
// not move. Callers that never read the image (the statistical capture
// model, timing-only full scans) use it instead of Scan.
func (a *Array) Account(region Region, opts ScanOptions) ScanResult {
	res := ScanResult{Region: region}
	if region.Empty() {
		return res
	}
	res.CellsRead = region.Rows() * region.Cols()

	// Cycle accounting per the Fig 4 architecture.
	var cycles uint64
	transferCols := region.Cols()
	if opts.Transfer == FullTransfer {
		transferCols = a.cfg.Cols
	}
	transferCyclesPerRow := uint64((transferCols + a.cfg.MuxWidth - 1) / a.cfg.MuxWidth)
	switch opts.Addressing {
	case ParallelRow:
		// Per row: setup + one parallel compare cycle + mux transfer.
		perRow := uint64(a.cfg.RowSetupCycles) + 1 + transferCyclesPerRow
		cycles = uint64(region.Rows()) * perRow
	case SerialCell:
		// Per cell: setup amortized per row, one compare cycle per
		// cell, then transfer.
		perRow := uint64(a.cfg.RowSetupCycles) + uint64(region.Cols()) + transferCyclesPerRow
		cycles = uint64(region.Rows()) * perRow
	}
	res.Cycles = cycles
	clock := a.cfg.EffectiveClockHz()
	res.Elapsed = time.Duration(float64(cycles) / clock * float64(time.Second))
	res.BitsMoved = region.Rows() * transferCols

	res.Energy = energyRowSetup*sim.Joule(region.Rows()) +
		energyPerCompare*sim.Joule(res.CellsRead) +
		energyPerBitMoved*sim.Joule(res.BitsMoved)
	return res
}

// ResponseFullScan returns the scan time for the whole array under the
// paper's architecture (parallel rows, transfer of all columns — for a
// full scan selective and full coincide). This is the quantity Table II
// reports.
func (a *Array) ResponseFullScan() time.Duration {
	return a.Account(a.FullRegion(), ScanOptions{
		Addressing: ParallelRow,
		Transfer:   SelectiveTransfer,
	}).Elapsed
}
