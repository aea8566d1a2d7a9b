// Package sensor models the paper's TFT capacitive fingerprint sensor
// array (Figs 2 and 4): a grid of capacitive cells read through a line
// decoder, a parallel-in/parallel-out shift register enabling one row
// per cycle, per-column comparators and latches, and a column mux that
// supports *selective* transfer of just the columns around the touch
// point. The package also carries the five published sensor
// configurations of Table II and an optical-sensor baseline (Fig 3).
//
// All timing is derived from the configured clock, cycle for cycle, so
// Table II's response column can be regenerated rather than asserted.
package sensor

import (
	"fmt"
	"time"
)

// Config describes one sensor array design.
type Config struct {
	Name        string
	Reference   string  // paper citation the numbers come from
	CellPitchUM float64 // cell size, micrometres
	Cols, Rows  int     // array resolution
	ClockHz     float64 // readout clock; 0 = not published (derived)
	// PaperResponse is Table II's reported scan response, used only to
	// compare our simulated response against (0 when not applicable).
	PaperResponse time.Duration
	// RowSetupCycles models row enable + settle before the parallel
	// compare (Fig 4's shift-register row enable).
	RowSetupCycles int
	// MuxWidth is how many latched column bits the output mux moves to
	// the controller per clock.
	MuxWidth int
	// NoiseSigma is comparator input noise relative to the unit ridge
	// signal.
	NoiseSigma float64
}

// Validate reports a descriptive error for an unusable configuration.
func (c Config) Validate() error {
	switch {
	case c.Cols <= 0 || c.Rows <= 0:
		return fmt.Errorf("sensor %q: non-positive resolution %dx%d", c.Name, c.Cols, c.Rows)
	case c.CellPitchUM <= 0:
		return fmt.Errorf("sensor %q: non-positive cell pitch %v", c.Name, c.CellPitchUM)
	case c.MuxWidth <= 0:
		return fmt.Errorf("sensor %q: non-positive mux width %d", c.Name, c.MuxWidth)
	case c.RowSetupCycles < 0:
		return fmt.Errorf("sensor %q: negative row setup cycles", c.Name)
	case c.ClockHz < 0:
		return fmt.Errorf("sensor %q: negative clock", c.Name)
	}
	return nil
}

// EffectiveClockHz returns the configured clock, or a clock derived
// from the published response when the reference did not state one
// (Table II "Not Mentioned" rows).
func (c Config) EffectiveClockHz() float64 {
	if c.ClockHz > 0 {
		return c.ClockHz
	}
	if c.PaperResponse <= 0 {
		return 1e6 // neutral default for ad-hoc configs
	}
	cycles := float64(c.Rows) * (float64(c.RowSetupCycles) + float64(c.Cols)/float64(c.MuxWidth))
	return cycles / c.PaperResponse.Seconds()
}

// defaults fills unset modelling knobs.
func (c Config) withDefaults() Config {
	if c.RowSetupCycles == 0 {
		c.RowSetupCycles = 2
	}
	if c.MuxWidth == 0 {
		c.MuxWidth = 1
	}
	if c.NoiseSigma == 0 {
		c.NoiseSigma = 0.12
	}
	return c
}

// TableIIConfigs returns the five published sensor designs of the
// paper's Table II, in paper order.
func TableIIConfigs() []Config {
	mk := func(name, ref string, pitch float64, cols, rows int, resp time.Duration, clock float64) Config {
		return Config{
			Name: name, Reference: ref,
			CellPitchUM: pitch, Cols: cols, Rows: rows,
			PaperResponse: resp, ClockHz: clock,
		}.withDefaults()
	}
	return []Config{
		mk("lee99", "[24] Lee et al., 600-dpi capacitive sensor", 42, 64, 256, 3*time.Millisecond, 4e6),
		mk("shigematsu99", "[20] Shigematsu et al., single-chip sensor/identifier", 81.6, 124, 166, 2*time.Millisecond, 0),
		mk("hashido03", "[10] Hashido et al., low-temp poly-Si TFT on glass", 60, 320, 250, 160*time.Millisecond, 500e3),
		mk("hara04", "[9] Hara et al., LTPS TFT with integrated comparator", 66, 304, 304, 200*time.Millisecond, 250e3),
		mk("shimamura10", "[21] Shimamura et al., capacitive-sensing circuit", 50, 224, 256, 20*time.Millisecond, 0),
	}
}

// FLockConfig is the transparent TFT patch sensor this reproduction
// places over touchscreen hot-spots: an 8x8 mm window at 50 um pitch
// driven at 4 MHz, sized so a full patch scan finishes well inside one
// touch dwell.
func FLockConfig() Config {
	return Config{
		Name:        "flock-tft",
		Reference:   "this work (Sec III-A design)",
		CellPitchUM: 50,
		Cols:        160,
		Rows:        160,
		ClockHz:     4e6,
		MuxWidth:    8, // 8-bit output bus to the fingerprint controller
	}.withDefaults()
}
