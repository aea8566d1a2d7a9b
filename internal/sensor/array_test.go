package sensor

import (
	"math"
	"testing"
	"time"

	"trust/internal/fingerprint"
	"trust/internal/geom"
	"trust/internal/sim"
)

// WidthMM and HeightMM give the physical sensing area.
func (c Config) WidthMM() float64  { return float64(c.Cols) * c.CellPitchUM / 1000 }
func (c Config) HeightMM() float64 { return float64(c.Rows) * c.CellPitchUM / 1000 }

func mustArray(t *testing.T, cfg Config) *Array {
	t.Helper()
	a, err := New(cfg, sim.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{Name: "r", Cols: 0, Rows: 10, CellPitchUM: 50},
		{Name: "p", Cols: 10, Rows: 10, CellPitchUM: 0},
		{Name: "m", Cols: 10, Rows: 10, CellPitchUM: 50, MuxWidth: -1},
		{Name: "c", Cols: 10, Rows: 10, CellPitchUM: 50, MuxWidth: 1, ClockHz: -5},
	}
	for _, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("config %q validated but should not", cfg.Name)
		}
	}
	if err := FLockConfig().Validate(); err != nil {
		t.Errorf("FLockConfig invalid: %v", err)
	}
}

func TestPhysicalDimensions(t *testing.T) {
	cfg := FLockConfig()
	if w := cfg.WidthMM(); math.Abs(w-8.0) > 1e-9 {
		t.Errorf("width = %v mm, want 8", w)
	}
	if h := cfg.HeightMM(); math.Abs(h-8.0) > 1e-9 {
		t.Errorf("height = %v mm, want 8", h)
	}
}

func TestTableIIResponsesMatchPaperShape(t *testing.T) {
	// The simulated full-scan response must stay within 2.2x of the
	// published response for every Table II design: exact silicon
	// details differ, but the row/clock scaling must hold.
	for _, cfg := range TableIIConfigs() {
		a := mustArray(t, cfg)
		got := a.ResponseFullScan()
		paper := cfg.PaperResponse
		ratio := float64(got) / float64(paper)
		if ratio > 2.2 || ratio < 1/2.2 {
			t.Errorf("%s: simulated %v vs paper %v (ratio %.2f)", cfg.Name, got, paper, ratio)
		}
	}
}

func TestDerivedClockReproducesResponse(t *testing.T) {
	// Rows with unpublished clocks derive one from the paper response;
	// the derived clock must then reproduce that response closely.
	for _, cfg := range TableIIConfigs() {
		if cfg.ClockHz != 0 {
			continue
		}
		a := mustArray(t, cfg)
		got := a.ResponseFullScan()
		if ratio := float64(got) / float64(cfg.PaperResponse); math.Abs(ratio-1) > 0.25 {
			t.Errorf("%s: derived-clock response %v vs paper %v", cfg.Name, got, cfg.PaperResponse)
		}
	}
}

func TestRegionAroundClipsToArray(t *testing.T) {
	a := mustArray(t, FLockConfig())
	r := a.RegionAround(geom.Point{X: 0.2, Y: 0.2}, 5)
	if r.Row0 != 0 || r.Col0 != 0 {
		t.Errorf("region not clipped at origin: %v", r)
	}
	if r.Row1 > a.Config().Rows || r.Col1 > a.Config().Cols {
		t.Errorf("region exceeds array: %v", r)
	}
	if a.RegionAround(geom.Point{X: -20, Y: -20}, 1).Empty() == false {
		t.Error("far-outside region should be empty")
	}
}

func TestRegionAroundCoversCircle(t *testing.T) {
	a := mustArray(t, FLockConfig())
	center := geom.Point{X: 4, Y: 4}
	r := a.RegionAround(center, 2)
	pitch := a.Config().CellPitchUM / 1000
	wantCells := int(4 / pitch) // diameter in cells
	if r.Cols() < wantCells || r.Rows() < wantCells {
		t.Errorf("region %v too small for 2 mm radius", r)
	}
}

func TestScanImagesRidges(t *testing.T) {
	// A vertical stripe field must produce a striped image with ridge
	// fraction near 1/2 despite comparator noise.
	a := mustArray(t, FLockConfig())
	field := func(p geom.Point) float64 { return math.Cos(2 * math.Pi * p.X / 0.45) }
	res := a.Scan(field, a.FullRegion(), ScanOptions{})
	frac := res.Bits.RidgeFraction()
	if frac < 0.4 || frac > 0.6 {
		t.Fatalf("ridge fraction %v, want ~0.5", frac)
	}
}

func TestScanClassificationAccuracy(t *testing.T) {
	// E4: imaging a synthetic finger must classify ridge vs valley well
	// above chance despite comparator noise.
	f := fingerprint.Synthesize(42, fingerprint.Loop)
	a := mustArray(t, FLockConfig())
	offset := geom.Point{X: 4, Y: 6} // finger region under the sensor
	field := func(p geom.Point) float64 { return f.RidgeValue(p.Add(offset)) }
	region := a.FullRegion()
	res := a.Scan(field, region, ScanOptions{})

	pitch := a.Config().CellPitchUM / 1000
	correct, total := 0, 0
	for y := 0; y < res.Bits.H(); y++ {
		for x := 0; x < res.Bits.W(); x++ {
			p := geom.Point{X: (float64(x) + 0.5) * pitch, Y: (float64(y) + 0.5) * pitch}
			truth := f.RidgeValue(p.Add(offset))
			if math.Abs(truth) < 0.3 {
				continue // skip ambiguous transition zones
			}
			total++
			if (truth > 0) == res.Bits.Get(x, y) {
				correct++
			}
		}
	}
	if total == 0 {
		t.Fatal("no unambiguous cells")
	}
	if acc := float64(correct) / float64(total); acc < 0.9 {
		t.Fatalf("ridge classification accuracy %.3f, want >= 0.9", acc)
	}
}

func TestSelectiveTransferFasterThanFull(t *testing.T) {
	a := mustArray(t, FLockConfig())
	region := a.RegionAround(geom.Point{X: 4, Y: 4}, 2)
	field := func(geom.Point) float64 { return 1 }
	sel := a.Scan(field, region, ScanOptions{Addressing: ParallelRow, Transfer: SelectiveTransfer})
	full := a.Scan(field, region, ScanOptions{Addressing: ParallelRow, Transfer: FullTransfer})
	if sel.Elapsed >= full.Elapsed {
		t.Fatalf("selective %v not faster than full %v", sel.Elapsed, full.Elapsed)
	}
	if sel.BitsMoved >= full.BitsMoved {
		t.Fatalf("selective moved %d bits, full %d", sel.BitsMoved, full.BitsMoved)
	}
}

func TestParallelFasterThanSerial(t *testing.T) {
	a := mustArray(t, FLockConfig())
	region := a.FullRegion()
	field := func(geom.Point) float64 { return 1 }
	par := a.Scan(field, region, ScanOptions{Addressing: ParallelRow})
	ser := a.Scan(field, region, ScanOptions{Addressing: SerialCell})
	if float64(ser.Elapsed)/float64(par.Elapsed) < 5 {
		t.Fatalf("serial %v vs parallel %v: expected >= 5x gap", ser.Elapsed, par.Elapsed)
	}
}

func TestScanEmptyRegion(t *testing.T) {
	a := mustArray(t, FLockConfig())
	res := a.Scan(func(geom.Point) float64 { return 1 }, Region{}, ScanOptions{})
	if res.Cycles != 0 || res.CellsRead != 0 || res.Bits != nil {
		t.Fatalf("empty region scan: %+v", res)
	}
}

// TestAccountMatchesScan is the differential test between the two
// ways to account a scan: Account (geometry only) and Scan (image, then
// account). For every design, addressing and transfer mode and every
// kind of region, every field but Bits must agree.
func TestAccountMatchesScan(t *testing.T) {
	field := func(p geom.Point) float64 { return math.Sin(p.X*9) * math.Cos(p.Y*7) }
	for _, cfg := range append(TableIIConfigs(), FLockConfig()) {
		a := mustArray(t, cfg)
		w, h := cfg.WidthMM(), cfg.HeightMM()
		regions := []struct {
			name   string
			region Region
		}{
			{"empty", Region{}},
			{"inverted", Region{Row0: 3, Row1: 1, Col0: 0, Col1: 4}},
			{"full", a.FullRegion()},
			{"clipped-topleft", a.RegionAround(geom.Point{X: 0.2, Y: 0.3}, 2)},
			{"clipped-bottom", a.RegionAround(geom.Point{X: w - 0.1, Y: h - 0.4}, 3)},
			{"around", a.RegionAround(geom.Point{X: w / 2, Y: h / 2}, 1.5)},
		}
		for _, addr := range []AddressingMode{ParallelRow, SerialCell} {
			for _, xfer := range []TransferMode{SelectiveTransfer, FullTransfer} {
				opts := ScanOptions{Addressing: addr, Transfer: xfer}
				for _, rc := range regions {
					name, region := rc.name, rc.region
					acc := a.Account(region, opts)
					scan := a.Scan(field, region, opts)
					if acc.Bits != nil {
						t.Fatalf("%s %v/%v %s: Account imaged the region", cfg.Name, addr, xfer, name)
					}
					if (scan.Bits == nil) != region.Empty() {
						t.Fatalf("%s %v/%v %s: Scan bits %v for empty=%v", cfg.Name, addr, xfer, name, scan.Bits, region.Empty())
					}
					scan.Bits = nil
					if acc != scan {
						t.Errorf("%s %v/%v %s: Account %+v, Scan %+v", cfg.Name, addr, xfer, name, acc, scan)
					}
				}
			}
		}
	}
}

// TestAccountLeavesRNG checks that accounting draws no comparator
// noise: a scan after any number of Account calls images exactly what
// a fresh array with the same stream images.
func TestAccountLeavesRNG(t *testing.T) {
	field := func(p geom.Point) float64 { return math.Sin(p.X * 5) }
	a1, _ := New(FLockConfig(), sim.NewRNG(4))
	a2, _ := New(FLockConfig(), sim.NewRNG(4))
	for i := 0; i < 3; i++ {
		a1.Account(a1.FullRegion(), ScanOptions{})
	}
	a1.ResponseFullScan()
	r1 := a1.Scan(field, a1.FullRegion(), ScanOptions{})
	r2 := a2.Scan(field, a2.FullRegion(), ScanOptions{})
	for y := 0; y < r1.Bits.H(); y++ {
		for x := 0; x < r1.Bits.W(); x++ {
			if r1.Bits.Get(x, y) != r2.Bits.Get(x, y) {
				t.Fatalf("bit (%d,%d) differs: accounting moved the array's RNG", x, y)
			}
		}
	}
}

func TestScanEnergyComponents(t *testing.T) {
	a := mustArray(t, FLockConfig())
	small := a.Scan(func(geom.Point) float64 { return 1 }, a.RegionAround(geom.Point{X: 4, Y: 4}, 1), ScanOptions{})
	full := a.Scan(func(geom.Point) float64 { return 1 }, a.FullRegion(), ScanOptions{})
	if small.Energy >= full.Energy {
		t.Fatalf("small scan energy %v not below full scan %v", small.Energy, full.Energy)
	}
	if small.Energy <= 0 {
		t.Fatal("scan energy must be positive")
	}
}

func TestScanDeterministicWithSameRNG(t *testing.T) {
	cfg := FLockConfig()
	field := func(p geom.Point) float64 { return math.Sin(p.X * 3) }
	a1, _ := New(cfg, sim.NewRNG(9))
	a2, _ := New(cfg, sim.NewRNG(9))
	r1 := a1.Scan(field, a1.FullRegion(), ScanOptions{})
	r2 := a2.Scan(field, a2.FullRegion(), ScanOptions{})
	if r1.Bits.Ones() != r2.Bits.Ones() {
		t.Fatal("same-seed scans differ")
	}
}

func TestOpticalBaselineSlower(t *testing.T) {
	rows := CompareTechnologies()
	if len(rows) != 3 {
		t.Fatalf("got %d technology rows", len(rows))
	}
	optical, tft := rows[0], rows[2]
	if optical.Response <= tft.Response {
		t.Fatalf("optical %v should be slower than TFT %v", optical.Response, tft.Response)
	}
	if !tft.Transparent || optical.Transparent {
		t.Fatal("transparency attributes wrong")
	}
	if tft.RelativeCost >= optical.RelativeCost {
		t.Fatal("TFT should be the cheapest option")
	}
}

func TestResponseScalesWithClock(t *testing.T) {
	slow := FLockConfig()
	slow.ClockHz = 1e6
	fast := FLockConfig()
	fast.ClockHz = 4e6
	sa := mustArray(t, slow)
	fa := mustArray(t, fast)
	ratio := float64(sa.ResponseFullScan()) / float64(fa.ResponseFullScan())
	if math.Abs(ratio-4) > 0.01 {
		t.Fatalf("response ratio %v, want 4 (inverse clock ratio)", ratio)
	}
}

func TestFullScanUnderTouchDwell(t *testing.T) {
	// The design constraint from Sec IV-A: capture must complete within
	// a normal touch dwell (~100 ms tap).
	a := mustArray(t, FLockConfig())
	if resp := a.ResponseFullScan(); resp > 100*time.Millisecond {
		t.Fatalf("FLock full scan %v exceeds touch dwell budget", resp)
	}
}
