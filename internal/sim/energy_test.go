package sim

import (
	"math"
	"strings"
	"testing"
	"time"
)

func TestEnergyMeterAccumulates(t *testing.T) {
	m := NewEnergyMeter()
	m.AddEvent("sensor", 2e-6)
	m.AddEvent("sensor", 3e-6)
	m.AddEvent("crypto", 1e-6)
	if got := m.Component("sensor"); math.Abs(float64(got)-5e-6) > 1e-12 {
		t.Fatalf("sensor energy = %v", got)
	}
	if got := m.Total(); math.Abs(float64(got)-6e-6) > 1e-12 {
		t.Fatalf("total energy = %v", got)
	}
}

func TestEnergyMeterPower(t *testing.T) {
	m := NewEnergyMeter()
	m.AddPower("display", 0.5, 2*time.Second)
	if got := m.Component("display"); math.Abs(float64(got)-1.0) > 1e-9 {
		t.Fatalf("0.5W for 2s = %v, want 1 J", got)
	}
}

func TestEnergyMeterBreakdownSorted(t *testing.T) {
	m := NewEnergyMeter()
	m.AddEvent("z", 1)
	m.AddEvent("a", 1)
	m.AddEvent("m", 1)
	bd := m.Breakdown()
	if len(bd) != 3 || bd[0].Component != "a" || bd[1].Component != "m" || bd[2].Component != "z" {
		t.Fatalf("breakdown not sorted: %+v", bd)
	}
}

// TestEnergyMeterTotalBitStable is the regression test for the
// map-order determinism bug: Total used to sum components in randomized
// map-iteration order, so float non-associativity made totals differ in
// the last bits between runs. 100 meters filled in shuffled insertion
// orders must now agree bit-for-bit.
func TestEnergyMeterTotalBitStable(t *testing.T) {
	// Magnitudes spanning ~12 decades so any reordering of the partial
	// sums actually perturbs the low mantissa bits.
	charges := []Joule{3.1e-9, 7.2e-6, 1.4e-3, 0.6, 5e-8, 2.25e-4, 9.9e-2, 1.7e-7, 4.4e-5, 8.8e-1, 6.02e-6, 1.3e-10}
	rng := NewRNG(0xb17)
	var want Joule
	for trial := 0; trial < 100; trial++ {
		m := NewEnergyMeter()
		for _, i := range rng.Perm(len(charges)) {
			m.AddEvent("component-"+string(rune('a'+i)), charges[i])
		}
		got := m.Total()
		if trial == 0 {
			want = got
			continue
		}
		if math.Float64bits(float64(got)) != math.Float64bits(float64(want)) {
			t.Fatalf("trial %d: Total() = %b, want %b (bit-unstable across insertion orders)", trial, got, want)
		}
	}
}

func TestEnergyMeterNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative energy did not panic")
		}
	}()
	NewEnergyMeter().AddEvent("x", -1)
}

func TestJouleString(t *testing.T) {
	cases := []struct {
		j    Joule
		want string
	}{
		{2.5, "J"},
		{2.5e-3, "mJ"},
		{2.5e-6, "uJ"},
		{2.5e-9, "nJ"},
	}
	for _, c := range cases {
		if s := c.j.String(); !strings.HasSuffix(s, c.want) {
			t.Errorf("%v formatted as %q, want suffix %q", float64(c.j), s, c.want)
		}
	}
}
