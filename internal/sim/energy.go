package sim

import (
	"fmt"
	"sort"
	"time"
)

// Joule measures simulated energy. The absolute scale is arbitrary but
// consistent across components, so ratios (e.g. opportunistic capture
// vs always-on sensing) are meaningful.
type Joule float64

// String formats the energy with an SI prefix.
func (j Joule) String() string {
	switch {
	case j >= 1:
		return fmt.Sprintf("%.3f J", float64(j))
	case j >= 1e-3:
		return fmt.Sprintf("%.3f mJ", float64(j)*1e3)
	case j >= 1e-6:
		return fmt.Sprintf("%.3f uJ", float64(j)*1e6)
	default:
		return fmt.Sprintf("%.3f nJ", float64(j)*1e9)
	}
}

// EnergyMeter accumulates per-component energy. Components charge the
// meter either per event (AddEvent) or for powered intervals (AddPower).
type EnergyMeter struct {
	byComponent map[string]Joule
}

// NewEnergyMeter returns an empty meter.
func NewEnergyMeter() *EnergyMeter {
	return &EnergyMeter{byComponent: make(map[string]Joule)}
}

// AddEvent charges e joules to component.
func (m *EnergyMeter) AddEvent(component string, e Joule) {
	if e < 0 {
		panic("sim: negative energy")
	}
	m.byComponent[component] += e
}

// AddPower charges component for drawing watts over d.
func (m *EnergyMeter) AddPower(component string, watts float64, d time.Duration) {
	if watts < 0 || d < 0 {
		panic("sim: negative power or duration")
	}
	m.byComponent[component] += Joule(watts * d.Seconds())
}

// Component returns the energy charged to component so far.
func (m *EnergyMeter) Component(component string) Joule {
	return m.byComponent[component]
}

// Total returns the energy summed over all components. The sum runs in
// sorted component order (via Breakdown): float addition is not
// associative, so summing in randomized map-iteration order would make
// the total differ in the last bits from run to run.
func (m *EnergyMeter) Total() Joule {
	var t Joule
	for _, ce := range m.Breakdown() {
		t += ce.Energy
	}
	return t
}

// Breakdown returns (component, energy) pairs sorted by component name.
func (m *EnergyMeter) Breakdown() []ComponentEnergy {
	out := make([]ComponentEnergy, 0, len(m.byComponent))
	for c, e := range m.byComponent {
		out = append(out, ComponentEnergy{Component: c, Energy: e})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Component < out[j].Component })
	return out
}

// ComponentEnergy is one row of an energy breakdown.
type ComponentEnergy struct {
	Component string
	Energy    Joule
}
