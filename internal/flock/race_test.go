package flock

import (
	"testing"

	"trust/internal/fingerprint"
	"trust/internal/pki"
	"trust/internal/sim"
)

// TestModulesConcurrent runs independent modules on the sweep engine's
// worker pool, the way the harness shards a session (XEnergy). A module
// is single-goroutine, but the scratch its panel reuses per scan and
// the matcher's pool must be per panel and per call: each module's
// outcomes must equal a serial run's, and under -race (part of the
// tier-1 gate) no buffer may be shared between modules.
func TestModulesConcurrent(t *testing.T) {
	owner := fingerprint.Synthesize(4242, fingerprint.Loop)
	impostor := fingerprint.Synthesize(666, fingerprint.Whorl)
	const modules = 6
	run := func(i int) (string, error) {
		ca, err := pki.NewCA("trust-root", pki.NewDeterministicRand(1))
		if err != nil {
			return "", err
		}
		m, err := New(DefaultConfig(testPlacement()), ca, "device-race", uint64(100+i))
		if err != nil {
			return "", err
		}
		if err := m.Enroll(fingerprint.NewTemplate(owner)); err != nil {
			return "", err
		}
		rng := sim.TrialRNG(0x7ace, i)
		h := newOutcomeHash()
		for k := 0; k < 40; k++ {
			ev, finger := goldenTouch(rng, k, owner, impostor)
			h.outcome(m.HandleTouch(ev, finger))
		}
		h.module(m)
		return h.sum(), nil
	}
	serial, err := sim.ParMapN(1, modules, run)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := sim.ParMapN(4, modules, run)
	if err != nil {
		t.Fatal(err)
	}
	for i := range serial {
		if parallel[i] != serial[i] {
			t.Errorf("module %d: concurrent outcomes %s, serial %s", i, parallel[i], serial[i])
		}
	}
}
