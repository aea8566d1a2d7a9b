package flock

import (
	"testing"
	"time"

	"trust/internal/fingerprint"
	"trust/internal/pki"
)

// BenchmarkHandleTouchOnSensor measures the full capture pipeline for
// a touch landing on a sensor (panel sense + window scan + acquire +
// match).
func BenchmarkHandleTouchOnSensor(b *testing.B) {
	ca, m := benchModule(b)
	_ = ca
	f := fingerprint.Synthesize(4242, fingerprint.Loop)
	if err := m.Enroll(fingerprint.NewTemplate(f)); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.HandleTouch(onSensorEvent(time.Duration(i)*time.Second), f)
	}
}

// BenchmarkHandleTouchOffSensor measures the cheap path: panel sense
// plus the address-translation miss.
func BenchmarkHandleTouchOffSensor(b *testing.B) {
	_, m := benchModule(b)
	f := fingerprint.Synthesize(4242, fingerprint.Loop)
	if err := m.Enroll(fingerprint.NewTemplate(f)); err != nil {
		b.Fatal(err)
	}
	ev := onSensorEvent(0)
	ev.Pos.X, ev.Pos.Y = 60, 100
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev.At = time.Duration(i) * time.Second
		m.HandleTouch(ev, f)
	}
}

func benchModule(b *testing.B) (*pki.CA, *Module) {
	b.Helper()
	ca, err := pki.NewCA("trust-root", pki.NewDeterministicRand(1))
	if err != nil {
		b.Fatal(err)
	}
	m, err := New(DefaultConfig(testPlacement()), ca, "bench-device", 1)
	if err != nil {
		b.Fatal(err)
	}
	return ca, m
}
