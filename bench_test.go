// Benchmarks regenerating every table and figure of the paper plus the
// extension experiments: one sub-benchmark per entry of
// harness.Artifacts (BenchmarkArtifacts/<id>, per DESIGN.md section 4).
// Each iteration rebuilds the artifact from scratch, so ns/op measures
// the full simulation cost; the artifact text itself is attached via
// b.Log on the first iteration (visible with -v) and via cmd/benchtab.
package trust

import (
	"testing"

	"trust/internal/analysis"
	"trust/internal/harness"
)

// BenchmarkArtifacts runs each registered generator b.N times.
func BenchmarkArtifacts(b *testing.B) {
	for _, a := range harness.Artifacts {
		b.Run(a.ID, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				r, err := a.Run(harness.Seed)
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					// Rendering the artifact into the log is not part of
					// the simulation cost being measured.
					b.StopTimer()
					b.Log("\n" + r.String())
					b.StartTimer()
				}
			}
		})
	}
}

// BenchmarkTrustlint measures the wall time of the full static-analysis
// sweep (cmd/trustlint over every package in the module, one
// `go list -export` run each), so analyzer cost is tracked in
// BENCH_harness.json like the artifact generators.
func BenchmarkTrustlint(b *testing.B) {
	for i := 0; i < b.N; i++ {
		findings, err := analysis.Lint(".", "./...")
		if err != nil {
			b.Fatal(err)
		}
		if len(findings) > 0 {
			b.Fatalf("tree has %d trustlint finding(s); run go run ./cmd/trustlint ./...", len(findings))
		}
	}
}
