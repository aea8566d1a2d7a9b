package harness

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"testing"

	"trust/internal/ftdc"
	"trust/internal/sim"
)

// TestSweptExperimentsWorkerCountInvariant is the determinism contract
// of the sweep engine (docs/sweep-engine.md) applied end to end: every
// experiment that fans its trials out through sim.ParMap must produce
// a byte-identical artifact and identical metrics whether it runs on
// one worker or many.
func TestSweptExperimentsWorkerCountInvariant(t *testing.T) {
	// Force a genuinely concurrent pool even on single-core CI
	// machines, where GOMAXPROCS would collapse the parallel run back
	// to one worker and the test would assert nothing.
	workers := max(runtime.GOMAXPROCS(0), 8)
	exps := []struct {
		name string
		fn   func(uint64) (Result, error)
	}{
		{"XWindow", XWindow},
		{"XNoise", XNoise},
		{"XEnergy", XEnergy},
		{"XImagePipeline", XImagePipeline},
		{"XAttacks", XAttacks},
		{"XFuzzyVault", XFuzzyVault},
		{"XChaos", XChaos},
		{"XStreamChaos", XStreamChaos},
		{"Fig6", Fig6},
	}
	for _, e := range exps {
		t.Run(e.name, func(t *testing.T) {
			prev := sim.SetMaxWorkers(1)
			defer sim.SetMaxWorkers(prev)
			serial, err := e.fn(Seed)
			if err != nil {
				t.Fatalf("serial run: %v", err)
			}
			sim.SetMaxWorkers(workers)
			parallel, err := e.fn(Seed)
			if err != nil {
				t.Fatalf("parallel run (%d workers): %v", workers, err)
			}
			if serial.Text != parallel.Text {
				t.Errorf("artifact text differs between 1 and %d workers:\n--- serial ---\n%s\n--- parallel ---\n%s",
					workers, serial.Text, parallel.Text)
			}
			if len(serial.Metrics) != len(parallel.Metrics) {
				t.Fatalf("metric count differs: %d vs %d", len(serial.Metrics), len(parallel.Metrics))
			}
			for k, v := range serial.Metrics {
				pv, ok := parallel.Metrics[k]
				if !ok {
					t.Errorf("metric %q missing from parallel run", k)
					continue
				}
				if v != pv {
					t.Errorf("metric %q: serial %v, parallel %v", k, v, pv)
				}
			}
		})
	}
}

// TestXChaosCaptureByteIdentical is the determinism contract extended
// to the telemetry capture: the concatenated FTDC artifact must be
// byte-identical across repeated runs and across worker counts, and
// must parse back into one well-formed metric table.
func TestXChaosCaptureByteIdentical(t *testing.T) {
	workers := max(runtime.GOMAXPROCS(0), 8)
	prev := sim.SetMaxWorkers(1)
	defer sim.SetMaxWorkers(prev)

	_, serial, err := XChaosCapture(Seed)
	if err != nil {
		t.Fatal(err)
	}
	_, again, err := XChaosCapture(Seed)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(serial, again) {
		t.Fatal("capture differs between two serial runs of the same seed")
	}

	sim.SetMaxWorkers(workers)
	_, parallel, err := XChaosCapture(Seed)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(serial, parallel) {
		t.Fatalf("capture differs between 1 and %d workers (%d vs %d bytes)", workers, len(serial), len(parallel))
	}

	data, err := ftdc.Read(serial)
	if err != nil {
		t.Fatalf("capture does not parse: %v", err)
	}
	// 16 cells x 3 trials x 10 rounds, one sample per round — minus
	// rounds lost to terminally failed trials, so a lower bound holds.
	if data.Rows() < 16*3 {
		t.Fatalf("capture holds %d rows, expected at least one surviving round per trial", data.Rows())
	}
	if data.Names[0] != "accepted" {
		t.Fatalf("schema starts with %q, want the server metric block", data.Names[0])
	}
	if last := data.Names[len(data.Names)-1]; last != "dev_stream_downgrades" {
		t.Fatalf("schema ends with %q, want the device metric block", last)
	}
}

// TestRigArtifactsGolden pins the artifacts built on the standard
// one-button deployment (internal/testbed) — both chaos sweeps and the
// attack suite — to their committed files, rendered the way
// `benchtab -out` writes them, so a change to the rig, the retry loop,
// the fault injectors or the sweep driver that moves a single byte
// fails here rather than in a manual diff.
func TestRigArtifactsGolden(t *testing.T) {
	for _, e := range []struct{ name, id string }{
		{"XChaos", "x-chaos"},
		{"XStreamChaos", "x-stream-chaos"},
		{"XAttacks", "x-attacks"},
	} {
		t.Run(e.name, func(t *testing.T) {
			i := slices.IndexFunc(Artifacts, func(a Artifact) bool { return a.ID == e.id })
			if i < 0 {
				t.Fatalf("no registry entry %q", e.id)
			}
			r, err := Artifacts[i].Run(Seed)
			if err != nil {
				t.Fatal(err)
			}
			checkArtifactFile(t, r)
		})
	}
}

// artifactDir holds the committed artifacts, one <id>.txt per entry of
// Artifacts.
var artifactDir = filepath.Join("..", "..", "artifacts")

// checkArtifactFile fails t unless r renders byte-for-byte as its
// committed file, the way `benchtab -out` writes it.
func checkArtifactFile(t *testing.T, r Result) {
	t.Helper()
	path := filepath.Join(artifactDir, r.ID+".txt")
	want, err := os.ReadFile(path)
	if err != nil {
		t.Error(err)
		return
	}
	if got := r.String() + "\n"; got != string(want) {
		t.Errorf("%s drifted from %s:\n--- got ---\n%s--- want ---\n%s", r.ID, path, got, want)
	}
}

// TestXChaosCaptureGolden pins the X14 telemetry capture's size and
// digest, so the per-round dev_retries and dev_stream_* samples cannot
// change unnoticed.
func TestXChaosCaptureGolden(t *testing.T) {
	const (
		wantLen = 98711
		wantSum = "ea2256ce6beb1a855299d91942ad791e53559d6c824ecfe6a3ac304b3c64355f"
	)
	_, capt, err := XChaosCapture(Seed)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(capt)
	if got := hex.EncodeToString(sum[:]); len(capt) != wantLen || got != wantSum {
		t.Fatalf("X14 capture is %d B sha256 %s, want %d B sha256 %s; for a per-metric report write the capture "+
			"at this and at the previous commit with `go run ./cmd/benchtab -ftdc <file>`, then run "+
			"`go run ./cmd/benchtab -ftdc-diff before.ftdc,after.ftdc`", len(capt), got, wantLen, wantSum)
	}
}
