package main

import (
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"sync/atomic"
	"testing"

	"trust/internal/store"
)

// smokeConfig is a short run over a 1,000-account population.
func smokeConfig(t *testing.T, name string, trace bool) config {
	t.Helper()
	wl, err := workloadByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return config{wl: wl, seed: 7, seconds: 0.25, trace: trace, population: 1000, setups: 1}
}

func metricNames(defs []metricDef) []string {
	var names []string
	for _, d := range defs {
		names = append(names, d.name)
	}
	return names
}

// TestNamesAgreeWithBenchmarkJSON: BENCHMARK.json and the program name
// the same workloads and metrics, with the same units, and every name is
// well formed.
func TestNamesAgreeWithBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bench); err != nil {
		t.Fatal(err)
	}
	valid := regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)
	var listed []string
	for _, w := range bench.Workloads {
		listed = append(listed, w.Name)
	}
	if got, want := strings.Join(listed, ","), strings.Join(workloadNames(), ","); got != want {
		t.Errorf("BENCHMARK.json workloads %s, program runs %s", got, want)
	}
	for _, c := range []struct {
		kind   string
		listed []struct{ Name, Unit string }
		defs   []metricDef
	}{
		{"end_to_end", bench.EndToEnd, endToEndMetrics},
		{"per_layer", bench.PerLayer, perLayerMetrics},
	} {
		if len(c.listed) != len(c.defs) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, program emits %d", c.kind, len(c.listed), len(c.defs))
			continue
		}
		for i, m := range c.listed {
			if m.Name != c.defs[i].name || m.Unit != c.defs[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), program emits %s (%s)", c.kind, i, m.Name, m.Unit, c.defs[i].name, c.defs[i].unit)
			}
		}
	}
	for _, name := range append(append(listed, metricNames(endToEndMetrics)...), metricNames(perLayerMetrics)...) {
		if !valid.MatchString(name) {
			t.Errorf("name %q does not match %s", name, valid)
		}
	}
}

// TestSmoke runs every workload briefly, untraced and traced: each run
// passes its checks and emits exactly the declared metrics.
func TestSmoke(t *testing.T) {
	for _, wl := range workloads {
		for _, trace := range []bool{false, true} {
			cfg := smokeConfig(t, wl.name, trace)
			out, err := run(cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", wl.name, trace, err)
			}
			if !out.Correct || out.Failed != 0 || out.Attempted < 1 {
				t.Fatalf("%s trace=%v: correct=%v attempted=%d failed=%d problems=%v", wl.name, trace, out.Correct, out.Attempted, out.Failed, out.Problems)
			}
			defs := endToEndMetrics
			if trace {
				defs = perLayerMetrics
			}
			if len(out.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics, want %d", wl.name, trace, len(out.Metrics), len(defs))
			}
			for _, d := range defs {
				if m, ok := out.Metrics[d.name]; !ok || m.Unit != d.unit {
					t.Errorf("%s trace=%v: metric %s missing or mis-united: %+v", wl.name, trace, d.name, m)
				}
			}
			if !trace {
				for _, d := range timingMetrics {
					if m, ok := out.Timings[d.name]; !ok || m.Unit != d.unit || m.Value <= 0 {
						t.Errorf("%s: timing %s missing, mis-united or not positive: %+v", wl.name, d.name, m)
					}
				}
			}
		}
	}
}

// lossyBackend acknowledges one enrollment without making it durable.
type lossyBackend struct {
	store.AccountBackend
	dropped atomic.Bool
}

func (b *lossyBackend) Append(rec store.Record) error {
	if strings.Contains(rec.Account, "-e") && b.dropped.CompareAndSwap(false, true) {
		return nil
	}
	return b.AccountBackend.Append(rec)
}

// TestLostRecordFailsRecoveryCheck: a store that drops one acknowledged
// record is caught when enroll-wal reopens the WAL.
func TestLostRecordFailsRecoveryCheck(t *testing.T) {
	cfg := smokeConfig(t, "enroll-wal", false)
	cfg.wrap = func(b store.AccountBackend) store.AccountBackend { return &lossyBackend{AccountBackend: b} }
	out, err := run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if out.Correct {
		t.Fatal("run with a lost enrollment passed its checks")
	}
	if len(out.Problems) != 1 || !strings.Contains(out.Problems[0], "reopened WAL") {
		t.Fatalf("problems = %q, want only the recovery check", out.Problems)
	}
}

// TestLayerSelfTimesAddUp: on a traced direct-transport run the layer
// self-time shares sum to the op span, and every sampled span lies
// inside a span of its parent layer from the same op.
func TestLayerSelfTimesAddUp(t *testing.T) {
	out, err := run(smokeConfig(t, "enroll-wal", true))
	if err != nil {
		t.Fatal(err)
	}
	var total float64
	for _, l := range []string{"flock", "device", "transport", "webserver", "store"} {
		total += out.Metrics[l+".self_share"].Value
	}
	if total < 0.99 || total > 1.01 {
		t.Errorf("self shares sum to %.4f of the op span", total)
	}
	if out.Metrics["store.self_share"].Value <= 0 || out.Metrics["webserver.self_share"].Value <= 0 {
		t.Errorf("enroll-wal attributed no time to the server or store: %+v", out.Metrics)
	}
	type key struct {
		dev int
		op  int64
	}
	byOp := map[key][]span{}
	for _, s := range out.Spans {
		k := key{s.Device, s.Op}
		byOp[k] = append(byOp[k], s)
	}
	if len(byOp) == 0 {
		t.Fatal("no sampled ops")
	}
	for k, spans := range byOp {
		for _, s := range spans {
			if s.Parent == "" {
				continue
			}
			inside := false
			for _, p := range spans {
				if p.Name == s.Parent && p.Start <= s.Start && s.End <= p.End {
					inside = true
				}
			}
			if !inside {
				t.Errorf("op %v: %s span [%d,%d] lies in no %s span: %+v", k, s.Name, s.Start, s.End, s.Parent, spans)
			}
		}
	}
}

// TestMissingColumnIsAnError: reading a telemetry column the schema does
// not have fails instead of reading zero.
func TestMissingColumnIsAnError(t *testing.T) {
	schema, vals := []string{"accepted", "rejected"}, []int64{5, 0}
	if v, err := columns(schema, vals, "rejected", "accepted"); err != nil || v[0] != 0 || v[1] != 5 {
		t.Fatalf("columns = %v, %v; want [0 5]", v, err)
	}
	if _, err := columns(schema, vals, "rejects"); err == nil {
		t.Fatal("a missing column read without error")
	}
}

// TestCompareRuns: a metric worse than its bound fails the comparison,
// one within it passes, the direction follows "better", and an ungated
// timing never fails it.
func TestCompareRuns(t *testing.T) {
	var bench benchFile
	if err := json.Unmarshal([]byte(`{"end_to_end": [
		{"name": "ops_per_s", "better": "higher", "bound": 0.1},
		{"name": "op_p50_us", "better": "lower", "bound": 0.1}]}`), &bench); err != nil {
		t.Fatal(err)
	}
	runWith := func(ops, p50, p99 float64) runFile {
		return runFile{
			Result: &outcome{Correct: true, Metrics: map[string]metric{
				"ops_per_s": {Value: ops}, "op_p50_us": {Value: p50},
			}},
			Timings: map[string]metric{"op_p99_us": {Value: p99}},
		}
	}
	a := runWith(1000, 10, 20)
	for _, c := range []struct {
		b    runFile
		want int
	}{
		{runWith(950, 10.5, 20), 0},
		{runWith(1500, 5, 20), 0},
		{runWith(850, 10, 20), 1},
		{runWith(1000, 11.5, 20), 1},
		{runWith(1000, 10, 40), 0},
	} {
		if got := compareRuns(a, c.b, bench); got != c.want {
			t.Errorf("compare to %+v = %d, want %d", c.b.Result.Metrics, got, c.want)
		}
	}
}
