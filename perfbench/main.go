// Command perfbench is the repository's benchmark: four closed-loop
// workloads driven against one TRUST server recovered from a seeded
// 100,000-account WAL image, each checked for correctness, reporting
// end-to-end metrics or, with --trace 1, per-layer metrics from spans
// recorded at the layers' public seams. README.md explains the
// workloads, the metrics and how to compare two commits.
//
// Usage (from the repository root; run.sh builds and runs it):
//
//	bash perfbench/run.sh --workload touch-browse --seed 1 --seconds 20 --trace 0
//	bash perfbench/run.sh --workload enroll-wal --seed 1 --seconds 20 --trace 1 --trace-dir spans
//	bash perfbench/run.sh --workload login-churn --seed 1 --seconds 20 --trace 0 --json a.json
//	bash perfbench/run.sh --check-repeat a.json,b.json
//
// The last line of standard output is the run's result as one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// population is the number of accounts every server recovers at set-up.
const population = 100_000

// setups is how many times a run builds its rig; setup_s is the median.
const setups = 15

type metricDef struct{ name, unit string }

// endToEndMetrics are reported with --trace 0, perLayerMetrics with
// --trace 1. BENCHMARK.json lists the same names (a test checks it).
var endToEndMetrics = []metricDef{
	{"setup_s", "s"},
	{"allocs_per_op", "count"},
}

// timingMetrics are measured in the --trace 0 window and printed, and
// --check-repeat compares them, but they are not in BENCHMARK.json: on
// the reference runner they spread more between runs of unchanged code
// than a 10% bound allows (README.md, "Bounds").
var timingMetrics = []metricDef{
	{"ops_per_s", "1/s"},
	{"op_p50_us", "us"},
	{"op_p99_us", "us"},
	{"cpu_us_per_op", "us"},
}

var perLayerMetrics = []metricDef{
	{"op.us_p50", "us"},
	{"op.us_p99", "us"},
	{"op.ops_per_s", "1/s"},
	{"flock.touch_us_p50", "us"},
	{"flock.touch_us_p99", "us"},
	{"flock.self_share", "share"},
	{"flock.touches", "count"},
	{"flock.match_ratio", "share"},
	{"device.self_us_p50", "us"},
	{"device.self_share", "share"},
	{"device.retries", "count"},
	{"device.resume_fallbacks", "count"},
	{"transport.rtt_us_p50", "us"},
	{"transport.rtt_us_p99", "us"},
	{"transport.self_us_p50", "us"},
	{"transport.self_share", "share"},
	{"transport.bytes_per_op", "B"},
	{"transport.dials", "count"},
	{"webserver.service_us_p50", "us"},
	{"webserver.service_us_p99", "us"},
	{"webserver.self_share", "share"},
	{"webserver.accepted", "count"},
	{"webserver.rejected", "count"},
	{"webserver.logins_full", "count"},
	{"webserver.logins_resume", "count"},
	{"webserver.nonce_evictions", "count"},
	{"webserver.sessions_live", "count"},
	{"webserver.accounts_live", "count"},
	{"store.append_us_p50", "us"},
	{"store.append_us_max", "us"},
	{"store.appends", "count"},
	{"store.snapshots", "count"},
	{"store.self_share", "share"},
	{"store.recover_ms", "ms"},
	{"store.recover_after_ms", "ms"},
	{"runtime.gc_cpu_share", "share"},
	{"runtime.gc_cycles_per_kop", "1/kop"},
	{"runtime.sched_wait_p99_us", "us"},
	{"runtime.heap_peak_mb", "MB"},
	{"runtime.retained_b_per_op", "B"},
	{"trace.overhead_share", "share"},
}

// emit attaches units to computed values. Every listed metric must have
// been computed and nothing unlisted may be: the set of names printed is
// the set BENCHMARK.json declares.
func emit(defs []metricDef, values map[string]float64) map[string]metric {
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok {
			panic("perfbench: metric " + d.name + " was not computed")
		}
		out[d.name] = metric{Value: v, Unit: d.unit}
	}
	if len(values) != len(defs) {
		panic(fmt.Sprintf("perfbench: computed %d metrics, %d are declared", len(values), len(defs)))
	}
	return out
}

// runFile is what --json writes and --check-repeat reads: the result
// plus what two results must share to be comparable.
type runFile struct {
	Workload   string            `json:"workload"`
	Seed       uint64            `json:"seed"`
	Seconds    float64           `json:"seconds"`
	Trace      int               `json:"trace"`
	NumCPU     int               `json:"num_cpu"`
	GOMAXPROCS int               `json:"gomaxprocs"`
	Samples    int               `json:"samples"`
	BeyondP99  int               `json:"beyond_p99"`
	Timings    map[string]metric `json:"timings,omitempty"`
	Problems   []string          `json:"problems"`
	Result     *outcome          `json:"result"`
}

func main() {
	var (
		workloadName = flag.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
		seed         = flag.Uint64("seed", 1, "seed every input is drawn from")
		secs         = flag.Float64("seconds", 20, "length of the measured window")
		trace        = flag.Int("trace", 0, "0: end-to-end metrics; 1: traced run, per-layer metrics")
		jsonPath     = flag.String("json", "", "also write the run's result with its settings to this file")
		traceDir     = flag.String("trace-dir", "", "with --trace 1, write the sampled span records into this directory")
		checkRepeat  = flag.String("check-repeat", "", "compare two --json files a.json,b.json against the bounds in --bench")
		benchPath    = flag.String("bench", "BENCHMARK.json", "benchmark definition holding the metric bounds")
	)
	flag.Parse()
	if *checkRepeat != "" {
		os.Exit(checkRepeatMain(*checkRepeat, *benchPath))
	}
	wl, err := workloadByName(*workloadName)
	if err != nil {
		fail(2, err)
	}
	if *secs <= 0 || *trace < 0 || *trace > 1 {
		fail(2, fmt.Errorf("need --seconds > 0 and --trace 0 or 1"))
	}
	out, err := run(config{wl: wl, seed: *seed, seconds: *secs, trace: *trace == 1, population: population, setups: setups})
	if err != nil {
		fail(1, err)
	}
	printSummary(wl.name, *trace, out)
	if *jsonPath != "" {
		rf := runFile{
			Workload: wl.name, Seed: *seed, Seconds: *secs, Trace: *trace,
			NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
			Samples: out.Samples, BeyondP99: out.BeyondP99, Timings: out.Timings,
			Problems: out.Problems, Result: out,
		}
		if err := writeJSON(*jsonPath, rf); err != nil {
			fail(1, err)
		}
	}
	if *traceDir != "" && *trace == 1 {
		if err := writeSpans(*traceDir, fmt.Sprintf("%s-seed%d", wl.name, *seed), out.Spans); err != nil {
			fail(1, err)
		}
	}
	line, err := json.Marshal(out)
	if err != nil {
		fail(1, err)
	}
	fmt.Println(string(line))
	if !out.Correct {
		os.Exit(1)
	}
}

func fail(code int, err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(code)
}

// printSummary prints the human-readable report that precedes the JSON
// result line.
func printSummary(name string, trace int, out *outcome) {
	fmt.Printf("workload %s, trace %d: attempted %d, failed %d\n", name, trace, out.Attempted, out.Failed)
	printMetrics(out.Metrics)
	if out.Timings != nil {
		fmt.Printf("timings, not gated (latency samples %d, %d beyond p99):\n", out.Samples, out.BeyondP99)
		printMetrics(out.Timings)
	}
	if out.Correct {
		fmt.Println("checks: all passed")
	}
	for _, p := range out.Problems {
		fmt.Println("CHECK FAILED:", p)
	}
}

func printMetrics(ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("  %-28s %14.4f %s\n", n, ms[n].Value, ms[n].Unit)
	}
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// writeSpans writes one span per line to dir/<name>.spans.jsonl.
func writeSpans(dir, name string, spans []span) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	var b strings.Builder
	enc := json.NewEncoder(&b)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return os.WriteFile(filepath.Join(dir, name+".spans.jsonl"), []byte(b.String()), 0o644)
}
