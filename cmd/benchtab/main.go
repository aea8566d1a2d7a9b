// Command benchtab regenerates the paper's tables and figures as text
// artifacts (see DESIGN.md section 4 for the experiment index).
//
// Usage:
//
//	benchtab -all                # every artifact, paper order
//	benchtab -table 1            # Table I
//	benchtab -fig 7              # Figure 7
//	benchtab -x attacks          # extension experiment X3
//	benchtab -all -seed 99       # different deterministic seed
//	benchtab -json               # measure every artifact, write BENCH_harness.json
//	benchtab -server-json -      # measure server throughput, write BENCH_server.json
//	benchtab -ftdc chaos.ftdc    # chaos sweep with telemetry capture, write the FTDC file
//	benchtab -ftdc-print chaos.ftdc        # per-metric first/last/min/max table
//	benchtab -ftdc-diff before.ftdc,after.ftdc   # per-metric final-value deltas + differing samples
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"trust/internal/analysis"
	"trust/internal/device"
	"trust/internal/ftdc"
	"trust/internal/harness"
	"trust/internal/loadgen"
)

func main() {
	var (
		all        = flag.Bool("all", false, "regenerate every table and figure")
		table      = flag.Int("table", 0, "regenerate Table N (1 or 2)")
		fig        = flag.Int("fig", 0, "regenerate Figure N (1..10)")
		ext        = flag.String("x", "", "extension experiment: "+artifactIDs("x-"))
		seed       = flag.Uint64("seed", harness.Seed, "deterministic experiment seed")
		out        = flag.String("out", "", "also write each artifact to <out>/<id>.txt")
		jsonPath   = flag.String("json", "", "measure every artifact generator and write {name: {ns_per_op, allocs_per_op}} to the given file ('' = off; '-' = BENCH_harness.json)")
		serverJSON = flag.String("server-json", "", "measure server load scenarios (ops/sec, p50/p99) and write the report to the given file ('' = off; '-' = BENCH_server.json)")
		ftdcOut    = flag.String("ftdc", "", "run the chaos sweep with telemetry capture and write the FTDC bytes to the given file")
		ftdcPrint  = flag.String("ftdc-print", "", "pretty-print an FTDC capture file (per-metric first/last/min/max)")
		ftdcDiff   = flag.String("ftdc-diff", "", "diff two FTDC capture files by final value and, when their timestamps match, by differing samples: comma-separated pair a.ftdc,b.ftdc")
	)
	flag.Parse()

	emit := func(r harness.Result) {
		fmt.Println(r.String())
		if *out == "" {
			return
		}
		if err := os.MkdirAll(*out, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "benchtab: %v\n", err)
			os.Exit(1)
		}
		path := filepath.Join(*out, r.ID+".txt")
		if err := os.WriteFile(path, []byte(r.String()+"\n"), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "benchtab: %v\n", err)
			os.Exit(1)
		}
	}
	run := func(r harness.Result, err error) {
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchtab: %v\n", err)
			os.Exit(1)
		}
		emit(r)
	}
	runID := func(id string) {
		for _, a := range harness.Artifacts {
			if a.ID == id {
				run(a.Run(*seed))
				return
			}
		}
		fmt.Fprintf(os.Stderr, "benchtab: unknown artifact %q (want %s)\n", id, artifactIDs(""))
		os.Exit(2)
	}

	readCapture := func(path string) *ftdc.Data {
		raw, err := os.ReadFile(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchtab: %v\n", err)
			os.Exit(1)
		}
		d, err := ftdc.Read(raw)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchtab: %s: %v\n", path, err)
			os.Exit(1)
		}
		return d
	}

	switch {
	case *ftdcOut != "":
		res, capture, err := harness.XChaosCapture(*seed)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchtab: %v\n", err)
			os.Exit(1)
		}
		if err := os.WriteFile(*ftdcOut, capture, 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "benchtab: %v\n", err)
			os.Exit(1)
		}
		emit(res)
		d, err := ftdc.Read(capture)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchtab: capture self-check: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s: %d bytes, %d samples x %d metrics\n", *ftdcOut, len(capture), d.Rows(), len(d.Names))
	case *ftdcPrint != "":
		readCapture(*ftdcPrint).Dump(os.Stdout)
	case *ftdcDiff != "":
		parts := strings.Split(*ftdcDiff, ",")
		if len(parts) != 2 {
			fmt.Fprintf(os.Stderr, "benchtab: -ftdc-diff wants two comma-separated files, got %q\n", *ftdcDiff)
			os.Exit(2)
		}
		ftdc.WriteDiff(os.Stdout, ftdc.Diff(readCapture(parts[0]), readCapture(parts[1])))
	case *serverJSON != "":
		path := *serverJSON
		if path == "-" {
			path = "BENCH_server.json"
		}
		if err := writeServerJSON(path, *seed); err != nil {
			fmt.Fprintf(os.Stderr, "benchtab: %v\n", err)
			os.Exit(1)
		}
	case *jsonPath != "":
		path := *jsonPath
		if path == "-" {
			path = "BENCH_harness.json"
		}
		if err := writeBenchJSON(path, *seed); err != nil {
			fmt.Fprintf(os.Stderr, "benchtab: %v\n", err)
			os.Exit(1)
		}
	case *all:
		for _, a := range harness.Artifacts {
			run(a.Run(*seed))
		}
	case *table != 0:
		runID(fmt.Sprintf("table%d", *table))
	case *fig != 0:
		runID(fmt.Sprintf("fig%d", *fig))
	case *ext != "":
		runID("x-" + *ext)
	default:
		flag.Usage()
		os.Exit(2)
	}
}

// writeServerJSON measures the fixed server load-scenario matrix (the
// concurrency PR's before/after evidence) and writes the throughput
// report with gomaxprocs/num_cpu metadata. The direct 1-device row is
// the serial baseline the parallel rows are compared against; see
// docs/server-scaling.md.
func writeServerJSON(path string, seed uint64) error {
	// Fail on an unwritable path before spending minutes measuring.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE, 0o644)
	if err != nil {
		return err
	}
	f.Close()
	configs := []loadgen.Config{
		{Devices: 1, Transport: loadgen.Direct, Mode: loadgen.PageRequest, Seed: seed},
		{Devices: 8, Transport: loadgen.Direct, Mode: loadgen.PageRequest, Seed: seed},
		{Devices: 8, Transport: loadgen.Direct, Mode: loadgen.Login, Seed: seed},
		// Session-resumption rows: the ticket fast path against the full
		// login directly above it (same transport, same fleet size) is the
		// resumption PR's headline ratio; churn mixes cold and resumed
		// logins 1:7; the lossy resume row shows the ticket path riding
		// out drops by falling back to the cold path under the same retry
		// budget the other lossy rows use.
		{Devices: 8, Transport: loadgen.Direct, Mode: loadgen.Resume, Seed: seed},
		{Devices: 8, Transport: loadgen.Direct, Mode: loadgen.Churn, Seed: seed},
		{Devices: 8, Transport: loadgen.Direct, Mode: loadgen.Resume, Seed: seed,
			Faults: device.FaultProfile{DropRate: 0.2}, RetryAttempts: 4},
		{Devices: 8, Transport: loadgen.HTTPJSON, Mode: loadgen.PageRequest, Seed: seed},
		{Devices: 8, Transport: loadgen.HTTPBinary, Mode: loadgen.PageRequest, Seed: seed},
		// Lossy-network rows: each message direction drops at 20%, the
		// resilient client retries with a 4-attempt budget. The delta
		// against the clean rows above is the resilience overhead.
		{Devices: 8, Transport: loadgen.Direct, Mode: loadgen.PageRequest, Seed: seed,
			Faults: device.FaultProfile{DropRate: 0.2}, RetryAttempts: 4},
		{Devices: 8, Transport: loadgen.HTTPBinary, Mode: loadgen.PageRequest, Seed: seed,
			Faults: device.FaultProfile{DropRate: 0.2}, RetryAttempts: 4},
		// Streamed rows: one multiplexed connection per device over the
		// same TCP loopback the HTTP rows use. The clean row against
		// page-request_http-binary_8 is the streaming PR's headline
		// speedup; the batch row adds pipelining; the cut row shows the
		// stream riding out mid-frame cuts with its retry budget.
		{Devices: 8, Transport: loadgen.Stream, Mode: loadgen.PageRequest, Seed: seed},
		{Devices: 8, Transport: loadgen.Stream, Mode: loadgen.PageRequest, Seed: seed, Batch: 16},
		{Devices: 8, Transport: loadgen.Stream, Mode: loadgen.PageRequest, Seed: seed,
			Faults:        device.FaultProfile{CutRate: 0.1, TearRate: 0.25},
			RetryAttempts: 4},
		// Durable-store rows: the WAL enroll row against the in-memory
		// enroll row directly above it prices the synced append every
		// acknowledged enrollment pays on the durable backend
		// (docs/persistence.md).
		{Devices: 8, Transport: loadgen.Direct, Mode: loadgen.Enroll, Seed: seed},
		{Devices: 8, Transport: loadgen.Direct, Mode: loadgen.Enroll, Seed: seed, Backend: loadgen.WALBackend},
	}
	var results []loadgen.Result
	for _, cfg := range configs {
		// Settle the heap between scenarios so one row's garbage does
		// not inflate the next row's GC share — the scenarios are
		// independent measurements, not one workload.
		runtime.GC()
		res, err := loadgen.Run(cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", cfg.Name(), err)
		}
		results = append(results, res)
		fmt.Fprintf(os.Stderr, "%-28s %12.0f ops/sec %10.2fµs p50 %10.2fµs p99 %6d allocs/op\n",
			res.Name, res.OpsPerSec, float64(res.P50Ns)/1e3, float64(res.P99Ns)/1e3, res.AllocsPerOp)
	}
	// Recovery rows: cold-start time at each account-store size — WAL
	// recovery (snapshot load + log replay) plus building the server
	// over the recovered accounts (the crash-recovery downtime).
	for _, n := range []int{1_000, 10_000, 100_000} {
		runtime.GC()
		res, err := loadgen.MeasureRecovery(n)
		if err != nil {
			return fmt.Errorf("wal-recovery %d: %w", n, err)
		}
		results = append(results, res)
		fmt.Fprintf(os.Stderr, "%-28s %12.2fms per recovery\n", res.Name, float64(res.NsPerOp)/1e6)
	}
	report := loadgen.NewReport(results)
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// benchFTDCSample drives the FTDC sampling hot path with a
// server-sized schema, the same loop the package's own BenchmarkSample
// runs.
func benchFTDCSample(b *testing.B) {
	names := make([]string, 74)
	for i := range names {
		names[i] = "metric_column_" + string(rune('a'+i%26)) + string(rune('a'+i/26))
	}
	c := ftdc.NewCapture(ftdc.NewSchema(names))
	vals := make([]int64, len(names))
	var now int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now += int64(time.Millisecond)
		for j := range vals {
			vals[j] += int64(j&7) - 3
		}
		c.Sample(now, vals)
	}
}

// artifactIDs lists the registry IDs that start with prefix, prefix
// cut, '|'-separated in paper order.
func artifactIDs(prefix string) string {
	var names []string
	for _, a := range harness.Artifacts {
		if name, ok := strings.CutPrefix(a.ID, prefix); ok {
			names = append(names, name)
		}
	}
	return strings.Join(names, "|")
}

// benchEntry is one measured artifact in the -json report.
type benchEntry struct {
	NsPerOp     int64 `json:"ns_per_op"`
	AllocsPerOp int64 `json:"allocs_per_op"`
}

// writeBenchJSON measures every registered artifact generator with
// testing.Benchmark and writes the machine-readable timing report,
// keyed by artifact ID like the BenchmarkArtifacts/<id> sub-benchmarks
// in bench_test.go, plus the trustlint sweep and the FTDC sampling hot
// path.
func writeBenchJSON(path string, seed uint64) error {
	// Fail on an unwritable path before spending minutes measuring.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE, 0o644)
	if err != nil {
		return err
	}
	f.Close()
	report := make(map[string]benchEntry, len(harness.Artifacts)+2)
	record := func(name string, res testing.BenchmarkResult) {
		report[name] = benchEntry{NsPerOp: res.NsPerOp(), AllocsPerOp: res.AllocsPerOp()}
		fmt.Fprintf(os.Stderr, "%-18s %12d ns/op %12d allocs/op\n", name, res.NsPerOp(), res.AllocsPerOp())
	}
	for _, a := range harness.Artifacts {
		var genErr error
		res := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := a.Run(seed); err != nil {
					genErr = err
					b.FailNow()
				}
			}
		})
		if genErr != nil {
			return fmt.Errorf("%s: %w", a.ID, genErr)
		}
		record(a.ID, res)
	}
	// The static-analysis sweep runs on every verify, so its cost is
	// tracked alongside the artifact generators (BenchmarkTrustlint in
	// bench_test.go mirrors this entry).
	var lintErr error
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			findings, err := analysis.Lint(".", "./...")
			if err == nil && len(findings) > 0 {
				err = fmt.Errorf("tree has %d trustlint finding(s)", len(findings))
			}
			if err != nil {
				lintErr = err
				b.FailNow()
			}
		}
	})
	if lintErr != nil {
		return fmt.Errorf("Trustlint: %w", lintErr)
	}
	record("Trustlint", res)
	// The telemetry sampling hot path: one server-sized delta row per
	// op (mirrors BenchmarkSample in internal/ftdc). Its allocs/op entry
	// is the recorded form of the package's zero-alloc claim.
	record("FTDCSample", testing.Benchmark(benchFTDCSample))
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
