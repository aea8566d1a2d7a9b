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
//	benchtab -ftdc-diff before.ftdc,after.ftdc   # per-metric final-value deltas
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
		ext        = flag.String("x", "", "extension experiment: "+extensionNames())
		seed       = flag.Uint64("seed", harness.Seed, "deterministic experiment seed")
		out        = flag.String("out", "", "also write each artifact to <out>/<id>.txt")
		jsonPath   = flag.String("json", "", "measure every artifact generator and write {name: {ns_per_op, allocs_per_op}} to the given file ('' = off; '-' = BENCH_harness.json)")
		serverJSON = flag.String("server-json", "", "measure server load scenarios (ops/sec, p50/p99) and write the report to the given file ('' = off; '-' = BENCH_server.json)")
		ftdcOut    = flag.String("ftdc", "", "run the chaos sweep with telemetry capture and write the FTDC bytes to the given file")
		ftdcPrint  = flag.String("ftdc-print", "", "pretty-print an FTDC capture file (per-metric first/last/min/max)")
		ftdcDiff   = flag.String("ftdc-diff", "", "diff two FTDC capture files by final value: comma-separated pair a.ftdc,b.ftdc")
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
		results, err := harness.AllResults(*seed)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchtab: %v\n", err)
			os.Exit(1)
		}
		for _, r := range results {
			emit(r)
		}
	case *table == 1:
		run(harness.Table1(*seed))
	case *table == 2:
		run(harness.Table2())
	case *fig >= 1 && *fig <= 10:
		gens := map[int]func() (harness.Result, error){
			1:  func() (harness.Result, error) { return harness.Fig1(*seed) },
			2:  func() (harness.Result, error) { return harness.Fig2(*seed) },
			3:  func() (harness.Result, error) { return harness.Fig3() },
			4:  func() (harness.Result, error) { return harness.Fig4(*seed) },
			5:  func() (harness.Result, error) { return harness.Fig5(*seed) },
			6:  func() (harness.Result, error) { return harness.Fig6(*seed) },
			7:  func() (harness.Result, error) { return harness.Fig7(*seed) },
			8:  func() (harness.Result, error) { return harness.Fig8(*seed) },
			9:  func() (harness.Result, error) { return harness.Fig9(*seed) },
			10: func() (harness.Result, error) { return harness.Fig10(*seed) },
		}
		run(gens[*fig]())
	case *ext != "":
		gen, ok := extensions[*ext]
		if !ok {
			fmt.Fprintf(os.Stderr, "benchtab: unknown extension %q (want %s)\n", *ext, extensionNames())
			os.Exit(2)
		}
		run(gen(*seed))
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
	// Recovery rows: snapshot-load + WAL-replay time for a cold server
	// start at each account-store size (the crash-recovery downtime).
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

// extensions maps each -x name to its extension experiment.
var extensions = map[string]func(seed uint64) (harness.Result, error){
	"placement":       harness.XPlacement,
	"window":          harness.XWindow,
	"attacks":         harness.XAttacks,
	"energy":          harness.XEnergy,
	"frameaudit":      harness.XFrameAudit,
	"transfer":        harness.XTransfer,
	"fuzzyvault":      harness.XFuzzyVault,
	"modalities":      harness.XModalities,
	"hijack":          harness.XHijack,
	"imagepipeline":   harness.XImagePipeline,
	"adaptation":      harness.XAdaptation,
	"noise":           harness.XNoise,
	"personalization": harness.XPersonalization,
	"chaos":           harness.XChaos,
	"streamchaos":     harness.XStreamChaos,
}

// extensionNames lists the -x names, sorted and '|'-separated, so the
// flag's help text and the unknown-name error always match the map.
func extensionNames() string {
	names := make([]string, 0, len(extensions))
	for name := range extensions {
		names = append(names, name)
	}
	sort.Strings(names)
	return strings.Join(names, "|")
}

// benchEntry is one measured artifact in the -json report.
type benchEntry struct {
	NsPerOp     int64 `json:"ns_per_op"`
	AllocsPerOp int64 `json:"allocs_per_op"`
}

// writeBenchJSON measures every artifact generator with
// testing.Benchmark and writes the machine-readable timing report. The
// names mirror the Benchmark* functions in bench_test.go, so CI can
// diff this file against `go test -bench` output.
func writeBenchJSON(path string, seed uint64) error {
	gens := []struct {
		name string
		fn   func() (harness.Result, error)
	}{
		{"Table1", func() (harness.Result, error) { return harness.Table1(seed) }},
		{"Table2", func() (harness.Result, error) { return harness.Table2() }},
		{"Fig1", func() (harness.Result, error) { return harness.Fig1(seed) }},
		{"Fig2", func() (harness.Result, error) { return harness.Fig2(seed) }},
		{"Fig3", func() (harness.Result, error) { return harness.Fig3() }},
		{"Fig4", func() (harness.Result, error) { return harness.Fig4(seed) }},
		{"Fig5", func() (harness.Result, error) { return harness.Fig5(seed) }},
		{"Fig6", func() (harness.Result, error) { return harness.Fig6(seed) }},
		{"Fig7", func() (harness.Result, error) { return harness.Fig7(seed) }},
		{"Fig8", func() (harness.Result, error) { return harness.Fig8(seed) }},
		{"Fig9", func() (harness.Result, error) { return harness.Fig9(seed) }},
		{"Fig10", func() (harness.Result, error) { return harness.Fig10(seed) }},
		{"Placement", func() (harness.Result, error) { return harness.XPlacement(seed) }},
		{"WindowPolicy", func() (harness.Result, error) { return harness.XWindow(seed) }},
		{"Attacks", func() (harness.Result, error) { return harness.XAttacks(seed) }},
		{"Energy", func() (harness.Result, error) { return harness.XEnergy(seed) }},
		{"FrameAudit", func() (harness.Result, error) { return harness.XFrameAudit(seed) }},
		{"Transfer", func() (harness.Result, error) { return harness.XTransfer(seed) }},
		{"FuzzyVault", func() (harness.Result, error) { return harness.XFuzzyVault(seed) }},
		{"Modalities", func() (harness.Result, error) { return harness.XModalities(seed) }},
		{"Hijack", func() (harness.Result, error) { return harness.XHijack(seed) }},
		{"ImagePipeline", func() (harness.Result, error) { return harness.XImagePipeline(seed) }},
		{"Adaptation", func() (harness.Result, error) { return harness.XAdaptation(seed) }},
		{"Noise", func() (harness.Result, error) { return harness.XNoise(seed) }},
		{"Personalization", func() (harness.Result, error) { return harness.XPersonalization(seed) }},
		{"Chaos", func() (harness.Result, error) { return harness.XChaos(seed) }},
		{"StreamChaos", func() (harness.Result, error) { return harness.XStreamChaos(seed) }},
	}
	// Fail on an unwritable path before spending minutes measuring.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE, 0o644)
	if err != nil {
		return err
	}
	f.Close()
	report := make(map[string]benchEntry, len(gens))
	for _, g := range gens {
		var genErr error
		res := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := g.fn(); err != nil {
					genErr = err
					b.FailNow()
				}
			}
		})
		if genErr != nil {
			return fmt.Errorf("%s: %w", g.name, genErr)
		}
		report[g.name] = benchEntry{NsPerOp: res.NsPerOp(), AllocsPerOp: res.AllocsPerOp()}
		fmt.Fprintf(os.Stderr, "%-16s %12d ns/op %12d allocs/op\n", g.name, res.NsPerOp(), res.AllocsPerOp())
	}
	// The static-analysis sweep runs on every verify, so its cost is
	// tracked alongside the artifact generators (BenchmarkTrustlint /
	// BenchmarkTrustlintColdList in bench_test.go mirror these entries).
	// TrustlintColdList drops the package-list cache each iteration —
	// the first-run cost of a fresh process; Trustlint keeps it warm.
	lints := []struct {
		name string
		cold bool
	}{
		{"TrustlintColdList", true},
		{"Trustlint", false},
	}
	for _, l := range lints {
		var lintErr error
		res := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if l.cold {
					analysis.ResetListCache()
				}
				findings, err := analysis.Lint(".", "./...")
				if err != nil {
					lintErr = err
					b.FailNow()
				}
				if len(findings) > 0 {
					lintErr = fmt.Errorf("tree has %d trustlint finding(s)", len(findings))
					b.FailNow()
				}
			}
		})
		if lintErr != nil {
			return fmt.Errorf("%s: %w", l.name, lintErr)
		}
		report[l.name] = benchEntry{NsPerOp: res.NsPerOp(), AllocsPerOp: res.AllocsPerOp()}
		fmt.Fprintf(os.Stderr, "%-16s %12d ns/op %12d allocs/op\n", l.name, res.NsPerOp(), res.AllocsPerOp())
	}
	// The telemetry sampling hot path: one server-sized delta row per
	// op (mirrors BenchmarkFTDCSample in bench_test.go and
	// BenchmarkSample in internal/ftdc). Its allocs/op entry is the
	// recorded form of the package's zero-alloc claim.
	{
		res := testing.Benchmark(benchFTDCSample)
		report["FTDCSample"] = benchEntry{NsPerOp: res.NsPerOp(), AllocsPerOp: res.AllocsPerOp()}
		fmt.Fprintf(os.Stderr, "%-16s %12d ns/op %12d allocs/op\n", "FTDCSample", res.NsPerOp(), res.AllocsPerOp())
	}
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
