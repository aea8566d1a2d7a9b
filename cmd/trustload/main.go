// Command trustload measures TRUST server throughput under concurrent
// simulated-device load: N devices register (and log in), then hammer
// the remote-auth hot path while ops/sec and latency percentiles are
// sampled. Virtual protocol time stays deterministic; only the
// measurement clock (testing.Benchmark) is wall time.
//
// Usage:
//
//	trustload                              # page requests, direct, 1 and 8 devices
//	trustload -devices 1,4,16 -transport binary
//	trustload -mode login -devices 8
//	trustload -mode resume -devices 8       # ticket fast path (cold login once, then resumes)
//	trustload -mode churn -devices 8        # 1-in-8 cold logins mixed into resumes
//	trustload -faults 0.2 -retries 4       # 20% loss each way, 4-attempt budget
//	trustload -json BENCH_server.json      # machine-readable report
//	trustload -mode enroll -backend wal    # durable enrollment (WAL append+sync per op)
//	trustload -kill -devices 4             # kill churn sweep: hard-kill + restart over
//	                                       # the WAL, zero lost enrollments required
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"trust/internal/device"
	"trust/internal/loadgen"
)

func main() {
	var (
		devices   = flag.String("devices", "1,8", "comma-separated device counts to sweep")
		transport = flag.String("transport", "direct", "transport: direct|json|binary|stream")
		mode      = flag.String("mode", "page", "operation: page|login|resume|churn")
		seed      = flag.Uint64("seed", 1, "deterministic fleet seed")
		jsonPath  = flag.String("json", "", "also write the report as JSON to the given file")
		faults    = flag.Float64("faults", 0, "per-direction message drop rate on the measured traffic (0..1)")
		retries   = flag.Int("retries", 0, "retry budget per operation (required with -faults or -cut)")
		batch     = flag.Int("batch", 0, "requests pipelined per touch batch (stream transport only)")
		cut       = flag.Float64("cut", 0, "mid-frame cut rate on streamed writes (0..1, stream transport only)")
		tear      = flag.Float64("tear", 0, "torn-write rate on streamed writes (0..1, stream transport only)")
		backend   = flag.String("backend", "memory", "account store backend: memory|wal")
		kill      = flag.Bool("kill", false, "run the kill churn sweep (hard-kill + restart over the WAL backend) instead of a throughput scenario")
		killSets  = flag.Int("kill-rounds", 3, "kill+restart cycles in the -kill sweep")
		killEach  = flag.Int("kill-budget", 32, "enrollments acknowledged per round before the kill in the -kill sweep")
		ftdcDir   = flag.String("ftdc", "", "write each scenario's FTDC telemetry capture to <dir>/<scenario>.ftdc (samples the server row every 64 ops)")
	)
	flag.Parse()
	if *faults < 0 || *faults >= 1 {
		fmt.Fprintf(os.Stderr, "trustload: -faults %v outside [0, 1)\n", *faults)
		os.Exit(2)
	}
	if *faults > 0 && *retries < 1 {
		fmt.Fprintln(os.Stderr, "trustload: -faults needs -retries >= 1 (lossy ops would abort the run)")
		os.Exit(2)
	}
	if *cut < 0 || *cut >= 1 || *tear < 0 || *tear >= 1 {
		fmt.Fprintln(os.Stderr, "trustload: -cut/-tear outside [0, 1)")
		os.Exit(2)
	}
	if *cut > 0 && *retries < 1 {
		fmt.Fprintln(os.Stderr, "trustload: -cut needs -retries >= 1 (cut frames would abort the run)")
		os.Exit(2)
	}
	if (*cut > 0 || *tear > 0 || *batch > 1) && *transport != "stream" {
		fmt.Fprintln(os.Stderr, "trustload: -cut/-tear/-batch need -transport stream")
		os.Exit(2)
	}

	tr, ok := map[string]loadgen.Transport{
		"direct": loadgen.Direct,
		"json":   loadgen.HTTPJSON,
		"binary": loadgen.HTTPBinary,
		"stream": loadgen.Stream,
	}[*transport]
	if !ok {
		fmt.Fprintf(os.Stderr, "trustload: unknown transport %q\n", *transport)
		os.Exit(2)
	}
	md, ok := map[string]loadgen.Mode{
		"page":   loadgen.PageRequest,
		"login":  loadgen.Login,
		"resume": loadgen.Resume,
		"churn":  loadgen.Churn,
		"enroll": loadgen.Enroll,
	}[*mode]
	if !ok {
		fmt.Fprintf(os.Stderr, "trustload: unknown mode %q\n", *mode)
		os.Exit(2)
	}
	be, ok := map[string]loadgen.Backend{
		"memory": loadgen.MemoryBackend,
		"wal":    loadgen.WALBackend,
	}[*backend]
	if !ok {
		fmt.Fprintf(os.Stderr, "trustload: unknown backend %q\n", *backend)
		os.Exit(2)
	}

	var counts []int
	for _, part := range strings.Split(*devices, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n < 1 {
			fmt.Fprintf(os.Stderr, "trustload: bad device count %q\n", part)
			os.Exit(2)
		}
		counts = append(counts, n)
	}

	if *kill {
		// The kill sweep's report must be byte-for-byte identical at
		// every worker count: run it once per requested count and
		// compare the marshalled reports.
		var prev []byte
		for _, n := range counts {
			rep, err := loadgen.KillSweep(loadgen.KillConfig{
				Workers: n, Rounds: *killSets, Budget: *killEach, Seed: *seed,
			})
			if err != nil {
				fmt.Fprintf(os.Stderr, "trustload: kill sweep (%d workers): %v\n", n, err)
				os.Exit(1)
			}
			data, err := json.MarshalIndent(rep, "", "  ")
			if err != nil {
				fmt.Fprintf(os.Stderr, "trustload: %v\n", err)
				os.Exit(1)
			}
			fmt.Printf("kill sweep, %d workers: acked=%d recovered=%d lost=%d resurrected=%d torn-tails=%d\n",
				n, rep.Acked, rep.Recovered, rep.Lost, rep.Resurrected, rep.TornTails)
			if rep.Lost != 0 || rep.Resurrected != 0 || rep.Acked != rep.Recovered {
				fmt.Fprintf(os.Stderr, "trustload: DURABILITY VIOLATION: %s\n", data)
				os.Exit(1)
			}
			if prev != nil && string(prev) != string(data) {
				fmt.Fprintf(os.Stderr, "trustload: kill report differs across worker counts:\n%s\nvs\n%s\n", prev, data)
				os.Exit(1)
			}
			prev = data
			if *jsonPath != "" {
				if err := os.WriteFile(*jsonPath, append(data, '\n'), 0o644); err != nil {
					fmt.Fprintf(os.Stderr, "trustload: %v\n", err)
					os.Exit(1)
				}
			}
		}
		fmt.Println("kill sweep: zero lost enrollments, report byte-stable across worker counts")
		return
	}

	var results []loadgen.Result
	fmt.Printf("%-28s %10s %12s %10s %10s %8s\n", "scenario", "ops", "ops/sec", "p50", "p99", "allocs")
	for _, n := range counts {
		ftdcEvery := 0
		if *ftdcDir != "" {
			ftdcEvery = 64
		}
		res, err := loadgen.Run(loadgen.Config{
			Devices: n, Transport: tr, Mode: md, Seed: *seed,
			Faults:        device.FaultProfile{DropRate: *faults, CutRate: *cut, TearRate: *tear},
			RetryAttempts: *retries,
			Batch:         *batch,
			Backend:       be,
			FTDCEvery:     ftdcEvery,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "trustload: %v\n", err)
			os.Exit(1)
		}
		if *ftdcDir != "" {
			if err := os.MkdirAll(*ftdcDir, 0o755); err != nil {
				fmt.Fprintf(os.Stderr, "trustload: %v\n", err)
				os.Exit(1)
			}
			path := filepath.Join(*ftdcDir, res.Name+".ftdc")
			if err := os.WriteFile(path, res.Capture, 0o644); err != nil {
				fmt.Fprintf(os.Stderr, "trustload: %v\n", err)
				os.Exit(1)
			}
		}
		results = append(results, res)
		fmt.Printf("%-28s %10d %12.0f %9.2fµs %9.2fµs %8d\n",
			res.Name, res.Ops, res.OpsPerSec,
			float64(res.P50Ns)/1e3, float64(res.P99Ns)/1e3, res.AllocsPerOp)
	}

	if *jsonPath != "" {
		report := loadgen.NewReport(results)
		data, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "trustload: %v\n", err)
			os.Exit(1)
		}
		if err := os.WriteFile(*jsonPath, append(data, '\n'), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "trustload: %v\n", err)
			os.Exit(1)
		}
	}
}
