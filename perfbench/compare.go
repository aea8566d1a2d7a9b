package main

import (
	"encoding/json"
	"fmt"
	"maps"
	"os"
	"sort"
	"strings"
)

// benchFile is the part of BENCHMARK.json the comparison reads.
type benchFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// checkRepeatMain compares two --json result files metric by metric.
// For each end-to-end metric it prints both values, the change in the
// worse direction, the bound and a verdict; per-layer metrics have no
// bound and are printed for reference. It refuses files that were not
// measured alike, and returns 1 on any disagreement.
func checkRepeatMain(pair, benchPath string) int {
	paths := strings.Split(pair, ",")
	if len(paths) != 2 {
		fmt.Fprintln(os.Stderr, "perfbench: --check-repeat needs a.json,b.json")
		return 2
	}
	var runs [2]runFile
	for i, p := range paths {
		data, err := os.ReadFile(p)
		if err == nil {
			err = json.Unmarshal(data, &runs[i])
		}
		if err == nil && runs[i].Result == nil {
			err = fmt.Errorf("no result")
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", p, err)
			return 2
		}
	}
	var bench benchFile
	data, err := os.ReadFile(benchPath)
	if err == nil {
		err = json.Unmarshal(data, &bench)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", benchPath, err)
		return 2
	}
	a, b := runs[0], runs[1]
	if a.Workload != b.Workload || a.Seed != b.Seed || a.Seconds != b.Seconds || a.Trace != b.Trace ||
		a.NumCPU != b.NumCPU || a.GOMAXPROCS != b.GOMAXPROCS {
		fmt.Fprintf(os.Stderr, "perfbench: runs are not comparable: %s seed %d %gs trace %d num_cpu %d gomaxprocs %d vs %s seed %d %gs trace %d num_cpu %d gomaxprocs %d\n",
			a.Workload, a.Seed, a.Seconds, a.Trace, a.NumCPU, a.GOMAXPROCS,
			b.Workload, b.Seed, b.Seconds, b.Trace, b.NumCPU, b.GOMAXPROCS)
		return 2
	}
	return compareRuns(a, b, bench)
}

// compareRuns prints the comparison table and returns its exit code.
// Metrics bounded in BENCHMARK.json get a verdict; per-layer metrics and
// the ungated timings are printed for reference.
func compareRuns(a, b runFile, bench benchFile) int {
	bounds := map[string]int{}
	for i, m := range bench.EndToEnd {
		bounds[m.Name] = i
	}
	ma, mbs := a.values(), b.values()
	names := make([]string, 0, len(ma))
	for n := range ma {
		names = append(names, n)
	}
	sort.Strings(names)
	code := 0
	fmt.Printf("%s, seed %d, %gs, trace %d\n", a.Workload, a.Seed, a.Seconds, a.Trace)
	fmt.Printf("%-28s %14s %14s %9s %7s  %s\n", "metric", "a", "b", "worse", "bound", "verdict")
	for _, n := range names {
		va := ma[n].Value
		mb, ok := mbs[n]
		if !ok {
			fmt.Printf("%-28s %14.4f %14s %9s %7s  MISSING\n", n, va, "-", "-", "-")
			code = 1
			continue
		}
		i, gated := bounds[n]
		if !gated {
			fmt.Printf("%-28s %14.4f %14.4f %9s %7s  -\n", n, va, mb.Value, "-", "-")
			continue
		}
		m := bench.EndToEnd[i]
		worse := (mb.Value - va) / va
		if m.Better == "higher" {
			worse = -worse
		}
		verdict := "ok"
		if worse > m.Bound {
			verdict = "WORSE"
			code = 1
		}
		fmt.Printf("%-28s %14.4f %14.4f %8.2f%% %6.0f%%  %s\n", n, va, mb.Value, 100*worse, 100*m.Bound, verdict)
	}
	for _, r := range []runFile{a, b} {
		if !r.Result.Correct {
			fmt.Printf("a run failed its checks: %s\n", strings.Join(r.Problems, "; "))
			code = 1
		}
	}
	return code
}

// values is every metric a run file holds: the result's and the timings.
func (f runFile) values() map[string]metric {
	all := make(map[string]metric, len(f.Result.Metrics)+len(f.Timings))
	maps.Copy(all, f.Result.Metrics)
	maps.Copy(all, f.Timings)
	return all
}
