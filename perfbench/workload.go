package main

import (
	"fmt"
	"slices"
	"strings"
)

// transportKind is how a workload's devices reach the server.
type transportKind int

const (
	direct     transportKind = iota // handler calls in-process (device.InMemory)
	httpBinary                      // net/http over loopback TCP, binary codec
	stream                          // framed stream over loopback TCP
)

// workload is one traffic mix: the op each device repeats in a closed
// loop, and the checks its run must pass.
type workload struct {
	name      string
	transport transportKind
	// login establishes a session at set-up (the stream workloads browse
	// on it; login-churn primes the ticket cache with it).
	login bool
	op    func(d *benchDevice) error
	// check runs after the measured window on top of the common checks.
	check func(r *rig, base serverCounts) error
}

// The four workloads. Why each exists is recorded in README.md and
// BENCHMARK.json; in short: touch-browse is the paper's steady state and
// the only one that runs flock; browse-stream is the same wire traffic
// without the touch (the bypass for flock changes); login-churn is the
// session store and pki over per-request HTTP; enroll-wal is the only
// path into the WAL.
var workloads = []*workload{
	{name: "touch-browse", transport: stream, login: true, op: touchBrowse, check: checkMatchRatio},
	{name: "browse-stream", transport: stream, login: true, op: browse},
	{name: "login-churn", transport: httpBinary, login: true, op: loginChurn, check: checkChurnSplit},
	{name: "enroll-wal", transport: direct, op: enroll},
}

func workloadByName(name string) (*workload, error) {
	var names []string
	for _, wl := range workloads {
		if wl.name == name {
			return wl, nil
		}
		names = append(names, wl.name)
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// action alternates the two pages a browsing user moves between.
func action(n int) string {
	if n%2 == 1 {
		return "home"
	}
	return "view-statement"
}

// touchBrowse is one genuine on-sensor tap through the Fig 6 pipeline
// followed by the page request it authorizes.
func touchBrowse(d *benchDevice) error {
	d.tap()
	return browse(d)
}

// browse is one continuous-auth page request on the established
// session; the device clock stays where the last tap left it.
func browse(d *benchDevice) error {
	d.ops++
	return d.dev.Browse(d.now, action(d.ops))
}

// loginChurn establishes one session per op: every eighth op per device
// is a cold Fig 10 login, the rest resume on the cached ticket.
func loginChurn(d *benchDevice) error {
	d.ops++
	if d.ops%8 == 1 {
		d.cold++
		return d.dev.Login(d.now, d.cert, d.account)
	}
	return d.dev.LoginResume(d.now, d.cert, d.account)
}

// enroll is one Fig 9 registration of a fresh account: a synced WAL
// append, plus a snapshot of the whole account state every 1,024th.
func enroll(d *benchDevice) error {
	d.ops++
	if err := d.dev.Register(d.now, enrollAccount(d.idx, d.ops), "recovery-pw"); err != nil {
		return err
	}
	d.acked++
	return nil
}

// serverCounts is the slice of the server's telemetry the checks read.
type serverCounts struct {
	accepted, rejected, loginsFull, loginsResume, nonceEvictions int64
}

// columns reads the named columns out of a telemetry schema and its
// values. A name the schema lacks is an error: a renamed column must fail
// the run, not read as zero and let a check pass by default.
func columns(schema []string, vals []int64, names ...string) ([]int64, error) {
	out := make([]int64, len(names))
	for i, name := range names {
		j := slices.Index(schema, name)
		if j < 0 || j >= len(vals) {
			return nil, fmt.Errorf("telemetry has no column %q", name)
		}
		out[i] = vals[j]
	}
	return out, nil
}

// counts reads the server's counters by their registered column names.
func (r *rig) counts() (serverCounts, error) {
	v, err := columns(r.srv.MetricsSchema(), r.srv.AppendMetrics(nil),
		"accepted", "rejected", "logins_full", "logins_resume", "nonce_evictions")
	if err != nil {
		return serverCounts{}, fmt.Errorf("server %w", err)
	}
	return serverCounts{accepted: v[0], rejected: v[1], loginsFull: v[2], loginsResume: v[3], nonceEvictions: v[4]}, nil
}

// accountsLive sums the server's account shards.
func (r *rig) accountsLive() (int64, error) {
	vals := r.srv.AppendMetrics(nil)
	var n int64
	shards := 0
	for i, name := range r.srv.MetricsSchema() {
		if strings.HasPrefix(name, "accounts_shard") {
			n += vals[i]
			shards++
		}
	}
	if shards == 0 {
		return 0, fmt.Errorf("server telemetry has no accounts_shard columns")
	}
	return n, nil
}

// checkMatchRatio: on touch-browse at least 99% of taps must verify.
func checkMatchRatio(r *rig, _ serverCounts) error {
	touches, matched := 0, 0
	for _, d := range r.devs {
		touches += d.touches
		matched += d.matched
	}
	if touches == 0 {
		return fmt.Errorf("no taps in the window")
	}
	if ratio := float64(matched) / float64(touches); ratio < 0.99 {
		return fmt.Errorf("flock match ratio %.4f < 0.99 (%d of %d taps)", ratio, matched, touches)
	}
	return nil
}

// checkChurnSplit: the server saw exactly the full logins and resumes the
// devices issued, the split is 1:7 within one op per device, and no
// resume fell back to a full login.
func checkChurnSplit(r *rig, base serverCounts) error {
	now, err := r.counts()
	if err != nil {
		return err
	}
	var cold, resumed int64
	for _, d := range r.devs {
		if want := (d.ops + 7) / 8; d.cold != want {
			return fmt.Errorf("device %d issued %d full logins in %d ops, want %d", d.idx, d.cold, d.ops, want)
		}
		cold += int64(d.cold)
		resumed += int64(d.ops - d.cold)
		fb, err := deviceCounters(d, "dev_resume_fallbacks")
		if err != nil {
			return err
		}
		if fb[0] != 0 {
			return fmt.Errorf("device %d: %d resume fallbacks", d.idx, fb[0])
		}
	}
	if got := now.loginsFull - base.loginsFull; got != cold {
		return fmt.Errorf("server counted %d full logins, devices issued %d", got, cold)
	}
	if got := now.loginsResume - base.loginsResume; got != resumed {
		return fmt.Errorf("server counted %d resumes, devices issued %d", got, resumed)
	}
	return nil
}

// deviceCounters reads a device's telemetry columns by name.
func deviceCounters(d *benchDevice, names ...string) ([]int64, error) {
	v, err := columns(d.dev.MetricsSchema(), d.dev.AppendMetrics(nil), names...)
	if err != nil {
		return nil, fmt.Errorf("device %d %w", d.idx, err)
	}
	return v, nil
}

// workloadNames lists the workloads in definition order.
func workloadNames() []string {
	var names []string
	for _, wl := range workloads {
		names = append(names, wl.name)
	}
	return names
}
