// Kill churn sweep: hard-kill the server mid-enrollment and restart it
// over the recovered WAL, repeatedly, proving the durability contract
// end to end — an acknowledged enrollment is NEVER lost, an
// unacknowledged one is NEVER resurrected, and the torn tail each kill
// leaves behind is cleanly discarded. The kill is operation-counted
// (a store.FaultFS write budget), not time-based, so the sweep's
// report is byte-for-byte identical at any worker count.
package loadgen

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"trust/internal/device"
	"trust/internal/fingerprint"
	"trust/internal/flock"
	"trust/internal/geom"
	"trust/internal/pki"
	"trust/internal/placement"
	"trust/internal/store"
	"trust/internal/touch"
	"trust/internal/webserver"
)

// KillConfig describes one kill churn sweep.
type KillConfig struct {
	// Workers is the number of concurrently enrolling devices.
	Workers int
	// Rounds is the number of kill+restart cycles.
	Rounds int
	// Budget is the number of enrollments acknowledged per round before
	// the kill: the round's next durable write is torn mid-record and
	// the server degrades.
	Budget int
	// Seed parameterizes the deterministic fleet construction.
	Seed uint64
}

// KillReport is the sweep's outcome. Every field is a deterministic
// function of (Rounds, Budget) alone — NOT of Workers or goroutine
// scheduling — which is what the byte-stability check in cmd/trustload
// rides on: a healthy sweep reports Acked = Recovered = Rounds*Budget,
// Lost = Resurrected = 0, TornTails = Rounds.
type KillReport struct {
	Rounds int `json:"rounds"`
	Budget int `json:"budget"`
	// Acked counts enrollments the server acknowledged across all
	// rounds.
	Acked int `json:"acked_enrollments"`
	// Recovered counts live accounts after the final restart.
	Recovered int `json:"recovered_accounts"`
	// Lost counts acked enrollments missing after a restart — the
	// number this whole subsystem exists to keep at zero.
	Lost int `json:"lost_enrollments"`
	// Resurrected counts recovered accounts that were never
	// acknowledged (a torn record surviving replay would show up here).
	Resurrected int `json:"resurrected_accounts"`
	// TornTails counts recoveries that discarded a partial record
	// (every round's kill lands mid-record by construction).
	TornTails int `json:"torn_tails_discarded"`
}

// killWorker is one enrolling device identity, built once and reused
// against each restarted server.
type killWorker struct {
	mod *flock.Module
	f   *fingerprint.Finger
	now time.Duration
}

// KillSweep runs the churn sweep and returns its report. Per round:
// workers enroll fresh accounts concurrently against a WAL-backed
// server whose filesystem tears the write after Budget records; when
// every worker has seen the storage rejection the server is discarded
// WITHOUT Close — a hard kill, torn bytes left in place — and the next
// round's server recovers from the damaged log. A final restart
// recounts everything.
func KillSweep(cfg KillConfig) (KillReport, error) {
	if cfg.Workers < 1 || cfg.Rounds < 1 || cfg.Budget < 1 {
		return KillReport{}, fmt.Errorf("loadgen: kill sweep needs workers, rounds, budget >= 1 (got %d, %d, %d)",
			cfg.Workers, cfg.Rounds, cfg.Budget)
	}
	ca, err := pki.NewCA("trust-root", pki.NewDeterministicRand(cfg.Seed^0x10ad))
	if err != nil {
		return KillReport{}, err
	}
	pl := placement.Placement{Sensors: []geom.Rect{geom.RectWH(180, 660, 120, 120)}}
	workers := make([]*killWorker, cfg.Workers)
	for i := range workers {
		mod, err := flock.New(flock.DefaultConfig(pl), ca, fmt.Sprintf("kill-dev-%d", i), cfg.Seed+100+uint64(i))
		if err != nil {
			return KillReport{}, err
		}
		f := fingerprint.Synthesize(cfg.Seed+9000+uint64(i)*13, fingerprint.PatternType(i%3))
		if err := mod.Enroll(fingerprint.NewTemplate(f)); err != nil {
			return KillReport{}, err
		}
		w := &killWorker{mod: mod, f: f}
		verified := false
		for a := 0; a < 40 && !verified; a++ {
			ev := touch.Event{At: w.now, Pos: geom.Point{X: 240, Y: 720}, Pressure: 0.7, RadiusMM: 4.2, SpeedMMS: 1}
			if mod.HandleTouch(ev, f).Kind == flock.Matched {
				verified = true
			} else {
				w.now += 400 * time.Millisecond
			}
		}
		if !verified {
			return KillReport{}, fmt.Errorf("loadgen: kill worker %d never touch-verified", i)
		}
		workers[i] = w
	}

	fsys := store.NewMemFS()
	rep := KillReport{Rounds: cfg.Rounds, Budget: cfg.Budget}
	acked := make(map[string]bool)

	// recover opens the WAL over the raw filesystem (discarding any
	// torn tail and rewriting the log clean), verifies no acked
	// enrollment is missing, and returns the recovered WAL.
	recoverClean := func(stage string) (*store.WAL, error) {
		wal, err := store.OpenWAL(fsys, store.WALOptions{SnapshotEvery: -1})
		if err != nil {
			return nil, fmt.Errorf("loadgen: %s recovery: %w", stage, err)
		}
		if wal.Stats().TornTailBytes > 0 {
			rep.TornTails++
		}
		rep.Lost += missingAcked(wal, acked)
		return wal, nil
	}

	for round := 0; round < cfg.Rounds; round++ {
		wal, err := recoverClean(fmt.Sprintf("round %d", round))
		if err != nil {
			return rep, err
		}
		wal.Close()
		// Reopen the now-clean log behind the fault injector; the clean
		// open consumes no writes, so the budget counts exactly the
		// round's enrollment appends (snapshots stay disabled for the
		// same reason — the restart replays the full log regardless).
		ffs := store.NewFaultFS(fsys, int64(cfg.Budget), -1)
		wal, err = store.OpenWAL(ffs, store.WALOptions{SnapshotEvery: -1})
		if err != nil {
			return rep, fmt.Errorf("loadgen: round %d reopen: %w", round, err)
		}
		srv, err := webserver.NewDurable("load.example", ca, cfg.Seed^0x5e7+uint64(round), wal)
		if err != nil {
			return rep, err
		}

		var wg sync.WaitGroup
		var roundAcked sync.Map
		var workerErr atomic.Value
		for i, w := range workers {
			wg.Add(1)
			go func(i int, w *killWorker) {
				defer wg.Done()
				dev := device.New(fmt.Sprintf("kill-dev-%d", i), w.mod, &device.InMemory{Server: srv})
				for op := 0; ; op++ {
					id := fmt.Sprintf("kill-%d-%d-%d", round, i, op)
					err := dev.Register(w.now, id, "recovery-pw")
					if err == nil {
						roundAcked.Store(id, true)
						continue
					}
					if !strings.Contains(err.Error(), store.ErrStorage.Error()) {
						// Any rejection other than the injected storage
						// failure is a real bug; surface it.
						workerErr.Store(fmt.Errorf("loadgen: kill worker %d: %w", i, err))
					}
					return
				}
			}(i, w)
		}
		wg.Wait()
		// Hard kill: no Close, no final sync — the WAL handle simply
		// stops being used, exactly like a SIGKILL'd process, leaving
		// the torn record on "disk".
		if err, ok := workerErr.Load().(error); ok {
			return rep, err
		}
		roundAcked.Range(func(k, _ any) bool {
			acked[k.(string)] = true
			rep.Acked++
			return true
		})
	}

	// Final restart over the last round's torn log: count survivors.
	wal, err := recoverClean("final")
	if err != nil {
		return rep, err
	}
	defer wal.Close()
	recs, _ := wal.State()
	rep.Recovered = len(recs)
	for _, r := range recs {
		if !acked[r.Account] {
			rep.Resurrected++
		}
	}
	return rep, nil
}

// missingAcked counts acknowledged ids absent from the recovered state.
func missingAcked(wal *store.WAL, acked map[string]bool) int {
	recs, _ := wal.State()
	seen := make(map[string]bool, len(recs))
	for _, r := range recs {
		seen[r.Account] = true
	}
	missing := 0
	ids := make([]string, 0, len(acked))
	for id := range acked {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		if !seen[id] {
			missing++
		}
	}
	return missing
}
