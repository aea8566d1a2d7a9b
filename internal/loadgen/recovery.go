package loadgen

import (
	"fmt"
	"testing"
	"time"

	"trust/internal/pki"
	"trust/internal/store"
	"trust/internal/webserver"
)

// MeasureRecovery times a cold server start over a durable store
// holding n accounts — store.OpenWAL (snapshot load plus WAL-suffix
// replay) and webserver.NewDurable (server keys and certificate, then
// the account shards seeded from the recovered state): the downtime a
// crashed server pays before serving logins again. The CA exists before
// the crash, so it is built outside the timed loop. The result rides
// BENCH_server.json next to the throughput rows.
func MeasureRecovery(n int) (Result, error) {
	if n < 1 {
		return Result{}, fmt.Errorf("loadgen: recovery over %d accounts", n)
	}
	fsys := store.NewMemFS()
	wal, err := store.OpenWAL(fsys, store.WALOptions{SnapshotEvery: 1 << 14})
	if err != nil {
		return Result{}, err
	}
	var pub [32]byte
	var digest [32]byte
	for i := 0; i < n; i++ {
		pub[0], digest[0] = byte(i), byte(i>>8)
		if err := wal.Append(store.Record{
			Kind:           store.KindEnroll,
			At:             time.Duration(i) * time.Millisecond,
			Account:        fmt.Sprintf("recov-acct-%07d", i),
			Gen:            uint64(i + 1),
			PublicKey:      pub[:],
			DeviceSubject:  "recov-dev",
			RecoveryDigest: digest,
		}); err != nil {
			wal.Close()
			return Result{}, err
		}
	}
	if err := wal.Close(); err != nil {
		return Result{}, err
	}

	ca, err := pki.NewCA("trust-root", pki.NewDeterministicRand(0x10ad))
	if err != nil {
		return Result{}, err
	}
	last := fmt.Sprintf("recov-acct-%07d", n-1)
	var openErr error
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N && openErr == nil; i++ {
			w, err := store.OpenWAL(fsys, store.WALOptions{SnapshotEvery: 1 << 14})
			if err != nil {
				openErr = err
				return
			}
			srv, err := webserver.NewDurable("load.example", ca, 0x5e7, w)
			switch {
			case err != nil:
				openErr = err
			case w.Stats().Live != n:
				openErr = fmt.Errorf("loadgen: recovered %d accounts, want %d", w.Stats().Live, n)
			default:
				if _, ok := srv.Account(last); !ok {
					openErr = fmt.Errorf("loadgen: recovered server lacks account %s", last)
				}
			}
			w.Close()
		}
	})
	if openErr != nil {
		return Result{}, openErr
	}
	out := Result{
		Name:        fmt.Sprintf("wal-recovery_%d", n),
		Ops:         res.N,
		NsPerOp:     res.NsPerOp(),
		AllocsPerOp: res.AllocsPerOp(),
		BytesPerOp:  res.AllocedBytesPerOp(),
		P50Ns:       res.NsPerOp(),
		P99Ns:       res.NsPerOp(),
	}
	if s := res.T.Seconds(); s > 0 {
		out.OpsPerSec = float64(res.N) / s
	}
	return out, nil
}
