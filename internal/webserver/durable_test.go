package webserver

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"trust/internal/frame"
	"trust/internal/pki"
	"trust/internal/protocol"
	"trust/internal/store"
)

// newDurableRig is newRig with the server's account store backed by a
// WAL over fsys (wrapped when wrap is non-nil, e.g. a FaultFS).
func newDurableRig(t testing.TB, fsys store.FS) *rig {
	t.Helper()
	ca, err := pki.NewCA("trust-root", pki.NewDeterministicRand(1))
	if err != nil {
		t.Fatal(err)
	}
	wal, err := store.OpenWAL(fsys, store.WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewDurable("www.xyz.com", ca, 7, wal)
	if err != nil {
		t.Fatal(err)
	}
	base := newRig(t)
	base.server = srv
	return base
}

// restartDurable closes the rig's server and opens a fresh one over
// the same filesystem and seed — a crash-restart with recovery.
func restartDurable(t testing.TB, r *rig, fsys store.FS) {
	t.Helper()
	if err := r.server.Close(); err != nil {
		t.Fatal(err)
	}
	wal, err := store.OpenWAL(fsys, store.WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewDurable("www.xyz.com", r.ca, 7, wal)
	if err != nil {
		t.Fatal(err)
	}
	r.server = srv
}

// buildRegistration walks the client through Fig 9 and returns the
// submission without delivering it.
func buildRegistration(t testing.TB, r *rig, account string) *protocol.RegistrationSubmit {
	t.Helper()
	regPage := r.server.ServeRegistrationPage(r.now)
	r.client.DisplayPage(regPage.Page, frame.View{Zoom: 1})
	r.touchButton(t)
	sub, err := r.client.HandleRegistrationPage(r.now, regPage, account)
	if err != nil {
		t.Fatalf("registration client: %v", err)
	}
	return sub
}

// An account id longer than the WAL record's 16-bit length is refused
// as malformed before the claim, counted once, and leaves the server
// undegraded and its log openable: a restart recovers the others.
func TestRegistrationRejectsAccountTheLogCannotHold(t *testing.T) {
	fsys := store.NewMemFS()
	r := newDurableRig(t, fsys)
	r.register(t, "alice")
	long := strings.Repeat("a", 1<<16)
	sub := buildRegistration(t, r, long)
	rejected := r.server.rejected.Load()
	if res := r.server.HandleRegistration(r.now, sub, ""); res.OK || !strings.Contains(res.Reason, ErrMalformed.Error()) {
		t.Fatalf("%d-byte account id: %+v, want a malformed rejection", len(long), res)
	}
	if got := r.server.rejected.Load() - rejected; got != 1 {
		t.Fatalf("rejection counted %d times, want 1", got)
	}
	if r.server.degraded.Load() {
		t.Fatal("an oversized account id degraded the server")
	}
	if _, ok := r.server.Account(long); ok {
		t.Fatal("oversized account id bound")
	}
	r.register(t, "bob")
	restartDurable(t, r, fsys)
	for _, id := range []string{"alice", "bob"} {
		if _, ok := r.server.Account(id); !ok {
			t.Fatalf("%s lost across restart", id)
		}
	}
	// The longest id the record holds still enrolls and recovers.
	r.register(t, long[:1<<16-1])
	restartDurable(t, r, fsys)
	if _, ok := r.server.Account(long[:1<<16-1]); !ok {
		t.Fatal("65,535-byte account id lost across restart")
	}
}

func TestDurableRestartRecoversAccounts(t *testing.T) {
	fsys := store.NewMemFS()
	r := newDurableRig(t, fsys)
	r.register(t, "alice")
	before, ok := r.server.Account("alice")
	if !ok {
		t.Fatal("account missing after registration")
	}

	restartDurable(t, r, fsys)
	after, ok := r.server.Account("alice")
	if !ok {
		t.Fatal("acknowledged enrollment lost across restart")
	}
	if after.Gen != before.Gen || after.DeviceSubject != before.DeviceSubject ||
		string(after.PublicKey) != string(before.PublicKey) ||
		after.RecoveryDigest != before.RecoveryDigest || after.RegisteredAt != before.RegisteredAt {
		t.Fatalf("recovered account differs:\n before %+v\n after  %+v", before, after)
	}

	// The recovered binding serves logins.
	r.login(t, "alice")

	// And refuses a second claim, exactly as a live binding would.
	sub := buildRegistration(t, r, "alice")
	if res := r.server.HandleRegistration(r.now, sub, "pw"); res.OK || res.Reason != ErrTaken.Error() {
		t.Fatalf("re-claim of recovered id: OK=%v reason=%q, want ErrTaken", res.OK, res.Reason)
	}
}

// TestConcurrentClaimExactlyOnce is the satellite's exactly-once
// contract: 16 concurrent enrollments of one id yield exactly one
// acknowledged claim and exactly one WAL record. Run under -race by
// the tier-1 line.
func TestConcurrentClaimExactlyOnce(t *testing.T) {
	fsys := store.NewMemFS()
	r := newDurableRig(t, fsys)
	const contenders = 16
	subs := make([]*protocol.RegistrationSubmit, contenders)
	for i := range subs {
		subs[i] = buildRegistration(t, r, "contested")
	}
	results := make([]protocol.RegistrationResult, contenders)
	var wg sync.WaitGroup
	for i := range subs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = r.server.HandleRegistration(r.now, subs[i], "pw")
		}(i)
	}
	wg.Wait()
	won := 0
	for _, res := range results {
		if res.OK {
			won++
		} else if res.Reason != ErrTaken.Error() {
			t.Errorf("loser reason %q, want ErrTaken", res.Reason)
		}
	}
	if won != 1 {
		t.Fatalf("%d of %d concurrent enrollments acknowledged, want exactly 1", won, contenders)
	}
	r.server.Close()
	recs, _, err := store.ReadLog(fsys)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 {
		t.Fatalf("WAL holds %d records, want exactly 1", len(recs))
	}
	if recs[0].Kind != store.KindEnroll || recs[0].Account != "contested" {
		t.Fatalf("WAL record %+v", recs[0])
	}
}

// TestDegradedMode: a backend write failure must reject the enrollment
// with ErrStorage, latch degraded, keep already-durable accounts
// serving, and lose nothing acknowledged.
func TestDegradedMode(t *testing.T) {
	inner := store.NewMemFS()
	// Budget: the first enroll's single record write succeeds, the
	// second is torn.
	ffs := store.NewFaultFS(inner, 1, -1)
	r := newDurableRig(t, ffs)

	r.register(t, "durable") // consumes the write budget
	if r.server.degraded.Load() {
		t.Fatal("degraded before any failure")
	}

	// A second device (same deterministic CA) attempts the follow-up
	// enrollments, so the first device's domain identity — which must
	// keep logging in — is never re-keyed.
	r2 := newRig(t)
	r2.server = r.server

	sub := buildRegistration(t, r2, "lost")
	res := r.server.HandleRegistration(r.now, sub, "pw")
	if res.OK {
		t.Fatal("enrollment acknowledged over a torn write")
	}
	if res.Reason != ErrStorage.Error() {
		t.Fatalf("reason %q, want ErrStorage", res.Reason)
	}
	if !r.server.degraded.Load() {
		t.Fatal("server not degraded after backend failure")
	}
	// Once degraded, every new enrollment is refused up front, before
	// any crypto or claim work.
	sub2 := buildRegistration(t, r2, "after")
	if res := r.server.HandleRegistration(r.now, sub2, "pw"); res.OK || res.Reason != ErrStorage.Error() {
		t.Fatalf("degraded server enrollment: OK=%v reason=%q, want ErrStorage", res.OK, res.Reason)
	}
	// Already-durable accounts keep logging in.
	r.login(t, "durable")

	// Recovery over the underlying fs: exactly the acknowledged account.
	wal, err := store.OpenWAL(inner, store.WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer wal.Close()
	if got := wal.Stats().Live; got != 1 {
		t.Fatalf("recovered %d accounts, want 1 (the acknowledged one)", got)
	}
}

func TestResetIdentityDurable(t *testing.T) {
	fsys := store.NewMemFS()
	r := newDurableRig(t, fsys)
	r.register(t, "alice")
	old, _ := r.server.Account("alice")
	if err := r.server.ResetIdentity(r.now, "alice", "old-password-123"); err != nil {
		t.Fatalf("reset: %v", err)
	}

	restartDurable(t, r, fsys)
	if _, ok := r.server.Account("alice"); ok {
		t.Fatal("reset binding resurrected by restart")
	}
	// Re-registration works and bumps the generation past the old one.
	r.register(t, "alice")
	fresh, _ := r.server.Account("alice")
	if fresh.Gen <= old.Gen {
		t.Fatalf("re-registered gen %d not past old gen %d", fresh.Gen, old.Gen)
	}
}

func TestRevokeAccountDurable(t *testing.T) {
	fsys := store.NewMemFS()
	r := newDurableRig(t, fsys)
	r.register(t, "stolen")
	sess, _ := r.login(t, "stolen")
	if err := r.server.RevokeAccount(r.now, "stolen"); err != nil {
		t.Fatalf("revoke: %v", err)
	}
	if r.server.SessionAlive(sess.ID) {
		t.Fatal("session survived revocation")
	}
	// Revoked ids are unclaimable, now and after restart.
	sub := buildRegistration(t, r, "stolen")
	if res := r.server.HandleRegistration(r.now, sub, "pw"); res.OK {
		t.Fatal("revoked id re-claimed")
	}
	restartDurable(t, r, fsys)
	if _, ok := r.server.Account("stolen"); ok {
		t.Fatal("revoked binding recovered as live")
	}
	sub2 := buildRegistration(t, r, "stolen")
	if res := r.server.HandleRegistration(r.now, sub2, "pw"); res.OK {
		t.Fatal("revoked id re-claimed after restart")
	}
	if err := r.server.RevokeAccount(r.now, "missing"); !errors.Is(err, ErrUnknownAccount) {
		t.Fatalf("revoke of unknown account: %v", err)
	}
}

// TestStorageWireCode: ErrStorage rides the HTTP error header like
// every other sentinel.
func TestStorageWireCode(t *testing.T) {
	if code := wireCode(ErrStorage); code != "storage" {
		t.Fatalf("wireCode(ErrStorage) = %q", code)
	}
	if err := ErrorFromCode("storage"); !errors.Is(err, ErrStorage) {
		t.Fatalf("ErrorFromCode(storage) = %v", err)
	}
	if err := r0ResetStorageErr(); !strings.Contains(err.Error(), "storage backend failure") {
		t.Fatalf("typed error text: %v", err)
	}
}

// r0ResetStorageErr produces a wrapped ErrStorage the way ResetIdentity
// surfaces one, checking the errors.Is chain holds through wrapping.
func r0ResetStorageErr() error {
	err := failingBackendErr()
	if !errors.Is(err, ErrStorage) {
		return errors.New("wrapped error lost ErrStorage")
	}
	return err
}

func failingBackendErr() error {
	fsys := store.NewFaultFS(store.NewMemFS(), 0, -1)
	w, err := store.OpenWAL(fsys, store.WALOptions{})
	if err != nil {
		return err
	}
	defer w.Close()
	return w.Append(store.Record{Kind: store.KindEnroll, Account: "x", PublicKey: []byte{1}, At: time.Second})
}

// TestDegradedLatchConcurrent races many enrollments across the
// backend's failure boundary: the write budget admits the first few
// record appends, then tears. However the goroutines interleave,
// exactly budget enrollments are acknowledged, every other racer gets
// ErrStorage, the degraded latch trips exactly once, and the telemetry
// storage-error counter matches the rejections one for one.
func TestDegradedLatchConcurrent(t *testing.T) {
	const racers = 32
	const budget = 4
	inner := store.NewMemFS()
	ffs := store.NewFaultFS(inner, budget, -1)
	r := newDurableRig(t, ffs)

	// Build every submission up front (the client walk is sequential
	// state); only the server-side handling races.
	subs := make([]*protocol.RegistrationSubmit, racers)
	for i := range subs {
		subs[i] = buildRegistration(t, r, fmt.Sprintf("acct-%02d", i))
	}

	var wg sync.WaitGroup
	var okCount, storageCount, otherCount atomic.Int64
	for _, sub := range subs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res := r.server.HandleRegistration(r.now, sub, "pw")
			switch {
			case res.OK:
				okCount.Add(1)
			case res.Reason == ErrStorage.Error():
				storageCount.Add(1)
			default:
				otherCount.Add(1)
			}
		}()
	}
	wg.Wait()

	if n := otherCount.Load(); n != 0 {
		t.Fatalf("%d racers failed with a non-storage reason", n)
	}
	if n := okCount.Load(); n != budget {
		t.Fatalf("%d enrollments acknowledged, want exactly the write budget %d", n, budget)
	}
	if n := storageCount.Load(); n != racers-budget {
		t.Fatalf("%d storage rejections, want %d", n, racers-budget)
	}
	if !r.server.degraded.Load() {
		t.Fatal("server not degraded after the boundary")
	}
	if got := metricValue(t, r.server, "degraded_trips"); got != 1 {
		t.Fatalf("degraded_trips = %d, want exactly 1", got)
	}
	if got := metricValue(t, r.server, "storage_errors"); got != storageCount.Load() {
		t.Fatalf("storage_errors = %d, want %d (one per 503)", got, storageCount.Load())
	}
	// Acknowledged enrollments are real: recovery over the underlying
	// fs sees exactly the acknowledged accounts.
	wal, err := store.OpenWAL(inner, store.WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer wal.Close()
	if got := wal.Stats().Live; int64(got) != okCount.Load() {
		t.Fatalf("recovered %d accounts, want %d", got, okCount.Load())
	}
}
