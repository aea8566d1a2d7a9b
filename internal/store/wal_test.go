package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"trust/internal/chunk"
	"trust/internal/sim"
)

// TornWrites reports how many writes were torn (prefix written, error
// returned).
func (f *FaultFS) TornWrites() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.tornWrites
}

// Bytes returns a copy of a file's current content (synced or not);
// the second result reports existence.
func (m *MemFS) Bytes(name string) ([]byte, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	f, ok := m.files[name]
	if !ok {
		return nil, false
	}
	return append([]byte(nil), f.data...), true
}

// CorruptByte XORs a mask into one byte of a file — the checksum-
// corruption fault for the detection tests.
func (m *MemFS) CorruptByte(name string, off int, mask byte) {
	m.mu.Lock()
	defer m.mu.Unlock()
	f, ok := m.files[name]
	if !ok || off < 0 || off >= len(f.data) {
		return
	}
	f.data[off] ^= mask
}

// testRecord builds a deterministic enroll record for account i.
func testRecord(i int) Record {
	var pub [32]byte
	var digest [32]byte
	for j := range pub {
		pub[j] = byte(i + j)
		digest[j] = byte(i ^ j)
	}
	return Record{
		Kind:           KindEnroll,
		At:             time.Duration(i) * time.Second,
		Account:        fmt.Sprintf("acct-%04d", i),
		Gen:            uint64(i + 1),
		PublicKey:      pub[:],
		DeviceSubject:  fmt.Sprintf("device-%04d", i),
		RecoveryDigest: digest,
	}
}

// mustFrame is appendFrame for records the grammar states.
func mustFrame(buf []byte, seq uint64, rec Record) []byte {
	out, err := appendFrame(buf, seq, rec)
	if err != nil {
		panic(err)
	}
	return out
}

func mustOpen(t *testing.T, fsys FS, opts WALOptions) *WAL {
	t.Helper()
	w, err := OpenWAL(fsys, opts)
	if err != nil {
		t.Fatalf("OpenWAL: %v", err)
	}
	return w
}

func stateMap(w *WAL) map[string]Record {
	recs, _ := w.State()
	m := make(map[string]Record, len(recs))
	for _, r := range recs {
		m[r.Account] = r
	}
	return m
}

func TestRoundTrip(t *testing.T) {
	fsys := NewMemFS()
	w := mustOpen(t, fsys, WALOptions{SnapshotEvery: -1})
	for i := 0; i < 10; i++ {
		if err := w.Append(testRecord(i)); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	if err := w.Append(Record{Kind: KindReset, Account: "acct-0003", Gen: 4, At: time.Minute}); err != nil {
		t.Fatalf("reset: %v", err)
	}
	if err := w.Append(Record{Kind: KindRevoke, Account: "acct-0007", Gen: 8, At: time.Minute}); err != nil {
		t.Fatalf("revoke: %v", err)
	}
	w.Close()

	r := mustOpen(t, fsys, WALOptions{SnapshotEvery: -1})
	defer r.Close()
	recs, gen := r.State()
	if gen != 10 {
		t.Fatalf("gen = %d, want 10", gen)
	}
	m := stateMap(r)
	if _, ok := m["acct-0003"]; ok {
		t.Fatal("reset account still present")
	}
	rev, ok := m["acct-0007"]
	if !ok || rev.Kind != KindRevoke {
		t.Fatalf("revoked account: %+v ok=%v, want revoke tombstone", rev, ok)
	}
	// 8 live enrolls + 1 tombstone.
	if len(recs) != 9 {
		t.Fatalf("len(state) = %d, want 9", len(recs))
	}
	want := testRecord(5)
	got := m[want.Account]
	if got.Gen != want.Gen || got.At != want.At || got.DeviceSubject != want.DeviceSubject ||
		!bytes.Equal(got.PublicKey, want.PublicKey) || got.RecoveryDigest != want.RecoveryDigest {
		t.Fatalf("recovered record mismatch:\n got %+v\nwant %+v", got, want)
	}
}

// TestCrashMatrix is the tentpole robustness contract: the log cut at
// EVERY byte offset — each record boundary and every torn position
// inside each record — recovers exactly the records whose append was
// acknowledged before the cut, and cleanly discards the torn tail.
func TestCrashMatrix(t *testing.T) {
	fsys := NewMemFS()
	w := mustOpen(t, fsys, WALOptions{SnapshotEvery: -1})
	const n = 12
	for i := 0; i < n; i++ {
		if err := w.Append(testRecord(i)); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	w.Close()
	logBytes, ok := fsys.Bytes(walName)
	if !ok {
		t.Fatal("no log written")
	}
	_, ends, err := ReadLog(fsys)
	if err != nil || len(ends) != n {
		t.Fatalf("ReadLog: %d records, err %v", len(ends), err)
	}

	// acked(cut) = number of fully appended records within the cut.
	acked := func(cut int) int {
		k := 0
		for _, e := range ends {
			if e <= cut {
				k++
			}
		}
		return k
	}
	for cut := 0; cut <= len(logBytes); cut++ {
		crashed := NewMemFS()
		f, _ := crashed.Create(walName)
		f.Write(logBytes[:cut])
		f.Sync()
		f.Close()
		r, err := OpenWAL(crashed, WALOptions{SnapshotEvery: -1})
		if err != nil {
			t.Fatalf("cut %d: open: %v", cut, err)
		}
		st := r.Stats()
		wantAcked := acked(cut)
		if st.Live != wantAcked {
			t.Fatalf("cut %d: recovered %d records, want %d", cut, st.Live, wantAcked)
		}
		m := stateMap(r)
		for i := 0; i < wantAcked; i++ {
			if _, ok := m[testRecord(i).Account]; !ok {
				t.Fatalf("cut %d: acked record %d lost", cut, i)
			}
		}
		torn := cut - endAtOrBefore(ends, cut)
		if st.TornTailBytes != torn {
			t.Fatalf("cut %d: torn tail %d bytes discarded, want %d", cut, st.TornTailBytes, torn)
		}
		// The discarded tail must also be gone from storage, so appends
		// after recovery follow a clean boundary.
		if data, _ := crashed.Bytes(walName); len(data) != endAtOrBefore(ends, cut) {
			t.Fatalf("cut %d: log is %d bytes after recovery, want %d", cut, len(data), endAtOrBefore(ends, cut))
		}
		// And the store accepts new appends cleanly after a torn tail.
		if err := r.Append(testRecord(100 + cut)); err != nil {
			t.Fatalf("cut %d: append after recovery: %v", cut, err)
		}
		r.Close()
		r2, err := OpenWAL(crashed, WALOptions{SnapshotEvery: -1})
		if err != nil {
			t.Fatalf("cut %d: reopen after post-crash append: %v", cut, err)
		}
		if got := r2.Stats().Live; got != wantAcked+1 {
			t.Fatalf("cut %d: %d records after post-crash append, want %d", cut, got, wantAcked+1)
		}
		r2.Close()
	}
}

// endAtOrBefore returns the largest record end offset ≤ cut (0 when
// the cut lands before the first complete record).
func endAtOrBefore(ends []int, cut int) int {
	best := 0
	for _, e := range ends {
		if e <= cut {
			best = e
		}
	}
	return best
}

// TestCrashViaSyncSemantics drives the MemFS Crash() path: bytes
// written but not synced are lost, and everything acked (synced)
// survives.
func TestCrashViaSyncSemantics(t *testing.T) {
	fsys := NewMemFS()
	w := mustOpen(t, fsys, WALOptions{SnapshotEvery: -1})
	for i := 0; i < 8; i++ {
		if err := w.Append(testRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	// Simulate an in-flight unsynced write at crash time.
	raw := mustFrame(nil, 99, testRecord(99))
	w.mu.Lock()
	w.w.Write(raw[:len(raw)-5])
	w.mu.Unlock()

	crashed := fsys.Crash()
	r, err := OpenWAL(crashed, WALOptions{SnapshotEvery: -1})
	if err != nil {
		t.Fatalf("open after crash: %v", err)
	}
	defer r.Close()
	if got := r.Stats().Live; got != 8 {
		t.Fatalf("recovered %d records, want 8", got)
	}
}

// TestMidFileCorruptionRefusesOpen: damage with valid acknowledged
// records after it must not be silently truncated away.
func TestMidFileCorruptionRefusesOpen(t *testing.T) {
	fsys := NewMemFS()
	w := mustOpen(t, fsys, WALOptions{SnapshotEvery: -1})
	for i := 0; i < 6; i++ {
		if err := w.Append(testRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	w.Close()
	_, ends, _ := ReadLog(fsys)
	// Flip a payload byte inside the second record.
	fsys.CorruptByte(walName, ends[0]+chunk.HeaderSize+3, 0x40)
	if _, err := OpenWAL(fsys, WALOptions{SnapshotEvery: -1}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("open over mid-file corruption: %v, want ErrCorrupt", err)
	}
}

// TestTailChecksumCorruptionDiscarded: a checksum-corrupt FINAL record
// is indistinguishable from a torn tail and is discarded.
func TestTailChecksumCorruptionDiscarded(t *testing.T) {
	fsys := NewMemFS()
	w := mustOpen(t, fsys, WALOptions{SnapshotEvery: -1})
	for i := 0; i < 6; i++ {
		if err := w.Append(testRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	w.Close()
	data, _ := fsys.Bytes(walName)
	_, ends, _ := ReadLog(fsys)
	fsys.CorruptByte(walName, ends[4]+chunk.HeaderSize+3, 0x40) // inside final record
	r, err := OpenWAL(fsys, WALOptions{SnapshotEvery: -1})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer r.Close()
	st := r.Stats()
	if st.Live != 5 {
		t.Fatalf("recovered %d, want 5", st.Live)
	}
	if st.TornTailBytes != len(data)-ends[4] {
		t.Fatalf("torn tail %d, want %d", st.TornTailBytes, len(data)-ends[4])
	}
}

// TestUndecodableFinalFrameRefusesOpen: a checksum-valid final frame
// that does not decode (here kind 9) cannot come from a torn write, so
// OpenWAL refuses it with ErrCorrupt and leaves wal.log as it was
// instead of discarding the frame as a torn tail.
func TestUndecodableFinalFrameRefusesOpen(t *testing.T) {
	// appendFrame refuses kind 9, so patch it into a reset's frame.
	bad := mustFrame(nil, 2, Record{Kind: KindReset})
	bad[chunk.HeaderSize+8] = 9 // the kind byte, behind the seq
	chunk.End(bad, 0)
	log := append(mustFrame(nil, 1, testRecord(0)), bad...)
	fsys := NewMemFS()
	writeFile(t, fsys, walName, log)
	if _, err := OpenWAL(fsys, WALOptions{SnapshotEvery: -1}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("open: %v, want ErrCorrupt", err)
	}
	if data, _ := fsys.Bytes(walName); !bytes.Equal(data, log) {
		t.Fatalf("wal.log is %d bytes after the refused open, want the original %d", len(data), len(log))
	}
}

// TestTornWriteThenFailFast: a torn append must error, latch the
// backend failed (no appends past damage), and recovery must keep
// every previously acknowledged record.
func TestTornWriteThenFailFast(t *testing.T) {
	fsys := NewMemFS()
	ffs := NewFaultFS(fsys, 5, -1) // 5 clean writes, then one torn, then hard failures
	w, err := OpenWAL(ffs, WALOptions{SnapshotEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	acked := 0
	var firstErr error
	for i := 0; i < 10; i++ {
		if err := w.Append(testRecord(i)); err != nil {
			if firstErr == nil {
				firstErr = err
			}
			if !errors.Is(err, ErrStorage) {
				t.Fatalf("append %d: %v, want ErrStorage", i, err)
			}
			continue
		}
		acked++
	}
	if acked != 5 {
		t.Fatalf("acked %d, want 5", acked)
	}
	if ffs.TornWrites() != 1 {
		t.Fatalf("torn writes = %d, want 1 (later appends must fail fast)", ffs.TornWrites())
	}
	w.Close()

	r, err := OpenWAL(fsys, WALOptions{SnapshotEvery: -1})
	if err != nil {
		t.Fatalf("recovery over torn log: %v", err)
	}
	defer r.Close()
	st := r.Stats()
	if st.Live != 5 {
		t.Fatalf("recovered %d, want the 5 acked", st.Live)
	}
	if st.TornTailBytes == 0 {
		t.Fatal("expected a discarded torn tail")
	}
}

// TestAppendRefusesFieldsPastTheirLength: a record whose account,
// public key or device subject overflows its 16-bit length is refused
// before anything is written, without latching the WAL failed, so the
// log stays openable and later appends still succeed.
func TestAppendRefusesFieldsPastTheirLength(t *testing.T) {
	long := strings.Repeat("x", 1<<16)
	cases := map[string]func(*Record){
		"account":        func(r *Record) { r.Account = long },
		"public key":     func(r *Record) { r.PublicKey = []byte(long) },
		"device subject": func(r *Record) { r.DeviceSubject = long },
	}
	for name, mutate := range cases {
		fsys := NewMemFS()
		w := mustOpen(t, fsys, WALOptions{SnapshotEvery: -1})
		if err := w.Append(testRecord(0)); err != nil {
			t.Fatal(err)
		}
		rec := testRecord(1)
		mutate(&rec)
		if err := w.Append(rec); !errors.Is(err, ErrStorage) {
			t.Fatalf("%s of %d bytes: err %v, want ErrStorage", name, len(long), err)
		}
		if err := w.Append(testRecord(2)); err != nil {
			t.Fatalf("%s: append after the refusal: %v", name, err)
		}
		w.Close()
		r, err := OpenWAL(fsys, WALOptions{SnapshotEvery: -1})
		if err != nil {
			t.Fatalf("%s: reopen: %v", name, err)
		}
		if m := stateMap(r); len(m) != 2 || m["acct-0000"].Kind != KindEnroll || m["acct-0002"].Kind != KindEnroll {
			t.Fatalf("%s: recovered %v, want acct-0000 and acct-0002", name, m)
		}
		r.Close()
	}
	// The longest field the record holds round-trips.
	fsys := NewMemFS()
	w := mustOpen(t, fsys, WALOptions{SnapshotEvery: -1})
	rec := testRecord(0)
	rec.Account = long[:1<<16-1]
	if err := w.Append(rec); err != nil {
		t.Fatal(err)
	}
	w.Close()
	r := mustOpen(t, fsys, WALOptions{SnapshotEvery: -1})
	defer r.Close()
	if _, ok := stateMap(r)[rec.Account]; !ok {
		t.Fatal("65,535-byte account lost across reopen")
	}
}

// TestFailedSync: an append whose sync fails must not be acknowledged,
// and the already-acked prefix must survive a crash that drops the
// unsynced bytes.
func TestFailedSync(t *testing.T) {
	fsys := NewMemFS()
	ffs := NewFaultFS(fsys, -1, 4) // syncs 1..4 succeed, 5th fails
	w, err := OpenWAL(ffs, WALOptions{SnapshotEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	acked := 0
	for i := 0; i < 6; i++ {
		if err := w.Append(testRecord(i)); err == nil {
			acked++
		} else if !errors.Is(err, ErrStorage) {
			t.Fatalf("append %d: %v, want ErrStorage", i, err)
		}
	}
	if acked != 4 {
		t.Fatalf("acked %d, want 4", acked)
	}
	w.Close()
	r, err := OpenWAL(fsys.Crash(), WALOptions{SnapshotEvery: -1})
	if err != nil {
		t.Fatalf("open after crash: %v", err)
	}
	defer r.Close()
	if got := r.Stats().Live; got != 4 {
		t.Fatalf("recovered %d, want the 4 acked", got)
	}
}

func TestSnapshotCompaction(t *testing.T) {
	fsys := NewMemFS()
	w := mustOpen(t, fsys, WALOptions{SnapshotEvery: 10})
	for i := 0; i < 25; i++ {
		if err := w.Append(testRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	st := w.Stats()
	if st.Snapshots != 2 {
		t.Fatalf("snapshots = %d, want 2", st.Snapshots)
	}
	if st.SnapshotSeq != 20 {
		t.Fatalf("snapshot seq = %d, want 20", st.SnapshotSeq)
	}
	w.Close()
	// The log holds only the records after the snapshot.
	recs, _, err := ReadLog(fsys)
	if err != nil || len(recs) != 5 {
		t.Fatalf("log holds %d records (err %v), want 5", len(recs), err)
	}
	r := mustOpen(t, fsys, WALOptions{SnapshotEvery: 10})
	defer r.Close()
	if got := r.Stats().Live; got != 25 {
		t.Fatalf("recovered %d, want 25", got)
	}
	if _, gen := r.State(); gen != 25 {
		t.Fatalf("gen = %d, want 25", gen)
	}
}

// TestSnapshotPlusLogEqualsLogAlone: the same record stream recovered
// through (snapshot, WAL-suffix) and through the uncompacted WAL alone
// must yield identical state — the compaction-correctness contract.
func TestSnapshotPlusLogEqualsLogAlone(t *testing.T) {
	stream := make([]Record, 0, 60)
	for i := 0; i < 40; i++ {
		stream = append(stream, testRecord(i))
	}
	for i := 0; i < 10; i++ {
		stream = append(stream, Record{Kind: KindReset, Account: fmt.Sprintf("acct-%04d", i*3), Gen: uint64(i*3 + 1), At: time.Hour})
	}
	for i := 0; i < 5; i++ {
		stream = append(stream, Record{Kind: KindRevoke, Account: fmt.Sprintf("acct-%04d", i*7+1), Gen: uint64(i*7 + 2), At: 2 * time.Hour})
	}

	compFS, plainFS := NewMemFS(), NewMemFS()
	comp := mustOpen(t, compFS, WALOptions{SnapshotEvery: 16})
	plain := mustOpen(t, plainFS, WALOptions{SnapshotEvery: -1})
	for _, rec := range stream {
		if err := comp.Append(rec); err != nil {
			t.Fatal(err)
		}
		if err := plain.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	comp.Close()
	plain.Close()

	rc := mustOpen(t, compFS, WALOptions{})
	rp := mustOpen(t, plainFS, WALOptions{})
	defer rc.Close()
	defer rp.Close()
	recsC, genC := rc.State()
	recsP, genP := rp.State()
	if genC != genP {
		t.Fatalf("gen: snapshot+log %d, log alone %d", genC, genP)
	}
	if len(recsC) != len(recsP) {
		t.Fatalf("state size: snapshot+log %d, log alone %d", len(recsC), len(recsP))
	}
	for i := range recsC {
		a, b := recsC[i], recsP[i]
		if a.Account != b.Account || a.Kind != b.Kind || a.Gen != b.Gen || a.At != b.At ||
			!bytes.Equal(a.PublicKey, b.PublicKey) || a.DeviceSubject != b.DeviceSubject ||
			a.RecoveryDigest != b.RecoveryDigest {
			t.Fatalf("state[%d] differs:\n snapshot+log %+v\n log alone   %+v", i, a, b)
		}
	}
}

// TestFilesByteIdenticalAcrossRuns: identical record streams produce
// byte-identical log and snapshot files — the determinism contract the
// kill sweep's byte-stability rides on.
func TestFilesByteIdenticalAcrossRuns(t *testing.T) {
	build := func() *MemFS {
		fsys := NewMemFS()
		w := mustOpen(t, fsys, WALOptions{SnapshotEvery: 16})
		for i := 0; i < 50; i++ {
			if err := w.Append(testRecord(i)); err != nil {
				t.Fatal(err)
			}
			if i%9 == 8 {
				if err := w.Append(Record{Kind: KindReset, Account: fmt.Sprintf("acct-%04d", i-4), Gen: uint64(i - 3), At: time.Hour}); err != nil {
					t.Fatal(err)
				}
			}
		}
		w.Close()
		return fsys
	}
	a, b := build(), build()
	for _, name := range []string{walName, snapName} {
		da, oka := a.Bytes(name)
		db, okb := b.Bytes(name)
		if oka != okb || !bytes.Equal(da, db) {
			t.Fatalf("%s differs across identical runs (%d vs %d bytes)", name, len(da), len(db))
		}
	}
}

// TestCrashBetweenSnapshotAndLogReset: the window where the snapshot
// is published but the log not yet reset must not double-apply (seq
// skip) — state after recovery equals state before the crash.
func TestCrashBetweenSnapshotAndLogReset(t *testing.T) {
	fsys := NewMemFS()
	w := mustOpen(t, fsys, WALOptions{SnapshotEvery: 10})
	for i := 0; i < 10; i++ {
		if err := w.Append(testRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	// Reset acct-0004 then re-enroll it BEFORE the next snapshot, so a
	// replay that failed to skip already-snapshotted records would
	// regress it.
	if err := w.Append(Record{Kind: KindReset, Account: "acct-0004", Gen: 5, At: time.Hour}); err != nil {
		t.Fatal(err)
	}
	re := testRecord(4)
	re.Gen = 11
	if err := w.Append(re); err != nil {
		t.Fatal(err)
	}
	w.Close()

	// Fabricate the crash window: prepend the snapshotted records back
	// onto the log, as if the log reset never happened.
	old := mustFrame(nil, 1, testRecord(0))
	cur, _ := fsys.Bytes(walName)
	f, _ := fsys.Create(walName)
	f.Write(append(old, cur...))
	f.Sync()
	f.Close()

	r := mustOpen(t, fsys, WALOptions{})
	defer r.Close()
	m := stateMap(r)
	got, ok := m["acct-0004"]
	if !ok || got.Gen != 11 {
		t.Fatalf("acct-0004 after stale-log recovery: %+v ok=%v, want gen 11", got, ok)
	}
	if got := r.Stats().Live; got != 10 {
		t.Fatalf("live = %d, want 10", got)
	}
}

func TestRevokeBlocksNothingInStore(t *testing.T) {
	// The store records revokes as tombstones; policy (refusing
	// re-claims) lives in the webserver. Here: tombstone survives
	// compaction and restart.
	fsys := NewMemFS()
	w := mustOpen(t, fsys, WALOptions{SnapshotEvery: 4})
	for i := 0; i < 3; i++ {
		if err := w.Append(testRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Append(Record{Kind: KindRevoke, Account: "acct-0001", Gen: 2, At: time.Hour}); err != nil {
		t.Fatal(err)
	}
	for i := 3; i < 6; i++ {
		if err := w.Append(testRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	w.Close()
	r := mustOpen(t, fsys, WALOptions{})
	defer r.Close()
	m := stateMap(r)
	if rec, ok := m["acct-0001"]; !ok || rec.Kind != KindRevoke {
		t.Fatalf("tombstone lost across compaction: %+v ok=%v", rec, ok)
	}
	st := r.Stats()
	if st.Live != 5 || st.Revoked != 1 {
		t.Fatalf("live %d revoked %d, want 5/1", st.Live, st.Revoked)
	}
}

func TestMemoryBackendIsNoOp(t *testing.T) {
	var m Memory
	if err := m.Append(testRecord(0)); err != nil {
		t.Fatal(err)
	}
	if recs, gen := m.State(); recs != nil || gen != 0 {
		t.Fatalf("Memory.State = %v, %d", recs, gen)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
}

// refModel is the account state in its plainest layout — two maps
// keyed by every account, live bindings and revoke tombstones — with
// the snapshot written by collecting every id and sorting it. It is
// the oracle the differential test holds the WAL's sorted base plus
// delta to.
type refModel struct {
	live, revoked map[string]Record
	gen, seq      uint64
	since         int
	snap          []byte // snapshot.dat as the model writes it; nil before the first
}

func newRefModel() *refModel {
	return &refModel{live: make(map[string]Record), revoked: make(map[string]Record)}
}

func (m *refModel) apply(rec Record) {
	switch rec.Kind {
	case KindEnroll:
		m.live[rec.Account] = rec
		delete(m.revoked, rec.Account)
	case KindReset:
		delete(m.live, rec.Account)
	case KindRevoke:
		delete(m.live, rec.Account)
		m.revoked[rec.Account] = rec
	}
	if rec.Gen > m.gen {
		m.gen = rec.Gen
	}
}

func (m *refModel) state() []Record {
	names := make([]string, 0, len(m.live)+len(m.revoked))
	for name := range m.live {
		names = append(names, name)
	}
	for name := range m.revoked {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([]Record, 0, len(names))
	for _, name := range names {
		if rec, ok := m.live[name]; ok {
			out = append(out, rec)
		} else {
			out = append(out, m.revoked[name])
		}
	}
	return out
}

// append mirrors WAL.Append, including when it compacts.
func (m *refModel) append(rec Record, every int) {
	m.seq++
	m.apply(rec)
	m.since++
	if every > 0 && m.since >= every {
		recs := m.state()
		m.snap = snapshotImage(m.seq, m.gen, uint64(len(recs)), recs)
		m.since = 0
	}
}

// snapshotImage encodes a snapshot file as the format defines it: the
// header declaring count entries, then one seq-0 frame per record in
// the order given, with every checksum valid.
func snapshotImage(seq, gen, count uint64, recs []Record) []byte {
	buf := []byte(snapMagic)
	buf = binary.LittleEndian.AppendUint64(buf, seq)
	buf = binary.LittleEndian.AppendUint64(buf, gen)
	buf = binary.LittleEndian.AppendUint64(buf, count)
	buf = binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf))
	for _, rec := range recs {
		buf = mustFrame(buf, 0, rec)
	}
	return buf
}

// randomOp draws the next record over a small id pool, so enrolls,
// resets and revokes keep landing on the same accounts: re-enrolls
// after a reset, resets of revoked or unbound ids, enrolls over
// tombstones.
func randomOp(rng *sim.RNG, gen *uint64) Record {
	*gen++
	rec := Record{
		At:      time.Duration(*gen) * time.Millisecond,
		Account: fmt.Sprintf("acct-%02d", rng.Intn(40)),
		Gen:     *gen,
	}
	switch k := rng.Intn(10); {
	case k < 5:
		rec.Kind = KindEnroll
		rec.PublicKey = make([]byte, 32)
		binary.LittleEndian.PutUint64(rec.PublicKey, rng.Uint64())
		rec.DeviceSubject = fmt.Sprintf("device-%d", rng.Intn(4))
		binary.LittleEndian.PutUint64(rec.RecoveryDigest[:], rng.Uint64())
	case k < 7:
		rec.Kind = KindReset
	default:
		rec.Kind = KindRevoke
	}
	return rec
}

// TestStateMatchesReferenceModel drives seeded random record streams
// through the WAL and the two-map model side by side, reopening the
// WAL at random points. After every step the WAL's state, counts, seq
// and snapshot file must equal the model's. Reopens reset the
// compaction count, so at SnapshotEvery 1024 they are rare enough for
// compactions to happen.
func TestStateMatchesReferenceModel(t *testing.T) {
	for _, tc := range []struct{ every, steps, reopenOdds int }{
		{-1, 1000, 40}, {1, 1000, 40}, {3, 1000, 40}, {1024, 2200, 1000},
	} {
		for seed := uint64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("every=%d/seed=%d", tc.every, seed), func(t *testing.T) {
				rng := sim.NewRNG(seed)
				fsys := NewMemFS()
				opts := WALOptions{SnapshotEvery: tc.every}
				w := mustOpen(t, fsys, opts)
				defer func() { w.Close() }()
				m := newRefModel()
				var gen uint64
				for step := 0; step < tc.steps; step++ {
					recs := []Record{randomOp(rng, &gen)}
					if rng.Intn(20) == 0 {
						// Revoke then re-enroll the same id.
						gen++
						re := testRecord(int(gen))
						re.Account, re.Gen = recs[0].Account, gen
						recs = []Record{{Kind: KindRevoke, Account: re.Account, Gen: gen - 1, At: re.At}, re}
					}
					for _, rec := range recs {
						if err := w.Append(rec); err != nil {
							t.Fatalf("step %d: append %+v: %v", step, rec, err)
						}
						m.append(rec, tc.every)
					}
					if rng.Intn(tc.reopenOdds) == 0 {
						w.Close()
						w = mustOpen(t, fsys, opts)
						m.since = 0
					}
					checkAgainstModel(t, step, w, fsys, m)
				}
				if tc.every > 0 && m.snap == nil {
					t.Fatal("the stream never compacted")
				}
			})
		}
	}
}

func checkAgainstModel(t *testing.T, step int, w *WAL, fsys *MemFS, m *refModel) {
	t.Helper()
	got, gen := w.State()
	if want := m.state(); !reflect.DeepEqual(got, want) || gen != m.gen {
		t.Fatalf("step %d: state (gen %d)\n got %+v\nwant (gen %d) %+v", step, gen, got, m.gen, want)
	}
	st := w.Stats()
	if st.Live != len(m.live) || st.Revoked != len(m.revoked) || st.Seq != m.seq {
		t.Fatalf("step %d: stats live %d revoked %d seq %d, want %d/%d/%d",
			step, st.Live, st.Revoked, st.Seq, len(m.live), len(m.revoked), m.seq)
	}
	snap, ok := fsys.Bytes(snapName)
	if ok != (m.snap != nil) || !bytes.Equal(snap, m.snap) {
		t.Fatalf("step %d: snapshot.dat (%d bytes, present %v) differs from the model's (%d bytes)",
			step, len(snap), ok, len(m.snap))
	}
}

// TestSnapshotLoaderRejectsMalformedEntries: the loader keeps the
// snapshot's entries as its sorted base, so it refuses any snapshot
// that is not strictly sorted with unique ids and no resets. Every
// snapshot snapshotLocked has ever written is strictly sorted with
// unique ids (it sorts the union of two disjoint maps, or merges a
// sorted base with sorted delta keys) and holds only enrolls and
// revokes, so these checks refuse only damaged files. Each image below
// carries valid checksums: only its structure is wrong.
func TestSnapshotLoaderRejectsMalformedEntries(t *testing.T) {
	a, b := testRecord(1), testRecord(2)
	reset := Record{Kind: KindReset, Account: "acct-0003", Gen: 4, At: time.Hour}
	cases := []struct {
		name string
		recs []Record
	}{
		{"out of order", []Record{b, a}},
		{"duplicate account", []Record{a, a}},
		{"reset entry", []Record{a, reset}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fsys := NewMemFS()
			writeFile(t, fsys, snapName, snapshotImage(3, 3, uint64(len(tc.recs)), tc.recs))
			if _, err := OpenWAL(fsys, WALOptions{}); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("open: %v, want ErrCorrupt", err)
			}
		})
	}
}

// TestSnapshotEntryWithSeqRefused: the grammar fixes a snapshot
// entry's seq at 0, so a checksum-valid entry carrying any other seq
// is damage, refused with ErrCorrupt.
func TestSnapshotEntryWithSeqRefused(t *testing.T) {
	img := mustFrame(snapshotImage(3, 3, 1, nil), 77, testRecord(1))
	fsys := NewMemFS()
	writeFile(t, fsys, snapName, img)
	if _, err := OpenWAL(fsys, WALOptions{}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("open: %v, want ErrCorrupt", err)
	}
}

// TestAppendRefusesUnknownKind: a kind outside the record grammar is
// refused before anything is written, without latching the WAL failed.
func TestAppendRefusesUnknownKind(t *testing.T) {
	fsys := NewMemFS()
	w := mustOpen(t, fsys, WALOptions{SnapshotEvery: -1})
	defer w.Close()
	if err := w.Append(Record{Kind: 9, Account: "acct"}); !errors.Is(err, ErrStorage) {
		t.Fatalf("kind 9: err %v, want ErrStorage", err)
	}
	if data, _ := fsys.Bytes(walName); len(data) != 0 {
		t.Fatalf("refused record wrote %d bytes", len(data))
	}
	if err := w.Append(testRecord(1)); err != nil {
		t.Fatalf("append after the refusal: %v", err)
	}
}

// TestSnapshotOversizedCountFailsBeforeAllocating: a header count the
// file's bytes cannot hold fails with ErrCorrupt without sizing an
// allocation from the count.
func TestSnapshotOversizedCountFailsBeforeAllocating(t *testing.T) {
	recs := []Record{testRecord(1), testRecord(2)}
	for _, count := range []uint64{3, 1 << 20, 1 << 62} {
		fsys := NewMemFS()
		writeFile(t, fsys, snapName, snapshotImage(2, 2, count, recs))
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := OpenWAL(fsys, WALOptions{})
		runtime.ReadMemStats(&after)
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("count %d: open: %v, want ErrCorrupt", count, err)
		}
		// 1<<20 records would be 112 MiB; the file itself is a few
		// hundred bytes.
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 64<<10 {
			t.Fatalf("count %d: open allocated %d bytes before failing", count, alloc)
		}
	}
}

func writeFile(t *testing.T, fsys *MemFS, name string, data []byte) {
	t.Helper()
	f, err := fsys.Create(name)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(data); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	f.Close()
}
