package store

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"io/fs"
	"slices"
	"sort"
	"sync"

	"trust/internal/chunk"
	"trust/internal/wire"
)

// File names inside the WAL's FS. There is exactly one live log and at
// most one snapshot; the tmp name exists only between a snapshot write
// and its atomic rename.
const (
	walName     = "wal.log"
	snapName    = "snapshot.dat"
	snapTmpName = "snapshot.tmp"
)

// snapMagic heads every snapshot file, versioning the format.
const snapMagic = "TRUSTSNP1\n"

// DefaultSnapshotEvery is the compaction threshold: after this many
// appended records since the last snapshot, the live state is written
// as a snapshot and the log is reset.
const DefaultSnapshotEvery = 1024

// WALOptions configures OpenWAL.
type WALOptions struct {
	// SnapshotEvery is the record-count compaction threshold; 0 means
	// DefaultSnapshotEvery, negative disables compaction (the log only
	// grows — the configuration the recovery-equivalence tests use).
	SnapshotEvery int
}

func (o WALOptions) snapshotEvery() int {
	if o.SnapshotEvery == 0 {
		return DefaultSnapshotEvery
	}
	return o.SnapshotEvery
}

// WALStats describes what OpenWAL found and what the WAL has done
// since.
type WALStats struct {
	// Live is the number of live bindings (enrolls minus resets and
	// revokes).
	Live int
	// Revoked is the number of tombstoned accounts.
	Revoked int
	// Seq is the last assigned record sequence number.
	Seq uint64
	// SnapshotSeq is the sequence the current snapshot covers through
	// (0: no snapshot).
	SnapshotSeq uint64
	// TornTailBytes counts log bytes discarded at open as a torn tail.
	TornTailBytes int
	// Snapshots counts compactions performed by this handle.
	Snapshots int
}

// WAL is the durable account backend: an append-only record log with
// snapshot compaction. Every Append is synced before it returns, so a
// nil Append means the record survives any crash. One mutex serializes
// appends; it is a leaf in this package (no other lock is taken under
// it) and the webserver calls Append outside its shard locks — see
// docs/server-scaling.md and trustlint's lockorder rule.
//
// The state is held as a sorted run plus a small delta: base is the
// state as of the last snapshot (loaded or written) and delta the last
// record applied per account since then — at most SnapshotEvery
// appends plus the log suffix replayed at open. Reads and compactions
// fold the delta into base in one sequential walk that sorts only the
// delta's keys.
type WAL struct {
	fsys FS
	opts WALOptions

	mu      sync.Mutex
	w       File
	failed  bool
	seq     uint64
	snapSeq uint64
	since   int // records appended since the last snapshot
	gen     uint64
	// base holds live enrolls and revoke tombstones, strictly sorted by
	// account.
	base []Record
	// delta holds, per account touched since base was taken, its
	// effective record: an enroll, a revoke tombstone, or a reset that
	// removed an enroll (a deletion marker).
	delta map[string]Record
	// spare is the array base held before the last compaction, reused
	// by the next one.
	spare []Record
	// live and revoked count the enrolls and tombstones in base+delta.
	live    int
	revoked int
	buf     []byte
	stats   WALStats
}

// OpenWAL opens (or creates) the log in fsys, replaying the snapshot
// and then every log record after it. A torn tail — an incomplete or
// checksum-failing final frame, the signature of a crash mid-append —
// is discarded and the log is rewritten without it; damage anywhere
// else, or a checksum-valid record that does not decode, fails with
// ErrCorrupt: acknowledged records must never be dropped silently.
func OpenWAL(fsys FS, opts WALOptions) (*WAL, error) {
	w := &WAL{
		fsys:  fsys,
		opts:  opts,
		delta: make(map[string]Record),
	}
	if err := w.loadSnapshot(); err != nil {
		return nil, err
	}
	if err := w.replayLog(); err != nil {
		return nil, err
	}
	h, err := fsys.OpenAppend(walName)
	if err != nil {
		return nil, fmt.Errorf("%w: opening log: %v", ErrStorage, err)
	}
	w.w = h
	return w, nil
}

// snapHeaderFields is a snapshot file's header: the magic, the
// sequence the snapshot covers through, the generation high-water mark
// and the entry count, then a CRC-32 of those bytes. It walks a codec
// at the start of the file, where the checksum's input begins.
func snapHeaderFields(c *wire.Codec, seq, gen, count *uint64) {
	var magic [len(snapMagic)]byte
	copy(magic[:], snapMagic)
	if c.Fixed(magic[:]); string(magic[:]) != snapMagic {
		c.Fail(errBadFrame)
	}
	c.U64(seq)
	c.U64(gen)
	c.U64(count)
	sum := int(crc32.ChecksumIEEE(c.Data()[:c.Pos()]))
	crc := sum
	if c.U32(&crc); crc != sum {
		c.Fail(errBadFrame)
	}
}

// loadSnapshot restores the compacted state, if a snapshot exists.
//
// Snapshot layout: magic || lastSeq(u64) || gen(u64) || count(u64) ||
// headerCRC(u32) || count record frames (seq field zero), strictly
// sorted by account and holding only enrolls and revoke tombstones.
// The file is written in full and synced before being renamed into
// place, so a snapshot either exists completely or not at all.
func (w *WAL) loadSnapshot() error {
	data, err := readFile(w.fsys, snapName)
	if errors.Is(err, fs.ErrNotExist) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("%w: reading snapshot: %v", ErrStorage, err)
	}
	var count uint64
	c := wire.NewDecoder(wire.LittleEndian16, data)
	if snapHeaderFields(&c, &w.snapSeq, &w.gen, &count); c.Err() != nil {
		return fmt.Errorf("%w: snapshot header", ErrCorrupt)
	}
	rest := data[c.Pos():]
	// Every entry takes at least minFrameSize bytes, so a count the
	// file cannot hold is refused before it sizes an allocation.
	if count > uint64(len(rest)/minFrameSize) {
		return fmt.Errorf("%w: snapshot count %d exceeds its %d bytes", ErrCorrupt, count, len(rest))
	}
	base := make([]Record, 0, count)
	for i := uint64(0); i < count; i++ {
		payload, next, ok := chunk.Next(rest)
		if !ok {
			return fmt.Errorf("%w: snapshot entry %d: bad frame", ErrCorrupt, i)
		}
		rec, seq, err := decodeEntry(payload)
		if err != nil {
			return fmt.Errorf("%w: snapshot entry %d: %v", ErrCorrupt, i, err)
		}
		if seq != 0 {
			return fmt.Errorf("%w: snapshot entry %d has seq %d", ErrCorrupt, i, seq)
		}
		if rec.Kind == KindReset {
			return fmt.Errorf("%w: snapshot entry %d is a reset", ErrCorrupt, i)
		}
		if n := len(base); n > 0 && rec.Account <= base[n-1].Account {
			return fmt.Errorf("%w: snapshot entry %d out of order or duplicated", ErrCorrupt, i)
		}
		base = append(base, rec)
		w.tally(rec, 1)
		if rec.Gen > w.gen {
			w.gen = rec.Gen
		}
		rest = next
	}
	if len(rest) != 0 {
		return fmt.Errorf("%w: %d bytes after last snapshot entry", ErrCorrupt, len(rest))
	}
	w.base = base
	w.seq = w.snapSeq
	w.stats.SnapshotSeq = w.snapSeq
	return nil
}

// replayLog applies every log record with seq beyond the snapshot,
// discarding a torn tail (rewriting the log without it).
func (w *WAL) replayLog() error {
	data, clean, err := scanLog(w.fsys, func(rec Record, seq uint64, _ int) {
		if seq > w.seq {
			w.apply(rec)
			w.seq = seq
		}
	})
	if err != nil || clean == len(data) {
		return err
	}
	// Torn tail: the crash hit mid-append. Drop it and rewrite the log
	// so future appends follow a clean boundary.
	w.stats.TornTailBytes = len(data) - clean
	return w.rewriteLog(data[:clean])
}

// scanLog hands each log record to fn in order, with its seq and the
// offset just past its frame, under internal/chunk's recovery rule. It
// returns the log (empty if missing) and the length of its clean
// prefix; the rest is a torn tail.
func scanLog(fsys FS, fn func(rec Record, seq uint64, end int)) ([]byte, int, error) {
	data, err := readFile(fsys, walName)
	if errors.Is(err, fs.ErrNotExist) {
		return nil, 0, nil
	}
	if err != nil {
		return nil, 0, fmt.Errorf("%w: reading log: %v", ErrStorage, err)
	}
	end := 0
	clean, err := chunk.Scan(data, func(payload []byte) error {
		rec, seq, err := decodeEntry(payload)
		if err != nil {
			return err
		}
		end += chunk.HeaderSize + len(payload)
		fn(rec, seq, end)
		return nil
	})
	if err != nil {
		return nil, 0, fmt.Errorf("%w: log %v", ErrCorrupt, err)
	}
	return data, clean, nil
}

// readFile reads name whole into a buffer that doubles as it grows;
// io.ReadAll grows by a quarter at a time, copying a 100k-account
// snapshot through dozens of regrowths.
func readFile(fsys FS, name string) ([]byte, error) {
	f, err := fsys.OpenRead(name)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var buf bytes.Buffer
	_, err = io.Copy(&buf, f)
	return buf.Bytes(), err
}

// rewriteLog atomically replaces the log with the given content
// (write tmp, sync, rename — same discipline as snapshots).
func (w *WAL) rewriteLog(content []byte) error {
	tmp := walName + ".tmp"
	f, err := w.fsys.Create(tmp)
	if err != nil {
		return fmt.Errorf("%w: rewriting log: %v", ErrStorage, err)
	}
	if len(content) > 0 {
		if _, err := f.Write(content); err != nil {
			f.Close()
			return fmt.Errorf("%w: rewriting log: %v", ErrStorage, err)
		}
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("%w: rewriting log: %v", ErrStorage, err)
	}
	f.Close()
	if err := w.fsys.Rename(tmp, walName); err != nil {
		return fmt.Errorf("%w: rewriting log: %v", ErrStorage, err)
	}
	return nil
}

// apply folds one record into the in-memory state. Enroll sets the
// binding, reset removes it (a tombstone stays), revoke removes it and
// tombstones the id.
func (w *WAL) apply(rec Record) {
	if rec.Gen > w.gen {
		w.gen = rec.Gen
	}
	prev, had := w.lookup(rec.Account)
	if rec.Kind == KindReset && (!had || prev.Kind == KindRevoke) {
		return // nothing bound: the reset changes no state
	}
	if had {
		w.tally(prev, -1)
	}
	w.tally(rec, 1)
	w.delta[rec.Account] = rec
}

// lookup returns the effective record for account — an enroll or a
// revoke tombstone — or false when the account holds neither.
func (w *WAL) lookup(account string) (Record, bool) {
	if rec, ok := w.delta[account]; ok {
		return rec, rec.Kind != KindReset
	}
	i := sort.Search(len(w.base), func(i int) bool { return w.base[i].Account >= account })
	if i < len(w.base) && w.base[i].Account == account {
		return w.base[i], true
	}
	return Record{}, false
}

// tally adds sign to the live or revoked count rec falls under.
func (w *WAL) tally(rec Record, sign int) {
	switch rec.Kind {
	case KindEnroll:
		w.live += sign
	case KindRevoke:
		w.revoked += sign
	}
}

// merged appends base with the delta folded in, sorted by account, to
// dst[:0]. Only the delta's keys are sorted; base is copied in runs
// between them, so the cost is one pass over base plus O(delta · log n).
func (w *WAL) merged(dst []Record) []Record {
	keys := make([]string, 0, len(w.delta))
	for k := range w.delta {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := slices.Grow(dst[:0], w.live+w.revoked)
	i := 0
	for _, k := range keys {
		j := i + sort.Search(len(w.base)-i, func(j int) bool { return w.base[i+j].Account >= k })
		out = append(out, w.base[i:j]...)
		i = j
		if i < len(w.base) && w.base[i].Account == k {
			i++ // superseded by the delta
		}
		if rec := w.delta[k]; rec.Kind != KindReset {
			out = append(out, rec)
		}
	}
	return append(out, w.base[i:]...)
}

// Append makes one record durable: a single framed write followed by a
// sync. On the first failure the WAL latches failed and every later
// Append fails fast — appending past a torn write would bury damage
// mid-file, turning a recoverable torn tail into unrecoverable
// corruption. A record the grammar cannot state (a field too long for
// its length, an unknown kind) is refused before anything is written,
// and does not latch failed.
func (w *WAL) Append(rec Record) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.failed {
		return fmt.Errorf("%w: backend latched failed by an earlier error", ErrStorage)
	}
	seq := w.seq + 1
	buf, err := appendFrame(w.buf[:0], seq, rec)
	if err != nil {
		return err
	}
	w.buf = buf
	if _, err := w.w.Write(w.buf); err != nil {
		w.failed = true
		return fmt.Errorf("%w: log append: %v", ErrStorage, err)
	}
	if err := w.w.Sync(); err != nil {
		w.failed = true
		return fmt.Errorf("%w: log sync: %v", ErrStorage, err)
	}
	w.seq = seq
	w.stats.Seq = seq
	w.apply(rec)
	w.since++
	if every := w.opts.snapshotEvery(); every > 0 && w.since >= every {
		if err := w.snapshotLocked(); err != nil {
			// The record IS durable; only compaction failed. Latch
			// failed anyway: the caller must treat the operation as
			// unacknowledged, and recovery may resurface it (documented
			// at-least-once edge in docs/persistence.md).
			w.failed = true
			return err
		}
	}
	return nil
}

// snapshotLocked writes the live state as a snapshot (canonical order:
// sorted by account id, so a snapshot of a given state is
// byte-identical however that state was reached), publishes it with an
// atomic rename, and resets the log. Called with w.mu held.
func (w *WAL) snapshotLocked() error {
	// Merge into the previous base's array: compaction then allocates
	// only when the state outgrows it.
	recs := w.merged(w.spare)
	count := uint64(len(recs))
	c := wire.NewEncoder(wire.LittleEndian16, w.buf[:0])
	snapHeaderFields(&c, &w.seq, &w.gen, &count)
	buf := c.Data()
	for _, rec := range recs {
		var err error
		if buf, err = appendFrame(buf, 0, rec); err != nil {
			return err
		}
	}
	w.buf = buf

	f, err := w.fsys.Create(snapTmpName)
	if err != nil {
		return fmt.Errorf("%w: snapshot create: %v", ErrStorage, err)
	}
	if _, err := f.Write(buf); err != nil {
		f.Close()
		return fmt.Errorf("%w: snapshot write: %v", ErrStorage, err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("%w: snapshot sync: %v", ErrStorage, err)
	}
	f.Close()
	if err := w.fsys.Rename(snapTmpName, snapName); err != nil {
		return fmt.Errorf("%w: snapshot publish: %v", ErrStorage, err)
	}
	// The snapshot is live: everything through w.seq recovers from it,
	// and replay skips log seqs ≤ snapSeq, so resetting the log now is
	// safe even if the reset itself is interrupted.
	w.snapSeq = w.seq
	w.stats.SnapshotSeq = w.seq
	w.stats.Snapshots++
	w.since = 0
	w.base, w.spare = recs, w.base
	clear(w.delta)
	w.w.Close()
	nf, err := w.fsys.Create(walName)
	if err != nil {
		return fmt.Errorf("%w: log reset: %v", ErrStorage, err)
	}
	w.w = nf
	return nil
}

// State returns the recovered-and-current effective records — live
// enrolls plus revoke tombstones, sorted by account — and the
// generation high-water mark.
func (w *WAL) State() ([]Record, uint64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.merged(nil), w.gen
}

// Stats returns open/append statistics.
func (w *WAL) Stats() WALStats {
	w.mu.Lock()
	defer w.mu.Unlock()
	st := w.stats
	st.Live = w.live
	st.Revoked = w.revoked
	st.Seq = w.seq // recovered seq counts too, not just this handle's appends
	return st
}

// Close releases the log handle. Appended records are already durable.
func (w *WAL) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.w != nil {
		err := w.w.Close()
		w.w = nil
		return err
	}
	return nil
}

// ReadLog decodes the raw log (ignoring any snapshot), returning the
// records in append order and, for each, the byte offset just past its
// frame — the record boundaries the crash matrix truncates at. A torn
// tail is reported via the final offset being short of the file size;
// it is not an error here. Corruption fails with ErrCorrupt.
func ReadLog(fsys FS) (recs []Record, ends []int, err error) {
	_, _, err = scanLog(fsys, func(rec Record, _ uint64, end int) {
		recs = append(recs, rec)
		ends = append(ends, end)
	})
	return recs, ends, err
}
