package store

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"trust/internal/chunk"
	"trust/internal/wire"
)

// recoverImage opens a WAL over the given snapshot and log bytes (an
// empty input leaves its file absent) and returns what it recovered.
func recoverImage(t *testing.T, snapshot, log []byte) ([]Record, uint64, WALStats, *MemFS, error) {
	fsys := NewMemFS()
	if len(snapshot) > 0 {
		writeFile(t, fsys, snapName, snapshot)
	}
	if len(log) > 0 {
		writeFile(t, fsys, walName, log)
	}
	w, err := OpenWAL(fsys, WALOptions{SnapshotEvery: -1})
	if err != nil {
		return nil, 0, WALStats{}, fsys, err
	}
	defer w.Close()
	recs, gen := w.State()
	return recs, gen, w.Stats(), fsys, nil
}

// FuzzOpenWAL feeds arbitrary snapshot and log bytes to recovery. An
// empty input leaves its file absent. OpenWAL must succeed or fail with
// ErrCorrupt or ErrStorage, never panic; on success the state must be
// strictly sorted, agree with Stats, survive a second recovery
// unchanged, and be exactly the log's longest clean prefix: the torn
// tail is everything after it, and recovering the log cut there gives
// the same state with nothing torn. Every log record and snapshot
// entry it accepted, and the snapshot header, re-encodes to the bytes
// it was read from: the grammar has one encoding per value. The
// committed corpus (testdata/fuzz/FuzzOpenWAL) holds a clean image, a
// torn tail, mid-file damage, an oversized snapshot count, an
// undecodable final record and a snapshot entry with a non-zero seq,
// and replays on every plain go test.
func FuzzOpenWAL(f *testing.F) {
	f.Fuzz(func(t *testing.T, snapshot, log []byte) {
		recs, gen, st, fsys, err := recoverImage(t, snapshot, log)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrStorage) {
				t.Fatalf("open failed with an untyped error: %v", err)
			}
			return
		}
		live, revoked := 0, 0
		for i, rec := range recs {
			if i > 0 && recs[i-1].Account >= rec.Account {
				t.Fatalf("state not strictly sorted at %d: %q then %q", i, recs[i-1].Account, rec.Account)
			}
			switch rec.Kind {
			case KindEnroll:
				live++
			case KindRevoke:
				revoked++
			default:
				t.Fatalf("state holds a %v record for %q", rec.Kind, rec.Account)
			}
			if rec.Gen > gen {
				t.Fatalf("record gen %d above the high-water mark %d", rec.Gen, gen)
			}
		}
		if st.Live != live || st.Revoked != revoked {
			t.Fatalf("stats live %d revoked %d, state holds %d/%d", st.Live, st.Revoked, live, revoked)
		}
		// Recovery rewrote any torn tail away, so a second recovery
		// finds a clean image with the same state.
		again, err := OpenWAL(fsys, WALOptions{SnapshotEvery: -1})
		if err != nil {
			t.Fatalf("second recovery: %v", err)
		}
		defer again.Close()
		recs2, gen2 := again.State()
		if !reflect.DeepEqual(recs, recs2) || gen != gen2 {
			t.Fatalf("second recovery changed the state:\n first %+v (gen %d)\nsecond %+v (gen %d)", recs, gen, recs2, gen2)
		}
		// Every frame decoded, so the framing alone fixes the prefix.
		prefix, err := chunk.Scan(log, func([]byte) error { return nil })
		if err != nil {
			t.Fatalf("recovery accepted a log the codec calls corrupt: %v", err)
		}
		if st.TornTailBytes != len(log)-prefix {
			t.Fatalf("torn tail %d bytes, want %d past the %d-byte clean prefix", st.TornTailBytes, len(log)-prefix, prefix)
		}
		reencodes(t, snapshot, log[:prefix])
		recs3, gen3, st3, _, err := recoverImage(t, snapshot, log[:prefix])
		if err != nil {
			t.Fatalf("recovery of the clean prefix: %v", err)
		}
		if !reflect.DeepEqual(recs, recs3) || gen != gen3 || st3.TornTailBytes != 0 {
			t.Fatalf("clean prefix recovers %+v (gen %d, torn %d), want %+v (gen %d, torn 0)", recs3, gen3, st3.TornTailBytes, recs, gen)
		}
	})
}

// reencodes checks that the snapshot header and every entry of an
// accepted snapshot, and every frame of an accepted log, re-encode to
// the bytes they were decoded from.
func reencodes(t *testing.T, snapshot, log []byte) {
	t.Helper()
	same := func(what string, payload []byte) error {
		rec, seq, err := decodeEntry(payload)
		if err != nil {
			t.Fatalf("%s decoded in recovery, not here: %v", what, err)
		}
		re, err := appendFrame(nil, seq, rec)
		if err != nil || !bytes.Equal(re[chunk.HeaderSize:], payload) {
			t.Fatalf("%s re-encodes to %x (%v), read as %x", what, re, err, payload)
		}
		return nil
	}
	if len(snapshot) > 0 {
		var seq, gen, count uint64
		c := wire.NewDecoder(wire.LittleEndian16, snapshot)
		snapHeaderFields(&c, &seq, &gen, &count)
		e := wire.NewEncoder(wire.LittleEndian16, nil)
		snapHeaderFields(&e, &seq, &gen, &count)
		if c.Err() != nil || !bytes.Equal(e.Data(), snapshot[:c.Pos()]) {
			t.Fatalf("snapshot header re-encodes to %x (%v), read as %x", e.Data(), c.Err(), snapshot[:c.Pos()])
		}
		rest := snapshot[c.Pos():]
		for len(rest) > 0 {
			payload, next, ok := chunk.Next(rest)
			if !ok {
				t.Fatalf("recovery accepted a snapshot whose entry at %d does not frame", len(snapshot)-len(rest))
			}
			same("snapshot entry", payload)
			rest = next
		}
	}
	if _, err := chunk.Scan(log, func(p []byte) error { return same("log record", p) }); err != nil {
		t.Fatal(err)
	}
}
