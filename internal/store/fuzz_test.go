package store

import (
	"errors"
	"reflect"
	"testing"
)

// FuzzOpenWAL feeds arbitrary snapshot and log bytes to recovery. An
// empty input leaves its file absent. OpenWAL must succeed or fail with
// ErrCorrupt or ErrStorage, never panic; on success the state must be
// strictly sorted, agree with Stats, and survive a second recovery
// unchanged. The committed corpus (testdata/fuzz/FuzzOpenWAL) holds a
// clean image, a torn tail, mid-file damage and an oversized snapshot
// count, and replays on every plain go test.
func FuzzOpenWAL(f *testing.F) {
	f.Fuzz(func(t *testing.T, snapshot, log []byte) {
		fsys := NewMemFS()
		if len(snapshot) > 0 {
			writeFile(t, fsys, snapName, snapshot)
		}
		if len(log) > 0 {
			writeFile(t, fsys, walName, log)
		}
		w, err := OpenWAL(fsys, WALOptions{SnapshotEvery: -1})
		if err != nil {
			if !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrStorage) {
				t.Fatalf("open failed with an untyped error: %v", err)
			}
			return
		}
		recs, gen := w.State()
		st := w.Stats()
		w.Close()
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
	})
}
