package store

import (
	"crypto/sha256"
	"encoding/hex"
	"strings"
	"testing"
	"time"
)

// goldenRecords is a fixed record stream over every kind: enrolls,
// a reset and a revoke, an enroll and a reset with an empty account,
// and an enroll whose account, public key and device subject each
// hold 65,535 bytes, the longest the record grammar states.
func goldenRecords() []Record {
	long := strings.Repeat("w", 1<<16-1)
	return []Record{
		testRecord(1),
		testRecord(2),
		{Kind: KindReset, At: 3 * time.Second, Account: "acct-0001", Gen: 2},
		{Kind: KindRevoke, At: 4 * time.Second, Account: "acct-0002", Gen: 3},
		{Kind: KindEnroll, At: 5 * time.Second, Account: "", Gen: 4, PublicKey: []byte("pk"), DeviceSubject: "dev"},
		{Kind: KindReset, At: 6 * time.Second, Account: "", Gen: 4},
		{Kind: KindEnroll, At: -time.Nanosecond, Account: long, Gen: 5, PublicKey: []byte(long), DeviceSubject: long, RecoveryDigest: [32]byte{9, 8, 7}},
		testRecord(3),
	}
}

// TestRecordGolden pins the bytes the WAL writes: the log of
// goldenRecords appended without compaction, and the snapshot the
// same stream compacts to on its last append. Log and snapshot are
// the durable format every deployed server must reopen, so any change
// to a record's, entry's or header's bytes must show up here first.
func TestRecordGolden(t *testing.T) {
	recs := goldenRecords()
	cases := []struct {
		name  string
		every int
		file  string
		size  int
		sum   string
	}{
		{"log", -1, walName, 197244, "1719b6496a62346e6c5eb094298058bb5076e6c4058202c491f73de8f7a60ae9"},
		{"snapshot", len(recs), snapName, 196881, "d3c570cdc69d8a322d6c09867bb57bebd22570a211f1b2f673526a57e4d74594"},
	}
	for _, tc := range cases {
		fsys := NewMemFS()
		w := mustOpen(t, fsys, WALOptions{SnapshotEvery: tc.every})
		for _, rec := range recs {
			if err := w.Append(rec); err != nil {
				t.Fatalf("%s: append %v %q: %v", tc.name, rec.Kind, rec.Account[:min(len(rec.Account), 12)], err)
			}
		}
		w.Close()
		data, ok := fsys.Bytes(tc.file)
		if !ok {
			t.Fatalf("%s: no %s written", tc.name, tc.file)
		}
		sum := sha256.Sum256(data)
		if len(data) != tc.size || hex.EncodeToString(sum[:]) != tc.sum {
			t.Errorf("%s bytes moved: %d bytes, sha256 %x", tc.name, len(data), sum)
		}
		r := mustOpen(t, fsys, WALOptions{SnapshotEvery: -1})
		if st := r.Stats(); st.Live != 2 || st.Revoked != 1 || st.Seq != uint64(len(recs)) {
			t.Errorf("%s recovers %d live, %d revoked through seq %d", tc.name, st.Live, st.Revoked, st.Seq)
		}
		r.Close()
	}
}
