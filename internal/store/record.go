package store

import (
	"errors"
	"fmt"
	"time"

	"trust/internal/chunk"
	"trust/internal/wire"
)

// ErrStorage is the typed failure every write-path error wraps: the
// backend could not make a record durable, so the server must not
// acknowledge the operation. The webserver degrades explicitly on it —
// new enrollments are rejected, already-durable accounts keep being
// served — instead of wedging (docs/persistence.md "Degraded mode").
var ErrStorage = errors.New("store: storage backend failure")

// ErrCorrupt marks log or snapshot damage that is NOT a torn tail: a
// bad frame with valid frames after it, a checksum-valid record that
// does not decode, or an unreadable snapshot.
// Torn tails (the crash case) are discarded silently on open;
// mid-file corruption refuses to open, because silently dropping the
// suffix would lose acknowledged records.
var ErrCorrupt = errors.New("store: corrupt record file")

// Kind is the durable operation a record logs.
type Kind uint8

const (
	// KindEnroll binds an account to a public key (Fig 9 registration).
	KindEnroll Kind = 1
	// KindReset removes a binding via the paper's identity-reset flow;
	// the id may be re-enrolled under a bumped generation.
	KindReset Kind = 2
	// KindRevoke tombstones an account: the binding is removed AND the
	// id may never be claimed again (lost-device takeover block).
	KindRevoke Kind = 3
)

func (k Kind) String() string {
	switch k {
	case KindEnroll:
		return "enroll"
	case KindReset:
		return "reset"
	case KindRevoke:
		return "revoke"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Record is one durable account-store operation on the virtual clock.
// Enroll records carry the full binding; reset and revoke carry only
// the identity (Gen names the binding generation they act on).
type Record struct {
	Kind Kind
	// At is the operation's virtual timestamp (the protocol `now`).
	At time.Duration
	// Account is the bound account id.
	Account string
	// Gen is the binding generation: assigned at claim for enrolls,
	// the removed binding's generation for resets and revokes.
	Gen uint64
	// PublicKey is the enrolled ed25519 verification key (enroll only).
	PublicKey []byte
	// DeviceSubject is the enrolling device certificate's subject
	// (enroll only).
	DeviceSubject string
	// RecoveryDigest is the sha256 digest of the recovery credential,
	// all-zero when none was enrolled (enroll only).
	RecoveryDigest [32]byte
}

// AccountBackend is the pluggable durability layer behind the
// webserver's account store. Append must be called OUTSIDE any shard
// or session lock (it blocks on storage; trustlint's lockorder rule
// polices this) and must return only after the record is durable —
// the caller acknowledges the client operation on nil. State exposes
// what the backend recovered at open.
type AccountBackend interface {
	// Append makes one record durable. Errors wrap ErrStorage.
	Append(rec Record) error
	// State returns the effective records recovered at open — one
	// enroll per live binding plus one revoke per tombstone, sorted by
	// account id — and the generation high-water mark.
	State() ([]Record, uint64)
	// Close releases file handles. Records appended before Close are
	// durable regardless (Append syncs per record).
	Close() error
}

// Memory is the no-op backend: the historical in-memory account store,
// which loses everything on restart. It exists so the backend seam has
// a zero-cost default.
type Memory struct{}

func (Memory) Append(Record) error       { return nil }
func (Memory) State() ([]Record, uint64) { return nil, 0 }
func (Memory) Close() error              { return nil }

// Record payload (docs/persistence.md "Record grammar"), framed by
// internal/chunk as length || crc32 || payload:
//
//	payload := seq(u64) || kind(u8) || at(i64 ns) || gen(u64) ||
//	           len16(account) || account ||
//	           [ len16(pubkey) || pubkey ||
//	             len16(subject) || subject || digest(32) ]   (enroll only)
//
// The same framing carries snapshot entries (seq 0). All integers are
// little-endian; the encoding is fully deterministic, so identical
// record streams produce byte-identical files.

// errBadFrame is a checksum-valid payload the record grammar refuses.
var errBadFrame = errors.New("store: bad frame")

// recordFields is the record grammar's one field list (internal/wire,
// little-endian with 2-byte lengths), walked by appendFrame to encode
// and decodeEntry to decode. A kind outside the grammar is refused
// either way.
func recordFields(c *wire.Codec, seq *uint64, r *Record) {
	c.U64(seq)
	c.U8((*byte)(&r.Kind))
	c.I64((*int64)(&r.At))
	c.U64(&r.Gen)
	c.Str(&r.Account)
	switch r.Kind {
	case KindEnroll:
		c.Bytes(&r.PublicKey)
		c.Str(&r.DeviceSubject)
		c.Fixed(r.RecoveryDigest[:])
	case KindReset, KindRevoke:
	default:
		c.Fail(errBadFrame)
	}
}

// appendFrame encodes rec (with its sequence number) as one frame onto
// buf and returns the extended slice. A record the grammar cannot
// state — a field longer than its 16-bit length, an unknown kind — is
// refused with buf unchanged: written, it would make every later open
// refuse the whole log as corrupt.
func appendFrame(buf []byte, seq uint64, rec Record) ([]byte, error) {
	buf, at := chunk.Begin(buf)
	c := wire.NewEncoder(wire.LittleEndian16, buf)
	if recordFields(&c, &seq, &rec); c.Err() != nil {
		return buf[:at], fmt.Errorf("%w: %v record for a %d-byte account: %v", ErrStorage, rec.Kind, len(rec.Account), c.Err())
	}
	buf = c.Data()
	chunk.End(buf, at)
	return buf, nil
}

// decodeEntry decodes one frame's payload: a record and its sequence
// number.
func decodeEntry(p []byte) (Record, uint64, error) {
	var rec Record
	var seq uint64
	c := wire.NewDecoder(wire.LittleEndian16, p)
	if recordFields(&c, &seq, &rec); c.Err() != nil || c.Rest() != 0 {
		return Record{}, 0, errBadFrame
	}
	return rec, seq, nil
}

// minFrameSize is the smallest frame decodeEntry accepts: a reset or
// revoke with an empty account id.
var minFrameSize = func() int {
	b, _ := appendFrame(nil, 0, Record{Kind: KindRevoke})
	return len(b)
}()
