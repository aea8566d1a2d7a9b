package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"time"

	"trust/internal/chunk"
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

// minFrameSize is the smallest frame decodePayload accepts: a reset or
// revoke with an empty account id.
const minFrameSize = chunk.HeaderSize + 8 + 1 + 8 + 8 + 2

// appendFrame encodes rec (with its sequence number) as one frame onto
// buf and returns the extended slice.
func appendFrame(buf []byte, seq uint64, rec Record) []byte {
	buf, at := chunk.Begin(buf)
	buf = binary.LittleEndian.AppendUint64(buf, seq)
	buf = append(buf, byte(rec.Kind))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(rec.At))
	buf = binary.LittleEndian.AppendUint64(buf, rec.Gen)
	buf = appendBytes16(buf, []byte(rec.Account))
	if rec.Kind == KindEnroll {
		buf = appendBytes16(buf, rec.PublicKey)
		buf = appendBytes16(buf, []byte(rec.DeviceSubject))
		buf = append(buf, rec.RecoveryDigest[:]...)
	}
	chunk.End(buf, at)
	return buf
}

// checkLengths refuses a record with a field longer than its 16-bit
// length can state: written truncated, it would make every later open
// refuse the whole log as corrupt.
func checkLengths(rec Record) error {
	for _, n := range [...]int{len(rec.Account), len(rec.PublicKey), len(rec.DeviceSubject)} {
		if n > math.MaxUint16 {
			return fmt.Errorf("%w: %d-byte record field exceeds its 16-bit length", ErrStorage, n)
		}
	}
	return nil
}

func appendBytes16(buf, b []byte) []byte {
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(b)))
	return append(buf, b...)
}

// errBadFrame is a checksum-valid payload decodePayload cannot parse.
var errBadFrame = errors.New("store: bad frame")

func decodePayload(p []byte) (Record, uint64, error) {
	var rec Record
	if len(p) < 8+1+8+8 {
		return rec, 0, errBadFrame
	}
	seq := binary.LittleEndian.Uint64(p)
	rec.Kind = Kind(p[8])
	rec.At = time.Duration(binary.LittleEndian.Uint64(p[9:]))
	rec.Gen = binary.LittleEndian.Uint64(p[17:])
	p = p[25:]
	acct, p, ok := readBytes16(p)
	if !ok {
		return rec, 0, errBadFrame
	}
	rec.Account = string(acct)
	switch rec.Kind {
	case KindEnroll:
		var pub, subj []byte
		if pub, p, ok = readBytes16(p); !ok {
			return rec, 0, errBadFrame
		}
		if subj, p, ok = readBytes16(p); !ok {
			return rec, 0, errBadFrame
		}
		if len(p) != 32 {
			return rec, 0, errBadFrame
		}
		rec.PublicKey = append([]byte(nil), pub...)
		rec.DeviceSubject = string(subj)
		copy(rec.RecoveryDigest[:], p)
	case KindReset, KindRevoke:
		if len(p) != 0 {
			return rec, 0, errBadFrame
		}
	default:
		return rec, 0, errBadFrame
	}
	return rec, seq, nil
}

func readBytes16(p []byte) (b, rest []byte, ok bool) {
	if len(p) < 2 {
		return nil, nil, false
	}
	n := int(binary.LittleEndian.Uint16(p))
	if len(p) < 2+n {
		return nil, nil, false
	}
	return p[2 : 2+n], p[2+n:], true
}
