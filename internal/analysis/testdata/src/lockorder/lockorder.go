// Package lockfix exercises the lockorder rule: the documented lock
// hierarchy (store shard → session → leaf, docs/server-scaling.md) is
// mirrored here by shard.mu / gshard.mu / session.mu / auditLog.mu
// entries in the analyzer's ordering table. Its retired.mu entry names
// no lock declared here, which is itself a finding.
package lockfix // want "stale lock rank-table entry lockorder\\.retired\\.mu"

import (
	"net"
	"os"
	"sync"
)

// shard mirrors a store shard: rank 10, block-sensitive.
type shard struct {
	mu       sync.RWMutex
	sessions map[string]*session
}

// gshard mirrors the webserver's generic shard table: one lock field,
// ranked once, for every instantiation.
type gshard[S any] struct {
	mu sync.RWMutex
	s  S
}

// session mirrors one session's own mutex: rank 20, block-sensitive.
type session struct {
	mu       sync.Mutex
	requests int
}

// auditLog mirrors a leaf mutex: rank 30, nothing acquired under it.
type auditLog struct {
	mu      sync.Mutex
	entries []string
}

// Inverted acquires a shard lock while holding a session lock — the
// exact inversion the hierarchy forbids.
func Inverted(sh *shard, sess *session) {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	sh.mu.Lock() // want "acquiring lockorder\\.shard\\.mu while holding lockorder\\.session\\.mu inverts the documented lock hierarchy"
	sh.mu.Unlock()
}

// TwoShards holds two shard locks at once: same rank, still forbidden
// (no two shard locks — same store or different stores — together).
func TwoShards(a, b *shard) {
	a.mu.Lock()
	defer a.mu.Unlock()
	b.mu.RLock() // want "re-acquiring lockorder\\.shard\\.mu while one is already held"
	b.mu.RUnlock()
}

// InvertedGeneric is Inverted on an instantiated generic shard: the
// instance's lock is the generic type's one ranked entry.
func InvertedGeneric(sh *gshard[map[string]*session], sess *session) {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	sh.mu.Lock() // want "acquiring lockorder\\.gshard\\.mu while holding lockorder\\.session\\.mu inverts the documented lock hierarchy"
	sh.mu.Unlock()
}

// TwoShardsGeneric holds two shards of different instantiations — two
// stores — at once.
func TwoShardsGeneric(a *gshard[map[string]*session], b *gshard[map[string]int]) {
	a.mu.Lock()
	defer a.mu.Unlock()
	b.mu.RLock() // want "re-acquiring lockorder\\.gshard\\.mu while one is already held"
	b.mu.RUnlock()
}

// Recursive re-locks a mutex it already holds.
func Recursive(sess *session) {
	sess.mu.Lock()
	sess.mu.Lock() // want "re-acquiring lockorder\\.session\\.mu while one is already held"
	sess.mu.Unlock()
	sess.mu.Unlock()
}

// lockSession is the helper whose lock acquisition the call-graph
// summaries must see through.
func lockSession(sess *session) {
	sess.mu.Lock()
	sess.requests++
	sess.mu.Unlock()
}

// TransitiveInversion performs the Inverted shape through a callee:
// the audit leaf is held, and the helper acquires a session lock.
func TransitiveInversion(log *auditLog, sess *session) {
	log.mu.Lock()
	defer log.mu.Unlock()
	lockSession(sess) // want "call to lockSession acquires lockorder\\.session\\.mu while lockorder\\.auditLog\\.mu is held"
}

// WriteUnderSession blocks on a socket while holding a session lock: a
// stalled peer would serialize every request on this session.
func WriteUnderSession(sess *session, conn net.Conn, payload []byte) {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	conn.Write(payload) // want "interface Write \\(potential socket I/O\\) while holding lockorder\\.session\\.mu"
}

// SendUnderShard performs a channel send while holding a shard lock.
func SendUnderShard(sh *shard, ch chan string) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	ch <- "evicted" // want "channel send while holding lockorder\\.shard\\.mu"
}

// flush is a helper that blocks; calling it under a session lock is
// the transitive form of WriteUnderSession.
func flush(conn net.Conn, payload []byte) error {
	_, err := conn.Write(payload)
	return err
}

// TransitiveBlock reaches the socket write through the helper.
func TransitiveBlock(sess *session, conn net.Conn, payload []byte) {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	flush(conn, payload) // want "call to flush performs interface Write \\(potential socket I/O\\) while lockorder\\.session\\.mu is held"
}

// DocumentedOrder takes the locks in the documented order — shard,
// then session, then leaf — which is exactly what the hierarchy
// permits. No findings.
func DocumentedOrder(sh *shard, log *auditLog, id string) {
	sh.mu.RLock()
	sess := sh.sessions[id]
	if sess != nil {
		sess.mu.Lock()
		sess.requests++
		log.mu.Lock()
		log.entries = append(log.entries, id)
		log.mu.Unlock()
		sess.mu.Unlock()
	}
	sh.mu.RUnlock()
}

// ReleaseBeforeBlocking copies state out under the lock and blocks only
// after releasing it. No findings.
func ReleaseBeforeBlocking(sh *shard, conn net.Conn, payload []byte) {
	sh.mu.RLock()
	n := len(sh.sessions)
	sh.mu.RUnlock()
	if n > 0 {
		conn.Write(payload)
	}
}

// UnrankedLocal blocks while holding a mutex outside the ordering
// table: unranked locks are invisible to the rule. No findings.
func UnrankedLocal(conn net.Conn, payload []byte) {
	var wmu sync.Mutex
	wmu.Lock()
	defer wmu.Unlock()
	conn.Write(payload)
}

// syncer mirrors the store's fs File interface: Sync through an
// interface receiver is an fsync on the durable path.
type syncer interface {
	Sync() error
}

// FileWriteUnderShard appends a log record to a file while holding a
// shard lock: one slow disk write serializes every request contending
// on the shard.
func FileWriteUnderShard(sh *shard, f *os.File, rec []byte) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	f.Write(rec) // want "file write \\(disk I/O\\) while holding lockorder\\.shard\\.mu"
}

// SyncUnderSession forces an fsync through a file-shaped interface
// while a session lock is held.
func SyncUnderSession(sess *session, f syncer) {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	f.Sync() // want "interface Sync \\(potential disk I/O\\) while holding lockorder\\.session\\.mu"
}

// appendRecord is a helper that writes; calling it under a shard lock
// is the transitive form of FileWriteUnderShard.
func appendRecord(f *os.File, rec []byte) error {
	_, err := f.Write(rec)
	return err
}

// TransitiveFileWrite reaches the disk write through the helper.
func TransitiveFileWrite(sh *shard, f *os.File, rec []byte) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	appendRecord(f, rec) // want "call to appendRecord performs file write \\(disk I/O\\) while lockorder\\.shard\\.mu is held"
}

// AppendOutsideLock stages the claim under the shard lock and appends
// to the file only after releasing it — the two-phase claim idiom the
// webserver's durable enroll path uses (docs/persistence.md). No
// findings.
func AppendOutsideLock(sh *shard, f *os.File, rec []byte) {
	sh.mu.Lock()
	n := len(sh.sessions)
	sh.mu.Unlock()
	if n >= 0 {
		appendRecord(f, rec)
	}
}

// GoroutineNotCounted spawns a closure that sends on a channel while
// the enclosing function holds a shard lock: the send happens on the
// new goroutine, after the spawner released, so it is not charged to
// the locked region. No findings.
func GoroutineNotCounted(sh *shard, ch chan string) {
	sh.mu.Lock()
	go func() {
		ch <- "background"
	}()
	sh.mu.Unlock()
}
