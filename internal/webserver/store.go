package webserver

import (
	"crypto/ed25519"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"trust/internal/protocol"
	"trust/internal/store"
)

// Sharded state stores. The server's hot path (HandlePageRequest /
// HandleLogin) runs on net/http's per-request goroutines, so every
// piece of mutable state lives in one of the stores below: a
// power-of-two number of shards, each with its own lock, selected by an
// FNV-1a hash of the key. Two requests touching different keys contend
// only when they hash to the same shard; two requests on the same
// session serialize on that session's own mutex, never on a global
// one. docs/server-scaling.md describes the full lock hierarchy.

// numShards is the shard count shared by the session, account, and
// nonce stores. Power of two so the hash folds with a mask.
const numShards = 16

// shardIndex maps a key to its shard with FNV-1a (inlined to keep the
// lookup allocation-free).
func shardIndex(key string) uint32 {
	const (
		offset32 = 2166136261
		prime32  = 16777619
	)
	h := uint32(offset32)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= prime32
	}
	return h & (numShards - 1)
}

// shard is one shard of a store: its contents and the lock guarding
// them. Every store's shards share this one lock field, which
// trustlint's lockorder rule ranks as the store shard lock.
type shard[S any] struct {
	mu sync.RWMutex
	s  S
}

// sized is what a shard's contents report to the telemetry capture:
// their live entry count.
type sized interface{ size() int }

// shards is the shard table each store embeds: it places keys, and it
// counts and names the per-shard depth columns (metrics.go).
type shards[S sized] [numShards]shard[S]

// fill gives every shard fresh contents.
func (t *shards[S]) fill(contents func() S) {
	for i := range t {
		t[i].s = contents()
	}
}

// of returns key's shard.
func (t *shards[S]) of(key string) *shard[S] {
	return &t[shardIndex(key)]
}

// appendLens appends each shard's live entry count — the capture's
// per-shard depth columns.
func (t *shards[S]) appendLens(out []int64) []int64 {
	for i := range t {
		sh := &t[i]
		sh.mu.RLock()
		n := sh.s.size()
		sh.mu.RUnlock()
		out = append(out, int64(n))
	}
	return out
}

// appendNames appends the column names appendLens fills, in its order.
func (t *shards[S]) appendNames(names []string, prefix string) []string {
	for i := range t {
		names = append(names, fmt.Sprintf("%s_shard%02d", prefix, i))
	}
	return names
}

// len is the live entry count over every shard.
func (t *shards[S]) len() int {
	n := 0
	for i := range t {
		sh := &t[i]
		sh.mu.RLock()
		n += sh.s.size()
		sh.mu.RUnlock()
	}
	return n
}

// sessionStore holds live sessions keyed by session id. The store's
// shard locks cover only the map; per-session mutable state (nonce
// echo, request count, revocation) is guarded by the session's own
// mutex so two sessions never contend with each other.
type sessionStore struct {
	shards[sessionShard]
}

type sessionShard map[string]*session

func (m sessionShard) size() int { return len(m) }

func newSessionStore() *sessionStore {
	st := &sessionStore{}
	st.fill(func() sessionShard { return make(sessionShard) })
	return st
}

func (st *sessionStore) get(id string) (*session, bool) {
	sh := st.of(id)
	sh.mu.RLock()
	s, ok := sh.s[id]
	sh.mu.RUnlock()
	return s, ok
}

func (st *sessionStore) put(s *session) {
	sh := st.of(s.id)
	sh.mu.Lock()
	sh.s[s.id] = s
	sh.mu.Unlock()
}

// forEach visits every live session. The visit callback runs with the
// shard read-locked, so it must not call back into the store; locking
// the visited session inside the callback is part of the documented
// lock order (shard lock, then session lock).
func (st *sessionStore) forEach(visit func(*session)) {
	for i := range st.shards {
		sh := &st.shards[i]
		sh.mu.RLock()
		for _, s := range sh.s {
			visit(s)
		}
		sh.mu.RUnlock()
	}
}

// accountStore holds registered accounts and the per-account login
// failure counters, sharded by account id. The failure counter shares
// its account's shard so a claim/remove and its counter update never
// race across locks.
//
// Claims are two-phase so durability and shard state cannot diverge:
// beginClaim reserves the id (pending marker) under the shard lock,
// the caller appends the enroll record to the backend OUTSIDE every
// lock (trustlint's lockorder rule polices blocking I/O under shard
// locks), then commitClaim publishes or abortClaim releases. Of N
// concurrent claims on one id exactly one passes beginClaim, so the
// backend sees exactly one enroll record per acknowledged binding.
type accountStore struct {
	// gen numbers successful claims; each bound Account carries its
	// claim's value so re-binding an id after ResetIdentity yields a
	// distinguishable generation (resumption tickets check it).
	gen atomic.Uint64
	shards[accountShard]
}

type accountShard struct {
	accounts map[string]*Account
	// failures counts failed logins against bound ids only, so the
	// map never outgrows accounts.
	failures map[string]int
	// pending marks ids mid-claim: reserved by beginClaim, not yet
	// durable. Pending ids refuse concurrent claims.
	pending map[string]struct{}
	// revoked tombstones ids whose binding was permanently revoked
	// (RevokeAccount); a revoked id can never be claimed again.
	revoked map[string]struct{}
}

// size counts bindings: the accounts_shardNN columns.
func (a accountShard) size() int { return len(a.accounts) }

func newAccountStore() *accountStore {
	st := &accountStore{}
	st.fill(func() accountShard {
		return accountShard{
			accounts: make(map[string]*Account),
			failures: make(map[string]int),
			pending:  make(map[string]struct{}),
			revoked:  make(map[string]struct{}),
		}
	})
	return st
}

// seed loads the state a durable backend recovered: live bindings,
// revoke tombstones, and the generation high-water mark. Called before
// the server serves traffic, so no locks race it.
func (st *accountStore) seed(recs []store.Record, gen uint64) {
	st.gen.Store(gen)
	if per := len(recs) / numShards; per > 0 {
		// Size each shard up front so recovery does not grow the maps
		// from empty; the hash spreads ids about evenly over shards.
		for i := range st.shards {
			st.shards[i].s.accounts = make(map[string]*Account, per)
		}
	}
	for _, rec := range recs {
		sh := &st.of(rec.Account).s
		switch rec.Kind {
		case store.KindEnroll:
			sh.accounts[rec.Account] = &Account{
				ID:             rec.Account,
				PublicKey:      ed25519.PublicKey(rec.PublicKey),
				DeviceSubject:  rec.DeviceSubject,
				RecoveryDigest: rec.RecoveryDigest,
				Gen:            rec.Gen,
				RegisteredAt:   rec.At,
			}
		case store.KindRevoke:
			sh.revoked[rec.Account] = struct{}{}
		}
	}
}

func (st *accountStore) get(id string) (*Account, bool) {
	sh := st.of(id)
	sh.mu.RLock()
	a, ok := sh.s.accounts[id]
	sh.mu.RUnlock()
	return a, ok
}

// beginClaim reserves an id for claiming: it fails when the id is
// bound, revoked, or already mid-claim; on success the id is marked
// pending and a.Gen carries the fresh binding generation. The caller
// must follow with exactly one commitClaim or abortClaim.
func (st *accountStore) beginClaim(a *Account) bool {
	sh := st.of(a.ID)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if _, gone := sh.s.revoked[a.ID]; gone {
		return false
	}
	if _, busy := sh.s.pending[a.ID]; busy {
		// A concurrent claim on the same id holds the reservation; this
		// one loses (first-writer-wins extends to in-flight claims).
		return false
	}
	if old, ok := sh.s.accounts[a.ID]; ok && len(old.PublicKey) != 0 {
		return false
	}
	a.Gen = st.gen.Add(1)
	sh.s.pending[a.ID] = struct{}{}
	return true
}

// commitClaim publishes a binding whose enroll record is durable.
func (st *accountStore) commitClaim(a *Account) {
	sh := st.of(a.ID)
	sh.mu.Lock()
	delete(sh.s.pending, a.ID)
	sh.s.accounts[a.ID] = a
	sh.mu.Unlock()
}

// abortClaim releases a reservation whose durability step failed; the
// id becomes claimable again (by a later retry, once storage heals).
func (st *accountStore) abortClaim(id string) {
	sh := st.of(id)
	sh.mu.Lock()
	delete(sh.s.pending, id)
	sh.mu.Unlock()
}

// remove deletes the binding and its failure counter.
func (st *accountStore) remove(id string) {
	sh := st.of(id)
	sh.mu.Lock()
	delete(sh.s.accounts, id)
	delete(sh.s.failures, id)
	sh.mu.Unlock()
}

// revoke deletes the binding and tombstones the id permanently.
func (st *accountStore) revoke(id string) {
	sh := st.of(id)
	sh.mu.Lock()
	delete(sh.s.accounts, id)
	delete(sh.s.failures, id)
	sh.s.revoked[id] = struct{}{}
	sh.mu.Unlock()
}

func (st *accountStore) failures(id string) int {
	sh := st.of(id)
	sh.mu.RLock()
	n := sh.s.failures[id]
	sh.mu.RUnlock()
	return n
}

// addFailure charges one failed login to a bound id. An id with no
// binding is not charged: a counter on it would lock out whoever
// registers it next, and one per forged id would grow without bound.
// The binding is checked under the shard lock, so a login failing
// while a reset removes the binding leaves no counter behind.
func (st *accountStore) addFailure(id string) {
	sh := st.of(id)
	sh.mu.Lock()
	if _, bound := sh.s.accounts[id]; bound {
		sh.s.failures[id]++
	}
	sh.mu.Unlock()
}

func (st *accountStore) clearFailures(id string) {
	sh := st.of(id)
	sh.mu.Lock()
	delete(sh.s.failures, id)
	sh.mu.Unlock()
}

// Nonce lifetime bounds. Issued-but-abandoned nonces used to
// accumulate forever (every served login/registration page minted one;
// only completed flows consumed it). The store now expires nonces
// after a virtual-time TTL and enforces a hard capacity, evicting
// oldest-first — both deterministic functions of the operation
// sequence, so single-threaded harness runs stay byte-identical.
const (
	// DefaultNonceTTL is generous against the virtual clocks the
	// simulations drive: flows serve a page and consume its nonce
	// within seconds of virtual time.
	DefaultNonceTTL = 10 * time.Minute
	// DefaultNonceCapacity bounds the total live nonces across shards.
	DefaultNonceCapacity = 8192
)

// nonceStore tracks issued and not-yet-consumed nonces with TTL and
// capacity bounds.
type nonceStore struct {
	ttl      time.Duration
	perShard int
	// evictions counts nonces dropped by TTL expiry or capacity
	// pressure (not consumed, not lazily skipped stale queue entries) —
	// a rising rate means served pages are outpacing completed flows.
	evictions atomic.Int64
	shards[nonceShard]
}

type nonceEntry struct {
	n  protocol.Nonce
	at time.Duration
}

type nonceShard struct {
	m map[protocol.Nonce]time.Duration // nonce -> virtual issue time
	// q records issue order for FIFO eviction. Consumed nonces leave
	// stale entries behind; they are skipped (and compacted) lazily.
	q    []nonceEntry
	head int
}

func (n nonceShard) size() int { return len(n.m) }

func newNonceStore(ttl time.Duration, capacity int) *nonceStore {
	per := capacity / numShards
	if per < 1 {
		per = 1
	}
	st := &nonceStore{ttl: ttl, perShard: per}
	st.fill(func() nonceShard { return nonceShard{m: make(map[protocol.Nonce]time.Duration)} })
	return st
}

// issue registers a freshly minted nonce, first evicting expired and
// over-capacity entries oldest-first.
func (st *nonceStore) issue(n protocol.Nonce, now time.Duration) {
	sh := st.of(string(n))
	sh.mu.Lock()
	sh.s.evict(now, st.ttl, st.perShard-1, &st.evictions)
	sh.s.m[n] = now
	sh.s.q = append(sh.s.q, nonceEntry{n: n, at: now})
	sh.mu.Unlock()
}

// consumeAge validates and burns a nonce, reporting its age (issue to
// consume, virtual time) — the handlers' flow-latency sample for the
// telemetry capture. Replayed, unknown, or expired nonces fail.
func (st *nonceStore) consumeAge(n protocol.Nonce, now time.Duration) (time.Duration, bool) {
	sh := st.of(string(n))
	sh.mu.Lock()
	defer sh.mu.Unlock()
	at, ok := sh.s.m[n]
	if !ok || now-at > st.ttl {
		return 0, false
	}
	delete(sh.s.m, n)
	return now - at, true
}

// evict drops queue-front entries that are stale (already consumed),
// expired, or over the live capacity, then compacts the queue once the
// dead prefix dominates. Called with the shard locked. Real evictions
// (a live nonce dropped unconsumed) count into evicted.
func (sh *nonceShard) evict(now, ttl time.Duration, maxLive int, evicted *atomic.Int64) {
	for sh.head < len(sh.q) {
		e := sh.q[sh.head]
		at, live := sh.m[e.n]
		if live && at == e.at {
			if now-e.at <= ttl && len(sh.m) <= maxLive {
				break
			}
			delete(sh.m, e.n)
			evicted.Add(1)
		}
		sh.head++
	}
	if sh.head == len(sh.q) {
		sh.q = sh.q[:0]
		sh.head = 0
	} else if sh.head > len(sh.q)/2 && sh.head > 32 {
		sh.q = append(sh.q[:0], sh.q[sh.head:]...)
		sh.head = 0
	}
}
