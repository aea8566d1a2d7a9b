package webserver

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"trust/internal/protocol"
)

func testNonce(i int) protocol.Nonce {
	return protocol.Nonce(fmt.Sprintf("nonce-%06d", i))
}

// consume burns a nonce the way the handlers do, dropping its age.
func consume(st *nonceStore, n protocol.Nonce, now time.Duration) bool {
	_, ok := st.consumeAge(n, now)
	return ok
}

// claim binds an account the way HandleRegistration does, with no
// durability step between the two phases.
func claim(st *accountStore, a *Account) bool {
	if !st.beginClaim(a) {
		return false
	}
	st.commitClaim(a)
	return true
}

func TestNonceStoreTTLExpiry(t *testing.T) {
	st := newNonceStore(time.Minute, 1024)
	st.issue(testNonce(0), 0)
	// Within the TTL: consumable once.
	if !consume(st, testNonce(0), 30*time.Second) {
		t.Fatal("fresh nonce rejected")
	}
	if consume(st, testNonce(0), 30*time.Second) {
		t.Fatal("replayed nonce accepted")
	}
	// Past the TTL: rejected even though never consumed.
	st.issue(testNonce(1), 0)
	if consume(st, testNonce(1), 2*time.Minute) {
		t.Fatal("expired nonce accepted")
	}
}

func TestNonceStoreExpiredEntriesEvictedOnIssue(t *testing.T) {
	st := newNonceStore(time.Minute, 1024)
	for i := 0; i < 100; i++ {
		st.issue(testNonce(i), 0)
	}
	if n := st.len(); n != 100 {
		t.Fatalf("live nonces = %d, want 100", n)
	}
	// Issuing past the TTL sweeps the expired generation out of every
	// shard the new issues land in (eviction is lazy, per shard).
	for i := 100; i < 300; i++ {
		st.issue(testNonce(i), 5*time.Minute)
	}
	if n := st.len(); n >= 300 {
		t.Fatalf("live nonces after expiry sweep = %d, expired generation never evicted", n)
	}
	if consume(st, testNonce(50), 5*time.Minute) {
		t.Fatal("expired nonce consumable after sweep")
	}
	if !consume(st, testNonce(299), 5*time.Minute) {
		t.Fatal("fresh nonce evicted by sweep")
	}
}

func TestNonceStoreCapacityBound(t *testing.T) {
	const capacity = 64
	st := newNonceStore(time.Hour, capacity)
	for i := 0; i < 10_000; i++ {
		st.issue(testNonce(i), 0)
	}
	if n := st.len(); n > capacity {
		t.Fatalf("live nonces = %d, exceeds capacity %d", n, capacity)
	}
	// Eviction is oldest-first: the most recently issued nonce must
	// still be live, the first long gone.
	if consume(st, testNonce(0), 0) {
		t.Fatal("oldest nonce survived capacity eviction")
	}
	if !consume(st, testNonce(9_999), 0) {
		t.Fatal("newest nonce evicted")
	}
}

func TestNonceStoreDeterministicEviction(t *testing.T) {
	// The store's state must be a pure function of the operation
	// sequence (no map-iteration-order dependence): two stores fed the
	// same interleaved issue/consume sequence agree on every nonce.
	run := func() (*nonceStore, []bool) {
		st := newNonceStore(time.Minute, 32)
		var consumed []bool
		for i := 0; i < 500; i++ {
			st.issue(testNonce(i), time.Duration(i)*time.Second)
			if i%3 == 0 {
				consumed = append(consumed, consume(st, testNonce(i/2), time.Duration(i)*time.Second))
			}
		}
		return st, consumed
	}
	a, ca := run()
	b, cb := run()
	if a.len() != b.len() {
		t.Fatalf("live counts diverge: %d vs %d", a.len(), b.len())
	}
	for i := range ca {
		if ca[i] != cb[i] {
			t.Fatalf("consume result %d diverges: %v vs %v", i, ca[i], cb[i])
		}
	}
	for i := 0; i < 500; i++ {
		ra := consume(a, testNonce(i), 500*time.Second)
		rb := consume(b, testNonce(i), 500*time.Second)
		if ra != rb {
			t.Fatalf("final state diverges at nonce %d: %v vs %v", i, ra, rb)
		}
	}
}

// TestServeLoginPageNonceBounded is the regression test for the
// unbounded nonce leak: issued-but-abandoned nonces used to accumulate
// forever. Hammer the login page without ever completing a login and
// assert the live set stays within the configured capacity.
func TestServeLoginPageNonceBounded(t *testing.T) {
	r := newRig(t)
	const capacity = 64
	r.server.nonces = newNonceStore(DefaultNonceTTL, capacity)
	for i := 0; i < 2_000; i++ {
		if lp := r.server.ServeLoginPage(r.now); lp.Nonce == "" {
			t.Fatal("empty nonce")
		}
		r.now += time.Millisecond
	}
	if n := r.server.nonces.len(); n > capacity {
		t.Fatalf("live nonces = %d after abandoned logins, capacity %d", n, capacity)
	}
	// The freshest nonces are the surviving ones: a full flow still
	// works immediately after the flood.
	r.register(t, "post-flood-acct")
	if _, cp := r.login(t, "post-flood-acct"); cp == nil {
		t.Fatal("login failed after nonce flood")
	}
}

func TestSessionStoreRace(t *testing.T) {
	st := newSessionStore()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				id := fmt.Sprintf("sess-%d-%d", g, i)
				st.put(&session{id: id, account: "acct"})
				if _, ok := st.get(id); !ok {
					t.Errorf("session %s lost", id)
					return
				}
				st.forEach(func(s *session) {
					s.mu.Lock()
					_ = s.revoked
					s.mu.Unlock()
				})
				_ = st.len()
			}
		}(g)
	}
	wg.Wait()
	if n := st.len(); n != 8*200 {
		t.Fatalf("store holds %d sessions, want %d", n, 8*200)
	}
}

func TestAccountStoreRace(t *testing.T) {
	st := newAccountStore()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				id := fmt.Sprintf("acct-%d-%d", g, i)
				if !claim(st, &Account{ID: id, PublicKey: []byte{1}}) {
					t.Errorf("claim of fresh id %s failed", id)
					return
				}
				st.addFailure(id)
				if st.failures(id) < 1 {
					t.Errorf("failure count lost for %s", id)
					return
				}
				st.clearFailures(id)
				if _, ok := st.get(id); !ok {
					t.Errorf("account %s lost", id)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestAccountStoreClaimIsFirstWriterWins(t *testing.T) {
	st := newAccountStore()
	const contenders = 8
	var wg sync.WaitGroup
	wins := make([]bool, contenders)
	for g := 0; g < contenders; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			wins[g] = claim(st, &Account{ID: "contested", PublicKey: []byte{byte(g + 1)}})
		}(g)
	}
	wg.Wait()
	won := 0
	for _, w := range wins {
		if w {
			won++
		}
	}
	if won != 1 {
		t.Fatalf("%d of %d concurrent claims won, want exactly 1", won, contenders)
	}
}

func TestNonceStoreRace(t *testing.T) {
	st := newNonceStore(time.Hour, 4096)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				n := protocol.Nonce(fmt.Sprintf("race-%d-%d", g, i))
				st.issue(n, time.Duration(i))
				if !consume(st, n, time.Duration(i)) {
					t.Errorf("own nonce %s not consumable", n)
					return
				}
				if consume(st, n, time.Duration(i)) {
					t.Errorf("nonce %s double-consumed", n)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if n := st.len(); n != 0 {
		t.Fatalf("store holds %d nonces after full consumption", n)
	}
}

// TestLoginFailuresChargeOnlyBoundIDs is the regression test for
// failure counters on unbound ids: forged logins and resumes naming an
// id with no binding used to charge it, locking out whoever registered
// the id next and leaving one counter behind per forged id.
func TestLoginFailuresChargeOnlyBoundIDs(t *testing.T) {
	r := newRig(t)
	attempts := r.server.MaxLoginFailures

	// Full logins against an id before its owner registers.
	forged := &protocol.LoginSubmit{Domain: "www.xyz.com", Account: "future"}
	for i := 0; i < attempts; i++ {
		if _, err := r.server.HandleLogin(r.now, forged); !errors.Is(err, ErrUnknownAccount) {
			t.Fatalf("forged login %d: %v, want ErrUnknownAccount", i, err)
		}
	}
	r.register(t, "future")
	r.login(t, "future")

	// Resumes on a ticket whose binding a reset removed.
	r.register(t, "reset")
	sess, cp := r.login(t, "reset")
	if err := r.server.ResetIdentity(r.now, "reset", "old-password-123"); err != nil {
		t.Fatal(err)
	}
	sub, _ := r.buildResume(t, "reset", cp.Ticket, sess.Key)
	for i := 0; i < attempts; i++ {
		if _, err := r.server.HandleResume(r.now, sub); !errors.Is(err, ErrUnknownAccount) {
			t.Fatalf("resume %d after reset: %v, want ErrUnknownAccount", i, err)
		}
	}
	r.register(t, "reset")
	r.login(t, "reset")

	// Distinct forged ids leave no counters behind.
	for i := 0; i < 1000; i++ {
		id := fmt.Sprintf("forged-%04d", i)
		r.server.HandleLogin(r.now, &protocol.LoginSubmit{Domain: "www.xyz.com", Account: id})
		if n := r.server.accounts.failures(id); n != 0 {
			t.Fatalf("unbound id %s holds %d failures", id, n)
		}
	}
}

// TestShardColumnsMatchCounts checks the telemetry's per-shard depth
// columns after mixed traffic: each store's columns sum to its live
// count, and the column names are the ones captures and perfbench read.
func TestShardColumnsMatchCounts(t *testing.T) {
	r := newRig(t)
	for _, id := range []string{"a", "b", "c", "d", "e"} {
		// The rig's one device holds one key per domain: log in before
		// the next registration replaces it.
		r.register(t, id)
		r.login(t, id)
	}
	if err := r.server.ResetIdentity(r.now, "b", "old-password-123"); err != nil {
		t.Fatal(err)
	}
	if err := r.server.RevokeAccount(r.now, "c"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		r.server.ServeLoginPage(r.now)
		r.server.ServeRegistrationPage(r.now)
	}
	const bound = 3 // a, d, e: b was reset and c revoked

	schema := r.server.MetricsSchema()
	vals := r.server.AppendMetrics(nil)
	sums := make(map[string]int)
	for i, name := range schema {
		if prefix, _, ok := strings.Cut(name, "_shard"); ok {
			sums[prefix] += int(vals[i])
		}
	}
	if got, want := sums["sessions"], r.server.SessionCount(); got != want || want == 0 {
		t.Errorf("sessions columns sum to %d, SessionCount %d", got, want)
	}
	if got, want := sums["nonces"], r.server.nonces.len(); got != want || want == 0 {
		t.Errorf("nonces columns sum to %d, live nonces %d", got, want)
	}
	if got := sums["accounts"]; got != bound {
		t.Errorf("accounts columns sum to %d, want %d bound", got, bound)
	}

	const wantSchema = "accepted rejected logins_full logins_resume degraded degraded_trips storage_errors nonce_evictions streams hb_clamped hb_rejected " +
		"sessions_shard00 sessions_shard01 sessions_shard02 sessions_shard03 sessions_shard04 sessions_shard05 sessions_shard06 sessions_shard07 " +
		"sessions_shard08 sessions_shard09 sessions_shard10 sessions_shard11 sessions_shard12 sessions_shard13 sessions_shard14 sessions_shard15 " +
		"accounts_shard00 accounts_shard01 accounts_shard02 accounts_shard03 accounts_shard04 accounts_shard05 accounts_shard06 accounts_shard07 " +
		"accounts_shard08 accounts_shard09 accounts_shard10 accounts_shard11 accounts_shard12 accounts_shard13 accounts_shard14 accounts_shard15 " +
		"nonces_shard00 nonces_shard01 nonces_shard02 nonces_shard03 nonces_shard04 nonces_shard05 nonces_shard06 nonces_shard07 " +
		"nonces_shard08 nonces_shard09 nonces_shard10 nonces_shard11 nonces_shard12 nonces_shard13 nonces_shard14 nonces_shard15 " +
		"enroll_count enroll_p50_ns enroll_p99_ns login_count login_p50_ns login_p99_ns resume_count resume_p50_ns resume_p99_ns " +
		"page_count page_p50_ns page_p99_ns resync_count resync_p50_ns resync_p99_ns"
	if got := strings.Join(schema, " "); got != wantSchema {
		t.Errorf("MetricsSchema =\n%s\nwant\n%s", got, wantSchema)
	}
}
