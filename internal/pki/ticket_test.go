package pki

import (
	"bytes"
	"errors"
	"testing"
	"time"
)

func newTestTicketKeys(t *testing.T, period time.Duration, window int) *TicketKeys {
	t.Helper()
	tk, err := NewTicketKeys(NewDeterministicRand(41), period, window)
	if err != nil {
		t.Fatalf("NewTicketKeys: %v", err)
	}
	return tk
}

func TestTicketSealOpenRoundTrip(t *testing.T) {
	tk := newTestTicketKeys(t, 5*time.Minute, 1)
	rand := NewDeterministicRand(7)
	aad := []byte("trust-ticket-v1|bank.example")
	pt := []byte("account|key-material|nonce")

	now := 42 * time.Second
	ticket, err := tk.Seal(now, pt, aad, rand)
	if err != nil {
		t.Fatalf("Seal: %v", err)
	}
	got, err := tk.Open(now+90*time.Second, ticket, aad)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if !bytes.Equal(got, pt) {
		t.Fatalf("round trip: got %q want %q", got, pt)
	}
}

func TestTicketEpochWindow(t *testing.T) {
	tk := newTestTicketKeys(t, 5*time.Minute, 1)
	rand := NewDeterministicRand(7)
	aad := []byte("aad")
	ticket, err := tk.Seal(0, []byte("pt"), aad, rand)
	if err != nil {
		t.Fatalf("Seal: %v", err)
	}
	// Same epoch and the next epoch (window 1) still open.
	for _, now := range []time.Duration{0, 4 * time.Minute, 6 * time.Minute, 9 * time.Minute} {
		if _, err := tk.Open(now, ticket, aad); err != nil {
			t.Fatalf("Open at %v: %v", now, err)
		}
	}
	// Two epochs later the ticket is expired.
	if _, err := tk.Open(10*time.Minute, ticket, aad); !errors.Is(err, ErrTicketEpoch) {
		t.Fatalf("Open past window: got %v, want ErrTicketEpoch", err)
	}
	// A future-dated epoch prefix is rejected too.
	future, err := tk.Seal(20*time.Minute, []byte("pt"), aad, rand)
	if err != nil {
		t.Fatalf("Seal: %v", err)
	}
	if _, err := tk.Open(0, future, aad); !errors.Is(err, ErrTicketEpoch) {
		t.Fatalf("Open future ticket: got %v, want ErrTicketEpoch", err)
	}
}

func TestTicketTamperRejected(t *testing.T) {
	tk := newTestTicketKeys(t, 5*time.Minute, 1)
	rand := NewDeterministicRand(7)
	aad := []byte("aad")
	ticket, err := tk.Seal(0, []byte("pt"), aad, rand)
	if err != nil {
		t.Fatalf("Seal: %v", err)
	}
	// Flip one ciphertext byte.
	bad := append([]byte(nil), ticket...)
	bad[len(bad)-1] ^= 1
	if _, err := tk.Open(0, bad, aad); !errors.Is(err, ErrDecrypt) {
		t.Fatalf("tampered ciphertext: got %v, want ErrDecrypt", err)
	}
	// Rewriting the clear epoch prefix within the window must fail:
	// the prefix is bound into the AAD.
	shifted := append([]byte(nil), ticket...)
	shifted[7] ^= 1 // epoch 0 -> 1, still inside the window at 6min
	if _, err := tk.Open(6*time.Minute, shifted, aad); !errors.Is(err, ErrDecrypt) {
		t.Fatalf("epoch-shifted ticket: got %v, want ErrDecrypt", err)
	}
	// Wrong AAD fails.
	if _, err := tk.Open(0, ticket, []byte("other")); !errors.Is(err, ErrDecrypt) {
		t.Fatalf("wrong aad: got %v, want ErrDecrypt", err)
	}
	// Truncated tickets fail cleanly.
	if _, err := tk.Open(0, ticket[:4], aad); !errors.Is(err, ErrDecrypt) {
		t.Fatalf("truncated ticket: got %v, want ErrDecrypt", err)
	}
}

func TestTicketKeysDeterministic(t *testing.T) {
	// Same seed, same draws -> byte-identical tickets (the repo's
	// determinism contract covers ticket issuance on the transcript
	// paths).
	mk := func() []byte {
		tk, err := NewTicketKeys(NewDeterministicRand(41), 5*time.Minute, 1)
		if err != nil {
			t.Fatalf("NewTicketKeys: %v", err)
		}
		ticket, err := tk.Seal(time.Second, []byte("pt"), []byte("aad"), NewDeterministicRand(9))
		if err != nil {
			t.Fatalf("Seal: %v", err)
		}
		return ticket
	}
	if !bytes.Equal(mk(), mk()) {
		t.Fatal("ticket issuance is not deterministic under fixed seeds")
	}
}

func TestTicketKeysValidation(t *testing.T) {
	if _, err := NewTicketKeys(NewDeterministicRand(1), 0, 1); err == nil {
		t.Fatal("zero period accepted")
	}
	if _, err := NewTicketKeys(NewDeterministicRand(1), time.Minute, -1); err == nil {
		t.Fatal("negative window accepted")
	}
}

// sealAt seals a ticket whose plaintext names the instant it was
// sealed at, for the epoch-table tests below.
func sealAt(t *testing.T, tk *TicketKeys, at time.Duration, rand *DeterministicRand) []byte {
	t.Helper()
	ticket, err := tk.Seal(at, []byte(at.String()), []byte("aad"), rand)
	if err != nil {
		t.Fatalf("Seal at %v: %v", at, err)
	}
	return ticket
}

// opens reports whether tk opens ticket at now, failing the test on a
// refusal other than ErrTicketEpoch or on a wrong plaintext.
func opens(t *testing.T, tk *TicketKeys, now time.Duration, ticket []byte, want string) bool {
	t.Helper()
	pt, err := tk.Open(now, ticket, []byte("aad"))
	if err != nil {
		if !errors.Is(err, ErrTicketEpoch) {
			t.Fatalf("Open at %v: %v", now, err)
		}
		return false
	}
	if string(pt) != want {
		t.Fatalf("Open at %v: plaintext %q, want %q", now, pt, want)
	}
	return true
}

func TestTicketTableRotation(t *testing.T) {
	tk := newTestTicketKeys(t, 5*time.Minute, 1)
	rand := NewDeterministicRand(7)
	old := sealAt(t, tk, 4*time.Minute, rand) // epoch 0
	first := tk.table.Load()
	if first == nil || first.newest != 0 || len(first.aeads) != 1 {
		t.Fatalf("table after epoch 0: %+v", first)
	}
	// Crossing into epoch 1 installs a new table that keeps epoch 0's
	// AEAD instead of deriving it again.
	cur := sealAt(t, tk, 5*time.Minute, rand)
	second := tk.table.Load()
	if second == first || second.newest != 1 || len(second.aeads) != 2 {
		t.Fatalf("table after epoch 1: %+v", second)
	}
	if second.aeads[1] != first.aeads[0] {
		t.Fatal("rotation re-derived epoch 0's AEAD")
	}
	if !opens(t, tk, 5*time.Minute, old, "4m0s") || !opens(t, tk, 5*time.Minute, cur, "5m0s") {
		t.Fatal("window-1 ticket refused right after rotation")
	}
	// Epoch 2: the epoch-0 ticket has left the window.
	if opens(t, tk, 10*time.Minute, old, "4m0s") {
		t.Fatal("epoch-0 ticket opened in epoch 2")
	}
	if !opens(t, tk, 10*time.Minute, cur, "5m0s") {
		t.Fatal("epoch-1 ticket refused in epoch 2")
	}
	if got := tk.table.Load(); got.newest != 2 || got.aeads[1] != second.aeads[0] {
		t.Fatalf("table after epoch 2: %+v", got)
	}
}

func TestTicketLaggingCallerKeepsTable(t *testing.T) {
	tk := newTestTicketKeys(t, 5*time.Minute, 1)
	rand := NewDeterministicRand(7)
	const n = 1                                 // epochs N-1, N, N+1 = 0, 1, 2
	older := sealAt(t, tk, 1*time.Minute, rand) // epoch N-1
	sealAt(t, tk, 11*time.Minute, rand)         // caches epoch N+1
	tab := tk.table.Load()
	if tab.newest != n+1 {
		t.Fatalf("table newest %d, want %d", tab.newest, n+1)
	}
	// A caller whose clock still reads epoch N opens the epoch N-1
	// ticket (inside its own window, outside the table's), and seals
	// and opens in epoch N, all without moving the table.
	lag := 6 * time.Minute
	if !opens(t, tk, lag, older, "1m0s") {
		t.Fatal("lagging caller refused an epoch N-1 ticket inside its window")
	}
	mid := sealAt(t, tk, lag, rand)
	if !opens(t, tk, lag, mid, "6m0s") {
		t.Fatal("lagging caller refused its own ticket")
	}
	if got := tk.table.Load(); got != tab {
		t.Fatal("a lagging caller replaced the epoch table")
	}
	// The caller at epoch N+1 still applies its own window.
	if opens(t, tk, 11*time.Minute, older, "1m0s") {
		t.Fatal("epoch N-1 ticket opened at epoch N+1 with window 1")
	}
}

func TestTicketFutureEpochRefused(t *testing.T) {
	tk := newTestTicketKeys(t, 5*time.Minute, 1)
	rand := NewDeterministicRand(7)
	// Same seed, same master: a genuine ticket from epoch 4.
	future := sealAt(t, newTestTicketKeys(t, 5*time.Minute, 1), 20*time.Minute, rand)
	sealAt(t, tk, 10*time.Minute, rand)
	tab := tk.table.Load()
	if _, err := tk.Open(10*time.Minute, future, []byte("aad")); !errors.Is(err, ErrTicketEpoch) {
		t.Fatalf("future ticket: got %v, want ErrTicketEpoch", err)
	}
	if got := tk.table.Load(); got != tab {
		t.Fatal("a future-dated ticket moved the epoch table")
	}
	if !opens(t, tk, 20*time.Minute, future, "20m0s") {
		t.Fatal("epoch-4 ticket refused in epoch 4")
	}
}

func TestTicketWindowLargerThanEpoch(t *testing.T) {
	tk := newTestTicketKeys(t, 5*time.Minute, 3)
	rand := NewDeterministicRand(7)
	zero := sealAt(t, tk, 0, rand)
	one := sealAt(t, tk, 5*time.Minute, rand)
	if tab := tk.table.Load(); tab.newest != 1 || len(tab.aeads) != 2 {
		t.Fatalf("table at epoch 1 with window 3: newest %d, %d AEADs; want 1, 2", tab.newest, len(tab.aeads))
	}
	if !opens(t, tk, 5*time.Minute, zero, "0s") {
		t.Fatal("epoch-0 ticket refused at epoch 1")
	}
	// Epoch 4: epochs 1..4 are in the window, epoch 0 is not.
	if !opens(t, tk, 20*time.Minute, one, "5m0s") {
		t.Fatal("epoch-1 ticket refused at epoch 4 with window 3")
	}
	if opens(t, tk, 20*time.Minute, zero, "0s") {
		t.Fatal("epoch-0 ticket opened at epoch 4 with window 3")
	}
	if tab := tk.table.Load(); tab.newest != 4 || len(tab.aeads) != 4 {
		t.Fatalf("table at epoch 4: newest %d, %d AEADs; want 4, 4", tab.newest, len(tab.aeads))
	}
}

// TestTicketSealOpenAllocBudget pins a warm Seal and Open at one
// allocation each, the output (the AAD with the epoch appended rides in
// its spare tail), so the cached epoch AEADs cannot quietly go back to
// being derived per call.
func TestTicketSealOpenAllocBudget(t *testing.T) {
	tk := newTestTicketKeys(t, 5*time.Minute, 1)
	rand := NewDeterministicRand(7)
	aad := []byte("trust-ticket-v1|bank.example")
	pt := make([]byte, 96)
	ticket, err := tk.Seal(time.Minute, pt, aad, rand)
	if err != nil {
		t.Fatal(err)
	}
	seal := testing.AllocsPerRun(100, func() {
		if _, err := tk.Seal(time.Minute, pt, aad, rand); err != nil {
			t.Fatal(err)
		}
	})
	open := testing.AllocsPerRun(100, func() {
		if _, err := tk.Open(time.Minute, ticket, aad); err != nil {
			t.Fatal(err)
		}
	})
	if seal > 1 || open > 1 {
		t.Fatalf("ticket Seal %.1f allocs, Open %.1f allocs; budget 1 each", seal, open)
	}
}
