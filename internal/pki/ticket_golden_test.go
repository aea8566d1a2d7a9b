package pki

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"testing"
	"time"
)

// TestTicketGolden pins ticket bytes and the acceptance window against
// fixed seeds. TestTicketKeysDeterministic only compares the current
// code with itself; these digests catch any change to the sealed bytes
// (epoch prefix, key derivation, nonce draw order, AAD layout), and the
// acceptance table catches any change to which epochs Open honours.
func TestTicketGolden(t *testing.T) {
	tk, err := NewTicketKeys(NewDeterministicRand(41), 5*time.Minute, 1)
	if err != nil {
		t.Fatal(err)
	}
	rand := NewDeterministicRand(9)
	aad := []byte("trust-ticket-v1|bank.example")
	instants := []time.Duration{1 * time.Minute, 6 * time.Minute, 11 * time.Minute}
	wantSum := []string{
		"cb9e3e3a828028ac5b393dae29dc66c1e10043468842a2ae0bbc650ccc0707ee",
		"8b46b840e0e2187ff098a4c192518594ec4ac61238f21bf2285e6c5e87118cdc",
		"6cb1e27e84b73cfc243bd0b43367b1f758b5fbecde7e15d3a5c0a764c9764796",
	}
	// accepts[i][j]: does Open at instants[i] accept the ticket sealed
	// at instants[j]? Window 1 honours the current and previous epoch.
	accepts := [][]bool{
		{true, false, false},
		{true, true, false},
		{false, true, true},
	}
	tickets := make([][]byte, len(instants))
	for i, at := range instants {
		pt := []byte("state-" + at.String())
		ticket, err := tk.Seal(at, pt, aad, rand)
		if err != nil {
			t.Fatalf("Seal at %v: %v", at, err)
		}
		sum := sha256.Sum256(ticket)
		if got := hex.EncodeToString(sum[:]); got != wantSum[i] {
			t.Errorf("ticket sealed at %v: sha256 %s, want %s", at, got, wantSum[i])
		}
		tickets[i] = ticket
	}
	for i, now := range instants {
		for j, ticket := range tickets {
			pt, err := tk.Open(now, ticket, aad)
			if got := err == nil; got != accepts[i][j] {
				t.Errorf("Open at %v of ticket sealed at %v: accepted %v (err %v), want %v", now, instants[j], got, err, accepts[i][j])
			}
			if err != nil && !errors.Is(err, ErrTicketEpoch) {
				t.Errorf("Open at %v of ticket sealed at %v: got %v, want ErrTicketEpoch", now, instants[j], err)
			}
			if err == nil && string(pt) != "state-"+instants[j].String() {
				t.Errorf("Open at %v of ticket sealed at %v: plaintext %q", now, instants[j], pt)
			}
		}
	}
}
