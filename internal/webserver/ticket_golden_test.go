package webserver

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"strings"
	"testing"
	"time"

	"trust/internal/pki"
)

// TestTicketStateGolden pins the ticket plaintext the server seals for
// a fixed account binding and session key, and the sealed ticket a
// seeded server issues for it. A ticket outlives the process that
// minted it only within its epoch window, but a change to the sealed
// layout strands every ticket in flight during an upgrade, so it must
// show up here first. The second case holds the longest account id
// the layout states.
func TestTicketStateGolden(t *testing.T) {
	ca, err := pki.NewCA("trust-root", pki.NewDeterministicRand(1))
	if err != nil {
		t.Fatal(err)
	}
	key := bytes.Repeat([]byte{0xab}, pki.SessionKeySize)
	cases := []struct {
		account           string
		ptSize            int
		plaintext, sealed string // sha256 of each
	}{
		{"alice", 81, "1c7601d80069e80dc8da9270f40eb225a945e1684cf26e3ab87ecd09b2d22164", "fb85fe68acbddfa213ba4d3d87a0240841bab749367f488a693bb0e09a2e348f"},
		{strings.Repeat("a", 1<<16-1), 65611, "d1f1549867cac43aa81ee73d42c832d0801ddc46277159bfb085a96d1f2d32d2", "a6ee74e2ae455f09ad1503333fa5a784ba57d1af17caf58c7423d5afd0bde2cd"},
	}
	for _, tc := range cases {
		s, err := New("www.xyz.com", ca, 7)
		if err != nil {
			t.Fatal(err)
		}
		now := 90 * time.Second
		ticket := s.issueTicket(now, &Account{ID: tc.account, Gen: 3}, key)
		if ticket == nil {
			t.Fatalf("%d-byte account: no ticket issued", len(tc.account))
		}
		pt, err := s.tickets.Open(now, ticket, s.ticketAAD)
		if err != nil {
			t.Fatal(err)
		}
		ptSum, tSum := sha256.Sum256(pt), sha256.Sum256(ticket)
		if len(pt) != tc.ptSize || hex.EncodeToString(ptSum[:]) != tc.plaintext {
			t.Errorf("%d-byte account: plaintext moved: %d bytes, sha256 %x\n%x", len(tc.account), len(pt), ptSum, pt[max(0, len(pt)-80):])
		}
		if hex.EncodeToString(tSum[:]) != tc.sealed {
			t.Errorf("%d-byte account: sealed ticket moved: sha256 %x", len(tc.account), tSum)
		}
		st, err := s.openTicket(now, ticket)
		if err != nil || st.account != tc.account || st.gen != 3 || !bytes.Equal(st.key, key) || len(st.nonce) != 32 {
			t.Errorf("%d-byte account: opens to %d-byte account, gen %d, nonce %q (%v)", len(tc.account), len(st.account), st.gen, st.nonce, err)
		}
	}
}
