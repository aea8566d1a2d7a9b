package pki

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"slices"
	"testing"
	"time"
)

// Fuzz targets run their seed corpus as part of `go test`; use
// `go test -fuzz=FuzzX ./internal/pki` for open-ended fuzzing.

func FuzzOpenNeverPanics(f *testing.F) {
	rand := NewDeterministicRand(1)
	key, _ := NewSessionKey(rand)
	sealed, _ := Seal(key, []byte("seed plaintext"), []byte("aad"), rand)
	f.Add(sealed, []byte("aad"))
	f.Add([]byte{}, []byte{})
	f.Add([]byte{1, 2, 3}, []byte(nil))
	f.Add(bytes.Repeat([]byte{0xff}, 64), []byte("x"))
	f.Fuzz(func(t *testing.T, blob, aad []byte) {
		// Open must never panic on arbitrary input, and a successful
		// open of a mutated blob would be a forgery.
		pt, err := Open(key, blob, aad)
		if err == nil && !bytes.Equal(pt, []byte("seed plaintext")) {
			t.Fatalf("forged plaintext accepted: %q", pt)
		}
	})
}

func FuzzDecryptWithNeverPanics(f *testing.F) {
	rand := NewDeterministicRand(2)
	pair, _ := GenerateKemPair(rand)
	blob, _ := EncryptTo(pair.Public.Bytes(), []byte("secret"), rand)
	f.Add(blob)
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{7}, 31))
	f.Add(bytes.Repeat([]byte{7}, 33))
	f.Fuzz(func(t *testing.T, b []byte) {
		pt, err := DecryptWith(pair.Private, b)
		if err == nil && !bytes.Equal(pt, []byte("secret")) {
			t.Fatalf("forged KEM plaintext accepted: %q", pt)
		}
	})
}

func FuzzCertificateJSONVerify(f *testing.F) {
	ca, _ := NewCA("root", NewDeterministicRand(3))
	keys, _ := GenerateKeyPair(NewDeterministicRand(4))
	cert, _ := ca.Issue("subject", RoleServer, keys.Public)
	honest, _ := json.Marshal(cert)
	f.Add(honest)
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"Subject":"x"}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var c Certificate
		if err := json.Unmarshal(data, &c); err != nil {
			return
		}
		// Verification must never panic, and must only succeed for the
		// honest certificate bytes.
		err := c.Verify(ca.PublicKey(), RoleServer)
		if err == nil && c.Subject != "subject" {
			t.Fatalf("forged certificate for %q verified", c.Subject)
		}
	})
}

// FuzzTicketOpen feeds arbitrary tickets and associated data to
// TicketKeys.Open at an instant whose acceptance window spans two
// epochs. Open must never panic, and it may accept only a ticket Seal
// issued, byte for byte, under that ticket's own aad: a ticket with any
// byte flipped, truncated or extended is a forgery, and so is one whose
// clear epoch prefix is rewritten to another in-window epoch, which the
// body tries for every input. The seeds are real Seal outputs from both
// in-window epochs; the committed corpus (testdata/fuzz/FuzzTicketOpen)
// adds flipped, truncated and epoch-shifted copies of them.
func FuzzTicketOpen(f *testing.F) {
	tk, err := NewTicketKeys(NewDeterministicRand(41), 5*time.Minute, 1)
	if err != nil {
		f.Fatal(err)
	}
	rand := NewDeterministicRand(7)
	aad := []byte("trust-ticket-v1|bank.example")
	pt := []byte("account|key-material|nonce")
	now := 7 * time.Minute // epoch 1; epoch 0 is still in the window
	var issued [][]byte
	for _, at := range []time.Duration{time.Minute, 6 * time.Minute} {
		ticket, err := tk.Seal(at, pt, aad, rand)
		if err != nil {
			f.Fatal(err)
		}
		issued = append(issued, ticket)
		f.Add(ticket, aad)
	}
	f.Fuzz(func(t *testing.T, ticket, gotAAD []byte) {
		tries := [][]byte{ticket}
		if len(ticket) >= 8 {
			for e := tk.Epoch(now) - uint64(tk.Window()); e <= tk.Epoch(now); e++ {
				shifted := append([]byte(nil), ticket...)
				binary.BigEndian.PutUint64(shifted, e)
				tries = append(tries, shifted)
			}
		}
		for _, try := range tries {
			got, err := tk.Open(now, try, gotAAD)
			if err != nil {
				continue
			}
			honest := slices.ContainsFunc(issued, func(b []byte) bool { return bytes.Equal(b, try) })
			if !honest || !bytes.Equal(gotAAD, aad) || !bytes.Equal(got, pt) {
				t.Fatalf("Open accepted a ticket Seal never issued: %x (aad %q) -> %q", try, gotAAD, got)
			}
		}
	})
}
