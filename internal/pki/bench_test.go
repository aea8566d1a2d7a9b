package pki

import (
	"crypto/ed25519"
	"testing"
	"time"
)

func BenchmarkSign(b *testing.B) {
	keys, _ := GenerateKeyPair(NewDeterministicRand(1))
	msg := make([]byte, 512)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ed25519.Sign(keys.Private, msg)
	}
}

func BenchmarkVerify(b *testing.B) {
	keys, _ := GenerateKeyPair(NewDeterministicRand(1))
	msg := make([]byte, 512)
	sig := ed25519.Sign(keys.Private, msg)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ed25519.Verify(keys.Public, msg, sig)
	}
}

func BenchmarkSealOpen(b *testing.B) {
	rand := NewDeterministicRand(2)
	key, _ := NewSessionKey(rand)
	msg := make([]byte, 512)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sealed, _ := Seal(key, msg, nil, rand)
		if _, err := Open(key, sealed, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkKemEncryptDecrypt(b *testing.B) {
	rand := NewDeterministicRand(3)
	pair, _ := GenerateKemPair(rand)
	key := make([]byte, 32)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		blob, _ := EncryptTo(pair.Public.Bytes(), key, rand)
		if _, err := DecryptWith(pair.Private, blob); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkIssueCertificate(b *testing.B) {
	ca, _ := NewCA("root", NewDeterministicRand(4))
	keys, _ := GenerateKeyPair(NewDeterministicRand(5))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ca.Issue("subject", RoleServer, keys.Public); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTicketSealOpen measures one ticket issue and redemption in
// a warm epoch: the epoch AEAD comes from the cached table.
func BenchmarkTicketSealOpen(b *testing.B) {
	rand := NewDeterministicRand(2)
	tk, _ := NewTicketKeys(rand, 5*time.Minute, 1)
	aad := []byte("trust-ticket-v1|bank.example")
	pt := make([]byte, 96)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ticket, err := tk.Seal(time.Minute, pt, aad, rand)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := tk.Open(time.Minute, ticket, aad); err != nil {
			b.Fatal(err)
		}
	}
}
