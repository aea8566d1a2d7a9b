package pki

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"
)

// TestCertificateGolden pins the bytes a CA signs for a server
// certificate (with a KEM key) and a device certificate (without one),
// and the signatures a deterministic CA puts over them. Every issued
// certificate's signature covers SigningBytes, so a change that moves
// one of its bytes invalidates every certificate in the field.
func TestCertificateGolden(t *testing.T) {
	ca := newTestCA(t)
	serverKeys, err := GenerateKeyPair(NewDeterministicRand(2))
	if err != nil {
		t.Fatal(err)
	}
	kem, err := GenerateKemPair(NewDeterministicRand(3))
	if err != nil {
		t.Fatal(err)
	}
	deviceKeys, err := GenerateKeyPair(NewDeterministicRand(4))
	if err != nil {
		t.Fatal(err)
	}
	server, err := ca.IssueWithKem("www.xyz.com", RoleServer, serverKeys.Public, kem.Public.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	device, err := ca.Issue("flock-0001", RoleFLock, deviceKeys.Public)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name             string
		cert             *Certificate
		size             int
		signing, sigHash string
	}{
		{"server", server, 123, "605dd0696c0a3cb89c98bb33949aa01971eba75b7dd4db2835cc488fa8c65d65", "dcac1dc749647521a917fe54c739309827fa85c1bbb6bdab67fe0c703dadb292"},
		{"device", device, 92, "d89ec37b1111bd23b5c70d37036cb43ec8f0105475ad5508f04b564e49dcf8d2", "79a57cd6703ab7808c5c10571558d8eeacc8c55e3c1bc7c6300d1a656e30f542"},
	}
	for _, tc := range cases {
		sb := tc.cert.SigningBytes()
		sum, sig := sha256.Sum256(sb), sha256.Sum256(tc.cert.Signature)
		if len(sb) != tc.size || hex.EncodeToString(sum[:]) != tc.signing {
			t.Errorf("%s signing bytes moved: %d bytes, sha256 %x\n%x", tc.name, len(sb), sum, sb)
		}
		if hex.EncodeToString(sig[:]) != tc.sigHash {
			t.Errorf("%s signature moved: sha256 %x", tc.name, sig)
		}
		if err := tc.cert.Verify(ca.PublicKey(), tc.cert.Role); err != nil {
			t.Errorf("%s: %v", tc.name, err)
		}
	}
}
