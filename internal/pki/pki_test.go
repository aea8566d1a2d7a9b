package pki

import (
	"bytes"
	"crypto/ed25519"
	"crypto/hmac"
	"testing"
	"testing/quick"
)

// RoleCA names the certificate authority's own role, which it never
// certifies: tests use it as a role no issued certificate carries.
const RoleCA Role = "ca"

// Issue signs a certificate binding subject/role to pub (no KEM key).
func (ca *CA) Issue(subject string, role Role, pub ed25519.PublicKey) (*Certificate, error) {
	return ca.IssueWithKem(subject, role, pub, nil)
}

func newTestCA(t *testing.T) *CA {
	t.Helper()
	ca, err := NewCA("trust-root", NewDeterministicRand(1))
	if err != nil {
		t.Fatal(err)
	}
	return ca
}

func TestIssueAndVerify(t *testing.T) {
	ca := newTestCA(t)
	keys, err := GenerateKeyPair(NewDeterministicRand(2))
	if err != nil {
		t.Fatal(err)
	}
	cert, err := ca.Issue("www.xyz.com", RoleServer, keys.Public)
	if err != nil {
		t.Fatal(err)
	}
	if err := cert.Verify(ca.PublicKey(), RoleServer); err != nil {
		t.Fatalf("valid certificate rejected: %v", err)
	}
	if !bytes.Equal(cert.Key(), keys.Public) {
		t.Fatal("certificate key mismatch")
	}
}

func TestVerifyRejectsWrongRole(t *testing.T) {
	ca := newTestCA(t)
	keys, _ := GenerateKeyPair(NewDeterministicRand(3))
	cert, _ := ca.Issue("device-1", RoleFLock, keys.Public)
	if err := cert.Verify(ca.PublicKey(), RoleServer); err == nil {
		t.Fatal("flock cert accepted as server cert")
	}
	if err := cert.Verify(ca.PublicKey(), ""); err != nil {
		t.Fatalf("role-agnostic verify failed: %v", err)
	}
}

func TestVerifyRejectsTamperedFields(t *testing.T) {
	ca := newTestCA(t)
	keys, _ := GenerateKeyPair(NewDeterministicRand(4))
	cert, _ := ca.Issue("www.xyz.com", RoleServer, keys.Public)

	mutations := map[string]func(*Certificate){
		"subject": func(c *Certificate) { c.Subject = "www.evil.com" },
		"role":    func(c *Certificate) { c.Role = RoleCA },
		"serial":  func(c *Certificate) { c.Serial++ },
		"issuer":  func(c *Certificate) { c.Issuer = "rogue" },
		"key":     func(c *Certificate) { c.PublicKey[0] ^= 1 },
		"sig":     func(c *Certificate) { c.Signature[0] ^= 1 },
	}
	for name, mutate := range mutations {
		m := cert.Clone()
		mutate(m)
		if err := m.Verify(ca.PublicKey(), RoleServer); err == nil {
			t.Errorf("tampered %s accepted", name)
		}
	}
}

func TestVerifyRejectsWrongCA(t *testing.T) {
	ca := newTestCA(t)
	rogue, err := NewCA("rogue-root", NewDeterministicRand(5))
	if err != nil {
		t.Fatal(err)
	}
	keys, _ := GenerateKeyPair(NewDeterministicRand(6))
	cert, _ := rogue.Issue("www.xyz.com", RoleServer, keys.Public)
	if err := cert.Verify(ca.PublicKey(), RoleServer); err == nil {
		t.Fatal("rogue-CA certificate accepted")
	}
}

func TestIssueValidation(t *testing.T) {
	ca := newTestCA(t)
	if _, err := ca.Issue("", RoleServer, make([]byte, 32)); err == nil {
		t.Error("empty subject accepted")
	}
	if _, err := ca.Issue("x", RoleServer, make([]byte, 7)); err == nil {
		t.Error("short key accepted")
	}
}

func TestSerialsIncrease(t *testing.T) {
	ca := newTestCA(t)
	keys, _ := GenerateKeyPair(NewDeterministicRand(7))
	a, _ := ca.Issue("a", RoleServer, keys.Public)
	b, _ := ca.Issue("b", RoleServer, keys.Public)
	if b.Serial <= a.Serial {
		t.Fatalf("serials not increasing: %d then %d", a.Serial, b.Serial)
	}
}

func TestNilCertificateRejected(t *testing.T) {
	ca := newTestCA(t)
	var c *Certificate
	if err := c.Verify(ca.PublicKey(), RoleServer); err == nil {
		t.Fatal("nil certificate accepted")
	}
}

func TestDeterministicRandReproducible(t *testing.T) {
	a := NewDeterministicRand(9)
	b := NewDeterministicRand(9)
	ba := make([]byte, 100)
	bb := make([]byte, 100)
	a.Read(ba)
	b.Read(bb)
	if !bytes.Equal(ba, bb) {
		t.Fatal("same-seed rand streams differ")
	}
	// Odd lengths must work too.
	c := make([]byte, 13)
	if n, err := a.Read(c); n != 13 || err != nil {
		t.Fatalf("Read(13) = %d, %v", n, err)
	}
}

func TestMACRoundTrip(t *testing.T) {
	key := []byte("0123456789abcdef0123456789abcdef")
	data := []byte("domain=www.xyz.com&nonce=42")
	tag := NewMACer(key).MAC(data)
	if !hmac.Equal(NewMACer(key).MAC(data), tag) {
		t.Fatal("valid MAC rejected")
	}
	if hmac.Equal(NewMACer(key).MAC(append(data, 'x')), tag) {
		t.Fatal("tampered data accepted")
	}
	if hmac.Equal(NewMACer([]byte("00000000000000000000000000000000")).MAC(data), tag) {
		t.Fatal("wrong key accepted")
	}
}

func TestSealOpenRoundTrip(t *testing.T) {
	rand := NewDeterministicRand(10)
	key, err := NewSessionKey(rand)
	if err != nil {
		t.Fatal(err)
	}
	if err := quick.Check(func(pt, aad []byte) bool {
		sealed, err := Seal(key, pt, aad, rand)
		if err != nil {
			return false
		}
		out, err := Open(key, sealed, aad)
		if err != nil {
			return false
		}
		return bytes.Equal(out, pt)
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestOpenRejectsTampering(t *testing.T) {
	rand := NewDeterministicRand(11)
	key, _ := NewSessionKey(rand)
	sealed, err := Seal(key, []byte("session payload"), []byte("aad"), rand)
	if err != nil {
		t.Fatal(err)
	}
	flipped := append([]byte(nil), sealed...)
	flipped[len(flipped)-1] ^= 1
	if _, err := Open(key, flipped, []byte("aad")); err == nil {
		t.Fatal("tampered ciphertext accepted")
	}
	if _, err := Open(key, sealed, []byte("other-aad")); err == nil {
		t.Fatal("wrong AAD accepted")
	}
	otherKey, _ := NewSessionKey(rand)
	if _, err := Open(otherKey, sealed, []byte("aad")); err == nil {
		t.Fatal("wrong key accepted")
	}
	if _, err := Open(key, sealed[:4], []byte("aad")); err == nil {
		t.Fatal("truncated ciphertext accepted")
	}
}

func TestSealRejectsBadKeyLength(t *testing.T) {
	rand := NewDeterministicRand(12)
	if _, err := Seal([]byte("short"), []byte("x"), nil, rand); err == nil {
		t.Fatal("short key accepted")
	}
	if _, err := Open([]byte("short"), []byte("xxxxxxxxxxxxxxxxxxxxxxxxxxxx"), nil); err == nil {
		t.Fatal("short key accepted by Open")
	}
}

func TestSessionKeysDiffer(t *testing.T) {
	rand := NewDeterministicRand(13)
	a, _ := NewSessionKey(rand)
	b, _ := NewSessionKey(rand)
	if bytes.Equal(a, b) {
		t.Fatal("consecutive session keys identical")
	}
}
