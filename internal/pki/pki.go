// Package pki provides the certificate authority infrastructure of the
// paper's remote scenario (Fig 8): a CA that signs public-key
// certificates for web servers and FLock modules, plus the symmetric
// primitives (HMAC message authentication, AES-GCM session encryption)
// the TRUST protocols use. Everything is built on the Go standard
// library's crypto; no external dependencies.
package pki

import (
	"crypto/ed25519"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"trust/internal/sim"
	"trust/internal/wire"
)

// Role restricts what a certificate's subject may do.
type Role string

// Certificate roles in the TRUST deployment.
const (
	RoleCA     Role = "ca"
	RoleServer Role = "web-server"
	RoleFLock  Role = "flock-module"
)

// KeyPair is an ed25519 key pair.
type KeyPair struct {
	Public  ed25519.PublicKey
	Private ed25519.PrivateKey
}

// GenerateKeyPair creates a key pair from the given entropy source.
func GenerateKeyPair(rand io.Reader) (KeyPair, error) {
	pub, priv, err := ed25519.GenerateKey(rand)
	if err != nil {
		return KeyPair{}, fmt.Errorf("pki: generating key pair: %w", err)
	}
	return KeyPair{Public: pub, Private: priv}, nil
}

// Certificate binds a subject name and role to a public key under a CA
// signature.
type Certificate struct {
	Subject   string
	Role      Role
	PublicKey []byte // ed25519 signature-verification key
	KemKey    []byte // X25519 key-agreement key (may be empty)
	Issuer    string
	Serial    uint64
	Signature []byte // CA signature over SigningBytes
}

// SignedFields walks the certificate's field list, every field but
// Signature, in the order the CA signs them (internal/wire, big-endian
// with 4-byte lengths). SigningBytes encodes it, and the protocol codec
// walks it to carry a certificate inside a message.
func (c *Certificate) SignedFields(w *wire.Codec) {
	w.Str(&c.Subject)
	w.Str((*string)(&c.Role))
	w.Bytes(&c.PublicKey)
	w.Bytes(&c.KemKey)
	w.Str(&c.Issuer)
	w.U64(&c.Serial)
}

// SigningBytes is the canonical byte encoding the signature covers,
// or nil for a certificate with a field its length cannot state; the
// CA refuses to issue such a certificate, so nil never verifies.
func (c *Certificate) SigningBytes() []byte {
	// Room for two 32-byte keys, a role and the fixed-size fields, so
	// the encoding allocates once.
	w := wire.NewEncoder(wire.BigEndian32, make([]byte, 0, 128+len(c.Subject)+len(c.Issuer)))
	if c.SignedFields(&w); w.Err() != nil {
		return nil
	}
	return w.Data()
}

// Errors returned by certificate verification.
var (
	ErrBadSignature = errors.New("pki: certificate signature invalid")
	ErrBadRole      = errors.New("pki: certificate role mismatch")
	ErrMalformed    = errors.New("pki: certificate malformed")
)

// Verify checks the certificate's CA signature and, when wantRole is
// non-empty, the role binding.
func (c *Certificate) Verify(caPub ed25519.PublicKey, wantRole Role) error {
	if c == nil || len(c.PublicKey) != ed25519.PublicKeySize || len(c.Signature) != ed25519.SignatureSize {
		return ErrMalformed
	}
	if !ed25519.Verify(caPub, c.SigningBytes(), c.Signature) {
		return ErrBadSignature
	}
	if wantRole != "" && c.Role != wantRole {
		return fmt.Errorf("%w: have %q, want %q", ErrBadRole, c.Role, wantRole)
	}
	return nil
}

// Key returns the certificate's embedded public key.
func (c *Certificate) Key() ed25519.PublicKey { return ed25519.PublicKey(c.PublicKey) }

// Clone returns a deep copy (protocol code mutates copies when
// modelling tampering).
func (c *Certificate) Clone() *Certificate {
	out := *c
	out.PublicKey = append([]byte(nil), c.PublicKey...)
	out.KemKey = append([]byte(nil), c.KemKey...)
	out.Signature = append([]byte(nil), c.Signature...)
	return &out
}

// CA is a certificate authority.
type CA struct {
	name   string
	keys   KeyPair
	serial uint64
}

// NewCA creates a CA with a fresh key pair.
func NewCA(name string, rand io.Reader) (*CA, error) {
	keys, err := GenerateKeyPair(rand)
	if err != nil {
		return nil, err
	}
	return &CA{name: name, keys: keys}, nil
}

// Name returns the CA's name.
func (ca *CA) Name() string { return ca.name }

// PublicKey returns the CA's verification key — the root of trust every
// FLock module ships with.
func (ca *CA) PublicKey() ed25519.PublicKey { return ca.keys.Public }

// Issue signs a certificate binding subject/role to pub (no KEM key).
func (ca *CA) Issue(subject string, role Role, pub ed25519.PublicKey) (*Certificate, error) {
	return ca.IssueWithKem(subject, role, pub, nil)
}

// IssueWithKem signs a certificate binding subject/role to a signing
// key and an X25519 key-agreement key.
func (ca *CA) IssueWithKem(subject string, role Role, pub ed25519.PublicKey, kem []byte) (*Certificate, error) {
	if len(pub) != ed25519.PublicKeySize {
		return nil, fmt.Errorf("pki: issuing for malformed key of %d bytes", len(pub))
	}
	if len(kem) != 0 && len(kem) != 32 {
		return nil, fmt.Errorf("pki: issuing for malformed KEM key of %d bytes", len(kem))
	}
	if subject == "" {
		return nil, errors.New("pki: issuing for empty subject")
	}
	ca.serial++
	cert := &Certificate{
		Subject:   subject,
		Role:      role,
		PublicKey: append([]byte(nil), pub...),
		KemKey:    append([]byte(nil), kem...),
		Issuer:    ca.name,
		Serial:    ca.serial,
	}
	sb := cert.SigningBytes()
	if sb == nil {
		return nil, errors.New("pki: issuing a certificate field past its length")
	}
	cert.Signature = ed25519.Sign(ca.keys.Private, sb)
	return cert, nil
}

// DeterministicRand adapts a sim.RNG into an io.Reader so key
// generation is reproducible from the run seed.
type DeterministicRand struct{ rng *sim.RNG }

// NewDeterministicRand returns a reproducible entropy source.
func NewDeterministicRand(seed uint64) *DeterministicRand {
	return &DeterministicRand{rng: sim.NewRNG(seed ^ 0xced5ead)}
}

// Read fills p with pseudo-random bytes. It never fails.
func (d *DeterministicRand) Read(p []byte) (int, error) {
	i := 0
	for i+8 <= len(p) {
		binary.LittleEndian.PutUint64(p[i:], d.rng.Uint64())
		i += 8
	}
	if i < len(p) {
		var tail [8]byte
		binary.LittleEndian.PutUint64(tail[:], d.rng.Uint64())
		copy(p[i:], tail[:len(p)-i])
	}
	return len(p), nil
}
