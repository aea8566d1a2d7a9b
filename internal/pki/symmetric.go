package pki

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/hmac"
	"crypto/sha256"
	"errors"
	"fmt"
	"hash"
	"io"
)

// SessionKeySize is the AES-256 session key length.
const SessionKeySize = 32

// NewSessionKey draws a fresh session key from rand.
func NewSessionKey(rand io.Reader) ([]byte, error) {
	key := make([]byte, SessionKeySize)
	if _, err := io.ReadFull(rand, key); err != nil {
		return nil, fmt.Errorf("pki: drawing session key: %w", err)
	}
	return key, nil
}

// MAC computes an HMAC-SHA256 tag over data.
func MAC(key, data []byte) []byte {
	h := hmac.New(sha256.New, key)
	h.Write(data)
	return h.Sum(nil)
}

// MACer is a reusable HMAC-SHA256 instance bound to one key. MAC
// re-runs the HMAC key schedule (two SHA-256 block passes and
// several allocations) on every call; a MACer pays it once at
// construction and resets the keyed state thereafter, which matters on
// paths that MAC per request under one long-lived session key. Not
// safe for concurrent use — each owner serializes access (the
// webserver under its session mutex, the device client by goroutine
// ownership).
type MACer struct {
	h   hash.Hash
	sum [sha256.Size]byte
}

// NewMACer builds a reusable HMAC-SHA256 instance for key.
func NewMACer(key []byte) *MACer {
	return &MACer{h: hmac.New(sha256.New, key)}
}

// MAC computes the tag over data. The returned slice is freshly
// allocated and owned by the caller.
func (m *MACer) MAC(data []byte) []byte { return m.AppendMAC(nil, data) }

// AppendMAC appends the tag over data to dst and returns the extended
// slice: a caller that keeps its tag buffer pays no allocation.
func (m *MACer) AppendMAC(dst, data []byte) []byte {
	m.h.Reset()
	m.h.Write(data)
	return m.h.Sum(dst)
}

// Check verifies a tag in constant time without allocating.
func (m *MACer) Check(data, tag []byte) bool {
	m.h.Reset()
	m.h.Write(data)
	return hmac.Equal(m.h.Sum(m.sum[:0]), tag)
}

// ErrDecrypt is returned when an AEAD open fails (tampered or
// mis-keyed ciphertext).
var ErrDecrypt = errors.New("pki: decryption failed")

// Seal encrypts plaintext with AES-256-GCM under key, binding aad. The
// nonce is drawn from rand and prepended to the ciphertext.
func Seal(key, plaintext, aad []byte, rand io.Reader) ([]byte, error) {
	aead, err := newGCM(key)
	if err != nil {
		return nil, err
	}
	nonce := make([]byte, aead.NonceSize())
	if _, err := io.ReadFull(rand, nonce); err != nil {
		return nil, fmt.Errorf("pki: drawing nonce: %w", err)
	}
	return aead.Seal(nonce, nonce, plaintext, aad), nil
}

// Open decrypts a Seal output, verifying aad.
func Open(key, sealed, aad []byte) ([]byte, error) {
	aead, err := newGCM(key)
	if err != nil {
		return nil, err
	}
	if len(sealed) < aead.NonceSize() {
		return nil, ErrDecrypt
	}
	nonce, ct := sealed[:aead.NonceSize()], sealed[aead.NonceSize():]
	pt, err := aead.Open(nil, nonce, ct, aad)
	if err != nil {
		return nil, ErrDecrypt
	}
	return pt, nil
}

func newGCM(key []byte) (cipher.AEAD, error) {
	if len(key) != SessionKeySize {
		return nil, fmt.Errorf("pki: session key must be %d bytes, got %d", SessionKeySize, len(key))
	}
	block, err := aes.NewCipher(key)
	if err != nil {
		return nil, fmt.Errorf("pki: cipher init: %w", err)
	}
	aead, err := cipher.NewGCM(block)
	if err != nil {
		return nil, fmt.Errorf("pki: GCM init: %w", err)
	}
	return aead, nil
}
