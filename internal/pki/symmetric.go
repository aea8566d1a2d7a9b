package pki

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/hmac"
	"crypto/sha256"
	"errors"
	"fmt"
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

// macStateSize is the length of a marshaled crypto/sha256 digest: a
// 4-byte magic, the eight 32-bit chaining words, one block of pending
// input and the 64-bit message length.
const macStateSize = 4 + 8*4 + sha256.BlockSize + 8

// MACer is a reusable HMAC-SHA256 instance bound to one key. It keys
// itself once, the way crypto/hmac does with precomputed pads: at
// construction it hashes the key's inner and outer pad blocks and
// saves the two SHA-256 states that result in arrays inside the MACer.
// Each tag restores the inner state, hashes the message, restores the
// outer state and hashes the inner digest, so one digest serves both
// passes. A key costs two allocations (the MACer and its digest) when
// built with Go 1.24 or later; a tag costs none beyond growing the
// caller's dst. Not safe for concurrent use — each owner serializes
// access (the webserver under its session mutex, the device client by
// goroutine ownership).
type MACer struct {
	h          savedHash
	innerState [macStateSize]byte
	outerState [macStateSize]byte
	sum        [sha256.Size]byte
}

// NewMACer builds a reusable HMAC-SHA256 instance for key. A key longer
// than a block is hashed first, as RFC 2104 specifies.
func NewMACer(key []byte) *MACer {
	m := &MACer{h: sha256.New().(savedHash)}
	if len(key) > sha256.BlockSize {
		sum := sha256.Sum256(key)
		key = sum[:]
	}
	m.keyState(&m.innerState, key, 0x36)
	m.keyState(&m.outerState, key, 0x5c)
	return m
}

// keyState hashes one pad block, key XOR pad, and saves the digest's
// state in buf. The block is laid out in buf itself: Write has consumed
// it by the time saveState overwrites it.
func (m *MACer) keyState(buf *[macStateSize]byte, key []byte, pad byte) {
	block := buf[:sha256.BlockSize]
	for i := range block {
		block[i] = pad
	}
	for i, b := range key {
		block[i] ^= b
	}
	m.h.Reset()
	m.h.Write(block)
	saveState(m.h, buf)
}

// MAC computes the tag over data. The returned slice is freshly
// allocated and owned by the caller.
func (m *MACer) MAC(data []byte) []byte { return m.AppendMAC(nil, data) }

// AppendMAC appends the tag over data to dst and returns the extended
// slice: a caller that keeps its tag buffer pays no allocation.
func (m *MACer) AppendMAC(dst, data []byte) []byte {
	// The saved states came from this digest's own AppendBinary, so
	// restoring them cannot fail.
	m.h.UnmarshalBinary(m.innerState[:])
	m.h.Write(data)
	inner := m.h.Sum(m.sum[:0])
	m.h.UnmarshalBinary(m.outerState[:])
	m.h.Write(inner)
	return m.h.Sum(dst)
}

// Check verifies a tag in constant time without allocating.
func (m *MACer) Check(data, tag []byte) bool {
	return hmac.Equal(m.AppendMAC(m.sum[:0], data), tag)
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
