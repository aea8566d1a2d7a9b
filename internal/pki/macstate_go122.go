//go:build !go1.24

package pki

import (
	"encoding"
	"hash"
)

// savedHash is a digest whose state can be saved and restored;
// crypto/sha256's digest is one.
type savedHash interface {
	hash.Hash
	encoding.BinaryMarshaler
	encoding.BinaryUnmarshaler
}

// saveState copies h's state into buf. Before Go 1.24 a digest can
// only marshal into a fresh slice, so keying costs one allocation per
// state more than it does from Go 1.24 on.
func saveState(h savedHash, buf *[macStateSize]byte) {
	state, _ := h.MarshalBinary() // a sha256 digest always marshals
	copy(buf[:], state)
}
