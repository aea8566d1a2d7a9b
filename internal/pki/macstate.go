//go:build go1.24

package pki

import (
	"encoding"
	"hash"
)

// savedHash is a digest whose state can be saved in place and
// restored; crypto/sha256's digest is one.
type savedHash interface {
	hash.Hash
	encoding.BinaryAppender
	encoding.BinaryUnmarshaler
}

// saveState writes h's state into buf without allocating. A sha256
// digest always marshals, and its state fills buf exactly.
func saveState(h savedHash, buf *[macStateSize]byte) {
	h.AppendBinary(buf[:0])
}
