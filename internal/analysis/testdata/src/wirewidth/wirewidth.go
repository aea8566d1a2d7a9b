// Package wirefix exercises the wirewidth rule: a 2- or 4-byte
// encoding/binary write, or an appended byte, must not narrow a wider
// or signed integer outside the codec package.
package wirefix

import (
	"encoding/binary"
	"hash/crc32"
)

// Kind is a one-byte record kind.
type Kind uint8

// AppendName writes a length its prefix may not state.
func AppendName(dst []byte, name string) []byte {
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(name))) // want "uint16\\(\\.\\.\\.\\) narrows int to a 2-byte wire field"
	return append(dst, name...)
}

// PutCount narrows a uint64 count into a 4-byte field.
func PutCount(b []byte, count uint64) {
	binary.LittleEndian.PutUint32(b, uint32(count)) // want "uint32\\(\\.\\.\\.\\) narrows uint64 to a 4-byte wire field"
}

// PutDelta sign-converts a narrower signed value.
func PutDelta(b []byte, delta int16) {
	binary.BigEndian.PutUint32(b, (uint32(delta))) // want "uint32\\(\\.\\.\\.\\) narrows int16 to a 4-byte wire field"
}

// AppendLow appends the low byte of a wider value.
func AppendLow(dst []byte, v uint16, k Kind) []byte {
	return append(dst, byte(v), byte(k)) // want "byte\\(\\.\\.\\.\\) narrows uint16 to a 1-byte wire field"
}

// Exact shows what the rule leaves alone: widening and same-width
// conversions, unconverted values, constants, 8-byte writes, and a
// narrowing the author bounded and said so.
func Exact(dst []byte, v uint16, k Kind, n int) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(v))
	dst = binary.BigEndian.AppendUint32(dst, crc32.ChecksumIEEE(dst))
	dst = binary.BigEndian.AppendUint16(dst, uint16(1<<15))
	dst = binary.BigEndian.AppendUint64(dst, uint64(n))
	dst = append(dst, byte(k), 'x')
	// n is a framebuffer width, at most 4096.
	dst = binary.BigEndian.AppendUint16(dst, uint16(n)) //trustlint:allow wirewidth
	return dst
}
