// Package chunk is the one framing of every durable byte stream in the
// repo — the store's WAL and snapshot records and the FTDC telemetry
// chunks — and its one recovery rule (Scan):
//
//	frame := length(u32 LE) || crc32-IEEE(payload)(u32 LE) || payload
//
// length lies in [1, MaxPayload], so a zero-filled tail, which a crash
// can leave behind on some file systems, never reads as a frame.
package chunk

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
)

const (
	// HeaderSize is the length || crc prefix of every frame.
	HeaderSize = 8
	// MaxPayload bounds a payload, so a corrupt length field cannot
	// demand gigabytes from a reader.
	MaxPayload = 1 << 20
)

// Begin appends a zeroed header to dst and returns the extended slice
// and the header's offset, for End once the caller has appended the
// payload after it.
func Begin(dst []byte) ([]byte, int) {
	return append(dst, 0, 0, 0, 0, 0, 0, 0, 0), len(dst)
}

// End fills in the header at buf[at:] for the payload that runs from
// it to the end of buf, which must hold 1 to MaxPayload bytes.
func End(buf []byte, at int) {
	payload := buf[at+HeaderSize:]
	if len(payload) == 0 || len(payload) > MaxPayload {
		panic(fmt.Sprintf("chunk: %d-byte payload is empty or over MaxPayload", len(payload)))
	}
	// The check above bounds the length at MaxPayload (1 MiB).
	binary.LittleEndian.PutUint32(buf[at:], uint32(len(payload))) //trustlint:allow wirewidth
	binary.LittleEndian.PutUint32(buf[at+4:], crc32.ChecksumIEEE(payload))
}

// Next reads the frame at the start of data, returning its payload
// (aliasing data) and the bytes after it. ok is false unless data
// starts with a complete, CRC-valid frame.
func Next(data []byte) (payload, rest []byte, ok bool) {
	if len(data) < HeaderSize {
		return nil, nil, false
	}
	n := binary.LittleEndian.Uint32(data)
	if n == 0 || n > MaxPayload || uint64(n) > uint64(len(data)-HeaderSize) {
		return nil, nil, false
	}
	payload = data[HeaderSize : HeaderSize+n]
	if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(data[4:]) {
		return nil, nil, false
	}
	return payload, data[HeaderSize+n:], true
}

// Scan hands the payload of each frame in data, in order, to decode
// and returns the length of the longest clean prefix; the bytes after
// it are a torn tail. A frame that fails framing (short, over the cap,
// or a CRC mismatch) is a torn tail unless a CRC-valid frame starts at
// any later offset, and a CRC-valid frame that decode refuses cannot
// come from a torn write: either of those is corruption, returned as
// an error that wraps decode's.
func Scan(data []byte, decode func(payload []byte) error) (int, error) {
	for off := 0; off < len(data); {
		payload, rest, ok := Next(data[off:])
		if !ok {
			for later := off + 1; later+HeaderSize < len(data); later++ {
				if _, _, ok := Next(data[later:]); ok {
					return off, fmt.Errorf("bad frame at offset %d with a valid frame at %d", off, later)
				}
			}
			return off, nil
		}
		if err := decode(payload); err != nil {
			return off, fmt.Errorf("frame at offset %d: %w", off, err)
		}
		off = len(data) - len(rest)
	}
	return len(data), nil
}
