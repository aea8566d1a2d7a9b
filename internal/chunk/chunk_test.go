package chunk

import (
	"bytes"
	"errors"
	"hash/crc32"
	"testing"
)

// frame encodes payload as one frame through the append side.
func frame(dst, payload []byte) []byte {
	dst, at := Begin(dst)
	dst = append(dst, payload...)
	End(dst, at)
	return dst
}

// undecodable is the decoder the tests hand Scan: it refuses payloads
// that start with 0xFF, standing in for a checksum-valid record its
// caller cannot parse.
func undecodable(p []byte) bool { return p[0] == 0xFF }

var errUndecodable = errors.New("undecodable payload")

// scanAll runs Scan with the undecodable rule, collecting every payload
// handed to the decoder.
func scanAll(data []byte) (prefix int, seen [][]byte, err error) {
	prefix, err = Scan(data, func(p []byte) error {
		seen = append(seen, p)
		if undecodable(p) {
			return errUndecodable
		}
		return nil
	})
	return prefix, seen, err
}

// refFrameEnd is the reference framing check, written from the format
// definition byte by byte: it returns the end offset of a complete,
// CRC-valid frame with a 1..MaxPayload payload starting at off.
func refFrameEnd(data []byte, off int) (int, bool) {
	if len(data)-off < 8 {
		return 0, false
	}
	h := data[off:]
	n := int(h[0]) | int(h[1])<<8 | int(h[2])<<16 | int(h[3])<<24
	crc := uint32(h[4]) | uint32(h[5])<<8 | uint32(h[6])<<16 | uint32(h[7])<<24
	if n < 1 || n > MaxPayload || off+8+n > len(data) {
		return 0, false
	}
	if crc32.ChecksumIEEE(data[off+8:off+8+n]) != crc {
		return 0, false
	}
	return off + 8 + n, true
}

// refScan applies the recovery rule the slow way: it marks every offset
// that starts a valid frame, follows the chain of frames from offset 0,
// and calls the data corrupt when the chain reaches an undecodable
// payload or when any offset past the chain's end starts a valid frame.
func refScan(data []byte) (prefix int, seen [][]byte, corrupt bool) {
	valid := make([]bool, len(data))
	for off := range data {
		_, valid[off] = refFrameEnd(data, off)
	}
	off := 0
	for off < len(data) && valid[off] {
		end, _ := refFrameEnd(data, off)
		p := data[off+8 : end]
		seen = append(seen, p)
		if undecodable(p) {
			return off, seen, true
		}
		off = end
	}
	for later := off + 1; later < len(data); later++ {
		if valid[later] {
			return off, seen, true
		}
	}
	return off, seen, false
}

func TestScanRule(t *testing.T) {
	a, b := frame(nil, []byte("first record")), frame(nil, []byte("second"))
	log := append(append([]byte{}, a...), b...)
	damaged := append([]byte{}, log...)
	damaged[HeaderSize+2] ^= 0x40
	cases := []struct {
		name    string
		data    []byte
		prefix  int
		corrupt bool
	}{
		{"empty", nil, 0, false},
		{"clean", log, len(log), false},
		{"torn header", log[:len(a)+5], len(a), false},
		{"torn payload", log[:len(log)-1], len(a), false},
		{"checksum-failing final frame", append(append([]byte{}, a...), damaged[:len(a)]...), len(a), false},
		{"zero-filled tail", append(append([]byte{}, a...), make([]byte, 64)...), len(a), false},
		{"damage with a valid frame after it", damaged, 0, true},
		{"damage with a minimal frame ending the data", frame([]byte{0}, []byte{7}), 0, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			prefix, _, err := scanAll(tc.data)
			if (err != nil) != tc.corrupt {
				t.Fatalf("err %v, want corrupt=%v", err, tc.corrupt)
			}
			if !tc.corrupt && prefix != tc.prefix {
				t.Fatalf("prefix %d, want %d", prefix, tc.prefix)
			}
		})
	}
	// A checksum-valid frame the caller cannot decode is corruption even
	// at the end of the data, and the decoder's error is wrapped.
	if _, _, err := scanAll(frame(a, []byte{0xFF, 1})); !errors.Is(err, errUndecodable) {
		t.Fatalf("undecodable final frame: %v, want the decoder's error", err)
	}
}

// FuzzScan checks Scan against refScan on arbitrary bytes: the same
// verdict, the same payloads handed to the decoder in the same order,
// and on success the same longest clean prefix. It also frames the
// input itself and reads it back through Next. The committed corpus
// (testdata/fuzz/FuzzScan) replays on every plain go test.
func FuzzScan(f *testing.F) {
	two := frame(frame(nil, []byte("record one")), []byte("record two"))
	f.Add(two)
	f.Add(two[:len(two)-3])
	f.Add(frame(nil, []byte{0xFF}))
	f.Fuzz(func(t *testing.T, data []byte) {
		prefix, seen, err := scanAll(data)
		wantPrefix, wantSeen, corrupt := refScan(data)
		if (err != nil) != corrupt {
			t.Fatalf("Scan error %v, reference corrupt=%v", err, corrupt)
		}
		if len(seen) != len(wantSeen) {
			t.Fatalf("Scan decoded %d payloads, reference %d", len(seen), len(wantSeen))
		}
		for i := range seen {
			if !bytes.Equal(seen[i], wantSeen[i]) {
				t.Fatalf("payload %d: Scan %x, reference %x", i, seen[i], wantSeen[i])
			}
		}
		if !corrupt && prefix != wantPrefix {
			t.Fatalf("Scan prefix %d, reference %d", prefix, wantPrefix)
		}
		if len(data) > 0 && len(data) <= MaxPayload {
			payload, rest, ok := Next(frame(nil, data))
			if !ok || !bytes.Equal(payload, data) || len(rest) != 0 {
				t.Fatalf("Next(frame(data)) = %x, %x, %v", payload, rest, ok)
			}
		}
	})
}
