package pki

import (
	"bytes"
	"crypto/hmac"
	"crypto/sha256"
	"testing"
)

// MACer keys HMAC-SHA256 itself from saved digest states; crypto/hmac
// is the reference it must agree with byte for byte.

func refHMAC(key, msg []byte) []byte {
	h := hmac.New(sha256.New, key)
	h.Write(msg)
	return h.Sum(nil)
}

// checkMACer checks every MACer entry point on msg against the
// reference tag, using mc (which may have MAC'd other messages before)
// and a fresh MACer for key.
func checkMACer(t *testing.T, mc *MACer, key, msg []byte) {
	t.Helper()
	want := refHMAC(key, msg)
	if got := mc.MAC(msg); !bytes.Equal(got, want) {
		t.Fatalf("%d-byte key, %d-byte msg: reused MACer tag %x, want %x", len(key), len(msg), got, want)
	}
	if got := NewMACer(key).MAC(msg); !bytes.Equal(got, want) {
		t.Fatalf("%d-byte key, %d-byte msg: fresh MACer tag %x, want %x", len(key), len(msg), got, want)
	}
	prefix := []byte("dst-prefix")
	got := mc.AppendMAC(append([]byte(nil), prefix...), msg)
	if !bytes.HasPrefix(got, prefix) || !bytes.Equal(got[len(prefix):], want) {
		t.Fatalf("%d-byte key: AppendMAC into a non-empty dst gave %x", len(key), got)
	}
	if !mc.Check(msg, want) {
		t.Fatalf("%d-byte key, %d-byte msg: Check refused the reference tag", len(key), len(msg))
	}
	for i := range want {
		flipped := append([]byte(nil), want...)
		flipped[i] ^= 1 << (i % 8)
		if mc.Check(msg, flipped) {
			t.Fatalf("%d-byte key: Check accepted a tag flipped at byte %d", len(key), i)
		}
	}
	if mc.Check(msg, want[:len(want)-1]) || mc.Check(msg, nil) {
		t.Fatalf("%d-byte key: Check accepted a truncated tag", len(key))
	}
	if mc.Check(msg, append(append([]byte(nil), want...), 0)) {
		t.Fatalf("%d-byte key: Check accepted an extended tag", len(key))
	}
}

// TestMACerMatchesHMAC covers the key lengths either side of the block
// size (a key over 64 bytes is hashed first) and messages either side
// of the block boundaries, with one MACer reused across all of a key's
// messages.
func TestMACerMatchesHMAC(t *testing.T) {
	var msgs [][]byte
	for _, n := range []int{0, 1, 55, 56, 63, 64, 65, 200} {
		msgs = append(msgs, bytes.Repeat([]byte{byte(n)}, n))
	}
	for _, keyLen := range []int{0, 1, 32, 64, 65, 200} {
		key := make([]byte, keyLen)
		for i := range key {
			key[i] = byte(7*i + 1)
		}
		mc := NewMACer(key)
		for _, msg := range msgs {
			checkMACer(t, mc, key, msg)
		}
	}
}

// FuzzMACer is the open-ended form of TestMACerMatchesHMAC: one MACer
// reused across two arbitrary messages and back must agree with
// crypto/hmac on each.
func FuzzMACer(f *testing.F) {
	for _, keyLen := range []int{0, 1, 32, 64, 65, 200} {
		f.Add(bytes.Repeat([]byte{0xa5}, keyLen), []byte("domain=www.xyz.com"), bytes.Repeat([]byte("m"), 64))
	}
	f.Fuzz(func(t *testing.T, key, a, b []byte) {
		mc := NewMACer(key)
		for _, msg := range [][]byte{a, b, a} {
			checkMACer(t, mc, key, msg)
		}
	})
}

// TestMACerAllocs pins the cost of a key and of a tag: keying is the
// MACer and its digest, and a tag into a buffer with room, or a Check,
// allocates nothing. The counts are those of a Go 1.24 or later
// toolchain, whose digest saves its state in place (macstate.go).
// Under the race detector crypto/sha256's AppendBinary allocates the
// zero padding of each saved state (the compiler's
// append(b, make(...)...) rewrite is off), so keying costs 4.
func TestMACerAllocs(t *testing.T) {
	key := bytes.Repeat([]byte{3}, SessionKeySize)
	msg := []byte("domain=www.xyz.com&nonce=42")
	keying := 2.0
	if raceEnabled {
		keying = 4
	}
	if n := testing.AllocsPerRun(100, func() { NewMACer(key) }); n != keying {
		t.Fatalf("NewMACer costs %.2f allocs, want %.0f", n, keying)
	}
	mc := NewMACer(key)
	tag := make([]byte, 0, sha256.Size)
	if n := testing.AllocsPerRun(100, func() { tag = mc.AppendMAC(tag[:0], msg) }); n != 0 {
		t.Fatalf("AppendMAC costs %.2f allocs, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { mc.Check(msg, tag) }); n != 0 {
		t.Fatalf("Check costs %.2f allocs, want 0", n)
	}
}
