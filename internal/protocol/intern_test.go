package protocol

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"unsafe"

	"trust/internal/frame"
)

func TestInternTableBounded(t *testing.T) {
	var tab internTable
	for i := 0; i < 10*internSlots; i++ {
		s := fmt.Sprintf("field-%d", i)
		if got := tab.get([]byte(s)); got != s {
			t.Fatalf("get(%q) = %q", s, got)
		}
	}
	long := strings.Repeat("x", internMaxLen+1)
	if got := tab.get([]byte(long)); got != long {
		t.Fatal("long field changed by the table")
	}
	held := 0
	for _, s := range tab.slots {
		if len(s) > internMaxLen {
			t.Fatalf("table holds a %d-byte string, cap %d", len(s), internMaxLen)
		}
		if s == long {
			t.Fatal("table kept a string over the length cap")
		}
		if s != "" {
			held++
		}
	}
	if held != internSlots {
		t.Fatalf("table holds %d strings after %d distinct inserts, want all %d slots in use", held, 10*internSlots, internSlots)
	}
}

func TestInternTableReturnsTheSameString(t *testing.T) {
	var tab internTable
	a := tab.get([]byte("www.xyz.com"))
	b := tab.get([]byte("www.xyz.com"))
	if unsafe.StringData(a) != unsafe.StringData(b) {
		t.Fatal("second lookup of a held string copied it")
	}
	if n := testing.AllocsPerRun(100, func() { tab.get([]byte("www.xyz.com")) }); n != 0 {
		t.Fatalf("interned hit: %.0f allocs, want 0", n)
	}
	var none *internTable
	if none.get([]byte("x")) != "x" {
		t.Fatal("nil table must copy")
	}
}

// Nonces and MACs are fresh on every message: the decoder must copy
// them, never route them through (and churn) the table.
func TestDecoderNeverInternsNoncesOrMACs(t *testing.T) {
	var d Decoder
	for i := 0; i < 8; i++ {
		req := testPageRequest("home")
		req.Nonce = Nonce(fmt.Sprintf("nonce-%02d", i))
		req.MAC = []byte(fmt.Sprintf("mac-%02d", i))
		f, err := AppendTouchBatchFrame(nil, uint64(i), 0, []*PageRequest{req})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := d.DecodeTouchBatch(f[frameHeaderLen:]); err != nil {
			t.Fatal(err)
		}
	}
	for _, s := range d.intern.slots {
		if strings.HasPrefix(s, "nonce-") || strings.HasPrefix(s, "mac-") {
			t.Fatalf("table holds %q", s)
		}
	}
}

// The connection decoder reuses its payload buffer, so every frame it
// decoded must stay intact after later frames overwrite that buffer.
func TestDecoderMessagesOutliveThePayloadBuffer(t *testing.T) {
	var wire bytes.Buffer
	var want [][]byte
	for i := 0; i < 6; i++ {
		cp := testContentPage()
		cp.Nonce = Nonce(fmt.Sprintf("nonce-%d", i))
		cp.MAC = []byte{byte(i), 0xaa, byte(i), 0xbb}
		cp.Page.Title = fmt.Sprintf("title-%d", i%2)
		cp.Page.Elements = []frame.Element{{ID: "b", Label: fmt.Sprintf("label-%d", i)}}
		f, err := AppendPageFrame(nil, uint64(i), 0, cp)
		if err != nil {
			t.Fatal(err)
		}
		wire.Write(f)
		want = append(want, f[frameHeaderLen:])
	}
	var d Decoder
	var got []*ContentPage
	for range want {
		ft, payload, err := d.ReadFrame(&wire)
		if err != nil || ft != FramePage {
			t.Fatalf("read: %s %v", ft, err)
		}
		_, _, cp, err := d.DecodePageFrame(payload)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, cp)
	}
	for i, cp := range got {
		f, err := AppendPageFrame(nil, uint64(i), 0, cp)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(f[frameHeaderLen:], want[i]) {
			t.Fatalf("frame %d changed after later frames reused the payload buffer", i)
		}
	}
}

func TestDecoderKeepsOnlyBoundedPayloadBuffers(t *testing.T) {
	var wire bytes.Buffer
	for _, n := range []int{100, maxPooledEncodeBuf + 1, 10} {
		if err := WriteFrame(&wire, FrameHello, bytes.Repeat([]byte{1}, n)); err != nil {
			t.Fatal(err)
		}
	}
	var d Decoder
	for _, n := range []int{100, maxPooledEncodeBuf + 1, 10} {
		_, p, err := d.ReadFrame(&wire)
		if err != nil || len(p) != n {
			t.Fatalf("read %d-byte frame: %d bytes, %v", n, len(p), err)
		}
		if cap(d.buf) > maxPooledEncodeBuf {
			t.Fatalf("decoder kept a %d-byte buffer after a %d-byte frame", cap(d.buf), n)
		}
	}
}
