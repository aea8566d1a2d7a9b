package protocol

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"unsafe"

	"trust/internal/frame"
)

// freshTouchBatch decodes a touch-batch payload into a new batch,
// through intern when it is not nil: with nil, the stateless reference
// the connection decoder is checked against.
func freshTouchBatch(payload []byte, intern *internTable) (*TouchBatch, error) {
	tb := new(TouchBatch)
	if err := decodeTouchBatch(payload, intern, tb); err != nil {
		return nil, err
	}
	return tb, nil
}

// DecodeTouchBatch decodes a touch-batch payload into a new batch
// through this connection's intern table.
func (d *Decoder) DecodeTouchBatch(payload []byte) (*TouchBatch, error) {
	return freshTouchBatch(payload, &d.intern)
}

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
		frame, err := AppendFrame(nil, FrameHello, bytes.Repeat([]byte{1}, n))
		if err != nil {
			t.Fatal(err)
		}
		wire.Write(frame)
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

// A batch decoded into a reused TouchBatch must equal the stateless
// decode of the same payload: a shorter batch after a longer one, a
// shorter MAC after longer ones and an empty MAC after a short one
// would show a stale request, stale tag bytes or a stale count.
func TestDecodeTouchBatchIntoLeavesNothingStale(t *testing.T) {
	long := func(i int) []byte { return bytes.Repeat([]byte{byte(0xa0 + i)}, 48) }
	var batches [][]*PageRequest
	var three []*PageRequest
	for i, action := range []string{"home", "view-statement", "transfer"} {
		req := testPageRequest(action)
		req.Nonce = Nonce(fmt.Sprintf("nonce-3-%d", i))
		req.MAC = long(i)
		three = append(three, req)
	}
	short := testPageRequest("home")
	short.Nonce, short.MAC = "nonce-1", []byte{7, 7}
	empty := testPageRequest("logout")
	empty.Nonce, empty.MAC = "n", nil
	batches = append(batches, three, []*PageRequest{short}, []*PageRequest{empty})

	var d Decoder
	var tb TouchBatch
	var slot0 *PageRequest
	for i, reqs := range batches {
		f, err := AppendTouchBatchFrame(nil, uint64(i+1), 0, reqs)
		if err != nil {
			t.Fatal(err)
		}
		payload := f[frameHeaderLen:]
		want, err := freshTouchBatch(payload, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := d.DecodeTouchBatchInto(payload, &tb); err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
		if !reflect.DeepEqual(&tb, want) {
			t.Fatalf("batch %d decoded into a reused batch differs:\n got %+v\nwant %+v", i, tb.Requests, want.Requests)
		}
		if i == 0 {
			slot0 = tb.Requests[0]
		} else if tb.Requests[0] != slot0 {
			t.Fatalf("batch %d did not reuse request slot 0", i)
		}
	}
	if m := tb.Requests[0].MAC; m == nil || len(m) != 0 {
		t.Fatalf("empty MAC decoded as %#v, want non-nil empty like a fresh decode", m)
	}

	// Warm, with the strings interned, the reused decode keeps only the
	// request's nonce string.
	f, err := AppendTouchBatchFrame(nil, 9, 0, []*PageRequest{short})
	if err != nil {
		t.Fatal(err)
	}
	if raceEnabled {
		return // the race detector defeats the codec pool
	}
	if n := testing.AllocsPerRun(100, func() { d.DecodeTouchBatchInto(f[frameHeaderLen:], &tb) }); n != 1 {
		t.Fatalf("warm DecodeTouchBatchInto costs %.2f allocs, want 1 (the nonce)", n)
	}
}
