package protocol

import (
	"bytes"
	"encoding/binary"
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"trust/internal/frame"
)

func testContentPage() *ContentPage {
	return &ContentPage{
		Domain:    "www.xyz.com",
		SessionID: "sess-1",
		Nonce:     "nonce-1",
		Account:   "acct",
		Page:      &frame.Page{URL: "https://www.xyz.com/home", Title: "home", Body: "hello", HeightPX: 800},
		MAC:       []byte{1, 2, 3, 4},
	}
}

func testPageRequest(action string) *PageRequest {
	return &PageRequest{
		Domain:       "www.xyz.com",
		Account:      "acct",
		SessionID:    "sess-1",
		Nonce:        "nonce-1",
		Action:       action,
		RiskVerified: 2,
		RiskWindow:   12,
		MAC:          []byte{9, 9, 9},
	}
}

func TestFrameRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		ft FrameType
		p  []byte
	}{
		{FrameHello, []byte("hello payload")},
		{FrameResync, []byte("0123456789abcdef")},
		{FrameWelcome, nil},
	} {
		ft, p := tc.ft, tc.p
		frame, err := AppendFrame(nil, ft, p)
		if err != nil {
			t.Fatalf("append %s: %v", ft, err)
		}
		gt, gp, err := ReadFrame(bytes.NewReader(frame))
		if err != nil {
			t.Fatalf("read %s: %v", ft, err)
		}
		if gt != ft || !bytes.Equal(gp, p) {
			t.Fatalf("%s round trip: got %s %q", ft, gt, gp)
		}
	}
}

func TestFrameOversizedPayloadRejected(t *testing.T) {
	// A corrupted length prefix must fail before any payload is read.
	hdr := []byte{byte(FramePage), 0xff, 0xff, 0xff, 0xff}
	if _, _, err := ReadFrame(bytes.NewReader(hdr)); !errors.Is(err, ErrFrame) {
		t.Fatalf("oversized read: %v", err)
	}
	// A refused append leaves the destination as it was.
	prefix := []byte("prefix")
	got, err := AppendFrame(prefix, FramePage, make([]byte, MaxFramePayload+1))
	if !errors.Is(err, ErrFrame) || !bytes.Equal(got, prefix) {
		t.Fatalf("oversized append: %q..., %v", got[:min(len(got), 8)], err)
	}
}

func TestFrameTruncatedPayload(t *testing.T) {
	frame, err := AppendFrame(nil, FramePage, []byte("full payload"))
	if err != nil {
		t.Fatal(err)
	}
	cut := frame[:len(frame)-3]
	if _, _, err := ReadFrame(bytes.NewReader(cut)); !errors.Is(err, ErrFrame) {
		t.Fatalf("truncated read: %v", err)
	}
}

// TestFrameSurvivesTornWrites verifies the reader reassembles a frame
// that arrives in arbitrary pieces — the wire is a byte stream, and
// the codec must not depend on write boundaries.
func TestFrameSurvivesTornWrites(t *testing.T) {
	c1, c2 := net.Pipe()
	defer c1.Close()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer c2.Close()
		raw, err := AppendAckFrame(nil, 3, "bad-nonce", "detail")
		if err != nil {
			t.Error(err)
			return
		}
		for i := 0; i < len(raw); i += 2 { // dribble 2 bytes at a time
			end := i + 2
			if end > len(raw) {
				end = len(raw)
			}
			if _, err := c2.Write(raw[i:end]); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	ft, payload, err := ReadFrame(c1)
	if err != nil {
		t.Fatalf("read torn frame: %v", err)
	}
	if ft != FrameAck {
		t.Fatalf("got %s", ft)
	}
	seq, code, detail, err := DecodeAck(payload)
	if err != nil || seq != 3 || code != "bad-nonce" || detail != "detail" {
		t.Fatalf("ack decode: %d %q %q %v", seq, code, detail, err)
	}
	wg.Wait()
}

func TestTouchBatchRoundTrip(t *testing.T) {
	reqs := []*PageRequest{testPageRequest("home"), testPageRequest("view-statement")}
	f, err := AppendTouchBatchFrame(nil, 42, 9*time.Second, reqs)
	if err != nil {
		t.Fatal(err)
	}
	tb, err := freshTouchBatch(f[frameHeaderLen:], nil)
	if err != nil {
		t.Fatal(err)
	}
	if tb.Seq != 42 || tb.Now != 9*time.Second || len(tb.Requests) != 2 {
		t.Fatalf("batch header: %+v", tb)
	}
	for i, req := range tb.Requests {
		if req.Action != reqs[i].Action || req.Nonce != reqs[i].Nonce || !bytes.Equal(req.MAC, reqs[i].MAC) {
			t.Fatalf("request %d mismatch: %+v", i, req)
		}
	}
}

func TestTouchBatchBounds(t *testing.T) {
	if _, err := AppendTouchBatchFrame(nil, 1, 0, nil); !errors.Is(err, ErrFrame) {
		t.Fatalf("empty batch: %v", err)
	}
	big := make([]*PageRequest, maxBatchRequests+1)
	for i := range big {
		big[i] = testPageRequest("home")
	}
	if _, err := AppendTouchBatchFrame(nil, 1, 0, big); !errors.Is(err, ErrFrame) {
		t.Fatalf("oversized batch: %v", err)
	}
	// Trailing garbage after a valid batch must be rejected.
	f, err := AppendTouchBatchFrame(nil, 1, 0, big[:1])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := freshTouchBatch(append(f[frameHeaderLen:], 0xff), nil); !errors.Is(err, ErrFrame) {
		t.Fatalf("trailing bytes: %v", err)
	}
}

func TestPageFrameRoundTrip(t *testing.T) {
	cp := testContentPage()
	f, err := AppendPageFrame(nil, 7, 2, cp)
	if err != nil {
		t.Fatal(err)
	}
	seq, index, got, err := decodePageFrame(f[frameHeaderLen:], nil)
	if err != nil {
		t.Fatal(err)
	}
	if seq != 7 || index != 2 || got.Nonce != cp.Nonce || got.Page.URL != cp.Page.URL {
		t.Fatalf("page frame: %d %d %+v", seq, index, got)
	}
}

func TestResyncFrameRoundTrip(t *testing.T) {
	rr := &ResyncRequest{Domain: "www.xyz.com", Account: "acct", SessionID: "sess-1", MAC: []byte{5}}
	f, err := AppendResyncFrame(nil, 11, rr)
	if err != nil {
		t.Fatal(err)
	}
	seq, got, err := DecodeResyncFrame(f[frameHeaderLen:])
	if err != nil {
		t.Fatal(err)
	}
	if seq != 11 || got.SessionID != rr.SessionID || !bytes.Equal(got.MAC, rr.MAC) {
		t.Fatalf("resync frame: %d %+v", seq, got)
	}
}

func TestStreamNonceDeterministicAndKeyed(t *testing.T) {
	key := bytes.Repeat([]byte{7}, 32)
	seed := []byte("seed-0123456789ab")
	a := StreamNonce(key, seed, 5)
	if b := StreamNonce(key, seed, 5); a != b {
		t.Fatal("StreamNonce not deterministic")
	}
	if b := StreamNonce(key, seed, 6); a == b {
		t.Fatal("consecutive chain nonces collide")
	}
	if b := StreamNonce(bytes.Repeat([]byte{8}, 32), seed, 5); a == b {
		t.Fatal("chain nonce independent of key")
	}
	if b := StreamNonce(key, []byte("seed-0123456789ac"), 5); a == b {
		t.Fatal("chain nonce independent of seed")
	}
	if len(a) != 32 { // 16 bytes hex-encoded, same shape as minted nonces
		t.Fatalf("nonce length %d", len(a))
	}
}

// NonceChain.At is on every streamed request of both ends: the
// string it returns must be its only allocation.
func TestNonceChainAtAllocs(t *testing.T) {
	c := NewNonceChain(bytes.Repeat([]byte{7}, 32), []byte("seed-0123456789ab"))
	seq := uint64(0)
	if n := testing.AllocsPerRun(200, func() { seq++; c.At(seq) }); n != 1 {
		t.Fatalf("NonceChain.At costs %.2f allocs, want exactly 1 (the returned string)", n)
	}
	if c.At(5) != StreamNonce(bytes.Repeat([]byte{7}, 32), []byte("seed-0123456789ab"), 5) {
		t.Fatal("NonceChain.At disagrees with StreamNonce")
	}
}

func TestStreamHelloWelcomeBinaryRoundTrip(t *testing.T) {
	for _, msg := range []any{
		&StreamHello{Domain: "www.xyz.com", Account: "acct", SessionID: "s", MAC: []byte{1}},
		&StreamWelcome{Domain: "www.xyz.com", SessionID: "s", NonceSeed: []byte("0123456789abcdef"), Window: 12, MinVerified: 2, MAC: []byte{2}},
	} {
		data, err := EncodeBinary(msg)
		if err != nil {
			t.Fatalf("%T encode: %v", msg, err)
		}
		back, err := DecodeBinary(data)
		if err != nil {
			t.Fatalf("%T decode: %v", msg, err)
		}
		d2, err := EncodeBinary(back)
		if err != nil {
			t.Fatalf("%T re-encode: %v", msg, err)
		}
		if !bytes.Equal(data, d2) {
			t.Fatalf("%T not byte-stable", msg)
		}
	}
}

func TestEncodeBinaryAppend(t *testing.T) {
	cp := testContentPage()
	direct, err := EncodeBinary(cp)
	if err != nil {
		t.Fatal(err)
	}
	prefix := []byte("prefix")
	got, err := EncodeBinaryAppend(prefix, cp)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(got, prefix) || !bytes.Equal(got[len(prefix):], direct) {
		t.Fatal("EncodeBinaryAppend does not append the EncodeBinary bytes")
	}
}

// TestFrameSeq pins the sequence peek every malformed-frame ack path
// relies on: seq-bearing frame types yield the leading 8 bytes, and
// everything else — wrong type or short payload — yields zero rather
// than garbage.
func TestFrameSeq(t *testing.T) {
	payload := binary.BigEndian.AppendUint64(nil, 0xCAFEBABE)
	payload = append(payload, 1, 2, 3)
	seqBearing := map[FrameType]bool{
		FrameTouchBatch: true, FramePage: true, FrameAck: true, FrameResync: true,
		FrameHello: false, FrameWelcome: false,
		5: false, 9: false, // retired heartbeat and bye: unknown types
	}
	for ft, want := range seqBearing {
		if got := ft.SeqBearing(); got != want {
			t.Errorf("%s.SeqBearing() = %v, want %v", ft, got, want)
		}
		wantSeq := uint64(0)
		if want {
			wantSeq = 0xCAFEBABE
		}
		if got := FrameSeq(ft, payload); got != wantSeq {
			t.Errorf("FrameSeq(%s) = %#x, want %#x", ft, got, wantSeq)
		}
	}
	if got := FrameSeq(FrameAck, payload[:7]); got != 0 {
		t.Errorf("FrameSeq on 7-byte payload = %#x, want 0", got)
	}
	if got := FrameSeq(FrameAck, nil); got != 0 {
		t.Errorf("FrameSeq on nil payload = %#x, want 0", got)
	}
}
