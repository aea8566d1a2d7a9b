package protocol

import (
	"bytes"
	"errors"
	"math"
	"runtime"
	"testing"

	"trust/internal/frame"
	"trust/internal/geom"
	"trust/internal/pki"
	"trust/internal/sim"
)

// authMessages returns one of every MAC-authenticated message with
// seeded field values, each paired with a copy whose MAC is cleared —
// the definition MACBytes has always had: the message's binary
// encoding with an empty MAC field.
func authMessages(rng *sim.RNG) [][2]any {
	raw := func() []byte {
		b := make([]byte, rng.Intn(40))
		fill(rng, b)
		return b
	}
	str := func() string { return string(raw()) }
	var h frame.Hash
	fill(rng, h[:])
	page := &frame.Page{URL: str(), Title: str(), Body: str(), HeightPX: float64(rng.Intn(3000)),
		Elements: []frame.Element{{ID: str(), Kind: frame.Button, Label: str(), Action: str(), Bounds: geom.RectWH(1, 2, 3, 4)}}}
	cp := &ContentPage{Domain: str(), SessionID: str(), Nonce: Nonce(str()), Account: str(), Page: page, Ticket: raw(), MAC: raw()}
	pr := &PageRequest{Domain: str(), Account: str(), SessionID: str(), Nonce: Nonce(str()), Action: str(), FrameHash: h, RiskVerified: rng.Intn(20), RiskWindow: rng.Intn(20), MAC: raw()}
	rr := &ResyncRequest{Domain: str(), Account: str(), SessionID: str(), MAC: raw()}
	rs := &ResumeSubmit{Domain: str(), Account: str(), Ticket: raw(), FrameHash: h, RiskVerified: rng.Intn(20), RiskWindow: rng.Intn(20), MAC: raw()}
	sh := &StreamHello{Domain: str(), Account: str(), SessionID: str(), MAC: raw()}
	sw := &StreamWelcome{Domain: str(), SessionID: str(), NonceSeed: raw(), Window: rng.Intn(20), MinVerified: rng.Intn(20), MAC: raw()}
	pp := &PolicyPush{Domain: str(), SessionID: str(), Window: rng.Intn(20), MinVerified: rng.Intn(20), Seq: rng.Uint64(), MAC: raw()}
	cleared := func(v any) any {
		switch m := v.(type) {
		case *ContentPage:
			c := *m
			c.MAC = nil
			return &c
		case *PageRequest:
			c := *m
			c.MAC = nil
			return &c
		case *ResyncRequest:
			c := *m
			c.MAC = nil
			return &c
		case *ResumeSubmit:
			c := *m
			c.MAC = nil
			return &c
		case *StreamHello:
			c := *m
			c.MAC = nil
			return &c
		case *StreamWelcome:
			c := *m
			c.MAC = nil
			return &c
		case *PolicyPush:
			c := *m
			c.MAC = nil
			return &c
		}
		panic("unhandled message type")
	}
	var out [][2]any
	for _, m := range []any{cp, pr, rr, rs, sh, sw, pp} {
		out = append(out, [2]any{m, cleared(m)})
	}
	return out
}

func fill(rng *sim.RNG, b []byte) {
	for i := range b {
		b[i] = byte(rng.Intn(256))
	}
}

func TestAuthenticatedMACPathsAgree(t *testing.T) {
	rng := sim.NewRNG(1)
	for i := 0; i < 50; i++ {
		key := make([]byte, pki.SessionKeySize)
		fill(rng, key)
		mc := pki.NewMACer(key)
		for _, pair := range authMessages(rng) {
			m := pair[0].(Authenticated)
			legacy, err := EncodeBinary(pair[1])
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(m.MACBytes(), legacy) {
				t.Fatalf("%T: MACBytes differs from the MAC-cleared encoding", m)
			}
			want := pki.MAC(key, m.MACBytes())
			if got := SealMAC(mc, m); !bytes.Equal(got, want) {
				t.Fatalf("%T: SealMAC %x, pki.MAC over MACBytes %x", m, got, want)
			}
			if !VerifyMAC(mc, m, want) {
				t.Fatalf("%T: VerifyMAC rejects pki.MAC's tag", m)
			}
			bad := append([]byte(nil), want...)
			bad[rng.Intn(len(bad))] ^= 1 << uint(rng.Intn(8))
			if VerifyMAC(mc, m, bad) || VerifyMAC(mc, m, want[:len(want)-1]) {
				t.Fatalf("%T: VerifyMAC accepts a corrupted tag", m)
			}
		}
	}
}

func TestVerifyMACAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector intentionally defeats sync.Pool reuse")
	}
	mc := pki.NewMACer(bytes.Repeat([]byte{7}, pki.SessionKeySize))
	req, cp := testPageRequest("home"), testContentPage()
	req.MAC, cp.MAC = SealMAC(mc, req), SealMAC(mc, cp)
	n := testing.AllocsPerRun(100, func() {
		if !VerifyMAC(mc, req, req.MAC) || !VerifyMAC(mc, cp, cp.MAC) {
			t.Fatal("MAC check failed")
		}
	})
	if n != 0 {
		t.Fatalf("VerifyMAC: %.0f allocs, want 0", n)
	}
}

func encodePage(t *testing.T, p *frame.Page) []byte {
	t.Helper()
	cp := testContentPage()
	cp.Page = p
	data, err := EncodeBinary(cp)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestDecodeRejectsBadPageHeight(t *testing.T) {
	for _, h := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -1, -1e-300} {
		data := encodePage(t, &frame.Page{URL: "u", HeightPX: h})
		if _, err := DecodeBinary(data); !errors.Is(err, ErrBinaryDecode) {
			t.Fatalf("height %v: err %v, want ErrBinaryDecode", h, err)
		}
	}
	for _, h := range []float64{0, math.Copysign(0, -1), 800, 1e21} {
		if _, err := DecodeBinary(encodePage(t, &frame.Page{URL: "u", HeightPX: h})); err != nil {
			t.Fatalf("height %v rejected: %v", h, err)
		}
	}
}

// A short payload claiming many page elements fails before the element
// slice is sized: the count is bounded by the bytes left.
func TestDecodeElementCountBoundedByPayload(t *testing.T) {
	var w binWriter
	w.u8(binVersion)
	w.u8(tagContentPage)
	for i := 0; i < 4; i++ {
		w.str("") // domain, session id, nonce, account
	}
	w.u8(1) // page present
	w.str("")
	w.str("")
	w.str("")
	w.f64(800)
	w.u32(10000)
	claim := w.buf.Bytes()
	if _, err := DecodeBinary(claim); !errors.Is(err, ErrBinaryDecode) {
		t.Fatalf("10,000-element claim in %d bytes: err %v", len(claim), err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < 10; i++ {
		_, _ = DecodeBinary(claim)
	}
	runtime.ReadMemStats(&after)
	if perDecode := (after.TotalAlloc - before.TotalAlloc) / 10; perDecode > 4<<10 {
		t.Fatalf("rejecting a %d-byte element claim allocated %d bytes", len(claim), perDecode)
	}
}

func TestDecodeRejectsPresenceFlagsOtherThanZeroOrOne(t *testing.T) {
	data := encodePage(t, &frame.Page{URL: "u", HeightPX: 800})
	// The page flag follows the four header strings.
	at := 2 + 4*4 + len("www.xyz.com") + len("sess-1") + len("nonce-1") + len("acct")
	if data[at] != 1 {
		t.Fatalf("byte %d = %d, not the page flag", at, data[at])
	}
	data[at] = 2
	if _, err := DecodeBinary(data); !errors.Is(err, ErrBinaryDecode) {
		t.Fatalf("page flag 2: err %v, want ErrBinaryDecode", err)
	}
}
