package protocol

import (
	"bytes"
	"errors"
	"math"
	"reflect"
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
// encoding with an empty MAC field. signed holds the four signed
// messages, each paired with a copy whose authenticators are cleared,
// the definition of SigningBytes.
func authMessages(rng *sim.RNG) (mac, signed [][2]any) {
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
	cert := &pki.Certificate{Subject: str(), Role: pki.RoleServer, PublicKey: raw(), KemKey: raw(), Issuer: str(), Serial: rng.Uint64(), Signature: raw()}
	ls := &LoginSubmit{Domain: str(), Account: str(), Nonce: Nonce(str()), SessionKeyCT: raw(), FrameHash: h, RiskVerified: rng.Intn(20), RiskWindow: rng.Intn(20), Signature: raw(), MAC: raw()}
	cp := &ContentPage{Domain: str(), SessionID: str(), Nonce: Nonce(str()), Account: str(), Page: page, Ticket: raw(), MAC: raw()}
	pr := &PageRequest{Domain: str(), Account: str(), SessionID: str(), Nonce: Nonce(str()), Action: str(), FrameHash: h, RiskVerified: rng.Intn(20), RiskWindow: rng.Intn(20), MAC: raw()}
	rr := &ResyncRequest{Domain: str(), Account: str(), SessionID: str(), MAC: raw()}
	rs := &ResumeSubmit{Domain: str(), Account: str(), Ticket: raw(), FrameHash: h, RiskVerified: rng.Intn(20), RiskWindow: rng.Intn(20), MAC: raw()}
	sh := &StreamHello{Domain: str(), Account: str(), SessionID: str(), MAC: raw()}
	sw := &StreamWelcome{Domain: str(), SessionID: str(), NonceSeed: raw(), Window: rng.Intn(20), MinVerified: rng.Intn(20), MAC: raw()}
	for _, m := range []any{ls, cp, pr, rr, rs, sh, sw} {
		mac = append(mac, [2]any{m, clearedCopy(m, "MAC")})
	}
	rp := &RegistrationPage{Domain: str(), Nonce: Nonce(str()), Page: page, ServerCert: cert, Signature: raw()}
	rsub := &RegistrationSubmit{Domain: str(), Account: str(), Nonce: Nonce(str()), UserPub: raw(), FrameHash: h, DeviceCert: cert, Signature: raw()}
	lp := &LoginPage{Domain: str(), Nonce: Nonce(str()), Page: page, Signature: raw()}
	for _, m := range []any{rp, rsub, lp, ls} {
		signed = append(signed, [2]any{m, clearedCopy(m, "Signature", "MAC")})
	}
	return mac, signed
}

// clearedCopy returns a shallow copy of the message m points to with
// the named fields, those that exist, set to their zero value.
func clearedCopy(m any, fields ...string) any {
	c := reflect.New(reflect.TypeOf(m).Elem())
	c.Elem().Set(reflect.ValueOf(m).Elem())
	for _, name := range fields {
		if f := c.Elem().FieldByName(name); f.IsValid() {
			f.SetZero()
		}
	}
	return c.Interface()
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
		macs, signed := authMessages(rng)
		for _, pair := range macs {
			m := pair[0].(Authenticated)
			legacy, err := EncodeBinary(pair[1])
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(m.MACBytes(), legacy) {
				t.Fatalf("%T: MACBytes differs from the MAC-cleared encoding", m)
			}
			want := pki.NewMACer(key).MAC(m.MACBytes())
			if got := SealMAC(mc, m); !bytes.Equal(got, want) {
				t.Fatalf("%T: SealMAC %x, a fresh MACer over MACBytes %x", m, got, want)
			}
			if !VerifyMAC(mc, m, want) {
				t.Fatalf("%T: VerifyMAC rejects a fresh MACer's tag", m)
			}
			bad := append([]byte(nil), want...)
			bad[rng.Intn(len(bad))] ^= 1 << uint(rng.Intn(8))
			if VerifyMAC(mc, m, bad) || VerifyMAC(mc, m, want[:len(want)-1]) {
				t.Fatalf("%T: VerifyMAC accepts a corrupted tag", m)
			}
		}
		for _, pair := range signed {
			m := pair[0].(interface{ SigningBytes() ([]byte, error) })
			want, err := EncodeBinary(pair[1])
			if err != nil {
				t.Fatal(err)
			}
			got, err := m.SigningBytes()
			if err != nil || !bytes.Equal(got, want) {
				t.Fatalf("%T: SigningBytes (err %v) differs from the authenticator-cleared encoding", m, err)
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

// An element bound that is NaN or infinite is refused by the stateless
// decoder and by a connection Decoder alike, on any corner, so no
// decodable page carries one; finite bounds of any sign pass.
func TestDecodeRejectsNonFiniteElementBounds(t *testing.T) {
	page := func(corner int, v float64) []byte {
		b := geom.RectWH(10, 20, 100, 40)
		*[]*float64{&b.Min.X, &b.Min.Y, &b.Max.X, &b.Max.Y}[corner] = v
		return encodePage(t, &frame.Page{URL: "u", HeightPX: 800, Elements: []frame.Element{{ID: "b", Kind: frame.Button, Bounds: b}}})
	}
	var d Decoder
	for corner := 0; corner < 4; corner++ {
		for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			data := page(corner, v)
			if _, err := DecodeAs[ContentPage](data); !errors.Is(err, ErrBinaryDecode) {
				t.Fatalf("corner %d = %v: DecodeAs err %v, want ErrBinaryDecode", corner, v, err)
			}
			if err := d.DecodeMessage(data, new(ContentPage)); !errors.Is(err, ErrBinaryDecode) {
				t.Fatalf("corner %d = %v: DecodeMessage err %v, want ErrBinaryDecode", corner, v, err)
			}
		}
		for _, v := range []float64{0, -5, 1e300} {
			data := page(corner, v)
			if _, err := DecodeAs[ContentPage](data); err != nil {
				t.Fatalf("corner %d = %v: DecodeAs rejected a finite bound: %v", corner, v, err)
			}
			if err := d.DecodeMessage(data, new(ContentPage)); err != nil {
				t.Fatalf("corner %d = %v: DecodeMessage rejected a finite bound: %v", corner, v, err)
			}
		}
	}
}

// A short payload claiming many page elements fails before the element
// slice is sized: the count is bounded by the bytes left.
func TestDecodeElementCountBoundedByPayload(t *testing.T) {
	var c binCodec
	c.head(tagContentPage)
	empty, present, height, count := "", byte(1), 800.0, 10000
	for i := 0; i < 4; i++ {
		c.Str(&empty) // domain, session id, nonce, account
	}
	c.U8(&present)
	for i := 0; i < 3; i++ {
		c.Str(&empty) // URL, title, body
	}
	c.F64(&height)
	c.U32(&count)
	claim := c.Data()
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
