package protocol

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"testing"
	"time"

	"trust/internal/frame"
	"trust/internal/geom"
	"trust/internal/pki"
)

// TestStreamWireGolden pins the exact bytes of one frame of every
// stream frame type, built from fixed inputs by the frame builders the
// two stream ends use, each appended behind an existing prefix. The stream is a wire protocol: a builder change
// that moves a byte breaks every deployed peer, so any such change
// must show up here first.
func TestStreamWireGolden(t *testing.T) {
	cases := []struct {
		ft    FrameType
		build func(dst []byte) ([]byte, error)
		size  int
		sum   string // sha256 of the whole frame
	}{
		{FrameHello, func(dst []byte) ([]byte, error) {
			return AppendMessageFrame(dst, FrameHello, &StreamHello{Domain: "www.xyz.com", Account: "acct", SessionID: "sess-1", MAC: []byte{1, 2}})
		}, 46, "0cc0b692b436014d2f3aa6f40983eb1f578e54dbf087079f5e8b94e697c09570"},
		{FrameWelcome, func(dst []byte) ([]byte, error) {
			return AppendMessageFrame(dst, FrameWelcome, &StreamWelcome{Domain: "www.xyz.com", SessionID: "sess-1", NonceSeed: []byte("0123456789abcdef"), Window: 12, MinVerified: 2, MAC: []byte{3}})
		}, 65, "9e147b427f53cfe6d7047871800b06ebc631c7355adff5054dde8e10ef9c7b89"},
		{FrameTouchBatch, func(dst []byte) ([]byte, error) {
			return AppendTouchBatchFrame(dst, 42, 9*time.Second, []*PageRequest{testPageRequest("home"), testPageRequest("view-statement")})
		}, 245, "605b29866bd6a6a5a5615397f018b26f515164148b099ec18e6264dfa46153fe"},
		{FramePage, func(dst []byte) ([]byte, error) { return AppendPageFrame(dst, 7, 2, testContentPage()) }, 137, "7713b6eff730b1f31813299150e37252d5fe338738f2c97d907a79ed42c779d7"},
		{FrameAck, func(dst []byte) ([]byte, error) {
			return AppendAckFrame(dst, 7, "bad-nonce", "nonce does not match")
		}, 50, "4ae1592f734d729f92fb3751fd2eea82917542b95bcc70ef65ce9310e7c4a968"},
		{FrameResync, func(dst []byte) ([]byte, error) {
			return AppendResyncFrame(dst, 11, &ResyncRequest{Domain: "www.xyz.com", Account: "acct", SessionID: "sess-1", MAC: []byte{5}})
		}, 57, "a28cb99510832041cd4a9e3f09f820dd069af749996e73f078108035fbed0dc2"},
	}
	prefix := []byte("prefix")
	seen := map[FrameType]bool{}
	for _, tc := range cases {
		got, err := tc.build(append(make([]byte, 0, 512), prefix...))
		if err != nil {
			t.Fatalf("%s: %v", tc.ft, err)
		}
		seen[tc.ft] = true
		if !bytes.HasPrefix(got, prefix) {
			t.Fatalf("%s builder clobbered the destination prefix", tc.ft)
		}
		got = got[len(prefix):]
		if FrameType(got[0]) != tc.ft {
			t.Errorf("%s frame leads with type %d", tc.ft, got[0])
		}
		sum := sha256.Sum256(got)
		if len(got) != tc.size || hex.EncodeToString(sum[:]) != tc.sum {
			t.Errorf("%s frame moved: %d bytes, sha256 %x\n%x", tc.ft, len(got), sum, got)
		}
	}
	for ft := FrameHello; ft <= 10; ft++ {
		if !seen[ft] && !retiredFrames[ft] {
			t.Errorf("no golden for %s frames", ft)
		}
	}
}

// The retired frame types — the heartbeat (5), the server-to-device
// policy push (6), the bye (9) and the resume opening (10) — and the
// policy push's message tag. None may be reused: a peer that still
// sends one must be refused, not misread.
var retiredFrames = map[FrameType]bool{5: true, 6: true, 9: true, 10: true}

const retiredTag byte = 10

// TestRetiredFrameAndTagRefused checks that the retired frame types and
// message tag read as unknown: each frame type prints as a bare number
// and bears no sequence, so a refusal's ack echoes none, and a message
// with the tag is refused.
func TestRetiredFrameAndTagRefused(t *testing.T) {
	payload := binary.BigEndian.AppendUint64(nil, 0xCAFEBABE)
	for ft := range retiredFrames {
		if got, want := ft.String(), fmt.Sprintf("frame(%d)", byte(ft)); got != want {
			t.Errorf("retired frame type reads as %q, want %q", got, want)
		}
		if ft.SeqBearing() || FrameSeq(ft, payload) != 0 {
			t.Errorf("retired %s bears a sequence", ft)
		}
	}
	// The retired push's old encoding: version, tag, then the fields
	// of the push (domain, session id, window, min, seq, MAC).
	old := []byte{binVersion, retiredTag, 0, 0, 0, 1, 'd', 0, 0, 0, 1, 's', 0, 0, 0, 8, 0, 0, 0, 3, 0, 0, 0, 0, 0, 0, 0, 4, 0, 0, 0, 1, 9}
	if _, err := DecodeBinary(old); !errors.Is(err, ErrBinaryDecode) {
		t.Fatalf("retired message tag decoded: %v", err)
	}
}

// TestStreamNonceGolden pins chain nonces for fixed keys and seed, at
// the first positions and one past 32 bits, through both StreamNonce
// and a reused NonceChain. Client and server derive the chain
// independently, so a change to the derivation (label, input order,
// HMAC keying) that moves a byte desynchronizes every live stream.
// Keys of 0 and 65 bytes cover the empty and hashed-first HMAC keys.
func TestStreamNonceGolden(t *testing.T) {
	seed := []byte("seed-0123456789ab")
	for _, tc := range []struct {
		keyLen int
		want   [3]Nonce // positions 0, 1 and 1<<40
	}{
		{32, [3]Nonce{"58b46ca67e027254230592eb8d33b4d8", "5935d506eb1ab38040acc6f1e060af20", "dd8889ca41ac916dc331c6d6d9435d30"}},
		{0, [3]Nonce{"0ecf9cff4bc58d35a8423caf1161b638", "7b97c05746825b70f3301365832357a1", "6b35139285c50f92c55b5272f4f027c9"}},
		{65, [3]Nonce{"d888f485973bc4e2b227bef23c4f2b91", "92ee23c3b2d0cf6c62be6b90df7fb270", "4f02c5e580fbca4867c7882047c22eeb"}},
	} {
		key := bytes.Repeat([]byte{7}, tc.keyLen)
		chain := NewNonceChain(key, seed)
		for i, seq := range []uint64{0, 1, 1 << 40} {
			if got := StreamNonce(key, seed, seq); got != tc.want[i] {
				t.Errorf("%d-byte key: StreamNonce(%d) = %s, want %s", tc.keyLen, seq, got, tc.want[i])
			}
			if got := chain.At(seq); got != tc.want[i] {
				t.Errorf("%d-byte key: NonceChain.At(%d) = %s, want %s", tc.keyLen, seq, got, tc.want[i])
			}
		}
	}
}

// goldenMessages builds one message of every tag from fixed inputs,
// with every optional field present: a page with elements, a
// certificate, and both LoginSubmit authenticators.
func goldenMessages() []any {
	hash := frame.Hash{0x11, 0x22, 0x33}
	page := &frame.Page{URL: "https://www.xyz.com/home", Title: "home", Body: "hello", HeightPX: 1600, Elements: []frame.Element{
		{ID: "stmt", Kind: frame.Button, Label: "Statement", Action: "view-statement", Bounds: geom.RectWH(180, 660, 120, 120)},
		{ID: "note", Kind: frame.Text, Label: "Welcome", Bounds: geom.RectWH(0, 0, 480, 40.5)},
	}}
	cert := &pki.Certificate{Subject: "flock-1", Role: pki.RoleFLock, PublicKey: []byte("pub"), KemKey: []byte("kem"), Issuer: "ca", Serial: 77, Signature: []byte("ca-sig")}
	return []any{
		&RegistrationPage{Domain: "www.xyz.com", Nonce: "nonce-1", Page: page, ServerCert: cert, Signature: []byte("srv-sig")},
		&RegistrationSubmit{Domain: "www.xyz.com", Account: "acct", Nonce: "nonce-1", UserPub: []byte("user-pub"), FrameHash: hash, DeviceCert: cert, Signature: []byte("dev-sig")},
		&LoginPage{Domain: "www.xyz.com", Nonce: "nonce-2", Page: page, Signature: []byte("srv-sig")},
		&LoginSubmit{Domain: "www.xyz.com", Account: "acct", Nonce: "nonce-2", SessionKeyCT: []byte("ct"), FrameHash: hash, RiskVerified: 2, RiskWindow: 12, Signature: []byte("usr-sig"), MAC: []byte{7, 7}},
		&ContentPage{Domain: "www.xyz.com", SessionID: "sess-1", Nonce: "nonce-3", Account: "acct", Page: page, Ticket: []byte("ticket"), MAC: []byte{1, 2, 3, 4}},
		testPageRequest("view-statement"),
		&ResyncRequest{Domain: "www.xyz.com", Account: "acct", SessionID: "sess-1", MAC: []byte{5}},
		&StreamHello{Domain: "www.xyz.com", Account: "acct", SessionID: "sess-1", MAC: []byte{1, 2}},
		&StreamWelcome{Domain: "www.xyz.com", SessionID: "sess-1", NonceSeed: []byte("0123456789abcdef"), Window: 12, MinVerified: 2, MAC: []byte{3}},
		&ResumeSubmit{Domain: "www.xyz.com", Account: "acct", Ticket: []byte("ticket"), FrameHash: hash, RiskVerified: 2, RiskWindow: 12, MAC: []byte{6}},
	}
}

// pinned is the size and sha256 of one byte string.
type pinned struct {
	size int
	sum  string
}

// messageGolden pins one message's encoding, signing input and MAC
// input, in that order; the zero pinned marks an input the message
// does not have.
type messageGolden [3]pinned

func pin(b []byte) pinned {
	sum := sha256.Sum256(b)
	return pinned{len(b), hex.EncodeToString(sum[:])}
}

// TestMessageWireGolden pins, for one message of every tag, the bytes
// EncodeBinary writes and the authenticator input its signature or MAC
// covers (SigningBytes for the signed messages, MACBytes for the
// MAC'd ones, both for LoginSubmit), and checks that each encoding
// decodes to a message that re-encodes to the same bytes. A codec
// change that moves an encoded or authenticated byte breaks every
// deployed peer and every stored signature, so it must show up here.
func TestMessageWireGolden(t *testing.T) {
	want := map[string]messageGolden{
		"*protocol.RegistrationPage":   {{291, "385e70e76499eafab363ba76dd877f03cf47545d35e7345bc8452da9f911b2b8"}, {284, "3b8d605d6d27d0dfdbf99801b4eddd1bee67157966d0977a04e828b41f57e804"}, {}},
		"*protocol.RegistrationSubmit": {{157, "9b3f52f8e847dafd06a1c9a1577275e55e470fb396827f04dc3d367525095726"}, {150, "d2f89437a8fbf0beaeaf435d369cba7a93c582eef32c747dc553d904df8bb09c"}, {}},
		"*protocol.LoginPage":          {{225, "2420c1bf4450b031907c2e7fb5d69fec5431a725d9bf341f0a5d22d3b9b4f9f7"}, {218, "08aacfbb563a447a7ef927752f74d3c64bf20357ee1a6cb6b2ce52339a7de6f7"}, {}},
		"*protocol.LoginSubmit":        {{99, "ee3f824d20bf8baddf82772518658c1c1ff392654021d7b0e9d23bb203845118"}, {90, "4e3a1cd316665e2e8587923fcf24cb8e7d85ac2bb2b29e15e4e5b49d40e75e07"}, {97, "67a569bbceacadef240b5dc20ab66462801ed166a0bd8e4507f0e016d670b9ab"}},
		"*protocol.ContentPage":        {{250, "23955885d4e69ea5a25ddae7437955eee3921bd5d3c757a88e5bdbba49a1d3e0"}, {}, {246, "80af172471c7843210ab8159d26918255a8f9b2f86ccd93b0a365b017eec23e7"}},
		"*protocol.PageRequest":        {{111, "fa10d25ffe9676fe3ff3b096b1466635616a2b1df5ef67b002f0fa5eb59a3b6c"}, {}, {108, "f31776d3cc506769a550843b2f99f8a8fec05f9dd925dab96263e7ce815c0ca4"}},
		"*protocol.ResyncRequest":      {{40, "a35769ce7b444ac63743a5b59496d8c90b9b86c84efe41f6d42a87b886b75211"}, {}, {39, "e44b4683fd5273675414a98e04102415c6dd164ff21a9f1df6ee2d360e3848fa"}},
		"*protocol.StreamHello":        {{41, "6b2049761e6254c7f2aeca88e279a0f02b29bcc5bdec6c4957bbf0ea7d1ef3fa"}, {}, {39, "426ca784964525f1312fe1c6bfe8c35aaa53bd094b94ecd4543a573c6f66a0bf"}},
		"*protocol.StreamWelcome":      {{60, "61e039e5d611fc33c05ffe7037b1c971961c7021ab9ea1702bc526c2fb84096f"}, {}, {59, "1900363f49f3c40b4f148b0b842e5c2dc678fdf6961795d84026a771a2b2d8e8"}},
		"*protocol.ResumeSubmit":       {{80, "5211fabefff2ec59be23677e32469f38838834dcca879b602b215a4344039d7c"}, {}, {79, "30587f2cd0a29ab2fa2b2d7a93224020d1b892badfa479c4e9059f0d7fee8735"}},
	}
	seen := map[byte]bool{}
	for _, msg := range goldenMessages() {
		name := fmt.Sprintf("%T", msg)
		w, ok := want[name]
		if !ok {
			t.Errorf("no golden for %s", name)
			continue
		}
		enc, err := EncodeBinary(msg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		seen[enc[1]] = true
		if got := pin(enc); got != w[0] {
			t.Errorf("%s encoding moved: %+v\n%x", name, got, enc)
		}
		var signing, mac pinned
		if s, ok := msg.(interface{ SigningBytes() ([]byte, error) }); ok {
			b, err := s.SigningBytes()
			if err != nil {
				t.Fatalf("%s SigningBytes: %v", name, err)
			}
			signing = pin(b)
		}
		if m, ok := msg.(Authenticated); ok {
			mac = pin(m.MACBytes())
		}
		if signing == (pinned{}) && mac == (pinned{}) {
			t.Errorf("%s has no authenticator input", name)
		}
		if signing != w[1] || mac != w[2] {
			t.Errorf("%s authenticator input moved: signing %+v, mac %+v", name, signing, mac)
		}
		dec, err := DecodeBinary(enc)
		if err != nil {
			t.Fatalf("%s does not decode: %v", name, err)
		}
		if re, err := EncodeBinary(dec); err != nil || !bytes.Equal(re, enc) {
			t.Errorf("%s re-encodes differently (%v):\n%x\n%x", name, err, re, enc)
		}
	}
	for tag := tagRegistrationPage; tag <= tagResumeSubmit; tag++ {
		if !seen[tag] && tag != retiredTag {
			t.Errorf("no golden for message tag %d", tag)
		}
	}
}
