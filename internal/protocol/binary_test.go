package protocol_test

import (
	"bytes"
	"encoding/json"
	"testing"
	"testing/quick"

	"trust/internal/frame"
	"trust/internal/pki"
	"trust/internal/protocol"
)

// binRoundTrip encodes, decodes, and compares authenticator inputs: a
// binary round trip must preserve exactly what authenticators cover.
func binRoundTrip(t *testing.T, msg any, canon func(any) []byte) {
	t.Helper()
	data, err := protocol.EncodeBinary(msg)
	if err != nil {
		t.Fatal(err)
	}
	back, err := protocol.DecodeBinary(data)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(canon(msg), canon(back)) {
		t.Fatalf("authenticator input changed across binary round trip:\n%T", msg)
	}
}

// signingBytes is SigningBytes for a message whose fields are all in
// range.
func signingBytes(m interface{ SigningBytes() ([]byte, error) }) []byte {
	b, err := m.SigningBytes()
	if err != nil {
		panic(err)
	}
	return b
}

func sampleCert() *pki.Certificate {
	ca, _ := pki.NewCA("root", pki.NewDeterministicRand(1))
	keys, _ := pki.GenerateKeyPair(pki.NewDeterministicRand(2))
	kem, _ := pki.GenerateKemPair(pki.NewDeterministicRand(3))
	cert, _ := ca.IssueWithKem("www.xyz.com", pki.RoleServer, keys.Public, kem.Public.Bytes())
	return cert
}

func TestBinaryRoundTripAllMessages(t *testing.T) {
	page := rtPage(5)
	cert := sampleCert()
	var h frame.Hash
	h[0], h[31] = 0xab, 0xcd

	binRoundTrip(t, &protocol.RegistrationPage{
		Domain: "www.xyz.com", Nonce: "n1", Page: page, ServerCert: cert, Signature: []byte{1, 2},
	}, func(v any) []byte { return signingBytes(v.(*protocol.RegistrationPage)) })

	binRoundTrip(t, &protocol.RegistrationSubmit{
		Domain: "www.xyz.com", Account: "a", Nonce: "n2", UserPub: []byte{9, 9},
		FrameHash: h, DeviceCert: cert, Signature: []byte{3},
	}, func(v any) []byte { return signingBytes(v.(*protocol.RegistrationSubmit)) })

	binRoundTrip(t, &protocol.LoginPage{
		Domain: "www.xyz.com", Nonce: "n3", Page: page, Signature: []byte{4},
	}, func(v any) []byte { return signingBytes(v.(*protocol.LoginPage)) })

	binRoundTrip(t, &protocol.LoginSubmit{
		Domain: "www.xyz.com", Account: "a", Nonce: "n4", SessionKeyCT: []byte{5, 6},
		FrameHash: h, RiskVerified: 3, RiskWindow: 12, Signature: []byte{7}, MAC: []byte{8},
	}, func(v any) []byte { return v.(*protocol.LoginSubmit).MACBytes() })

	binRoundTrip(t, &protocol.ContentPage{
		Domain: "www.xyz.com", SessionID: "s", Nonce: "n5", Account: "a", Page: page, MAC: []byte{9},
	}, func(v any) []byte { return v.(*protocol.ContentPage).MACBytes() })

	binRoundTrip(t, &protocol.PageRequest{
		Domain: "www.xyz.com", Account: "a", SessionID: "s", Nonce: "n6", Action: "act",
		FrameHash: h, RiskVerified: 2, RiskWindow: 12, MAC: []byte{10},
	}, func(v any) []byte { return v.(*protocol.PageRequest).MACBytes() })

	binRoundTrip(t, &protocol.ResyncRequest{
		Domain: "www.xyz.com", Account: "a", SessionID: "s", MAC: []byte{11, 12},
	}, func(v any) []byte { return v.(*protocol.ResyncRequest).MACBytes() })
}

// TestBinaryDecodeTruncated chops a valid encoding at every length and
// checks the decoder fails cleanly rather than accepting a prefix.
func TestBinaryDecodeTruncated(t *testing.T) {
	var h frame.Hash
	full, err := protocol.EncodeBinary(&protocol.PageRequest{
		Domain: "www.xyz.com", Account: "acct", SessionID: "sess", Nonce: "nonce",
		Action: "view", FrameHash: h, RiskVerified: 2, RiskWindow: 12,
		MAC: bytes.Repeat([]byte{7}, 32),
	})
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; n < len(full); n++ {
		if _, err := protocol.DecodeBinary(full[:n]); err == nil {
			t.Fatalf("truncation to %d of %d bytes decoded", n, len(full))
		}
	}
	if _, err := protocol.DecodeBinary(full); err != nil {
		t.Fatalf("full message failed: %v", err)
	}
}

func TestBinarySmallerThanJSON(t *testing.T) {
	var h frame.Hash
	msg := &protocol.PageRequest{
		Domain: "bank.example", Account: "acct-1", SessionID: "0123456789ab",
		Nonce: "00112233445566778899aabbccddeeff", Action: "view-statement",
		FrameHash: h, RiskVerified: 4, RiskWindow: 12,
		MAC: bytes.Repeat([]byte{1}, 32),
	}
	bin, err := protocol.EncodeBinary(msg)
	if err != nil {
		t.Fatal(err)
	}
	js, err := json.Marshal(msg)
	if err != nil {
		t.Fatal(err)
	}
	if len(bin) >= len(js) {
		t.Fatalf("binary (%d B) not smaller than JSON (%d B)", len(bin), len(js))
	}
	t.Logf("PageRequest: binary %d B vs JSON %d B", len(bin), len(js))
}

func TestBinaryDecodeRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		{},
		{0},                  // bad version
		{1},                  // missing tag
		{1, 99},              // unknown tag
		{1, 6, 0, 0, 0, 200}, // truncated length
		append([]byte{1, 6}, bytes.Repeat([]byte{0}, 3)...),
	}
	for i, c := range cases {
		if _, err := protocol.DecodeBinary(c); err == nil {
			t.Errorf("case %d: garbage decoded", i)
		}
	}
	// Trailing bytes after a valid message are rejected too.
	ok, _ := protocol.EncodeBinary(&protocol.PageRequest{Domain: "d"})
	if _, err := protocol.DecodeBinary(append(ok, 0xff)); err == nil {
		t.Error("trailing bytes accepted")
	}
}

func TestBinaryDecodeNeverPanics(t *testing.T) {
	if err := quick.Check(func(data []byte) bool {
		// Must return an error or a message, never panic.
		_, _ = protocol.DecodeBinary(data)
		return true
	}, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestBinaryEncodeUnknownType(t *testing.T) {
	if _, err := protocol.EncodeBinary(42); err == nil {
		t.Fatal("unknown type encoded")
	}
}

func TestBinaryCertificateSurvives(t *testing.T) {
	cert := sampleCert()
	msg := &protocol.RegistrationPage{Domain: "www.xyz.com", Nonce: "n", Page: rtPage(1), ServerCert: cert, Signature: []byte{1}}
	data, _ := protocol.EncodeBinary(msg)
	back, err := protocol.DecodeBinary(data)
	if err != nil {
		t.Fatal(err)
	}
	got := back.(*protocol.RegistrationPage).ServerCert
	ca, _ := pki.NewCA("root", pki.NewDeterministicRand(1))
	if err := got.Verify(ca.PublicKey(), pki.RoleServer); err != nil {
		t.Fatalf("certificate broken by binary transport: %v", err)
	}
}
