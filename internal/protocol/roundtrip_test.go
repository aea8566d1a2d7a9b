package protocol_test

import (
	"bytes"
	"encoding/json"
	"testing"
	"testing/quick"

	"trust/internal/frame"
	"trust/internal/geom"
	"trust/internal/protocol"
)

// The HTTP transport can move messages as JSON; authenticators are
// computed over the binary field writer's bytes for the same structs.
// If a JSON round trip changed those bytes, every signature and MAC
// would break across the wire — so round-trip stability is a protocol
// invariant, checked here property-style.

func rtPage(seed byte) *frame.Page {
	return &frame.Page{
		URL:      "https://x.example/p",
		Title:    string(rune('A' + seed%26)),
		Body:     "body",
		HeightPX: float64(800 + int(seed)*10),
		Elements: []frame.Element{{
			ID: "b", Kind: frame.Button, Label: "L", Action: "act",
			Bounds: geom.RectWH(float64(seed), 660, 120, 120),
		}},
	}
}

func TestLoginSubmitJSONRoundTripStable(t *testing.T) {
	if err := quick.Check(func(account string, nonce string, ct []byte, rv, rw uint8, sig, mac []byte) bool {
		m := &protocol.LoginSubmit{
			Domain: "x.example", Account: account, Nonce: protocol.Nonce(nonce),
			SessionKeyCT: ct, RiskVerified: int(rv), RiskWindow: int(rw),
			Signature: sig, MAC: mac,
		}
		m.FrameHash[0] = rv
		data, err := json.Marshal(m)
		if err != nil {
			return false
		}
		var back protocol.LoginSubmit
		if err := json.Unmarshal(data, &back); err != nil {
			return false
		}
		return bytes.Equal(signingBytes(m), signingBytes(&back)) &&
			bytes.Equal(m.MACBytes(), back.MACBytes())
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPageRequestJSONRoundTripStable(t *testing.T) {
	if err := quick.Check(func(account, sid, action string, nonce string, rv, rw uint8, mac []byte) bool {
		m := &protocol.PageRequest{
			Domain: "x.example", Account: account, SessionID: sid,
			Nonce: protocol.Nonce(nonce), Action: action,
			RiskVerified: int(rv), RiskWindow: int(rw), MAC: mac,
		}
		data, err := json.Marshal(m)
		if err != nil {
			return false
		}
		var back protocol.PageRequest
		if err := json.Unmarshal(data, &back); err != nil {
			return false
		}
		return bytes.Equal(m.MACBytes(), back.MACBytes())
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRegistrationPageJSONRoundTripStable(t *testing.T) {
	for seed := byte(0); seed < 20; seed++ {
		m := &protocol.RegistrationPage{
			Domain: "x.example", Nonce: protocol.Nonce("no"),
			Page:      rtPage(seed),
			Signature: []byte{1, 2, 3},
		}
		data, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		var back protocol.RegistrationPage
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(signingBytes(m), signingBytes(&back)) {
			t.Fatalf("seed %d: signing bytes changed across JSON round trip", seed)
		}
	}
}

func TestContentPageJSONRoundTripStable(t *testing.T) {
	for seed := byte(0); seed < 20; seed++ {
		m := &protocol.ContentPage{
			Domain: "x.example", SessionID: "s", Nonce: "n", Account: "a",
			Page: rtPage(seed), MAC: []byte{9},
		}
		data, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		var back protocol.ContentPage
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(m.MACBytes(), back.MACBytes()) {
			t.Fatalf("seed %d: MAC bytes changed across JSON round trip", seed)
		}
	}
}
