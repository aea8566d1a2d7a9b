package protocol

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"trust/internal/pki"
)

func poolTestRequest(g, i int) *PageRequest {
	req := &PageRequest{
		Domain:       "pool.example",
		Account:      fmt.Sprintf("acct-%d-%d", g, i),
		SessionID:    fmt.Sprintf("sess-%d-%d", g, i),
		Nonce:        Nonce(fmt.Sprintf("nonce-%d-%d", g, i)),
		Action:       "view-statement",
		RiskVerified: g,
		RiskWindow:   12,
		MAC:          []byte{byte(g), byte(i), byte(i >> 8), 0xaa},
	}
	for k := range req.FrameHash {
		req.FrameHash[k] = byte(g*31 + i + k)
	}
	return req
}

// TestEncodeBinaryConcurrentIsolation hammers the pooled encoder from
// many goroutines with distinct messages and verifies every returned
// slice round-trips to its own message — catching any aliasing of the
// recycled encode buffers.
func TestEncodeBinaryConcurrentIsolation(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				req := poolTestRequest(g, i)
				data, err := EncodeBinary(req)
				if err != nil {
					t.Errorf("encode %d/%d: %v", g, i, err)
					return
				}
				// Interleave another encode before decoding: if the
				// pool handed back aliased bytes, this would clobber
				// data.
				if _, err := EncodeBinary(poolTestRequest(g, i+1)); err != nil {
					t.Errorf("interleaved encode %d/%d: %v", g, i, err)
					return
				}
				msg, err := DecodeBinary(data)
				if err != nil {
					t.Errorf("decode %d/%d: %v", g, i, err)
					return
				}
				got, ok := msg.(*PageRequest)
				if !ok {
					t.Errorf("decode %d/%d: wrong type %T", g, i, msg)
					return
				}
				if got.Account != req.Account || got.SessionID != req.SessionID ||
					got.Nonce != req.Nonce || got.FrameHash != req.FrameHash ||
					!bytes.Equal(got.MAC, req.MAC) {
					t.Errorf("round trip %d/%d corrupted: %+v", g, i, got)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestEncodeDoesNotWriteToMessage runs every encoding entry point from
// eight goroutines on one message whose page or certificate they all
// share, the way the server's page table is shared by its handlers:
// encoding reads the message and never stores into it, even a value it
// already holds, so the race detector stays silent.
func TestEncodeDoesNotWriteToMessage(t *testing.T) {
	msgs := goldenMessages()
	cp := msgs[4].(*ContentPage)
	rp := msgs[0].(*RegistrationPage)
	key := bytes.Repeat([]byte{7}, pki.SessionKeySize)
	cp.MAC = SealMAC(pki.NewMACer(key), cp)
	want := map[any][]byte{}
	for _, m := range []any{cp, rp} {
		enc, err := EncodeBinary(m)
		if err != nil {
			t.Fatal(err)
		}
		want[m] = enc
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			mc := pki.NewMACer(key)
			var buf []byte
			for i := 0; i < 50; i++ {
				for _, m := range []any{cp, rp} {
					enc, err := EncodeBinary(m)
					if err != nil || !bytes.Equal(enc, want[m]) {
						t.Errorf("%T: EncodeBinary (err %v) differs", m, err)
						return
					}
					if buf, err = EncodeBinaryAppend(buf[:0], m); err != nil || !bytes.Equal(buf, want[m]) {
						t.Errorf("%T: EncodeBinaryAppend (err %v) differs", m, err)
						return
					}
				}
				if _, err := rp.SigningBytes(); err != nil {
					t.Errorf("SigningBytes: %v", err)
					return
				}
				if tag := SealMAC(mc, cp); !bytes.Equal(tag, cp.MAC) || !VerifyMAC(mc, cp, tag) {
					t.Error("SealMAC/VerifyMAC disagree on the shared page")
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestSigningInputLeavesAuthenticators pins that building LoginSubmit's
// signing input, which empties both its authenticators, empties them
// in the encoding only and not on the caller's message.
func TestSigningInputLeavesAuthenticators(t *testing.T) {
	ls := goldenMessages()[3].(*LoginSubmit)
	sig, mac := bytes.Clone(ls.Signature), bytes.Clone(ls.MAC)
	if _, err := ls.SigningBytes(); err != nil {
		t.Fatal(err)
	}
	_ = ls.MACBytes()
	if !bytes.Equal(ls.Signature, sig) || !bytes.Equal(ls.MAC, mac) {
		t.Fatalf("authenticator input cleared the message: signature %x, MAC %x", ls.Signature, ls.MAC)
	}
}

// TestEncodeBinaryOversizeNotPooled pins the pool's size cap: a message
// that inflates the encode buffer past the cap still encodes correctly
// (the buffer is simply dropped instead of recycled).
func TestEncodeBinaryOversizeNotPooled(t *testing.T) {
	big := &PageRequest{
		Domain:  "pool.example",
		Account: string(bytes.Repeat([]byte("x"), 128<<10)),
		Action:  "home",
		MAC:     []byte{1},
	}
	data, err := EncodeBinary(big)
	if err != nil {
		t.Fatal(err)
	}
	msg, err := DecodeBinary(data)
	if err != nil {
		t.Fatal(err)
	}
	if got := msg.(*PageRequest); got.Account != big.Account {
		t.Fatal("oversize message corrupted")
	}
	// A small message right after must be unaffected.
	small := poolTestRequest(0, 0)
	data, err = EncodeBinary(small)
	if err != nil {
		t.Fatal(err)
	}
	if msg, err = DecodeBinary(data); err != nil {
		t.Fatal(err)
	}
	if got := msg.(*PageRequest); got.Account != small.Account {
		t.Fatal("post-oversize message corrupted")
	}
}

// BenchmarkEncodeBinaryPageRequest tracks the hot-path encode cost;
// the pooled writer should hold allocations to the returned slice.
func BenchmarkEncodeBinaryPageRequest(b *testing.B) {
	req := poolTestRequest(1, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := EncodeBinary(req); err != nil {
			b.Fatal(err)
		}
	}
}
