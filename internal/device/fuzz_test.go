package device

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"reflect"
	"testing"

	"trust/internal/frame"
	"trust/internal/protocol"
	"trust/internal/webserver"
)

// answerConn is a stream connection whose server side is a fixed byte
// string: writes are accepted and dropped, reads return the answer. It
// drives one exchange with no peer goroutine.
type answerConn struct {
	*bytes.Reader
	closed bool
}

func (c *answerConn) Write(p []byte) (int, error) { return len(p), nil }

func (c *answerConn) Close() error {
	c.closed = true
	return nil
}

// fuzzSeq is the fuzzed exchange's frame sequence number.
const fuzzSeq = 5

// FuzzStreamExchange answers one device exchange with arbitrary server
// bytes: a touch batch of max(want%4, 1) requests, sent as frame
// fuzzSeq. The exchange reads the answer on the test goroutine, so a
// malformed answer can only end it, never hang it. Oracles, against a
// stateless parse of the same bytes:
//   - success returns exactly the batch's pages, each decoded from the
//     answer's leading page frames in order and echoing fuzzSeq and its
//     own index; the connection stays live;
//   - a typed rejection follows those leading pages with an ack for
//     fuzzSeq, and leaves the connection live unless the ack is
//     malformed, which leaves it dead and closed;
//   - any other failure is ErrNetwork, and the connection is dead and
//     closed.
func FuzzStreamExchange(f *testing.F) {
	req := fakeRequest(fakeSession())
	f.Fuzz(func(t *testing.T, want uint8, answer []byte) {
		n := max(int(want%4), 1)
		rwc := &answerConn{Reader: bytes.NewReader(answer)}
		c := &streamClientConn{rwc: rwc, br: bufio.NewReader(rwc), nextSeq: fuzzSeq - 1}
		reqs := make([]*protocol.PageRequest, n)
		for i := range reqs {
			reqs[i] = req
		}
		pages, err := c.submitBatch(nil, 0, reqs)

		// The answer's frames before the first that is not a page echoing
		// fuzzSeq and its index, and that frame (ok false when it does not
		// read).
		r := bytes.NewReader(answer)
		var dec protocol.Decoder
		var ref []*protocol.ContentPage
		var ft protocol.FrameType
		var payload []byte
		ok := false
		for {
			var rerr error
			if ft, payload, rerr = protocol.ReadFrame(r); rerr != nil {
				ok = false
				break
			}
			ok = true
			if ft != protocol.FramePage || len(ref) == n {
				break
			}
			seq, index, cp, derr := dec.DecodePageFrame(payload)
			if derr != nil || seq != fuzzSeq || index != len(ref) {
				break
			}
			ref = append(ref, cp)
		}

		switch {
		case err == nil:
			if !c.alive() || rwc.closed {
				t.Fatal("a successful exchange killed the connection")
			}
			if len(pages) != n || len(ref) != n {
				t.Fatalf("batch of %d returned %d pages; the answer leads with %d matching page frames", n, len(pages), len(ref))
			}
			for i := range pages {
				if !reflect.DeepEqual(pages[i], ref[i]) {
					t.Fatalf("page %d differs from the answer's page frame %d", i, i)
				}
			}
			if c.served != uint64(n) {
				t.Fatalf("served = %d after %d pages", c.served, n)
			}
		case !errors.Is(err, ErrNetwork):
			if pages != nil {
				t.Fatalf("rejection %v returned %d pages", err, len(pages))
			}
			// The server closes the connection after a malformed ack, so
			// the device drops it; any other rejection leaves it live.
			if malformed := errors.Is(err, webserver.ErrMalformed); c.alive() == malformed || rwc.closed != malformed {
				t.Fatalf("typed rejection %v: connection alive %v, closed %v", err, c.alive(), rwc.closed)
			}
			if len(ref) >= n || !ok || ft != protocol.FrameAck {
				t.Fatalf("typed rejection %v without an ack after %d leading pages", err, len(ref))
			}
			if seq, _, _, derr := protocol.DecodeAck(payload); derr != nil || seq != fuzzSeq {
				t.Fatalf("typed rejection %v from an ack for seq %d (%v), want %d", err, seq, derr, fuzzSeq)
			}
		default:
			if pages != nil {
				t.Fatalf("failed exchange %v returned %d pages", err, len(pages))
			}
			if c.alive() || !rwc.closed {
				t.Fatalf("exchange failed with %v but the connection lives", err)
			}
		}
	})
}

// httpFuzzKinds are the response types FuzzHTTPResponse decodes, by a
// record's kind byte modulo their count.
const httpFuzzKinds = 3

// appendHTTPRecord appends one FuzzHTTPResponse record: a kind byte, a
// 2-byte big-endian body length, the body.
func appendHTTPRecord(dst []byte, kind byte, body []byte) []byte {
	return append(append(dst, kind, byte(len(body)>>8), byte(len(body))), body...)
}

// fuzzPage is a content page whose every interned field is distinct
// per i: 15 strings, so ten of them overflow the 64-slot intern table.
func fuzzPage(i int) *protocol.ContentPage {
	s := func(field string) string { return fmt.Sprintf("%s-%d", field, i) }
	p := &frame.Page{URL: s("https://www.xyz.com/p"), Title: s("title"), Body: s("body"), HeightPX: 800}
	for j := 0; j < 3; j++ {
		p.Elements = append(p.Elements, frame.Element{ID: s(fmt.Sprint("id", j)), Kind: frame.Button, Label: s(fmt.Sprint("label", j)), Action: s(fmt.Sprint("act", j))})
	}
	return &protocol.ContentPage{Domain: s("dom"), SessionID: s("sid"), Nonce: protocol.Nonce(s("n")), Account: s("acct"), Page: p, Ticket: []byte{byte(i)}, MAC: []byte{1, 2, byte(i)}}
}

// FuzzHTTPResponse feeds a sequence of binary response bodies through
// one HTTP transport's decodeResponse, whose intern table carries state
// from body to body. Each record is a kind byte choosing the route's
// message type (content, login or registration page), a 2-byte length
// and that many body bytes (fewer when the input ends). Oracle: each
// result deep-equals the stateless protocol.DecodeAs of the same bytes,
// or both fail. The seeds hold over 64 distinct short strings, so
// eviction runs, and come back to evicted and still-cached pages.
func FuzzHTTPResponse(f *testing.F) {
	var many []byte
	for _, i := range []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 0, 9, 4} {
		body, err := protocol.EncodeBinary(fuzzPage(i))
		if err != nil {
			f.Fatal(err)
		}
		many = appendHTTPRecord(many, 0, body)
	}
	f.Add(many)
	login, _ := protocol.EncodeBinary(&protocol.LoginPage{Domain: "dom-1", Nonce: "n-1", Page: fuzzPage(1).Page, Signature: []byte{9}})
	reg, _ := protocol.EncodeBinary(&protocol.RegistrationPage{Domain: "dom-2", Nonce: "n-2", Page: fuzzPage(2).Page, Signature: []byte{8}})
	page, _ := protocol.EncodeBinary(fuzzPage(1))
	var mixed []byte
	mixed = appendHTTPRecord(mixed, 1, login)
	mixed = appendHTTPRecord(mixed, 2, reg)
	mixed = appendHTTPRecord(mixed, 0, page)
	mixed = appendHTTPRecord(mixed, 0, login)              // the wrong type for the route
	mixed = appendHTTPRecord(mixed, 0, page[:len(page)-3]) // torn
	mixed = appendHTTPRecord(mixed, 0, page)
	f.Add(mixed)
	f.Fuzz(func(t *testing.T, data []byte) {
		tr := &HTTP{Binary: true}
		for len(data) >= 3 {
			kind, n := data[0], int(data[1])<<8|int(data[2])
			data = data[3:]
			body := data[:min(n, len(data))]
			data = data[len(body):]
			switch kind % httpFuzzKinds {
			case 0:
				checkHTTPDecode[protocol.ContentPage](t, tr, body)
			case 1:
				checkHTTPDecode[protocol.LoginPage](t, tr, body)
			case 2:
				checkHTTPDecode[protocol.RegistrationPage](t, tr, body)
			}
		}
	})
}

// checkHTTPDecode decodes body as a 200 binary response of type M
// through tr and checks it against the stateless decoder. No decodable
// message holds a NaN, so DeepEqual is exact.
func checkHTTPDecode[M any](t *testing.T, tr *HTTP, body []byte) {
	resp := &http.Response{
		StatusCode: http.StatusOK,
		Header:     http.Header{"Content-Type": webserver.BinaryHeader},
		Body:       io.NopCloser(bytes.NewReader(body)),
	}
	var got M
	err := decodeResponse(tr, resp, &got)
	want, werr := protocol.DecodeAs[M](body)
	switch {
	case (err == nil) != (werr == nil):
		t.Fatalf("%T: transport decode err %v, stateless err %v", got, err, werr)
	case err == nil && !reflect.DeepEqual(&got, want):
		t.Fatalf("%T: transport decode differs from the stateless one:\n got %+v\nwant %+v", got, got, *want)
	}
}
