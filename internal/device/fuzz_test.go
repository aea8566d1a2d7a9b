package device

import (
	"bufio"
	"bytes"
	"errors"
	"reflect"
	"testing"
	"time"

	"trust/internal/protocol"
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

// The fuzzed exchange's frame sequence number, and its heartbeat's
// stamp when it is a ping.
const (
	fuzzSeq = 5
	fuzzHB  = 3 * time.Second
)

// FuzzStreamExchange answers one device exchange with arbitrary server
// bytes: a heartbeat stamped fuzzHB when want%4 is 0, else a touch
// batch of want%4 requests, sent as frame fuzzSeq. The exchange reads
// the answer on the test goroutine, so a malformed answer can only end
// it, never hang it. Oracles, against a stateless parse of the same
// bytes:
//   - success returns exactly the batch's pages, each decoded from the
//     answer's leading page frames in order and echoing fuzzSeq and its
//     own index, or follows a verbatim echo of the heartbeat; the
//     connection stays live;
//   - a typed rejection follows those leading pages with an ack for
//     fuzzSeq, and leaves the connection live;
//   - any other failure is ErrNetwork, and the connection is dead and
//     closed.
func FuzzStreamExchange(f *testing.F) {
	req := fakeRequest(fakeSession())
	f.Fuzz(func(t *testing.T, want uint8, answer []byte) {
		n := int(want % 4)
		rwc := &answerConn{Reader: bytes.NewReader(answer)}
		c := &streamClientConn{rwc: rwc, br: bufio.NewReader(rwc), nextSeq: fuzzSeq - 1}
		var pages []*protocol.ContentPage
		var err error
		if n == 0 {
			err = c.ping(fuzzHB)
		} else {
			reqs := make([]*protocol.PageRequest, n)
			for i := range reqs {
				reqs[i] = req
			}
			pages, err = c.submitBatch(nil, 0, reqs)
		}

		// The answer's frames before the first that is not a page echoing
		// fuzzSeq and its index, and that frame (ok false when it does not
		// read).
		r := bytes.NewReader(answer)
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
			seq, index, cp, derr := protocol.DecodePageFrame(payload)
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
			if n == 0 {
				if len(ref) != 0 || !ok || ft != protocol.FrameHeartbeat {
					t.Fatalf("ping succeeded without a leading heartbeat echo (%d pages, %s)", len(ref), ft)
				}
				seq, now, derr := protocol.DecodeHeartbeat(payload)
				if derr != nil || seq != fuzzSeq || now != fuzzHB {
					t.Fatalf("ping accepted echo %d/%v (%v), want %d/%v", seq, now, derr, fuzzSeq, fuzzHB)
				}
				return
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
			if !c.alive() || rwc.closed {
				t.Fatalf("typed rejection %v killed the connection", err)
			}
			if len(ref) >= max(n, 1) || !ok || ft != protocol.FrameAck {
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
