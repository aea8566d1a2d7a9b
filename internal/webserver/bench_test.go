package webserver

import (
	"testing"
	"time"

	"trust/internal/frame"
	"trust/internal/protocol"
)

// BenchmarkLoginRoundTrip measures one full Fig 10 login: page serve,
// FLock-side verification and session-key minting, server-side
// decryption and session establishment.
func BenchmarkLoginRoundTrip(b *testing.B) {
	r := newBenchRig(b)
	r.register(b, "bench-acct")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lp := r.server.ServeLoginPage(r.now)
		sub, sess, err := r.client.HandleLoginPage(r.now, lp, r.server.Certificate(), "bench-acct", 12)
		if err != nil {
			b.Fatal(err)
		}
		cp, err := r.server.HandleLogin(r.now, sub)
		if err != nil {
			b.Fatal(err)
		}
		if err := r.client.AcceptContentPage(sess, cp); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLoginResume measures the ticket fast path against
// BenchmarkLoginRoundTrip directly above: the client's MAC-only
// submission, the server's symmetric-only verification (AEAD ticket
// open, MAC check, nonce burn), and the rekeyed acceptance — no
// signature verify, no KEM decapsulation. Each iteration chains onto
// the ticket the previous response issued.
func BenchmarkLoginResume(b *testing.B) {
	r := newBenchRig(b)
	r.register(b, "bench-acct")
	sess, cp := r.login(b, "bench-acct")
	ticket, key := cp.Ticket, sess.Key
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sub, rsess, err := r.client.BuildResumeSubmit(r.now, "www.xyz.com", "bench-acct", ticket, key, 12)
		if err != nil {
			b.Fatal(err)
		}
		rcp, err := r.server.HandleResume(r.now, sub)
		if err != nil {
			b.Fatal(err)
		}
		if err := r.client.AcceptResumePage(rsess, rcp); err != nil {
			b.Fatal(err)
		}
		ticket, key = rcp.Ticket, rsess.Key
	}
}

// TestLoginResumeAllocBudget pins the resume round trip's allocation
// count: the fast path must stay allocation-light or the "cold path as
// cheap as the hot path" story regresses silently. The ticket AEADs are
// cached per epoch and a MACer keys itself in two allocations (itself
// and its digest), so the four keys of a resume (ticket key and resumed
// key on each side) cost 8 and the rest is the values the submission
// and response keep; the tickets' AAD rides in their sealed and opened
// buffers. The budget is the measured 26 plus 10%; the race detector
// defeats sync.Pool reuse in the MAC and encoding buffers, which adds
// ~16 (measured 42).
func TestLoginResumeAllocBudget(t *testing.T) {
	r := newBenchRig(t)
	r.register(t, "bench-acct")
	sess, cp := r.login(t, "bench-acct")
	ticket, key := cp.Ticket, sess.Key
	allocs := testing.AllocsPerRun(50, func() {
		sub, rsess, err := r.client.BuildResumeSubmit(r.now, "www.xyz.com", "bench-acct", ticket, key, 12)
		if err != nil {
			t.Fatal(err)
		}
		rcp, err := r.server.HandleResume(r.now, sub)
		if err != nil {
			t.Fatal(err)
		}
		if err := r.client.AcceptResumePage(rsess, rcp); err != nil {
			t.Fatal(err)
		}
		ticket, key = rcp.Ticket, rsess.Key
	})
	budget := 28.0
	if raceEnabled {
		budget = 51
	}
	if allocs > budget {
		t.Fatalf("resume round trip costs %.0f allocs, budget %.0f", allocs, budget)
	}
}

// TestPageRequestAllocBudget pins the direct continuous-auth round
// trip — build and MAC the request, verify it and MAC the response,
// verify the response and render and hash its frame — at the
// allocations the kept values need: the request and its tag, the
// response, its tag and nonce, and the audit entry's share. MAC inputs
// and the rendered frame are built in reused buffers and must not show
// up here.
func TestPageRequestAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector intentionally defeats sync.Pool reuse")
	}
	r := newBenchRig(t)
	r.register(t, "bench-acct")
	sess, _ := r.login(t, "bench-acct")
	roundTrip := func() {
		req, err := r.client.BuildPageRequest(r.now, sess, "view-statement", 12)
		if err != nil {
			t.Fatal(err)
		}
		cp, err := r.server.HandlePageRequest(r.now, req)
		if err != nil {
			t.Fatal(err)
		}
		if err := r.client.AcceptContentPage(sess, cp); err != nil {
			t.Fatal(err)
		}
		r.client.DisplayPage(cp.Page, frame.View{Zoom: 1})
	}
	roundTrip() // first use builds the per-session HMAC states
	allocs := testing.AllocsPerRun(200, roundTrip)
	if allocs > 8 {
		t.Fatalf("page request round trip costs %.2f allocs, budget 8", allocs)
	}
}

// TestServeStreamAllocBudget pins the server half of a streamed page
// request: ServeStream over net.Pipe, fed pre-encoded single-request
// batches whose chain nonces and MACs were computed up front, with the
// responses read through a warm Decoder, so the only allocations left
// are the server's. The connection reuses its batch, request, MAC
// storage and content page, so what remains is the two nonce strings:
// the request's, decoded from the frame, and the response's chain
// nonce, which the session keeps as its last nonce.
func TestServeStreamAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector intentionally defeats sync.Pool reuse")
	}
	r := newBenchRig(t)
	r.register(t, "bench-acct")
	sess, _ := r.login(t, "bench-acct")
	conn, w, _ := openStream(t, r, sess)
	defer conn.Close()

	const warm, runs = 50, 200
	frames := make([][]byte, warm+runs+1) // AllocsPerRun warms up once more
	for i := range frames {
		nonce := protocol.StreamNonce(sess.Key, w.NonceSeed, uint64(i))
		req, err := r.client.BuildPageRequestAt(r.now, sess, "view-statement", 12, nonce)
		if err != nil {
			t.Fatal(err)
		}
		if frames[i], err = protocol.AppendTouchBatchFrame(nil, uint64(i+1), r.now, []*protocol.PageRequest{req}); err != nil {
			t.Fatal(err)
		}
	}
	var dec protocol.Decoder
	next := 0
	request := func() {
		if _, err := conn.Write(frames[next]); err != nil {
			t.Fatal(err)
		}
		next++
		if ft, _, err := dec.ReadFrame(conn); err != nil || ft != protocol.FramePage {
			t.Fatalf("request %d answered with %s frame (%v)", next, ft, err)
		}
	}
	for i := 0; i < warm; i++ {
		request()
	}
	if allocs := testing.AllocsPerRun(runs, request); allocs > 2 {
		t.Fatalf("streamed page request costs the server %.2f allocs, budget 2", allocs)
	}
}

// BenchmarkPageRequestRoundTrip measures one continuous-auth request.
func BenchmarkPageRequestRoundTrip(b *testing.B) {
	r := newBenchRig(b)
	r.register(b, "bench-acct")
	sess, cp := r.login(b, "bench-acct")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req, err := r.client.BuildPageRequest(r.now, sess, "view-statement", 12)
		if err != nil {
			b.Fatal(err)
		}
		cp, err = r.server.HandlePageRequest(r.now, req)
		if err != nil {
			b.Fatal(err)
		}
		if err := r.client.AcceptContentPage(sess, cp); err != nil {
			b.Fatal(err)
		}
	}
	_ = cp
}

// newBenchRig adapts the shared test rig for benchmarks (and for the
// allocation-budget guard test, which shares the benchmark's setup).
func newBenchRig(b testing.TB) *rig {
	b.Helper()
	r := newRig(b)
	// Pre-verify a touch so client operations are authorized.
	r.touchButton(b)
	r.now += time.Millisecond
	return r
}
