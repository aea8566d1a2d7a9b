package device

import (
	"encoding/binary"
	"errors"
	"io"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"trust/internal/fingerprint"
	"trust/internal/frame"
	"trust/internal/pki"
	"trust/internal/protocol"
	"trust/internal/sim"
	"trust/internal/testbed"
	"trust/internal/webserver"
)

// newStreamFixture builds a device on the streamed transport: every
// dial opens a net.Pipe with a server read loop on the far end.
// wrapDial, when non-nil, interposes on the dial function (fault
// injection, dial failure).
func newStreamFixture(t testing.TB, wrapDial func(func() (io.ReadWriteCloser, error)) func() (io.ReadWriteCloser, error)) (*fixture, *Stream) {
	t.Helper()
	ca, err := pki.NewCA("trust-root", pki.NewDeterministicRand(1))
	if err != nil {
		t.Fatal(err)
	}
	srv, err := webserver.New("www.xyz.com", ca, 7)
	if err != nil {
		t.Fatal(err)
	}
	f := fingerprint.Synthesize(4242, fingerprint.Loop)
	mod, err := testbed.Module(ca, "device-1", 99, f)
	if err != nil {
		t.Fatal(err)
	}
	dial := func() (io.ReadWriteCloser, error) {
		c1, c2 := net.Pipe()
		go srv.ServeStream(c2)
		return c1, nil
	}
	if wrapDial != nil {
		dial = wrapDial(dial)
	}
	tr := &Stream{Dial: dial, Fallback: &InMemory{Server: srv}}
	dev := New("phone", mod, tr)
	return &fixture{ca: ca, server: srv, dev: dev, finger: f}, tr
}

func TestStreamBrowseEndToEnd(t *testing.T) {
	fx, tr := newStreamFixture(t, nil)
	fx.registerAndLogin(t)
	if !tr.Streaming() {
		t.Fatal("transport not streaming after login")
	}
	accepted := serverMetric(t, fx.server, "accepted")
	for _, action := range []string{"view-statement", "home", "view-statement"} {
		fx.touchOwner(t)
		if err := fx.dev.Browse(fx.now, action); err != nil {
			t.Fatalf("browse %s: %v", action, err)
		}
	}
	if got := serverMetric(t, fx.server, "accepted") - accepted; got != 3 {
		t.Fatalf("server accepted %d streamed requests, want 3", got)
	}
	if st := tr.Stats(); st.Dials != 1 || st.Redials != 0 || st.Downgrades != 0 {
		t.Fatalf("unexpected stream stats %+v", st)
	}
	if report := fx.server.RunAudit(); report.Tampered != 0 {
		t.Fatalf("streamed browsing flagged by audit: %d of %d", report.Tampered, report.Checked)
	}
	if n := serverMetric(t, fx.server, "streams"); n != 1 {
		t.Fatalf("server tracks %d streams, want 1", n)
	}
}

func TestStreamBatchPipelinesRequests(t *testing.T) {
	fx, tr := newStreamFixture(t, nil)
	fx.registerAndLogin(t)
	fx.touchOwner(t)
	accepted := serverMetric(t, fx.server, "accepted")
	if err := fx.dev.BrowseBatch(fx.now, []string{"view-statement", "home", "view-statement", "home"}); err != nil {
		t.Fatalf("browse batch: %v", err)
	}
	if got := serverMetric(t, fx.server, "accepted") - accepted; got != 4 {
		t.Fatalf("server accepted %d of the batch, want 4", got)
	}
	if !tr.Streaming() {
		t.Fatal("stream died during batch")
	}
	// The session nonce advanced 4 chain steps; an ordinary browse on
	// the same stream must still line up.
	fx.touchOwner(t)
	if err := fx.dev.Browse(fx.now, "home"); err != nil {
		t.Fatalf("browse after batch: %v", err)
	}
}

func TestStreamBadNonceRecoversViaStreamResync(t *testing.T) {
	fx, _ := newStreamFixture(t, nil)
	fx.registerAndLogin(t)
	fx.dev.SetRetryPolicy(RetryPolicy{MaxAttempts: 2, BaseDelay: 10 * time.Millisecond}, sim.NewRNG(5))
	// Simulate a lost response: the device's nonce is behind the chain.
	fx.dev.Session().LastNonce = "stale-nonce"
	fx.touchOwner(t)
	if _, err := fx.dev.BrowseResilient(fx.now, "view-statement"); err != nil {
		t.Fatalf("browse with stale nonce: %v", err)
	}
	if fx.dev.Degraded() {
		t.Fatal("device degraded instead of resyncing over the stream")
	}
	// Recovered: subsequent streamed browsing works.
	fx.touchOwner(t)
	if err := fx.dev.Browse(fx.now, "home"); err != nil {
		t.Fatalf("browse after resync: %v", err)
	}
}

// TestStreamServerPolicyAppliesToLiveStream changes the server's risk
// policy under a live stream: the server checks every request against
// its own policy, so the next streamed request meets the new one with
// nothing sent to the device.
func TestStreamServerPolicyAppliesToLiveStream(t *testing.T) {
	fx, tr := newStreamFixture(t, nil)
	fx.registerAndLogin(t)
	fx.server.SetRiskPolicy(webserver.RiskPolicy{Window: 8, MinVerified: 3})
	fx.touchOwner(t)
	if err := fx.dev.Browse(fx.now, "home"); err != nil {
		t.Fatalf("browse under the changed policy: %v", err)
	}
	// No module history can meet this policy: the next request on the
	// same connection is refused with a typed ack.
	fx.server.SetRiskPolicy(webserver.RiskPolicy{Window: 1, MinVerified: 1000})
	fx.touchOwner(t)
	if err := fx.dev.Browse(fx.now, "home"); !errors.Is(err, webserver.ErrRiskPolicy) {
		t.Fatalf("browse under an impossible policy: %v, want ErrRiskPolicy", err)
	}
	if st := tr.Stats(); st.Dials != 1 || st.Redials != 0 {
		t.Fatalf("the policy change redialed the stream: %+v", st)
	}
}

func TestStreamDialFailureDowngradesToFallback(t *testing.T) {
	fx, tr := newStreamFixture(t, func(func() (io.ReadWriteCloser, error)) func() (io.ReadWriteCloser, error) {
		return func() (io.ReadWriteCloser, error) { return nil, errors.New("no route") }
	})
	fx.registerAndLogin(t)
	if tr.Streaming() {
		t.Fatal("transport claims to stream with a dead dialer")
	}
	if st := tr.Stats(); st.Downgrades == 0 {
		t.Fatalf("no downgrade recorded: %+v", st)
	}
	// Fallback carries the session transparently.
	fx.touchOwner(t)
	if err := fx.dev.Browse(fx.now, "view-statement"); err != nil {
		t.Fatalf("browse over fallback: %v", err)
	}
}

func TestStreamReconnectAfterClose(t *testing.T) {
	fx, tr := newStreamFixture(t, nil)
	fx.registerAndLogin(t)
	fx.dev.SetRetryPolicy(RetryPolicy{MaxAttempts: 3, BaseDelay: 10 * time.Millisecond}, sim.NewRNG(5))
	if err := tr.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if tr.Streaming() {
		t.Fatal("stream alive after Close")
	}
	// The next browse redials, re-binds, and — because the hello reset
	// the nonce chain — recovers through the resync path.
	fx.touchOwner(t)
	if _, err := fx.dev.BrowseResilient(fx.now, "view-statement"); err != nil {
		t.Fatalf("browse after close: %v", err)
	}
	if !tr.Streaming() {
		t.Fatal("stream not re-established")
	}
	if st := tr.Stats(); st.Dials != 2 {
		t.Fatalf("expected a redial, stats %+v", st)
	}
}

func TestStreamSurvivesMidFrameCut(t *testing.T) {
	rng := sim.NewRNG(77)
	var fd *FaultyDialer
	fx, tr := newStreamFixture(t, func(dial func() (io.ReadWriteCloser, error)) func() (io.ReadWriteCloser, error) {
		fd = NewFaultyDialer(dial, FaultProfile{}, rng)
		return fd.Dial
	})
	fx.registerAndLogin(t)
	fx.dev.SetRetryPolicy(RetryPolicy{MaxAttempts: 4, BaseDelay: 10 * time.Millisecond}, sim.NewRNG(5))
	fx.touchOwner(t)

	// Two rounds of: arm the cut (every post-handshake write is cut
	// mid-frame), watch a plain browse die retryably, then disarm and
	// let the resilient flow redial and recover through resync.
	for round := 0; round < 2; round++ {
		fd.Profile = FaultProfile{CutRate: 1}
		err := fx.dev.Browse(fx.now, "view-statement")
		if !errors.Is(err, ErrNetwork) {
			t.Fatalf("round %d: cut browse returned %v, want ErrNetwork", round, err)
		}
		fd.Profile = FaultProfile{}
		if _, err := fx.dev.BrowseResilient(fx.now, "view-statement"); err != nil {
			t.Fatalf("round %d: recovery browse: %v", round, err)
		}
		if fx.dev.Degraded() {
			t.Fatalf("round %d: device degraded despite retry budget", round)
		}
	}
	if fd.Stats.Cuts != 2 {
		t.Fatalf("injected %d cuts, want 2", fd.Stats.Cuts)
	}
	if st := tr.Stats(); st.Dials < 3 {
		t.Fatalf("expected a redial per cut, stats %+v", st)
	}
	// The server never half-applied anything: the session still lines
	// up for ordinary streamed browsing.
	fx.touchOwner(t)
	if err := fx.dev.Browse(fx.now, "home"); err != nil {
		t.Fatalf("browse after recovery: %v", err)
	}
}

func TestStreamTornWritesReassemble(t *testing.T) {
	rng := sim.NewRNG(78)
	var fd *FaultyDialer
	fx, _ := newStreamFixture(t, func(dial func() (io.ReadWriteCloser, error)) func() (io.ReadWriteCloser, error) {
		fd = NewFaultyDialer(dial, FaultProfile{}, rng)
		return fd.Dial
	})
	fx.registerAndLogin(t)
	fd.Profile = FaultProfile{TearRate: 1}
	for i := 0; i < 5; i++ {
		fx.touchOwner(t)
		if err := fx.dev.Browse(fx.now, "home"); err != nil {
			t.Fatalf("browse %d under torn writes: %v", i, err)
		}
	}
	if fd.Stats.Tears == 0 {
		t.Fatal("no tears injected")
	}
}

// fakeStreamServer speaks the server side of the framing by hand so
// tests can deliver adversarial frame sequences the real server never
// produces.
type fakeStreamServer struct {
	conn io.ReadWriteCloser
	sess *protocol.Session
	seed []byte
}

func startFakeStreamServer(t *testing.T, sess *protocol.Session) (*Stream, *fakeStreamServer) {
	t.Helper()
	fs := &fakeStreamServer{sess: sess, seed: []byte("fake-seed-0123456")}
	tr := &Stream{Dial: func() (io.ReadWriteCloser, error) {
		c1, c2 := net.Pipe()
		fs.conn = c2
		go fs.handshake(t)
		return c1, nil
	}}
	tr.BindSession(sess)
	return tr, fs
}

func (fs *fakeStreamServer) handshake(t *testing.T) {
	ft, _, err := protocol.ReadFrame(fs.conn)
	if err != nil || ft != protocol.FrameHello {
		t.Errorf("fake server: hello: %v (%v)", ft, err)
		return
	}
	w := &protocol.StreamWelcome{Domain: fs.sess.Domain, SessionID: fs.sess.ID, NonceSeed: fs.seed, Window: 12, MinVerified: 2}
	w.MAC = pki.NewMACer(fs.sess.Key).MAC(w.MACBytes())
	frame, err := protocol.AppendMessageFrame(nil, protocol.FrameWelcome, w)
	if err != nil {
		t.Errorf("fake server: encode welcome: %v", err)
		return
	}
	if _, err := fs.conn.Write(frame); err != nil {
		t.Errorf("fake server: write welcome: %v", err)
	}
}

// testPage is the page the fake server serves.
var testPage = frame.Page{URL: "https://www.xyz.com/fake", Title: "fake", Body: "fake", HeightPX: 800}

// page fabricates a MAC-valid content page for the fake server.
func (fs *fakeStreamServer) page(nonce protocol.Nonce) *protocol.ContentPage {
	cp := &protocol.ContentPage{
		Domain:    fs.sess.Domain,
		SessionID: fs.sess.ID,
		Nonce:     nonce,
		Account:   fs.sess.Account,
		Page:      &testPage,
	}
	cp.MAC = pki.NewMACer(fs.sess.Key).MAC(cp.MACBytes())
	return cp
}

func fakeSession() *protocol.Session {
	key := make([]byte, pki.SessionKeySize)
	for i := range key {
		key[i] = byte(i * 7)
	}
	return &protocol.Session{Domain: "www.xyz.com", Account: "acct", ID: "sess-1", Key: key}
}

func fakeRequest(sess *protocol.Session) *protocol.PageRequest {
	req := &protocol.PageRequest{Domain: sess.Domain, Account: sess.Account, SessionID: sess.ID, Nonce: sess.LastNonce, Action: "home"}
	req.MAC = pki.NewMACer(sess.Key).MAC(req.MACBytes())
	return req
}

func TestStreamReorderedResponseKillsConnection(t *testing.T) {
	sess := fakeSession()
	tr, fs := startFakeStreamServer(t, sess)
	done := make(chan struct{})
	go func() {
		defer close(done)
		ft, _, err := protocol.ReadFrame(fs.conn)
		if err != nil || ft != protocol.FrameTouchBatch {
			t.Errorf("fake server: batch: %v (%v)", ft, err)
			return
		}
		// Answer with a page whose sequence belongs to a different
		// request frame — what a reordered or replayed response looks
		// like on the wire.
		pf, err := protocol.AppendPageFrame(nil, 999, 0, fs.page(protocol.StreamNonce(sess.Key, fs.seed, 1)))
		if err != nil {
			t.Errorf("fake server: encode page: %v", err)
			return
		}
		fs.conn.Write(pf)
	}()
	_, err := tr.SubmitPageRequest(0, fakeRequest(sess))
	<-done
	if err == nil {
		t.Fatal("reordered response accepted")
	}
	if !errors.Is(err, ErrNetwork) {
		t.Fatalf("reorder produced %v, want retryable ErrNetwork", err)
	}
	if tr.Streaming() {
		t.Fatal("connection survived a correlation violation")
	}
}

// TestStreamDuplicateResponseKillsConnection delivers the answer to a
// request twice (a duplicated frame in transit). Nothing reads an idle
// connection, so the duplicate waits in the pipe until the next
// request's exchange reads it where that request's own page belongs:
// the exchange must kill the connection rather than pair the stale
// page with the new touch.
func TestStreamDuplicateResponseKillsConnection(t *testing.T) {
	sess := fakeSession()
	tr, fs := startFakeStreamServer(t, sess)
	// A net.Pipe write blocks until the other end reads it, so the
	// duplicate's write blocks until the second exchange reads it, and
	// the second request's frame is read by a goroutine of its own. That
	// goroutine then reads the pipe once more, which fails once the
	// device has closed its end. A fake server that fails closes the
	// pipe, which fails the first request.
	afterKill := make(chan error, 1)
	go func() {
		ft, payload, err := protocol.ReadFrame(fs.conn)
		if err != nil || ft != protocol.FrameTouchBatch {
			t.Errorf("fake server: batch: %v (%v)", ft, err)
			fs.conn.Close()
			return
		}
		var dec protocol.Decoder
		var tb protocol.TouchBatch
		if err := dec.DecodeTouchBatchInto(payload, &tb); err != nil {
			t.Errorf("fake server: decode batch: %v", err)
			fs.conn.Close()
			return
		}
		pf, err := protocol.AppendPageFrame(nil, tb.Seq, 0, fs.page(protocol.StreamNonce(sess.Key, fs.seed, 1)))
		if err != nil {
			t.Errorf("fake server: encode page: %v", err)
			fs.conn.Close()
			return
		}
		go func() {
			if ft, _, err := protocol.ReadFrame(fs.conn); err != nil || ft != protocol.FrameTouchBatch {
				t.Errorf("fake server: second batch: %v (%v)", ft, err)
			}
			_, err := fs.conn.Read(make([]byte, 1))
			afterKill <- err
		}()
		fs.conn.Write(pf)
		fs.conn.Write(pf)
	}()
	cp, err := tr.SubmitPageRequest(0, fakeRequest(sess))
	if err != nil || cp == nil {
		t.Fatalf("first delivery failed: %v", err)
	}
	// The second exchange expects seq 2 and reads the seq-1 duplicate.
	if _, err := tr.SubmitPageRequest(0, fakeRequest(sess)); !errors.Is(err, ErrNetwork) {
		t.Fatalf("request after a duplicated response returned %v, want retryable ErrNetwork", err)
	}
	if tr.Streaming() {
		t.Fatal("connection survived a duplicated response frame")
	}
	// The kill closed the pipe, which surfaces deterministically as a
	// read error on the server end (a surviving connection would block
	// this read until the test times out).
	if err := <-afterKill; err == nil {
		t.Fatal("server end still open after the kill")
	}
}

// TestStreamRetiredFrameKillsConnection sends each retired frame type a
// server once sent — the heartbeat echo (5), the policy push (6) and
// the bye (9) — to a device with a request in flight: like any other
// unexpected frame it ends the connection, and the request fails with
// the retryable ErrNetwork.
func TestStreamRetiredFrameKillsConnection(t *testing.T) {
	for _, tc := range []struct {
		ft      protocol.FrameType
		payload []byte
	}{
		{5, binary.BigEndian.AppendUint64(binary.BigEndian.AppendUint64(nil, 1), 0)},
		{6, []byte{1, 2, 3}},
		{9, nil},
	} {
		ft, payload := tc.ft, tc.payload
		sess := fakeSession()
		tr, fs := startFakeStreamServer(t, sess)
		done := make(chan struct{})
		go func() {
			defer close(done)
			if got, _, err := protocol.ReadFrame(fs.conn); err != nil || got != protocol.FrameTouchBatch {
				t.Errorf("fake server: batch: %v (%v)", got, err)
				return
			}
			frame, err := protocol.AppendFrame(nil, ft, payload)
			if err == nil {
				_, err = fs.conn.Write(frame)
			}
			if err != nil {
				t.Errorf("fake server: write: %v", err)
			}
		}()
		_, err := tr.SubmitPageRequest(0, fakeRequest(sess))
		<-done
		if !errors.Is(err, ErrNetwork) {
			t.Fatalf("retired %s produced %v, want retryable ErrNetwork", ft, err)
		}
		if tr.Streaming() {
			t.Fatalf("connection survived a retired %s", ft)
		}
	}
}

// TestStreamConcurrentWritersRace exercises the stream under -race:
// two writers in flight at once, browsing and a request naming an
// unknown session (refused with a typed ack that leaves the connection
// and the session's nonce alone), then teardown with such a request
// mid-air.
func TestStreamConcurrentWritersRace(t *testing.T) {
	fx, tr := newStreamFixture(t, nil)
	fx.registerAndLogin(t)
	fx.touchOwner(t)
	stray := &protocol.PageRequest{Domain: "www.xyz.com", Account: "acct", SessionID: "no-such-session", Action: "home"}
	probe := func() { _, _ = tr.SubmitPageRequest(fx.now, stray) }

	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() { // a second writer racing the batching writer
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				probe()
			}
		}
	}()
	for i := 0; i < 30; i++ {
		if err := fx.dev.Browse(fx.now, "home"); err != nil {
			t.Fatalf("browse %d: %v", i, err)
		}
	}
	close(stop)
	wg.Wait()
	// Teardown with a final request racing the close.
	wg.Add(1)
	go func() { defer wg.Done(); probe() }()
	_ = tr.Close()
	wg.Wait()
}

// TestStreamHoldsNoGoroutine binds streams and counts goroutines: a
// device stream reads its answers on the calling goroutine, so the only
// goroutine a live stream adds is the server's ServeStream on the far
// end of its pipe, and Close ends that one too.
func TestStreamHoldsNoGoroutine(t *testing.T) {
	const n = 16
	fx, _ := newStreamFixture(t, nil)
	fx.registerAndLogin(t)
	dial := func() (io.ReadWriteCloser, error) {
		c1, c2 := net.Pipe()
		go fx.server.ServeStream(c2)
		return c1, nil
	}
	base := settledGoroutines()
	streams := make([]*Stream, n)
	for i := range streams {
		streams[i] = &Stream{Dial: dial}
		streams[i].BindSession(fx.dev.Session())
		if !streams[i].Streaming() {
			t.Fatalf("stream %d not streaming", i)
		}
	}
	if got := settledGoroutines() - base; got != n {
		t.Fatalf("%d live streams hold %d goroutines, want %d (the server's)", n, got, n)
	}
	for _, s := range streams {
		s.Close()
	}
	// Each server goroutine exits once it reads its connection's close;
	// yield until they all have.
	for i := 0; i < 1000000 && runtime.NumGoroutine() != base; i++ {
		runtime.Gosched()
	}
	if got := runtime.NumGoroutine(); got != base {
		t.Fatalf("%d goroutines after Close, want %d", got, base)
	}
}

// settledGoroutines returns the goroutine count once it has held still
// across 1,000 consecutive yields, so goroutines that earlier tests
// left on their way out are not counted.
func settledGoroutines() int {
	n, still := runtime.NumGoroutine(), 0
	for still < 1000 {
		runtime.Gosched()
		if m := runtime.NumGoroutine(); m != n {
			n, still = m, 0
		} else {
			still++
		}
	}
	return n
}

// serverMetric reads one named counter from the server's telemetry
// schema.
func serverMetric(t *testing.T, srv *webserver.Server, name string) int64 {
	t.Helper()
	for i, n := range srv.MetricsSchema() {
		if n == name {
			return srv.AppendMetrics(nil)[i]
		}
	}
	t.Fatalf("metric %q not in schema", name)
	return 0
}

// TestStreamMalformedAckDropsConnection: the server closes the stream
// after every malformed ack, one for a request naming another domain
// included, so the device drops the connection as the ack arrives. The next resilient
// Browse redials and recovers through the fresh chain's resync, with
// no retry round spent on ErrNetwork from the dead connection.
func TestStreamMalformedAckDropsConnection(t *testing.T) {
	fx, tr := newStreamFixture(t, nil)
	fx.registerAndLogin(t)
	fx.dev.SetRetryPolicy(RetryPolicy{MaxAttempts: 3, BaseDelay: 10 * time.Millisecond}, sim.NewRNG(5))
	fx.touchOwner(t)
	if err := fx.dev.Browse(fx.now, "home"); err != nil {
		t.Fatal(err)
	}
	dials := tr.Stats().Dials
	sess := fx.dev.Session()
	evil := &protocol.PageRequest{Domain: "www.evil.com", Account: sess.Account, SessionID: sess.ID, Nonce: sess.LastNonce, Action: "home"}
	if _, err := tr.SubmitPageRequest(fx.now, evil); !errors.Is(err, webserver.ErrMalformed) {
		t.Fatalf("request naming another domain = %v, want a typed malformed rejection", err)
	}
	if tr.Streaming() {
		t.Fatal("stream still reads as live after a malformed ack")
	}
	if _, err := fx.dev.BrowseResilient(fx.now, "home"); err != nil {
		t.Fatalf("Browse after the malformed ack: %v", err)
	}
	if got := fx.dev.tel.retries.Load(); got != 0 {
		t.Fatalf("%d retry rounds after the malformed ack, want 0", got)
	}
	if got := tr.Stats().Dials; got != dials+1 || !tr.Streaming() || fx.dev.Degraded() {
		t.Fatalf("dials %d -> %d, streaming %v, degraded %v; want one redial and a live stream",
			dials, got, tr.Streaming(), fx.dev.Degraded())
	}
}
