package device

import (
	"errors"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"trust/internal/fingerprint"
	"trust/internal/flock"
	"trust/internal/frame"
	"trust/internal/geom"
	"trust/internal/pki"
	"trust/internal/placement"
	"trust/internal/protocol"
	"trust/internal/sim"
	"trust/internal/webserver"
)

// newStreamFixture builds a device on the streamed transport: every
// dial opens a net.Pipe with a server read loop on the far end.
// wrapDial, when non-nil, interposes on the dial function (fault
// injection, dial failure).
func newStreamFixture(t *testing.T, wrapDial func(func() (io.ReadWriteCloser, error)) func() (io.ReadWriteCloser, error)) (*fixture, *Stream) {
	t.Helper()
	ca, err := pki.NewCA("trust-root", pki.NewDeterministicRand(1))
	if err != nil {
		t.Fatal(err)
	}
	srv, err := webserver.New("www.xyz.com", ca, 7)
	if err != nil {
		t.Fatal(err)
	}
	pl := placement.Placement{Sensors: []geom.Rect{geom.RectWH(180, 660, 120, 120)}}
	mod, err := flock.New(flock.DefaultConfig(pl), ca, "device-1", 99)
	if err != nil {
		t.Fatal(err)
	}
	f := fingerprint.Synthesize(4242, fingerprint.Loop)
	if err := mod.Enroll(fingerprint.NewTemplate(f)); err != nil {
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
	accepted := fx.server.AcceptedRequests()
	for _, action := range []string{"view-statement", "home", "view-statement"} {
		fx.touchOwner(t)
		if err := fx.dev.Browse(fx.now, action); err != nil {
			t.Fatalf("browse %s: %v", action, err)
		}
	}
	if got := fx.server.AcceptedRequests() - accepted; got != 3 {
		t.Fatalf("server accepted %d streamed requests, want 3", got)
	}
	if st := tr.Stats(); st.Dials != 1 || st.Redials != 0 || st.Downgrades != 0 {
		t.Fatalf("unexpected stream stats %+v", st)
	}
	if report := fx.server.RunAudit(); report.Tampered != 0 {
		t.Fatalf("streamed browsing flagged by audit: %d of %d", report.Tampered, report.Checked)
	}
	if n := fx.server.StreamCount(); n != 1 {
		t.Fatalf("server tracks %d streams, want 1", n)
	}
}

func TestStreamBatchPipelinesRequests(t *testing.T) {
	fx, tr := newStreamFixture(t, nil)
	fx.registerAndLogin(t)
	fx.touchOwner(t)
	accepted := fx.server.AcceptedRequests()
	if err := fx.dev.BrowseBatch(fx.now, []string{"view-statement", "home", "view-statement", "home"}); err != nil {
		t.Fatalf("browse batch: %v", err)
	}
	if got := fx.server.AcceptedRequests() - accepted; got != 4 {
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

func TestStreamPolicyPushReachesDevice(t *testing.T) {
	fx, tr := newStreamFixture(t, nil)
	var got atomic.Int64
	tr.OnPolicy = func(window, minVerified int) {
		got.Store(int64(window)<<16 | int64(minVerified))
	}
	fx.registerAndLogin(t)
	fx.server.SetRiskPolicy(webserver.RiskPolicy{Window: 8, MinVerified: 3})
	// The push is written synchronously by SetRiskPolicy but consumed by
	// the reader goroutine; a heartbeat round trip flushes behind it.
	if err := tr.Ping(fx.now); err != nil {
		t.Fatalf("ping: %v", err)
	}
	if v := got.Load(); v != 8<<16|3 {
		t.Fatalf("policy push not observed: got %#x", v)
	}
	// The tightened policy applies to streamed requests immediately.
	fx.touchOwner(t)
	if err := fx.dev.Browse(fx.now, "home"); err != nil {
		t.Fatalf("browse under pushed policy: %v", err)
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
	w.MAC = pki.MAC(fs.sess.Key, w.MACBytes())
	payload, err := protocol.EncodeBinary(w)
	if err != nil {
		t.Errorf("fake server: encode welcome: %v", err)
		return
	}
	if err := protocol.WriteFrame(fs.conn, protocol.FrameWelcome, payload); err != nil {
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
	cp.MAC = pki.MAC(fs.sess.Key, cp.MACBytes())
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
	req.MAC = pki.MAC(sess.Key, req.MACBytes())
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
		payload, err := protocol.EncodePageFrame(999, 0, fs.page(protocol.StreamNonce(sess.Key, fs.seed, 1)))
		if err != nil {
			t.Errorf("fake server: encode page: %v", err)
			return
		}
		protocol.WriteFrame(fs.conn, protocol.FramePage, payload)
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

func TestStreamDuplicateResponseKillsConnection(t *testing.T) {
	sess := fakeSession()
	tr, fs := startFakeStreamServer(t, sess)
	done := make(chan struct{})
	go func() {
		defer close(done)
		ft, payload, err := protocol.ReadFrame(fs.conn)
		if err != nil || ft != protocol.FrameTouchBatch {
			t.Errorf("fake server: batch: %v (%v)", ft, err)
			return
		}
		tb, err := protocol.DecodeTouchBatch(payload)
		if err != nil {
			t.Errorf("fake server: decode batch: %v", err)
			return
		}
		pf, err := protocol.EncodePageFrame(tb.Seq, 0, fs.page(protocol.StreamNonce(sess.Key, fs.seed, 1)))
		if err != nil {
			t.Errorf("fake server: encode page: %v", err)
			return
		}
		// Deliver the same response twice (duplicated frame in transit).
		protocol.WriteFrame(fs.conn, protocol.FramePage, pf)
		protocol.WriteFrame(fs.conn, protocol.FramePage, pf)
	}()
	cp, err := tr.SubmitPageRequest(0, fakeRequest(sess))
	if err != nil || cp == nil {
		t.Fatalf("first delivery failed: %v", err)
	}
	<-done
	// The duplicate is unsolicited: the reader must kill the connection
	// rather than hold a response no request matches. The kill closes
	// the pipe, which surfaces deterministically as a read error on the
	// server end (a surviving connection would block this read until
	// the test times out).
	if _, err := fs.conn.Read(make([]byte, 1)); err == nil {
		t.Fatal("client wrote instead of killing the connection")
	}
	if tr.Streaming() {
		t.Fatal("connection survived a duplicated response frame")
	}
}

// TestStreamConcurrentWritersRace exercises the stream under -race:
// heartbeats, server policy pushes, and browsing all in flight at
// once, then teardown with a ping mid-air.
func TestStreamConcurrentWritersRace(t *testing.T) {
	fx, tr := newStreamFixture(t, nil)
	var pushes atomic.Int64
	tr.OnPolicy = func(window, minVerified int) { pushes.Add(1) }
	fx.registerAndLogin(t)
	fx.touchOwner(t)

	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() { // heartbeat writer racing the batching writer
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				_ = tr.Ping(fx.now)
			}
		}
	}()
	wg.Add(1)
	go func() { // server-initiated pushes racing client requests
		defer wg.Done()
		for i := 0; i < 50; i++ {
			fx.server.SetRiskPolicy(webserver.RiskPolicy{Window: 12, MinVerified: 1 + i%2})
		}
	}()
	for i := 0; i < 30; i++ {
		if err := fx.dev.Browse(fx.now, "home"); err != nil {
			t.Fatalf("browse %d: %v", i, err)
		}
	}
	close(stop)
	wg.Wait()
	// Teardown with a final ping racing the close.
	wg.Add(1)
	go func() { defer wg.Done(); _ = tr.Ping(fx.now) }()
	_ = tr.Close()
	wg.Wait()
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

// TestStreamHeartbeatWarpDetectedAndRecovered drives a backwards
// heartbeat through the fault profile: the wire rewrites the device's
// heartbeat timestamp an hour into the past. The server must clamp —
// count it, hold session time — and echo the warped value verbatim,
// which is exactly what lets the device catch the tampering as an echo
// mismatch, kill the connection, and recover on redial.
func TestStreamHeartbeatWarpDetectedAndRecovered(t *testing.T) {
	var fd *FaultyDialer
	fx, tr := newStreamFixture(t, func(dial func() (io.ReadWriteCloser, error)) func() (io.ReadWriteCloser, error) {
		fd = NewFaultyDialer(dial, FaultProfile{}, sim.NewRNG(11))
		return fd.Dial
	})
	fx.registerAndLogin(t)
	// A browse stamps the connection's session time, arming the
	// server's monotonicity clamp for anything earlier.
	fx.touchOwner(t)
	if err := fx.dev.Browse(fx.now, "home"); err != nil {
		t.Fatal(err)
	}

	fd.Profile.HeartbeatWarp = time.Hour
	err := tr.Ping(fx.now)
	if err == nil {
		t.Fatal("warped heartbeat echo went undetected")
	}
	if fd.Stats.Warps != 1 {
		t.Fatalf("injected %d warps, want 1", fd.Stats.Warps)
	}
	if got := serverMetric(t, fx.server, "hb_clamped"); got != 1 {
		t.Fatalf("hb_clamped = %d, want 1", got)
	}
	if got := serverMetric(t, fx.server, "hb_rejected"); got != 0 {
		t.Fatalf("hb_rejected = %d, want 0", got)
	}

	// The poisoned connection is down; with the fault cleared the
	// resilient path redials, resyncs onto the fresh nonce chain, and
	// the session carries on.
	fd.Profile.HeartbeatWarp = 0
	fx.dev.SetRetryPolicy(RetryPolicy{MaxAttempts: 3, BaseDelay: 10 * time.Millisecond}, sim.NewRNG(5))
	fx.touchOwner(t)
	if _, err := fx.dev.BrowseResilient(fx.now, "home"); err != nil {
		t.Fatalf("browse after warp teardown: %v", err)
	}
	if fx.dev.Degraded() {
		t.Fatal("device degraded instead of redialing")
	}
	if st := tr.Stats(); st.Redials == 0 || st.Downgrades != 0 {
		t.Fatalf("stream stats %+v, want a redial and no downgrade", st)
	}
}
