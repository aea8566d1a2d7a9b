package webserver

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"trust/internal/fingerprint"
	"trust/internal/frame"
	"trust/internal/pki"
	"trust/internal/protocol"
	"trust/internal/testbed"
)

// farmClient is one registered, logged-in device in a multi-client
// benchmark farm. Each RunParallel worker owns exactly one, so
// client-side state needs no locking; all contention is server-side.
type farmClient struct {
	client *protocol.Client
	sess   *protocol.Session
	page   *protocol.ContentPage
	acct   string
	now    time.Duration
}

// benchFarm builds one server with n independent registered clients,
// each with a verified touch so signing stays authorized at its frozen
// virtual time.
func benchFarm(b *testing.B, n int) (*Server, []*farmClient) {
	b.Helper()
	ca, err := pki.NewCA("trust-root", pki.NewDeterministicRand(5))
	if err != nil {
		b.Fatal(err)
	}
	srv, err := New("farm.example", ca, 9)
	if err != nil {
		b.Fatal(err)
	}
	clients := make([]*farmClient, n)
	for i := 0; i < n; i++ {
		f := fingerprint.Synthesize(uint64(9000+i*13), fingerprint.PatternType(i%3))
		mod, err := testbed.Module(ca, fmt.Sprintf("farm-dev-%d", i), uint64(3000+i), f)
		if err != nil {
			b.Fatal(err)
		}
		now, err := testbed.TapUntilVerified(mod, f, 0)
		if err != nil {
			b.Fatalf("farm device %d: %v", i, err)
		}
		fc := &farmClient{client: protocol.NewClient(mod), acct: fmt.Sprintf("farm-acct-%d", i), now: now}

		regPage := srv.ServeRegistrationPage(fc.now)
		fc.client.DisplayPage(regPage.Page, frame.View{Zoom: 1})
		sub, err := fc.client.HandleRegistrationPage(fc.now, regPage, fc.acct)
		if err != nil {
			b.Fatal(err)
		}
		if res := srv.HandleRegistration(fc.now, sub, "pw"); !res.OK {
			b.Fatalf("farm device %d registration rejected: %s", i, res.Reason)
		}
		lp := srv.ServeLoginPage(fc.now)
		fc.client.DisplayPage(lp.Page, frame.View{Zoom: 1})
		lsub, sess, err := fc.client.HandleLoginPage(fc.now, lp, srv.Certificate(), fc.acct, 12)
		if err != nil {
			b.Fatal(err)
		}
		cp, err := srv.HandleLogin(fc.now, lsub)
		if err != nil {
			b.Fatal(err)
		}
		if err := fc.client.AcceptContentPage(sess, cp); err != nil {
			b.Fatal(err)
		}
		fc.sess = sess
		fc.page = cp
		clients[i] = fc
	}
	return srv, clients
}

// BenchmarkPageRequestParallel measures continuous-auth page-request
// throughput with one independent session per worker — the server-side
// scaling target of the sharded stores (cf. the serial
// BenchmarkPageRequestRoundTrip baseline). Compare ops/sec at
// GOMAXPROCS 1 vs 8; BENCH_server.json records both with hardware
// metadata.
func BenchmarkPageRequestParallel(b *testing.B) {
	srv, clients := benchFarm(b, runtime.GOMAXPROCS(0))
	var next atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		fc := clients[int(next.Add(1)-1)%len(clients)]
		for pb.Next() {
			req, err := fc.client.BuildPageRequest(fc.now, fc.sess, "view-statement", 12)
			if err != nil {
				b.Fatal(err)
			}
			cp, err := srv.HandlePageRequest(fc.now, req)
			if err != nil {
				b.Fatal(err)
			}
			if err := fc.client.AcceptContentPage(fc.sess, cp); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkLoginParallel measures full Fig 10 login throughput with
// one account per worker: nonce issue/consume, KEM decapsulation, and
// session establishment all run concurrently.
func BenchmarkLoginParallel(b *testing.B) {
	srv, clients := benchFarm(b, runtime.GOMAXPROCS(0))
	var next atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		fc := clients[int(next.Add(1)-1)%len(clients)]
		for pb.Next() {
			lp := srv.ServeLoginPage(fc.now)
			sub, sess, err := fc.client.HandleLoginPage(fc.now, lp, srv.Certificate(), fc.acct, 12)
			if err != nil {
				b.Fatal(err)
			}
			cp, err := srv.HandleLogin(fc.now, sub)
			if err != nil {
				b.Fatal(err)
			}
			if err := fc.client.AcceptContentPage(sess, cp); err != nil {
				b.Fatal(err)
			}
		}
	})
}
