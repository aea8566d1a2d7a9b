package webserver_test

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"trust/internal/device"
	"trust/internal/fingerprint"
	"trust/internal/pki"
	"trust/internal/testbed"
	"trust/internal/webserver"
)

// fleetDevice is one enrolled, touch-verified device plus its private
// virtual clock. The test lives in the external package because the
// device transport imports webserver.
type fleetDevice struct {
	dev *device.Device
	now time.Duration
}

// concurrencyFleet builds one server plus n fully enrolled,
// touch-verified devices wired to it over real HTTP. Setup is serial
// (the CA's entropy stream and certificate serials are sequential);
// only the traffic phase runs concurrently.
func concurrencyFleet(t testing.TB, n int, binary bool) (*webserver.Server, *httptest.Server, []*fleetDevice) {
	t.Helper()
	ca, err := pki.NewCA("trust-root", pki.NewDeterministicRand(11))
	if err != nil {
		t.Fatal(err)
	}
	srv, err := webserver.New("conc.example", ca, 17)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	fleet := make([]*fleetDevice, n)
	for i := 0; i < n; i++ {
		f := fingerprint.Synthesize(uint64(7000+i*13), fingerprint.PatternType(i%3))
		mod, err := testbed.Module(ca, fmt.Sprintf("conc-dev-%d", i), uint64(2000+i), f)
		if err != nil {
			t.Fatal(err)
		}
		transport := &device.HTTP{BaseURL: ts.URL, Client: &http.Client{}, Binary: binary}
		// Verify a touch; now stays frozen at it afterwards so the
		// touch remains fresh for the whole traffic phase.
		now, err := testbed.TapUntilVerified(mod, f, 0)
		if err != nil {
			t.Fatalf("device %d: %v", i, err)
		}
		fleet[i] = &fleetDevice{dev: device.New(fmt.Sprintf("conc-dev-%d", i), mod, transport), now: now}
	}
	return srv, ts, fleet
}

// TestConcurrentMixedTraffic drives registration, login, and
// continuous-auth page requests from 8 goroutines at once against a
// live httptest.Server — the access pattern the sharded stores exist
// for — in both wire codecs. Per-session request ordering is enforced
// by the nonce echo: every Browse succeeding proves the session's
// rotation was never corrupted by a concurrent request. Run under
// -race as part of the tier-1 gate.
func TestConcurrentMixedTraffic(t *testing.T) {
	const devices = 8
	const pageOps = 6
	for _, codec := range []struct {
		name   string
		binary bool
	}{{"JSON", false}, {"Binary", true}} {
		t.Run(codec.name, func(t *testing.T) {
			srv, _, fleet := concurrencyFleet(t, devices, codec.binary)
			cert := srv.Certificate()
			var wg sync.WaitGroup
			errs := make(chan error, devices)
			for i, fd := range fleet {
				wg.Add(1)
				go func(i int, fd *fleetDevice) {
					defer wg.Done()
					account := fmt.Sprintf("conc-acct-%d", i)
					if err := fd.dev.Register(fd.now, account, "recovery-pw"); err != nil {
						errs <- fmt.Errorf("device %d register: %w", i, err)
						return
					}
					if err := fd.dev.Login(fd.now, cert, account); err != nil {
						errs <- fmt.Errorf("device %d login: %w", i, err)
						return
					}
					for k := 0; k < pageOps; k++ {
						action := []string{"view-statement", "home"}[k%2]
						if err := fd.dev.Browse(fd.now, action); err != nil {
							errs <- fmt.Errorf("device %d request %d: %w", i, k, err)
							return
						}
					}
				}(i, fd)
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Error(err)
			}
			if t.Failed() {
				return
			}

			// No cross-session interference: every device holds a live,
			// distinct session whose request count is exactly its own.
			seen := map[string]bool{}
			for i, fd := range fleet {
				sess := fd.dev.Session()
				if sess == nil || !srv.SessionAlive(sess.ID) {
					t.Fatalf("device %d session dead", i)
				}
				if seen[sess.ID] {
					t.Fatalf("duplicate session id %s", sess.ID)
				}
				seen[sess.ID] = true
				reqs, ok := webserver.SessionRequestsForTest(srv, sess.ID)
				if !ok {
					t.Fatalf("device %d session missing from store", i)
				}
				if reqs != pageOps {
					t.Fatalf("device %d session served %d requests, want %d", i, reqs, pageOps)
				}
			}
			if n := srv.SessionCount(); n != devices {
				t.Fatalf("server holds %d sessions, want %d", n, devices)
			}
			want := devices * (2 + pageOps) // register + login + pages each
			if got := metric(t, srv, "accepted"); got != int64(want) {
				t.Fatalf("accepted %d requests, want %d", got, want)
			}
			if got := metric(t, srv, "rejected"); got != 0 {
				t.Fatalf("rejected %d requests under honest traffic", got)
			}
			report := srv.RunAudit()
			if report.Checked != want {
				t.Fatalf("audit log has %d entries, want %d", report.Checked, want)
			}
			if report.Tampered != 0 {
				t.Fatalf("honest concurrent traffic flagged: %d of %d", report.Tampered, report.Checked)
			}
		})
	}
}

// metric reads one of the server's FTDC columns by name.
func metric(t *testing.T, srv *webserver.Server, name string) int64 {
	t.Helper()
	for i, n := range srv.MetricsSchema() {
		if n == name {
			return srv.AppendMetrics(nil)[i]
		}
	}
	t.Fatalf("metric %q not in schema", name)
	return 0
}
