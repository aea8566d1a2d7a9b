package testbed_test

import (
	"testing"
	"time"

	"trust/internal/fingerprint"
	"trust/internal/frame"
	"trust/internal/pki"
	"trust/internal/testbed"
	"trust/internal/webserver"
)

// TestServedButtonsCoverSensor checks the placement rule the standard
// deployment rests on: every button the server serves lies exactly over
// the sensor, so the standard tap on it is a fingerprint capture.
func TestServedButtonsCoverSensor(t *testing.T) {
	ca, err := pki.NewCA("trust-root", pki.NewDeterministicRand(1))
	if err != nil {
		t.Fatal(err)
	}
	srv, err := webserver.New("www.xyz.com", ca, 7)
	if err != nil {
		t.Fatal(err)
	}
	tap := testbed.Tap(0).Pos
	buttons := 0
	for url, page := range srv.Pages() {
		for _, el := range page.Elements {
			if el.Kind != frame.Button {
				continue
			}
			buttons++
			if el.Bounds != testbed.Sensor {
				t.Errorf("%s button %q bounds %v, want the sensor %v", url, el.ID, el.Bounds, testbed.Sensor)
			}
			if !el.Bounds.Contains(tap) {
				t.Errorf("%s button %q does not contain the standard tap %v", url, el.ID, tap)
			}
		}
	}
	if buttons == 0 {
		t.Fatal("server serves no buttons")
	}
}

func TestTapUntilVerified(t *testing.T) {
	ca, err := pki.NewCA("trust-root", pki.NewDeterministicRand(1))
	if err != nil {
		t.Fatal(err)
	}
	const start = 3 * time.Second

	t.Run("owner", func(t *testing.T) {
		owner := fingerprint.Synthesize(4242, fingerprint.Loop)
		mod, err := testbed.Module(ca, "device-1", 99, owner)
		if err != nil {
			t.Fatal(err)
		}
		at, err := testbed.TapUntilVerified(mod, owner, start)
		if err != nil {
			t.Fatal(err)
		}
		// The loop stops at the first match, so the verified tap is the
		// last one made.
		st := mod.Stats()
		if st.Matched != 1 || at != start+time.Duration(st.Touches-1)*testbed.TapInterval {
			t.Fatalf("returned %v after %d taps (%d matched) from %v, want the verified tap's time",
				at, st.Touches, st.Matched, start)
		}
	})

	t.Run("never enrolled", func(t *testing.T) {
		owner := fingerprint.Synthesize(4242, fingerprint.Loop)
		stranger := fingerprint.Synthesize(31337, fingerprint.Whorl)
		mod, err := testbed.Module(ca, "device-2", 98, owner)
		if err != nil {
			t.Fatal(err)
		}
		at, err := testbed.TapUntilVerified(mod, stranger, start)
		if err == nil {
			t.Fatal("a never-enrolled finger verified")
		}
		st := mod.Stats()
		if st.Matched != 0 || st.Touches < 2 || at != start+time.Duration(st.Touches-1)*testbed.TapInterval {
			t.Fatalf("gave up at %v after %d taps (%d matched) from %v, want the last tap's time after retrying",
				at, st.Touches, st.Matched, start)
		}
	})
}
