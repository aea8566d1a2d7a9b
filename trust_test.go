package trust

import (
	"testing"
)

// The facade tests exercise the public API the examples use, end to
// end, without reaching into internal packages.

func TestPublicLocalScenario(t *testing.T) {
	w, err := NewWorld(7)
	if err != nil {
		t.Fatal(err)
	}
	users := ReferenceUsers()
	if len(users) != 3 {
		t.Fatalf("%d reference users", len(users))
	}
	_ = w
}

func TestPublicRemoteScenario(t *testing.T) {
	w, err := NewWorld(8)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := w.AddServer("bank.example")
	if err != nil {
		t.Fatal(err)
	}
	dev, err := w.AddDevice("phone", "user2-two-thumbs", "bank.example")
	if err != nil {
		t.Fatal(err)
	}
	now, err := w.TouchButtonUntilVerified(dev, "user2-two-thumbs", 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := dev.Register(now, "acct", "pw"); err != nil {
		t.Fatal(err)
	}
	now, err = w.TouchButtonUntilVerified(dev, "user2-two-thumbs", now)
	if err != nil {
		t.Fatal(err)
	}
	if err := dev.Login(now, srv.Certificate(), "acct"); err != nil {
		t.Fatal(err)
	}
}

func TestPublicPlacementFlow(t *testing.T) {
	screen := ScreenBounds()
	g := NewDensityGrid(screen, 24, 40)
	rng := NewRNG(9)
	for _, u := range ReferenceUsers() {
		s, err := GenerateSession(u, screen, 500, rng)
		if err != nil {
			t.Fatal(err)
		}
		g.AddSession(s)
	}
	p, err := OptimizePlacement(g, PlacementOptions{SensorWPX: 72, SensorHPX: 72, MaxSensors: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Sensors) != 4 || p.Coverage <= 0 {
		t.Fatalf("placement %+v", p)
	}
}

func TestPublicAttackSuite(t *testing.T) {
	results := RunAttackSuite(11)
	if len(results) == 0 {
		t.Fatal("no attacks ran")
	}
	for _, r := range results {
		if !r.Defended {
			t.Errorf("attack %s not defended", r.Name)
		}
	}
}

func TestPublicFingerSynthesis(t *testing.T) {
	f := SynthesizeFinger(5, Whorl)
	if len(f.Minutiae()) == 0 {
		t.Fatal("no minutiae")
	}
}
