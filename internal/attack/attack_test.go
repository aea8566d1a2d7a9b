package attack

import "testing"

func TestAllAttacksDefended(t *testing.T) {
	results := All(1)
	if len(results) != 10 {
		t.Fatalf("suite ran %d attacks, want 10", len(results))
	}
	for _, r := range results {
		if r.Err != nil {
			t.Errorf("%s: setup error: %v", r.Name, r.Err)
			continue
		}
		if !r.Defended {
			t.Errorf("%s NOT defended (%s)", r.Name, r.Description)
		}
		if r.Defended && r.Mechanism == "" {
			t.Errorf("%s defended but no mechanism recorded", r.Name)
		}
	}
}

func TestSuiteDeterministicPerSeed(t *testing.T) {
	a := All(42)
	b := All(42)
	for i := range a {
		if a[i].Defended != b[i].Defended || a[i].Name != b[i].Name {
			t.Fatalf("suite not deterministic at %s", a[i].Name)
		}
	}
}
