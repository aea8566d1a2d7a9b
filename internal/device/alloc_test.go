package device

import "testing"

// TestStreamBrowseAllocBudget pins the streamed continuous-auth round
// trip — Browse over a live stream, both read loops included — after
// warm-up (interned fields cached, scratch buffers grown). What is left
// is what the round trip keeps: on the device the request and its tag,
// the batch waiter and its bookkeeping, and the decoded page (message,
// page, elements, nonce, tag); on the server the batch, the request
// with its nonce and tag, and the response with its tag and chain
// nonce. The budget has ~25% headroom over the measured 20.
func TestStreamBrowseAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector intentionally defeats sync.Pool reuse")
	}
	fx, tr := newStreamFixture(t, nil)
	fx.registerAndLogin(t)
	if !tr.Streaming() {
		t.Fatal("transport not streaming after login")
	}
	browse := func() {
		if err := fx.dev.Browse(fx.now, "view-statement"); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 50; i++ {
		browse()
	}
	if allocs := testing.AllocsPerRun(500, browse); allocs > 25 {
		t.Fatalf("stream browse costs %.2f allocs, budget 25", allocs)
	}
}
