// Package nwfix exercises the nowallclock rule: wall-clock reads and
// global randomness are banned in favour of the virtual instant each
// layer is passed and sim.RNG.
package nwfix

import (
	"context"
	"crypto/ecdh"
	"io"
	"math/rand" // want "import of math/rand"
	"net"
	"time"
)

// Timestamp leaks wall time into what should be a virtual-clock world.
func Timestamp() time.Duration {
	start := time.Now()          // want "use of time\\.Now"
	time.Sleep(time.Millisecond) // want "use of time\\.Sleep"
	return time.Since(start)     // want "use of time\\.Since"
}

// Deadline passes a wall-clock timer channel around.
func Deadline() <-chan time.Time {
	return time.After(time.Second) // want "use of time\\.After"
}

// Draw consumes global randomness outside the sim.RNG discipline; the
// import line above already carries the finding.
func Draw() int {
	return rand.Intn(6)
}

// Window shows that duration arithmetic stays legal: units are not
// clocks.
func Window() time.Duration { return 3 * time.Second }

// ArmDeadlines leans on kernel wall-clock timers to notice a dead
// peer; whether they fire depends on host load, not on the run.
func ArmDeadlines(c net.Conn, t time.Time) {
	_ = c.SetDeadline(t)      // want "use of SetDeadline"
	_ = c.SetReadDeadline(t)  // want "use of SetReadDeadline"
	_ = c.SetWriteDeadline(t) // want "use of SetWriteDeadline"
}

// Expire embeds a wall-clock timer in a context.
func Expire(ctx context.Context) (context.Context, context.CancelFunc) {
	return context.WithTimeout(ctx, time.Second) // want "use of context\\.WithTimeout"
}

// setter has the deadline shape without being a conn; same hazard,
// same finding (the signature check is what keeps unrelated methods
// that merely share the name out).
type setter struct{}

func (setter) SetDeadline(time.Time) error { return nil }

// SetDeadline with a different signature is not a deadline setter.
type counter struct{ n int }

func (c *counter) SetReadDeadline(n int) { c.n = n }

func Mixed(s setter, c *counter) {
	_ = s.SetDeadline(time.Time{}) // want "use of SetDeadline"
	c.SetReadDeadline(3)
}

// EphemeralKey generates a key with a scheduler-dependent draw count:
// crypto/ecdh's GenerateKey may consume an extra byte from rng
// (randutil.MaybeReadByte), so a deterministic stream desynchronizes.
func EphemeralKey(rng io.Reader) (*ecdh.PrivateKey, error) {
	return ecdh.X25519().GenerateKey(rng) // want "use of ecdh\\.GenerateKey"
}

// SeededKey reads a fixed-size seed explicitly — the sanctioned shape.
func SeededKey(rng io.Reader) (*ecdh.PrivateKey, error) {
	seed := make([]byte, 32)
	if _, err := io.ReadFull(rng, seed); err != nil {
		return nil, err
	}
	return ecdh.X25519().NewPrivateKey(seed)
}
