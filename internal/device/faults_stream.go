package device

import (
	"encoding/binary"
	"fmt"
	"io"
	"time"

	"trust/internal/protocol"
	"trust/internal/sim"
)

// FaultyDialer wraps a stream dial function so every connection it
// hands out injects seeded frame-level faults (FaultProfile's CutRate,
// TearRate and HeartbeatWarp). All draws come from a sim.RNG at write
// time, and the stream transport serializes writes, so the same seed
// and call sequence produce a byte-identical fault schedule — chaos
// runs are exactly reproducible.
//
// The first write of each connection — the hello or resume frame — is
// never faulted: the profile models an established link degrading, and
// a faulted handshake would trigger the transport's sticky HTTP
// downgrade instead of the reconnect path under test.
type FaultyDialer struct {
	Inner   func() (io.ReadWriteCloser, error)
	Profile FaultProfile
	Stats   FaultStats

	rng *sim.RNG
}

// NewFaultyDialer wraps inner with the given profile, drawing all
// fault decisions from rng.
func NewFaultyDialer(inner func() (io.ReadWriteCloser, error), profile FaultProfile, rng *sim.RNG) *FaultyDialer {
	return &FaultyDialer{Inner: inner, Profile: profile, rng: rng}
}

// Dial opens a connection through the fault wrapper. Pass it as the
// stream transport's Dial.
func (d *FaultyDialer) Dial() (io.ReadWriteCloser, error) {
	rwc, err := d.Inner()
	if err != nil {
		return nil, err
	}
	d.Stats.Conns++
	return &faultyStreamConn{d: d, rwc: rwc}, nil
}

// faultyStreamConn injects write-side faults on one connection. Reads
// pass through untouched: every client-side fault already propagates
// to the server (a cut closes the pipe under the server's reader).
type faultyStreamConn struct {
	d      *FaultyDialer
	rwc    io.ReadWriteCloser
	writes int
}

func (c *faultyStreamConn) Read(p []byte) (int, error) { return c.rwc.Read(p) }

// isHeartbeatFrame matches a write that is exactly one heartbeat frame:
// the 5-byte header (type + length 16) plus the fixed 16-byte payload.
// The stream transport writes heartbeats as single whole frames, so
// this is the only shape they take on the wire.
func isHeartbeatFrame(p []byte) bool {
	return len(p) == 21 && p[0] == byte(protocol.FrameHeartbeat) &&
		binary.BigEndian.Uint32(p[1:5]) == 16
}

func (c *faultyStreamConn) Close() error { return c.rwc.Close() }

func (c *faultyStreamConn) Write(p []byte) (int, error) {
	c.writes++
	if c.writes > 1 && len(p) > 0 {
		if w := c.d.Profile.HeartbeatWarp; w > 0 && isHeartbeatFrame(p) {
			c.d.Stats.Warps++
			// Rewrite on a copy: the frame buffer belongs to the caller.
			q := append([]byte(nil), p...)
			now := time.Duration(binary.BigEndian.Uint64(q[13:21])) - w
			if now < 0 {
				now = 0
			}
			binary.BigEndian.PutUint64(q[13:21], uint64(now))
			p = q
		}
		if r := c.d.Profile.CutRate; r > 0 && c.d.rng.Bool(r) {
			c.d.Stats.Cuts++
			k := c.d.rng.Intn(len(p)) // 0..len-1: never the whole frame
			if k > 0 {
				c.rwc.Write(p[:k])
			}
			c.rwc.Close()
			return k, fmt.Errorf("%w: stream cut mid-frame after %d of %d bytes", ErrNetwork, k, len(p))
		}
		if r := c.d.Profile.TearRate; r > 0 && len(p) > 1 && c.d.rng.Bool(r) {
			c.d.Stats.Tears++
			k := 1 + c.d.rng.Intn(len(p)-1)
			n1, err := c.rwc.Write(p[:k])
			if err != nil {
				return n1, err
			}
			n2, err := c.rwc.Write(p[k:])
			return n1 + n2, err
		}
	}
	return c.rwc.Write(p)
}
