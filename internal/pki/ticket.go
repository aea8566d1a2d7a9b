package pki

import (
	"crypto/cipher"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync/atomic"
	"time"
)

// Session-resumption ticket sealing (TLS-1.3-shaped). The server hands
// every successfully logged-in device an opaque ticket — the session
// key plus account binding AEAD-sealed under a server-side ticket key —
// and a later ResumeSubmit presenting that ticket re-establishes a
// session with symmetric crypto only. Ticket keys rotate on the virtual
// clock in fixed epochs: the sealing key for epoch e is derived from a
// master secret with HMAC-SHA256, so rotation stores no key material
// beyond the master (TicketKeys caches only what it can re-derive) and
// stays deterministic under the repo's virtual-time contract. A ticket
// carries its epoch in clear (and bound into the AEAD's associated
// data); Open accepts only the current epoch and the configured window
// of past epochs, which bounds every ticket's lifetime to
// (window+1) x period regardless of server uptime.

// ticketEpochLabel domain-separates epoch-key derivation from every
// other HMAC use of the master secret.
const ticketEpochLabel = "trust-ticket-epoch-v1"

// Default ticket rotation: 5 virtual minutes per epoch, current plus
// one past epoch accepted, so a ticket lives 5–10 minutes — inside the
// webserver nonce table's default TTL, which backs single-use
// enforcement.
const (
	DefaultTicketPeriod = 5 * time.Minute
	DefaultTicketWindow = 1
)

// ErrTicketEpoch is returned by TicketKeys.Open for a ticket sealed in
// an epoch outside the acceptance window (expired, or from the future).
var ErrTicketEpoch = errors.New("pki: ticket epoch outside acceptance window")

// TicketKeys holds the server's ticket-sealing master secret, the
// epoch-rotation policy and a cache of epoch AEADs. Safe for concurrent
// use without a lock: the cache is an immutable epoch table behind an
// atomic pointer, holding one AES-GCM for the newest epoch any caller
// has reached and one for each of the window epochs before it. A
// caller whose epoch is newer than the table's derives a replacement
// table and installs it with compare-and-swap, so the table only moves
// forward and each epoch's key schedule is built once, not per ticket.
// A caller whose virtual clock lags the table still gets the exact
// window rule (Open checks against the caller's own now); if it needs
// an epoch the table no longer holds, that one call derives the key
// itself and leaves the table alone, so callers on either side of an
// epoch boundary never make it thrash.
type TicketKeys struct {
	master [32]byte
	period time.Duration
	window uint64
	table  atomic.Pointer[epochTable]
}

// epochTable is one immutable generation of the AEAD cache: aeads[i]
// seals epoch newest-i. It holds fewer than window+1 entries only when
// newest < window (there is no epoch before 0).
type epochTable struct {
	newest uint64
	aeads  []cipher.AEAD
}

// get returns the table's AEAD for epoch, or nil when it holds none.
func (tab *epochTable) get(epoch uint64) cipher.AEAD {
	if tab == nil || epoch > tab.newest || tab.newest-epoch >= uint64(len(tab.aeads)) {
		return nil
	}
	return tab.aeads[tab.newest-epoch]
}

// NewTicketKeys draws a fresh master secret from rand. period is the
// epoch length on the virtual clock; window is how many past epochs
// Open accepts besides the current one.
func NewTicketKeys(rand io.Reader, period time.Duration, window int) (*TicketKeys, error) {
	if period <= 0 {
		return nil, fmt.Errorf("pki: ticket epoch period must be positive, got %v", period)
	}
	if window < 0 {
		return nil, fmt.Errorf("pki: ticket epoch window must be non-negative, got %d", window)
	}
	t := &TicketKeys{period: period, window: uint64(window)}
	if _, err := io.ReadFull(rand, t.master[:]); err != nil {
		return nil, fmt.Errorf("pki: drawing ticket master secret: %w", err)
	}
	return t, nil
}

// Epoch returns the rotation epoch containing the virtual instant now.
func (t *TicketKeys) Epoch(now time.Duration) uint64 {
	return uint64(now / t.period)
}

// epochAEAD derives the AES-GCM for one epoch: its key is
// HMAC-SHA256(master, label || epoch).
func (t *TicketKeys) epochAEAD(epoch uint64) (cipher.AEAD, error) {
	return newGCM(NewMACer(t.master[:]).MAC(binary.BigEndian.AppendUint64([]byte(ticketEpochLabel), epoch)))
}

// aead returns the AEAD for epoch on behalf of a caller at epoch cur
// (epoch <= cur). It advances the table when cur is newer than it,
// serves epoch from the table when held, and otherwise derives it for
// this call only.
func (t *TicketKeys) aead(cur, epoch uint64) (cipher.AEAD, error) {
	tab := t.table.Load()
	for tab == nil || cur > tab.newest {
		next, err := t.advance(tab, cur)
		if err != nil {
			return nil, err
		}
		if t.table.CompareAndSwap(tab, next) {
			tab = next
		} else {
			tab = t.table.Load()
		}
	}
	if aead := tab.get(epoch); aead != nil {
		return aead, nil
	}
	return t.epochAEAD(epoch)
}

// advance builds the table whose newest epoch is cur, reusing the AEADs
// old already holds for epochs still inside the window.
func (t *TicketKeys) advance(old *epochTable, cur uint64) (*epochTable, error) {
	n := min(t.window, cur) + 1
	next := &epochTable{newest: cur, aeads: make([]cipher.AEAD, n)}
	for i := range next.aeads {
		epoch := cur - uint64(i)
		aead := old.get(epoch)
		if aead == nil {
			var err error
			if aead, err = t.epochAEAD(epoch); err != nil {
				return nil, err
			}
		}
		next.aeads[i] = aead
	}
	return next, nil
}

// appendAAD appends the associated data a ticket binds, aad followed by
// the ticket's clear epoch prefix, to dst. Binding the prefix means
// rewriting it to shift a ticket into a different epoch's key fails
// outright rather than merely failing to decrypt. Seal and Open build
// it in the spare tail of the one buffer each allocates, past the
// bytes the AEAD writes (its dst is capped there), so it costs no
// allocation of its own.
func appendAAD(dst, epoch, aad []byte) []byte {
	return append(append(dst, aad...), epoch...)
}

// A ticket is [8B epoch | 12B AES-GCM nonce | ciphertext].
const (
	ticketNonceSize = 12
	ticketHead      = 8 + ticketNonceSize
)

// Seal encrypts plaintext under the key of the epoch containing now,
// building the ticket in one buffer with the nonce drawn from rand. aad
// binds caller context (domain, message type).
func (t *TicketKeys) Seal(now time.Duration, plaintext, aad []byte, rand io.Reader) ([]byte, error) {
	epoch := t.Epoch(now)
	aead, err := t.aead(epoch, epoch)
	if err != nil {
		return nil, err
	}
	n := ticketHead + len(plaintext) + aead.Overhead()
	out := make([]byte, ticketHead, n+len(aad)+8)
	binary.BigEndian.PutUint64(out, epoch)
	if _, err := io.ReadFull(rand, out[8:ticketHead]); err != nil {
		return nil, fmt.Errorf("pki: drawing nonce: %w", err)
	}
	ad := appendAAD(out[n:n], out[:8], aad)
	return aead.Seal(out[:ticketHead:n], out[8:ticketHead], plaintext, ad), nil
}

// Open decrypts a Seal output if its epoch is the current one or at
// most Window epochs old at the virtual instant now. Expired (or
// future-dated) tickets return ErrTicketEpoch; tampered ones return
// ErrDecrypt.
func (t *TicketKeys) Open(now time.Duration, ticket, aad []byte) ([]byte, error) {
	if len(ticket) < 8 {
		return nil, ErrDecrypt
	}
	epoch := binary.BigEndian.Uint64(ticket)
	cur := t.Epoch(now)
	if epoch > cur || cur-epoch > t.window {
		return nil, ErrTicketEpoch
	}
	if len(ticket) < ticketHead {
		return nil, ErrDecrypt
	}
	aead, err := t.aead(cur, epoch)
	if err != nil {
		return nil, err
	}
	ct := ticket[ticketHead:]
	if len(ct) < aead.Overhead() {
		return nil, ErrDecrypt
	}
	n := len(ct) - aead.Overhead()
	buf := make([]byte, n, n+len(aad)+8)
	ad := appendAAD(buf[n:], ticket[:8], aad)
	pt, err := aead.Open(buf[:0:n], ticket[8:ticketHead], ct, ad)
	if err != nil {
		return nil, ErrDecrypt
	}
	return pt, nil
}
