package webserver

import (
	"io"
	"time"

	"trust/internal/pki"
	"trust/internal/protocol"
	"trust/internal/wire"
)

// Session-resumption tickets, server side. Every successful login (and
// every successful resume) returns an opaque ticket: the session key
// plus account binding AEAD-sealed under the server's epoch-rotated
// ticket key (pki.TicketKeys). A later ResumeSubmit presenting the
// ticket re-establishes a session with symmetric crypto only — no login
// page round trip, no ed25519 verify, no KEM decapsulation. Three
// independent bounds limit a ticket's usefulness:
//
//   - epoch rotation: pki's Open accepts only the current and the
//     configured window of past epochs, capping lifetime at
//     (window+1) x period of virtual time;
//   - single use: the ticket seals a nonce registered in the shared
//     nonce store at issue time and consumed (under the shard mutex —
//     the exactly-once primitive) on resume;
//   - binding generation: the ticket seals the account's Gen, so
//     ResetIdentity followed by re-registration strands every ticket
//     minted against the old binding.
//
// The sealed plaintext never leaves the server in clear; the device
// treats the ticket as an opaque byte string.

// ticketAADLabel domain-separates ticket sealing from every other AEAD
// use in the system; the server's domain is appended so tickets cannot
// migrate between services even if ticket masters collided.
const ticketAADLabel = "trust-ticket-v1"

// ticketState is the sealed plaintext of one resumption ticket.
type ticketState struct {
	account string
	gen     uint64         // account binding generation at issue
	nonce   protocol.Nonce // single-use token, registered in the nonce store
	key     []byte         // the session key the ticket resumes from
}

// fields walks the sealed layout, big-endian with 2-byte lengths
// (internal/wire):
//
//	len16(account) || account || len16(nonce) || nonce || gen(u64) ||
//	session key (32 bytes)
//
// An account id the 2-byte length cannot state is refused, and no
// ticket is issued for it. The decoded key aliases the plaintext,
// which pki's Open allocates afresh for each ticket.
func (st *ticketState) fields(c *wire.Codec) {
	c.Str(&st.account)
	c.Str((*string)(&st.nonce))
	c.U64(&st.gen)
	c.View(&st.key, pki.SessionKeySize)
}

// lockedEntropy adapts the server's entropy stream to io.Reader for
// pki sealing, taking the entropy mutex per read. entropyMu is a leaf
// in the lock hierarchy, so callers may hold session or shard locks.
type lockedEntropy struct{ s *Server }

func (l lockedEntropy) Read(p []byte) (int, error) {
	l.s.entropyMu.Lock()
	defer l.s.entropyMu.Unlock()
	return l.s.entropy.Read(p)
}

var _ io.Reader = lockedEntropy{}

// issueTicket mints a fresh resumption ticket for an account binding
// and the session key it should resume from: register a single-use
// nonce, seal the state under the current epoch's ticket key. Returns
// nil when the state does not encode or sealing fails (deterministic
// entropy cannot fail in practice); a nil ticket simply leaves the
// response without one and the device falls back to full login.
func (s *Server) issueTicket(now time.Duration, acct *Account, sessionKey []byte) []byte {
	n := s.mintNonce()
	s.nonces.issue(n, now)
	st := ticketState{account: acct.ID, gen: acct.Gen, nonce: n, key: sessionKey}
	c := wire.NewEncoder(wire.BigEndian16, make([]byte, 0, 2+len(st.account)+2+len(st.nonce)+8+len(st.key)))
	if st.fields(&c); c.Err() != nil {
		return nil
	}
	ticket, err := s.tickets.Seal(now, c.Data(), s.ticketAAD, lockedEntropy{s})
	if err != nil {
		return nil
	}
	return ticket
}

// openTicket unseals and parses a presented ticket. Every failure —
// expired or future epoch, tampered ciphertext, malformed plaintext —
// collapses to ErrBadTicket: the distinctions are not actionable for a
// client beyond "fall back to full login", and a single code keeps the
// rejection oracle narrow.
func (s *Server) openTicket(now time.Duration, ticket []byte) (ticketState, error) {
	pt, err := s.tickets.Open(now, ticket, s.ticketAAD)
	if err != nil {
		return ticketState{}, ErrBadTicket
	}
	var st ticketState
	c := wire.NewDecoder(wire.BigEndian16, pt)
	if st.fields(&c); c.Err() != nil || c.Rest() != 0 {
		return ticketState{}, ErrBadTicket
	}
	return st, nil
}
