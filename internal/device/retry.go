package device

import (
	"errors"
	"fmt"
	"time"

	"trust/internal/pki"
	"trust/internal/sim"
	"trust/internal/webserver"
)

// RetryPolicy drives the *Resilient flows: capped exponential backoff
// with deterministic jitter, all in virtual time.
type RetryPolicy struct {
	// MaxAttempts is the total number of deliveries tried, including
	// the first. 1 means fail-fast; 0 is treated as 1.
	MaxAttempts int
	// BaseDelay is the backoff before the second attempt; each further
	// attempt doubles it up to MaxDelay.
	BaseDelay time.Duration
	// MaxDelay caps the backoff growth.
	MaxDelay time.Duration
	// JitterFrac spreads each backoff uniformly over ±JitterFrac of its
	// nominal value, drawn from the device's retry RNG (deterministic,
	// but decorrelated across devices so a fleet doesn't retry in
	// lockstep).
	JitterFrac float64
}

// Retryable reports whether err is worth redelivering: only the
// network-fault class is — the request may never have reached the
// server. Typed server rejections are deliberate verdicts; retrying
// them verbatim can only burn the failure budget (ErrBadNonce gets its
// own resync path instead, see BrowseResilient).
func Retryable(err error) bool { return errors.Is(err, ErrNetwork) }

// backoff returns the delay before attempt+1 (attempt counts completed
// tries, starting at 1).
func (p *RetryPolicy) backoff(attempt int, rng *sim.RNG) time.Duration {
	d := p.BaseDelay
	for i := 1; i < attempt && d < p.MaxDelay; i++ {
		d *= 2
	}
	if p.MaxDelay > 0 && d > p.MaxDelay {
		d = p.MaxDelay
	}
	if p.JitterFrac > 0 && rng != nil {
		d = time.Duration(float64(d) * (1 + p.JitterFrac*(2*rng.Float64()-1)))
	}
	if d < 0 {
		d = 0
	}
	return d
}

// SetRetryPolicy arms the *Resilient flows. rng supplies backoff
// jitter and may be nil (no jitter).
func (d *Device) SetRetryPolicy(p RetryPolicy, rng *sim.RNG) {
	d.Retry = &p
	d.retryRNG = rng
}

// Degraded reports whether the device is in the paper's local fallback
// mode: the server became unreachable, so pages are served from the
// local cache under the module's local continuous authentication until
// a server round-trip succeeds again.
func (d *Device) Degraded() bool { return d.degraded }

// Resync recovers a session whose nonce echo was lost: it asks the
// server to re-serve the session's last page under a fresh nonce,
// proving session ownership with the session-key MAC alone.
func (d *Device) Resync(now time.Duration) error {
	if d.session == nil {
		return errors.New("device: no session")
	}
	d.tel.resyncs.Add(1)
	req, err := d.Client.BuildResync(d.session)
	if err != nil {
		return err
	}
	cp, err := d.transport.SubmitResync(now, req)
	if err != nil {
		return err
	}
	if err := d.Client.AcceptContentPage(d.session, cp); err != nil {
		return err
	}
	d.display(cp.Page)
	return nil
}

// retry is the one backoff loop behind the *Resilient flows. It runs
// attempt until it succeeds, fails with an error that is not Retryable,
// or the policy's budget is spent; before each further try it counts a
// retry and advances the virtual clock by the policy's backoff. It
// returns that clock and the last attempt's error.
func (d *Device) retry(now time.Duration, attempt func(now time.Duration) error) (time.Duration, error) {
	for a := 1; ; a++ {
		err := attempt(now)
		if err == nil {
			d.degraded = false
			return now, nil
		}
		// No policy, like a MaxAttempts below 2, means fail-fast.
		if !Retryable(err) || d.Retry == nil || a >= d.Retry.MaxAttempts {
			return now, err
		}
		d.tel.retries.Add(1)
		now += d.Retry.backoff(a, d.retryRNG)
	}
}

// LoginResilient runs the Fig 10 login under the retry policy. Each
// attempt refetches the login page (its nonce is single-use, so a
// failed submission can never be replayed verbatim). It returns the
// virtual time after all waiting, so callers keep their clock aligned
// with the backoff actually spent.
func (d *Device) LoginResilient(now time.Duration, cert *pki.Certificate, account string) (time.Duration, error) {
	now, err := d.retry(now, func(now time.Duration) error { return d.Login(now, cert, account) })
	if err != nil {
		return now, fmt.Errorf("device: login failed after retries: %w", err)
	}
	return now, nil
}

// LoginResumeResilient is LoginResilient for the resume-first login:
// each attempt runs LoginResume, which itself falls back from the
// ticket path to the full cold path, so a retryable error here means
// both paths died on network faults. The ticket is dropped on the
// first in-attempt failure, so later attempts are pure full logins —
// deterministic, at worst one wasted ticket.
func (d *Device) LoginResumeResilient(now time.Duration, cert *pki.Certificate, account string) (time.Duration, error) {
	now, err := d.retry(now, func(now time.Duration) error { return d.LoginResume(now, cert, account) })
	if err != nil {
		return now, fmt.Errorf("device: login failed after retries: %w", err)
	}
	return now, nil
}

// BrowseResilient issues one continuous-auth page request under the
// retry policy, handling each fault class by type:
//
//   - network faults: back off and redeliver;
//   - bad nonce: the previous response was lost AFTER the server
//     applied the action and rotated past us — resync recovers the
//     served page, completing the interaction;
//   - anything else: a deliberate server verdict, returned as is.
//
// If every attempt dies on network faults the device degrades
// gracefully: when the module's local continuous authentication still
// holds, it re-displays the cached page, marks itself Degraded, and
// reports success — the paper's offline fallback. The next successful
// server round-trip clears the flag.
func (d *Device) BrowseResilient(now time.Duration, action string) (time.Duration, error) {
	if d.session == nil {
		return now, errors.New("device: no session")
	}
	now, err := d.retry(now, func(now time.Duration) error {
		err := d.Browse(now, action)
		if errors.Is(err, webserver.ErrBadNonce) {
			// The only way the device's nonce goes stale mid-session is
			// a dropped response: the server already served this action.
			// Resync fetches that page under a fresh nonce.
			err = d.Resync(now)
		}
		return err
	})
	if err == nil || !Retryable(err) {
		return now, err
	}
	// Retries exhausted on network faults: the server is unreachable.
	// Fall back to local mode if the module still vouches for the user.
	if d.current != nil && d.Module.TouchAuthorized(now) {
		d.display(d.current)
		d.degraded = true
		d.tel.degradedEnters.Add(1)
		return now, nil
	}
	return now, fmt.Errorf("device: server unreachable and no local fallback: %w", err)
}
