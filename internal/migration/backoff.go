package migration

import (
	"dvemig/internal/simtime"
)

// BackoffPolicy is the shared retry schedule for everything that
// re-attempts migration work: the migd reconnect loop in this package
// and the control plane's per-object retry/resend timers (ctlplane).
// Delays grow exponentially from Base, doubling per attempt, capped at
// Max, with an optional seed-deterministic jitter fraction on top — the
// jitter comes from a simtime.Rand the caller seeds, never from wall
// clock, so every schedule is reproducible at any worker count.
type BackoffPolicy struct {
	// Base is the delay before the first retry.
	Base simtime.Duration
	// Max caps the exponential growth. Zero or negative means no cap.
	Max simtime.Duration
	// Jitter adds up to this fraction of the computed delay, drawn from
	// the caller's deterministic rng: delay += delay*Jitter*rng.Float64().
	// Zero disables jitter (and never touches the rng, so existing
	// schedules are bit-identical to the pre-jitter code).
	Jitter float64
}

// Delay returns the wait before retry `attempt` (1-based: attempt 1 is
// the first retry). rng may be nil when Jitter is zero.
func (b BackoffPolicy) Delay(attempt int, rng *simtime.Rand) simtime.Duration {
	d := b.Base
	for i := 1; i < attempt; i++ {
		d *= 2
		if b.Max > 0 && d >= b.Max {
			d = b.Max
			break
		}
	}
	if b.Max > 0 && d > b.Max {
		d = b.Max
	}
	if b.Jitter > 0 && rng != nil {
		d += simtime.Duration(float64(d) * b.Jitter * rng.Float64())
	}
	return d
}

// Schedule renders the first n delays of the policy — what a caller
// that retries n times would actually wait — using rng for the jitter
// term. Tests pin this and the control plane logs it into cause chains.
func (b BackoffPolicy) Schedule(n int, rng *simtime.Rand) []simtime.Duration {
	out := make([]simtime.Duration, n)
	for i := range out {
		out[i] = b.Delay(i+1, rng)
	}
	return out
}

// retryPolicy derives the migd reconnect schedule from the config
// knobs (RetryBackoff/RetryBackoffMax/RetryJitter).
func (c Config) retryPolicy() BackoffPolicy {
	return BackoffPolicy{Base: c.RetryBackoff, Max: c.RetryBackoffMax, Jitter: c.RetryJitter}
}
