// Package retry holds the jittered exponential backoff policy shared by
// every reconnect-and-retry loop of the distributed layer: the serve
// client's idempotent-verb retries and the sweep coordinator's worker-slot
// respawns. One implementation pins one discipline — exponential growth,
// a hard cap, and half-width jitter — and, like every other source of
// pseudo-randomness in this repository, the jitter is seeded: a fixed seed
// yields a fixed delay sequence, so resilience tests are as deterministic
// as the engines they exercise.
package retry

import (
	"math/rand"
	"time"
)

// Backoff produces the delay before each successive retry of one logical
// operation: attempt n (0-based) draws uniformly from [d/2, d) where
// d = min(Base·2ⁿ, Max). The half-width jitter decorrelates concurrent
// retry loops (no thundering-herd respawns) while keeping every delay
// within a factor of two of the deterministic schedule, so tests can bound
// total elapsed time from both sides. Not safe for concurrent use; each
// retry loop owns its Backoff.
type Backoff struct {
	base, max time.Duration
	attempt   int
	rng       *rand.Rand
}

// New builds a backoff policy with the given base and cap, jitter-seeded
// deterministically. base < 1 selects 100ms; max < base selects 64·base.
func New(base, max time.Duration, seed int64) *Backoff {
	if base < 1 {
		base = 100 * time.Millisecond
	}
	if max < base {
		max = 64 * base
	}
	return &Backoff{base: base, max: max, rng: rand.New(rand.NewSource(seed))}
}

// Next returns the delay before the next retry and advances the schedule.
func (b *Backoff) Next() time.Duration {
	d := b.base << uint(min(b.attempt, 62))
	if d <= 0 || d > b.max {
		d = b.max
	}
	b.attempt++
	// Uniform in [d/2, d): never collapses below half the deterministic
	// schedule, never reaches the next doubling.
	return d/2 + time.Duration(b.rng.Int63n(int64(d/2)+1))
}

// Reset rewinds the schedule to the first attempt (the jitter stream keeps
// advancing, so delays stay decorrelated across resets).
func (b *Backoff) Reset() { b.attempt = 0 }
