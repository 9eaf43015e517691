// Package faultinject is the deterministic fault-injection layer of the
// distributed subsystems: a seeded source of scripted failures that plugs
// into the existing seams — the internal/lineio framing every wire protocol
// shares, and the sweep coordinator's worker Command/Env hook (env-scripted
// crash/garble/delay/hang plans that wrap a test worker's stdio). The same discipline that pins every engine
// refactor applies to failures too: a fault schedule is a pure function of
// (seed, component name, decision index), so a chaos run that breaks
// replays byte-for-byte from its seed, and CI can assert invariants ("every
// request answered exactly once, merged output byte-identical to the
// fault-free golden") across a fixed seed matrix instead of hoping a flaky
// schedule recurs.
//
// The package deliberately injects only faults a deployment actually
// produces: delayed, garbled and torn (mid-byte truncated) lines, worker
// crashes at chosen points, and slow or hung workers. It contains no
// test assertions itself — the chaos harnesses in internal/serve and
// internal/sweep own the invariants.
package faultinject

import (
	"hash/fnv"
	"math/rand"
	"sync"
	"time"
)

// Injector derives independent deterministic decision streams from one
// seed. Distinct component names yield decorrelated streams, so adding a
// fault site never perturbs the schedule of an existing one — the same
// stability argument the scenario layer makes for its per-spec seeds.
type Injector struct {
	seed int64
}

// New builds an injector for the given seed.
func New(seed int64) *Injector { return &Injector{seed: seed} }

// Seed reports the injector's seed (chaos harnesses log it on failure).
func (in *Injector) Seed() int64 { return in.seed }

// Stream returns the named deterministic decision stream: the same
// (seed, name) pair always yields the same decision sequence.
func (in *Injector) Stream(name string) *Stream {
	h := fnv.New64a()
	var b [8]byte
	for i := range b {
		b[i] = byte(uint64(in.seed) >> (8 * i))
	}
	h.Write(b[:])
	h.Write([]byte(name))
	return &Stream{rng: rand.New(rand.NewSource(int64(h.Sum64())))}
}

// Stream is one deterministic decision source. It is safe for concurrent
// use; determinism then holds per interleaving, which is exactly what a
// -race chaos run explores.
type Stream struct {
	mu  sync.Mutex
	rng *rand.Rand
}

// Hit reports true with probability p.
func (s *Stream) Hit(p float64) bool {
	if p <= 0 {
		return false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.rng.Float64() < p
}

// Intn draws uniformly from [0, n); n < 1 returns 0.
func (s *Stream) Intn(n int) int {
	if n < 1 {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.rng.Intn(n)
}

// Duration draws uniformly from [0, max).
func (s *Stream) Duration(max time.Duration) time.Duration {
	if max <= 0 {
		return 0
	}
	return time.Duration(s.Intn(int(max)))
}

// garbleByte is the corruption byte every fault site writes. '#' cannot
// appear inside a syntactically valid protocol number, literal or key, so
// a garbled line is detected by the JSON layer (a parse error, an unknown
// field, an id mismatch) instead of silently decoding to a wrong value —
// the wire has no checksum, so the injector must not fabricate corruptions
// only a checksum could catch.
const garbleByte = '#'

// garble overwrites 1..4 deterministic positions of b with garbleByte,
// never touching newlines (framing faults are scripted separately, as
// truncations).
func (s *Stream) garble(b []byte) bool {
	if len(b) == 0 {
		return false
	}
	hit := false
	for k := 1 + s.Intn(4); k > 0; k-- {
		i := s.Intn(len(b))
		if b[i] != '\n' {
			b[i] = garbleByte
			hit = true
		}
	}
	return hit
}
