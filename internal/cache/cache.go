// Package cache provides the bounded concurrent caches of the serving
// layer: a sharded LRU for immutable values (analytical models, compiled
// engines), an instance Pool for mutable checkout objects (constructed
// networks) and a singleflight Group that coalesces identical in-flight
// computations. All three are safe for concurrent use and count hits,
// misses and evictions, so the scenario sweep path and the noctool serve
// daemon can share one cache and expose its behaviour through the stats
// protocol verb.
//
// Unlike the sync.Pool-based caches these types replace, entries are held
// by strong references inside an explicit capacity bound: the garbage
// collector never silently empties a warm cache between requests, and a
// server under memory pressure degrades by evicting the least-recently-used
// configuration instead of all of them.
package cache

import (
	"hash/maphash"
	"runtime"
	"sync"
)

// Stats reports the cumulative behaviour of a cache. Counters are updated
// under the shard locks the operations already hold (no extra atomics on
// the hot path) and summed on read.
type Stats struct {
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Evictions uint64 `json:"evictions"`
	// Entries is the number of cached values at snapshot time.
	Entries int `json:"entries"`
}

// add merges per-shard counters into the snapshot.
func (s *Stats) add(o Stats) {
	s.Hits += o.Hits
	s.Misses += o.Misses
	s.Evictions += o.Evictions
	s.Entries += o.Entries
}

// defaultShards picks the shard count of a new cache: enough shards that
// GOMAXPROCS workers rarely collide on one lock, capped so a small cache is
// not split thinner than one entry per shard.
func defaultShards(capacity int) int {
	n := 1
	for n < runtime.GOMAXPROCS(0) && n < 16 {
		n <<= 1
	}
	for n > 1 && capacity/n < 1 {
		n >>= 1
	}
	return n
}

// entry is one LRU node: an intrusive doubly-linked ring element ordered
// from most- (front) to least-recently used (back).
type entry[K comparable, V any] struct {
	key        K
	value      V
	prev, next *entry[K, V]
}

// lruShard is one lock domain of an LRU: a map for lookup plus a ring whose
// root.next is the most-recently-used entry.
type lruShard[K comparable, V any] struct {
	mu    sync.Mutex
	items map[K]*entry[K, V]
	root  entry[K, V] // sentinel
	cap   int
	stats Stats
}

func (s *lruShard[K, V]) init(capacity int) {
	s.items = make(map[K]*entry[K, V], capacity)
	s.root.prev, s.root.next = &s.root, &s.root
	s.cap = capacity
}

// moveToFront detaches e and re-links it as most-recently-used.
func (s *lruShard[K, V]) moveToFront(e *entry[K, V]) {
	e.prev.next = e.next
	e.next.prev = e.prev
	s.pushFront(e)
}

func (s *lruShard[K, V]) pushFront(e *entry[K, V]) {
	e.prev = &s.root
	e.next = s.root.next
	s.root.next.prev = e
	s.root.next = e
}

// popBack unlinks and returns the least-recently-used entry (nil when empty).
func (s *lruShard[K, V]) popBack() *entry[K, V] {
	e := s.root.prev
	if e == &s.root {
		return nil
	}
	e.prev.next = &s.root
	s.root.prev = e.prev
	e.prev, e.next = nil, nil
	return e
}

// LRU is a bounded, sharded, concurrent least-recently-used cache for
// immutable values: Get returns the cached value directly, so values must be
// safe for concurrent readers (the analytical models and compiled engines it
// holds are). Keys are sharded by runtime hash; each shard holds an equal
// slice of the capacity and evicts independently, so the global bound is
// exact while no operation ever takes more than one shard lock.
type LRU[K comparable, V any] struct {
	seed    maphash.Seed
	shards  []lruShard[K, V]
	mask    uint64
	onEvict func(K, V)
}

// NewLRU builds an LRU holding at most capacity values, sharded for the
// current GOMAXPROCS. onEvict, when non-nil, is called (outside the shard
// lock) with every evicted entry.
func NewLRU[K comparable, V any](capacity int, onEvict func(K, V)) *LRU[K, V] {
	return NewLRUWithShards[K, V](capacity, defaultShards(capacity), onEvict)
}

// NewLRUWithShards is NewLRU with an explicit power-of-two shard count —
// exposed so tests can pin eviction behaviour to one shard.
func NewLRUWithShards[K comparable, V any](capacity, shards int, onEvict func(K, V)) *LRU[K, V] {
	if capacity < 1 {
		panic("cache: LRU capacity must be >= 1")
	}
	if shards < 1 || shards&(shards-1) != 0 {
		panic("cache: shard count must be a positive power of two")
	}
	c := &LRU[K, V]{
		seed:    maphash.MakeSeed(),
		shards:  make([]lruShard[K, V], shards),
		mask:    uint64(shards - 1),
		onEvict: onEvict,
	}
	per := (capacity + shards - 1) / shards
	for i := range c.shards {
		c.shards[i].init(per)
	}
	return c
}

func (c *LRU[K, V]) shard(k K) *lruShard[K, V] {
	return &c.shards[maphash.Comparable(c.seed, k)&c.mask]
}

// Get returns the cached value for k, marking it most-recently used.
func (c *LRU[K, V]) Get(k K) (V, bool) {
	s := c.shard(k)
	s.mu.Lock()
	e, ok := s.items[k]
	if !ok {
		s.stats.Misses++
		s.mu.Unlock()
		var zero V
		return zero, false
	}
	s.stats.Hits++
	s.moveToFront(e)
	v := e.value
	s.mu.Unlock()
	return v, true
}

// Lookup is Get for a caller that sends a miss elsewhere to be built: a hit
// is counted and refreshed as by Get, a miss is not counted — the Get of
// whoever builds the value counts it, once.
func (c *LRU[K, V]) Lookup(k K) (V, bool) {
	s := c.shard(k)
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.items[k]
	if !ok {
		var zero V
		return zero, false
	}
	s.stats.Hits++
	s.moveToFront(e)
	return e.value, true
}

// Put inserts (or refreshes) k, evicting the shard's least-recently-used
// entry when the shard is full.
func (c *LRU[K, V]) Put(k K, v V) {
	s := c.shard(k)
	s.mu.Lock()
	if e, ok := s.items[k]; ok {
		e.value = v
		s.moveToFront(e)
		s.mu.Unlock()
		return
	}
	var evictedKey K
	var evictedVal V
	evicted := false
	if len(s.items) >= s.cap {
		if old := s.popBack(); old != nil {
			delete(s.items, old.key)
			s.stats.Evictions++
			evictedKey, evictedVal, evicted = old.key, old.value, true
		}
	}
	e := &entry[K, V]{key: k, value: v}
	s.items[k] = e
	s.pushFront(e)
	s.mu.Unlock()
	if evicted && c.onEvict != nil {
		c.onEvict(evictedKey, evictedVal)
	}
}

// Len returns the number of cached values.
func (c *LRU[K, V]) Len() int {
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n += len(s.items)
		s.mu.Unlock()
	}
	return n
}

// Stats sums the per-shard counters into one snapshot.
func (c *LRU[K, V]) Stats() Stats {
	var out Stats
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		st := s.stats
		st.Entries = len(s.items)
		out.add(st)
		s.mu.Unlock()
	}
	return out
}
