// Package cache provides the bounded concurrent cache of the scenario layer:
// an LRU for immutable values (analytical models, compiled engines) and a
// singleflight Group that coalesces the concurrent first builds of one key.
// Both are safe for concurrent use; the LRU counts hits, misses and
// evictions, so the scenario sweep path and the noctool serve daemon can
// share one cache and expose its behaviour through the stats protocol verb.
//
// Each LRU is one mutex, one map and one recency list. They are
// asked at most once per protocol line or per scenario, never per bound, so
// there is nothing for lock striping to win, and a capacity of 128 means 128
// entries. Entries are held by strong references inside that bound: the
// garbage collector never silently empties a warm cache between requests,
// and a server under memory pressure degrades by evicting the
// least-recently-used configuration instead of all of them.
package cache

import "sync"

// Stats reports the cumulative behaviour of a cache. Counters are updated
// under the lock the operations already hold.
type Stats struct {
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Evictions uint64 `json:"evictions"`
	// Entries is the number of cached values at snapshot time.
	Entries int `json:"entries"`
}

// entry is one LRU node: an intrusive doubly-linked ring element ordered
// from most- (front) to least-recently used (back).
type entry[K comparable, V any] struct {
	key        K
	value      V
	prev, next *entry[K, V]
}

// LRU is a bounded concurrent least-recently-used cache for immutable
// values: Get returns the cached value directly, so values must be safe for
// concurrent readers (the analytical models and compiled engines it holds
// are).
type LRU[K comparable, V any] struct {
	mu      sync.Mutex
	items   map[K]*entry[K, V]
	root    entry[K, V] // sentinel; root.next is the most recently used entry
	cap     int
	stats   Stats
	onEvict func(K, V)
}

// NewLRU builds an LRU holding at most capacity values. onEvict, when
// non-nil, is called (outside the lock) with every evicted entry.
func NewLRU[K comparable, V any](capacity int, onEvict func(K, V)) *LRU[K, V] {
	if capacity < 1 {
		panic("cache: LRU capacity must be >= 1")
	}
	c := &LRU[K, V]{items: make(map[K]*entry[K, V], capacity), cap: capacity, onEvict: onEvict}
	c.root.prev, c.root.next = &c.root, &c.root
	return c
}

// moveToFront detaches e and re-links it as most-recently-used.
func (c *LRU[K, V]) moveToFront(e *entry[K, V]) {
	e.prev.next = e.next
	e.next.prev = e.prev
	c.pushFront(e)
}

func (c *LRU[K, V]) pushFront(e *entry[K, V]) {
	e.prev = &c.root
	e.next = c.root.next
	c.root.next.prev = e
	c.root.next = e
}

// lookup is the shared body of Get and Lookup; it counts a miss only when
// countMiss is set.
func (c *LRU[K, V]) lookup(k K, countMiss bool) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.items[k]
	if !ok {
		if countMiss {
			c.stats.Misses++
		}
		var zero V
		return zero, false
	}
	c.stats.Hits++
	c.moveToFront(e)
	return e.value, true
}

// Get returns the cached value for k, marking it most-recently used.
func (c *LRU[K, V]) Get(k K) (V, bool) { return c.lookup(k, true) }

// Lookup is Get for a caller that sends a miss elsewhere to be built: a hit
// is counted and refreshed as by Get, a miss is not counted — the Get of
// whoever builds the value counts it, once.
func (c *LRU[K, V]) Lookup(k K) (V, bool) { return c.lookup(k, false) }

// Put inserts (or refreshes) k, evicting the least-recently-used entry when
// the cache is full.
func (c *LRU[K, V]) Put(k K, v V) {
	c.mu.Lock()
	if e, ok := c.items[k]; ok {
		e.value = v
		c.moveToFront(e)
		c.mu.Unlock()
		return
	}
	var old *entry[K, V]
	if len(c.items) >= c.cap {
		old = c.root.prev
		old.prev.next = &c.root
		c.root.prev = old.prev
		delete(c.items, old.key)
		c.stats.Evictions++
	}
	e := &entry[K, V]{key: k, value: v}
	c.items[k] = e
	c.pushFront(e)
	c.mu.Unlock()
	if old != nil && c.onEvict != nil {
		c.onEvict(old.key, old.value)
	}
}

// Stats snapshots the counters.
func (c *LRU[K, V]) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := c.stats
	st.Entries = len(c.items)
	return st
}
