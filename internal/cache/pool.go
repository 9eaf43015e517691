package cache

import "sync"

// Pool is the checkout counterpart of LRU for mutable instances: several
// identical instances of one key may be idle at once (one per concurrent
// worker that released one), Get pops one for exclusive use and Put returns
// it. Idle instances are bounded: when the pool holds more than its
// capacity, the oldest instance of the least-recently-used key is dropped
// for the garbage collector.
//
// Within a key, Get pops the most recently released instance (LIFO) so the
// hottest memory is reused; across keys, eviction is LRU by last touch.
type Pool[K comparable, V any] struct {
	mu    sync.Mutex
	items map[K]*poolEntry[K, V]
	root  poolEntry[K, V] // sentinel; root.next = most recently used
	count int             // idle instances across all entries
	cap   int
	stats Stats
}

// poolEntry holds the idle instances of one key, newest last, linked into
// the pool's recency ring.
type poolEntry[K comparable, V any] struct {
	key        K
	idle       []V
	prev, next *poolEntry[K, V]
}

// NewPool builds a pool retaining at most capacity idle instances in total.
func NewPool[K comparable, V any](capacity int) *Pool[K, V] {
	if capacity < 1 {
		panic("cache: pool capacity must be >= 1")
	}
	p := &Pool[K, V]{items: make(map[K]*poolEntry[K, V]), cap: capacity}
	p.root.prev, p.root.next = &p.root, &p.root
	return p
}

func (p *Pool[K, V]) unlink(e *poolEntry[K, V]) {
	e.prev.next = e.next
	e.next.prev = e.prev
	e.prev, e.next = nil, nil
}

func (p *Pool[K, V]) pushFront(e *poolEntry[K, V]) {
	e.prev = &p.root
	e.next = p.root.next
	p.root.next.prev = e
	p.root.next = e
}

// Get pops an idle instance of k for exclusive use by the caller, or reports
// a miss (the caller then constructs a fresh instance).
func (p *Pool[K, V]) Get(k K) (V, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	var zero V
	e, ok := p.items[k]
	if !ok {
		p.stats.Misses++
		return zero, false
	}
	p.stats.Hits++
	last := len(e.idle) - 1
	v := e.idle[last]
	e.idle[last] = zero // drop the reference
	e.idle = e.idle[:last]
	p.count--
	p.unlink(e)
	if last == 0 {
		delete(p.items, k)
	} else {
		p.pushFront(e)
	}
	return v, true
}

// Put returns an instance of k to the idle pool, evicting the oldest
// instance of the least-recently-used key when the pool is over capacity.
func (p *Pool[K, V]) Put(k K, v V) {
	p.mu.Lock()
	defer p.mu.Unlock()
	e, ok := p.items[k]
	if !ok {
		e = &poolEntry[K, V]{key: k}
		p.items[k] = e
	} else {
		p.unlink(e)
	}
	p.pushFront(e)
	e.idle = append(e.idle, v)
	p.count++
	if p.count <= p.cap {
		return
	}
	// The victim is the oldest instance of the coldest key; that key can be
	// the one just touched only when it is the pool's sole entry.
	victim := p.root.prev
	var zero V
	last := len(victim.idle) - 1
	copy(victim.idle, victim.idle[1:])
	victim.idle[last] = zero
	victim.idle = victim.idle[:last]
	p.count--
	p.stats.Evictions++
	if last == 0 {
		delete(p.items, victim.key)
		p.unlink(victim)
	}
}

// Stats snapshots the counters. Entries counts idle instances, not distinct
// keys.
func (p *Pool[K, V]) Stats() Stats {
	p.mu.Lock()
	defer p.mu.Unlock()
	st := p.stats
	st.Entries = p.count
	return st
}
