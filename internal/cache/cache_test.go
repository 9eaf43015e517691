package cache

import (
	"sync"
	"sync/atomic"
	"testing"
)

// TestLRUBasics pins lookup, refresh and least-recently-used eviction order.
func TestLRUBasics(t *testing.T) {
	var evicted []int
	c := NewLRU[int, string](3, func(k int, _ string) { evicted = append(evicted, k) })
	c.Put(1, "a")
	c.Put(2, "b")
	c.Put(3, "c")
	if v, ok := c.Get(1); !ok || v != "a" {
		t.Fatalf("Get(1) = %q, %v", v, ok)
	}
	// 2 is now the LRU entry; inserting 4 must evict it.
	c.Put(4, "d")
	if len(evicted) != 1 || evicted[0] != 2 {
		t.Fatalf("evicted %v, want [2]", evicted)
	}
	if _, ok := c.Get(2); ok {
		t.Fatal("evicted key still present")
	}
	// Refreshing an existing key must not evict.
	c.Put(3, "c2")
	if v, _ := c.Get(3); v != "c2" {
		t.Fatalf("refresh lost: %q", v)
	}
	if c.Len() != 3 {
		t.Fatalf("Len = %d, want 3", c.Len())
	}
	st := c.Stats()
	if st.Evictions != 1 || st.Entries != 3 {
		t.Fatalf("stats %+v", st)
	}
	if st.Hits != 2 || st.Misses != 1 {
		t.Fatalf("hit/miss accounting %+v", st)
	}
}

// TestLRUConcurrentEviction hammers a small LRU from many goroutines under
// the race detector: the capacity bound must hold throughout, every evicted
// value must be surrendered exactly once, and at the end retained + evicted
// must account for every insertion.
func TestLRUConcurrentEviction(t *testing.T) {
	const capacity, workers, perWorker = 16, 8, 500
	var evictions atomic.Int64
	c := NewLRU[int, int](capacity, func(_, _ int) { evictions.Add(1) })
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				k := (w*perWorker + i) % 97
				if _, ok := c.Get(k); !ok {
					c.Put(k, k)
				}
				if n := c.Len(); n > capacity {
					t.Errorf("capacity bound violated: %d > %d", n, capacity)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	st := c.Stats()
	if got := int64(st.Evictions); got != evictions.Load() {
		t.Fatalf("eviction counter %d != callback count %d", got, evictions.Load())
	}
	if st.Entries > capacity {
		t.Fatalf("retained %d entries over capacity %d", st.Entries, capacity)
	}
	if st.Hits+st.Misses != workers*perWorker {
		t.Fatalf("hits %d + misses %d != %d lookups", st.Hits, st.Misses, workers*perWorker)
	}
}

// TestPoolCheckout pins the checkout discipline: instances are exclusive
// between Get and Put, LIFO within a key, and bounded with
// oldest-of-coldest-key eviction.
func TestPoolCheckout(t *testing.T) {
	p := NewPool[string, int](3)
	if _, ok := p.Get("a"); ok {
		t.Fatal("empty pool returned an instance")
	}
	p.Put("a", 1)
	p.Put("a", 2)
	p.Put("b", 3)
	if v, ok := p.Get("a"); !ok || v != 2 {
		t.Fatalf("Get(a) = %d, %v; want newest instance 2", v, ok)
	}
	p.Put("a", 2)
	// Pool is at capacity 3 (a:[1,2], b:[3]); b is the LRU key, so its
	// oldest instance goes first.
	p.Put("c", 4)
	if p.Len() != 3 {
		t.Fatalf("Len = %d, want 3", p.Len())
	}
	st := p.Stats()
	if st.Evictions != 1 || st.Entries != 3 {
		t.Fatalf("stats %+v", st)
	}
	if _, ok := p.Get("b"); ok {
		t.Fatal("b survived the eviction, want it to be the victim")
	}
	if v, ok := p.Get("a"); !ok || v != 2 {
		t.Fatalf("Get(a) after eviction = %d, %v; want 2", v, ok)
	}
}

// TestPoolConcurrent checks the pool under contention: every instance is
// held by at most one goroutine at a time (exclusive checkout), and the
// idle bound holds. Instances are *int counters bumped while held; a data
// race here means two holders shared one instance. Every Put is accounted
// for: still idle, popped by a hit, or evicted.
func TestPoolConcurrent(t *testing.T) {
	const capacity, workers, iters = 8, 8, 400
	p := NewPool[int, *int](capacity)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				k := i % 5
				v, ok := p.Get(k)
				if !ok {
					v = new(int)
				}
				*v++ // exclusive: the race detector flags any sharing
				p.Put(k, v)
			}
		}(w)
	}
	wg.Wait()
	if n := p.Len(); n > capacity {
		t.Fatalf("idle bound violated: %d > %d", n, capacity)
	}
	st := p.Stats()
	if st.Hits+st.Misses != workers*iters {
		t.Fatalf("hits %d + misses %d != %d checkouts", st.Hits, st.Misses, workers*iters)
	}
	if got := uint64(st.Entries) + st.Hits + st.Evictions; got != workers*iters {
		t.Fatalf("idle %d + hits %d + evictions %d = %d, want the %d instances put", st.Entries, st.Hits, st.Evictions, got, workers*iters)
	}
}

// Len returns the number of cached values.
func (c *LRU[K, V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.items)
}

// Len returns the number of idle instances currently retained.
func (p *Pool[K, V]) Len() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.count
}
