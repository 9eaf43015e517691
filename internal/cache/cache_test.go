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

// Len returns the number of cached values.
func (c *LRU[K, V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.items)
}
