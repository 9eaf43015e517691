package cache

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// TestSingleflightCoalesces blocks N callers on one in-flight computation:
// exactly one execution must run, every caller must receive its result, and
// every caller must see shared=true (the leader included, since followers
// joined before it finished).
func TestSingleflightCoalesces(t *testing.T) {
	const waiters = 16
	var g Group[string, int]
	var computations atomic.Int32
	gate := make(chan struct{})
	started := make(chan struct{}, 1)

	var wg sync.WaitGroup
	results := make([]int, waiters)
	sharedFlags := make([]bool, waiters)
	// The leader computes; it signals `started` and then blocks on `gate`
	// until every follower has joined.
	leaderFn := func() (int, error) {
		computations.Add(1)
		started <- struct{}{}
		<-gate
		return 42, nil
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		v, err, shared := g.Do("k", leaderFn)
		if err != nil {
			t.Error(err)
		}
		results[0], sharedFlags[0] = v, shared
	}()
	<-started // the computation is now in flight

	for i := 1; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, err, shared := g.Do("k", func() (int, error) {
				computations.Add(1)
				return -1, nil // must never run
			})
			if err != nil {
				t.Error(err)
			}
			results[i], sharedFlags[i] = v, shared
		}(i)
	}
	// Release the leader only once every follower has actually joined the
	// flight, so all N-1 really coalesce rather than racing past it.
	for g.waiters("k") != waiters-1 {
		runtime.Gosched()
	}
	close(gate)
	wg.Wait()

	if n := computations.Load(); n != 1 {
		t.Fatalf("%d computations ran, want exactly 1", n)
	}
	for i, v := range results {
		if v != 42 {
			t.Fatalf("caller %d got %d, want the leader's 42", i, v)
		}
	}
	if !sharedFlags[0] {
		t.Error("leader did not report shared=true despite followers")
	}
	if g.inFlight() != 0 {
		t.Errorf("calls leaked: %d still in flight", g.inFlight())
	}
}

// TestSingleflightSequential checks that completed flights are forgotten:
// sequential calls each run their own computation (the Group is not a
// cache), and distinct keys never coalesce.
func TestSingleflightSequential(t *testing.T) {
	var g Group[int, int]
	runs := 0
	for i := 0; i < 3; i++ {
		v, err, shared := g.Do(1, func() (int, error) { runs++; return runs, nil })
		if err != nil || shared {
			t.Fatalf("iteration %d: err=%v shared=%v", i, err, shared)
		}
		if v != i+1 {
			t.Fatalf("iteration %d: stale result %d", i, v)
		}
	}
	var wg sync.WaitGroup
	var distinct atomic.Int32
	for k := 0; k < 8; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			if _, err, _ := g.Do(100+k, func() (int, error) { distinct.Add(1); return k, nil }); err != nil {
				t.Error(err)
			}
		}(k)
	}
	wg.Wait()
	if distinct.Load() != 8 {
		t.Fatalf("distinct keys coalesced: %d computations for 8 keys", distinct.Load())
	}
}

// TestSingleflightErrorsShared checks that a failing computation delivers
// the same error to every coalesced caller.
func TestSingleflightErrorsShared(t *testing.T) {
	var g Group[string, int]
	wantErr := func() (int, error) { return 0, errSentinel }
	if _, err, _ := g.Do("e", wantErr); err != errSentinel {
		t.Fatalf("err = %v", err)
	}
}

type sentinelError struct{}

func (sentinelError) Error() string { return "sentinel" }

var errSentinel = sentinelError{}

// waiters reports how many callers joined the in-flight computation of key
// after its leader (0 when nothing is in flight) — a test hook for pinning
// coalescing behaviour deterministically.
func (g *Group[K, V]) waiters(key K) int {
	g.mu.Lock()
	defer g.mu.Unlock()
	if c, ok := g.m[key]; ok {
		return c.others
	}
	return 0
}

// inFlight reports the number of keys currently being computed.
func (g *Group[K, V]) inFlight() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.m)
}
