package cache

import "sync"

// Group coalesces identical in-flight computations (singleflight
// semantics): when N callers Do the same key concurrently, one runs fn and
// the other N-1 block and receive that computation's result. The only
// computations behind a Group in this repository are the scenario layer's
// model and engine builds: deterministic, and run without any caller's
// context, so sharing one is indistinguishable from recomputing it and no
// caller's deadline or cancellation reaches another's answer.
//
// The zero Group is ready to use.
type Group[K comparable, V any] struct {
	mu sync.Mutex
	m  map[K]*flightCall[V]
}

type flightCall[V any] struct {
	wg     sync.WaitGroup
	val    V
	err    error
	others int // callers that joined after the leader
}

// Do returns the result of fn for key, running it at most once per set of
// concurrent callers. shared reports whether the result was handed to more
// than one caller (true for the leader too, once a follower joined).
func (g *Group[K, V]) Do(key K, fn func() (V, error)) (v V, err error, shared bool) {
	g.mu.Lock()
	if g.m == nil {
		g.m = make(map[K]*flightCall[V])
	}
	if c, ok := g.m[key]; ok {
		c.others++
		g.mu.Unlock()
		c.wg.Wait()
		return c.val, c.err, true
	}
	c := &flightCall[V]{}
	c.wg.Add(1)
	g.m[key] = c
	g.mu.Unlock()

	c.val, c.err = fn()

	g.mu.Lock()
	delete(g.m, key)
	shared = c.others > 0
	g.mu.Unlock()
	c.wg.Done()
	return c.val, c.err, shared
}
