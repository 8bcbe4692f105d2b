// Package flight coalesces identical in-flight calls: the one in-flight
// group, behind the farm's cross-frontend Coalesce, in the mold of
// golang.org/x/sync/singleflight but stdlib-only, typed, and with a join
// hook.
package flight

import "sync"

// call is one leader's run plus everyone waiting on it.
type call[V any] struct {
	wg   sync.WaitGroup
	val  V
	err  error
	dups int
}

// Group runs at most one call per key at a time. The zero value is ready
// to use.
type Group[K comparable, V any] struct {
	mu    sync.Mutex
	calls map[K]*call[V]
}

// Do runs fn once per key at a time. The first caller (the leader) runs
// fn; callers arriving before it finishes run onJoin and then wait,
// receiving the leader's value and error with joined=true. onJoin fires at
// join time — before the wait — so telemetry can observe coalescing while
// the leader is still working.
func (g *Group[K, V]) Do(k K, onJoin func(), fn func() (V, error)) (v V, err error, joined bool) {
	g.mu.Lock()
	if c, ok := g.calls[k]; ok {
		c.dups++
		g.mu.Unlock()
		onJoin()
		c.wg.Wait()
		return c.val, c.err, true
	}
	if g.calls == nil {
		g.calls = make(map[K]*call[V])
	}
	c := &call[V]{}
	c.wg.Add(1)
	g.calls[k] = c
	g.mu.Unlock()

	c.val, c.err = fn()

	g.mu.Lock()
	delete(g.calls, k)
	g.mu.Unlock()
	c.wg.Done()
	return c.val, c.err, false
}

// InFlight reports how many callers are waiting on k (the leader
// excluded) — tests use it to stage deterministic coalescing.
func (g *Group[K, V]) InFlight(k K) int {
	g.mu.Lock()
	defer g.mu.Unlock()
	if c, ok := g.calls[k]; ok {
		return c.dups
	}
	return 0
}
