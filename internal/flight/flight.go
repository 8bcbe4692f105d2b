// Package flight coalesces identical in-flight calls: the one in-flight
// group, behind the farm's cross-frontend Coalesce, the resolver's
// refresh-ahead and the push subscriber's one pull per zone, in the mold of
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
	c := g.startLocked(k)
	g.mu.Unlock()
	g.run(k, c, fn)
	return c.val, c.err, false
}

// TryDo runs fn as k's leader, unless a call for k is already in flight:
// then it returns false at once instead of waiting. It is for optional
// work, like refresh-ahead, that a duplicate trigger should skip.
func (g *Group[K, V]) TryDo(k K, fn func() (V, error)) bool {
	g.mu.Lock()
	if _, ok := g.calls[k]; ok {
		g.mu.Unlock()
		return false
	}
	c := g.startLocked(k)
	g.mu.Unlock()
	g.run(k, c, fn)
	return true
}

// startLocked registers a new call for k; g.mu must be held.
func (g *Group[K, V]) startLocked(k K) *call[V] {
	if g.calls == nil {
		g.calls = make(map[K]*call[V])
	}
	c := &call[V]{}
	c.wg.Add(1)
	g.calls[k] = c
	return c
}

// run runs fn as c's leader, then frees k and releases c's followers.
func (g *Group[K, V]) run(k K, c *call[V], fn func() (V, error)) {
	c.val, c.err = fn()
	g.mu.Lock()
	delete(g.calls, k)
	g.mu.Unlock()
	c.wg.Done()
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
