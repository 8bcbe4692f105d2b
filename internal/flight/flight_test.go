package flight

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// waitJoined blocks until n followers are waiting on k.
func waitJoined(t *testing.T, g *Group[string, int], k string, n int) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); g.InFlight(k) < n; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d followers joined %q", g.InFlight(k), n, k)
		}
	}
}

// TestLeaderAndFollowers: one leader runs fn; followers arriving while it
// runs fire onJoin before they wait — observable while the leader is still
// blocked — and all get the leader's value and error with joined=true.
func TestLeaderAndFollowers(t *testing.T) {
	const followers = 5
	boom := errors.New("boom")
	for _, want := range []struct {
		val int
		err error
	}{{val: 7}, {val: 3, err: boom}} {
		var g Group[string, int]
		var runs, joins atomic.Int32
		entered, release := make(chan struct{}), make(chan struct{})
		call := func() (int, error, bool) {
			return g.Do("k", func() { joins.Add(1) }, func() (int, error) {
				runs.Add(1)
				close(entered)
				<-release
				return want.val, want.err
			})
		}
		type result struct {
			val    int
			err    error
			joined bool
		}
		results := make(chan result, followers+1)
		var wg sync.WaitGroup
		spawn := func() {
			wg.Add(1)
			go func() {
				defer wg.Done()
				v, err, joined := call()
				results <- result{v, err, joined}
			}()
		}
		spawn()
		<-entered
		for i := 0; i < followers; i++ {
			spawn()
		}
		waitJoined(t, &g, "k", followers)
		if joins.Load() != followers {
			t.Fatalf("onJoin ran %d times with the leader still blocked, want %d", joins.Load(), followers)
		}
		if g.InFlight("other") != 0 {
			t.Errorf("InFlight of an idle key = %d", g.InFlight("other"))
		}
		close(release)
		wg.Wait()
		close(results)

		joined := 0
		for r := range results {
			if r.val != want.val || r.err != want.err {
				t.Errorf("got (%d, %v), want (%d, %v)", r.val, r.err, want.val, want.err)
			}
			if r.joined {
				joined++
			}
		}
		if runs.Load() != 1 || joined != followers {
			t.Errorf("fn ran %d times, %d callers joined; want 1 and %d", runs.Load(), joined, followers)
		}
		// The key is free again: the next caller leads.
		if _, _, j := g.Do("k", func() {}, func() (int, error) { return 0, nil }); j {
			t.Errorf("caller after the flight landed was a follower")
		}
	}
}

// TestGroupHammer drives one group from many goroutines over a few keys;
// under -race it checks the leader's result is published to followers, and
// in any mode that a value always belongs to the key it was asked for.
func TestGroupHammer(t *testing.T) {
	const workers, rounds, keys = 16, 400, 4
	var g Group[int, int]
	var led, joined, skipped atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				k := (w + i) % keys
				fn := func() (int, error) {
					led.Add(1)
					time.Sleep(10 * time.Microsecond)
					return k * 100, nil
				}
				if w%4 == 0 { // some callers only try, mixing TryDo into the same keys
					if !g.TryDo(k, fn) {
						skipped.Add(1)
					}
					continue
				}
				v, err, j := g.Do(k, func() { joined.Add(1) }, fn)
				if v != k*100 || err != nil {
					t.Errorf("key %d: got (%d, %v), joined=%v", k, v, err, j)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if led.Load()+joined.Load()+skipped.Load() != workers*rounds {
		t.Errorf("%d led + %d joined + %d skipped != %d calls", led.Load(), joined.Load(), skipped.Load(), workers*rounds)
	}
	for k := 0; k < keys; k++ {
		if g.InFlight(k) != 0 {
			t.Errorf("key %d still has %d waiters", k, g.InFlight(k))
		}
	}
}

// TestTryDo: while k is in flight TryDo returns false without waiting and
// without running fn, nor counting as a waiter; once the leader's fn
// returns, k is free and the next TryDo leads.
func TestTryDo(t *testing.T) {
	var g Group[string, int]
	entered, release, done := make(chan struct{}), make(chan struct{}), make(chan bool)
	go func() {
		done <- g.TryDo("k", func() (int, error) {
			close(entered)
			<-release
			return 1, nil
		})
	}()
	<-entered
	ran := false
	if g.TryDo("k", func() (int, error) { ran = true; return 2, nil }) || ran {
		t.Fatalf("TryDo on an in-flight key led (ran fn: %v)", ran)
	}
	if g.InFlight("k") != 0 {
		t.Errorf("a refused TryDo counts as %d waiters", g.InFlight("k"))
	}
	if !g.TryDo("other", func() (int, error) { return 3, nil }) {
		t.Errorf("TryDo on an idle key did not lead")
	}
	close(release)
	if !<-done {
		t.Fatalf("first TryDo did not lead")
	}
	if !g.TryDo("k", func() (int, error) { ran = true; return 4, nil }) || !ran {
		t.Errorf("key still held after its leader returned")
	}
}
