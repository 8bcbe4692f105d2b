package experiments

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Sweep runs fn(0..n-1) across a pool of workers and returns the results in
// index order. It is the fan-out engine for experiments: each index is an
// independent cell (a TTL point, an outage step, a farm size, one campaign of
// a set) that builds its own seeded Network and Clock, so cells share no
// state and the output is identical whatever the worker count.
//
// workers <= 0 selects GOMAXPROCS. With one worker (or n == 1) the calls run
// inline on the calling goroutine, in index order: that is the serial path,
// with zero scheduling overhead and one cell alive at a time.
func Sweep[T any](n, workers int, fn func(i int) T) []T {
	if n <= 0 {
		return nil
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	out := make([]T, n)
	if workers == 1 {
		for i := range out {
			out[i] = fn(i)
		}
		return out
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				out[i] = fn(i)
			}
		}()
	}
	wg.Wait()
	return out
}
