package main

import (
	"math"
	"slices"
	"syscall"
	"time"
)

// tailBeyond is how many samples must lie beyond a reported percentile.
const tailBeyond = 10

// quantile returns the exact p-quantile of sorted by nearest rank, and the
// percentile it actually reports: when fewer than beyond samples lie above
// rank p, the rank is lowered until beyond samples do, but never below the
// median. sorted must be ascending and non-empty.
func quantile(sorted []int64, p float64, beyond int) (value int64, used float64) {
	n := len(sorted)
	rank := int(math.Ceil(p * float64(n)))
	rank = min(rank, n-beyond)
	rank = max(rank, (n+1)/2, 1)
	return sorted[rank-1], float64(rank) / float64(n)
}

// quantileOf is the nearest-rank p-quantile of ascending float samples.
func quantileOf(sorted []float64, p float64) float64 {
	rank := int(math.Ceil(p * float64(len(sorted))))
	return sorted[min(max(rank, 1), len(sorted))-1]
}

func medianInt64(v []int64) int64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]int64(nil), v...)
	slices.Sort(s)
	m, _ := quantile(s, 0.5, 0)
	return m
}

// median of float samples, the mean of the middle two for an even count;
// 0 for none.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	slices.Sort(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// cpuTime is the user plus system CPU time this process has used.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set size. Linux reports
// ru_maxrss in KiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}
