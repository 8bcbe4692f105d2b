//go:build race

// Package race reports whether the binary was built with the race detector,
// for tests that pin allocation counts: under -race sync.Pool drops Puts at
// random, so a pooled path allocates a different number of times every run.
package race

// Enabled is true in a -race build.
const Enabled = true
