//go:build !race

package dnsttl

const raceEnabled = false
