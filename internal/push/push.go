// Package push is the change-feed plane: the third axis of the paper's
// "what TTL should operators pick" question. Instead of buying freshness
// with short TTLs (§5's update-latency/query-volume tension), authoritative
// zones publish versioned change sets — a zone serial plus per-name
// add/remove deltas, NOTIFY/IXFR-shaped (RFC 1996/1995) — and resolvers
// subscribe per zone. An incoming NOTIFY drives a targeted cache purge
// (reusing the cache's O(glue) PurgeGlueOf index for delegation changes),
// optionally followed by an immediate re-resolve ("purge+prefetch"), so
// long-TTL zones propagate updates at notify latency instead of TTL expiry.
//
// The plane has two halves. Feed watches one zone's mutations (via
// zone.SetWatcher), allocates monotone serials, and keeps a bounded
// IXFR-style history. Authority owns the wire protocol on the server:
// subscription requests (a NOTIFY-opcode query for type IXFR), NOTIFY
// fan-out to subscribers on every change, and SOA-framed IXFR responses
// with an AXFR-shaped full-zone fallback when the history no longer covers
// a client's serial. Subscriber is the resolver side: it subscribes,
// resubscribing on every Tick after a failure, applies deltas as
// cache purges across one or many stores (a farm's frontends), falls back
// to SOA polling when notifies stop arriving, and vetoes RFC 8767
// serve-stale for names it knows to be superseded (resolver.StaleGate).
//
// Everything is deterministic: message IDs come from atomic counters, no
// RNG is consumed, and both halves run under simnet's virtual clock, so
// the propagation experiments (internal/experiments/pushprop.go) replay
// byte-identically at any worker count.
package push

import "dnsttl/internal/dnswire"

// TypeIXFR is the incremental zone-transfer query type (RFC 1995). A
// subscriber pulls deltas with an IXFR query carrying its current SOA in
// the authority section; TypeAXFR (internal/authoritative) is the
// full-transfer fallback framing.
const TypeIXFR = dnswire.Type(251)
