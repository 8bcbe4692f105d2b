#!/usr/bin/env bash
# Smoke-test the structured query-log plane end to end: start an authserver
# and a resolverd both capturing with -qlog, fire a dnsload burst over
# loopback, lint the live Prometheus exposition with dnstop -promlint, stop
# the daemons so the logs flush, and run dnstop over the captured logs
# asserting nonzero record groups, zero decode errors, and a hit rate that
# agrees with the resolver's own cache counters to within one point.
# Exits non-zero on any failure.
. "$(dirname "$0")/smoke_lib.sh" authserver resolverd dnsload dnstop

start_auth 5375 -qlog "$workdir/auth.qlog"
auth_pid=$pid
start resolverd.out resolverd -listen 127.0.0.1:5376 -root 127.0.0.1 -rootport 5375 \
    -metrics 127.0.0.1:8054 -qlog "$workdir/resolverd.qlog"
resolver_pid=$pid

# One warming query first: without it the eight workers' first queries all
# miss together (one leader, seven coalesced followers the log counts as
# non-hits and the cache never sees), and a miss makes infrastructure
# lookups that the cache counters see and the client-facing log does not —
# enough to push the two hit rates compared at the end more than a point
# apart.
"$workdir/dnsload" -server 127.0.0.1 -port 5376 -workers 1 -count 1 \
    -workload www.example.test:A -fail-on-error > /dev/null

# Burst through the daemon; -json exercises the machine-readable summary CI
# parses.
"$workdir/dnsload" -server 127.0.0.1 -port 5376 -workers 8 -count 3000 \
    -workload www.example.test:A -fail-on-error -json "$workdir/load.json" -quiet
grep -q '"errors": 0' "$workdir/load.json" ||
    { echo "qlog smoke: dnsload saw protocol errors:"; cat "$workdir/load.json"; exit 1; } >&2

# Snapshot the live telemetry before stopping the daemon: the Prometheus
# exposition (linted below) and the JSON cache counters (hit-rate oracle).
curl -sf 'http://127.0.0.1:8054/metrics?format=prom' > "$workdir/metrics.prom"
curl -sf http://127.0.0.1:8054/metrics > "$workdir/metrics.json"

"$workdir/dnstop" -promlint "$workdir/metrics.prom" ||
    { echo "qlog smoke: Prometheus exposition failed lint" >&2; exit 1; }
grep -q 'qlog_records' "$workdir/metrics.prom" ||
    { echo "qlog smoke: qlog counters missing from exposition" >&2; exit 1; }

# A windowed-rate query must answer (200 with deltas, or 503 before the
# first baseline snapshot lands — both prove the endpoint is wired).
code=$(curl -s -o /dev/null -w '%{http_code}' 'http://127.0.0.1:8054/metrics?window=1m')
case "$code" in
200|503) ;;
*) echo "qlog smoke: /metrics?window=1m returned $code" >&2; exit 1 ;;
esac

# Stop the daemons cleanly so their query logs flush and close.
kill -TERM "$resolver_pid" && wait "$resolver_pid" 2>/dev/null || true
kill -TERM "$auth_pid" && wait "$auth_pid" 2>/dev/null || true

"$workdir/dnstop" -json "$workdir/resolverd.qlog" > "$workdir/report.json"
cat "$workdir/report.json"

# The burst was 3000 queries; the log must hold client-in, response-out,
# and upstream records, decode cleanly, and group under entrada.
grep -q '"decode_errors": 0' "$workdir/report.json" ||
    { echo "qlog smoke: decode errors in the query log" >&2; exit 1; }
for point in client response upstream; do
    grep -q "\"$point\"" "$workdir/report.json" ||
        { echo "qlog smoke: no $point records captured" >&2; exit 1; }
done
groups=$(sed -n 's/.*"groups": \([0-9]*\).*/\1/p' "$workdir/report.json" | head -1)
[ "${groups:-0}" -ge 1 ] ||
    { echo "qlog smoke: entrada found no (resolver, qname) groups" >&2; exit 1; }

# The authoritative server must have captured its side too.
"$workdir/dnstop" -json "$workdir/auth.qlog" > "$workdir/auth-report.json"
grep -q '"decode_errors": 0' "$workdir/auth-report.json" ||
    { echo "qlog smoke: decode errors in the authoritative log" >&2; exit 1; }

# Closing the loop: the hit rate dnstop derives from the log must agree
# with the resolver's own cache counters (within one point — the counters
# also see infrastructure lookups the client-facing log does not).
awk '
/"hit_rate":/    { gsub(/[",]/, ""); log_rate = $2 }
/"cache.hits":/  { gsub(/[",]/, ""); hits = $2 }
/"cache.misses":/{ gsub(/[",]/, ""); misses = $2 }
END {
    if (hits + misses == 0) { print "qlog smoke: no cache counters scraped" > "/dev/stderr"; exit 1 }
    cache_rate = hits / (hits + misses)
    diff = log_rate - cache_rate; if (diff < 0) diff = -diff
    printf "qlog smoke: hit rate log=%.4f cache=%.4f diff=%.4f\n", log_rate, cache_rate, diff
    if (diff > 0.01) { print "qlog smoke: hit rates disagree by more than one point" > "/dev/stderr"; exit 1 }
}' "$workdir/report.json" "$workdir/metrics.json"

echo "qlog smoke: OK"
