#!/usr/bin/env bash
# Smoke-test the push-based invalidation plane end to end over real
# processes and sockets: an authserver publishes a zone's change feed
# (-push), a resolverd subscribes (-push zone=host:port), and a zone-file
# edit plus SIGHUP must propagate to the resolver's cache well inside the
# record's 300 s TTL — NOTIFY out, IXFR pull back, targeted purge, fresh
# answer. The push.* metrics and the query log's notify records must both
# witness the exchange. Exits non-zero on any failure.
. "$(dirname "$0")/smoke_lib.sh" authserver resolverd dnsq dnstop

start_auth 5385 -push
auth_pid=$pid
start resolverd.out resolverd -listen 127.0.0.1:5386 -root 127.0.0.1 -rootport 5385 \
    -push example.test=127.0.0.1:5385 -metrics 127.0.0.1:8055 \
    -qlog "$workdir/resolverd.qlog"
resolver_pid=$pid

# Warm the cache with the original address.
"$workdir/dnsq" -server 127.0.0.1 -port 5386 www.example.test A > "$workdir/before.txt"
grep -q '192\.0\.2\.80' "$workdir/before.txt" ||
    { echo "push smoke: initial answer missing 192.0.2.80:"; cat "$workdir/before.txt"; exit 1; } >&2

# The update: rewrite the zone file and SIGHUP the authserver. The record
# has ~300 s of TTL left, so only the push plane can move the resolver.
write_example_zone 2 192.0.2.81
kill -HUP "$auth_pid"
sleep 1

"$workdir/dnsq" -server 127.0.0.1 -port 5386 www.example.test A > "$workdir/after.txt"
grep -q '192\.0\.2\.81' "$workdir/after.txt" ||
    { echo "push smoke: post-update answer not repropagated (TTL had ~300s left):"; cat "$workdir/after.txt"; exit 1; } >&2

# The subscriber's counters must show the full chain: notify in, delta
# pulled, entry purged.
curl -sf http://127.0.0.1:8055/metrics > "$workdir/metrics.json"
for counter in push.notifies push.ixfr push.purged push.subscribes; do
    grep -q "\"$counter\": [1-9]" "$workdir/metrics.json" ||
        { echo "push smoke: counter $counter not incremented:"; cat "$workdir/metrics.json"; exit 1; } >&2
done

# Stop the resolver so the query log flushes, then check it captured the
# notify-in record.
kill -TERM "$resolver_pid" && wait "$resolver_pid" 2>/dev/null || true
kill -TERM "$auth_pid" && wait "$auth_pid" 2>/dev/null || true

grep -q '"point": *"notify"' "$workdir/resolverd.qlog" ||
    { echo "push smoke: no notify record in the query log" >&2; exit 1; }
"$workdir/dnstop" -json "$workdir/resolverd.qlog" > "$workdir/report.json"
grep -q '"decode_errors": 0' "$workdir/report.json" ||
    { echo "push smoke: decode errors in the query log" >&2; exit 1; }

echo "push smoke: OK"
