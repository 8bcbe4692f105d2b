#!/usr/bin/env bash
# Smoke-test the abuse-protection plane end to end on loopback: a live
# authserver with RRL, a live resolverd running a blocklist + per-client
# rate-limit pipeline, and a dnsload water-torture burst (unique random
# subdomains, the flood no TTL regime can absorb). Asserts:
#
#   1. the blocklist answers locally (NXDOMAIN, nothing reaches upstream),
#   2. the edge rate limiter sheds most of the flood (mw.guard.limited),
#   3. what leaks through still hits RRL at the authoritative
#      (auth.rrl_dropped),
#   4. an honest query still resolves after the flood (collateral check),
#   5. a SIGHUP with a broken spec is rejected and the old graph keeps
#      serving (safe rollback).
#
# Exits non-zero on any failure.
. "$(dirname "$0")/smoke_lib.sh" authserver resolverd dnsload dnsq

# Blocklist + per-client token bucket in front of the resolver. The
# limiter's qps/burst are sized so the dnsload flood is mostly shed at the
# edge while enough leaks through to exercise RRL upstream.
cat > "$workdir/pipeline.conf" <<'EOF'
entry = "shield"

[stage.shield]
type = "blocklist"
block = "ads.example.test"
action = "nxdomain"
next = "guard"

[stage.guard]
type = "ratelimit"
qps = 20
burst = 10
action = "refuse"
next = "resolve"

[stage.resolve]
type = "resolver"
EOF

start_auth 5375 -rrl "rps=5,burst=10,slip=2" -metrics 127.0.0.1:8061
start resolverd.out resolverd -listen 127.0.0.1:5376 -root 127.0.0.1 -rootport 5375 \
    -pipeline "$workdir/pipeline.conf" -metrics 127.0.0.1:8062
resolverd_pid=$pid

# 1. Blocklist: answered locally as NXDOMAIN, with no upstream.
"$workdir/dnsq" -server 127.0.0.1 -port 5376 ads.example.test A | grep 'status: NXDOMAIN' >/dev/null ||
    { echo "abuse smoke: blocklist did not answer NXDOMAIN" >&2; exit 1; }

# Honest baseline before the flood.
"$workdir/dnsq" -server 127.0.0.1 -port 5376 www.example.test A |
    grep 192.0.2.80 >/dev/null ||
    { echo "abuse smoke: honest query failed before the flood" >&2; exit 1; }

# Water torture: 1200 unique subdomains, paced at 400 q/s so the flood
# lasts ~3 s — long enough for the edge leak (~20 q/s) to exhaust RRL's
# burst upstream. The edge limiter REFUSEs most (an rcode, not a protocol
# error); the leak is an NXDomain flood at the authoritative, where RRL
# drops or slips the responses, which resolverd surfaces as
# SERVFAIL/timeout — so no -fail-on-error, and a short client timeout
# keeps workers from parking behind RRL-starved upstream waits.
"$workdir/dnsload" -server 127.0.0.1 -port 5376 -transport udp \
    -workers 16 -count 1200 -qps 400 -timeout 300ms \
    -workload 'wt{i}.example.test:A*1200' -json "$workdir/flood.json" -quiet

# 2. Edge limiter shed the flood.
curl -sf http://127.0.0.1:8062/metrics | tee "$workdir/rmetrics.json" |
    grep -E '"mw\.guard\.limited": [1-9]' >/dev/null ||
    { echo "abuse smoke: mw.guard.limited never moved:"; cat "$workdir/rmetrics.json"; exit 1; } >&2

# 3. What leaked still tripped RRL at the authoritative.
curl -sf http://127.0.0.1:8061/metrics | tee "$workdir/ametrics.json" |
    grep -E '"auth\.rrl_dropped": [1-9]' >/dev/null ||
    { echo "abuse smoke: auth.rrl_dropped never moved:"; cat "$workdir/ametrics.json"; exit 1; } >&2

# 4. Honest collateral: after the flood drains (and the client's bucket
# refills), the same honest query still answers from cache.
sleep 2
"$workdir/dnsq" -server 127.0.0.1 -port 5376 www.example.test A |
    grep 192.0.2.80 >/dev/null ||
    { echo "abuse smoke: honest query failed after the flood" >&2; exit 1; }

# 5. SIGHUP rollback: a broken spec must be rejected, keeping the old
# graph serving. The daemon must log the rejection (an upstream NXDOMAIN
# would make the blocklist check alone vacuous), and the blocklist must
# still answer locally.
echo 'entry = "nope"' > "$workdir/pipeline.conf"
kill -HUP "$resolverd_pid"
await resolverd.out 'pipeline reload rejected'
"$workdir/dnsq" -server 127.0.0.1 -port 5376 ads.example.test A |
    grep 'status: NXDOMAIN' >/dev/null ||
    { echo "abuse smoke: old pipeline not kept after rejected SIGHUP reload" >&2; exit 1; }

echo "abuse smoke: OK"
