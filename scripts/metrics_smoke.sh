#!/usr/bin/env bash
# Smoke-test the live introspection plane: start an authserver and a
# resolverd with -metrics, resolve one name through the daemon, scrape
# /metrics, and assert the scrape is non-empty JSON that counted the
# resolution and that both daemons answer windowed rates. Exits non-zero on
# any failure.
. "$(dirname "$0")/smoke_lib.sh" authserver resolverd dnsq

start_auth 5355 -metrics 127.0.0.1:8054
start resolverd.out resolverd -listen 127.0.0.1:5356 -root 127.0.0.1 -rootport 5355 \
    -metrics 127.0.0.1:8053

# grep without -q: reading to EOF avoids a SIGPIPE race with -o pipefail
# when grep would exit at the first match while dnsq is still writing.
"$workdir/dnsq" -server 127.0.0.1 -port 5356 www.example.test A | grep 192.0.2.80 >/dev/null

scrape=$(curl -sf http://127.0.0.1:8053/metrics)
[ -n "$scrape" ] || { echo "metrics smoke: empty /metrics response" >&2; exit 1; }
echo "$scrape" | grep -q '"resolver.resolutions": 1' ||
    { echo "metrics smoke: resolution not counted:"; echo "$scrape"; exit 1; } >&2
echo "$scrape" | grep -q '"resolver.latency_ms"' ||
    { echo "metrics smoke: latency histogram missing:"; echo "$scrape"; exit 1; } >&2

for port in 8053 8054; do
    curl -sf -o /dev/null "http://127.0.0.1:$port/metrics?window=60s" ||
        { echo "metrics smoke: /metrics?window=60s failed on :$port" >&2; exit 1; }
done

curl -sf http://127.0.0.1:8053/trace | grep -q 'resolve www.example.test. A' ||
    { echo "metrics smoke: trace not retained" >&2; exit 1; }

"$workdir/dnsq" -trace -server 127.0.0.1 -port 5355 www.example.test A | grep 'cache lookup' >/dev/null ||
    { echo "metrics smoke: dnsq -trace printed no span tree" >&2; exit 1; }

echo "metrics smoke: OK"
