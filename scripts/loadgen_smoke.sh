#!/usr/bin/env bash
# Smoke-test the load engine against live daemons: start an authserver
# (UDP + TCP on one port) and a resolverd (UDP + TCP client listeners), fire
# a short dnsload burst over loopback on each transport — and over TCP
# straight at the authserver — and assert every burst reports nonzero QPS
# and zero protocol errors. Then the two things only a TCP-serving
# authserver and a draining resolverd make true: a second resolverd mirrors
# the root from the authserver by AXFR (-localroot), and SIGTERM ends a
# resolverd holding an idle client connection at once, summary printed.
# Exits non-zero on any failure.
set -euo pipefail

workdir=$(mktemp -d)
trap 'kill $(jobs -p) 2>/dev/null; rm -rf "$workdir"' EXIT

cat > "$workdir/root.zone" <<'EOF'
$ORIGIN .
@                   86400 IN SOA a.root-servers.net. ops.example. 1 1800 900 604800 86400
@                   518400 IN NS a.root-servers.net.
a.root-servers.net. 518400 IN A 127.0.0.1
example.test.       172800 IN NS ns1.example.test.
ns1.example.test.   172800 IN A 127.0.0.1
EOF
cat > "$workdir/example.test.zone" <<'EOF'
$ORIGIN example.test.
@    3600 IN SOA ns1 admin 1 7200 3600 1209600 60
@    3600 IN NS ns1
ns1  3600 IN A 127.0.0.1
www  300  IN A 192.0.2.80
EOF

go build -o "$workdir" ./cmd/authserver ./cmd/resolverd ./cmd/dnsload

"$workdir/authserver" -listen 127.0.0.1:5365 -name a.root-servers.net \
    -zone .="$workdir/root.zone" -zone example.test="$workdir/example.test.zone" &
sleep 0.5
"$workdir/resolverd" -listen 127.0.0.1:5366 -listen-tcp 127.0.0.1:5366 \
    -root 127.0.0.1 -rootport 5365 > "$workdir/resolverd.out" &
resolverd_pid=$!
sleep 0.5

check_burst() {
    local transport=$1 port=$2
    local out="$workdir/load-$transport-$port.json"
    "$workdir/dnsload" -server 127.0.0.1 -port "$port" -transport "$transport" \
        -workers 8 -count 2000 -workload www.example.test:A \
        -fail-on-error -json "$out"
    grep -q '"errors": 0' "$out" ||
        { echo "loadgen smoke ($transport): protocol errors:"; cat "$out"; exit 1; } >&2
    grep -q '"qps": 0,' "$out" &&
        { echo "loadgen smoke ($transport): zero qps:"; cat "$out"; exit 1; } >&2
    grep -q '"noerror": 2000' "$out" ||
        { echo "loadgen smoke ($transport): not every query answered NOERROR:"; cat "$out"; exit 1; } >&2
    echo "loadgen smoke ($transport, port $port): OK"
}

check_burst udp 5366
check_burst tcp 5366
check_burst tcp 5365

# RFC 7706 against our own daemon: the root zone arrives by AXFR over the
# authserver's TCP port before the mirror resolver binds anything.
"$workdir/resolverd" -listen 127.0.0.1:5367 -localroot \
    -root 127.0.0.1 -rootport 5365 > "$workdir/mirror.out" &
sleep 0.5
grep -q '^mirrored root zone: [1-9]' "$workdir/mirror.out" ||
    { echo "loadgen smoke: resolverd -localroot did not mirror the root:"; cat "$workdir/mirror.out"; exit 1; } >&2
echo "loadgen smoke (localroot): OK"

# Shutdown: an idle client connection must not hold the daemon up (it used
# to, for the connection's 30 s idle timeout).
exec 3<>/dev/tcp/127.0.0.1/5366
kill -TERM "$resolverd_pid"
for _ in $(seq 20); do
    kill -0 "$resolverd_pid" 2>/dev/null || break
    sleep 0.1
done
if kill -0 "$resolverd_pid" 2>/dev/null; then
    echo "loadgen smoke: resolverd still running 2 s after SIGTERM with an idle TCP client" >&2
    exit 1
fi
wait "$resolverd_pid" ||
    { echo "loadgen smoke: resolverd exited non-zero after SIGTERM"; cat "$workdir/resolverd.out"; exit 1; } >&2
exec 3>&-
grep -q '^cache: ' "$workdir/resolverd.out" ||
    { echo "loadgen smoke: resolverd printed no cache summary:"; cat "$workdir/resolverd.out"; exit 1; } >&2
echo "loadgen smoke (shutdown): OK"

echo "loadgen smoke: OK"
