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
. "$(dirname "$0")/smoke_lib.sh" authserver resolverd dnsload

start_auth 5365
start resolverd.out resolverd -listen 127.0.0.1:5366 -listen-tcp 127.0.0.1:5366 \
    -root 127.0.0.1 -rootport 5365
resolverd_pid=$pid

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
start mirror.out resolverd -listen 127.0.0.1:5367 -localroot -root 127.0.0.1 -rootport 5365
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
