# smoke_lib.sh — what every live-daemon smoke test shares; source it, do
# not run it:
#
#   . "$(dirname "$0")/smoke_lib.sh" authserver resolverd dnsq
#
# It makes $workdir (removed on exit, after every daemon started here is
# stopped), writes root.zone and example.test.zone there, builds the named
# commands into it, and provides start and await.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

workdir=$(mktemp -d)
# wait after kill: the listeners must release their ports before another
# run reuses them.
trap 'jobs -p | xargs -r kill 2>/dev/null || true; wait; rm -rf "$workdir"' EXIT

cat > "$workdir/root.zone" <<'EOF'
$ORIGIN .
@                   86400 IN SOA a.root-servers.net. ops.example. 1 1800 900 604800 86400
@                   518400 IN NS a.root-servers.net.
a.root-servers.net. 518400 IN A 127.0.0.1
example.test.       172800 IN NS ns1.example.test.
ns1.example.test.   172800 IN A 127.0.0.1
EOF

# write_example_zone SERIAL ADDR writes example.test, www.example.test A ADDR.
write_example_zone() {
    cat > "$workdir/example.test.zone" <<EOF
\$ORIGIN example.test.
@    3600 IN SOA ns1 admin $1 7200 3600 1209600 60
@    3600 IN NS ns1
ns1  3600 IN A 127.0.0.1
www  300  IN A $2
EOF
}
write_example_zone 1 192.0.2.80

go build -o "$workdir" "${@/#/./cmd/}"

# await FILE PATTERN waits up to 10 s for a line of $workdir/FILE to match
# the extended regex PATTERN.
await() {
    for _ in $(seq 100); do
        grep -qE -- "$2" "$workdir/$1" 2>/dev/null && return
        sleep 0.1
    done
    echo "smoke: no line matching '$2' in $1 after 10 s:" >&2
    cat "$workdir/$1" >&2
    exit 1
}

# start OUT CMD ARGS... runs $workdir/CMD in the background with its output
# in $workdir/OUT, sets pid, and returns once the daemon printed its last
# startup line, so every listener it was asked for is bound.
start() {
    local out=$1 cmd=$2 ready
    shift 2
    case "$cmd $*" in
    authserver*-metrics*) ready='^introspection on' ;;
    authserver*) ready='^serving on' ;;
    resolverd*) ready='^(recursive resolver|resolver farm) on' ;;
    esac
    "$workdir/$cmd" "$@" > "$workdir/$out" 2>&1 &
    pid=$!
    await "$out" "$ready"
}

# start_auth PORT ARGS... starts an authserver named a.root-servers.net for
# the root and example.test on 127.0.0.1:PORT, its output in auth.out.
start_auth() {
    local port=$1
    shift
    start auth.out authserver -listen "127.0.0.1:$port" -name a.root-servers.net \
        -zone .="$workdir/root.zone" -zone example.test="$workdir/example.test.zone" "$@"
}
