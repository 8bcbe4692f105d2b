#!/bin/sh
# Builds the benchmark from the checkout it sits in and runs it with the
# given arguments. Everything it writes, the Go build cache included, goes
# under .bench_build/ at the root of the checkout.
set -e
root=$(cd "$(dirname "$0")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/go-cache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOPROXY=off
(cd "$root/bench" && go build -o "$out/dnsttl-bench" .)
cd "$root"
exec "$out/dnsttl-bench" "$@"
