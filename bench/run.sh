#!/bin/sh
# Builds fedbench from source into .bench_build/ (Go's build cache lives there
# too, so nothing is read or written outside the checkout) and runs it with
# the arguments given. Run from the repository root.
set -eu
root=$(pwd)
mkdir -p "$root/.bench_build"
export GOCACHE="$root/.bench_build/gocache" GOMODCACHE="$root/.bench_build/gomod" GOTOOLCHAIN=local GOWORK=off
go build -o "$root/.bench_build/fedbench" ./bench
exec "$root/.bench_build/fedbench" "$@"
