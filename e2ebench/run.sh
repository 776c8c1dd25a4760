#!/usr/bin/env bash
# Builds batserve and the benchmark from this checkout, then runs the
# benchmark with the arguments given, for example
#
#   bash e2ebench/run.sh --workload sweep-cold --seed 1 --seconds 12 --trace 0
#
# Binaries, the Go build cache, the runs' store files and the trace dumps
# all stay under .bench_build at the checkout root. The build is offline:
# the module has no dependencies outside this checkout.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
cd "$root"
if [[ ! -f go.mod || ! -d cmd/batserve ]]; then
	echo "e2ebench: $root holds no batsched sources (go.mod, cmd/batserve)" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOFLAGS=-buildvcs=false GOWORK=off GOENV=off
go build -o "$out/batserve" ./cmd/batserve
(cd e2ebench && go build -o "$out/e2ebench" .)
exec "$out/e2ebench" -server "$out/batserve" -workdir "$out" "$@"
