#!/usr/bin/env bash
# Builds the benchmark from source and runs it; the arguments go to the
# benchmark binary, e.g.
#
#   bash benchmark/run.sh --workload fig6 --seed 1 --seconds 12 --trace 0
#
# Everything the build and the run write stays under .bench_build/ at the
# repository root: the Go build cache, the binary and the traced run's
# span files.
#
# Go telemetry is switched off for the build: otherwise the go command
# forks a detached sidecar process that outlives this script.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
if [[ ! -f go.mod ]]; then
	echo "run.sh: no go.mod at $root; run it from a checkout of the repository" >&2
	exit 1
fi
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config/go/telemetry"
printf 'off\n' >"$out/config/go/telemetry/mode"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
	XDG_CONFIG_HOME="$out/config" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	GO_TELEMETRY_CHILD=2 GOTOOLCHAIN=local GOFLAGS=-mod=readonly CGO_ENABLED=0
go build -o "$out/drgpum-benchmark" ./benchmark
exec "$out/drgpum-benchmark" --out "$out/spans" "$@"
