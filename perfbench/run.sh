#!/usr/bin/env bash
# Builds darwind, darwin-router, datagen and the benchmark driver from the
# sources of the checkout this script sits in, then runs the driver:
#
#   bash perfbench/run.sh --workload solo --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write (Go build cache, binaries, journals,
# job outputs) stays under .bench_build at the root of the checkout.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/darwind" ]]; then
	echo "perfbench: no Darwin sources in $root to build" >&2
	exit 1
fi
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/gocache" "$out/tmp" "$out/config"

export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
# The go command keeps its settings and telemetry under the user config
# directory; point that into the checkout too.
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

cd "$root"
go build -o "$out/bin/" ./cmd/darwind ./cmd/darwin-router ./cmd/datagen >&2
(cd "$root/perfbench" && go build -o "$out/bin/perfbench" .) >&2
exec "$out/bin/perfbench" -bin "$out/bin" -work "$out/run" "$@"
