#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in and runs it:
#
#   bash perfbench/run.sh --workload exhaustive --seed 1 --seconds 25 --trace 0
#
# Run it from the repository root. The Go build cache, the binary, scratch
# stores and span files all go under .bench_build/ in that root, so a run
# writes nothing outside the checkout. The build needs the repository
# around this directory: perfbench/go.mod replaces module repro with ../.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
# VCS stamping is off so that a checkout without git, or inside a
# repository git refuses to read, still builds; the commit is passed in.
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS="-mod=readonly -buildvcs=false"
commit=$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)
(cd "$root/perfbench" && go build -o "$out/wbperf" .) >&2
exec "$out/wbperf" -workdir "$out" -commit "$commit" "$@"
