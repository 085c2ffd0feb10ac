#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in and runs it:
#
#   bash perfbench/run.sh --workload engine --seed 1 --seconds 10 --trace 0
#
# Run it from the root of the checkout. Everything it writes (Go build
# cache, binary, register files, spans, results.jsonl) stays under
# $CARGO_TARGET_DIR, default .bench_build, inside the checkout.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "$0")" && pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$root/$build ;;
esac
mkdir -p "$build/tmp"

export GOCACHE=$build/gocache GOPATH=$build/gopath GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
export XDG_CONFIG_HOME=$build/config TMPDIR=$build/tmp GOTMPDIR=$build/tmp
(cd "$here" && go build -o "$build/perfbench" .)

# The revision is recorded in each result's meta: the git commit when
# the checkout is a repository, otherwise a hash of the Go sources.
if [ -d "$root/.git" ]; then
	rev=$(git -C "$root" rev-parse HEAD)
else
	rev=src-$(find . -path ./.bench_build -prune -o \( -name '*.go' -o -name go.mod \) -type f -print |
		LC_ALL=C sort | xargs sha256sum | sha256sum | cut -c1-16)
fi

export AMO_LOG=${AMO_LOG:-warn}
exec "$build/perfbench" -work "$build/perfbench-work" -rev "$rev" "$@"
