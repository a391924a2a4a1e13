#!/usr/bin/env bash
# Entry point named by BENCHMARK.json. Builds the end-to-end driver into
# .bench_build/ (Go caches and temp files stay inside the checkout too)
# and hands it the caller's flags. Fails before printing any result when
# the product source is not next to the benchmark.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/gmine" ]]; then
	echo "bench: no gmine source next to $here (need go.mod and cmd/gmine)" >&2
	exit 2
fi
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp"
# The same toolchain environment the driver gives its own builds (goEnv).
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	XDG_CONFIG_HOME="$build/xdg" GOTOOLCHAIN=local GOENV=off GOFLAGS= GOWORK=off
(cd "$here" && go build -o "$build/gmine-bench" .)
exec "$build/gmine-bench" -root "$root" "$@"
