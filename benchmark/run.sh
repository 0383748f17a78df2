#!/usr/bin/env bash
# Builds the benchmark from source into <checkout>/.bench_build (binary
# and Go build cache both stay inside the checkout) and runs it with the
# given arguments from the checkout root.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOTOOLCHAIN=local
go -C "$here" build -o "$out/unionbench" . >&2
cd "$root"
exec "$out/unionbench" "$@"
