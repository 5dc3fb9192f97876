#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the repository root,
# keeping every build artefact and temporary file under .bench_build.
# Usage: bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root"
mkdir -p .bench_build/gocache .bench_build/tmp
export GOCACHE="$root/.bench_build/gocache"
export GOTMPDIR="$root/.bench_build/tmp"
(cd perfbench && go build -o "$root/.bench_build/perfbench-bin" .)
exec "$root/.bench_build/perfbench-bin" "$@"
