#!/usr/bin/env bash
# Builds and runs the benchmark from the root of a checkout:
#
#   bash perfbench/run.sh --workload <table1|explore|serve> --seed <n> \
#       --seconds <s> --trace <0|1>
#
# The last line of standard output is the JSON result. Cargo honours
# CARGO_TARGET_DIR when it is set.
set -euo pipefail
cd "$(dirname "$0")/.."
cargo build --release --quiet --offline --manifest-path perfbench/Cargo.toml
bin="${CARGO_TARGET_DIR:-perfbench/target}/release/perfbench"

# Every workload is a closed loop with at most one runnable thread at a
# time, so the run is pinned to one CPU (the last one it may use). Unpinned,
# each serve request hands off between threads on different virtual CPUs,
# and those wake-ups made its median latency vary by 2x between runs.
#
# MALLOC_ARENA_MAX=1 keeps glibc from giving each of the service's
# short-lived threads its own heap arena: with per-thread arenas the peak
# resident set of the serve workload depends on which thread happened to
# allocate what, and varies by a quarter between identical runs.
export MALLOC_ARENA_MAX=1
cpu="$(sed -n 's/^Cpus_allowed_list:[[:space:]]*//p' /proc/self/status 2>/dev/null |
    tr ',' '\n' | tail -n 1 | sed 's/.*-//')"
if [ -n "$cpu" ] && command -v taskset >/dev/null; then
    exec taskset -c "$cpu" "$bin" "$@"
fi
exec "$bin" "$@"
