#!/usr/bin/env bash
# Alternating A/B runs of the benchmark: a parent revision against the
# current checkout.
#
#   bash scripts/perf_ab.sh <parent-rev> <workload> <pairs> <seconds> <seed>
#
# The parent revision is exported with `git archive` into a temporary
# directory; the current checkout, uncommitted edits included, is the
# change. Each side builds perfbench/ into its own target directory under
# the same temporary directory, so neither reuses the other's artifacts.
# Pairs alternate which side runs first. Every run goes through
# perfbench/run.sh, which pins it to one CPU with MALLOC_ARENA_MAX=1.
#
# Output: one line per run with its end-to-end metrics, then, per metric,
# each side's median and quartiles (linear interpolation, as perfbench's
# own percentiles) and the number of pairs each side won. A metric whose
# parent runs alone spread wider than its `bound` in BENCHMARK.json
# (interquartile range over the median) is marked `unresolved`: this batch
# cannot tell a change within that bound from noise.
set -euo pipefail

if [ "$#" -ne 5 ]; then
    echo "usage: $0 <parent-rev> <workload> <pairs> <seconds> <seed>" >&2
    exit 2
fi
parent_rev="$1" workload="$2" pairs="$3" seconds="$4" seed="$5"
case "$pairs" in '' | *[!0-9]*) echo "pairs must be a positive integer" >&2; exit 2 ;; esac
[ "$pairs" -ge 1 ] || { echo "pairs must be a positive integer" >&2; exit 2; }

root="$(cd "$(dirname "$0")/.." && pwd)"
tmp="$(mktemp -d -t perf_ab.XXXXXX)"
trap 'rm -rf "$tmp"' EXIT

mkdir -p "$tmp/parent"
git -C "$root" archive "$parent_rev" | tar -x -C "$tmp/parent"

metrics="setup_s solves_per_s latency_p50_ms transfers delay_ratio peak_rss_mb"

# run <side> <checkout>: one benchmark run; appends its metrics to
# $tmp/<side>.tsv and prints them on one line.
run() {
    local side="$1" dir="$2" verdict line="" m v
    verdict="$(CARGO_TARGET_DIR="$tmp/target-$side" bash "$dir/perfbench/run.sh" \
        --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 | tail -n 1)"
    grep -q '"correct": true' <<<"$verdict" && grep -q '"failed": 0,' <<<"$verdict" || {
        echo "$side run reported failures: $verdict" >&2
        exit 1
    }
    for m in $metrics; do
        v="$(grep -o "\"$m\": {\"value\": [^,]*" <<<"$verdict" | sed 's/.*: //')"
        line="$line$m=$v "
        printf '%s\t%s\n' "$m" "$v" >>"$tmp/$side.tsv"
    done
    echo "$side ${line% }"
}

# Build both sides before the first timed run, so no run pays for a build.
for side in parent change; do
    dir="$root"
    [ "$side" = parent ] && dir="$tmp/parent"
    CARGO_TARGET_DIR="$tmp/target-$side" \
        cargo build --release --quiet --offline --manifest-path "$dir/perfbench/Cargo.toml"
done

for ((p = 1; p <= pairs; p++)); do
    echo "pair $p"
    if ((p % 2)); then
        run parent "$tmp/parent"
        run change "$root"
    else
        run change "$root"
        run parent "$tmp/parent"
    fi
done

# The relative bound of each end-to-end metric, "<name> <bound>" per line:
# the last "name" seen before each "bound" in BENCHMARK.json.
bounds="$(awk -F'"' '/"name":/ { name = $4 }
    /"bound":/ { v = $3; gsub(/[:, ]/, "", v); print name, v }' "$root/BENCHMARK.json")"

# quartiles <file>: "q1 median q3" of the numbers in <file>, one per line.
quartiles() {
    sort -g "$1" | awk '{ x[NR - 1] = $1 }
        function q(p,   r, lo) { r = p * (NR - 1); lo = int(r); return x[lo] + (r - lo) * (x[lo + (lo + 1 < NR)] - x[lo]) }
        END { printf "%.6g %.6g %.6g", q(0.25), q(0.5), q(0.75) }'
}

echo "summary: $workload seed $seed, $pairs pairs of ${seconds}s runs (median [q1, q3])"
for m in $metrics; do
    awk -v m="$m" '$1 == m { print $2 }' "$tmp/parent.tsv" >"$tmp/p"
    awk -v m="$m" '$1 == m { print $2 }' "$tmp/change.tsv" >"$tmp/c"
    read -r pq1 pmed pq3 <<<"$(quartiles "$tmp/p")"
    read -r cq1 cmed cq3 <<<"$(quartiles "$tmp/c")"
    # Pairs are the i-th parent run with the i-th change run; a tie counts
    # for neither side.
    wins="$(paste "$tmp/p" "$tmp/c" | awk '$2 < $1 { lo++ } $2 > $1 { hi++ }
        END { printf "%d %d", lo, hi }')"
    bound="$(awk -v m="$m" '$1 == m { print $2 }' <<<"$bounds")"
    verdict=""
    if [ -n "$bound" ] && awk -v q1="$pq1" -v q3="$pq3" -v med="$pmed" -v b="$bound" 'BEGIN {
        med = med < 0 ? -med : med
        exit !(med == 0 ? q3 > q1 : (q3 - q1) / med > b) }'; then
        verdict="  unresolved: parent spread exceeds the $bound bound"
    fi
    printf '%-15s parent %s [%s, %s]  change %s [%s, %s]  change lower in %s pairs, higher in %s%s\n' \
        "$m" "$pmed" "$pq1" "$pq3" "$cmed" "$cq1" "$cq3" ${wins% *} ${wins#* } "$verdict"
done
