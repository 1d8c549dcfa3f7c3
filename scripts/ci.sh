#!/usr/bin/env bash
# Offline CI gate for the letdma workspace.
#
# Everything here must pass with the crates-io registry unreachable: the
# workspace has a zero-external-dependency policy (DESIGN.md §"Dependency
# policy"), so no step may hit the network.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo build --release =="
cargo build --workspace --release --offline

echo "== cargo check --all-features =="
# No crate declares a Cargo feature today. Checking with every feature on
# makes one that is added later and cannot build fail here, instead of
# sitting unnoticed behind its off-by-default gate.
cargo check --workspace --all-features --offline

echo "== cargo test (LETDMA_THREADS=1, presolve on) =="
LETDMA_PRESOLVE=1 LETDMA_THREADS=1 cargo test --workspace --quiet --offline

echo "== cargo test (LETDMA_THREADS=4, presolve on) =="
# Same suite on a multi-threaded solver pool: the node-id-ordered merge
# makes every assertion thread-count-invariant (DESIGN.md §"Concurrency
# architecture").
LETDMA_PRESOLVE=1 LETDMA_THREADS=4 cargo test --workspace --quiet --offline

echo "== milp + opt suites with presolve off (LETDMA_THREADS=1 and 4) =="
# The presolve layer is on by default; the differential corpus and the
# solver suites must also hold on the unreduced path, at both thread
# counts (DESIGN.md §"Presolve & relaxation tightening"). Scoped to the
# milp and opt crates — the other crates never touch presolve.
LETDMA_PRESOLVE=0 LETDMA_THREADS=1 cargo test -p milp -p letdma-opt --quiet --offline
LETDMA_PRESOLVE=0 LETDMA_THREADS=4 cargo test -p milp -p letdma-opt --quiet --offline

echo "== benchmark package (perfbench/, a separate cargo workspace) =="
# `cargo build --workspace` never compiles perfbench/: it has its own
# [workspace]. Build and test it here so a change to the public names it
# reads (counters, options, stats fields) fails CI instead of the benchmark.
cargo build --release --offline --manifest-path perfbench/Cargo.toml
cargo test --release --offline --manifest-path perfbench/Cargo.toml

echo "== cargo test --doc =="
# The worked examples on the session builders (Model::solver(),
# Optimizer::new()) and the crate-level docs are doc-tests; keep them
# compiling AND passing, not just rendering.
cargo test --workspace --doc --quiet --offline

echo "== cargo doc --no-deps =="
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

echo "== bench-milp smoke (LETDMA_THREADS=1 and 4, byte-identical) =="
# The six Table I scenarios under a tiny node budget. The run validates the
# letdma-bench-milp/6 schema before writing (milp_bench::validate), so a
# nonzero exit or a missing file is the failure signal. The report carries
# no timing fields and each solve's node pool takes its size from
# LETDMA_THREADS, so the two runs below must be byte-identical — `cmp`
# fails if a wall clock creeps back into the file or if the answer depends
# on the thread count. Time is measured by perfbench/, with repeated samples.
milp_t1="$(mktemp -t bench_milp_t1.XXXXXX.json)"
milp_t4="$(mktemp -t bench_milp_t4.XXXXXX.json)"
trap 'rm -f "$milp_t1" "$milp_t4"' EXIT
LETDMA_THREADS=1 cargo run --release -p letdma-bench --bin repro --offline -- \
  bench-milp --nodes 2 --out "$milp_t1"
LETDMA_THREADS=4 cargo run --release -p letdma-bench --bin repro --offline -- \
  bench-milp --nodes 2 --out "$milp_t4"
cmp "$milp_t1" "$milp_t4" || {
  echo "bench-milp report differs across thread counts"; exit 1; }
grep -q '"schema": "letdma-bench-milp/6"' "$milp_t1" || {
  echo "bench-milp output lacks the schema tag"; exit 1; }
grep -q '"phase1_iterations_saved"' "$milp_t1" || {
  echo "bench-milp output lacks the reuse phase-1 block"; exit 1; }
grep -q '"root_gap_bps"' "$milp_t1" || {
  echo "bench-milp output lacks the presolve root-gap field"; exit 1; }

echo "== committed BENCH_milp.json is current (bench-milp --nodes 12) =="
# The committed report is the --nodes 12 sweep (about 100 s on 2 vCPUs).
# It is deterministic, so regenerating it must reproduce the file byte for
# byte: a change that moves simplex iteration counts cannot land without
# the regenerated file.
milp_n12="$(mktemp -t bench_milp_n12.XXXXXX.json)"
trap 'rm -f "$milp_t1" "$milp_t4" "$milp_n12"' EXIT
cargo run --release -p letdma-bench --bin repro --offline -- \
  bench-milp --nodes 12 --out "$milp_n12"
cmp "$milp_n12" BENCH_milp.json || {
  echo "BENCH_milp.json is stale; regenerate it with: repro bench-milp --nodes 12"; exit 1; }

echo "== corpus smoke (8 scenarios, LETDMA_THREADS=1 and 4, byte-identical) =="
# The scenario-corpus campaign end-to-end on a small slice: generator →
# heuristic → node-limited MILP → Properties-1–3 conformance → all five
# protocol simulations. The run validates the letdma-bench-corpus/1 schema
# before writing and exits nonzero on any Properties-1–3 violation or a
# worse-than-heuristic MILP objective. The report carries no timing fields
# and each solve's node pool takes its size from LETDMA_THREADS, so the two
# runs below must be byte-identical — `cmp` enforces the
# thread-count-invariance claim.
corpus_t1="$(mktemp -t bench_corpus_t1.XXXXXX.json)"
corpus_t4="$(mktemp -t bench_corpus_t4.XXXXXX.json)"
trap 'rm -f "$milp_t1" "$milp_t4" "$milp_n12" "$corpus_t1" "$corpus_t4"' EXIT
LETDMA_THREADS=1 cargo run --release -p letdma-bench --bin repro --offline -- \
  corpus --scenarios 8 --nodes 8 --out "$corpus_t1"
LETDMA_THREADS=4 cargo run --release -p letdma-bench --bin repro --offline -- \
  corpus --scenarios 8 --nodes 8 --out "$corpus_t4"
cmp "$corpus_t1" "$corpus_t4" || {
  echo "corpus report differs across thread counts"; exit 1; }
grep -q '"schema": "letdma-bench-corpus/1"' "$corpus_t1" || {
  echo "corpus output lacks the schema tag"; exit 1; }
grep -q '"all_properties_pass": true' "$corpus_t1" || {
  echo "corpus smoke has failing Properties-1-3 scenarios"; exit 1; }
grep -q '"triple_buffered"' "$corpus_t1" || {
  echo "corpus output lacks the triple-buffered latency column"; exit 1; }

echo "== committed BENCH_corpus.json is current (corpus --scenarios 64) =="
# The committed report is the 64-scenario campaign at the default 200-node
# budget (about 165 s on 2 vCPUs). It is deterministic, so regenerating it
# must reproduce the file byte for byte: a change that moves a node-limited
# corpus answer (the LP's choice among optimal vertices feeds the
# branching) cannot land without the regenerated file.
corpus_n64="$(mktemp -t bench_corpus_n64.XXXXXX.json)"
trap 'rm -f "$milp_t1" "$milp_t4" "$milp_n12" "$corpus_t1" "$corpus_t4" "$corpus_n64"' EXIT
cargo run --release -p letdma-bench --bin repro --offline -- \
  corpus --scenarios 64 --out "$corpus_n64"
cmp "$corpus_n64" BENCH_corpus.json || {
  echo "BENCH_corpus.json is stale; regenerate it with: repro corpus --scenarios 64"; exit 1; }

echo "== serve smoke (workers 1 and 4, cold then warm cache) =="
# The WATERS batch through the in-process solve service at 1 worker (cold
# cache) and 4 workers (warm). `repro serve` checks that every response is
# a full MILP solve and that the formulation/presolve cache is hit exactly
# 0 times on the cold round and 6 times on the warm one
# (serve_smoke::check) — a nonzero exit is the failure signal (DESIGN.md
# §"Service architecture"). A tiny node budget keeps this fast.
cargo run --release -p letdma-bench --bin repro --offline -- serve --nodes 2

echo "== serve TCP smoke (LETDMA_THREADS=1 and 4) =="
# The same batch over a real TCP socket on OS loopback: length-prefixed
# frames, retrying client, per-request idempotency keys (DESIGN.md
# §"Network transport & failure model"). Faults off, the TCP trajectory
# must match loopback byte for byte, so the same asserts apply.
LETDMA_THREADS=1 cargo run --release -p letdma-bench --bin repro --offline -- serve --tcp --nodes 2
LETDMA_THREADS=4 cargo run --release -p letdma-bench --bin repro --offline -- serve --tcp --nodes 2

echo "== serve TCP chaos smoke (each net-* fault site) =="
# Each network fault site armed with a fire cap (max=2) strictly below the
# client's retry budget (4 attempts), so the run is deterministic: the
# faults fire, the retry/idempotency machinery absorbs them, and the smoke
# must still end green with warm cache hits. net-delay gets no cap — a
# 25ms stall per frame must be invisible under the default io timeout.
LETDMA_FAULTS="net-drop-frame:p=1.0:seed=11:max=2" \
  cargo run --release -p letdma-bench --bin repro --offline -- serve --tcp --nodes 2
LETDMA_FAULTS="net-truncate:p=1.0:seed=12:max=2" \
  cargo run --release -p letdma-bench --bin repro --offline -- serve --tcp --nodes 2
LETDMA_FAULTS="net-corrupt-byte:p=1.0:seed=13:max=2" \
  cargo run --release -p letdma-bench --bin repro --offline -- serve --tcp --nodes 2
LETDMA_FAULTS="net-delay:p=0.5:seed=14" \
  cargo run --release -p letdma-bench --bin repro --offline -- serve --tcp --nodes 2

echo "== benchmark workloads (perfbench, one short run each) =="
# Each workload checks every answer it times and exits its closed loop
# after at least one whole pass: table1 runs the six Table I cells (about
# 5 s a pass), explore the MILP-free design points, and serve drives one
# TcpServer with single-request batches over a 60-scenario pool (MILP
# resolution, no more transfers than the heuristic, the exact cache
# hit/miss pattern). The last output line is the JSON verdict.
for workload in table1 explore serve; do
  perf="$(bash perfbench/run.sh --workload "$workload" --seed 1 --seconds 2 --trace 0 | tail -n 1)"
  echo "$perf"
  grep -q '"correct": true' <<<"$perf" && grep -q '"failed": 0,' <<<"$perf" || {
    echo "perfbench $workload workload reported failures"; exit 1; }
done

echo "== A/B benchmark script parses =="
bash -n scripts/perf_ab.sh

echo "== fault-injection smoke (LETDMA_THREADS=1 and 4) =="
# Arms every deterministic fault site in turn against the WATERS case and
# asserts the resilience contract — a conformance-valid solution or a typed
# error, never a panic or a hang (DESIGN.md §"Failure model & degradation
# policy"). The check self-verifies; a nonzero exit is the failure signal.
LETDMA_THREADS=1 cargo run --release -p letdma-bench --bin repro --offline -- fault-smoke --budget 5
LETDMA_THREADS=4 cargo run --release -p letdma-bench --bin repro --offline -- fault-smoke --budget 5

echo "== paper reproduction (repro all --budget 1, LETDMA_THREADS=1 and 4) =="
# Fig. 1, Fig. 2, Table I and the α sweep end to end, one scenario at a
# time, each solve's node pool sized by LETDMA_THREADS. This is the one CI
# step that runs the multi-scenario path of the repro CLI. A scenario with
# no solution panics, which exits nonzero.
LETDMA_THREADS=1 cargo run --release -p letdma-bench --bin repro --offline -- all --budget 1
LETDMA_THREADS=4 cargo run --release -p letdma-bench --bin repro --offline -- all --budget 1

echo "== deprecated shims and retired knobs are gone =="
# The PR 2 #[deprecated] compatibility shims (optimize/optimize_with and
# the free-function bench entry points) were removed two PRs after their
# deprecation; neither the attribute nor an allow site may reappear.
if grep -rn 'deprecated' crates/*/src crates/*/tests tests --include='*.rs'; then
  echo "deprecated shims (or allow sites) reintroduced; use the session APIs"
  exit 1
fi
# Retired solve knobs stay retired: each was deleted because no caller set
# it, so one may only come back together with a caller. The root slot
# (`Solver::root_slot`) replaced the import/export hook pair, and the
# pipeline folds the request deadline into the MILP time limit, so the
# solver has no deadline error of its own. Tests may still name the
# fields an older wire client sends.
if grep -rnwE 'max_transfers|reuse_basis|measure_root_gap|root_import|root_export' \
    crates/*/src --include='*.rs' \
  || grep -rn 'SolveError::DeadlineExpired' crates/*/src --include='*.rs'; then
  echo "a retired solve knob or hook reappeared; bring it back with a caller"
  exit 1
fi
# The refactor cadence knob (set only by a test), its carrier `LpConfig`,
# its always-128 counter and the `formulation_lp` wrapper are gone too.
# Each solve setting is set in one place, its `OptConfig`/`SolveOptions`
# field, so neither session may grow a per-setting forwarding setter again
# (a setter takes `self`; `MilpSolution::objective(&self)` is an accessor).
if grep -rnwE 'with_refactor_interval|RefactorCadence|LpConfig|formulation_lp' \
    crates/*/src --include='*.rs' \
  || grep -nE 'pub fn (objective|time_limit|node_limit|warm_start|threads|presolve)\((mut )?self,' \
    crates/opt/src/optimizer.rs crates/milp/src/solver.rs; then
  echo "a retired knob or forwarding setter reappeared; set it through OptConfig/SolveOptions"
  exit 1
fi

echo "== cargo fmt --check =="
cargo fmt --all --check

echo "== cargo clippy -D warnings =="
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "CI green."
