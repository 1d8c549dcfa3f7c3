//! Regenerates the paper's tables and figures.
//!
//! ```text
//! cargo run --release -p letdma-bench --bin repro -- all
//! cargo run --release -p letdma-bench --bin repro -- fig1
//! cargo run --release -p letdma-bench --bin repro -- fig2 --budget 60 --threads 4
//! cargo run --release -p letdma-bench --bin repro -- table1 --budget 120 --stats
//! cargo run --release -p letdma-bench --bin repro -- alpha-sweep
//! cargo run --release -p letdma-bench --bin repro -- bench-milp --nodes 12 --out BENCH_milp.json
//! cargo run --release -p letdma-bench --bin repro -- corpus --scenarios 64 --out BENCH_corpus.json
//! cargo run --release -p letdma-bench --bin repro -- fault-smoke --budget 5
//! cargo run --release -p letdma-bench --bin repro -- serve --tcp
//! ```
//!
//! `--budget <seconds>` bounds each MILP solve (default 30 s; the paper
//! used a 1 h CPLEX timeout on a 40-core Xeon). `--threads <n>` sets the
//! worker-thread count of the MILP node pool in every solve (default:
//! `LETDMA_THREADS`, else sequential). Scenarios are solved one at a time,
//! so each Table I running time is one cell's own; results are
//! bit-identical at any thread count.
//! `--stats` appends the solver statistics accumulated across every solve
//! of the command: the aggregate (per-phase wall clock, simplex and
//! branch-and-bound counters, the presolve reductions, node outcome
//! breakdown, incumbent timeline) and the per-scenario shards. It also
//! switches on the presolve root-gap measurement, so each shard line
//! reports how much the presolved root LP tightened (`RootGapBps`; one
//! extra root LP per solve).
//!
//! `bench-milp` solves the six Table I scenarios in the default
//! configuration under a node budget (`--nodes`, default 12 — each WATERS
//! node LP costs thousands of simplex iterations; deterministic, so the
//! counters repeat exactly), prints the per-scenario work and writes the
//! machine-readable report to `--out` (default `BENCH_milp.json`, schema
//! `letdma-bench-milp/6`; DESIGN.md §"Warm-start architecture"). Each
//! scenario carries its nodes, simplex iterations with the phase-1 share,
//! the presolve reductions and a `reuse` block measuring cross-scenario
//! root reuse. The report carries no timing fields, so it is
//! byte-identical across reruns and thread counts; time is measured by
//! `perfbench/`.
//!
//! `corpus` runs the scenario-diversity campaign: `--scenarios` (default
//! 64) specs expanded from `--seed` (default `0xDAC22021`), each solved
//! end-to-end — constructive heuristic, MILP under the `--nodes` budget
//! (default 200 for this command), Properties-1–3 conformance on both
//! solutions — and simulated under every protocol variant (the four §VII
//! approaches plus the triple-buffered pipeline with its rotation
//! counters). The report (schema `letdma-bench-corpus/1`, default out
//! `BENCH_corpus.json`) carries no timing fields and every solve is
//! node-limited, so the file is byte-identical across reruns and thread
//! counts; a Properties-1–3 violation or a
//! worse-than-heuristic MILP objective is a nonzero exit.
//!
//! `serve` is the solve-service smoke: the six Table I scenarios through
//! the in-process service (wire codec, admission queue, worker shards,
//! shared formulation/presolve cache) at 1 worker and then at 4, checking
//! that every response is a full MILP solve and that the cache is hit 0
//! times on the cold round and 6 times on the warm one (DESIGN.md
//! §"Service architecture"); a broken invariant is a nonzero exit.
//! `--tcp` switches it onto a real `TcpServer` over OS loopback
//! (length-prefixed frames, retrying client, per-request idempotency keys;
//! DESIGN.md §"Network transport & failure model") — combined with
//! `LETDMA_FAULTS="net-…:max=2"` this is the CI chaos smoke, and
//! `--stats` then also reports the service and transport counters
//! (retries attempted, frames dropped, drain rejections, idempotent
//! hits).
//!
//! `fault-smoke` arms every deterministic fault site in turn against the
//! WATERS case study and checks the resilience contract (valid solution
//! or typed error; see DESIGN.md §"Failure model & degradation policy");
//! a failing contract turns into a nonzero exit code. Arbitrary fault
//! campaigns can also be armed for any command via the `LETDMA_FAULTS`
//! environment variable (e.g.
//! `LETDMA_FAULTS="worker-panic:p=0.01:seed=7" repro table1`).

use std::process::ExitCode;
use std::time::Duration;

use letdma::core::fault;
use letdma::core::Counter;
use letdma_bench::{
    alpha_sweep, corpus_bench, fault_smoke, fig2, milp_bench, serve_smoke, table1, Session,
};

fn main() -> ExitCode {
    // Arm the deterministic fault plane from `LETDMA_FAULTS` (if set) —
    // off by default, so normal reproduction runs are untouched.
    let armed = fault::arm_from_env();
    if armed > 0 {
        eprintln!("fault plane: {armed} site(s) armed via LETDMA_FAULTS");
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut budget = Duration::from_secs(30);
    let mut threads: Option<usize> = None;
    let mut stats = false;
    let mut nodes: Option<u64> = None;
    let mut scenarios: usize = 64;
    let mut seed: u64 = 0xDAC2_2021;
    let mut out_path: Option<String> = None;
    let mut tcp = false;
    let mut command: Option<String> = None;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--budget" => {
                let Some(value) = iter.next() else {
                    eprintln!("--budget needs a value in seconds");
                    return ExitCode::FAILURE;
                };
                match value.parse::<u64>() {
                    Ok(secs) => budget = Duration::from_secs(secs),
                    Err(_) => {
                        eprintln!("invalid budget `{value}`");
                        return ExitCode::FAILURE;
                    }
                }
            }
            "--threads" => {
                let Some(value) = iter.next() else {
                    eprintln!("--threads needs a worker count");
                    return ExitCode::FAILURE;
                };
                match value.parse::<usize>() {
                    Ok(n) if n >= 1 => threads = Some(n),
                    _ => {
                        eprintln!("invalid thread count `{value}`");
                        return ExitCode::FAILURE;
                    }
                }
            }
            "--stats" => stats = true,
            "--tcp" => tcp = true,
            "--nodes" => {
                let Some(value) = iter.next() else {
                    eprintln!("--nodes needs a node budget");
                    return ExitCode::FAILURE;
                };
                match value.parse::<u64>() {
                    Ok(n) if n >= 1 => nodes = Some(n),
                    _ => {
                        eprintln!("invalid node budget `{value}`");
                        return ExitCode::FAILURE;
                    }
                }
            }
            "--scenarios" => {
                let Some(value) = iter.next() else {
                    eprintln!("--scenarios needs a scenario count");
                    return ExitCode::FAILURE;
                };
                match value.parse::<usize>() {
                    Ok(n) if n >= 1 => scenarios = n,
                    _ => {
                        eprintln!("invalid scenario count `{value}`");
                        return ExitCode::FAILURE;
                    }
                }
            }
            "--seed" => {
                let Some(value) = iter.next() else {
                    eprintln!("--seed needs a value (decimal, or hex with 0x)");
                    return ExitCode::FAILURE;
                };
                let parsed = value
                    .strip_prefix("0x")
                    .map_or_else(|| value.parse::<u64>(), |hex| u64::from_str_radix(hex, 16));
                match parsed {
                    Ok(n) => seed = n,
                    Err(_) => {
                        eprintln!("invalid seed `{value}`");
                        return ExitCode::FAILURE;
                    }
                }
            }
            "--out" => {
                let Some(value) = iter.next() else {
                    eprintln!("--out needs a file path");
                    return ExitCode::FAILURE;
                };
                out_path = Some(value.clone());
            }
            other if command.is_none() => command = Some(other.to_owned()),
            other => {
                eprintln!("unexpected argument `{other}`");
                return ExitCode::FAILURE;
            }
        }
    }
    let command = command.unwrap_or_else(|| "all".to_owned());

    let mut session = Session::new().budget(budget).measure_root_gap(stats);
    if let Some(n) = threads {
        session = session.threads(n);
    }
    match command.as_str() {
        "fig1" => print!("{}", session.fig1()),
        "fig2" => print!("{}", fig2::render(&session.fig2())),
        "table1" => print!("{}", table1::render(&session.table1())),
        "alpha-sweep" => print!("{}", alpha_sweep::render(&session.alpha_sweep())),
        "bench-milp" => {
            let bench = milp_bench::run(nodes.unwrap_or(12));
            print!("{}", bench.render());
            let value = bench.to_json();
            if let Err(problem) = milp_bench::validate(&value) {
                eprintln!("internal error: benchmark report fails its own schema: {problem}");
                return ExitCode::FAILURE;
            }
            let out_path = out_path.unwrap_or_else(|| "BENCH_milp.json".to_owned());
            if let Err(e) = std::fs::write(&out_path, value.render()) {
                eprintln!("cannot write `{out_path}`: {e}");
                return ExitCode::FAILURE;
            }
            println!("wrote {out_path}");
        }
        "serve" => {
            // The six-scenario WATERS batch through the solve service at 1
            // worker (cold cache) and 4 workers (warm); with `--tcp` the
            // same batch crosses a real socket (and
            // `LETDMA_FAULTS="net-…:max=2"` turns it into the chaos smoke —
            // fire caps below the retry budget keep it deterministic).
            let smoke = match serve_smoke::run(nodes.unwrap_or(12), tcp) {
                Ok(smoke) => smoke,
                Err(problem) => {
                    eprintln!("serve smoke: {problem}");
                    return ExitCode::FAILURE;
                }
            };
            print!("{}", smoke.render());
            if stats {
                println!("\n== Serve statistics — {} transport", smoke.transport);
                print!("{}", smoke.stats.render());
            }
            println!(
                "serve smoke OK ({} cache hits on the warm round)",
                smoke.warm_hits()
            );
        }
        "corpus" => {
            // The scenario-corpus campaign: every generated scenario solved
            // end-to-end (heuristic → node-limited MILP → conformance) and
            // simulated under every protocol variant. The report carries no
            // timing fields and every inner solve is node-limited and pinned
            // to one thread, so the written file is byte-identical across
            // reruns and thread counts (the CI smoke `cmp`s two runs).
            let bench = corpus_bench::run(scenarios, seed, nodes.unwrap_or(200), threads);
            print!("{}", bench.render());
            let value = bench.to_json();
            if let Err(problem) = corpus_bench::validate(&value) {
                eprintln!("internal error: corpus report fails its own schema: {problem}");
                return ExitCode::FAILURE;
            }
            if !bench.all_properties_pass() {
                eprintln!("corpus: a scenario violates Properties 1-3 (see table above)");
                return ExitCode::FAILURE;
            }
            if !bench.milp_never_worse() {
                eprintln!("corpus: the MILP returned a worse objective than the heuristic");
                return ExitCode::FAILURE;
            }
            let out_path = out_path.unwrap_or_else(|| "BENCH_corpus.json".to_owned());
            if let Err(e) = std::fs::write(&out_path, value.render()) {
                eprintln!("cannot write `{out_path}`: {e}");
                return ExitCode::FAILURE;
            }
            println!("wrote {out_path}");
        }
        "fault-smoke" => {
            let report = fault_smoke::run(budget);
            print!("{}", report.render());
            if !report.pass {
                return ExitCode::FAILURE;
            }
        }
        "all" => {
            println!("== Fig. 1 =================================================");
            print!("{}", session.fig1());
            println!("\n== Fig. 2 =================================================");
            print!("{}", fig2::render(&session.fig2()));
            println!("\n== Table I ================================================");
            print!("{}", table1::render(&session.table1()));
            println!("\n== α sweep ================================================");
            print!("{}", alpha_sweep::render(&session.alpha_sweep()));
        }
        other => {
            eprintln!(
                "unknown command `{other}` (use fig1|fig2|table1|alpha-sweep|bench-milp|corpus|serve|fault-smoke|all)"
            );
            return ExitCode::FAILURE;
        }
    }
    if stats {
        println!(
            "\n== Solver statistics — aggregate (deterministic: identical at any thread count)"
        );
        print!("{}", session.aggregate().render());
        if session.shards().len() > 1 {
            println!("\n-- per-scenario shards (deterministic counters) --");
            for (name, shard) in session.shards() {
                let count = |c: Counter| {
                    shard
                        .counters()
                        .iter()
                        .find(|(k, _)| *k == c)
                        .map_or(0, |(_, v)| *v)
                };
                println!(
                    "{name:<28} {:>8} nodes  {:>10} simplex iterations  {:>4} incumbents  {:>6} root-gap bps ({} rows dropped, {} cols fixed, {} coeffs tightened)",
                    count(Counter::Nodes),
                    count(Counter::SimplexIterations),
                    count(Counter::Incumbents),
                    count(Counter::RootGapBps),
                    count(Counter::PresolveRowsDropped),
                    count(Counter::PresolveColsFixed),
                    count(Counter::CoeffsTightened),
                );
                println!(
                    "{:<28} {:>8} ftran  {:>10} btran  {:>8} eta nnz  {:>10} pricing candidates  fill {}‰  refactor cadence {}",
                    "",
                    count(Counter::FtranCalls),
                    count(Counter::BtranCalls),
                    count(Counter::EtaNonzeros),
                    count(Counter::PricingCandidates),
                    count(Counter::FillInRatio),
                    count(Counter::RefactorCadence),
                );
            }
        }
    }
    ExitCode::SUCCESS
}
