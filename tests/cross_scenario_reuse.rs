//! The cross-scenario root-basis reuse differential (DESIGN.md
//! §"Warm-start architecture").
//!
//! `Batch` runs with reuse on (the default) elect a donor per shape group
//! and warm-start every sibling's root LP from the donor's optimal basis.
//! That changes *work*, never *answers*: this file pins, over a WATERS
//! α-sweep and a seeded random corpus, at 1 and 4 batch workers,
//!
//! 1. **identical optima** — every scenario solved to proved optimality
//!    reports bit-identical objective values with reuse on and off;
//! 2. **conformance** — every reuse-on result passes the independent
//!    Properties 1–3 / contiguity / deadline checker;
//! 3. **byte-identity when disabled** — with `reuse_basis(false)` the
//!    batch reproduces the sequential cold loop exactly, field for field
//!    (the stronger pin that `tests/parallel_batch.rs` applies to the
//!    general batch machinery).
//!
//! Thread counts are exercised through `Batch::threads`, never by mutating
//! `LETDMA_THREADS` — env mutation would race the other tests in this
//! binary.

use letdma::analysis::{apply_gammas, derive_gammas, let_task_segments};
use letdma::core::Counter;
use letdma::model::conformance::{verify, VerifyOptions};
use letdma::model::{System, SystemBuilder};
use letdma::opt::{
    heuristic_solution, Batch, LetDmaSolution, Objective, OptConfig, Optimizer, Provenance,
};
use std::time::Duration;

/// Zeroes wall-clock time — the only field allowed to differ between a
/// batch solve and the same solve run sequentially.
fn scrub(mut s: LetDmaSolution) -> LetDmaSolution {
    if let Provenance::Milp { stats, .. } = &mut s.provenance {
        stats.elapsed = Duration::ZERO;
    }
    s
}

/// One member of the seeded corpus: a fixed three-task/three-label
/// topology whose periods and label sizes come from the seed table in
/// [`corpus`]. Same topology ⇒ same search-model *shape*; different seeds
/// ⇒ different coefficients — exactly the sibling pattern the reuse
/// planner groups.
fn corpus_scenario(period: u64, sizes: [u64; 3]) -> (System, OptConfig) {
    let mut b = SystemBuilder::new(2);
    let p = b.task("p").period_ms(period).core_index(0).add().unwrap();
    let q = b
        .task("q")
        .period_ms(period * 2)
        .core_index(0)
        .add()
        .unwrap();
    let c = b
        .task("c")
        .period_ms(period * 2)
        .core_index(1)
        .add()
        .unwrap();
    b.label("frame")
        .size(sizes[0])
        .writer(p)
        .reader(c)
        .add()
        .unwrap();
    b.label("state")
        .size(sizes[1])
        .writer(q)
        .reader(c)
        .add()
        .unwrap();
    b.label("ack")
        .size(sizes[2])
        .writer(c)
        .reader(p)
        .add()
        .unwrap();
    (
        b.build().unwrap(),
        OptConfig::new()
            .with_objective(Objective::MinTransfers)
            .without_time_limit()
            .with_threads(1),
    )
}

/// The seeded corpus: three same-shape scenarios with seed-varied periods
/// and label sizes, each solving to proved optimality in well under a
/// second while still running a genuine root LP (hundreds of simplex
/// iterations) — so the first scenario donates and the other two import.
fn corpus() -> Vec<(System, OptConfig)> {
    [
        (5u64, [256u64, 64, 32]),
        (5, [512, 128, 48]),
        (7, [384, 96, 64]),
    ]
    .iter()
    .map(|&(period, sizes)| corpus_scenario(period, sizes))
    .collect()
}

/// The WATERS sweep: the case study at α ∈ {20%, 40%} — same model shape,
/// different γ coefficients, exactly the α-sibling pattern the reuse
/// planner groups. Node-limited so the (large) solves stop at a
/// deterministic point.
fn waters_sweep() -> Vec<(System, OptConfig)> {
    let config = OptConfig::new()
        .with_objective(Objective::MinTransfers)
        .without_time_limit()
        .with_node_limit(3)
        .with_threads(1);
    [20u32, 40]
        .iter()
        .map(|&alpha_pct| {
            let (mut system, _) = letdma::waters::waters_system().unwrap();
            let warm = heuristic_solution(&system, false).expect("heuristic feasible");
            let segments = let_task_segments(&system, &warm.schedule);
            let sens =
                derive_gammas(&system, alpha_pct, &segments).expect("WATERS base schedulable");
            assert!(sens.schedulable, "α = {alpha_pct}% must be schedulable");
            apply_gammas(&mut system, &sens);
            (system, config.clone())
        })
        .collect()
}

fn run_batch(scenarios: Vec<(System, OptConfig)>, threads: usize) -> Vec<LetDmaSolution> {
    scenarios
        .into_iter()
        .fold(Batch::new().threads(threads), |b, (s, c)| b.scenario(s, c))
        .run()
        .into_iter()
        .map(|o| o.result.expect("batch scenario must solve"))
        .collect()
}

/// Reuse on vs. sequential cold over the corpus: identical optima at every
/// worker count, conformance on every reuse-on result, and at least one
/// root import actually landing (otherwise this differential tests
/// nothing).
#[test]
fn corpus_reuse_on_preserves_optima_and_conformance() {
    let cold: Vec<_> = corpus()
        .into_iter()
        .map(|(system, config)| {
            let sol = Optimizer::new(&system)
                .config(config.with_reuse_basis(false))
                .run()
                .expect("cold scenario must solve");
            (system, sol)
        })
        .collect();
    for threads in [1usize, 4] {
        let mut batch = Batch::new().threads(threads);
        for (system, config) in corpus() {
            batch = batch.scenario(system, config);
        }
        let outcomes = batch.run();
        let imports: u64 = outcomes
            .iter()
            .map(|o| o.stats.counter(Counter::CrossScenarioWarmStarts))
            .sum();
        assert!(
            imports > 0,
            "{threads} workers: no root import landed — the differential is vacuous"
        );
        for (i, (outcome, (system, cold))) in outcomes.iter().zip(&cold).enumerate() {
            let sol = outcome.result.as_ref().expect("reuse scenario must solve");
            assert_eq!(
                sol.objective_value.map(f64::to_bits),
                cold.objective_value.map(f64::to_bits),
                "scenario {i} at {threads} workers: reuse changed the optimum"
            );
            assert_eq!(sol.resolution, cold.resolution, "scenario {i}");
            let violations = verify(system, &sol.layout, &sol.schedule, VerifyOptions::default());
            assert!(
                violations.is_empty(),
                "scenario {i} at {threads} workers: {violations:?}"
            );
        }
    }
}

/// Reuse on over the node-limited WATERS sweep: every result conformant,
/// and the batch deterministic in the worker count (donor election is by
/// submission index, beneficiaries block on the donor — scheduling never
/// leaks into the trajectory).
#[test]
fn waters_sweep_reuse_on_is_conformant_and_thread_invariant() {
    let one = run_batch(waters_sweep(), 1);
    let four = run_batch(waters_sweep(), 4);
    assert_eq!(one.len(), four.len());
    for (i, (a, b)) in one.iter().zip(&four).enumerate() {
        assert_eq!(
            scrub(a.clone()),
            scrub(b.clone()),
            "WATERS scenario {i}: 1-worker and 4-worker batches diverged"
        );
    }
    for (i, ((system, _), sol)) in waters_sweep().iter().zip(&one).enumerate() {
        let violations = verify(system, &sol.layout, &sol.schedule, VerifyOptions::default());
        assert!(violations.is_empty(), "WATERS scenario {i}: {violations:?}");
    }
}

/// With reuse disabled the batch is byte-identical to the sequential cold
/// loop on both scenario families, at 1 and 4 workers.
#[test]
fn reuse_off_restores_cold_trajectories() {
    for scenarios in [corpus(), waters_sweep()] {
        let off: Vec<(System, OptConfig)> = scenarios
            .into_iter()
            .map(|(s, c)| (s, c.with_reuse_basis(false)))
            .collect();
        let reference: Vec<_> = off
            .iter()
            .map(|(system, config)| {
                scrub(
                    Optimizer::new(system)
                        .config(config.clone())
                        .run()
                        .expect("reference scenario must solve"),
                )
            })
            .collect();
        for threads in [1usize, 4] {
            let mut batch = Batch::new().threads(threads);
            for (system, config) in off.clone() {
                batch = batch.scenario(system, config);
            }
            for (i, (outcome, expected)) in batch.run().into_iter().zip(&reference).enumerate() {
                let got = scrub(outcome.result.expect("batch scenario must solve"));
                assert_eq!(
                    &got, expected,
                    "scenario {i} at {threads} workers diverged from the cold loop"
                );
            }
        }
    }
}
