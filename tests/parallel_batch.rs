//! Regression: batch solving (`Batch` / `optimize_batch`) must return
//! exactly what a sequential loop of `Optimizer` runs returns, scenario by
//! scenario, at any worker-thread count. The only tolerated difference is
//! the wall-clock measurement (`elapsed`) — everything decision-relevant
//! (layout, schedule, latencies, search counters) is pinned.
//!
//! Cross-scenario root-basis reuse is disabled here: with it on, a
//! same-shape sibling that imports the donor's root basis follows a
//! different (still deterministic) trajectory than a cold solve. The
//! reuse-on guarantees — identical optima, thread-count invariance,
//! Properties 1–3 — are pinned separately in `cross_scenario_reuse.rs`.

use letdma::model::{System, SystemBuilder};
use letdma::opt::{
    optimize_batch, Batch, LetDmaSolution, Objective, OptConfig, Optimizer, Provenance,
};
use std::time::Duration;

/// Zeroes the one field that legitimately varies run to run: wall-clock
/// time.
fn scrub(mut s: LetDmaSolution) -> LetDmaSolution {
    if let Provenance::Milp { stats, .. } = &mut s.provenance {
        stats.elapsed = Duration::ZERO;
    }
    s
}

/// A small two-core pipeline; `flip` varies the label sizes so the
/// scenarios in a batch are genuinely different problems.
fn pipeline_system(flip: bool) -> System {
    let mut b = SystemBuilder::new(2);
    let (a, c) = if flip { (2_048, 256) } else { (256, 2_048) };
    let p1 = b.task("p1").period_ms(5).core_index(0).add().unwrap();
    let c1 = b.task("c1").period_ms(5).core_index(1).add().unwrap();
    let p2 = b.task("p2").period_ms(10).core_index(0).add().unwrap();
    let c2 = b.task("c2").period_ms(10).core_index(1).add().unwrap();
    b.label("a").size(a).writer(p1).reader(c1).add().unwrap();
    b.label("b").size(512).writer(p1).reader(c2).add().unwrap();
    b.label("c").size(c).writer(p2).reader(c1).add().unwrap();
    b.build().unwrap()
}

fn scenarios() -> Vec<(System, OptConfig)> {
    // No time limits: every scenario must run to a deterministic stopping
    // point (proved optimum / first incumbent), otherwise the comparison
    // against the sequential loop would depend on machine load. Reuse off:
    // see the module docs.
    let base = || {
        OptConfig::new()
            .without_time_limit()
            .with_reuse_basis(false)
    };
    vec![
        (
            pipeline_system(false),
            base().with_objective(Objective::MinTransfers),
        ),
        (
            pipeline_system(true),
            base().with_objective(Objective::MinTransfers),
        ),
        (pipeline_system(false), base()),
        (pipeline_system(true), base()),
    ]
}

/// The reference result: one `Optimizer` run per scenario, in order.
fn sequential_reference() -> Vec<LetDmaSolution> {
    scenarios()
        .into_iter()
        .map(|(system, config)| {
            scrub(
                Optimizer::new(&system)
                    .config(config)
                    .run()
                    .expect("reference scenario must solve"),
            )
        })
        .collect()
}

#[test]
fn optimize_batch_matches_the_sequential_loop() {
    let reference = sequential_reference();
    let outcomes = optimize_batch(scenarios());
    assert_eq!(outcomes.len(), reference.len());
    for (i, (outcome, expected)) in outcomes.into_iter().zip(reference).enumerate() {
        let got = scrub(outcome.result.unwrap_or_else(|e| {
            panic!("scenario {i} failed in the batch but not sequentially: {e}")
        }));
        assert_eq!(
            got, expected,
            "scenario {i} diverged from the sequential loop"
        );
    }
}

#[test]
fn batch_is_invariant_in_the_worker_thread_count() {
    let reference = sequential_reference();
    for threads in [1usize, 2, 8] {
        let mut batch = Batch::new().threads(threads);
        for (system, config) in scenarios() {
            batch = batch.scenario(system, config);
        }
        let outcomes = batch.run();
        assert_eq!(outcomes.len(), reference.len());
        for (i, (outcome, expected)) in outcomes.into_iter().zip(reference.iter()).enumerate() {
            let got = scrub(outcome.result.expect("batch scenario must solve"));
            assert_eq!(
                &got, expected,
                "scenario {i} diverged at {threads} worker threads"
            );
        }
    }
}

#[test]
fn batch_reports_per_scenario_stats() {
    // Each outcome carries its own deterministic shard: node and simplex
    // iteration counters must agree with the stats embedded in the
    // solution itself (`SolveStats` is a view of the one stats stream).
    let mut batch = Batch::new().threads(2);
    for (system, config) in scenarios() {
        batch = batch.scenario(system, config);
    }
    for (i, outcome) in batch.run().into_iter().enumerate() {
        let solution = outcome.result.expect("scenario must solve");
        if let Provenance::Milp { stats, .. } = &solution.provenance {
            use letdma::core::Counter;
            assert_eq!(
                outcome.stats.counter(Counter::Nodes),
                stats.nodes,
                "scenario {i}: shard node count disagrees with the solution stats"
            );
            assert_eq!(
                outcome.stats.counter(Counter::SimplexIterations),
                stats.lp_iterations,
                "scenario {i}: shard iteration count disagrees with the solution stats"
            );
        }
    }
}
