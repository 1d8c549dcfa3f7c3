//! Regression: a `Batch` must return exactly what a sequential loop of
//! `Optimizer::run` returns, scenario by scenario, at any worker-thread
//! count, under the default configuration (cross-scenario root reuse on).
//! The only tolerated difference is the wall-clock measurement — layout,
//! schedule, latencies, search statistics and every solver counter are
//! pinned.
//!
//! Three scenario families run through the check: a small two-core
//! pipeline under two objectives, a three-scenario corpus of one topology
//! with varied periods and label sizes, and the WATERS case study at
//! α ∈ {20 %, 40 %} under a node limit. The last two are same-shape
//! siblings, the case where one scenario's root basis could leak into
//! another's solve.
//!
//! Thread counts are exercised through `Batch::threads`, never by mutating
//! `LETDMA_THREADS` — env mutation would race the other tests in this
//! binary.

use letdma::analysis::{apply_gammas, derive_gammas, let_task_segments};
use letdma::core::{Counter, NodeEvent, SolverStats};
use letdma::model::conformance::{verify, VerifyOptions};
use letdma::model::{System, SystemBuilder};
use letdma::opt::{
    heuristic_solution, Batch, BatchOutcome, LetDmaSolution, Objective, OptConfig, Optimizer,
    Provenance,
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

/// The wall-clock-free part of a solve's instrument record: counters and
/// node events.
fn work(stats: &SolverStats) -> (Vec<(Counter, u64)>, Vec<u64>) {
    (
        stats.counters(),
        NodeEvent::ALL
            .iter()
            .map(|&e| stats.node_events(e))
            .collect(),
    )
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

/// The pipeline family. No time limits: every scenario must run to a
/// deterministic stopping point (proved optimum / first incumbent),
/// otherwise the comparison against the sequential loop would depend on
/// machine load.
fn pipelines() -> Vec<(System, OptConfig)> {
    let base = || OptConfig::new().without_time_limit();
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

/// One member of the corpus family: a fixed three-task/three-label
/// topology with the given period and label sizes. Same topology ⇒ same
/// search-model shape; different sizes ⇒ different coefficients.
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
    let [frame, state, ack] = sizes;
    b.label("frame")
        .size(frame)
        .writer(p)
        .reader(c)
        .add()
        .unwrap();
    b.label("state")
        .size(state)
        .writer(q)
        .reader(c)
        .add()
        .unwrap();
    b.label("ack").size(ack).writer(c).reader(p).add().unwrap();
    (
        b.build().unwrap(),
        OptConfig::new()
            .with_objective(Objective::MinTransfers)
            .without_time_limit()
            .with_threads(1),
    )
}

/// The corpus family: three same-shape scenarios, each solving to proved
/// optimality through a genuine root LP.
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

/// The WATERS family: the case study at α ∈ {20 %, 40 %} — same model
/// shape, different γ coefficients. Node-limited so the (large) solves
/// stop at a deterministic point.
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

/// The reference result: one instrumented `Optimizer` run per scenario, in
/// order.
fn sequential_reference(scenarios: &[(System, OptConfig)]) -> Vec<(LetDmaSolution, SolverStats)> {
    scenarios
        .iter()
        .map(|(system, config)| {
            let mut stats = SolverStats::new();
            let solution = Optimizer::new(system)
                .config(config.clone())
                .instrument(&mut stats)
                .run()
                .expect("reference scenario must solve");
            (scrub(solution), stats)
        })
        .collect()
}

fn batch_of(scenarios: Vec<(System, OptConfig)>, batch: Batch) -> Batch {
    scenarios
        .into_iter()
        .fold(batch, |b, (system, config)| b.scenario(system, config))
}

/// Asserts that `outcomes` equal `reference` field for field, with wall
/// clock scrubbed.
fn assert_matches(
    outcomes: Vec<BatchOutcome>,
    reference: &[(LetDmaSolution, SolverStats)],
    label: &str,
) {
    assert_eq!(outcomes.len(), reference.len(), "{label}");
    for (i, (outcome, (solution, stats))) in outcomes.into_iter().zip(reference).enumerate() {
        let got = scrub(outcome.result.unwrap_or_else(|e| {
            panic!("{label}: scenario {i} failed in the batch but not sequentially: {e}")
        }));
        assert_eq!(
            &got, solution,
            "{label}: scenario {i} diverged from the sequential loop"
        );
        assert_eq!(
            work(&outcome.stats),
            work(stats),
            "{label}: scenario {i} did different solver work than the sequential loop"
        );
    }
}

#[test]
fn env_resolved_batch_matches_the_sequential_loop() {
    // No thread count: `Batch` resolves its worker count from
    // `LETDMA_THREADS`, which CI runs at 1 and 4.
    let reference = sequential_reference(&pipelines());
    assert_matches(
        batch_of(pipelines(), Batch::new()).run(),
        &reference,
        "env-resolved",
    );
}

#[test]
fn batch_is_invariant_in_the_worker_thread_count() {
    for (name, scenarios) in [
        ("pipelines", pipelines()),
        ("corpus", corpus()),
        ("WATERS α-sweep", waters_sweep()),
    ] {
        let reference = sequential_reference(&scenarios);
        for (i, ((system, _), (solution, _))) in scenarios.iter().zip(&reference).enumerate() {
            let violations = verify(
                system,
                &solution.layout,
                &solution.schedule,
                VerifyOptions::default(),
            );
            assert!(violations.is_empty(), "{name} scenario {i}: {violations:?}");
        }
        for threads in [1usize, 4] {
            let outcomes = batch_of(scenarios.clone(), Batch::new().threads(threads)).run();
            assert_matches(outcomes, &reference, &format!("{name}, {threads} workers"));
        }
    }
}

#[test]
fn batch_reports_per_scenario_stats() {
    // Each outcome carries its own deterministic shard: node and simplex
    // iteration counters must agree with the stats embedded in the
    // solution itself (`SolveStats` is a view of the one stats stream).
    for (i, outcome) in batch_of(pipelines(), Batch::new().threads(2))
        .run()
        .into_iter()
        .enumerate()
    {
        let solution = outcome.result.expect("scenario must solve");
        if let Provenance::Milp { stats, .. } = &solution.provenance {
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
