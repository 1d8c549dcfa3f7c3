//! Presolve on the WATERS 2019 case-study MILP: golden model snapshot,
//! on/off differential, root-gap tightening and thread-count invariance.
//!
//! The random-corpus differential lives in
//! `crates/milp/tests/presolve_differential.rs`; this file pins the one
//! *real* instance the paper's experiments revolve around. The numbers in
//! the golden snapshot are deterministic — the formulation iterates every
//! collection in canonical order and presolve is pure f64 arithmetic — so
//! any drift means the model or the presolve rules changed, which must be
//! a conscious decision.

use letdma_core::{Counter, SolverStats};
use letdma_model::conformance::{verify, VerifyOptions};
use letdma_opt::{formulation_model, Objective, OptConfig, Optimizer};
use waters2019::waters_system;

/// Golden snapshot of what presolve does to the two objective variants'
/// models: exact row/column counts and reduction statistics, plus spot
/// checks of the tightened coefficients in the LP export.
#[test]
fn golden_presolved_model_snapshot() {
    let (sys, _) = waters_system().unwrap();

    // OBJ-DMAT: 3010 rows / 1426 cols presolves to 2917 / 1406.
    let dmat = formulation_model(
        &sys,
        &OptConfig::new().with_objective(Objective::MinTransfers),
    );
    let red = milp::presolve::presolve(&dmat, 1e-6).expect("WATERS must presolve feasibly");
    assert_eq!((dmat.num_constraints(), dmat.num_vars()), (3010, 1426));
    assert_eq!(
        (red.model.num_constraints(), red.model.num_vars()),
        (2917, 1406)
    );
    assert_eq!(red.stats.rows_dropped, 133);
    assert_eq!(red.stats.cols_fixed, 20);
    assert_eq!(red.stats.coeffs_tightened, 300);
    assert_eq!(red.stats.cuts_added, 40);

    // OBJ-DEL: 3207 rows / 1614 cols presolves to 3132 / 1594.
    let del = formulation_model(
        &sys,
        &OptConfig::new().with_objective(Objective::MinDelayRatio),
    );
    let red = milp::presolve::presolve(&del, 1e-6).expect("WATERS must presolve feasibly");
    assert_eq!((del.num_constraints(), del.num_vars()), (3207, 1614));
    assert_eq!(
        (red.model.num_constraints(), red.model.num_vars()),
        (3132, 1594)
    );
    assert_eq!(red.stats.rows_dropped, 133);
    assert_eq!(red.stats.cols_fixed, 20);
    assert_eq!(red.stats.coeffs_tightened, 453);
    assert_eq!(red.stats.cuts_added, 58);

    // Tightened coefficients, visible in the LP export. The MTZ rows of
    // the first memory keep their loose `n + 2` big-M in the formulation
    // (5 for a 3-slot memory) and presolve shrinks it to 2.
    let orig_lp = del.to_lp_format();
    let red_lp = red.model.to_lp_format();
    assert!(
        orig_lp.contains(" 5 AD_0_0_1_"),
        "original MTZ row should carry the loose big-M"
    );
    assert!(
        red_lp.contains(" 2 AD_0_0_1_"),
        "presolved MTZ row should carry the tightened coefficient"
    );
    // The implied-bound aggregation cuts over the Constraint-1 partitions
    // exist only in the presolved model.
    assert!(!orig_lp.contains("agg_"));
    assert!(
        red_lp.contains("agg_c1_0_CGI_0_"),
        "expected an aggregation cut over the first c1 partition"
    );
}

/// Presolve on and off must agree on the WATERS feasibility verdict, and
/// both solutions must survive the independent conformance checker — the
/// strongest form of "the lifted solution satisfies every original
/// constraint" (Properties 1–3, contiguity, deadlines).
#[test]
fn waters_differential_presolve_on_off() {
    let (sys, _) = waters_system().unwrap();
    for presolve in [false, true] {
        let sol = Optimizer::new(&sys)
            .config(
                OptConfig::new()
                    .with_objective(Objective::MinTransfers)
                    .with_time_limit(std::time::Duration::from_secs(10))
                    .with_presolve(presolve),
            )
            .run()
            .unwrap_or_else(|e| panic!("presolve={presolve}: WATERS must stay solvable: {e}"));
        let violations = verify(&sys, &sol.layout, &sol.schedule, VerifyOptions::default());
        assert!(violations.is_empty(), "presolve={presolve}: {violations:?}");
    }
}

/// On WATERS the presolved root LP is *strictly* tighter than the
/// unpresolved one for the delay objective (the unpresolved root drives
/// `V` to ~0 by spreading fractional `RG` mass; the aggregation cut
/// `λ ≥ λO·(RGI+1)` forbids that), so [`milp::root_gap_bps`] must come out
/// positive — alongside the presolve counters of a solve. The NO-OBJ model
/// has an empty objective, so there is no gap to measure.
#[test]
fn root_gap_strictly_positive_on_waters() {
    let (sys, _) = waters_system().unwrap();
    // No wall-clock limit: both root LPs must reach optimality for a gap
    // to be reported, so a time limit would make this assertion
    // load-sensitive.
    let config = OptConfig::new()
        .with_objective(Objective::MinDelayRatio)
        .without_time_limit()
        .with_node_limit(3)
        .with_presolve(true);
    let gap = milp::root_gap_bps(&formulation_model(&sys, &config), None);
    assert!(
        gap.is_some_and(|bps| bps > 0),
        "presolve must strictly tighten the OBJ-DEL root LP; got {gap:?}"
    );
    assert_eq!(
        milp::root_gap_bps(&formulation_model(&sys, &OptConfig::new()), None),
        None,
        "an empty objective has no root gap"
    );

    let mut stats = SolverStats::new();
    let _ = Optimizer::new(&sys)
        .config(config)
        .instrument(&mut stats)
        .run()
        .expect("warm-started WATERS solve must return an incumbent");
    assert!(stats.counter(Counter::PresolveRowsDropped) > 0);
    assert!(stats.counter(Counter::PresolveColsFixed) > 0);
    assert!(stats.counter(Counter::CoeffsTightened) > 0);
}

/// Presolve happens on the coordinator before any worker spawns, so the
/// WATERS search trajectory with presolve on is byte-identical at 1 and 4
/// threads: same layout, schedule, latencies, objective bits, counters
/// and incumbent timeline (wall-clock excluded, as ever).
#[test]
fn presolved_waters_trajectory_thread_invariant() {
    let (sys, _) = waters_system().unwrap();
    let capture = |threads: usize| {
        let mut stats = SolverStats::new();
        let sol = Optimizer::new(&sys)
            .config(OptConfig::new().with_objective(Objective::MinTransfers))
            .config(
                OptConfig::new()
                    .with_objective(Objective::MinTransfers)
                    .without_time_limit()
                    .with_node_limit(5)
                    .with_presolve(true)
                    .with_threads(threads),
            )
            .instrument(&mut stats)
            .run()
            .expect("warm-started, node-limited solve must return an incumbent");
        let timeline: Vec<(u64, u64)> = stats
            .incumbents()
            .iter()
            .map(|r| (r.nodes, r.objective.to_bits()))
            .collect();
        (
            sol.layout,
            sol.schedule,
            sol.latencies,
            sol.objective_value.map(f64::to_bits),
            sol.resolution,
            stats.counters(),
            timeline,
        )
    };
    let seq = capture(1);
    let par = capture(4);
    assert_eq!(
        seq, par,
        "presolved WATERS trajectory diverged at 4 threads"
    );
}
