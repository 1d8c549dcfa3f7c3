//! The deterministic-parallelism contract of the branch-and-bound engine:
//! on random MILPs, the solver at 1, 2 and 8 threads returns the identical
//! objective, incumbent timeline and solution vector as the sequential
//! solver — bit for bit.
//!
//! Wall-clock durations are the only thread-count-dependent outputs, so
//! the comparisons below exclude them and pin everything else.

use letdma_core::{Cases, Rng, SolverStats};
use milp::{LinExpr, Model, ObjectiveSense, SolveError};

/// A random MILP with enough structure to branch: a knapsack over binaries
/// plus a few coupled general-integer variables.
fn random_milp(rng: &mut impl Rng) -> Model {
    let n = 4 + (rng.next_u64() % 5) as usize; // 4..=8 binaries
    let mut m = Model::new();
    let bins: Vec<_> = (0..n).map(|i| m.add_binary(format!("b{i}"))).collect();
    let weights: Vec<f64> = (0..n).map(|_| 1.0 + (rng.next_u64() % 9) as f64).collect();
    let values: Vec<f64> = (0..n).map(|_| 1.0 + (rng.next_u64() % 12) as f64).collect();
    let cap = weights.iter().sum::<f64>() * 0.5;
    m.add_constraint(
        "cap",
        LinExpr::weighted_sum(bins.iter().copied().zip(weights.iter().copied())).le(cap),
    );
    // Two general integers tied to the binaries so the LP relaxation is
    // fractional in more than one place.
    let y = m.add_integer("y", 0.0, 7.0);
    let z = m.add_integer("z", 0.0, 7.0);
    m.add_constraint(
        "tie",
        (2.0 * y + 3.0 * z).le(11.0 + (rng.next_u64() % 5) as f64),
    );
    m.add_constraint("link", (1.0 * y + 1.0 * bins[0]).ge(1.0));
    let mut obj = LinExpr::weighted_sum(bins.iter().copied().zip(values.iter().copied()));
    obj = obj + 2.0 * y + 1.5 * z;
    m.set_objective(ObjectiveSense::Maximize, obj);
    m
}

/// Everything a solve reports that must be invariant across thread counts.
#[derive(Debug, PartialEq)]
struct Trajectory {
    outcome: Result<(Vec<u64>, u64, u64, u64), String>,
    counters: Vec<(letdma_core::Counter, u64)>,
    incumbents: Vec<(u64, u64)>,
}

fn trajectory(model: &Model, threads: usize) -> Trajectory {
    let mut stats = SolverStats::new();
    let outcome = model.solver().threads(threads).instrument(&mut stats).run();
    let outcome = match outcome {
        Ok(s) => Ok((
            s.values().iter().map(|v| v.to_bits()).collect(),
            s.objective().to_bits(),
            s.stats().nodes,
            s.stats().lp_iterations,
        )),
        Err(SolveError::Infeasible) => Err("infeasible".to_string()),
        Err(e) => Err(format!("{e}")),
    };
    Trajectory {
        outcome,
        counters: stats.counters(),
        incumbents: stats
            .incumbents()
            .iter()
            .map(|r| (r.nodes, r.objective.to_bits()))
            .collect(),
    }
}

#[test]
fn parallel_solver_matches_sequential_at_any_thread_count() {
    Cases::new("parallel_solver_matches_sequential_at_any_thread_count", 48).run(|rng| {
        let model = random_milp(rng);
        let sequential = trajectory(&model, 1);
        for threads in [2, 8] {
            let parallel = trajectory(&model, threads);
            assert_eq!(
                sequential, parallel,
                "trajectory diverged at {threads} threads"
            );
        }
    });
}

#[test]
fn deterministic_solves_are_identical_run_to_run() {
    Cases::new("deterministic_solves_are_identical_run_to_run", 16).run(|rng| {
        let model = random_milp(rng);
        assert_eq!(trajectory(&model, 4), trajectory(&model, 4));
    });
}

/// Opportunistic (arrival-ordered) merging trades reproducibility for
/// speed, but it must still reach the same *optimal* objective: pruning
/// with a sound bound never loses the optimum.
#[test]
fn opportunistic_mode_reaches_the_same_objective() {
    Cases::new("opportunistic_mode_reaches_the_same_objective", 16).run(|rng| {
        let model = random_milp(rng);
        let reference = model.solver().threads(1).run();
        let relaxed = model.solver().threads(4).deterministic(false).run();
        match (reference, relaxed) {
            (Ok(a), Ok(b)) => {
                assert!(
                    (a.objective() - b.objective()).abs() < 1e-6,
                    "objectives diverged: {} vs {}",
                    a.objective(),
                    b.objective()
                );
            }
            (Err(_), Err(_)) => {}
            (a, b) => panic!("feasibility verdict diverged: {a:?} vs {b:?}"),
        }
    });
}
