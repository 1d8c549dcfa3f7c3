//! Property-based validation of the MILP solver against brute force.
//!
//! Random small binary programs are solved both by branch and bound and by
//! exhaustive enumeration of all 2^n assignments; the solver must agree on
//! feasibility and on the optimal objective value. Cases come from the
//! in-tree seeded harness ([`letdma_core::Cases`]); a failing case prints
//! the `LETDMA_CASE_SEED` needed to replay it.

use letdma_core::{Cases, Rng, Xoshiro256};
use milp::{LinExpr, Model, ObjectiveSense, Sense, SolveError, SolveOptions};

/// A randomly generated binary program.
#[derive(Debug, Clone)]
struct RandomBip {
    n_vars: usize,
    /// Each constraint: (coefficients, sense, rhs).
    constraints: Vec<(Vec<i32>, Sense, i32)>,
    objective: Vec<i32>,
    maximize: bool,
}

fn random_bip(rng: &mut Xoshiro256) -> RandomBip {
    let n_vars = rng.usize_range(2, 7);
    let n_cons = rng.usize_range(1, 5);
    let coef = |rng: &mut Xoshiro256| i32::try_from(rng.i64_inclusive(-4, 4)).unwrap();
    let constraints = (0..n_cons)
        .map(|_| {
            let coefs: Vec<i32> = (0..n_vars).map(|_| coef(rng)).collect();
            let sense = *rng
                .choose(&[Sense::Le, Sense::Ge, Sense::Eq])
                .expect("nonempty");
            let rhs = i32::try_from(rng.i64_inclusive(-3, 6)).unwrap();
            (coefs, sense, rhs)
        })
        .collect();
    let objective = (0..n_vars)
        .map(|_| i32::try_from(rng.i64_inclusive(-5, 5)).unwrap())
        .collect();
    RandomBip {
        n_vars,
        constraints,
        objective,
        maximize: rng.bool(),
    }
}

fn build_model(bip: &RandomBip) -> (Model, Vec<milp::Var>) {
    let mut m = Model::new();
    let vars: Vec<_> = (0..bip.n_vars)
        .map(|i| m.add_binary(format!("x{i}")))
        .collect();
    for (k, (coefs, sense, rhs)) in bip.constraints.iter().enumerate() {
        let expr = LinExpr::weighted_sum(
            vars.iter()
                .copied()
                .zip(coefs.iter().map(|&c| f64::from(c))),
        );
        let cmp = match sense {
            Sense::Le => expr.le(f64::from(*rhs)),
            Sense::Ge => expr.ge(f64::from(*rhs)),
            Sense::Eq => expr.eq(f64::from(*rhs)),
        };
        m.add_constraint(format!("c{k}"), cmp);
    }
    let obj = LinExpr::weighted_sum(
        vars.iter()
            .copied()
            .zip(bip.objective.iter().map(|&c| f64::from(c))),
    );
    let sense = if bip.maximize {
        ObjectiveSense::Maximize
    } else {
        ObjectiveSense::Minimize
    };
    m.set_objective(sense, obj);
    (m, vars)
}

/// Exhaustive optimum: `None` when infeasible.
fn brute_force(bip: &RandomBip) -> Option<i64> {
    let mut best: Option<i64> = None;
    for mask in 0u32..(1 << bip.n_vars) {
        let assignment: Vec<i64> = (0..bip.n_vars)
            .map(|i| i64::from((mask >> i) & 1))
            .collect();
        let feasible = bip.constraints.iter().all(|(coefs, sense, rhs)| {
            let lhs: i64 = coefs
                .iter()
                .zip(&assignment)
                .map(|(&c, &x)| i64::from(c) * x)
                .sum();
            let rhs = i64::from(*rhs);
            match sense {
                Sense::Le => lhs <= rhs,
                Sense::Ge => lhs >= rhs,
                Sense::Eq => lhs == rhs,
            }
        });
        if !feasible {
            continue;
        }
        let obj: i64 = bip
            .objective
            .iter()
            .zip(&assignment)
            .map(|(&c, &x)| i64::from(c) * x)
            .sum();
        best = Some(match best {
            None => obj,
            Some(b) => {
                if bip.maximize {
                    b.max(obj)
                } else {
                    b.min(obj)
                }
            }
        });
    }
    best
}

/// Branch and bound agrees with exhaustive enumeration on random binary
/// programs: same feasibility verdict, same optimal value, and the returned
/// assignment is genuinely feasible.
#[test]
fn solver_matches_brute_force() {
    Cases::new("solver_matches_brute_force", 256).run(|rng| {
        let bip = random_bip(rng);
        let (model, _) = build_model(&bip);
        let expected = brute_force(&bip);
        match model.solver().run() {
            Ok(solution) => {
                let exp = expected.expect("solver found a solution where brute force found none");
                assert!(
                    (solution.objective() - exp as f64).abs() < 1e-6,
                    "objective {} != brute force {}",
                    solution.objective(),
                    exp
                );
                assert!(model.is_feasible(solution.values(), 1e-6));
            }
            Err(SolveError::Infeasible) => {
                assert_eq!(
                    expected, None,
                    "solver said infeasible, brute force disagrees"
                );
            }
            Err(e) => panic!("unexpected error: {e}"),
        }
    });
}

/// The LP relaxation bound is always at least as good as the integral
/// optimum (lower for minimization, higher for maximization).
#[test]
fn lp_relaxation_bounds_integral_optimum() {
    Cases::new("lp_relaxation_bounds_integral_optimum", 256).run(|rng| {
        let bip = random_bip(rng);
        let (model, _) = build_model(&bip);
        let Some(int_opt) = brute_force(&bip) else {
            return;
        };
        let mut lp = milp::simplex::SimplexSolver::from_model(&model);
        match lp.solve() {
            milp::simplex::LpOutcome::Optimal { objective, .. } => {
                if bip.maximize {
                    assert!(objective >= int_opt as f64 - 1e-6);
                } else {
                    assert!(objective <= int_opt as f64 + 1e-6);
                }
            }
            other => panic!("LP should be feasible when the BIP is ({other:?})"),
        }
    });
}

#[test]
fn time_limited_solve_is_anytime() {
    // A 14-item knapsack with correlated weights makes the tree nontrivial;
    // even with a tiny budget the solver must return something feasible
    // (warm start provided).
    let n = 14;
    let mut m = Model::new();
    let vars: Vec<_> = (0..n).map(|i| m.add_binary(format!("x{i}"))).collect();
    let weights: Vec<f64> = (0..n).map(|i| 3.0 + ((i * 7) % 11) as f64).collect();
    let values: Vec<f64> = weights.iter().map(|w| w + 1.0).collect();
    let cap = weights.iter().sum::<f64>() / 2.0;
    m.add_constraint(
        "cap",
        LinExpr::weighted_sum(vars.iter().copied().zip(weights.iter().copied())).le(cap),
    );
    m.set_objective(
        ObjectiveSense::Maximize,
        LinExpr::weighted_sum(vars.iter().copied().zip(values.iter().copied())),
    );
    let s = m
        .solver()
        .options(
            SolveOptions::new()
                .with_time_limit(std::time::Duration::from_millis(5))
                .with_warm_start(vec![0.0; n]),
        )
        .run()
        .expect("anytime solve must return the warm start at worst");
    assert!(m.is_feasible(s.values(), 1e-6));
}

/// Degenerate instances must come back as typed outcomes — never a panic
/// or an endless loop — through the *full* solver path (presolve included
/// and excluded), not just the simplex.
#[test]
fn degenerate_empty_and_all_fixed_models() {
    for presolve in [false, true] {
        // Entirely empty model: no variables, no rows, no objective.
        let empty = Model::new();
        let s = empty
            .solver()
            .options(SolveOptions::new().with_presolve(presolve))
            .run()
            .unwrap();
        assert_eq!(s.values().len(), 0);
        assert_eq!(s.objective(), 0.0);

        // Every variable pinned by its bounds; rows all redundant.
        let mut m = Model::new();
        let x = m.add_integer("x", 3.0, 3.0);
        let y = m.add_continuous("y", -1.5, -1.5);
        m.add_constraint("r", (1.0 * x + 2.0 * y).le(10.0));
        m.set_objective(ObjectiveSense::Minimize, 1.0 * x + 1.0 * y);
        let s = m
            .solver()
            .options(SolveOptions::new().with_presolve(presolve))
            .run()
            .unwrap();
        assert_eq!(s.values(), &[3.0, -1.5]);
        assert!((s.objective() - 1.5).abs() < 1e-9);
        assert!(m.is_feasible(s.values(), 1e-9));
    }
}

/// A row whose minimum activity already exceeds the right-hand side is
/// infeasible before any simplex runs; both paths must say so.
#[test]
fn degenerate_row_infeasible_by_bounds_alone() {
    for presolve in [false, true] {
        let mut m = Model::new();
        let x = m.add_binary("x");
        let y = m.add_continuous("y", 0.0, 1.0);
        m.add_constraint("impossible", (2.0 * x + 1.0 * y).ge(5.0));
        m.set_objective(ObjectiveSense::Maximize, 1.0 * x);
        assert!(matches!(
            m.solver()
                .options(SolveOptions::new().with_presolve(presolve))
                .run(),
            Err(SolveError::Infeasible)
        ));
    }
}

/// Propagation squeezing an integer variable onto a non-integral point
/// (here `2y = 5` with `y` integer) must yield a typed infeasibility, not
/// a rounded "solution".
#[test]
fn degenerate_integer_fixed_to_fractional_value() {
    for presolve in [false, true] {
        let mut m = Model::new();
        let y = m.add_integer("y", 0.0, 10.0);
        m.add_constraint("pin", (2.0 * y).eq(5.0));
        m.set_objective(ObjectiveSense::Minimize, 1.0 * y);
        assert!(matches!(
            m.solver()
                .options(SolveOptions::new().with_presolve(presolve))
                .run(),
            Err(SolveError::Infeasible)
        ));
    }
}

#[test]
fn node_limit_respected() {
    let mut m = Model::new();
    let x = m.add_integer("x", 0.0, 100.0);
    let y = m.add_integer("y", 0.0, 100.0);
    m.add_constraint("c", (3.0 * x + 7.0 * y).le(100.0));
    m.set_objective(ObjectiveSense::Maximize, 2.0 * x + 5.0 * y);
    let s = m
        .solver()
        .options(
            SolveOptions::new()
                .with_node_limit(3)
                .with_warm_start(vec![0.0, 0.0]),
        )
        .run()
        .unwrap();
    assert!(s.stats().nodes <= 3 + 1); // root + limit slack
}
