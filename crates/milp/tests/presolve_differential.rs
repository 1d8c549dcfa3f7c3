//! Differential pinning of the presolve layer: on random mixed MILPs, the
//! solver with presolve enabled must agree with the presolve-disabled
//! solver on the feasibility verdict and (when both solve to optimality)
//! on the objective, and every lifted solution must satisfy the *original*
//! constraints — not just the reduced ones.
//!
//! The generator is biased toward structures the presolve rules act on:
//! singleton rows (fixings), near-redundant rows, binary big-M rows
//! (coefficient strengthening) and fractional integer bounds (inward
//! rounding). Cases come from the in-tree seeded harness
//! ([`letdma_core::Cases`]); a failing case prints the `LETDMA_CASE_SEED`
//! needed to replay it.
//!
//! The WATERS case-study instance gets the same treatment (plus a golden
//! model snapshot) in `crates/opt/tests/presolve_waters.rs`, where the
//! system builder is available without a dependency cycle.

use letdma_core::{Cases, Rng, Xoshiro256};
use milp::{LinExpr, Model, ObjectiveSense, SolveError, SolveOptions, Var};

/// A random mixed MILP with finite bounds everywhere (no unbounded rays)
/// and deliberate presolve bait, with its variables.
fn random_mip(rng: &mut Xoshiro256) -> (Model, Vec<Var>) {
    let n_bin = rng.usize_range(1, 5);
    let n_int = rng.usize_range(0, 3);
    let n_cont = rng.usize_range(0, 3);
    let mut m = Model::new();
    let mut vars = Vec::new();
    for i in 0..n_bin {
        vars.push(m.add_binary(format!("b{i}")));
    }
    for i in 0..n_int {
        // Fractional bounds exercise the integer inward rounding.
        let lo = rng.i64_inclusive(-3, 1) as f64 + if rng.bool() { 0.3 } else { 0.0 };
        let hi = lo + rng.usize_range(1, 7) as f64 + if rng.bool() { 0.6 } else { 0.0 };
        vars.push(m.add_integer(format!("y{i}"), lo, hi));
    }
    for i in 0..n_cont {
        let lo = rng.i64_inclusive(-4, 2) as f64;
        let hi = lo + rng.f64_range(0.5, 8.0);
        vars.push(m.add_continuous(format!("z{i}"), lo, hi));
    }
    let n_rows = rng.usize_range(1, 6);
    for r in 0..n_rows {
        let mut expr = LinExpr::new();
        for &v in &vars {
            if rng.usize_below(3) > 0 {
                expr.add_term(v, rng.i64_inclusive(-4, 4) as f64);
            }
        }
        if expr.is_empty() {
            expr.add_term(vars[0], 1.0);
        }
        let rhs = rng.i64_inclusive(-4, 8) as f64;
        let cmp = match rng.usize_below(4) {
            0 => expr.ge(rhs),
            1 => expr.eq(rhs),
            _ => expr.le(rhs), // Le-heavy: the strengthening rule's home turf
        };
        m.add_constraint(format!("c{r}"), cmp);
    }
    // Presolve bait: an occasional singleton row that fixes or pins a
    // variable, and an occasional wide big-M-style row over the binaries.
    if rng.bool() {
        let &v = rng.choose(&vars).expect("nonempty");
        let rhs = rng.i64_inclusive(0, 2) as f64;
        let cmp = if rng.bool() {
            LinExpr::from(v).eq(rhs)
        } else {
            LinExpr::from(v).le(rhs)
        };
        m.add_constraint("singleton", cmp);
    }
    if n_bin >= 2 {
        let big = rng.i64_inclusive(3, 9) as f64;
        let expr = LinExpr::weighted_sum(vars[..n_bin].iter().map(|&v| (v, big)));
        m.add_constraint("bigm", expr.le(big * (n_bin as f64) - 1.0));
    }
    let obj = LinExpr::weighted_sum(vars.iter().map(|&v| (v, rng.i64_inclusive(-5, 5) as f64)));
    let sense = if rng.bool() {
        ObjectiveSense::Maximize
    } else {
        ObjectiveSense::Minimize
    };
    m.set_objective(sense, obj);
    (m, vars)
}

/// Presolve on and off must agree on feasibility and optimal objective,
/// and the lifted solution must be feasible in the original model.
#[test]
fn presolve_on_off_agree_on_random_mips() {
    Cases::new("presolve_on_off_agree_on_random_mips", 64).run(|rng| {
        let (model, _) = random_mip(rng);
        let off = model
            .solver()
            .options(SolveOptions::new().with_presolve(false))
            .run();
        let on = model
            .solver()
            .options(SolveOptions::new().with_presolve(true))
            .run();
        match (off, on) {
            (Ok(a), Ok(b)) => {
                assert!(
                    (a.objective() - b.objective()).abs() < 1e-6,
                    "objective diverged: off {} vs on {}",
                    a.objective(),
                    b.objective()
                );
                assert!(
                    model.is_feasible(b.values(), 1e-6),
                    "lifted solution violates an original constraint: {:?}",
                    b.values()
                );
                assert!(model.is_feasible(a.values(), 1e-6));
            }
            (Err(SolveError::Infeasible), Err(SolveError::Infeasible)) => {}
            (a, b) => panic!("feasibility verdict diverged: off {a:?} vs on {b:?}"),
        }
    });
}

/// The explicit reduce-solve-lift path: `presolve()` plus
/// [`milp::Lift::lift_values`] must reproduce the presolve-off optimum.
#[test]
fn explicit_lift_reproduces_the_optimum() {
    Cases::new("explicit_lift_reproduces_the_optimum", 64).run(|rng| {
        let (model, _) = random_mip(rng);
        let reference = model
            .solver()
            .options(SolveOptions::new().with_presolve(false))
            .run();
        match milp::presolve::presolve(&model, 1e-6) {
            Err(proof) => {
                // A presolve infeasibility certificate must match reality.
                assert!(
                    matches!(reference, Err(SolveError::Infeasible)),
                    "presolve claimed infeasible ({proof}) but the solver found {reference:?}"
                );
            }
            Ok(red) => {
                let reduced_outcome = red
                    .model
                    .solver()
                    .options(SolveOptions::new().with_presolve(false))
                    .run();
                match (&reference, reduced_outcome) {
                    (Ok(a), Ok(b)) => {
                        let lifted = red.lift.lift_values(b.values());
                        assert!(
                            model.is_feasible(&lifted, 1e-6),
                            "lifted optimum violates an original constraint"
                        );
                        let lifted_obj = model.objective().evaluate(&lifted);
                        assert!(
                            (a.objective() - lifted_obj).abs() < 1e-6,
                            "lifted objective {} != reference {}",
                            lifted_obj,
                            a.objective()
                        );
                    }
                    (Err(SolveError::Infeasible), Err(SolveError::Infeasible)) => {}
                    (a, b) => panic!("reduced model verdict diverged: {a:?} vs {b:?}"),
                }
            }
        }
    });
}

/// Presolve runs on the coordinator before any worker spawns, so the
/// deterministic-parallelism contract survives it untouched: values,
/// objective bits and all counters are identical at 1 and 4 threads.
#[test]
fn presolved_trajectories_are_thread_count_invariant() {
    Cases::new("presolved_trajectories_are_thread_count_invariant", 24).run(|rng| {
        let (model, _) = random_mip(rng);
        let capture = |threads: usize| {
            let mut stats = letdma_core::SolverStats::new();
            let outcome = model
                .solver()
                .options(
                    SolveOptions::new()
                        .with_presolve(true)
                        .with_threads(threads),
                )
                .instrument(&mut stats)
                .run();
            let digest = match outcome {
                Ok(s) => Ok((
                    s.values().iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    s.objective().to_bits(),
                    s.stats().nodes,
                )),
                Err(e) => Err(format!("{e}")),
            };
            (digest, stats.counters())
        };
        let seq = capture(1);
        let par = capture(4);
        assert_eq!(seq, par, "presolve-on trajectory diverged at 4 threads");
    });
}

/// A feasible point of the original model, projected with
/// [`milp::Lift::project_values`], is feasible on the presolved model:
/// bound tightening keeps every feasible point, and coefficient
/// strengthening and the aggregation cuts are valid for integral ones. The
/// search relies on this when it starts the root LP from the projected
/// warm start. The points are the optima of the model's own objective and
/// of three random ones, plus the feasible draws among 200 random points
/// of the box that are integral where the model says so.
#[test]
fn projected_feasible_points_stay_feasible() {
    Cases::new("projected_feasible_points_stay_feasible", 64).run(|rng| {
        let (model, vars) = random_mip(rng);
        let Ok(red) = milp::presolve::presolve(&model, 1e-6) else {
            return;
        };
        let mut points = Vec::new();
        for k in 0..4 {
            let mut directed = model.clone();
            if k > 0 {
                let obj =
                    LinExpr::weighted_sum(vars.iter().map(|&v| (v, rng.f64_range(-1.0, 1.0))));
                directed.set_objective(ObjectiveSense::Minimize, obj);
            }
            if let Ok(sol) = directed
                .solver()
                .options(SolveOptions::new().with_presolve(false))
                .run()
            {
                points.push(sol.values().to_vec());
            }
        }
        for _ in 0..200 {
            let point: Vec<f64> = vars
                .iter()
                .map(|&v| {
                    let def = model.var_def(v);
                    if def.is_integral() {
                        let (lo, hi) = (def.lower().ceil() as i64, def.upper().floor() as i64);
                        rng.i64_inclusive(lo, hi) as f64
                    } else {
                        rng.f64_range(def.lower(), def.upper())
                    }
                })
                .collect();
            if model.is_feasible(&point, 1e-9) {
                points.push(point);
            }
        }
        for point in &points {
            let projected = red
                .lift
                .project_values(point, 1e-6)
                .unwrap_or_else(|| panic!("{point:?} contradicts a presolve fixing"));
            assert!(
                red.model.is_feasible(&projected, 1e-6),
                "{point:?} is feasible on the original model but not on the presolved one"
            );
        }
    });
}
