//! Resilience contract of the branch-and-bound engine under the seeded
//! fault plane ([`letdma_core::fault`]): every injected failure must end
//! in a valid solution or a typed [`SolveError`] — never a process abort,
//! never a wrong answer.
//!
//! The fault plane is process-global, so this suite lives in its own test
//! binary (cargo runs test binaries sequentially) and serializes its own
//! tests behind [`plane`]; every test disarms the plane on entry and exit
//! so an armed site can never leak into a neighbour.

use std::sync::{Arc, Mutex};

use letdma_core::fault::{self, FaultSite, FaultSpec};
use letdma_core::{Counter, NodeEvent, SolverStats};
use milp::{
    LinExpr, Model, ObjectiveSense, RootBasisSlot, SolveError, SolveOptions, SolveStatus, Var,
};

static PLANE: Mutex<()> = Mutex::new(());

/// Runs `f` with exclusive ownership of the (process-global) fault plane,
/// fully disarmed on entry and on exit.
fn plane<T>(f: impl FnOnce() -> T) -> T {
    let _guard = PLANE.lock().unwrap_or_else(|e| e.into_inner());
    fault::disarm_all();
    let out = f();
    fault::disarm_all();
    out
}

/// The knapsack pinned by the solver's own unit suite: items worth
/// (60, 100, 120) weighing (10, 20, 30) under capacity 50. The optimum
/// takes items 2 and 3 for 220; item 3 alone is feasible at 120.
fn knapsack() -> (Model, [Var; 3]) {
    let mut m = Model::new();
    let a = m.add_binary("a");
    let b = m.add_binary("b");
    let c = m.add_binary("c");
    m.add_constraint("cap", (10.0 * a + 20.0 * b + 30.0 * c).le(50.0));
    m.set_objective(ObjectiveSense::Maximize, 60.0 * a + 100.0 * b + 120.0 * c);
    (m, [a, b, c])
}

/// A 12-item, 6-constraint multidimensional knapsack whose rows are all
/// dense. Every pivot of its root LP appends a full column to the eta
/// file, which outgrows the LU's limit (`eta_nnz > 2·(nnz(LU) + m)`)
/// within five pivots, so the root refactorizes at the solver's default
/// settings, long before the 128-pivot cadence. The optimum is 38.
fn dense_knapsack() -> Model {
    let mut m = Model::new();
    let x: Vec<Var> = (0..12).map(|j| m.add_binary(format!("x{j}"))).collect();
    for i in 0..6 {
        let weight = x.iter().enumerate().fold(LinExpr::new(), |row, (j, &v)| {
            row + (((7 * i + 5 * j) % 11 + 3) as f64) * v
        });
        m.add_constraint(format!("cap{i}"), weight.le((18 + i) as f64));
    }
    let value = x.iter().enumerate().fold(LinExpr::new(), |obj, (j, &v)| {
        obj + (((13 * j) % 17 + 5) as f64) * v
    });
    m.set_objective(ObjectiveSense::Maximize, value);
    m
}

/// Runs `f` with panic messages suppressed (fault-injected worker panics
/// are expected here; their default-hook backtraces are pure noise).
fn quiet_panics<T>(f: impl FnOnce() -> T) -> T {
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let out = f();
    std::panic::set_hook(hook);
    out
}

/// A worker panic on every node LP, with no incumbent to fall back to,
/// must surface as the typed [`SolveError::WorkerPanic`] — the process
/// must not abort and the error must count the caught panics.
#[test]
fn worker_panic_without_incumbent_is_typed_error() {
    plane(|| {
        fault::arm(FaultSite::WorkerPanic, FaultSpec::always());
        let (m, _) = knapsack();
        let err = quiet_panics(|| m.solver().run().unwrap_err());
        match err {
            SolveError::WorkerPanic { caught } => {
                assert!(caught >= 1, "at least the root panic is counted")
            }
            other => panic!("expected WorkerPanic, got {other:?}"),
        }
    });
}

/// With a warm-started incumbent in hand, the same persistent panic must
/// degrade to returning that incumbent as a feasible (not optimal)
/// solution instead of erroring out.
#[test]
fn worker_panic_with_warm_start_returns_incumbent() {
    plane(|| {
        fault::arm(FaultSite::WorkerPanic, FaultSpec::always());
        let (m, _) = knapsack();
        let sol = quiet_panics(|| {
            m.solver()
                .options(SolveOptions::new().with_warm_start(vec![0.0, 0.0, 1.0]))
                .run()
                .expect("warm-started incumbent must survive worker panics")
        });
        assert_eq!(sol.status(), SolveStatus::Feasible);
        assert!((sol.objective() - 120.0).abs() < 1e-9);
    });
}

/// A panic while the root imports a published slot basis is caught by
/// the same guard as every node LP: the search stops with the warm
/// incumbent as `Feasible`, or the typed [`SolveError::WorkerPanic`]
/// without one, instead of unwinding out of [`milp::Solver::run`].
#[test]
fn worker_panic_during_root_import_is_caught() {
    plane(|| {
        let (m, _) = knapsack();
        let options = SolveOptions::new().with_presolve(false);
        let slot = Arc::new(RootBasisSlot::new());
        m.solver()
            .options(options.clone())
            .root_slot(Arc::clone(&slot))
            .run()
            .expect("the donor solves");
        assert!(slot.get().is_some(), "the donor published its root basis");
        for warm in [None, Some(vec![0.0, 0.0, 1.0])] {
            fault::disarm_all();
            fault::arm(FaultSite::WorkerPanic, FaultSpec::always().limit_fires(1));
            let mut opts = options.clone().with_node_limit(1);
            if let Some(w) = &warm {
                opts = opts.with_warm_start(w.clone());
            }
            let mut stats = SolverStats::new();
            let result = quiet_panics(|| {
                m.solver()
                    .options(opts)
                    .root_slot(Arc::clone(&slot))
                    .instrument(&mut stats)
                    .run()
            });
            assert_eq!(fault::fires(FaultSite::WorkerPanic), 1, "warm={warm:?}");
            assert_eq!(stats.counter(Counter::PanicsCaught), 1, "warm={warm:?}");
            match (warm, result) {
                (Some(_), Ok(sol)) => {
                    assert_eq!(sol.status(), SolveStatus::Feasible);
                    assert!((sol.objective() - 120.0).abs() < 1e-9);
                }
                (None, Err(SolveError::WorkerPanic { caught: 1 })) => {}
                (warm, other) => panic!("warm={warm:?}: unexpected {other:?}"),
            }
        }
    });
}

/// A single transient numerical breakdown is absorbed by the in-node
/// retry (forced refactorization + escalated pivot tolerance): the search
/// still proves the true optimum and the recovery is counted.
#[test]
fn transient_numerical_breakdown_recovers_in_node() {
    plane(|| {
        fault::arm(
            FaultSite::SimplexNumerical,
            FaultSpec::always().limit_fires(1),
        );
        let (m, _) = knapsack();
        let mut stats = SolverStats::new();
        let sol = m
            .solver()
            .instrument(&mut stats)
            .run()
            .expect("one transient breakdown must not kill the solve");
        assert_eq!(sol.status(), SolveStatus::Optimal);
        assert!((sol.objective() - 220.0).abs() < 1e-9);
        assert_eq!(stats.counter(Counter::ToleranceEscalations), 1);
        assert_eq!(stats.counter(Counter::NumericalRecoveries), 1);
    });
}

/// When the escalated retry *also* breaks down, the node must be treated
/// as unresolved — branched conservatively, never fathomed — so the
/// search still reaches the true optimum instead of wrongly declaring
/// the subtree (here: the whole root) infeasible.
#[test]
fn persistent_numerical_breakdown_branches_conservatively() {
    plane(|| {
        fault::arm(
            FaultSite::SimplexNumerical,
            FaultSpec::always().limit_fires(2),
        );
        let (m, _) = knapsack();
        let mut stats = SolverStats::new();
        let sol = m
            .solver()
            .instrument(&mut stats)
            .run()
            .expect("an unresolved root must branch, not abort");
        assert_eq!(sol.status(), SolveStatus::Optimal);
        assert!((sol.objective() - 220.0).abs() < 1e-9);
        assert_eq!(stats.node_events(NodeEvent::Unresolved), 1);
        assert_eq!(stats.counter(Counter::ToleranceEscalations), 1);
        assert_eq!(stats.counter(Counter::NumericalRecoveries), 0);
    });
}

/// A singular refactorization in a node LP degrades to the escalated
/// cold re-solve of that node; the optimum is untouched. The dense
/// knapsack's root LP is the first to refactorize, so the one fire lands
/// there.
#[test]
fn singular_refactorization_degrades_to_cold_solve() {
    plane(|| {
        fault::arm(
            FaultSite::SingularRefactor,
            FaultSpec::always().limit_fires(1),
        );
        let m = dense_knapsack();
        let mut stats = SolverStats::new();
        let sol = m
            .solver()
            .instrument(&mut stats)
            .run()
            .expect("a singular basis must fall back to a cold re-solve");
        assert_eq!(sol.status(), SolveStatus::Optimal);
        assert!((sol.objective() - 38.0).abs() < 1e-9);
        assert_eq!(fault::fires(FaultSite::SingularRefactor), 1);
        assert_eq!(stats.counter(Counter::ToleranceEscalations), 1);
        assert_eq!(stats.counter(Counter::NumericalRecoveries), 1);
    });
}

/// Injected deadline exhaustion behaves exactly like a real expired time
/// limit: a typed [`SolveError::LimitReached`] without an incumbent, the
/// warm-started incumbent with one. Covers both the cold-LP poll and the
/// budget poll in the search loop.
#[test]
fn injected_deadline_exhaustion_is_limit_reached() {
    plane(|| {
        fault::arm(FaultSite::DeadlineExhausted, FaultSpec::always());
        let (m, _) = knapsack();
        match m.solver().run() {
            Err(SolveError::LimitReached { .. }) => {}
            other => panic!("expected LimitReached, got {other:?}"),
        }
        let sol = m
            .solver()
            .options(SolveOptions::new().with_warm_start(vec![0.0, 0.0, 1.0]))
            .run()
            .expect("incumbent must survive deadline exhaustion");
        assert_eq!(sol.status(), SolveStatus::Feasible);
        assert!((sol.objective() - 120.0).abs() < 1e-9);
    });
}

/// Arming a site at probability zero must leave the solve byte-identical
/// to the fully disarmed run: same status, objective, values and node
/// count — the "transparent when disarmed (or never firing)" half of the
/// fault-plane contract.
#[test]
fn zero_probability_site_is_transparent() {
    plane(|| {
        let (m, _) = knapsack();
        let baseline = m.solver().run().expect("knapsack solves");
        fault::arm(
            FaultSite::SimplexNumerical,
            FaultSpec::with_probability(0xC0FFEE, 0.0),
        );
        fault::arm(FaultSite::WorkerPanic, FaultSpec::with_probability(7, 0.0));
        let armed = m.solver().run().expect("zero-probability arm is a no-op");
        assert_eq!(armed.status(), baseline.status());
        assert_eq!(armed.values(), baseline.values());
        assert!((armed.objective() - baseline.objective()).abs() == 0.0);
        assert_eq!(armed.stats().nodes, baseline.stats().nodes);
        assert!(
            fault::polls(FaultSite::SimplexNumerical) > 0,
            "site was polled"
        );
        assert_eq!(fault::fires(FaultSite::SimplexNumerical), 0);
    });
}
