//! # milp
//!
//! A self-contained mixed-integer linear programming (MILP) solver in safe
//! Rust: a bounded-variable revised simplex underneath a best-first
//! branch-and-bound with an incumbent warm start and a rounding heuristic.
//!
//! The crate exists because this workspace reproduces a paper whose
//! optimization problem was originally solved with IBM CPLEX; no external
//! solver is linked, so the whole reproduction is buildable offline. The
//! solver is *anytime*: give it a time limit and it returns the best feasible
//! solution found so far together with the proven bound — exactly how the
//! paper reports its `OBJ-DMAT` results after a CPLEX timeout.
//!
//! # One LP path
//!
//! Every node LP is a cold **primal** simplex solve
//! ([`simplex::SimplexSolver::solve`]) over the structural and slack
//! columns alone, from the all-slack basis: a composite phase 1 that
//! minimizes the bound violations of the basic variables, Devex pricing
//! with Bland anti-cycling, a Harris-style two-pass ratio test, one basis
//! representation (the sparse LU of [`SparseLu`]) and one refactorization
//! cadence. The only warm start is at the root: a sibling scenario's
//! optimal root basis ([`WarmBasis`], shared through a [`RootBasisSlot`])
//! is installed and solved from on the same path, phase 1 repairing it
//! where the new data makes it infeasible.
//!
//! # Examples
//!
//! ```
//! use milp::{Model, ObjectiveSense};
//!
//! // Maximize 3a + 4b + 5c subject to 2a + 3b + 4c ≤ 6 over binaries.
//! let mut m = Model::new();
//! let a = m.add_binary("a");
//! let b = m.add_binary("b");
//! let c = m.add_binary("c");
//! m.add_constraint("capacity", (2.0 * a + 3.0 * b + 4.0 * c).le(6.0));
//! m.set_objective(ObjectiveSense::Maximize, 3.0 * a + 4.0 * b + 5.0 * c);
//!
//! let solution = m.solver().run()?;
//! assert_eq!(solution.objective().round(), 8.0);
//! # Ok::<(), milp::SolveError>(())
//! ```
//!
//! Node LP relaxations can be evaluated by a worker pool
//! (`m.solver().options(SolveOptions::new().with_threads(4))`, or the
//! `LETDMA_THREADS` environment variable); results merge in node-id order, so the search trajectory is
//! byte-identical at any thread count.
//!
//! Models can also be exported in CPLEX LP format for cross-checking with
//! external solvers — see [`Model::to_lp_format`].

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod basis;
mod expr;
mod lp_format;
mod model;
pub mod presolve;
mod pricing;
pub mod simplex;
mod solver;

pub use basis::SparseLu;
pub use expr::{LinExpr, Var};
pub use model::{Comparison, Constraint, Model, ObjectiveSense, Sense, VarDef, VarType};
pub use presolve::{Lift, LiftEntry, PresolveInfeasible, PresolveStats, Presolved};
pub use simplex::WarmBasis;
pub use solver::{
    root_gap_bps, MilpSolution, RootBasisSlot, SolveError, SolveOptions, SolveStats, SolveStatus,
    Solver, INTEGRALITY_TOL,
};

#[cfg(test)]
mod tests {
    #[test]
    fn public_types_are_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<crate::Model>();
        assert_send_sync::<crate::MilpSolution>();
        assert_send_sync::<crate::SolveError>();
    }
}
