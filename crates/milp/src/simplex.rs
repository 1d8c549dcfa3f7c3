//! Bounded-variable primal revised simplex on a factorized basis
//! representation.
//!
//! The LP is brought into the computational form
//!
//! ```text
//!     minimize    c'x
//!     subject to  A x = b          (one slack column per row)
//!                 l ≤ x ≤ u        (bounds may be infinite)
//! ```
//!
//! Every solve starts from a basis partition and runs one path: install
//! the basis, repair its point with phase 1 if any basic variable lies
//! outside its bounds, then optimize with phase 2. A cold solve starts
//! from the all-slack basis `B = I` (every structural on its bound nearest
//! zero, each slack basic at its row residual); a root import starts from
//! a donor's basis; a root start from a feasible incumbent starts from the
//! optimal basis of the LP with the incumbent's on-bound integers fixed.
//! Phase 1 is *composite* (Maros, *Computational
//! Techniques of the Simplex Method*, 2003): it minimizes the sum of the
//! bound violations of the basic variables, with cost −1/+1 on the basics
//! below/above their bounds and 0 elsewhere, in the same pivoting loop as
//! phase 2. An infeasible basic blocks the ratio test only at its violated
//! bound, and only when moving toward it; when one leaves, only its own
//! reduced cost changes, and when any other basic changes feasibility
//! class in a step, the phase-1 costs and the reduced costs are
//! recomputed. The only columns are the structurals and the slacks.
//!
//! Entering columns are chosen by Devex pricing (see `pricing.rs`), with
//! an automatic switch to Bland's rule when the objective stalls
//! (anti-cycling). Both read one maintained reduced-cost vector `d`. After
//! each basis change the solver forms the pivot row `ρᵀA`
//! (`ρ = e_r' B⁻¹`) through a row-wise copy of `A`, built once per solver
//! at its first pivot, over the rows where `ρ_i ≠ 0` only; one pass over
//! its nonzeros updates both the Devex reference weights and
//! `d_j ← d_j − (d_q/α_q)·α_j`. `d` is recomputed from scratch (one BTRAN
//! of the basic costs and a dot product per nonbasic column) at the start
//! of each phase, after every refactorization, and before the solver
//! declares a basis optimal, so an optimality claim always rests on fresh
//! duals. The basis is the sparse LU of
//! [`SparseLu`] (Markowitz pivot selection, product-form eta updates, a
//! refactorization every [`SparseLu::REFACTOR_INTERVAL`] updates or on
//! eta-file growth).
//!
//! # Root starts
//!
//! [`SimplexSolver::snapshot`] captures an optimal basis partition as a
//! [`WarmBasis`]; [`SimplexSolver::solve_from_basis`] installs it on another
//! model of the same shape and solves from there: phase 2 directly when
//! the implied point is primal feasible on the new data, phase 1 first
//! when it is not — the cross-scenario root reuse of DESIGN.md
//! §"Warm-start architecture". [`SimplexSolver::solve_from_point`] starts
//! from a feasible point instead (the heuristic incumbent, the root's
//! next start when no donor basis settles it): it solves the LP with the
//! point's on-bound integral columns fixed, restores their bounds, and
//! runs phase 2 from that basis, which is primal feasible. Every other
//! solve starts cold.
//!
//! # Work
//!
//! A solver counts its work in one [`LpWork`] record, returned by
//! [`SimplexSolver::work`]. An iteration is a pricing pass that moves the
//! point by a pivot or a bound flip; the pass that finds no improving
//! column ends the phase and is not one.

// Index-based loops mirror the mathematical notation (rows i, columns j,
// groups g); iterator rewrites would obscure the correspondence.
#![allow(clippy::needless_range_loop)]
use std::ops::AddAssign;
use std::time::{Duration, Instant};

use letdma_core::fault::{self, FaultSite};

use crate::basis::SparseLu;
use crate::model::{Model, ObjectiveSense, Sense, VarDef};
use crate::pricing::Devex;

/// Feasibility/optimality tolerance used throughout the solver.
pub const EPS: f64 = 1e-7;

/// Outcome of one LP solve.
#[derive(Debug, Clone, PartialEq)]
pub enum LpOutcome {
    /// Optimal solution found; values of the *structural* variables and the
    /// optimal objective (in minimization form of the original sense).
    Optimal {
        /// Per-variable values for the model's structural variables.
        values: Vec<f64>,
        /// Objective value in the model's own sense.
        objective: f64,
    },
    /// The constraints admit no solution.
    Infeasible,
    /// The objective is unbounded in the optimization direction.
    Unbounded,
    /// The iteration limit was exceeded (numerical emergency brake).
    IterationLimit,
    /// The wall-clock deadline expired mid-solve.
    TimedOut,
    /// Numerical trouble stopped the solve: a from-scratch basis
    /// refactorization failed (singular basis matrix), so the maintained
    /// inverse can no longer be trusted. Treated by callers like
    /// [`IterationLimit`](Self::IterationLimit) — an emergency brake.
    Numerical,
}

/// Status of a column in the current basis partition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ColStatus {
    Basic(usize),
    AtLower,
    AtUpper,
    /// Free nonbasic column resting at value zero.
    FreeZero,
}

/// Sparse column: (row, coefficient) pairs.
pub(crate) type Column = Vec<(usize, f64)>;

/// The computational-form LP plus simplex state.
pub struct SimplexSolver {
    /// Number of rows.
    m: usize,
    /// Total number of columns (structural + one slack per row).
    n: usize,
    /// Number of structural columns (the model's own variables).
    n_struct: usize,
    /// Which structural columns the model declares integral. The LP
    /// ignores integrality; only [`solve_from_point`](Self::solve_from_point)
    /// reads it.
    integral: Vec<bool>,
    /// Column-major sparse matrix.
    cols: Vec<Column>,
    /// Row-major copy of `cols` (CSR): row `i` holds the `(column,
    /// coefficient)` pairs `row_entries[row_start[i]..row_start[i + 1]]`.
    /// The Devex pivot row `ρᵀA` is accumulated through it. Built at the
    /// first pivot (`row_start` is empty until then): a solve that never
    /// changes the basis, such as an import of an already optimal basis,
    /// does not pay for it.
    row_start: Vec<usize>,
    row_entries: Vec<(usize, f64)>,
    /// Row right-hand sides.
    b: Vec<f64>,
    /// Phase-2 cost vector (minimization form), len `n`.
    cost: Vec<f64>,
    /// Lower/upper bounds, len `n`.
    lower: Vec<f64>,
    upper: Vec<f64>,
    /// Column status, len `n`.
    status: Vec<ColStatus>,
    /// Basis: column index per row.
    basis: Vec<usize>,
    /// Sparse LU factorization of the basis matrix.
    basis_inv: SparseLu,
    /// Devex reference weights of the entering-variable choice.
    pricing: Devex,
    /// Reduced costs `d_j = c_j − yᵀa_j` of the running phase, len `n`;
    /// zero on basic columns. Updated from the pivot row after each basis
    /// change, recomputed from scratch by
    /// [`refresh_reduced_costs`](Self::refresh_reduced_costs).
    d: Vec<f64>,
    /// `d` was recomputed from scratch and no basis change has updated it
    /// since (bound flips leave `d` as it is).
    d_fresh: bool,
    /// Per-iteration work vectors, sized once and reused.
    scratch: Scratch,
    /// Current values of all columns.
    x: Vec<f64>,
    /// Multiplier for converting the model objective to minimization.
    obj_scale: f64,
    /// Constant offset of the objective.
    obj_offset: f64,
    /// Hard iteration cap.
    pub iteration_limit: u64,
    /// Optional wall-clock deadline, checked periodically.
    pub deadline: Option<Instant>,
    /// Refactorize after this many product-form updates (numerical-drift
    /// control for long solves; `u64::MAX` disables).
    pub refactor_interval: u64,
    /// Smallest pivot magnitude the ratio test will accept as the
    /// leaving pivot. The default `1e-9` matches the historical
    /// hard-coded threshold; the branch-and-bound numerical recovery
    /// escalates it (together with a tighter
    /// [`refactor_interval`](Self::refactor_interval)) when retrying a
    /// node whose first solve broke down, trading a slightly weaker
    /// ratio test for pivots that cannot blow up the maintained inverse.
    pub min_pivot: f64,
    /// The work counted here since construction; `basis_inv` counts the
    /// rest (see [`work`](Self::work)).
    work: LpWork,
}

impl std::fmt::Debug for SimplexSolver {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimplexSolver")
            .field("rows", &self.m)
            .field("cols", &self.n)
            .field("structural", &self.n_struct)
            .field("iterations", &self.work.iterations)
            .field("basis", &self.basis_inv)
            .finish()
    }
}

impl SimplexSolver {
    /// Builds the computational form from a model, using the model's
    /// variable bounds (a branch-and-bound node then narrows them to its
    /// own domain).
    #[must_use]
    pub fn from_model(model: &Model) -> Self {
        let m = model.num_constraints();
        let n_struct = model.num_vars();
        let n = n_struct + m;

        let mut cols: Vec<Column> = vec![Vec::new(); n];
        let mut b = vec![0.0; m];
        let mut lower = vec![0.0; n];
        let mut upper = vec![0.0; n];

        for (j, def) in model.vars.iter().enumerate() {
            lower[j] = def.lower;
            upper[j] = def.upper;
        }
        // Row equilibration: scaling a row by 1/max|coeff| leaves variable
        // values untouched but stops big-M rows (coefficients spanning many
        // orders of magnitude) from dominating the numerics.
        let row_scale: Vec<f64> = model
            .constraints
            .iter()
            .map(|cons| {
                let max = cons
                    .expr
                    .iter()
                    .map(|(_, c)| c.abs())
                    .fold(0.0f64, f64::max);
                if max > 0.0 {
                    1.0 / max
                } else {
                    1.0
                }
            })
            .collect();
        for (i, cons) in model.constraints.iter().enumerate() {
            for (v, coef) in cons.expr.iter() {
                cols[v.index()].push((i, coef * row_scale[i]));
            }
            b[i] = cons.rhs * row_scale[i];
            // Slack column.
            let s = n_struct + i;
            cols[s].push((i, 1.0));
            match cons.sense {
                Sense::Le => {
                    lower[s] = 0.0;
                    upper[s] = f64::INFINITY;
                }
                Sense::Ge => {
                    lower[s] = f64::NEG_INFINITY;
                    upper[s] = 0.0;
                }
                Sense::Eq => {
                    lower[s] = 0.0;
                    upper[s] = 0.0;
                }
            }
        }

        let obj_scale = match model.sense {
            ObjectiveSense::Minimize => 1.0,
            ObjectiveSense::Maximize => -1.0,
        };
        let mut cost = vec![0.0; n];
        for (v, coef) in model.objective.iter() {
            cost[v.index()] = obj_scale * coef;
        }
        let obj_offset = model.objective.constant();

        Self {
            m,
            n,
            n_struct,
            integral: model.vars.iter().map(VarDef::is_integral).collect(),
            cols,
            row_start: Vec::new(),
            row_entries: Vec::new(),
            b,
            cost,
            lower,
            upper,
            status: vec![ColStatus::AtLower; n],
            basis: Vec::new(),
            basis_inv: SparseLu::new(),
            pricing: Devex::default(),
            d: vec![0.0; n],
            d_fresh: false,
            scratch: Scratch::new(m, n),
            x: vec![0.0; n],
            obj_scale,
            obj_offset,
            iteration_limit: 200_000,
            deadline: None,
            refactor_interval: SparseLu::REFACTOR_INTERVAL,
            min_pivot: 1e-9,
            work: LpWork::default(),
        }
    }

    /// Intersects the bounds of structural column `j` with `[lower,
    /// upper]` (one branching override of a node); `false` when the
    /// intersection is empty.
    pub(crate) fn tighten_bounds(&mut self, j: usize, lower: f64, upper: f64) -> bool {
        self.lower[j] = self.lower[j].max(lower);
        self.upper[j] = self.upper[j].min(upper);
        self.lower[j] <= self.upper[j]
    }

    /// Everything this solver has done since it was built, its own counts
    /// and timers together with those of its basis factorization.
    #[must_use]
    pub fn work(&self) -> LpWork {
        let mut work = self.work;
        work += *self.basis_inv.work();
        work
    }

    /// Solves the LP relaxation from the all-slack basis `B = I`: every
    /// structural rests on its bound nearest zero and each slack is basic
    /// at its row residual; phase 1 then repairs the point if it is
    /// infeasible, and phase 2 optimizes.
    #[must_use]
    pub fn solve(&mut self) -> LpOutcome {
        self.work.lp_solves += 1;
        if self.m == 0 {
            return self.solve_unconstrained();
        }
        for j in 0..self.n_struct {
            let (l, u) = (self.lower[j], self.upper[j]);
            self.status[j] = if l.is_finite() && (l.abs() <= u.abs() || !u.is_finite()) {
                ColStatus::AtLower
            } else if u.is_finite() {
                ColStatus::AtUpper
            } else {
                ColStatus::FreeZero
            };
        }
        self.basis = (self.n_struct..self.n).collect();
        for (i, &s) in self.basis.iter().enumerate() {
            self.status[s] = ColStatus::Basic(i);
        }
        self.basis_inv.reset(self.m);
        // Bounds nearest zero are finite and `B = I` is exact, so the
        // install cannot fail.
        self.settle().unwrap_or(LpOutcome::Numerical)
    }

    /// Solves from the installed basis partition (`basis`, `status`, and
    /// `basis_inv` factorizing it): puts every nonbasic column on its
    /// bound, computes `x_B = B⁻¹ (b − N x_N)`, runs phase 1 if any basic
    /// lies outside its bounds, then phase 2. Adds its iterations to those
    /// of the solve so far. `None` means a nonbasic rests on an infinite
    /// bound or `x_B` is not finite.
    fn settle(&mut self) -> Option<LpOutcome> {
        let mut resid = self.b.clone();
        for j in 0..self.n {
            let v = match self.status[j] {
                ColStatus::Basic(_) => continue,
                ColStatus::AtLower => self.lower[j],
                ColStatus::AtUpper => self.upper[j],
                ColStatus::FreeZero => 0.0,
            };
            if !v.is_finite() {
                return None;
            }
            self.x[j] = v;
            if v != 0.0 {
                for &(i, a) in &self.cols[j] {
                    resid[i] -= a * v;
                }
            }
        }
        let resid: Vec<(usize, f64)> = resid
            .iter()
            .enumerate()
            .filter(|&(_, &v)| v != 0.0)
            .map(|(i, &v)| (i, v))
            .collect();
        let mut xb = vec![0.0; self.m];
        let t0 = Instant::now();
        self.basis_inv.ftran(&resid, &mut xb);
        self.work.solve_time += t0.elapsed();
        self.work.ftran_calls += 1;
        for (i, &bj) in self.basis.iter().enumerate() {
            if !xb[i].is_finite() {
                return None;
            }
            self.x[bj] = xb[i];
        }

        let before = self.work.iterations;
        let phase1 = self.optimize(true);
        self.work.phase1_iterations += self.work.iterations - before;
        match phase1 {
            PivotResult::Optimal if self.infeasibility() > 1e-6 => {
                return Some(LpOutcome::Infeasible)
            }
            PivotResult::Optimal => {}
            // The sum of violations is bounded below by zero: an unbounded
            // phase-1 ray is a numerical artefact.
            PivotResult::Unbounded | PivotResult::Numerical => return Some(LpOutcome::Numerical),
            PivotResult::IterationLimit => return Some(LpOutcome::IterationLimit),
            PivotResult::TimedOut => return Some(LpOutcome::TimedOut),
        }
        Some(match self.optimize(false) {
            PivotResult::Optimal => LpOutcome::Optimal {
                values: self.x[..self.n_struct].to_vec(),
                objective: self.current_objective(),
            },
            PivotResult::Unbounded => LpOutcome::Unbounded,
            PivotResult::IterationLimit => LpOutcome::IterationLimit,
            PivotResult::TimedOut => LpOutcome::TimedOut,
            PivotResult::Numerical => LpOutcome::Numerical,
        })
    }

    /// Degenerate case: no constraints — every variable sits at its
    /// cost-optimal bound.
    fn solve_unconstrained(&mut self) -> LpOutcome {
        for j in 0..self.n_struct {
            let c = self.cost[j];
            let v = if c > 0.0 {
                self.lower[j]
            } else if c < 0.0 {
                self.upper[j]
            } else if self.lower[j].is_finite() {
                self.lower[j]
            } else if self.upper[j].is_finite() {
                self.upper[j]
            } else {
                0.0
            };
            if !v.is_finite() {
                return LpOutcome::Unbounded;
            }
            self.x[j] = v;
        }
        LpOutcome::Optimal {
            values: self.x[..self.n_struct].to_vec(),
            objective: self.current_objective(),
        }
    }

    /// The model-sense objective value of the current point.
    fn current_objective(&self) -> f64 {
        let min_obj: f64 = (0..self.n_struct).map(|j| self.cost[j] * self.x[j]).sum();
        self.obj_scale * min_obj + self.obj_offset
    }

    /// Phase-1 class of column `j`'s value: −1 below its lower bound, +1
    /// above its upper bound, 0 within them (to `EPS·(1 + |bound|)`). The
    /// phase-1 cost of a basic column is its class.
    fn infeasibility_sign(&self, j: usize) -> f64 {
        let (x, l, u) = (self.x[j], self.lower[j], self.upper[j]);
        if x < l - EPS * (1.0 + l.abs()) {
            -1.0
        } else if x > u + EPS * (1.0 + u.abs()) {
            1.0
        } else {
            0.0
        }
    }

    /// Sum of the bound violations of the basics outside their bounds.
    fn infeasibility(&self) -> f64 {
        self.basis
            .iter()
            .map(|&j| match self.infeasibility_sign(j) {
                s if s < 0.0 => self.lower[j] - self.x[j],
                s if s > 0.0 => self.x[j] - self.upper[j],
                _ => 0.0,
            })
            .sum()
    }

    /// Writes the phase-1 cost of the current point into `cost` (the class
    /// of each basic, 0 on nonbasics) and reports whether any basic is
    /// infeasible.
    fn phase1_cost(&self, cost: &mut [f64]) -> bool {
        cost.fill(0.0);
        let mut infeasible = false;
        for &j in &self.basis {
            cost[j] = self.infeasibility_sign(j);
            infeasible |= cost[j] != 0.0;
        }
        infeasible
    }

    /// Runs primal pivoting until no column improves the phase's cost: the
    /// composite phase-1 cost when `phase1` (which also stops as soon as no
    /// basic is infeasible), the model's cost otherwise.
    fn optimize(&mut self, phase1: bool) -> PivotResult {
        let mut cost = if phase1 {
            vec![0.0; self.n]
        } else {
            self.cost.clone()
        };
        if phase1 && !self.phase1_cost(&mut cost) {
            return PivotResult::Optimal;
        }
        let mut stall = 0u32;
        // Each phase starts a fresh Devex reference framework and prices
        // its own cost from scratch.
        self.pricing.reset(self.n);
        self.refresh_reduced_costs(&cost);
        loop {
            if phase1 && self.basis.iter().all(|&j| cost[j] == 0.0) {
                return PivotResult::Optimal;
            }
            if self.work.iterations >= self.iteration_limit {
                return PivotResult::IterationLimit;
            }
            if fault::should_fire(FaultSite::SimplexNumerical) {
                return PivotResult::Numerical;
            }
            if self.work.iterations % 128 == 0 {
                if fault::should_fire(FaultSite::DeadlineExhausted) {
                    return PivotResult::TimedOut;
                }
                if let Some(deadline) = self.deadline {
                    if Instant::now() >= deadline {
                        return PivotResult::TimedOut;
                    }
                }
            }
            let use_bland = stall > 64;
            let mut entering = self.choose_entering(use_bland);
            if entering.is_none() && !self.d_fresh {
                // Updated reduced costs never prove optimality: recompute
                // them, and keep pivoting if a column still improves.
                self.refresh_reduced_costs(&cost);
                entering = self.choose_entering(use_bland);
            }
            let Some((q, dir)) = entering else {
                return PivotResult::Optimal;
            };
            // An iteration is a pass that moves: the pass that finds no
            // improving column ends the phase and counts nothing.
            self.work.iterations += 1;

            // FTRAN: w = B⁻¹ A_q.
            let t0 = Instant::now();
            self.basis_inv.ftran(&self.cols[q], &mut self.scratch.w);
            self.work.solve_time += t0.elapsed();
            self.work.ftran_calls += 1;
            let w = &self.scratch.w;

            // Two-pass (Harris-style) ratio test. Entering moves by t ≥ 0
            // in direction `dir`; basic i changes by −dir·t·w_i. Pass 1
            // finds the step limit with a slightly relaxed feasibility
            // tolerance; pass 2 picks, among blockers within that limit,
            // the one with the **largest pivot magnitude** — tiny pivots
            // blow up the maintained inverse and must be avoided.
            const FEAS_RELAX: f64 = 1e-9;
            let flip_range = self.upper[q] - self.lower[q]; // may be +inf
            let mut t_limit = flip_range;
            for (i, &wi) in w.iter().enumerate() {
                let delta = -dir * wi;
                let bj = self.basis[i];
                if let Some((limit, _)) = self.blocking_bound(bj, delta, phase1) {
                    let t = ((limit - self.x[bj]) / delta + FEAS_RELAX / delta.abs()).max(0.0);
                    t_limit = t_limit.min(t);
                }
            }
            if !t_limit.is_finite() {
                return PivotResult::Unbounded;
            }
            // Pass 2: strongest pivot within the limit (under Bland's rule:
            // smallest basis column index, for the anti-cycling guarantee).
            let mut chosen: Option<(usize, bool, f64, f64)> = None; // (row, hits_upper, t, |pivot|)
            for (i, &wi) in w.iter().enumerate() {
                let delta = -dir * wi;
                let bj = self.basis[i];
                let Some((limit, hits_upper)) = self.blocking_bound(bj, delta, phase1) else {
                    continue;
                };
                let t = ((limit - self.x[bj]) / delta).max(0.0);
                if t <= t_limit + 1e-12 {
                    let take = match &chosen {
                        None => true,
                        Some((r, _, _, best_mag)) => {
                            if use_bland {
                                bj < self.basis[*r]
                            } else {
                                delta.abs() > *best_mag
                            }
                        }
                    };
                    if take {
                        chosen = Some((i, hits_upper, t, delta.abs()));
                    }
                }
            }
            let (t_best, leaving) = match chosen {
                Some((r, hits_upper, t, _)) => (t, Some((r, hits_upper))),
                None => (flip_range, None),
            };
            if !t_best.is_finite() {
                return PivotResult::Unbounded;
            }

            // Apply the step.
            let t = t_best;
            for (i, &wi) in w.iter().enumerate() {
                let bj = self.basis[i];
                self.x[bj] += -dir * wi * t;
            }
            self.x[q] += dir * t;

            let mut reprice = false;
            match leaving {
                None => {
                    // Bound flip: entering jumped to its opposite bound.
                    self.work.bound_flips += 1;
                    self.status[q] = match self.status[q] {
                        ColStatus::AtLower => ColStatus::AtUpper,
                        ColStatus::AtUpper => ColStatus::AtLower,
                        other => other,
                    };
                }
                Some((r, hits_upper)) => {
                    let leaving_col = self.basis[r];
                    // Snap the leaving variable exactly onto its bound.
                    self.x[leaving_col] = if hits_upper {
                        self.upper[leaving_col]
                    } else {
                        self.lower[leaving_col]
                    };
                    self.status[leaving_col] = if hits_upper {
                        ColStatus::AtUpper
                    } else {
                        ColStatus::AtLower
                    };
                    self.status[q] = ColStatus::Basic(r);
                    self.basis[r] = q;
                    // The updates need the *pre-pivot* row e_r' B⁻¹, so
                    // form it before the basis representation absorbs the
                    // pivot.
                    self.update_pricing(r, q, leaving_col);
                    if phase1 {
                        // The leaving column now rests on a bound, so its
                        // phase-1 cost drops to 0; `y` depends on basic
                        // costs only, so no other reduced cost moves.
                        self.d[leaving_col] -= cost[leaving_col];
                        cost[leaving_col] = 0.0;
                    }
                    let t0 = Instant::now();
                    self.basis_inv.pivot(r, &self.scratch.w);
                    self.work.solve_time += t0.elapsed();
                    if self.basis_inv.wants_refactor(self.refactor_interval) {
                        if !self.refactorize() {
                            return PivotResult::Numerical;
                        }
                        // A fresh factorization bounds the drift of the
                        // updated reduced costs.
                        reprice = true;
                    }
                }
            }
            // Another basic that changed feasibility class in this step (a
            // tie, Harris slack) changes the basic phase-1 costs, so `y`.
            if phase1
                && self
                    .basis
                    .iter()
                    .any(|&j| self.infeasibility_sign(j) != cost[j])
            {
                self.phase1_cost(&mut cost);
                reprice = true;
            }
            if reprice {
                self.refresh_reduced_costs(&cost);
            }

            // Stall detection for Bland switching: a step of positive
            // length strictly improves the objective.
            if t > 1e-10 {
                stall = 0;
            } else {
                stall += 1;
            }
        }
    }

    /// The bound at which basic column `j` blocks a step that changes it
    /// by `delta` per unit, as `(bound, is_upper)`; `None` for a change
    /// below the pivot threshold or an infinite bound. In phase 1 an
    /// infeasible basic blocks only at its violated bound, and only when
    /// moving toward it; phase 2 treats every basic as feasible.
    fn blocking_bound(&self, j: usize, delta: f64, phase1: bool) -> Option<(f64, bool)> {
        if delta.abs() <= self.min_pivot {
            return None;
        }
        let sigma = if phase1 {
            self.infeasibility_sign(j)
        } else {
            0.0
        };
        let upper = if sigma == 0.0 {
            delta > 0.0
        } else if sigma * delta < 0.0 {
            sigma > 0.0
        } else {
            return None;
        };
        let limit = if upper { self.upper[j] } else { self.lower[j] };
        limit.is_finite().then_some((limit, upper))
    }

    /// Chooses the entering column from the maintained reduced costs:
    /// `(column, direction)`, or `None` when no column improves. Devex owns
    /// the choice among the candidates; Bland's rule (first improving
    /// column) bypasses it, since the anti-cycling guarantee needs the
    /// index order.
    fn choose_entering(&mut self, use_bland: bool) -> Option<(usize, f64)> {
        let t0 = Instant::now();
        let eval = |j: usize| -> Option<(f64, f64)> {
            let dir_needed = match self.status[j] {
                ColStatus::Basic(_) => return None,
                ColStatus::AtLower => 1.0,
                ColStatus::AtUpper => -1.0,
                ColStatus::FreeZero => 0.0,
            };
            // Fixed columns (lower == upper) can never move: skipping them
            // is essential — otherwise they enter with zero-length bound
            // flips and the iteration spins.
            if self.upper[j] - self.lower[j] <= 0.0 {
                return None;
            }
            let d = self.d[j];
            let (improves, dir) = if dir_needed == 0.0 {
                // Free variable moves against the sign of d.
                (d.abs() > EPS, if d > 0.0 { -1.0 } else { 1.0 })
            } else if dir_needed > 0.0 {
                (d < -EPS, 1.0)
            } else {
                (d > EPS, -1.0)
            };
            improves.then_some((d, dir))
        };
        let choice = if use_bland {
            (0..self.n).find_map(|j| eval(j).map(|(_, dir)| (j, dir)))
        } else {
            self.pricing.select(eval)
        };
        self.work.pricing_time += t0.elapsed();
        choice
    }

    /// Recomputes the reduced costs of `cost` from scratch: the duals
    /// `y = c_B' B⁻¹` by one BTRAN (sparse by basis position in ascending
    /// order), then `d_j = c_j − yᵀa_j` on every nonbasic column.
    fn refresh_reduced_costs(&mut self, cost: &[f64]) {
        let cb: Vec<(usize, f64)> = self
            .basis
            .iter()
            .enumerate()
            .filter(|&(_, &bj)| cost[bj] != 0.0)
            .map(|(i, &bj)| (i, cost[bj]))
            .collect();
        let t0 = Instant::now();
        self.basis_inv.btran(&cb, &mut self.scratch.y);
        self.work.solve_time += t0.elapsed();
        self.work.btran_calls += 1;
        let t0 = Instant::now();
        let y = &self.scratch.y;
        let mut priced = 0;
        for (j, dj) in self.d.iter_mut().enumerate() {
            *dj = if matches!(self.status[j], ColStatus::Basic(_)) {
                0.0
            } else {
                priced += 1;
                let mut d = cost[j];
                for &(i, a) in &self.cols[j] {
                    d -= y[i] * a;
                }
                d
            };
        }
        self.work.pricing_candidates += priced;
        self.d_fresh = true;
        self.work.pricing_time += t0.elapsed();
    }

    /// Updates the reduced costs and the Devex weights after the pivot
    /// that brings `entering` into basis row `r` in place of `leaving`
    /// (statuses already flipped, `basis_inv` not yet updated, `scratch.w`
    /// holding `B⁻¹ a_entering`). One pass over the nonzeros of the pivot
    /// row `α = ρᵀA`, `ρ = e_r' B⁻¹`, applies `d_j ← d_j − (d_q/α_q)·α_j`
    /// and the Devex weight update on every column nonbasic in the new
    /// basis; the leaving column, basic before with `d = 0`, comes out at
    /// `−d_q·α_l/α_q`.
    fn update_pricing(&mut self, r: usize, entering: usize, leaving: usize) {
        let t0 = Instant::now();
        self.basis_inv.btran(&[(r, 1.0)], &mut self.scratch.rho);
        self.work.solve_time += t0.elapsed();
        self.work.btran_calls += 1;
        let t0 = Instant::now();
        self.pivot_row();
        let pivot = self.scratch.w[r];
        let theta = self.d[entering] / pivot;
        let (status, d, alpha) = (&self.status, &mut self.d, &self.scratch.alpha);
        let row = self
            .scratch
            .alpha_nz
            .iter()
            .filter(|&&j| !matches!(status[j], ColStatus::Basic(_)))
            .map(|&j| (j, alpha[j]))
            .inspect(|&(j, a)| d[j] -= theta * a);
        self.pricing.update(entering, leaving, pivot, row);
        self.d[entering] = 0.0;
        self.d_fresh = false;
        self.scratch.clear_pivot_row();
        self.work.pricing_time += t0.elapsed();
    }

    /// Accumulates `α = ρᵀA` (`ρ = scratch.rho`) into `scratch.alpha`, touching
    /// only the rows where `ρ_i ≠ 0`, and lists the touched columns in
    /// `scratch.alpha_nz`. Rows are visited in ascending order, so every
    /// `α_j` equals the column-wise dot product `ρ · a_j` bit for bit.
    fn pivot_row(&mut self) {
        if self.row_start.is_empty() {
            self.build_rows();
        }
        let scratch = &mut self.scratch;
        for (i, &ri) in scratch.rho.iter().enumerate() {
            if ri != 0.0 {
                for &(j, a) in &self.row_entries[self.row_start[i]..self.row_start[i + 1]] {
                    if !scratch.touched[j] {
                        scratch.touched[j] = true;
                        scratch.alpha_nz.push(j);
                    }
                    scratch.alpha[j] += ri * a;
                }
            }
        }
    }

    /// Builds the row-wise copy of `cols`; columns enter each row in
    /// ascending order.
    fn build_rows(&mut self) {
        let m = self.m;
        let mut row_start = vec![0usize; m + 1];
        for col in &self.cols {
            for &(i, _) in col {
                row_start[i + 1] += 1;
            }
        }
        for i in 0..m {
            row_start[i + 1] += row_start[i];
        }
        let mut fill = row_start.clone();
        let mut row_entries = vec![(0usize, 0.0); row_start[m]];
        for (j, col) in self.cols.iter().enumerate() {
            for &(i, a) in col {
                row_entries[fill[i]] = (j, a);
                fill[i] += 1;
            }
        }
        self.row_start = row_start;
        self.row_entries = row_entries;
    }

    /// Rebuilds the basis representation from the current basis columns
    /// (numerical-drift control after many product-form updates).
    ///
    /// A `false` return means the basis matrix came out numerically
    /// singular — a true basis never is, so the maintained inverse has
    /// drifted beyond repair and the caller must abort the solve
    /// ([`LpOutcome::Numerical`]) instead of pivoting on a stale
    /// inverse.
    #[must_use]
    fn refactorize(&mut self) -> bool {
        if fault::should_fire(FaultSite::SingularRefactor) {
            return false;
        }
        let t0 = Instant::now();
        let cols: Vec<&crate::basis::SparseCol> =
            self.basis.iter().map(|&j| &self.cols[j]).collect();
        let ok = self.basis_inv.refactorize(&cols);
        self.work.factorize_time += t0.elapsed();
        ok
    }

    /// Captures the current basis partition for a root-basis import (see
    /// [`solve_from_basis`](Self::solve_from_basis)). Meaningful after a
    /// solve that returned [`LpOutcome::Optimal`]; the snapshot is independent of the basis
    /// inverse, so it is cheap to clone and share across threads.
    #[must_use]
    pub fn snapshot(&self) -> WarmBasis {
        WarmBasis {
            basis: self.basis.clone(),
            status: self.status.clone(),
            n_struct: self.n_struct,
            phase1_iterations: self.work.phase1_iterations,
        }
    }

    /// Solves from another scenario's root-basis snapshot: the donor basis
    /// is installed, the basic values are recomputed against *this*
    /// model's data, and the solve continues on the path of a cold
    /// [`solve`](Self::solve) — phase 1 repairs the point where it stands
    /// if a basic lies outside its bounds, then phase 2 optimizes. `None`
    /// means only that the basis could not be installed (shape mismatch, a
    /// nonbasic status on an infinite bound of this model, or a singular
    /// refactorization); the caller then takes its next start.
    ///
    /// This is cross-scenario root reuse (see DESIGN.md §"Warm-start
    /// architecture"): it serves re-solves of one structure at the root,
    /// where full primal values are required. On the donor's own data the
    /// optimal basis is primal feasible, so phase 1 runs no iteration and
    /// phase 2 terminates in a handful.
    pub fn solve_from_basis(&mut self, warm: &WarmBasis) -> Option<LpOutcome> {
        let m = self.m;
        if m == 0
            || warm.basis.len() != m
            || warm.status.len() != self.n
            || warm.n_struct != self.n_struct
        {
            return None;
        }
        self.basis.clone_from(&warm.basis);
        self.status.clone_from(&warm.status);
        for (i, &bj) in self.basis.iter().enumerate() {
            if self.status[bj] != ColStatus::Basic(i) {
                return None;
            }
        }
        self.basis_inv.reset(m);
        if !self.refactorize() {
            return None;
        }
        let outcome = self.settle();
        self.work.lp_solves += u64::from(outcome.is_some());
        outcome
    }

    /// Solves from a feasible point of this model (the heuristic incumbent
    /// at the root) instead of from the all-slack basis, in three steps:
    ///
    /// 1. every integral column whose `point` value lies on one of its
    ///    bounds (within `ON_BOUND`) is fixed at that bound, and the
    ///    smaller LP is solved [cold](Self::solve); continuous columns and
    ///    general integers strictly inside their bounds stay free;
    /// 2. the bounds are restored, each formerly fixed column nonbasic at
    ///    the bound it sits on, so the basis of step 1 is primal feasible
    ///    for the whole LP;
    /// 3. the solve continues from that basis on the path every solve
    ///    takes: phase 1 finds nothing to repair, and phase 2 optimizes.
    ///
    /// The solver's [`work`](Self::work) counts both stages. `None`
    /// means the fixed stage did not reach an optimum (the point is not
    /// feasible on this model's data, or the stage broke down); the caller
    /// then solves cold. A deadline stops either stage with `TimedOut`.
    pub fn solve_from_point(&mut self, point: &[f64]) -> Option<LpOutcome> {
        if point.len() != self.n_struct {
            return None;
        }
        if self.m == 0 {
            return Some(self.solve());
        }
        let mut fixed = Vec::new();
        for j in (0..self.n_struct).filter(|&j| self.integral[j]) {
            let (l, u) = (self.lower[j], self.upper[j]);
            let at_upper = if (point[j] - l).abs() <= ON_BOUND {
                false
            } else if (point[j] - u).abs() <= ON_BOUND {
                true
            } else {
                continue;
            };
            fixed.push((j, at_upper, l, u));
            let bound = if at_upper { u } else { l };
            (self.lower[j], self.upper[j]) = (bound, bound);
        }
        let stage = self.solve();
        // A fixed column never enters the basis, so each one is still
        // nonbasic at its value; give it back its range.
        for &(j, at_upper, l, u) in &fixed {
            (self.lower[j], self.upper[j]) = (l, u);
            self.status[j] = if at_upper {
                ColStatus::AtUpper
            } else {
                ColStatus::AtLower
            };
        }
        match stage {
            LpOutcome::Optimal { .. } => self.settle(),
            LpOutcome::TimedOut => Some(LpOutcome::TimedOut),
            _ => None,
        }
    }
}

/// How far an integral column's value in the point of
/// [`SimplexSolver::solve_from_point`] may lie from a bound and still count
/// as on it: the tolerance the branch and bound checks a warm start's
/// feasibility to.
const ON_BOUND: f64 = 1e-6;

/// A basis snapshot of an optimal LP solve, captured by
/// [`SimplexSolver::snapshot`] and consumed by
/// [`SimplexSolver::solve_from_basis`] on a sibling model. Opaque: the basis
/// partition only has meaning for models with the same shape (row count,
/// variable count) as the snapshotted one.
#[derive(Debug, Clone)]
pub struct WarmBasis {
    basis: Vec<usize>,
    status: Vec<ColStatus>,
    n_struct: usize,
    phase1_iterations: u64,
}

impl WarmBasis {
    /// Phase-1 iterations the snapshotted solve spent — the deterministic
    /// proxy for what a cross-scenario root import of this basis saves,
    /// less the import's own phase-1 iterations (see
    /// [`SimplexSolver::solve_from_basis`]).
    #[must_use]
    pub fn phase1_iterations(&self) -> u64 {
        self.phase1_iterations
    }
}

/// The work of LP solves, one record from the factorization to the
/// instrument: a [`SimplexSolver`] counts it where it happens (its basis
/// factorization counts pivots, refactorizations and nonzeros), and every
/// level above adds whole records. The counts are deterministic; the three
/// timers are wall clock.
#[derive(Debug, Clone, Copy, Default)]
pub struct LpWork {
    /// LP solves: each [`SimplexSolver::solve`] (so one per
    /// [`SimplexSolver::solve_from_point`]), and each
    /// [`SimplexSolver::solve_from_basis`] whose basis installs.
    pub lp_solves: u64,
    /// Simplex iterations, both phases.
    pub iterations: u64,
    /// The iterations spent in phase 1.
    pub phase1_iterations: u64,
    /// Basis changes (entering/leaving pivots).
    pub pivots: u64,
    /// Bound-to-bound flips (steps without a basis change).
    pub bound_flips: u64,
    /// Successful from-scratch refactorizations.
    pub refactorizations: u64,
    /// FTRAN solves: ratio-test columns and the basic-value solve of each
    /// basis install.
    pub ftran_calls: u64,
    /// BTRAN solves: the duals of each reduced-cost refresh and one pivot
    /// row per basis change.
    pub btran_calls: u64,
    /// Reduced costs computed by a full dot product `c_j − yᵀa_j`: every
    /// nonbasic column at each refresh (the pivot-row update computes
    /// none).
    pub pricing_candidates: u64,
    /// Nonzeros appended to the eta file by pivots.
    pub eta_nonzeros: u64,
    /// `Σ nnz(L+U)` over the refactorizations, the fill-in ratio's
    /// numerator.
    pub lu_nonzeros: u64,
    /// `Σ nnz(B)` over the refactorizations, its denominator.
    pub basis_nonzeros: u64,
    /// Wall clock refactorizing the basis from scratch.
    pub factorize_time: Duration,
    /// Wall clock in FTRAN/BTRAN solves and pivot updates.
    pub solve_time: Duration,
    /// Wall clock choosing entering columns, recomputing reduced costs and
    /// updating them with the Devex weights from the pivot row.
    pub pricing_time: Duration,
}

impl AddAssign for LpWork {
    fn add_assign(&mut self, other: Self) {
        self.lp_solves += other.lp_solves;
        self.iterations += other.iterations;
        self.phase1_iterations += other.phase1_iterations;
        self.pivots += other.pivots;
        self.bound_flips += other.bound_flips;
        self.refactorizations += other.refactorizations;
        self.ftran_calls += other.ftran_calls;
        self.btran_calls += other.btran_calls;
        self.pricing_candidates += other.pricing_candidates;
        self.eta_nonzeros += other.eta_nonzeros;
        self.lu_nonzeros += other.lu_nonzeros;
        self.basis_nonzeros += other.basis_nonzeros;
        self.factorize_time += other.factorize_time;
        self.solve_time += other.solve_time;
        self.pricing_time += other.pricing_time;
    }
}

/// Work vectors of the pivoting loop, allocated once per solver so no
/// iteration allocates.
struct Scratch {
    /// Duals `y = c_B' B⁻¹` of a reduced-cost refresh, len `m`.
    y: Vec<f64>,
    /// Entering column `B⁻¹ a_q`, by basis position, len `m`.
    w: Vec<f64>,
    /// Row `ρ = e_r' B⁻¹` of the basis inverse, len `m`.
    rho: Vec<f64>,
    /// Pivot row `ρᵀA`, len `n`; nonzero only on `alpha_nz`.
    alpha: Vec<f64>,
    /// Columns the pivot row touched, each once.
    alpha_nz: Vec<usize>,
    /// `touched[j]` ⇔ `j ∈ alpha_nz`.
    touched: Vec<bool>,
}

impl Scratch {
    fn new(m: usize, n: usize) -> Self {
        Self {
            y: vec![0.0; m],
            w: vec![0.0; m],
            rho: vec![0.0; m],
            alpha: vec![0.0; n],
            alpha_nz: Vec::new(),
            touched: vec![false; n],
        }
    }

    /// Zeroes the pivot row for the next pivot, in time proportional to
    /// its nonzeros.
    fn clear_pivot_row(&mut self) {
        for &j in &self.alpha_nz {
            self.alpha[j] = 0.0;
            self.touched[j] = false;
        }
        self.alpha_nz.clear();
    }
}

/// Result of one `optimize` run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PivotResult {
    Optimal,
    Unbounded,
    IterationLimit,
    TimedOut,
    /// A from-scratch refactorization failed (see [`LpOutcome::Numerical`]).
    Numerical,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Model, ObjectiveSense};
    use crate::LinExpr;
    use letdma_core::{Rng, Xoshiro256};

    fn solve(model: &Model) -> LpOutcome {
        SimplexSolver::from_model(model).solve()
    }

    fn assert_optimal(outcome: &LpOutcome, expected_obj: f64) -> Vec<f64> {
        match outcome {
            LpOutcome::Optimal { values, objective } => {
                assert!(
                    (objective - expected_obj).abs() < 1e-6,
                    "objective {objective} != {expected_obj}"
                );
                values.clone()
            }
            other => panic!("expected optimal, got {other:?}"),
        }
    }

    #[test]
    fn trivial_bounds_only() {
        let mut m = Model::new();
        let x = m.add_continuous("x", 1.0, 4.0);
        m.set_objective(ObjectiveSense::Minimize, 3.0 * x);
        let v = assert_optimal(&solve(&m), 3.0);
        assert!((v[0] - 1.0).abs() < 1e-7);
    }

    #[test]
    fn classic_two_var_lp() {
        // max 3x + 2y s.t. x + y ≤ 4, x + 3y ≤ 6, x,y ≥ 0 → x=4, y=0, obj 12.
        let mut m = Model::new();
        let x = m.add_continuous("x", 0.0, f64::INFINITY);
        let y = m.add_continuous("y", 0.0, f64::INFINITY);
        m.add_constraint("c1", (x + y).le(4.0));
        m.add_constraint("c2", (x + 3.0 * y).le(6.0));
        m.set_objective(ObjectiveSense::Maximize, 3.0 * x + 2.0 * y);
        let v = assert_optimal(&solve(&m), 12.0);
        assert!((v[0] - 4.0).abs() < 1e-6);
        assert!(v[1].abs() < 1e-6);
    }

    #[test]
    fn equality_constraints() {
        // min x + y s.t. x + 2y = 3, x - y = 0 → x = y = 1, obj 2.
        let mut m = Model::new();
        let x = m.add_continuous("x", 0.0, f64::INFINITY);
        let y = m.add_continuous("y", 0.0, f64::INFINITY);
        m.add_constraint("e1", (x + 2.0 * y).eq(3.0));
        m.add_constraint("e2", (x - y).eq(0.0));
        m.set_objective(ObjectiveSense::Minimize, x + y);
        let v = assert_optimal(&solve(&m), 2.0);
        assert!((v[0] - 1.0).abs() < 1e-6 && (v[1] - 1.0).abs() < 1e-6);
    }

    #[test]
    fn ge_constraints_and_negative_bounds() {
        // min x s.t. x ≥ -5, x + y ≥ 2, y ≤ 1, y ≥ 0 → x = 1.
        let mut m = Model::new();
        let x = m.add_continuous("x", -5.0, f64::INFINITY);
        let y = m.add_continuous("y", 0.0, 1.0);
        m.add_constraint("c", (x + y).ge(2.0));
        m.set_objective(ObjectiveSense::Minimize, LinExpr::from(x));
        let v = assert_optimal(&solve(&m), 1.0);
        assert!((v[0] - 1.0).abs() < 1e-6);
        assert!((v[1] - 1.0).abs() < 1e-6);
    }

    #[test]
    fn infeasible_detected() {
        let mut m = Model::new();
        let x = m.add_continuous("x", 0.0, 1.0);
        m.add_constraint("c", LinExpr::from(x).ge(2.0));
        assert_eq!(solve(&m), LpOutcome::Infeasible);
    }

    #[test]
    fn unbounded_detected() {
        let mut m = Model::new();
        let x = m.add_continuous("x", 0.0, f64::INFINITY);
        let y = m.add_continuous("y", 0.0, f64::INFINITY);
        m.add_constraint("c", (x - y).le(1.0));
        m.set_objective(ObjectiveSense::Maximize, LinExpr::from(x));
        assert_eq!(solve(&m), LpOutcome::Unbounded);
    }

    #[test]
    fn free_variable() {
        // min |style|: free variable pushed by constraints. min y s.t.
        // y ≥ x − 2, y ≥ −x, x free → optimum at x = 1, y = −1.
        let mut m = Model::new();
        let x = m.add_continuous("x", f64::NEG_INFINITY, f64::INFINITY);
        let y = m.add_continuous("y", f64::NEG_INFINITY, f64::INFINITY);
        m.add_constraint("a", (LinExpr::from(y) - x).ge(-2.0));
        m.add_constraint("b", (y + x).ge(0.0));
        m.set_objective(ObjectiveSense::Minimize, LinExpr::from(y));
        let v = assert_optimal(&solve(&m), -1.0);
        assert!((v[0] - 1.0).abs() < 1e-6);
    }

    #[test]
    fn degenerate_lp_terminates() {
        // Classic degenerate LP (multiple constraints active at a vertex).
        let mut m = Model::new();
        let x = m.add_continuous("x", 0.0, f64::INFINITY);
        let y = m.add_continuous("y", 0.0, f64::INFINITY);
        m.add_constraint("c1", (x + y).le(1.0));
        m.add_constraint("c2", (x + y).le(1.0));
        m.add_constraint("c3", (2.0 * x + 2.0 * y).le(2.0));
        m.set_objective(ObjectiveSense::Maximize, x + y);
        assert_optimal(&solve(&m), 1.0);
    }

    #[test]
    fn fixed_variables_respected() {
        let mut m = Model::new();
        let x = m.add_continuous("x", 2.0, 2.0);
        let y = m.add_continuous("y", 0.0, 10.0);
        m.add_constraint("c", (x + y).eq(5.0));
        m.set_objective(ObjectiveSense::Minimize, LinExpr::from(y));
        let v = assert_optimal(&solve(&m), 3.0);
        assert!((v[0] - 2.0).abs() < 1e-7);
    }

    #[test]
    fn zero_constraint_model() {
        let mut m = Model::new();
        let x = m.add_continuous("x", -1.0, 3.0);
        m.set_objective(ObjectiveSense::Maximize, 2.0 * x);
        let v = assert_optimal(&solve(&m), 6.0);
        assert!((v[0] - 3.0).abs() < 1e-9);
    }

    #[test]
    fn maximization_offset() {
        let mut m = Model::new();
        let x = m.add_continuous("x", 0.0, 5.0);
        m.add_constraint("c", (2.0 * x).le(6.0));
        m.set_objective(ObjectiveSense::Maximize, x + 10.0);
        assert_optimal(&solve(&m), 13.0);
    }

    #[test]
    fn bound_flip_path() {
        // Forces a pure bound flip: maximize x + y with a joint cap.
        let mut m = Model::new();
        let x = m.add_continuous("x", 0.0, 1.0);
        let y = m.add_continuous("y", 0.0, 1.0);
        m.add_constraint("c", (x + y).le(10.0)); // never binding
        m.set_objective(ObjectiveSense::Maximize, x + y);
        let v = assert_optimal(&solve(&m), 2.0);
        assert!((v[0] - 1.0).abs() < 1e-9 && (v[1] - 1.0).abs() < 1e-9);
    }

    /// A 3×3 LP with a `≥` row that feeds phase 1:
    ///
    /// ```text
    ///     min  x + 2y + 3z
    ///     s.t. x + y + z ≥ 4        (r1)
    ///          y + z     ≤ 5        (r2)
    ///          z         ≤ 3        (r3)
    ///          x, y, z ∈ [0, 10]
    /// ```
    ///
    /// Optimum: x = 4, y = z = 0, objective 4.
    fn three_row_lp() -> Model {
        let mut m = Model::new();
        let x = m.add_continuous("x", 0.0, 10.0);
        let y = m.add_continuous("y", 0.0, 10.0);
        let z = m.add_continuous("z", 0.0, 10.0);
        m.add_constraint("r1", (x + y + z).ge(4.0));
        m.add_constraint("r2", (y + z).le(5.0));
        m.add_constraint("r3", LinExpr::from(z).le(3.0));
        m.set_objective(ObjectiveSense::Minimize, x + 2.0 * y + 3.0 * z);
        m
    }

    /// A transportation-style LP: supplies 20, 30; demands 10, 25, 15;
    /// costs `[[2, 3, 1], [5, 4, 8]]`.
    fn transport_lp() -> Model {
        let mut m = Model::new();
        let mut x = Vec::new();
        for i in 0..2 {
            for j in 0..3 {
                x.push(m.add_continuous(format!("x{i}{j}"), 0.0, f64::INFINITY));
            }
        }
        let costs = [2.0, 3.0, 1.0, 5.0, 4.0, 8.0];
        m.add_constraint("s0", (x[0] + x[1] + x[2]).le(20.0));
        m.add_constraint("s1", (x[3] + x[4] + x[5]).le(30.0));
        m.add_constraint("d0", (x[0] + x[3]).ge(10.0));
        m.add_constraint("d1", (x[1] + x[4]).ge(25.0));
        m.add_constraint("d2", (x[2] + x[5]).ge(15.0));
        let obj = LinExpr::weighted_sum(x.iter().copied().zip(costs));
        m.set_objective(ObjectiveSense::Minimize, obj);
        m
    }

    #[test]
    fn larger_random_like_lp() {
        // A transportation-style LP with known optimum.
        // Optimal: ship x13=15, x11=5 (cost 2·5+1·15=25) … check via solver
        // against value computed by hand: north-west-ish optimum is 185? We
        // just assert feasibility + optimality invariants instead of a
        // hand-computed number, then cross-check the objective against a
        // brute-force LP vertex enumeration for this small case elsewhere.
        let m = transport_lp();
        match solve(&m) {
            LpOutcome::Optimal { values, objective } => {
                // Verify feasibility of the returned vertex.
                assert!(values.iter().all(|&v| v >= -1e-7));
                assert!(values[0] + values[1] + values[2] <= 20.0 + 1e-6);
                assert!(values[0] + values[3] >= 10.0 - 1e-6);
                // Optimal plan: x02=15, x00=5 → cost 25 on row 0; then
                // demand d1 = 25 from x01? capacity left 0 … let the
                // optimum be checked numerically: any feasible plan costs
                // ≥ 145 (x02=15,x00=5,x01=0,x04=25,x03=5 → 2·5+1·15+4·25+5·5=150).
                // Enumerated optimum is 145: x00=10,x01=0? 2·10+1·15=35? then
                // x04=25 → 100, total 135. Recheck: supplies 20 row0: x00=5,
                // x02=15 uses 20. x03=5,x04=25 uses 30. Total=10+25+15 ✓,
                // cost=2·5+1·15+5·5+4·25=10+15+25+100=150.
                // Alternative: x00=10, x02=10 (20), x04=25, x05=5 (30):
                // cost=20+10+100+40=170. Or x01=5,x02=15 (20), x03=10,x04=20:
                // 15+15+50+80=160. So 150 is best of these; trust but bound:
                assert!(objective <= 150.0 + 1e-6, "objective {objective}");
                assert!(objective >= 100.0);
            }
            other => panic!("expected optimal, got {other:?}"),
        }
    }

    /// An already-expired deadline stops the cold primal path before the
    /// first pivot: the deadline poll runs at iteration 0, so the solver
    /// never prices a column and reports `TimedOut` instead of burning
    /// the node's budget.
    #[test]
    fn expired_deadline_times_out_cold_solve() {
        let m = three_row_lp();
        let mut lp = SimplexSolver::from_model(&m);
        assert_eq!(lp.n, lp.n_struct + lp.m, "one slack per row, nothing else");
        lp.deadline = Some(Instant::now());
        assert_eq!(lp.solve(), LpOutcome::TimedOut);
        assert_eq!(lp.work().iterations, 0, "no pivots after the deadline");
    }

    /// A pricing pass that finds no improving column is not an
    /// iteration: an LP whose all-slack basis is already optimal solves
    /// in 0 iterations, with one FTRAN (the basic values of the install).
    #[test]
    fn optimal_slack_basis_takes_no_iteration() {
        let mut m = Model::new();
        let x = m.add_continuous("x", 0.0, 10.0);
        let y = m.add_continuous("y", 0.0, 10.0);
        m.add_constraint("c", (x + y).le(4.0));
        m.set_objective(ObjectiveSense::Minimize, x + 2.0 * y);
        let mut lp = SimplexSolver::from_model(&m);
        assert_optimal(&lp.solve(), 0.0);
        let work = lp.work();
        assert_eq!(work.iterations, 0, "the optimality check is no iteration");
        assert_eq!((work.pivots, work.bound_flips, work.ftran_calls), (0, 0, 1));
    }

    /// A root import honors the same deadline contract: the donor basis
    /// installs, then phase 2 stops before its first pivot.
    #[test]
    fn expired_deadline_times_out_root_import() {
        let m = three_row_lp();
        let mut donor = SimplexSolver::from_model(&m);
        assert_optimal(&donor.solve(), 4.0);
        let mut lp = SimplexSolver::from_model(&m);
        lp.deadline = Some(Instant::now());
        assert_eq!(
            lp.solve_from_basis(&donor.snapshot()),
            Some(LpOutcome::TimedOut)
        );
        assert_eq!(lp.work().iterations, 0, "no pivots after the deadline");
    }

    /// A snapshot of a differently shaped model is refused (`None`, the
    /// caller solves cold) instead of corrupting the solve; a same-shape
    /// snapshot of an optimal basis settles the LP without phase 1.
    #[test]
    fn solve_from_basis_rejects_foreign_snapshot() {
        let m = three_row_lp();
        let mut other = Model::new();
        let w = other.add_continuous("w", 0.0, 1.0);
        other.add_constraint("c", LinExpr::from(w).le(1.0));
        let mut foreign = SimplexSolver::from_model(&other);
        let _ = foreign.solve();
        let mut lp = SimplexSolver::from_model(&m);
        assert_eq!(lp.solve_from_basis(&foreign.snapshot()), None);

        let mut donor = SimplexSolver::from_model(&m);
        assert_optimal(&donor.solve(), 4.0);
        let mut lp = SimplexSolver::from_model(&m);
        let outcome = lp
            .solve_from_basis(&donor.snapshot())
            .expect("same shape installs");
        assert_optimal(&outcome, 4.0);
        assert_eq!(lp.work().phase1_iterations, 0, "an import skips phase 1");
    }

    /// Boxed columns under two coupling rows: the path mixes bound flips
    /// (a column crossing its whole box) with basis changes.
    fn bound_flip_lp() -> Model {
        let mut m = Model::new();
        let x = m.add_continuous("x", 0.0, 1.0);
        let y = m.add_continuous("y", 0.0, 1.0);
        let z = m.add_continuous("z", 0.0, 1.0);
        m.add_constraint("a", (x + y).le(1.5));
        m.add_constraint("b", (y + z).le(1.5));
        m.set_objective(ObjectiveSense::Maximize, x + 2.0 * y + z);
        m
    }

    /// A seeded LP in the style of the `proptest_solver` suite: integer
    /// coefficients in [−4, 4] over boxed columns, rows of every sense, and
    /// right-hand sides set so a random half-integral point of the box is
    /// feasible.
    fn seeded_random_lp(seed: u64) -> Model {
        let mut rng = Xoshiro256::seed_from_u64(seed);
        let mut m = Model::new();
        let mut point = Vec::new();
        let vars: Vec<_> = (0..12)
            .map(|j| {
                let upper = rng.i64_inclusive(1, 3);
                point.push(rng.i64_inclusive(0, 2 * upper) as f64 / 2.0);
                m.add_continuous(format!("x{j}"), 0.0, upper as f64)
            })
            .collect();
        for k in 0..8 {
            let coefs: Vec<f64> = (0..vars.len())
                .map(|_| rng.i64_inclusive(-4, 4) as f64)
                .collect();
            let at_point: f64 = coefs.iter().zip(&point).map(|(c, p)| c * p).sum();
            let expr = LinExpr::weighted_sum(vars.iter().copied().zip(coefs));
            let slack = rng.i64_inclusive(0, 3) as f64;
            let cmp = match rng.usize_below(3) {
                0 => expr.le(at_point + slack),
                1 => expr.ge(at_point - slack),
                _ => expr.eq(at_point),
            };
            m.add_constraint(format!("c{k}"), cmp);
        }
        let obj = LinExpr::weighted_sum(
            vars.iter()
                .copied()
                .map(|v| (v, rng.i64_inclusive(-5, 5) as f64)),
        );
        m.set_objective(ObjectiveSense::Minimize, obj);
        m
    }

    /// Two `≥` rows whose slacks start above their bounds and reach them
    /// in the same phase-1 step: `x` enters and meets both rows at
    /// `x = 2`, one slack leaves and the other stays basic on its bound,
    /// so phase 1 recomputes its costs and reduced costs.
    ///
    /// ```text
    ///     min  3x + y + z
    ///     s.t. x + y  ≥ 2
    ///          x + 2z ≥ 2
    ///          x, y, z ∈ [0, 4]
    /// ```
    ///
    /// Optimum: x = 0, y = 2, z = 1, objective 3.
    fn phase1_tie_lp() -> Model {
        let mut m = Model::new();
        let x = m.add_continuous("x", 0.0, 4.0);
        let y = m.add_continuous("y", 0.0, 4.0);
        let z = m.add_continuous("z", 0.0, 4.0);
        m.add_constraint("a", (x + y).ge(2.0));
        m.add_constraint("b", (x + 2.0 * z).ge(2.0));
        m.set_objective(ObjectiveSense::Minimize, 3.0 * x + y + z);
        m
    }

    /// The LPs whose pivot paths the pricing tests replay.
    fn pricing_lps() -> [(&'static str, Model); 4] {
        [
            ("transport", transport_lp()),
            ("flip", bound_flip_lp()),
            ("random", seeded_random_lp(25)),
            ("tie", phase1_tie_lp()),
        ]
    }

    /// The cost vector of the phase `lp` stopped in: the composite phase-1
    /// cost while a basic is infeasible, the model's cost once none is.
    fn phase_cost(lp: &SimplexSolver) -> Vec<f64> {
        let mut cost = vec![0.0; lp.n];
        if lp.phase1_cost(&mut cost) {
            cost
        } else {
            lp.cost.clone()
        }
    }

    /// Reduced costs of `lp`'s current basis under `cost`, computed from
    /// scratch in the solver's own operation order.
    fn fresh_reduced_costs(lp: &SimplexSolver, cost: &[f64]) -> Vec<f64> {
        let cb: Vec<(usize, f64)> = lp
            .basis
            .iter()
            .enumerate()
            .filter(|&(_, &bj)| cost[bj] != 0.0)
            .map(|(i, &bj)| (i, cost[bj]))
            .collect();
        let mut y = vec![0.0; lp.m];
        lp.basis_inv.btran(&cb, &mut y);
        (0..lp.n)
            .map(|j| {
                if matches!(lp.status[j], ColStatus::Basic(_)) {
                    return 0.0;
                }
                let mut d = cost[j];
                for &(i, a) in &lp.cols[j] {
                    d -= y[i] * a;
                }
                d
            })
            .collect()
    }

    /// Drift oracle of the reduced-cost update: stopped at every iteration
    /// limit, the maintained `d` matches a from-scratch `c_j − yᵀa_j` on
    /// every nonbasic column within `1e-9·(1 + |c_j|)`, is zero on basic
    /// columns, and is bit for bit the from-scratch vector whenever no
    /// pivot has been applied since the last refactorization. A short
    /// refactorization cadence puts refactorizations inside these small
    /// solves.
    #[test]
    fn updated_reduced_costs_match_fresh_pricing() {
        for (name, model) in pricing_lps() {
            for interval in [SparseLu::REFACTOR_INTERVAL, 2] {
                let mut full = SimplexSolver::from_model(&model);
                full.refactor_interval = interval;
                assert_optimal_any(&full.solve(), name);
                assert!(full.work().pivots >= 2, "{name}: too few pivots to sample");
                let mut refactored = false;
                for limit in 1..=full.work().iterations {
                    let mut lp = SimplexSolver::from_model(&model);
                    lp.refactor_interval = interval;
                    lp.iteration_limit = limit;
                    let _ = lp.solve();
                    let cost = phase_cost(&lp);
                    let fresh = fresh_reduced_costs(&lp, &cost);
                    for j in 0..lp.n {
                        let tol = 1e-9 * (1.0 + cost[j].abs());
                        assert!(
                            (lp.d[j] - fresh[j]).abs() <= tol,
                            "{name}: interval {interval}, limit {limit}, column {j}: \
                             maintained {} vs fresh {}",
                            lp.d[j],
                            fresh[j]
                        );
                    }
                    if lp.basis_inv.updates_since_refactor() == 0 {
                        refactored |= lp.work().refactorizations > 0;
                        assert_eq!(
                            lp.d, fresh,
                            "{name}: interval {interval}, limit {limit}: \
                             a fresh factorization must reprice from scratch"
                        );
                    }
                }
                if interval == 2 {
                    assert!(refactored, "{name}: no stop right after a refactorization");
                }
            }
        }
    }

    /// `Optimal` is returned only from reduced costs recomputed from
    /// scratch after the last basis change: the maintained `d` of every
    /// optimal solve is bit for bit the from-scratch vector, and no
    /// column improves under it.
    #[test]
    fn optimal_rests_on_fresh_reduced_costs() {
        let models = pricing_lps()
            .into_iter()
            .chain([("three-row", three_row_lp())])
            .chain((0..16).map(|seed| ("random", seeded_random_lp(seed))));
        for (name, model) in models {
            for interval in [SparseLu::REFACTOR_INTERVAL, 2] {
                let mut lp = SimplexSolver::from_model(&model);
                lp.refactor_interval = interval;
                assert_optimal_any(&lp.solve(), name);
                assert!(lp.d_fresh, "{name}: optimal on updated reduced costs");
                assert_eq!(lp.d, fresh_reduced_costs(&lp, &lp.cost), "{name}");
                assert_eq!(lp.choose_entering(false), None, "{name}");
                assert_eq!(lp.choose_entering(true), None, "{name}");
            }
        }
    }

    /// An imported basis that is infeasible on the new data is repaired
    /// where it stands: the optimal basis of each `seeded_random_lp(a)`,
    /// installed on each `seeded_random_lp(100 + b)` (same shape, other
    /// data), reaches the cold solve's outcome and objective, and most of
    /// these imports run phase 1 to get there. Only a singular install is
    /// refused.
    #[test]
    fn imported_basis_is_repaired_on_new_data() {
        let donors: Vec<WarmBasis> = (0..24)
            .map(|a| {
                let mut lp = SimplexSolver::from_model(&seeded_random_lp(a));
                assert_optimal_any(&lp.solve(), "donor");
                lp.snapshot()
            })
            .collect();
        let mut repaired = 0;
        for b in 0..24 {
            let model = seeded_random_lp(100 + b);
            let cold = solve(&model);
            for (a, donor) in donors.iter().enumerate() {
                let mut lp = SimplexSolver::from_model(&model);
                let Some(outcome) = lp.solve_from_basis(donor) else {
                    continue;
                };
                repaired += usize::from(lp.work().phase1_iterations > 0);
                match (&cold, &outcome) {
                    (
                        LpOutcome::Optimal { objective: z, .. },
                        LpOutcome::Optimal { objective, .. },
                    ) => assert!(
                        (objective - z).abs() <= 1e-6 * (1.0 + z.abs()),
                        "donor {a} on LP {b}: objective {objective} vs cold {z}"
                    ),
                    _ => assert_eq!(outcome, cold, "donor {a} on LP {b}"),
                }
            }
        }
        assert!(repaired > 50, "only {repaired} imports ran phase 1");
    }

    /// A seeded MILP with a known feasible point: binaries, general
    /// integers in [0, 4] (the point puts many strictly inside) and
    /// continuous columns, under rows of every sense whose right-hand sides
    /// the point satisfies. Returns the model and the point.
    fn seeded_random_mip(seed: u64) -> (Model, Vec<f64>) {
        let mut rng = Xoshiro256::seed_from_u64(seed);
        let mut m = Model::new();
        let (mut vars, mut point) = (Vec::new(), Vec::new());
        for j in 0..14 {
            let (var, value) = match j % 3 {
                0 => (
                    m.add_binary(format!("b{j}")),
                    rng.i64_inclusive(0, 1) as f64,
                ),
                1 => (
                    m.add_integer(format!("y{j}"), 0.0, 4.0),
                    rng.i64_inclusive(0, 4) as f64,
                ),
                _ => (
                    m.add_continuous(format!("z{j}"), 0.0, 3.0),
                    rng.i64_inclusive(0, 6) as f64 / 2.0,
                ),
            };
            vars.push(var);
            point.push(value);
        }
        for k in 0..10 {
            let coefs: Vec<f64> = (0..vars.len())
                .map(|_| rng.i64_inclusive(-4, 4) as f64)
                .collect();
            let at_point: f64 = coefs.iter().zip(&point).map(|(c, p)| c * p).sum();
            let expr = LinExpr::weighted_sum(vars.iter().copied().zip(coefs));
            let slack = rng.i64_inclusive(0, 3) as f64;
            let cmp = match rng.usize_below(3) {
                0 => expr.le(at_point + slack),
                1 => expr.ge(at_point - slack),
                _ => expr.eq(at_point),
            };
            m.add_constraint(format!("c{k}"), cmp);
        }
        let obj = LinExpr::weighted_sum(
            vars.iter()
                .copied()
                .map(|v| (v, rng.i64_inclusive(-5, 5) as f64)),
        );
        m.set_objective(ObjectiveSense::Minimize, obj);
        (m, point)
    }

    /// Starting from a feasible integral point reaches the cold solve's
    /// outcome and objective. The restored basis is feasible, so the whole
    /// phase-1 bill is the fixed stage's: a separate solve of the model
    /// with the on-bound integral columns fixed runs exactly as many
    /// phase-1 iterations, and no more iterations than both stages.
    #[test]
    fn incumbent_start_matches_cold_solve() {
        let mut interior = 0;
        for seed in 0..48 {
            let (model, point) = seeded_random_mip(seed);
            assert!(model.is_feasible(&point, 1e-9), "seed {seed}");
            let cold = solve(&model);
            let mut lp = SimplexSolver::from_model(&model);
            let outcome = lp
                .solve_from_point(&point)
                .unwrap_or_else(|| panic!("seed {seed}: a feasible point must settle"));
            match (&cold, &outcome) {
                (LpOutcome::Optimal { objective: z, .. }, LpOutcome::Optimal { objective, .. }) => {
                    assert!(
                        (objective - z).abs() <= 1e-6 * (1.0 + z.abs()),
                        "seed {seed}: objective {objective} vs cold {z}"
                    );
                }
                _ => assert_eq!(outcome, cold, "seed {seed}"),
            }

            let mut fixed = model.clone();
            for (j, def) in model.vars.iter().enumerate() {
                let v = point[j];
                if def.is_integral() && (v == def.lower || v == def.upper) {
                    fixed.set_bounds(crate::Var(j as u32), v, v);
                } else if def.is_integral() {
                    interior += 1;
                }
            }
            let mut stage = SimplexSolver::from_model(&fixed);
            assert_optimal_any(&stage.solve(), "fixed stage");
            assert_eq!(
                lp.work().phase1_iterations,
                stage.work().phase1_iterations,
                "seed {seed}: the restored basis must need no repair"
            );
            assert!(
                lp.work().iterations >= stage.work().iterations,
                "seed {seed}"
            );
        }
        assert!(interior > 20, "only {interior} interior general integers");
    }

    /// A point that is not feasible is refused (`None`, the caller solves
    /// cold), and an expired deadline stops the start before its first
    /// pivot.
    #[test]
    fn incumbent_start_refuses_infeasible_point_and_honors_deadline() {
        let (model, mut point) = seeded_random_mip(3);
        let mut lp = SimplexSolver::from_model(&model);
        lp.deadline = Some(Instant::now());
        assert_eq!(lp.solve_from_point(&point), Some(LpOutcome::TimedOut));
        assert_eq!(lp.work().iterations, 0, "no pivots after the deadline");

        let mut refused = 0;
        for j in (0..point.len()).filter(|&j| model.vars[j].is_integral()) {
            let kept = point[j];
            point[j] = if kept == 0.0 { 1.0 } else { 0.0 };
            let mut fixed = model.clone();
            for (k, def) in model.vars.iter().enumerate() {
                let v = point[k];
                if def.is_integral() && (v == def.lower || v == def.upper) {
                    fixed.set_bounds(crate::Var(k as u32), v, v);
                }
            }
            if solve(&fixed) == LpOutcome::Infeasible {
                let mut lp = SimplexSolver::from_model(&model);
                assert_eq!(lp.solve_from_point(&point), None, "column {j}");
                refused += 1;
            }
            point[j] = kept;
        }
        assert!(refused > 0, "no flipped point was infeasible");
    }

    fn assert_optimal_any(outcome: &LpOutcome, name: &str) {
        assert!(
            matches!(outcome, LpOutcome::Optimal { .. }),
            "{name}: expected optimal, got {outcome:?}"
        );
    }

    /// The row-wise pivot row `ρᵀA` equals the column-wise dot product
    /// `ρ · a_j` on every nonbasic column and lists each touched column
    /// once, for every row `r` of the basis reached after each of the
    /// first pivots of a solve; clearing it leaves all zeros.
    #[test]
    fn row_wise_pivot_row_matches_column_dot_products() {
        for (name, model) in [("transport", transport_lp()), ("flip", bound_flip_lp())] {
            let mut full = SimplexSolver::from_model(&model);
            assert!(matches!(full.solve(), LpOutcome::Optimal { .. }));
            assert!(full.work().pivots >= 2, "{name}: too few pivots to sample");
            for limit in 1..=full.work().iterations {
                let mut lp = SimplexSolver::from_model(&model);
                lp.iteration_limit = limit;
                let _ = lp.solve();
                for r in 0..lp.m {
                    lp.basis_inv.btran(&[(r, 1.0)], &mut lp.scratch.rho);
                    lp.pivot_row();
                    let rho = &lp.scratch.rho;
                    let alpha = &lp.scratch.alpha;
                    let mut listed = lp.scratch.alpha_nz.clone();
                    listed.sort_unstable();
                    listed.dedup();
                    assert_eq!(
                        listed.len(),
                        lp.scratch.alpha_nz.len(),
                        "{name}: duplicates"
                    );
                    for j in 0..lp.n {
                        assert!(
                            alpha[j] == 0.0 || listed.binary_search(&j).is_ok(),
                            "{name}: limit {limit}, row {r}: column {j} unlisted"
                        );
                        if matches!(lp.status[j], ColStatus::Basic(_)) {
                            continue;
                        }
                        let dot: f64 = lp.cols[j].iter().map(|&(i, a)| rho[i] * a).sum();
                        assert!(
                            (alpha[j] - dot).abs() <= 1e-12,
                            "{name}: limit {limit}, row {r}, column {j}: {} vs {dot}",
                            alpha[j]
                        );
                    }
                    lp.scratch.clear_pivot_row();
                    assert!(lp.scratch.alpha.iter().all(|&a| a == 0.0));
                    assert!(lp.scratch.touched.iter().all(|&t| !t));
                }
            }
        }
        let mut flips = SimplexSolver::from_model(&bound_flip_lp());
        assert_optimal(&flips.solve(), 3.0);
        assert!(
            flips.work().bound_flips > 0,
            "the flip LP must flip a bound"
        );
    }
}
