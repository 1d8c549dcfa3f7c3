//! Branch and bound over the LP relaxation, with a deterministic parallel
//! node evaluator.
//!
//! The search is *best-first* (nodes ordered by their parent's LP bound, ties
//! broken depth-first so the solver dives early for incumbents), branches on
//! the most fractional integral variable, and is *anytime*: a warm-start
//! assignment or any rounded LP solution becomes an incumbent immediately, so
//! hitting the time or node limit still returns the best feasible solution
//! found together with the proven bound.
//!
//! # One node-LP path
//!
//! The root is node 0: it is solved inline on the coordinator, through
//! the same panic guard, fault plane, retry ladder and merge as every
//! other node. Only its start differs. A node LP climbs down one start
//! ladder, and only the root has the upper rungs: the donor basis
//! published in the solve's [`RootBasisSlot`], then the feasible
//! warm-start incumbent, then the cold slack basis, then an escalated
//! retry. Every other node starts cold.
//!
//! # Parallel search
//!
//! Node LPs are evaluated by a [`std::thread`]-scoped worker pool. The
//! search proceeds in *rounds*: the coordinator pops a fixed-width batch of
//! non-fathomed nodes from the best-first queue, the workers solve the
//! batch's LP relaxations concurrently (pruning speculatively against the
//! incumbent objective published through an atomic bound), and the
//! coordinator merges the results — fathoming, accepting incumbents,
//! branching — strictly in node-id order.
//!
//! Because the batch width (eight nodes per round) is fixed independently of
//! the worker count, and because a worker-side skip is only taken when the
//! merge-time fathoming test is already guaranteed to discard the node (the
//! incumbent objective only ever improves), the merge sequence — and with
//! it every counter, node event, incumbent record and the returned solution
//! vector — is a pure function of the model and options. Equal seeds yield
//! byte-identical trajectories at 1, 2 or 64 threads. A round that would
//! use one thread runs the same merge loop with no worker spawned: it
//! solves each job inline, in node-id order.
//!
//! # Work accounting
//!
//! A node LP adds the [`LpWork`] of every solver it used into its shard.
//! The coordinator reports a shard through one function, `count_into`,
//! when it merges the node, and adds it to the solve's sum.

use std::cmp::Ordering;
use std::collections::{BTreeMap, BinaryHeap};
use std::error::Error;
use std::fmt;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering as AtomicOrdering};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use letdma_core::env::{resolve_flag, resolve_threads, PRESOLVE_ENV};
use letdma_core::fault::{self, FaultSite};
use letdma_core::instrument::{
    timed_phase, Counter, IncumbentRecord, Instrument, NodeEvent, NoopInstrument,
};

use crate::expr::Var;
use crate::model::{Model, ObjectiveSense};
use crate::presolve;
use crate::simplex::{LpOutcome, LpWork, SimplexSolver, WarmBasis};

/// A value within this distance of an integer counts as integral.
pub const INTEGRALITY_TOL: f64 = 1e-6;

/// Absolute optimality gap: a node whose bound comes within this distance
/// of the incumbent is fathomed.
const GAP_ABS: f64 = 1e-6;

/// Nodes popped per scheduling round, the window of node LPs solved
/// concurrently. It is part of the trajectory: the merge order, and so
/// every solve's bytes, depend on it (but not on the thread count).
const ROUND_WIDTH: usize = 8;

/// Options controlling a [`Model::solver`] session.
///
/// The struct is `#[non_exhaustive]`: build it with
/// [`SolveOptions::new`]/[`Default`] and the chainable `with_*` methods so
/// new knobs can be added without breaking downstream code.
///
/// ```
/// use std::time::Duration;
/// use milp::SolveOptions;
///
/// let opts = SolveOptions::new()
///     .with_time_limit(Duration::from_secs(5))
///     .with_threads(4);
/// assert_eq!(opts.threads, Some(4));
/// ```
#[derive(Debug, Clone, Default)]
#[non_exhaustive]
pub struct SolveOptions {
    /// Wall-clock budget; `None` means unlimited.
    pub time_limit: Option<Duration>,
    /// Maximum number of branch-and-bound nodes; `None` means unlimited.
    pub node_limit: Option<u64>,
    /// A known-feasible assignment used as the initial incumbent.
    pub warm_start: Option<Vec<f64>>,
    /// Worker threads evaluating node LPs. `None` defers to the
    /// `LETDMA_THREADS` environment variable (default: sequential). The
    /// trajectory does not depend on this value; more than eight threads
    /// never help, since a round solves at most eight node LPs.
    pub threads: Option<usize>,
    /// Run the presolve/tightening pass ([`crate::presolve`]) ahead of
    /// branch and bound. `None` (default) defers to the `LETDMA_PRESOLVE`
    /// environment variable, else on. Presolve runs on the coordinator
    /// before any worker is spawned, so the reduced-model trajectory stays
    /// byte-identical at any thread count; turning it off reproduces the
    /// unreduced trajectory.
    pub presolve: Option<bool>,
}

impl SolveOptions {
    /// Default options (alias of [`Default::default`], reads better at the
    /// head of a `with_*` chain).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the wall-clock budget.
    #[must_use]
    pub fn with_time_limit(mut self, limit: Duration) -> Self {
        self.time_limit = Some(limit);
        self
    }

    /// Sets the branch-and-bound node budget.
    #[must_use]
    pub fn with_node_limit(mut self, limit: u64) -> Self {
        self.node_limit = Some(limit);
        self
    }

    /// Seeds the search with a known-feasible assignment.
    #[must_use]
    pub fn with_warm_start(mut self, assignment: Vec<f64>) -> Self {
        self.warm_start = Some(assignment);
        self
    }

    /// Requests an explicit worker-thread count (clamped to ≥ 1).
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads.max(1));
        self
    }

    /// Explicitly enables or disables the presolve pass (overriding the
    /// `LETDMA_PRESOLVE` environment variable; see
    /// [`presolve`](Self::presolve)).
    #[must_use]
    pub fn with_presolve(mut self, presolve: bool) -> Self {
        self.presolve = Some(presolve);
        self
    }
}

/// A once-written, many-read slot through which solves of one structure
/// share a root-basis snapshot (cross-scenario root reuse; see DESIGN.md
/// §"Warm-start architecture").
///
/// Every solve of the structure attaches the same slot with
/// [`Solver::root_slot`]. A solve that finds it empty is the **donor**:
/// it publishes its root LP's optimal basis. A solve that finds it
/// published starts its root from that basis, the first rung of the
/// root's start ladder, which phase 1 repairs where it stands when this
/// solve's data makes it infeasible (see
/// [`SimplexSolver::solve_from_basis`]). Reading never blocks: an
/// unpublished slot just means "no donor yet", and the reader becomes a
/// donor itself.
///
/// The first publish wins and later publishes are ignored, so racing
/// donors are harmless: every reader observes the same basis forever.
#[derive(Default)]
pub struct RootBasisSlot(std::sync::OnceLock<Arc<WarmBasis>>);

impl fmt::Debug for RootBasisSlot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RootBasisSlot")
            .field("published", &self.0.get().is_some())
            .finish()
    }
}

impl RootBasisSlot {
    /// An empty (unpublished) slot.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Publishes the donor's root basis. The first publish wins; later
    /// calls are ignored.
    pub fn publish(&self, basis: Arc<WarmBasis>) {
        // A lost race is not an error: the winner's basis serves as well.
        let _ = self.0.set(basis);
    }

    /// The published basis, or `None` while no donor has published.
    #[must_use]
    pub fn get(&self) -> Option<Arc<WarmBasis>> {
        self.0.get().cloned()
    }
}

/// How good the returned solution is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SolveStatus {
    /// Proven optimal (within the gap tolerance).
    Optimal,
    /// Feasible but a limit stopped the proof of optimality.
    Feasible,
}

/// Search statistics of one solve.
///
/// Finer-grained data — per-phase wall clock, node outcome breakdown, the
/// incumbent timeline — flows through the [`letdma_core::Instrument`]
/// observer attached to the [`Solver`] session, and the work counters here
/// equal the instrument's (`lp_iterations` is
/// [`Counter::SimplexIterations`]). All fields except
/// [`elapsed`](Self::elapsed) are part of the deterministic trajectory:
/// they count *consumed* work only, so they are identical at any thread
/// count.
#[derive(Debug, Clone, PartialEq)]
pub struct SolveStats {
    /// Branch-and-bound nodes processed.
    pub nodes: u64,
    /// Total primal simplex iterations across all consumed LP solves.
    pub lp_iterations: u64,
    /// Dual-simplex iterations. Always 0: every node LP is a cold primal
    /// solve. The field stays so existing readers keep compiling until a
    /// node warm start that returns LP values exists.
    pub dual_iterations: u64,
    /// Wall-clock time spent.
    pub elapsed: Duration,
    /// Best proven bound on the optimum (in the model's objective sense);
    /// `None` when the search tree was exhausted before any bound was left.
    pub best_bound: Option<f64>,
}

/// A feasible (possibly optimal) MILP solution.
#[derive(Debug, Clone, PartialEq)]
pub struct MilpSolution {
    status: SolveStatus,
    values: Vec<f64>,
    objective: f64,
    stats: SolveStats,
}

impl MilpSolution {
    /// Whether the solution is proven optimal.
    #[must_use]
    pub fn status(&self) -> SolveStatus {
        self.status
    }

    /// The value of one variable.
    ///
    /// # Panics
    ///
    /// Panics if `var` does not belong to the solved model.
    #[must_use]
    pub fn value(&self, var: Var) -> f64 {
        self.values[var.index()]
    }

    /// All variable values, indexed by [`Var::index`].
    #[must_use]
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// The objective value in the model's own sense.
    #[must_use]
    pub fn objective(&self) -> f64 {
        self.objective
    }

    /// Search statistics.
    #[must_use]
    pub fn stats(&self) -> &SolveStats {
        &self.stats
    }
}

/// Why no solution could be returned.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum SolveError {
    /// The constraints admit no solution.
    Infeasible,
    /// The objective is unbounded in the optimization direction.
    Unbounded,
    /// A limit (time/nodes/iterations) was reached before any feasible
    /// solution was found; the best proven bound so far is attached when
    /// one exists.
    LimitReached {
        /// Best bound in the model's objective sense, if any LP solved.
        best_bound: Option<f64>,
    },
    /// A node evaluation panicked. The panic was caught — the process
    /// stays alive and the search stopped cleanly — but no feasible
    /// solution existed to return (a solve with an incumbent returns it
    /// as [`SolveStatus::Feasible`] instead of this error).
    WorkerPanic {
        /// Panics caught before the search stopped.
        caught: u64,
    },
}

impl fmt::Display for SolveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Infeasible => write!(f, "model is infeasible"),
            Self::Unbounded => write!(f, "model is unbounded"),
            Self::LimitReached { best_bound } => match best_bound {
                Some(b) => write!(f, "limit reached without a feasible solution (bound {b})"),
                None => write!(f, "limit reached without a feasible solution"),
            },
            Self::WorkerPanic { caught } => write!(
                f,
                "solver worker panicked ({caught} caught); no feasible solution to return"
            ),
        }
    }
}

impl Error for SolveError {}

/// One open branch-and-bound node.
#[derive(Debug, Clone)]
struct Node {
    /// Bound overrides accumulated from the root: `(var, lower, upper)`.
    overrides: Vec<(Var, f64, f64)>,
    /// Parent LP bound in minimization form (the node can't do better).
    bound: f64,
    depth: u32,
    /// Creation sequence — the node id. On equal bounds the most recently
    /// created node is explored first (LIFO), turning tie regions into
    /// depth-first dives — crucial for finding incumbents in feasibility
    /// problems. The same id orders result merging (and hence incumbent
    /// tie-breaking).
    seq: u64,
}

impl Node {
    /// Heap key for the bound: `total_cmp` gives every float — including a
    /// stray NaN from a numerically broken LP — a deterministic position
    /// (NaN sorts above every real bound, i.e. lowest priority) instead of
    /// the `partial_cmp(..).unwrap_or(Equal)` scramble. Adding `+0.0`
    /// collapses `-0.0` onto `0.0` first, preserving the old ordering for
    /// the signed-zero pair that `total_cmp` would otherwise split.
    fn bound_key(&self) -> f64 {
        self.bound + 0.0
    }
}

impl PartialEq for Node {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for Node {}
impl PartialOrd for Node {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Node {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap: smaller bound = higher priority, then
        // most recently created first (LIFO dive).
        other
            .bound_key()
            .total_cmp(&self.bound_key())
            .then(self.seq.cmp(&other.seq))
    }
}

impl Model {
    /// Starts a solve session: pass its settings with
    /// [`Solver::options`] and finish with [`Solver::run`].
    ///
    /// The solver is *anytime*: with a time limit it returns the best
    /// feasible solution found so far (status [`SolveStatus::Feasible`])
    /// instead of failing, provided any incumbent exists.
    ///
    /// # Examples
    ///
    /// ```
    /// use milp::{Model, ObjectiveSense, SolveStatus};
    ///
    /// // max x + y  s.t.  2x + y ≤ 3, integral
    /// let mut m = Model::new();
    /// let x = m.add_integer("x", 0.0, 10.0);
    /// let y = m.add_integer("y", 0.0, 10.0);
    /// m.add_constraint("cap", (2.0 * x + y).le(3.0));
    /// m.set_objective(ObjectiveSense::Maximize, x + y);
    /// let s = m.solver().run()?;
    /// assert_eq!(s.status(), SolveStatus::Optimal);
    /// assert_eq!(s.objective().round(), 3.0); // x = 0, y = 3
    /// # Ok::<(), milp::SolveError>(())
    /// ```
    ///
    /// With an instrument and a worker pool:
    ///
    /// ```
    /// use letdma_core::SolverStats;
    /// use milp::{Model, ObjectiveSense, SolveOptions};
    ///
    /// let mut m = Model::new();
    /// let x = m.add_integer("x", 0.0, 10.0);
    /// m.add_constraint("c", (2.0 * x).le(5.0));
    /// m.set_objective(ObjectiveSense::Maximize, 1.0 * x);
    /// let mut stats = SolverStats::new();
    /// let s = m
    ///     .solver()
    ///     .options(SolveOptions::new().with_threads(2))
    ///     .instrument(&mut stats)
    ///     .run()?;
    /// assert_eq!(s.objective().round(), 2.0);
    /// # Ok::<(), milp::SolveError>(())
    /// ```
    pub fn solver(&self) -> Solver<'_, 'static> {
        Solver {
            model: self,
            options: SolveOptions::default(),
            instrument: None,
            reduction: None,
            root_slot: None,
        }
    }
}

/// Shared entry point of every solve path (the session [`Solver::run`]):
/// resolves the presolve flag, reduces
/// the model (or reuses a cached [`presolve::Presolved`] reduction), runs
/// branch and bound on the reduction, and lifts the solution back to the
/// caller's variable space.
///
/// Presolve runs on the coordinator before any worker thread exists, so
/// the deterministic-trajectory guarantee is untouched: with presolve on,
/// every thread count walks the *reduced* model's trajectory; with it off,
/// the original's. A cached reduction replays the recorded presolve
/// tallies through the same counters and the same phase entry, so the
/// observable trajectory of a cache hit is byte-identical to a live
/// presolve of the same model (only the phase's wall-clock shrinks).
fn solve_entry(
    model: &Model,
    options: &SolveOptions,
    reduction: Option<&presolve::Presolved>,
    root_slot: Option<Arc<RootBasisSlot>>,
    instrument: &mut dyn Instrument,
) -> Result<MilpSolution, SolveError> {
    let live;
    let red: &presolve::Presolved = match reduction {
        Some(red) => {
            assert_eq!(
                red.lift.original_vars(),
                model.num_vars(),
                "cached reduction does not match the model being solved"
            );
            timed_phase(instrument, "presolve", |_| ());
            red
        }
        None => {
            if !resolve_flag(PRESOLVE_ENV, options.presolve, true) {
                return BranchAndBound::new(model, options, root_slot, instrument).run();
            }
            live = match timed_phase(instrument, "presolve", |_| {
                presolve::presolve(model, INTEGRALITY_TOL)
            }) {
                Ok(red) => red,
                Err(_proof) => return Err(SolveError::Infeasible),
            };
            &live
        }
    };
    instrument.count(Counter::PresolveRowsDropped, red.stats.rows_dropped);
    instrument.count(Counter::PresolveColsFixed, red.stats.cols_fixed);
    instrument.count(Counter::CoeffsTightened, red.stats.coeffs_tightened);

    // Everything fixed (or an originally empty model): no search needed.
    if red.model.num_vars() == 0 {
        let values = red.lift.lift_values(&[]);
        if !model.is_feasible(&values, INTEGRALITY_TOL) {
            return Err(SolveError::Infeasible);
        }
        let objective = model.objective().evaluate(&values);
        return Ok(MilpSolution {
            status: SolveStatus::Optimal,
            values,
            objective,
            stats: SolveStats {
                nodes: 0,
                lp_iterations: 0,
                dual_iterations: 0,
                elapsed: Duration::ZERO,
                best_bound: Some(objective),
            },
        });
    }

    let mut reduced_options = options.clone();
    reduced_options.warm_start = options
        .warm_start
        .as_ref()
        .and_then(|w| red.lift.project_values(w, INTEGRALITY_TOL));
    let sol = BranchAndBound::new(&red.model, &reduced_options, root_slot, instrument).run()?;
    let values = red.lift.lift_values(&sol.values);
    // Re-evaluate on the original objective: bit-equal to the reduced
    // objective up to the substituted constant, and exact in the caller's
    // terms.
    let objective = model.objective().evaluate(&values);
    Ok(MilpSolution {
        status: sol.status,
        values,
        objective,
        stats: sol.stats,
    })
}

/// How much presolve tightens the root LP of `model`: presolves it, solves
/// the root LPs of the original and the reduced model, and returns the
/// improvement in basis points of the larger root magnitude (minimization
/// form, clamped at zero). Reported as `Counter::RootGapBps` by the MILP
/// benchmark and `repro --stats`; no solve path calls it.
///
/// `None` when there is nothing to measure (presolve proves the model
/// infeasible, reduces nothing, or the objective is empty) or when either
/// root LP fails to reach optimality within `time_limit`, one budget for
/// both LPs.
#[must_use]
pub fn root_gap_bps(model: &Model, time_limit: Option<Duration>) -> Option<u64> {
    let red = presolve::presolve(model, INTEGRALITY_TOL).ok()?;
    if red.is_noop() || model.objective().is_empty() {
        return None;
    }
    let deadline = time_limit.map(|t| Instant::now() + t);
    let scale = match model.objective_sense() {
        ObjectiveSense::Minimize => 1.0,
        ObjectiveSense::Maximize => -1.0,
    };
    let root = |m: &Model| -> Option<f64> {
        let mut lp = SimplexSolver::from_model(m);
        lp.deadline = deadline;
        match lp.solve() {
            LpOutcome::Optimal { objective, .. } => Some(scale * objective),
            _ => None,
        }
    };
    let z_orig = root(model)?;
    let z_red = root(&red.model)?;
    let denom = z_orig.abs().max(z_red.abs()).max(1e-9);
    let bps = (1e4 * (z_red - z_orig) / denom).round();
    Some(if bps > 0.0 { bps as u64 } else { 0 })
}

/// A configured solve session, created by [`Model::solver`].
///
/// Every setting arrives whole as one [`SolveOptions`] through
/// [`options`](Solver::options). The session adds only what is not a
/// setting: the instrument and the cache hooks
/// ([`reduction`](Solver::reduction), [`root_slot`](Solver::root_slot)).
#[must_use = "a solver session does nothing until `.run()` is called"]
pub struct Solver<'m, 'i> {
    model: &'m Model,
    options: SolveOptions,
    instrument: Option<&'i mut dyn Instrument>,
    reduction: Option<Arc<presolve::Presolved>>,
    root_slot: Option<Arc<RootBasisSlot>>,
}

impl fmt::Debug for Solver<'_, '_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Solver")
            .field("options", &self.options)
            .field("instrumented", &self.instrument.is_some())
            .field("cached_reduction", &self.reduction.is_some())
            .field("root_slot", &self.root_slot.is_some())
            .finish_non_exhaustive()
    }
}

impl<'m, 'i> Solver<'m, 'i> {
    /// Sets every solve setting at once: the one way to set a budget, a
    /// warm start, the thread count or presolve.
    pub fn options(mut self, options: SolveOptions) -> Self {
        self.options = options;
        self
    }

    /// Reuses a cached presolve reduction of **this same model** instead
    /// of running the presolve pass (the serve layer's formulation cache
    /// keys reductions by a structural hash of the model). The recorded
    /// presolve tallies are replayed through the instrument, so a cache
    /// hit's observable trajectory is byte-identical to a live presolve.
    ///
    /// The solve panics if the reduction's variable space does not match
    /// the model — a reduction is only valid for the model it was computed
    /// from.
    pub fn reduction(mut self, reduction: Arc<presolve::Presolved>) -> Self {
        self.reduction = Some(reduction);
        self
    }

    /// Shares the root basis with the other solves of the same structure
    /// through `slot` (cross-scenario root reuse; see [`RootBasisSlot`]).
    /// The slot is read once, when the root node's LP starts, inside the
    /// same panic guard as every node LP:
    ///
    /// * **published** — a **primal warm start of the root LP**, the
    ///   first rung of its start ladder: the donor basis is installed on
    ///   the (presolved) root and the root LP solves from it: phase 2
    ///   directly when the basis is primal feasible on this model's data,
    ///   phase 1 first to repair it where it stands when it is not. An
    ///   import that does not settle the root (shape mismatch, a singular
    ///   install, the iteration brake or a numerical breakdown) hands it
    ///   to the next rung, the root of a solve without a slot, so the
    ///   returned *solution* is identical either way; only the *pivot
    ///   path* (and hence the trajectory) differs.
    /// * **empty** — this solve is the **donor**: its root LP solves as
    ///   without a slot (from the feasible warm-start incumbent when there
    ///   is one, cold otherwise), and its optimal root basis is published
    ///   right after (before any branching), together with the phase-1
    ///   iterations of both stages of an incumbent start. When the root
    ///   never reaches an optimal basis (infeasible, unbounded or timed
    ///   out) nothing is published, and the slot stays open for the next
    ///   donor.
    ///
    /// Every solve sharing a slot must have the same (presolved) shape —
    /// in practice, one prepared structure under one presolve resolution.
    pub fn root_slot(mut self, slot: Arc<RootBasisSlot>) -> Self {
        self.root_slot = Some(slot);
        self
    }

    /// Attaches a progress observer (counters, node events, the incumbent
    /// timeline).
    pub fn instrument<'j>(self, instrument: &'j mut dyn Instrument) -> Solver<'m, 'j> {
        Solver {
            model: self.model,
            options: self.options,
            instrument: Some(instrument),
            reduction: self.reduction,
            root_slot: self.root_slot,
        }
    }

    /// Runs the branch-and-bound search.
    ///
    /// # Errors
    ///
    /// * [`SolveError::Infeasible`] — no assignment satisfies the
    ///   constraints;
    /// * [`SolveError::Unbounded`] — the LP relaxation is unbounded;
    /// * [`SolveError::LimitReached`] — a limit was hit before any feasible
    ///   solution was found;
    /// * [`SolveError::WorkerPanic`] — a node evaluation panicked and no
    ///   incumbent existed to return.
    pub fn run(self) -> Result<MilpSolution, SolveError> {
        let mut noop = NoopInstrument;
        let instrument: &mut dyn Instrument = match self.instrument {
            Some(i) => i,
            None => &mut noop,
        };
        solve_entry(
            self.model,
            &self.options,
            self.reduction.as_deref(),
            self.root_slot,
            instrument,
        )
    }
}

/// Outcome of one node LP.
enum PureLp {
    Solved {
        values: Vec<f64>,
        min_obj: f64,
    },
    Infeasible,
    Unbounded,
    TimedOut,
    /// The node LP broke down numerically (or hit the iteration brake)
    /// even after the escalated-tolerance retry. **Not** an infeasibility
    /// certificate: the node must never be fathomed — the coordinator
    /// branches it conservatively so the subtree stays explored.
    Unresolved,
    /// The node evaluation panicked; the panic was caught by the
    /// worker-isolation guard. No LP information exists.
    Panicked,
}

/// The work of one node LP, recorded worker-side and absorbed by the
/// coordinator only when the node is consumed: the [`LpWork`] of every
/// rung of the start ladder and the retry, plus what only the ladder
/// knows.
#[derive(Default)]
struct LpShard {
    work: LpWork,
    tolerance_escalations: u64,
    numerical_recoveries: u64,
    /// Cross-scenario root warm starts: attempts to start the root LP from
    /// a donor scenario's optimal basis, how many settled the root at an
    /// optimum, and the donor's phase-1 iteration bill that each hit
    /// avoided, less the hit's own phase-1 iterations (see
    /// [`Solver::root_slot`]).
    cross_attempts: u64,
    cross_hits: u64,
    phase1_saved: u64,
}

impl LpShard {
    /// Reports this node's work to the instrument, the one place an LP
    /// counter is emitted. A `count(c, 0)` creates an entry that every
    /// reader shows, so each group is reported only when it applies: the
    /// LP counters when an LP ran or a donor import was tried,
    /// escalations when one happened, the cross counters on an attempt.
    fn count_into(&self, instrument: &mut dyn Instrument) {
        let w = &self.work;
        if w.lp_solves > 0 || self.cross_attempts > 0 {
            for (counter, n) in [
                (Counter::LpSolves, w.lp_solves),
                (Counter::SimplexIterations, w.iterations),
                (Counter::Phase1Iterations, w.phase1_iterations),
                (Counter::Pivots, w.pivots),
                (Counter::BoundFlips, w.bound_flips),
                (Counter::Refactorizations, w.refactorizations),
                (Counter::FtranCalls, w.ftran_calls),
                (Counter::BtranCalls, w.btran_calls),
                (Counter::PricingCandidates, w.pricing_candidates),
                (Counter::EtaNonzeros, w.eta_nonzeros),
            ] {
                instrument.count(counter, n);
            }
        }
        if self.tolerance_escalations > 0 {
            instrument.count(Counter::ToleranceEscalations, self.tolerance_escalations);
            instrument.count(Counter::NumericalRecoveries, self.numerical_recoveries);
        }
        if self.cross_attempts > 0 {
            instrument.count(Counter::CrossScenarioWarmStarts, self.cross_hits);
            instrument.count(Counter::Phase1IterationsSaved, self.phase1_saved);
        }
    }
}

/// The rungs of a node LP's start ladder that only the root has (see
/// [`solve_node_lp`]). Every other node passes the default and starts cold.
#[derive(Default)]
struct RootStart<'s> {
    /// The solve's cross-scenario slot: a published basis is the first
    /// rung, and an empty slot receives this root's optimal basis.
    slot: Option<&'s RootBasisSlot>,
    /// The feasible warm-start incumbent (the only incumbent before the
    /// root), the second rung.
    incumbent: Option<&'s [f64]>,
}

/// Panic-isolating wrapper around [`solve_node_lp`]: a panic anywhere in
/// the node evaluation (injected by the fault plane or a genuine bug)
/// becomes [`PureLp::Panicked`] instead of unwinding across the worker
/// pool and aborting the process. `AssertUnwindSafe` is justified because
/// the closure owns its scratch state: the model is only read, the slot is
/// written only once the LP is solved, and the shard of a panicked node is
/// discarded wholesale.
fn solve_node_lp_guarded(
    model: &Model,
    overrides: &[(Var, f64, f64)],
    root: RootStart<'_>,
    deadline: Option<Instant>,
    scale: f64,
) -> (PureLp, LpShard) {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        solve_node_lp(model, overrides, root, deadline, scale)
    }))
    .unwrap_or_else(|_| (PureLp::Panicked, LpShard::default()))
}

/// Solves the LP relaxation of one node (the model's bounds intersected
/// with `overrides`) down one start ladder: the basis published in
/// `root.slot` ([`SimplexSolver::solve_from_basis`]), then the feasible
/// point `root.incumbent` ([`SimplexSolver::solve_from_point`]), then a
/// cold start, then the escalated retry. A start that does not install,
/// hits the iteration brake or breaks down numerically hands the node to
/// the next rung on a fresh solver; any other outcome settles it. A root
/// whose slot is empty is the donor: it publishes its optimal basis there.
/// Free function (no `&self`) so worker threads can run it without
/// borrowing the search driver.
fn solve_node_lp(
    model: &Model,
    overrides: &[(Var, f64, f64)],
    root: RootStart<'_>,
    deadline: Option<Instant>,
    scale: f64,
) -> (PureLp, LpShard) {
    if fault::should_fire(FaultSite::WorkerPanic) {
        panic!("fault injection: worker panic while solving a node LP");
    }
    let mut shard = LpShard::default();
    let new_lp = || {
        let mut lp = SimplexSolver::from_model(model);
        lp.deadline = deadline;
        let nonempty = overrides
            .iter()
            .all(|&(v, l, u)| lp.tighten_bounds(v.index(), l, u));
        (lp, nonempty)
    };
    let (mut lp, nonempty) = new_lp();
    if !nonempty {
        return (PureLp::Infeasible, shard);
    }
    let unsettled = |started: &Option<LpOutcome>| {
        matches!(
            started,
            None | Some(LpOutcome::IterationLimit | LpOutcome::Numerical)
        )
    };
    let donor = root.slot.and_then(RootBasisSlot::get);
    let mut started = None;
    if let Some(basis) = &donor {
        started = lp.solve_from_basis(basis);
        shard.cross_attempts = 1;
        shard.work += lp.work();
        if let Some(LpOutcome::Optimal { .. }) = started {
            shard.cross_hits = 1;
            // What the hit avoided: the donor's phase-1 bill for the same
            // structure, less the import's own repair (phase 2 still ran,
            // and is counted).
            shard.phase1_saved = basis
                .phase1_iterations()
                .saturating_sub(lp.work().phase1_iterations);
        }
        if unsettled(&started) {
            started = None;
            lp = new_lp().0;
        }
    }
    if let (None, Some(point)) = (&started, root.incumbent) {
        started = lp.solve_from_point(point);
        shard.work += lp.work();
        if unsettled(&started) {
            started = None;
            lp = new_lp().0;
        }
    }
    let mut outcome = started.unwrap_or_else(|| {
        let outcome = lp.solve();
        shard.work += lp.work();
        outcome
    });
    if matches!(outcome, LpOutcome::Numerical) {
        // Numerical recovery: rebuild the solver from scratch (which *is*
        // the forced refactorization — a fresh exact basis, no drifted
        // inverse), escalate the minimum-pivot threshold and tighten the
        // refactorization cadence, then retry once. Escalating the pivot
        // tolerance is sound because it only *restricts* which pivots the
        // ratio tests accept; loosening the optimality tolerance instead
        // could overstate the node bound and wrongly fathom.
        shard.tolerance_escalations = 1;
        let mut retry = new_lp().0;
        retry.min_pivot = 1e-7;
        retry.refactor_interval = 64;
        outcome = retry.solve();
        shard.work += retry.work();
        if !matches!(outcome, LpOutcome::Numerical) {
            shard.numerical_recoveries = 1;
        }
        lp = retry;
    }
    let lp = match outcome {
        LpOutcome::Optimal { values, objective } => {
            if let (Some(slot), None) = (root.slot, &donor) {
                slot.publish(Arc::new(lp.snapshot()));
            }
            PureLp::Solved {
                values,
                min_obj: scale * objective,
            }
        }
        LpOutcome::Infeasible => PureLp::Infeasible,
        LpOutcome::Unbounded => PureLp::Unbounded,
        // Neither brake is an infeasibility certificate: fathoming here
        // would silently drop a subtree that may hold the optimum (the
        // pre-resilience code conflated both with `Infeasible`).
        LpOutcome::IterationLimit | LpOutcome::Numerical => PureLp::Unresolved,
        LpOutcome::TimedOut => PureLp::TimedOut,
    };
    (lp, shard)
}

/// A node result traveling from a worker to the coordinator.
enum JobOutcome {
    /// The worker skipped the LP against the published incumbent bound.
    /// Sound: the incumbent only improves, so the merge-time fathoming
    /// test is guaranteed to discard the node anyway.
    Skipped,
    /// The shard is boxed to keep the enum small on the channel (the
    /// skip variant is payload-free and outnumbers finishes under a hot
    /// incumbent).
    Finished(PureLp, Box<LpShard>),
}

/// What the coordinator decided while merging one job.
enum MergeControl {
    Continue,
    /// A budget expired (or the LP timed out): push the node back and end
    /// the search.
    PushBackAndStop,
}

/// What a whole round decided.
enum RoundControl {
    Continue,
    Stop,
}

/// Internal search driver (the per-round coordinator).
struct BranchAndBound<'a> {
    model: &'a Model,
    options: &'a SolveOptions,
    instrument: &'a mut dyn Instrument,
    /// ±1 factor converting the model objective into minimization form.
    scale: f64,
    start: Instant,
    threads: usize,
    nodes: u64,
    /// LP work summed over the consumed shards: `SolveStats::lp_iterations`,
    /// and once per solve `Counter::FillInRatio` and the `simplex-*`
    /// instrument phases.
    work: LpWork,
    incumbent: Option<(Vec<f64>, f64)>, // (values, min-form objective)
    /// Best (lowest) LP bound among open nodes, min-form.
    open: BinaryHeap<Node>,
    root_bound: Option<f64>,
    node_seq: u64,
    /// Panics caught by the worker-isolation guards during this solve.
    panics: u64,
    /// Cross-scenario root reuse: the slot this solve imports its root
    /// basis from when it is published, or donates into when it is empty.
    /// See [`Solver::root_slot`].
    root_slot: Option<Arc<RootBasisSlot>>,
}

impl<'a> BranchAndBound<'a> {
    fn new(
        model: &'a Model,
        options: &'a SolveOptions,
        root_slot: Option<Arc<RootBasisSlot>>,
        instrument: &'a mut dyn Instrument,
    ) -> Self {
        let scale = match model.objective_sense() {
            ObjectiveSense::Minimize => 1.0,
            ObjectiveSense::Maximize => -1.0,
        };
        Self {
            model,
            options,
            instrument,
            scale,
            start: Instant::now(),
            threads: resolve_threads(options.threads),
            nodes: 0,
            work: LpWork::default(),
            incumbent: None,
            open: BinaryHeap::new(),
            root_bound: None,
            node_seq: 0,
            panics: 0,
            root_slot,
        }
    }

    /// Model-sense objective → minimization form.
    fn to_min(&self, model_obj: f64) -> f64 {
        self.scale * model_obj
    }

    /// Minimization form → model-sense objective.
    fn to_model(&self, min_obj: f64) -> f64 {
        self.scale * min_obj
    }

    fn deadline(&self) -> Option<Instant> {
        self.options.time_limit.map(|limit| self.start + limit)
    }

    fn out_of_budget(&self) -> bool {
        if fault::should_fire(FaultSite::DeadlineExhausted) {
            return true;
        }
        if let Some(limit) = self.options.time_limit {
            if self.start.elapsed() >= limit {
                return true;
            }
        }
        if let Some(limit) = self.options.node_limit {
            if self.nodes >= limit {
                return true;
            }
        }
        false
    }

    /// The merge-time fathoming test: can a node with this min-form bound
    /// still beat the incumbent?
    fn fathomed(&self, bound: f64) -> bool {
        match &self.incumbent {
            Some((_, inc)) => bound >= *inc - GAP_ABS,
            None => false,
        }
    }

    /// The worker-visible pruning threshold (min-form incumbent objective,
    /// `+∞` when none).
    fn incumbent_bits(&self) -> u64 {
        self.incumbent
            .as_ref()
            .map_or(f64::INFINITY, |(_, inc)| *inc)
            .to_bits()
    }

    fn consider_incumbent(&mut self, values: Vec<f64>, model_obj: f64) {
        let min_obj = self.to_min(model_obj);
        let better = match &self.incumbent {
            Some((_, best)) => min_obj < *best - 1e-12,
            None => true,
        };
        if better {
            self.instrument.count(Counter::Incumbents, 1);
            self.instrument.incumbent(IncumbentRecord {
                objective: model_obj,
                nodes: self.nodes,
                elapsed: self.start.elapsed(),
            });
            self.incumbent = Some((values, min_obj));
        }
    }

    /// Try rounding an LP point to the nearest integral assignment.
    fn try_rounding(&mut self, lp_values: &[f64]) {
        let mut rounded = lp_values.to_vec();
        for (j, def) in self.model.vars.iter().enumerate() {
            if def.is_integral() {
                rounded[j] = rounded[j].round().clamp(def.lower, def.upper);
            }
        }
        if self.model.is_feasible(&rounded, 1e-6) {
            let obj = self.model.objective().evaluate(&rounded);
            self.consider_incumbent(rounded, obj);
        }
    }

    /// Most fractional integral variable of an LP point.
    fn pick_branch_var(&self, lp_values: &[f64]) -> Option<(Var, f64)> {
        let mut best: Option<(Var, f64, f64)> = None; // (var, value, frac dist)
        for (j, def) in self.model.vars.iter().enumerate() {
            if !def.is_integral() {
                continue;
            }
            let v = lp_values[j];
            let frac = (v - v.round()).abs();
            if frac > INTEGRALITY_TOL {
                let dist_to_half = (frac - 0.5).abs();
                match best {
                    Some((_, _, d)) if dist_to_half >= d => {}
                    _ => best = Some((Var(j as u32), v, dist_to_half)),
                }
            }
        }
        best.map(|(v, val, _)| (v, val))
    }

    fn run(mut self) -> Result<MilpSolution, SolveError> {
        // Seed with the warm start, if it is actually feasible.
        if let Some(warm) = &self.options.warm_start {
            if self.model.is_feasible(warm, 1e-6) {
                let obj = self.model.objective().evaluate(warm);
                self.consider_incumbent(warm.clone(), obj);
                // Constant objective: any feasible point is optimal, no
                // search needed (pure feasibility problems with a known
                // solution).
                if self.model.objective().is_empty() {
                    let (values, min_obj) = self.incumbent.take().expect("just set");
                    return Ok(MilpSolution {
                        status: SolveStatus::Optimal,
                        objective: self.scale * min_obj,
                        values,
                        stats: SolveStats {
                            nodes: 0,
                            lp_iterations: 0,
                            dual_iterations: 0,
                            elapsed: self.start.elapsed(),
                            best_bound: Some(self.scale * min_obj),
                        },
                    });
                }
            }
        }

        // The root is node 0, solved inline on the coordinator through the
        // merge every node takes. `exhausted` stays true only when the whole
        // tree was explored (so the incumbent is proven optimal); any budget
        // break clears it. A root that stops the search is not pushed back:
        // it leaves no bound to report.
        let root = Node {
            overrides: Vec::new(),
            bound: f64::NEG_INFINITY,
            depth: 0,
            seq: 0,
        };
        let mut exhausted = matches!(self.merge_job(&root, None)?, MergeControl::Continue);

        // Main loop: rounds of up to `ROUND_WIDTH` node LPs.
        loop {
            let mut batch = Vec::with_capacity(ROUND_WIDTH);
            while batch.len() < ROUND_WIDTH {
                match self.open.pop() {
                    None => break,
                    Some(node) => {
                        if self.fathomed(node.bound) {
                            self.instrument.node_event(NodeEvent::FathomedByBound);
                        } else {
                            batch.push(node);
                        }
                    }
                }
            }
            if batch.is_empty() {
                break;
            }
            if self.out_of_budget() {
                // Put the nodes back: their bounds still count for
                // reporting.
                for node in batch {
                    self.open.push(node);
                }
                exhausted = false;
                break;
            }
            match self.run_round(batch)? {
                RoundControl::Continue => {}
                RoundControl::Stop => {
                    exhausted = false;
                    break;
                }
            }
        }

        // Once-per-solve basis summary: the realized fill-in ratio and the
        // simplex wall-clock breakdown (mirrors the once-per-solve
        // RootGapBps pattern — a summed ratio would be meaningless).
        let work = self.work;
        if work.basis_nonzeros > 0 {
            let permille = (1000.0 * work.lu_nonzeros as f64 / work.basis_nonzeros as f64).round();
            self.instrument.count(Counter::FillInRatio, permille as u64);
        }
        self.instrument
            .phase_finished("simplex-factorize", work.factorize_time);
        self.instrument
            .phase_finished("simplex-solve", work.solve_time);
        self.instrument
            .phase_finished("simplex-pricing", work.pricing_time);

        let proven_optimal = exhausted && self.open.is_empty();
        let best_bound_min = if proven_optimal {
            // The tree is exhausted: the incumbent *is* the bound.
            self.incumbent.as_ref().map(|(_, o)| *o)
        } else {
            self.open
                .iter()
                .map(|n| n.bound)
                .fold(None::<f64>, |acc, b| Some(acc.map_or(b, |a| a.min(b))))
                .or(self.root_bound)
        };

        let stats = SolveStats {
            nodes: self.nodes,
            lp_iterations: work.iterations,
            dual_iterations: 0,
            elapsed: self.start.elapsed(),
            best_bound: best_bound_min.map(|b| self.to_model(b)),
        };

        match self.incumbent {
            Some((values, min_obj)) => Ok(MilpSolution {
                status: if proven_optimal {
                    SolveStatus::Optimal
                } else {
                    SolveStatus::Feasible
                },
                objective: self.scale * min_obj,
                values,
                stats,
            }),
            None if proven_optimal => Err(SolveError::Infeasible),
            None if self.panics > 0 => Err(SolveError::WorkerPanic {
                caught: self.panics,
            }),
            None => Err(SolveError::LimitReached {
                best_bound: stats.best_bound,
            }),
        }
    }

    /// Branches an *unresolved* node — its LP failed numerically even
    /// after the escalated retry, so there are no LP values to pick a
    /// fractional variable from — by splitting the domain of the first
    /// integral variable that still holds at least two integer points.
    /// Both children inherit `bound` unchanged (a failed LP proves
    /// nothing, so the node must never be fathomed). Returns `false` when
    /// nothing is splittable, in which case the caller must stop instead
    /// of re-queueing the same node forever.
    ///
    /// Termination: every split strictly shrinks one finite integer
    /// domain, so even a fault that breaks *every* LP only drives the
    /// search through the finite enumeration of integer boxes (budget
    /// checks still apply on top).
    fn branch_conservatively(
        &mut self,
        overrides: &[(Var, f64, f64)],
        bound: f64,
        depth: u32,
    ) -> bool {
        for (j, def) in self.model.vars.iter().enumerate() {
            if !def.is_integral() {
                continue;
            }
            let var = Var(j as u32);
            let mut lo = def.lower;
            let mut hi = def.upper;
            for &(v, l, u) in overrides {
                if v == var {
                    lo = lo.max(l);
                    hi = hi.min(u);
                }
            }
            let lo_int = lo.ceil();
            let hi_int = hi.floor();
            if !lo_int.is_finite() || lo_int >= hi_int {
                continue; // empty, single-point, or half-open downwards
            }
            let split = if hi_int.is_finite() {
                (lo_int + (hi_int - lo_int) / 2.0).floor()
            } else {
                lo_int // value split: [lo, lo] vs [lo+1, ∞)
            };
            let mut down = overrides.to_vec();
            down.push((var, f64::NEG_INFINITY, split));
            let mut up = overrides.to_vec();
            up.push((var, split + 1.0, f64::INFINITY));
            for child in [down, up] {
                self.node_seq += 1;
                self.open.push(Node {
                    overrides: child,
                    bound,
                    depth: depth + 1,
                    seq: self.node_seq,
                });
            }
            return true;
        }
        false
    }

    /// Runs one round over `batch`: workers race through the batch
    /// (skipping jobs the published incumbent already fathoms), the
    /// coordinator merges in node-id order. A round that would use one
    /// thread spawns no worker: the coordinator solves and merges each
    /// job in node-id order, the reference trajectory every thread count
    /// reproduces.
    fn run_round(&mut self, batch: Vec<Node>) -> Result<RoundControl, SolveError> {
        let workers = match self.threads.min(batch.len()) {
            1 => 0,
            n => n,
        };
        // Shared refs copied out of `self` so worker closures borrow
        // nothing of the coordinator's mutable state.
        let model = self.model;
        let deadline = self.deadline();
        let scale = self.scale;
        let inc_bits = AtomicU64::new(self.incumbent_bits());
        let next_job = AtomicUsize::new(0);
        let jobs = &batch;

        let mut merged = vec![false; batch.len()];
        let mut control = RoundControl::Continue;
        let mut error: Option<SolveError> = None;
        let mut thread_panics = 0u64;

        std::thread::scope(|s| {
            let (tx, rx) = mpsc::channel::<(usize, JobOutcome)>();
            let mut handles = Vec::with_capacity(workers);
            for _ in 0..workers {
                let tx = tx.clone();
                let inc_bits = &inc_bits;
                let next_job = &next_job;
                handles.push(s.spawn(move || {
                    // Second line of defense behind the per-node guard in
                    // `solve_node_lp_guarded`: a panic anywhere else in the
                    // worker loop must not unwind into the thread scope
                    // (which would abort the whole process at join time).
                    // The thread returns whether its loop survived.
                    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| loop {
                        let i = next_job.fetch_add(1, AtomicOrdering::Relaxed);
                        if i >= jobs.len() {
                            break;
                        }
                        let node = &jobs[i];
                        let threshold = f64::from_bits(inc_bits.load(AtomicOrdering::Relaxed));
                        let outcome = if node.bound >= threshold - GAP_ABS {
                            JobOutcome::Skipped
                        } else {
                            let (lp, shard) = solve_node_lp_guarded(
                                model,
                                &node.overrides,
                                RootStart::default(),
                                deadline,
                                scale,
                            );
                            JobOutcome::Finished(lp, Box::new(shard))
                        };
                        if tx.send((i, outcome)).is_err() {
                            break;
                        }
                    }))
                    .is_ok()
                }));
            }
            drop(tx);

            let mut stopped = false;
            let mut merge_one = |this: &mut Self, i: usize, outcome: Option<JobOutcome>| {
                if stopped {
                    return;
                }
                match this.merge_job(&jobs[i], outcome) {
                    Ok(MergeControl::Continue) => {
                        merged[i] = true;
                        // Publish the (possibly improved) incumbent so
                        // workers prune in flight.
                        inc_bits.store(this.incumbent_bits(), AtomicOrdering::Relaxed);
                    }
                    Ok(MergeControl::PushBackAndStop) => {
                        stopped = true;
                        control = RoundControl::Stop;
                    }
                    Err(e) => {
                        stopped = true;
                        error = Some(e);
                    }
                }
                if stopped {
                    // Make the remaining jobs skip instantly: every bound
                    // compares ≥ −∞.
                    inc_bits.store(f64::NEG_INFINITY.to_bits(), AtomicOrdering::Relaxed);
                }
            };

            let mut pending: BTreeMap<usize, JobOutcome> = BTreeMap::new();
            let mut next_merge = 0usize;
            for (i, outcome) in rx {
                pending.insert(i, outcome);
                while let Some(outcome) = pending.remove(&next_merge) {
                    merge_one(self, next_merge, Some(outcome));
                    next_merge += 1;
                }
            }
            // The channel is closed, so every worker has exited its loop. A
            // gap in the merge order is a job no worker delivered: all of
            // them without workers, else one whose thread died mid-node.
            // Completing the remainder inline, in node-id order, keeps the
            // trajectory identical to the no-failure run.
            while next_merge < jobs.len() {
                let outcome = pending.remove(&next_merge);
                merge_one(self, next_merge, outcome);
                next_merge += 1;
            }

            for handle in handles {
                // `join` only errs if the panic escaped both catch_unwind
                // guards (impossible today, but never worth an abort).
                if !handle.join().unwrap_or(false) {
                    thread_panics += 1;
                }
            }
        });

        if thread_panics > 0 {
            self.panics += thread_panics;
            self.instrument.count(Counter::PanicsCaught, thread_panics);
        }

        if let Some(e) = error {
            return Err(e);
        }
        if matches!(control, RoundControl::Stop) {
            // Unmerged nodes (including the one that tripped the budget)
            // stay open: their bounds still count for reporting.
            for (i, node) in batch.into_iter().enumerate() {
                if !merged[i] {
                    self.open.push(node);
                }
            }
        }
        Ok(control)
    }

    /// Consumes one job in merge order: re-check fathoming against the
    /// *current* incumbent, enforce budgets, then process the LP result.
    /// `outcome: None` (the root, a round without workers, and defensively
    /// a worker-side skip) solves the LP inline, the root down its start
    /// ladder.
    fn merge_job(
        &mut self,
        node: &Node,
        outcome: Option<JobOutcome>,
    ) -> Result<MergeControl, SolveError> {
        if self.fathomed(node.bound) {
            self.instrument.node_event(NodeEvent::FathomedByBound);
            return Ok(MergeControl::Continue);
        }
        if self.out_of_budget() {
            return Ok(MergeControl::PushBackAndStop);
        }
        let (lp, shard) = match outcome {
            Some(JobOutcome::Finished(lp, shard)) => (lp, *shard),
            // A worker skip can only be consumed if the incumbent that
            // justified it disappeared — impossible, since incumbents only
            // improve — but solving inline keeps even that path correct.
            Some(JobOutcome::Skipped) | None => {
                let root = if node.depth == 0 {
                    RootStart {
                        slot: self.root_slot.as_deref(),
                        incumbent: self.incumbent.as_ref().map(|(v, _)| v.as_slice()),
                    }
                } else {
                    RootStart::default()
                };
                solve_node_lp_guarded(
                    self.model,
                    &node.overrides,
                    root,
                    self.deadline(),
                    self.scale,
                )
            }
        };
        self.nodes += 1;
        self.instrument.count(Counter::Nodes, 1);
        shard.count_into(self.instrument);
        self.work += shard.work;
        match lp {
            PureLp::Infeasible => {
                self.instrument.node_event(NodeEvent::Infeasible);
                if node.depth == 0 {
                    return Err(SolveError::Infeasible);
                }
                Ok(MergeControl::Continue)
            }
            PureLp::Unbounded => {
                // With bounded integrals this cannot happen unless the
                // model itself is unbounded; be conservative.
                Err(SolveError::Unbounded)
            }
            PureLp::TimedOut => {
                self.instrument.node_event(NodeEvent::Abandoned);
                Ok(MergeControl::PushBackAndStop)
            }
            PureLp::Unresolved => {
                self.instrument.node_event(NodeEvent::Unresolved);
                if self.branch_conservatively(&node.overrides, node.bound, node.depth) {
                    Ok(MergeControl::Continue)
                } else {
                    // Every integral variable is fixed and the LP still
                    // won't solve: leave the node open and stop — anytime
                    // semantics return the incumbent (or a typed error),
                    // never a wrong fathom, never a spin.
                    Ok(MergeControl::PushBackAndStop)
                }
            }
            PureLp::Panicked => {
                self.panics += 1;
                self.instrument.count(Counter::PanicsCaught, 1);
                // A deterministic panic would recur on re-solve; stop the
                // search cleanly. `run` returns the incumbent when one
                // exists, `SolveError::WorkerPanic` otherwise, and the
                // optimizer's degradation ladder takes it from there.
                Ok(MergeControl::PushBackAndStop)
            }
            PureLp::Solved { values, min_obj } => {
                if node.depth == 0 {
                    self.root_bound = Some(min_obj);
                }
                self.process_lp(values, min_obj, node.overrides.clone(), node.depth);
                Ok(MergeControl::Continue)
            }
        }
    }

    /// Handles a solved LP: fathom by bound, accept integral solutions, or
    /// branch.
    fn process_lp(
        &mut self,
        values: Vec<f64>,
        min_obj: f64,
        overrides: Vec<(Var, f64, f64)>,
        depth: u32,
    ) {
        if self.fathomed(min_obj) {
            self.instrument.node_event(NodeEvent::FathomedByBound);
            return; // fathomed by bound
        }
        match self.pick_branch_var(&values) {
            None => {
                self.instrument.node_event(NodeEvent::Integral);
                // Integral: snap and record.
                let mut snapped = values;
                for (j, def) in self.model.vars.iter().enumerate() {
                    if def.is_integral() {
                        snapped[j] = snapped[j].round();
                    }
                }
                let obj = self.model.objective().evaluate(&snapped);
                if self.model.is_feasible(&snapped, 1e-5) {
                    self.consider_incumbent(snapped, obj);
                }
                // else: numerically marginal integral point; ignore (a
                // cleaner point will be found deeper in the tree).
            }
            Some((var, value)) => {
                self.instrument.node_event(NodeEvent::Branched);
                self.try_rounding(&values);
                let floor = value.floor();
                let mut down = overrides.clone();
                down.push((var, f64::NEG_INFINITY, floor));
                let mut up = overrides;
                up.push((var, floor + 1.0, f64::INFINITY));
                // The child on the LP solution's side of the split is pushed
                // second (higher seq) so the LIFO tie-break dives into it
                // first.
                let frac_up = value - floor >= 0.5;
                let (first, second) = if frac_up { (down, up) } else { (up, down) };
                self.node_seq += 1;
                self.open.push(Node {
                    overrides: first,
                    bound: min_obj,
                    depth: depth + 1,
                    seq: self.node_seq,
                });
                self.node_seq += 1;
                self.open.push(Node {
                    overrides: second,
                    bound: min_obj,
                    depth: depth + 1,
                    seq: self.node_seq,
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LinExpr;
    use letdma_core::SolverStats;

    fn solve(m: &Model) -> Result<MilpSolution, SolveError> {
        m.solver().run()
    }

    #[test]
    fn pure_lp_passthrough() {
        let mut m = Model::new();
        let x = m.add_continuous("x", 0.0, 4.0);
        m.add_constraint("c", (2.0 * x).le(5.0));
        m.set_objective(ObjectiveSense::Maximize, LinExpr::from(x));
        let s = solve(&m).unwrap();
        assert_eq!(s.status(), SolveStatus::Optimal);
        assert!((s.objective() - 2.5).abs() < 1e-6);
        assert!((s.value(x) - 2.5).abs() < 1e-6);
    }

    #[test]
    fn knapsack_exact() {
        // Values/weights chosen so LP relaxation is fractional.
        let mut m = Model::new();
        let items = [(60.0, 10.0), (100.0, 20.0), (120.0, 30.0)];
        let vars: Vec<_> = items
            .iter()
            .enumerate()
            .map(|(i, _)| m.add_binary(format!("x{i}")))
            .collect();
        let weight = LinExpr::weighted_sum(vars.iter().copied().zip(items.iter().map(|i| i.1)));
        m.add_constraint("cap", weight.le(50.0));
        let value = LinExpr::weighted_sum(vars.iter().copied().zip(items.iter().map(|i| i.0)));
        m.set_objective(ObjectiveSense::Maximize, value);
        let s = solve(&m).unwrap();
        // Optimal: items 2 and 3 → 220.
        assert_eq!(s.status(), SolveStatus::Optimal);
        assert!((s.objective() - 220.0).abs() < 1e-6);
        assert!(s.value(vars[0]) < 0.5);
        assert!(s.value(vars[1]) > 0.5);
        assert!(s.value(vars[2]) > 0.5);
    }

    #[test]
    fn integer_rounding_is_not_assumed() {
        // LP optimum x = 2.5 but integral optimum is 2.
        let mut m = Model::new();
        let x = m.add_integer("x", 0.0, 10.0);
        m.add_constraint("c", (2.0 * x).le(5.0));
        m.set_objective(ObjectiveSense::Maximize, LinExpr::from(x));
        let s = solve(&m).unwrap();
        assert_eq!(s.objective().round(), 2.0);
        assert_eq!(s.status(), SolveStatus::Optimal);
    }

    #[test]
    fn infeasible_integrality() {
        // 0.4 ≤ x ≤ 0.6 has no integer point.
        let mut m = Model::new();
        let x = m.add_integer("x", 0.0, 1.0);
        m.add_constraint("lo", (10.0 * x).ge(4.0));
        m.add_constraint("hi", (10.0 * x).le(6.0));
        assert_eq!(solve(&m).unwrap_err(), SolveError::Infeasible);
    }

    #[test]
    fn plain_infeasible() {
        let mut m = Model::new();
        let x = m.add_continuous("x", 0.0, 1.0);
        m.add_constraint("c", LinExpr::from(x).ge(2.0));
        assert_eq!(solve(&m).unwrap_err(), SolveError::Infeasible);
    }

    #[test]
    fn unbounded_reported() {
        let mut m = Model::new();
        let x = m.add_continuous("x", 0.0, f64::INFINITY);
        m.set_objective(ObjectiveSense::Maximize, LinExpr::from(x));
        assert_eq!(solve(&m).unwrap_err(), SolveError::Unbounded);
    }

    #[test]
    fn warm_start_becomes_incumbent() {
        let mut m = Model::new();
        let x = m.add_binary("x");
        let y = m.add_binary("y");
        m.add_constraint("c", (x + y).le(1.0));
        m.set_objective(ObjectiveSense::Maximize, 2.0 * x + y);
        let s = m
            .solver()
            .options(
                SolveOptions::new()
                    .with_warm_start(vec![0.0, 1.0]) // feasible, obj 1
                    .with_node_limit(0), // forbid any search
            )
            .run()
            .unwrap();
        // Node limit 0: the warm start is all we have.
        assert_eq!(s.status(), SolveStatus::Feasible);
        assert!((s.objective() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn infeasible_warm_start_ignored() {
        let mut m = Model::new();
        let x = m.add_binary("x");
        m.set_objective(ObjectiveSense::Maximize, LinExpr::from(x));
        let s = m
            .solver()
            .options(SolveOptions::new().with_warm_start(vec![2.0])) // out of bounds
            .run()
            .unwrap();
        assert!((s.objective() - 1.0).abs() < 1e-9);
        assert_eq!(s.status(), SolveStatus::Optimal);
    }

    #[test]
    fn equality_milp() {
        // x + y = 7, x − y = 1 over integers → x=4, y=3.
        let mut m = Model::new();
        let x = m.add_integer("x", 0.0, 10.0);
        let y = m.add_integer("y", 0.0, 10.0);
        m.add_constraint("sum", (x + y).eq(7.0));
        m.add_constraint("diff", (x - y).eq(1.0));
        m.set_objective(ObjectiveSense::Minimize, LinExpr::from(x));
        let s = solve(&m).unwrap();
        assert!((s.value(x) - 4.0).abs() < 1e-6);
        assert!((s.value(y) - 3.0).abs() < 1e-6);
    }

    #[test]
    fn stats_populated() {
        // Two vars keep the row alive through presolve (its max activity
        // exceeds the rhs), so the solve is guaranteed to reach the
        // simplex.
        let mut m = Model::new();
        let x = m.add_integer("x", 0.0, 10.0);
        let y = m.add_integer("y", 0.0, 10.0);
        m.add_constraint("c", (2.0 * x + 3.0 * y).le(11.0));
        m.set_objective(ObjectiveSense::Maximize, x + y);
        // Presolve is set, not left to `LETDMA_PRESOLVE`: it decides
        // whether the presolve counters are listed.
        let presolved = SolveOptions::new().with_presolve(true);
        let mut instrumented = SolverStats::new();
        let s = m
            .solver()
            .options(presolved.clone())
            .instrument(&mut instrumented)
            .run()
            .unwrap();
        assert!(s.stats().nodes >= 1);
        assert!(s.stats().lp_iterations >= 1);
        // `SolveStats` is a view of the one stats stream: its work counts
        // equal the instrument's.
        assert_eq!(
            instrumented.counter(Counter::SimplexIterations),
            s.stats().lp_iterations
        );
        assert_eq!(instrumented.counter(Counter::Nodes), s.stats().nodes);

        // The exact key set, zero-valued entries included: a counter
        // reported with 0 is an entry every reader shows, so each one
        // appears only when its group applies.
        use Counter::*;
        let keys = |stats: &SolverStats| -> Vec<Counter> {
            stats.counters().into_iter().map(|(c, _)| c).collect()
        };
        let lp = [
            SimplexIterations,
            Phase1Iterations,
            Pivots,
            BoundFlips,
            Refactorizations,
            LpSolves,
            Nodes,
            Incumbents,
        ];
        let presolve = [PresolveRowsDropped, PresolveColsFixed, CoeffsTightened];
        let lu = [FtranCalls, BtranCalls, EtaNonzeros];
        let no_slot: Vec<Counter> = [&lp[..], &presolve, &lu, &[PricingCandidates]].concat();
        assert_eq!(keys(&instrumented), no_slot);

        let slot = Arc::new(RootBasisSlot::new());
        let mut donor = SolverStats::new();
        let mut import = SolverStats::new();
        for stats in [&mut donor, &mut import] {
            phase1_model()
                .solver()
                .options(presolved.clone())
                .root_slot(Arc::clone(&slot))
                .instrument(stats)
                .run()
                .unwrap();
        }
        assert_eq!(
            keys(&donor),
            no_slot,
            "a donor reports as a solve without a slot"
        );
        let imported: Vec<Counter> = [
            &lp[..],
            &presolve,
            &lu,
            &[
                FillInRatio,
                PricingCandidates,
                CrossScenarioWarmStarts,
                Phase1IterationsSaved,
            ],
        ]
        .concat();
        assert_eq!(keys(&import), imported);
        assert_eq!(import.counter(CrossScenarioWarmStarts), 1);
        // The imported optimum moves nothing, yet every LP counter of the
        // node is listed.
        for counter in [Phase1Iterations, Pivots, BoundFlips, EtaNonzeros] {
            assert_eq!(import.counter(counter), 0, "{counter:?}");
        }
    }

    #[test]
    fn feasibility_problem_no_objective() {
        let mut m = Model::new();
        let x = m.add_binary("x");
        let y = m.add_binary("y");
        m.add_constraint("pick", (x + y).eq(1.0));
        let s = solve(&m).unwrap();
        assert_eq!(s.status(), SolveStatus::Optimal);
        let total = s.value(x) + s.value(y);
        assert!((total - 1.0).abs() < 1e-6);
    }

    fn assignment_model(n: usize) -> (Model, Vec<Var>) {
        let mut m = Model::new();
        let mut x = vec![];
        for i in 0..n {
            for j in 0..n {
                x.push(m.add_binary(format!("x{i}{j}")));
            }
        }
        for i in 0..n {
            let row = LinExpr::weighted_sum((0..n).map(|j| (x[i * n + j], 1.0)));
            m.add_constraint(format!("row{i}"), row.eq(1.0));
            let col = LinExpr::weighted_sum((0..n).map(|j| (x[j * n + i], 1.0)));
            m.add_constraint(format!("col{i}"), col.eq(1.0));
        }
        // cost(i,j) = 1 + |i−j| → identity assignment costs n, any
        // off-diagonal swap strictly more.
        let obj = LinExpr::weighted_sum((0..n * n).map(|k| {
            let (i, j) = (k / n, k % n);
            (x[k], 1.0 + (i as f64 - j as f64).abs())
        }));
        m.set_objective(ObjectiveSense::Minimize, obj);
        (m, x)
    }

    #[test]
    fn bigger_assignment_milp() {
        let n = 4;
        let (m, x) = assignment_model(n);
        let s = solve(&m).unwrap();
        assert!((s.objective() - 4.0).abs() < 1e-6);
        for i in 0..n {
            assert!(s.value(x[i * n + i]) > 0.5, "diagonal {i} not chosen");
        }
    }

    #[test]
    fn parallel_run_matches_sequential_bit_for_bit() {
        let (m, _) = assignment_model(4);
        let mut seq_stats = letdma_core::SolverStats::new();
        let seq = m
            .solver()
            .options(SolveOptions::new().with_threads(1))
            .instrument(&mut seq_stats)
            .run()
            .unwrap();
        for threads in [2, 3, 8] {
            let mut par_stats = letdma_core::SolverStats::new();
            let par = m
                .solver()
                .options(SolveOptions::new().with_threads(threads))
                .instrument(&mut par_stats)
                .run()
                .unwrap();
            assert_eq!(seq.values(), par.values(), "{threads} threads");
            assert_eq!(seq.objective().to_bits(), par.objective().to_bits());
            assert_eq!(seq.stats().nodes, par.stats().nodes);
            assert_eq!(seq.stats().lp_iterations, par.stats().lp_iterations);
            assert_eq!(seq_stats.counters(), par_stats.counters());
            let timeline = |s: &letdma_core::SolverStats| -> Vec<(u64, u64)> {
                s.incumbents()
                    .iter()
                    .map(|r| (r.nodes, r.objective.to_bits()))
                    .collect()
            };
            assert_eq!(timeline(&seq_stats), timeline(&par_stats));
        }
    }

    #[test]
    fn options_chain() {
        let o = SolveOptions::new()
            .with_time_limit(Duration::from_secs(7))
            .with_node_limit(9)
            .with_warm_start(vec![1.0])
            .with_threads(0);
        assert_eq!(o.time_limit, Some(Duration::from_secs(7)));
        assert_eq!(o.node_limit, Some(9));
        assert_eq!(o.threads, Some(1), "threads clamp to ≥ 1");
    }

    /// A model whose `≥` rows feed phase 1 from a cold start, so a root
    /// import has a phase-1 bill to save.
    fn phase1_model() -> Model {
        let mut m = Model::new();
        let x = m.add_continuous("x", 0.0, 10.0);
        let y = m.add_integer("y", 0.0, 10.0);
        let z = m.add_continuous("z", 0.0, 10.0);
        m.add_constraint("r1", (2.0 * x + y).ge(4.0));
        m.add_constraint("r2", (y + 3.0 * z).ge(6.0));
        m.set_objective(ObjectiveSense::Minimize, x + y + z);
        m
    }

    #[test]
    fn root_slot_round_trip_skips_phase1() {
        // The first solve finds the slot empty and donates its optimal root
        // basis; resubmitting the same structure through the same slot
        // imports it, settles the root without phase 1, and reaches the
        // identical optimum.
        let m = phase1_model();
        let slot = Arc::new(RootBasisSlot::new());
        let mut donor_stats = letdma_core::SolverStats::new();
        let donor = m
            .solver()
            .options(SolveOptions::new().with_presolve(false))
            .root_slot(Arc::clone(&slot))
            .instrument(&mut donor_stats)
            .run()
            .unwrap();
        assert!(
            donor_stats.counter(Counter::Phase1Iterations) > 0,
            "the donor must have paid a phase-1 bill worth saving"
        );
        assert_eq!(donor_stats.counter(Counter::CrossScenarioWarmStarts), 0);
        let donated = slot.get().expect("donor solved, so the slot holds a basis");
        let mut imp_stats = letdma_core::SolverStats::new();
        let imported = m
            .solver()
            .options(SolveOptions::new().with_presolve(false))
            .root_slot(Arc::clone(&slot))
            .instrument(&mut imp_stats)
            .run()
            .unwrap();
        assert_eq!(donor.values(), imported.values());
        assert_eq!(donor.objective().to_bits(), imported.objective().to_bits());
        assert_eq!(imp_stats.counter(Counter::CrossScenarioWarmStarts), 1);
        assert!(imp_stats.counter(Counter::Phase1IterationsSaved) > 0);
        assert_eq!(
            imp_stats.counter(Counter::Phase1Iterations),
            0,
            "an imported root runs phase 2 only"
        );
        assert!(
            Arc::ptr_eq(&slot.get().expect("still published"), &donated),
            "an importer never replaces the donor's basis"
        );
    }

    #[test]
    fn root_slot_shape_mismatch_falls_back_cold() {
        // A slot published by a 3-var model, attached to a different model:
        // the foreign basis cannot transfer, so the root takes the next
        // rung of its start ladder, the warm-start incumbent when there is
        // one and cold otherwise. Either way the solve must match the same
        // solve without a slot bit for bit, counters included: the refused
        // install ran no iteration of its own.
        let slot = Arc::new(RootBasisSlot::new());
        phase1_model()
            .solver()
            .options(SolveOptions::new().with_presolve(false))
            .root_slot(Arc::clone(&slot))
            .run()
            .unwrap();
        let foreign = slot.get().expect("donor solved");
        let (other, _) = assignment_model(3);
        // A feasible, non-optimal assignment: row i takes column (i + 1) % 3.
        let shifted = (0..9).map(|k| f64::from(u8::from(k % 3 == (k / 3 + 1) % 3)));
        let mut paths = Vec::new();
        for warm in [None, Some(shifted.collect::<Vec<f64>>())] {
            let mut options = SolveOptions::new().with_presolve(false);
            if let Some(w) = &warm {
                options = options.with_warm_start(w.clone());
            }
            let mut base_stats = letdma_core::SolverStats::new();
            let base = other
                .solver()
                .options(options.clone())
                .instrument(&mut base_stats)
                .run()
                .unwrap();
            let mut stats = letdma_core::SolverStats::new();
            let s = other
                .solver()
                .options(options)
                .root_slot(Arc::clone(&slot))
                .instrument(&mut stats)
                .run()
                .unwrap();
            assert_eq!(base.values(), s.values(), "warm={warm:?}");
            assert_eq!(base.objective().to_bits(), s.objective().to_bits());
            assert_eq!(base.stats().nodes, s.stats().nodes);
            let path = |st: &letdma_core::SolverStats| {
                [Counter::SimplexIterations, Counter::Phase1Iterations].map(|c| st.counter(c))
            };
            assert_eq!(path(&base_stats), path(&stats), "warm={warm:?}");
            paths.push(path(&stats));
            assert_eq!(
                stats.counter(Counter::CrossScenarioWarmStarts),
                0,
                "a rejected import is an attempt, not a hit"
            );
        }
        assert_ne!(
            paths[0], paths[1],
            "the incumbent and cold rungs pivot differently"
        );
        assert!(
            Arc::ptr_eq(&slot.get().expect("still published"), &foreign),
            "a failed import does not donate over the published basis"
        );
    }

    #[test]
    fn root_basis_slot_first_publish_wins() {
        let slot = RootBasisSlot::new();
        assert!(slot.get().is_none(), "unpublished reads as None");
        let m = phase1_model();
        let donor_slot = Arc::new(RootBasisSlot::new());
        m.solver()
            .options(SolveOptions::new().with_presolve(false))
            .root_slot(Arc::clone(&donor_slot))
            .run()
            .unwrap();
        let first = donor_slot.get().expect("donor solved");
        slot.publish(Arc::clone(&first));
        // A later publish must not overwrite the first.
        slot.publish(Arc::new((*first).clone()));
        let kept = slot.get().expect("published");
        assert!(Arc::ptr_eq(&kept, &first), "first publish wins");
    }

    #[test]
    fn root_gap_needs_a_reduction_and_an_objective() {
        let mut m = Model::new();
        let x = m.add_continuous("x", 0.0, 4.0);
        let y = m.add_continuous("y", 0.0, 4.0);
        m.add_constraint("c", (x + y).le(5.0));
        m.set_objective(ObjectiveSense::Maximize, x + 2.0 * y);
        assert!(presolve::presolve(&m, INTEGRALITY_TOL).unwrap().is_noop());
        assert_eq!(root_gap_bps(&m, None), None, "a no-op reduction");
        let mut feasibility = Model::new();
        let b = feasibility.add_binary("b");
        feasibility.add_constraint("fix", LinExpr::from(b).ge(1.0));
        assert!(!presolve::presolve(&feasibility, INTEGRALITY_TOL)
            .unwrap()
            .is_noop());
        assert_eq!(root_gap_bps(&feasibility, None), None, "no objective");
    }

    #[test]
    fn error_display() {
        assert_eq!(SolveError::Infeasible.to_string(), "model is infeasible");
        assert!(SolveError::LimitReached { best_bound: None }
            .to_string()
            .contains("limit reached"));
        assert!(SolveError::WorkerPanic { caught: 2 }
            .to_string()
            .contains("2 caught"));
    }

    #[test]
    fn node_ordering_survives_nan_bounds() {
        // A NaN bound (the residue of a numerically broken LP) must take a
        // deterministic place in the queue — after every real bound — not
        // scramble the heap like `partial_cmp(..).unwrap_or(Equal)` did.
        let mk = |bound: f64, seq: u64| Node {
            overrides: Vec::new(),
            bound,
            depth: 0,
            seq,
        };
        let mut heap = BinaryHeap::new();
        heap.push(mk(f64::NAN, 0));
        heap.push(mk(1.0, 1));
        heap.push(mk(-1.0, 2));
        heap.push(mk(f64::NAN, 3));
        let order: Vec<u64> = std::iter::from_fn(|| heap.pop()).map(|n| n.seq).collect();
        assert_eq!(
            order,
            vec![2, 1, 3, 0],
            "best bound first, NaN last, NaN ties broken LIFO"
        );
        // The signed-zero pair stays equal under the normalized key, so
        // the total_cmp switch cannot reorder pre-existing trajectories.
        assert_eq!(mk(0.0, 7).cmp(&mk(-0.0, 7)), Ordering::Equal);
    }

    #[test]
    fn time_limit_returns_incumbent_not_error() {
        // Seeded case for SolveOptions::time_limit: with an expired
        // deadline the solver must return the warm-start incumbent as
        // Feasible, and only without any incumbent degrade to a typed
        // limit error. The budget is spent before the root, so no node is
        // counted and no bound is reported.
        let mut m = Model::new();
        let x = m.add_binary("x");
        let y = m.add_binary("y");
        m.add_constraint("cap", (x + y).le(1.0));
        m.set_objective(ObjectiveSense::Maximize, 2.0 * x + y);
        let s = m
            .solver()
            .options(
                SolveOptions::new()
                    .with_warm_start(vec![0.0, 1.0]) // feasible, objective 1
                    .with_time_limit(Duration::ZERO),
            )
            .run()
            .unwrap();
        assert_eq!(s.status(), SolveStatus::Feasible);
        assert!((s.objective() - 1.0).abs() < 1e-9);
        assert_eq!((s.stats().nodes, s.stats().best_bound), (0, None));
        let err = m
            .solver()
            .options(SolveOptions::new().with_time_limit(Duration::ZERO))
            .run()
            .unwrap_err();
        assert_eq!(err, SolveError::LimitReached { best_bound: None });
    }
}
