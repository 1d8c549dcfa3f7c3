//! Configuration of the optimization problem (§VI).

use std::time::{Duration, Instant};

/// The objective function variants evaluated in §VII of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Objective {
    /// `NO-OBJ`: pure feasibility — stop at the first solution satisfying
    /// Constraints 1–10.
    #[default]
    None,
    /// `OBJ-DMAT` (Eq. 4): minimize the number of DMA transfers, encoded as
    /// `min max_i RGI_i`.
    MinTransfers,
    /// `OBJ-DEL` (Eq. 5): minimize the worst data-acquisition delay ratio,
    /// `min max_i λ_i / T_i`.
    MinDelayRatio,
}

impl std::fmt::Display for Objective {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::None => write!(f, "NO-OBJ"),
            Self::MinTransfers => write!(f, "OBJ-DMAT"),
            Self::MinDelayRatio => write!(f, "OBJ-DEL"),
        }
    }
}

/// Options for an [`Optimizer`](crate::Optimizer) session.
///
/// The struct is `#[non_exhaustive]`: build it with
/// [`OptConfig::new`]/[`Default`] and the chainable `with_*` methods so new
/// knobs can be added without breaking downstream code.
///
/// ```
/// use std::time::Duration;
/// use letdma_opt::{Objective, OptConfig};
///
/// let config = OptConfig::new()
///     .with_objective(Objective::MinTransfers)
///     .with_time_limit(Duration::from_secs(30))
///     .with_threads(4);
/// assert_eq!(config.objective, Objective::MinTransfers);
/// ```
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct OptConfig {
    /// Which objective to optimize.
    pub objective: Objective,
    /// Maximum number of DMA transfer slots `G` made available to the MILP.
    ///
    /// `None` uses the always-sufficient `|𝓒(s_0)|` (one group per
    /// communication). Smaller values shrink the model — and can speed up
    /// the solve dramatically — but may exclude the optimum (never
    /// feasibility as long as a feasible schedule with that many transfers
    /// exists).
    pub max_transfers: Option<usize>,
    /// Allocate private (non-inter-core) labels in the local layouts too.
    pub include_private_labels: bool,
    /// Wall-clock budget for the MILP search.
    pub time_limit: Option<Duration>,
    /// Node budget for the MILP search.
    pub node_limit: Option<u64>,
    /// Seed the solver with the constructive heuristic's solution so the
    /// search is anytime (recommended for the objective-driven variants;
    /// disable to measure pure feasibility-search time as in Table I's
    /// `NO-OBJ` row).
    pub warm_start: bool,
    /// Worker threads for the MILP node evaluator. `None` defers to the
    /// `LETDMA_THREADS` environment variable (default: sequential). The
    /// solution is identical at any thread count.
    pub threads: Option<usize>,
    /// MILP presolve (bound propagation, fixing, big-M tightening) ahead
    /// of branch-and-bound — see [`milp::SolveOptions::presolve`]. `None`
    /// (the default) defers to the `LETDMA_PRESOLVE` environment variable
    /// and falls back to *on*; `Some(_)` overrides both. Presolve runs on
    /// the coordinator before any worker spawns, so the search trajectory
    /// stays byte-identical at any thread count either way.
    pub presolve: Option<bool>,
    /// Cross-scenario root-basis reuse (default on), read only by
    /// [`Optimizer::run_prepared`](crate::Optimizer::run_prepared): solves
    /// of one [`Prepared`](crate::Prepared) entry start their root LP from
    /// the first solve's optimal basis, skipping phase 1 — see
    /// [`Counter::CrossScenarioWarmStarts`](letdma_core::Counter::CrossScenarioWarmStarts).
    /// Reuse changes the work spent, and may change *which* optimal vertex
    /// a later solve reports, but never objective values or validity;
    /// disable it to reproduce cold solver trajectories byte-for-byte.
    /// [`Optimizer::run`](crate::Optimizer::run) always solves cold.
    pub reuse_basis: bool,
    /// Solve the root LP of both the original and the presolved model and
    /// report the relative tightening under
    /// [`Counter::RootGapBps`](letdma_core::Counter::RootGapBps) (default
    /// off — it costs one extra root LP solve). Used by `repro --stats`
    /// and the MILP benchmark.
    pub measure_root_gap: bool,
    /// Absolute wall-clock deadline for the whole pipeline. Checked before
    /// the heuristic runs — an already-expired deadline fails with
    /// [`OptError::DeadlineExpired`](crate::OptError::DeadlineExpired)
    /// without doing any work — and passed to the MILP search, where the
    /// remaining time tightens [`time_limit`](Self::time_limit) (see
    /// [`milp::SolveOptions::deadline`]). Stamped per request by the serve
    /// admission layer.
    ///
    /// An `Instant` is process-local: a wire layer ships the *remaining*
    /// duration and re-stamps on receipt.
    pub deadline: Option<Instant>,
}

impl Default for OptConfig {
    fn default() -> Self {
        Self {
            objective: Objective::None,
            max_transfers: None,
            include_private_labels: false,
            time_limit: Some(Duration::from_secs(60)),
            node_limit: None,
            warm_start: true,
            threads: None,
            presolve: None,
            reuse_basis: true,
            measure_root_gap: false,
            deadline: None,
        }
    }
}

impl OptConfig {
    /// Default configuration (alias of [`Default::default`], reads better
    /// at the head of a `with_*` chain).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Selects one of the paper's three objective variants.
    #[must_use]
    pub fn with_objective(mut self, objective: Objective) -> Self {
        self.objective = objective;
        self
    }

    /// Caps the number of DMA transfer slots offered to the MILP.
    #[must_use]
    pub fn with_max_transfers(mut self, max_transfers: usize) -> Self {
        self.max_transfers = Some(max_transfers);
        self
    }

    /// Also allocates private labels in the local layouts.
    #[must_use]
    pub fn with_include_private_labels(mut self, include: bool) -> Self {
        self.include_private_labels = include;
        self
    }

    /// Sets the wall-clock budget of the MILP search.
    #[must_use]
    pub fn with_time_limit(mut self, limit: Duration) -> Self {
        self.time_limit = Some(limit);
        self
    }

    /// Removes the wall-clock budget (the default has one: 60 s). Used by
    /// determinism regressions, where a node budget must be the only
    /// stopping rule.
    #[must_use]
    pub fn without_time_limit(mut self) -> Self {
        self.time_limit = None;
        self
    }

    /// Sets the node budget of the MILP search.
    #[must_use]
    pub fn with_node_limit(mut self, limit: u64) -> Self {
        self.node_limit = Some(limit);
        self
    }

    /// Enables or disables the heuristic warm start.
    #[must_use]
    pub fn with_warm_start(mut self, warm_start: bool) -> Self {
        self.warm_start = warm_start;
        self
    }

    /// Requests an explicit MILP worker-thread count (clamped to ≥ 1).
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads.max(1));
        self
    }

    /// Forces MILP presolve on or off, overriding the `LETDMA_PRESOLVE`
    /// environment variable (see [`OptConfig::presolve`]; unset defaults
    /// to on).
    #[must_use]
    pub fn with_presolve(mut self, presolve: bool) -> Self {
        self.presolve = Some(presolve);
        self
    }

    /// Enables or disables cross-scenario root-basis reuse (see
    /// [`OptConfig::reuse_basis`]; default on).
    #[must_use]
    pub fn with_reuse_basis(mut self, reuse_basis: bool) -> Self {
        self.reuse_basis = reuse_basis;
        self
    }

    /// Enables or disables the root-gap measurement (see
    /// [`OptConfig::measure_root_gap`]; default off).
    #[must_use]
    pub fn with_measure_root_gap(mut self, measure: bool) -> Self {
        self.measure_root_gap = measure;
        self
    }

    /// Sets an absolute wall-clock deadline for the whole pipeline (see
    /// [`OptConfig::deadline`]).
    #[must_use]
    pub fn with_deadline(mut self, deadline: Instant) -> Self {
        self.deadline = Some(deadline);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn objective_display_matches_paper_names() {
        assert_eq!(Objective::None.to_string(), "NO-OBJ");
        assert_eq!(Objective::MinTransfers.to_string(), "OBJ-DMAT");
        assert_eq!(Objective::MinDelayRatio.to_string(), "OBJ-DEL");
    }

    #[test]
    fn default_config_is_warm_started_feasibility() {
        let c = OptConfig::default();
        assert_eq!(c.objective, Objective::None);
        assert!(c.warm_start);
        assert!(c.max_transfers.is_none());
        assert!(c.threads.is_none());
    }

    #[test]
    fn config_chain() {
        let c = OptConfig::new()
            .with_objective(Objective::MinDelayRatio)
            .with_max_transfers(7)
            .with_include_private_labels(true)
            .with_time_limit(Duration::from_secs(3))
            .with_node_limit(50)
            .with_warm_start(false)
            .with_threads(0)
            .with_presolve(false)
            .with_reuse_basis(false)
            .with_measure_root_gap(true);
        assert!(!c.reuse_basis);
        assert!(
            OptConfig::new().reuse_basis,
            "cross-scenario root reuse defaults on"
        );
        assert_eq!(c.presolve, Some(false));
        assert!(c.measure_root_gap);
        assert_eq!(
            OptConfig::new().presolve,
            None,
            "presolve defers to LETDMA_PRESOLVE by default"
        );
        assert!(!OptConfig::new().measure_root_gap);
        assert_eq!(c.objective, Objective::MinDelayRatio);
        assert_eq!(c.max_transfers, Some(7));
        assert!(c.include_private_labels);
        assert_eq!(c.time_limit, Some(Duration::from_secs(3)));
        assert_eq!(c.without_time_limit().time_limit, None);
    }
}
