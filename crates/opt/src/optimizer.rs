//! Top-level entry point: build the formulation, seed it with the
//! constructive heuristic, solve, extract and validate.

use std::error::Error;
use std::fmt;
use std::sync::Arc;
use std::time::{Duration, Instant};

use letdma_core::instrument::{timed_phase, Counter, Instrument, NoopInstrument};
use letdma_model::conformance::{verify, VerifyOptions, Violation};
use letdma_model::System;
use milp::{SolveError, SolveOptions};

use crate::config::{Objective, OptConfig};
use crate::formulation;
use crate::heuristic::{self, HeuristicSolution};
use crate::improve::{ImproveGoal, Reorder};
use crate::prepare::{structure_key, Prepared};
use crate::solution::{extract, from_heuristic, warm_start_assignment, LetDmaSolution, Resolution};

/// Errors of an [`Optimizer`] run.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum OptError {
    /// The system has no inter-core communications to schedule.
    NoCommunications,
    /// Constraints 1–10 admit no solution (e.g. deadlines too tight).
    Infeasible,
    /// The search budget ran out before any feasible solution was found.
    BudgetExhausted,
    /// Internal consistency failure: the solver returned an assignment that
    /// does not survive independent conformance checking.
    InvalidSolution(Vec<Violation>),
    /// Unexpected solver failure; the underlying [`SolveError`] is carried
    /// as the [`Error::source`].
    Solver(SolveError),
    /// The request's absolute deadline ([`OptConfig::deadline`]) had
    /// already passed when the pipeline started (rejected before the
    /// heuristic, the formulation or any simplex work) or when a MILP
    /// search was about to start. A deadline that expires *mid-search*
    /// never produces this error — the anytime search returns its best
    /// incumbent instead.
    DeadlineExpired,
    /// [`Optimizer::run_prepared`] was handed a [`Prepared`] whose
    /// [`structure key`](crate::prepare::structure_key) does not match
    /// this session's system and configuration — a stale or mis-keyed
    /// cache entry. The caller should fall back to a cold
    /// [`run`](Optimizer::run) (and fix its cache).
    PreparedMismatch,
}

impl fmt::Display for OptError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::NoCommunications => write!(f, "the system has no inter-core communications"),
            Self::Infeasible => write!(f, "the allocation problem is infeasible"),
            Self::BudgetExhausted => {
                write!(
                    f,
                    "search budget exhausted before a feasible solution was found"
                )
            }
            Self::InvalidSolution(v) => {
                write!(
                    f,
                    "solver returned an invalid solution ({} violations)",
                    v.len()
                )
            }
            Self::Solver(e) => write!(f, "solver failure: {e}"),
            Self::DeadlineExpired => {
                write!(f, "deadline expired before the optimization started")
            }
            Self::PreparedMismatch => {
                write!(
                    f,
                    "prepared formulation does not match this system/configuration"
                )
            }
        }
    }
}

impl Error for OptError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            Self::Solver(e) => Some(e),
            _ => None,
        }
    }
}

/// A configured optimization session over one [`System`].
///
/// Built by [`Optimizer::new`]; pass the settings as one [`OptConfig`]
/// through [`config`](Optimizer::config), then call [`run`](Optimizer::run).
///
/// # Examples
///
/// ```
/// use letdma_model::SystemBuilder;
/// use letdma_opt::Optimizer;
///
/// let mut b = SystemBuilder::new(2);
/// let p = b.task("producer").period_ms(5).core_index(0).add()?;
/// let c = b.task("consumer").period_ms(10).core_index(1).add()?;
/// b.label("frame").size(1024).writer(p).reader(c).add()?;
/// let system = b.build()?;
///
/// let solution = Optimizer::new(&system).run()?;
/// assert!(solution.num_transfers() >= 2); // at least one write + one read
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
///
/// With an objective, a thread count and an instrument:
///
/// ```
/// use letdma_core::SolverStats;
/// use letdma_model::SystemBuilder;
/// use letdma_opt::{Objective, OptConfig, Optimizer};
///
/// # let mut b = SystemBuilder::new(2);
/// # let p = b.task("p").period_ms(5).core_index(0).add()?;
/// # let c = b.task("c").period_ms(5).core_index(1).add()?;
/// # b.label("l").size(64).writer(p).reader(c).add()?;
/// # let system = b.build()?;
/// let mut stats = SolverStats::new();
/// let solution = Optimizer::new(&system)
///     .config(
///         OptConfig::new()
///             .with_objective(Objective::MinTransfers)
///             .with_threads(2),
///     )
///     .instrument(&mut stats)
///     .run()?;
/// assert!(stats.phases().iter().any(|(name, _, _)| *name == "milp-search"));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[must_use = "an Optimizer does nothing until `.run()` is called"]
pub struct Optimizer<'s, 'i> {
    system: &'s System,
    config: OptConfig,
    instrument: Option<&'i mut dyn Instrument>,
}

impl fmt::Debug for Optimizer<'_, '_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Optimizer")
            .field("config", &self.config)
            .field("instrumented", &self.instrument.is_some())
            .finish_non_exhaustive()
    }
}

impl<'s> Optimizer<'s, 'static> {
    /// Starts a session with [`OptConfig::default`].
    pub fn new(system: &'s System) -> Self {
        Optimizer {
            system,
            config: OptConfig::default(),
            instrument: None,
        }
    }
}

impl<'s, 'i> Optimizer<'s, 'i> {
    /// Sets every setting of the run at once: the one way to choose the
    /// objective, the budgets, the warm start, the thread count, presolve
    /// and the deadline.
    pub fn config(mut self, config: OptConfig) -> Self {
        self.config = config;
        self
    }

    /// Streams phase timings, solver counters and incumbent records into
    /// `instrument` during the run.
    pub fn instrument<'j>(self, instrument: &'j mut dyn Instrument) -> Optimizer<'s, 'j> {
        Optimizer {
            system: self.system,
            config: self.config,
            instrument: Some(instrument),
        }
    }

    /// Solves the optimal memory-allocation and DMA-scheduling problem of
    /// §VI.
    ///
    /// The returned solution is always re-validated with the independent
    /// conformance checker ([`letdma_model::conformance::verify`]) —
    /// Properties 1–3, per-instant contiguity and acquisition deadlines — so
    /// a successful return is a machine-checked certificate, not just solver
    /// output.
    ///
    /// The pipeline runs four instrumented phases — `heuristic`
    /// (constructive heuristic plus local-search reordering), `formulation`
    /// (MILP build and warm-start translation), `milp-search`
    /// (branch-and-bound, which additionally streams per-node counters and
    /// incumbent records) and `validate` (post-pass reordering plus
    /// independent conformance re-verification). Collect them with
    /// [`letdma_core::SolverStats`] to get the `--stats` view of the
    /// reproduction binary.
    ///
    /// # Errors
    ///
    /// See [`OptError`]. Failures degrade along a fixed ladder (DESIGN.md
    /// §"Failure model & degradation policy"), and the rung that produced
    /// the returned solution is recorded in
    /// [`LetDmaSolution::resolution`]:
    ///
    /// 1. a worker panic in the MILP search triggers **one** cold retry
    ///    from scratch at half the time/node budget, without the
    ///    cross-scenario root slot ([`Resolution::MilpRetry`]);
    /// 2. if the search (or its retry) ends with no incumbent — budget
    ///    exhausted or panics persisting — the conformance-verified
    ///    constructive heuristic is returned when it exists
    ///    ([`Resolution::HeuristicFallback`], counted under
    ///    [`Counter::HeuristicFallbacks`]);
    /// 3. only when that fallback is unavailable does the typed error
    ///    ([`OptError::BudgetExhausted`] or [`OptError::Solver`]) reach
    ///    the caller.
    pub fn run(self) -> Result<LetDmaSolution, OptError> {
        self.run_with(None)
    }

    /// Like [`run`](Optimizer::run), but reuses a cached
    /// [`Prepared`] — the built formulation and its presolve reduction —
    /// instead of recomputing them (the serve layer's formulation cache).
    ///
    /// Everything request-specific still runs per call: the constructive
    /// heuristic, the warm-start translation, the search itself and the
    /// conformance validation. The cached reduction replays its recorded
    /// presolve tallies through the instrument, so the presolve counters
    /// and phase entries match a cold [`run`](Optimizer::run). The first
    /// solve of this `Prepared` also publishes its optimal root basis into
    /// the preparation's slot, and later solves start from it, skipping
    /// simplex phase 1
    /// ([`Counter::CrossScenarioWarmStarts`](letdma_core::Counter::CrossScenarioWarmStarts) /
    /// [`Counter::Phase1IterationsSaved`](letdma_core::Counter::Phase1IterationsSaved)) —
    /// same objective values, less work, but a warm trajectory is *not*
    /// byte-identical to a cold one.
    ///
    /// # Errors
    ///
    /// [`OptError::PreparedMismatch`] when `prepared` was computed for a
    /// different system or configuration (checked via
    /// [`structure_key`]); otherwise as [`run`](Optimizer::run).
    pub fn run_prepared(self, prepared: &Prepared) -> Result<LetDmaSolution, OptError> {
        if prepared.key() != structure_key(self.system, &self.config) {
            return Err(OptError::PreparedMismatch);
        }
        self.run_with(Some(prepared))
    }

    fn run_with(self, prepared: Option<&Prepared>) -> Result<LetDmaSolution, OptError> {
        let mut noop = NoopInstrument;
        let instrument: &mut dyn Instrument = match self.instrument {
            Some(i) => i,
            None => &mut noop,
        };
        run_pipeline(self.system, &self.config, prepared, instrument)
    }
}

fn run_pipeline(
    system: &System,
    config: &OptConfig,
    prepared: Option<&Prepared>,
    instrument: &mut dyn Instrument,
) -> Result<LetDmaSolution, OptError> {
    // An already-expired deadline fails before any work — the serve layer
    // relies on this to reject queue-expired jobs without simplex effort.
    if let Some(deadline) = config.deadline {
        if deadline <= Instant::now() {
            return Err(OptError::DeadlineExpired);
        }
    }
    if letdma_model::let_semantics::comms_at_start(system).is_empty() {
        return Err(OptError::NoCommunications);
    }

    let verify_options = verify_options(config);
    let reorder_goal = reorder_goal(system, config);
    let (heuristic, heuristic_valid) = timed_phase(instrument, "heuristic", |_| {
        run_heuristic(system, config, reorder_goal, verify_options)
    });

    // Formulation + solve. On a prepared (cache-hit) run the build is
    // skipped and the cached formulation reused; the phase still opens so
    // the trace shape matches a cold solve.
    let mut built = None;
    let (f, solve_options) = timed_phase(instrument, "formulation", |_| {
        let f: &formulation::Formulation = match prepared {
            Some(p) => &p.formulation,
            None => built.insert(formulation::build(system, config)),
        };
        let warm = if config.warm_start && heuristic_valid {
            heuristic
                .as_ref()
                .and_then(|h| warm_start_assignment(system, f, h))
        } else {
            None
        };
        // `SolveOptions` is non-exhaustive in a foreign crate, so the
        // `Option`-valued budgets are assigned field-wise instead of
        // threading them through the `with_*` chain. The wall-clock budget
        // is set at each MILP hand-off, where the deadline is folded in.
        let mut solve_options = SolveOptions::new();
        solve_options.node_limit = config.node_limit;
        solve_options.warm_start = warm;
        solve_options.threads = config.threads;
        // A preparation pins the presolve flag it resolved, so a later
        // environment change cannot make the solve disagree with the
        // cached reduction.
        solve_options.presolve = match prepared {
            Some(p) => Some(p.presolve),
            None => config.presolve,
        };
        (f, solve_options)
    });
    let reduction = prepared.and_then(|p| p.reduction.clone());

    let mut resolution = Resolution::Milp;
    let mut search_options = solve_options.clone();
    search_options.time_limit =
        milp_time_limit(config.time_limit, config.deadline, Instant::now())?;
    let mut solve_result = timed_phase(instrument, "milp-search", |ins| {
        let mut solver = f.model.solver().options(search_options);
        if let Some(red) = reduction.clone() {
            solver = solver.reduction(red);
        }
        // Cross-scenario root reuse through the preparation's slot, on the
        // *first* search only — the panic-retry below never attaches it.
        if let Some(p) = prepared {
            solver = solver.root_slot(Arc::clone(&p.root_slot));
        }
        solver.instrument(ins).run()
    });
    if matches!(solve_result, Err(SolveError::WorkerPanic { .. })) {
        // Degradation rung 1: a worker panic poisoned the first search, so
        // retry once cold from scratch at half the budget and without the
        // root slot — still giving the MILP a real chance before the
        // heuristic fallback. The wall-clock half is of the configured
        // budget, capped by the time remaining now.
        let mut retry_options = solve_options;
        retry_options.time_limit = milp_time_limit(
            config.time_limit.map(|t| t / 2),
            config.deadline,
            Instant::now(),
        )?;
        retry_options.node_limit = config.node_limit.map(|n| (n / 2).max(1));
        resolution = Resolution::MilpRetry;
        solve_result = timed_phase(instrument, "milp-retry", |ins| {
            let mut solver = f.model.solver().options(retry_options);
            if let Some(red) = reduction.clone() {
                solver = solver.reduction(red);
            }
            solver.instrument(ins).run()
        });
    }
    match solve_result {
        Ok(milp_solution) => timed_phase(instrument, "validate", |_| {
            let mut solution = extract(system, f, &milp_solution, config.objective, resolution);
            // Post-pass (delay objective only): the MILP fixes the grouping
            // but its order may still admit improvement within the budget's
            // gap; relocation moves are free wins.
            if let Some(goal) = reorder_goal {
                let improved = Reorder::new(system, &solution.schedule).goal(goal).run();
                if improved != solution.schedule {
                    solution.schedule = improved;
                    solution.latencies = solution.schedule.worst_case_latencies(system);
                    if config.objective == Objective::MinDelayRatio {
                        solution.objective_value = Some(solution.max_delay_ratio(system));
                    }
                }
            }
            let violations = verify(system, &solution.layout, &solution.schedule, verify_options);
            if violations.is_empty() {
                Ok(solution)
            } else {
                Err(OptError::InvalidSolution(violations))
            }
        }),
        // A deadline that expires mid-search degrades to anytime behavior
        // inside the search: the best incumbent (`Ok` above), or the
        // `LimitReached` fallback below.
        Err(SolveError::Infeasible) => Err(OptError::Infeasible),
        Err(err @ (SolveError::LimitReached { .. } | SolveError::WorkerPanic { .. })) => {
            // Degradation rung 2: the search (including any retry) produced
            // no incumbent — fall back to the conformance-verified
            // heuristic when one exists, else surface the typed error.
            match (heuristic, heuristic_valid) {
                (Some(h), true) => {
                    instrument.count(Counter::HeuristicFallbacks, 1);
                    Ok(from_heuristic(
                        system,
                        h,
                        config.objective,
                        Resolution::HeuristicFallback,
                    ))
                }
                _ => match err {
                    SolveError::LimitReached { .. } => Err(OptError::BudgetExhausted),
                    other => Err(OptError::Solver(other)),
                },
            }
        }
        Err(other) => Err(OptError::Solver(other)),
    }
}

/// The wall-clock budget of one MILP hand-off: `limit` capped by the time
/// left until `deadline` at `now`. The deadline is the only input that
/// changes between hand-offs, so the panic-retry rung calls this again
/// instead of halving the first search's budget.
///
/// # Errors
///
/// [`OptError::DeadlineExpired`] when `deadline` is not after `now`.
fn milp_time_limit(
    limit: Option<Duration>,
    deadline: Option<Instant>,
    now: Instant,
) -> Result<Option<Duration>, OptError> {
    let Some(deadline) = deadline else {
        return Ok(limit);
    };
    let remaining = deadline
        .checked_duration_since(now)
        .filter(|remaining| !remaining.is_zero())
        .ok_or(OptError::DeadlineExpired)?;
    Ok(Some(limit.map_or(remaining, |limit| limit.min(remaining))))
}

/// The checks every returned solution passes: Properties 1–3, contiguity
/// and acquisition deadlines.
fn verify_options(config: &OptConfig) -> VerifyOptions {
    VerifyOptions {
        include_private_labels: config.include_private_labels,
        check_acquisition_deadlines: true,
        check_property3: true,
    }
}

/// The local-search goal the pipeline reorders transfers for, both the
/// heuristic's and the MILP's. For the delay-minimizing objective the pass
/// moves latency-critical transfers to the front (the Fig. 1 reordering);
/// relocations keep grouping and layout intact, so validity is preserved.
/// The other objectives take the schedule as constructed — NO-OBJ is "any
/// feasible solution" in the paper, and OBJ-DMAT only counts transfers —
/// unless acquisition deadlines are set: then the pass runs for
/// feasibility's sake (it reduces violations lexicographically first).
fn reorder_goal(system: &System, config: &OptConfig) -> Option<ImproveGoal> {
    let has_deadlines = system
        .tasks()
        .iter()
        .any(|t| t.acquisition_deadline().is_some());
    if config.objective == Objective::MinDelayRatio {
        Some(ImproveGoal::MinDelayRatio)
    } else if has_deadlines {
        Some(ImproveGoal::Feasibility)
    } else {
        None
    }
}

/// The constructive heuristic reordered for `goal` (the fallback and the
/// warm start), and whether it passes conformance, which it must to seed
/// the MILP.
fn run_heuristic(
    system: &System,
    config: &OptConfig,
    goal: Option<ImproveGoal>,
    verify_options: VerifyOptions,
) -> (Option<HeuristicSolution>, bool) {
    let heuristic = heuristic::construct(system, config.include_private_labels).map(|mut h| {
        if let Some(goal) = goal {
            h.schedule = Reorder::new(system, &h.schedule).goal(goal).run();
        }
        h
    });
    let valid = heuristic
        .as_ref()
        .is_some_and(|h| verify(system, &h.layout, &h.schedule, verify_options).is_empty());
    (heuristic, valid)
}

/// Runs only the constructive heuristic (no MILP), validating the result.
///
/// # Errors
///
/// [`OptError::NoCommunications`] when nothing crosses cores, or
/// [`OptError::InvalidSolution`] when the heuristic's schedule violates
/// Property 3 or an acquisition deadline (the construction itself always
/// satisfies Constraints 1–8).
pub fn heuristic_solution(
    system: &System,
    include_private_labels: bool,
) -> Result<LetDmaSolution, OptError> {
    let mut h =
        heuristic::construct(system, include_private_labels).ok_or(OptError::NoCommunications)?;
    h.schedule = Reorder::new(system, &h.schedule).run();
    let violations = verify(
        system,
        &h.layout,
        &h.schedule,
        VerifyOptions {
            include_private_labels,
            check_acquisition_deadlines: true,
            check_property3: true,
        },
    );
    if violations.is_empty() {
        Ok(from_heuristic(
            system,
            h,
            Objective::None,
            Resolution::Heuristic,
        ))
    } else {
        Err(OptError::InvalidSolution(violations))
    }
}

/// Builds the §VI MILP for `system` and returns the bare [`milp::Model`]
/// (for presolve inspection, differential testing, and CPLEX LP export
/// through [`milp::Model::to_lp_format`] for cross-checking with an
/// external solver).
#[must_use]
pub fn formulation_model(system: &System, config: &OptConfig) -> milp::Model {
    formulation::build(system, config).model
}

#[cfg(test)]
mod tests {
    use super::*;
    use letdma_model::{SystemBuilder, TimeNs, TransferSchedule};

    fn pair_system() -> System {
        let mut b = SystemBuilder::new(2);
        let p = b.task("p").period_ms(5).core_index(0).add().unwrap();
        let c = b.task("c").period_ms(5).core_index(1).add().unwrap();
        b.label("l").size(64).writer(p).reader(c).add().unwrap();
        b.build().unwrap()
    }

    #[test]
    fn no_communications_error() {
        let mut b = SystemBuilder::new(1);
        b.task("solo").period_ms(5).core_index(0).add().unwrap();
        let sys = b.build().unwrap();
        assert_eq!(
            Optimizer::new(&sys).run().unwrap_err(),
            OptError::NoCommunications
        );
    }

    #[test]
    fn single_pair_solves() {
        let sys = pair_system();
        let sol = Optimizer::new(&sys).run().unwrap();
        assert_eq!(sol.num_transfers(), 2);
    }

    #[test]
    fn infeasible_deadline_detected() {
        let mut sys = pair_system();
        let c = sys.task_by_name("c").unwrap().id();
        // One transfer takes at least λ_O = 13.36 µs; demand 1 µs.
        sys.set_acquisition_deadline(c, Some(TimeNs::from_us(1)));
        assert_eq!(
            Optimizer::new(&sys)
                .config(OptConfig::new().with_warm_start(false))
                .run()
                .unwrap_err(),
            OptError::Infeasible
        );
    }

    #[test]
    fn solver_error_chains_its_source() {
        let err = OptError::Solver(SolveError::Unbounded);
        assert!(err.to_string().starts_with("solver failure:"));
        let source = Error::source(&err).expect("source must be chained");
        assert_eq!(source.to_string(), SolveError::Unbounded.to_string());
    }

    #[test]
    fn milp_time_limit_folds_the_deadline_into_the_budget() {
        let secs = Duration::from_secs;
        let t0 = Instant::now();
        let deadline = t0 + secs(10);
        // No deadline: the configured budget passes through.
        assert_eq!(milp_time_limit(Some(secs(3)), None, t0), Ok(Some(secs(3))));
        assert_eq!(milp_time_limit(None, None, t0), Ok(None));
        // An expired deadline (spent exactly, or overdue) is typed.
        for now in [deadline, deadline + secs(1)] {
            assert_eq!(
                milp_time_limit(Some(secs(60)), Some(deadline), now),
                Err(OptError::DeadlineExpired)
            );
        }
        // The time remaining caps a larger budget, or stands in for none.
        assert_eq!(
            milp_time_limit(Some(secs(60)), Some(deadline), t0),
            Ok(Some(secs(10)))
        );
        assert_eq!(
            milp_time_limit(None, Some(deadline), t0),
            Ok(Some(secs(10)))
        );
        // A smaller budget wins.
        assert_eq!(
            milp_time_limit(Some(secs(2)), Some(deadline), t0),
            Ok(Some(secs(2)))
        );
        // The retry rung 8 s later halves the configured 60 s and caps it
        // by the 2 s left: not half of the first search's 10 s.
        assert_eq!(
            milp_time_limit(Some(secs(60) / 2), Some(deadline), t0 + secs(8)),
            Ok(Some(secs(2)))
        );
    }

    #[test]
    fn heuristic_only_mode() {
        let sys = pair_system();
        let sol = heuristic_solution(&sys, false).unwrap();
        assert_eq!(sol.num_transfers(), 2);
    }

    /// `system` with acquisition deadlines derived at `alpha_pct` from
    /// `schedule`, as the experiments derive them.
    fn with_alpha(mut system: System, alpha_pct: u32, schedule: &TransferSchedule) -> System {
        use letdma_analysis::{apply_gammas, derive_gammas, let_task_segments};
        let segments = let_task_segments(&system, schedule);
        let sens = derive_gammas(&system, alpha_pct, &segments).expect("gammas");
        assert!(sens.schedulable, "α = {alpha_pct}%");
        apply_gammas(&mut system, &sens);
        system
    }

    /// The four Table I objective cells: WATERS 2019 at α ∈ {0.2, 0.4} ×
    /// OBJ-DMAT / OBJ-DEL, with deadlines from the reordered heuristic as
    /// Table I derives them.
    fn waters_cases() -> Vec<(String, System, Objective)> {
        let (base, _) = waters2019::waters_system().expect("case study builds");
        let schedule = heuristic_solution(&base, false).expect("valid").schedule;
        let mut cases = Vec::new();
        for alpha_pct in [20, 40] {
            let system = with_alpha(base.clone(), alpha_pct, &schedule);
            for objective in [Objective::MinTransfers, Objective::MinDelayRatio] {
                let name = format!("WATERS α = 0.{}, {objective}", alpha_pct / 10);
                cases.push((name, system.clone(), objective));
            }
        }
        cases
    }

    /// The 60-scenario pool the `serve` benchmark draws from: corpus seed
    /// `0xDAC2_2021`, deadlines at α = 0.5 from the constructed heuristic,
    /// the objectives alternating.
    fn pool_cases() -> Vec<(String, System, Objective)> {
        waters2019::corpus::corpus(60, 0xDAC2_2021)
            .iter()
            .enumerate()
            .map(|(i, spec)| {
                let system = waters2019::gen::try_generate(&spec.config).expect("generates");
                let schedule = heuristic::construct(&system, false)
                    .expect("communications")
                    .schedule;
                let objective = if i % 2 == 0 {
                    Objective::MinTransfers
                } else {
                    Objective::MinDelayRatio
                };
                (
                    format!("pool {i}"),
                    with_alpha(system, 50, &schedule),
                    objective,
                )
            })
            .collect()
    }

    /// Solves each case's presolved root LP cold and from the projected
    /// heuristic warm start, as the search does: both reach the same
    /// objective. Returns the iterations both ways, summed over the cases.
    fn root_objectives_agree(cases: Vec<(String, System, Objective)>) -> (u64, u64) {
        use milp::simplex::{LpOutcome, SimplexSolver};
        let (mut cold_iterations, mut start_iterations) = (0, 0);
        for (name, system, objective) in cases {
            let config = OptConfig::new().with_objective(objective);
            let f = formulation::build(&system, &config);
            let (h, valid) = run_heuristic(
                &system,
                &config,
                reorder_goal(&system, &config),
                verify_options(&config),
            );
            assert!(valid, "{name}: the heuristic must seed the search");
            let warm = warm_start_assignment(&system, &f, &h.expect("valid"))
                .unwrap_or_else(|| panic!("{name}: no warm start"));
            let red = milp::presolve::presolve(&f.model, milp::INTEGRALITY_TOL)
                .unwrap_or_else(|_| panic!("{name}: presolve infeasible"));
            let point = red
                .lift
                .project_values(&warm, milp::INTEGRALITY_TOL)
                .unwrap_or_else(|| panic!("{name}: the warm start contradicts a fixing"));
            assert!(red.model.is_feasible(&point, 1e-6), "{name}");

            let mut cold = SimplexSolver::from_model(&red.model);
            let cold_outcome = cold.solve();
            let mut lp = SimplexSolver::from_model(&red.model);
            let outcome = lp
                .solve_from_point(&point)
                .unwrap_or_else(|| panic!("{name}: the incumbent start must settle"));
            match (&cold_outcome, &outcome) {
                (LpOutcome::Optimal { objective: z, .. }, LpOutcome::Optimal { objective, .. }) => {
                    assert!(
                        (objective - z).abs() <= 1e-6 * (1.0 + z.abs()),
                        "{name}: root objective {objective} from the incumbent vs {z} cold"
                    )
                }
                _ => panic!("{name}: cold {cold_outcome:?}, from the incumbent {outcome:?}"),
            }
            cold_iterations += cold.work().iterations;
            start_iterations += lp.work().iterations;
        }
        (cold_iterations, start_iterations)
    }

    /// The four Table I objective cells: same root objective both ways,
    /// and fewer iterations from the incumbent in total.
    #[test]
    fn waters_root_from_incumbent_matches_cold_root() {
        let (cold, start) = root_objectives_agree(waters_cases());
        assert!(
            start < cold,
            "{start} iterations from the incumbent, {cold} cold"
        );
    }

    /// The 60 cold misses of the `serve` benchmark pool, likewise.
    #[test]
    fn serve_pool_root_from_incumbent_matches_cold_root() {
        let (cold, start) = root_objectives_agree(pool_cases());
        assert!(
            start < cold,
            "{start} iterations from the incumbent, {cold} cold"
        );
    }

    #[test]
    fn lp_export_contains_constraint_families() {
        let sys = pair_system();
        let lp = formulation_model(&sys, &OptConfig::default()).to_lp_format();
        for family in ["c1_", "c4succ", "c5u", "c8_", "c10_"] {
            assert!(lp.contains(family), "missing constraint family {family}");
        }
    }
}
