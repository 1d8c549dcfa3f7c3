//! # letdma-bench
//!
//! The library behind the `repro` binary that regenerates every table and
//! figure of the paper's evaluation (§VII):
//!
//! * **Fig. 1** — the worked scheduling example ([`Session::fig1`]);
//! * **Fig. 2** — per-task latency ratios of the proposed approach against
//!   Giotto-CPU / Giotto-DMA-A / Giotto-DMA-B on the WATERS 2019 case
//!   study, for α ∈ {0.2, 0.4} × {NO-OBJ, OBJ-DMAT, OBJ-DEL}
//!   ([`Session::fig2`]);
//! * **Table I** — MILP running times and DMA-transfer counts
//!   ([`Session::table1`]);
//! * the **α sensitivity sweep** described in the §VII text
//!   ([`Session::alpha_sweep`]);
//! * the **MILP benchmark** ([`milp_bench`]) behind
//!   `repro bench-milp` and the committed `BENCH_milp.json` artifact;
//! * the **scenario-corpus campaign** ([`corpus_bench`]) behind
//!   `repro corpus` and the committed `BENCH_corpus.json` artifact —
//!   every generated scenario solved end-to-end (heuristic → MILP →
//!   conformance) with the protocol variants compared per scenario;
//! * the **solve-service smoke** ([`serve_smoke`]) behind `repro serve`.
//!
//! Both committed artifacts carry deterministic counts only; timing is
//! measured by the separate `perfbench/` package, with repeated samples.
//!
//! All experiments run through one [`Session`], which owns the solve
//! budget, the thread count and the per-scenario [`SolverStats`] shards
//! (the `repro --stats` view). Scenarios are solved one at a time; the
//! thread count sizes the MILP node pool inside each solve, so results
//! are bit-identical at any thread count.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod corpus_bench;
pub mod fault_smoke;
pub mod milp_bench;
pub mod serve_smoke;

use std::time::{Duration, Instant};

use letdma::core::SolverStats;

use letdma::analysis::{apply_gammas, derive_gammas, let_task_segments};
use letdma::model::System;
use letdma::opt::{
    heuristic_solution, LetDmaSolution, Objective, OptConfig, OptError, Optimizer, Provenance,
};
use letdma::sim::{simulate, Approach, SimConfig, SimReport};
use letdma::waters::{waters_system, WatersTasks};

/// The WATERS system with acquisition deadlines derived for one `α`.
///
/// # Panics
///
/// Panics if the case study cannot be built or is unschedulable at this `α`
/// (callers pick α values the paper shows to be schedulable).
#[must_use]
pub fn waters_with_alpha(alpha_pct: u32) -> (System, WatersTasks) {
    let (mut system, tasks) = waters_system().expect("case study builds");
    let warm = heuristic_solution(&system, false).expect("heuristic feasible");
    let segments = let_task_segments(&system, &warm.schedule);
    let sens = derive_gammas(&system, alpha_pct, &segments).expect("base schedulable");
    assert!(
        sens.schedulable,
        "α = {alpha_pct}% must be schedulable for this experiment"
    );
    apply_gammas(&mut system, &sens);
    (system, tasks)
}

/// Simulates every protocol variant (the four §VII approaches plus the
/// triple-buffered pipeline); returns reports keyed like Fig. 2.
///
/// # Panics
///
/// Panics if the schedule is inconsistent with the system (cannot happen
/// for schedules produced by `letdma-opt` on the same system).
#[must_use]
pub fn simulate_all(system: &System, solution: &LetDmaSolution) -> ApproachReports {
    let run = |approach: Approach, schedule: Option<&_>| {
        simulate(system, schedule, &SimConfig::for_approach(approach)).expect("consistent")
    };
    ApproachReports {
        proposed: run(Approach::ProposedDma, Some(&solution.schedule)),
        giotto_cpu: run(Approach::GiottoCpu, None),
        giotto_dma_a: run(Approach::GiottoDmaA, None),
        giotto_dma_b: run(Approach::GiottoDmaB, Some(&solution.schedule)),
        triple_buffered: run(Approach::TripleBuffered, Some(&solution.schedule)),
    }
}

/// Simulation reports of every protocol variant, one per [`Approach`].
#[derive(Debug, Clone)]
pub struct ApproachReports {
    /// The proposed protocol.
    pub proposed: SimReport,
    /// Giotto with CPU copies.
    pub giotto_cpu: SimReport,
    /// Giotto with one DMA transfer per label.
    pub giotto_dma_a: SimReport,
    /// Giotto with grouped DMA transfers.
    pub giotto_dma_b: SimReport,
    /// The triple-buffered work/pre-fetch/commit pipeline.
    pub triple_buffered: SimReport,
}

/// A benchmark session: one budget/thread configuration plus the solver
/// statistics of every experiment run through it.
///
/// Runners borrow the session mutably and append one named
/// [`SolverStats`] shard per scenario, so a `repro all` run accumulates
/// the statistics of every figure and table in a single place:
///
/// ```no_run
/// use std::time::Duration;
/// use letdma_bench::Session;
///
/// let mut session = Session::new()
///     .budget(Duration::from_secs(30))
///     .threads(4);
/// println!("{}", session.fig1());
/// println!("{}", letdma_bench::table1::render(&session.table1()));
/// print!("{}", session.aggregate().render());
/// ```
#[derive(Debug)]
#[must_use]
pub struct Session {
    budget: Duration,
    threads: Option<usize>,
    measure_root_gap: bool,
    shards: Vec<(String, SolverStats)>,
}

impl Default for Session {
    fn default() -> Self {
        Self {
            budget: Duration::from_secs(30),
            threads: None,
            measure_root_gap: false,
            shards: Vec::new(),
        }
    }
}

impl Session {
    /// A session with a 30 s budget and the thread count taken from
    /// `LETDMA_THREADS` (default: sequential).
    pub fn new() -> Self {
        Self::default()
    }

    /// Wall-clock budget of each MILP solve (the paper used a 1 h CPLEX
    /// timeout on a 40-core Xeon).
    pub fn budget(mut self, budget: Duration) -> Self {
        self.budget = budget;
        self
    }

    /// Explicit worker-thread count of the MILP node pool in every solve.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads.max(1));
        self
    }

    /// Also measure the presolve root-LP gap of every solve
    /// ([`letdma::core::Counter::RootGapBps`]); `repro --stats` turns this
    /// on so the per-scenario shard report shows the tightening. Costs one
    /// extra root LP per solve, outside the instrumented search counters.
    pub fn measure_root_gap(mut self, measure: bool) -> Self {
        self.measure_root_gap = measure;
        self
    }

    /// The per-scenario instrument shards collected so far, in run order.
    #[must_use]
    pub fn shards(&self) -> &[(String, SolverStats)] {
        &self.shards
    }

    /// All shards merged into one collector (counters and phase durations
    /// sum across scenarios — total work, not wall clock).
    #[must_use]
    pub fn aggregate(&self) -> SolverStats {
        let mut total = SolverStats::new();
        for (_, shard) in &self.shards {
            total.absorb(shard);
        }
        total
    }

    /// Runs the Fig. 1 example; returns the rendered report.
    ///
    /// # Panics
    ///
    /// Panics if the fixed example unexpectedly fails to solve.
    pub fn fig1(&mut self) -> String {
        let system = fig1::example_system();
        let (result, _) = self.solve("fig1".to_owned(), &system, Objective::MinDelayRatio);
        let solution = result.expect("Fig. 1 example solves");
        fig1::render(&system, &solution)
    }

    /// Produces the six Fig. 2 panels (α ∈ {20, 40} × three objectives).
    ///
    /// # Panics
    ///
    /// Panics if the case study cannot be optimized within the budget.
    pub fn fig2(&mut self) -> Vec<fig2::Panel> {
        let mut panels = Vec::new();
        for alpha_pct in [20u32, 40] {
            for objective in [
                Objective::None,
                Objective::MinTransfers,
                Objective::MinDelayRatio,
            ] {
                let (system, tasks) = waters_with_alpha(alpha_pct);
                let name = format!("fig2/α=0.{}/{objective}", alpha_pct / 10);
                let (result, _) = self.solve(name, &system, objective);
                let solution = result.expect("feasible within budget");
                let four = simulate_all(&system, &solution);
                let rows = tasks
                    .figure2_order()
                    .iter()
                    .map(|&task| {
                        let p = four.proposed.latency(task).as_ns() as f64;
                        let r = |b: u64| if b == 0 { 1.0 } else { p / b as f64 };
                        (
                            system.task(task).name().to_owned(),
                            r(four.giotto_cpu.latency(task).as_ns()),
                            r(four.giotto_dma_a.latency(task).as_ns()),
                            r(four.giotto_dma_b.latency(task).as_ns()),
                        )
                    })
                    .collect();
                panels.push(fig2::Panel {
                    alpha_pct,
                    objective,
                    rows,
                    transfers: solution.num_transfers(),
                });
            }
        }
        panels
    }

    /// Runs the six cells of Table I ({NO-OBJ, OBJ-DMAT, OBJ-DEL} × α ∈
    /// {0.2, 0.4}), one cell at a time. Each cell's *running time*
    /// measures its full pipeline (formulation, heuristic, search,
    /// validation) while no other cell runs.
    ///
    /// # Panics
    ///
    /// Panics when a cell is infeasible (the paper's α values are
    /// feasible).
    pub fn table1(&mut self) -> Vec<table1::Cell> {
        let mut cells = Vec::new();
        for objective in [
            Objective::None,
            Objective::MinTransfers,
            Objective::MinDelayRatio,
        ] {
            for alpha_pct in [20u32, 40] {
                let (system, _) = waters_with_alpha(alpha_pct);
                let name = format!("table1/α=0.{}/{objective}", alpha_pct / 10);
                let (result, running_time) = self.solve(name, &system, objective);
                let solution = result.expect("feasible");
                let timed_out = match &solution.provenance {
                    Provenance::Heuristic => true,
                    Provenance::Milp { status, .. } => {
                        *status == letdma::milp::SolveStatus::Feasible
                    }
                };
                cells.push(table1::Cell {
                    alpha_pct,
                    objective,
                    running_time,
                    transfers: solution.num_transfers(),
                    timed_out,
                });
            }
        }
        cells
    }

    /// Sweeps α ∈ {10, 20, 30, 40, 50} as in §VII's text, solving the
    /// schedulable points.
    ///
    /// # Panics
    ///
    /// Panics if the base case study is unschedulable (never happens).
    pub fn alpha_sweep(&mut self) -> Vec<alpha_sweep::Point> {
        let (base, _) = waters_system().expect("case study builds");
        let warm = heuristic_solution(&base, false).expect("heuristic feasible");
        let segments = let_task_segments(&base, &warm.schedule);
        let mut points = Vec::new();
        for alpha_pct in [10u32, 20, 30, 40, 50] {
            let (mut system, _) = waters_system().expect("builds");
            let sens = derive_gammas(&system, alpha_pct, &segments).expect("base schedulable");
            if !sens.schedulable {
                points.push(alpha_sweep::Point {
                    alpha_pct,
                    schedulable: false,
                    solvable: false,
                });
                continue;
            }
            apply_gammas(&mut system, &sens);
            let name = format!("alpha-sweep/α=0.{}", alpha_pct / 10);
            let (result, _) = self.solve(name, &system, Objective::None);
            points.push(alpha_sweep::Point {
                alpha_pct,
                schedulable: true,
                solvable: result.is_ok(),
            });
        }
        points
    }

    /// Solves one scenario under the session's budget and thread count,
    /// records its instrument shard under `name`, and returns the result
    /// with the wall clock of this one run.
    fn solve(
        &mut self,
        name: String,
        system: &System,
        objective: Objective,
    ) -> (Result<LetDmaSolution, OptError>, Duration) {
        let mut config = OptConfig::new()
            .with_objective(objective)
            .with_time_limit(self.budget)
            .with_measure_root_gap(self.measure_root_gap);
        if let Some(n) = self.threads {
            config = config.with_threads(n);
        }
        let mut stats = SolverStats::new();
        let t0 = Instant::now();
        let result = Optimizer::new(system)
            .config(config)
            .instrument(&mut stats)
            .run();
        let elapsed = t0.elapsed();
        self.shards.push((name, stats));
        (result, elapsed)
    }
}

/// Fig. 1 regeneration.
pub mod fig1 {
    use super::{simulate, Approach, LetDmaSolution, SimConfig, System};
    use letdma::model::SystemBuilder;

    /// The fixed two-core example of Fig. 1.
    pub(crate) fn example_system() -> System {
        let mut b = SystemBuilder::new(2);
        let t1 = b.task("tau1").period_ms(5).core_index(0).add().unwrap();
        let t3 = b.task("tau3").period_ms(10).core_index(0).add().unwrap();
        let t5 = b.task("tau5").period_ms(10).core_index(0).add().unwrap();
        let t2 = b.task("tau2").period_ms(5).core_index(1).add().unwrap();
        let t4 = b.task("tau4").period_ms(10).core_index(1).add().unwrap();
        let t6 = b.task("tau6").period_ms(10).core_index(1).add().unwrap();
        b.label("l1").size(256).writer(t1).reader(t2).add().unwrap();
        b.label("l2")
            .size(48 * 1024)
            .writer(t3)
            .reader(t4)
            .add()
            .unwrap();
        b.label("l3")
            .size(48 * 1024)
            .writer(t5)
            .reader(t6)
            .add()
            .unwrap();
        b.build().unwrap()
    }

    /// Simulates the solved example against the Giotto ordering and renders
    /// the comparison table.
    pub(crate) fn render(system: &System, solution: &LetDmaSolution) -> String {
        let proposed = simulate(
            system,
            Some(&solution.schedule),
            &SimConfig::for_approach(Approach::ProposedDma),
        )
        .unwrap();
        let giotto =
            simulate(system, None, &SimConfig::for_approach(Approach::GiottoDmaA)).unwrap();
        let mut out = String::new();
        out.push_str("Fig. 1 — proposed reordering vs Giotto ordering\n");
        out.push_str("task   proposed λ      Giotto λ        ratio\n");
        for task in system.tasks() {
            let p = proposed.latency(task.id());
            let g = giotto.latency(task.id());
            let r = p.as_ns() as f64 / g.as_ns().max(1) as f64;
            out.push_str(&format!(
                "{:<6} {:<15} {:<15} {:.3}\n",
                task.name(),
                p.to_string(),
                g.to_string(),
                r
            ));
        }
        out
    }
}

/// Fig. 2 regeneration.
pub mod fig2 {
    use super::Objective;

    /// One panel of Fig. 2: per-task ratios against the three baselines.
    #[derive(Debug, Clone)]
    pub struct Panel {
        /// α in percent (20 or 40 in the paper).
        pub alpha_pct: u32,
        /// The objective variant of this panel.
        pub objective: Objective,
        /// `(task name, vs CPU, vs DMA-A, vs DMA-B)`.
        pub rows: Vec<(String, f64, f64, f64)>,
        /// Number of DMA transfers of the optimized solution.
        pub transfers: usize,
    }

    /// Renders panels as text tables.
    #[must_use]
    pub fn render(panels: &[Panel]) -> String {
        let mut out = String::new();
        for p in panels {
            out.push_str(&format!(
                "\nFig. 2 panel: α = 0.{}, {}  ({} transfers)\n",
                p.alpha_pct / 10,
                p.objective,
                p.transfers
            ));
            out.push_str("task   vs Giotto-CPU  vs Giotto-DMA-A  vs Giotto-DMA-B\n");
            for (name, cpu, a, b) in &p.rows {
                out.push_str(&format!("{name:<6} {cpu:>13.4} {a:>16.4} {b:>16.4}\n"));
            }
        }
        out
    }
}

/// Table I regeneration.
pub mod table1 {
    use super::{Duration, Objective};

    /// One cell of Table I.
    #[derive(Debug, Clone)]
    pub struct Cell {
        /// α in percent.
        pub alpha_pct: u32,
        /// Objective variant.
        pub objective: Objective,
        /// Observed MILP running time.
        pub running_time: Duration,
        /// Number of DMA transfers of the returned solution.
        pub transfers: usize,
        /// Whether the budget expired (the paper's OBJ-DMAT row also
        /// reports the timeout value).
        pub timed_out: bool,
    }

    /// Renders the cells in the layout of Table I.
    #[must_use]
    pub fn render(cells: &[Cell]) -> String {
        let mut out = String::new();
        out.push_str("Table I — MILP running times and # DMA transfers\n");
        out.push_str("Obj. Function | time α=0.2     | time α=0.4     | #DMA α=0.2 | #DMA α=0.4\n");
        for objective in [
            Objective::None,
            Objective::MinTransfers,
            Objective::MinDelayRatio,
        ] {
            let row: Vec<&Cell> = cells.iter().filter(|c| c.objective == objective).collect();
            let cell = |alpha: u32| -> (&Cell, String) {
                let c = row
                    .iter()
                    .find(|c| c.alpha_pct == alpha)
                    .expect("cell present");
                let mut t = format!("{:.2?}", c.running_time);
                if c.timed_out {
                    t.push('*');
                }
                (*c, t)
            };
            let (c20, t20) = cell(20);
            let (c40, t40) = cell(40);
            out.push_str(&format!(
                "{:<13} | {:<14} | {:<14} | {:<10} | {:<10}\n",
                objective.to_string(),
                t20,
                t40,
                c20.transfers,
                c40.transfers
            ));
        }
        out.push_str(
            "(*) budget expired — best feasible solution reported, as the paper does for OBJ-DMAT\n",
        );
        out
    }
}

/// The α feasibility sweep described in §VII's text.
pub mod alpha_sweep {

    /// Outcome per α (percent).
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct Point {
        /// α in percent.
        pub alpha_pct: u32,
        /// γ-assignment keeps the task set schedulable.
        pub schedulable: bool,
        /// The MILP (or heuristic fallback) found a feasible mapping.
        pub solvable: bool,
    }

    /// Renders the sweep.
    #[must_use]
    pub fn render(points: &[Point]) -> String {
        let mut out = String::from("α sweep (feasibility of the sensitivity assignment)\n");
        for p in points {
            out.push_str(&format!(
                "α = 0.{}: schedulable = {}, mapping found = {}\n",
                p.alpha_pct / 10,
                p.schedulable,
                p.solvable
            ));
        }
        out
    }
}
