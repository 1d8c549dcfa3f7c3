//! The MILP benchmark behind `repro bench-milp` and the committed
//! `BENCH_milp.json` baseline.
//!
//! Each Table I scenario ({NO-OBJ, OBJ-DMAT, OBJ-DEL} × α ∈ {0.2, 0.4})
//! is solved once in the default configuration under a *node budget* with
//! no wall-clock limit, so the search trajectory and every work counter
//! are deterministic; only the wall clocks vary between runs.
//!
//! Per scenario the report (schema [`SCHEMA`]) records:
//!
//! * `solve` — nodes, simplex iterations with their phase-1 share, the
//!   pipeline wall clock and its `time_breakdown` (factorize / solve /
//!   pricing, the solver's `simplex-*` phase durations);
//! * `presolve` — the reductions and the root-gap tightening
//!   ([`Counter::RootGapBps`]);
//! * `reuse` — the scenario solved twice through one [`prepare`]d entry:
//!   the second run imports the first run's optimal root basis and skips
//!   phase 1 at the root ([`Counter::Phase1IterationsSaved`]);
//! * `wall_clock_speedup` — the `--baseline` file's wall clock over this
//!   run's, `null` without a baseline.
//!
//! DESIGN.md §"Removed: value-free dual re-solves and the crash basis"
//! records what earlier schemas measured (the warm/cold split of
//! `/1`–`/4` and the crash A/B of `/4`) and why those blocks are gone.

use std::time::{Duration, Instant};

use letdma::core::{Counter, SolverStats};
use letdma::opt::{prepare, Objective, OptConfig, Optimizer};

use crate::json::Json;
use crate::waters_with_alpha;

/// Where the simplex wall clock of one run went, accumulated over every
/// node LP (the `simplex-factorize` / `simplex-solve` / `simplex-pricing`
/// phase durations the solver reports). Timing-dependent, like
/// `wall_clock`.
#[derive(Debug, Clone, Copy, Default)]
pub struct TimeBreakdown {
    /// Basis refactorizations (LU rebuilds / Gauss-Jordan inversions).
    pub factorize: Duration,
    /// FTRAN/BTRAN solves and pivot updates.
    pub solve: Duration,
    /// Reduced-cost pricing scans.
    pub pricing: Duration,
}

impl TimeBreakdown {
    fn from_stats(stats: &SolverStats) -> Self {
        let phase = |name: &str| {
            stats
                .phases()
                .iter()
                .find(|(p, ..)| *p == name)
                .map_or(Duration::ZERO, |&(_, d, _)| d)
        };
        Self {
            factorize: phase("simplex-factorize"),
            solve: phase("simplex-solve"),
            pricing: phase("simplex-pricing"),
        }
    }

    fn to_json(self) -> Json {
        let ms = |d: Duration| Json::Float(d.as_secs_f64() * 1e3);
        Json::obj(vec![
            ("factorize_ms", ms(self.factorize)),
            ("solve_ms", ms(self.solve)),
            ("pricing_ms", ms(self.pricing)),
        ])
    }
}

/// Solver counters of one scenario's default-configuration run.
#[derive(Debug, Clone, Copy, Default)]
pub struct SolveReport {
    /// Branch-and-bound nodes processed.
    pub nodes: u64,
    /// Simplex iterations (phase 1 + phase 2, all node LPs).
    pub simplex_iterations: u64,
    /// The phase-1 share of `simplex_iterations`: pivots spent driving
    /// artificial variables out of the basis before any optimization.
    pub phase1_iterations: u64,
    /// Wall clock of the full pipeline (heuristic + formulation + search +
    /// validation). Timing-dependent; everything else here is
    /// deterministic.
    pub wall_clock: Duration,
    /// Simplex wall-clock split (factorize / solve / pricing).
    pub time_breakdown: TimeBreakdown,
}

impl SolveReport {
    fn from_stats(stats: &SolverStats, wall_clock: Duration) -> Self {
        Self {
            nodes: stats.counter(Counter::Nodes),
            simplex_iterations: stats.counter(Counter::SimplexIterations),
            phase1_iterations: stats.counter(Counter::Phase1Iterations),
            wall_clock,
            time_breakdown: TimeBreakdown::from_stats(stats),
        }
    }

    fn to_json(self) -> Json {
        Json::obj(vec![
            ("nodes", Json::Int(self.nodes as i64)),
            (
                "simplex_iterations",
                Json::Int(self.simplex_iterations as i64),
            ),
            (
                "phase1_iterations",
                Json::Int(self.phase1_iterations as i64),
            ),
            (
                "wall_clock_ms",
                Json::Float(self.wall_clock.as_secs_f64() * 1e3),
            ),
            ("time_breakdown", self.time_breakdown.to_json()),
        ])
    }
}

/// What presolve did to one scenario's model, read off the run's
/// counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct PresolveReport {
    /// Rows eliminated as redundant ([`Counter::PresolveRowsDropped`]).
    pub rows_dropped: u64,
    /// Variables fixed and substituted out ([`Counter::PresolveColsFixed`]).
    pub cols_fixed: u64,
    /// Big-M coefficients strengthened ([`Counter::CoeffsTightened`]).
    pub coeffs_tightened: u64,
    /// Root-LP tightening in basis points ([`Counter::RootGapBps`]; 0 when
    /// presolve leaves the root bound unchanged).
    pub root_gap_bps: u64,
}

impl PresolveReport {
    fn from_stats(stats: &SolverStats) -> Self {
        Self {
            rows_dropped: stats.counter(Counter::PresolveRowsDropped),
            cols_fixed: stats.counter(Counter::PresolveColsFixed),
            coeffs_tightened: stats.counter(Counter::CoeffsTightened),
            root_gap_bps: stats.counter(Counter::RootGapBps),
        }
    }

    fn to_json(self) -> Json {
        Json::obj(vec![
            ("rows_dropped", Json::Int(self.rows_dropped as i64)),
            ("cols_fixed", Json::Int(self.cols_fixed as i64)),
            ("coeffs_tightened", Json::Int(self.coeffs_tightened as i64)),
            ("root_gap_bps", Json::Int(self.root_gap_bps as i64)),
        ])
    }
}

/// The cross-scenario root-reuse measurement of one scenario: the
/// default configuration solved twice through one [`prepare`]d cache entry. The
/// first run donates its optimal root basis; the second imports it and
/// skips phase 1 at the root ([`Counter::CrossScenarioWarmStarts`]).
#[derive(Debug, Clone, Copy, Default)]
pub struct ReuseReport {
    /// Root imports that landed in the second run (1 when the donor basis
    /// transferred, 0 when it fell back cold).
    pub cross_warm_starts: u64,
    /// The donor phase-1 bill the import skipped
    /// ([`Counter::Phase1IterationsSaved`]).
    pub phase1_iterations_saved: u64,
    /// Phase-1 iterations the importing run still paid (child LPs; 0 at
    /// the root when the import landed).
    pub import_phase1_iterations: u64,
}

impl ReuseReport {
    fn to_json(self) -> Json {
        Json::obj(vec![
            (
                "cross_warm_starts",
                Json::Int(self.cross_warm_starts as i64),
            ),
            (
                "phase1_iterations_saved",
                Json::Int(self.phase1_iterations_saved as i64),
            ),
            (
                "import_phase1_iterations",
                Json::Int(self.import_phase1_iterations as i64),
            ),
        ])
    }
}

/// One Table I scenario.
#[derive(Debug, Clone)]
pub struct ScenarioReport {
    /// Scenario name, e.g. `table1/alpha=0.2/OBJ-DMAT`.
    pub name: String,
    /// α in percent.
    pub alpha_pct: u32,
    /// Objective variant.
    pub objective: Objective,
    /// Counters of the default-configuration run.
    pub solve: SolveReport,
    /// Presolve reductions and root-gap tightening for this scenario.
    pub presolve: PresolveReport,
    /// The donate-then-import root-reuse measurement.
    pub reuse: ReuseReport,
    /// Baseline wall clock divided by this run's wall clock
    /// (> 1 means this run was faster); `None` without a baseline.
    /// Timing-dependent, like the wall clocks it is derived from.
    pub wall_clock_speedup: Option<f64>,
}

impl ScenarioReport {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("name", Json::str(self.name.clone())),
            ("alpha_pct", Json::Int(i64::from(self.alpha_pct))),
            ("objective", Json::str(self.objective.to_string())),
            ("solve", self.solve.to_json()),
            ("presolve", self.presolve.to_json()),
            ("reuse", self.reuse.to_json()),
            (
                "wall_clock_speedup",
                self.wall_clock_speedup.map_or(Json::Null, Json::Float),
            ),
        ])
    }
}

/// The benchmark over the six Table I scenarios.
#[derive(Debug, Clone)]
pub struct MilpBench {
    /// Node budget each solve ran under (the deterministic stopping rule).
    pub node_limit: u64,
    /// Per-scenario reports, in Table I order.
    pub scenarios: Vec<ScenarioReport>,
}

impl MilpBench {
    /// Summed simplex iterations across scenarios.
    #[must_use]
    pub fn total_iterations(&self) -> u64 {
        self.scenarios
            .iter()
            .map(|s| s.solve.simplex_iterations)
            .sum()
    }

    /// Summed phase-1 iterations skipped by the root-reuse imports across
    /// scenarios — the cross-scenario warm-start payoff.
    #[must_use]
    pub fn phase1_iterations_saved_total(&self) -> u64 {
        self.scenarios
            .iter()
            .map(|s| s.reuse.phase1_iterations_saved)
            .sum()
    }

    /// The `BENCH_milp.json` value (schema documented in DESIGN.md
    /// §"Removed: value-free dual re-solves and the crash basis").
    #[must_use]
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("schema", Json::str(SCHEMA)),
            ("generated_by", Json::str("repro bench-milp")),
            ("node_limit", Json::Int(self.node_limit as i64)),
            (
                "scenarios",
                Json::Arr(self.scenarios.iter().map(ScenarioReport::to_json).collect()),
            ),
            (
                "totals",
                Json::obj(vec![
                    (
                        "simplex_iterations",
                        Json::Int(self.total_iterations() as i64),
                    ),
                    (
                        "phase1_iterations_saved_total",
                        Json::Int(self.phase1_iterations_saved_total() as i64),
                    ),
                ]),
            ),
        ])
    }

    /// Human-readable summary table for the terminal.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "MILP benchmark — Table I scenarios, node budget {}\n",
            self.node_limit
        ));
        out.push_str(
            "scenario                        nodes   simplex iters   phase-1   root-gap  wall clock (speedup)  reuse-saved\n",
        );
        for s in &self.scenarios {
            let speedup = s
                .wall_clock_speedup
                .map_or_else(|| "no baseline".into(), |x| format!("{x:.2}x"));
            out.push_str(&format!(
                "{:<30} {:>6} {:>15} {:>9} {:>6}bps  {:>9.2?} ({speedup})  {:>11}\n",
                s.name,
                s.solve.nodes,
                s.solve.simplex_iterations,
                s.solve.phase1_iterations,
                s.presolve.root_gap_bps,
                s.solve.wall_clock,
                s.reuse.phase1_iterations_saved,
            ));
        }
        out.push_str(&format!(
            "total: {} simplex iterations; {} phase-1 iterations skipped by root reuse\n",
            self.total_iterations(),
            self.phase1_iterations_saved_total(),
        ));
        out
    }
}

/// Schema identifier of `BENCH_milp.json`; bump on breaking layout change.
/// `/2` added per-scenario `presolve` counters and the `warm_fathoms_delta`
/// comparison against a prior baseline file. `/3` added the per-mode
/// `time_breakdown` block (factorize / solve / pricing wall clock) and the
/// per-scenario `wall_clock_speedup` against the baseline file. `/4` added
/// the per-mode `phase1_iterations` split and the per-scenario `crash` and
/// `reuse` blocks (plus `phase1_iterations_saved_total` in `totals`).
/// `/5` keeps one run per scenario (the default configuration, under
/// `solve`) and drops the cold run, the crash block and the warm-fathom
/// fields.
pub const SCHEMA: &str = "letdma-bench-milp/5";

/// Finds `scenarios[name]` in a prior baseline file.
fn baseline_scenario<'a>(baseline: &'a Json, name: &str) -> Option<&'a Json> {
    let Json::Arr(scenarios) = baseline.get("scenarios")? else {
        return None;
    };
    scenarios
        .iter()
        .find(|s| matches!(s.get("name"), Some(Json::Str(n)) if n == name))
}

/// Looks up a scenario's wall clock in a prior baseline file: under
/// `solve` (`/5`), else under `warm` (the default configuration of
/// `/3`–`/4`).
fn baseline_wall_clock_ms(baseline: &Json, name: &str) -> Option<f64> {
    let scenario = baseline_scenario(baseline, name)?;
    let run = scenario.get("solve").or_else(|| scenario.get("warm"))?;
    match run.get("wall_clock_ms")? {
        Json::Float(ms) => Some(*ms),
        Json::Int(ms) => Some(*ms as f64),
        _ => None,
    }
}

/// Runs the benchmark: the six Table I scenarios, each under
/// `node_limit` nodes with no wall-clock limit and the presolve root-gap
/// measurement on (one extra LP outside the iteration counters), then a
/// donate-then-import pair through one prepared cache entry for the
/// `reuse` block.
///
/// `baseline` is a previously written `BENCH_milp.json` value; when
/// given, each scenario's `wall_clock_speedup` compares against it.
///
/// # Panics
///
/// Panics if a scenario fails to produce a solution (cannot happen: the
/// constructive heuristic is feasible on the WATERS case study, so a
/// node-limited search always has the heuristic fallback).
#[must_use]
pub fn run(node_limit: u64, baseline: Option<&Json>) -> MilpBench {
    let mut scenarios = Vec::new();
    for objective in [
        Objective::None,
        Objective::MinTransfers,
        Objective::MinDelayRatio,
    ] {
        for alpha_pct in [20u32, 40] {
            let (system, _) = waters_with_alpha(alpha_pct);
            let config = OptConfig::new()
                .with_objective(objective)
                .without_time_limit()
                .with_node_limit(node_limit)
                .with_threads(1);

            let mut stats = SolverStats::new();
            let started = Instant::now();
            let result = Optimizer::new(&system)
                .config(config.clone().with_measure_root_gap(true))
                .instrument(&mut stats)
                .run();
            let wall_clock = started.elapsed();
            assert!(result.is_ok(), "scenario must solve: {result:?}");
            let solve = SolveReport::from_stats(&stats, wall_clock);

            // Solve the scenario twice through one prepared cache entry:
            // the first run donates its optimal root basis, the second
            // imports it and skips the root's phase 1 entirely.
            let prepared = prepare(&system, &config);
            let donate = Optimizer::new(&system)
                .config(config.clone())
                .run_prepared(&prepared);
            assert!(donate.is_ok(), "reuse donor must solve: {donate:?}");
            let mut import_stats = SolverStats::new();
            let import = Optimizer::new(&system)
                .config(config)
                .instrument(&mut import_stats)
                .run_prepared(&prepared);
            assert!(import.is_ok(), "reuse import must solve: {import:?}");
            let reuse = ReuseReport {
                cross_warm_starts: import_stats.counter(Counter::CrossScenarioWarmStarts),
                phase1_iterations_saved: import_stats.counter(Counter::Phase1IterationsSaved),
                import_phase1_iterations: import_stats.counter(Counter::Phase1Iterations),
            };

            let name = format!("table1/alpha=0.{}/{objective}", alpha_pct / 10);
            let wall_clock_speedup = baseline
                .and_then(|b| baseline_wall_clock_ms(b, &name))
                .map(|old_ms| old_ms / (solve.wall_clock.as_secs_f64() * 1e3).max(1e-6));
            scenarios.push(ScenarioReport {
                name,
                alpha_pct,
                objective,
                solve,
                presolve: PresolveReport::from_stats(&stats),
                reuse,
                wall_clock_speedup,
            });
        }
    }
    MilpBench {
        node_limit,
        scenarios,
    }
}

/// Checks that a rendered benchmark value matches the
/// [`SCHEMA`] layout; returns the first problem found.
///
/// This runs on every `repro bench-milp` invocation before the file is
/// written (and in the CI smoke run), so a drifting emitter fails loudly
/// instead of silently producing an unparseable baseline.
///
/// # Errors
///
/// A description of the first missing/ill-typed field.
pub fn validate(value: &Json) -> Result<(), String> {
    let need = |v: &Json, key: &str| -> Result<Json, String> {
        v.get(key).cloned().ok_or(format!("missing key `{key}`"))
    };
    match need(value, "schema")? {
        Json::Str(s) if s == SCHEMA => {}
        other => return Err(format!("bad schema tag {other:?}")),
    }
    if !matches!(need(value, "node_limit")?, Json::Int(n) if n > 0) {
        return Err("node_limit must be a positive integer".into());
    }
    let Json::Arr(scenarios) = need(value, "scenarios")? else {
        return Err("scenarios must be an array".into());
    };
    if scenarios.is_empty() {
        return Err("scenarios must be non-empty".into());
    }
    for s in &scenarios {
        for key in ["name", "objective"] {
            if !matches!(need(s, key)?, Json::Str(_)) {
                return Err(format!("scenario `{key}` must be a string"));
            }
        }
        if !matches!(need(s, "alpha_pct")?, Json::Int(_)) {
            return Err("scenario alpha_pct must be an integer".into());
        }
        let p = need(s, "presolve")?;
        for key in [
            "rows_dropped",
            "cols_fixed",
            "coeffs_tightened",
            "root_gap_bps",
        ] {
            if !matches!(need(&p, key)?, Json::Int(_)) {
                return Err(format!("presolve.{key} must be an integer"));
            }
        }
        let r = need(s, "reuse")?;
        for key in [
            "cross_warm_starts",
            "phase1_iterations_saved",
            "import_phase1_iterations",
        ] {
            if !matches!(need(&r, key)?, Json::Int(_)) {
                return Err(format!("reuse.{key} must be an integer"));
            }
        }
        if !matches!(need(s, "wall_clock_speedup")?, Json::Float(_) | Json::Null) {
            return Err("scenario wall_clock_speedup must be a number or null".into());
        }
        let m = need(s, "solve")?;
        for key in ["nodes", "simplex_iterations", "phase1_iterations"] {
            if !matches!(need(&m, key)?, Json::Int(_)) {
                return Err(format!("solve.{key} must be an integer"));
            }
        }
        if !matches!(need(&m, "wall_clock_ms")?, Json::Float(_)) {
            return Err("solve.wall_clock_ms must be a number".into());
        }
        let tb = need(&m, "time_breakdown")?;
        for key in ["factorize_ms", "solve_ms", "pricing_ms"] {
            if !matches!(need(&tb, key)?, Json::Float(_)) {
                return Err(format!("solve.time_breakdown.{key} must be a number"));
            }
        }
    }
    let totals = need(value, "totals")?;
    for key in ["simplex_iterations", "phase1_iterations_saved_total"] {
        if !matches!(need(&totals, key)?, Json::Int(_)) {
            return Err(format!("totals.{key} must be an integer"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> MilpBench {
        MilpBench {
            node_limit: 10,
            scenarios: vec![ScenarioReport {
                name: "table1/alpha=0.2/NO-OBJ".into(),
                alpha_pct: 20,
                objective: Objective::None,
                solve: SolveReport {
                    nodes: 4,
                    simplex_iterations: 60,
                    phase1_iterations: 45,
                    wall_clock: Duration::from_millis(12),
                    time_breakdown: TimeBreakdown {
                        factorize: Duration::from_millis(3),
                        solve: Duration::from_millis(5),
                        pricing: Duration::from_millis(2),
                    },
                },
                presolve: PresolveReport {
                    rows_dropped: 7,
                    cols_fixed: 3,
                    coeffs_tightened: 12,
                    root_gap_bps: 42,
                },
                reuse: ReuseReport {
                    cross_warm_starts: 1,
                    phase1_iterations_saved: 45,
                    import_phase1_iterations: 0,
                },
                wall_clock_speedup: Some(4.0),
            }],
        }
    }

    #[test]
    fn totals_sum_scenarios() {
        let b = sample();
        assert_eq!(b.total_iterations(), 60);
        assert_eq!(b.phase1_iterations_saved_total(), 45);
    }

    #[test]
    fn baseline_lookup_matches_by_name() {
        let rendered = sample().to_json();
        let ms = baseline_wall_clock_ms(&rendered, "table1/alpha=0.2/NO-OBJ");
        assert!((ms.unwrap() - 12.0).abs() < 1e-9);
        assert_eq!(baseline_wall_clock_ms(&rendered, "nope"), None);
        assert_eq!(baseline_wall_clock_ms(&Json::Null, "x"), None);
    }

    #[test]
    fn baseline_lookup_reads_the_warm_block_of_older_files() {
        let old = Json::parse(r#"{"scenarios": [{"name": "s", "warm": {"wall_clock_ms": 7.5}}]}"#)
            .expect("parses");
        assert_eq!(baseline_wall_clock_ms(&old, "s"), Some(7.5));
    }

    #[test]
    fn time_breakdown_round_trips_through_json() {
        let v = sample().to_json();
        let Json::Arr(scenarios) = v.get("scenarios").unwrap() else {
            panic!("scenarios must be an array");
        };
        let tb = scenarios[0]
            .get("solve")
            .unwrap()
            .get("time_breakdown")
            .unwrap();
        assert!(matches!(tb.get("factorize_ms"), Some(Json::Float(x)) if (*x - 3.0).abs() < 1e-9));
        assert!(matches!(tb.get("solve_ms"), Some(Json::Float(x)) if (*x - 5.0).abs() < 1e-9));
        assert!(matches!(tb.get("pricing_ms"), Some(Json::Float(x)) if (*x - 2.0).abs() < 1e-9));
    }

    #[test]
    fn phase1_blocks_round_trip_through_json() {
        let v = sample().to_json();
        let Json::Arr(scenarios) = v.get("scenarios").unwrap() else {
            panic!("scenarios must be an array");
        };
        let solve = scenarios[0].get("solve").unwrap();
        assert!(matches!(
            solve.get("phase1_iterations"),
            Some(Json::Int(45))
        ));
        let reuse = scenarios[0].get("reuse").unwrap();
        assert!(matches!(reuse.get("cross_warm_starts"), Some(Json::Int(1))));
        assert!(matches!(
            reuse.get("phase1_iterations_saved"),
            Some(Json::Int(45))
        ));
        let totals = v.get("totals").unwrap();
        assert!(matches!(
            totals.get("phase1_iterations_saved_total"),
            Some(Json::Int(45))
        ));
    }

    #[test]
    fn null_speedup_stays_schema_valid() {
        let mut b = sample();
        b.scenarios[0].wall_clock_speedup = None;
        validate(&b.to_json()).expect("a null speedup must stay schema-valid");
    }

    #[test]
    fn sample_json_validates() {
        let v = sample().to_json();
        validate(&v).expect("sample must be schema-valid");
    }

    #[test]
    fn validate_rejects_missing_fields() {
        let mut v = sample().to_json();
        if let Json::Obj(fields) = &mut v {
            fields.retain(|(k, _)| k != "totals");
        }
        assert!(validate(&v).unwrap_err().contains("totals"));
        assert!(validate(&Json::Null).is_err());
    }
}
