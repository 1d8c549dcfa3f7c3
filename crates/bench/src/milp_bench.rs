//! The MILP benchmark behind `repro bench-milp` and the committed
//! `BENCH_milp.json` artifact.
//!
//! Each Table I scenario ({NO-OBJ, OBJ-DMAT, OBJ-DEL} × α ∈ {0.2, 0.4})
//! is solved once in the default configuration under a *node budget* with
//! no wall-clock limit and one thread, so the search trajectory and every
//! work counter are deterministic. The report carries no timing fields:
//! like `BENCH_corpus.json` it is byte-identical across reruns and
//! `LETDMA_THREADS` values. Per-layer time is measured by `perfbench/`
//! (`milp.{factorize,solve,pricing}_ms`), with repeated samples.
//!
//! Per scenario the report (schema [`SCHEMA`]) records:
//!
//! * `solve` — nodes and simplex iterations with their phase-1 share;
//! * `presolve` — the reductions and the root-gap tightening
//!   ([`Counter::RootGapBps`]);
//! * `reuse` — the scenario solved twice through one [`prepare`]d entry:
//!   the second run imports the first run's optimal root basis, which is
//!   feasible on the same data, so it skips phase 1 at the root
//!   ([`Counter::Phase1IterationsSaved`]).
//!
//! DESIGN.md §"Removed: value-free dual re-solves and the crash basis"
//! records what earlier schemas measured (the warm/cold split of
//! `/1`–`/4` and the crash A/B of `/4`) and why those blocks are gone.

use letdma::core::{Counter, Json, SolverStats};
use letdma::opt::{prepare, Objective, OptConfig, Optimizer};

use crate::{record_root_gap, waters_with_alpha};

/// Solver counters of one scenario's default-configuration run.
#[derive(Debug, Clone, Copy, Default)]
pub struct SolveReport {
    /// Branch-and-bound nodes processed.
    pub nodes: u64,
    /// Simplex iterations (phase 1 + phase 2, all node LPs).
    pub simplex_iterations: u64,
    /// The phase-1 share of `simplex_iterations`: iterations spent
    /// driving the basic variables inside their bounds before any
    /// optimization.
    pub phase1_iterations: u64,
}

impl SolveReport {
    fn from_stats(stats: &SolverStats) -> Self {
        Self {
            nodes: stats.counter(Counter::Nodes),
            simplex_iterations: stats.counter(Counter::SimplexIterations),
            phase1_iterations: stats.counter(Counter::Phase1Iterations),
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
    /// The donor phase-1 bill the import skipped, less the import's own
    /// root phase-1 iterations ([`Counter::Phase1IterationsSaved`]).
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
            "scenario                        nodes   simplex iters   phase-1   root-gap  reuse-saved\n",
        );
        for s in &self.scenarios {
            out.push_str(&format!(
                "{:<30} {:>6} {:>15} {:>9} {:>6}bps  {:>11}\n",
                s.name,
                s.solve.nodes,
                s.solve.simplex_iterations,
                s.solve.phase1_iterations,
                s.presolve.root_gap_bps,
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
/// comparison against a prior baseline file. `/3` added per-mode
/// factorize / solve / pricing wall clocks and a per-scenario speedup
/// against the baseline file. `/4` added the per-mode `phase1_iterations`
/// split and the per-scenario `crash` and `reuse` blocks (plus
/// `phase1_iterations_saved_total` in `totals`). `/5` keeps one run per
/// scenario (the default configuration, under `solve`) and drops the cold
/// run, the crash block and the warm-fathom fields. `/6` drops every
/// timing field, so the file is deterministic.
pub const SCHEMA: &str = "letdma-bench-milp/6";

/// Runs the benchmark: the six Table I scenarios, each under
/// `node_limit` nodes with no wall-clock limit, then the presolve root-gap
/// measurement ([`record_root_gap`], two root LPs outside the solve), then a
/// donate-then-import pair through one prepared cache entry for the
/// `reuse` block.
///
/// # Panics
///
/// Panics if a scenario fails to produce a solution (cannot happen: the
/// constructive heuristic is feasible on the WATERS case study, so a
/// node-limited search always has the heuristic fallback).
#[must_use]
pub fn run(node_limit: u64) -> MilpBench {
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
                .with_node_limit(node_limit);

            let mut stats = SolverStats::new();
            let result = Optimizer::new(&system)
                .config(config.clone())
                .instrument(&mut stats)
                .run();
            assert!(result.is_ok(), "scenario must solve: {result:?}");
            record_root_gap(&system, &config, &mut stats);

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

            scenarios.push(ScenarioReport {
                name: format!("table1/alpha=0.{}/{objective}", alpha_pct / 10),
                alpha_pct,
                objective,
                solve: SolveReport::from_stats(&stats),
                presolve: PresolveReport::from_stats(&stats),
                reuse,
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
/// instead of silently producing an unparseable report.
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
        let m = need(s, "solve")?;
        for key in ["nodes", "simplex_iterations", "phase1_iterations"] {
            if !matches!(need(&m, key)?, Json::Int(_)) {
                return Err(format!("solve.{key} must be an integer"));
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
