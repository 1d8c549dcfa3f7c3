//! Fault-injection smoke check behind `repro fault-smoke`.
//!
//! Arms every [`FaultSite`] in turn (firing on every poll — the harshest
//! deterministic setting) against the WATERS 2019 case study and asserts
//! the resilience contract end to end: each run must return a solution
//! that survives the independent conformance checker, or a typed
//! [`OptError`] — never a panic escaping the optimizer, never a hang
//! (bounded by a node limit), never an unverifiable answer.
//!
//! The check self-verifies: [`SmokeReport::pass`] is the verdict the
//! `repro` binary turns into its exit code, so CI can run the smoke at
//! any `LETDMA_THREADS` setting and just check the exit status.

use std::time::Duration;

use letdma::core::fault::{self, FaultSite, FaultSpec};
use letdma::model::conformance::{verify, VerifyOptions};
use letdma::model::System;
use letdma::opt::{OptConfig, OptError, Optimizer, Resolution};
use letdma::waters::waters_system;

/// Outcome of one armed-site run.
#[derive(Debug, Clone)]
pub struct SmokeRow {
    /// Kebab-case name of the armed site.
    pub site: &'static str,
    /// Human-readable outcome (resolution and size, or the typed error).
    pub outcome: String,
    /// Whether the row honors the valid-solution-or-typed-error contract.
    pub ok: bool,
}

/// The whole smoke table plus its aggregate verdict.
#[derive(Debug, Clone)]
pub struct SmokeReport {
    /// One row per fault site, in [`FaultSite::ALL`] order.
    pub rows: Vec<SmokeRow>,
    /// True when every row honored the contract.
    pub pass: bool,
}

impl SmokeReport {
    /// Renders the table for the terminal.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(
            "armed site           outcome                                            verdict\n",
        );
        for row in &self.rows {
            let verdict = if row.ok { "PASS" } else { "FAIL" };
            out.push_str(&format!("{:<20} {:<50} {verdict}\n", row.site, row.outcome));
        }
        out.push_str(if self.pass {
            "fault smoke: PASS\n"
        } else {
            "fault smoke: FAIL\n"
        });
        out
    }
}

fn resolution_name(resolution: Resolution) -> &'static str {
    match resolution {
        Resolution::Milp => "milp",
        Resolution::MilpRetry => "milp-retry",
        Resolution::HeuristicFallback => "heuristic-fallback",
        Resolution::Heuristic => "heuristic",
        _ => "unknown",
    }
}

/// One armed-site run with a bounded budget. The node limit is the
/// termination backstop: under a persistent fault the conservative
/// re-branching of unresolved nodes keeps exploring, and must not spin.
fn run_one(system: &System, site: FaultSite, budget: Duration) -> SmokeRow {
    fault::disarm_all();
    fault::arm(site, FaultSpec::always());
    let result = Optimizer::new(system)
        .config(OptConfig::new().with_time_limit(budget).with_node_limit(64))
        .run();
    fault::disarm_all();
    let (outcome, ok) = match result {
        Ok(sol) => {
            let violations = verify(
                system,
                &sol.layout,
                &sol.schedule,
                VerifyOptions {
                    include_private_labels: false,
                    check_acquisition_deadlines: true,
                    check_property3: true,
                },
            );
            if violations.is_empty() {
                (
                    format!(
                        "ok ({}, {} transfers)",
                        resolution_name(sol.resolution),
                        sol.num_transfers()
                    ),
                    true,
                )
            } else {
                (
                    format!("INVALID solution ({} violations)", violations.len()),
                    false,
                )
            }
        }
        Err(e @ (OptError::BudgetExhausted | OptError::Solver(_))) => {
            (format!("typed error: {e}"), true)
        }
        // Infeasible/NoCommunications cannot legitimately come out of the
        // WATERS case study; InvalidSolution means the validator caught a
        // corrupted answer. All are contract violations here.
        Err(e) => (format!("unexpected error: {e}"), false),
    };
    SmokeRow {
        site: site.name(),
        outcome,
        ok,
    }
}

/// Runs the smoke: every site armed in turn against WATERS.
///
/// Injected worker panics are expected; their default-hook backtraces are
/// suppressed for the duration so the table stays readable.
///
/// # Panics
///
/// Panics only if the WATERS case study itself cannot be built.
#[must_use]
pub fn run(budget: Duration) -> SmokeReport {
    let (system, _) = waters_system().expect("case study builds");
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let rows: Vec<SmokeRow> = FaultSite::ALL
        .into_iter()
        .map(|site| run_one(&system, site, budget))
        .collect();
    std::panic::set_hook(hook);
    let pass = rows.iter().all(|r| r.ok);
    SmokeReport { rows, pass }
}
