//! Concurrent solving of independent optimization scenarios.
//!
//! A [`Batch`] fans whole `(System, OptConfig)` scenarios out over a pool
//! of `std::thread` workers — coarse-grained parallelism that composes with
//! (and usually replaces) the per-solve node parallelism of the MILP
//! engine: for a panel of many small scenarios it is far more effective to
//! run scenarios concurrently with sequential solvers than the other way
//! around.
//!
//! Each scenario runs the plain [`Optimizer::run`] pipeline with a private
//! [`SolverStats`] collector, and outcomes come back in submission order
//! regardless of completion order. No state crosses scenarios, so a batch
//! returns exactly what a sequential loop of `Optimizer::run` returns, at
//! any worker count; only the wall clock differs. Cross-scenario root-basis
//! reuse lives in one place: the [`Prepared`](crate::Prepared) cache entry
//! solved through [`Optimizer::run_prepared`].

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use letdma_core::{resolve_threads, SolverStats};
use letdma_model::System;

use crate::config::OptConfig;
use crate::optimizer::{OptError, Optimizer};
use crate::solution::LetDmaSolution;

/// The result of one scenario in a [`Batch`] run.
#[derive(Debug)]
#[non_exhaustive]
pub struct BatchOutcome {
    /// The scenario's solution (or failure), exactly as a standalone
    /// [`Optimizer`] run would have produced it.
    pub result: Result<LetDmaSolution, OptError>,
    /// Instrument shard of this scenario's pipeline: phase timings, solver
    /// counters and incumbent records.
    pub stats: SolverStats,
    /// Wall-clock time of this scenario on its worker.
    pub elapsed: Duration,
}

/// A builder collecting independent scenarios to solve concurrently.
///
/// ```
/// use letdma_model::SystemBuilder;
/// use letdma_opt::{Batch, OptConfig};
///
/// let mut batch = Batch::new().threads(2);
/// for period in [5, 10] {
///     let mut b = SystemBuilder::new(2);
///     let p = b.task("p").period_ms(period).core_index(0).add()?;
///     let c = b.task("c").period_ms(period).core_index(1).add()?;
///     b.label("l").size(64).writer(p).reader(c).add()?;
///     batch = batch.scenario(b.build()?, OptConfig::new());
/// }
/// let outcomes = batch.run();
/// assert_eq!(outcomes.len(), 2);
/// assert!(outcomes.iter().all(|o| o.result.is_ok()));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Default)]
#[must_use = "a Batch does nothing until `.run()` is called"]
pub struct Batch {
    scenarios: Vec<(System, OptConfig)>,
    threads: Option<usize>,
}

impl Batch {
    /// An empty batch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Worker threads for the scenario fan-out (not the per-solve node
    /// pool). `None` defers to `LETDMA_THREADS` (default: sequential).
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads.max(1));
        self
    }

    /// Appends one scenario; outcomes come back in submission order.
    pub fn scenario(mut self, system: System, config: OptConfig) -> Self {
        self.scenarios.push((system, config));
        self
    }

    /// Number of scenarios queued so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.scenarios.len()
    }

    /// Whether no scenario has been queued yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.scenarios.is_empty()
    }

    /// Solves every scenario and returns the outcomes in submission order.
    #[must_use]
    pub fn run(self) -> Vec<BatchOutcome> {
        let threads = resolve_threads(self.threads).min(self.scenarios.len().max(1));
        if threads <= 1 {
            return self
                .scenarios
                .iter()
                .map(|(system, config)| solve_one(system, config.clone()))
                .collect();
        }

        let scenarios = &self.scenarios;
        let next = AtomicUsize::new(0);
        let (tx, rx) = mpsc::channel::<(usize, BatchOutcome)>();
        let mut outcomes: Vec<Option<BatchOutcome>> = Vec::new();
        outcomes.resize_with(scenarios.len(), || None);
        std::thread::scope(|scope| {
            for _ in 0..threads {
                let tx = tx.clone();
                let next = &next;
                scope.spawn(move || loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some((system, config)) = scenarios.get(i) else {
                        break;
                    };
                    let outcome = solve_one(system, config.clone());
                    if tx.send((i, outcome)).is_err() {
                        break;
                    }
                });
            }
            drop(tx);
            for (i, outcome) in rx {
                outcomes[i] = Some(outcome);
            }
        });
        outcomes
            .into_iter()
            .map(|o| o.expect("every scenario reports exactly once"))
            .collect()
    }
}

fn solve_one(system: &System, config: OptConfig) -> BatchOutcome {
    let mut stats = SolverStats::new();
    let t0 = Instant::now();
    let result = Optimizer::new(system)
        .config(config)
        .instrument(&mut stats)
        .run();
    BatchOutcome {
        result,
        stats,
        elapsed: t0.elapsed(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use letdma_model::SystemBuilder;

    fn scenario(period: u64) -> (System, OptConfig) {
        let mut b = SystemBuilder::new(2);
        let p = b.task("p").period_ms(period).core_index(0).add().unwrap();
        let c = b.task("c").period_ms(period).core_index(1).add().unwrap();
        b.label("l").size(64).writer(p).reader(c).add().unwrap();
        (b.build().unwrap(), OptConfig::new())
    }

    #[test]
    fn empty_batch_returns_nothing() {
        assert!(Batch::new().threads(4).run().is_empty());
    }

    #[test]
    fn outcomes_keep_submission_order() {
        let periods = [5u64, 10, 20, 40];
        let batch = periods.iter().fold(Batch::new().threads(4), |b, &p| {
            let (s, c) = scenario(p);
            b.scenario(s, c)
        });
        assert_eq!(batch.len(), 4);
        let outcomes = batch.run();
        assert_eq!(outcomes.len(), 4);
        for (outcome, period) in outcomes.iter().zip(periods) {
            let sol = outcome.result.as_ref().expect("feasible scenario");
            assert_eq!(sol.num_transfers(), 2, "period {period}");
            assert!(!outcome.stats.phases().is_empty());
        }
    }

    #[test]
    fn concurrent_batch_matches_the_sequential_loop() {
        let scenarios: Vec<_> = [5u64, 7, 10].iter().map(|&p| scenario(p)).collect();
        let sequential: Vec<_> = scenarios
            .iter()
            .map(|(s, c)| Optimizer::new(s).config(c.clone()).run())
            .collect();
        let batch = scenarios
            .into_iter()
            .fold(Batch::new().threads(3), |b, (s, c)| b.scenario(s, c))
            .run();
        for (seq, par) in sequential.into_iter().zip(batch) {
            // Wall-clock fields are the only legitimate difference.
            assert_eq!(
                seq.map(crate::solution::scrub_timing),
                par.result.map(crate::solution::scrub_timing)
            );
        }
    }
}
