//! Solver instrumentation: one observer trait, one reusable collector.
//!
//! The MILP substrate (simplex + branch and bound) and the optimization
//! pipeline report progress through the [`Instrument`] trait instead of
//! ad-hoc public counters. The design constraints:
//!
//! * **Zero cost when off** — the solvers are hot loops; the default
//!   [`NoopInstrument`] has empty inline bodies, so threading the observer
//!   through costs nothing unless a collector is attached.
//! * **Layer-agnostic events** — counters and node events are plain enums,
//!   phases are `&'static str` names; the trait knows nothing about the
//!   simplex or the LET model, so `letdma-core` stays at the bottom of the
//!   crate graph.
//! * **Deterministic content** — everything except wall-clock durations is
//!   a pure function of the solve, so two runs with the same seed produce
//!   identical counter values (the determinism regression tests rely on
//!   this).

use std::collections::BTreeMap;
use std::fmt;
use std::time::Duration;

/// Monotonic counters reported by the solver layers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[non_exhaustive]
pub enum Counter {
    /// Simplex iterations (pricing loops entered), both phases.
    SimplexIterations,
    /// Simplex iterations spent in phase 1, which minimizes the bound
    /// violations of the basic variables until the point is feasible.
    Phase1Iterations,
    /// Basis changes (entering/leaving pivots; excludes bound flips).
    Pivots,
    /// Nonbasic bound-to-bound flips (steps without a basis change).
    BoundFlips,
    /// Basis refactorizations (inverse rebuilt from scratch).
    Refactorizations,
    /// LP relaxations solved (one per branch-and-bound node that reached
    /// the simplex).
    LpSolves,
    /// Branch-and-bound nodes processed.
    Nodes,
    /// Feasible incumbents accepted.
    Incumbents,
    /// Node re-solves started from the parent's basis. Always 0: every
    /// node LP is a cold primal solve. The name stays for existing readers
    /// until a node warm start that returns LP values exists.
    WarmAttempts,
    /// Warm node re-solves that fathomed the node. Always 0, like
    /// [`WarmAttempts`](Self::WarmAttempts).
    WarmFathoms,
    /// Dual-simplex iterations. Always 0, like
    /// [`WarmAttempts`](Self::WarmAttempts).
    DualIterations,
    /// Worker panics caught by the branch-and-bound panic isolation
    /// (injected or real); each one was converted into a typed outcome
    /// instead of a process abort.
    PanicsCaught,
    /// Node LPs that reported `Numerical` and were recovered by the
    /// forced-refactorization retry with escalated tolerances.
    NumericalRecoveries,
    /// Escalated-tolerance retries attempted after a `Numerical` outcome
    /// (each either becomes a recovery or leaves the node unresolved).
    ToleranceEscalations,
    /// Solves resolved by degrading to the conformance-verified
    /// constructive heuristic after the MILP path failed or ran out of
    /// budget.
    HeuristicFallbacks,
    /// Constraint rows removed by presolve (proved redundant against the
    /// variable bounds, or emptied by fixed-variable substitution).
    PresolveRowsDropped,
    /// Variables fixed by presolve bound propagation and substituted out
    /// of the model handed to branch and bound.
    PresolveColsFixed,
    /// Constraint coefficients tightened by presolve big-M strengthening
    /// (each one strictly shrinks the LP relaxation without cutting any
    /// integer point).
    CoeffsTightened,
    /// Root-LP improvement from presolve, in basis points of the larger
    /// root objective magnitude: `round(1e4·(z_presolved − z_original) /
    /// max(|z|))` in minimization form, clamped at zero. A benchmark
    /// measurement outside every solve (`milp::root_gap_bps`), recorded
    /// by the MILP benchmark and `repro --stats`.
    RootGapBps,
    /// Factorized forward solves (`SparseLu::ftran`) performed by the simplex
    /// — entering columns and imported-basis right-hand sides.
    FtranCalls,
    /// Factorized transpose solves (`SparseLu::btran`) performed by the
    /// simplex — pricing duals and Devex pivot rows.
    BtranCalls,
    /// Nonzeros appended to the basis update (eta) files by pivots;
    /// bounded per solve by the refactorization cadence.
    EtaNonzeros,
    /// Fill-in ratio of the sparse LU refactorizations in permille:
    /// `round(1000 · Σ nnz(L+U) / Σ nnz(B))` over a solve's
    /// refactorizations (1000 = no fill; reported once per solve like
    /// [`RootGapBps`](Self::RootGapBps)).
    FillInRatio,
    /// Columns whose reduced cost the simplex computed by a full dot
    /// product `c_j − yᵀa_j`: every nonbasic column at each reduced-cost
    /// refresh (phase start, refactorization, optimality check). Between
    /// refreshes the reduced costs are updated from the pivot row and
    /// count nothing.
    PricingCandidates,
    /// Solve jobs accepted by the serve admission controller (each entered
    /// the queue and was eventually dispatched to a worker).
    JobsAdmitted,
    /// Solve jobs refused at admission (queue at capacity); the submitter
    /// received a typed rejection instead of unbounded queueing.
    JobsRejected,
    /// Solve jobs that reused a cached formulation + presolve reduction
    /// keyed by the model-structure hash, skipping both phases entirely.
    CacheHits,
    /// High-watermark depth of the serve admission queue over the server's
    /// lifetime (reported once per stats snapshot, like
    /// [`RootGapBps`](Self::RootGapBps) is reported once per solve).
    /// Merging two collectors keeps the larger watermark.
    QueueDepth,
    /// Root LPs warm-started from the root basis an earlier solve of the
    /// same structure published into its cache entry's slot
    /// (`milp::Solver::root_slot`, attached by `letdma-opt`'s
    /// `Optimizer::run_prepared` on every solve; `Optimizer::run` never
    /// attaches one).
    CrossScenarioWarmStarts,
    /// Phase-1 iterations avoided by successful cross-scenario root warm
    /// starts: the donor root LP's phase-1 count less the import's own
    /// phase-1 iterations (saturating at zero), charged once per successful
    /// import (a deterministic proxy; the exact reduction is measured by
    /// the `reuse` block in `BENCH_milp.json`).
    Phase1IterationsSaved,
    /// Transport round trips re-attempted by the serve TCP client after a
    /// connect/write/read failure (each retry re-sends the whole batch
    /// under its idempotency keys, so none of them double-admits work).
    RetriesAttempted,
    /// Frames the network fault plane destroyed before the peer could read
    /// them (a `net-drop-frame` or `net-truncate` fire; counted at the
    /// injection site, so client- and server-side drops both show up).
    FramesDropped,
    /// Queued jobs rejected with the typed `ShuttingDown` error because
    /// the server began a graceful drain before a worker picked them up
    /// (in-flight solves are never counted here — they run to completion).
    DrainRejections,
    /// Submissions answered from the idempotency store instead of being
    /// admitted again: a retried batch re-sent an already-seen request key
    /// and got the original job's response (or waited for it to finish).
    IdempotentHits,
}

impl Counter {
    /// Stable display name (used by `repro --stats` tables).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Self::SimplexIterations => "simplex iterations",
            Self::Phase1Iterations => "phase-1 iterations",
            Self::Pivots => "pivots",
            Self::BoundFlips => "bound flips",
            Self::Refactorizations => "refactorizations",
            Self::LpSolves => "LP solves",
            Self::Nodes => "B&B nodes",
            Self::Incumbents => "incumbents",
            Self::WarmAttempts => "warm attempts",
            Self::WarmFathoms => "warm fathoms",
            Self::DualIterations => "dual iterations",
            Self::PanicsCaught => "panics caught",
            Self::NumericalRecoveries => "numerical recoveries",
            Self::ToleranceEscalations => "tolerance escalations",
            Self::HeuristicFallbacks => "heuristic fallbacks",
            Self::PresolveRowsDropped => "presolve rows dropped",
            Self::PresolveColsFixed => "presolve cols fixed",
            Self::CoeffsTightened => "coeffs tightened",
            Self::RootGapBps => "root gap (bps)",
            Self::FtranCalls => "ftran calls",
            Self::BtranCalls => "btran calls",
            Self::EtaNonzeros => "eta nonzeros",
            Self::FillInRatio => "fill-in ratio (permille)",
            Self::PricingCandidates => "pricing candidates",
            Self::JobsAdmitted => "jobs admitted",
            Self::JobsRejected => "jobs rejected",
            Self::CacheHits => "cache hits",
            Self::QueueDepth => "queue depth (max)",
            Self::CrossScenarioWarmStarts => "cross-scenario warm starts",
            Self::Phase1IterationsSaved => "phase-1 iterations saved",
            Self::RetriesAttempted => "retries attempted",
            Self::FramesDropped => "frames dropped",
            Self::DrainRejections => "drain rejections",
            Self::IdempotentHits => "idempotent hits",
        }
    }

    /// Every counter, in the enum's declaration (and `Ord`) order.
    ///
    /// The serve wire codec decodes counters by matching their stable
    /// [`name`](Self::name) against this list; a counter added without
    /// extending `ALL` would silently fail to round-trip, which the
    /// exhaustiveness test below pins.
    pub const ALL: &'static [Counter] = &[
        Self::SimplexIterations,
        Self::Phase1Iterations,
        Self::Pivots,
        Self::BoundFlips,
        Self::Refactorizations,
        Self::LpSolves,
        Self::Nodes,
        Self::Incumbents,
        Self::WarmAttempts,
        Self::WarmFathoms,
        Self::DualIterations,
        Self::PanicsCaught,
        Self::NumericalRecoveries,
        Self::ToleranceEscalations,
        Self::HeuristicFallbacks,
        Self::PresolveRowsDropped,
        Self::PresolveColsFixed,
        Self::CoeffsTightened,
        Self::RootGapBps,
        Self::FtranCalls,
        Self::BtranCalls,
        Self::EtaNonzeros,
        Self::FillInRatio,
        Self::PricingCandidates,
        Self::JobsAdmitted,
        Self::JobsRejected,
        Self::CacheHits,
        Self::QueueDepth,
        Self::CrossScenarioWarmStarts,
        Self::Phase1IterationsSaved,
        Self::RetriesAttempted,
        Self::FramesDropped,
        Self::DrainRejections,
        Self::IdempotentHits,
    ];
}

/// Branch-and-bound node outcomes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[non_exhaustive]
pub enum NodeEvent {
    /// The node's LP bound could not beat the incumbent.
    FathomedByBound,
    /// The node's LP relaxation was infeasible.
    Infeasible,
    /// The node's LP solution was integral.
    Integral,
    /// The node branched into two children.
    Branched,
    /// The node was abandoned because a budget expired.
    Abandoned,
    /// The node's LP failed numerically even after the escalated-tolerance
    /// retry; the node was branched conservatively (never fathomed) so the
    /// subtree stays explored.
    Unresolved,
}

impl NodeEvent {
    /// Stable display name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Self::FathomedByBound => "fathomed by bound",
            Self::Infeasible => "infeasible",
            Self::Integral => "integral",
            Self::Branched => "branched",
            Self::Abandoned => "abandoned",
            Self::Unresolved => "unresolved",
        }
    }

    /// Every node event, in declaration (and `Ord`) order; see
    /// [`Counter::ALL`] for why the list exists.
    pub const ALL: &'static [NodeEvent] = &[
        Self::FathomedByBound,
        Self::Infeasible,
        Self::Integral,
        Self::Branched,
        Self::Abandoned,
        Self::Unresolved,
    ];
}

/// One accepted incumbent, in discovery order.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IncumbentRecord {
    /// Objective value in the model's own sense.
    pub objective: f64,
    /// Branch-and-bound nodes processed when it was found.
    pub nodes: u64,
    /// Wall-clock offset from the start of the solve.
    pub elapsed: Duration,
}

/// Observer of solver progress.
///
/// All methods have empty default bodies: implementors override what they
/// care about, and instrumented code calls unconditionally.
pub trait Instrument {
    /// A named wall-clock phase begins (phases may nest but not overlap
    /// out of order; names are `&'static` so collectors can key on them).
    fn phase_started(&mut self, _phase: &'static str) {}

    /// The most recently started `phase` ends after `elapsed`.
    fn phase_finished(&mut self, _phase: &'static str, _elapsed: Duration) {}

    /// `counter` increased by `n`.
    fn count(&mut self, _counter: Counter, _n: u64) {}

    /// A branch-and-bound node was classified.
    fn node_event(&mut self, _event: NodeEvent) {}

    /// A new incumbent was accepted.
    fn incumbent(&mut self, _record: IncumbentRecord) {}
}

/// The do-nothing observer: the default for uninstrumented solves.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoopInstrument;

impl Instrument for NoopInstrument {}

/// A collector aggregating everything an [`Instrument`] can observe.
///
/// Phases with the same name accumulate (a phase entered once per
/// branch-and-bound node sums across nodes). Iteration order of the
/// reports is deterministic (`BTreeMap`, discovery-ordered lists).
///
/// Phase names are `&'static str`, so a receiver rebuilds a collector by
/// replaying decoded events through the [`Instrument`] impl, mapping phase
/// names against a known-phase table — that is what the serve wire codec
/// does.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SolverStats {
    counters: BTreeMap<Counter, u64>,
    node_events: BTreeMap<NodeEvent, u64>,
    phase_totals: Vec<(&'static str, Duration, u64)>,
    incumbents: Vec<IncumbentRecord>,
}

impl SolverStats {
    /// An empty collector.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The value of one counter (zero when never reported).
    #[must_use]
    pub fn counter(&self, counter: Counter) -> u64 {
        self.counters.get(&counter).copied().unwrap_or(0)
    }

    /// All nonzero counters in stable order.
    #[must_use]
    pub fn counters(&self) -> Vec<(Counter, u64)> {
        self.counters.iter().map(|(&c, &n)| (c, n)).collect()
    }

    /// Occurrences of one node event.
    #[must_use]
    pub fn node_events(&self, event: NodeEvent) -> u64 {
        self.node_events.get(&event).copied().unwrap_or(0)
    }

    /// Total accumulated duration and entry count per phase, in first-seen
    /// order.
    #[must_use]
    pub fn phases(&self) -> &[(&'static str, Duration, u64)] {
        &self.phase_totals
    }

    /// The incumbent timeline in discovery order.
    #[must_use]
    pub fn incumbents(&self) -> &[IncumbentRecord] {
        &self.incumbents
    }

    /// Merges another collector into this one (phase totals and counters
    /// add, except the [`Counter::QueueDepth`] watermark, which keeps the
    /// larger value; incumbent timelines concatenate in order).
    pub fn absorb(&mut self, other: &SolverStats) {
        for (&c, &n) in &other.counters {
            let total = self.counters.entry(c).or_insert(0);
            // A watermark merges as the deeper of the two, not their sum.
            *total = if c == Counter::QueueDepth {
                (*total).max(n)
            } else {
                *total + n
            };
        }
        for (&e, &n) in &other.node_events {
            *self.node_events.entry(e).or_insert(0) += n;
        }
        self.incumbents.extend_from_slice(&other.incumbents);
        for &(name, dur, entries) in &other.phase_totals {
            match self.phase_totals.iter_mut().find(|(n, _, _)| *n == name) {
                Some((_, d, e)) => {
                    *d += dur;
                    *e += entries;
                }
                None => self.phase_totals.push((name, dur, entries)),
            }
        }
    }

    /// Renders the collected statistics as an aligned text table (the
    /// `repro --stats` view).
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        if !self.phase_totals.is_empty() {
            out.push_str("phase                      total        entries\n");
            for (name, dur, entries) in &self.phase_totals {
                out.push_str(&format!(
                    "{name:<26} {:<12} {entries}\n",
                    format!("{dur:.2?}")
                ));
            }
        }
        if !self.counters.is_empty() {
            out.push_str("counter                    value\n");
            for (c, n) in &self.counters {
                out.push_str(&format!("{:<26} {n}\n", c.name()));
            }
        }
        if !self.node_events.is_empty() {
            out.push_str("node outcome               count\n");
            for (e, n) in &self.node_events {
                out.push_str(&format!("{:<26} {n}\n", e.name()));
            }
        }
        if !self.incumbents.is_empty() {
            out.push_str("incumbent timeline (objective @ nodes, elapsed)\n");
            for r in &self.incumbents {
                out.push_str(&format!(
                    "  {:>14.6} @ {:>6} nodes, {:.2?}\n",
                    r.objective, r.nodes, r.elapsed
                ));
            }
        }
        if out.is_empty() {
            out.push_str("(no solver activity recorded)\n");
        }
        out
    }
}

impl fmt::Display for SolverStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

impl Instrument for SolverStats {
    fn phase_started(&mut self, _phase: &'static str) {}

    fn phase_finished(&mut self, phase: &'static str, elapsed: Duration) {
        match self.phase_totals.iter_mut().find(|(n, _, _)| *n == phase) {
            Some((_, d, e)) => {
                *d += elapsed;
                *e += 1;
            }
            None => self.phase_totals.push((phase, elapsed, 1)),
        }
    }

    fn count(&mut self, counter: Counter, n: u64) {
        *self.counters.entry(counter).or_insert(0) += n;
    }

    fn node_event(&mut self, event: NodeEvent) {
        *self.node_events.entry(event).or_insert(0) += 1;
    }

    fn incumbent(&mut self, record: IncumbentRecord) {
        self.incumbents.push(record);
    }
}

/// Runs `f` between `phase_started`/`phase_finished` calls on `instrument`,
/// timing it with a monotonic clock.
pub fn timed_phase<T>(
    instrument: &mut dyn Instrument,
    phase: &'static str,
    f: impl FnOnce(&mut dyn Instrument) -> T,
) -> T {
    instrument.phase_started(phase);
    let t0 = std::time::Instant::now();
    let result = f(instrument);
    instrument.phase_finished(phase, t0.elapsed());
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn collector_accumulates_counters_and_events() {
        let mut s = SolverStats::new();
        s.count(Counter::SimplexIterations, 10);
        s.count(Counter::SimplexIterations, 5);
        s.count(Counter::Nodes, 1);
        s.node_event(NodeEvent::Branched);
        s.node_event(NodeEvent::Branched);
        assert_eq!(s.counter(Counter::SimplexIterations), 15);
        assert_eq!(s.counter(Counter::Nodes), 1);
        assert_eq!(s.counter(Counter::Pivots), 0);
        assert_eq!(s.node_events(NodeEvent::Branched), 2);
    }

    #[test]
    fn phases_accumulate_by_name() {
        let mut s = SolverStats::new();
        s.phase_finished("lp", Duration::from_millis(3));
        s.phase_finished("lp", Duration::from_millis(4));
        s.phase_finished("heuristic", Duration::from_millis(1));
        let phases = s.phases();
        assert_eq!(phases.len(), 2);
        assert_eq!(phases[0], ("lp", Duration::from_millis(7), 2));
        assert_eq!(phases[1].0, "heuristic");
    }

    #[test]
    fn incumbent_timeline_preserves_order() {
        let mut s = SolverStats::new();
        for (i, obj) in [5.0, 3.0, 1.0].into_iter().enumerate() {
            s.incumbent(IncumbentRecord {
                objective: obj,
                nodes: i as u64,
                elapsed: Duration::from_millis(i as u64),
            });
        }
        let objs: Vec<f64> = s.incumbents().iter().map(|r| r.objective).collect();
        assert_eq!(objs, vec![5.0, 3.0, 1.0]);
    }

    #[test]
    fn absorb_merges_everything() {
        let mut a = SolverStats::new();
        a.count(Counter::Pivots, 2);
        a.phase_finished("lp", Duration::from_millis(1));
        let mut b = SolverStats::new();
        b.count(Counter::Pivots, 3);
        b.phase_finished("lp", Duration::from_millis(2));
        b.node_event(NodeEvent::Integral);
        a.count(Counter::QueueDepth, 4);
        b.count(Counter::QueueDepth, 3);
        a.absorb(&b);
        assert_eq!(a.counter(Counter::Pivots), 5);
        assert_eq!(a.counter(Counter::QueueDepth), 4, "a watermark is a max");
        assert_eq!(a.phases()[0], ("lp", Duration::from_millis(3), 2));
        assert_eq!(a.node_events(NodeEvent::Integral), 1);
    }

    #[test]
    fn solver_stats_shards_move_across_threads() {
        // The shard workflow of the batch and serve workers: collectors are
        // Send + Sync, recorded on a worker thread, merged by the caller.
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<SolverStats>();
        let shard = std::thread::spawn(|| {
            let mut s = SolverStats::new();
            s.count(Counter::LpSolves, 1);
            s
        })
        .join()
        .expect("worker shard");
        let mut total = SolverStats::new();
        total.absorb(&shard);
        assert_eq!(total.counter(Counter::LpSolves), 1);
    }

    #[test]
    fn render_mentions_each_section() {
        let mut s = SolverStats::new();
        s.count(Counter::SimplexIterations, 7);
        s.node_event(NodeEvent::Integral);
        s.incumbent(IncumbentRecord {
            objective: 1.5,
            nodes: 3,
            elapsed: Duration::from_millis(2),
        });
        s.phase_finished("milp-search", Duration::from_millis(9));
        let text = s.render();
        assert!(text.contains("simplex iterations"));
        assert!(text.contains("integral"));
        assert!(text.contains("milp-search"));
        assert!(text.contains("incumbent timeline"));
    }

    #[test]
    fn timed_phase_reports_once() {
        let mut s = SolverStats::new();
        let out = timed_phase(&mut s, "work", |_| 42);
        assert_eq!(out, 42);
        assert_eq!(s.phases().len(), 1);
        assert_eq!(s.phases()[0].0, "work");
        assert_eq!(s.phases()[0].2, 1);
    }

    #[test]
    fn all_lists_are_exhaustive_and_ordered() {
        // `ALL` must enumerate every variant exactly once, in `Ord` order,
        // with pairwise-distinct stable names — the serve wire codec keys
        // on both properties. A newly added variant that misses the list
        // trips the windows check (the list would skip over it in `Ord`
        // space is not detectable directly, but duplicate/unsorted entries
        // are, and the name-uniqueness scan catches collisions).
        assert!(Counter::ALL.windows(2).all(|w| w[0] < w[1]));
        assert!(NodeEvent::ALL.windows(2).all(|w| w[0] < w[1]));
        for (i, a) in Counter::ALL.iter().enumerate() {
            for b in &Counter::ALL[i + 1..] {
                assert_ne!(a.name(), b.name());
            }
        }
        // Spot-pin the endpoints so an accidental truncation is loud.
        assert_eq!(Counter::ALL.first(), Some(&Counter::SimplexIterations));
        assert_eq!(Counter::ALL.last(), Some(&Counter::IdempotentHits));
        assert_eq!(NodeEvent::ALL.last(), Some(&NodeEvent::Unresolved));
    }

    #[test]
    fn noop_is_truly_inert() {
        let mut n = NoopInstrument;
        n.count(Counter::Pivots, 1);
        n.node_event(NodeEvent::Branched);
        n.phase_finished("x", Duration::ZERO);
        // Nothing observable; the test is that this compiles and runs.
    }
}
