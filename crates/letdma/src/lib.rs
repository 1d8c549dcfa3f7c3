//! # letdma
//!
//! A complete Rust implementation of **"Optimal Memory Allocation and
//! Scheduling for DMA Data Transfers under the LET Paradigm"**
//! (Pazzaglia, Casini, Biondi, Di Natale — DAC 2021).
//!
//! The Logical Execution Time (LET) paradigm makes inter-core communication
//! time-deterministic by pinning reads and writes to period boundaries. On
//! multicore automotive platforms the copies between core-local scratchpads
//! and the global memory can be offloaded to a DMA engine — but each DMA
//! transfer moves a *contiguous* block, so performance hinges on how labels
//! are laid out in memory and how communications are grouped and ordered
//! into transfers. This workspace implements the paper's protocol and its
//! MILP-based joint optimizer, plus everything needed to evaluate them:
//!
//! | Crate | Contents |
//! |---|---|
//! | [`core`] | Zero-dependency substrate: deterministic PRNG, solver instrumentation traits, seeded test-case harness |
//! | [`model`] | Platform/task/label model, LET semantics (skip rules, Algorithm 1), transfers, layouts, conformance checking |
//! | [`milp`] | A self-contained MILP solver (simplex + branch and bound) replacing the paper's CPLEX |
//! | [`opt`] | The §VI formulation (Constraints 1–10, three objectives), a constructive heuristic and solution validation |
//! | [`serve`] | Solve-as-a-service: sharded batch server, formulation cache, transport-agnostic typed protocol |
//! | [`sim`] | Discrete-event simulation of the proposed protocol, the three Giotto baselines and the triple-buffered pipeline |
//! | [`analysis`] | Response-time analysis with jitter and the §VII sensitivity procedure |
//! | [`waters`] | The WATERS 2019 case study (synthetic reconstruction), a scenario-diversity generator and the seeded corpus |
//!
//! # Quickstart
//!
//! ```
//! use letdma::model::SystemBuilder;
//! use letdma::opt::Optimizer;
//! use letdma::sim::{simulate, Approach, SimConfig};
//!
//! // Two cores, one camera pipeline crossing them.
//! let mut b = SystemBuilder::new(2);
//! let camera = b.task("camera").period_ms(33).core_index(0).add()?;
//! let fusion = b.task("fusion").period_ms(66).core_index(1).add()?;
//! b.label("frame").size(64 * 1024).writer(camera).reader(fusion).add()?;
//! let system = b.build()?;
//!
//! // Jointly derive the memory layout and the DMA transfer schedule …
//! let solution = Optimizer::new(&system).run()?;
//!
//! // … and simulate the protocol over one hyperperiod.
//! let report = simulate(
//!     &system,
//!     Some(&solution.schedule),
//!     &SimConfig::for_approach(Approach::ProposedDma),
//! )?;
//! assert!(report.is_clean());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! # Warm-started re-solves
//!
//! A [`Prepared`](opt::Prepared) cache entry holds the formulation and
//! presolve reduction of one structure ([`structure_key`](opt::structure_key))
//! plus a root-basis slot. With
//! [`OptConfig::reuse_basis`](opt::OptConfig::reuse_basis) on (the
//! default), the first [`run_prepared`](opt::Optimizer::run_prepared) of an
//! entry publishes its optimal root basis there, and later solves of the
//! entry start their root LP from it, skipping simplex phase 1 (DESIGN.md
//! §"Warm-start architecture"). The serve cache works this way. The
//! optimum is the same; only the pivot path differs.
//!
//! ```
//! use letdma::core::Counter;
//! use letdma::opt::prepare;
//! use letdma::prelude::*;
//!
//! let mut b = SystemBuilder::new(2);
//! let p = b.task("p").period_ms(5).core_index(0).add()?;
//! let q = b.task("q").period_ms(10).core_index(0).add()?;
//! let c = b.task("c").period_ms(10).core_index(1).add()?;
//! b.label("frame").size(256).writer(p).reader(c).add()?;
//! b.label("state").size(64).writer(q).reader(c).add()?;
//! b.label("ack").size(32).writer(c).reader(p).add()?;
//! let system = b.build()?;
//!
//! let config = OptConfig::new().with_objective(Objective::MinTransfers);
//! let prepared = prepare(&system, &config);
//! let solve = |stats: &mut SolverStats| {
//!     Optimizer::new(&system)
//!         .config(config.clone())
//!         .instrument(stats)
//!         .run_prepared(&prepared)
//! };
//!
//! // The first solve donates its optimal root basis; the second imports
//! // it instead of re-deriving feasibility from scratch.
//! let (mut donor, mut warm) = (SolverStats::new(), SolverStats::new());
//! let first = solve(&mut donor)?;
//! let second = solve(&mut warm)?;
//! assert_eq!(first.objective_value, second.objective_value);
//! assert_eq!(donor.counter(Counter::CrossScenarioWarmStarts), 0);
//! assert_eq!(warm.counter(Counter::CrossScenarioWarmStarts), 1);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Zero-dependency substrate: deterministic PRNG, solver instrumentation
/// and the seeded test-case harness (re-export of [`letdma_core`]).
pub mod core {
    pub use letdma_core::*;
}

/// System model and LET semantics (re-export of [`letdma_model`]).
pub mod model {
    pub use letdma_model::*;
}

/// Self-contained MILP solver (re-export of [`milp`]).
pub mod milp {
    pub use milp::*;
}

/// The §VI optimization problem (re-export of [`letdma_opt`]).
pub mod opt {
    pub use letdma_opt::*;
}

/// Solve-as-a-service batch server and typed client (re-export of
/// [`letdma_serve`]).
pub mod serve {
    pub use letdma_serve::*;
}

/// Discrete-event protocol simulation (re-export of [`letdma_sim`]).
pub mod sim {
    pub use letdma_sim::*;
}

/// The curated entry points, importable in one line.
///
/// Everything a typical consumer touches — building a system, running the
/// optimizer (directly, batched, or as a service) and simulating the
/// result — without the long tail of internal types the sub-crates also
/// export.
///
/// ```
/// use letdma::prelude::*;
///
/// let mut b = SystemBuilder::new(2);
/// let cam = b.task("camera").period_ms(33).core_index(0).add()?;
/// let fuse = b.task("fusion").period_ms(66).core_index(1).add()?;
/// b.label("frame").size(4096).writer(cam).reader(fuse).add()?;
/// let system = b.build()?;
///
/// // Direct solve …
/// let solution = Optimizer::new(&system)
///     .config(OptConfig::new().with_objective(Objective::MinTransfers))
///     .run()?;
/// assert_eq!(solution.resolution, Resolution::Milp);
///
/// // … or the same scenario through the solve service.
/// let mut client = Client::new(LoopbackTransport::new(ServeConfig::new()));
/// let responses = client.solve_batch(&[SolveRequest::new(
///     system,
///     OptConfig::new().with_objective(Objective::MinTransfers),
/// )])?;
/// let report = responses[0].outcome.as_ref().expect("solved");
/// assert_eq!(report.num_transfers, solution.num_transfers());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub mod prelude {
    pub use letdma_core::{Counter, Instrument, SolverStats};
    pub use letdma_model::{CoreId, LabelId, ModelError, System, SystemBuilder, TaskId, TimeNs};
    pub use letdma_opt::{LetDmaSolution, Objective, OptConfig, OptError, Optimizer, Resolution};
    pub use letdma_serve::{
        Client, LoopbackTransport, RetryPolicy, ServeConfig, ServeError, Server, SolveRequest,
        SolveResponse, TcpServer, TcpTransport, Transport,
    };
    pub use letdma_sim::{simulate, Approach, SimConfig, SimReport};
}

/// Schedulability analysis (re-export of [`letdma_analysis`]).
pub mod analysis {
    pub use letdma_analysis::*;
}

/// Case-study and random workloads (re-export of [`waters2019`]).
pub mod waters {
    pub use waters2019::*;
}
