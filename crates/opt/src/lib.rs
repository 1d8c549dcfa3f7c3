//! # letdma-opt
//!
//! The optimization problem of §VI of *Pazzaglia et al., DAC 2021*: jointly
//! derive an **optimal memory allocation** (contiguous placement of labels
//! and their local copies) and an **optimal schedule of DMA transfers** for
//! LET communications, subject to
//!
//! * Constraints 1–2 — every communication in exactly one transfer;
//! * Constraints 4–5 — each memory's labels form a total order (positions);
//! * Constraint 6 — labels grouped in one transfer are contiguous, in the
//!   same order, in both source and destination memory, *at every
//!   communication instant*;
//! * Constraints 7–8 — LET causality (Properties 1 and 2);
//! * Constraint 9 — per-task data-acquisition deadlines `γ_i`;
//! * Constraint 10 — all transfers issued at an instant finish before the
//!   next one (Property 3),
//!
//! with the paper's three objective variants (`NO-OBJ`, `OBJ-DMAT`,
//! `OBJ-DEL`). The MILP is solved with the in-workspace [`milp`] crate and
//! seeded by a constructive heuristic; every returned solution is
//! re-validated by the independent conformance checker of `letdma-model`.
//!
//! # Examples
//!
//! ```
//! use letdma_model::SystemBuilder;
//! use letdma_opt::{Objective, Optimizer};
//! use std::time::Duration;
//!
//! let mut b = SystemBuilder::new(2);
//! let cam = b.task("camera").period_ms(33).core_index(0).add()?;
//! let det = b.task("detector").period_ms(66).core_index(1).add()?;
//! b.label("frame").size(32 * 1024).writer(cam).reader(det).add()?;
//! let system = b.build()?;
//!
//! let solution = Optimizer::new(&system)
//!     .objective(Objective::MinTransfers)
//!     .time_limit(Duration::from_secs(5))
//!     .run()?;
//! println!("transfers: {}", solution.num_transfers());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! A solve parallelizes inside its branch-and-bound search: the node pool
//! is sized by [`OptConfig::with_threads`] (or `LETDMA_THREADS`), with
//! bit-identical results at any thread count. Solves of one structure share their
//! formulation, presolve reduction and optimal root basis through a
//! [`prepare`]d entry and [`Optimizer::run_prepared`].

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(missing_debug_implementations)]

mod config;
mod formulation;
pub mod heuristic;
mod improve;
mod optimizer;
mod prepare;
mod solution;

pub use config::{Objective, OptConfig};
pub use improve::{ImproveGoal, Reorder};
pub use optimizer::{formulation_lp, formulation_model, heuristic_solution, OptError, Optimizer};
pub use prepare::{prepare, structure_key, Prepared};
pub use solution::{LetDmaSolution, Provenance, Resolution};
