//! # letdma-core
//!
//! Zero-external-dependency substrate beneath every other crate of the
//! workspace. The repository must build and test with the crates-io
//! registry unreachable (hermetic CI, air-gapped evaluation machines), so
//! the facilities usually pulled from `rand`, `proptest` and `criterion`
//! live here instead:
//!
//! * [`rng`] — a deterministic, seedable, stream-splittable PRNG family
//!   (SplitMix64 seeding, xoshiro256** generation) used for workload
//!   generation and randomized testing;
//! * [`instrument`] — the [`Instrument`] observer
//!   trait and the [`SolverStats`] collector that
//!   the MILP solver and the optimizer report iteration counts, pivot and
//!   refactorization counters, branch-and-bound node events and wall-clock
//!   phases through;
//! * [`cases`] — a shrink-free, seeded test-case harness replacing the
//!   `proptest` suites: N deterministic cases per property, reproducible
//!   from the failure message alone;
//! * [`mod@env`] — feature-flag and knob resolution with the same
//!   explicit-over-environment-over-default policy for every `LETDMA_*`
//!   variable (see DESIGN.md §"Configuration precedence"), including
//!   [`resolve_threads`], which sizes both worker pools (the MILP node
//!   pool inside a solve, the serve workers across requests);
//! * [`fault`] — the seeded, deterministic fault plane the resilience
//!   tests arm to inject simplex breakdowns, singular refactorizations,
//!   worker panics and deadline exhaustion (off by default; disarmed
//!   cost is one relaxed atomic load);
//! * [`json`] — the hand-rolled deterministic JSON tree used by the bench
//!   report files and the serve wire format;
//! * [`hash`] — a stable FNV-1a content hash for cache keys that must
//!   mean the same thing across processes and releases.
//!
//! Everything here is plain safe `std` Rust. Keeping this crate
//! dependency-free is a hard policy (see DESIGN.md §"Dependency policy");
//! downstream crates may depend on `letdma-core` freely because it can
//! never re-introduce a registry fetch.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod cases;
pub mod env;
pub mod fault;
pub mod hash;
pub mod instrument;
pub mod json;
pub mod rng;

pub use cases::Cases;
pub use env::{resolve_flag, resolve_threads};
pub use fault::{FaultSite, FaultSpec};
pub use hash::{fnv1a_64, Fnv64};
pub use instrument::{Counter, Instrument, NodeEvent, NoopInstrument, SolverStats};
pub use json::{Json, JsonError, JsonLimits};
pub use rng::{Rng, SplitMix64, Xoshiro256};
