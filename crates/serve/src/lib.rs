//! # letdma-serve
//!
//! Solve-as-a-service: a sharded batch solve server over the
//! [`letdma_opt`] session API, with a transport-agnostic typed protocol.
//!
//! The crate has three layers (DESIGN.md §"Service architecture"):
//!
//! * [`api`] — the protocol types: [`SolveRequest`] / [`SolveResponse`] /
//!   [`SolveReport`], typed failures ([`ServeError`]) and [`JobId`] (a
//!   job's batch position), versioned by [`PROTOCOL`];
//! * [`Server`] — one long-lived scheduler per process or listener:
//!   admission control over a bounded FIFO queue, a worker pool sharding
//!   jobs across the panic-isolated optimizer pipeline, a blocking
//!   [`Server::solve_batch`] that any number of threads may call at once,
//!   per-request deadlines stamped at admission, and a shared
//!   [`SolveCache`] keyed by [`letdma_opt::structure_key`] so
//!   re-submissions of a known model structure skip formulation and
//!   presolve (with byte-identical solver trajectories — the cached
//!   reduction replays its recorded tallies);
//! * [`Client`] over a [`Transport`] — the wire codec ([`wire`], JSON
//!   with bit-exact floats); the bundled [`LoopbackTransport`] owns one
//!   server in-process and [`TcpTransport`] reaches the one server behind
//!   a [`TcpServer`].
//!
//! # Examples
//!
//! ```
//! use std::time::Duration;
//! use letdma_model::SystemBuilder;
//! use letdma_opt::{OptConfig, Resolution};
//! use letdma_serve::{Client, LoopbackTransport, ServeConfig, SolveRequest};
//!
//! let mut b = SystemBuilder::new(2);
//! let p = b.task("producer").period_ms(5).core_index(0).add()?;
//! let c = b.task("consumer").period_ms(10).core_index(1).add()?;
//! b.label("frame").size(256).writer(p).reader(c).add()?;
//! let system = b.build()?;
//!
//! let mut client = Client::new(LoopbackTransport::new(
//!     ServeConfig::new().with_workers(2),
//! ));
//! let request = SolveRequest::new(system, OptConfig::new())
//!     .with_deadline(Duration::from_secs(30));
//! let responses = client.solve_batch(&[request])?;
//! let report = responses[0].outcome.as_ref().expect("feasible scenario");
//! assert_eq!(report.resolution, Resolution::Milp);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod api;
mod client;
mod server;
pub mod tcp;
pub mod wire;

pub use api::{JobId, ServeError, SolveReport, SolveRequest, SolveResponse, PROTOCOL};
pub use client::{Client, LoopbackTransport, Transport};
pub use server::{ServeConfig, Server, SolveCache};
pub use tcp::{RetryPolicy, TcpServer, TcpTransport};
