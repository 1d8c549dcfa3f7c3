//! The typed request/response surface of the solve service.
//!
//! These types are the protocol: a transport ships them (the bundled codec
//! is [`crate::wire`], but nothing here depends on it), the server answers
//! a batch of [`SolveRequest`]s with one [`SolveResponse`] per request, in
//! request order. The schema is versioned by [`PROTOCOL`]; a wire document
//! with a different protocol string is rejected before any field is read.

use std::fmt;
use std::time::Duration;

use letdma_core::SolverStats;
use letdma_model::System;
use letdma_opt::{OptConfig, Resolution};

/// Protocol identifier embedded in every wire document. Bump the suffix on
/// any incompatible change to the request or response layout.
pub const PROTOCOL: &str = "letdma-serve/1";

/// Identifier of one job: its zero-based position in the submitted batch,
/// whether the job was admitted or rejected. A batch's responses come back
/// in request order, so `responses[i].job == JobId(i)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct JobId(pub u64);

impl fmt::Display for JobId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "job#{}", self.0)
    }
}

/// One solve scenario submitted to the service.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct SolveRequest {
    /// The system to allocate and schedule.
    pub system: System,
    /// The optimization configuration. Its [`OptConfig::deadline`] field
    /// is ignored ([`std::time::Instant`]s don't cross a wire); use
    /// [`deadline`](Self::deadline) instead.
    pub config: OptConfig,
    /// Time budget measured **from admission**: the server stamps
    /// `now + deadline` into the solve when the job is accepted. A job
    /// whose deadline has already passed when a worker dequeues it is
    /// rejected with [`ServeError::DeadlineExpired`] before any simplex
    /// work; a deadline that expires mid-solve degrades to anytime
    /// behavior (the best incumbent is returned).
    pub deadline: Option<Duration>,
    /// Idempotency key for at-most-once admission over a lossy transport.
    ///
    /// A server that keeps an idempotency store (the TCP listener does;
    /// the in-process [`Server`](crate::Server) does not need one) treats
    /// two submissions with the same key as *one* job: the retry is
    /// answered with the original job's response — waiting for it if the
    /// original is still solving — instead of being admitted again. `None`
    /// (the default) opts out: every submission is its own job.
    ///
    /// Keys are chosen by the client and must be unique per logical
    /// request (the TCP quickstart derives them from a batch seed).
    pub request_key: Option<u64>,
}

impl SolveRequest {
    /// A request with no deadline and no idempotency key.
    #[must_use]
    pub fn new(system: System, config: OptConfig) -> Self {
        Self {
            system,
            config,
            deadline: None,
            request_key: None,
        }
    }

    /// Sets the admission-relative deadline.
    #[must_use]
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Sets the idempotency key (see
    /// [`request_key`](Self::request_key)).
    #[must_use]
    pub fn with_request_key(mut self, key: u64) -> Self {
        self.request_key = Some(key);
        self
    }
}

/// The successful outcome of one job: the solution summary plus the full
/// per-scenario solver trajectory.
///
/// The trajectory ([`stats`](Self::stats)) is byte-identical to what a
/// direct [`letdma_opt::Optimizer::run_prepared`] of the same scenario on
/// the same cache entry records — cache hits replay the recorded
/// formulation/presolve tallies instead of skipping them silently (pinned
/// by the determinism regression).
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub struct SolveReport {
    /// Which rung of the degradation ladder produced the solution.
    pub resolution: Resolution,
    /// Number of DMA transfers in the returned schedule.
    pub num_transfers: usize,
    /// Objective value reported by the solver (MILP solutions only).
    /// Transported bit-exactly by the wire codec.
    pub objective_value: Option<f64>,
    /// Full solver trajectory of this scenario: phase timings, counters,
    /// node events and the incumbent timeline.
    pub stats: SolverStats,
    /// Whether this job reused a cached formulation + presolve reduction
    /// (it still ran its own heuristic, search and validation).
    pub cache_hit: bool,
}

/// The response to one [`SolveRequest`].
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub struct SolveResponse {
    /// Which job this answers.
    pub job: JobId,
    /// The report, or a typed failure.
    pub outcome: Result<SolveReport, ServeError>,
}

impl SolveResponse {
    /// Pairs a job id with its outcome (custom transports and tests build
    /// responses through this; the struct itself is non-exhaustive).
    #[must_use]
    pub fn new(job: JobId, outcome: Result<SolveReport, ServeError>) -> Self {
        Self { job, outcome }
    }
}

/// Typed failures of the solve service.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ServeError {
    /// Admission control refused the job: the queue already holds
    /// `capacity` jobs. Resubmit later (the job did no solver work).
    QueueFull {
        /// The queue capacity that was exhausted.
        capacity: usize,
    },
    /// The job's deadline had already passed — either while it sat in the
    /// queue (rejected before any simplex work) or before the pipeline
    /// started. A deadline expiring *mid-solve* never produces this
    /// error; the anytime search returns its best incumbent instead.
    DeadlineExpired,
    /// The server began a graceful drain before a worker picked this job
    /// up: in-flight solves run to completion, but queued work — and any
    /// request arriving after the drain started — is rejected with this
    /// error. Resubmit to another server (the job did no solver work).
    ShuttingDown,
    /// The solve itself failed; carries the rendered
    /// [`OptError`](letdma_opt::OptError) message.
    Solve(String),
    /// The transport or wire codec failed (malformed document, protocol
    /// mismatch, response/request count mismatch).
    Transport(String),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::QueueFull { capacity } => {
                write!(f, "admission queue full ({capacity} jobs)")
            }
            Self::DeadlineExpired => write!(f, "deadline expired before the solve started"),
            Self::ShuttingDown => write!(f, "server is draining; job rejected before any work"),
            Self::Solve(message) => write!(f, "solve failed: {message}"),
            Self::Transport(message) => write!(f, "transport failed: {message}"),
        }
    }
}

impl std::error::Error for ServeError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn job_ids_order_and_display() {
        assert!(JobId(0) < JobId(1));
        assert_eq!(JobId(7).to_string(), "job#7");
    }

    #[test]
    fn errors_render() {
        assert_eq!(
            ServeError::QueueFull { capacity: 4 }.to_string(),
            "admission queue full (4 jobs)"
        );
        assert!(ServeError::Solve("x".into()).to_string().contains("x"));
    }
}
