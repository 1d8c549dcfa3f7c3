//! Transport abstraction and the loopback client.
//!
//! The session API is transport-agnostic: a [`Transport`] moves one
//! request document to a server and brings one response document back,
//! and everything else — encoding, decoding, the response-count check —
//! lives in [`Client`]. The bundled [`LoopbackTransport`] runs the server
//! in-process (the benchmark and CI smoke path);
//! [`TcpTransport`](crate::TcpTransport) implements the same one-method
//! trait over a socket.

use letdma_core::SolverStats;

use crate::api::{ServeError, SolveRequest, SolveResponse};
use crate::server::{ServeConfig, Server, SolveCache};
use crate::wire;

/// One request/response exchange at the document (text) level.
///
/// Implementations ship the rendered wire document somewhere a server can
/// see it and return the server's rendered response document. They do not
/// interpret the payload.
pub trait Transport {
    /// Ships `request` and returns the matching response document.
    ///
    /// # Errors
    ///
    /// [`ServeError::Transport`] when the document cannot be delivered or
    /// the reply cannot be produced.
    fn round_trip(&mut self, request: &str) -> Result<String, ServeError>;
}

/// An in-process transport: one [`Server`], started at construction and
/// kept for the transport's lifetime. Each
/// [`round_trip`](Transport::round_trip) decodes the batch, runs it
/// through [`Server::solve_batch`] and encodes the responses, so the
/// [`SolveCache`], the queue and the aggregate statistics persist across
/// calls and a re-submitted model structure hits the cache on the next
/// exchange.
#[derive(Debug)]
pub struct LoopbackTransport {
    server: Server,
}

impl LoopbackTransport {
    /// A loopback transport with a private cache.
    #[must_use]
    pub fn new(config: ServeConfig) -> Self {
        Self::with_cache(config, SolveCache::new())
    }

    /// A loopback transport sharing `cache` with other transports or
    /// servers (the serve benchmark shares one cache across its
    /// worker-count rounds).
    #[must_use]
    pub fn with_cache(config: ServeConfig, cache: SolveCache) -> Self {
        Self {
            server: Server::start_with_cache(config, cache),
        }
    }

    /// A snapshot of the server's aggregate statistics: admission
    /// counters, cache hits, queue depth (max) and the absorbed per-job
    /// solver counters (see [`Server::stats`]).
    #[must_use]
    pub fn stats(&self) -> SolverStats {
        self.server.stats()
    }
}

impl Transport for LoopbackTransport {
    fn round_trip(&mut self, request: &str) -> Result<String, ServeError> {
        let requests = wire::decode_requests(request).map_err(ServeError::Transport)?;
        Ok(wire::encode_responses(&self.server.solve_batch(requests)))
    }
}

/// A typed client over any [`Transport`].
#[derive(Debug)]
pub struct Client<T> {
    transport: T,
}

impl<T: Transport> Client<T> {
    /// Wraps a transport.
    #[must_use]
    pub fn new(transport: T) -> Self {
        Self { transport }
    }

    /// The underlying transport (e.g. to read a loopback's statistics).
    #[must_use]
    pub fn transport(&self) -> &T {
        &self.transport
    }

    /// Solves a batch of scenarios through the service and returns one
    /// response per request, **in request order** (the server answers in
    /// that order; this method checks only the count).
    ///
    /// # Errors
    ///
    /// [`ServeError::Transport`] when the exchange or the codec fails or
    /// the server answers the wrong number of responses. Per-job failures
    /// (queue-full, deadline, solve errors) are *not* errors of this
    /// method — they arrive typed inside the matching
    /// [`SolveResponse::outcome`].
    pub fn solve_batch(
        &mut self,
        requests: &[SolveRequest],
    ) -> Result<Vec<SolveResponse>, ServeError> {
        let reply = self
            .transport
            .round_trip(&wire::encode_requests(requests))?;
        let responses = wire::decode_responses(&reply).map_err(ServeError::Transport)?;
        if responses.len() != requests.len() {
            return Err(ServeError::Transport(format!(
                "{} requests but {} responses",
                requests.len(),
                responses.len()
            )));
        }
        Ok(responses)
    }
}
