//! The solve-service smoke behind `repro serve [--tcp]`.
//!
//! The six Table I scenarios ({NO-OBJ, OBJ-DMAT, OBJ-DEL} × α ∈
//! {0.2, 0.4}) are pushed through the full service stack — wire codec,
//! admission queue, worker shards, formulation/presolve cache — once at
//! one worker and then at four, both rounds sharing one [`SolveCache`] and
//! each solve running under the deterministic node budget of `bench-milp`.
//! The smoke checks the service invariants: every answer is
//! [`Resolution::Milp`], the cold round hits the cache zero times and the
//! warm round exactly once per scenario. It measures no time; request
//! latency and throughput are the `serve` workload of `perfbench/`.
//!
//! Scenario *results* are not checked here — the serve determinism
//! regression (crate `letdma-serve`, `serve_matches_direct_optimize_batch`)
//! pins them to direct [`letdma::opt::optimize_batch`].

use letdma::core::{Counter, SolverStats};
use letdma::opt::{Objective, OptConfig, Resolution};
use letdma::serve::{
    Client, LoopbackTransport, ServeConfig, SolveCache, SolveRequest, SolveResponse, TcpServer,
    TcpTransport,
};

use crate::waters_with_alpha;

/// Worker counts of the two rounds: the cold round, then the warm one.
pub const WORKERS: [usize; 2] = [1, 4];

/// One round: the six-scenario WATERS batch through a server with a fixed
/// worker count.
#[derive(Debug, Clone)]
pub struct Round {
    /// Worker threads the server sharded the batch across.
    pub workers: usize,
    /// Responses that solved as [`Resolution::Milp`].
    pub milp: usize,
    /// Formulation/presolve cache hits this round.
    pub cache_hits: u64,
    /// Jobs the admission queue accepted.
    pub jobs_admitted: u64,
}

/// A passed smoke: both rounds and the service statistics behind them.
#[derive(Debug, Clone)]
pub struct ServeSmoke {
    /// Which transport carried the batches: `"loopback"` (in-process) or
    /// `"tcp"` (a real `TcpServer` on OS loopback).
    pub transport: &'static str,
    /// Node budget each MILP solve ran under.
    pub node_limit: u64,
    /// Scenarios per round (the six Table I scenarios).
    pub scenarios: usize,
    /// The rounds, in [`WORKERS`] order.
    pub rounds: Vec<Round>,
    /// Aggregate service statistics over both rounds: admission counters,
    /// cache hits, and — over TCP — the transport counters
    /// (`RetriesAttempted`, `FramesDropped`, `DrainRejections`,
    /// `IdempotentHits`). Printed by `repro serve --stats`.
    pub stats: SolverStats,
}

/// The six Table I scenarios as service requests.
fn table1_requests(node_limit: u64) -> Vec<SolveRequest> {
    let mut requests = Vec::new();
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
                .with_node_limit(node_limit)
                .with_threads(1);
            requests.push(SolveRequest::new(system, config));
        }
    }
    requests
}

/// Checks round number `index` of a `scenarios`-request batch against the
/// service invariants: every answer solved as [`Resolution::Milp`], and
/// the shared cache was hit zero times on the cold round (`index == 0`)
/// and once per scenario on every later round; the error describes the
/// first broken invariant.
fn check(index: usize, scenarios: usize, round: &Round) -> Result<(), String> {
    let workers = round.workers;
    if round.milp != scenarios {
        return Err(format!(
            "round {index} (workers={workers}): {} of {scenarios} scenarios solved as Milp",
            round.milp
        ));
    }
    let expected = if index == 0 { 0 } else { scenarios as u64 };
    if round.cache_hits != expected {
        return Err(format!(
            "round {index} (workers={workers}): {} cache hits, expected {expected}",
            round.cache_hits
        ));
    }
    Ok(())
}

/// Runs the smoke over the in-process loopback transport (`tcp == false`)
/// or over a real [`TcpServer`] on OS loopback (`tcp == true`). Over TCP
/// every request carries a deterministic idempotency key, so an armed
/// `net-*` fault campaign (`LETDMA_FAULTS`, the CI chaos smoke) can force
/// retries without ever double-admitting a job — the round invariants
/// hold under bounded chaos too.
///
/// # Errors
///
/// A description of the first failure: a listener that cannot bind, a
/// transport or codec error, or a round that breaks a service invariant
/// (an answer that is not [`Resolution::Milp`], or a cache-hit count
/// other than 0 on the cold round and one per scenario on the warm one).
pub fn run(node_limit: u64, tcp: bool) -> Result<ServeSmoke, String> {
    let batch = table1_requests(node_limit);
    let scenarios = batch.len();
    let cache = SolveCache::new();
    let mut rounds = Vec::new();
    let mut stats = SolverStats::new();
    for (index, workers) in WORKERS.into_iter().enumerate() {
        let mut requests = batch.clone();
        let config = ServeConfig::new().with_workers(workers);
        let failed = |e: &dyn std::fmt::Display| format!("round {index} (workers={workers}): {e}");
        let responses: Vec<SolveResponse>;
        let round_stats: SolverStats;
        if tcp {
            for (i, request) in requests.iter_mut().enumerate() {
                request.request_key = Some(((index as u64) << 8) | i as u64);
            }
            let server = TcpServer::bind_with_cache("127.0.0.1:0", config, cache.clone())
                .map_err(|e| failed(&e))?;
            let mut client = Client::new(TcpTransport::connect(server.local_addr()));
            responses = client.solve_batch(&requests).map_err(|e| failed(&e))?;
            stats.absorb(client.transport().stats());
            round_stats = server.shutdown();
        } else {
            let mut client = Client::new(LoopbackTransport::with_cache(config, cache.clone()));
            responses = client.solve_batch(&requests).map_err(|e| failed(&e))?;
            round_stats = client.transport().stats();
        }
        let round = Round {
            workers,
            milp: responses
                .iter()
                .filter(
                    |r| matches!(&r.outcome, Ok(report) if report.resolution == Resolution::Milp),
                )
                .count(),
            cache_hits: round_stats.counter(Counter::CacheHits),
            jobs_admitted: round_stats.counter(Counter::JobsAdmitted),
        };
        check(index, scenarios, &round)?;
        rounds.push(round);
        stats.absorb(&round_stats);
    }
    Ok(ServeSmoke {
        transport: if tcp { "tcp" } else { "loopback" },
        node_limit,
        scenarios,
        rounds,
        stats,
    })
}

impl ServeSmoke {
    /// Cache hits of the warm (last) round.
    #[must_use]
    pub fn warm_hits(&self) -> u64 {
        self.rounds.last().map_or(0, |r| r.cache_hits)
    }

    /// Human-readable summary printed by `repro serve`.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = format!(
            "Solve service smoke — six Table I scenarios per round over {}, node budget {}\n",
            self.transport, self.node_limit
        );
        out.push_str("workers   cache hits   jobs admitted   milp\n");
        for round in &self.rounds {
            out.push_str(&format!(
                "{:>7}   {:>10}   {:>13}   {:>4}/{}\n",
                round.workers, round.cache_hits, round.jobs_admitted, round.milp, self.scenarios,
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round(milp: usize, cache_hits: u64) -> Round {
        Round {
            workers: 4,
            milp,
            cache_hits,
            jobs_admitted: 6,
        }
    }

    #[test]
    fn check_accepts_a_cold_then_warm_cache() {
        assert_eq!(check(0, 6, &round(6, 0)), Ok(()));
        assert_eq!(check(1, 6, &round(6, 6)), Ok(()));
    }

    #[test]
    fn check_rejects_non_milp_answers_and_wrong_hit_counts() {
        assert!(check(0, 6, &round(5, 0)).unwrap_err().contains("5 of 6"));
        assert!(check(0, 6, &round(6, 6))
            .unwrap_err()
            .contains("expected 0"));
        assert!(check(1, 6, &round(6, 5))
            .unwrap_err()
            .contains("expected 6"));
    }
}
