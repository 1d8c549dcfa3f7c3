//! The solve-service throughput benchmark behind `repro serve-bench` (and
//! the `repro serve` CI smoke) and the committed `BENCH_serve.json`
//! baseline.
//!
//! The six Table I scenarios ({NO-OBJ, OBJ-DMAT, OBJ-DEL} × α ∈
//! {0.2, 0.4}) are pushed through the full service stack — wire codec,
//! admission queue, worker shards, formulation/presolve cache — one round
//! per worker count, all rounds sharing one [`SolveCache`]. Each solve
//! runs under the same deterministic node budget as `bench-milp`, so the
//! per-scenario work is fixed and the headline `scenarios_per_sec` isolates
//! the service's sharding overhead and cache payoff: round 1 builds the six
//! cache entries cold, every later round re-submits the same structures and
//! must report six cache hits.
//!
//! Scenario *results* are not a measurement here — the serve determinism
//! regression (crate `letdma-serve`, `serve_matches_direct_optimize_batch`)
//! pins them to direct [`letdma::opt::optimize_batch`]; this benchmark
//! asserts only the service-level invariants (everything solves as
//! [`Resolution::Milp`], the cache behaves) and measures wall clock.

use std::time::{Duration, Instant};

use letdma::core::{Counter, SolverStats};
use letdma::opt::{Objective, OptConfig, Resolution};
use letdma::serve::{
    Client, LoopbackTransport, ServeConfig, SolveCache, SolveRequest, SolveResponse, TcpServer,
    TcpTransport,
};

use crate::json::Json;
use crate::waters_with_alpha;

/// Schema tag written into `BENCH_serve.json`.
pub const SCHEMA: &str = "letdma-bench-serve/1";

/// Interpretation warning embedded in every report: the throughput curve
/// is not a sharding measurement on a small host, and over TCP it also
/// carries constant framing overhead.
pub const CAVEAT: &str = "flat curve expected: workers beyond host_parallelism timeshare the same \
     cores, and the tcp transport runs over OS loopback, adding constant per-batch \
     framing/connection overhead on top — neither slope measures sharding";

/// One round: the six-scenario WATERS batch through a server with a fixed
/// worker count.
#[derive(Debug, Clone)]
pub struct RoundReport {
    /// Worker threads the server sharded the batch across.
    pub workers: usize,
    /// Scenarios submitted (always the six Table I scenarios).
    pub scenarios: usize,
    /// Responses that solved as [`Resolution::Milp`] (anything else is a
    /// service-level regression; `run` panics before reporting it).
    pub milp: usize,
    /// Formulation/presolve cache hits this round (0 on the cold round,
    /// `scenarios` on every later round).
    pub cache_hits: u64,
    /// Jobs the admission queue accepted (always `scenarios`: the batch
    /// fits the queue).
    pub jobs_admitted: u64,
    /// Wall clock of the full round trip: encode, admit, solve on the
    /// shards, stream back, decode. Timing-dependent; everything else in
    /// this report is deterministic.
    pub wall_clock: Duration,
}

impl RoundReport {
    /// Headline throughput of this round.
    #[must_use]
    pub fn scenarios_per_sec(&self) -> f64 {
        self.scenarios as f64 / self.wall_clock.as_secs_f64().max(1e-9)
    }

    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("workers", Json::Int(self.workers as i64)),
            ("scenarios", Json::Int(self.scenarios as i64)),
            ("milp", Json::Int(self.milp as i64)),
            ("cache_hits", Json::Int(self.cache_hits as i64)),
            ("jobs_admitted", Json::Int(self.jobs_admitted as i64)),
            (
                "wall_clock_ms",
                Json::Float(self.wall_clock.as_secs_f64() * 1e3),
            ),
            ("scenarios_per_sec", Json::Float(self.scenarios_per_sec())),
        ])
    }
}

/// The serve throughput benchmark: one round per requested worker count.
#[derive(Debug, Clone)]
pub struct ServeBench {
    /// Node budget each MILP solve ran under (the deterministic stopping
    /// rule shared with `bench-milp`).
    pub node_limit: u64,
    /// `std::thread::available_parallelism()` on the machine that produced
    /// the numbers. Worker counts beyond this cannot show wall-clock
    /// scaling (they timeshare one core set), so a flat throughput curve
    /// on a small host is expected, not a sharding regression (see
    /// [`CAVEAT`]).
    pub host_parallelism: usize,
    /// Which transport carried the batches: `"loopback"` (in-process) or
    /// `"tcp"` (a real `TcpServer` on OS loopback).
    pub transport: &'static str,
    /// Per-worker-count rounds, in request order.
    pub rounds: Vec<RoundReport>,
    /// Aggregate service statistics over every round: admission counters,
    /// cache hits, and — over TCP — the transport counters
    /// (`RetriesAttempted`, `FramesDropped`, `DrainRejections`,
    /// `IdempotentHits`). Printed by `repro serve[-bench] --stats`, not
    /// serialized into the report file.
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

/// Runs the benchmark over the in-process loopback transport: for each
/// entry of `workers`, the six-scenario WATERS batch through a fresh
/// server sharing one [`SolveCache`].
///
/// # Panics
///
/// Panics when the service breaks one of its invariants: a transport/codec
/// failure, a response that is not [`Resolution::Milp`] (the node-limited
/// WATERS scenarios always reach an incumbent), or a warm round whose
/// cache-hit count is not exactly the scenario count.
#[must_use]
pub fn run(node_limit: u64, workers: &[usize]) -> ServeBench {
    run_over(node_limit, workers, false)
}

/// Runs the benchmark over loopback (`tcp == false`) or over a real
/// [`TcpServer`] on OS loopback (`tcp == true`). Over TCP every request
/// carries a deterministic idempotency key, so an armed `net-*` fault
/// campaign (`LETDMA_FAULTS`, the CI chaos smoke) can force retries
/// without ever double-admitting a job — the round invariants (every
/// scenario Milp, exact cache-hit counts) hold under bounded chaos too.
///
/// # Panics
///
/// As [`run`]; additionally panics if the TCP listener cannot bind.
#[must_use]
pub fn run_over(node_limit: u64, workers: &[usize], tcp: bool) -> ServeBench {
    let cache = SolveCache::new();
    let mut rounds = Vec::new();
    let mut stats = SolverStats::new();
    for (round, &w) in workers.iter().enumerate() {
        let mut requests = table1_requests(node_limit);
        let scenarios = requests.len();
        if tcp {
            for (i, request) in requests.iter_mut().enumerate() {
                request.request_key = Some(((round as u64) << 8) | i as u64);
            }
        }

        let started;
        let responses: Vec<SolveResponse>;
        let round_stats: SolverStats;
        if tcp {
            let server = TcpServer::bind_with_cache(
                "127.0.0.1:0",
                ServeConfig::new().with_workers(w),
                cache.clone(),
            )
            .unwrap_or_else(|e| panic!("serve round (workers={w}): bind failed: {e}"));
            let mut client = Client::new(TcpTransport::connect(server.local_addr()));
            started = Instant::now();
            responses = client
                .solve_batch(&requests)
                .unwrap_or_else(|e| panic!("serve round (workers={w}) failed: {e}"));
            stats.absorb(client.transport().stats());
            round_stats = server.shutdown();
        } else {
            let mut client = Client::new(LoopbackTransport::with_cache(
                ServeConfig::new().with_workers(w),
                cache.clone(),
            ));
            started = Instant::now();
            responses = client
                .solve_batch(&requests)
                .unwrap_or_else(|e| panic!("serve round (workers={w}) failed: {e}"));
            round_stats = client.transport().stats();
        }
        let wall_clock = started.elapsed();

        let milp = responses
            .iter()
            .filter(|r| matches!(&r.outcome, Ok(report) if report.resolution == Resolution::Milp))
            .count();
        assert_eq!(
            milp, scenarios,
            "every WATERS scenario must solve as Milp (workers={w})"
        );
        let cache_hits = round_stats.counter(Counter::CacheHits);
        let expected_hits = if round == 0 { 0 } else { scenarios as u64 };
        assert_eq!(
            cache_hits, expected_hits,
            "round {round} (workers={w}) must hit the shared cache {expected_hits} times"
        );
        rounds.push(RoundReport {
            workers: w,
            scenarios,
            milp,
            cache_hits,
            jobs_admitted: round_stats.counter(Counter::JobsAdmitted),
            wall_clock,
        });
        stats.absorb(&round_stats);
    }
    ServeBench {
        node_limit,
        host_parallelism: std::thread::available_parallelism().map_or(1, usize::from),
        transport: if tcp { "tcp" } else { "loopback" },
        rounds,
        stats,
    }
}

impl ServeBench {
    /// The `BENCH_serve.json` value (schema documented in DESIGN.md
    /// §"Service architecture").
    #[must_use]
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("schema", Json::str(SCHEMA)),
            ("generated_by", Json::str("repro serve-bench")),
            ("node_limit", Json::Int(self.node_limit as i64)),
            ("host_parallelism", Json::Int(self.host_parallelism as i64)),
            ("transport", Json::str(self.transport)),
            ("caveat", Json::str(CAVEAT)),
            (
                "rounds",
                Json::Arr(self.rounds.iter().map(RoundReport::to_json).collect()),
            ),
        ])
    }

    /// Human-readable summary printed by `repro serve-bench`.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "Solve service throughput — six Table I scenarios per round over {}, node budget {}, host parallelism {}\n",
            self.transport, self.node_limit, self.host_parallelism
        ));
        out.push_str("workers   scenarios/sec   wall clock      cache hits   milp\n");
        for round in &self.rounds {
            out.push_str(&format!(
                "{:>7}   {:>13.2}   {:>10.2?}   {:>10}   {:>4}/{}\n",
                round.workers,
                round.scenarios_per_sec(),
                round.wall_clock,
                round.cache_hits,
                round.milp,
                round.scenarios,
            ));
        }
        out
    }
}

/// Checks that a rendered benchmark value matches the [`SCHEMA`] layout;
/// returns the first problem found. Runs before every `BENCH_serve.json`
/// write and in the CI serve smoke.
///
/// # Errors
///
/// A description of the first missing/ill-typed field.
pub fn validate(value: &Json) -> Result<(), String> {
    let need = |v: &Json, key: &str| -> Result<Json, String> {
        v.get(key).cloned().ok_or(format!("missing key `{key}`"))
    };
    match need(value, "schema")? {
        Json::Str(s) if s == SCHEMA => {}
        other => return Err(format!("bad schema tag {other:?}")),
    }
    for key in ["node_limit", "host_parallelism"] {
        let Json::Int(_) = need(value, key)? else {
            return Err(format!("{key} must be an integer"));
        };
    }
    match need(value, "transport")? {
        Json::Str(t) if t == "loopback" || t == "tcp" => {}
        other => return Err(format!("bad transport {other:?}")),
    }
    let Json::Str(_) = need(value, "caveat")? else {
        return Err("caveat must be a string".into());
    };
    let Json::Arr(rounds) = need(value, "rounds")? else {
        return Err("rounds must be an array".into());
    };
    if rounds.is_empty() {
        return Err("rounds must not be empty".into());
    }
    for (i, round) in rounds.iter().enumerate() {
        for key in [
            "workers",
            "scenarios",
            "milp",
            "cache_hits",
            "jobs_admitted",
        ] {
            let Json::Int(_) = need(round, key).map_err(|e| format!("rounds[{i}]: {e}"))? else {
                return Err(format!("rounds[{i}].{key} must be an integer"));
            };
        }
        for key in ["wall_clock_ms", "scenarios_per_sec"] {
            match need(round, key).map_err(|e| format!("rounds[{i}]: {e}"))? {
                Json::Float(_) | Json::Int(_) => {}
                _ => return Err(format!("rounds[{i}].{key} must be a number")),
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validate_accepts_emitted_shape_and_rejects_drift() {
        let bench = ServeBench {
            node_limit: 4,
            host_parallelism: 1,
            transport: "loopback",
            stats: SolverStats::new(),
            rounds: vec![RoundReport {
                workers: 2,
                scenarios: 6,
                milp: 6,
                cache_hits: 6,
                jobs_admitted: 6,
                wall_clock: Duration::from_millis(1500),
            }],
        };
        let value = bench.to_json();
        assert_eq!(validate(&value), Ok(()));

        let missing = Json::obj(vec![("schema", Json::str(SCHEMA))]);
        assert!(validate(&missing).is_err());
        let wrong_tag = Json::obj(vec![
            ("schema", Json::str("letdma-bench-serve/0")),
            ("node_limit", Json::Int(4)),
            ("rounds", Json::Arr(vec![])),
        ]);
        assert!(validate(&wrong_tag).is_err());
    }

    #[test]
    fn throughput_uses_wall_clock() {
        let round = RoundReport {
            workers: 1,
            scenarios: 6,
            milp: 6,
            cache_hits: 0,
            jobs_admitted: 6,
            wall_clock: Duration::from_secs(3),
        };
        assert!((round.scenarios_per_sec() - 2.0).abs() < 1e-12);
    }
}
