//! `serve`: a closed loop of single-request batches from one client to a
//! `TcpServer` with one worker, one connection at a time.
//!
//! Requests are drawn from a pool of generated scenarios: the stream holds
//! every scenario the same number of times in seeded order, so each one's
//! first request misses the `SolveCache` and its repeats hit it (and import
//! the root basis its first solve published). Every pass starts a fresh
//! server, so every pass sees the same misses and hits.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use letdma::analysis::{apply_gammas, derive_gammas, let_task_segments};
use letdma::core::{Counter, Rng, SolverStats, Xoshiro256};
use letdma::opt::heuristic::construct;
use letdma::opt::{heuristic_solution, Objective, OptConfig, Resolution};
use letdma::serve::{
    Client, ServeConfig, ServeError, SolveCache, SolveReport, SolveRequest, TcpServer,
    TcpTransport, Transport,
};
use letdma::waters::corpus::corpus;
use letdma::waters::gen::try_generate;

use crate::harness::{det_geomean, Pass, Traced, Workload};
use crate::trace::{phase_span, Tracer, TOP_PHASES};

/// Node budget of every request: small, so the service's own work stays a
/// visible share of each request.
const NODES: u64 = 1;
/// Distinct scenarios in the pool (the cache's working set).
const POOL: usize = 60;
/// Requests per scenario in one pass: the first misses, the rest hit.
const REPEATS: usize = 10;
/// Scenarios of the warm-up pool, disjoint from the timed one.
const WARM_UP_POOL: usize = 12;
/// Master seeds of the timed and the warm-up pool. The pool is the same in
/// every run, so runs with different seeds serve the same scenarios; the
/// run seed draws the request stream.
const POOL_SEED: u64 = 0xDAC2_2021;
const WARM_UP_POOL_SEED: u64 = 0x5345_5256_4557;
/// α the pool's acquisition deadlines are derived with, in percent.
const ALPHA: u32 = 50;

/// A transport that remembers when its last round trip started and ended,
/// so the client-side encode and decode around it can be told apart.
struct Timed {
    inner: TcpTransport,
    round_trip: Option<(Instant, Instant)>,
    request_bytes: usize,
    response_bytes: usize,
}

impl Transport for Timed {
    fn round_trip(&mut self, request: &str) -> Result<String, ServeError> {
        let start = Instant::now();
        let reply = self.inner.round_trip(request);
        self.round_trip = Some((start, Instant::now()));
        self.request_bytes = request.len();
        self.response_bytes = reply.as_ref().map_or(0, String::len);
        reply
    }
}

/// The request pool and the seeded stream over it.
pub struct Serve {
    pool: Vec<SolveRequest>,
    /// Pool indices in request order.
    stream: Vec<usize>,
    /// Heuristic transfer count per pool entry, the bound a response must
    /// meet (computed on first use, outside the timed operation).
    heuristic_transfers: Vec<Option<usize>>,
}

/// The request pool of `seed` (or the warm-up pool) and its stream.
pub fn requests(
    seed: u64,
    warm_up: bool,
    tracer: &mut Tracer,
) -> Result<(Vec<SolveRequest>, Vec<usize>), String> {
    let (size, pool_seed) = if warm_up {
        (WARM_UP_POOL, WARM_UP_POOL_SEED)
    } else {
        (POOL, POOL_SEED)
    };
    let systems = tracer.span("waters.gen", |_| {
        corpus(size, pool_seed)
            .iter()
            .map(|spec| try_generate(&spec.config).map_err(|e| format!("{}: {e}", spec.name)))
            .collect::<Result<Vec<_>, String>>()
    })?;
    let systems = tracer.span("analysis.gammas", |_| {
        systems
            .into_iter()
            .map(|mut system| {
                let heuristic = construct(&system, false).ok_or("no inter-core communication")?;
                let segments = let_task_segments(&system, &heuristic.schedule);
                let sens = derive_gammas(&system, ALPHA, &segments).map_err(|e| e.to_string())?;
                if !sens.schedulable {
                    return Err(format!("α = {ALPHA}% is not schedulable"));
                }
                apply_gammas(&mut system, &sens);
                Ok(system)
            })
            .collect::<Result<Vec<_>, String>>()
    })?;
    let pool = systems
        .into_iter()
        .enumerate()
        .map(|(i, system)| {
            // Alternate the two objectives so both model shapes are served.
            let objective = if i % 2 == 0 {
                Objective::MinTransfers
            } else {
                Objective::MinDelayRatio
            };
            SolveRequest::new(
                system,
                OptConfig::new()
                    .with_objective(objective)
                    .with_node_limit(NODES)
                    .without_time_limit()
                    .with_threads(1),
            )
        })
        .collect::<Vec<_>>();
    let mut stream: Vec<usize> = (0..REPEATS).flat_map(|_| 0..pool.len()).collect();
    Xoshiro256::seed_from_u64(seed).shuffle(&mut stream);
    Ok((pool, stream))
}

fn bind(cache: SolveCache) -> Result<TcpServer, String> {
    TcpServer::bind_with_cache("127.0.0.1:0", ServeConfig::new().with_workers(1), cache)
        .map_err(|e| format!("bind loopback listener: {e}"))
}

impl Workload for Serve {
    fn setup(seed: u64, warm_up: bool, tracer: &mut Tracer) -> Result<Self, String> {
        let (pool, stream) = requests(seed, warm_up, tracer)?;
        let server = tracer.span("serve.bind", |_| bind(SolveCache::new()))?;
        drop(server.shutdown());
        Ok(Self {
            heuristic_transfers: vec![None; pool.len()],
            pool,
            stream,
        })
    }

    fn pass(&mut self, tracer: &mut Tracer) -> Pass {
        let mut pass = Pass::default();
        let cache = SolveCache::new();
        let server = match bind(cache.clone()) {
            Ok(server) => server,
            Err(e) => {
                pass.failures.push(e);
                return pass;
            }
        };
        let mut client = Client::new(Timed {
            inner: TcpTransport::connect(server.local_addr()),
            round_trip: None,
            request_bytes: 0,
            response_bytes: 0,
        });
        let (mut transfers, mut nodes, mut iterations, mut hits) = (0, 0, 0, 0u64);
        let mut delay_ratios = Vec::new();
        let mut seen = vec![false; self.pool.len()];
        for k in 0..self.stream.len() {
            let index = self.stream[k];
            let batch = [self.pool[index].clone()];
            let (result, elapsed) = tracer.op("serve.request", |t| {
                let start = Instant::now();
                let result = client.solve_batch(&batch);
                let end = Instant::now();
                if let Some(op) = t.current() {
                    timeline(t, op, start, client.transport().round_trip, end, &result);
                }
                result
            });
            let transport = client.transport();
            pass.add("serve.request_bytes", transport.request_bytes as f64);
            pass.add("serve.response_bytes", transport.response_bytes as f64);
            let expect_hit = std::mem::replace(&mut seen[index], true);
            let report = result
                .map_err(|e| e.to_string())
                .and_then(|mut responses| responses.remove(0).outcome.map_err(|e| e.to_string()));
            let failure = match &report {
                Err(e) => Some(format!("request {index}: {e}")),
                Ok(report) => self.check(index, report, expect_hit).err(),
            };
            if let Ok(report) = &report {
                transfers += report.num_transfers as u64;
                nodes += report.stats.counter(Counter::Nodes);
                iterations += report.stats.counter(Counter::SimplexIterations)
                    + report.stats.counter(Counter::DualIterations);
                if self.pool[index].config.objective == Objective::MinDelayRatio {
                    delay_ratios.extend(report.objective_value);
                }
                let ms = elapsed.as_secs_f64() * 1e3;
                if report.cache_hit {
                    hits += 1;
                    pass.add("serve.hit_ms", ms);
                } else {
                    pass.add("serve.miss_ms", ms);
                }
                pass.add(
                    "serve.overhead_ms",
                    ms - solve_phases(&report.stats).as_secs_f64() * 1e3,
                );
                pass.stats.absorb(&report.stats);
            }
            pass.record(elapsed, failure);
        }
        pass.add(
            "serve.retries",
            client
                .transport()
                .inner
                .stats()
                .counter(Counter::RetriesAttempted) as f64,
        );
        pass.add("serve.hits", hits as f64);
        pass.add("serve.cache_entries", cache.len() as f64);
        drop(server.shutdown());
        pass.det.insert("transfers", transfers);
        pass.det.insert("delay_ratio", det_geomean(&delay_ratios));
        pass.det.insert("milp.nodes", nodes);
        pass.det.insert("milp.simplex_iterations", iterations);
        pass.det.insert("serve.hits", hits);
        pass
    }

    fn layers(&self, traced: &Traced<'_>, out: &mut BTreeMap<&'static str, f64>) {
        traced.solver_layers(out);
        let ops = traced.pass.ops().max(1) as f64;
        let hits = traced.pass.sums.get("serve.hits").copied().unwrap_or(0.0);
        let sum = |key: &str| traced.pass.sums.get(key).copied().unwrap_or(0.0);
        out.extend([
            ("serve.overhead_ms", traced.per_op("serve.overhead_ms")),
            ("serve.encode_ms", traced.span_ms("serve.encode")),
            ("serve.decode_ms", traced.span_ms("serve.decode")),
            ("serve.request_bytes", traced.per_op("serve.request_bytes")),
            (
                "serve.response_bytes",
                traced.per_op("serve.response_bytes"),
            ),
            ("serve.cache_hit_ratio", hits / ops),
            ("serve.hit_ms", sum("serve.hit_ms") / hits.max(1.0)),
            (
                "serve.miss_ms",
                sum("serve.miss_ms") / (ops - hits).max(1.0),
            ),
            (
                "serve.cache_entries",
                traced.per_pass("serve.cache_entries"),
            ),
            ("serve.retries", traced.per_pass("serve.retries")),
        ]);
    }
}

impl Serve {
    /// The output checks of one response: MILP resolution, no more
    /// transfers than the heuristic, and a cache hit exactly on repeats.
    fn check(
        &mut self,
        index: usize,
        report: &SolveReport,
        expect_hit: bool,
    ) -> Result<(), String> {
        if report.resolution != Resolution::Milp {
            return Err(format!(
                "request {index}: resolved as {}",
                report.resolution
            ));
        }
        if report.cache_hit != expect_hit {
            return Err(format!(
                "request {index}: cache hit {}, expected {expect_hit}",
                report.cache_hit
            ));
        }
        let bound = match self.heuristic_transfers[index] {
            Some(n) => n,
            None => {
                let n = heuristic_solution(&self.pool[index].system, false)
                    .map_err(|e| format!("request {index}: heuristic: {e}"))?
                    .num_transfers();
                *self.heuristic_transfers[index].insert(n)
            }
        };
        if report.num_transfers > bound {
            return Err(format!(
                "request {index}: {} transfers, heuristic has {bound}",
                report.num_transfers
            ));
        }
        Ok(())
    }
}

/// Sum of the optimizer's top-level phase durations in `stats`: the solve
/// time a server reports for a request.
fn solve_phases(stats: &SolverStats) -> Duration {
    stats
        .phases()
        .iter()
        .filter(|(name, _, _)| TOP_PHASES.contains(name))
        .map(|(_, d, _)| *d)
        .sum()
}

/// Records a request's timeline under its operation span: client-side
/// encode, the round trip, and decode; inside the round trip, the server's
/// admission and transport share followed by the solve phases it reported
/// (placed back to back from their durations, marked estimated).
fn timeline(
    t: &mut Tracer,
    op: usize,
    start: Instant,
    round_trip: Option<(Instant, Instant)>,
    end: Instant,
    result: &Result<Vec<letdma::serve::SolveResponse>, ServeError>,
) {
    let (start, end) = (t.ns_at(start), t.ns_at(end));
    let Some((rt_start, rt_end)) = round_trip.map(|(a, b)| (t.ns_at(a), t.ns_at(b))) else {
        return;
    };
    t.record("serve.encode", op, start, rt_start, false);
    let rt = t.record("serve.round_trip", op, rt_start, rt_end, false);
    t.record("serve.decode", op, rt_end, end, false);
    let Some(Ok(report)) = result
        .as_ref()
        .ok()
        .and_then(|r| r.first())
        .map(|r| r.outcome.as_ref())
    else {
        return;
    };
    let solve = u64::try_from(solve_phases(&report.stats).as_nanos()).unwrap_or(u64::MAX);
    let admit = (rt_end - rt_start).saturating_sub(solve);
    let mut span = t.record("serve.admit", rt, rt_start, rt_start + admit, true);
    for (name, d, _) in report.stats.phases() {
        if TOP_PHASES.contains(name) {
            let at = t.spans()[span].end;
            let ns = u64::try_from(d.as_nanos()).unwrap_or(u64::MAX);
            span = t.record(phase_span(name), rt, at, at.saturating_add(ns), true);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn another_seed_gives_another_valid_stream() {
        let mut t = Tracer::new(false);
        let (pool_a, stream_a) = requests(1, false, &mut t).expect("seed 1");
        let (pool_b, stream_b) = requests(2, false, &mut t).expect("seed 2");
        assert_eq!(pool_a.len(), POOL);
        assert_eq!(
            format!("{pool_a:?}"),
            format!("{pool_b:?}"),
            "one pool for every seed"
        );
        assert_ne!(
            stream_a, stream_b,
            "different seeds, different request stream"
        );
        for stream in [&stream_a, &stream_b] {
            let mut counts = vec![0; POOL];
            for &i in stream.iter() {
                counts[i] += 1;
            }
            assert!(
                counts.iter().all(|&c| c == REPEATS),
                "each scenario {REPEATS} times"
            );
        }
        assert_eq!(requests(1, false, &mut t).expect("again").1, stream_a);
        // Every scenario of the pool admits the heuristic the MILP starts from.
        for request in &pool_a {
            heuristic_solution(&request.system, false).expect("heuristic is valid");
        }
    }
}
