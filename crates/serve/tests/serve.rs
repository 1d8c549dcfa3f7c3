//! Integration tests for the solve service: typed admission/deadline
//! semantics, the wire codec round-trip, cache-hit behavior, and the
//! determinism regression against direct `Optimizer::run_prepared` solves.

use std::collections::HashMap;
use std::time::Duration;

use letdma_core::{Counter, NodeEvent, SolverStats};
use letdma_model::{System, SystemBuilder};
use letdma_opt::{prepare, structure_key, Objective, OptConfig, Optimizer, Resolution};
use letdma_serve::{
    wire, Client, JobId, LoopbackTransport, ServeConfig, ServeError, Server, SolveCache,
    SolveRequest, SolveResponse, TcpServer, TcpTransport,
};

/// A small system with real cross-core communication so the MILP pipeline
/// (heuristic, formulation, presolve, search, validation) all do work.
fn comm_system(period_ms: u64) -> System {
    let mut b = SystemBuilder::new(2);
    let p = b
        .task("producer")
        .period_ms(period_ms)
        .core_index(0)
        .add()
        .unwrap();
    let q = b
        .task("relay")
        .period_ms(period_ms * 2)
        .core_index(0)
        .add()
        .unwrap();
    let c = b
        .task("consumer")
        .period_ms(period_ms * 2)
        .core_index(1)
        .add()
        .unwrap();
    b.label("frame")
        .size(256)
        .writer(p)
        .reader(c)
        .add()
        .unwrap();
    b.label("state").size(64).writer(q).reader(c).add().unwrap();
    b.label("ack").size(32).writer(c).reader(p).add().unwrap();
    b.build().unwrap()
}

fn base_config() -> OptConfig {
    OptConfig::new()
        .with_objective(Objective::MinTransfers)
        .with_threads(1)
}

/// Counters, node events, phase `(name, count)`s and incumbent
/// `(objective bits, nodes)`s of one solve.
type Trajectory<'a> = (
    Vec<(Counter, u64)>,
    Vec<u64>,
    Vec<(&'a str, u64)>,
    Vec<(u64, u64)>,
);

/// The trajectory fields that must be reproducible run-to-run: everything
/// except wall-clock durations.
fn trajectory(stats: &SolverStats) -> Trajectory<'_> {
    (
        stats.counters(),
        NodeEvent::ALL
            .iter()
            .map(|&e| stats.node_events(e))
            .collect(),
        stats
            .phases()
            .iter()
            .map(|&(name, _, count)| (name, count))
            .collect(),
        stats
            .incumbents()
            .iter()
            .map(|r| (r.objective.to_bits(), r.nodes))
            .collect(),
    )
}

// ---------------------------------------------------------------------------
// Wire codec (satellite: serialization pin)
// ---------------------------------------------------------------------------

/// Requests survive the codec: system structure, config knobs and the
/// admission-relative deadline all round-trip, and the re-solved system
/// hashes to the same structure key as the original.
#[test]
fn wire_requests_round_trip() {
    let system = comm_system(5);
    let config = base_config().with_node_limit(1234);
    let request =
        SolveRequest::new(system.clone(), config.clone()).with_deadline(Duration::from_millis(750));

    let text = wire::encode_requests(&[request]);
    let decoded = wire::decode_requests(&text).expect("decode");
    assert_eq!(decoded.len(), 1);
    assert_eq!(decoded[0].deadline, Some(Duration::from_millis(750)));
    assert_eq!(decoded[0].config.node_limit, Some(1234));
    assert_eq!(
        letdma_opt::structure_key(&decoded[0].system, &decoded[0].config),
        letdma_opt::structure_key(&system, &config),
        "decoded system/config must hash to the original structure key"
    );
}

/// A request document as an older client sends it: the config object
/// also carries `fields`, knobs this version no longer has, ahead of its
/// other fields (the decoder reads the first field of a name).
fn older_request_document(request: SolveRequest, fields: &str) -> String {
    let text = wire::encode_requests(&[request]);
    assert_eq!(
        text.matches("\"objective\"").count(),
        1,
        "only the config object has an `objective` field"
    );
    text.replacen("\"objective\"", &format!("{fields}, \"objective\""), 1)
}

/// Request documents from older clients carry config fields this version
/// no longer has (the removed warm-basis, `crash`, `log`,
/// `deterministic`, `max_transfers`, `reuse_basis` and `measure_root_gap`
/// knobs); the decoder ignores unknown fields instead of rejecting the
/// document.
#[test]
fn wire_requests_from_older_clients_still_decode() {
    let config = base_config().with_node_limit(77);
    let request = SolveRequest::new(comm_system(5), config);
    let text = wire::encode_requests(std::slice::from_ref(&request));
    for retired in [
        "\"crash\"",
        "\"log\"",
        "\"deterministic\"",
        "\"max_transfers\"",
        "\"reuse_basis\"",
        "\"measure_root_gap\"",
    ] {
        assert!(!text.contains(retired), "{retired} is no longer encoded");
    }
    let older = older_request_document(
        request,
        "\"crash\": true, \"log\": true, \"deterministic\": false, \
         \"max_transfers\": 2, \"reuse_basis\": false, \"measure_root_gap\": true, \
         \"retired_knob\": false",
    );
    let decoded = wire::decode_requests(&older).expect("older documents decode");
    assert_eq!(decoded[0].config.node_limit, Some(77));
}

/// An older client's `"max_transfers": 0` once reached an assertion in
/// the formulation build, outside any panic guard: it killed the worker
/// and the server never answered again. The field is ignored now, so a
/// one-worker server answers that request with a normal solve, and the
/// next request after it too.
#[test]
fn retired_zero_transfer_cap_gets_a_normal_solve() {
    use letdma_serve::Transport;
    let mut transport = LoopbackTransport::new(ServeConfig::new().with_workers(1));
    let older = older_request_document(
        SolveRequest::new(comm_system(5), base_config()),
        "\"max_transfers\": 0",
    );
    let reply = transport.round_trip(&older).expect("answered");
    let responses = wire::decode_responses(&reply).expect("decode");
    let report = responses[0].outcome.as_ref().expect("a normal solve");
    assert_eq!(report.resolution, Resolution::Milp);

    let next = wire::encode_requests(&[SolveRequest::new(comm_system(10), base_config())]);
    let reply = transport.round_trip(&next).expect("the worker survives");
    let responses = wire::decode_responses(&reply).expect("decode");
    assert_eq!(
        responses[0].outcome.as_ref().map(|r| r.resolution),
        Ok(Resolution::Milp)
    );
}

/// Responses survive the codec bit-exactly: the objective value's f64
/// bits, every counter, phase counts and the incumbent timeline, plus
/// typed errors.
#[test]
fn wire_responses_round_trip() {
    let system = comm_system(5);
    let mut client = Client::new(LoopbackTransport::new(ServeConfig::new().with_workers(1)));
    let responses = client
        .solve_batch(&[SolveRequest::new(system, base_config())])
        .expect("loopback batch");
    assert_eq!(responses.len(), 1);

    // The loopback already pushed these through the codec once; a second
    // explicit round trip must be a fixed point.
    let text = wire::encode_responses(&responses);
    let again = wire::decode_responses(&text).expect("decode responses");
    assert_eq!(again, responses, "codec must be a fixed point on responses");

    let report = responses[0].outcome.as_ref().expect("solved");
    assert_eq!(report.resolution, Resolution::Milp);
    assert!(report.objective_value.is_some());
    assert!(!report.stats.phases().is_empty());
}

/// A reply from a server that still ships a retired counter, phase or
/// node event decodes to the same stats as the reply without that entry:
/// the decoder skips names it does not know, as it skips unknown request
/// fields. `refactor cadence` is a counter that was retired with its knob.
#[test]
fn wire_replies_with_retired_names_still_decode() {
    let mut client = Client::new(LoopbackTransport::new(ServeConfig::new().with_workers(1)));
    let responses = client
        .solve_batch(&[SolveRequest::new(comm_system(5), base_config())])
        .expect("loopback batch");
    let text = wire::encode_responses(&responses);
    let splice = |open: &str, entry: &str| {
        assert_eq!(text.matches(open).count(), 1, "one `{open}` in the reply");
        let spliced = text.replacen(open, &format!("{open}{entry}, "), 1);
        assert!(
            !spliced.contains(", }") && !spliced.contains(", ]"),
            "nonempty"
        );
        spliced
    };
    for older in [
        splice("\"counters\": {", "\"refactor cadence\": 128"),
        splice("\"node_events\": {", "\"warm fathomed\": 3"),
        splice(
            "\"phases\": [",
            "{\"name\": \"dual-simplex\", \"ns\": 5, \"count\": 1}",
        ),
    ] {
        assert_ne!(older, text);
        let decoded = wire::decode_responses(&older).expect("a retired name decodes");
        assert_eq!(decoded, responses);
    }
}

/// Every phase a real in-process solve reports is in
/// `wire::KNOWN_PHASES`, so the decoder, which skips unknown names, never
/// drops one of this build's own phases.
#[test]
fn every_pipeline_phase_is_known_to_the_wire_codec() {
    let system = comm_system(5);
    let mut stats = SolverStats::new();
    Optimizer::new(&system)
        .config(base_config())
        .instrument(&mut stats)
        .run()
        .expect("direct solve");
    assert!(!stats.phases().is_empty());
    for &(name, _, _) in stats.phases() {
        assert!(wire::KNOWN_PHASES.contains(&name), "phase `{name}` unknown");
    }
}

/// Typed errors survive the codec.
#[test]
fn wire_errors_round_trip() {
    use letdma_serve::{JobId, SolveResponse};
    let responses = vec![
        SolveResponse::new(JobId(3), Err(ServeError::QueueFull { capacity: 7 })),
        SolveResponse::new(JobId(4), Err(ServeError::DeadlineExpired)),
        SolveResponse::new(JobId(5), Err(ServeError::Solve("no incumbent".into()))),
    ];
    let again = wire::decode_responses(&wire::encode_responses(&responses)).expect("decode");
    assert_eq!(again, responses);
}

// ---------------------------------------------------------------------------
// Admission control and deadlines (satellite: interplay tests)
// ---------------------------------------------------------------------------

/// A full queue rejects at admission with a typed error, answered inline
/// in the batch's response list — one response per request either way.
#[test]
fn queue_full_rejects_typed() {
    let server = Server::start(ServeConfig::new().with_workers(1).with_queue_capacity(0));
    let request = SolveRequest::new(comm_system(5), base_config());
    let responses = server.solve_batch(vec![request]);
    assert_eq!(
        responses,
        [SolveResponse::new(
            JobId(0),
            Err(ServeError::QueueFull { capacity: 0 })
        )]
    );

    let stats = server.shutdown();
    assert_eq!(stats.counter(Counter::JobsRejected), 1);
    assert_eq!(stats.counter(Counter::JobsAdmitted), 0);
}

/// A job whose deadline has already passed when a worker picks it up is
/// rejected with the typed deadline error before any solver work: its
/// response carries no solve report at all.
#[test]
fn queued_expiry_rejected_before_any_work() {
    let server = Server::start(ServeConfig::new().with_workers(1));
    let request = SolveRequest::new(comm_system(5), base_config()).with_deadline(Duration::ZERO);
    let responses = server.solve_batch(vec![request]);
    assert_eq!(
        responses,
        [SolveResponse::new(
            JobId(0),
            Err(ServeError::DeadlineExpired)
        )]
    );

    let stats = server.shutdown();
    assert_eq!(stats.counter(Counter::JobsAdmitted), 1);
    assert_eq!(
        stats.counter(Counter::SimplexIterations),
        0,
        "an expired job must not reach the simplex"
    );
}

/// A deadline that is still live when the solve starts never produces the
/// typed deadline error: if it expires mid-solve the anytime search hands
/// back its best incumbent (or the pipeline degrades), but the outcome
/// stays `Ok`.
#[test]
fn in_flight_deadline_returns_best_incumbent() {
    let server = Server::start(ServeConfig::new().with_workers(1));
    let request =
        SolveRequest::new(comm_system(5), base_config()).with_deadline(Duration::from_secs(300));
    let mut responses = server.solve_batch(vec![request]);
    let response = responses.remove(0);
    assert_eq!(response.job, JobId(0));
    let report = response.outcome.expect("live deadline must not reject");
    assert_eq!(report.resolution, Resolution::Milp);
}

// ---------------------------------------------------------------------------
// Cache behavior
// ---------------------------------------------------------------------------

/// Re-submitting the same model structure hits the formulation/presolve
/// cache: the second job is flagged, the server counts the hit, and —
/// because the cache entry also carries the first job's optimal root basis
/// — the second solve imports it, skipping simplex phase 1 while reporting
/// the same optimum.
#[test]
fn cache_hit_on_resubmission() {
    let server = Server::start(ServeConfig::new().with_workers(1));
    let system = comm_system(5);
    let responses = server.solve_batch(vec![
        SolveRequest::new(system.clone(), base_config()),
        SolveRequest::new(system, base_config()),
    ]);
    assert_eq!(responses[0].job, JobId(0));
    assert_eq!(responses[1].job, JobId(1));

    let cold = responses[0].outcome.as_ref().expect("cold solve");
    let warm = responses[1].outcome.as_ref().expect("warm solve");
    assert!(
        !cold.cache_hit,
        "first submission must build the cache entry"
    );
    assert!(warm.cache_hit, "second submission must reuse it");
    assert_eq!(warm.resolution, cold.resolution);
    assert_eq!(warm.num_transfers, cold.num_transfers);
    assert_eq!(
        warm.objective_value.map(f64::to_bits),
        cold.objective_value.map(f64::to_bits)
    );
    assert_eq!(
        cold.stats.counter(Counter::CrossScenarioWarmStarts),
        0,
        "the first job solves cold and donates its root basis"
    );
    assert_eq!(
        warm.stats.counter(Counter::CrossScenarioWarmStarts),
        1,
        "the resubmission imports the cached root basis"
    );
    assert!(
        warm.stats.counter(Counter::Phase1IterationsSaved) > 0,
        "the import skips the donor's phase-1 work"
    );
    // The hit replays the cached reduction's presolve tallies and opens
    // the same phases as the cold solve.
    for counter in [
        Counter::PresolveRowsDropped,
        Counter::PresolveColsFixed,
        Counter::CoeffsTightened,
    ] {
        assert!(cold.stats.counter(counter) > 0, "{counter:?}");
        assert_eq!(
            warm.stats.counter(counter),
            cold.stats.counter(counter),
            "{counter:?}"
        );
    }
    let phase_names = |stats: &SolverStats| -> Vec<&'static str> {
        stats.phases().iter().map(|&(name, _, _)| name).collect()
    };
    assert_eq!(phase_names(&warm.stats), phase_names(&cold.stats));

    let stats = server.shutdown();
    assert_eq!(stats.counter(Counter::CacheHits), 1);
}

/// Different model structures do not collide in the cache.
#[test]
fn distinct_structures_do_not_collide() {
    let cache = SolveCache::new();
    let mut transport =
        LoopbackTransport::with_cache(ServeConfig::new().with_workers(1), cache.clone());
    let requests = vec![
        SolveRequest::new(comm_system(5), base_config()),
        SolveRequest::new(comm_system(10), base_config()),
    ];
    let text = wire::encode_requests(&requests);
    use letdma_serve::Transport;
    let reply = transport.round_trip(&text).expect("round trip");
    let responses = wire::decode_responses(&reply).expect("decode");
    assert_eq!(responses.len(), 2);
    assert!(responses.iter().all(|r| r.outcome.is_ok()));
    assert_eq!(cache.len(), 2, "each structure gets its own entry");
    assert_eq!(transport.stats().counter(Counter::CacheHits), 0);
}

// ---------------------------------------------------------------------------
// Graceful drain and the queue-depth gauge (satellites)
// ---------------------------------------------------------------------------

/// A drain from another thread never loses a response: while one thread
/// is blocked in `solve_batch`, a second starts a drain (twice — the
/// drain is idempotent). Every request of the blocked batch gets either
/// its solve report (it was in flight) or the typed shutdown rejection (it
/// was still queued), every later batch is refused with the same typed
/// error, each rejection is counted under `DrainRejections`, and the live
/// depth gauge reads zero afterwards.
#[test]
fn drain_rejects_queued_and_later_submissions_typed() {
    const BATCH: usize = 4;
    let server = Server::start(ServeConfig::new().with_workers(1));
    let responses = std::thread::scope(|scope| {
        let batch = scope.spawn(|| {
            server.solve_batch(
                (0..BATCH)
                    .map(|_| SolveRequest::new(comm_system(5), base_config()))
                    .collect(),
            )
        });
        // Drain only once the whole batch is admitted, so the counters
        // below reconcile exactly.
        while server.stats().counter(Counter::JobsAdmitted) < BATCH as u64 {
            std::thread::yield_now();
        }
        server.drain();
        server.drain(); // idempotent
        batch.join().expect("batch thread")
    });

    // One response per request, each a typed outcome: which jobs solved
    // versus drained depends on how far the worker got, but nothing may
    // hang or come back untyped.
    assert_eq!(responses.len(), BATCH);
    let mut drained = 0;
    for (position, response) in responses.iter().enumerate() {
        assert_eq!(response.job, JobId(position as u64));
        match &response.outcome {
            Ok(report) => assert_eq!(report.resolution, Resolution::Milp),
            Err(ServeError::ShuttingDown) => drained += 1,
            other => panic!("expected a report or ShuttingDown, got {other:?}"),
        }
    }
    assert_eq!(server.depth(), 0, "the gauge must return to zero");

    // Later batches are refused before any work, answered inline.
    let late = server.solve_batch(vec![SolveRequest::new(comm_system(5), base_config())]);
    assert_eq!(
        late,
        [SolveResponse::new(JobId(0), Err(ServeError::ShuttingDown))]
    );

    let stats = server.shutdown();
    assert_eq!(stats.counter(Counter::JobsAdmitted), BATCH as u64);
    assert_eq!(stats.counter(Counter::DrainRejections), drained + 1);
    assert_eq!(stats.counter(Counter::JobsRejected), 0);
}

/// A shared `&Server` is the drain handle: another thread can drain it
/// (twice — idempotent) while this one is blocked in `solve_batch`, and
/// the owed response still arrives, later batches are refused typed, and
/// the depth gauge reads zero.
#[test]
fn drain_handle_drains_from_another_thread() {
    let server = Server::start(ServeConfig::new().with_workers(1));
    let responses = std::thread::scope(|scope| {
        let drainer = scope.spawn(|| {
            server.drain();
            server.drain(); // idempotent
        });
        let responses = server.solve_batch(vec![SolveRequest::new(comm_system(5), base_config())]);
        drainer.join().expect("drainer thread");
        responses
    });
    // Whether the drain flushed the job, refused it at admission or the
    // worker solved it first, the owed response arrives.
    assert_eq!(responses.len(), 1);
    assert_eq!(responses[0].job, JobId(0));
    assert!(matches!(
        responses[0].outcome,
        Ok(_) | Err(ServeError::ShuttingDown)
    ));
    assert_eq!(
        server.solve_batch(vec![SolveRequest::new(comm_system(5), base_config())]),
        [SolveResponse::new(JobId(0), Err(ServeError::ShuttingDown))]
    );
    assert_eq!(server.depth(), 0);
    drop(server.shutdown());
}

/// The queue-depth gauge is a true gauge: it rises at admission, falls on
/// every exit path — dispatch, queued-deadline expiry and drain rejection
/// — and the high watermark it reached is what `shutdown` reports under
/// `QueueDepth`.
#[test]
fn depth_gauge_returns_to_zero_on_every_exit_path() {
    let server = Server::start(ServeConfig::new().with_workers(1));
    // A mix of exit paths: a normal solve, a queued expiry (zero deadline)
    // and another normal solve.
    let responses = server.solve_batch(vec![
        SolveRequest::new(comm_system(5), base_config()),
        SolveRequest::new(comm_system(10), base_config()).with_deadline(Duration::ZERO),
        SolveRequest::new(comm_system(5), base_config()),
    ]);
    let expired = responses
        .iter()
        .filter(|r| r.outcome == Err(ServeError::DeadlineExpired))
        .count();
    assert_eq!(expired, 1, "exactly the zero-deadline job expires queued");
    assert_eq!(server.depth(), 0, "all exit paths must decrement the gauge");

    let stats = server.shutdown();
    let watermark = stats.counter(Counter::QueueDepth);
    assert!(
        (1..=3).contains(&watermark),
        "watermark must reflect the deepest the queue actually got, got {watermark}"
    );
}

/// `QueueDepth` is the deepest the one long-lived queue got, not a sum
/// over batches: four sequential single-request batches through one
/// worker never queue more than one job at a time, over loopback and over
/// TCP alike.
#[test]
fn queue_depth_is_a_maximum_not_a_sum_of_batches() {
    let config = || ServeConfig::new().with_workers(1);
    let batch = || [SolveRequest::new(comm_system(5), base_config())];

    let mut loopback = Client::new(LoopbackTransport::new(config()));
    for _ in 0..4 {
        assert!(loopback.solve_batch(&batch()).expect("loopback")[0]
            .outcome
            .is_ok());
    }
    let stats = loopback.transport().stats();
    assert_eq!(stats.counter(Counter::JobsAdmitted), 4);
    assert_eq!(stats.counter(Counter::QueueDepth), 1, "loopback");

    let server = TcpServer::bind("127.0.0.1:0", config()).expect("bind");
    let mut tcp = Client::new(TcpTransport::connect(server.local_addr()));
    for _ in 0..4 {
        assert!(tcp.solve_batch(&batch()).expect("tcp")[0].outcome.is_ok());
    }
    let stats = server.shutdown();
    assert_eq!(stats.counter(Counter::JobsAdmitted), 4);
    assert_eq!(stats.counter(Counter::QueueDepth), 1, "tcp");
}

// ---------------------------------------------------------------------------
// Determinism regression (acceptance criterion)
// ---------------------------------------------------------------------------

/// The service is a transparent wrapper: per-scenario solver trajectories
/// coming back from a one-worker server — including cache-hit re-solves
/// that import the cached root basis — are identical to a sequential loop
/// of `Optimizer::run_prepared` over one `prepare`d entry per structure,
/// modulo wall-clock durations.
#[test]
fn serve_matches_sequential_run_prepared() {
    let scenarios: Vec<(System, OptConfig)> = vec![
        (comm_system(5), base_config()),
        (
            comm_system(10),
            base_config().with_objective(Objective::MinDelayRatio),
        ),
        // Same structure as the first scenario: exercises the cached
        // formulation, presolve and root basis.
        (comm_system(5), base_config()),
    ];

    let mut entries = HashMap::new();
    let direct: Vec<_> = scenarios
        .iter()
        .map(|(system, config)| {
            let entry = entries
                .entry(structure_key(system, config))
                .or_insert_with(|| prepare(system, config));
            let mut stats = SolverStats::new();
            let solution = Optimizer::new(system)
                .config(config.clone())
                .instrument(&mut stats)
                .run_prepared(entry)
                .expect("direct solve");
            (solution, stats)
        })
        .collect();
    assert_eq!(
        direct[2].1.counter(Counter::CrossScenarioWarmStarts),
        1,
        "the repeated structure imports the first solve's root basis"
    );

    let mut client = Client::new(LoopbackTransport::new(ServeConfig::new().with_workers(1)));
    let requests: Vec<SolveRequest> = scenarios
        .into_iter()
        .map(|(system, config)| SolveRequest::new(system, config))
        .collect();
    let responses = client.solve_batch(&requests).expect("loopback batch");
    assert_eq!(responses.len(), direct.len());
    assert_eq!(
        client.transport().stats().counter(Counter::CacheHits),
        1,
        "the repeated structure must hit the cache"
    );

    for (response, (solution, stats)) in responses.iter().zip(&direct) {
        let report = response.outcome.as_ref().expect("served solve");
        assert_eq!(report.resolution, solution.resolution);
        assert_eq!(report.num_transfers, solution.num_transfers());
        assert_eq!(
            report.objective_value.map(f64::to_bits),
            solution.objective_value.map(f64::to_bits),
            "objective must match bit-for-bit"
        );
        assert_eq!(
            trajectory(&report.stats),
            trajectory(stats),
            "served trajectory must be identical to the direct solve"
        );
    }
}

// ---------------------------------------------------------------------------
// Ordering and lifecycle
// ---------------------------------------------------------------------------

/// With several workers, jobs may complete out of order, but responses
/// come back in submission order and every job is answered.
#[test]
fn sharded_batch_returns_in_submission_order() {
    let mut client = Client::new(LoopbackTransport::new(ServeConfig::new().with_workers(4)));
    let requests: Vec<SolveRequest> = (0..8)
        .map(|i| SolveRequest::new(comm_system(5 + i % 3), base_config()))
        .collect();
    let responses = client.solve_batch(&requests).expect("loopback batch");
    assert_eq!(responses.len(), 8);
    for (i, response) in responses.iter().enumerate() {
        assert_eq!(response.job, letdma_serve::JobId(i as u64));
        assert!(response.outcome.is_ok());
    }
}
