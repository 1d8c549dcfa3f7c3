//! Network chaos campaign for the TCP transport, plus the faults-off
//! identity pin against the loopback transport.
//!
//! Every test arming the process-global fault plane runs under one lock
//! (the plane is shared by all tests in this binary) and disarms on exit.
//! The campaign's contract: under any mix of dropped, delayed, truncated
//! and corrupted frames, every submission terminates in a typed response
//! or a typed transport error — no hangs, no panics — and idempotency
//! keys guarantee no request is ever admitted twice.

use std::sync::Mutex;
use std::time::Duration;

use letdma_core::fault::{self, FaultSpec};
use letdma_core::{Counter, FaultSite, NodeEvent, SolverStats};
use letdma_model::{System, SystemBuilder};
use letdma_opt::{Objective, OptConfig};
use letdma_serve::tcp::RetryPolicy;
use letdma_serve::{
    Client, LoopbackTransport, ServeConfig, ServeError, SolveRequest, TcpServer, TcpTransport,
};

/// The fault plane is process-global; armed sections must not overlap.
fn with_plane_lock<T>(f: impl FnOnce() -> T) -> T {
    static LOCK: Mutex<()> = Mutex::new(());
    let _guard = LOCK
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let result = f();
    fault::disarm_all();
    result
}

fn comm_system(period_ms: u64) -> System {
    let mut b = SystemBuilder::new(2);
    let p = b
        .task("producer")
        .period_ms(period_ms)
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
    b.label("ack").size(32).writer(c).reader(p).add().unwrap();
    b.build().unwrap()
}

fn base_config() -> OptConfig {
    OptConfig::new()
        .with_objective(Objective::MinTransfers)
        .with_threads(1)
}

/// The reproducible fields of a solve trajectory (everything except
/// wall-clock durations).
type Trajectory<'a> = (Vec<(Counter, u64)>, Vec<u64>, Vec<(&'a str, u64)>);

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
    )
}

// ---------------------------------------------------------------------------
// Faults off: TCP is byte-identical to loopback.
// ---------------------------------------------------------------------------

/// With no faults armed, a TCP exchange returns `SolveReport`s whose
/// resolution, transfer count, objective bits and full solver trajectory
/// are byte-identical to the same batch over the loopback transport.
#[test]
fn tcp_matches_loopback_byte_for_byte() {
    with_plane_lock(|| {
        let requests: Vec<SolveRequest> = vec![
            SolveRequest::new(comm_system(5), base_config()),
            SolveRequest::new(comm_system(10), base_config()),
            // Repeated structure: the cache-hit path must match too.
            SolveRequest::new(comm_system(5), base_config()),
        ];

        let mut loopback = Client::new(LoopbackTransport::new(ServeConfig::new().with_workers(1)));
        let expected = loopback.solve_batch(&requests).expect("loopback batch");

        let server =
            TcpServer::bind("127.0.0.1:0", ServeConfig::new().with_workers(1)).expect("bind");
        let mut client = Client::new(TcpTransport::connect(server.local_addr()));
        let got = client.solve_batch(&requests).expect("tcp batch");

        assert_eq!(got.len(), expected.len());
        for (tcp, loop_) in got.iter().zip(&expected) {
            assert_eq!(tcp.job, loop_.job);
            let tcp = tcp.outcome.as_ref().expect("tcp solve");
            let loop_ = loop_.outcome.as_ref().expect("loopback solve");
            assert_eq!(tcp.resolution, loop_.resolution);
            assert_eq!(tcp.num_transfers, loop_.num_transfers);
            assert_eq!(tcp.cache_hit, loop_.cache_hit);
            assert_eq!(
                tcp.objective_value.map(f64::to_bits),
                loop_.objective_value.map(f64::to_bits),
                "objective must match bit-for-bit"
            );
            assert_eq!(
                trajectory(&tcp.stats),
                trajectory(&loop_.stats),
                "TCP trajectory must be identical to loopback"
            );
        }
        assert_eq!(
            client
                .transport()
                .stats()
                .counter(Counter::RetriesAttempted),
            0,
            "faults off, no retries"
        );
        let stats = server.shutdown();
        assert_eq!(stats.counter(Counter::JobsAdmitted), requests.len() as u64);
        assert_eq!(stats.counter(Counter::CacheHits), 1);
        assert_eq!(stats.counter(Counter::FramesDropped), 0);
    });
}

// ---------------------------------------------------------------------------
// Idempotency (no faults): duplicate submission never double-admits.
// ---------------------------------------------------------------------------

/// Submitting the same keyed batch twice (two separate connections, as a
/// retrying client would) admits each job exactly once; the duplicate is
/// answered from the idempotency store with the original's report.
#[test]
fn duplicate_keyed_batch_is_not_readmitted() {
    with_plane_lock(|| {
        let server =
            TcpServer::bind("127.0.0.1:0", ServeConfig::new().with_workers(1)).expect("bind");
        let requests: Vec<SolveRequest> = (0..2)
            .map(|i| {
                SolveRequest::new(comm_system(5 + i * 5), base_config())
                    .with_request_key(0xFEED_0000 + i)
            })
            .collect();

        let mut first = Client::new(TcpTransport::connect(server.local_addr()));
        let original = first.solve_batch(&requests).expect("first batch");
        let mut second = Client::new(TcpTransport::connect(server.local_addr()));
        let replayed = second.solve_batch(&requests).expect("second batch");

        for (a, b) in original.iter().zip(&replayed) {
            let a = a.outcome.as_ref().expect("solved");
            let b = b.outcome.as_ref().expect("replayed");
            assert_eq!(a.resolution, b.resolution);
            assert_eq!(a.num_transfers, b.num_transfers);
            assert_eq!(
                a.objective_value.map(f64::to_bits),
                b.objective_value.map(f64::to_bits)
            );
            assert_eq!(
                trajectory(&a.stats),
                trajectory(&b.stats),
                "the replay is the stored report, not a re-solve"
            );
        }

        let stats = server.shutdown();
        assert_eq!(
            stats.counter(Counter::JobsAdmitted),
            2,
            "two unique keys, two admissions — the duplicates must not add more"
        );
        assert_eq!(stats.counter(Counter::IdempotentHits), 2);
    });
}

// ---------------------------------------------------------------------------
// Graceful drain over TCP.
// ---------------------------------------------------------------------------

/// A drained TCP server answers new batches with typed `ShuttingDown`
/// rejections — never silence, never a dropped connection.
#[test]
fn drained_tcp_server_rejects_typed() {
    with_plane_lock(|| {
        let server =
            TcpServer::bind("127.0.0.1:0", ServeConfig::new().with_workers(2)).expect("bind");
        server.drain();
        server.drain(); // idempotent

        let mut client = Client::new(TcpTransport::connect(server.local_addr()));
        let requests: Vec<SolveRequest> = (0..3)
            .map(|_| SolveRequest::new(comm_system(5), base_config()))
            .collect();
        let responses = client.solve_batch(&requests).expect("exchange still works");
        for response in &responses {
            assert_eq!(
                response.outcome,
                Err(ServeError::ShuttingDown),
                "drained server must reject each job typed"
            );
        }

        let stats = server.shutdown();
        assert_eq!(stats.counter(Counter::JobsAdmitted), 0);
        assert_eq!(stats.counter(Counter::DrainRejections), 3);
    });
}

// ---------------------------------------------------------------------------
// Deadline / transport interplay.
// ---------------------------------------------------------------------------

/// A deadline that expires while the response frame is stalled by
/// `net-delay` still comes back as the typed `DeadlineExpired` — the delay
/// must not escalate a deadline outcome into a transport error.
#[test]
fn queued_expiry_survives_a_delayed_response_frame() {
    with_plane_lock(|| {
        let server =
            TcpServer::bind("127.0.0.1:0", ServeConfig::new().with_workers(1)).expect("bind");
        fault::arm(FaultSite::NetDelay, FaultSpec::always());
        let policy = RetryPolicy::new().with_io_timeout(Duration::from_secs(5));
        let mut client = Client::new(TcpTransport::with_policy(server.local_addr(), policy));

        let request =
            SolveRequest::new(comm_system(5), base_config()).with_deadline(Duration::ZERO);
        let responses = client.solve_batch(&[request]).expect("delayed exchange");
        assert_eq!(
            responses[0].outcome,
            Err(ServeError::DeadlineExpired),
            "the deadline outcome must arrive typed despite the stalled frame"
        );
        fault::disarm_all();
        let stats = server.shutdown();
        assert_eq!(stats.counter(Counter::JobsAdmitted), 1);
    });
}

/// A client whose per-attempt IO timeout is shorter than the server's
/// turnaround gives up with a typed `ServeError::Transport` — and the
/// server neither leaks the worker nor double-admits the keyed job across
/// the failed attempts.
#[test]
fn attempt_timeout_shorter_than_solve_fails_typed_without_leaks() {
    with_plane_lock(|| {
        let server =
            TcpServer::bind("127.0.0.1:0", ServeConfig::new().with_workers(1)).expect("bind");
        // Every response frame is stalled 25 ms; the client only waits
        // 1 ms, so every attempt times out deterministically.
        fault::arm(FaultSite::NetDelay, FaultSpec::always());
        let policy = RetryPolicy::new()
            .with_max_attempts(3)
            .with_base_backoff(Duration::from_millis(1))
            .with_io_timeout(Duration::from_millis(1));
        let mut client = Client::new(TcpTransport::with_policy(server.local_addr(), policy));

        let request =
            SolveRequest::new(comm_system(5), base_config()).with_request_key(0xDEAD_BEEF);
        match client.solve_batch(&[request]) {
            Err(ServeError::Transport(message)) => {
                assert!(
                    message.contains("3 attempts"),
                    "the error must report the exhausted budget: {message}"
                );
            }
            other => panic!("expected a typed transport error, got {other:?}"),
        }
        assert_eq!(
            client
                .transport()
                .stats()
                .counter(Counter::RetriesAttempted),
            2,
            "3 attempts = 2 retries"
        );
        fault::disarm_all();

        // The server completed (or drain-completes) all the work behind
        // the abandoned attempts: shutdown returns — no leaked worker —
        // and the key was admitted exactly once.
        let stats = server.shutdown();
        assert_eq!(
            stats.counter(Counter::JobsAdmitted),
            1,
            "retries of a keyed request must not double-admit"
        );
        assert_eq!(stats.counter(Counter::IdempotentHits), 2);
    });
}

// ---------------------------------------------------------------------------
// The chaos campaign: every net-* site, workers 1 and 4.
// ---------------------------------------------------------------------------

/// Runs a seeded campaign against one armed site: several keyed batches,
/// each exchange either delivering fully-typed outcomes or exhausting the
/// retry budget with a typed transport error. Afterwards the server shuts
/// down cleanly and its admission count proves no key was admitted twice.
fn chaos_campaign(site: FaultSite, workers: usize, seed: u64) {
    const ROUNDS: u64 = 2;
    const BATCH: u64 = 3;

    let server =
        TcpServer::bind("127.0.0.1:0", ServeConfig::new().with_workers(workers)).expect("bind");
    let policy = RetryPolicy::new()
        .with_seed(seed)
        .with_max_attempts(4)
        .with_base_backoff(Duration::from_millis(2))
        .with_io_timeout(Duration::from_millis(150));
    let mut client = Client::new(TcpTransport::with_policy(server.local_addr(), policy));
    fault::arm(site, FaultSpec::with_probability(seed, 0.3));

    let mut typed_responses = 0u64;
    let mut transport_failures = 0u64;
    for round in 0..ROUNDS {
        let requests: Vec<SolveRequest> = (0..BATCH)
            .map(|i| {
                SolveRequest::new(comm_system(5 + 5 * (i % 2)), base_config())
                    .with_request_key((seed << 16) | (round << 8) | i)
            })
            .collect();
        match client.solve_batch(&requests) {
            Ok(responses) => {
                assert_eq!(responses.len(), requests.len());
                for response in responses {
                    // Any typed outcome is acceptable under chaos; an
                    // untyped one cannot occur by construction, and a hang
                    // would fail the harness, not this assert.
                    match response.outcome {
                        Ok(report) => {
                            assert!(report.objective_value.is_some());
                            typed_responses += 1;
                        }
                        Err(
                            ServeError::DeadlineExpired
                            | ServeError::QueueFull { .. }
                            | ServeError::ShuttingDown
                            | ServeError::Solve(_),
                        ) => typed_responses += 1,
                        Err(error) => panic!("non-typed per-job outcome: {error:?}"),
                    }
                }
            }
            Err(ServeError::Transport(_)) => transport_failures += 1,
            Err(other) => panic!("round_trip must fail typed, got {other:?}"),
        }
    }
    fault::disarm_all();

    let client_drops = client.transport().stats().counter(Counter::FramesDropped);
    let stats = server.shutdown();
    let unique_keys = ROUNDS * BATCH;
    assert!(
        stats.counter(Counter::JobsAdmitted) <= unique_keys,
        "site {} workers {workers}: {} admissions for {unique_keys} unique keys — a retry double-admitted",
        site.name(),
        stats.counter(Counter::JobsAdmitted),
    );
    assert_eq!(
        typed_responses + transport_failures * BATCH,
        unique_keys,
        "every submission must terminate in a typed response or a typed transport failure"
    );
    if site == FaultSite::NetDropFrame {
        assert_eq!(
            client_drops + stats.counter(Counter::FramesDropped),
            fault::fires(site),
            "every drop fire must be accounted as a dropped frame"
        );
    }
}

#[test]
fn chaos_net_drop_frame() {
    with_plane_lock(|| {
        for (workers, seed) in [(1, 11), (4, 12)] {
            chaos_campaign(FaultSite::NetDropFrame, workers, seed);
        }
    });
}

#[test]
fn chaos_net_delay() {
    with_plane_lock(|| {
        for (workers, seed) in [(1, 21), (4, 22)] {
            chaos_campaign(FaultSite::NetDelay, workers, seed);
        }
    });
}

#[test]
fn chaos_net_truncate() {
    with_plane_lock(|| {
        for (workers, seed) in [(1, 31), (4, 32)] {
            chaos_campaign(FaultSite::NetTruncate, workers, seed);
        }
    });
}

#[test]
fn chaos_net_corrupt_byte() {
    with_plane_lock(|| {
        for (workers, seed) in [(1, 41), (4, 42)] {
            chaos_campaign(FaultSite::NetCorruptByte, workers, seed);
        }
    });
}
