//! Bounded-state soak of the TCP listener: thousands of batches through
//! one `TcpServer` leave its worker pool, its queue-depth watermark and its
//! cache exactly as large as a single batch does.
//!
//! This is its own test binary so the thread census below counts only the
//! serve workers of these tests; the two tests share a lock so they never
//! count each other's.

use std::sync::{Mutex, MutexGuard};

use letdma_core::Counter;
use letdma_model::{System, SystemBuilder};
use letdma_opt::OptConfig;
use letdma_serve::{Client, ServeConfig, SolveCache, SolveRequest, TcpServer, TcpTransport};

fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn tiny_system() -> System {
    let mut b = SystemBuilder::new(2);
    let p = b.task("p").period_ms(5).core_index(0).add().unwrap();
    let c = b.task("c").period_ms(10).core_index(1).add().unwrap();
    b.label("l").size(64).writer(p).reader(c).add().unwrap();
    b.build().unwrap()
}

fn tiny_request() -> [SolveRequest; 1] {
    [SolveRequest::new(
        tiny_system(),
        OptConfig::new().with_threads(1),
    )]
}

/// Live threads of this process named `letdma-serve-*` (the server's
/// workers), read from `/proc/self/task/*/comm`; `None` off Linux.
fn serve_workers() -> Option<usize> {
    if !cfg!(target_os = "linux") {
        return None;
    }
    let tasks = std::fs::read_dir("/proc/self/task").expect("procfs task list");
    Some(
        tasks
            .filter_map(Result::ok)
            .filter(|task| {
                std::fs::read_to_string(task.path().join("comm"))
                    .is_ok_and(|name| name.starts_with("letdma-serve-"))
            })
            .count(),
    )
}

/// 10 000 sequential unkeyed single-request batches of one structure
/// through a one-worker listener: one admission per batch, one cache entry
/// in total, a queue never deeper than one job, and exactly one serve
/// worker alive throughout.
#[test]
fn sequential_batches_keep_threads_queue_and_cache_bounded() {
    const BATCHES: u64 = 10_000;
    let _serial = serial();
    let cache = SolveCache::new();
    let server = TcpServer::bind_with_cache(
        "127.0.0.1:0",
        ServeConfig::new().with_workers(1),
        cache.clone(),
    )
    .expect("bind");
    let mut client = Client::new(TcpTransport::connect(server.local_addr()));
    let request = tiny_request();
    for batch in 1..=BATCHES {
        let responses = client.solve_batch(&request).expect("batch answered");
        assert!(
            responses[0].outcome.is_ok(),
            "batch {batch}: {:?}",
            responses[0].outcome
        );
        if batch % 1_000 == 0 {
            if let Some(workers) = serve_workers() {
                assert_eq!(workers, 1, "serve workers after batch {batch}");
            }
            assert_eq!(cache.len(), 1, "cache entries after batch {batch}");
        }
    }
    let stats = server.shutdown();
    assert_eq!(stats.counter(Counter::JobsAdmitted), BATCHES);
    assert_eq!(stats.counter(Counter::CacheHits), BATCHES - 1);
    assert_eq!(stats.counter(Counter::QueueDepth), 1);
    assert_eq!(cache.len(), 1);
}

/// Four clients × 250 batches on concurrent connections against a
/// two-worker listener: the pool never grows past its two workers, however
/// many connections are open.
#[test]
fn concurrent_connections_share_one_worker_pool() {
    const CLIENTS: u64 = 4;
    const BATCHES: u64 = 250;
    const WORKERS: usize = 2;
    let _serial = serial();
    let cache = SolveCache::new();
    let server = TcpServer::bind_with_cache(
        "127.0.0.1:0",
        ServeConfig::new().with_workers(WORKERS),
        cache.clone(),
    )
    .expect("bind");
    let addr = server.local_addr();
    std::thread::scope(|scope| {
        for _ in 0..CLIENTS {
            scope.spawn(move || {
                let mut client = Client::new(TcpTransport::connect(addr));
                let request = tiny_request();
                for batch in 1..=BATCHES {
                    let responses = client.solve_batch(&request).expect("batch answered");
                    assert!(responses[0].outcome.is_ok(), "batch {batch}");
                    if let Some(workers) = serve_workers() {
                        assert!(workers <= WORKERS, "{workers} serve workers");
                    }
                }
            });
        }
    });
    if let Some(workers) = serve_workers() {
        assert_eq!(workers, WORKERS);
    }
    let stats = server.shutdown();
    assert_eq!(stats.counter(Counter::JobsAdmitted), CLIENTS * BATCHES);
    let depth = stats.counter(Counter::QueueDepth);
    assert!(
        (1..=CLIENTS).contains(&depth),
        "one job per open batch at most, got {depth}"
    );
    assert_eq!(cache.len(), 1);
}
