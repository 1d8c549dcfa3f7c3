//! The batch solve server: admission control, a bounded FIFO queue, a
//! sharded worker pool over the panic-isolated optimizer pipeline, and a
//! shared formulation + presolve cache.
//!
//! See DESIGN.md §"Service architecture" for the queue discipline, the
//! cache keying and the backpressure contract. In short:
//!
//! * [`Server::submit`] either admits a job (bounded FIFO, counted under
//!   [`Counter::JobsAdmitted`]) or rejects it immediately with
//!   [`ServeError::QueueFull`] ([`Counter::JobsRejected`]) — queueing is
//!   never unbounded, and a rejection is also streamed as a regular
//!   [`SolveResponse`] so every submission attempt gets exactly one
//!   response.
//! * Workers dequeue in FIFO order. A job whose deadline expired while
//!   queued is answered with [`ServeError::DeadlineExpired`] before any
//!   simplex work.
//! * The first job with a given [`structure_key`] pays for
//!   [`prepare`] (formulation + presolve) and populates the shared
//!   [`SolveCache`]; later jobs with the same structure reuse it
//!   ([`Counter::CacheHits`]) via
//!   [`Optimizer::run_prepared`](letdma_opt::Optimizer::run_prepared).
//!   The entry also carries the first solve's optimal root basis, so later
//!   jobs of the same structure skip simplex phase 1
//!   ([`Counter::CrossScenarioWarmStarts`]); disable
//!   [`OptConfig::reuse_basis`](letdma_opt::OptConfig::reuse_basis) per
//!   request to make a cache hit's trajectory byte-identical to the cold
//!   solve.
//! * [`Server::drain`] (or a [`DrainHandle`] from another thread) starts a
//!   graceful drain: queued jobs are rejected immediately with
//!   [`ServeError::ShuttingDown`] ([`Counter::DrainRejections`]),
//!   in-flight solves run to completion, later submissions are refused.
//! * [`Server::shutdown`] drains the queue, joins the workers and returns
//!   the server's aggregate [`SolverStats`] (including the high watermark
//!   of the live [`Server::depth`] gauge under [`Counter::QueueDepth`]).

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

use letdma_core::env::{resolve_size, THREADS_ENV};
use letdma_core::{Counter, Instrument, SolverStats};
use letdma_model::{let_semantics, System};
use letdma_opt::{prepare, structure_key, OptConfig, OptError, Optimizer, Prepared};

use crate::api::{JobId, JobStatus, ServeError, SolveReport, SolveRequest, SolveResponse};

/// Configuration of a [`Server`].
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct ServeConfig {
    /// Worker threads dequeuing and solving jobs. `None` defers to the
    /// `LETDMA_THREADS` environment variable (default: one worker) — the
    /// same explicit > environment > default chain every other knob uses
    /// (DESIGN.md §"Configuration precedence").
    pub workers: Option<usize>,
    /// Admission bound: the maximum number of jobs waiting in the queue.
    /// A submission arriving at a full queue is rejected with
    /// [`ServeError::QueueFull`]; zero rejects every submission (useful to
    /// test backpressure handling).
    pub queue_capacity: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            workers: None,
            queue_capacity: 64,
        }
    }
}

impl ServeConfig {
    /// The default configuration (env-resolved workers, capacity 64).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Requests an explicit worker count (clamped to ≥ 1).
    #[must_use]
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = Some(workers.max(1));
        self
    }

    /// Sets the admission queue capacity.
    #[must_use]
    pub fn with_queue_capacity(mut self, capacity: usize) -> Self {
        self.queue_capacity = capacity;
        self
    }
}

/// The shared formulation + presolve cache, keyed by
/// [`structure_key`].
///
/// Cheap to clone (an `Arc` around the map): hand the same cache to
/// several servers — or to successive server generations, as the loopback
/// transport does — and re-submissions of an already-seen model structure
/// skip formulation and presolve entirely. Each entry also holds the
/// structure's cross-scenario root-basis slot (DESIGN.md §"Warm-start
/// architecture"), so re-submissions additionally skip simplex phase 1
/// unless the request disables
/// [`reuse_basis`](letdma_opt::OptConfig::reuse_basis).
#[derive(Debug, Clone, Default)]
pub struct SolveCache {
    entries: Arc<Mutex<HashMap<u64, Arc<Prepared>>>>,
}

impl SolveCache {
    /// An empty cache.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of distinct model structures cached.
    ///
    /// # Panics
    ///
    /// Panics if a previous user panicked while holding the cache lock
    /// (cannot happen: the critical sections below contain no solver
    /// code).
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.lock().expect("cache lock").len()
    }

    /// Whether the cache is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

struct Job {
    id: JobId,
    system: System,
    config: OptConfig,
    deadline: Option<Instant>,
}

struct QueueState {
    queue: VecDeque<Job>,
    shutdown: bool,
    /// Graceful-drain mode: in-flight solves finish, queued jobs were
    /// flushed with [`ServeError::ShuttingDown`] rejections when the drain
    /// began, and new submissions are refused (see [`Server::drain`]).
    draining: bool,
    /// Live queue-depth gauge: incremented at admission, decremented on
    /// every exit path — dispatch to a worker (including jobs whose queued
    /// deadline then expires) and drain rejection — so it reads zero
    /// exactly when no admitted job is still waiting.
    depth: usize,
    high_watermark: usize,
    status: BTreeMap<JobId, JobStatus>,
}

struct Shared {
    state: Mutex<QueueState>,
    available: Condvar,
    stats: Mutex<SolverStats>,
    cache: SolveCache,
    /// The response stream's sender. Lives here (not only in the worker
    /// threads) so a [`DrainHandle`] can stream drain rejections for
    /// flushed jobs without going through a worker.
    responses: mpsc::Sender<SolveResponse>,
}

impl Shared {
    fn set_status(&self, id: JobId, status: JobStatus) {
        self.state
            .lock()
            .expect("server state lock")
            .status
            .insert(id, status);
    }

    fn count(&self, counter: Counter, n: u64) {
        self.stats
            .lock()
            .expect("server stats lock")
            .count(counter, n);
    }

    /// Switches the server into drain mode and flushes the queue: every
    /// queued job is rejected with [`ServeError::ShuttingDown`] right now
    /// (not when a worker would have reached it), counted under
    /// [`Counter::DrainRejections`]. In-flight solves are untouched.
    /// Idempotent.
    fn drain(&self) {
        let flushed: Vec<JobId> = {
            let mut state = self.state.lock().expect("server state lock");
            state.draining = true;
            let jobs: Vec<JobId> = state.queue.drain(..).map(|job| job.id).collect();
            state.depth -= jobs.len();
            for id in &jobs {
                state.status.insert(*id, JobStatus::Rejected);
            }
            jobs
        };
        if !flushed.is_empty() {
            self.count(Counter::DrainRejections, flushed.len() as u64);
            for id in flushed {
                let _ = self.responses.send(SolveResponse {
                    job: id,
                    outcome: Err(ServeError::ShuttingDown),
                });
            }
        }
    }
}

/// A cloneable handle that can start a graceful drain of its [`Server`]
/// from another thread (see [`Server::drain_handle`]).
///
/// The TCP listener hands one to its shutdown path so connection handlers
/// blocked in [`Server::recv`] still get every owed response: queued jobs
/// are flushed as typed [`ServeError::ShuttingDown`] rejections, in-flight
/// solves run to completion.
#[derive(Debug, Clone)]
pub struct DrainHandle {
    shared: Arc<Shared>,
}

impl DrainHandle {
    /// Starts the drain (idempotent): rejects all queued jobs immediately
    /// and makes every later submission fail with
    /// [`ServeError::ShuttingDown`].
    pub fn drain(&self) {
        self.shared.drain();
    }

    /// Whether both handles drain the same server.
    pub(crate) fn same_server(&self, other: &DrainHandle) -> bool {
        Arc::ptr_eq(&self.shared, &other.shared)
    }
}

/// The solve server: a bounded job queue fanned out over worker threads.
///
/// Responses are streamed in **completion order** through
/// [`recv`](Server::recv) — exactly one per submission attempt (admission
/// rejections included). Sort by [`SolveResponse::job`] to restore
/// submission order; that is what [`Client::solve_batch`] does.
///
/// [`Client::solve_batch`]: crate::Client::solve_batch
#[derive(Debug)]
pub struct Server {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
    responses: mpsc::Receiver<SolveResponse>,
    rejects: mpsc::Sender<SolveResponse>,
    next_job: u64,
    capacity: usize,
}

impl std::fmt::Debug for Shared {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Shared").finish_non_exhaustive()
    }
}

impl Server {
    /// Starts a server with a fresh, private [`SolveCache`].
    #[must_use]
    pub fn start(config: ServeConfig) -> Self {
        Self::start_with_cache(config, SolveCache::new())
    }

    /// Starts a server sharing `cache` with other servers (or a previous
    /// server generation): structures prepared elsewhere hit immediately.
    ///
    /// # Panics
    ///
    /// Panics if the OS refuses to spawn the worker threads.
    #[must_use]
    pub fn start_with_cache(config: ServeConfig, cache: SolveCache) -> Self {
        let workers = resolve_size(THREADS_ENV, config.workers, 1);
        let (tx, rx) = mpsc::channel();
        let shared = Arc::new(Shared {
            state: Mutex::new(QueueState {
                queue: VecDeque::new(),
                shutdown: false,
                draining: false,
                depth: 0,
                high_watermark: 0,
                status: BTreeMap::new(),
            }),
            available: Condvar::new(),
            stats: Mutex::new(SolverStats::new()),
            cache,
            responses: tx.clone(),
        });
        let handles = (0..workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                let tx = tx.clone();
                std::thread::Builder::new()
                    .name(format!("letdma-serve-{i}"))
                    .spawn(move || worker_loop(&shared, &tx))
                    .expect("spawn serve worker")
            })
            .collect();
        Self {
            shared,
            workers: handles,
            responses: rx,
            rejects: tx,
            next_job: 0,
            capacity: config.queue_capacity,
        }
    }

    /// Submits one request. Admission either succeeds — the job is queued
    /// FIFO and its response will arrive via [`recv`](Server::recv) — or
    /// fails fast with [`ServeError::QueueFull`]; the rejection is *also*
    /// streamed as a response, so `recv` yields exactly one response per
    /// submission attempt either way.
    ///
    /// # Errors
    ///
    /// [`ServeError::QueueFull`] when the queue already holds
    /// `queue_capacity` jobs; [`ServeError::ShuttingDown`] when a drain
    /// has started (see [`drain`](Server::drain)).
    ///
    /// # Panics
    ///
    /// Panics if a worker thread panicked while holding the server state
    /// lock (workers isolate solver panics, so this indicates a bug in the
    /// queue plumbing itself).
    pub fn submit(&mut self, request: SolveRequest) -> Result<JobId, ServeError> {
        let id = JobId(self.next_job);
        self.next_job += 1;
        // Stamp the absolute deadline at admission: queue time counts
        // against the request's budget.
        let deadline = request.deadline.map(|d| Instant::now() + d);
        let mut state = self.shared.state.lock().expect("server state lock");
        let refusal = if state.draining {
            Some((ServeError::ShuttingDown, Counter::DrainRejections))
        } else if state.queue.len() >= self.capacity {
            let error = ServeError::QueueFull {
                capacity: self.capacity,
            };
            Some((error, Counter::JobsRejected))
        } else {
            None
        };
        if let Some((error, counter)) = refusal {
            state.status.insert(id, JobStatus::Rejected);
            drop(state);
            self.shared.count(counter, 1);
            let _ = self.rejects.send(SolveResponse {
                job: id,
                outcome: Err(error.clone()),
            });
            return Err(error);
        }
        state.queue.push_back(Job {
            id,
            system: request.system,
            config: request.config,
            deadline,
        });
        state.depth += 1;
        state.high_watermark = state.high_watermark.max(state.depth);
        state.status.insert(id, JobStatus::Queued);
        drop(state);
        self.shared.count(Counter::JobsAdmitted, 1);
        self.shared.available.notify_one();
        Ok(id)
    }

    /// Blocks until the next response (completion order). Call exactly
    /// once per submission attempt; calling more often blocks forever.
    ///
    /// # Panics
    ///
    /// Panics if every worker exited while responses were still owed
    /// (cannot happen: workers only exit after the queue drains).
    #[must_use]
    pub fn recv(&self) -> SolveResponse {
        self.responses
            .recv()
            .expect("the server keeps a sender alive")
    }

    /// The lifecycle state of a job, or `None` for an unknown id.
    ///
    /// # Panics
    ///
    /// Panics under the same (impossible) poisoned-lock condition as
    /// [`submit`](Server::submit).
    #[must_use]
    pub fn status(&self, job: JobId) -> Option<JobStatus> {
        self.shared
            .state
            .lock()
            .expect("server state lock")
            .status
            .get(&job)
            .copied()
    }

    /// Number of jobs currently waiting in the queue.
    ///
    /// # Panics
    ///
    /// Panics under the same (impossible) poisoned-lock condition as
    /// [`submit`](Server::submit).
    #[must_use]
    pub fn pending(&self) -> usize {
        self.shared
            .state
            .lock()
            .expect("server state lock")
            .queue
            .len()
    }

    /// The live queue-depth gauge: jobs admitted but not yet handed to a
    /// worker. Returns to zero once every admitted job has been dispatched,
    /// expired in the queue, or been drain-rejected (the high watermark of
    /// this gauge is what [`shutdown`](Server::shutdown) reports under
    /// [`Counter::QueueDepth`]).
    ///
    /// # Panics
    ///
    /// Panics under the same (impossible) poisoned-lock condition as
    /// [`submit`](Server::submit).
    #[must_use]
    pub fn depth(&self) -> usize {
        self.shared.state.lock().expect("server state lock").depth
    }

    /// Starts a graceful drain: every job still queued is rejected *now*
    /// with [`ServeError::ShuttingDown`] (streamed like any other
    /// response and counted under [`Counter::DrainRejections`]), in-flight
    /// solves run to completion, and every later [`submit`](Server::submit)
    /// fails with the same typed error. Idempotent; the response contract
    /// — exactly one response per submission attempt — is preserved, so
    /// keep calling [`recv`](Server::recv) until all owed responses
    /// arrived, then [`shutdown`](Server::shutdown) as usual.
    ///
    /// # Panics
    ///
    /// Panics under the same (impossible) poisoned-lock condition as
    /// [`submit`](Server::submit).
    pub fn drain(&self) {
        self.shared.drain();
    }

    /// A cloneable [`DrainHandle`] for triggering the drain from another
    /// thread (the TCP listener's shutdown path uses this while the
    /// connection handler owns the server).
    #[must_use]
    pub fn drain_handle(&self) -> DrainHandle {
        DrainHandle {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Drains the queue, joins the workers and returns the server's
    /// aggregate statistics: admission counters
    /// ([`Counter::JobsAdmitted`] / [`Counter::JobsRejected`] /
    /// [`Counter::CacheHits`]), the queue-depth high watermark
    /// ([`Counter::QueueDepth`]) and the absorbed per-job solver counters.
    ///
    /// Already-queued jobs still run to completion; collect their
    /// responses with [`recv`](Server::recv) **before** calling this (the
    /// channel dies with the server).
    ///
    /// # Panics
    ///
    /// Panics if a worker thread itself panicked (solver panics are
    /// isolated inside the pipeline, so this indicates a queue bug).
    #[must_use]
    pub fn shutdown(mut self) -> SolverStats {
        {
            let mut state = self.shared.state.lock().expect("server state lock");
            state.shutdown = true;
        }
        self.shared.available.notify_all();
        for worker in std::mem::take(&mut self.workers) {
            worker.join().expect("serve worker never panics");
        }
        let watermark = {
            let state = self.shared.state.lock().expect("server state lock");
            state.high_watermark
        };
        let mut stats = self.shared.stats.lock().expect("server stats lock").clone();
        if watermark > 0 {
            stats.count(Counter::QueueDepth, watermark as u64);
        }
        stats
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        // `shutdown` already took the handles; this only fires on an
        // un-shut-down drop, where workers must still be released.
        {
            let mut state = self.shared.state.lock().expect("server state lock");
            state.shutdown = true;
        }
        self.shared.available.notify_all();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

fn worker_loop(shared: &Shared, tx: &mpsc::Sender<SolveResponse>) {
    loop {
        let job = {
            let mut state = shared.state.lock().expect("server state lock");
            loop {
                if let Some(job) = state.queue.pop_front() {
                    // Dispatch decrements the live gauge; the queued-expiry
                    // check inside `run_job` is part of this same exit path
                    // (the job left the queue either way).
                    state.depth -= 1;
                    break job;
                }
                if state.shutdown {
                    return;
                }
                state = shared.available.wait(state).expect("server state lock");
            }
        };
        let id = job.id;
        shared.set_status(id, JobStatus::Running);
        let response = run_job(shared, job);
        shared.set_status(id, JobStatus::Done);
        // A send error means the `Server` handle (and its receiver) is
        // gone; keep draining so shutdown still completes.
        let _ = tx.send(response);
    }
}

fn run_job(shared: &Shared, job: Job) -> SolveResponse {
    // Queued-expiry check: a deadline spent waiting in line is answered
    // with the typed error before any formulation, presolve or simplex
    // work happens on this job's behalf.
    if let Some(deadline) = job.deadline {
        if deadline <= Instant::now() {
            return SolveResponse {
                job: job.id,
                outcome: Err(ServeError::DeadlineExpired),
            };
        }
    }

    // Cache lookup. Systems with nothing to schedule skip the cache (the
    // pipeline rejects them typed before touching a formulation, so
    // caching one would only hold memory).
    let prepared = if let_semantics::comms_at_start(&job.system).is_empty() {
        None
    } else {
        let key = structure_key(&job.system, &job.config);
        let cached = {
            let entries = shared.cache.entries.lock().expect("cache lock");
            entries.get(&key).cloned()
        };
        let (entry, hit) = match cached {
            Some(entry) => (entry, true),
            None => {
                // Build outside the lock so concurrent workers preparing
                // *different* structures don't serialize; a race on the
                // same key wastes one preparation and first-insert wins.
                let entry = Arc::new(prepare(&job.system, &job.config));
                let mut entries = shared.cache.entries.lock().expect("cache lock");
                let entry = entries.entry(key).or_insert(entry).clone();
                (entry, false)
            }
        };
        if hit {
            shared.count(Counter::CacheHits, 1);
        }
        Some((entry, hit))
    };

    let mut config = job.config;
    if let Some(deadline) = job.deadline {
        config = config.with_deadline(deadline);
    }
    let mut stats = SolverStats::new();
    let result = {
        let optimizer = Optimizer::new(&job.system)
            .config(config)
            .instrument(&mut stats);
        match &prepared {
            Some((entry, _)) => optimizer.run_prepared(entry),
            None => optimizer.run(),
        }
    };
    shared
        .stats
        .lock()
        .expect("server stats lock")
        .absorb(&stats);
    let cache_hit = prepared.as_ref().is_some_and(|(_, hit)| *hit);
    let outcome = match result {
        Ok(solution) => Ok(SolveReport {
            resolution: solution.resolution,
            num_transfers: solution.num_transfers(),
            objective_value: solution.objective_value,
            stats,
            cache_hit,
        }),
        Err(OptError::DeadlineExpired) => Err(ServeError::DeadlineExpired),
        Err(error) => Err(ServeError::Solve(error.to_string())),
    };
    SolveResponse {
        job: job.id,
        outcome,
    }
}
