//! The batch solve server: admission control, a bounded FIFO queue, a
//! sharded worker pool over the panic-isolated optimizer pipeline, and a
//! shared formulation + presolve cache.
//!
//! See DESIGN.md §"Service architecture" for the queue discipline, the
//! cache keying and the backpressure contract. In short:
//!
//! * [`Server::solve_batch`] admits a batch's requests in order. Each one
//!   is either queued (bounded FIFO, counted under
//!   [`Counter::JobsAdmitted`]) or refused on the spot with
//!   [`ServeError::QueueFull`] ([`Counter::JobsRejected`]) — queueing is
//!   never unbounded. The call blocks until every admitted job of *its*
//!   batch is answered and returns one response per request, in request
//!   order. Several threads may call it at once: the queue, the workers
//!   and the capacity are shared by every caller.
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
//! * [`Server::drain`], from any thread, starts a graceful drain: queued
//!   jobs are rejected immediately with [`ServeError::ShuttingDown`]
//!   ([`Counter::DrainRejections`]), in-flight solves run to completion,
//!   later batches are refused.
//! * [`Server::stats`] snapshots the aggregate [`SolverStats`] (including
//!   the high watermark of the live [`Server::depth`] gauge under
//!   [`Counter::QueueDepth`]); [`Server::shutdown`] joins the workers and
//!   returns the final snapshot.

use std::collections::{HashMap, VecDeque};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::Instant;

use letdma_core::{resolve_threads, Counter, Instrument, SolverStats};
use letdma_model::{let_semantics, System};
use letdma_opt::{prepare, structure_key, OptConfig, OptError, Optimizer, Prepared};

use crate::api::{JobId, ServeError, SolveReport, SolveRequest, SolveResponse};

/// Configuration of a [`Server`].
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct ServeConfig {
    /// Worker threads dequeuing and solving jobs. `None` defers to the
    /// `LETDMA_THREADS` environment variable (default: one worker) — the
    /// same explicit > environment > default chain every other knob uses
    /// (DESIGN.md §"Configuration precedence").
    pub workers: Option<usize>,
    /// Admission bound: the maximum number of jobs waiting in the queue,
    /// over every batch in flight. A request arriving at a full queue is
    /// rejected with [`ServeError::QueueFull`]; zero rejects every request
    /// (useful to test backpressure handling).
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
/// several servers — the serve benchmark shares one across its rounds —
/// and re-submissions of an already-seen model structure skip formulation
/// and presolve entirely. Each entry also holds the structure's
/// cross-scenario root-basis slot (DESIGN.md §"Warm-start architecture"),
/// so re-submissions additionally skip simplex phase 1 unless the request
/// disables [`reuse_basis`](letdma_opt::OptConfig::reuse_basis).
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
    /// The submitting batch's reply channel. The job's one response goes
    /// here, whether a worker or a drain flush produces it.
    reply: mpsc::Sender<SolveResponse>,
}

struct QueueState {
    queue: VecDeque<Job>,
    shutdown: bool,
    /// Graceful-drain mode: in-flight solves finish, queued jobs were
    /// flushed with [`ServeError::ShuttingDown`] rejections when the drain
    /// began, and new requests are refused (see [`Server::drain`]).
    draining: bool,
    high_watermark: usize,
}

struct Shared {
    state: Mutex<QueueState>,
    available: Condvar,
    stats: Mutex<SolverStats>,
    cache: SolveCache,
}

impl Shared {
    fn count(&self, counter: Counter, n: u64) {
        self.stats
            .lock()
            .expect("server stats lock")
            .count(counter, n);
    }
}

impl std::fmt::Debug for Shared {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Shared").finish_non_exhaustive()
    }
}

/// The solve server: one bounded job queue fanned out over worker threads
/// for its whole lifetime.
///
/// Share it by reference (or in an `Arc`) across threads:
/// [`solve_batch`](Server::solve_batch), [`drain`](Server::drain),
/// [`depth`](Server::depth) and [`stats`](Server::stats) all take
/// `&self`, so the worker count and the queue capacity bound the whole
/// process, not one batch.
#[derive(Debug)]
pub struct Server {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
    capacity: usize,
}

impl Server {
    /// Starts a server with a fresh, private [`SolveCache`].
    #[must_use]
    pub fn start(config: ServeConfig) -> Self {
        Self::start_with_cache(config, SolveCache::new())
    }

    /// Starts a server sharing `cache` with other servers: structures
    /// prepared elsewhere hit immediately.
    ///
    /// # Panics
    ///
    /// Panics if the OS refuses to spawn the worker threads.
    #[must_use]
    pub fn start_with_cache(config: ServeConfig, cache: SolveCache) -> Self {
        let workers = resolve_threads(config.workers);
        let shared = Arc::new(Shared {
            state: Mutex::new(QueueState {
                queue: VecDeque::new(),
                shutdown: false,
                draining: false,
                high_watermark: 0,
            }),
            available: Condvar::new(),
            stats: Mutex::new(SolverStats::new()),
            cache,
        });
        let handles = (0..workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("letdma-serve-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn serve worker")
            })
            .collect();
        Self {
            shared,
            workers: handles,
            capacity: config.queue_capacity,
        }
    }

    /// Solves one batch: admits its requests in order, waits for the
    /// admitted ones and returns one response per request, **in request
    /// order**, with [`JobId`] = batch position.
    ///
    /// A request refused at admission is answered inline with
    /// [`ServeError::QueueFull`] (the queue already holds
    /// `queue_capacity` jobs) or [`ServeError::ShuttingDown`] (a
    /// [`drain`](Server::drain) has started). Admitted requests may still
    /// end in [`ServeError::DeadlineExpired`], a drain rejection or a
    /// solve error — every failure is typed, none is an error of this
    /// method.
    ///
    /// # Panics
    ///
    /// Panics if a worker thread panicked while holding the server state
    /// lock (workers isolate solver panics, so this indicates a bug in the
    /// queue plumbing itself).
    #[must_use]
    pub fn solve_batch(&self, requests: Vec<SolveRequest>) -> Vec<SolveResponse> {
        let (reply, replies) = mpsc::channel();
        let mut admitted = 0;
        let mut responses: Vec<Option<SolveResponse>> = requests
            .into_iter()
            .enumerate()
            .map(|(position, request)| {
                let id = JobId(position as u64);
                match self.admit(id, request, &reply) {
                    Ok(()) => {
                        admitted += 1;
                        None
                    }
                    Err(error) => Some(SolveResponse::new(id, Err(error))),
                }
            })
            .collect();
        drop(reply);
        // Every admitted job answers exactly once, from a worker or a drain
        // flush. Count the answers rather than wait for the channel to
        // close: a worker drops its job's sender only after replying, and
        // waiting for that would cost a context switch per job.
        for response in replies.iter().take(admitted) {
            let position = response.job.0 as usize;
            responses[position] = Some(response);
        }
        responses
            .into_iter()
            .map(|response| response.expect("every admitted job answers once"))
            .collect()
    }

    /// Queues one job or says why not. The absolute deadline is stamped
    /// here: queue time counts against the request's budget.
    fn admit(
        &self,
        id: JobId,
        request: SolveRequest,
        reply: &mpsc::Sender<SolveResponse>,
    ) -> Result<(), ServeError> {
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
            drop(state);
            self.shared.count(counter, 1);
            return Err(error);
        }
        state.queue.push_back(Job {
            id,
            system: request.system,
            config: request.config,
            deadline,
            reply: reply.clone(),
        });
        state.high_watermark = state.high_watermark.max(state.queue.len());
        drop(state);
        self.shared.count(Counter::JobsAdmitted, 1);
        self.shared.available.notify_one();
        Ok(())
    }

    /// The live queue-depth gauge: jobs admitted but not yet handed to a
    /// worker, over every batch in flight. Returns to zero once every
    /// admitted job has been dispatched, expired in the queue, or been
    /// drain-rejected (the high watermark of this gauge is what
    /// [`stats`](Server::stats) reports under [`Counter::QueueDepth`]).
    ///
    /// # Panics
    ///
    /// Panics under the same (impossible) poisoned-lock condition as
    /// [`solve_batch`](Server::solve_batch).
    #[must_use]
    pub fn depth(&self) -> usize {
        self.shared
            .state
            .lock()
            .expect("server state lock")
            .queue
            .len()
    }

    /// Starts a graceful drain, from any thread: every job still queued is
    /// rejected *now* with [`ServeError::ShuttingDown`] (counted under
    /// [`Counter::DrainRejections`]), in-flight solves run to completion,
    /// and every later request is refused with the same typed error.
    /// Blocked [`solve_batch`](Server::solve_batch) calls still return one
    /// response per request. Idempotent.
    ///
    /// # Panics
    ///
    /// Panics under the same (impossible) poisoned-lock condition as
    /// [`solve_batch`](Server::solve_batch).
    pub fn drain(&self) {
        let flushed: Vec<Job> = {
            let mut state = self.shared.state.lock().expect("server state lock");
            state.draining = true;
            state.queue.drain(..).collect()
        };
        if !flushed.is_empty() {
            self.shared
                .count(Counter::DrainRejections, flushed.len() as u64);
            for job in flushed {
                let _ = job
                    .reply
                    .send(SolveResponse::new(job.id, Err(ServeError::ShuttingDown)));
            }
        }
    }

    /// A snapshot of the server's aggregate statistics so far: admission
    /// counters ([`Counter::JobsAdmitted`] / [`Counter::JobsRejected`] /
    /// [`Counter::DrainRejections`] / [`Counter::CacheHits`]), the
    /// queue-depth high watermark ([`Counter::QueueDepth`]) and the
    /// absorbed per-job solver counters. A job's counters are absorbed
    /// before its response is sent, so a snapshot taken after
    /// [`solve_batch`](Server::solve_batch) returns covers that batch.
    ///
    /// # Panics
    ///
    /// Panics under the same (impossible) poisoned-lock condition as
    /// [`solve_batch`](Server::solve_batch).
    #[must_use]
    pub fn stats(&self) -> SolverStats {
        let watermark = self
            .shared
            .state
            .lock()
            .expect("server state lock")
            .high_watermark;
        let mut stats = self.shared.stats.lock().expect("server stats lock").clone();
        if watermark > 0 {
            stats.count(Counter::QueueDepth, watermark as u64);
        }
        stats
    }

    /// Joins the workers and returns the final [`stats`](Server::stats).
    ///
    /// # Panics
    ///
    /// Panics if a worker thread itself panicked (solver panics are
    /// isolated inside the pipeline, so this indicates a queue bug).
    #[must_use]
    pub fn shutdown(mut self) -> SolverStats {
        assert!(self.stop_workers(), "serve worker never panics");
        self.stats()
    }

    /// Releases and joins the workers; whether all of them exited cleanly.
    /// Jobs still queued run to completion first. Never panics, so `Drop`
    /// can call it: setting the flag is valid even on a poisoned lock.
    fn stop_workers(&mut self) -> bool {
        self.shared
            .state
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .shutdown = true;
        self.shared.available.notify_all();
        // Join every worker before judging: `all` alone would stop early.
        let joined: Vec<_> = self.workers.drain(..).map(JoinHandle::join).collect();
        joined.iter().all(Result::is_ok)
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        // `shutdown` already took the handles; this only fires on an
        // un-shut-down drop, where workers must still be released.
        self.stop_workers();
    }
}

fn worker_loop(shared: &Shared) {
    loop {
        let job = {
            let mut state = shared.state.lock().expect("server state lock");
            loop {
                if let Some(job) = state.queue.pop_front() {
                    break job;
                }
                if state.shutdown {
                    return;
                }
                state = shared.available.wait(state).expect("server state lock");
            }
        };
        let outcome = run_job(shared, &job.system, job.config, job.deadline);
        // A send error means the batch's caller is gone; keep serving.
        let _ = job.reply.send(SolveResponse::new(job.id, outcome));
    }
}

fn run_job(
    shared: &Shared,
    system: &System,
    config: OptConfig,
    deadline: Option<Instant>,
) -> Result<SolveReport, ServeError> {
    // Queued-expiry check: a deadline spent waiting in line is answered
    // with the typed error before any formulation, presolve or simplex
    // work happens on this job's behalf.
    if deadline.is_some_and(|deadline| deadline <= Instant::now()) {
        return Err(ServeError::DeadlineExpired);
    }

    // Cache lookup. Systems with nothing to schedule skip the cache (the
    // pipeline rejects them typed before touching a formulation, so
    // caching one would only hold memory).
    let prepared = if let_semantics::comms_at_start(system).is_empty() {
        None
    } else {
        let key = structure_key(system, &config);
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
                let entry = Arc::new(prepare(system, &config));
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

    let config = match deadline {
        Some(deadline) => config.with_deadline(deadline),
        None => config,
    };
    let mut stats = SolverStats::new();
    let result = {
        let optimizer = Optimizer::new(system).config(config).instrument(&mut stats);
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
    match result {
        Ok(solution) => Ok(SolveReport {
            resolution: solution.resolution,
            num_transfers: solution.num_transfers(),
            objective_value: solution.objective_value,
            stats,
            cache_hit,
        }),
        Err(OptError::DeadlineExpired) => Err(ServeError::DeadlineExpired),
        Err(error) => Err(ServeError::Solve(error.to_string())),
    }
}
