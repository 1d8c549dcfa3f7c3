//! TCP transport: the serve protocol over real sockets.
//!
//! The wire documents ([`crate::wire`]) travel as length-prefixed frames
//! (4-byte big-endian length, then the UTF-8 payload) over `std::net`.
//! Three pieces (DESIGN.md §"Network transport & failure model"):
//!
//! * **Framing** — `write_frame`/`read_frame`, shared by both ends. The
//!   four `net-*` sites of the [`fault`] plane live *inside* the write
//!   path, so a chaos campaign perturbs real frames: a dropped frame
//!   ([`FaultSite::NetDropFrame`], counted under
//!   [`Counter::FramesDropped`]), a bounded stall
//!   ([`FaultSite::NetDelay`], [`NET_DELAY`]), a truncated frame followed
//!   by a write-side close ([`FaultSite::NetTruncate`]) and a single
//!   flipped payload byte ([`FaultSite::NetCorruptByte`]).
//! * **[`TcpServer`]** — a listener spawning one handler thread per
//!   connection, in front of one [`Server`] started at bind. Each request
//!   frame is decoded and run through [`Server::solve_batch`] — exactly
//!   the loopback discipline, which is why faults-off TCP trajectories are
//!   byte-identical to [`LoopbackTransport`](crate::LoopbackTransport).
//!   The listener keeps an **idempotency store**: a request carrying a
//!   [`request_key`](crate::SolveRequest::request_key) is admitted at most
//!   once for the listener's lifetime; a resubmission (a client retry
//!   after a lost reply) is answered from the store — waiting for the
//!   original if it is still solving — and counted under
//!   [`Counter::IdempotentHits`]. An undecodable request frame is answered
//!   with a [`wire::encode_batch_error`] document instead of a hangup.
//! * **[`TcpTransport`]** — the client side: per-attempt connect/IO
//!   timeouts, bounded retries with seeded, jittered exponential backoff
//!   ([`RetryPolicy`], retries counted under
//!   [`Counter::RetriesAttempted`]). A reply is parsed before it is
//!   accepted, so a corrupted or batch-error response triggers a retry
//!   rather than surfacing garbage; exhaustion yields
//!   [`ServeError::Transport`].
//!
//! Graceful shutdown: [`TcpServer::drain`] starts the drain of the
//! listener's server — queued jobs come back as typed
//! [`ServeError::ShuttingDown`] rejections, running solves finish, and
//! later batches are refused with the same typed error (every request
//! still gets exactly one typed response).
//! [`TcpServer::shutdown`] runs the drain, stops accepting, joins every
//! handler and returns the aggregate [`SolverStats`].
//!
//! # Examples
//!
//! ```
//! use letdma_core::Counter;
//! use letdma_model::SystemBuilder;
//! use letdma_opt::OptConfig;
//! use letdma_serve::{Client, RetryPolicy, ServeConfig, SolveRequest, TcpServer, TcpTransport};
//!
//! let mut b = SystemBuilder::new(2);
//! let cam = b.task("camera").period_ms(33).core_index(0).add()?;
//! let fuse = b.task("fusion").period_ms(66).core_index(1).add()?;
//! b.label("frame").size(64 * 1024).writer(cam).reader(fuse).add()?;
//! let system = b.build()?;
//!
//! let server = TcpServer::bind("127.0.0.1:0", ServeConfig::new().with_workers(2))?;
//! let mut client = Client::new(TcpTransport::with_policy(
//!     server.local_addr(),
//!     RetryPolicy::new().with_max_attempts(4),
//! ));
//! let responses = client.solve_batch(&[
//!     SolveRequest::new(system, OptConfig::new()).with_request_key(0xC0FFEE),
//! ])?;
//! assert!(responses[0].outcome.is_ok());
//!
//! server.drain(); // queued work answered `ShuttingDown`, in-flight finishes
//! let stats = server.shutdown();
//! assert_eq!(stats.counter(Counter::JobsAdmitted), 1);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use letdma_core::rng::{Rng, SplitMix64};
use letdma_core::{fault, Counter, FaultSite, Instrument, SolverStats};

use crate::api::{JobId, ServeError, SolveReport, SolveRequest, SolveResponse};
use crate::client::Transport;
use crate::server::{ServeConfig, Server, SolveCache};
use crate::wire;

/// Hard cap on one frame's payload, matching the JSON decoder's default
/// document limit: an adversarial length prefix cannot make the receiver
/// allocate more than this.
pub const MAX_FRAME: usize = 64 << 20;

/// How long [`FaultSite::NetDelay`] stalls a frame when it fires. Bounded
/// and deterministic so chaos campaigns stay reproducible; well under the
/// default [`RetryPolicy::io_timeout`], so a delayed frame alone never
/// fails an exchange.
pub const NET_DELAY: Duration = Duration::from_millis(25);

// ---------------------------------------------------------------------------
// Framing.

/// Writes one frame, polling the four `net-*` fault sites. `count` records
/// fault bookkeeping into whichever side's stats own this stream.
fn write_frame(
    stream: &mut TcpStream,
    payload: &[u8],
    count: &mut dyn FnMut(Counter, u64),
) -> io::Result<()> {
    if fault::should_fire(FaultSite::NetDelay) {
        std::thread::sleep(NET_DELAY);
    }
    if fault::should_fire(FaultSite::NetDropFrame) {
        // The frame vanishes: the peer sees silence (and later a clean
        // EOF when this connection closes), never a partial write.
        count(Counter::FramesDropped, 1);
        return Ok(());
    }
    let len = u32::try_from(payload.len())
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "frame exceeds u32 length"))?;
    stream.write_all(&len.to_be_bytes())?;
    if fault::should_fire(FaultSite::NetTruncate) {
        // Deliver a prefix, then slam the write side shut: the peer reads
        // EOF mid-frame and reports a truncated frame immediately.
        stream.write_all(&payload[..payload.len() / 2])?;
        let _ = stream.shutdown(Shutdown::Write);
        return Ok(());
    }
    if fault::should_fire(FaultSite::NetCorruptByte) && !payload.is_empty() {
        let mut corrupted = payload.to_vec();
        corrupted[payload.len() / 2] ^= 0x20;
        return stream.write_all(&corrupted);
    }
    stream.write_all(payload)
}

/// One `read_frame` outcome.
enum FrameRead {
    /// A complete frame.
    Frame(Vec<u8>),
    /// Clean EOF before the next frame started: the peer is done.
    Eof,
    /// `give_up` said to stop waiting (read timeout budget exhausted, or
    /// the server is stopping).
    GaveUp,
}

/// Reads one length-prefixed frame. Read timeouts on the stream surface as
/// `WouldBlock`/`TimedOut`; each one asks `give_up` whether to keep
/// waiting, so a server handler can poll its stop flag while a client
/// treats the first timeout as the attempt's failure.
fn read_frame(stream: &mut TcpStream, give_up: &mut dyn FnMut() -> bool) -> io::Result<FrameRead> {
    let mut prefix = [0u8; 4];
    match read_full(stream, &mut prefix, give_up)? {
        FullRead::Done => {}
        FullRead::EofAtStart => return Ok(FrameRead::Eof),
        FullRead::GaveUp => return Ok(FrameRead::GaveUp),
    }
    let len = u32::from_be_bytes(prefix) as usize;
    if len > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame of {len} bytes exceeds the {MAX_FRAME}-byte cap"),
        ));
    }
    let mut payload = vec![0u8; len];
    match read_full(stream, &mut payload, give_up)? {
        FullRead::Done => Ok(FrameRead::Frame(payload)),
        FullRead::EofAtStart => Err(truncated(0, len)),
        FullRead::GaveUp => Ok(FrameRead::GaveUp),
    }
}

enum FullRead {
    Done,
    /// EOF before the first byte of this buffer.
    EofAtStart,
    GaveUp,
}

fn truncated(got: usize, want: usize) -> io::Error {
    io::Error::new(
        io::ErrorKind::UnexpectedEof,
        format!("truncated frame: got {got} of {want} bytes"),
    )
}

fn read_full(
    stream: &mut TcpStream,
    buf: &mut [u8],
    give_up: &mut dyn FnMut() -> bool,
) -> io::Result<FullRead> {
    let mut filled = 0;
    while filled < buf.len() {
        match stream.read(&mut buf[filled..]) {
            Ok(0) if filled == 0 => return Ok(FullRead::EofAtStart),
            Ok(0) => return Err(truncated(filled, buf.len())),
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                if give_up() {
                    return Ok(FullRead::GaveUp);
                }
            }
            Err(e) => return Err(e),
        }
    }
    Ok(FullRead::Done)
}

// ---------------------------------------------------------------------------
// Server side.

/// The idempotency store's view of one request key.
#[derive(Debug)]
enum IdemEntry {
    /// Some batch claimed this key and its job is solving (or queued).
    InFlight,
    /// The key's answer, replayed to every later submission. Rejections
    /// are stored too: the outcome of a key is decided exactly once for
    /// the listener's lifetime — that is the at-most-once contract.
    Done(Result<SolveReport, ServeError>),
}

#[derive(Debug)]
struct TcpShared {
    /// The one scheduler behind every connection, started at bind.
    server: Server,
    /// Transport counters: [`Counter::IdempotentHits`] and frames the
    /// server dropped ([`Counter::FramesDropped`]).
    stats: Mutex<SolverStats>,
    idem: Mutex<HashMap<u64, IdemEntry>>,
    idem_done: Condvar,
    /// Stops the accept loop and the per-connection read loops.
    stop: AtomicBool,
}

impl TcpShared {
    fn count(&self, counter: Counter, n: u64) {
        self.stats.lock().expect("tcp stats lock").count(counter, n);
    }
}

/// A TCP listener serving the `letdma-serve/1` protocol.
///
/// One handler thread per connection, and one [`Server`] for the
/// listener's lifetime, started at bind: every decoded request frame goes
/// through [`Server::solve_batch`], so the worker count and the queue
/// capacity bound the whole listener, and faults-off solver trajectories
/// are byte-identical to [`LoopbackTransport`](crate::LoopbackTransport)
/// exchanges.
///
/// ```no_run
/// use letdma_serve::{Client, ServeConfig, TcpServer, TcpTransport};
///
/// let server = TcpServer::bind("127.0.0.1:0", ServeConfig::new())?;
/// let mut client = Client::new(TcpTransport::connect(server.local_addr()));
/// // ... client.solve_batch(&requests)? ...
/// let stats = server.shutdown();
/// # Ok::<(), std::io::Error>(())
/// ```
#[derive(Debug)]
pub struct TcpServer {
    local_addr: SocketAddr,
    shared: Arc<TcpShared>,
    accept_thread: Option<JoinHandle<()>>,
}

/// How often a blocked server-side read wakes up to poll the stop flag.
const SERVER_POLL: Duration = Duration::from_millis(25);

impl TcpServer {
    /// Binds a listener (use port 0 for an OS-assigned port) with a fresh
    /// private [`SolveCache`].
    ///
    /// # Errors
    ///
    /// The bind error, verbatim.
    pub fn bind(addr: impl ToSocketAddrs, config: ServeConfig) -> io::Result<Self> {
        Self::bind_with_cache(addr, config, SolveCache::new())
    }

    /// Binds a listener sharing `cache` with other servers.
    ///
    /// # Errors
    ///
    /// The bind error, verbatim.
    pub fn bind_with_cache(
        addr: impl ToSocketAddrs,
        config: ServeConfig,
        cache: SolveCache,
    ) -> io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let shared = Arc::new(TcpShared {
            server: Server::start_with_cache(config, cache),
            stats: Mutex::new(SolverStats::new()),
            idem: Mutex::new(HashMap::new()),
            idem_done: Condvar::new(),
            stop: AtomicBool::new(false),
        });
        let accept_shared = Arc::clone(&shared);
        let accept_thread = std::thread::Builder::new()
            .name("letdma-tcp-accept".to_owned())
            .spawn(move || accept_loop(&listener, &accept_shared))?;
        Ok(Self {
            local_addr,
            shared,
            accept_thread: Some(accept_thread),
        })
    }

    /// The bound address (with the OS-assigned port resolved).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Starts a graceful drain of the listener's server (see
    /// [`Server::drain`]): queued jobs are answered with typed
    /// [`ServeError::ShuttingDown`] rejections, running solves finish
    /// normally, and every later batch is refused with the same typed
    /// error — never silence. Idempotent; connections stay open so owed
    /// responses still flow.
    pub fn drain(&self) {
        self.shared.server.drain();
    }

    /// Runs the drain, stops accepting, joins every connection handler and
    /// returns the server's aggregate statistics (admission counters,
    /// cache hits, [`Counter::DrainRejections`], the queue-depth high
    /// watermark and the absorbed per-job solver counters) together with
    /// the listener's transport counters ([`Counter::IdempotentHits`], and
    /// [`Counter::FramesDropped`] for frames the *server* dropped). The
    /// server's workers are joined when the listener is dropped, on
    /// return.
    ///
    /// # Panics
    ///
    /// Panics if the accept thread itself panicked (handler panics are
    /// contained per connection).
    #[must_use]
    pub fn shutdown(mut self) -> SolverStats {
        self.stop();
        let mut stats = self.shared.server.stats();
        stats.absorb(&self.shared.stats.lock().expect("tcp stats lock"));
        stats
    }

    fn stop(&mut self) {
        self.drain();
        self.shared.stop.store(true, Ordering::SeqCst);
        // Unblock the accept loop with a throwaway connection; if that
        // fails the loop still exits on its next accept error.
        let _ = TcpStream::connect_timeout(&self.local_addr, Duration::from_secs(1));
        if let Some(thread) = self.accept_thread.take() {
            thread.join().expect("tcp accept loop never panics");
        }
    }
}

impl Drop for TcpServer {
    fn drop(&mut self) {
        // `shutdown` already joined; this only fires on an un-shut-down
        // drop, where the accept loop must still be released.
        if self.accept_thread.is_some() {
            self.stop();
        }
    }
}

fn accept_loop(listener: &TcpListener, shared: &Arc<TcpShared>) {
    let mut handlers: Vec<JoinHandle<()>> = Vec::new();
    loop {
        match listener.accept() {
            Ok((stream, _peer)) => {
                if shared.stop.load(Ordering::SeqCst) {
                    break;
                }
                // Forget connections that already closed, so the list is
                // bounded by the open ones.
                handlers.retain(|h| !h.is_finished());
                let shared = Arc::clone(shared);
                if let Ok(handle) = std::thread::Builder::new()
                    .name("letdma-tcp-conn".to_owned())
                    .spawn(move || handle_connection(&shared, stream))
                {
                    handlers.push(handle);
                }
            }
            Err(_) => {
                if shared.stop.load(Ordering::SeqCst) {
                    break;
                }
            }
        }
    }
    for handle in handlers {
        let _ = handle.join();
    }
}

fn handle_connection(shared: &TcpShared, mut stream: TcpStream) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(SERVER_POLL));
    let _ = stream.set_write_timeout(Some(Duration::from_secs(10)));
    loop {
        let mut give_up = || shared.stop.load(Ordering::SeqCst);
        let frame = match read_frame(&mut stream, &mut give_up) {
            Ok(FrameRead::Frame(frame)) => frame,
            // Clean EOF, stop requested, or a mangled frame (truncated,
            // oversized length prefix): drop the connection. The client's
            // retry opens a fresh one.
            Ok(FrameRead::Eof | FrameRead::GaveUp) | Err(_) => return,
        };
        let reply = match std::str::from_utf8(&frame)
            .map_err(|e| format!("frame is not UTF-8: {e}"))
            .and_then(wire::decode_requests)
        {
            // The request document itself is unusable (corrupt frame,
            // schema drift): there are no job ids to answer on, so the
            // whole batch gets one typed decode error.
            Err(message) => wire::encode_batch_error(&message),
            Ok(requests) => wire::encode_responses(&run_batch(shared, requests)),
        };
        let mut count = |counter, n| shared.count(counter, n);
        if write_frame(&mut stream, reply.as_bytes(), &mut count).is_err() {
            return;
        }
    }
}

/// Runs one decoded batch: the idempotency partition, the fresh jobs
/// through the listener's [`Server`], then response assembly in
/// batch-position order (job ids in the reply are batch positions, as over
/// loopback).
fn run_batch(shared: &TcpShared, requests: Vec<SolveRequest>) -> Vec<SolveResponse> {
    type Outcome = Result<SolveReport, ServeError>;
    let mut outcomes: Vec<Option<Outcome>> = (0..requests.len()).map(|_| None).collect();
    // Batch positions (and keys) of the requests this batch solves itself.
    let mut fresh: Vec<(usize, Option<u64>)> = Vec::new();
    let mut fresh_requests: Vec<SolveRequest> = Vec::new();
    // Keys another batch holds in flight: wait for their answers.
    let mut awaits: Vec<(usize, u64)> = Vec::new();
    {
        let mut idem = shared.idem.lock().expect("tcp idempotency lock");
        let mut hits = 0;
        for (position, request) in requests.into_iter().enumerate() {
            let key = request.request_key;
            match (key, key.and_then(|key| idem.get(&key))) {
                (_, Some(IdemEntry::Done(outcome))) => {
                    hits += 1;
                    outcomes[position] = Some(outcome.clone());
                }
                (Some(key), Some(IdemEntry::InFlight)) => {
                    hits += 1;
                    awaits.push((position, key));
                }
                (key, _) => {
                    // Claim a new key before releasing the lock: a
                    // concurrent duplicate must wait, not double-admit.
                    if let Some(key) = key {
                        idem.insert(key, IdemEntry::InFlight);
                    }
                    fresh.push((position, key));
                    fresh_requests.push(request);
                }
            }
        }
        if hits > 0 {
            shared.count(Counter::IdempotentHits, hits);
        }
    }

    if !fresh.is_empty() {
        let responses = shared.server.solve_batch(fresh_requests);
        // Publish keyed answers, then wake every waiting duplicate.
        {
            let mut idem = shared.idem.lock().expect("tcp idempotency lock");
            for (&(position, key), response) in fresh.iter().zip(responses) {
                if let Some(key) = key {
                    idem.insert(key, IdemEntry::Done(response.outcome.clone()));
                }
                outcomes[position] = Some(response.outcome);
            }
        }
        shared.idem_done.notify_all();
    }

    // Resolve awaits last: every batch publishes its own keys before
    // waiting on anyone else's, so the wait graph is acyclic.
    for (position, key) in awaits {
        let mut idem = shared.idem.lock().expect("tcp idempotency lock");
        let outcome = loop {
            match idem.get(&key) {
                Some(IdemEntry::Done(outcome)) => break outcome.clone(),
                _ => idem = shared.idem_done.wait(idem).expect("tcp idempotency lock"),
            }
        };
        outcomes[position] = Some(outcome);
    }

    outcomes
        .into_iter()
        .enumerate()
        .map(|(position, outcome)| {
            SolveResponse::new(
                JobId(position as u64),
                outcome.expect("every slot resolves"),
            )
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Client side.

/// Retry/timeout policy of a [`TcpTransport`].
///
/// Backoff before attempt *n* (1-based retries) is
/// `base_backoff × 2^(n-1)`, scaled by a seeded jitter factor in
/// `[0.5, 1.0)` and capped at `max_backoff` — deterministic per
/// `(seed, attempt)`, so a chaos campaign's timing is reproducible and a
/// fleet of clients with distinct seeds does not thunder in lockstep.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct RetryPolicy {
    /// Total attempts (first try included). At least 1.
    pub max_attempts: u32,
    /// Base unit of the exponential backoff.
    pub base_backoff: Duration,
    /// Upper bound on one backoff sleep.
    pub max_backoff: Duration,
    /// Seed of the jitter factor.
    pub seed: u64,
    /// Per-attempt connect timeout.
    pub connect_timeout: Duration,
    /// Per-attempt read/write timeout: how long one attempt waits for the
    /// response frame before the attempt fails (a solve slower than this
    /// makes the *attempt* fail — pick it above the expected solve time,
    /// or rely on the server's idempotency store to answer the retry).
    pub io_timeout: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_attempts: 4,
            base_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_millis(200),
            seed: 0,
            connect_timeout: Duration::from_secs(1),
            io_timeout: Duration::from_secs(30),
        }
    }
}

impl RetryPolicy {
    /// The default policy (4 attempts, 10 ms base backoff, 30 s IO
    /// timeout).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the attempt budget (clamped to ≥ 1).
    #[must_use]
    pub fn with_max_attempts(mut self, attempts: u32) -> Self {
        self.max_attempts = attempts.max(1);
        self
    }

    /// Sets the backoff base.
    #[must_use]
    pub fn with_base_backoff(mut self, base: Duration) -> Self {
        self.base_backoff = base;
        self
    }

    /// Sets the jitter seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the per-attempt IO timeout.
    #[must_use]
    pub fn with_io_timeout(mut self, timeout: Duration) -> Self {
        self.io_timeout = timeout;
        self
    }

    /// The deterministic backoff before retry `attempt` (1-based).
    #[must_use]
    pub fn backoff(&self, attempt: u32) -> Duration {
        let exp = self
            .base_backoff
            .saturating_mul(1u32 << (attempt - 1).min(16));
        let jitter = {
            let mut mixer = SplitMix64::new(self.seed ^ u64::from(attempt));
            0.5 + 0.5 * ((mixer.next_u64() >> 11) as f64 / (1u64 << 53) as f64)
        };
        exp.mul_f64(jitter).min(self.max_backoff)
    }
}

/// The client side of the TCP transport: one connection per attempt,
/// bounded retries with seeded backoff, and reply validation (a reply that
/// does not parse as a response document — corrupted in flight, or a
/// server-side batch error — fails the attempt and is retried).
///
/// Pair requests with
/// [`request_key`](crate::SolveRequest::request_key)s so retries are
/// idempotent: a retry whose original was admitted is answered from the
/// server's store instead of being solved twice.
#[derive(Debug)]
pub struct TcpTransport {
    addr: SocketAddr,
    policy: RetryPolicy,
    stats: SolverStats,
}

impl TcpTransport {
    /// A transport for `addr` with the default [`RetryPolicy`].
    #[must_use]
    pub fn connect(addr: SocketAddr) -> Self {
        Self::with_policy(addr, RetryPolicy::default())
    }

    /// A transport with an explicit policy.
    #[must_use]
    pub fn with_policy(addr: SocketAddr, policy: RetryPolicy) -> Self {
        Self {
            addr,
            policy,
            stats: SolverStats::new(),
        }
    }

    /// Client-side transport statistics: [`Counter::RetriesAttempted`] and
    /// [`Counter::FramesDropped`] for frames dropped on the client's write
    /// path.
    #[must_use]
    pub fn stats(&self) -> &SolverStats {
        &self.stats
    }

    fn attempt(&mut self, request: &str) -> Result<String, String> {
        let mut stream = TcpStream::connect_timeout(&self.addr, self.policy.connect_timeout)
            .map_err(|e| format!("connect to {}: {e}", self.addr))?;
        let _ = stream.set_nodelay(true);
        stream
            .set_read_timeout(Some(self.policy.io_timeout))
            .map_err(|e| format!("set read timeout: {e}"))?;
        stream
            .set_write_timeout(Some(self.policy.io_timeout))
            .map_err(|e| format!("set write timeout: {e}"))?;
        let mut count = |counter, n| self.stats.count(counter, n);
        write_frame(&mut stream, request.as_bytes(), &mut count)
            .map_err(|e| format!("send request frame: {e}"))?;
        // One IO-timeout budget for the whole response: the first stalled
        // read fails the attempt.
        let mut give_up = || true;
        let reply = match read_frame(&mut stream, &mut give_up) {
            Ok(FrameRead::Frame(frame)) => frame,
            Ok(FrameRead::Eof) => return Err("connection closed before the reply".to_owned()),
            Ok(FrameRead::GaveUp) => {
                return Err(format!(
                    "no reply within {:?} (io timeout)",
                    self.policy.io_timeout
                ))
            }
            Err(e) => return Err(format!("read reply frame: {e}")),
        };
        let text =
            String::from_utf8(reply).map_err(|e| format!("reply frame is not UTF-8: {e}"))?;
        // Validate before accepting: a corrupted or batch-error reply must
        // burn this attempt, not surface to the caller as data.
        wire::decode_responses(&text).map_err(|e| format!("reply does not decode: {e}"))?;
        Ok(text)
    }
}

impl Transport for TcpTransport {
    fn round_trip(&mut self, request: &str) -> Result<String, ServeError> {
        let mut last_error = String::new();
        for attempt in 0..self.policy.max_attempts {
            if attempt > 0 {
                self.stats.count(Counter::RetriesAttempted, 1);
                std::thread::sleep(self.policy.backoff(attempt));
            }
            match self.attempt(request) {
                Ok(reply) => return Ok(reply),
                Err(error) => last_error = error,
            }
        }
        Err(ServeError::Transport(format!(
            "{} attempts exhausted; last error: {last_error}",
            self.policy.max_attempts
        )))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_is_deterministic_jittered_and_capped() {
        let policy = RetryPolicy::new()
            .with_seed(7)
            .with_base_backoff(Duration::from_millis(10));
        let a: Vec<Duration> = (1..=6).map(|n| policy.backoff(n)).collect();
        let b: Vec<Duration> = (1..=6).map(|n| policy.backoff(n)).collect();
        assert_eq!(a, b, "same seed, same schedule");
        for (n, d) in a.iter().enumerate() {
            assert!(*d <= policy.max_backoff, "attempt {} exceeds cap", n + 1);
            assert!(*d >= Duration::from_millis(5), "jitter floor is half base");
        }
        assert!(a[1] > a[0], "backoff grows before the cap");
        let other = RetryPolicy::new().with_seed(8).backoff(1);
        assert_ne!(other, a[0], "different seed, different jitter");
    }

    #[test]
    fn frame_round_trips_over_a_socket_pair() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let echo = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().expect("accept");
            let mut give_up = || false;
            match read_frame(&mut stream, &mut give_up).expect("read") {
                FrameRead::Frame(frame) => {
                    let mut count = |_c, _n| {};
                    write_frame(&mut stream, &frame, &mut count).expect("write");
                }
                _ => panic!("expected a frame"),
            }
        });
        let mut stream = TcpStream::connect(addr).expect("connect");
        let mut count = |_c, _n| {};
        write_frame(&mut stream, b"hello frame", &mut count).expect("write");
        let mut give_up = || false;
        match read_frame(&mut stream, &mut give_up).expect("read") {
            FrameRead::Frame(frame) => assert_eq!(frame, b"hello frame"),
            _ => panic!("expected the echoed frame"),
        }
        echo.join().expect("echo thread");
    }

    #[test]
    fn oversized_length_prefix_is_rejected_without_allocating() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let writer = std::thread::spawn(move || {
            let mut stream = TcpStream::connect(addr).expect("connect");
            stream
                .write_all(&u32::MAX.to_be_bytes())
                .expect("write prefix");
        });
        let (mut stream, _) = listener.accept().expect("accept");
        let mut give_up = || false;
        let error = match read_frame(&mut stream, &mut give_up) {
            Err(e) => e,
            Ok(_) => panic!("an adversarial length prefix must be rejected"),
        };
        assert_eq!(error.kind(), io::ErrorKind::InvalidData);
        writer.join().expect("writer thread");
    }
}
