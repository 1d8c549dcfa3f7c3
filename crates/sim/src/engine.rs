//! Discrete-event simulation engine: per-core preemptive fixed-priority
//! scheduling, a single shared DMA engine, and the LET communication chains
//! of the five approaches (the paper's four plus the triple-buffered
//! pipelined variant).
//!
//! The engine simulates one hyperperiod (by default) of:
//!
//! * periodic job releases of every task;
//! * at every communication instant `t ∈ 𝓣*`, a *communication chain*:
//!   either a sequence of DMA transfers (program → copy → completion ISR,
//!   rules R2–R3) or a sequence of CPU copies (Giotto-CPU);
//! * data-acquisition gating: a job becomes *ready* (enters its core's
//!   ready queue) when the approach's readiness rule is met;
//! * preemptive fixed-priority execution of ready jobs on each core, with
//!   DMA-programming and ISR overheads running at the highest priority.
//!
//! Measured outputs (per task): worst-case data-acquisition latency,
//! worst-case response time, deadline misses — plus global DMA statistics.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};

use letdma_model::let_semantics::{comm_instants, comms_at, let_group};
use letdma_model::{CommKind, CoreId, System, TaskId, TimeNs, TransferSchedule};

use crate::config::{Approach, SimConfig, SimError};
use crate::report::SimReport;
use crate::rotation::BufferRotation;

/// Number of rotating buffer slots of [`Approach::TripleBuffered`].
const TB_SLOTS: usize = 3;

/// One step of a communication chain.
#[derive(Debug, Clone)]
struct Step {
    /// Core whose LET task programs the DMA (or performs the CPU copy).
    core: CoreId,
    /// Pure data-movement duration of this step.
    copy: TimeNs,
    /// Tasks whose jobs (released at the chain's instant) become ready once
    /// this step fully completes.
    readies: Vec<TaskId>,
    /// `true` for a DMA step (program + copy + ISR), `false` for a CPU copy.
    dma: bool,
}

/// A communication chain: the ordered steps issued at one instant.
#[derive(Debug, Clone)]
struct Chain {
    instant: TimeNs,
    steps: Vec<Step>,
    /// Tasks released at `instant` that are ready immediately (no gating).
    immediate: Vec<TaskId>,
}

/// Simulator events, ordered by `(time, seq)`.
#[derive(Debug, Clone, PartialEq, Eq)]
enum EventKind {
    /// Periodic release of a task's job.
    Release(TaskId),
    /// A communication chain becomes eligible to start.
    ChainStart(usize),
    /// The DMA finished the data movement of `(chain, step)`.
    DmaDone(usize, usize),
    /// Tentative completion of the running job on a core (versioned).
    Completion(CoreId, u64),
}

#[derive(Debug, Clone, PartialEq, Eq)]
struct Event {
    time: TimeNs,
    seq: u64,
    kind: EventKind,
}

impl Ord for Event {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time, self.seq).cmp(&(other.time, other.seq))
    }
}
impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// A schedulable job on a core.
#[derive(Debug, Clone)]
struct Job {
    /// Smaller = higher priority; overheads use 0, task τ uses `prio+1`.
    prio: u64,
    /// FIFO tie-break.
    seq: u64,
    remaining: TimeNs,
    payload: Payload,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Payload {
    /// A task job with its release time.
    Task(TaskId, TimeNs),
    /// DMA programming for `(chain, step)`; on completion the copy starts.
    DmaProgram(usize, usize),
    /// DMA completion ISR for `(chain, step)`.
    DmaIsr(usize, usize),
    /// CPU-driven copy for `(chain, step)`.
    CpuCopy(usize, usize),
}

/// Per-core scheduler state.
#[derive(Debug, Default)]
struct Core {
    ready: BinaryHeap<Reverse<(u64, u64, usize)>>, // (prio, seq, job slot)
    running: Option<usize>,
    dispatched_at: TimeNs,
    version: u64,
}

/// Per-chain progress of the triple-buffered pipeline.
///
/// Programming runs ahead of the data movement: the DMA-programming job of
/// step `k + 1` is enqueued as soon as step `k`'s programming completes
/// (pre-fetch), while copies stay strictly sequential on the single DMA
/// engine (Property 2). The copy of round `k` targets buffer slot
/// `k mod TB_SLOTS` and is gated on the completion ISR of round
/// `k − TB_SLOTS` (the slot's previous occupant) having retired.
#[derive(Debug, Default)]
struct TbState {
    /// Programming of step `k` has completed (the descriptor is queued).
    programmed: Vec<bool>,
    /// Time the DMA finished moving round `k`'s data (copy end).
    done_at: Vec<TimeNs>,
    /// Completion ISR of round `k` has retired.
    isr_done: Vec<bool>,
    /// Round `k` was held back by the rotation gate at least once.
    stalled: Vec<bool>,
    /// Next round whose copy may start (copies are issued in order).
    next_copy: usize,
    /// The DMA is currently moving data for this chain.
    copy_busy: bool,
    /// Rounds whose ISR has retired.
    finished: usize,
}

impl TbState {
    fn for_steps(n: usize) -> Self {
        Self {
            programmed: vec![false; n],
            done_at: vec![TimeNs::ZERO; n],
            isr_done: vec![false; n],
            stalled: vec![false; n],
            next_copy: 0,
            copy_busy: false,
            finished: 0,
        }
    }
}

/// Globally unique round identifier for the rotation checker.
fn tb_round(chain: usize, step: usize) -> u64 {
    ((chain as u64) << 32) | step as u64
}

/// The simulation engine.
pub(crate) struct Engine<'a> {
    system: &'a System,
    config: &'a SimConfig,
    chains: Vec<Chain>,
    chain_progress: Vec<usize>,
    active_chain: Option<usize>,
    pending_chains: Vec<usize>,
    events: BinaryHeap<Reverse<Event>>,
    seq: u64,
    cores: Vec<Core>,
    jobs: Vec<Job>,
    now: TimeNs,
    report: SimReport,
    /// Per-chain pipeline state; empty unless the approach is
    /// [`Approach::TripleBuffered`].
    tb: Vec<TbState>,
    /// Independent rotation checker fed by the triple-buffered path.
    rotation: BufferRotation,
}

impl std::fmt::Debug for Engine<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("now", &self.now)
            .field("chains", &self.chains.len())
            .finish()
    }
}

impl<'a> Engine<'a> {
    pub(crate) fn new(
        system: &'a System,
        schedule: Option<&TransferSchedule>,
        config: &'a SimConfig,
    ) -> Result<Self, SimError> {
        let horizon = config.horizon.unwrap_or_else(|| system.hyperperiod());
        let chains = build_chains(system, schedule, config, horizon)?;
        let n_cores = system.platform().core_count();
        let tb = if config.approach == Approach::TripleBuffered {
            chains
                .iter()
                .map(|c| TbState::for_steps(c.steps.len()))
                .collect()
        } else {
            Vec::new()
        };
        let mut engine = Self {
            system,
            config,
            chain_progress: vec![0; chains.len()],
            chains,
            active_chain: None,
            pending_chains: Vec::new(),
            events: BinaryHeap::new(),
            seq: 0,
            cores: (0..n_cores).map(|_| Core::default()).collect(),
            jobs: Vec::new(),
            now: TimeNs::ZERO,
            report: SimReport::new(system),
            tb,
            rotation: BufferRotation::new(TB_SLOTS),
        };
        engine.seed_events(config);
        Ok(engine)
    }

    fn push_event(&mut self, time: TimeNs, kind: EventKind) {
        self.seq += 1;
        self.events.push(Reverse(Event {
            time,
            seq: self.seq,
            kind,
        }));
    }

    fn seed_events(&mut self, config: &SimConfig) {
        let horizon = config.horizon.unwrap_or_else(|| self.system.hyperperiod());
        self.report.horizon = horizon;
        for task in self.system.tasks() {
            let mut t = TimeNs::ZERO;
            while t < horizon {
                self.push_event(t, EventKind::Release(task.id()));
                t += task.period();
            }
        }
        let chain_starts: Vec<(usize, TimeNs)> = self
            .chains
            .iter()
            .enumerate()
            .filter(|(_, c)| c.instant < horizon)
            .map(|(i, c)| (i, c.instant))
            .collect();
        for (i, instant) in chain_starts {
            self.push_event(instant, EventKind::ChainStart(i));
        }
    }

    /// Runs to completion and returns the report.
    pub(crate) fn run(mut self) -> SimReport {
        while let Some(Reverse(event)) = self.events.pop() {
            debug_assert!(event.time >= self.now, "time must not go backwards");
            self.now = event.time;
            self.report.events_processed += 1;
            match event.kind {
                EventKind::Release(task) => self.on_release(task),
                EventKind::ChainStart(chain) => self.on_chain_eligible(chain),
                EventKind::DmaDone(chain, step) => self.on_dma_done(chain, step),
                EventKind::Completion(core, version) => self.on_completion(core, version),
            }
        }
        self.report.buffer_hazards = self.rotation.hazards();
        self.report
    }

    // ----- releases and gating ------------------------------------------

    fn on_release(&mut self, task: TaskId) {
        let t = self.now;
        // Is this release gated by a chain at t?
        let gated = match self.chain_index_at(t) {
            Some(ci) => {
                let chain = &self.chains[ci];
                chain.steps.iter().any(|s| s.readies.contains(&task))
                    && !chain.immediate.contains(&task)
            }
            None => false,
        };
        if !gated {
            self.report.record_latency(task, TimeNs::ZERO);
            self.enqueue_task_job(task, t);
        }
        // Gated jobs are enqueued by the chain when their step completes.
    }

    fn chain_index_at(&self, t: TimeNs) -> Option<usize> {
        self.chains.iter().position(|c| c.instant == t)
    }

    fn enqueue_task_job(&mut self, task: TaskId, release: TimeNs) {
        let def = self.system.task(task);
        let slot = self.jobs.len();
        self.seq += 1;
        self.jobs.push(Job {
            prio: u64::from(def.priority()) + 1,
            seq: self.seq,
            remaining: def.wcet(),
            payload: Payload::Task(task, release),
        });
        self.make_ready(def.core(), slot);
    }

    fn enqueue_overhead_job(&mut self, core: CoreId, duration: TimeNs, payload: Payload) {
        let slot = self.jobs.len();
        self.seq += 1;
        self.jobs.push(Job {
            prio: 0,
            seq: self.seq,
            remaining: duration,
            payload,
        });
        self.make_ready(core, slot);
    }

    // ----- per-core preemptive fixed-priority scheduling ------------------

    fn make_ready(&mut self, core_id: CoreId, slot: usize) {
        let job = &self.jobs[slot];
        let key = (job.prio, job.seq, slot);
        let preempts = {
            let core = &self.cores[core_id.index()];
            match core.running {
                None => true,
                Some(run_slot) => {
                    let running = &self.jobs[run_slot];
                    job.prio < running.prio
                }
            }
        };
        self.cores[core_id.index()].ready.push(Reverse(key));
        if preempts {
            self.preempt_and_dispatch(core_id);
        }
    }

    /// Charges elapsed time to the running job, requeues it if unfinished,
    /// and dispatches the highest-priority ready job.
    fn preempt_and_dispatch(&mut self, core_id: CoreId) {
        let now = self.now;
        let core = &mut self.cores[core_id.index()];
        core.version += 1;
        if let Some(run_slot) = core.running.take() {
            let elapsed = now - core.dispatched_at;
            let job = &mut self.jobs[run_slot];
            job.remaining = job.remaining.saturating_sub(elapsed);
            let key = (job.prio, job.seq, run_slot);
            core.ready.push(Reverse(key));
        }
        self.dispatch(core_id);
    }

    fn dispatch(&mut self, core_id: CoreId) {
        let core = &mut self.cores[core_id.index()];
        let Some(Reverse((_, _, slot))) = core.ready.pop() else {
            core.running = None;
            return;
        };
        core.running = Some(slot);
        core.dispatched_at = self.now;
        let remaining = self.jobs[slot].remaining;
        let version = core.version;
        let when = self.now + remaining;
        self.push_event(when, EventKind::Completion(core_id, version));
    }

    fn on_completion(&mut self, core_id: CoreId, version: u64) {
        let (finished, valid) = {
            let core = &self.cores[core_id.index()];
            (core.running, core.version == version)
        };
        if !valid {
            return; // stale completion after a preemption
        }
        let Some(slot) = finished else { return };
        // The job ran to completion.
        {
            let core = &mut self.cores[core_id.index()];
            core.running = None;
            core.version += 1;
        }
        let payload = self.jobs[slot].payload;
        self.dispatch(core_id);
        match payload {
            Payload::Task(task, release) => {
                let response = self.now - release;
                self.report.record_response(task, response);
                if response > self.system.task(task).deadline() {
                    self.report.record_deadline_miss(task, release);
                }
            }
            Payload::DmaProgram(chain, step) => {
                if self.config.approach == Approach::TripleBuffered {
                    self.tb[chain].programmed[step] = true;
                    // Pre-fetch: pipeline the next round's programming while
                    // this round's data still moves.
                    if step + 1 < self.chains[chain].steps.len() {
                        self.tb_launch_program(chain, step + 1);
                    }
                    self.tb_try_copy(chain);
                } else {
                    // DMA engine now moves the data (in parallel with the
                    // CPUs).
                    let copy = self.chains[chain].steps[step].copy;
                    self.report.dma_busy += copy;
                    self.push_event(self.now + copy, EventKind::DmaDone(chain, step));
                }
            }
            Payload::DmaIsr(chain, step) => {
                if self.config.approach == Approach::TripleBuffered {
                    self.tb_finish_isr(chain, step);
                } else {
                    self.finish_step(chain, step);
                }
            }
            Payload::CpuCopy(chain, step) => {
                self.report.cpu_copy_time += self.chains[chain].steps[step].copy;
                self.finish_step(chain, step);
            }
        }
    }

    // ----- communication chains ------------------------------------------

    fn on_chain_eligible(&mut self, chain: usize) {
        if self.active_chain.is_some() {
            // The previous instant's communications are still in flight:
            // Property 3 is violated (possible under the Giotto baselines).
            self.report.property3_overruns += 1;
            self.pending_chains.push(chain);
            return;
        }
        self.start_chain(chain);
    }

    fn start_chain(&mut self, chain: usize) {
        self.active_chain = Some(chain);
        self.chain_progress[chain] = 0;
        // Non-gated tasks released at this instant were already enqueued by
        // their release events.
        if self.chains[chain].steps.is_empty() {
            self.complete_chain(chain);
        } else if self.config.approach == Approach::TripleBuffered {
            self.tb_launch_program(chain, 0);
        } else {
            self.launch_step(chain, 0);
        }
    }

    fn launch_step(&mut self, chain: usize, step: usize) {
        let s = &self.chains[chain].steps[step];
        let (core, copy, dma) = (s.core, s.copy, s.dma);
        if dma {
            self.report.transfers_issued += 1;
            let o_dp = self.system.costs_for(core).o_dp();
            self.enqueue_overhead_job(core, o_dp, Payload::DmaProgram(chain, step));
        } else {
            let duration = self.config.cpu_label_overhead + copy;
            self.enqueue_overhead_job(core, duration, Payload::CpuCopy(chain, step));
        }
    }

    fn on_dma_done(&mut self, chain: usize, step: usize) {
        let core = self.chains[chain].steps[step].core;
        let o_isr = self.system.costs_for(core).o_isr();
        if self.config.approach == Approach::TripleBuffered {
            self.tb[chain].copy_busy = false;
            self.tb[chain].next_copy = step + 1;
            self.enqueue_overhead_job(core, o_isr, Payload::DmaIsr(chain, step));
            // The next round's copy may start while this ISR is still
            // pending — that is the whole point of the extra buffer slots.
            self.tb_try_copy(chain);
        } else {
            self.enqueue_overhead_job(core, o_isr, Payload::DmaIsr(chain, step));
        }
    }

    // ----- triple-buffered pipeline ---------------------------------------

    /// Enqueues the DMA-programming job of round `step`.
    fn tb_launch_program(&mut self, chain: usize, step: usize) {
        let core = self.chains[chain].steps[step].core;
        self.report.transfers_issued += 1;
        let o_dp = self.system.costs_for(core).o_dp();
        self.enqueue_overhead_job(core, o_dp, Payload::DmaProgram(chain, step));
    }

    /// Starts the next in-order copy if the DMA is idle, the round is
    /// programmed, and its buffer slot's previous occupant has retired.
    fn tb_try_copy(&mut self, chain: usize) {
        let n = self.chains[chain].steps.len();
        let k = {
            let st = &self.tb[chain];
            if st.copy_busy || st.next_copy >= n {
                return;
            }
            st.next_copy
        };
        if !self.tb[chain].programmed[k] {
            return;
        }
        if k >= TB_SLOTS && !self.tb[chain].isr_done[k - TB_SLOTS] {
            // Rotation gate: slot `k % TB_SLOTS` is still owned by round
            // `k − TB_SLOTS`.
            self.tb[chain].stalled[k] = true;
            return;
        }
        if self.tb[chain].stalled[k] {
            self.report.rotation_stalls += 1;
        }
        let copy = self.chains[chain].steps[k].copy;
        let end = self.now + copy;
        self.tb[chain].copy_busy = true;
        self.tb[chain].done_at[k] = end;
        self.report.dma_busy += copy;
        self.rotation
            .record_write(k % TB_SLOTS, self.now, end, tb_round(chain, k));
        self.push_event(end, EventKind::DmaDone(chain, k));
    }

    /// The completion ISR of round `step` retired: the slot's data is
    /// published, gated tasks become ready, and the slot may be reused.
    fn tb_finish_isr(&mut self, chain: usize, step: usize) {
        let instant = self.chains[chain].instant;
        // The buffer is "being read" from copy end until the ISR retires
        // (publication empties the slot into the local memories).
        let read_start = self.tb[chain].done_at[step];
        self.rotation
            .record_read(step % TB_SLOTS, read_start, self.now, tb_round(chain, step));
        self.tb[chain].isr_done[step] = true;
        self.tb[chain].finished += 1;
        let readies = self.chains[chain].steps[step].readies.clone();
        for task in readies {
            let latency = self.now - instant;
            self.report.record_latency(task, latency);
            self.enqueue_task_job(task, instant);
        }
        self.tb_try_copy(chain);
        if self.tb[chain].finished == self.chains[chain].steps.len() {
            self.complete_chain(chain);
        }
    }

    /// The step (including its ISR / CPU copy) has fully completed: ready
    /// its gated tasks and advance the chain.
    fn finish_step(&mut self, chain: usize, step: usize) {
        let instant = self.chains[chain].instant;
        let readies = self.chains[chain].steps[step].readies.clone();
        for task in readies {
            let latency = self.now - instant;
            self.report.record_latency(task, latency);
            self.enqueue_task_job(task, instant);
        }
        let next = step + 1;
        self.chain_progress[chain] = next;
        if next < self.chains[chain].steps.len() {
            self.launch_step(chain, next);
        } else {
            self.complete_chain(chain);
        }
    }

    fn complete_chain(&mut self, chain: usize) {
        debug_assert_eq!(self.active_chain, Some(chain));
        self.active_chain = None;
        if !self.pending_chains.is_empty() {
            let next = self.pending_chains.remove(0);
            self.start_chain(next);
        }
    }
}

/// Builds the per-instant communication chains for the chosen approach,
/// covering every occurrence within `horizon` (the base instants repeat
/// with the communication horizon).
fn build_chains(
    system: &System,
    schedule: Option<&TransferSchedule>,
    config: &SimConfig,
    horizon: TimeNs,
) -> Result<Vec<Chain>, SimError> {
    let base = comm_instants(system);
    let period = system.comm_horizon();
    let mut instants: Vec<TimeNs> = Vec::new();
    let mut offset = TimeNs::ZERO;
    while offset < horizon {
        for &t0 in &base {
            let t = t0 + offset;
            if t < horizon {
                instants.push(t);
            }
        }
        offset += period;
    }
    let mut chains = Vec::with_capacity(instants.len());
    for &t in &instants {
        let comms = comms_at(system, t);
        // Tasks released at t (their period divides t) — the gating set
        // depends on the approach.
        let released: Vec<TaskId> = system
            .tasks()
            .iter()
            .filter(|task| t.is_multiple_of(task.period()))
            .map(letdma_model::Task::id)
            .collect();
        let chain = match config.approach {
            Approach::ProposedDma | Approach::TripleBuffered => {
                let schedule = schedule.ok_or(SimError::MissingSchedule)?;
                let issued = schedule.transfers_at(system, t);
                let mut covered: usize = 0;
                // Per task: index of the last step carrying one of its comms.
                let mut last_step: BTreeMap<TaskId, usize> = BTreeMap::new();
                for (k, (_, tr)) in issued.iter().enumerate() {
                    covered += tr.comms().len();
                    for c in tr.comms() {
                        last_step.insert(c.task, k);
                    }
                }
                if covered != comms.len() {
                    return Err(SimError::InconsistentSchedule(format!(
                        "schedule covers {covered} of {} communications at {t}",
                        comms.len()
                    )));
                }
                let steps: Vec<Step> = issued
                    .iter()
                    .enumerate()
                    .map(|(k, (_, tr))| {
                        let core = tr.local_memory().core().expect("local side");
                        Step {
                            core,
                            copy: system.costs_for(core).omega_c().cost_of(tr.bytes(system)),
                            readies: last_step
                                .iter()
                                .filter(|&(task, &s)| s == k && released.contains(task))
                                .map(|(&task, _)| task)
                                .collect(),
                            dma: true,
                        }
                    })
                    .collect();
                // Under R1, released tasks without any communication at t
                // are ready immediately.
                let gated: Vec<TaskId> = released
                    .iter()
                    .copied()
                    .filter(|&task| !let_group(system, task, t).is_empty())
                    .collect();
                let immediate = released
                    .iter()
                    .copied()
                    .filter(|task| !gated.contains(task))
                    .collect();
                Chain {
                    instant: t,
                    steps,
                    immediate,
                }
            }
            Approach::GiottoDmaA | Approach::GiottoDmaB | Approach::GiottoCpu => {
                // Giotto semantics: everything released at a communication
                // instant waits for all communications at that instant.
                let mut steps: Vec<Step> = match config.approach {
                    Approach::GiottoDmaA => {
                        // One DMA transfer per communication, writes first.
                        let mut ordered = comms.clone();
                        ordered.sort_by_key(|c| (c.kind, c.task, c.label));
                        ordered
                            .iter()
                            .map(|c| {
                                let core = c.local_memory(system).core().expect("local side");
                                Step {
                                    core,
                                    copy: system.costs_for(core).omega_c().cost_of(c.bytes(system)),
                                    readies: Vec::new(),
                                    dma: true,
                                }
                            })
                            .collect()
                    }
                    Approach::GiottoDmaB => {
                        let schedule = schedule.ok_or(SimError::MissingSchedule)?;
                        schedule
                            .transfers_at(system, t)
                            .iter()
                            .map(|(_, tr)| {
                                let core = tr.local_memory().core().expect("local side");
                                Step {
                                    core,
                                    copy: system
                                        .costs_for(core)
                                        .omega_c()
                                        .cost_of(tr.bytes(system)),
                                    readies: Vec::new(),
                                    dma: true,
                                }
                            })
                            .collect()
                    }
                    Approach::GiottoCpu => {
                        let mut ordered = comms.clone();
                        ordered.sort_by_key(|c| (c.kind, c.task, c.label));
                        ordered
                            .iter()
                            .map(|c| {
                                let core = match c.kind {
                                    CommKind::Write | CommKind::Read => {
                                        c.local_memory(system).core().expect("local side")
                                    }
                                };
                                Step {
                                    core,
                                    copy: config.cpu_copy.cost_of(c.bytes(system)),
                                    readies: Vec::new(),
                                    dma: false,
                                }
                            })
                            .collect()
                    }
                    Approach::ProposedDma | Approach::TripleBuffered => unreachable!(),
                };
                // Every released task becomes ready after the last step.
                if let Some(last) = steps.last_mut() {
                    last.readies = released.clone();
                    Chain {
                        instant: t,
                        steps,
                        immediate: Vec::new(),
                    }
                } else {
                    Chain {
                        instant: t,
                        steps,
                        immediate: released,
                    }
                }
            }
        };
        chains.push(chain);
    }
    Ok(chains)
}
