//! LET communication semantics: skip rules, communication instants and
//! Algorithm 1 (§IV and §V-A of the paper).
//!
//! # Skip rules
//!
//! Depending on the period ratio of a producer `τ_p` and a consumer `τ_c`,
//! some LET writes/reads are unnecessary and can be skipped [Biondi & Di
//! Natale, RTAS 2018]:
//!
//! * **oversampled producer** (`T_p < T_c`): a write is only needed if its
//!   value survives until a consumer read, i.e. at instants
//!   `{⌊v·T_c/T_p⌋·T_p | v ∈ ℕ}`;
//! * **oversampled consumer** (`T_c < T_p`): a read is only needed when the
//!   value may have changed, i.e. at instants `{⌈v·T_p/T_c⌉·T_c | v ∈ ℕ}`;
//! * otherwise every write (multiples of `T_p`) / read (multiples of `T_c`)
//!   is needed.
//!
//! These are Eqs. (1) and (2) of the paper, written as *time instants* rather
//! than job indices (the paper's subscripts mix the two; the first-principles
//! form below is equivalent and is validated by exhaustive tests against a
//! naive LET interpreter).
//!
//! Both instant sets repeat with period `lcm(T_p, T_c)` and always contain
//! `t = 0`, hence `𝓒(t) ⊆ 𝓒(s_0)` for every `t ∈ 𝓣*`.

use crate::ids::{LabelId, MemoryId, TaskId};
use crate::system::System;
use crate::time::{div_ceil_u64, TimeNs};

/// Direction of a LET communication.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum CommKind {
    /// `W(τ_p, ℓ)`: copy from the producer's local copy to the shared label
    /// in global memory.
    Write,
    /// `R(ℓ, τ_c)`: copy from the shared label in global memory to the
    /// consumer's local copy.
    Read,
}

/// One LET communication: a write `W(τ, ℓ)` or a read `R(ℓ, τ)`.
///
/// For a write, `task` is the unique producer of `label`; for a read, `task`
/// is one of its inter-core consumers. A label with several inter-core
/// consumers generates one write plus one read per consumer.
///
/// The derived `Ord` (kind, then task, then label — writes before reads) is
/// the deterministic ordering used to index `𝓒(s_0)` everywhere in this
/// workspace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Communication {
    /// Write or read.
    pub kind: CommKind,
    /// The producer (for writes) or consumer (for reads).
    pub task: TaskId,
    /// The shared label being moved.
    pub label: LabelId,
}

impl Communication {
    /// Creates the write communication `W(producer, label)`.
    #[must_use]
    pub const fn write(producer: TaskId, label: LabelId) -> Self {
        Self {
            kind: CommKind::Write,
            task: producer,
            label,
        }
    }

    /// Creates the read communication `R(label, consumer)`.
    #[must_use]
    pub const fn read(label: LabelId, consumer: TaskId) -> Self {
        Self {
            kind: CommKind::Read,
            task: consumer,
            label,
        }
    }

    /// The local memory on the non-global side of this communication:
    /// `M(τ)` of the producing/consuming task.
    #[must_use]
    pub fn local_memory(&self, system: &System) -> MemoryId {
        system.local_memory_of(self.task)
    }

    /// Source memory of the copy (local for writes, global for reads).
    #[must_use]
    pub fn source_memory(&self, system: &System) -> MemoryId {
        match self.kind {
            CommKind::Write => self.local_memory(system),
            CommKind::Read => MemoryId::Global,
        }
    }

    /// Destination memory of the copy (global for writes, local for reads).
    #[must_use]
    pub fn destination_memory(&self, system: &System) -> MemoryId {
        match self.kind {
            CommKind::Write => MemoryId::Global,
            CommKind::Read => self.local_memory(system),
        }
    }

    /// Number of bytes moved (`σ_l` of the label).
    #[must_use]
    pub fn bytes(&self, system: &System) -> u64 {
        system.label(self.label).size()
    }
}

impl std::fmt::Display for Communication {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.kind {
            CommKind::Write => write!(f, "W({}, {})", self.task, self.label),
            CommKind::Read => write!(f, "R({}, {})", self.label, self.task),
        }
    }
}

/// Returns `true` if the producer-side write for the pair `(T_p, T_c)` is
/// required at instant `t` (Eq. 1, as a membership test).
///
/// `t` must be a release instant of the producer (a multiple of `t_p`),
/// otherwise the result is `false`.
///
/// # Panics
///
/// Panics if either period is zero.
#[must_use]
pub fn write_needed_at(t: TimeNs, t_p: TimeNs, t_c: TimeNs) -> bool {
    assert!(
        t_p != TimeNs::ZERO && t_c != TimeNs::ZERO,
        "periods nonzero"
    );
    if !t.is_multiple_of(t_p) {
        return false;
    }
    if t_p >= t_c {
        // Every producer write is eventually consumed.
        return true;
    }
    // Oversampled producer: the write at k·T_p is needed iff some consumer
    // release falls in [k·T_p, (k+1)·T_p), i.e. the value is the last one
    // published before that read.
    let k = t / t_p;
    let first_read_at_or_after = div_ceil_u64(k * t_p.as_ns(), t_c.as_ns()) * t_c.as_ns();
    first_read_at_or_after < (k + 1) * t_p.as_ns()
}

/// Returns `true` if the consumer-side read for the pair `(T_p, T_c)` is
/// required at instant `t` (Eq. 2, as a membership test).
///
/// `t` must be a release instant of the consumer (a multiple of `t_c`),
/// otherwise the result is `false`.
///
/// # Panics
///
/// Panics if either period is zero.
#[must_use]
pub fn read_needed_at(t: TimeNs, t_p: TimeNs, t_c: TimeNs) -> bool {
    assert!(
        t_p != TimeNs::ZERO && t_c != TimeNs::ZERO,
        "periods nonzero"
    );
    if !t.is_multiple_of(t_c) {
        return false;
    }
    if t_c >= t_p {
        // Every consumer read may observe a fresh value.
        return true;
    }
    if t == TimeNs::ZERO {
        // The initial read always happens.
        return true;
    }
    // Oversampled consumer: the read at u·T_c is needed iff a producer write
    // (a multiple of T_p) falls in ((u-1)·T_c, u·T_c].
    let u = t / t_c;
    let last_write_at_or_before = (t.as_ns() / t_p.as_ns()) * t_p.as_ns();
    last_write_at_or_before > (u - 1) * t_c.as_ns()
}

/// The LET writes `G^W(t, τ_i)` and reads `G^R(t, τ_i)` required by task
/// `τ_i` at instant `t` — the output of Algorithm 1.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LetGroup {
    /// `G^W(t, τ_i)`: writes issued by the task at `t`, sorted.
    pub writes: Vec<Communication>,
    /// `G^R(t, τ_i)`: reads issued for the task at `t`, sorted.
    pub reads: Vec<Communication>,
}

impl LetGroup {
    /// `true` when the task needs no LET communication at this instant.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.writes.is_empty() && self.reads.is_empty()
    }

    /// All communications of the group, writes first.
    pub fn iter(&self) -> impl Iterator<Item = Communication> + '_ {
        self.writes.iter().chain(self.reads.iter()).copied()
    }
}

/// Computes `G^W(t, τ_i)` and `G^R(t, τ_i)` — Algorithm 1 of the paper.
///
/// Writes of `task` are included when *some* inter-core consumer of the label
/// still needs the value written at `t`; reads are included per
/// (label, consumer) pair when the skip rule requires them.
///
/// # Panics
///
/// Panics if `task` does not belong to `system`.
#[must_use]
pub fn let_group(system: &System, task: TaskId, t: TimeNs) -> LetGroup {
    let t_i = system.task(task).period();
    let mut group = LetGroup::default();
    for label in system.inter_core_shared_labels() {
        if label.writer() == task {
            // W(τ_i, ℓ) needed iff at least one inter-core consumer of ℓ
            // consumes this particular write.
            let needed = system
                .inter_core_readers(label.id())
                .any(|c| write_needed_at(t, t_i, system.task(c).period()));
            if needed {
                group.writes.push(Communication::write(task, label.id()));
            }
        } else if system.inter_core_readers(label.id()).any(|c| c == task) {
            let t_p = system.task(label.writer()).period();
            if read_needed_at(t, t_p, t_i) {
                group.reads.push(Communication::read(label.id(), task));
            }
        }
    }
    group.writes.sort_unstable();
    group.reads.sort_unstable();
    group
}

/// The set `𝓒(t)` of all LET communications required at instant `t`,
/// in deterministic sorted order (writes before reads).
#[must_use]
pub fn comms_at(system: &System, t: TimeNs) -> Vec<Communication> {
    let mut comms = Vec::new();
    for task in system.tasks() {
        let g = let_group(system, task.id(), t);
        comms.extend(g.writes);
        comms.extend(g.reads);
    }
    comms.sort_unstable();
    comms.dedup();
    comms
}

/// The set `𝓒(s_0)` of all LET communications at the synchronous start.
///
/// Every inter-core shared label contributes exactly one write plus one read
/// per inter-core consumer, so this is the complete communication set:
/// `𝓒(t) ⊆ 𝓒(s_0)` for every `t ∈ 𝓣*`.
#[must_use]
pub fn comms_at_start(system: &System) -> Vec<Communication> {
    comms_at(system, TimeNs::ZERO)
}

/// The ordered communication instants `𝓣* = {t ∈ [0, H) | 𝓒(t) ≠ ∅}`,
/// where `H` is [`System::comm_horizon`].
///
/// The result always starts with `s_0 = 0` when any task communicates.
#[must_use]
pub fn comm_instants(system: &System) -> Vec<TimeNs> {
    let horizon = system.comm_horizon();
    let mut instants = std::collections::BTreeSet::new();
    for (p, c) in system.communicating_pairs() {
        let t_p = system.task(p).period();
        let t_c = system.task(c).period();
        // Candidate instants are producer releases (writes) and consumer
        // releases (reads); membership is decided by the skip rules.
        let mut t = TimeNs::ZERO;
        while t < horizon {
            if write_needed_at(t, t_p, t_c) {
                instants.insert(t);
            }
            t += t_p;
        }
        let mut t = TimeNs::ZERO;
        while t < horizon {
            if read_needed_at(t, t_p, t_c) {
                instants.insert(t);
            }
            t += t_c;
        }
    }
    instants.into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SystemBuilder;

    /// Naive LET interpreter used as ground truth: simulate publication and
    /// consumption job by job and mark which writes/reads transfer a value
    /// that is actually observed / actually fresh.
    mod naive {
        use super::TimeNs;

        /// All producer writes in `[0, horizon)` whose value is read by some
        /// consumer job before being overwritten.
        pub fn needed_writes(t_p: TimeNs, t_c: TimeNs, horizon: TimeNs) -> Vec<TimeNs> {
            let mut out = Vec::new();
            let mut t = TimeNs::ZERO;
            while t < horizon {
                // The value written at t lives during [t, t + T_p).
                // It is consumed iff a consumer release falls in that window
                // (consumer reading at r uses the last write ≤ r).
                let k0 = t.as_ns().div_ceil(t_c.as_ns());
                let first_read = TimeNs::from_ns(k0 * t_c.as_ns());
                if first_read < t + t_p {
                    out.push(t);
                }
                t += t_p;
            }
            out
        }

        /// All consumer reads in `[0, horizon)` that may observe a value
        /// different from the previous read (plus the initial read).
        pub fn needed_reads(t_p: TimeNs, t_c: TimeNs, horizon: TimeNs) -> Vec<TimeNs> {
            let mut out = Vec::new();
            let mut prev_version = None;
            let mut t = TimeNs::ZERO;
            while t < horizon {
                let version = t.as_ns() / t_p.as_ns(); // index of last write ≤ t
                if prev_version != Some(version) {
                    out.push(t);
                }
                prev_version = Some(version);
                t += t_c;
            }
            out
        }
    }

    fn check_pair(p_ms: u64, c_ms: u64) {
        let t_p = TimeNs::from_ms(p_ms);
        let t_c = TimeNs::from_ms(c_ms);
        let horizon = t_p.lcm(t_c) * 2;
        let expected_w = naive::needed_writes(t_p, t_c, horizon);
        let expected_r = naive::needed_reads(t_p, t_c, horizon);
        let mut got_w = Vec::new();
        let mut t = TimeNs::ZERO;
        while t < horizon {
            if write_needed_at(t, t_p, t_c) {
                got_w.push(t);
            }
            t += t_p;
        }
        let mut got_r = Vec::new();
        let mut t = TimeNs::ZERO;
        while t < horizon {
            if read_needed_at(t, t_p, t_c) {
                got_r.push(t);
            }
            t += t_c;
        }
        assert_eq!(got_w, expected_w, "writes for T_p={p_ms}ms T_c={c_ms}ms");
        assert_eq!(got_r, expected_r, "reads for T_p={p_ms}ms T_c={c_ms}ms");
    }

    #[test]
    fn skip_rules_match_naive_interpreter() {
        for (p, c) in [
            (5, 5),
            (5, 10),
            (10, 5),
            (5, 15),
            (15, 5),
            (10, 15),
            (15, 10),
            (33, 15),
            (15, 33),
            (5, 33),
            (33, 5),
            (7, 3),
            (3, 7),
            (200, 400),
            (400, 200),
        ] {
            check_pair(p, c);
        }
    }

    #[test]
    fn all_needed_when_harmonic_equal() {
        let t5 = TimeNs::from_ms(5);
        for k in 0..6 {
            assert!(write_needed_at(t5 * k, t5, t5));
            assert!(read_needed_at(t5 * k, t5, t5));
        }
    }

    #[test]
    fn oversampled_producer_skips_writes() {
        // T_p = 5, T_c = 10: writes at 0, 5, 10, 15, … but only those whose
        // value is read survive: reads at 0, 10 consume writes at 0 and 10.
        // The write at 5 is overwritten at 10 before the read → skipped.
        let t_p = TimeNs::from_ms(5);
        let t_c = TimeNs::from_ms(10);
        assert!(write_needed_at(TimeNs::ZERO, t_p, t_c));
        assert!(!write_needed_at(TimeNs::from_ms(5), t_p, t_c));
        assert!(write_needed_at(TimeNs::from_ms(10), t_p, t_c));
        // Reads all needed (consumer slower than producer).
        assert!(read_needed_at(TimeNs::ZERO, t_p, t_c));
        assert!(read_needed_at(TimeNs::from_ms(10), t_p, t_c));
    }

    #[test]
    fn oversampled_consumer_skips_reads() {
        // T_p = 10, T_c = 5: reads at 0, 5, 10, …; the value changes only at
        // multiples of 10, so reads at odd multiples of 5 are skipped.
        let t_p = TimeNs::from_ms(10);
        let t_c = TimeNs::from_ms(5);
        assert!(read_needed_at(TimeNs::ZERO, t_p, t_c));
        assert!(!read_needed_at(TimeNs::from_ms(5), t_p, t_c));
        assert!(read_needed_at(TimeNs::from_ms(10), t_p, t_c));
        // All writes needed (producer slower).
        assert!(write_needed_at(TimeNs::ZERO, t_p, t_c));
        assert!(write_needed_at(TimeNs::from_ms(10), t_p, t_c));
    }

    #[test]
    fn non_release_instants_are_never_needed() {
        let t_p = TimeNs::from_ms(10);
        let t_c = TimeNs::from_ms(15);
        assert!(!write_needed_at(TimeNs::from_ms(3), t_p, t_c));
        assert!(!read_needed_at(TimeNs::from_ms(3), t_p, t_c));
    }

    fn two_core_system() -> (System, TaskId, TaskId, LabelId) {
        let mut b = SystemBuilder::new(2);
        let p = b.task("p").period_ms(5).core_index(0).add().unwrap();
        let c = b.task("c").period_ms(10).core_index(1).add().unwrap();
        let l = b.label("l").size(64).writer(p).reader(c).add().unwrap();
        (b.build().unwrap(), p, c, l)
    }

    use crate::System;

    #[test]
    fn let_group_at_start_contains_everything() {
        let (sys, p, c, l) = two_core_system();
        let gp = let_group(&sys, p, TimeNs::ZERO);
        assert_eq!(gp.writes, vec![Communication::write(p, l)]);
        assert!(gp.reads.is_empty());
        let gc = let_group(&sys, c, TimeNs::ZERO);
        assert!(gc.writes.is_empty());
        assert_eq!(gc.reads, vec![Communication::read(l, c)]);
    }

    #[test]
    fn let_group_skips_unconsumed_write() {
        let (sys, p, _, _) = two_core_system();
        // Producer at 5 ms, consumer at 10 ms: write at t = 5 ms is skipped.
        let g = let_group(&sys, p, TimeNs::from_ms(5));
        assert!(g.is_empty());
        let g = let_group(&sys, p, TimeNs::from_ms(10));
        assert_eq!(g.writes.len(), 1);
    }

    #[test]
    fn comms_subset_property() {
        // 𝓒(t) ⊆ 𝓒(s_0) for all t ∈ 𝓣*.
        let (sys, ..) = two_core_system();
        let at_start = comms_at_start(&sys);
        for t in comm_instants(&sys) {
            for comm in comms_at(&sys, t) {
                assert!(at_start.contains(&comm), "{comm} at {t} not in C(s0)");
            }
        }
    }

    #[test]
    fn comm_instants_start_at_zero_and_stay_in_horizon() {
        let (sys, ..) = two_core_system();
        let instants = comm_instants(&sys);
        assert_eq!(instants.first(), Some(&TimeNs::ZERO));
        let horizon = sys.comm_horizon();
        assert!(instants.iter().all(|&t| t < horizon));
        // For (5, 10): writes needed at 0 and 10 (mod 10 → {0}), reads at 0.
        // Within [0, 10): only t = 0.
        assert_eq!(instants, vec![TimeNs::ZERO]);
    }

    #[test]
    fn multi_reader_label_generates_one_read_per_consumer() {
        let mut b = SystemBuilder::new(3);
        let p = b.task("p").period_ms(10).core_index(0).add().unwrap();
        let c1 = b.task("c1").period_ms(10).core_index(1).add().unwrap();
        let c2 = b.task("c2").period_ms(10).core_index(2).add().unwrap();
        let l = b
            .label("l")
            .size(8)
            .writer(p)
            .readers([c1, c2])
            .add()
            .unwrap();
        let sys = b.build().unwrap();
        let comms = comms_at_start(&sys);
        assert_eq!(comms.len(), 3);
        assert!(comms.contains(&Communication::write(p, l)));
        assert!(comms.contains(&Communication::read(l, c1)));
        assert!(comms.contains(&Communication::read(l, c2)));
    }

    #[test]
    fn same_core_reader_does_not_communicate() {
        let mut b = SystemBuilder::new(2);
        let p = b.task("p").period_ms(10).core_index(0).add().unwrap();
        let same = b.task("same").period_ms(10).core_index(0).add().unwrap();
        b.label("l").size(8).writer(p).reader(same).add().unwrap();
        let sys = b.build().unwrap();
        assert!(comms_at_start(&sys).is_empty());
        assert!(comm_instants(&sys).is_empty());
    }

    #[test]
    fn communication_memories_and_bytes() {
        let (sys, p, c, l) = two_core_system();
        let w = Communication::write(p, l);
        let r = Communication::read(l, c);
        assert_eq!(w.source_memory(&sys), sys.local_memory_of(p));
        assert_eq!(w.destination_memory(&sys), MemoryId::Global);
        assert_eq!(r.source_memory(&sys), MemoryId::Global);
        assert_eq!(r.destination_memory(&sys), sys.local_memory_of(c));
        assert_eq!(w.bytes(&sys), 64);
        assert_eq!(w.to_string(), format!("W({p}, {l})"));
        assert_eq!(r.to_string(), format!("R({l}, {c})"));
    }
}
