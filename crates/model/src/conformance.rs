//! Independent conformance checking of a (layout, schedule) pair against the
//! LET-DMA protocol requirements.
//!
//! The checker re-derives everything from first principles — Properties 1–3,
//! the contiguity requirement of DMA transfers at *every* communication
//! instant, completeness of the communication partition, layout consistency
//! and data-acquisition deadlines — without trusting the optimizer that
//! produced the solution. It is used both as a test oracle and as the final
//! validation stage of [`letdma-opt`](../letdma_opt/index.html).

use std::collections::BTreeSet;

use crate::ids::{LabelId, MemoryId, TaskId};
use crate::let_semantics::{comm_instants, comms_at_start, CommKind, Communication};
use crate::system::System;
use crate::time::TimeNs;
use crate::transfer::{global_slot, local_slot, MemoryLayout, TransferSchedule};

/// One violation of the protocol requirements found by [`verify`].
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum Violation {
    /// A communication of `𝓒(s_0)` is not scheduled in any transfer.
    MissingCommunication(Communication),
    /// A communication appears in more than one transfer (Constraint 1).
    DuplicateCommunication(Communication),
    /// A scheduled communication is not part of `𝓒(s_0)`.
    ForeignCommunication(Communication),
    /// A memory's layout is missing a required slot or contains an alien or
    /// duplicated slot.
    MalformedLayout {
        /// The memory whose layout is malformed.
        memory: MemoryId,
        /// Human-readable description of the defect.
        detail: String,
    },
    /// The slots of a transfer are not contiguous (or not equally ordered)
    /// in one of its memories at instant `t` (Constraint 6 / Theorem 1).
    NotContiguous {
        /// Communication instant at which the restricted transfer breaks.
        t: TimeNs,
        /// Index of the offending s₀ transfer group.
        group: usize,
        /// The memory in which contiguity fails.
        memory: MemoryId,
    },
    /// A task's write is scheduled at or after one of its reads
    /// (Property 1 / Constraint 7).
    WriteAfterOwnRead {
        /// The task whose communications are mis-ordered.
        task: TaskId,
        /// Group index of the offending write.
        write_group: usize,
        /// Group index of the offending read.
        read_group: usize,
    },
    /// A label's write is scheduled at or after a read of the same label
    /// (Property 2 / Constraint 8).
    WriteAfterLabelRead {
        /// The label whose write/read are mis-ordered.
        label: LabelId,
        /// Group index of the offending write.
        write_group: usize,
        /// Group index of the offending read.
        read_group: usize,
    },
    /// The transfers issued at `t1` do not finish before the next
    /// communication instant `t2` (Property 3 / Constraint 10).
    OverrunsNextInstant {
        /// The instant whose transfers overrun.
        t1: TimeNs,
        /// The next communication instant (or the horizon).
        t2: TimeNs,
        /// Total duration of the transfers issued at `t1`.
        duration: TimeNs,
    },
    /// A task's worst-case data-acquisition latency exceeds its deadline
    /// `γ_i` (Constraint 9).
    AcquisitionDeadlineMiss {
        /// The task missing its deadline.
        task: TaskId,
        /// The worst-case latency over all communication instants.
        latency: TimeNs,
        /// The configured acquisition deadline `γ_i`.
        deadline: TimeNs,
    },
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::MissingCommunication(c) => write!(f, "communication {c} is not scheduled"),
            Self::DuplicateCommunication(c) => {
                write!(f, "communication {c} is scheduled more than once")
            }
            Self::ForeignCommunication(c) => {
                write!(f, "communication {c} is scheduled but not required at s0")
            }
            Self::MalformedLayout { memory, detail } => {
                write!(f, "layout of {memory} is malformed: {detail}")
            }
            Self::NotContiguous { t, group, memory } => write!(
                f,
                "transfer {group} is not contiguous in {memory} at t={t}"
            ),
            Self::WriteAfterOwnRead {
                task,
                write_group,
                read_group,
            } => write!(
                f,
                "property 1 violated for {task}: write in group {write_group} not before read in group {read_group}"
            ),
            Self::WriteAfterLabelRead {
                label,
                write_group,
                read_group,
            } => write!(
                f,
                "property 2 violated for {label}: write in group {write_group} not before read in group {read_group}"
            ),
            Self::OverrunsNextInstant { t1, t2, duration } => write!(
                f,
                "property 3 violated: communications at {t1} take {duration}, past next instant {t2}"
            ),
            Self::AcquisitionDeadlineMiss {
                task,
                latency,
                deadline,
            } => write!(
                f,
                "task {task} misses its acquisition deadline: λ={latency} > γ={deadline}"
            ),
        }
    }
}

/// Options controlling [`verify`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VerifyOptions {
    /// Whether labels that never cross cores must occupy private slots in
    /// the layout (mirrors the formulation option of `letdma-opt`).
    pub include_private_labels: bool,
    /// Check data-acquisition deadlines `γ_i` (Constraint 9).
    pub check_acquisition_deadlines: bool,
    /// Check Property 3 (transfers finish before the next instant).
    pub check_property3: bool,
}

impl Default for VerifyOptions {
    fn default() -> Self {
        Self {
            include_private_labels: false,
            check_acquisition_deadlines: true,
            check_property3: true,
        }
    }
}

/// Verifies a `(layout, schedule)` pair against every protocol requirement.
///
/// Returns all violations found (empty means the solution is valid). The
/// checks are independent of the optimizer: completeness of the partition
/// (Constraints 1–2), layout well-formedness (Constraints 4–5), per-instant
/// contiguity (Constraint 6, checked at every `t ∈ 𝓣*` per Theorem 1),
/// Properties 1–3 (Constraints 7, 8, 10) and the acquisition deadlines
/// (Constraint 9).
///
/// # Examples
///
/// ```
/// use letdma_model::conformance::{verify, VerifyOptions};
/// use letdma_model::{
///     Communication, DmaTransfer, MemoryLayout, MemoryId, SystemBuilder, TransferSchedule,
///     transfer::{global_slot, local_slot},
/// };
///
/// let mut b = SystemBuilder::new(2);
/// let p = b.task("p").period_ms(5).core_index(0).add()?;
/// let c = b.task("c").period_ms(5).core_index(1).add()?;
/// let l = b.label("l").size(16).writer(p).reader(c).add()?;
/// let sys = b.build()?;
///
/// let w = Communication::write(p, l);
/// let r = Communication::read(l, c);
/// let schedule = TransferSchedule::new(vec![
///     DmaTransfer::new(&sys, vec![w]),
///     DmaTransfer::new(&sys, vec![r]),
/// ]);
/// let mut layout = MemoryLayout::new();
/// layout.set_order(sys.local_memory_of(p), vec![local_slot(w)]);
/// layout.set_order(sys.local_memory_of(c), vec![local_slot(r)]);
/// layout.set_order(MemoryId::Global, vec![global_slot(w)]);
///
/// let violations = verify(&sys, &layout, &schedule, VerifyOptions::default());
/// assert!(violations.is_empty());
/// # Ok::<(), letdma_model::ModelError>(())
/// ```
#[must_use]
pub fn verify(
    system: &System,
    layout: &MemoryLayout,
    schedule: &TransferSchedule,
    options: VerifyOptions,
) -> Vec<Violation> {
    let mut violations = Vec::new();
    check_partition(system, schedule, &mut violations);
    check_layout(
        system,
        layout,
        options.include_private_labels,
        &mut violations,
    );
    check_contiguity(system, layout, schedule, &mut violations);
    check_let_properties(system, schedule, &mut violations);
    if options.check_property3 {
        check_property3(system, schedule, &mut violations);
    }
    if options.check_acquisition_deadlines {
        check_deadlines(system, schedule, &mut violations);
    }
    violations
}

/// Constraints 1–2: every communication of `𝓒(s_0)` in exactly one transfer.
fn check_partition(system: &System, schedule: &TransferSchedule, out: &mut Vec<Violation>) {
    let required: BTreeSet<_> = comms_at_start(system).into_iter().collect();
    let mut seen = BTreeSet::new();
    for tr in schedule.transfers() {
        for &c in tr.comms() {
            if !required.contains(&c) {
                out.push(Violation::ForeignCommunication(c));
            } else if !seen.insert(c) {
                out.push(Violation::DuplicateCommunication(c));
            }
        }
    }
    for &c in required.difference(&seen) {
        out.push(Violation::MissingCommunication(c));
    }
}

/// Constraints 4–5: each memory's layout is a permutation of its required
/// slots.
fn check_layout(
    system: &System,
    layout: &MemoryLayout,
    include_private: bool,
    out: &mut Vec<Violation>,
) {
    let required = MemoryLayout::required_slots(system, include_private);
    for (&memory, slots) in &required {
        let placed = layout.slots(memory);
        let placed_set: BTreeSet<_> = placed.iter().copied().collect();
        if placed.len() != placed_set.len() {
            out.push(Violation::MalformedLayout {
                memory,
                detail: "duplicated slot".into(),
            });
        }
        for &s in slots {
            if !placed_set.contains(&s) {
                out.push(Violation::MalformedLayout {
                    memory,
                    detail: format!("missing slot {s}"),
                });
            }
        }
        for &s in &placed_set {
            if !slots.contains(&s) {
                out.push(Violation::MalformedLayout {
                    memory,
                    detail: format!("unexpected slot {s}"),
                });
            }
        }
    }
    for memory in layout.memories() {
        if !required.contains_key(&memory) && !layout.slots(memory).is_empty() {
            out.push(Violation::MalformedLayout {
                memory,
                detail: "memory should have no slots".into(),
            });
        }
    }
}

/// Constraint 6 / Theorem 1: at every instant, each issued transfer's slots
/// are consecutive *and equally ordered* in both source and destination.
fn check_contiguity(
    system: &System,
    layout: &MemoryLayout,
    schedule: &TransferSchedule,
    out: &mut Vec<Violation>,
) {
    let mut instants = comm_instants(system);
    if instants.is_empty() {
        return;
    }
    // s0 is always in the list; dedup just in case.
    instants.dedup();
    for &t in &instants {
        for (group, tr) in schedule.transfers_at(system, t) {
            let local_mem = tr.local_memory();
            for (memory, slots) in [
                (
                    local_mem,
                    tr.comms()
                        .iter()
                        .map(|&c| local_slot(c))
                        .collect::<Vec<_>>(),
                ),
                (
                    MemoryId::Global,
                    tr.comms()
                        .iter()
                        .map(|&c| global_slot(c))
                        .collect::<Vec<_>>(),
                ),
            ] {
                if !consecutive_in(layout, memory, &slots) {
                    out.push(Violation::NotContiguous { t, group, memory });
                }
            }
        }
    }
}

/// `true` when `slots` occupy consecutive, increasing positions in `memory`.
fn consecutive_in(
    layout: &MemoryLayout,
    memory: MemoryId,
    slots: &[crate::transfer::Slot],
) -> bool {
    let mut prev: Option<usize> = None;
    for &s in slots {
        let Some(pos) = layout.position(memory, s) else {
            return false;
        };
        if let Some(p) = prev {
            if pos != p + 1 {
                return false;
            }
        }
        prev = Some(pos);
    }
    true
}

/// Properties 1 and 2 (Constraints 7–8) on the s₀ ordering.
fn check_let_properties(system: &System, schedule: &TransferSchedule, out: &mut Vec<Violation>) {
    let comms = comms_at_start(system);
    // Property 1: all writes of τ before all reads of τ.
    for task in system.tasks() {
        let writes: Vec<_> = comms
            .iter()
            .filter(|c| c.kind == CommKind::Write && c.task == task.id())
            .filter_map(|&c| schedule.group_of(c))
            .collect();
        let reads: Vec<_> = comms
            .iter()
            .filter(|c| c.kind == CommKind::Read && c.task == task.id())
            .filter_map(|&c| schedule.group_of(c))
            .collect();
        for &w in &writes {
            for &r in &reads {
                if w >= r {
                    out.push(Violation::WriteAfterOwnRead {
                        task: task.id(),
                        write_group: w,
                        read_group: r,
                    });
                }
            }
        }
    }
    // Property 2: the write of ℓ before every read of ℓ.
    for label in system.inter_core_shared_labels() {
        let write = Communication::write(label.writer(), label.id());
        let Some(w) = schedule.group_of(write) else {
            continue; // already reported as missing
        };
        for consumer in system.inter_core_readers(label.id()) {
            let read = Communication::read(label.id(), consumer);
            if let Some(r) = schedule.group_of(read) {
                if w >= r {
                    out.push(Violation::WriteAfterLabelRead {
                        label: label.id(),
                        write_group: w,
                        read_group: r,
                    });
                }
            }
        }
    }
}

/// Property 3 (Constraint 10): transfers issued at `t1` complete before the
/// next communication instant (or before the horizon wraps).
fn check_property3(system: &System, schedule: &TransferSchedule, out: &mut Vec<Violation>) {
    let instants = comm_instants(system);
    if instants.is_empty() {
        return;
    }
    let horizon = system.comm_horizon();
    for (i, &t1) in instants.iter().enumerate() {
        let t2 = instants.get(i + 1).copied().unwrap_or(horizon);
        let duration = schedule.duration_at(system, t1);
        if t1 + duration > t2 {
            out.push(Violation::OverrunsNextInstant { t1, t2, duration });
        }
    }
}

/// Constraint 9: worst-case latency within every task's `γ_i`.
fn check_deadlines(system: &System, schedule: &TransferSchedule, out: &mut Vec<Violation>) {
    let latencies = schedule.worst_case_latencies(system);
    for task in system.tasks() {
        if let Some(gamma) = task.acquisition_deadline() {
            let latency = latencies[&task.id()];
            if latency > gamma {
                out.push(Violation::AcquisitionDeadlineMiss {
                    task: task.id(),
                    latency,
                    deadline: gamma,
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transfer::DmaTransfer;
    use crate::{CopyCost, CostModel, SystemBuilder};

    /// Two producer/consumer pairs across two cores plus a correct layout
    /// and schedule.
    struct Fixture {
        sys: System,
        w1: Communication,
        w2: Communication,
        r1: Communication,
        r2: Communication,
    }

    fn fixture() -> Fixture {
        let mut b = SystemBuilder::new(2);
        b.set_costs(CostModel::new(
            TimeNs::from_us(1),
            TimeNs::ZERO,
            CopyCost::per_byte(1, 1).unwrap(),
        ));
        let p1 = b.task("p1").period_ms(5).core_index(0).add().unwrap();
        let c1 = b.task("c1").period_ms(5).core_index(1).add().unwrap();
        let p2 = b.task("p2").period_ms(10).core_index(0).add().unwrap();
        let c2 = b.task("c2").period_ms(10).core_index(1).add().unwrap();
        let l1 = b.label("l1").size(100).writer(p1).reader(c1).add().unwrap();
        let l2 = b.label("l2").size(200).writer(p2).reader(c2).add().unwrap();
        let sys = b.build().unwrap();
        Fixture {
            w1: Communication::write(p1, l1),
            w2: Communication::write(p2, l2),
            r1: Communication::read(l1, c1),
            r2: Communication::read(l2, c2),
            sys,
        }
    }

    fn good_layout(f: &Fixture) -> MemoryLayout {
        let mut layout = MemoryLayout::new();
        layout.set_order(
            f.w1.local_memory(&f.sys),
            vec![local_slot(f.w1), local_slot(f.w2)],
        );
        layout.set_order(
            f.r1.local_memory(&f.sys),
            vec![local_slot(f.r1), local_slot(f.r2)],
        );
        layout.set_order(MemoryId::Global, vec![global_slot(f.w1), global_slot(f.w2)]);
        layout
    }

    fn good_schedule(f: &Fixture) -> TransferSchedule {
        TransferSchedule::new(vec![
            DmaTransfer::new(&f.sys, vec![f.w1, f.w2]),
            DmaTransfer::new(&f.sys, vec![f.r1, f.r2]),
        ])
    }

    #[test]
    fn valid_solution_passes() {
        let f = fixture();
        let v = verify(
            &f.sys,
            &good_layout(&f),
            &good_schedule(&f),
            VerifyOptions::default(),
        );
        assert!(v.is_empty(), "unexpected violations: {v:?}");
    }

    #[test]
    fn missing_comm_detected() {
        let f = fixture();
        let schedule = TransferSchedule::new(vec![
            DmaTransfer::new(&f.sys, vec![f.w1, f.w2]),
            DmaTransfer::new(&f.sys, vec![f.r1]),
        ]);
        let v = verify(
            &f.sys,
            &good_layout(&f),
            &schedule,
            VerifyOptions::default(),
        );
        assert!(v.contains(&Violation::MissingCommunication(f.r2)));
    }

    #[test]
    fn duplicate_comm_detected() {
        let f = fixture();
        let schedule = TransferSchedule::new(vec![
            DmaTransfer::new(&f.sys, vec![f.w1, f.w2]),
            DmaTransfer::new(&f.sys, vec![f.r1, f.r2]),
            DmaTransfer::new(&f.sys, vec![f.r1]),
        ]);
        let v = verify(
            &f.sys,
            &good_layout(&f),
            &schedule,
            VerifyOptions::default(),
        );
        assert!(v.contains(&Violation::DuplicateCommunication(f.r1)));
    }

    #[test]
    fn property1_violation_detected() {
        let f = fixture();
        // p1's write after c1's read is fine for property 1 (different
        // tasks), but swapping a task's own read before its write is not.
        // Here: put the read of c1 first and ALSO make c1 write something.
        // Simpler: violate property 2 ordering which also flags.
        let schedule = TransferSchedule::new(vec![
            DmaTransfer::new(&f.sys, vec![f.r1, f.r2]),
            DmaTransfer::new(&f.sys, vec![f.w1, f.w2]),
        ]);
        let v = verify(
            &f.sys,
            &good_layout(&f),
            &schedule,
            VerifyOptions::default(),
        );
        assert!(v
            .iter()
            .any(|x| matches!(x, Violation::WriteAfterLabelRead { .. })));
    }

    #[test]
    fn property1_same_task_detected() {
        // One task both writes one label and reads another.
        let mut b = SystemBuilder::new(2);
        let a = b.task("a").period_ms(5).core_index(0).add().unwrap();
        let z = b.task("z").period_ms(5).core_index(1).add().unwrap();
        let la = b.label("la").size(10).writer(a).reader(z).add().unwrap();
        let lz = b.label("lz").size(10).writer(z).reader(a).add().unwrap();
        let sys = b.build().unwrap();
        let wa = Communication::write(a, la);
        let ra = Communication::read(lz, a);
        let wz = Communication::write(z, lz);
        let rz = Communication::read(la, z);
        // Order: a's read before a's write → property 1 violation for a
        // (and property 2 for la is satisfied or not separately).
        let schedule = TransferSchedule::new(vec![
            DmaTransfer::new(&sys, vec![wz]),
            DmaTransfer::new(&sys, vec![ra]),
            DmaTransfer::new(&sys, vec![wa]),
            DmaTransfer::new(&sys, vec![rz]),
        ]);
        let mut layout = MemoryLayout::new();
        layout.set_order(sys.local_memory_of(a), vec![local_slot(wa), local_slot(ra)]);
        layout.set_order(sys.local_memory_of(z), vec![local_slot(wz), local_slot(rz)]);
        layout.set_order(MemoryId::Global, vec![global_slot(wa), global_slot(wz)]);
        let v = verify(&sys, &layout, &schedule, VerifyOptions::default());
        assert!(v
            .iter()
            .any(|x| matches!(x, Violation::WriteAfterOwnRead { task, .. } if *task == a)));
    }

    #[test]
    fn contiguity_violation_detected() {
        let f = fixture();
        // Swap the order of global slots so the grouped write transfer
        // [w1, w2] is contiguous locally but reversed globally.
        let mut layout = good_layout(&f);
        layout.set_order(MemoryId::Global, vec![global_slot(f.w2), global_slot(f.w1)]);
        let v = verify(
            &f.sys,
            &layout,
            &good_schedule(&f),
            VerifyOptions::default(),
        );
        assert!(v.iter().any(|x| matches!(
            x,
            Violation::NotContiguous {
                memory: MemoryId::Global,
                ..
            }
        )));
    }

    #[test]
    fn contiguity_checked_at_later_instants() {
        // Three 5ms/10ms comms from the same core: group [w_fast1, w_slow,
        // w_fast2]. At t = 5ms the slow write drops out and the remaining
        // slots are no longer contiguous → violation at t=5ms only.
        let mut b = SystemBuilder::new(2);
        b.set_costs(CostModel::new(
            TimeNs::from_us(1),
            TimeNs::ZERO,
            CopyCost::ZERO,
        ));
        let pf1 = b.task("pf1").period_ms(5).core_index(0).add().unwrap();
        let ps = b.task("ps").period_ms(10).core_index(0).add().unwrap();
        let pf2 = b.task("pf2").period_ms(5).core_index(0).add().unwrap();
        let cf1 = b.task("cf1").period_ms(5).core_index(1).add().unwrap();
        let cs = b.task("cs").period_ms(10).core_index(1).add().unwrap();
        let cf2 = b.task("cf2").period_ms(5).core_index(1).add().unwrap();
        let lf1 = b
            .label("lf1")
            .size(8)
            .writer(pf1)
            .reader(cf1)
            .add()
            .unwrap();
        let ls = b.label("ls").size(8).writer(ps).reader(cs).add().unwrap();
        let lf2 = b
            .label("lf2")
            .size(8)
            .writer(pf2)
            .reader(cf2)
            .add()
            .unwrap();
        let sys = b.build().unwrap();
        let w_f1 = Communication::write(pf1, lf1);
        let w_s = Communication::write(ps, ls);
        let w_f2 = Communication::write(pf2, lf2);
        let r_f1 = Communication::read(lf1, cf1);
        let r_s = Communication::read(ls, cs);
        let r_f2 = Communication::read(lf2, cf2);
        let schedule = TransferSchedule::new(vec![
            DmaTransfer::new(&sys, vec![w_f1, w_s, w_f2]),
            DmaTransfer::new(&sys, vec![r_f1, r_s, r_f2]),
        ]);
        let mut layout = MemoryLayout::new();
        layout.set_order(
            sys.local_memory_of(pf1),
            vec![local_slot(w_f1), local_slot(w_s), local_slot(w_f2)],
        );
        layout.set_order(
            sys.local_memory_of(cf1),
            vec![local_slot(r_f1), local_slot(r_s), local_slot(r_f2)],
        );
        layout.set_order(
            MemoryId::Global,
            vec![global_slot(w_f1), global_slot(w_s), global_slot(w_f2)],
        );
        let v = verify(&sys, &layout, &schedule, VerifyOptions::default());
        let t5 = TimeNs::from_ms(5);
        assert!(
            v.iter()
                .any(|x| matches!(x, Violation::NotContiguous { t, .. } if *t == t5)),
            "expected a contiguity violation at t=5ms, got {v:?}"
        );
        assert!(
            !v.iter()
                .any(|x| matches!(x, Violation::NotContiguous { t, .. } if *t == TimeNs::ZERO)),
            "no violation expected at s0"
        );
    }

    #[test]
    fn property3_violation_detected() {
        // Huge label so transfers at s0 overrun the 5 ms gap to the next
        // instant (1 ns/B ⇒ 100 MB ≈ 100 ms ≫ 5 ms).
        let mut b = SystemBuilder::new(2);
        b.set_costs(CostModel::new(
            TimeNs::from_us(1),
            TimeNs::ZERO,
            CopyCost::per_byte(1, 1).unwrap(),
        ));
        let p = b.task("p").period_ms(5).core_index(0).add().unwrap();
        let c = b.task("c").period_ms(5).core_index(1).add().unwrap();
        let l = b
            .label("big")
            .size(100_000_000)
            .writer(p)
            .reader(c)
            .add()
            .unwrap();
        let sys = b.build().unwrap();
        let w = Communication::write(p, l);
        let r = Communication::read(l, c);
        let schedule = TransferSchedule::new(vec![
            DmaTransfer::new(&sys, vec![w]),
            DmaTransfer::new(&sys, vec![r]),
        ]);
        let mut layout = MemoryLayout::new();
        layout.set_order(sys.local_memory_of(p), vec![local_slot(w)]);
        layout.set_order(sys.local_memory_of(c), vec![local_slot(r)]);
        layout.set_order(MemoryId::Global, vec![global_slot(w)]);
        let v = verify(&sys, &layout, &schedule, VerifyOptions::default());
        assert!(v
            .iter()
            .any(|x| matches!(x, Violation::OverrunsNextInstant { .. })));
    }

    #[test]
    fn deadline_miss_detected_and_respected() {
        let f = fixture();
        let mut sys = f.sys.clone();
        let c2 = sys.task_by_name("c2").unwrap().id();
        // λ for c2 at s0: both groups run, sizes 300 + 300 bytes at 1 ns/B
        // plus 2 µs overhead = 2600 ns.
        sys.set_acquisition_deadline(c2, Some(TimeNs::from_ns(2_599)));
        let f2 = Fixture { sys, ..f };
        let v = verify(
            &f2.sys,
            &good_layout(&f2),
            &good_schedule(&f2),
            VerifyOptions::default(),
        );
        assert!(v
            .iter()
            .any(|x| matches!(x, Violation::AcquisitionDeadlineMiss { task, .. } if *task == c2)));
        let mut sys_ok = f2.sys.clone();
        sys_ok.set_acquisition_deadline(c2, Some(TimeNs::from_ns(2_600)));
        let f3 = Fixture { sys: sys_ok, ..f2 };
        let v = verify(
            &f3.sys,
            &good_layout(&f3),
            &good_schedule(&f3),
            VerifyOptions::default(),
        );
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn malformed_layout_detected() {
        let f = fixture();
        let mut layout = good_layout(&f);
        // Remove a required global slot.
        layout.set_order(MemoryId::Global, vec![global_slot(f.w1)]);
        let v = verify(
            &f.sys,
            &layout,
            &good_schedule(&f),
            VerifyOptions::default(),
        );
        assert!(v
            .iter()
            .any(|x| matches!(x, Violation::MalformedLayout { .. })));
    }

    #[test]
    fn violations_display() {
        let f = fixture();
        let v = Violation::MissingCommunication(f.w1);
        assert!(v.to_string().contains("not scheduled"));
    }
}
