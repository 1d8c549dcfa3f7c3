//! DMA transfers, transfer schedules and memory layouts (§V-A, §V-B).

use std::collections::{BTreeMap, BTreeSet};

use crate::ids::{LabelId, MemoryId, TaskId};
use crate::let_semantics::{comm_instants, comms_at, CommKind, Communication};
use crate::system::System;
use crate::time::TimeNs;

/// One allocatable memory slot.
///
/// The allocation problem places *slots*, not labels: an inter-core shared
/// label occupies one slot in `M_G` plus one *copy* slot per communicating
/// task in that task's local memory; a label that never crosses cores
/// occupies a single private slot in its writer's local memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Slot {
    /// The shared label `ℓ_l` itself, resident in global memory.
    Global(LabelId),
    /// The local copy `ℓ_{l,τ}` of a shared label for one task, resident in
    /// `M(τ)`.
    Copy {
        /// The shared label being copied.
        label: LabelId,
        /// The task owning the copy (producer or consumer).
        task: TaskId,
    },
    /// A label that is not inter-core shared, resident in its writer's local
    /// memory. Private slots take part in allocation (they occupy positions)
    /// but never move through the DMA.
    Private(LabelId),
}

impl Slot {
    /// The label whose bytes this slot holds.
    #[must_use]
    pub fn label(self) -> LabelId {
        match self {
            Self::Global(l) | Self::Private(l) => l,
            Self::Copy { label, .. } => label,
        }
    }

    /// The size of this slot in bytes (the label's `σ_l`).
    #[must_use]
    pub fn size(self, system: &System) -> u64 {
        system.label(self.label()).size()
    }
}

impl std::fmt::Display for Slot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Global(l) => write!(f, "{l}"),
            Self::Copy { label, task } => write!(f, "{label}@{task}"),
            Self::Private(l) => write!(f, "{l}(priv)"),
        }
    }
}

/// The slot a communication touches in its *local* memory.
#[must_use]
pub fn local_slot(comm: Communication) -> Slot {
    Slot::Copy {
        label: comm.label,
        task: comm.task,
    }
}

/// The slot a communication touches in *global* memory.
#[must_use]
pub fn global_slot(comm: Communication) -> Slot {
    Slot::Global(comm.label)
}

/// A total order of slots for every memory: the output of the allocation
/// problem (the `PL`/`AD` variables of the MILP, §VI-A).
///
/// Slot addresses follow from the order by prefix sums of slot sizes, so the
/// layout is *packed*: slot `i+1` starts exactly where slot `i` ends.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MemoryLayout {
    orders: BTreeMap<MemoryId, Vec<Slot>>,
}

impl MemoryLayout {
    /// Creates an empty layout.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the complete slot order of one memory, replacing any previous
    /// order.
    pub fn set_order(&mut self, memory: MemoryId, slots: Vec<Slot>) {
        self.orders.insert(memory, slots);
    }

    /// The ordered slots of `memory` (empty if the memory has no slots).
    #[must_use]
    pub fn slots(&self, memory: MemoryId) -> &[Slot] {
        self.orders.get(&memory).map_or(&[], Vec::as_slice)
    }

    /// The position (0-based rank) of `slot` in `memory`, the MILP's
    /// `PL_{k,a}`.
    #[must_use]
    pub fn position(&self, memory: MemoryId, slot: Slot) -> Option<usize> {
        self.slots(memory).iter().position(|&s| s == slot)
    }

    /// The byte address of `slot` in `memory` (prefix sum of preceding slot
    /// sizes), the paper's `a_{l,k}`.
    #[must_use]
    pub fn address(&self, system: &System, memory: MemoryId, slot: Slot) -> Option<u64> {
        let pos = self.position(memory, slot)?;
        Some(
            self.slots(memory)[..pos]
                .iter()
                .map(|s| s.size(system))
                .sum(),
        )
    }

    /// Memories that have at least one slot, in deterministic order.
    pub fn memories(&self) -> impl Iterator<Item = MemoryId> + '_ {
        self.orders.keys().copied()
    }

    /// Renders the layout as a human-readable address map, one line per
    /// slot: `0x000000..0x000040  ℓ3@τ1` — handy in examples and debug
    /// sessions.
    ///
    /// # Examples
    ///
    /// ```
    /// use letdma_model::{Communication, MemoryId, MemoryLayout, SystemBuilder};
    /// use letdma_model::transfer::{global_slot, local_slot};
    ///
    /// let mut b = SystemBuilder::new(2);
    /// let p = b.task("p").period_ms(5).core_index(0).add()?;
    /// let c = b.task("c").period_ms(5).core_index(1).add()?;
    /// let l = b.label("l").size(64).writer(p).reader(c).add()?;
    /// let sys = b.build()?;
    /// let mut layout = MemoryLayout::new();
    /// layout.set_order(MemoryId::Global, vec![global_slot(Communication::write(p, l))]);
    /// let text = layout.render(&sys);
    /// assert!(text.contains("MG"));
    /// assert!(text.contains("0x000000..0x000040"));
    /// # Ok::<(), letdma_model::ModelError>(())
    /// ```
    #[must_use]
    pub fn render(&self, system: &System) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for memory in self.memories() {
            let slots = self.slots(memory);
            if slots.is_empty() {
                continue;
            }
            let _ = writeln!(out, "{memory}:");
            let mut addr = 0u64;
            for slot in slots {
                let size = slot.size(system);
                let _ = writeln!(out, "  0x{addr:06x}..0x{:06x}  {slot}", addr + size);
                addr += size;
            }
        }
        out
    }

    /// The slots each memory must contain for `system`.
    ///
    /// With `include_private`, labels that never cross cores are given
    /// private slots in their writer's local memory.
    #[must_use]
    pub fn required_slots(
        system: &System,
        include_private: bool,
    ) -> BTreeMap<MemoryId, BTreeSet<Slot>> {
        let mut req: BTreeMap<MemoryId, BTreeSet<Slot>> = BTreeMap::new();
        for label in system.labels() {
            if system.is_inter_core_shared(label.id()) {
                req.entry(MemoryId::Global)
                    .or_default()
                    .insert(Slot::Global(label.id()));
                let writer = label.writer();
                req.entry(system.local_memory_of(writer))
                    .or_default()
                    .insert(Slot::Copy {
                        label: label.id(),
                        task: writer,
                    });
                for reader in system.inter_core_readers(label.id()) {
                    req.entry(system.local_memory_of(reader))
                        .or_default()
                        .insert(Slot::Copy {
                            label: label.id(),
                            task: reader,
                        });
                }
            } else if include_private {
                req.entry(system.local_memory_of(label.writer()))
                    .or_default()
                    .insert(Slot::Private(label.id()));
            }
        }
        req
    }
}

/// One DMA transfer `d_g`: an ordered group of same-direction communications
/// whose slots are contiguous (in the same order) in both the source and the
/// destination memory.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DmaTransfer {
    kind: CommKind,
    local: MemoryId,
    comms: Vec<Communication>,
}

impl DmaTransfer {
    /// Creates a transfer from an ordered, nonempty list of communications.
    ///
    /// # Panics
    ///
    /// Panics if `comms` is empty, mixes kinds, or mixes local memories.
    #[must_use]
    pub fn new(system: &System, comms: Vec<Communication>) -> Self {
        assert!(!comms.is_empty(), "a DMA transfer moves at least one label");
        let kind = comms[0].kind;
        let local = comms[0].local_memory(system);
        for c in &comms {
            assert_eq!(c.kind, kind, "mixed directions in one DMA transfer");
            assert_eq!(
                c.local_memory(system),
                local,
                "mixed local memories in one DMA transfer"
            );
        }
        Self { kind, local, comms }
    }

    /// Write (local→global) or read (global→local).
    #[must_use]
    pub fn kind(&self) -> CommKind {
        self.kind
    }

    /// The local memory on the non-global side.
    #[must_use]
    pub fn local_memory(&self) -> MemoryId {
        self.local
    }

    /// Source memory of the copy.
    #[must_use]
    pub fn source_memory(&self) -> MemoryId {
        match self.kind {
            CommKind::Write => self.local,
            CommKind::Read => MemoryId::Global,
        }
    }

    /// Destination memory of the copy.
    #[must_use]
    pub fn destination_memory(&self) -> MemoryId {
        match self.kind {
            CommKind::Write => MemoryId::Global,
            CommKind::Read => self.local,
        }
    }

    /// The ordered communications grouped in this transfer.
    #[must_use]
    pub fn comms(&self) -> &[Communication] {
        &self.comms
    }

    /// Total bytes moved.
    #[must_use]
    pub fn bytes(&self, system: &System) -> u64 {
        self.comms.iter().map(|c| c.bytes(system)).sum()
    }

    /// Worst-case duration including programming and ISR overheads.
    #[must_use]
    pub fn duration(&self, system: &System) -> TimeNs {
        system.costs().transfer_duration(self.bytes(system))
    }

    /// Restricts this transfer to the communications required at instant `t`
    /// (the skip rules may drop some); `None` if nothing remains.
    ///
    /// The relative order of the surviving communications is preserved, and
    /// — when the schedule satisfies the contiguity constraint (Constraint 6
    /// / Theorem 1) — their slots remain contiguous.
    #[must_use]
    pub fn restricted_to(&self, needed: &[Communication]) -> Option<Self> {
        let comms: Vec<_> = self
            .comms
            .iter()
            .copied()
            .filter(|c| needed.binary_search(c).is_ok())
            .collect();
        if comms.is_empty() {
            None
        } else {
            Some(Self {
                kind: self.kind,
                local: self.local,
                comms,
            })
        }
    }
}

/// An ordered sequence of DMA transfers: the schedule of all LET
/// communications at the synchronous start `s_0` (index `g` = execution
/// order). Schedules for later instants `t ∈ 𝓣*` are derived by restriction
/// ([`TransferSchedule::transfers_at`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TransferSchedule {
    transfers: Vec<DmaTransfer>,
}

impl TransferSchedule {
    /// Creates a schedule from transfers in execution order.
    #[must_use]
    pub fn new(transfers: Vec<DmaTransfer>) -> Self {
        Self { transfers }
    }

    /// The transfers in execution order (`g = 0, 1, …`).
    #[must_use]
    pub fn transfers(&self) -> &[DmaTransfer] {
        &self.transfers
    }

    /// Number of DMA transfers at `s_0` (the paper's "# DMA Transfers").
    #[must_use]
    pub fn len(&self) -> usize {
        self.transfers.len()
    }

    /// `true` when the schedule has no transfers.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.transfers.is_empty()
    }

    /// The group index `g` containing `comm` (the MILP's `CGI_z`).
    #[must_use]
    pub fn group_of(&self, comm: Communication) -> Option<usize> {
        self.transfers
            .iter()
            .position(|t| t.comms().contains(&comm))
    }

    /// The transfers actually issued at instant `t`: each s₀ group is
    /// restricted to the communications `𝓒(t)` requires; empty groups are
    /// skipped. Returns `(g, transfer)` pairs where `g` is the s₀ group
    /// index.
    #[must_use]
    pub fn transfers_at(&self, system: &System, t: TimeNs) -> Vec<(usize, DmaTransfer)> {
        let needed = comms_at(system, t);
        self.transfers
            .iter()
            .enumerate()
            .filter_map(|(g, tr)| tr.restricted_to(&needed).map(|r| (g, r)))
            .collect()
    }

    /// Total duration of all transfers issued at instant `t`.
    #[must_use]
    pub fn duration_at(&self, system: &System, t: TimeNs) -> TimeNs {
        self.transfers_at(system, t)
            .iter()
            .map(|(_, tr)| tr.duration(system))
            .sum()
    }

    /// For every task that has at least one LET communication at `t`, the
    /// offset after `t` at which it becomes ready (rules R1–R3): the
    /// completion time of the last transfer carrying one of its
    /// communications. Tasks without communications at `t` are not in the
    /// map (they are ready immediately).
    #[must_use]
    pub fn ready_offsets_at(&self, system: &System, t: TimeNs) -> BTreeMap<TaskId, TimeNs> {
        let issued = self.transfers_at(system, t);
        let mut finish = TimeNs::ZERO;
        let mut ready: BTreeMap<TaskId, TimeNs> = BTreeMap::new();
        for (_, tr) in &issued {
            finish += tr.duration(system);
            for c in tr.comms() {
                // Later transfers overwrite: the *last* one determines
                // readiness.
                ready.insert(c.task, finish);
            }
        }
        ready
    }

    /// The worst-case data-acquisition latency `λ_i` of every task: the
    /// maximum ready offset over all communication instants `t ∈ 𝓣*`.
    ///
    /// Tasks that never communicate get `λ_i = 0`.
    #[must_use]
    pub fn worst_case_latencies(&self, system: &System) -> BTreeMap<TaskId, TimeNs> {
        let mut worst: BTreeMap<TaskId, TimeNs> = system
            .tasks()
            .iter()
            .map(|task| (task.id(), TimeNs::ZERO))
            .collect();
        for t in comm_instants(system) {
            for (task, offset) in self.ready_offsets_at(system, t) {
                let entry = worst.entry(task).or_insert(TimeNs::ZERO);
                if offset > *entry {
                    *entry = offset;
                }
            }
        }
        worst
    }
}

impl FromIterator<DmaTransfer> for TransferSchedule {
    fn from_iter<I: IntoIterator<Item = DmaTransfer>>(iter: I) -> Self {
        Self::new(iter.into_iter().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CopyCost, CostModel, SystemBuilder};

    /// p1(P0, 5ms) → c1(P1, 5ms) via l1; p2(P0, 10ms) → c2(P1, 10ms) via l2.
    /// Costs: λ_O = 10 µs (all programming), 1 ns per byte.
    fn sample() -> (System, [Communication; 4]) {
        let mut b = SystemBuilder::new(2);
        b.set_costs(CostModel::new(
            TimeNs::from_us(10),
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
        let w1 = Communication::write(p1, l1);
        let w2 = Communication::write(p2, l2);
        let r1 = Communication::read(l1, c1);
        let r2 = Communication::read(l2, c2);
        (sys, [w1, w2, r1, r2])
    }

    #[test]
    fn transfer_accessors() {
        let (sys, [w1, w2, ..]) = sample();
        let tr = DmaTransfer::new(&sys, vec![w1, w2]);
        assert_eq!(tr.kind(), CommKind::Write);
        assert_eq!(tr.source_memory(), sys.local_memory_of(w1.task));
        assert_eq!(tr.destination_memory(), MemoryId::Global);
        assert_eq!(tr.bytes(&sys), 300);
        // λ_O = 10 µs, 300 bytes at 1 ns/B.
        assert_eq!(tr.duration(&sys), TimeNs::from_ns(10_000 + 300));
    }

    #[test]
    #[should_panic(expected = "mixed directions")]
    fn transfer_rejects_mixed_kinds() {
        let (sys, [w1, _, r1, _]) = sample();
        let _ = DmaTransfer::new(&sys, vec![w1, r1]);
    }

    #[test]
    #[should_panic(expected = "at least one label")]
    fn transfer_rejects_empty() {
        let (sys, _) = sample();
        let _ = DmaTransfer::new(&sys, vec![]);
    }

    #[test]
    fn schedule_group_lookup_and_latency() {
        let (sys, [w1, w2, r1, r2]) = sample();
        let schedule = TransferSchedule::new(vec![
            DmaTransfer::new(&sys, vec![w1, w2]),
            DmaTransfer::new(&sys, vec![r1]),
            DmaTransfer::new(&sys, vec![r2]),
        ]);
        assert_eq!(schedule.len(), 3);
        assert_eq!(schedule.group_of(w1), Some(0));
        assert_eq!(schedule.group_of(r2), Some(2));

        // At s0 all four comms run: durations 10300, 10100, 10200.
        let ready = schedule.ready_offsets_at(&sys, TimeNs::ZERO);
        let c1 = sys.task_by_name("c1").unwrap().id();
        let c2 = sys.task_by_name("c2").unwrap().id();
        let p1 = sys.task_by_name("p1").unwrap().id();
        assert_eq!(ready[&c1], TimeNs::from_ns(10_300 + 10_100));
        assert_eq!(ready[&c2], TimeNs::from_ns(10_300 + 10_100 + 10_200));
        // Producer p1 is ready when its write (group 0) completes.
        assert_eq!(ready[&p1], TimeNs::from_ns(10_300));
    }

    #[test]
    fn restriction_skips_empty_groups() {
        let (sys, [w1, w2, r1, r2]) = sample();
        let schedule = TransferSchedule::new(vec![
            DmaTransfer::new(&sys, vec![w1, w2]),
            DmaTransfer::new(&sys, vec![r1, r2]),
        ]);
        // At t = 5 ms only the 5 ms pair (p1 → c1) communicates.
        let t = TimeNs::from_ms(5);
        let issued = schedule.transfers_at(&sys, t);
        assert_eq!(issued.len(), 2);
        assert_eq!(issued[0].1.comms(), &[w1]);
        assert_eq!(issued[1].1.comms(), &[r1]);
        // Durations shrink accordingly: 10100 + 10100.
        assert_eq!(schedule.duration_at(&sys, t), TimeNs::from_ns(20_200));
    }

    #[test]
    fn worst_case_latency_over_hyperperiod() {
        let (sys, [w1, w2, r1, r2]) = sample();
        let schedule = TransferSchedule::new(vec![
            DmaTransfer::new(&sys, vec![w1, w2]),
            DmaTransfer::new(&sys, vec![r1, r2]),
        ]);
        let lat = schedule.worst_case_latencies(&sys);
        let c1 = sys.task_by_name("c1").unwrap().id();
        // Worst case for c1 is at s0 where both labels move:
        // group0 = 10300, group1 = 10300 → 20600.
        assert_eq!(lat[&c1], TimeNs::from_ns(20_600));
    }

    #[test]
    fn layout_positions_and_addresses() {
        let (sys, [w1, w2, ..]) = sample();
        let mut layout = MemoryLayout::new();
        let m0 = w1.local_memory(&sys);
        let s1 = local_slot(w1);
        let s2 = local_slot(w2);
        layout.set_order(m0, vec![s1, s2]);
        layout.set_order(MemoryId::Global, vec![global_slot(w1), global_slot(w2)]);
        assert_eq!(layout.position(m0, s2), Some(1));
        assert_eq!(layout.address(&sys, m0, s1), Some(0));
        assert_eq!(layout.address(&sys, m0, s2), Some(100));
        assert_eq!(
            layout.address(&sys, MemoryId::Global, global_slot(w2)),
            Some(100)
        );
        assert_eq!(layout.position(m0, global_slot(w1)), None);
    }

    #[test]
    fn required_slots_cover_copies_and_global() {
        let (sys, [w1, _, r1, _]) = sample();
        let req = MemoryLayout::required_slots(&sys, false);
        let global = &req[&MemoryId::Global];
        assert_eq!(global.len(), 2);
        let m0 = &req[&w1.local_memory(&sys)];
        assert!(m0.contains(&local_slot(w1)));
        let m1 = &req[&r1.local_memory(&sys)];
        assert!(m1.contains(&local_slot(r1)));
    }

    #[test]
    fn required_slots_include_private_when_requested() {
        let mut b = SystemBuilder::new(1);
        let t = b.task("t").period_ms(1).core_index(0).add().unwrap();
        b.label("priv").size(4).writer(t).add().unwrap();
        let sys = b.build().unwrap();
        assert!(MemoryLayout::required_slots(&sys, false).is_empty());
        let req = MemoryLayout::required_slots(&sys, true);
        assert_eq!(req.len(), 1);
        let slots = req.values().next().unwrap();
        assert_eq!(slots.len(), 1);
    }

    #[test]
    fn slot_display_and_size() {
        let (sys, [w1, ..]) = sample();
        let s = local_slot(w1);
        assert_eq!(s.size(&sys), 100);
        assert!(s.to_string().contains('@'));
        assert_eq!(global_slot(w1).label(), w1.label);
    }
}
