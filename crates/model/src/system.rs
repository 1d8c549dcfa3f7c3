//! The validated system: platform + task set + labels + cost model.

use std::collections::BTreeSet;

use crate::error::ModelError;
use crate::ids::{CoreId, LabelId, MemoryId, TaskId};
use crate::label::{Label, LabelBuilder};
use crate::platform::{CostModel, Platform};
use crate::task::{Task, TaskBuilder};
use crate::time::TimeNs;

/// A complete, validated application model (§III of the paper): the platform
/// `𝓟`, the task set `Γ`, the labels, and the DMA timing parameters.
///
/// `System` is immutable except for the per-task data-acquisition deadlines
/// `γ_i`, which the sensitivity procedure of §VII updates between analysis
/// runs through [`System::set_acquisition_deadline`].
///
/// # Examples
///
/// ```
/// use letdma_model::{SystemBuilder, TimeNs};
///
/// let mut b = SystemBuilder::new(2);
/// let prod = b.task("producer").period_ms(5).core_index(0).add()?;
/// let cons = b.task("consumer").period_ms(10).core_index(1).add()?;
/// b.label("sensor").size(64).writer(prod).reader(cons).add()?;
/// let system = b.build()?;
///
/// assert_eq!(system.tasks().len(), 2);
/// assert_eq!(system.hyperperiod(), TimeNs::from_ms(10));
/// assert_eq!(system.inter_core_shared_labels().count(), 1);
/// # Ok::<(), letdma_model::ModelError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct System {
    platform: Platform,
    tasks: Vec<Task>,
    labels: Vec<Label>,
    costs: CostModel,
    /// Per-cluster DMA engines, indexed by [`Platform::cluster_of`]. Empty
    /// on single-engine platforms; when present, every entry is dominated
    /// by the system-level envelope `costs` (validated at build time).
    cluster_costs: Vec<CostModel>,
}

impl System {
    /// The hardware platform.
    #[must_use]
    pub fn platform(&self) -> &Platform {
        &self.platform
    }

    /// All tasks, indexed by [`TaskId::index`].
    #[must_use]
    pub fn tasks(&self) -> &[Task] {
        &self.tasks
    }

    /// All labels, indexed by [`LabelId::index`].
    #[must_use]
    pub fn labels(&self) -> &[Label] {
        &self.labels
    }

    /// The DMA timing parameters: the system-level **worst-case envelope**.
    ///
    /// The MILP formulation and the conformance checker always use this
    /// envelope; on multi-engine platforms every per-cluster engine is
    /// dominated by it, so guarantees proved here carry over per cluster.
    #[must_use]
    pub fn costs(&self) -> &CostModel {
        &self.costs
    }

    /// The per-cluster DMA engines (empty on single-engine platforms).
    #[must_use]
    pub fn cluster_costs(&self) -> &[CostModel] {
        &self.cluster_costs
    }

    /// The DMA engine serving `core`: its cluster's cost model when
    /// per-cluster engines were declared, the system envelope otherwise.
    /// Simulation uses this (the engine that actually moves the data);
    /// analysis keeps the envelope via [`System::costs`].
    ///
    /// # Panics
    ///
    /// Panics if `core` does not exist on this platform.
    #[must_use]
    pub fn costs_for(&self, core: CoreId) -> &CostModel {
        if self.cluster_costs.is_empty() {
            &self.costs
        } else {
            &self.cluster_costs[self.platform.cluster_of(core)]
        }
    }

    /// Looks up one task.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this system.
    #[must_use]
    pub fn task(&self, id: TaskId) -> &Task {
        &self.tasks[id.index()]
    }

    /// Looks up one label.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this system.
    #[must_use]
    pub fn label(&self, id: LabelId) -> &Label {
        &self.labels[id.index()]
    }

    /// Finds a task by name.
    #[must_use]
    pub fn task_by_name(&self, name: &str) -> Option<&Task> {
        self.tasks.iter().find(|t| t.name == name)
    }

    /// Finds a label by name.
    #[must_use]
    pub fn label_by_name(&self, name: &str) -> Option<&Label> {
        self.labels.iter().find(|l| l.name == name)
    }

    /// The subset `Γ_k` of tasks assigned to `core`.
    pub fn tasks_on(&self, core: CoreId) -> impl Iterator<Item = &Task> + '_ {
        self.tasks.iter().filter(move |t| t.core == core)
    }

    /// The local memory `M(τ_i)` accessed by `task`.
    ///
    /// # Panics
    ///
    /// Panics if `task` does not belong to this system.
    #[must_use]
    pub fn local_memory_of(&self, task: TaskId) -> MemoryId {
        MemoryId::local(self.task(task).core)
    }

    /// Sets (or clears) the data-acquisition deadline `γ_i` of `task`.
    ///
    /// # Panics
    ///
    /// Panics if `task` does not belong to this system.
    pub fn set_acquisition_deadline(&mut self, task: TaskId, gamma: Option<TimeNs>) {
        self.tasks[task.index()].gamma = gamma;
    }

    /// Returns `true` when `label` is *inter-core shared*: at least one
    /// reader runs on a different core than the writer. Only such labels
    /// take part in LET communications via the DMA.
    #[must_use]
    pub fn is_inter_core_shared(&self, label: LabelId) -> bool {
        let l = self.label(label);
        let writer_core = self.task(l.writer).core;
        l.readers.iter().any(|&r| self.task(r).core != writer_core)
    }

    /// Iterates over all inter-core shared labels.
    pub fn inter_core_shared_labels(&self) -> impl Iterator<Item = &Label> + '_ {
        self.labels
            .iter()
            .filter(|l| self.is_inter_core_shared(l.id))
    }

    /// The readers of `label` that run on a different core than its writer
    /// (the consumers that receive the data through LET communications).
    pub fn inter_core_readers(&self, label: LabelId) -> impl Iterator<Item = TaskId> + '_ {
        let l = self.label(label);
        let writer_core = self.task(l.writer).core;
        l.readers
            .iter()
            .copied()
            .filter(move |&r| self.task(r).core != writer_core)
    }

    /// The set `𝓛^S(τ_p, τ_c)` of inter-core shared labels written by `producer`
    /// and read by `consumer` (empty unless they run on different cores).
    pub fn shared_labels(
        &self,
        producer: TaskId,
        consumer: TaskId,
    ) -> impl Iterator<Item = &Label> + '_ {
        let cross = self.task(producer).core != self.task(consumer).core;
        self.labels
            .iter()
            .filter(move |l| cross && l.writer == producer && l.readers.contains(&consumer))
    }

    /// All distinct producer→consumer pairs `(τ_p, τ_c)` with
    /// `𝓛^S(τ_p, τ_c) ≠ ∅`, in deterministic order.
    #[must_use]
    pub fn communicating_pairs(&self) -> Vec<(TaskId, TaskId)> {
        let mut pairs = BTreeSet::new();
        for l in &self.labels {
            let writer_core = self.task(l.writer).core;
            for &r in &l.readers {
                if self.task(r).core != writer_core {
                    pairs.insert((l.writer, r));
                }
            }
        }
        pairs.into_iter().collect()
    }

    /// The tasks `τ_j ≠ τ_i` that share at least one inter-core label with
    /// `task` in either direction.
    #[must_use]
    pub fn communication_partners(&self, task: TaskId) -> Vec<TaskId> {
        let mut partners = BTreeSet::new();
        for (p, c) in self.communicating_pairs() {
            if p == task {
                partners.insert(c);
            } else if c == task {
                partners.insert(p);
            }
        }
        partners.into_iter().collect()
    }

    /// The hyperperiod `H` of the whole task set (LCM of all periods).
    #[must_use]
    pub fn hyperperiod(&self) -> TimeNs {
        self.tasks
            .iter()
            .map(|t| t.period)
            .fold(None, |acc: Option<TimeNs>, p| {
                Some(acc.map_or(p, |a| a.lcm(p)))
            })
            .expect("validated system has at least one task")
    }

    /// The communication hyperperiod `H*_i` of `task` (Eq. 3): the LCM of its
    /// own period and of the periods of all its communication partners.
    ///
    /// For a task with no inter-core communications this is simply `T_i`.
    ///
    /// # Panics
    ///
    /// Panics if `task` does not belong to this system.
    #[must_use]
    pub fn comm_hyperperiod(&self, task: TaskId) -> TimeNs {
        let mut h = self.task(task).period;
        for partner in self.communication_partners(task) {
            h = h.lcm(self.task(partner).period);
        }
        h
    }

    /// The LCM of all `H*_i` over communicating tasks: the horizon after
    /// which the set of required LET communications repeats. Returns the
    /// plain hyperperiod when no task communicates.
    #[must_use]
    pub fn comm_horizon(&self) -> TimeNs {
        let pairs = self.communicating_pairs();
        if pairs.is_empty() {
            return self.hyperperiod();
        }
        let mut h: Option<TimeNs> = None;
        for (p, c) in pairs {
            let l = self.task(p).period.lcm(self.task(c).period);
            h = Some(h.map_or(l, |a| a.lcm(l)));
        }
        h.expect("nonempty pairs")
    }

    /// Total utilization `Σ C_i / T_i` of the task set (for diagnostics).
    #[must_use]
    pub fn utilization(&self) -> f64 {
        self.tasks
            .iter()
            .map(|t| t.wcet.as_ns() as f64 / t.period.as_ns() as f64)
            .sum()
    }
}

/// Builder assembling a [`System`] (C-BUILDER).
///
/// See [`System`] for a complete example.
#[derive(Debug)]
pub struct SystemBuilder {
    platform: Platform,
    tasks: Vec<Task>,
    labels: Vec<Label>,
    costs: CostModel,
    cluster_costs: Vec<CostModel>,
    explicit_priorities: bool,
    any_task_added: bool,
}

impl SystemBuilder {
    /// Starts building a system on a platform with `core_count` cores and
    /// the paper's default cost model.
    ///
    /// # Panics
    ///
    /// Panics if `core_count == 0`.
    #[must_use]
    pub fn new(core_count: u16) -> Self {
        Self::on_platform(Platform::new(core_count))
    }

    /// Starts building a system on an explicit platform (e.g. one created
    /// with [`Platform::with_clusters`]) and the paper's default cost model.
    #[must_use]
    pub fn on_platform(platform: Platform) -> Self {
        Self {
            platform,
            tasks: Vec::new(),
            labels: Vec::new(),
            costs: CostModel::default(),
            cluster_costs: Vec::new(),
            explicit_priorities: false,
            any_task_added: false,
        }
    }

    /// Replaces the DMA cost model (defaults to
    /// [`CostModel::paper_section_vii`]).
    #[must_use]
    pub fn costs(mut self, costs: CostModel) -> Self {
        self.costs = costs;
        self
    }

    /// Sets the DMA cost model in place (for use after other `&mut` calls).
    pub fn set_costs(&mut self, costs: CostModel) -> &mut Self {
        self.costs = costs;
        self
    }

    /// Declares one DMA engine per platform cluster, indexed by
    /// [`Platform::cluster_of`]. [`SystemBuilder::build`] validates that
    /// the list matches the platform's cluster count and that the
    /// system-level envelope ([`SystemBuilder::set_costs`]) dominates every
    /// engine componentwise.
    pub fn set_cluster_costs(&mut self, engines: Vec<CostModel>) -> &mut Self {
        self.cluster_costs = engines;
        self
    }

    /// Starts declaring a task; finish with [`TaskBuilder::add`].
    pub fn task(&mut self, name: impl Into<String>) -> TaskBuilder<'_> {
        TaskBuilder {
            builder: self,
            name: name.into(),
            period: None,
            core: None,
            wcet: TimeNs::ZERO,
            priority: None,
            gamma: None,
        }
    }

    /// Starts declaring a label; finish with [`LabelBuilder::add`].
    pub fn label(&mut self, name: impl Into<String>) -> LabelBuilder<'_> {
        LabelBuilder {
            builder: self,
            name: name.into(),
            size: None,
            writer: None,
            readers: Vec::new(),
        }
    }

    pub(crate) fn push_task(
        &mut self,
        mut task: Task,
        explicit_priority: bool,
    ) -> Result<TaskId, ModelError> {
        if !self.platform.contains_core(task.core) {
            return Err(ModelError::UnknownCore(task.core));
        }
        if self.tasks.iter().any(|t| t.name == task.name) {
            return Err(ModelError::DuplicateName(task.name));
        }
        if explicit_priority {
            self.explicit_priorities = true;
        }
        let id = TaskId::new(u32::try_from(self.tasks.len()).expect("too many tasks"));
        task.id = id;
        self.tasks.push(task);
        self.any_task_added = true;
        Ok(id)
    }

    pub(crate) fn push_label(&mut self, mut label: Label) -> Result<LabelId, ModelError> {
        if self.labels.iter().any(|l| l.name == label.name) {
            return Err(ModelError::DuplicateName(label.name));
        }
        if label.writer.index() >= self.tasks.len() {
            return Err(ModelError::UnknownTask(label.writer));
        }
        let mut seen = BTreeSet::new();
        for &r in &label.readers {
            if r.index() >= self.tasks.len() {
                return Err(ModelError::UnknownTask(r));
            }
            if r == label.writer {
                return Err(ModelError::SelfCommunication {
                    task: r,
                    label: LabelId::new(u32::try_from(self.labels.len()).expect("too many labels")),
                });
            }
            if !seen.insert(r) {
                return Err(ModelError::DuplicateReader {
                    task: r,
                    label: LabelId::new(u32::try_from(self.labels.len()).expect("too many labels")),
                });
            }
        }
        let id = LabelId::new(u32::try_from(self.labels.len()).expect("too many labels"));
        label.id = id;
        self.labels.push(label);
        Ok(id)
    }

    /// Finalizes the system.
    ///
    /// When no task declared an explicit priority, rate-monotonic priorities
    /// are assigned (shorter period ⇒ higher priority; ties broken by
    /// declaration order).
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::EmptySystem`] if no task was declared, and
    /// [`ModelError::ClusterConfig`] if per-cluster engines were declared
    /// but their count does not match the platform's cluster count or the
    /// system-level envelope fails to dominate one of them.
    pub fn build(mut self) -> Result<System, ModelError> {
        if self.tasks.is_empty() {
            return Err(ModelError::EmptySystem);
        }
        if !self.cluster_costs.is_empty() {
            if self.cluster_costs.len() != self.platform.cluster_count() {
                return Err(ModelError::ClusterConfig(format!(
                    "{} engines declared for {} clusters",
                    self.cluster_costs.len(),
                    self.platform.cluster_count()
                )));
            }
            for (k, engine) in self.cluster_costs.iter().enumerate() {
                if !self.costs.dominates(engine) {
                    return Err(ModelError::ClusterConfig(format!(
                        "the system cost envelope does not dominate the engine of cluster {k}"
                    )));
                }
            }
        }
        if !self.explicit_priorities {
            let mut order: Vec<usize> = (0..self.tasks.len()).collect();
            order.sort_by_key(|&i| (self.tasks[i].period, i));
            for (prio, idx) in order.into_iter().enumerate() {
                self.tasks[idx].priority = u32::try_from(prio).expect("priority overflow");
            }
        }
        Ok(System {
            platform: self.platform,
            tasks: self.tasks,
            labels: self.labels,
            costs: self.costs,
            cluster_costs: self.cluster_costs,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two cores; p (5 ms) on P0 writes to c (10 ms) on P1 and to s (5 ms)
    /// on P0 (same-core, not inter-core shared).
    fn sample() -> (System, TaskId, TaskId, TaskId, LabelId, LabelId) {
        let mut b = SystemBuilder::new(2);
        let p = b.task("p").period_ms(5).core_index(0).add().unwrap();
        let c = b.task("c").period_ms(10).core_index(1).add().unwrap();
        let s = b.task("s").period_ms(5).core_index(0).add().unwrap();
        let shared = b
            .label("shared")
            .size(128)
            .writer(p)
            .reader(c)
            .add()
            .unwrap();
        let local = b.label("local").size(16).writer(p).reader(s).add().unwrap();
        (b.build().unwrap(), p, c, s, shared, local)
    }

    #[test]
    fn empty_system_rejected() {
        assert_eq!(
            SystemBuilder::new(1).build().unwrap_err(),
            ModelError::EmptySystem
        );
    }

    #[test]
    fn shared_label_classification() {
        let (sys, p, c, s, shared, local) = sample();
        assert!(sys.is_inter_core_shared(shared));
        assert!(!sys.is_inter_core_shared(local));
        assert_eq!(sys.inter_core_shared_labels().count(), 1);
        assert_eq!(sys.inter_core_readers(shared).collect::<Vec<_>>(), vec![c]);
        assert_eq!(sys.shared_labels(p, c).count(), 1);
        assert_eq!(sys.shared_labels(p, s).count(), 0); // same core
        assert_eq!(sys.shared_labels(c, p).count(), 0); // wrong direction
    }

    #[test]
    fn communicating_pairs_and_partners() {
        let (sys, p, c, _s, _, _) = sample();
        assert_eq!(sys.communicating_pairs(), vec![(p, c)]);
        assert_eq!(sys.communication_partners(p), vec![c]);
        assert_eq!(sys.communication_partners(c), vec![p]);
        assert!(sys
            .communication_partners(sys.task_by_name("s").unwrap().id())
            .is_empty());
    }

    #[test]
    fn hyperperiods() {
        let (sys, p, c, s, _, _) = sample();
        assert_eq!(sys.hyperperiod(), TimeNs::from_ms(10));
        assert_eq!(sys.comm_hyperperiod(p), TimeNs::from_ms(10));
        assert_eq!(sys.comm_hyperperiod(c), TimeNs::from_ms(10));
        // s does not communicate inter-core: H*_s = T_s.
        assert_eq!(sys.comm_hyperperiod(s), TimeNs::from_ms(5));
        assert_eq!(sys.comm_horizon(), TimeNs::from_ms(10));
    }

    #[test]
    fn tasks_on_core_partition() {
        let (sys, ..) = sample();
        assert_eq!(sys.tasks_on(CoreId::new(0)).count(), 2);
        assert_eq!(sys.tasks_on(CoreId::new(1)).count(), 1);
        assert_eq!(
            sys.local_memory_of(sys.task_by_name("c").unwrap().id()),
            MemoryId::local(CoreId::new(1))
        );
    }

    #[test]
    fn acquisition_deadline_update() {
        let (mut sys, p, ..) = sample();
        assert_eq!(sys.task(p).acquisition_deadline(), None);
        sys.set_acquisition_deadline(p, Some(TimeNs::from_us(200)));
        assert_eq!(
            sys.task(p).acquisition_deadline(),
            Some(TimeNs::from_us(200))
        );
        sys.set_acquisition_deadline(p, None);
        assert_eq!(sys.task(p).acquisition_deadline(), None);
    }

    #[test]
    fn name_lookups() {
        let (sys, p, ..) = sample();
        assert_eq!(sys.task_by_name("p").unwrap().id(), p);
        assert!(sys.task_by_name("ghost").is_none());
        assert_eq!(sys.label_by_name("shared").unwrap().size(), 128);
        assert!(sys.label_by_name("ghost").is_none());
    }

    #[test]
    fn cluster_engines_validated_and_resolved_per_core() {
        use crate::platform::CopyCost;

        let platform = Platform::with_clusters(4, 2).unwrap();
        let envelope = CostModel::paper_section_vii();
        let fast = CostModel::new(
            TimeNs::from_ns(2_000),
            TimeNs::from_us(8),
            CopyCost::per_byte(3, 1).unwrap(),
        );
        let mut b = SystemBuilder::on_platform(platform.clone());
        b.set_costs(envelope);
        b.set_cluster_costs(vec![envelope, fast]);
        b.task("t").period_ms(10).core_index(0).add().unwrap();
        let sys = b.build().unwrap();
        assert_eq!(sys.cluster_costs().len(), 2);
        assert_eq!(sys.costs_for(CoreId::new(0)), &envelope);
        assert_eq!(sys.costs_for(CoreId::new(3)), &fast);

        // Wrong engine count is rejected.
        let mut b = SystemBuilder::on_platform(platform.clone());
        b.set_cluster_costs(vec![envelope]);
        b.task("t").period_ms(10).core_index(0).add().unwrap();
        assert!(matches!(
            b.build().unwrap_err(),
            ModelError::ClusterConfig(_)
        ));

        // An engine the envelope does not dominate is rejected.
        let slower = CostModel::new(
            TimeNs::from_ns(4_000),
            TimeNs::from_us(10),
            CopyCost::per_byte(5, 1).unwrap(),
        );
        let mut b = SystemBuilder::on_platform(platform);
        b.set_costs(envelope);
        b.set_cluster_costs(vec![envelope, slower]);
        b.task("t").period_ms(10).core_index(0).add().unwrap();
        assert!(matches!(
            b.build().unwrap_err(),
            ModelError::ClusterConfig(_)
        ));
    }

    #[test]
    fn single_engine_systems_resolve_to_envelope() {
        let (sys, ..) = sample();
        assert!(sys.cluster_costs().is_empty());
        assert_eq!(sys.costs_for(CoreId::new(0)), sys.costs());
        assert_eq!(sys.costs_for(CoreId::new(1)), sys.costs());
    }

    #[test]
    fn utilization_sums() {
        let mut b = SystemBuilder::new(1);
        b.task("a")
            .period_ms(10)
            .core_index(0)
            .wcet(TimeNs::from_ms(1))
            .add()
            .unwrap();
        b.task("b")
            .period_ms(10)
            .core_index(0)
            .wcet(TimeNs::from_ms(4))
            .add()
            .unwrap();
        let sys = b.build().unwrap();
        assert!((sys.utilization() - 0.5).abs() < 1e-12);
    }
}
