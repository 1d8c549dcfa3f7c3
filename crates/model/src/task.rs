//! Periodic real-time tasks under partitioned scheduling (§III-A).

use crate::ids::{CoreId, TaskId};
use crate::time::TimeNs;

/// A periodic real-time task `τ_i` statically assigned to one core.
///
/// Tasks have implicit deadlines (`D_i = T_i`) and are synchronously released
/// at the system start `s_0 = 0`. The optional *data-acquisition deadline*
/// `γ_i` bounds how late any job of the task may become ready without
/// compromising schedulability; it is an input to the optimization problem
/// (Constraint 9) and is typically derived with the sensitivity procedure of
/// §VII (`γ_i = α·S_i`).
///
/// Construct tasks through [`crate::SystemBuilder::task`]; the fields are
/// read through accessors so internal representation can evolve.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Task {
    pub(crate) id: TaskId,
    pub(crate) name: String,
    pub(crate) period: TimeNs,
    pub(crate) core: CoreId,
    pub(crate) wcet: TimeNs,
    pub(crate) priority: u32,
    pub(crate) gamma: Option<TimeNs>,
}

impl Task {
    /// The identifier of this task within its system.
    #[must_use]
    pub fn id(&self) -> TaskId {
        self.id
    }

    /// Human-readable task name (unique within the system).
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The period `T_i` (equal to the implicit deadline `D_i`).
    #[must_use]
    pub fn period(&self) -> TimeNs {
        self.period
    }

    /// The implicit relative deadline `D_i = T_i`.
    #[must_use]
    pub fn deadline(&self) -> TimeNs {
        self.period
    }

    /// The core `𝓟(τ_i)` this task is statically assigned to.
    #[must_use]
    pub fn core(&self) -> CoreId {
        self.core
    }

    /// Worst-case execution time `C_i` (zero when not modelled).
    #[must_use]
    pub fn wcet(&self) -> TimeNs {
        self.wcet
    }

    /// Fixed priority; **smaller values mean higher priority**.
    ///
    /// When not given explicitly, [`crate::SystemBuilder::build`] assigns
    /// rate-monotonic priorities (shorter period ⇒ higher priority, ties
    /// broken by declaration order).
    #[must_use]
    pub fn priority(&self) -> u32 {
        self.priority
    }

    /// The data-acquisition deadline `γ_i`, if one has been set.
    ///
    /// `None` means "unconstrained" (Constraint 9 is not instantiated for
    /// this task).
    #[must_use]
    pub fn acquisition_deadline(&self) -> Option<TimeNs> {
        self.gamma
    }

    /// Release instants `𝓣_i = {0, T_i, 2·T_i, …}` of this task inside
    /// `[0, horizon)`.
    ///
    /// # Examples
    ///
    /// ```
    /// use letdma_model::{SystemBuilder, TimeNs};
    ///
    /// let mut b = SystemBuilder::new(1);
    /// let t = b.task("t").period(TimeNs::from_ms(5)).core_index(0).add()?;
    /// let sys = b.build()?;
    /// let releases: Vec<_> = sys.task(t).releases_within(TimeNs::from_ms(12)).collect();
    /// assert_eq!(releases, vec![TimeNs::ZERO, TimeNs::from_ms(5), TimeNs::from_ms(10)]);
    /// # Ok::<(), letdma_model::ModelError>(())
    /// ```
    pub fn releases_within(&self, horizon: TimeNs) -> impl Iterator<Item = TimeNs> + '_ {
        let period = self.period;
        (0..)
            .map(move |j| period * j)
            .take_while(move |&t| t < horizon)
    }
}

/// Builder for one task, returned by [`crate::SystemBuilder::task`].
///
/// Call [`TaskBuilder::add`] to finish and obtain the [`TaskId`].
#[derive(Debug)]
pub struct TaskBuilder<'a> {
    pub(crate) builder: &'a mut crate::SystemBuilder,
    pub(crate) name: String,
    pub(crate) period: Option<TimeNs>,
    pub(crate) core: Option<CoreId>,
    pub(crate) wcet: TimeNs,
    pub(crate) priority: Option<u32>,
    pub(crate) gamma: Option<TimeNs>,
}

impl TaskBuilder<'_> {
    /// Sets the period `T_i`.
    #[must_use]
    pub fn period(mut self, period: TimeNs) -> Self {
        self.period = Some(period);
        self
    }

    /// Sets the period in milliseconds (convenience).
    #[must_use]
    pub fn period_ms(self, ms: u64) -> Self {
        self.period(TimeNs::from_ms(ms))
    }

    /// Assigns the task to `core`.
    #[must_use]
    pub fn core(mut self, core: CoreId) -> Self {
        self.core = Some(core);
        self
    }

    /// Assigns the task to the core with the given dense index (convenience).
    #[must_use]
    pub fn core_index(self, index: u16) -> Self {
        self.core(CoreId::new(index))
    }

    /// Sets the worst-case execution time `C_i` (defaults to zero).
    #[must_use]
    pub fn wcet(mut self, wcet: TimeNs) -> Self {
        self.wcet = wcet;
        self
    }

    /// Sets the worst-case execution time in microseconds (convenience).
    #[must_use]
    pub fn wcet_us(self, us: u64) -> Self {
        self.wcet(TimeNs::from_us(us))
    }

    /// Sets an explicit fixed priority (smaller = higher). When omitted,
    /// rate-monotonic priorities are assigned at build time.
    #[must_use]
    pub fn priority(mut self, priority: u32) -> Self {
        self.priority = Some(priority);
        self
    }

    /// Sets the data-acquisition deadline `γ_i`.
    #[must_use]
    pub fn acquisition_deadline(mut self, gamma: TimeNs) -> Self {
        self.gamma = Some(gamma);
        self
    }

    /// Registers the task with the system builder and returns its id.
    ///
    /// # Errors
    ///
    /// Returns [`crate::ModelError`] when the period is missing/zero, the
    /// core is missing or not on the platform, or the name is duplicated.
    pub fn add(self) -> Result<TaskId, crate::ModelError> {
        let period = self.period.ok_or_else(|| {
            crate::ModelError::InvalidParameter(format!("task `{}` has no period", self.name))
        })?;
        if period == TimeNs::ZERO {
            return Err(crate::ModelError::InvalidParameter(format!(
                "task `{}` has a zero period",
                self.name
            )));
        }
        let core = self.core.ok_or_else(|| {
            crate::ModelError::InvalidParameter(format!(
                "task `{}` is not mapped to any core",
                self.name
            ))
        })?;
        self.builder.push_task(
            Task {
                id: TaskId::new(0), // replaced by push_task
                name: self.name,
                period,
                core,
                wcet: self.wcet,
                priority: self.priority.unwrap_or(u32::MAX),
                gamma: self.gamma,
            },
            self.priority.is_some(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SystemBuilder;

    #[test]
    fn builder_rejects_missing_period() {
        let mut b = SystemBuilder::new(1);
        let err = b.task("x").core_index(0).add().unwrap_err();
        assert!(matches!(err, crate::ModelError::InvalidParameter(_)));
    }

    #[test]
    fn builder_rejects_zero_period() {
        let mut b = SystemBuilder::new(1);
        let err = b
            .task("x")
            .period(TimeNs::ZERO)
            .core_index(0)
            .add()
            .unwrap_err();
        assert!(matches!(err, crate::ModelError::InvalidParameter(_)));
    }

    #[test]
    fn builder_rejects_unknown_core() {
        let mut b = SystemBuilder::new(1);
        let err = b.task("x").period_ms(1).core_index(3).add().unwrap_err();
        assert_eq!(err, crate::ModelError::UnknownCore(CoreId::new(3)));
    }

    #[test]
    fn builder_rejects_duplicate_name() {
        let mut b = SystemBuilder::new(1);
        b.task("x").period_ms(1).core_index(0).add().unwrap();
        let err = b.task("x").period_ms(2).core_index(0).add().unwrap_err();
        assert_eq!(err, crate::ModelError::DuplicateName("x".into()));
    }

    #[test]
    fn task_accessors_roundtrip() {
        let mut b = SystemBuilder::new(2);
        let id = b
            .task("ekf")
            .period_ms(15)
            .core_index(1)
            .wcet_us(500)
            .priority(3)
            .acquisition_deadline(TimeNs::from_us(100))
            .add()
            .unwrap();
        let sys = b.build().unwrap();
        let t = sys.task(id);
        assert_eq!(t.name(), "ekf");
        assert_eq!(t.period(), TimeNs::from_ms(15));
        assert_eq!(t.deadline(), t.period());
        assert_eq!(t.core(), CoreId::new(1));
        assert_eq!(t.wcet(), TimeNs::from_us(500));
        assert_eq!(t.priority(), 3);
        assert_eq!(t.acquisition_deadline(), Some(TimeNs::from_us(100)));
    }

    #[test]
    fn rate_monotonic_priorities_assigned_when_unspecified() {
        let mut b = SystemBuilder::new(1);
        let slow = b.task("slow").period_ms(100).core_index(0).add().unwrap();
        let fast = b.task("fast").period_ms(5).core_index(0).add().unwrap();
        let mid = b.task("mid").period_ms(50).core_index(0).add().unwrap();
        let sys = b.build().unwrap();
        assert!(sys.task(fast).priority() < sys.task(mid).priority());
        assert!(sys.task(mid).priority() < sys.task(slow).priority());
    }

    #[test]
    fn releases_within_horizon() {
        let mut b = SystemBuilder::new(1);
        let t = b.task("t").period_ms(10).core_index(0).add().unwrap();
        let sys = b.build().unwrap();
        let r: Vec<_> = sys.task(t).releases_within(TimeNs::from_ms(30)).collect();
        assert_eq!(r.len(), 3);
        assert_eq!(r[2], TimeNs::from_ms(20));
    }
}
