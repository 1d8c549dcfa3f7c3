//! Strongly-typed identifiers for cores, tasks, labels and memories.
//!
//! Every entity in a [`crate::System`] is referred to through one of these
//! newtypes so that, e.g., a task index can never be accidentally used where a
//! label index is expected (C-NEWTYPE).

use std::fmt;

/// Identifier of a processor core `P_k`.
///
/// Cores are numbered densely from `0` in the order they were declared on the
/// [`crate::Platform`].
///
/// # Examples
///
/// ```
/// use letdma_model::CoreId;
///
/// let core = CoreId::new(1);
/// assert_eq!(core.index(), 1);
/// assert_eq!(core.to_string(), "P1");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CoreId(u16);

impl CoreId {
    /// Creates a core identifier from a dense index.
    #[must_use]
    pub const fn new(index: u16) -> Self {
        Self(index)
    }

    /// Returns the dense index of this core.
    #[must_use]
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for CoreId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "P{}", self.0)
    }
}

/// Identifier of a periodic task `τ_i`.
///
/// Tasks are numbered densely from `0` in declaration order on the
/// [`crate::SystemBuilder`].
///
/// # Examples
///
/// ```
/// use letdma_model::TaskId;
///
/// let task = TaskId::new(3);
/// assert_eq!(task.index(), 3);
/// assert_eq!(task.to_string(), "τ3");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TaskId(u32);

impl TaskId {
    /// Creates a task identifier from a dense index.
    #[must_use]
    pub const fn new(index: u32) -> Self {
        Self(index)
    }

    /// Returns the dense index of this task.
    #[must_use]
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for TaskId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "τ{}", self.0)
    }
}

/// Identifier of a memory slot's logical label `ℓ_l`.
///
/// Labels are numbered densely from `0` in declaration order on the
/// [`crate::SystemBuilder`].
///
/// # Examples
///
/// ```
/// use letdma_model::LabelId;
///
/// let label = LabelId::new(7);
/// assert_eq!(label.index(), 7);
/// assert_eq!(label.to_string(), "ℓ7");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LabelId(u32);

impl LabelId {
    /// Creates a label identifier from a dense index.
    #[must_use]
    pub const fn new(index: u32) -> Self {
        Self(index)
    }

    /// Returns the dense index of this label.
    #[must_use]
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for LabelId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ℓ{}", self.0)
    }
}

/// Identifier of a memory `M ∈ 𝓜 = {M_1, …, M_N, M_G}`.
///
/// Each core has one private dual-ported local memory; all cores share one
/// global memory. The DMA engine copies between a local memory and the global
/// memory (§III-A of the paper).
///
/// # Examples
///
/// ```
/// use letdma_model::{CoreId, MemoryId};
///
/// let local = MemoryId::local(CoreId::new(0));
/// assert!(local.is_local());
/// assert!(!MemoryId::Global.is_local());
/// assert_eq!(local.to_string(), "M0");
/// assert_eq!(MemoryId::Global.to_string(), "MG");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum MemoryId {
    /// The private scratchpad of one core.
    Local(CoreId),
    /// The memory shared by all cores, `M_G`.
    Global,
}

impl MemoryId {
    /// Creates the identifier of the local memory of `core`.
    #[must_use]
    pub const fn local(core: CoreId) -> Self {
        Self::Local(core)
    }

    /// Returns `true` when this is a core-local memory.
    #[must_use]
    pub const fn is_local(self) -> bool {
        matches!(self, Self::Local(_))
    }

    /// Returns the owning core for a local memory, or `None` for `M_G`.
    #[must_use]
    pub const fn core(self) -> Option<CoreId> {
        match self {
            Self::Local(c) => Some(c),
            Self::Global => None,
        }
    }
}

impl fmt::Display for MemoryId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Local(c) => write!(f, "M{}", c.index()),
            Self::Global => write!(f, "MG"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn core_id_roundtrip() {
        let c = CoreId::new(5);
        assert_eq!(c.index(), 5);
        assert_eq!(CoreId::new(5), c);
        assert!(CoreId::new(4) < c);
    }

    #[test]
    fn task_and_label_display() {
        assert_eq!(TaskId::new(0).to_string(), "τ0");
        assert_eq!(LabelId::new(12).to_string(), "ℓ12");
    }

    #[test]
    fn memory_id_core_extraction() {
        assert_eq!(MemoryId::local(CoreId::new(2)).core(), Some(CoreId::new(2)));
        assert_eq!(MemoryId::Global.core(), None);
    }

    #[test]
    fn memory_id_ordering_is_stable() {
        // Locals sort before Global, locals sort by core.
        let mut v = vec![
            MemoryId::Global,
            MemoryId::local(CoreId::new(1)),
            MemoryId::local(CoreId::new(0)),
        ];
        v.sort();
        assert_eq!(
            v,
            vec![
                MemoryId::local(CoreId::new(0)),
                MemoryId::local(CoreId::new(1)),
                MemoryId::Global,
            ]
        );
    }
}
