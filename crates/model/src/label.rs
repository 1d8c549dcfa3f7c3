//! Labels: the memory slots tasks communicate through (§III-B).

use crate::ids::{LabelId, TaskId};

/// A label `ℓ_l`: a contiguous memory slot of `σ_l` bytes with a single
/// writer and any number of readers.
///
/// A label is *inter-core shared* when at least one reader runs on a
/// different core than the writer; such labels are mapped in the global
/// memory `M_G` with per-task copies in the local memories, and their
/// updates travel through LET communications. Labels whose readers all live
/// on the writer's core are exchanged through a core-local double buffer
/// instead (out of scope for the DMA protocol, but they still occupy space
/// in the local memory layout).
///
/// Construct labels through [`crate::SystemBuilder::label`].
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Label {
    pub(crate) id: LabelId,
    pub(crate) name: String,
    pub(crate) size: u64,
    pub(crate) writer: TaskId,
    pub(crate) readers: Vec<TaskId>,
}

impl Label {
    /// The identifier of this label within its system.
    #[must_use]
    pub fn id(&self) -> LabelId {
        self.id
    }

    /// Human-readable label name (unique within the system).
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The size `σ_l` in bytes.
    #[must_use]
    pub fn size(&self) -> u64 {
        self.size
    }

    /// The unique producer task writing this label.
    #[must_use]
    pub fn writer(&self) -> TaskId {
        self.writer
    }

    /// All consumer tasks reading this label (possibly empty).
    #[must_use]
    pub fn readers(&self) -> &[TaskId] {
        &self.readers
    }
}

/// Builder for one label, returned by [`crate::SystemBuilder::label`].
#[derive(Debug)]
pub struct LabelBuilder<'a> {
    pub(crate) builder: &'a mut crate::SystemBuilder,
    pub(crate) name: String,
    pub(crate) size: Option<u64>,
    pub(crate) writer: Option<TaskId>,
    pub(crate) readers: Vec<TaskId>,
}

impl LabelBuilder<'_> {
    /// Sets the size `σ_l` in bytes.
    #[must_use]
    pub fn size(mut self, bytes: u64) -> Self {
        self.size = Some(bytes);
        self
    }

    /// Sets the unique writer task.
    #[must_use]
    pub fn writer(mut self, task: TaskId) -> Self {
        self.writer = Some(task);
        self
    }

    /// Adds reader tasks.
    #[must_use]
    pub fn readers<I: IntoIterator<Item = TaskId>>(mut self, tasks: I) -> Self {
        self.readers.extend(tasks);
        self
    }

    /// Adds a single reader task.
    #[must_use]
    pub fn reader(mut self, task: TaskId) -> Self {
        self.readers.push(task);
        self
    }

    /// Registers the label with the system builder and returns its id.
    ///
    /// # Errors
    ///
    /// Returns [`crate::ModelError`] when the size is missing/zero, the
    /// writer is missing or unknown, a reader is unknown or duplicated, the
    /// writer also appears as a reader, or the name is duplicated.
    pub fn add(self) -> Result<LabelId, crate::ModelError> {
        let size = self.size.ok_or_else(|| {
            crate::ModelError::InvalidParameter(format!("label `{}` has no size", self.name))
        })?;
        if size == 0 {
            return Err(crate::ModelError::InvalidParameter(format!(
                "label `{}` has zero size",
                self.name
            )));
        }
        let writer = self.writer.ok_or_else(|| {
            crate::ModelError::InvalidParameter(format!("label `{}` has no writer", self.name))
        })?;
        self.builder.push_label(Label {
            id: LabelId::new(0), // replaced by push_label
            name: self.name,
            size,
            writer,
            readers: self.readers,
        })
    }
}

#[cfg(test)]
mod tests {
    use crate::{ModelError, SystemBuilder, TaskId};

    fn two_task_builder() -> (SystemBuilder, TaskId, TaskId) {
        let mut b = SystemBuilder::new(2);
        let p = b.task("p").period_ms(10).core_index(0).add().unwrap();
        let c = b.task("c").period_ms(20).core_index(1).add().unwrap();
        (b, p, c)
    }

    #[test]
    fn label_roundtrip() {
        let (mut b, p, c) = two_task_builder();
        let l = b.label("pose").size(32).writer(p).reader(c).add().unwrap();
        let sys = b.build().unwrap();
        let label = sys.label(l);
        assert_eq!(label.name(), "pose");
        assert_eq!(label.size(), 32);
        assert_eq!(label.writer(), p);
        assert_eq!(label.readers(), &[c]);
    }

    #[test]
    fn rejects_zero_size() {
        let (mut b, p, _) = two_task_builder();
        let err = b.label("x").size(0).writer(p).add().unwrap_err();
        assert!(matches!(err, ModelError::InvalidParameter(_)));
    }

    #[test]
    fn rejects_missing_writer() {
        let (mut b, _, _) = two_task_builder();
        let err = b.label("x").size(4).add().unwrap_err();
        assert!(matches!(err, ModelError::InvalidParameter(_)));
    }

    #[test]
    fn rejects_unknown_reader() {
        let (mut b, p, _) = two_task_builder();
        let ghost = TaskId::new(99);
        let err = b
            .label("x")
            .size(4)
            .writer(p)
            .reader(ghost)
            .add()
            .unwrap_err();
        assert_eq!(err, ModelError::UnknownTask(ghost));
    }

    #[test]
    fn rejects_writer_as_reader() {
        let (mut b, p, _) = two_task_builder();
        let err = b.label("x").size(4).writer(p).reader(p).add().unwrap_err();
        assert!(matches!(err, ModelError::SelfCommunication { .. }));
    }

    #[test]
    fn rejects_duplicate_reader() {
        let (mut b, p, c) = two_task_builder();
        let err = b
            .label("x")
            .size(4)
            .writer(p)
            .readers([c, c])
            .add()
            .unwrap_err();
        assert!(matches!(err, ModelError::DuplicateReader { .. }));
    }

    #[test]
    fn rejects_duplicate_label_name() {
        let (mut b, p, c) = two_task_builder();
        b.label("x").size(4).writer(p).reader(c).add().unwrap();
        let err = b.label("x").size(8).writer(p).reader(c).add().unwrap_err();
        assert_eq!(err, ModelError::DuplicateName("x".into()));
    }
}
