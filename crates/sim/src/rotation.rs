//! Triple-buffer rotation bookkeeping.
//!
//! The [`crate::Approach::TripleBuffered`] protocol splits the DMA staging
//! area into three rotating buffer slots (work / pre-fetch / commit, as in
//! the `DmaBuf` exemplar): round `k` writes slot `k mod 3` while the
//! consumer of round `k − 3` may still be draining the same slot. The
//! engine enforces the rotation rule (a copy into slot `s` waits until the
//! completion ISR of the previous occupant of `s` has retired); this module
//! is the *independent* checker that records every write interval (the DMA
//! copy) and read interval (DMA-done → completion-ISR retirement, the
//! window in which the ISR publishes and the consumer side empties the
//! buffer) and counts overlaps after the fact — exactly like
//! `letdma-model::conformance` re-checks the optimizer's output.
//!
//! A *hazard* is a pair of intervals on the same slot, from different
//! rounds, that overlap in time with at least one of them being a write: a
//! buffer read while (or written while) being written. A correct rotation
//! produces zero hazards; [`crate::SimReport::buffer_hazards`] surfaces the
//! count.

use letdma_model::TimeNs;

/// What an interval did to its buffer slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Access {
    Write,
    Read,
}

/// One recorded access to a buffer slot.
#[derive(Debug, Clone, Copy)]
struct Interval {
    start: TimeNs,
    end: TimeNs,
    round: u64,
    access: Access,
}

/// Records buffer-slot accesses and counts rotation hazards.
///
/// # Examples
///
/// ```
/// use letdma_model::TimeNs;
/// use letdma_sim::rotation::BufferRotation;
///
/// let ns = TimeNs::from_ns;
/// let mut rot = BufferRotation::new(3);
/// rot.record_write(0, ns(0), ns(100), 0); // round 0 fills slot 0
/// rot.record_read(0, ns(100), ns(120), 0); // consumer empties it
/// rot.record_write(0, ns(150), ns(250), 3); // round 3 reuses slot 0 later
/// assert_eq!(rot.hazards(), 0);
///
/// // Rewriting the slot while round 0 still reads it is a hazard.
/// rot.record_write(0, ns(110), ns(130), 6);
/// assert!(rot.hazards() > 0);
/// ```
#[derive(Debug, Clone)]
pub struct BufferRotation {
    slots: Vec<Vec<Interval>>,
}

impl BufferRotation {
    /// A checker over `slots` rotating buffer slots (3 for triple
    /// buffering).
    ///
    /// # Panics
    ///
    /// Panics if `slots == 0`.
    #[must_use]
    pub fn new(slots: usize) -> Self {
        assert!(slots > 0, "need at least one buffer slot");
        Self {
            slots: vec![Vec::new(); slots],
        }
    }

    /// Records a write of `slot` over `[start, end)` by `round`.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is out of range or `end < start`.
    pub fn record_write(&mut self, slot: usize, start: TimeNs, end: TimeNs, round: u64) {
        self.record(slot, start, end, round, Access::Write);
    }

    /// Records a read of `slot` over `[start, end)` by `round`.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is out of range or `end < start`.
    pub fn record_read(&mut self, slot: usize, start: TimeNs, end: TimeNs, round: u64) {
        self.record(slot, start, end, round, Access::Read);
    }

    fn record(&mut self, slot: usize, start: TimeNs, end: TimeNs, round: u64, access: Access) {
        assert!(end >= start, "interval must not be inverted");
        self.slots[slot].push(Interval {
            start,
            end,
            round,
            access,
        });
    }

    /// Number of hazardous interval pairs: same slot, different rounds,
    /// overlapping in time (half-open intervals), at least one a write.
    #[must_use]
    pub fn hazards(&self) -> u64 {
        let mut count = 0;
        for intervals in &self.slots {
            for (i, a) in intervals.iter().enumerate() {
                for b in &intervals[i + 1..] {
                    if a.round == b.round {
                        continue;
                    }
                    if a.access == Access::Read && b.access == Access::Read {
                        continue;
                    }
                    if a.start < b.end && b.start < a.end {
                        count += 1;
                    }
                }
            }
        }
        count
    }

    /// Total intervals recorded (for diagnostics).
    #[must_use]
    pub fn recorded(&self) -> usize {
        self.slots.iter().map(Vec::len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ns(v: u64) -> TimeNs {
        TimeNs::from_ns(v)
    }

    #[test]
    fn clean_rotation_has_no_hazards() {
        let mut rot = BufferRotation::new(3);
        // Rounds 0..6 in a correct triple-buffered cadence: write k, read
        // k, and slot k%3 is only rewritten after round k's read retired.
        for k in 0u64..6 {
            let slot = (k % 3) as usize;
            let base = 100 * k;
            rot.record_write(slot, ns(base), ns(base + 80), k);
            rot.record_read(slot, ns(base + 80), ns(base + 95), k);
        }
        assert_eq!(rot.hazards(), 0);
        assert_eq!(rot.recorded(), 12);
    }

    #[test]
    fn read_during_write_is_a_hazard() {
        let mut rot = BufferRotation::new(3);
        rot.record_write(1, ns(0), ns(100), 0);
        rot.record_read(1, ns(50), ns(60), 3); // round 3 reads mid-write
        assert_eq!(rot.hazards(), 1);
    }

    #[test]
    fn write_during_write_is_a_hazard() {
        let mut rot = BufferRotation::new(3);
        rot.record_write(2, ns(0), ns(100), 2);
        rot.record_write(2, ns(99), ns(150), 5);
        assert_eq!(rot.hazards(), 1);
    }

    #[test]
    fn overlapping_reads_are_fine() {
        let mut rot = BufferRotation::new(3);
        rot.record_read(0, ns(0), ns(100), 0);
        rot.record_read(0, ns(50), ns(150), 3);
        assert_eq!(rot.hazards(), 0);
    }

    #[test]
    fn same_round_overlap_is_not_a_hazard() {
        // A round's own ISR read naturally abuts (and may share an instant
        // with) its write; only cross-round overlap counts.
        let mut rot = BufferRotation::new(3);
        rot.record_write(0, ns(0), ns(100), 7);
        rot.record_read(0, ns(90), ns(120), 7);
        assert_eq!(rot.hazards(), 0);
    }

    #[test]
    fn different_slots_never_conflict() {
        let mut rot = BufferRotation::new(3);
        rot.record_write(0, ns(0), ns(100), 0);
        rot.record_write(1, ns(0), ns(100), 1);
        rot.record_read(2, ns(0), ns(100), 2);
        assert_eq!(rot.hazards(), 0);
    }

    #[test]
    fn touching_intervals_do_not_overlap() {
        // Half-open semantics: a write ending exactly when the next begins
        // is the legal back-to-back case.
        let mut rot = BufferRotation::new(1);
        rot.record_write(0, ns(0), ns(100), 0);
        rot.record_write(0, ns(100), ns(200), 1);
        assert_eq!(rot.hazards(), 0);
    }

    #[test]
    #[should_panic(expected = "at least one buffer slot")]
    fn zero_slots_rejected() {
        let _ = BufferRotation::new(0);
    }
}
