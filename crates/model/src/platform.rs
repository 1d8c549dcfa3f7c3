//! Hardware platform model: identical cores, dual-ported local memories, one
//! global memory, and a single DMA engine (§III-A of the paper).

use std::fmt;

use crate::ids::{CoreId, MemoryId};
use crate::time::TimeNs;

/// The multicore platform `𝓟 = {P_1, …, P_N}` plus its memories `𝓜`.
///
/// Each core `P_k` owns a private dual-ported local memory `M_k` (a
/// scratchpad); the platform additionally has one global memory `M_G` shared
/// by all cores, and a single DMA engine that moves data between a local
/// memory and the global memory. This mirrors commercial automotive parts such
/// as the Infineon AURIX TC2xx/TC3xx.
///
/// # Examples
///
/// ```
/// use letdma_model::Platform;
///
/// let platform = Platform::new(2);
/// assert_eq!(platform.core_count(), 2);
/// assert_eq!(platform.memories().count(), 3); // M0, M1, MG
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Platform {
    core_count: u16,
    cluster_count: u16,
}

impl Platform {
    /// Creates a platform with `core_count` identical cores and a single
    /// DMA cluster (the paper's topology: one shared DMA engine).
    ///
    /// # Panics
    ///
    /// Panics if `core_count == 0`.
    #[must_use]
    pub fn new(core_count: u16) -> Self {
        assert!(core_count > 0, "a platform needs at least one core");
        Self {
            core_count,
            cluster_count: 1,
        }
    }

    /// Creates a platform whose cores are partitioned into `cluster_count`
    /// contiguous blocks, each served by its own DMA engine (XDMA-style
    /// multi-accelerator SoCs). Cluster `j` owns cores
    /// `j·⌈N/C⌉ .. (j+1)·⌈N/C⌉`.
    ///
    /// # Errors
    ///
    /// Returns [`crate::ModelError::ClusterConfig`] if `cluster_count` is
    /// zero or exceeds `core_count`, or if `core_count == 0`.
    pub fn with_clusters(core_count: u16, cluster_count: u16) -> Result<Self, crate::ModelError> {
        if core_count == 0 {
            return Err(crate::ModelError::ClusterConfig(
                "a platform needs at least one core".into(),
            ));
        }
        if cluster_count == 0 || cluster_count > core_count {
            return Err(crate::ModelError::ClusterConfig(format!(
                "cluster count {cluster_count} must be in 1..={core_count} (one DMA engine per non-empty core block)"
            )));
        }
        Ok(Self {
            core_count,
            cluster_count,
        })
    }

    /// Number of DMA clusters `C` (1 on the paper's single-engine platform).
    #[must_use]
    pub fn cluster_count(&self) -> usize {
        usize::from(self.cluster_count)
    }

    /// The cluster that owns `core` (contiguous block partition).
    ///
    /// # Panics
    ///
    /// Panics if `core` does not exist on this platform.
    #[must_use]
    pub fn cluster_of(&self, core: CoreId) -> usize {
        assert!(self.contains_core(core), "core {core} not on this platform");
        let per = self.core_count().div_ceil(self.cluster_count());
        core.index() / per
    }

    /// Number of cores `N`.
    #[must_use]
    pub fn core_count(&self) -> usize {
        usize::from(self.core_count)
    }

    /// Iterates over all core identifiers `P_0, …, P_{N-1}`.
    pub fn cores(&self) -> impl Iterator<Item = CoreId> + '_ {
        (0..self.core_count).map(CoreId::new)
    }

    /// Iterates over all memories: every local memory followed by `M_G`.
    pub fn memories(&self) -> impl Iterator<Item = MemoryId> + '_ {
        self.cores()
            .map(MemoryId::local)
            .chain(std::iter::once(MemoryId::Global))
    }

    /// Returns `true` if `core` exists on this platform.
    #[must_use]
    pub fn contains_core(&self, core: CoreId) -> bool {
        core.index() < self.core_count()
    }
}

/// Per-byte copy cost expressed as an exact rational number of nanoseconds.
///
/// The DMA copy cost `ω_c` of the paper multiplies the number of copied bytes;
/// real transfer rates (e.g. 200 MB/s ⇒ 5 ns/B) are not always integer
/// nanoseconds per byte, so the cost is stored as `num/den` ns per byte and
/// evaluated with ceiling rounding (worst case).
///
/// # Examples
///
/// ```
/// use letdma_model::CopyCost;
///
/// let cost = CopyCost::from_rate_mib_per_s(200)?;
/// // ~5 ns per byte at 200 MiB/s (binary mebibytes):
/// assert_eq!(cost.cost_of(1).as_ns(), 5);
/// # Ok::<(), letdma_model::ModelError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CopyCost {
    /// Numerator of the ns-per-byte rational.
    num: u64,
    /// Denominator of the ns-per-byte rational.
    den: u64,
}

impl CopyCost {
    /// A zero copy cost (useful to isolate programming overheads in tests).
    pub const ZERO: Self = Self { num: 0, den: 1 };

    /// Creates a cost of exactly `num/den` nanoseconds per byte.
    ///
    /// # Errors
    ///
    /// Returns [`crate::ModelError::InvalidParameter`] if `den == 0`.
    pub fn per_byte(num: u64, den: u64) -> Result<Self, crate::ModelError> {
        if den == 0 {
            return Err(crate::ModelError::InvalidParameter(
                "copy cost denominator must be nonzero".into(),
            ));
        }
        let g = crate::time::gcd_u64(num.max(1), den).max(1);
        // Keep exactness, just reduce the fraction (gcd of (0, den) is den).
        if num == 0 {
            return Ok(Self { num: 0, den: 1 });
        }
        Ok(Self {
            num: num / g,
            den: den / g,
        })
    }

    /// Creates a cost from a transfer rate in MiB/s (2^20 bytes per second).
    ///
    /// # Errors
    ///
    /// Returns [`crate::ModelError::InvalidParameter`] if `mib_per_s == 0`.
    pub fn from_rate_mib_per_s(mib_per_s: u64) -> Result<Self, crate::ModelError> {
        if mib_per_s == 0 {
            return Err(crate::ModelError::InvalidParameter(
                "transfer rate must be nonzero".into(),
            ));
        }
        // ns per byte = 1e9 / (mib_per_s * 2^20)
        Self::per_byte(1_000_000_000, mib_per_s * (1 << 20))
    }

    /// Worst-case (ceiling-rounded) time to copy `bytes` bytes.
    #[must_use]
    pub fn cost_of(self, bytes: u64) -> TimeNs {
        if self.num == 0 {
            return TimeNs::ZERO;
        }
        let total = u128::from(bytes) * u128::from(self.num);
        let den = u128::from(self.den);
        let ns = total.div_ceil(den);
        TimeNs::from_ns(u64::try_from(ns).expect("copy cost overflow"))
    }

    /// The exact ns-per-byte rational as `(numerator, denominator)`.
    #[must_use]
    pub const fn as_ratio(self) -> (u64, u64) {
        (self.num, self.den)
    }

    /// `true` when this per-byte cost is at least as large as `other`
    /// (exact rational comparison, no rounding).
    #[must_use]
    pub fn dominates(self, other: Self) -> bool {
        u128::from(self.num) * u128::from(other.den) >= u128::from(other.num) * u128::from(self.den)
    }
}

impl fmt::Display for CopyCost {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.den == 1 {
            write!(f, "{}ns/B", self.num)
        } else {
            write!(f, "{}/{}ns/B", self.num, self.den)
        }
    }
}

/// Timing parameters of DMA-driven LET communication (§V of the paper).
///
/// * `o_dp`  — worst-case time for a LET task to program one DMA transfer,
/// * `o_isr` — worst-case duration of the DMA-completion interrupt service
///   routine,
/// * `omega_c` — per-byte copy cost of the DMA engine.
///
/// The per-transfer overhead `λ_O = o_DP + o_ISR` of Constraint 9 is exposed
/// as [`CostModel::lambda_o`].
///
/// # Examples
///
/// ```
/// use letdma_model::{CopyCost, CostModel, TimeNs};
///
/// // The parameters used in §VII of the paper.
/// let costs = CostModel::new(
///     TimeNs::from_ns(3_360),
///     TimeNs::from_us(10),
///     CopyCost::per_byte(5, 1)?,
/// );
/// assert_eq!(costs.lambda_o(), TimeNs::from_ns(13_360));
/// assert_eq!(costs.transfer_duration(1_000), TimeNs::from_ns(13_360 + 5_000));
/// # Ok::<(), letdma_model::ModelError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CostModel {
    o_dp: TimeNs,
    o_isr: TimeNs,
    omega_c: CopyCost,
}

impl CostModel {
    /// Creates a cost model from its three parameters.
    #[must_use]
    pub const fn new(o_dp: TimeNs, o_isr: TimeNs, omega_c: CopyCost) -> Self {
        Self {
            o_dp,
            o_isr,
            omega_c,
        }
    }

    /// The cost model used in the paper's evaluation (§VII):
    /// `o_DP = 3.36 µs` (measured in \[8\]), `o_ISR = 10 µs`, and a DMA copy
    /// rate of 200 MB/s (5 ns per byte).
    #[must_use]
    pub fn paper_section_vii() -> Self {
        Self::new(
            TimeNs::from_ns(3_360),
            TimeNs::from_us(10),
            CopyCost { num: 5, den: 1 },
        )
    }

    /// Worst-case DMA programming time `o_DP`.
    #[must_use]
    pub const fn o_dp(&self) -> TimeNs {
        self.o_dp
    }

    /// Worst-case completion-ISR duration `o_ISR`.
    #[must_use]
    pub const fn o_isr(&self) -> TimeNs {
        self.o_isr
    }

    /// Per-byte DMA copy cost `ω_c`.
    #[must_use]
    pub const fn omega_c(&self) -> CopyCost {
        self.omega_c
    }

    /// Per-transfer overhead `λ_O = o_DP + o_ISR` (Constraint 9).
    #[must_use]
    pub fn lambda_o(&self) -> TimeNs {
        self.o_dp + self.o_isr
    }

    /// Worst-case duration of a single DMA transfer moving `bytes` bytes,
    /// including programming and completion-interrupt overheads.
    #[must_use]
    pub fn transfer_duration(&self, bytes: u64) -> TimeNs {
        self.lambda_o() + self.omega_c.cost_of(bytes)
    }

    /// `true` when every component of this model is at least as large as
    /// the corresponding component of `other` — i.e. this model is a sound
    /// worst-case envelope for `other`. The analysis and the MILP always
    /// use the system-level envelope; per-cluster engines may only be
    /// *faster*, so timing guarantees proved against the envelope carry
    /// over to every cluster.
    #[must_use]
    pub fn dominates(&self, other: &Self) -> bool {
        self.o_dp >= other.o_dp
            && self.o_isr >= other.o_isr
            && self.omega_c.dominates(other.omega_c)
    }
}

impl Default for CostModel {
    /// Defaults to the paper's §VII parameters.
    fn default() -> Self {
        Self::paper_section_vii()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn platform_memories_enumeration() {
        let p = Platform::new(3);
        let mems: Vec<_> = p.memories().collect();
        assert_eq!(mems.len(), 4);
        assert_eq!(mems[3], MemoryId::Global);
        assert!(p.contains_core(CoreId::new(2)));
        assert!(!p.contains_core(CoreId::new(3)));
    }

    #[test]
    #[should_panic(expected = "at least one core")]
    fn zero_core_platform_panics() {
        let _ = Platform::new(0);
    }

    #[test]
    fn single_cluster_by_default() {
        let p = Platform::new(4);
        assert_eq!(p.cluster_count(), 1);
        for core in p.cores() {
            assert_eq!(p.cluster_of(core), 0);
        }
    }

    #[test]
    fn cluster_block_partition() {
        // 5 cores in 2 clusters: blocks of ⌈5/2⌉ = 3 → {0,1,2}, {3,4}.
        let p = Platform::with_clusters(5, 2).unwrap();
        assert_eq!(p.cluster_count(), 2);
        let clusters: Vec<usize> = p.cores().map(|c| p.cluster_of(c)).collect();
        assert_eq!(clusters, vec![0, 0, 0, 1, 1]);
    }

    #[test]
    fn cluster_config_rejected() {
        assert!(Platform::with_clusters(0, 1).is_err());
        assert!(Platform::with_clusters(4, 0).is_err());
        assert!(Platform::with_clusters(2, 3).is_err());
        assert!(Platform::with_clusters(2, 2).is_ok());
    }

    #[test]
    fn copy_cost_rounds_up() {
        // 1/3 ns per byte: 10 bytes -> ceil(10/3) = 4 ns.
        let c = CopyCost::per_byte(1, 3).unwrap();
        assert_eq!(c.cost_of(10), TimeNs::from_ns(4));
        assert_eq!(c.cost_of(0), TimeNs::ZERO);
    }

    #[test]
    fn copy_cost_reduces_fraction() {
        let c = CopyCost::per_byte(10, 4).unwrap();
        assert_eq!(c.as_ratio(), (5, 2));
        assert_eq!(CopyCost::per_byte(0, 7).unwrap().as_ratio(), (0, 1));
    }

    #[test]
    fn copy_cost_rejects_zero_denominator() {
        assert!(CopyCost::per_byte(1, 0).is_err());
        assert!(CopyCost::from_rate_mib_per_s(0).is_err());
    }

    #[test]
    fn copy_cost_from_rate() {
        // 1 GiB/s => slightly under 1 ns/B; 2^30 bytes take 1e9 ns.
        let c = CopyCost::from_rate_mib_per_s(1024).unwrap();
        assert_eq!(c.cost_of(1 << 30), TimeNs::from_s(1));
    }

    #[test]
    fn cost_model_paper_values() {
        let m = CostModel::paper_section_vii();
        assert_eq!(m.o_dp(), TimeNs::from_ns(3_360));
        assert_eq!(m.o_isr(), TimeNs::from_us(10));
        assert_eq!(m.lambda_o(), TimeNs::from_ns(13_360));
        // 1 KiB at 5 ns/B = 5120 ns on top of λ_O.
        assert_eq!(
            m.transfer_duration(1024),
            TimeNs::from_ns(13_360 + 5 * 1024)
        );
    }

    #[test]
    fn zero_copy_cost_isolates_overheads() {
        let m = CostModel::new(TimeNs::from_us(1), TimeNs::from_us(2), CopyCost::ZERO);
        assert_eq!(m.transfer_duration(1 << 20), TimeNs::from_us(3));
    }

    #[test]
    fn copy_cost_dominance_is_exact() {
        let a = CopyCost::per_byte(5, 1).unwrap();
        let b = CopyCost::per_byte(9, 2).unwrap(); // 4.5 ns/B
        assert!(a.dominates(b));
        assert!(!b.dominates(a));
        assert!(a.dominates(a));
        assert!(b.dominates(CopyCost::ZERO));
    }

    #[test]
    fn cost_model_dominance_is_componentwise() {
        let envelope = CostModel::paper_section_vii();
        let faster = CostModel::new(
            TimeNs::from_ns(3_000),
            TimeNs::from_us(9),
            CopyCost::per_byte(4, 1).unwrap(),
        );
        assert!(envelope.dominates(&faster));
        assert!(!faster.dominates(&envelope));
        // One larger component breaks dominance.
        let slower_isr = CostModel::new(
            TimeNs::from_ns(3_000),
            TimeNs::from_us(11),
            CopyCost::per_byte(4, 1).unwrap(),
        );
        assert!(!envelope.dominates(&slower_isr));
    }
}
