//! Thread-count resolution for the workspace's parallel facilities.
//!
//! Every layer that can fan work out over `std::thread` (the MILP
//! branch-and-bound worker pool, the scenario-level `optimize_batch`
//! driver, the bench panels, the serve worker fleet) resolves its worker
//! count through [`resolve_threads`], which routes through the shared
//! [`crate::env::resolve_size`] precedence helper so one environment
//! variable governs them all:
//!
//! 1. an explicit request (config field, builder call, CLI flag) wins;
//! 2. otherwise the `LETDMA_THREADS` environment variable is consulted;
//! 3. otherwise the pool stays sequential (one worker).
//!
//! The default is deliberately `1`, not the machine's core count: the
//! deterministic solver produces byte-identical trajectories at any
//! thread count, but wall-clock numbers do depend on it, and a
//! reproduction harness should opt *into* parallelism, not discover it.

/// Name of the environment variable consulted by [`resolve_threads`]
/// (re-exported from [`crate::env`], where all knob names live).
pub use crate::env::THREADS_ENV;

/// Resolves a worker-pool size: `requested` (clamped to ≥ 1) if given,
/// else the `LETDMA_THREADS` environment variable, else `1`.
///
/// Unparsable or zero environment values are ignored (sequential
/// fallback) rather than being an error: a reproduction run must never
/// abort because of a stray variable.
#[must_use]
pub fn resolve_threads(requested: Option<usize>) -> usize {
    crate::env::resolve_size(THREADS_ENV, requested, 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn explicit_request_wins() {
        assert_eq!(resolve_threads(Some(4)), 4);
        assert_eq!(resolve_threads(Some(0)), 1, "zero clamps to sequential");
    }

    // The environment-variable path is covered by `scripts/ci.sh`, which
    // runs the whole suite under LETDMA_THREADS=1 and =4; mutating the
    // process environment from a multi-threaded test harness would race.
    #[test]
    fn default_is_sequential_or_env() {
        let n = resolve_threads(None);
        assert!(n >= 1);
    }
}
