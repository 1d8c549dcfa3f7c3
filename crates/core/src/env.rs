//! Feature-flag and knob resolution shared by the solver layers.
//!
//! Every tunable in the workspace resolves through one of the helpers
//! below, all implementing the same precedence: an explicit request
//! (config field, builder call, CLI flag) always wins, otherwise a named
//! environment variable is consulted, otherwise a compiled-in default
//! applies. One variable then governs a feature across every entry point
//! (library, tests, `repro`, the serve server), which is how
//! `scripts/ci.sh` runs the whole suite under `LETDMA_PRESOLVE=0` and `=1`
//! without plumbing a flag into each harness. The full knob/variable table
//! lives in DESIGN.md §"Configuration precedence".

/// Name of the environment variable governing MILP presolve
/// (see `milp::SolveOptions::with_presolve`).
pub const PRESOLVE_ENV: &str = "LETDMA_PRESOLVE";

/// Name of the environment variable sizing the worker pools (see
/// [`resolve_threads`]).
pub const THREADS_ENV: &str = "LETDMA_THREADS";

/// Resolves a boolean feature flag: `requested` if given, else the
/// environment variable `name`, else `default`.
///
/// Accepted environment spellings (case-insensitive, trimmed): `1`, `true`,
/// `on`, `yes` enable; `0`, `false`, `off`, `no` disable. Anything else is
/// ignored (the default applies) rather than being an error: a
/// reproduction run must never abort because of a stray variable.
#[must_use]
pub fn resolve_flag(name: &str, requested: Option<bool>, default: bool) -> bool {
    if let Some(v) = requested {
        return v;
    }
    match std::env::var(name) {
        Ok(raw) => match raw.trim().to_ascii_lowercase().as_str() {
            "1" | "true" | "on" | "yes" => true,
            "0" | "false" | "off" | "no" => false,
            _ => default,
        },
        Err(_) => default,
    }
}

/// Resolves a worker-pool size (the MILP node pool, the serve workers):
/// `requested` (clamped to ≥ 1) if given, else [`THREADS_ENV`] parsed as a
/// `usize ≥ 1`, else `1`. Unparsable or zero environment values are
/// ignored, for the same reason as in [`resolve_flag`].
///
/// The default is deliberately sequential, not the machine's core count:
/// the solver produces byte-identical answers at any thread count, but
/// wall-clock numbers do depend on it, and a reproduction harness should
/// opt *into* parallelism, not discover it.
#[must_use]
pub fn resolve_threads(requested: Option<usize>) -> usize {
    if let Some(n) = requested {
        return n.max(1);
    }
    std::env::var(THREADS_ENV)
        .ok()
        .and_then(|raw| raw.trim().parse::<usize>().ok())
        .filter(|&n| n >= 1)
        .unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn explicit_request_wins() {
        // The variable is deliberately unset in the test environment for
        // these names; explicit requests short-circuit before the lookup.
        assert!(resolve_flag("LETDMA_TEST_FLAG_UNSET", Some(true), false));
        assert!(!resolve_flag("LETDMA_TEST_FLAG_UNSET", Some(false), true));
    }

    // The environment-variable path is covered by `scripts/ci.sh`, which
    // runs the whole suite under LETDMA_PRESOLVE=0 and =1; mutating the
    // process environment from a multi-threaded test harness would race.
    #[test]
    fn unset_variable_falls_back_to_default() {
        assert!(resolve_flag("LETDMA_TEST_FLAG_SURELY_UNSET", None, true));
        assert!(!resolve_flag("LETDMA_TEST_FLAG_SURELY_UNSET", None, false));
    }

    #[test]
    fn size_explicit_request_wins_and_clamps() {
        assert_eq!(resolve_threads(Some(4)), 4);
        assert_eq!(resolve_threads(Some(0)), 1, "zero clamps to sequential");
    }

    // `scripts/ci.sh` also runs the suite under LETDMA_THREADS=4, where this
    // checks that an explicit count beats the variable.
    #[test]
    fn threads_explicit_request_wins() {
        assert_eq!(resolve_threads(Some(1)), 1);
        assert_eq!(resolve_threads(Some(3)), 3);
    }

    // LETDMA_THREADS itself is covered by `scripts/ci.sh`, which runs the
    // whole suite at 1 and 4.
    #[test]
    fn default_is_sequential_or_env() {
        assert!(resolve_threads(None) >= 1);
    }
}
