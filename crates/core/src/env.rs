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
/// [`crate::parallel::resolve_threads`], which resolves through
/// [`resolve_size`] with a sequential default of 1).
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

/// Resolves a positive size (worker counts, queue capacities): `requested`
/// (clamped to ≥ 1) if given, else the environment variable `name` parsed
/// as a `usize ≥ 1`, else `default`. Unparsable or zero environment values
/// are ignored, for the same reason as in [`resolve_flag`].
#[must_use]
pub fn resolve_size(name: &str, requested: Option<usize>, default: usize) -> usize {
    if let Some(n) = requested {
        return n.max(1);
    }
    std::env::var(name)
        .ok()
        .and_then(|raw| raw.trim().parse::<usize>().ok())
        .filter(|&n| n >= 1)
        .unwrap_or(default)
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
        assert_eq!(resolve_size("LETDMA_TEST_SIZE_UNSET", Some(4), 1), 4);
        assert_eq!(
            resolve_size("LETDMA_TEST_SIZE_UNSET", Some(0), 1),
            1,
            "zero clamps to one"
        );
        assert_eq!(resolve_size("LETDMA_TEST_SIZE_UNSET", None, 3), 3);
    }
}
