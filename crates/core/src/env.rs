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

/// Name of the environment variable selecting the simplex basis
/// representation (see `milp::SolveOptions::with_basis`): `sparse` (the
/// default factorized LU) or `dense` (the explicit-inverse oracle).
pub const BASIS_ENV: &str = "LETDMA_BASIS";

/// Name of the environment variable overriding the basis refactorization
/// cadence in pivots (see `milp::SolveOptions::with_refactor_interval`).
/// Unset defers to the per-basis default.
pub const REFACTOR_ENV: &str = "LETDMA_REFACTOR";

/// Name of the environment variable selecting the simplex
/// entering-variable pricing rule (`dantzig`, `partial`, `devex`); unset
/// defaults to partial pricing.
pub const PRICING_ENV: &str = "LETDMA_PRICING";

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

/// Resolves a typed choice the same way [`resolve_flag`] resolves a
/// boolean: `requested` if given, else `parse` applied to the (trimmed)
/// environment variable `name`, else `default`. An unparseable value is
/// ignored rather than being an error, for the same reason as in
/// [`resolve_flag`].
#[must_use]
pub fn resolve_choice<T>(
    name: &str,
    requested: Option<T>,
    default: T,
    parse: impl Fn(&str) -> Option<T>,
) -> T {
    if let Some(v) = requested {
        return v;
    }
    std::env::var(name)
        .ok()
        .and_then(|raw| parse(raw.trim()))
        .unwrap_or(default)
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

/// Resolves an optional positive-integer override: `requested` if given,
/// else the environment variable `name` parsed as a `u64 ≥ 1`, else
/// `None` (meaning "use the compiled-in / per-component default").
/// Zero and junk are ignored like unparseable values in [`resolve_flag`].
#[must_use]
pub fn resolve_override(name: &str, requested: Option<u64>) -> Option<u64> {
    if requested.is_some() {
        return requested;
    }
    std::env::var(name)
        .ok()
        .and_then(|raw| raw.trim().parse::<u64>().ok())
        .filter(|&v| v >= 1)
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
    fn choice_explicit_request_wins_and_unset_defaults() {
        #[derive(Debug, PartialEq, Clone, Copy)]
        enum Kind {
            A,
            B,
        }
        let parse = |s: &str| match s {
            "a" => Some(Kind::A),
            "b" => Some(Kind::B),
            _ => None,
        };
        assert_eq!(
            resolve_choice("LETDMA_TEST_CHOICE_UNSET", Some(Kind::A), Kind::B, parse),
            Kind::A
        );
        assert_eq!(
            resolve_choice("LETDMA_TEST_CHOICE_UNSET", None, Kind::B, parse),
            Kind::B
        );
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

    #[test]
    fn override_explicit_request_wins_and_unset_is_none() {
        assert_eq!(
            resolve_override("LETDMA_TEST_OVERRIDE_UNSET", Some(64)),
            Some(64)
        );
        assert_eq!(resolve_override("LETDMA_TEST_OVERRIDE_UNSET", None), None);
    }
}
