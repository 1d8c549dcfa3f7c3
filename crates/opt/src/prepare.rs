//! Reusable solve preparation: the formulation + presolve cache seam.
//!
//! Building the §VI MILP and reducing it with
//! [`milp::presolve`](milp::presolve::presolve) are pure functions of the
//! [`System`]'s structure and a handful of [`OptConfig`] knobs — nothing
//! about them depends on the request that triggered the solve. The serve
//! layer exploits this: it hashes the model structure with
//! [`structure_key`], computes a [`Prepared`] once per distinct structure,
//! and re-submits of the same structure skip straight to branch and bound
//! via [`Optimizer::run_prepared`](crate::Optimizer::run_prepared).
//!
//! Reuse is *observably identical* to recomputation: the cached reduction
//! replays its recorded presolve tallies through the same counters and the
//! same instrument phase (see `milp`'s `Solver::reduction`), so a cache
//! hit's solver trajectory is byte-identical to a cold solve of the same
//! request — only the wall clock shrinks. This invariant is pinned by the
//! serve determinism regression.

use std::fmt;
use std::fmt::Write as _;
use std::sync::Arc;

use letdma_core::env::{resolve_flag, PRESOLVE_ENV};
use letdma_core::hash::Fnv64;
use letdma_model::System;
use milp::Presolved;

use crate::config::OptConfig;
use crate::formulation::{self, Formulation};

/// A structural fingerprint of the solve a `(system, config)` pair
/// defines: FNV-1a over the system's full debug rendering (tasks, labels,
/// platform, cost model — everything the formulation reads) and the
/// configuration knobs that shape the model (`objective`,
/// `include_private_labels`) plus the presolve on/off resolution.
///
/// Two pairs with equal keys produce the same MILP and the same reduction;
/// budgets, thread counts and deadlines deliberately do **not** enter the
/// key (they alter the search, not the model), so a cache keyed on it
/// serves requests with different deadlines from one entry.
#[must_use]
pub fn structure_key(system: &System, config: &OptConfig) -> u64 {
    let mut h = Fnv64::new();
    // `fmt::Write` for `Fnv64` is infallible; the `expect`s never fire.
    write!(h, "{system:?}").expect("hashing never fails");
    write!(
        h,
        "|{:?}|{}|{}",
        config.objective,
        config.include_private_labels,
        resolve_flag(PRESOLVE_ENV, config.presolve, true),
    )
    .expect("hashing never fails");
    h.finish()
}

/// The cacheable prefix of a solve: the built formulation and (when
/// presolve resolves on) its reduction, tagged with the [`structure_key`]
/// it was computed for.
///
/// Opaque by design — the formulation's internals are crate-private — and
/// cheap to share: wrap it in an `Arc` and hand clones to as many
/// concurrent [`run_prepared`](crate::Optimizer::run_prepared) calls as
/// needed (everything inside is immutable).
pub struct Prepared {
    pub(crate) formulation: Formulation,
    /// The presolve reduction. `None` either because presolve resolved
    /// off, or because the pass proved the model infeasible at preparation
    /// time — [`run_prepared`](crate::Optimizer::run_prepared) then
    /// re-runs the (cheap, immediately-failing) pass live so the error
    /// path is identical to an unprepared solve.
    pub(crate) reduction: Option<Arc<Presolved>>,
    /// The presolve flag as resolved at preparation time; pinned into the
    /// solve options so a later environment change cannot make the solve
    /// disagree with the preparation.
    pub(crate) presolve: bool,
    /// The root-basis slot shared by every solve of this structure: the
    /// first [`run_prepared`](crate::Optimizer::run_prepared) publishes its
    /// optimal root basis here, and later solves of the same structure
    /// start from it, skipping simplex phase 1 (see DESIGN.md
    /// §"Warm-start architecture"). The only cross-scenario reuse path.
    pub(crate) root_slot: Arc<milp::RootBasisSlot>,
    key: u64,
}

impl fmt::Debug for Prepared {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Prepared")
            .field("key", &format_args!("{:#018x}", self.key))
            .field("presolve", &self.presolve)
            .field("cached_reduction", &self.reduction.is_some())
            .field("root_basis", &self.root_slot.get().is_some())
            .finish_non_exhaustive()
    }
}

impl Prepared {
    /// The [`structure_key`] this preparation was computed for.
    #[must_use]
    pub fn key(&self) -> u64 {
        self.key
    }

    /// Whether a presolve reduction is cached (false when presolve
    /// resolved off or proved the model infeasible at preparation time).
    #[must_use]
    pub fn has_reduction(&self) -> bool {
        self.reduction.is_some()
    }
}

/// Builds the cacheable prefix of a solve: the §VI formulation for
/// `(system, config)` and, when presolve resolves on, its reduction.
///
/// The integrality tolerance fed to the presolve pass is the solver's
/// [`milp::INTEGRALITY_TOL`], so the cached reduction is the one a live
/// solve would compute.
#[must_use]
pub fn prepare(system: &System, config: &OptConfig) -> Prepared {
    let key = structure_key(system, config);
    let formulation = formulation::build(system, config);
    let presolve = resolve_flag(PRESOLVE_ENV, config.presolve, true);
    let reduction = if presolve {
        milp::presolve::presolve(&formulation.model, milp::INTEGRALITY_TOL)
            .ok()
            .map(Arc::new)
    } else {
        None
    };
    Prepared {
        formulation,
        reduction,
        presolve,
        root_slot: Arc::new(milp::RootBasisSlot::new()),
        key,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use letdma_model::SystemBuilder;

    fn pair_system(label_size: u64) -> System {
        let mut b = SystemBuilder::new(2);
        let p = b.task("p").period_ms(5).core_index(0).add().unwrap();
        let c = b.task("c").period_ms(5).core_index(1).add().unwrap();
        b.label("l")
            .size(label_size)
            .writer(p)
            .reader(c)
            .add()
            .unwrap();
        b.build().unwrap()
    }

    #[test]
    fn key_is_stable_and_structure_sensitive() {
        let sys = pair_system(64);
        let config = OptConfig::default();
        assert_eq!(
            structure_key(&sys, &config),
            structure_key(&sys, &config),
            "the key is a pure function"
        );
        assert_ne!(
            structure_key(&sys, &config),
            structure_key(&pair_system(128), &config),
            "a different label size is a different structure"
        );
        assert_ne!(
            structure_key(&sys, &config),
            structure_key(
                &sys,
                &OptConfig::default().with_objective(crate::Objective::MinTransfers)
            ),
            "the objective shapes the model"
        );
    }

    #[test]
    fn key_ignores_budgets_and_deadlines() {
        let sys = pair_system(64);
        let base = OptConfig::default();
        let tuned = OptConfig::default()
            .with_time_limit(std::time::Duration::from_secs(1))
            .with_node_limit(3)
            .with_threads(4)
            .with_deadline(std::time::Instant::now() + std::time::Duration::from_secs(5));
        assert_eq!(structure_key(&sys, &base), structure_key(&sys, &tuned));
    }

    #[test]
    fn prepare_caches_a_reduction_when_presolve_is_on() {
        let sys = pair_system(64);
        let config = OptConfig::default().with_presolve(true);
        let prepared = prepare(&sys, &config);
        assert!(prepared.has_reduction());
        assert_eq!(prepared.key(), structure_key(&sys, &config));

        let off = prepare(&sys, &OptConfig::default().with_presolve(false));
        assert!(!off.has_reduction());
        assert_ne!(
            prepared.key(),
            off.key(),
            "presolve on/off is part of the structure"
        );
    }
}
