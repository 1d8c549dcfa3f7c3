//! Seeded fault campaign over the whole optimization pipeline: with every
//! fault site of [`letdma_core::fault`] armed in turn against seeded
//! WATERS-style workloads, each run must end in a Properties 1–3–valid
//! solution or a clean typed [`OptError`] — never a panic escaping
//! [`Optimizer::run`], never a hang, never an unverifiable answer.
//!
//! The fault plane is process-global, so this suite owns its test binary
//! and serializes its tests behind [`plane`], disarming on entry and exit.

use std::sync::Mutex;
use std::time::Duration;

use letdma_core::fault::{self, FaultSite, FaultSpec};
use letdma_model::conformance::{verify, VerifyOptions};
use letdma_model::System;
use letdma_opt::{OptConfig, Optimizer, Resolution};
use waters2019::gen::{generate, GenConfig};

static PLANE: Mutex<()> = Mutex::new(());

/// Runs `f` with exclusive ownership of the (process-global) fault plane,
/// fully disarmed on entry and on exit.
fn plane<T>(f: impl FnOnce() -> T) -> T {
    let _guard = PLANE.lock().unwrap_or_else(|e| e.into_inner());
    fault::disarm_all();
    let out = f();
    fault::disarm_all();
    out
}

/// Runs `f` with panic messages suppressed (injected worker panics are
/// expected; their default-hook backtraces are noise).
fn quiet_panics<T>(f: impl FnOnce() -> T) -> T {
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let out = f();
    std::panic::set_hook(hook);
    out
}

/// A small seeded WATERS-style workload — big enough to branch, small
/// enough that a node-limited campaign run finishes in milliseconds.
fn campaign_system(seed: u64) -> System {
    generate(&GenConfig {
        tasks: 4,
        labels: 4,
        seed,
        ..GenConfig::default()
    })
}

/// One campaign run: bounded budget, deterministic merging. The node
/// limit is the termination backstop under persistent faults (conservative
/// re-branching of unresolved nodes explores, it must never spin).
fn run_campaign(
    system: &System,
    threads: usize,
) -> Result<letdma_opt::LetDmaSolution, letdma_opt::OptError> {
    Optimizer::new(system)
        .config(
            OptConfig::new()
                .with_time_limit(Duration::from_secs(5))
                .with_node_limit(200)
                .with_threads(threads),
        )
        .run()
}

/// Asserts the campaign contract for one outcome: a returned solution
/// must survive the independent conformance checker (Properties 1–3,
/// contiguity, acquisition deadlines); an error is acceptable as long as
/// it is typed (which it is, by construction — the call returned).
fn assert_valid_or_typed(
    system: &System,
    outcome: &Result<letdma_opt::LetDmaSolution, letdma_opt::OptError>,
    context: &str,
) {
    if let Ok(sol) = outcome {
        let violations = verify(
            system,
            &sol.layout,
            &sol.schedule,
            VerifyOptions {
                include_private_labels: false,
                check_acquisition_deadlines: true,
                check_property3: true,
            },
        );
        assert!(violations.is_empty(), "{context}: {violations:?}");
    }
}

/// Every fault site, armed to fire on every poll, against three seeds at
/// one and two worker threads: each run must end in a conformant solution
/// or a typed error. (With the default heuristic warm start a persistent
/// worker panic resolves to the warm incumbent; the explicit rung tests
/// below pin the retry and fallback paths.)
#[test]
fn every_site_yields_valid_solution_or_typed_error() {
    plane(|| {
        for site in FaultSite::ALL {
            for seed in [1u64, 7, 42] {
                for threads in [1usize, 2] {
                    fault::disarm_all();
                    fault::arm(site, FaultSpec::always());
                    let system = campaign_system(seed);
                    let outcome = quiet_panics(|| run_campaign(&system, threads));
                    let context = format!("site={} seed={seed} threads={threads}", site.name());
                    assert_valid_or_typed(&system, &outcome, &context);
                }
            }
        }
    });
}

/// Degradation rung 1: a worker panic that kills only the *first* search
/// (one fire, no warm-started incumbent to hide behind) is absorbed by
/// the reduced-budget retry, and the solution says so.
#[test]
fn single_panic_resolves_via_milp_retry() {
    plane(|| {
        fault::arm(FaultSite::WorkerPanic, FaultSpec::always().limit_fires(1));
        let system = campaign_system(9);
        // A generous node budget: the retry only gets half of it, and it
        // must be enough to actually find an incumbent without the warm
        // start (the fire is spent on the first search's root).
        let sol = quiet_panics(|| {
            Optimizer::new(&system)
                .config(
                    OptConfig::new()
                        .with_warm_start(false)
                        .with_time_limit(Duration::from_secs(30))
                        .with_node_limit(100_000),
                )
                .run()
        })
        .expect("the retry must succeed once the fault is spent");
        assert_eq!(sol.resolution, Resolution::MilpRetry);
        assert_valid_or_typed(&system, &Ok(sol), "milp-retry rung");
    });
}

/// Degradation rung 2: panics persisting through the retry, with no warm
/// start, land on the conformance-verified heuristic fallback.
#[test]
fn persistent_panics_fall_back_to_heuristic() {
    plane(|| {
        fault::arm(FaultSite::WorkerPanic, FaultSpec::always());
        let system = campaign_system(9);
        let sol = quiet_panics(|| {
            Optimizer::new(&system)
                .config(OptConfig::new().with_warm_start(false).with_node_limit(200))
                .run()
        })
        .expect("the heuristic fallback must absorb persistent panics");
        assert_eq!(sol.resolution, Resolution::HeuristicFallback);
        assert_valid_or_typed(&system, &Ok(sol), "heuristic-fallback rung");
    });
}

/// Probabilistic arming (30% per poll, seeded) across all sites at once —
/// the mixed-fault half of the campaign. Outcomes vary by seed, but the
/// contract is seed-independent: valid or typed, never a panic.
#[test]
fn mixed_probabilistic_faults_keep_the_contract() {
    plane(|| {
        for seed in [3u64, 11, 97] {
            fault::disarm_all();
            for (i, site) in FaultSite::ALL.into_iter().enumerate() {
                fault::arm(site, FaultSpec::with_probability(seed ^ i as u64, 0.3));
            }
            let system = campaign_system(seed);
            let outcome = quiet_panics(|| run_campaign(&system, 2));
            assert_valid_or_typed(&system, &outcome, &format!("mixed campaign seed={seed}"));
        }
    });
}

/// The transparency half of the acceptance criterion: a zero-fault run
/// with every site armed at probability zero is identical (layout,
/// schedule, latencies, objective, resolution) to the fully disarmed run,
/// and two disarmed runs agree with each other.
#[test]
fn zero_fault_trajectories_are_unchanged() {
    plane(|| {
        let system = campaign_system(5);
        let baseline = run_campaign(&system, 2).expect("disarmed run solves");
        let again = run_campaign(&system, 2).expect("disarmed rerun solves");
        for (i, site) in FaultSite::ALL.into_iter().enumerate() {
            fault::arm(site, FaultSpec::with_probability(0xFEED ^ i as u64, 0.0));
        }
        let armed = run_campaign(&system, 2).expect("zero-probability run solves");
        for (run, name) in [(&again, "disarmed rerun"), (&armed, "p=0 armed run")] {
            assert_eq!(run.layout, baseline.layout, "{name}: layout");
            assert_eq!(run.schedule, baseline.schedule, "{name}: schedule");
            assert_eq!(run.latencies, baseline.latencies, "{name}: latencies");
            assert_eq!(
                run.objective_value, baseline.objective_value,
                "{name}: objective"
            );
            assert_eq!(run.resolution, baseline.resolution, "{name}: resolution");
        }
        assert_eq!(baseline.resolution, Resolution::Milp);
    });
}
