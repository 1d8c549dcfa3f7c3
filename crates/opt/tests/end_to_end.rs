//! End-to-end optimization tests: the MILP must beat or match the heuristic
//! and every solution must survive independent conformance checking.

use std::time::Duration;

use letdma_model::conformance::{verify, VerifyOptions};
use letdma_model::{CopyCost, CostModel, SystemBuilder, TimeNs};
use letdma_opt::{heuristic_solution, Objective, OptConfig, Optimizer, Provenance};

/// Two cores, four producer/consumer chains with mixed periods.
fn mixed_system() -> letdma_model::System {
    let mut b = SystemBuilder::new(2);
    b.set_costs(CostModel::new(
        TimeNs::from_ns(3_360),
        TimeNs::from_us(10),
        CopyCost::per_byte(5, 1).unwrap(),
    ));
    let p1 = b.task("p1").period_ms(5).core_index(0).add().unwrap();
    let c1 = b.task("c1").period_ms(5).core_index(1).add().unwrap();
    let p2 = b.task("p2").period_ms(10).core_index(0).add().unwrap();
    let c2 = b.task("c2").period_ms(10).core_index(1).add().unwrap();
    b.label("a").size(256).writer(p1).reader(c1).add().unwrap();
    b.label("b").size(512).writer(p1).reader(c1).add().unwrap();
    b.label("c").size(128).writer(p2).reader(c2).add().unwrap();
    b.label("d").size(64).writer(c2).reader(p2).add().unwrap(); // reverse direction
    b.build().unwrap()
}

#[test]
fn milp_matches_or_beats_heuristic_on_transfer_count() {
    let sys = mixed_system();
    let heuristic = heuristic_solution(&sys, false).unwrap();
    let optimized = Optimizer::new(&sys)
        .config(
            OptConfig::new()
                .with_objective(Objective::MinTransfers)
                .with_time_limit(Duration::from_secs(10)),
        )
        .run()
        .unwrap();
    assert!(
        optimized.num_transfers() <= heuristic.num_transfers(),
        "MILP ({}) must not be worse than heuristic ({})",
        optimized.num_transfers(),
        heuristic.num_transfers()
    );
    let violations = verify(
        &sys,
        &optimized.layout,
        &optimized.schedule,
        VerifyOptions::default(),
    );
    assert!(violations.is_empty(), "{violations:?}");
}

#[test]
fn obj_del_reduces_worst_ratio() {
    let sys = mixed_system();
    let heuristic = heuristic_solution(&sys, false).unwrap();
    let optimized = Optimizer::new(&sys)
        .config(
            OptConfig::new()
                .with_objective(Objective::MinDelayRatio)
                .with_time_limit(Duration::from_secs(10)),
        )
        .run()
        .unwrap();
    let h_ratio = heuristic.max_delay_ratio(&sys);
    let o_ratio = optimized.max_delay_ratio(&sys);
    assert!(
        o_ratio <= h_ratio + 1e-9,
        "OBJ-DEL ratio {o_ratio} must not exceed heuristic ratio {h_ratio}"
    );
}

#[test]
fn no_obj_finds_feasible_without_warm_start() {
    let sys = mixed_system();
    // Pure feasibility search has no heuristic fallback to lean on, so
    // give it a generous budget (it stops at the first incumbent).
    let sol = Optimizer::new(&sys)
        .config(
            OptConfig::new()
                .with_objective(Objective::None)
                .with_warm_start(false)
                .with_time_limit(Duration::from_secs(120)),
        )
        .run()
        .unwrap();
    assert!(matches!(sol.provenance, Provenance::Milp { .. }));
    let violations = verify(&sys, &sol.layout, &sol.schedule, VerifyOptions::default());
    assert!(violations.is_empty(), "{violations:?}");
}

#[test]
fn latencies_consistent_between_solution_and_schedule() {
    let sys = mixed_system();
    let sol = heuristic_solution(&sys, false).unwrap();
    let recomputed = sol.schedule.worst_case_latencies(&sys);
    for task in sys.tasks() {
        assert_eq!(sol.latency(task.id()), recomputed[&task.id()]);
    }
}

#[test]
fn tight_but_feasible_deadlines_solved() {
    let mut sys = mixed_system();
    // The heuristic's latencies are feasible bounds; set γ just above them
    // and re-solve with the MILP (which must find *some* schedule meeting
    // them, e.g. the heuristic's own).
    let heuristic = heuristic_solution(&sys, false).unwrap();
    for task in sys.tasks().to_vec() {
        let l = heuristic.latency(task.id());
        if l > TimeNs::ZERO {
            sys.set_acquisition_deadline(task.id(), Some(l + TimeNs::from_us(1)));
        }
    }
    let sol = Optimizer::new(&sys)
        .config(OptConfig::new().with_time_limit(Duration::from_secs(10)))
        .run()
        .unwrap();
    let violations = verify(&sys, &sol.layout, &sol.schedule, VerifyOptions::default());
    assert!(violations.is_empty(), "{violations:?}");
}
