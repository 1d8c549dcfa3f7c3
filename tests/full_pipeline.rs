//! End-to-end pipeline on the WATERS 2019 case study: sensitivity analysis
//! → optimization → conformance → simulation of all four approaches.

use letdma::analysis::{apply_gammas, derive_gammas, let_task_segments};
use letdma::model::conformance::{verify, VerifyOptions};
use letdma::model::TimeNs;
use letdma::opt::{heuristic_solution, Objective, OptConfig, Optimizer};
use letdma::sim::{simulate, Approach, SimConfig};
use letdma::waters::waters_system;
use std::time::Duration;

#[test]
fn waters_pipeline_alpha30() {
    let (mut system, tasks) = waters_system().unwrap();

    // Sensitivity procedure with LET-task interference from the heuristic
    // schedule.
    let warm = heuristic_solution(&system, false).unwrap();
    let segments = let_task_segments(&system, &warm.schedule);
    let sens = derive_gammas(&system, 30, &segments).unwrap();
    assert!(sens.schedulable, "α = 0.3 must be schedulable");
    apply_gammas(&mut system, &sens);

    // Optimize under the derived deadlines.
    let solution = Optimizer::new(&system)
        .config(
            OptConfig::new()
                .with_objective(Objective::MinDelayRatio)
                .with_time_limit(Duration::from_secs(20)),
        )
        .run()
        .unwrap();
    let violations = verify(
        &system,
        &solution.layout,
        &solution.schedule,
        VerifyOptions::default(),
    );
    assert!(violations.is_empty(), "{violations:?}");

    // Simulate the four approaches of §VII.
    let proposed = simulate(
        &system,
        Some(&solution.schedule),
        &SimConfig::for_approach(Approach::ProposedDma),
    )
    .unwrap();
    assert!(proposed.is_clean(), "proposed protocol must be clean");
    let cpu = simulate(&system, None, &SimConfig::for_approach(Approach::GiottoCpu)).unwrap();
    let dma_a = simulate(
        &system,
        None,
        &SimConfig::for_approach(Approach::GiottoDmaA),
    )
    .unwrap();
    let dma_b = simulate(
        &system,
        Some(&solution.schedule),
        &SimConfig::for_approach(Approach::GiottoDmaB),
    )
    .unwrap();

    // Fig. 2 shape: the proposed approach is never worse than any baseline,
    // and short-period tasks (DASM, CAN) see large improvements vs the
    // DMA-A baseline.
    for &task in &tasks.figure2_order() {
        let p = proposed.latency(task);
        for (name, report) in [("cpu", &cpu), ("dma-a", &dma_a), ("dma-b", &dma_b)] {
            assert!(
                p <= report.latency(task),
                "{}: proposed {p} worse than {name} {}",
                system.task(task).name(),
                report.latency(task)
            );
        }
    }
    for critical in [tasks.dasm, tasks.can] {
        let p = proposed.latency(critical).as_ns();
        let a = dma_a.latency(critical).as_ns();
        assert!(
            p * 2 <= a,
            "{}: expected ≥2× improvement vs DMA-A ({p} vs {a})",
            system.task(critical).name()
        );
    }

    // The optimizer honored every acquisition deadline.
    for task in system.tasks() {
        if let Some(gamma) = task.acquisition_deadline() {
            assert!(solution.latency(task.id()) <= gamma);
        }
    }
}

#[test]
fn waters_alpha_sweep_shape() {
    // §VII: small α are the hard cases. We require: (a) large α values are
    // schedulable and solvable; (b) feasibility is monotone in α for the
    // heuristic-fallback path (γ grows with α).
    let (system, _) = waters_system().unwrap();
    let warm = heuristic_solution(&system, false).unwrap();
    let segments = let_task_segments(&system, &warm.schedule);

    let mut feasible_alphas = Vec::new();
    for alpha in [10u32, 20, 30, 40, 50] {
        let (mut sys, _) = waters_system().unwrap();
        let sens = derive_gammas(&sys, alpha, &segments).unwrap();
        if !sens.schedulable {
            continue;
        }
        apply_gammas(&mut sys, &sens);
        if Optimizer::new(&sys)
            .config(OptConfig::new().with_time_limit(Duration::from_secs(10)))
            .run()
            .is_ok()
        {
            feasible_alphas.push(alpha);
        }
    }
    // Large α must be feasible; and feasibility must be upward closed.
    assert!(feasible_alphas.contains(&40));
    assert!(feasible_alphas.contains(&50));
    for w in feasible_alphas.windows(2) {
        assert!(w[0] < w[1]);
    }
}

#[test]
fn waters_heuristic_latencies_bounded_by_period() {
    // Sanity: with the paper's cost model, every data-acquisition latency
    // is far below the period (otherwise the LET schedule would be useless).
    let (system, _) = waters_system().unwrap();
    let sol = heuristic_solution(&system, false).unwrap();
    for task in system.tasks() {
        let l = sol.latency(task.id());
        assert!(
            l * 2 < task.period(),
            "{}: latency {l} too close to period {}",
            task.name(),
            task.period()
        );
    }
    let _ = TimeNs::ZERO;
}
