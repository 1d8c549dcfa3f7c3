//! The full §VII pipeline on the WATERS 2019 case study:
//!
//! 1. derive data-acquisition deadlines with the sensitivity procedure
//!    (`γ_i = α·S_i`);
//! 2. jointly optimize the memory allocation and the DMA transfer schedule;
//! 3. simulate all four communication approaches over one hyperperiod;
//! 4. print the per-task latency ratios of Fig. 2.
//!
//! Run with: `cargo run --release -p letdma --example waters_case_study`

use letdma::analysis::{derive_gammas, let_task_segments};
use letdma::opt::{heuristic_solution, Objective, OptConfig, Optimizer};
use letdma::sim::{simulate, Approach, SimConfig};
use letdma::waters::waters_system;
use std::error::Error;
use std::time::Duration;

fn main() -> Result<(), Box<dyn Error>> {
    let (mut system, tasks) = waters_system()?;
    let alpha_pct = 30;

    // --- 1. sensitivity procedure ----------------------------------------
    // Interference of the LET task (§V-C) is derived from the heuristic
    // schedule (one sporadic segment per transfer group).
    let warm = heuristic_solution(&system, false)?;
    let segments = let_task_segments(&system, &warm.schedule);
    let sensitivity = derive_gammas(&system, alpha_pct, &segments)?;
    println!(
        "sensitivity (α = {}%): schedulable = {}",
        alpha_pct, sensitivity.schedulable
    );
    for &task in &tasks.figure2_order() {
        println!(
            "  {:<5} γ = {}",
            system.task(task).name(),
            sensitivity.gammas[&task]
        );
    }
    letdma::analysis::apply_gammas(&mut system, &sensitivity);

    // --- 2. optimize -------------------------------------------------------
    let solution = Optimizer::new(&system)
        .config(
            OptConfig::new()
                .with_objective(Objective::MinDelayRatio)
                .with_time_limit(Duration::from_secs(60)),
        )
        .run()?;
    println!(
        "\noptimized: {} DMA transfers, max λ/T = {:.5}",
        solution.num_transfers(),
        solution.max_delay_ratio(&system)
    );

    // --- 3. simulate the four approaches ----------------------------------
    let proposed = simulate(
        &system,
        Some(&solution.schedule),
        &SimConfig::for_approach(Approach::ProposedDma),
    )?;
    let cpu = simulate(&system, None, &SimConfig::for_approach(Approach::GiottoCpu))?;
    let dma_a = simulate(
        &system,
        None,
        &SimConfig::for_approach(Approach::GiottoDmaA),
    )?;
    let dma_b = simulate(
        &system,
        Some(&solution.schedule),
        &SimConfig::for_approach(Approach::GiottoDmaB),
    )?;

    // --- 4. Fig. 2-style ratio table ---------------------------------------
    println!("\nλ(proposed)/λ(baseline) per task (smaller is better):");
    println!(
        "  {:<5} {:>12} {:>14} {:>14}",
        "task", "vs CPU", "vs DMA-A", "vs DMA-B"
    );
    for &task in &tasks.figure2_order() {
        let p = proposed.latency(task).as_ns() as f64;
        let ratio = |b: u64| if b == 0 { 1.0 } else { p / b as f64 };
        println!(
            "  {:<5} {:>12.4} {:>14.4} {:>14.4}",
            system.task(task).name(),
            ratio(cpu.latency(task).as_ns()),
            ratio(dma_a.latency(task).as_ns()),
            ratio(dma_b.latency(task).as_ns()),
        );
    }
    let best = tasks
        .figure2_order()
        .iter()
        .map(|&t| {
            let p = proposed.latency(t).as_ns() as f64;
            let b = dma_a.latency(t).as_ns().max(1) as f64;
            1.0 - p / b
        })
        .fold(0.0f64, f64::max);
    println!("\nbest improvement vs Giotto-DMA-A: {:.1}%", best * 100.0);
    Ok(())
}
