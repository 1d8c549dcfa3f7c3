//! Walkthrough of the paper's Fig. 1: three producer→consumer pairs across
//! two cores, comparing the proposed protocol's communication ordering with
//! the original Giotto ordering.
//!
//! In the paper's example, task τ₂ is latency-sensitive; under Giotto it
//! only becomes ready after *all* writes and reads at the instant, while
//! the proposed protocol schedules the transfers τ₂ depends on first and
//! releases it early.
//!
//! Run with: `cargo run --release -p letdma --example fig1_walkthrough`

use letdma::model::SystemBuilder;
use letdma::opt::{Objective, OptConfig, Optimizer};
use letdma::sim::{simulate, Approach, SimConfig};
use std::error::Error;
use std::time::Duration;

fn main() -> Result<(), Box<dyn Error>> {
    // τ1, τ3, τ5 on P1; τ2, τ4, τ6 on P2 (as in Fig. 1).
    // τ2 has the shortest period: it is the latency-sensitive consumer.
    let mut b = SystemBuilder::new(2);
    let t1 = b
        .task("tau1")
        .period_ms(5)
        .core_index(0)
        .wcet_us(200)
        .add()?;
    let t3 = b
        .task("tau3")
        .period_ms(10)
        .core_index(0)
        .wcet_us(500)
        .add()?;
    let t5 = b
        .task("tau5")
        .period_ms(10)
        .core_index(0)
        .wcet_us(500)
        .add()?;
    let t2 = b
        .task("tau2")
        .period_ms(5)
        .core_index(1)
        .wcet_us(300)
        .add()?;
    let t4 = b
        .task("tau4")
        .period_ms(10)
        .core_index(1)
        .wcet_us(800)
        .add()?;
    let t6 = b
        .task("tau6")
        .period_ms(10)
        .core_index(1)
        .wcet_us(800)
        .add()?;

    // τ2's input is small; the other two pairs move bulky data.
    b.label("l1").size(256).writer(t1).reader(t2).add()?;
    b.label("l2").size(48 * 1024).writer(t3).reader(t4).add()?;
    b.label("l3").size(48 * 1024).writer(t5).reader(t6).add()?;
    let system = b.build()?;

    // Optimize with OBJ-DEL so the solver front-loads τ2's communications.
    let solution = Optimizer::new(&system)
        .config(
            OptConfig::new()
                .with_objective(Objective::MinDelayRatio)
                .with_time_limit(Duration::from_secs(20)),
        )
        .run()?;

    println!("optimized transfer order at s0:");
    for (g, tr) in solution.schedule.transfers().iter().enumerate() {
        let comms: Vec<String> = tr.comms().iter().map(ToString::to_string).collect();
        println!("  d{g}: [{}]", comms.join(", "));
    }

    // Simulate both protocols.
    let proposed = simulate(
        &system,
        Some(&solution.schedule),
        &SimConfig::for_approach(Approach::ProposedDma),
    )?;
    let giotto = simulate(
        &system,
        None,
        &SimConfig::for_approach(Approach::GiottoDmaA),
    )?;

    println!("\nworst-case data-acquisition latencies (proposed vs Giotto-DMA-A):");
    for task in system.tasks() {
        let p = proposed.latency(task.id());
        let g = giotto.latency(task.id());
        let ratio = if g.as_ns() > 0 {
            p.as_ns() as f64 / g.as_ns() as f64
        } else {
            1.0
        };
        println!(
            "  {:<5} {:>12} vs {:>12}  (ratio {:.3})",
            task.name(),
            p.to_string(),
            g.to_string(),
            ratio
        );
    }

    let speedup = giotto.latency(t2).as_ns() as f64 / proposed.latency(t2).as_ns() as f64;
    println!("\nτ2 becomes ready {speedup:.1}× earlier under the proposed protocol");
    Ok(())
}
