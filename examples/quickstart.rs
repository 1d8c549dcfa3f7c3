//! Quickstart: model a two-core system, optimize the DMA communication
//! schedule and memory layout, and inspect the result.
//!
//! Run with: `cargo run --release -p letdma --example quickstart`

use letdma::model::SystemBuilder;
use letdma::opt::{Objective, OptConfig, Optimizer};
use std::error::Error;
use std::time::Duration;

fn main() -> Result<(), Box<dyn Error>> {
    // --- 1. Describe the platform and the application --------------------
    // Two cores, each with a private scratchpad, one global memory, one DMA.
    let mut b = SystemBuilder::new(2);

    // A sensor-processing pipeline that crosses the cores.
    let camera = b
        .task("camera")
        .period_ms(33)
        .core_index(0)
        .wcet_us(2_000)
        .add()?;
    let radar = b
        .task("radar")
        .period_ms(10)
        .core_index(0)
        .wcet_us(500)
        .add()?;
    let fusion = b
        .task("fusion")
        .period_ms(33)
        .core_index(1)
        .wcet_us(5_000)
        .add()?;
    let control = b
        .task("control")
        .period_ms(10)
        .core_index(0)
        .wcet_us(800)
        .add()?;

    b.label("frame")
        .size(64 * 1024)
        .writer(camera)
        .reader(fusion)
        .add()?;
    b.label("radar_hits")
        .size(2_048)
        .writer(radar)
        .reader(fusion)
        .add()?;
    b.label("objects")
        .size(4_096)
        .writer(fusion)
        .reader(control)
        .add()?;

    let system = b.build()?;
    println!(
        "system: {} tasks, {} inter-core labels, hyperperiod {}",
        system.tasks().len(),
        system.inter_core_shared_labels().count(),
        system.hyperperiod()
    );

    // --- 2. Jointly optimize allocation and DMA schedule -----------------
    let solution = Optimizer::new(&system)
        .config(
            OptConfig::new()
                .with_objective(Objective::MinDelayRatio) // the paper's OBJ-DEL
                .with_time_limit(Duration::from_secs(10)),
        )
        .run()?;

    // --- 3. Inspect the result -------------------------------------------
    println!("\nDMA transfers at the synchronous start (execution order):");
    for (g, transfer) in solution.schedule.transfers().iter().enumerate() {
        let comms: Vec<String> = transfer.comms().iter().map(ToString::to_string).collect();
        println!(
            "  d{g}: {} → {}  [{}]  {} B",
            transfer.source_memory(),
            transfer.destination_memory(),
            comms.join(", "),
            transfer.bytes(&system),
        );
    }

    println!("\nMemory layouts:");
    print!("{}", solution.layout.render(&system));

    println!("\nWorst-case data-acquisition latencies:");
    for task in system.tasks() {
        println!("  {:<8} λ = {}", task.name(), solution.latency(task.id()));
    }
    println!(
        "\nmax λ_i/T_i = {:.6} ({} transfers)",
        solution.max_delay_ratio(&system),
        solution.num_transfers()
    );
    Ok(())
}
