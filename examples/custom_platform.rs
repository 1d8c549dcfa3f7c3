//! Modeling a custom platform: three cores, a broadcast label with readers
//! on two different cores, same-core traffic excluded from LET, and
//! exporting the MILP in CPLEX LP format for external cross-checking.
//!
//! Run with: `cargo run --release -p letdma --example custom_platform`

use letdma::model::{MemoryId, SystemBuilder, TimeNs};
use letdma::opt::{formulation_model, heuristic_solution, OptConfig, Optimizer};
use letdma::sim::{simulate, Approach, SimConfig};
use std::error::Error;
use std::time::Duration;

fn main() -> Result<(), Box<dyn Error>> {
    let mut b = SystemBuilder::new(3);

    // A gateway on core 0 broadcasts vehicle state to consumers on cores 1
    // and 2; each consumer answers on its own channel.
    let gateway = b
        .task("gateway")
        .period_ms(10)
        .core_index(0)
        .wcet_us(800)
        .add()?;
    let vision = b
        .task("vision")
        .period_ms(20)
        .core_index(1)
        .wcet_us(6_000)
        .add()?;
    let planner = b
        .task("planner")
        .period_ms(10)
        .core_index(2)
        .wcet_us(2_000)
        .add()?;
    let logger = b
        .task("logger")
        .period_ms(40)
        .core_index(1)
        .wcet_us(1_000)
        .add()?;

    // Broadcast: one writer, readers on two different cores (two reads of
    // the same global slot → they can never share a DMA transfer).
    b.label("vehicle_state")
        .size(512)
        .writer(gateway)
        .readers([vision, planner])
        .add()?;
    b.label("obstacles")
        .size(8_192)
        .writer(vision)
        .reader(planner)
        .add()?;
    b.label("trace")
        .size(2_048)
        .writer(planner)
        .reader(logger)
        .add()?;
    // Same-core communication (vision → logger on core 1) stays out of the
    // LET communication set: it is double-buffered locally.
    b.label("vision_debug")
        .size(4_096)
        .writer(vision)
        .reader(logger)
        .add()?;

    let system = b.build()?;
    println!(
        "inter-core labels: {}, LET communications at s0: {}",
        system.inter_core_shared_labels().count(),
        letdma::model::let_semantics::comms_at_start(&system).len()
    );

    // Fast path: the constructive heuristic (no MILP search).
    let quick = heuristic_solution(&system, false)?;
    println!("heuristic: {} transfers", quick.num_transfers());

    // Full optimization.
    let config = OptConfig::new().with_time_limit(Duration::from_secs(10));
    let best = Optimizer::new(&system).config(config.clone()).run()?;
    println!("optimized: {} transfers", best.num_transfers());

    // Show the consumer-side layouts: each reader core holds its own copy.
    for core in system.platform().cores() {
        let mem = MemoryId::local(core);
        let slots = best.layout.slots(mem);
        if slots.is_empty() {
            continue;
        }
        let names: Vec<String> = slots.iter().map(ToString::to_string).collect();
        println!("  {mem}: [{}]", names.join(" | "));
    }

    // Validate timing end to end with the simulator.
    let report = simulate(
        &system,
        Some(&best.schedule),
        &SimConfig::for_approach(Approach::ProposedDma),
    )?;
    assert!(report.is_clean());
    println!(
        "simulated one hyperperiod ({}): {} transfers issued, DMA busy {}",
        TimeNs::from_ns(report.horizon.as_ns()),
        report.transfers_issued,
        report.dma_busy
    );

    // Export the MILP for inspection or external solvers.
    let lp = formulation_model(&system, &config).to_lp_format();
    println!(
        "\nCPLEX-LP export: {} lines (write it to disk to cross-check):",
        lp.lines().count()
    );
    for line in lp.lines().take(6) {
        println!("  {line}");
    }
    println!("  …");
    Ok(())
}
