//! `table1`: the six Table I cells (α ∈ {0.2, 0.4} × NO-OBJ / OBJ-DMAT /
//! OBJ-DEL) on the WATERS 2019 case study, each one node-limited
//! `Optimizer::run`, back to back in a closed loop.
//!
//! At a one-node budget an OBJ cell is almost all `milp` search on cold,
//! large LPs; the workload never touches `sim` or `serve`.

use std::collections::BTreeMap;

use letdma::analysis::{apply_gammas, derive_gammas, let_task_segments};
use letdma::core::{Rng, SolverStats, Xoshiro256};
use letdma::model::conformance::{verify, VerifyOptions};
use letdma::model::System;
use letdma::opt::{
    heuristic_solution, LetDmaSolution, Objective, OptConfig, Optimizer, Provenance, Resolution,
};
use letdma::waters::waters_system;

use crate::harness::{Pass, Traced, Workload};
use crate::trace::{PhaseSpans, Tracer};

/// Branch-and-bound node budget of every cell: the work per cell is fixed,
/// so deterministic counts repeat exactly and no time limit is needed.
const NODES: u64 = 1;
/// The α values of Table I, in percent.
const ALPHAS: [u32; 2] = [20, 40];
/// α of the warm-up cells, disjoint from the timed ones.
const WARM_UP_ALPHA: u32 = 30;
const OBJECTIVES: [Objective; 3] = [
    Objective::None,
    Objective::MinTransfers,
    Objective::MinDelayRatio,
];

struct Cell {
    objective: Objective,
    system: System,
    config: OptConfig,
    /// Transfer count of the constructive heuristic, the bound the MILP
    /// must meet (computed on first use, outside the timed operation).
    heuristic_transfers: Option<usize>,
}

/// The Table I workload.
pub struct Table1 {
    cells: Vec<Cell>,
}

/// The WATERS case study with acquisition deadlines derived for each α.
pub fn waters_alphas(alphas: &[u32], tracer: &mut Tracer) -> Result<Vec<System>, String> {
    let (base, _) = tracer
        .span("waters.gen", |_| waters_system())
        .map_err(|e| format!("WATERS case study: {e}"))?;
    tracer.span("analysis.gammas", |_| {
        let warm =
            heuristic_solution(&base, false).map_err(|e| format!("WATERS heuristic: {e}"))?;
        let segments = let_task_segments(&base, &warm.schedule);
        alphas
            .iter()
            .map(|&alpha| {
                let mut system = base.clone();
                let sens = derive_gammas(&system, alpha, &segments)
                    .map_err(|e| format!("α = {alpha}%: {e}"))?;
                if !sens.schedulable {
                    return Err(format!("α = {alpha}% is not schedulable"));
                }
                apply_gammas(&mut system, &sens);
                Ok(system)
            })
            .collect()
    })
}

impl Workload for Table1 {
    fn setup(seed: u64, warm_up: bool, tracer: &mut Tracer) -> Result<Self, String> {
        let alphas: &[u32] = if warm_up { &[WARM_UP_ALPHA] } else { &ALPHAS };
        let systems = waters_alphas(alphas, tracer)?;
        let mut cells: Vec<Cell> = OBJECTIVES
            .iter()
            .flat_map(|&objective| {
                systems.iter().map(move |system| Cell {
                    objective,
                    system: system.clone(),
                    config: OptConfig::new()
                        .with_objective(objective)
                        .with_node_limit(NODES)
                        .without_time_limit()
                        .with_threads(1),
                    heuristic_transfers: None,
                })
            })
            .collect();
        // The seed orders the cells: same work, different sequence.
        Xoshiro256::seed_from_u64(seed).shuffle(&mut cells);
        Ok(Self { cells })
    }

    fn pass(&mut self, tracer: &mut Tracer) -> Pass {
        let mut pass = Pass::default();
        let (mut transfers, mut delay_ratio, mut nodes, mut iterations) = (0, 0.0f64, 0, 0);
        for cell in &mut self.cells {
            let mut stats = SolverStats::new();
            let (result, elapsed) = tracer.op("table1.cell", |t| {
                t.span("opt.run", |t| {
                    let optimizer = Optimizer::new(&cell.system).config(cell.config.clone());
                    if t.enabled() {
                        optimizer
                            .instrument(&mut PhaseSpans::new(t, &mut stats))
                            .run()
                    } else {
                        optimizer.run()
                    }
                })
            });
            let failure = match &result {
                Err(e) => Some(format!("{}: {e}", cell.objective)),
                Ok(solution) => check(cell, solution).err(),
            };
            if let Ok(solution) = &result {
                transfers += solution.num_transfers() as u64;
                if cell.objective == Objective::MinDelayRatio {
                    delay_ratio = delay_ratio.max(solution.max_delay_ratio(&cell.system));
                }
                if let Provenance::Milp { stats, .. } = &solution.provenance {
                    nodes += stats.nodes;
                    iterations += stats.lp_iterations + stats.dual_iterations;
                }
            }
            pass.record(elapsed, failure);
            pass.stats.absorb(&stats);
        }
        pass.det.insert("transfers", transfers);
        pass.det.insert("delay_ratio", delay_ratio.to_bits());
        pass.det.insert("milp.nodes", nodes);
        pass.det.insert("milp.simplex_iterations", iterations);
        pass
    }

    fn layers(&self, traced: &Traced<'_>, out: &mut BTreeMap<&'static str, f64>) {
        traced.solver_layers(out);
    }
}

/// The output checks of one cell: MILP resolution, conformance of the
/// returned layout and schedule, and no more transfers than the heuristic.
fn check(cell: &mut Cell, solution: &LetDmaSolution) -> Result<(), String> {
    let name = cell.objective;
    if solution.resolution != Resolution::Milp {
        return Err(format!("{name}: resolved as {}", solution.resolution));
    }
    let violations = verify(
        &cell.system,
        &solution.layout,
        &solution.schedule,
        VerifyOptions::default(),
    );
    if let Some(v) = violations.first() {
        return Err(format!(
            "{name}: {} conformance violations, first {v:?}",
            violations.len()
        ));
    }
    let bound = match cell.heuristic_transfers {
        Some(n) => n,
        None => {
            let n = heuristic_solution(&cell.system, false)
                .map_err(|e| format!("{name}: heuristic: {e}"))?
                .num_transfers();
            *cell.heuristic_transfers.insert(n)
        }
    };
    if solution.num_transfers() > bound {
        return Err(format!(
            "{name}: {} transfers, heuristic has {bound}",
            solution.num_transfers()
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn order(seed: u64) -> Vec<String> {
        let t1 = Table1::setup(seed, false, &mut Tracer::new(false)).expect("builds");
        t1.cells
            .iter()
            .map(|c| {
                format!(
                    "{}/{:?}",
                    c.objective,
                    c.system
                        .task(c.system.tasks()[0].id())
                        .acquisition_deadline()
                )
            })
            .collect()
    }

    #[test]
    fn another_seed_orders_the_same_six_valid_cells_differently() {
        let (a, b) = (order(1), order(2));
        assert_eq!(a.len(), 6);
        assert_ne!(a, b, "different seeds, different cell order");
        let (mut sa, mut sb) = (a.clone(), b);
        sa.sort();
        sb.sort();
        assert_eq!(sa, sb, "the same six cells");
        assert_eq!(order(1), a, "same seed, same order");
        let warm = Table1::setup(1, true, &mut Tracer::new(false)).expect("warm-up builds");
        for cell in warm.cells.iter().chain(
            &Table1::setup(1, false, &mut Tracer::new(false))
                .expect("builds")
                .cells,
        ) {
            heuristic_solution(&cell.system, false)
                .expect("the heuristic meets the derived deadlines");
        }
    }
}
