//! Solution types, MILP-solution extraction and warm-start construction.

use std::collections::BTreeMap;

use letdma_model::transfer::{global_slot, local_slot};
use letdma_model::{
    Communication, DmaTransfer, MemoryId, MemoryLayout, Slot, System, TaskId, TimeNs,
    TransferSchedule,
};
use milp::{MilpSolution, SolveStats, SolveStatus};

use crate::config::Objective;
use crate::formulation::{us, Formulation};
use crate::heuristic::HeuristicSolution;

/// Where a [`LetDmaSolution`] came from.
#[derive(Debug, Clone, PartialEq)]
pub enum Provenance {
    /// The constructive heuristic (no MILP search).
    Heuristic,
    /// The MILP solver, with its proof status and search statistics.
    Milp {
        /// Optimal or best-feasible-at-limit.
        status: SolveStatus,
        /// Node/iteration/time statistics of the search.
        stats: SolveStats,
    },
}

/// Which rung of the degradation ladder produced a [`LetDmaSolution`]
/// (see DESIGN.md §"Failure model & degradation policy").
///
/// [`Provenance`] records *what computed* the layout and schedule
/// (heuristic construction vs. MILP search, with the proof status);
/// `Resolution` records *how the run got there* — whether the first MILP
/// attempt succeeded, a reduced-budget retry was needed after a worker
/// panic, or the pipeline fell back to the conformance-verified
/// heuristic after the search failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum Resolution {
    /// The first MILP attempt returned the solution.
    Milp,
    /// The first MILP attempt died on a worker panic; the cold
    /// half-budget retry (no cross-scenario root hooks) returned the
    /// solution.
    MilpRetry,
    /// The MILP search (including any retry) produced no incumbent; the
    /// conformance-verified constructive heuristic was returned instead.
    HeuristicFallback,
    /// Heuristic-only mode ([`crate::heuristic_solution`]): no MILP
    /// search was attempted at all.
    Heuristic,
}

impl std::fmt::Display for Resolution {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Self::Milp => "milp",
            Self::MilpRetry => "milp-retry",
            Self::HeuristicFallback => "heuristic-fallback",
            Self::Heuristic => "heuristic",
        })
    }
}

/// A complete solution of the allocation-and-scheduling problem: the memory
/// layout, the ordered DMA transfers at `s_0`, and the induced per-task
/// worst-case data-acquisition latencies.
#[derive(Debug, Clone, PartialEq)]
pub struct LetDmaSolution {
    /// Slot order of every memory.
    pub layout: MemoryLayout,
    /// The ordered DMA transfers at the synchronous start.
    pub schedule: TransferSchedule,
    /// Worst-case data-acquisition latency `λ_i` per task, over all
    /// communication instants.
    pub latencies: BTreeMap<TaskId, TimeNs>,
    /// Objective variant that produced this solution.
    pub objective: Objective,
    /// Objective value reported by the solver (MILP solutions only).
    pub objective_value: Option<f64>,
    /// Heuristic or MILP provenance.
    pub provenance: Provenance,
    /// Which rung of the degradation ladder produced this solution.
    pub resolution: Resolution,
}

impl LetDmaSolution {
    /// Number of (nonempty) DMA transfers at `s_0` — the paper's
    /// "# DMA Transfers" column of Table I.
    #[must_use]
    pub fn num_transfers(&self) -> usize {
        self.schedule.len()
    }

    /// The worst-case latency of one task (zero when it never communicates).
    #[must_use]
    pub fn latency(&self, task: TaskId) -> TimeNs {
        self.latencies.get(&task).copied().unwrap_or(TimeNs::ZERO)
    }

    /// The largest `λ_i / T_i` ratio over all tasks (Eq. 5's measure).
    #[must_use]
    pub fn max_delay_ratio(&self, system: &System) -> f64 {
        self.latencies
            .iter()
            .map(|(&t, &l)| l.as_ns() as f64 / system.task(t).period().as_ns() as f64)
            .fold(0.0, f64::max)
    }
}

/// Builds a [`LetDmaSolution`] from a heuristic construction.
#[must_use]
pub(crate) fn from_heuristic(
    system: &System,
    heuristic: HeuristicSolution,
    objective: Objective,
    resolution: Resolution,
) -> LetDmaSolution {
    let latencies = heuristic.schedule.worst_case_latencies(system);
    LetDmaSolution {
        layout: heuristic.layout,
        schedule: heuristic.schedule,
        latencies,
        objective,
        objective_value: None,
        provenance: Provenance::Heuristic,
        resolution,
    }
}

/// Extracts layout and schedule from a solved MILP.
pub(crate) fn extract(
    system: &System,
    formulation: &Formulation,
    solution: &MilpSolution,
    objective: Objective,
    resolution: Resolution,
) -> LetDmaSolution {
    // Layout: sort each memory's slots by their PL value.
    let mut layout = MemoryLayout::new();
    for (mi, (mem, slots)) in formulation.mem_slots.iter().enumerate() {
        let mut with_pos: Vec<(f64, Slot)> = slots
            .iter()
            .enumerate()
            .map(|(s, &slot)| (solution.value(formulation.pl[mi][s]), slot))
            .collect();
        with_pos.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal));
        layout.set_order(*mem, with_pos.into_iter().map(|(_, s)| s).collect());
    }

    // Schedule: groups in index order; members ordered by local position.
    let mut transfers = Vec::new();
    for g in 0..formulation.g_max {
        let mut members: Vec<Communication> = (0..formulation.comms.len())
            .filter(|&z| solution.value(formulation.cg[z][g]) > 0.5)
            .map(|z| formulation.comms[z])
            .collect();
        if members.is_empty() {
            continue;
        }
        members.sort_by_key(|&c| {
            layout
                .position(c.local_memory(system), local_slot(c))
                .unwrap_or(usize::MAX)
        });
        transfers.push(DmaTransfer::new(system, members));
    }
    let schedule = TransferSchedule::new(transfers);
    let latencies = schedule.worst_case_latencies(system);

    LetDmaSolution {
        layout,
        schedule,
        latencies,
        objective,
        objective_value: formulation.objective_var.map(|_| solution.objective()),
        provenance: Provenance::Milp {
            status: solution.status(),
            stats: solution.stats().clone(),
        },
        resolution,
    }
}

/// Converts a heuristic solution into a full MILP variable assignment for
/// use as a warm start. Returns `None` when the heuristic uses more groups
/// than the formulation provides.
#[must_use]
pub(crate) fn warm_start_assignment(
    system: &System,
    formulation: &Formulation,
    heuristic: &HeuristicSolution,
) -> Option<Vec<f64>> {
    let f = formulation;
    if heuristic.schedule.len() > f.g_max {
        return None;
    }
    let mut values = vec![0.0; f.model.num_vars()];

    // Group membership.
    let group_of = |c: Communication| heuristic.schedule.group_of(c);
    for (z, &c) in f.comms.iter().enumerate() {
        let g = group_of(c)?;
        values[f.cg[z][g].index()] = 1.0;
        values[f.cgi[z].index()] = g as f64;
    }
    // Group-class selectors.
    for (g, tr) in heuristic.schedule.transfers().iter().enumerate() {
        let key = (tr.local_memory(), tr.kind());
        let k = f.classes.iter().position(|&c| c == key)?;
        values[f.gc[g][k].index()] = 1.0;
    }

    // Layout: AD edges and PL positions.
    for (mi, (mem, slots)) in f.mem_slots.iter().enumerate() {
        let order = heuristic.layout.slots(*mem);
        if order.len() != slots.len() {
            return None;
        }
        let n = slots.len();
        let node =
            |slot: Slot| -> Option<usize> { slots.iter().position(|&s| s == slot).map(|i| i + 1) };
        let mut prev_node = 0usize; // head
        for (pos, &slot) in order.iter().enumerate() {
            let nd = node(slot)?;
            values[f.pl[mi][nd - 1].index()] = (pos + 1) as f64;
            values[f.ad[&(mi, prev_node, nd)].index()] = 1.0;
            prev_node = nd;
        }
        if n > 0 {
            values[f.ad[&(mi, prev_node, n + 1)].index()] = 1.0;
        }
    }

    // Adjacency products and LG terms.
    let adjacent = |i: Communication, z: Communication| -> bool {
        let lm = i.local_memory(system);
        let lp_i = heuristic.layout.position(lm, local_slot(i));
        let lp_z = heuristic.layout.position(lm, local_slot(z));
        let gp_i = heuristic.layout.position(MemoryId::Global, global_slot(i));
        let gp_z = heuristic.layout.position(MemoryId::Global, global_slot(z));
        matches!((lp_i, lp_z, gp_i, gp_z),
            (Some(a), Some(b), Some(c), Some(d)) if b == a + 1 && d == c + 1)
    };
    for (&(_k, i, z), &var) in &f.adpair {
        let v = if adjacent(f.comms[i], f.comms[z]) {
            1.0
        } else {
            0.0
        };
        values[var.index()] = v;
    }
    for (&(k, i, z, g), &var) in &f.lga {
        let p = values[f.adpair[&(k, i, z)].index()];
        let c = values[f.cg[z][g].index()];
        values[var.index()] = p.min(c);
    }

    // Prefix sums of per-group copy costs (PS_ḡ).
    if !f.prefix.is_empty() {
        let mut acc = 0.0;
        for (g, &ps) in f.prefix.iter().enumerate() {
            for z in 0..f.comms.len() {
                acc += f.copy_us[z] * values[f.cg[z][g].index()];
            }
            values[ps.index()] = acc;
        }
    }

    // RG / RGI / λ.
    if f.has_lambda {
        for &task in &f.comm_tasks {
            let own_groups: Vec<usize> = f
                .comms
                .iter()
                .filter(|c| c.task == task)
                .map(|&c| group_of(c))
                .collect::<Option<Vec<_>>>()?;
            let last = own_groups.into_iter().max()?;
            values[f.rg[&task][last].index()] = 1.0;
            values[f.rgi[&task].index()] = last as f64;
            // λ = (last+1)·λO + Σ_{g≤last} Σ_z copy·CG (mirrors Constraint 9's
            // binding row).
            let mut lam = (last as f64 + 1.0) * f.lambda_o_us;
            for g in 0..=last {
                for z in 0..f.comms.len() {
                    lam += f.copy_us[z] * values[f.cg[z][g].index()];
                }
            }
            values[f.lambda[&task].index()] = lam;
        }
    }

    // NT variables: forced minimum per subset.
    for (var, subset) in &f.nt {
        let max_idx = subset
            .iter()
            .map(|&z| values[f.cgi[z].index()])
            .fold(0.0f64, f64::max);
        values[var.index()] = max_idx + 1.0;
    }

    // Objective auxiliary.
    if let Some(u) = f.objective_var {
        let value = match f.objective {
            Objective::MinDelayRatio => f
                .lambda
                .iter()
                .map(|(&t, &l)| values[l.index()] / us(system.task(t).period()))
                .fold(0.0, f64::max),
            _ => f.cgi.iter().map(|&c| values[c.index()]).fold(0.0, f64::max),
        };
        values[u.index()] = value;
    }

    Some(values)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::OptConfig;
    use crate::formulation::build;
    use crate::heuristic::construct;
    use letdma_model::SystemBuilder;

    fn small_system() -> System {
        let mut b = SystemBuilder::new(2);
        let p1 = b.task("p1").period_ms(5).core_index(0).add().unwrap();
        let c1 = b.task("c1").period_ms(5).core_index(1).add().unwrap();
        let p2 = b.task("p2").period_ms(10).core_index(0).add().unwrap();
        let c2 = b.task("c2").period_ms(10).core_index(1).add().unwrap();
        b.label("a").size(100).writer(p1).reader(c1).add().unwrap();
        b.label("b").size(200).writer(p2).reader(c2).add().unwrap();
        b.build().unwrap()
    }

    #[test]
    fn warm_start_is_feasible_for_the_milp() {
        let sys = small_system();
        let config = OptConfig::default();
        let f = build(&sys, &config);
        let h = construct(&sys, false).unwrap();
        let warm = warm_start_assignment(&sys, &f, &h).expect("warm start");
        assert!(
            f.model.is_feasible(&warm, 1e-5),
            "heuristic warm start must satisfy the formulation"
        );
    }

    #[test]
    fn warm_start_feasible_with_lambda_variables() {
        let mut sys = small_system();
        // Loose deadlines so the heuristic remains feasible.
        for t in [0u32, 1, 2, 3] {
            sys.set_acquisition_deadline(letdma_model::TaskId::new(t), Some(TimeNs::from_ms(4)));
        }
        let config = OptConfig::new().with_objective(Objective::MinDelayRatio);
        let f = build(&sys, &config);
        let h = construct(&sys, false).unwrap();
        let warm = warm_start_assignment(&sys, &f, &h).expect("warm start");
        assert!(f.model.is_feasible(&warm, 1e-5));
    }

    #[test]
    fn heuristic_solution_latencies_populated() {
        let sys = small_system();
        let h = construct(&sys, false).unwrap();
        let sol = from_heuristic(&sys, h, Objective::None, Resolution::Heuristic);
        assert!(sol.num_transfers() >= 2);
        let c1 = sys.task_by_name("c1").unwrap().id();
        assert!(sol.latency(c1) > TimeNs::ZERO);
        assert!(sol.max_delay_ratio(&sys) > 0.0);
        assert_eq!(sol.provenance, Provenance::Heuristic);
        assert_eq!(sol.resolution, Resolution::Heuristic);
    }
}
