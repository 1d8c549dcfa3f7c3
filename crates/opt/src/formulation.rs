//! The MILP formulation of §VI: variables, Constraints 1–10 and the two
//! objective functions, built on the [`milp`] crate.
//!
//! # Encoding notes (see DESIGN.md for the rationale)
//!
//! * **Times are f64 microseconds** inside the MILP (exact integer
//!   nanoseconds elsewhere) to keep coefficient magnitudes close to the
//!   0/1 binaries.
//! * **Groups are class-pure**: a DMA transfer moves between one local
//!   memory and the global memory in one direction, so comms of different
//!   (memory, direction) *classes* may not share a group. This is implicit
//!   in the paper's transfer definition; here it is enforced with per-group
//!   class-selector binaries `GC_{g,K}`.
//! * **Constraint 3** (`RGI_i = max CGI`) is relaxed to `RGI_i ≥ CGI_z`,
//!   which is safe: a larger `RGI` only tightens Constraints 9–10 and
//!   worsens Eq. (4). Write-only tasks extend the max over their writes
//!   (rule R1 readiness).
//! * **Constraint 6's 3-way AND** terms are linearized with continuous
//!   `[0,1]` auxiliaries bounded above by each factor — exact because the
//!   products appear only on the `≥` side of the inequality.
//! * **Constraints 6 and 10** quantify over all `t ∈ 𝓣*`; instantiation is
//!   reduced to the distinct (inclusion-minimal, for Constraint 6)
//!   communication subsets, which is equivalent and much smaller.

// Index-based loops mirror the mathematical notation (rows i, columns j,
// groups g); iterator rewrites would obscure the correspondence.
#![allow(clippy::needless_range_loop)]
use std::collections::{BTreeMap, BTreeSet};

use letdma_model::let_semantics::{comm_instants, comms_at, comms_at_start};
use letdma_model::transfer::{global_slot, local_slot};
use letdma_model::{CommKind, Communication, MemoryId, MemoryLayout, Slot, System, TaskId, TimeNs};
use milp::{LinExpr, Model, ObjectiveSense, Var};

use crate::config::{Objective, OptConfig};

/// A DMA transfer class: one local memory and one direction.
pub(crate) type ClassKey = (MemoryId, CommKind);

/// The assembled MILP plus every variable handle needed for warm starts and
/// solution extraction.
pub(crate) struct Formulation {
    pub model: Model,
    /// `𝓒(s_0)` in canonical order; `z` indexes into this.
    pub comms: Vec<Communication>,
    /// Number of group slots `G`.
    pub g_max: usize,
    /// `CG_{z,g}` binaries.
    pub cg: Vec<Vec<Var>>,
    /// `CGI_z` (continuous, = Σ g·CG).
    pub cgi: Vec<Var>,
    /// Transfer classes in deterministic order.
    pub classes: Vec<ClassKey>,
    /// `GC_{g,K}` group-class selectors.
    pub gc: Vec<Vec<Var>>,
    /// Per memory: the real slots in canonical order.
    pub mem_slots: Vec<(MemoryId, Vec<Slot>)>,
    /// `AD_{k,a,b}` with node ids per memory (0 = head, n+1 = tail; slot
    /// `s` is node `s+1`).
    pub ad: BTreeMap<(usize, usize, usize), Var>,
    /// `PL_{k,s}` positions of real slots (1-based), indexed `[mem][slot]`.
    pub pl: Vec<Vec<Var>>,
    /// Tasks owning at least one communication, canonical order.
    pub comm_tasks: Vec<TaskId>,
    /// `RG_{i,g}` binaries (only for tasks with a λ variable).
    pub rg: BTreeMap<TaskId, Vec<Var>>,
    /// `RGI_i` (only for tasks with a λ variable).
    pub rgi: BTreeMap<TaskId, Var>,
    /// `λ_i` in microseconds.
    pub lambda: BTreeMap<TaskId, Var>,
    /// Prefix-sum copy-workload variables `PS_ḡ` (empty without λ vars).
    pub prefix: Vec<Var>,
    /// Adjacency-pair products `(class, i, z) → Var` meaning "comm `z`'s
    /// slots immediately follow comm `i`'s slots in both memories"
    /// (`i`, `z` are global comm indices).
    pub adpair: BTreeMap<(usize, usize, usize), Var>,
    /// `LG`-style products `(class, i, z, g) → Var` = `adpair_{i,z} ∧ CG_{z,g}`.
    pub lga: BTreeMap<(usize, usize, usize, usize), Var>,
    /// Property-3 `NT` variables with the comm subset each one covers.
    pub nt: Vec<(Var, BTreeSet<usize>)>,
    /// Objective auxiliary (Eq. 4 or Eq. 5), if any.
    pub objective_var: Option<Var>,
    /// Per-transfer overhead `λ_O` in µs.
    pub lambda_o_us: f64,
    /// Per-comm copy cost in µs.
    pub copy_us: Vec<f64>,
    /// Whether λ/RG/RGI variables exist for every comm task.
    pub has_lambda: bool,
    /// The objective variant this formulation encodes.
    pub objective: Objective,
}

impl std::fmt::Debug for Formulation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Formulation")
            .field("comms", &self.comms.len())
            .field("g_max", &self.g_max)
            .field("vars", &self.model.num_vars())
            .field("constraints", &self.model.num_constraints())
            .finish()
    }
}

/// Converts an exact time to f64 microseconds.
pub(crate) fn us(t: TimeNs) -> f64 {
    t.as_ns() as f64 / 1_000.0
}

/// Builds the full MILP for `system` under `config`.
///
/// # Panics
///
/// Panics if the system has no inter-core communications (callers check
/// first).
pub(crate) fn build(system: &System, config: &OptConfig) -> Formulation {
    let comms = comms_at_start(system);
    assert!(!comms.is_empty(), "no LET communications to schedule");
    // One transfer slot per communication always suffices (§VI).
    let g_max = comms.len();

    let mut model = Model::new();

    // ----- classes -----------------------------------------------------
    let classes: Vec<ClassKey> = comms
        .iter()
        .map(|c| (c.local_memory(system), c.kind))
        .collect::<BTreeSet<_>>()
        .into_iter()
        .collect();
    let class_of: Vec<usize> = comms
        .iter()
        .map(|c| {
            classes
                .binary_search(&(c.local_memory(system), c.kind))
                .expect("class present")
        })
        .collect();

    // ----- CG, GC, CGI ---------------------------------------------------
    let cg: Vec<Vec<Var>> = (0..comms.len())
        .map(|z| {
            (0..g_max)
                .map(|g| model.add_binary(format!("CG_{z}_{g}")))
                .collect()
        })
        .collect();
    let gc: Vec<Vec<Var>> = (0..g_max)
        .map(|g| {
            (0..classes.len())
                .map(|k| model.add_binary(format!("GC_{g}_{k}")))
                .collect()
        })
        .collect();
    // Constraint 1: each communication in exactly one transfer.
    for (z, row) in cg.iter().enumerate() {
        let sum = LinExpr::weighted_sum(row.iter().map(|&v| (v, 1.0)));
        model.add_constraint(format!("c1_{z}"), sum.eq(1.0));
    }
    // Class purity of groups.
    for (g, row) in gc.iter().enumerate() {
        let sum = LinExpr::weighted_sum(row.iter().map(|&v| (v, 1.0)));
        model.add_constraint(format!("gc_one_{g}"), sum.le(1.0));
    }
    for z in 0..comms.len() {
        for g in 0..g_max {
            model.add_constraint(
                format!("gc_link_{z}_{g}"),
                LinExpr::from(cg[z][g]).le(LinExpr::from(gc[g][class_of[z]])),
            );
        }
    }
    // Symmetry breaking: used groups are front-loaded.
    for g in 0..g_max.saturating_sub(1) {
        let a = LinExpr::weighted_sum(gc[g].iter().map(|&v| (v, 1.0)));
        let b = LinExpr::weighted_sum(gc[g + 1].iter().map(|&v| (v, 1.0)));
        model.add_constraint(format!("gc_mono_{g}"), b.le(a));
    }
    // CGI definition.
    let cgi: Vec<Var> = (0..comms.len())
        .map(|z| {
            let v = model.add_continuous(format!("CGI_{z}"), 0.0, (g_max - 1) as f64);
            let sum = LinExpr::weighted_sum(cg[z].iter().enumerate().map(|(g, &b)| (b, g as f64)));
            model.add_constraint(format!("cgi_def_{z}"), LinExpr::from(v).eq(sum));
            v
        })
        .collect();

    // ----- layout: slots, AD (Constraint 4), PL (Constraint 5) ----------
    let required = MemoryLayout::required_slots(system, config.include_private_labels);
    let mem_slots: Vec<(MemoryId, Vec<Slot>)> = required
        .into_iter()
        .map(|(m, s)| (m, s.into_iter().collect::<Vec<_>>()))
        .collect();
    let mut ad: BTreeMap<(usize, usize, usize), Var> = BTreeMap::new();
    let mut pl: Vec<Vec<Var>> = Vec::new();
    for (mi, (_mem, slots)) in mem_slots.iter().enumerate() {
        let n = slots.len();
        let head = 0usize;
        let tail = n + 1;
        // AD vars over node pairs (a successor edge a→b).
        for a in 0..=n {
            for b in 1..=tail {
                if a == b || (a == head && b == tail) {
                    continue;
                }
                ad.insert((mi, a, b), model.add_binary(format!("AD_{mi}_{a}_{b}")));
            }
        }
        // Constraint 4: unique successor and predecessor per slot, plus the
        // dummy head/tail endpoints.
        for s in 1..=n {
            let succ = LinExpr::weighted_sum(
                (1..=tail)
                    .filter(|&b| b != s)
                    .map(|b| (ad[&(mi, s, b)], 1.0)),
            );
            model.add_constraint(format!("c4succ_{mi}_{s}"), succ.eq(1.0));
            let pred =
                LinExpr::weighted_sum((0..=n).filter(|&a| a != s).map(|a| (ad[&(mi, a, s)], 1.0)));
            model.add_constraint(format!("c4pred_{mi}_{s}"), pred.eq(1.0));
        }
        if n > 0 {
            let head_succ = LinExpr::weighted_sum((1..=n).map(|b| (ad[&(mi, head, b)], 1.0)));
            model.add_constraint(format!("c4head_{mi}"), head_succ.eq(1.0));
            let tail_pred = LinExpr::weighted_sum((1..=n).map(|a| (ad[&(mi, a, tail)], 1.0)));
            model.add_constraint(format!("c4tail_{mi}"), tail_pred.eq(1.0));
        }
        // Positions: slot s (node s+1) has PL ∈ [1, n]; head/tail constant.
        let positions: Vec<Var> = (0..n)
            .map(|s| model.add_continuous(format!("PL_{mi}_{s}"), 1.0, n as f64))
            .collect();
        let big = (n + 2) as f64;
        let pos_expr = |node: usize| -> LinExpr {
            if node == head {
                LinExpr::constant_term(0.0)
            } else if node == tail {
                LinExpr::constant_term((n + 1) as f64)
            } else {
                LinExpr::from(positions[node - 1])
            }
        };
        // Constraint 5 (MTZ): AD_{a,b} = 1 ⟹ PL_b = PL_a + 1.
        let edges: Vec<(usize, usize, Var)> = ad
            .range((mi, 0, 0)..(mi + 1, 0, 0))
            .map(|(&(_, a, b), &v)| (a, b, v))
            .collect();
        for (a, b, adv) in edges {
            // PL_b − PL_a + M·AD ≤ 1 + M
            model.add_constraint(
                format!("c5u_{mi}_{a}_{b}"),
                (pos_expr(b) - pos_expr(a) + LinExpr::from(adv) * big).le(1.0 + big),
            );
            // PL_b − PL_a − M·AD ≥ 1 − M
            model.add_constraint(
                format!("c5l_{mi}_{a}_{b}"),
                (pos_expr(b) - pos_expr(a) - LinExpr::from(adv) * big).ge(1.0 - big),
            );
        }
        // Paper's redundant strengthening: Σ PL = n(n+1)/2.
        if n > 0 {
            let sum = LinExpr::weighted_sum(positions.iter().map(|&v| (v, 1.0)));
            model.add_constraint(format!("pl_sum_{mi}"), sum.eq((n * (n + 1) / 2) as f64));
        }
        pl.push(positions);
    }

    // Slot lookup helpers for Constraint 6.
    let mem_index = |mem: MemoryId| -> usize {
        mem_slots
            .iter()
            .position(|(m, _)| *m == mem)
            .expect("memory with slots")
    };
    let node_of = |mi: usize, slot: Slot| -> usize {
        1 + mem_slots[mi]
            .1
            .iter()
            .position(|&s| s == slot)
            .expect("slot allocated")
    };

    // ----- Constraint 6: per-instant contiguity --------------------------
    // Distinct class subsets over all communication instants.
    let instants = comm_instants(system);
    let comm_index = |c: &Communication| comms.binary_search(c).expect("comm at s0");
    let mut class_subsets: Vec<BTreeSet<BTreeSet<usize>>> = vec![BTreeSet::new(); classes.len()];
    for &t in &instants {
        let present: BTreeSet<usize> = comms_at(system, t).iter().map(&comm_index).collect();
        for (k, _) in classes.iter().enumerate() {
            let subset: BTreeSet<usize> = present
                .iter()
                .copied()
                .filter(|&z| class_of[z] == k)
                .collect();
            if subset.len() >= 2 {
                class_subsets[k].insert(subset);
            }
        }
    }
    let mut adpair: BTreeMap<(usize, usize, usize), Var> = BTreeMap::new();
    let mut lga: BTreeMap<(usize, usize, usize, usize), Var> = BTreeMap::new();
    for (k, subsets) in class_subsets.iter().enumerate() {
        // All comms of this class that appear in some ≥2 subset.
        let involved: BTreeSet<usize> = subsets.iter().flatten().copied().collect();
        // Adjacency products for ordered pairs (i → z).
        for &i in &involved {
            for &z in &involved {
                if i == z {
                    continue;
                }
                let ci = comms[i];
                let cz = comms[z];
                if ci.label == cz.label {
                    // Same global slot twice: adjacency impossible.
                    continue;
                }
                let lm = mem_index(ci.local_memory(system));
                let gm = mem_index(MemoryId::Global);
                let local_edge =
                    ad[&(lm, node_of(lm, local_slot(ci)), node_of(lm, local_slot(cz)))];
                let global_edge = ad[&(
                    gm,
                    node_of(gm, global_slot(ci)),
                    node_of(gm, global_slot(cz)),
                )];
                let p = model.add_continuous(format!("ADP_{k}_{i}_{z}"), 0.0, 1.0);
                model.add_constraint(
                    format!("adp_l_{k}_{i}_{z}"),
                    LinExpr::from(p).le(LinExpr::from(local_edge)),
                );
                model.add_constraint(
                    format!("adp_g_{k}_{i}_{z}"),
                    LinExpr::from(p).le(LinExpr::from(global_edge)),
                );
                adpair.insert((k, i, z), p);
                for g in 0..g_max {
                    let lg = model.add_continuous(format!("LG_{k}_{i}_{z}_{g}"), 0.0, 1.0);
                    model.add_constraint(
                        format!("lg_p_{k}_{i}_{z}_{g}"),
                        LinExpr::from(lg).le(LinExpr::from(p)),
                    );
                    model.add_constraint(
                        format!("lg_c_{k}_{i}_{z}_{g}"),
                        LinExpr::from(lg).le(LinExpr::from(cg[z][g])),
                    );
                    lga.insert((k, i, z, g), lg);
                }
            }
        }
        // Pair constraints: for each pair, instantiate every
        // inclusion-minimal subset containing it (smaller subsets give
        // tighter right-hand sides and dominate their supersets).
        let all_subsets: Vec<&BTreeSet<usize>> = subsets.iter().collect();
        let mut emitted: BTreeSet<(usize, usize, Vec<usize>)> = BTreeSet::new();
        for &i in &involved {
            for &j in &involved {
                if j <= i {
                    continue;
                }
                let containing: Vec<&&BTreeSet<usize>> = all_subsets
                    .iter()
                    .filter(|s| s.contains(&i) && s.contains(&j))
                    .collect();
                for s in &containing {
                    let minimal = !containing
                        .iter()
                        .any(|o| o.len() < s.len() && o.is_subset(s));
                    if !minimal {
                        continue;
                    }
                    let items: Vec<usize> = s.iter().copied().collect();
                    if !emitted.insert((i, j, items.clone())) {
                        continue;
                    }
                    for g in 0..g_max {
                        // CG_i,g + CG_j,g − 1 ≤ Σ_{z∈S} (LG_{i,z,g} + LG_{j,z,g})
                        let mut rhs = LinExpr::new();
                        for &z in &items {
                            if z != i {
                                if let Some(&v) = lga.get(&(k, i, z, g)) {
                                    rhs += LinExpr::from(v);
                                }
                            }
                            if z != j {
                                if let Some(&v) = lga.get(&(k, j, z, g)) {
                                    rhs += LinExpr::from(v);
                                }
                            }
                        }
                        let lhs = cg[i][g] + cg[j][g] - 1.0;
                        model.add_constraint(format!("c6_{k}_{i}_{j}_{g}"), lhs.le(rhs));
                    }
                }
            }
        }
    }

    // ----- Constraints 7 & 8: LET causality ------------------------------
    // Property 1: every write of τ strictly before every read of τ.
    let comm_tasks: Vec<TaskId> = comms
        .iter()
        .map(|c| c.task)
        .collect::<BTreeSet<_>>()
        .into_iter()
        .collect();
    for &task in &comm_tasks {
        let writes: Vec<usize> = (0..comms.len())
            .filter(|&z| comms[z].task == task && comms[z].kind == CommKind::Write)
            .collect();
        let reads: Vec<usize> = (0..comms.len())
            .filter(|&z| comms[z].task == task && comms[z].kind == CommKind::Read)
            .collect();
        for &w in &writes {
            for &r in &reads {
                model.add_constraint(
                    format!("c7_{w}_{r}"),
                    (cgi[w] + 1.0).le(LinExpr::from(cgi[r])),
                );
            }
        }
    }
    // Property 2: the write of ℓ strictly before each read of ℓ.
    for (w, cw) in comms.iter().enumerate() {
        if cw.kind != CommKind::Write {
            continue;
        }
        for (r, cr) in comms.iter().enumerate() {
            if cr.kind == CommKind::Read && cr.label == cw.label {
                model.add_constraint(
                    format!("c8_{w}_{r}"),
                    (cgi[w] + 1.0).le(LinExpr::from(cgi[r])),
                );
            }
        }
    }

    // ----- cost coefficients ---------------------------------------------
    let lambda_o_us = us(system.costs().lambda_o());
    let copy_us: Vec<f64> = comms
        .iter()
        .map(|c| us(system.costs().omega_c().cost_of(c.bytes(system))))
        .collect();

    // ----- λ, RG, RGI and Constraint 9 -----------------------------------
    let need_lambda = config.objective == Objective::MinDelayRatio
        || comm_tasks
            .iter()
            .any(|&t| system.task(t).acquisition_deadline().is_some());
    let mut rg = BTreeMap::new();
    let mut rgi = BTreeMap::new();
    let mut lambda = BTreeMap::new();
    let mut prefix_vars: Vec<Var> = Vec::new();
    if need_lambda {
        // Shared prefix-sum variables: PS_ḡ = Σ_{g ≤ ḡ} Σ_z σω·CG_{z,g},
        // the copy workload of the first ḡ+1 transfers. Chaining
        // PS_ḡ = PS_{ḡ−1} + step(ḡ) keeps every Constraint-9 row at four
        // nonzeros instead of inlining an O(|C|·G) double sum per task —
        // a decisive sparsity/conditioning win for the simplex.
        let total_copy: f64 = copy_us.iter().sum();
        prefix_vars = (0..g_max)
            .map(|gbar| model.add_continuous(format!("PS_{gbar}"), 0.0, total_copy))
            .collect();
        let prefix = &prefix_vars;
        for gbar in 0..g_max {
            let mut step = LinExpr::new();
            for z in 0..comms.len() {
                if copy_us[z] != 0.0 {
                    step.add_term(cg[z][gbar], copy_us[z]);
                }
            }
            let rhs = if gbar == 0 {
                step
            } else {
                LinExpr::from(prefix[gbar - 1]) + step
            };
            model.add_constraint(
                format!("ps_def_{gbar}"),
                LinExpr::from(prefix[gbar]).eq(rhs),
            );
        }
        for &task in &comm_tasks {
            let own: Vec<usize> = (0..comms.len())
                .filter(|&z| comms[z].task == task)
                .collect();
            let rg_row: Vec<Var> = (0..g_max)
                .map(|g| model.add_binary(format!("RG_{}_{g}", task.index())))
                .collect();
            // Constraint 2: the last communication is in exactly one group.
            let sum = LinExpr::weighted_sum(rg_row.iter().map(|&v| (v, 1.0)));
            model.add_constraint(format!("c2_{}", task.index()), sum.eq(1.0));
            let rgi_v =
                model.add_continuous(format!("RGI_{}", task.index()), 0.0, (g_max - 1) as f64);
            let pick =
                LinExpr::weighted_sum(rg_row.iter().enumerate().map(|(g, &b)| (b, g as f64)));
            model.add_constraint(
                format!("rgi_def_{}", task.index()),
                LinExpr::from(rgi_v).eq(pick),
            );
            // Constraint 3 (relaxed max): RGI ≥ CGI of every own comm
            // (reads dominate by Property 1; writes included for
            // write-only tasks — rule R1 readiness).
            for &z in &own {
                model.add_constraint(
                    format!("c3_{}_{z}", task.index()),
                    LinExpr::from(rgi_v).ge(LinExpr::from(cgi[z])),
                );
            }
            // λ variable, bounded by the acquisition deadline when set;
            // otherwise by the implied cap G·λO + Σσω (the largest value
            // any Constraint-9 row can force).
            let lambda_cap_us = lambda_o_us * g_max as f64 + total_copy;
            let gamma_us = system
                .task(task)
                .acquisition_deadline()
                .map_or(lambda_cap_us, us);
            let l = model.add_continuous(format!("LAM_{}", task.index()), 0.0, gamma_us);
            // Constraint 9 rows, one per candidate last group ḡ. RG_ḡ = 1
            // forces RGI = ḡ (Constraint 2 + the RGI definition), so the
            // variable RGI term is replaced by the constant ḡ and the
            // big-M shrinks from the single global bound to the per-row
            // tightest valid constant M_ḡ = (ḡ+1)·λO + Σσω:
            //   λ ≥ (ḡ+1)·λO + PS_ḡ − (1−RG_ḡ)·M_ḡ.
            // With RG_ḡ = 0 the right side is ≤ PS_ḡ − Σσω ≤ 0, so the
            // row is inactive exactly as with the global M, but the LP
            // relaxation is strictly tighter for fractional RG.
            for gbar in 0..g_max {
                let m_row = lambda_o_us * (gbar + 1) as f64 + total_copy;
                let rhs =
                    LinExpr::from(prefix[gbar]) + LinExpr::from(rg_row[gbar]) * m_row - total_copy;
                model.add_constraint(
                    format!("c9_{}_{gbar}", task.index()),
                    LinExpr::from(l).ge(rhs),
                );
            }
            rg.insert(task, rg_row);
            rgi.insert(task, rgi_v);
            lambda.insert(task, l);
        }
    }

    // ----- Constraint 10: transfers fit before the next instant ----------
    // Deduplicate by present-subset; keep the smallest gap per subset.
    let horizon = system.comm_horizon();
    let mut gap_per_subset: BTreeMap<BTreeSet<usize>, f64> = BTreeMap::new();
    for (idx, &t1) in instants.iter().enumerate() {
        let t2 = instants.get(idx + 1).copied().unwrap_or(horizon);
        let present: BTreeSet<usize> = comms_at(system, t1).iter().map(&comm_index).collect();
        if present.is_empty() {
            continue;
        }
        let gap = us(t2 - t1);
        gap_per_subset
            .entry(present)
            .and_modify(|g| *g = g.min(gap))
            .or_insert(gap);
    }
    let mut nt_list: Vec<(Var, BTreeSet<usize>)> = Vec::new();
    for (si, (subset, gap)) in gap_per_subset.iter().enumerate() {
        let nt = model.add_continuous(format!("NT_{si}"), 1.0, g_max as f64);
        for &z in subset {
            model.add_constraint(format!("nt_{si}_{z}"), LinExpr::from(nt).ge(cgi[z] + 1.0));
        }
        let copy_total: f64 = subset.iter().map(|&z| copy_us[z]).sum();
        model.add_constraint(
            format!("c10_{si}"),
            (LinExpr::from(nt) * lambda_o_us + copy_total).le(*gap),
        );
        nt_list.push((nt, subset.clone()));
    }

    // ----- objective ------------------------------------------------------
    let objective_var = match config.objective {
        Objective::None => None,
        Objective::MinTransfers => {
            // Eq. (4): min max CGI (= max RGI by Property 1).
            let u = model.add_continuous("U_maxidx", 0.0, (g_max - 1) as f64);
            for (z, &c) in cgi.iter().enumerate() {
                model.add_constraint(format!("obju_{z}"), LinExpr::from(u).ge(LinExpr::from(c)));
            }
            model.set_objective(ObjectiveSense::Minimize, LinExpr::from(u));
            Some(u)
        }
        Objective::MinDelayRatio => {
            // Eq. (5): min max λ_i / T_i.
            let v = model.add_continuous("V_maxratio", 0.0, f64::INFINITY);
            for (&task, &l) in &lambda {
                let period_us = us(system.task(task).period());
                model.add_constraint(
                    format!("objv_{}", task.index()),
                    LinExpr::from(v).ge(LinExpr::from(l) * (1.0 / period_us)),
                );
            }
            model.set_objective(ObjectiveSense::Minimize, LinExpr::from(v));
            Some(v)
        }
    };

    Formulation {
        model,
        comms,
        g_max,
        cg,
        cgi,
        classes,
        gc,
        mem_slots,
        ad,
        pl,
        comm_tasks,
        rg,
        rgi,
        lambda,
        prefix: prefix_vars,
        adpair,
        lga,
        nt: nt_list,
        objective_var,
        lambda_o_us,
        copy_us,
        has_lambda: need_lambda,
        objective: config.objective,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use letdma_model::SystemBuilder;

    fn pair_system() -> System {
        let mut b = SystemBuilder::new(2);
        let p = b.task("p").period_ms(5).core_index(0).add().unwrap();
        let c = b.task("c").period_ms(5).core_index(1).add().unwrap();
        b.label("l").size(64).writer(p).reader(c).add().unwrap();
        b.build().unwrap()
    }

    #[test]
    fn builds_for_single_pair() {
        let sys = pair_system();
        let f = build(&sys, &OptConfig::default());
        assert_eq!(f.comms.len(), 2);
        assert_eq!(f.g_max, 2);
        assert_eq!(f.classes.len(), 2); // one write class, one read class
        assert!(f.model.num_constraints() > 0);
        // No λ by default (no deadlines, NO-OBJ).
        assert!(!f.has_lambda);
        assert!(f.lambda.is_empty());
    }

    #[test]
    fn lambda_variables_created_for_obj_del() {
        let sys = pair_system();
        let config = OptConfig {
            objective: Objective::MinDelayRatio,
            ..OptConfig::default()
        };
        let f = build(&sys, &config);
        assert!(f.has_lambda);
        assert_eq!(f.lambda.len(), 2);
        assert!(f.objective_var.is_some());
    }

    #[test]
    fn lambda_created_when_deadline_set() {
        let mut sys = pair_system();
        let p = sys.task_by_name("p").unwrap().id();
        sys.set_acquisition_deadline(p, Some(TimeNs::from_ms(1)));
        let f = build(&sys, &OptConfig::default());
        assert!(f.has_lambda);
    }
}
