//! Presolve: deterministic model reduction and relaxation tightening
//! applied ahead of branch and bound.
//!
//! The pass runs entirely on the coordinator before any worker thread is
//! spawned, so it cannot perturb the deterministic node trajectory: the
//! branch and bound simply receives a smaller, tighter [`Model`] plus a
//! [`Lift`] that restores its solutions to the original variable space.
//!
//! Four reduction rules run to a fixpoint, each one preserving the *integer*
//! feasible set exactly (bound tightening on continuous variables also
//! preserves the continuous optimum — it only removes points that violate
//! some constraint):
//!
//! 1. **Bound propagation** — per row, the minimum/maximum activity over the
//!    current variable bounds implies new bounds on each variable
//!    (`x_j ≤ (b − minact_{−j})/c_j` for a `≤` row with `c_j > 0`, and the
//!    three mirror cases). Bounds of integral variables are rounded inward.
//! 2. **Redundant-row elimination** — a row whose worst-case activity
//!    already satisfies it is dropped; a row whose *best*-case activity
//!    violates it proves the model infeasible (a typed
//!    [`PresolveInfeasible`], never a panic).
//! 3. **Coefficient (big-M) strengthening** — for a binary `x_j` in a `≤`
//!    row with finite maximum activity `U` and `U_{−j} = U − a_j`
//!    (`a_j > 0`): if `U_{−j} < b < U`, replace `a_j ← U − b` and
//!    `b ← U_{−j}`. Both integer cases (`x_j ∈ {0,1}`) keep exactly the
//!    same residual constraint, while every fractional `x_j` sees a
//!    strictly tighter bound — the LP relaxation shrinks, the MILP does
//!    not. The mirror rule handles `a_j < 0`, and `≥` rows are strengthened
//!    through negation.
//! 4. **Implied-bound aggregation** — for a set-partitioning row
//!    `Σ_{j∈S} x_j = 1` over binaries and a family of indicator rows that
//!    each force `y ≥ L_j` when `x_j = 1`, the convex combination
//!    `y ≥ Σ_j L_j·x_j` is a valid row (exactly one `x_j` is 1 at any
//!    integer point) that the LP sees even when the `x_j` are fractional.
//!    This is what turns the per-group delay indicators of the LET-DMA
//!    formulation (Constraint 9) into a useful root bound.
//!
//! After the fixpoint, variables whose bounds collapsed are substituted out
//! (their objective contribution moves into the objective constant, which
//! the simplex already carries as `obj_offset`), emptied rows are checked
//! and dropped, and the surviving rows are re-indexed. The [`Lift`] records
//! both maps.
//!
//! Everything here iterates vectors in index order; given the same model
//! and tolerance the pass is bit-reproducible on any machine and at any
//! thread count.

use std::fmt;

use crate::expr::{LinExpr, Var};
use crate::model::{Model, Sense, VarType};

/// Hard cap on propagation/strengthening rounds; each round only tightens,
/// so this is a convergence backstop, not a tuning knob.
const MAX_ROUNDS: usize = 10;

/// Typed infeasibility certificate from presolve.
///
/// Produced when a row cannot be satisfied by the variable bounds alone, or
/// when propagation empties an integer domain; the caller maps it to
/// `SolveError::Infeasible`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PresolveInfeasible {
    reason: String,
}

impl PresolveInfeasible {
    /// Human-readable explanation naming the row or variable that proved
    /// the model infeasible.
    #[must_use]
    pub fn reason(&self) -> &str {
        &self.reason
    }
}

impl fmt::Display for PresolveInfeasible {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "presolve proved infeasibility: {}", self.reason)
    }
}

impl std::error::Error for PresolveInfeasible {}

/// Where an original variable went during the reduction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LiftEntry {
    /// Still present, at this column index of the reduced model.
    Kept(usize),
    /// Fixed to this value and substituted out.
    Fixed(f64),
}

/// Restores reduced-space solutions (and row duals) to the original spaces.
#[derive(Debug, Clone, PartialEq)]
pub struct Lift {
    entries: Vec<LiftEntry>,
    /// Original row index → reduced row index (`None` when dropped).
    row_map: Vec<Option<usize>>,
    reduced_vars: usize,
}

impl Lift {
    /// Number of variables in the original model.
    #[must_use]
    pub fn original_vars(&self) -> usize {
        self.entries.len()
    }

    /// The disposition of one original variable.
    #[must_use]
    pub fn entry(&self, original: Var) -> LiftEntry {
        self.entries[original.index()]
    }

    /// The reduced-model handle of an original variable, or `None` when it
    /// was fixed and substituted out.
    #[must_use]
    pub fn reduced_var(&self, original: Var) -> Option<Var> {
        match self.entries[original.index()] {
            LiftEntry::Kept(k) => Some(Var(u32::try_from(k).expect("reduced index fits u32"))),
            LiftEntry::Fixed(_) => None,
        }
    }

    /// Lifts a reduced-space assignment back to the original variable
    /// space (fixed variables take their presolved values).
    ///
    /// # Panics
    ///
    /// Panics if `reduced` does not have one entry per reduced-model
    /// variable.
    #[must_use]
    pub fn lift_values(&self, reduced: &[f64]) -> Vec<f64> {
        assert_eq!(reduced.len(), self.reduced_vars, "reduced arity mismatch");
        self.entries
            .iter()
            .map(|e| match *e {
                LiftEntry::Kept(k) => reduced[k],
                LiftEntry::Fixed(v) => v,
            })
            .collect()
    }

    /// Lifts reduced-space row duals back to original row indices.
    ///
    /// Dropped rows were strictly redundant at every feasible point, so
    /// zero is their exact multiplier. Rows *added* by presolve (implied-
    /// bound aggregations) have no original counterpart; any dual weight
    /// they carry is omitted here, so the lifted vector is a valid but
    /// possibly non-optimal dual certificate when aggregation cuts fired.
    ///
    /// # Panics
    ///
    /// Panics if `reduced` is shorter than the largest kept row index.
    #[must_use]
    pub fn lift_row_duals(&self, reduced: &[f64]) -> Vec<f64> {
        self.row_map
            .iter()
            .map(|m| m.map_or(0.0, |k| reduced[k]))
            .collect()
    }

    /// Projects an original-space assignment (e.g. a warm start) into the
    /// reduced space. Returns `None` when the assignment contradicts a
    /// presolve fixing by more than `tol` — such a start could never be
    /// feasible for the reduced model.
    #[must_use]
    pub fn project_values(&self, original: &[f64], tol: f64) -> Option<Vec<f64>> {
        if original.len() != self.entries.len() {
            return None;
        }
        let mut out = vec![0.0; self.reduced_vars];
        for (i, e) in self.entries.iter().enumerate() {
            match *e {
                LiftEntry::Kept(k) => out[k] = original[i],
                LiftEntry::Fixed(v) => {
                    if (original[i] - v).abs() > tol {
                        return None;
                    }
                }
            }
        }
        Some(out)
    }
}

/// Deterministic tallies of what the pass did (fed into the
/// `letdma_core::Counter::Presolve*` instrumentation).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[non_exhaustive]
pub struct PresolveStats {
    /// Propagation/strengthening rounds executed before the fixpoint.
    pub rounds: u64,
    /// Original rows removed (redundant against bounds, or emptied by
    /// substitution and verified satisfied).
    pub rows_dropped: u64,
    /// Variables fixed and substituted out.
    pub cols_fixed: u64,
    /// Coefficients tightened by big-M strengthening.
    pub coeffs_tightened: u64,
    /// Implied-bound aggregation rows added.
    pub cuts_added: u64,
    /// Individual variable-bound tightenings applied.
    pub bounds_tightened: u64,
}

/// The product of a successful presolve.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct Presolved {
    /// The reduced, tightened model to hand to branch and bound.
    pub model: Model,
    /// Maps between the original and reduced spaces.
    pub lift: Lift,
    /// What the pass did.
    pub stats: PresolveStats,
}

impl Presolved {
    /// `true` when the pass changed nothing a solver could observe (no row
    /// or column removed, no coefficient or bound touched, no cut added).
    #[must_use]
    pub fn is_noop(&self) -> bool {
        let s = &self.stats;
        s.rows_dropped == 0
            && s.cols_fixed == 0
            && s.coeffs_tightened == 0
            && s.cuts_added == 0
            && s.bounds_tightened == 0
    }
}

/// A working copy of one constraint row.
#[derive(Debug, Clone)]
struct Row {
    name: String,
    /// Sorted by variable index (inherited from `LinExpr` iteration order).
    terms: Vec<(usize, f64)>,
    sense: Sense,
    rhs: f64,
    alive: bool,
    /// Added by implied-bound aggregation (excluded from `rows_dropped`).
    is_cut: bool,
}

/// Minimum/maximum row activity over the current bounds, with infinite
/// contributions counted separately so `∞ − ∞` never occurs.
#[derive(Debug, Clone, Copy, Default)]
struct Activity {
    min: f64,
    min_inf: u32,
    max: f64,
    max_inf: u32,
}

/// The mutable bound state shared by every rule.
#[derive(Debug)]
struct Work {
    lo: Vec<f64>,
    hi: Vec<f64>,
    integral: Vec<bool>,
    int_tol: f64,
    changed: bool,
    stats: PresolveStats,
}

impl Work {
    /// `(min, max)` contribution of one term over the current bounds.
    fn contrib(&self, j: usize, c: f64) -> (f64, f64) {
        if c > 0.0 {
            (c * self.lo[j], c * self.hi[j])
        } else {
            (c * self.hi[j], c * self.lo[j])
        }
    }

    fn activity(&self, terms: &[(usize, f64)]) -> Activity {
        let mut a = Activity::default();
        for &(j, c) in terms {
            let (l, h) = self.contrib(j, c);
            if l == f64::NEG_INFINITY {
                a.min_inf += 1;
            } else {
                a.min += l;
            }
            if h == f64::INFINITY {
                a.max_inf += 1;
            } else {
                a.max += h;
            }
        }
        a
    }

    /// Minimum activity of a row excluding term `(j, c)`; `None` when some
    /// *other* term contributes `−∞`.
    fn min_without(&self, a: &Activity, j: usize, c: f64) -> Option<f64> {
        let (l, _) = self.contrib(j, c);
        if l == f64::NEG_INFINITY {
            (a.min_inf == 1).then_some(a.min)
        } else {
            (a.min_inf == 0).then_some(a.min - l)
        }
    }

    /// Maximum activity of a row excluding term `(j, c)`; `None` when some
    /// *other* term contributes `+∞`.
    fn max_without(&self, a: &Activity, j: usize, c: f64) -> Option<f64> {
        let (_, h) = self.contrib(j, c);
        if h == f64::INFINITY {
            (a.max_inf == 1).then_some(a.max)
        } else {
            (a.max_inf == 0).then_some(a.max - h)
        }
    }

    fn cross_check(&mut self, j: usize, name: &str) -> Result<(), PresolveInfeasible> {
        let (lo, hi) = (self.lo[j], self.hi[j]);
        if lo <= hi {
            return Ok(());
        }
        // Integral bounds are rounded inward, so a crossover is at least a
        // whole unit and always a proof; continuous crossovers within noise
        // collapse to a point instead.
        if self.integral[j] || lo - hi > 1e-7 * (1.0 + hi.abs()) {
            return Err(PresolveInfeasible {
                reason: format!("domain of variable {name} emptied ({lo} > {hi})"),
            });
        }
        let mid = 0.5 * (lo + hi);
        self.lo[j] = mid;
        self.hi[j] = mid;
        Ok(())
    }

    fn tighten_upper(&mut self, j: usize, v: f64, name: &str) -> Result<(), PresolveInfeasible> {
        let v = if self.integral[j] {
            (v + self.int_tol).floor()
        } else {
            v
        };
        if v < self.hi[j] - 1e-9 * (1.0 + v.abs()) {
            self.hi[j] = v;
            self.changed = true;
            self.stats.bounds_tightened += 1;
            self.cross_check(j, name)?;
        }
        Ok(())
    }

    fn tighten_lower(&mut self, j: usize, v: f64, name: &str) -> Result<(), PresolveInfeasible> {
        let v = if self.integral[j] {
            (v - self.int_tol).ceil()
        } else {
            v
        };
        if v > self.lo[j] + 1e-9 * (1.0 + v.abs()) {
            self.lo[j] = v;
            self.changed = true;
            self.stats.bounds_tightened += 1;
            self.cross_check(j, name)?;
        }
        Ok(())
    }

    fn is_binary(&self, j: usize) -> bool {
        self.integral[j] && self.lo[j] == 0.0 && self.hi[j] == 1.0
    }

    fn is_fixed(&self, j: usize) -> bool {
        if self.integral[j] {
            self.hi[j] - self.lo[j] <= 0.5
        } else {
            self.hi[j] - self.lo[j] <= 1e-11 * (1.0 + self.lo[j].abs())
        }
    }

    fn fixed_value(&self, j: usize) -> f64 {
        if self.integral[j] {
            (0.5 * (self.lo[j] + self.hi[j])).round()
        } else {
            0.5 * (self.lo[j] + self.hi[j])
        }
    }
}

/// Presolves `model`, producing a reduced model, the [`Lift`] back to the
/// original spaces, and reduction statistics — or a typed
/// [`PresolveInfeasible`] when the bounds alone already rule every point
/// out.
///
/// `integrality_tol` is the tolerance within which a fractional bound is
/// considered to sit on an integer (the solver passes
/// [`INTEGRALITY_TOL`](crate::INTEGRALITY_TOL)).
///
/// # Errors
///
/// Returns [`PresolveInfeasible`] only with a proof: a row unsatisfiable at
/// the variables' best bounds, or an integer domain emptied by propagation.
pub fn presolve(model: &Model, integrality_tol: f64) -> Result<Presolved, PresolveInfeasible> {
    let mut w = Work {
        lo: model.vars.iter().map(|v| v.lower).collect(),
        hi: model.vars.iter().map(|v| v.upper).collect(),
        integral: model.vars.iter().map(|v| v.is_integral()).collect(),
        int_tol: integrality_tol,
        changed: false,
        stats: PresolveStats::default(),
    };
    let names: Vec<&str> = model.vars.iter().map(|v| v.name.as_str()).collect();
    let mut rows: Vec<Row> = model
        .constraints
        .iter()
        .map(|c| Row {
            name: c.name.clone(),
            terms: c.expr.iter().map(|(v, coeff)| (v.index(), coeff)).collect(),
            sense: c.sense,
            rhs: c.rhs,
            alive: true,
            is_cut: false,
        })
        .collect();

    // Round bounds the model itself declared fractionally on integer vars.
    for (j, name) in names.iter().enumerate() {
        if w.integral[j] {
            let (lo, hi) = (w.lo[j], w.hi[j]);
            if lo.is_finite() {
                w.lo[j] = (lo - integrality_tol).ceil();
            }
            if hi.is_finite() {
                w.hi[j] = (hi + integrality_tol).floor();
            }
            w.cross_check(j, name)?;
        }
    }

    fixpoint(&mut rows, &mut w, &names)?;
    let cuts = aggregation_cuts(&mut rows, &mut w, &names)?;
    if cuts > 0 && w.changed {
        // Aggregation may have raised lower bounds; let them cascade.
        fixpoint(&mut rows, &mut w, &names)?;
    }

    build_reduced(model, &rows, &mut w, &names)
}

/// Runs propagation + strengthening rounds until nothing changes.
fn fixpoint(rows: &mut [Row], w: &mut Work, names: &[&str]) -> Result<(), PresolveInfeasible> {
    for _ in 0..MAX_ROUNDS {
        w.changed = false;
        for row in rows.iter_mut().filter(|r| r.alive) {
            process_row(row, w, names)?;
        }
        for row in rows.iter_mut().filter(|r| r.alive) {
            strengthen_row(row, w);
        }
        w.stats.rounds += 1;
        if !w.changed {
            break;
        }
    }
    Ok(())
}

/// Infeasibility check, redundancy check, then bound propagation for one
/// row.
fn process_row(row: &mut Row, w: &mut Work, names: &[&str]) -> Result<(), PresolveInfeasible> {
    let a = w.activity(&row.terms);
    let feas_tol = 1e-7 * (1.0 + row.rhs.abs());
    let has_le = matches!(row.sense, Sense::Le | Sense::Eq);
    let has_ge = matches!(row.sense, Sense::Ge | Sense::Eq);

    if has_le && a.min_inf == 0 && a.min > row.rhs + feas_tol {
        return Err(PresolveInfeasible {
            reason: format!(
                "row {} requires ≤ {} but its minimum activity is {}",
                row.name, row.rhs, a.min
            ),
        });
    }
    if has_ge && a.max_inf == 0 && a.max < row.rhs - feas_tol {
        return Err(PresolveInfeasible {
            reason: format!(
                "row {} requires ≥ {} but its maximum activity is {}",
                row.name, row.rhs, a.max
            ),
        });
    }

    let red_tol = 1e-9 * (1.0 + row.rhs.abs());
    let le_redundant = !has_le || (a.max_inf == 0 && a.max <= row.rhs + red_tol);
    let ge_redundant = !has_ge || (a.min_inf == 0 && a.min >= row.rhs - red_tol);
    if le_redundant && ge_redundant {
        row.alive = false;
        w.changed = true;
        if !row.is_cut {
            w.stats.rows_dropped += 1;
        }
        return Ok(());
    }

    for &(j, c) in &row.terms {
        if has_le {
            if let Some(rest) = w.min_without(&a, j, c) {
                let v = (row.rhs - rest) / c;
                if c > 0.0 {
                    w.tighten_upper(j, v, names[j])?;
                } else {
                    w.tighten_lower(j, v, names[j])?;
                }
            }
        }
        if has_ge {
            if let Some(rest) = w.max_without(&a, j, c) {
                let v = (row.rhs - rest) / c;
                if c > 0.0 {
                    w.tighten_lower(j, v, names[j])?;
                } else {
                    w.tighten_upper(j, v, names[j])?;
                }
            }
        }
    }
    Ok(())
}

/// Big-M coefficient strengthening on the binary variables of one
/// inequality row (`≥` rows are strengthened through negation; equalities
/// have no slack to strengthen against).
fn strengthen_row(row: &mut Row, w: &mut Work) {
    match row.sense {
        Sense::Le => strengthen_le(&mut row.terms, &mut row.rhs, w),
        Sense::Ge => {
            for t in &mut row.terms {
                t.1 = -t.1;
            }
            row.rhs = -row.rhs;
            strengthen_le(&mut row.terms, &mut row.rhs, w);
            for t in &mut row.terms {
                t.1 = -t.1;
            }
            row.rhs = -row.rhs;
        }
        Sense::Eq => {}
    }
}

fn strengthen_le(terms: &mut [(usize, f64)], rhs: &mut f64, w: &mut Work) {
    let a = w.activity(terms);
    if a.max_inf > 0 {
        return;
    }
    let mut max_act = a.max;
    for t in terms.iter_mut() {
        let (j, c) = *t;
        if !w.is_binary(j) {
            continue;
        }
        let tol = 1e-9 * (1.0 + rhs.abs() + max_act.abs());
        if c > 0.0 {
            // U_{−j} < b < U: both integer cases keep the same residual
            // row while fractional x_j is cut (module docs, rule 3).
            let u_minus = max_act - c;
            if u_minus < *rhs - tol && max_act > *rhs + tol {
                let new_c = max_act - *rhs;
                *rhs = u_minus;
                t.1 = new_c;
                max_act = u_minus + new_c;
                w.changed = true;
                w.stats.coeffs_tightened += 1;
            }
        } else if c < 0.0 {
            // x_j = 1 relaxes the row into redundancy (U + c ≤ b < U):
            // shrink |c| until the x_j = 1 case is exactly tight.
            let new_c = *rhs - max_act;
            if *rhs < max_act - tol && new_c > c + tol {
                t.1 = new_c;
                w.changed = true;
                w.stats.coeffs_tightened += 1;
            }
        }
    }
}

/// Rule 4: implied-bound aggregation over set-partitioning rows.
///
/// Returns the number of cut rows appended.
fn aggregation_cuts(
    rows: &mut Vec<Row>,
    w: &mut Work,
    names: &[&str],
) -> Result<u64, PresolveInfeasible> {
    use std::collections::BTreeMap;

    // Column index over alive rows.
    let mut cols: Vec<Vec<usize>> = vec![Vec::new(); w.lo.len()];
    for (r, row) in rows.iter().enumerate() {
        if row.alive {
            for &(j, _) in &row.terms {
                cols[j].push(r);
            }
        }
    }

    // Set-partitioning rows: Σ_{j∈S} x_j = 1 over binaries, nobody fixed
    // to 1 (propagation would already have cleaned that up).
    let mut partitions: Vec<(usize, Vec<usize>)> = Vec::new();
    for (r, row) in rows.iter().enumerate() {
        if !row.alive || row.sense != Sense::Eq || (row.rhs - 1.0).abs() > 1e-12 {
            continue;
        }
        if row.terms.len() < 2 || row.terms.iter().any(|&(_, c)| (c - 1.0).abs() > 1e-12) {
            continue;
        }
        if row.terms.iter().any(|&(j, _)| {
            !w.integral[j] || w.lo[j] < -1e-12 || w.hi[j] > 1.0 + 1e-12 || w.lo[j] > 0.5
        }) {
            continue;
        }
        let members: Vec<usize> = row
            .terms
            .iter()
            .map(|&(j, _)| j)
            .filter(|&j| w.hi[j] > 0.5)
            .collect();
        if members.len() >= 2 {
            partitions.push((r, members));
        }
    }

    let mut cuts: Vec<Row> = Vec::new();
    for (p, members) in &partitions {
        // best[y][j] = strongest lower bound on y implied by x_j = 1.
        let mut best: BTreeMap<usize, BTreeMap<usize, f64>> = BTreeMap::new();
        for &j in members {
            for &r in &cols[j] {
                let row = &rows[r];
                if r == *p || !row.alive || row.sense == Sense::Le {
                    continue;
                }
                let a = w.activity(&row.terms);
                let c_x = row
                    .terms
                    .iter()
                    .find(|&&(v, _)| v == j)
                    .map_or(0.0, |&(_, c)| c);
                for &(y, c_y) in &row.terms {
                    if y == j || c_y <= 0.0 || w.integral[y] || w.is_fixed(y) {
                        continue;
                    }
                    // max activity of the row minus the x_j and y terms.
                    let Some(without_x) = w.max_without(&a, j, c_x) else {
                        continue;
                    };
                    let (_, y_hi) = w.contrib(y, c_y);
                    if y_hi == f64::INFINITY {
                        continue;
                    }
                    let others = without_x - y_hi;
                    let implied = (row.rhs - c_x - others) / c_y;
                    let slot = best.entry(y).or_default().entry(j).or_insert(implied);
                    *slot = slot.max(implied);
                }
            }
        }

        for (y, per_member) in &best {
            let lo_y = w.lo[*y];
            if !lo_y.is_finite() {
                continue;
            }
            let ls: Vec<(usize, f64)> = members
                .iter()
                .map(|&j| (j, per_member.get(&j).copied().unwrap_or(lo_y).max(lo_y)))
                .collect();
            let min_l = ls.iter().map(|&(_, l)| l).fold(f64::INFINITY, f64::min);
            let max_l = ls.iter().map(|&(_, l)| l).fold(f64::NEG_INFINITY, f64::max);
            let eps = 1e-7 * (1.0 + lo_y.abs() + max_l.abs());
            // Exactly one member is 1 at any integer point, so y ≥ min L.
            if min_l > lo_y + eps {
                w.tighten_lower(*y, min_l, names[*y])?;
            }
            let implied_above = ls.iter().filter(|&&(_, l)| l > lo_y + eps).count();
            if implied_above < 2 || max_l <= min_l + eps {
                continue;
            }
            // y − Σ_j L_j·x_j ≥ 0, valid by the partition disjunction.
            let mut terms: Vec<(usize, f64)> = ls
                .iter()
                .filter(|&&(_, l)| l != 0.0)
                .map(|&(j, l)| (j, -l))
                .collect();
            terms.push((*y, 1.0));
            terms.sort_unstable_by_key(|&(j, _)| j);
            cuts.push(Row {
                name: format!("agg_{}_{}", rows[*p].name, names[*y]),
                terms,
                sense: Sense::Ge,
                rhs: 0.0,
                alive: true,
                is_cut: true,
            });
        }
    }

    let added = cuts.len() as u64;
    w.stats.cuts_added += added;
    rows.extend(cuts);
    Ok(added)
}

/// Builds the reduced model, substituting fixed variables and re-indexing
/// the survivors.
fn build_reduced(
    model: &Model,
    rows: &[Row],
    w: &mut Work,
    names: &[&str],
) -> Result<Presolved, PresolveInfeasible> {
    let n = model.num_vars();
    let mut entries = Vec::with_capacity(n);
    let mut reduced = Model::new();
    for j in 0..n {
        if w.is_fixed(j) {
            let v = w.fixed_value(j);
            entries.push(LiftEntry::Fixed(v));
            w.stats.cols_fixed += 1;
            continue;
        }
        let def = &model.vars[j];
        let k = match def.var_type {
            VarType::Binary => reduced.add_binary(def.name.clone()),
            VarType::Integer => reduced.add_integer(def.name.clone(), w.lo[j], w.hi[j]),
            VarType::Continuous => reduced.add_continuous(def.name.clone(), w.lo[j], w.hi[j]),
        };
        entries.push(LiftEntry::Kept(k.index()));
    }
    let reduced_vars = reduced.num_vars();

    let mut objective = LinExpr::new();
    let mut obj_constant = model.objective.constant();
    for (v, c) in model.objective.iter() {
        match entries[v.index()] {
            LiftEntry::Kept(k) => {
                objective.add_term(Var(u32::try_from(k).expect("index fits u32")), c);
            }
            LiftEntry::Fixed(val) => obj_constant += c * val,
        }
    }
    objective.add_constant(obj_constant);
    reduced.set_objective(model.sense, objective);

    let mut row_map: Vec<Option<usize>> = vec![None; model.num_constraints()];
    for (r, row) in rows.iter().enumerate() {
        if !row.alive {
            continue;
        }
        let mut expr = LinExpr::new();
        let mut rhs = row.rhs;
        for &(j, c) in &row.terms {
            match entries[j] {
                LiftEntry::Kept(k) => {
                    expr.add_term(Var(u32::try_from(k).expect("index fits u32")), c);
                }
                LiftEntry::Fixed(val) => rhs -= c * val,
            }
        }
        if expr.is_empty() {
            let tol = 1e-7 * (1.0 + row.rhs.abs());
            let ok = match row.sense {
                Sense::Le => 0.0 <= rhs + tol,
                Sense::Ge => 0.0 >= rhs - tol,
                Sense::Eq => rhs.abs() <= tol,
            };
            if !ok {
                let fixed: Vec<&str> = row.terms.iter().map(|&(j, _)| names[j]).collect();
                return Err(PresolveInfeasible {
                    reason: format!(
                        "row {} unsatisfiable after fixing {}",
                        row.name,
                        fixed.join(", ")
                    ),
                });
            }
            if !row.is_cut {
                w.stats.rows_dropped += 1;
            }
            continue;
        }
        let cmp = match row.sense {
            Sense::Le => expr.le(rhs),
            Sense::Ge => expr.ge(rhs),
            Sense::Eq => expr.eq(rhs),
        };
        let k = reduced.add_constraint(row.name.clone(), cmp);
        if r < row_map.len() {
            row_map[r] = Some(k);
        }
    }

    Ok(Presolved {
        model: reduced,
        lift: Lift {
            entries,
            row_map,
            reduced_vars,
        },
        stats: w.stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::ObjectiveSense;

    fn presolve_ok(m: &Model) -> Presolved {
        presolve(m, 1e-6).expect("feasible presolve")
    }

    #[test]
    fn fixes_by_singleton_equality_and_substitutes() {
        let mut m = Model::new();
        let x = m.add_continuous("x", 0.0, 10.0);
        let y = m.add_continuous("y", 0.0, 10.0);
        m.add_constraint("fix", (2.0 * x).eq(5.0));
        m.add_constraint("link", (x + y).le(4.0));
        m.set_objective(ObjectiveSense::Minimize, 3.0 * x + y);
        let p = presolve_ok(&m);
        assert_eq!(p.lift.entry(x), LiftEntry::Fixed(2.5));
        assert_eq!(p.stats.cols_fixed, 1);
        // "fix" is emptied; "link" collapses into the bound y ≤ 1.5 and is
        // then itself redundant.
        assert_eq!(p.model.num_constraints(), 0);
        let ry = p.lift.reduced_var(y).unwrap();
        assert_eq!(p.model.var_def(ry).upper(), 1.5);
        // The fixed objective contribution moved into the constant.
        assert_eq!(p.model.objective().constant(), 7.5);
        let lifted = p.lift.lift_values(&[1.0]);
        assert_eq!(lifted, vec![2.5, 1.0]);
        assert!(m.is_feasible(&lifted, 1e-9));
    }

    #[test]
    fn detects_row_infeasible_by_bounds() {
        let mut m = Model::new();
        let x = m.add_continuous("x", 0.0, 1.0);
        let y = m.add_continuous("y", 0.0, 1.0);
        m.add_constraint("impossible", (x + y).ge(3.0));
        let err = presolve(&m, 1e-6).unwrap_err();
        assert!(err.reason().contains("impossible"), "{err}");
    }

    #[test]
    fn detects_non_integral_propagated_fixing() {
        let mut m = Model::new();
        let x = m.add_integer("x", 0.0, 10.0);
        m.add_constraint("half", (2.0 * x).eq(5.0));
        let err = presolve(&m, 1e-6).unwrap_err();
        assert!(err.reason().contains('x'), "{err}");
    }

    #[test]
    fn drops_redundant_rows() {
        let mut m = Model::new();
        let x = m.add_binary("x");
        let y = m.add_binary("y");
        m.add_constraint("slack", (x + y).le(5.0));
        m.add_constraint("real", (x + y).le(1.0));
        let p = presolve_ok(&m);
        assert_eq!(p.stats.rows_dropped, 1);
        assert_eq!(p.model.num_constraints(), 1);
        assert_eq!(p.model.constraints()[0].name(), "real");
    }

    #[test]
    fn strengthens_big_m_coefficient() {
        // y − x + 10·d ≤ 10 with x, y ∈ [0, 3]: U = 3 + 10 = 13,
        // U_{−d} = 3 < 10 < 13 ⇒ d-coefficient 13 − 10 = 3, rhs 3.
        let mut m = Model::new();
        let y = m.add_continuous("y", 0.0, 3.0);
        let x = m.add_continuous("x", 0.0, 3.0);
        let d = m.add_binary("d");
        m.add_constraint("mtz", (LinExpr::from(y) - x + 10.0 * d).le(10.0));
        let p = presolve_ok(&m);
        assert_eq!(p.stats.coeffs_tightened, 1);
        let c = &p.model.constraints()[0];
        let rd = p.lift.reduced_var(d).unwrap();
        assert_eq!(c.expr().coefficient(rd), 3.0);
        assert_eq!(c.rhs(), 3.0);
        // Same integer feasible set: d = 1 still forces y − x ≤ 0.
        assert!(!p.model.is_feasible(
            &p.lift.project_values(&[2.0, 1.0, 1.0], 1e-9).unwrap(),
            1e-9
        ));
        assert!(p.model.is_feasible(
            &p.lift.project_values(&[1.0, 1.0, 1.0], 1e-9).unwrap(),
            1e-9
        ));
    }

    #[test]
    fn aggregates_indicator_family_into_cut() {
        // Partition g0 + g1 + g2 = 1; indicators y ≥ 10(k+1) when g_k = 1
        // (big-M form). The aggregation yields y ≥ 10g0 + 20g1 + 30g2 and
        // the unconditional bound y ≥ 10.
        let mut m = Model::new();
        let y = m.add_continuous("y", 0.0, 100.0);
        let g: Vec<_> = (0..3).map(|k| m.add_binary(format!("g{k}"))).collect();
        m.add_constraint("one", (LinExpr::from(g[0]) + g[1] + g[2]).eq(1.0));
        for (k, &gk) in g.iter().enumerate() {
            let target = 10.0 * (k as f64 + 1.0);
            let big = 200.0;
            m.add_constraint(
                format!("ind{k}"),
                LinExpr::from(y).ge(LinExpr::constant_term(target) + big * gk - big),
            );
        }
        let p = presolve_ok(&m);
        assert_eq!(p.stats.cuts_added, 1);
        let ry = p.lift.reduced_var(y).unwrap();
        assert_eq!(p.model.var_def(ry).lower(), 10.0);
        let cut = p
            .model
            .constraints()
            .iter()
            .find(|c| c.name().starts_with("agg_one"))
            .expect("aggregation cut present");
        assert_eq!(cut.expr().coefficient(ry), 1.0);
        let rg2 = p.lift.reduced_var(g[2]).unwrap();
        assert_eq!(cut.expr().coefficient(rg2), -30.0);
        assert_eq!(cut.sense(), Sense::Ge);
        assert_eq!(cut.rhs(), 0.0);
    }

    #[test]
    fn empty_model_reduces_to_itself() {
        let m = Model::new();
        let p = presolve_ok(&m);
        assert_eq!(p.model.num_vars(), 0);
        assert_eq!(p.lift.lift_values(&[]), Vec::<f64>::new());
        assert!(p.is_noop());
    }

    #[test]
    fn project_rejects_contradicting_warm_start() {
        let mut m = Model::new();
        let x = m.add_integer("x", 0.0, 10.0);
        let y = m.add_continuous("y", 0.0, 10.0);
        m.add_constraint("fix", LinExpr::from(x).eq(3.0));
        m.add_constraint("keep", (x + y).le(9.0));
        let p = presolve_ok(&m);
        assert_eq!(p.lift.entry(x), LiftEntry::Fixed(3.0));
        assert_eq!(p.lift.project_values(&[3.0, 1.0], 1e-6), Some(vec![1.0]));
        assert_eq!(p.lift.project_values(&[4.0, 1.0], 1e-6), None);
    }

    #[test]
    fn row_duals_lift_with_zeros_for_dropped_rows() {
        let mut m = Model::new();
        let x = m.add_binary("x");
        let y = m.add_binary("y");
        m.add_constraint("slack", (x + y).le(5.0));
        m.add_constraint("real", (x + y).le(1.0));
        let p = presolve_ok(&m);
        assert_eq!(p.lift.lift_row_duals(&[0.25]), vec![0.0, 0.25]);
    }

    #[test]
    fn bound_propagation_rounds_integer_bounds() {
        let mut m = Model::new();
        let x = m.add_integer("x", 0.0, 10.0);
        let y = m.add_continuous("y", 0.0, 4.0);
        m.add_constraint("cap", (2.0 * x + y).le(7.4));
        let p = presolve_ok(&m);
        let rx = p.lift.reduced_var(x).unwrap();
        assert_eq!(p.model.var_def(rx).upper(), 3.0, "⌊7.4/2⌋");
    }
}
