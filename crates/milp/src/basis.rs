//! Factorized basis of the revised simplex.
//!
//! The simplex only ever touches the basis through five operations — a
//! BTRAN solve over a sparse right-hand side, an FTRAN solve of a sparse
//! column, a rank-one pivot update, a from-scratch refactorization and a
//! reset to the identity (the all-slack starting basis). [`SparseLu`]
//! provides them: a sparse LU factorization of the basis (Markowitz pivot
//! selection with Suhl–Suhl threshold partial pivoting, stored as sparse
//! triangular factors) plus product-form eta updates between
//! refactorizations. Every solve costs
//! `O(nnz(L) + nnz(U) + nnz(etas) + m)` instead of the dense `O(m²)`.
//!
//! `crates/milp/tests/basis_differential.rs` pins [`SparseLu`] to 1e-9
//! against a dense explicit inverse kept there as a test-local oracle.
//! DESIGN.md §"Sparse LU basis & pricing" documents the data layout, the
//! update formula and the measured cost of a refactorization.

use std::cell::RefCell;
use std::fmt;

use crate::simplex::LpWork;

/// Sparse column: `(row, coefficient)` pairs, as stored by the solver.
pub type SparseCol = Vec<(usize, f64)>;

/// One product-form update: the inverse of the elementary matrix that
/// replaces basis position `r`, stored as its only non-identity column.
struct Eta {
    r: usize,
    /// `1 / w_r` — the diagonal entry at `r`.
    diag: f64,
    /// `(i, −w_i / w_r)` for `i ≠ r` — the off-diagonal entries.
    off: Vec<(usize, f64)>,
}

/// Scratch vectors reused across `ftran`/`btran` calls (interior
/// mutability keeps the solves `&self` without per-call allocation in
/// the hot loop).
#[derive(Default)]
struct Scratch {
    a: Vec<f64>,
    b: Vec<f64>,
}

/// A pivot of the elimination: `(basis position, original row, value)`.
type Pivot = (usize, usize, f64);

/// Suhl–Suhl relative threshold: a pivot must be at least this fraction
/// of its column's largest active magnitude.
const THRESHOLD: f64 = 0.1;
/// Absolute singularity floor.
const ABS_PIVOT: f64 = 1e-12;
/// Markowitz candidate columns examined per pivot before settling.
const MAX_CANDIDATES: usize = 8;

/// The active submatrix of a factorization in progress.
struct Active {
    /// Column-wise values of the active entries.
    col_entries: Vec<Vec<(usize, f64)>>,
    /// Row-wise column lists; they may hold stale entries, the counts are
    /// exact.
    row_cols: Vec<Vec<usize>>,
    row_count: Vec<usize>,
    col_count: Vec<usize>,
    col_done: Vec<bool>,
    /// Columns bucketed by active count, in push order. Entries are never
    /// removed: one whose column's count has since changed is stale, and
    /// becomes live again if the count returns to its bucket.
    buckets: Vec<Vec<usize>>,
    /// Per bucket, how many leading entries belong to eliminated columns.
    /// An eliminated column never becomes a candidate again, so the search
    /// starts past them with the same visit order as a scan from the
    /// first entry.
    heads: Vec<usize>,
}

impl Active {
    /// Loads the basis columns; `None` when one of them is empty
    /// (structurally singular).
    fn new(cols: &[&SparseCol]) -> Option<Self> {
        let m = cols.len();
        let mut col_entries: Vec<Vec<(usize, f64)>> = Vec::with_capacity(m);
        let mut row_cols: Vec<Vec<usize>> = vec![Vec::new(); m];
        let mut row_count = vec![0usize; m];
        let mut col_count = vec![0usize; m];
        for (j, col) in cols.iter().enumerate() {
            let mut entries = Vec::with_capacity(col.len());
            for &(i, v) in col.iter() {
                if v != 0.0 {
                    entries.push((i, v));
                    row_cols[i].push(j);
                    row_count[i] += 1;
                }
            }
            if entries.is_empty() {
                return None;
            }
            col_count[j] = entries.len();
            col_entries.push(entries);
        }
        let mut buckets: Vec<Vec<usize>> = vec![Vec::new(); m + 1];
        for j in 0..m {
            buckets[col_count[j]].push(j);
        }
        Some(Self {
            col_entries,
            row_cols,
            row_count,
            col_count,
            col_done: vec![false; m],
            buckets,
            heads: vec![0; m + 1],
        })
    }

    /// The best pivot of active column `j` as `(Markowitz cost, row,
    /// value)`: the lowest `(r_i − 1)(c_j − 1)` among entries passing the
    /// threshold, lowest row on ties. `None` for a numerically empty
    /// column.
    fn candidate(&self, j: usize) -> Option<(usize, usize, f64)> {
        let entries = &self.col_entries[j];
        let colmax = entries.iter().fold(0.0f64, |mx, &(_, v)| mx.max(v.abs()));
        if colmax <= ABS_PIVOT {
            return None;
        }
        let floor = (colmax * THRESHOLD).max(ABS_PIVOT);
        let count = self.col_count[j];
        let mut best: Option<(usize, usize, f64)> = None;
        for &(i, v) in entries {
            if v.abs() >= floor {
                let cost = (self.row_count[i] - 1) * (count - 1);
                if best.map_or(true, |(c, bi, _)| cost < c || (cost == c && i < bi)) {
                    best = Some((cost, i, v));
                }
            }
        }
        best
    }

    /// Markowitz pivot search over a bounded candidate set, in ascending
    /// column-count buckets (deterministic: push order inside a bucket,
    /// first-best wins ties). It stops at the first zero-cost candidate or
    /// after [`MAX_CANDIDATES`] candidates.
    fn markowitz_pivot(&mut self) -> Option<Pivot> {
        let mut best: Option<(usize, Pivot)> = None;
        let mut examined = 0usize;
        for count in 1..self.buckets.len() {
            let bucket = &self.buckets[count];
            let mut head = self.heads[count];
            while head < bucket.len() && self.col_done[bucket[head]] {
                head += 1;
            }
            self.heads[count] = head;
            for &j in &bucket[head..] {
                if self.col_done[j] || self.col_count[j] != count {
                    continue; // stale bucket entry
                }
                let Some((cost, i, v)) = self.candidate(j) else {
                    continue;
                };
                examined += 1;
                if best.map_or(true, |(c, _)| cost < c) {
                    best = Some((cost, (j, i, v)));
                }
                if cost == 0 || examined >= MAX_CANDIDATES {
                    return best.map(|(_, p)| p);
                }
            }
        }
        best.map(|(_, p)| p)
    }
}

/// `B₀ = P_r⁻¹ L̂ Û P_c` in pivot order, as laid out on [`SparseLu`].
struct Factors {
    rowp: Vec<usize>,
    colp: Vec<usize>,
    lcols: Vec<Vec<(usize, f64)>>,
    ucols: Vec<Vec<(usize, f64)>>,
    udiag: Vec<f64>,
    /// Nonzeros of the input basis.
    basis_nnz: u64,
}

/// Eliminates the basis columns in the pivot order `search` picks.
/// `None` when the basis is singular.
fn factor(cols: &[&SparseCol], search: fn(&mut Active) -> Option<Pivot>) -> Option<Factors> {
    let m = cols.len();
    let mut a = Active::new(cols)?;
    let basis_nnz = a.col_count.iter().sum::<usize>() as u64;
    let mut f = Factors {
        rowp: Vec::with_capacity(m),
        colp: Vec::with_capacity(m),
        lcols: Vec::with_capacity(m),
        ucols: Vec::with_capacity(m),
        udiag: Vec::with_capacity(m),
        basis_nnz,
    };
    let mut u_of_col: Vec<Vec<(usize, f64)>> = vec![Vec::new(); m];

    // Dense accumulator for the rank-one column updates. The stamp token
    // is per *scatter* (not per column): a column is touched at many
    // elimination steps, and a stale per-column stamp would make a new
    // fill-in look like an already-present entry and drop it.
    let mut acc = vec![0.0; m];
    let mut stamp = vec![usize::MAX; m];
    let mut token = 0usize;

    for k in 0..m {
        // No acceptable pivot anywhere: singular.
        let (pcol, prow, pval) = search(&mut a)?;

        f.rowp.push(prow);
        f.colp.push(pcol);
        f.udiag.push(pval);
        f.ucols.push(std::mem::take(&mut u_of_col[pcol]));

        // L multipliers from the pivot column's remaining entries.
        let mut lk: Vec<(usize, f64)> = Vec::new();
        for &(i, v) in &a.col_entries[pcol] {
            if i != prow {
                lk.push((i, v / pval));
                a.row_count[i] -= 1;
            }
        }
        a.col_done[pcol] = true;
        a.col_entries[pcol].clear();

        // Rank-one update of every active column with a pivot-row entry;
        // U picks up the eliminated pivot-row entries.
        let touched = std::mem::take(&mut a.row_cols[prow]);
        for &j in &touched {
            if a.col_done[j] {
                continue;
            }
            let Some(epos) = a.col_entries[j].iter().position(|&(i, _)| i == prow) else {
                continue; // stale row-list entry
            };
            let apj = a.col_entries[j][epos].1;
            a.col_entries[j].swap_remove(epos);
            u_of_col[j].push((k, apj));
            // Scatter, update, gather.
            token += 1;
            for &(i, v) in &a.col_entries[j] {
                stamp[i] = token;
                acc[i] = v;
            }
            let mut fills: Vec<usize> = Vec::new();
            for &(i, l) in &lk {
                let delta = l * apj;
                if stamp[i] == token {
                    acc[i] -= delta;
                } else {
                    stamp[i] = token;
                    acc[i] = -delta;
                    fills.push(i);
                }
            }
            let mut rebuilt = Vec::with_capacity(a.col_entries[j].len() + fills.len());
            for &(i, _) in &a.col_entries[j] {
                if acc[i] != 0.0 {
                    rebuilt.push((i, acc[i]));
                } else {
                    a.row_count[i] -= 1;
                }
            }
            for &i in &fills {
                if acc[i] != 0.0 {
                    rebuilt.push((i, acc[i]));
                    a.row_count[i] += 1;
                    a.row_cols[i].push(j);
                }
            }
            let new_count = rebuilt.len();
            a.col_entries[j] = rebuilt;
            if new_count == 0 {
                return None; // column annihilated: singular
            }
            a.col_count[j] = new_count;
            a.buckets[new_count].push(j);
        }
        a.row_count[prow] = 0;
        f.lcols.push(lk);
    }
    Some(f)
}

/// Sparse LU factorization of the basis with product-form eta updates.
///
/// Dense vectors have length `m` (the row count passed to
/// [`reset`](Self::reset)); sparse right-hand sides are `(index, value)`
/// pairs with strictly increasing indices.
///
/// # Data layout
///
/// A successful [`refactorize`](Self::refactorize) stores
/// `B₀ = P_r⁻¹ L̂ Û P_c` in *pivot order* `k = 0..m`:
///
/// * `rowp[k]` / `colp[k]` — the original row / basis position of the
///   `k`-th pivot (`row_of` is the inverse row permutation);
/// * `lcols[k]` — the unit-lower-triangular multipliers of pivot `k`,
///   `(original_row, l)` pairs for rows eliminated later;
/// * `ucols[k]` + `udiag[k]` — column `k` of `Û`: `(pivot_order j < k, u)`
///   pairs plus the pivot value.
///
/// Pivots are chosen by Markowitz count `(r_i − 1)(c_j − 1)` over a
/// bounded candidate search, restricted to entries passing the Suhl–Suhl
/// threshold `|a_ij| ≥ 0.1 · max_i |a_ij|`.
///
/// Each subsequent basis change appends a product-form eta factor instead of
/// touching the factors: replacing position `r` by a column with
/// `w = B⁻¹ a_q` multiplies `B⁻¹` from the left by the eta matrix with
/// column `r` equal to `(−w_i/w_r … 1/w_r … )`. FTRAN applies the LU
/// solve then the etas in append order; BTRAN applies the etas transposed
/// in reverse order then the transposed LU solve.
pub struct SparseLu {
    m: usize,
    rowp: Vec<usize>,
    row_of: Vec<usize>,
    colp: Vec<usize>,
    lcols: Vec<Vec<(usize, f64)>>,
    ucols: Vec<Vec<(usize, f64)>>,
    udiag: Vec<f64>,
    etas: Vec<Eta>,
    /// Nonzeros currently held in `etas` (drives the fill-growth
    /// refactorization trigger).
    eta_nnz_current: u64,
    /// `nnz(L+U)` of the current factorization.
    lu_nnz: u64,
    scratch: RefCell<Scratch>,
    updates_since_refactor: u64,
    /// The pivots, refactorizations and nonzeros counted since
    /// construction.
    work: LpWork,
}

impl Default for SparseLu {
    fn default() -> Self {
        Self::new()
    }
}

impl SparseLu {
    /// Pivot updates between scheduled refactorizations (the solver's
    /// default cadence). An eta-file growth trigger handles growth between
    /// counts.
    pub const REFACTOR_INTERVAL: u64 = 128;

    /// An empty factorization; call [`reset`](Self::reset) before use.
    #[must_use]
    pub fn new() -> Self {
        Self {
            m: 0,
            rowp: Vec::new(),
            row_of: Vec::new(),
            colp: Vec::new(),
            lcols: Vec::new(),
            ucols: Vec::new(),
            udiag: Vec::new(),
            etas: Vec::new(),
            eta_nnz_current: 0,
            lu_nnz: 0,
            scratch: RefCell::new(Scratch::default()),
            updates_since_refactor: 0,
            work: LpWork::default(),
        }
    }

    /// Re-initializes to the `m × m` identity: the all-slack starting
    /// basis of a cold solve, and the empty factorization a
    /// [`refactorize`](Self::refactorize) of an imported basis starts from.
    pub fn reset(&mut self, m: usize) {
        self.m = m;
        self.rowp = (0..m).collect();
        self.row_of = (0..m).collect();
        self.colp = (0..m).collect();
        self.lcols = vec![Vec::new(); m];
        self.ucols = vec![Vec::new(); m];
        self.udiag = vec![1.0; m];
        self.etas.clear();
        self.eta_nnz_current = 0;
        self.lu_nnz = m as u64;
        self.updates_since_refactor = 0;
    }

    /// BTRAN: solves `y' B = c'` for a sparse right-hand side `c` indexed
    /// by *basis position* (ascending). `y` has length `m`, is overwritten
    /// and is indexed by row. The pricing duals are `btran` of the basic
    /// costs; the Devex pivot row is `btran` of `e_r`.
    pub fn btran(&self, c: &[(usize, f64)], y: &mut [f64]) {
        let m = self.m;
        let mut pos = {
            let mut scratch = self.scratch.borrow_mut();
            let mut pos = std::mem::take(&mut scratch.a);
            pos.clear();
            pos.resize(m, 0.0);
            pos
        };
        for &(j, v) in c {
            pos[j] += v;
        }
        // Transposed etas in reverse append order: as a row vector,
        // c' E⁻¹ only changes component r, to the dot product of c with
        // the eta column.
        for eta in self.etas.iter().rev() {
            let mut v = eta.diag * pos[eta.r];
            for &(i, e) in &eta.off {
                v += e * pos[i];
            }
            pos[eta.r] = v;
        }
        self.lu_btran(&pos, y);
        self.scratch.borrow_mut().a = pos;
    }

    /// Applies the transposed LU solve: given `c` scattered over basis
    /// positions in `pos`, leaves `y` (indexed by original row) with the
    /// solution of `y' B₀ = c'`.
    fn lu_btran(&self, pos: &[f64], y: &mut [f64]) {
        let m = self.m;
        let mut scratch = self.scratch.borrow_mut();
        let s = &mut scratch.b;
        s.resize(m, 0.0);
        // Û' s = P_c c  (forward over pivot order; ucols[k] is column k).
        for k in 0..m {
            let mut v = pos[self.colp[k]];
            for &(j, u) in &self.ucols[k] {
                v -= u * s[j];
            }
            s[k] = v / self.udiag[k];
        }
        // L̂' t = s  (backward; multipliers stored by original row).
        for k in (0..m).rev() {
            let mut v = s[k];
            for &(i, l) in &self.lcols[k] {
                v -= l * s[self.row_of[i]];
            }
            s[k] = v;
        }
        y.fill(0.0);
        for k in 0..m {
            y[self.rowp[k]] = s[k];
        }
    }

    /// FTRAN: solves `B w = a` for a sparse column `a` indexed by row.
    /// `w` has length `m`, is overwritten and is indexed by basis
    /// position.
    pub fn ftran(&self, a: &[(usize, f64)], w: &mut [f64]) {
        let m = self.m;
        let mut work = {
            let mut scratch = self.scratch.borrow_mut();
            let mut work = std::mem::take(&mut scratch.a);
            work.clear();
            work.resize(m, 0.0);
            work
        };
        for &(i, v) in a {
            work[i] += v;
        }
        // L̂ y = P_r a (forward over pivot order, on original row indices).
        for k in 0..m {
            let t = work[self.rowp[k]];
            if t != 0.0 {
                for &(i, l) in &self.lcols[k] {
                    work[i] -= l * t;
                }
            }
        }
        // Û z = y (backward over pivot order).
        {
            let mut scratch = self.scratch.borrow_mut();
            let z = &mut scratch.b;
            z.resize(m, 0.0);
            for k in 0..m {
                z[k] = work[self.rowp[k]];
            }
            for k in (0..m).rev() {
                let v = z[k] / self.udiag[k];
                z[k] = v;
                if v != 0.0 {
                    for &(j, u) in &self.ucols[k] {
                        z[j] -= u * v;
                    }
                }
            }
            w.fill(0.0);
            for k in 0..m {
                w[self.colp[k]] = z[k];
            }
        }
        self.scratch.borrow_mut().a = work;
        // Product-form etas in append order.
        for eta in &self.etas {
            let t = w[eta.r];
            if t != 0.0 {
                w[eta.r] = eta.diag * t;
                for &(i, e) in &eta.off {
                    w[i] += e * t;
                }
            }
        }
    }

    /// Applies the rank-one update replacing basis position `r`, given the
    /// pivot direction `w = B⁻¹ A_q` of the entering column.
    pub fn pivot(&mut self, r: usize, w: &[f64]) {
        let pivot = w[r];
        debug_assert!(pivot.abs() > 1e-12, "numerically singular pivot");
        let inv_pivot = 1.0 / pivot;
        let mut off = Vec::new();
        for (i, &wi) in w.iter().enumerate() {
            // Same drop floor as a dense Gauss-Jordan row update.
            if i != r && wi.abs() > 1e-13 {
                off.push((i, -wi * inv_pivot));
            }
        }
        let nnz = 1 + off.len() as u64;
        self.eta_nnz_current += nnz;
        self.work.eta_nonzeros += nnz;
        self.etas.push(Eta {
            r,
            diag: inv_pivot,
            off,
        });
        self.work.pivots += 1;
        self.updates_since_refactor += 1;
    }

    /// Rebuilds the factorization from scratch out of the current basis
    /// columns (`cols[i]` is the constraint-matrix column of the variable
    /// basic in position `i`). Returns `false` when the rebuild fails
    /// (numerically singular input) — the factorization and its eta file
    /// are then left as they were.
    pub fn refactorize(&mut self, cols: &[&SparseCol]) -> bool {
        let m = self.m;
        debug_assert_eq!(cols.len(), m, "one basis column per row");
        let Some(f) = factor(cols, Active::markowitz_pivot) else {
            return false;
        };
        self.row_of = vec![0; m];
        for k in 0..m {
            self.row_of[f.rowp[k]] = k;
        }
        let lu_nnz = m as u64
            + f.lcols.iter().map(|c| c.len() as u64).sum::<u64>()
            + f.ucols.iter().map(|c| c.len() as u64).sum::<u64>();
        self.rowp = f.rowp;
        self.colp = f.colp;
        self.lcols = f.lcols;
        self.ucols = f.ucols;
        self.udiag = f.udiag;
        self.etas.clear();
        self.eta_nnz_current = 0;
        self.lu_nnz = lu_nnz;
        self.work.lu_nonzeros += lu_nnz;
        self.work.basis_nonzeros += f.basis_nnz;
        self.updates_since_refactor = 0;
        self.work.refactorizations += 1;
        true
    }

    /// Pivot updates applied since the last [`reset`](Self::reset) or
    /// successful [`refactorize`](Self::refactorize).
    #[must_use]
    pub fn updates_since_refactor(&self) -> u64 {
        self.updates_since_refactor
    }

    /// The pivot updates, successful refactorizations and nonzeros
    /// (eta file, `L+U`, basis) counted since construction; the other
    /// fields stay zero.
    #[must_use]
    pub fn work(&self) -> &LpWork {
        &self.work
    }

    /// Whether a refactorization is due: `interval` pivot updates since
    /// the last rebuild, or an eta file grown past twice the factors.
    #[must_use]
    pub(crate) fn wants_refactor(&self, interval: u64) -> bool {
        self.updates_since_refactor >= interval
            || self.eta_nnz_current > 2 * (self.lu_nnz + self.m as u64)
    }
}

impl fmt::Debug for SparseLu {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SparseLu")
            .field("rows", &self.m)
            .field("pivots", &self.work.pivots)
            .field("refactorizations", &self.work.refactorizations)
            .field("lu_nnz", &self.lu_nnz)
            .field("eta_nnz", &self.eta_nnz_current)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use letdma_core::{Rng, Xoshiro256};

    #[test]
    fn sparse_lu_reset_is_signed_identity() {
        let mut b = SparseLu::new();
        b.reset(3);
        let mut w = vec![0.0; 3];
        b.ftran(&[(0, 3.0), (1, 5.0), (2, -2.0)], &mut w);
        assert_eq!(w, vec![3.0, 5.0, -2.0]);
        let mut y = vec![0.0; 3];
        b.btran(&[(1, 4.0)], &mut y);
        assert_eq!(y, vec![0.0, 4.0, 0.0]);
    }

    #[test]
    fn sparse_lu_factorizes_and_solves() {
        let mut b = SparseLu::new();
        b.reset(3);
        let cols: Vec<SparseCol> = vec![
            vec![(0, 2.0), (2, 1.0)],
            vec![(1, 3.0)],
            vec![(0, 1.0), (2, 4.0)],
        ];
        let refs: Vec<&SparseCol> = cols.iter().collect();
        assert!(b.refactorize(&refs));
        // B w = col_r must give e_r.
        let mut w = vec![0.0; 3];
        for (r, col) in cols.iter().enumerate() {
            b.ftran(col, &mut w);
            for (k, &wk) in w.iter().enumerate() {
                let expect = if k == r { 1.0 } else { 0.0 };
                assert!((wk - expect).abs() < 1e-9, "col {r}, pos {k}: {wk}");
            }
        }
        // y' B = e_r' must give row r of B⁻¹: check y'·col_j = δ_rj.
        let mut y = vec![0.0; 3];
        for r in 0..3 {
            b.btran(&[(r, 1.0)], &mut y);
            for (j, col) in cols.iter().enumerate() {
                let dot: f64 = col.iter().map(|&(i, v)| y[i] * v).sum();
                let expect = if j == r { 1.0 } else { 0.0 };
                assert!((dot - expect).abs() < 1e-9, "row {r}, col {j}: {dot}");
            }
        }
    }

    #[test]
    fn sparse_lu_pivot_updates_track_the_new_basis() {
        let mut b = SparseLu::new();
        b.reset(2);
        let a0: SparseCol = vec![(0, 2.0), (1, 1.0)];
        let mut w = vec![0.0; 2];
        b.ftran(&a0, &mut w);
        assert_eq!(w, vec![2.0, 1.0]);
        b.pivot(0, &w);
        let e1: SparseCol = vec![(0, 1.0)];
        b.ftran(&e1, &mut w);
        assert!((w[0] - 0.5).abs() < 1e-12 && (w[1] + 0.5).abs() < 1e-12);
        assert_eq!(b.work().pivots, 1);
        assert_eq!(b.updates_since_refactor(), 1);
        assert!(b.work().eta_nonzeros >= 2);
        let mut y = vec![0.0; 2];
        b.btran(&[(1, 2.0)], &mut y);
        assert!((y[0] + 1.0).abs() < 1e-12 && (y[1] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn sparse_lu_rejects_singular_and_keeps_state() {
        let mut b = SparseLu::new();
        b.reset(2);
        let c0: SparseCol = vec![(0, 1.0), (1, 1.0)];
        let c1: SparseCol = vec![(0, 2.0), (1, 2.0)]; // linearly dependent
        assert!(!b.refactorize(&[&c0, &c1]));
        assert_eq!(b.work().refactorizations, 0);
        // Still the identity factorization.
        let mut w = vec![0.0; 2];
        b.ftran(&[(0, 7.0)], &mut w);
        assert_eq!(w, vec![7.0, 0.0]);
    }

    #[test]
    fn sparse_lu_fill_trigger_fires_on_eta_growth() {
        let mut b = SparseLu::new();
        b.reset(4);
        assert!(!b.wants_refactor(128));
        // Dense pivots append 4 nonzeros each; five of them grow the eta
        // file to 20, past the 2·(lu_nnz + m) = 16 trigger.
        for k in 0..5 {
            let w = vec![1.0, 1.0, 1.0, 2.0];
            b.pivot(k % 4, &w);
        }
        assert!(b.wants_refactor(128), "fill growth must trigger a rebuild");
    }

    /// The pivot search as it was before per-bucket heads: every pivot
    /// scans each bucket from its first entry, eliminated columns
    /// included. Kept as the reference the head-skipping search must
    /// match pivot for pivot.
    fn full_rescan_pivot(a: &mut Active) -> Option<Pivot> {
        let mut best: Option<(usize, Pivot)> = None;
        let mut examined = 0usize;
        for (count, bucket) in a.buckets.iter().enumerate().skip(1) {
            for &j in bucket {
                if a.col_done[j] || a.col_count[j] != count {
                    continue;
                }
                let Some((cost, i, v)) = a.candidate(j) else {
                    continue;
                };
                examined += 1;
                if best.map_or(true, |(c, _)| cost < c) {
                    best = Some((cost, (j, i, v)));
                }
                if cost == 0 || examined >= MAX_CANDIDATES {
                    return best.map(|(_, p)| p);
                }
            }
        }
        best.map(|(_, p)| p)
    }

    /// `m` basis columns: the first `singletons` are slack-like unit
    /// columns on distinct rows, the rest carry a diagonal entry plus
    /// `density`-random off-diagonal ones; the columns are then shuffled.
    /// With `unit`, every coefficient is `±1`, so entries cancel exactly
    /// mid-elimination (often singular).
    fn corpus_basis(
        rng: &mut Xoshiro256,
        m: usize,
        singletons: usize,
        density: f64,
        unit: bool,
    ) -> Vec<SparseCol> {
        let coef = |rng: &mut Xoshiro256| {
            let magnitude = if unit { 1.0 } else { rng.f64_range(0.1, 4.0) };
            if rng.bool() {
                magnitude
            } else {
                -magnitude
            }
        };
        let mut rows: Vec<usize> = (0..m).collect();
        rng.shuffle(&mut rows);
        let mut cols: Vec<SparseCol> = Vec::with_capacity(m);
        for (j, &d) in rows.iter().enumerate() {
            let mut col: SparseCol = vec![(d, coef(rng))];
            if j >= singletons {
                for i in 0..m {
                    if i != d && rng.f64_unit() < density {
                        col.push((i, coef(rng)));
                    }
                }
            }
            col.sort_unstable_by_key(|&(i, _)| i);
            cols.push(col);
        }
        rng.shuffle(&mut cols);
        cols
    }

    /// Both searches must pick the same pivots in the same order, so the
    /// factors — down to the bits of every pivot value — are identical.
    /// Returns whether the basis factored.
    fn assert_same_pivots(tag: &str, cols: &[SparseCol]) -> bool {
        let refs: Vec<&SparseCol> = cols.iter().collect();
        let fast = factor(&refs, Active::markowitz_pivot);
        let reference = factor(&refs, full_rescan_pivot);
        let (Some(fast), Some(reference)) = (&fast, &reference) else {
            assert_eq!(fast.is_some(), reference.is_some(), "{tag}: verdicts");
            return false;
        };
        assert_eq!(fast.rowp, reference.rowp, "{tag}: rowp");
        assert_eq!(fast.colp, reference.colp, "{tag}: colp");
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&fast.udiag), bits(&reference.udiag), "{tag}: udiag");
        true
    }

    /// Seeded `{0, ±1}` and real-valued corpora, alternating.
    #[test]
    fn head_skipping_search_matches_the_full_rescan() {
        let mut rng = Xoshiro256::seed_from_u64(0x51D3_C0DE);
        let mut factored = 0;
        for case in 0..120 {
            let m = rng.usize_range(6, 66);
            let singletons = rng.usize_below(m / 2 + 1);
            let density = rng.f64_range(0.02, 0.32);
            let cols = corpus_basis(&mut rng, m, singletons, density, case % 2 == 0);
            if assert_same_pivots(&format!("case {case}"), &cols) {
                factored += 1;
            }
        }
        assert!(factored >= 60, "only {factored} of 120 cases factored");
    }

    /// The shape of a WATERS root basis: mostly slack singletons, a
    /// sparse `{0, ±1}` structural block.
    #[test]
    fn head_skipping_search_matches_the_full_rescan_on_a_waters_shaped_basis() {
        let mut rng = Xoshiro256::seed_from_u64(0x3A7E_5201);
        let m = 1400;
        let cols = corpus_basis(&mut rng, m, 1100, 3.0 / m as f64, true);
        assert!(
            assert_same_pivots("waters-shaped", &cols),
            "the basis must factor"
        );
    }
}
