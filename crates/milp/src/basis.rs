//! Factorized basis of the revised simplex.
//!
//! The simplex only ever touches the basis through five operations — a
//! BTRAN solve over a sparse right-hand side, an FTRAN solve of a sparse
//! column, a rank-one pivot update, a from-scratch refactorization and a
//! reset to the signed-identity starting basis. The solver runs on
//! [`SparseLu`]: a sparse LU factorization of the basis (Markowitz pivot
//! selection with Suhl–Suhl threshold partial pivoting, stored as sparse
//! triangular factors) plus product-form eta updates between
//! refactorizations. Every operation costs
//! `O(nnz(L) + nnz(U) + nnz(etas) + m)` instead of the dense `O(m²)`.
//!
//! The five operations also form the [`Basis`] trait, whose only other
//! implementation is [`DenseInverse`] — the explicit row-major `m × m`
//! inverse the workspace started with. The solver never constructs it: it
//! is the reference oracle that `crates/milp/tests/basis_differential.rs`
//! pins [`SparseLu`] against to 1e-9. DESIGN.md §"Sparse LU basis &
//! pricing" documents the data layout and the update formula.

use std::cell::RefCell;
use std::fmt;

/// Sparse column: `(row, coefficient)` pairs, as stored by the solver.
pub type SparseCol = Vec<(usize, f64)>;

/// The operations the bounded-variable revised simplex needs from a
/// basis representation: the interface on which [`DenseInverse`] serves
/// as the reference oracle for [`SparseLu`].
///
/// Implementations maintain a factorization (or inverse) of the current
/// basis matrix `B` (one column per row of the LP). Dense vectors have
/// length `m` (the row count passed to [`reset`](Basis::reset)); sparse
/// right-hand sides are `(index, value)` pairs with strictly increasing
/// indices.
pub trait Basis: fmt::Debug {
    /// Re-initializes to a *signed identity*: `B = diag(signs)`.
    ///
    /// The artificial starting basis of phase 1 is diagonal: `+1` rows for
    /// basic slacks/`p`-artificials, `−1` rows where the negative
    /// `q`-artificial is basic.
    fn reset(&mut self, signs: &[f64]);

    /// BTRAN: solves `y' B = c'` for a sparse right-hand side `c` indexed
    /// by *basis position* (ascending). `y` has length `m`, is overwritten
    /// and is indexed by row. The pricing duals are `btran` of the basic
    /// costs; the Devex pivot row is `btran` of `e_r`.
    fn btran(&self, c: &[(usize, f64)], y: &mut [f64]);

    /// FTRAN: solves `B w = a` for a sparse column `a` indexed by row.
    /// `w` has length `m`, is overwritten and is indexed by basis
    /// position.
    fn ftran(&self, a: &[(usize, f64)], w: &mut [f64]);

    /// Applies the rank-one update replacing basis position `r`, given the
    /// pivot direction `w = B⁻¹ A_q` of the entering column.
    fn pivot(&mut self, r: usize, w: &[f64]);

    /// Rebuilds the representation from scratch out of the current basis
    /// columns (`cols[i]` is the constraint-matrix column of the variable
    /// basic in position `i`). Returns `false` when the rebuild fails
    /// (numerically singular input) — the caller keeps the updated
    /// representation in that case.
    fn refactorize(&mut self, cols: &[&SparseCol]) -> bool;

    /// Pivot updates applied since the last [`reset`](Basis::reset) or
    /// successful [`refactorize`](Basis::refactorize).
    fn updates_since_refactor(&self) -> u64;

    /// Total pivot updates applied since construction.
    fn pivots(&self) -> u64;

    /// Total successful refactorizations since construction.
    fn refactorizations(&self) -> u64;
}

/// The workspace's classic representation: an explicit dense row-major
/// `m × m` inverse with product-form (Gauss-Jordan) pivot updates and
/// Gauss-Jordan refactorization.
///
/// Every operation is a dense `O(m)`/`O(m²)` loop — simple, predictable,
/// and retained as the differential oracle for [`SparseLu`].
#[derive(Clone, Default)]
pub struct DenseInverse {
    m: usize,
    /// Row-major `m × m` inverse.
    binv: Vec<f64>,
    updates_since_refactor: u64,
    pivots: u64,
    refactorizations: u64,
}

impl DenseInverse {
    /// An empty inverse; call [`Basis::reset`] before use.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }
}

impl fmt::Debug for DenseInverse {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DenseInverse")
            .field("rows", &self.m)
            .field("pivots", &self.pivots)
            .field("refactorizations", &self.refactorizations)
            .finish()
    }
}

impl Basis for DenseInverse {
    fn reset(&mut self, signs: &[f64]) {
        let m = signs.len();
        self.m = m;
        self.binv.clear();
        self.binv.resize(m * m, 0.0);
        for (i, &s) in signs.iter().enumerate() {
            self.binv[i * m + i] = s;
        }
        self.updates_since_refactor = 0;
    }

    fn btran(&self, c: &[(usize, f64)], y: &mut [f64]) {
        let m = self.m;
        y.fill(0.0);
        for &(i, ci) in c {
            if ci != 0.0 {
                let row = &self.binv[i * m..(i + 1) * m];
                for (yk, &bk) in y.iter_mut().zip(row) {
                    *yk += ci * bk;
                }
            }
        }
    }

    fn ftran(&self, a: &[(usize, f64)], w: &mut [f64]) {
        let m = self.m;
        w.fill(0.0);
        for &(i, coef) in a {
            if coef != 0.0 {
                for (k, wk) in w.iter_mut().enumerate() {
                    *wk += self.binv[k * m + i] * coef;
                }
            }
        }
    }

    fn pivot(&mut self, r: usize, w: &[f64]) {
        let m = self.m;
        let pivot = w[r];
        debug_assert!(pivot.abs() > 1e-12, "numerically singular pivot");
        let inv_pivot = 1.0 / pivot;
        // Row r := row r / pivot.
        for k in 0..m {
            self.binv[r * m + k] *= inv_pivot;
        }
        // Row i := row i − w_i · row r (i ≠ r).
        for i in 0..m {
            if i == r {
                continue;
            }
            let f = w[i];
            if f.abs() > 1e-13 {
                let (head, tail) = self.binv.split_at_mut(r.max(i) * m);
                let (row_i, row_r) = if i < r {
                    (&mut head[i * m..(i + 1) * m], &tail[..m])
                } else {
                    (&mut tail[..m], &head[r * m..(r + 1) * m])
                };
                for k in 0..m {
                    row_i[k] -= f * row_r[k];
                }
            }
        }
        self.pivots += 1;
        self.updates_since_refactor += 1;
    }

    fn refactorize(&mut self, cols: &[&SparseCol]) -> bool {
        let m = self.m;
        debug_assert_eq!(cols.len(), m, "one basis column per row");
        // Gauss-Jordan with partial pivoting on [B | I] → [I | B⁻¹].
        let mut aug = vec![0.0; m * 2 * m];
        let width = 2 * m;
        for (j, col) in cols.iter().enumerate() {
            for &(i, v) in col.iter() {
                aug[i * width + j] = v;
            }
        }
        for i in 0..m {
            aug[i * width + m + i] = 1.0;
        }
        for col in 0..m {
            // Partial pivot: largest magnitude in this column at/below row `col`.
            let mut best = col;
            let mut best_mag = aug[col * width + col].abs();
            for row in col + 1..m {
                let mag = aug[row * width + col].abs();
                if mag > best_mag {
                    best = row;
                    best_mag = mag;
                }
            }
            if best_mag <= 1e-12 {
                return false; // singular: keep the product-form inverse
            }
            if best != col {
                for k in 0..width {
                    aug.swap(col * width + k, best * width + k);
                }
            }
            let inv = 1.0 / aug[col * width + col];
            for k in 0..width {
                aug[col * width + k] *= inv;
            }
            for row in 0..m {
                if row == col {
                    continue;
                }
                let f = aug[row * width + col];
                if f != 0.0 {
                    for k in 0..width {
                        aug[row * width + k] -= f * aug[col * width + k];
                    }
                }
            }
        }
        for row in 0..m {
            self.binv[row * m..(row + 1) * m]
                .copy_from_slice(&aug[row * width + m..(row + 1) * width]);
        }
        self.updates_since_refactor = 0;
        self.refactorizations += 1;
        true
    }

    fn updates_since_refactor(&self) -> u64 {
        self.updates_since_refactor
    }

    fn pivots(&self) -> u64 {
        self.pivots
    }

    fn refactorizations(&self) -> u64 {
        self.refactorizations
    }
}

/// One product-form update: the inverse of the elementary matrix that
/// replaces basis position `r`, stored as its only non-identity column.
#[derive(Clone)]
struct Eta {
    r: usize,
    /// `1 / w_r` — the diagonal entry at `r`.
    diag: f64,
    /// `(i, −w_i / w_r)` for `i ≠ r` — the off-diagonal entries.
    off: Vec<(usize, f64)>,
}

/// Scratch vectors reused across `ftran`/`btran` calls (interior
/// mutability keeps the trait methods `&self` without per-call
/// allocation in the hot loop).
#[derive(Clone, Default)]
struct Scratch {
    a: Vec<f64>,
    b: Vec<f64>,
}

/// Sparse LU factorization of the basis with product-form eta updates.
///
/// # Data layout
///
/// A successful [`refactorize`](Basis::refactorize) stores `B₀ = P_r⁻¹ L̂ Û P_c`
/// in *pivot order* `k = 0..m`:
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
    col_of: Vec<usize>,
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
    pivots: u64,
    refactorizations: u64,
    eta_nnz_total: u64,
    lu_nnz_total: u64,
    basis_nnz_total: u64,
}

impl Default for SparseLu {
    fn default() -> Self {
        Self::new()
    }
}

impl SparseLu {
    /// Suhl–Suhl relative threshold: a pivot must be at least this
    /// fraction of its column's largest active magnitude.
    const THRESHOLD: f64 = 0.1;
    /// Absolute singularity floor, matching [`DenseInverse`].
    const ABS_PIVOT: f64 = 1e-12;
    /// Markowitz candidate columns examined per pivot before settling.
    const MAX_CANDIDATES: usize = 8;

    /// An empty factorization; call [`Basis::reset`] before use.
    #[must_use]
    pub fn new() -> Self {
        Self {
            m: 0,
            rowp: Vec::new(),
            row_of: Vec::new(),
            colp: Vec::new(),
            col_of: Vec::new(),
            lcols: Vec::new(),
            ucols: Vec::new(),
            udiag: Vec::new(),
            etas: Vec::new(),
            eta_nnz_current: 0,
            lu_nnz: 0,
            scratch: RefCell::new(Scratch::default()),
            updates_since_refactor: 0,
            pivots: 0,
            refactorizations: 0,
            eta_nnz_total: 0,
            lu_nnz_total: 0,
            basis_nnz_total: 0,
        }
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
}

impl fmt::Debug for SparseLu {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SparseLu")
            .field("rows", &self.m)
            .field("pivots", &self.pivots)
            .field("refactorizations", &self.refactorizations)
            .field("lu_nnz", &self.lu_nnz)
            .field("eta_nnz", &self.eta_nnz_current)
            .finish()
    }
}

impl Clone for SparseLu {
    fn clone(&self) -> Self {
        Self {
            m: self.m,
            rowp: self.rowp.clone(),
            row_of: self.row_of.clone(),
            colp: self.colp.clone(),
            col_of: self.col_of.clone(),
            lcols: self.lcols.clone(),
            ucols: self.ucols.clone(),
            udiag: self.udiag.clone(),
            etas: self.etas.clone(),
            eta_nnz_current: self.eta_nnz_current,
            lu_nnz: self.lu_nnz,
            scratch: RefCell::new(Scratch::default()),
            updates_since_refactor: self.updates_since_refactor,
            pivots: self.pivots,
            refactorizations: self.refactorizations,
            eta_nnz_total: self.eta_nnz_total,
            lu_nnz_total: self.lu_nnz_total,
            basis_nnz_total: self.basis_nnz_total,
        }
    }
}

impl Basis for SparseLu {
    fn reset(&mut self, signs: &[f64]) {
        let m = signs.len();
        self.m = m;
        self.rowp = (0..m).collect();
        self.row_of = (0..m).collect();
        self.colp = (0..m).collect();
        self.col_of = (0..m).collect();
        self.lcols = vec![Vec::new(); m];
        self.ucols = vec![Vec::new(); m];
        self.udiag = signs.to_vec();
        self.etas.clear();
        self.eta_nnz_current = 0;
        self.lu_nnz = m as u64;
        self.updates_since_refactor = 0;
    }

    fn btran(&self, c: &[(usize, f64)], y: &mut [f64]) {
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

    fn ftran(&self, a: &[(usize, f64)], w: &mut [f64]) {
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

    fn pivot(&mut self, r: usize, w: &[f64]) {
        let pivot = w[r];
        debug_assert!(pivot.abs() > 1e-12, "numerically singular pivot");
        let inv_pivot = 1.0 / pivot;
        let mut off = Vec::new();
        for (i, &wi) in w.iter().enumerate() {
            // Same drop floor as the dense update loop.
            if i != r && wi.abs() > 1e-13 {
                off.push((i, -wi * inv_pivot));
            }
        }
        let nnz = 1 + off.len() as u64;
        self.eta_nnz_current += nnz;
        self.eta_nnz_total += nnz;
        self.etas.push(Eta {
            r,
            diag: inv_pivot,
            off,
        });
        self.pivots += 1;
        self.updates_since_refactor += 1;
    }

    fn refactorize(&mut self, cols: &[&SparseCol]) -> bool {
        let m = self.m;
        debug_assert_eq!(cols.len(), m, "one basis column per row");
        let mut basis_nnz: u64 = 0;

        // Active submatrix, column-wise values + row-wise column lists
        // (the row lists may hold stale entries; counts are exact).
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
            basis_nnz += entries.len() as u64;
            if entries.is_empty() {
                return false; // structurally singular
            }
            col_count[j] = entries.len();
            col_entries.push(entries);
        }

        let mut col_done = vec![false; m];
        // Columns bucketed by active count; stale entries are skipped on
        // pop (a column's count changes as the elimination proceeds).
        let mut buckets: Vec<Vec<usize>> = vec![Vec::new(); m + 1];
        for j in 0..m {
            buckets[col_count[j]].push(j);
        }

        let mut rowp = Vec::with_capacity(m);
        let mut colp = Vec::with_capacity(m);
        let mut lcols: Vec<Vec<(usize, f64)>> = Vec::with_capacity(m);
        let mut ucols: Vec<Vec<(usize, f64)>> = Vec::with_capacity(m);
        let mut udiag = Vec::with_capacity(m);
        let mut u_of_col: Vec<Vec<(usize, f64)>> = vec![Vec::new(); m];

        // Dense accumulator for the rank-one column updates. The stamp
        // token is per *scatter* (not per column): a column is touched at
        // many elimination steps, and a stale per-column stamp would make
        // a new fill-in look like an already-present entry and drop it.
        let mut acc = vec![0.0; m];
        let mut stamp = vec![usize::MAX; m];
        let mut token = 0usize;

        for k in 0..m {
            // Markowitz pivot search over a bounded candidate set, in
            // ascending column-count buckets (deterministic: ascending
            // column index inside a bucket, first-best wins ties).
            let mut best: Option<(usize, usize, usize, f64)> = None; // (cost, j, i, v)
            let mut examined = 0usize;
            'search: for (count, bucket) in buckets.iter().enumerate().skip(1) {
                for &j in bucket {
                    if col_done[j] || col_count[j] != count {
                        continue; // stale bucket entry
                    }
                    let colmax = col_entries[j]
                        .iter()
                        .fold(0.0f64, |mx, &(_, v)| mx.max(v.abs()));
                    if colmax <= Self::ABS_PIVOT {
                        continue; // numerically empty column
                    }
                    let floor = (colmax * Self::THRESHOLD).max(Self::ABS_PIVOT);
                    let mut col_best: Option<(usize, usize, f64)> = None; // (cost, i, v)
                    for &(i, v) in &col_entries[j] {
                        if v.abs() >= floor {
                            let cost = (row_count[i] - 1) * (count - 1);
                            let better = match col_best {
                                None => true,
                                Some((c, bi, _)) => cost < c || (cost == c && i < bi),
                            };
                            if better {
                                col_best = Some((cost, i, v));
                            }
                        }
                    }
                    if let Some((cost, i, v)) = col_best {
                        examined += 1;
                        let better = match best {
                            None => true,
                            Some((c, ..)) => cost < c,
                        };
                        if better {
                            best = Some((cost, j, i, v));
                        }
                        if cost == 0 || examined >= Self::MAX_CANDIDATES {
                            break 'search;
                        }
                    }
                }
            }
            let Some((_, pcol, prow, pval)) = best else {
                return false; // no acceptable pivot anywhere: singular
            };

            rowp.push(prow);
            colp.push(pcol);
            udiag.push(pval);
            ucols.push(std::mem::take(&mut u_of_col[pcol]));

            // L multipliers from the pivot column's remaining entries.
            let mut lk: Vec<(usize, f64)> = Vec::new();
            for &(i, v) in &col_entries[pcol] {
                if i != prow {
                    lk.push((i, v / pval));
                    row_count[i] -= 1;
                }
            }
            col_done[pcol] = true;
            col_entries[pcol].clear();

            // Rank-one update of every active column with a pivot-row
            // entry; U picks up the eliminated pivot-row entries.
            let touched = std::mem::take(&mut row_cols[prow]);
            for &j in &touched {
                if col_done[j] {
                    continue;
                }
                let Some(epos) = col_entries[j].iter().position(|&(i, _)| i == prow) else {
                    continue; // stale row-list entry
                };
                let apj = col_entries[j][epos].1;
                col_entries[j].swap_remove(epos);
                u_of_col[j].push((k, apj));
                // Scatter, update, gather.
                token += 1;
                for &(i, v) in &col_entries[j] {
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
                let mut rebuilt = Vec::with_capacity(col_entries[j].len() + fills.len());
                for &(i, _) in &col_entries[j] {
                    if acc[i] != 0.0 {
                        rebuilt.push((i, acc[i]));
                    } else {
                        row_count[i] -= 1;
                    }
                }
                for &i in &fills {
                    if acc[i] != 0.0 {
                        rebuilt.push((i, acc[i]));
                        row_count[i] += 1;
                        row_cols[i].push(j);
                    }
                }
                let new_count = rebuilt.len();
                col_entries[j] = rebuilt;
                if new_count != col_count[j] {
                    col_count[j] = new_count;
                    if new_count == 0 {
                        return false; // column annihilated: singular
                    }
                }
                buckets[new_count].push(j);
            }
            row_count[prow] = 0;
            lcols.push(lk);
        }

        // Commit (failures above leave `self` untouched).
        self.rowp = rowp;
        self.colp = colp;
        self.row_of = vec![0; m];
        self.col_of = vec![0; m];
        for k in 0..m {
            self.row_of[self.rowp[k]] = k;
            self.col_of[self.colp[k]] = k;
        }
        let lu_nnz =
            m as u64 + self.lu_of_nnz(&lcols) + ucols.iter().map(|c| c.len() as u64).sum::<u64>();
        self.lcols = lcols;
        self.ucols = ucols;
        self.udiag = udiag;
        self.etas.clear();
        self.eta_nnz_current = 0;
        self.lu_nnz = lu_nnz;
        self.lu_nnz_total += lu_nnz;
        self.basis_nnz_total += basis_nnz;
        self.updates_since_refactor = 0;
        self.refactorizations += 1;
        true
    }

    fn updates_since_refactor(&self) -> u64 {
        self.updates_since_refactor
    }

    fn pivots(&self) -> u64 {
        self.pivots
    }

    fn refactorizations(&self) -> u64 {
        self.refactorizations
    }
}

impl SparseLu {
    /// Pivot updates between scheduled refactorizations (the solver's
    /// default cadence). The rebuild is cheap (near-linear in nnz) and
    /// keeps the eta file short; an eta-file growth trigger handles growth
    /// between counts.
    pub const REFACTOR_INTERVAL: u64 = 128;

    /// Whether a refactorization is due: `interval` pivot updates since
    /// the last rebuild, or an eta file grown past twice the factors.
    #[must_use]
    pub(crate) fn wants_refactor(&self, interval: u64) -> bool {
        self.updates_since_refactor >= interval
            || self.eta_nnz_current > 2 * (self.lu_nnz + self.m as u64)
    }

    /// Total nonzeros appended to the eta file by pivots since
    /// construction.
    #[must_use]
    pub fn eta_nonzeros(&self) -> u64 {
        self.eta_nnz_total
    }

    /// `(Σ nnz(L+U), Σ nnz(B))` over all successful refactorizations
    /// since construction — the fill-in ratio numerator/denominator.
    #[must_use]
    pub fn fill_nonzeros(&self) -> (u64, u64) {
        (self.lu_nnz_total, self.basis_nnz_total)
    }

    fn lu_of_nnz(&self, lcols: &[Vec<(usize, f64)>]) -> u64 {
        lcols.iter().map(|c| c.len() as u64).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dense_of(basis: &DenseInverse) -> Vec<f64> {
        basis.binv.clone()
    }

    #[test]
    fn reset_builds_signed_identity() {
        let mut b = DenseInverse::new();
        b.reset(&[1.0, -1.0, 1.0]);
        assert_eq!(
            dense_of(&b),
            vec![1.0, 0.0, 0.0, 0.0, -1.0, 0.0, 0.0, 0.0, 1.0]
        );
    }

    #[test]
    fn ftran_multiplies_by_inverse() {
        let mut b = DenseInverse::new();
        b.reset(&[1.0, 1.0]);
        // Pivot column (2, 1)' into position 0: new B = [[2,0],[1,1]].
        let a0: SparseCol = vec![(0, 2.0), (1, 1.0)];
        let mut w = vec![0.0; 2];
        b.ftran(&a0, &mut w);
        assert_eq!(w, vec![2.0, 1.0]);
        b.pivot(0, &w);
        // B⁻¹ = [[0.5, 0], [-0.5, 1]]; check via FTRAN of e1.
        let e1: SparseCol = vec![(0, 1.0)];
        b.ftran(&e1, &mut w);
        assert!((w[0] - 0.5).abs() < 1e-12 && (w[1] + 0.5).abs() < 1e-12);
        assert_eq!(b.pivots(), 1);
        assert_eq!(b.updates_since_refactor(), 1);
    }

    #[test]
    fn btran_matches_inverse_rows() {
        let mut b = DenseInverse::new();
        b.reset(&[1.0, 1.0]);
        let a0: SparseCol = vec![(0, 2.0), (1, 1.0)];
        let mut w = vec![0.0; 2];
        b.ftran(&a0, &mut w);
        b.pivot(0, &w);
        let mut y = vec![0.0; 2];
        b.btran(&[(1, 2.0)], &mut y); // 2 · row 1 of B⁻¹ = 2·[-0.5, 1]
        assert!((y[0] + 1.0).abs() < 1e-12 && (y[1] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn refactorize_recovers_exact_inverse() {
        let mut b = DenseInverse::new();
        b.reset(&[1.0, 1.0, 1.0]);
        // Apply a few product-form pivots, then refactorize from the basis
        // columns and compare: the rebuilt inverse must satisfy B·B⁻¹ = I.
        let cols: Vec<SparseCol> = vec![
            vec![(0, 2.0), (2, 1.0)],
            vec![(1, 3.0)],
            vec![(0, 1.0), (2, 4.0)],
        ];
        let mut w = vec![0.0; 3];
        for (r, col) in cols.iter().enumerate() {
            b.ftran(col, &mut w);
            b.pivot(r, &w);
        }
        let refs: Vec<&SparseCol> = cols.iter().collect();
        assert!(b.refactorize(&refs));
        assert_eq!(b.refactorizations(), 1);
        assert_eq!(b.updates_since_refactor(), 0);
        // Verify B⁻¹ B = I by FTRAN of each basis column.
        for (r, col) in cols.iter().enumerate() {
            b.ftran(col, &mut w);
            for (k, &wk) in w.iter().enumerate() {
                let expect = if k == r { 1.0 } else { 0.0 };
                assert!((wk - expect).abs() < 1e-9, "col {r}, row {k}: {wk}");
            }
        }
    }

    #[test]
    fn refactorize_rejects_singular_basis() {
        let mut b = DenseInverse::new();
        b.reset(&[1.0, 1.0]);
        let before = dense_of(&b);
        let c0: SparseCol = vec![(0, 1.0), (1, 1.0)];
        let c1: SparseCol = vec![(0, 2.0), (1, 2.0)]; // linearly dependent
        assert!(!b.refactorize(&[&c0, &c1]));
        assert_eq!(b.refactorizations(), 0);
        assert_eq!(dense_of(&b), before, "failed rebuild must not corrupt");
    }

    #[test]
    fn sparse_lu_reset_is_signed_identity() {
        let mut b = SparseLu::new();
        b.reset(&[1.0, -1.0, 1.0]);
        let mut w = vec![0.0; 3];
        b.ftran(&[(0, 3.0), (1, 5.0), (2, -2.0)], &mut w);
        assert_eq!(w, vec![3.0, -5.0, -2.0]);
        let mut y = vec![0.0; 3];
        b.btran(&[(1, 4.0)], &mut y);
        assert_eq!(y, vec![0.0, -4.0, 0.0]);
    }

    #[test]
    fn sparse_lu_factorizes_and_solves() {
        let mut b = SparseLu::new();
        b.reset(&[1.0, 1.0, 1.0]);
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
        b.reset(&[1.0, 1.0]);
        let a0: SparseCol = vec![(0, 2.0), (1, 1.0)];
        let mut w = vec![0.0; 2];
        b.ftran(&a0, &mut w);
        assert_eq!(w, vec![2.0, 1.0]);
        b.pivot(0, &w);
        let e1: SparseCol = vec![(0, 1.0)];
        b.ftran(&e1, &mut w);
        assert!((w[0] - 0.5).abs() < 1e-12 && (w[1] + 0.5).abs() < 1e-12);
        assert_eq!(b.pivots(), 1);
        assert_eq!(b.updates_since_refactor(), 1);
        assert!(b.eta_nonzeros() >= 2);
        let mut y = vec![0.0; 2];
        b.btran(&[(1, 2.0)], &mut y);
        assert!((y[0] + 1.0).abs() < 1e-12 && (y[1] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn sparse_lu_rejects_singular_and_keeps_state() {
        let mut b = SparseLu::new();
        b.reset(&[1.0, 1.0]);
        let c0: SparseCol = vec![(0, 1.0), (1, 1.0)];
        let c1: SparseCol = vec![(0, 2.0), (1, 2.0)]; // linearly dependent
        assert!(!b.refactorize(&[&c0, &c1]));
        assert_eq!(b.refactorizations(), 0);
        // Still the identity factorization.
        let mut w = vec![0.0; 2];
        b.ftran(&[(0, 7.0)], &mut w);
        assert_eq!(w, vec![7.0, 0.0]);
    }

    #[test]
    fn sparse_lu_fill_trigger_fires_on_eta_growth() {
        let mut b = SparseLu::new();
        b.reset(&[1.0; 4]);
        assert!(!b.wants_refactor(128));
        // Dense pivots append 4 nonzeros each; five of them grow the eta
        // file to 20, past the 2·(lu_nnz + m) = 16 trigger.
        for k in 0..5 {
            let w = vec![1.0, 1.0, 1.0, 2.0];
            b.pivot(k % 4, &w);
        }
        assert!(b.wants_refactor(128), "fill growth must trigger a rebuild");
    }
}
