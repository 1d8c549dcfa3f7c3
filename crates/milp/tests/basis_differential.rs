//! Differential suite pinning [`SparseLu`] against a dense oracle: on
//! seeded random sparse bases the two representations must agree on
//! every `ftran`, `btran` and `refactorize` to 1e-9, singular bases must
//! fail on both, and long pivot chains crossing several refactorizations
//! must not drift apart.
//!
//! The oracle, [`DenseInverse`], is the explicit row-major `m × m`
//! inverse the workspace started with; it lives here because the solver
//! never uses it.
//!
//! The generator is a hand-rolled xorshift so the corpus is identical on
//! every platform and run (no external RNG crates, no time seeding).

use milp::basis::SparseCol;
use milp::SparseLu;

/// An explicit dense row-major `m × m` inverse with product-form
/// (Gauss-Jordan) pivot updates and Gauss-Jordan refactorization, behind
/// the same five operations as [`SparseLu`]. Every operation is a dense
/// `O(m)`/`O(m²)` loop: simple enough to trust as the oracle.
#[derive(Default)]
struct DenseInverse {
    m: usize,
    /// Row-major `m × m` inverse.
    binv: Vec<f64>,
    updates_since_refactor: u64,
    pivots: u64,
    refactorizations: u64,
}

impl DenseInverse {
    fn new() -> Self {
        Self::default()
    }

    fn reset(&mut self, m: usize) {
        self.m = m;
        self.binv.clear();
        self.binv.resize(m * m, 0.0);
        for i in 0..m {
            self.binv[i * m + i] = 1.0;
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
}

/// Deterministic xorshift64* stream.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Self(seed.max(1))
    }

    fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform in `[0, 1)`.
    fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[lo, hi)`.
    fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.next_f64()
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// A random nonsingular sparse basis: a guaranteed diagonal (well away
/// from zero) plus `density` chance of an off-diagonal entry per slot,
/// then a random column permutation so the diagonal structure is hidden
/// from the factorization's pivot search.
fn random_basis(rng: &mut Rng, m: usize, density: f64) -> Vec<SparseCol> {
    let mut cols: Vec<SparseCol> = Vec::with_capacity(m);
    for j in 0..m {
        let mut col: SparseCol = Vec::new();
        for i in 0..m {
            if i == j {
                let mag = rng.range(1.0, 4.0);
                let sign = if rng.next_f64() < 0.5 { -1.0 } else { 1.0 };
                col.push((i, sign * mag));
            } else if rng.next_f64() < density {
                col.push((i, rng.range(-1.0, 1.0)));
            }
        }
        cols.push(col);
    }
    // Fisher-Yates over columns.
    for j in (1..m).rev() {
        let k = rng.below(j + 1);
        cols.swap(j, k);
    }
    cols
}

/// A sparse right-hand side over `m` indices (at least one entry).
fn random_rhs(rng: &mut Rng, m: usize) -> Vec<(usize, f64)> {
    let mut rhs: Vec<(usize, f64)> = Vec::new();
    for i in 0..m {
        if rng.next_f64() < 0.3 {
            rhs.push((i, rng.range(-2.0, 2.0)));
        }
    }
    if rhs.is_empty() {
        rhs.push((rng.below(m), 1.0));
    }
    rhs
}

fn assert_close(tag: &str, a: &[f64], b: &[f64]) {
    for (k, (&x, &y)) in a.iter().zip(b).enumerate() {
        assert!(
            (x - y).abs() <= 1e-9 * x.abs().max(y.abs()).max(1.0),
            "{tag}: position {k} diverged: dense {x} vs sparse {y}"
        );
    }
}

/// Both representations refactorized from the same random basis must give
/// the same `ftran` and `btran` answers on a batch of random sparse
/// right-hand sides.
#[test]
fn refactorized_solves_agree_on_random_bases() {
    let mut rng = Rng::new(0x1E7D_3A01);
    for case in 0..40 {
        let m = 3 + rng.below(22);
        let density = rng.range(0.05, 0.4);
        let cols = random_basis(&mut rng, m, density);
        let refs: Vec<&SparseCol> = cols.iter().collect();

        let mut dense = DenseInverse::new();
        let mut sparse = SparseLu::new();
        dense.reset(m);
        sparse.reset(m);
        assert!(dense.refactorize(&refs), "case {case}: dense refused");
        assert!(sparse.refactorize(&refs), "case {case}: sparse refused");

        let (mut wd, mut ws) = (vec![0.0; m], vec![0.0; m]);
        for probe in 0..6 {
            let a = random_rhs(&mut rng, m);
            dense.ftran(&a, &mut wd);
            sparse.ftran(&a, &mut ws);
            assert_close(&format!("case {case} probe {probe} ftran"), &wd, &ws);

            let c = random_rhs(&mut rng, m);
            dense.btran(&c, &mut wd);
            sparse.btran(&c, &mut ws);
            assert_close(&format!("case {case} probe {probe} btran"), &wd, &ws);
        }
    }
}

/// A `{0, ±1}`-valued random basis, like the MILP's ordering and
/// assignment constraint columns. With every entry (and so every pivot
/// and every multiplier) at ±1, elimination arithmetic stays on exact
/// integers and entries cancel *exactly* mid-factorization — which the
/// real-valued corpus can never produce — exercising the fill-in and
/// entry-removal bookkeeping of the sparse representation. Often
/// singular; callers skip those draws (verdicts must still match).
fn random_int_basis(rng: &mut Rng, m: usize, density: f64) -> Vec<SparseCol> {
    let mut cols: Vec<SparseCol> = Vec::with_capacity(m);
    for j in 0..m {
        let mut col: SparseCol = Vec::new();
        for i in 0..m {
            if i == j || rng.next_f64() < density {
                let sign = if rng.next_f64() < 0.5 { -1.0 } else { 1.0 };
                col.push((i, sign));
            }
        }
        cols.push(col);
    }
    for j in (1..m).rev() {
        let k = rng.below(j + 1);
        cols.swap(j, k);
    }
    cols
}

/// Integer-coefficient bases trigger exact cancellations inside the
/// elimination (like the MILP's ±1 constraint matrices do), so entries
/// vanish mid-factorization and later steps re-create them as fill-ins.
/// Dense and sparse must still agree on every solve.
#[test]
fn integer_bases_with_exact_cancellation_agree() {
    let mut rng = Rng::new(0xCA9C_E77E);
    for case in 0..60 {
        let m = 8 + rng.below(25);
        let density = rng.range(0.2, 0.6);
        let cols = random_int_basis(&mut rng, m, density);
        let refs: Vec<&SparseCol> = cols.iter().collect();

        let mut dense = DenseInverse::new();
        let mut sparse = SparseLu::new();
        dense.reset(m);
        sparse.reset(m);
        let ok_dense = dense.refactorize(&refs);
        let ok_sparse = sparse.refactorize(&refs);
        assert_eq!(
            ok_dense, ok_sparse,
            "case {case}: singularity verdicts diverged"
        );
        if !ok_dense {
            continue; // the random integer basis happened to be singular
        }

        let (mut wd, mut ws) = (vec![0.0; m], vec![0.0; m]);
        for probe in 0..6 {
            let a = random_rhs(&mut rng, m);
            dense.ftran(&a, &mut wd);
            sparse.ftran(&a, &mut ws);
            assert_close(&format!("int case {case} probe {probe} ftran"), &wd, &ws);

            let c = random_rhs(&mut rng, m);
            dense.btran(&c, &mut wd);
            sparse.btran(&c, &mut ws);
            assert_close(&format!("int case {case} probe {probe} btran"), &wd, &ws);
        }
    }
}

/// Long product-form pivot chains interleaved with refactorizations: the
/// two representations walk the same random basis trajectory and must
/// agree after every step, including immediately after each rebuild.
#[test]
fn long_pivot_chains_stay_in_agreement() {
    let mut rng = Rng::new(0xBEEF_CAFE);
    for case in 0..10 {
        let m = 6 + rng.below(14);
        // Current basis columns, starting from the identity.
        let mut cols: Vec<SparseCol> = (0..m).map(|i| vec![(i, 1.0)]).collect();
        let mut dense = DenseInverse::new();
        let mut sparse = SparseLu::new();
        dense.reset(m);
        sparse.reset(m);

        let (mut wd, mut ws) = (vec![0.0; m], vec![0.0; m]);
        let mut pivots = 0u64;
        for step in 0..120 {
            // Propose a random entering column; retry until the pivot
            // position is numerically safe on the oracle.
            let mut entered = false;
            for _ in 0..8 {
                let a = {
                    let mut col = random_rhs(&mut rng, m);
                    col.sort_unstable_by_key(|&(i, _)| i);
                    col.dedup_by_key(|&mut (i, _)| i);
                    col
                };
                let r = rng.below(m);
                dense.ftran(&a, &mut wd);
                if wd[r].abs() < 1e-3 {
                    continue;
                }
                sparse.ftran(&a, &mut ws);
                assert_close(&format!("case {case} step {step} ftran"), &wd, &ws);
                dense.pivot(r, &wd);
                sparse.pivot(r, &ws);
                cols[r] = a;
                pivots += 1;
                entered = true;
                break;
            }
            assert!(entered, "case {case} step {step}: no safe pivot found");

            let c = random_rhs(&mut rng, m);
            dense.btran(&c, &mut wd);
            sparse.btran(&c, &mut ws);
            assert_close(&format!("case {case} step {step} btran"), &wd, &ws);

            // Periodic rebuild from the tracked basis columns, as the
            // simplex cadence would do — several times per chain.
            if step % 25 == 24 {
                let refs: Vec<&SparseCol> = cols.iter().collect();
                assert!(dense.refactorize(&refs), "case {case}: dense rebuild");
                assert!(sparse.refactorize(&refs), "case {case}: sparse rebuild");
                let c = random_rhs(&mut rng, m);
                dense.btran(&c, &mut wd);
                sparse.btran(&c, &mut ws);
                assert_close(&format!("case {case} step {step} post-rebuild"), &wd, &ws);
            }
        }
        assert_eq!(dense.pivots, pivots);
        assert_eq!(sparse.pivots(), pivots);
        assert!(sparse.refactorizations() >= 4);
        assert!(
            sparse.eta_nonzeros() > 0,
            "product-form updates must go through the eta file"
        );
    }
}

/// Singular bases must be rejected by both representations, and the
/// failed rebuild must leave both in their previous (working) state.
#[test]
fn singular_bases_fail_on_both() {
    let mut rng = Rng::new(0x5EED_0501);
    for case in 0..20 {
        let m = 3 + rng.below(10);
        let mut cols = random_basis(&mut rng, m, 0.3);
        // Make two columns linearly dependent (or clone one over another).
        let src = rng.below(m);
        let dst = (src + 1 + rng.below(m - 1)) % m;
        let scale = rng.range(0.5, 2.0);
        cols[dst] = cols[src]
            .iter()
            .map(|&(i, v)| (i, scale * v))
            .collect::<Vec<_>>();
        let refs: Vec<&SparseCol> = cols.iter().collect();

        let mut dense = DenseInverse::new();
        let mut sparse = SparseLu::new();
        dense.reset(m);
        sparse.reset(m);
        assert!(!dense.refactorize(&refs), "case {case}: dense accepted");
        assert!(!sparse.refactorize(&refs), "case {case}: sparse accepted");
        assert_eq!(dense.refactorizations, 0);
        assert_eq!(sparse.refactorizations(), 0);

        // Both still answer as the identity they held before the attempt.
        let (mut wd, mut ws) = (vec![0.0; m], vec![0.0; m]);
        let a = random_rhs(&mut rng, m);
        dense.ftran(&a, &mut wd);
        sparse.ftran(&a, &mut ws);
        assert_close(&format!("case {case} post-reject"), &wd, &ws);
    }
}

/// A structurally singular basis (an all-zero column) is rejected, too.
#[test]
fn structurally_singular_column_is_rejected() {
    let mut dense = DenseInverse::new();
    let mut sparse = SparseLu::new();
    dense.reset(3);
    sparse.reset(3);
    let c0: SparseCol = vec![(0, 1.0)];
    let empty: SparseCol = vec![];
    let c2: SparseCol = vec![(1, 2.0), (2, 1.0)];
    assert!(!dense.refactorize(&[&c0, &empty, &c2]));
    assert!(!sparse.refactorize(&[&c0, &empty, &c2]));
}

// The oracle's own checks, on bases small enough to work by hand.

#[test]
fn reset_builds_signed_identity() {
    let mut b = DenseInverse::new();
    b.reset(3);
    assert_eq!(b.binv, vec![1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0]);
}

#[test]
fn ftran_multiplies_by_inverse() {
    let mut b = DenseInverse::new();
    b.reset(2);
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
    assert_eq!(b.pivots, 1);
    assert_eq!(b.updates_since_refactor, 1);
}

#[test]
fn btran_matches_inverse_rows() {
    let mut b = DenseInverse::new();
    b.reset(2);
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
    b.reset(3);
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
    assert_eq!(b.refactorizations, 1);
    assert_eq!(b.updates_since_refactor, 0);
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
    b.reset(2);
    let before = b.binv.clone();
    let c0: SparseCol = vec![(0, 1.0), (1, 1.0)];
    let c1: SparseCol = vec![(0, 2.0), (1, 2.0)]; // linearly dependent
    assert!(!b.refactorize(&[&c0, &c1]));
    assert_eq!(b.refactorizations, 0);
    assert_eq!(b.binv, before, "failed rebuild must not corrupt");
}
