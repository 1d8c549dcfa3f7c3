//! Devex entering-variable pricing of the primal simplex.
//!
//! The pivoting loop in `simplex.rs` keeps eligibility, reduced costs,
//! the ratio test and Bland's anti-cycling bypass to itself and hands the
//! *choice* of entering column to [`Devex`]: a reference-framework
//! approximation of steepest edge (Forrest–Goldfarb style) that scores
//! every improving column by `d²/γ_j` and updates the reference weights
//! `γ` from the pivot row after each basis change.

/// Devex pricing state: one reference weight per column.
///
/// Candidates are scored `d²/γ_j`; after a pivot with entering column
/// `q`, leaving variable `l` and pivot element `α_q`, the weights update
/// as `γ_j ← max(γ_j, (α_j/α_q)² γ_q)` for nonbasic `j` and
/// `γ_l ← max(γ_q/α_q², 1)`. The framework resets (all weights to 1)
/// when the largest weight overflows the reference band.
#[derive(Debug, Clone, Default)]
pub(crate) struct Devex {
    weights: Vec<f64>,
}

impl Devex {
    /// Weight ceiling before the reference framework is restarted.
    const MAX_WEIGHT: f64 = 1e8;

    /// Restarts the reference framework over `n` columns (every phase
    /// starts a fresh pricing pass).
    pub(crate) fn reset(&mut self, n: usize) {
        self.weights.clear();
        self.weights.resize(n, 1.0);
    }

    /// Chooses the entering column among all columns, as `(column, dir)`.
    /// `eval(j)` prices column `j`: `Some((d, dir))` when it is an
    /// improving candidate (reduced cost `d`, movement direction
    /// `dir ∈ {−1, +1}`), `None` otherwise. `None` is returned only after
    /// every column was priced, so it asserts optimality.
    pub(crate) fn select(
        &self,
        mut eval: impl FnMut(usize) -> Option<(f64, f64)>,
    ) -> Option<(usize, f64)> {
        let mut best: Option<(usize, f64, f64)> = None; // (j, dir, score)
        for (j, &w) in self.weights.iter().enumerate() {
            if let Some((d, dir)) = eval(j) {
                let score = d * d / w;
                let better = match best {
                    None => true,
                    Some((.., bs)) => score > bs,
                };
                if better {
                    best = Some((j, dir, score));
                }
            }
        }
        best.map(|(j, dir, _)| (j, dir))
    }

    /// Observes a basis change: column `entering` replaced the variable
    /// `leaving` (basic in the pivot row), with pivot element `pivot`.
    /// `row` yields `(j, α_j)`, the nonzero pre-pivot row coefficients
    /// `e_r' B⁻¹ a_j` of the columns nonbasic in the *new* basis (so the
    /// leaving variable is included and the entering one is not); every
    /// other weight keeps its value. `row` is consumed to its end, so the
    /// caller may fold its own per-column update into it.
    ///
    /// Every weight stays within [`MAX_WEIGHT`](Self::MAX_WEIGHT) between
    /// updates, so the framework restarts exactly when a weight written
    /// here exceeds it.
    pub(crate) fn update(
        &mut self,
        entering: usize,
        leaving: usize,
        pivot: f64,
        row: impl Iterator<Item = (usize, f64)>,
    ) {
        debug_assert!(pivot != 0.0, "the ratio test never accepts a zero pivot");
        let gamma_q = self.weights[entering];
        let inv_pivot2 = 1.0 / (pivot * pivot);
        let mut max_w: f64 = 1.0;
        for (j, a) in row {
            let cand = a * a * inv_pivot2 * gamma_q;
            if cand > self.weights[j] {
                self.weights[j] = cand;
                max_w = max_w.max(cand);
            }
        }
        self.weights[leaving] = (gamma_q * inv_pivot2).max(1.0);
        max_w = max_w.max(self.weights[leaving]);
        if max_w > Self::MAX_WEIGHT {
            self.weights.iter_mut().for_each(|w| *w = 1.0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Prices three fixed candidates: columns 1, 3, 4 with |d| 2, 5, 3.
    fn eval_fixture(j: usize) -> Option<(f64, f64)> {
        match j {
            1 => Some((-2.0, 1.0)),
            3 => Some((5.0, -1.0)),
            4 => Some((-3.0, 1.0)),
            _ => None,
        }
    }

    #[test]
    fn devex_weights_bias_selection_and_update() {
        let mut p = Devex::default();
        p.reset(6);
        // Equal weights: largest |d| wins.
        assert_eq!(p.select(eval_fixture), Some((3, -1.0)));
        // A heavy weight on column 3 flips the choice to column 4:
        // 25/10 < 9/1.
        p.weights[3] = 10.0;
        assert_eq!(p.select(eval_fixture), Some((4, 1.0)));
        // Update: entering 4 (γ=1), pivot 2, leaving variable 0; column 1
        // has α=4 ⇒ γ₁ = max(1, 16/4·1) = 4; γ₀ = max(1/4, 1) = 1.
        p.update(4, 0, 2.0, [(1, 4.0)].into_iter());
        assert_eq!(p.weights[1], 4.0);
        assert_eq!(p.weights[0], 1.0);
    }

    #[test]
    fn devex_reference_reset_on_overflow() {
        let mut p = Devex::default();
        p.reset(3);
        p.update(0, 1, 1e-6, [(2, 1.0)].into_iter());
        // γ₂ would be 1e12 > MAX_WEIGHT: the framework restarts at 1.
        assert!(p.weights.iter().all(|&w| w == 1.0));
    }
}
