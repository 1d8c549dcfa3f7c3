//! Order statistics and process measurements.

/// Fewest samples a tail percentile must have strictly beyond it before it
/// is reported.
pub const MIN_TAIL_SAMPLES: usize = 10;

/// A percentile together with the evidence behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    /// The interpolated value.
    pub value: f64,
    /// Samples the percentile was taken over.
    pub samples: usize,
    /// Samples strictly above the interpolation point.
    pub beyond: usize,
}

/// The `p`-th percentile (0–100) of `samples`, linearly interpolated between
/// closest ranks.
///
/// A tail percentile (`p > 50`) is refused when fewer than
/// [`MIN_TAIL_SAMPLES`] samples lie beyond it; the error names the sample
/// count so the caller can report it.
pub fn percentile(samples: &[f64], p: f64) -> Result<Percentile, String> {
    if samples.is_empty() {
        return Err(format!("p{p}: no samples"));
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let h = (n - 1) as f64 * p / 100.0;
    let lo = h.floor() as usize;
    let hi = h.ceil() as usize;
    let value = sorted[lo] + (sorted[hi] - sorted[lo]) * (h - lo as f64);
    let beyond = n - 1 - lo;
    if p > 50.0 && beyond < MIN_TAIL_SAMPLES {
        return Err(format!(
            "p{p} refused: {beyond} of {n} samples beyond it, need {MIN_TAIL_SAMPLES}"
        ));
    }
    Ok(Percentile {
        value,
        samples: n,
        beyond,
    })
}

/// The median of `samples` (zero for none).
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0).map_or(0.0, |p| p.value)
}

/// The geometric mean of positive `values` (zero for none).
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// Peak resident set size of this process in MiB (`VmHWM`), or `None` where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_percentile_needs_ten_samples_beyond_it() {
        let samples: Vec<f64> = (1..=90).map(f64::from).collect();
        let err = percentile(&samples, 90.0).expect_err("9 samples beyond p90 of 90");
        assert!(err.contains("9 of 90 samples"), "reports the count: {err}");

        let samples: Vec<f64> = (1..=101).map(f64::from).collect();
        let p90 = percentile(&samples, 90.0).expect("10 samples beyond p90 of 101");
        assert_eq!(p90.samples, 101);
        assert_eq!(p90.beyond, 10);
        assert!((p90.value - 91.0).abs() < 1e-9);
    }

    #[test]
    fn median_is_never_refused() {
        let p50 = percentile(&[3.0, 1.0, 2.0, 4.0], 50.0).expect("median");
        assert!((p50.value - 2.5).abs() < 1e-12);
        assert_eq!(p50.samples, 4);
    }

    #[test]
    fn geomean_of_ratios() {
        assert!((geomean(&[0.5, 2.0]) - 1.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), 0.0);
    }
}
