//! Dependency-free weighted least-squares fitting of per-kernel-class
//! cycle-model coefficients.
//!
//! Each traced layer contributes one sample: its workload descriptors
//! (MACs, activation bytes moved, im2row panel bytes) and a measured wall
//! time. Per kernel class we fit the linear model
//!
//! ```text
//! time ≈ a·macs + b·bytes + c·im2row + d
//! ```
//!
//! minimizing the *relative* squared error `Σ ((pred - t) / t)²` — the
//! same quantity the drift report scores — by dividing each row and its
//! target by the measured time and solving the normal equations.
//!
//! Real capture sets are small (a handful of layers per class) and often
//! degenerate: one sample, or workloads that are exactly collinear (every
//! proxy pool layer has `bytes = 1.25 · macs`). Rather than let the
//! normal equations blow up, candidates walk a feature ladder — drop
//! `im2row`, then the constant, then `bytes` — and a candidate is accepted
//! only if the system solves with a well-conditioned pivot, every
//! coefficient is non-negative (the fit extrapolates from 48×80 proxies
//! to 96×160 paper networks; a negative term that cancels in-sample goes
//! wrong out-of-sample), and there are at least as many samples as
//! features. A class where nothing survives falls back to the pooled
//! all-class fit.

use np_gap8::calib::{ClassCoeffs, ClassFit};
use np_gap8::perf::KernelClass;

/// One traced layer: workload descriptors plus its measured time.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    /// Span name (`model/03-conv`), kept for residual reporting.
    pub name: String,
    /// Kernel class of the executing step.
    pub class: KernelClass,
    /// Multiply-accumulates; for im2row-lowered steps, those of the
    /// GEMM's whole tiles ([`np_gap8::calib::im2row_conv_work`]).
    pub macs: u64,
    /// Activation bytes read + written.
    pub io_bytes: u64,
    /// im2row panel bytes lowered (conv steps only; whole column blocks).
    pub im2row_bytes: u64,
    /// Measured wall time in nanoseconds (median over profile frames).
    pub measured_ns: f64,
}

impl Sample {
    fn features(&self) -> [f64; 4] {
        [
            self.macs as f64,
            self.io_bytes as f64,
            self.im2row_bytes as f64,
            1.0,
        ]
    }
}

/// Which of the four feature columns a ladder rung keeps.
/// Ordered most- to least-expressive; the first rung that yields a
/// well-posed, non-negative fit wins.
const LADDER: [([bool; 4], &str); 4] = [
    ([true, true, true, true], "macs+bytes+im2row+const"),
    ([true, true, false, true], "macs+bytes+const"),
    ([true, false, false, true], "macs+const"),
    ([true, false, false, false], "macs"),
];

/// Solves `A x = b` for a small dense system by Gaussian elimination with
/// partial pivoting. Returns `None` when a pivot degenerates (singular or
/// near-singular system — collinear features).
#[allow(clippy::needless_range_loop)] // elimination reads row `col` while writing row `row`
fn solve(mut a: Vec<Vec<f64>>, mut b: Vec<f64>) -> Option<Vec<f64>> {
    let n = b.len();
    // Pivot tolerance relative to the largest entry of the matrix, so the
    // check is invariant to the overall scaling of the features.
    let norm = a
        .iter()
        .flat_map(|row| row.iter().map(|v| v.abs()))
        .fold(0.0f64, f64::max);
    if norm == 0.0 {
        return None;
    }
    let tol = norm * 1e-12;
    for col in 0..n {
        let pivot_row = (col..n)
            .max_by(|&i, &j| a[i][col].abs().total_cmp(&a[j][col].abs()))
            .unwrap();
        if a[pivot_row][col].abs() <= tol {
            return None;
        }
        a.swap(col, pivot_row);
        b.swap(col, pivot_row);
        for row in col + 1..n {
            let factor = a[row][col] / a[col][col];
            for k in col..n {
                a[row][k] -= factor * a[col][k];
            }
            b[row] -= factor * b[col];
        }
    }
    let mut x = vec![0.0; n];
    for col in (0..n).rev() {
        let mut acc = b[col];
        for k in col + 1..n {
            acc -= a[col][k] * x[k];
        }
        x[col] = acc / a[col][col];
    }
    Some(x)
}

/// Weighted least squares on one ladder rung: rows and targets divided by
/// the measured time, normal equations, solve. Returns the full 4-wide
/// coefficient vector (dropped features at 0) or `None` when the system
/// is singular.
fn fit_rung(samples: &[Sample], keep: [bool; 4]) -> Option<[f64; 4]> {
    let cols: Vec<usize> = (0..4).filter(|&j| keep[j]).collect();
    let n = cols.len();
    if samples.len() < n {
        return None;
    }
    let mut ata = vec![vec![0.0f64; n]; n];
    let mut atb = vec![0.0f64; n];
    for s in samples {
        if s.measured_ns <= 0.0 {
            return None;
        }
        let f = s.features();
        // Relative weighting: row = x / t, target = 1.
        let row: Vec<f64> = cols.iter().map(|&j| f[j] / s.measured_ns).collect();
        for i in 0..n {
            for j in 0..n {
                ata[i][j] += row[i] * row[j];
            }
            atb[i] += row[i];
        }
    }
    let x = solve(ata, atb)?;
    let mut full = [0.0f64; 4];
    for (slot, &j) in cols.iter().enumerate() {
        full[j] = x[slot];
    }
    Some(full)
}

/// Relative residual statistics of `coeffs` over `samples`:
/// `(mean |pct|, max |pct|)`.
fn residuals(samples: &[Sample], coeffs: &ClassCoeffs) -> (f64, f64) {
    let mut sum = 0.0;
    let mut max = 0.0f64;
    for s in samples {
        let pred = coeffs.predict(s.macs, s.io_bytes, s.im2row_bytes);
        let pct = 100.0 * (pred - s.measured_ns).abs() / s.measured_ns.max(1e-9);
        sum += pct;
        max = max.max(pct);
    }
    (sum / samples.len().max(1) as f64, max)
}

/// Fits one sample set down the feature ladder. Returns the coefficients
/// (in the unit of `measured_ns`) and the winning rung's feature label,
/// or `None` when no rung produces a well-posed non-negative fit.
pub fn fit_samples(samples: &[Sample]) -> Option<(ClassCoeffs, &'static str)> {
    if samples.is_empty() {
        return None;
    }
    for (keep, label) in LADDER {
        let Some(full) = fit_rung(samples, keep) else {
            continue;
        };
        if full.iter().any(|&v| v < 0.0) {
            continue;
        }
        let coeffs = ClassCoeffs {
            cycles_per_mac: full[0],
            cycles_per_byte: full[1],
            cycles_per_im2row_byte: full[2],
            overhead_cycles: full[3],
        };
        return Some((coeffs, label));
    }
    None
}

/// The outcome of fitting a full capture: per-class fits for every class
/// that produced a stable fit of its own, plus the pooled all-sample
/// fallback. Coefficients are in the unit of the samples' `measured_ns`;
/// the caller rescales to cycles.
#[derive(Debug, Clone)]
pub struct FitOutcome {
    /// Classes with a stable fit of their own.
    pub classes: Vec<ClassFit>,
    /// Pooled all-class fallback (always present; `class` is a dummy tag).
    pub pooled: ClassFit,
}

/// Fits every kernel class present in `samples`, falling back per class
/// to the pooled fit when a class is degenerate.
///
/// # Errors
///
/// Returns an error when even the pooled fit fails — an empty capture or
/// non-positive measurements.
pub fn fit_all(samples: &[Sample]) -> Result<FitOutcome, String> {
    let (pooled_coeffs, pooled_label) = fit_samples(samples)
        .ok_or_else(|| format!("pooled fit failed over {} samples", samples.len()))?;
    let (pooled_mean, pooled_max) = residuals(samples, &pooled_coeffs);
    let pooled = ClassFit {
        class: KernelClass::Elementwise,
        coeffs: pooled_coeffs,
        samples: samples.len(),
        features: format!("pooled:{pooled_label}"),
        mean_abs_residual_pct: pooled_mean,
        max_abs_residual_pct: pooled_max,
    };

    let mut classes = Vec::new();
    for class in [
        KernelClass::Conv,
        KernelClass::Pointwise,
        KernelClass::DepthwiseConv,
        KernelClass::Linear,
        KernelClass::Pool,
        KernelClass::Elementwise,
    ] {
        let subset: Vec<Sample> = samples
            .iter()
            .filter(|s| s.class == class)
            .cloned()
            .collect();
        if subset.is_empty() {
            continue;
        }
        let Some((coeffs, label)) = fit_samples(&subset) else {
            continue; // degenerate class: consumers use the pooled fit
        };
        let (mean, max) = residuals(&subset, &coeffs);
        classes.push(ClassFit {
            class,
            coeffs,
            samples: subset.len(),
            features: label.to_string(),
            mean_abs_residual_pct: mean,
            max_abs_residual_pct: max,
        });
    }
    Ok(FitOutcome { classes, pooled })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(class: KernelClass, macs: u64, bytes: u64, cols: u64, ns: f64) -> Sample {
        Sample {
            name: format!("t/{macs}-{bytes}"),
            class,
            macs,
            io_bytes: bytes,
            im2row_bytes: cols,
            measured_ns: ns,
        }
    }

    /// Layers generated from known ground-truth coefficients with
    /// linearly independent workloads must recover them exactly.
    #[test]
    fn recovers_known_coefficients_exactly() {
        let (a, b, c, d) = (0.35, 1.2, 8.0, 500.0);
        let shapes: [(u64, u64, u64); 6] = [
            (10_000, 3_000, 120, 0),
            (40_000, 9_000, 480, 0),
            (90_000, 14_000, 200, 0),
            (250_000, 31_000, 960, 0),
            (5_000, 20_000, 60, 0),
            (600_000, 45_000, 1_920, 0),
        ]
        .map(|(m, by, co, _)| (m, by, co));
        let samples: Vec<Sample> = shapes
            .iter()
            .map(|&(m, by, co)| {
                let t = a * m as f64 + b * by as f64 + c * co as f64 + d;
                sample(KernelClass::Conv, m, by, co, t)
            })
            .collect();
        let (coeffs, label) = fit_samples(&samples).expect("well-posed fit");
        assert_eq!(label, "macs+bytes+im2row+const");
        assert!((coeffs.cycles_per_mac - a).abs() < 1e-6, "{coeffs:?}");
        assert!((coeffs.cycles_per_byte - b).abs() < 1e-6);
        assert!((coeffs.cycles_per_im2row_byte - c).abs() < 1e-4);
        assert!((coeffs.overhead_cycles - d).abs() < 1e-2);
        for s in &samples {
            let pred = coeffs.predict(s.macs, s.io_bytes, s.im2row_bytes);
            assert!((pred - s.measured_ns).abs() / s.measured_ns < 1e-9);
        }
    }

    /// One sample cannot support a multi-feature fit; the ladder must
    /// land on the single-feature rung instead of panicking or
    /// overfitting.
    #[test]
    fn single_sample_falls_to_macs_only() {
        let samples = vec![sample(KernelClass::Linear, 50_000, 4_000, 0, 25_000.0)];
        let (coeffs, label) = fit_samples(&samples).expect("macs-only fit");
        assert_eq!(label, "macs");
        assert!((coeffs.cycles_per_mac - 0.5).abs() < 1e-9);
        assert_eq!(coeffs.cycles_per_byte, 0.0);
        assert_eq!(coeffs.overhead_cycles, 0.0);
    }

    /// Exactly collinear workloads (every pool layer moves
    /// `bytes = 1.25 · macs`) make the full system singular; the ladder
    /// must drop features until the system is well posed — without
    /// panicking.
    #[test]
    fn collinear_workloads_fall_down_the_ladder() {
        let samples: Vec<Sample> = [(8_000u64, 4_000.0), (32_000, 16_000.0), (128_000, 64_000.0)]
            .iter()
            .map(|&(m, ns)| sample(KernelClass::Pool, m, m + m / 4, 0, ns))
            .collect();
        let (coeffs, label) = fit_samples(&samples).expect("reduced fit");
        // bytes = 1.25·macs exactly: the macs+bytes rungs are singular.
        assert!(
            label == "macs+const" || label == "macs",
            "unexpected rung {label}"
        );
        assert!((coeffs.cycles_per_mac - 0.5).abs() < 1e-9);
    }

    #[test]
    fn empty_and_nonpositive_inputs_do_not_panic() {
        assert!(fit_samples(&[]).is_none());
        let bad = vec![sample(KernelClass::Conv, 1_000, 100, 10, 0.0)];
        assert!(fit_samples(&bad).is_none());
        assert!(fit_all(&[]).is_err());
    }

    /// A class whose best in-sample fit needs a negative coefficient must
    /// reject that rung (negative terms extrapolate dangerously) and fall
    /// to a lower one.
    #[test]
    fn negative_coefficients_are_rejected() {
        // time decreases as bytes grow at fixed macs → any rung with a
        // bytes term wants b < 0.
        let samples = vec![
            sample(KernelClass::Conv, 100_000, 1_000, 0, 60_000.0),
            sample(KernelClass::Conv, 100_000, 9_000, 0, 40_000.0),
            sample(KernelClass::Conv, 200_000, 5_000, 0, 100_000.0),
        ];
        let (coeffs, _) = fit_samples(&samples).expect("some rung must fit");
        assert!(coeffs.cycles_per_byte >= 0.0);
        assert!(coeffs.cycles_per_mac >= 0.0);
        assert!(coeffs.overhead_cycles >= 0.0);
    }

    #[test]
    fn fit_all_fits_classes_and_pools_degenerates() {
        let mut samples = Vec::new();
        // Conv: 4 clean samples of a known law.
        for &(m, by, co) in &[
            (20_000u64, 2_000u64, 100u64),
            (80_000, 7_000, 400),
            (150_000, 12_000, 250),
            (300_000, 20_000, 800),
        ] {
            let t = 0.4 * m as f64 + 2.0 * by as f64 + 1_000.0;
            samples.push(sample(KernelClass::Conv, m, by, co, t));
        }
        // Pool: a single sample — degenerate, macs-only rung.
        samples.push(sample(KernelClass::Pool, 30_000, 38_000, 0, 50_000.0));
        let outcome = fit_all(&samples).expect("fit");
        assert!(outcome.classes.iter().any(|f| f.class == KernelClass::Conv));
        let pool = outcome
            .classes
            .iter()
            .find(|f| f.class == KernelClass::Pool)
            .expect("pool fits on the macs rung");
        assert_eq!(pool.features, "macs");
        assert_eq!(pool.samples, 1);
        assert!(outcome.pooled.samples == samples.len());
        // Residuals of the conv fit are ~0 (noiseless data).
        let conv = outcome
            .classes
            .iter()
            .find(|f| f.class == KernelClass::Conv)
            .unwrap();
        assert!(conv.mean_abs_residual_pct < 1e-6, "{conv:?}");
    }
}
