//! Quantization parameters and range observers.

use serde::{Deserialize, Serialize};

/// Affine int8 quantization parameters: `real = scale * (q - zero_point)`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct QuantParams {
    /// Positive real-valued step size.
    pub scale: f32,
    /// Zero point in the i8 domain.
    pub zero_point: i32,
}

impl QuantParams {
    /// Parameters covering the real interval `[min, max]` with asymmetric
    /// int8 (the standard activation scheme).
    ///
    /// The interval is widened to include zero so that zero padding is
    /// exactly representable — a hard requirement for integer convolution.
    ///
    /// # Panics
    ///
    /// Panics if `min > max` or either bound is non-finite.
    pub fn from_range(min: f32, max: f32) -> Self {
        assert!(min.is_finite() && max.is_finite(), "non-finite range");
        assert!(min <= max, "empty range {min}..{max}");
        let min = min.min(0.0);
        let max = max.max(0.0);
        let span = (max - min).max(1e-8);
        let scale = span / 255.0;
        let zero_point = (-128.0 - min / scale).round().clamp(-128.0, 127.0) as i32;
        QuantParams { scale, zero_point }
    }

    /// Symmetric parameters for the real interval `[-absmax, absmax]`
    /// (the standard weight scheme; zero point fixed at 0).
    ///
    /// # Panics
    ///
    /// Panics if `absmax` is negative or non-finite.
    pub fn symmetric(absmax: f32) -> Self {
        assert!(absmax.is_finite() && absmax >= 0.0, "bad absmax {absmax}");
        QuantParams {
            scale: absmax.max(1e-8) / 127.0,
            zero_point: 0,
        }
    }

    /// Quantizes one real value to i8 with round-to-nearest.
    pub fn quantize(&self, x: f32) -> i8 {
        let q = (x / self.scale).round() as i32 + self.zero_point;
        q.clamp(-128, 127) as i8
    }

    /// Dequantizes one i8 value back to real.
    pub fn dequantize(&self, q: i8) -> f32 {
        self.scale * (q as i32 - self.zero_point) as f32
    }

    /// Quantizes a slice.
    pub fn quantize_slice(&self, xs: &[f32]) -> Vec<i8> {
        xs.iter().map(|&x| self.quantize(x)).collect()
    }

    /// Dequantizes a slice.
    pub fn dequantize_slice(&self, qs: &[i8]) -> Vec<f32> {
        qs.iter().map(|&q| self.dequantize(q)).collect()
    }

    /// [`Self::quantize_slice`] into a caller-provided buffer — the
    /// allocation-free entry the prepacked executors use.
    ///
    /// # Panics
    ///
    /// Panics if lengths differ.
    pub fn quantize_into(&self, xs: &[f32], out: &mut [i8]) {
        assert_eq!(xs.len(), out.len(), "quantize_into length mismatch");
        for (o, &x) in out.iter_mut().zip(xs.iter()) {
            *o = self.quantize(x);
        }
    }

    /// [`Self::dequantize_slice`] into a caller-provided buffer.
    ///
    /// # Panics
    ///
    /// Panics if lengths differ.
    pub fn dequantize_into(&self, qs: &[i8], out: &mut [f32]) {
        assert_eq!(qs.len(), out.len(), "dequantize_into length mismatch");
        for (o, &q) in out.iter_mut().zip(qs.iter()) {
            *o = self.dequantize(q);
        }
    }
}

/// Folds an input zero point into a bias term: `b - zp * Σw`.
///
/// In i32, `Σ (x - zp)·w == Σ x·w - zp·Σw` exactly, so a kernel using the
/// folded bias can accumulate raw `x·w` products with no per-tap centering
/// — the compile-time fold the linear step relies on. Only valid when
/// *every* tap of the reduction is a real input value; taps that fall in
/// padding must keep the unfolded form (padding contributes
/// `(zp - zp)·w = 0`, not `-zp·w`).
pub fn fold_zero_point(bias: i32, weight: &[i8], zp: i32) -> i32 {
    let wsum: i32 = weight.iter().map(|&v| v as i32).sum();
    bias - zp * wsum
}

/// Running min/max observer used during calibration.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct MinMaxObserver {
    min: f32,
    max: f32,
    seen: bool,
}

impl MinMaxObserver {
    /// Creates an empty observer.
    pub fn new() -> Self {
        MinMaxObserver {
            min: f32::INFINITY,
            max: f32::NEG_INFINITY,
            seen: false,
        }
    }

    /// Folds a batch of values into the running range.
    pub fn observe(&mut self, values: &[f32]) {
        for &v in values {
            if v.is_finite() {
                self.min = self.min.min(v);
                self.max = self.max.max(v);
                self.seen = true;
            }
        }
    }

    /// True once at least one finite value has been observed.
    pub fn has_data(&self) -> bool {
        self.seen
    }

    /// The observed `(min, max)`.
    ///
    /// # Panics
    ///
    /// Panics if nothing has been observed — calibrating with an empty set
    /// is always a caller bug.
    pub fn range(&self) -> (f32, f32) {
        assert!(self.seen, "observer has no data");
        (self.min, self.max)
    }

    /// Quantization parameters covering the observed range.
    ///
    /// # Panics
    ///
    /// Panics if nothing has been observed.
    pub fn quant_params(&self) -> QuantParams {
        let (min, max) = self.range();
        QuantParams::from_range(min, max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_error_bounded_by_half_scale() {
        let p = QuantParams::from_range(-1.0, 1.0);
        for i in 0..100 {
            let x = -1.0 + 0.02 * i as f32;
            let err = (p.dequantize(p.quantize(x)) - x).abs();
            assert!(err <= p.scale * 0.5 + 1e-6, "err {err} at {x}");
        }
    }

    #[test]
    fn zero_is_exact() {
        for (lo, hi) in [(-1.0, 1.0), (0.1, 5.0), (-3.0, -0.5)] {
            let p = QuantParams::from_range(lo, hi);
            assert_eq!(p.dequantize(p.quantize(0.0)), 0.0, "range {lo}..{hi}");
        }
    }

    #[test]
    fn symmetric_has_zero_zp() {
        let p = QuantParams::symmetric(2.0);
        assert_eq!(p.zero_point, 0);
        assert_eq!(p.quantize(2.0), 127);
        assert_eq!(p.quantize(-2.0), -127);
    }

    #[test]
    fn saturation_clamps() {
        let p = QuantParams::from_range(-1.0, 1.0);
        assert_eq!(p.quantize(100.0), 127);
        assert_eq!(p.quantize(-100.0), -128);
    }

    #[test]
    fn observer_tracks_range() {
        let mut obs = MinMaxObserver::new();
        assert!(!obs.has_data());
        obs.observe(&[0.5, -0.2, 3.0]);
        obs.observe(&[1.0, f32::NAN]);
        assert_eq!(obs.range(), (-0.2, 3.0));
    }

    #[test]
    #[should_panic(expected = "no data")]
    fn empty_observer_panics() {
        MinMaxObserver::new().range();
    }

    #[test]
    fn zero_point_fold_matches_centered_sum() {
        let weight = [3i8, -7, 127, -128, 0];
        let x = [10i8, -4, 2, 100, -50];
        let (bias, zp) = (1234i32, -9i32);
        let centered: i32 = bias
            + x.iter()
                .zip(weight.iter())
                .map(|(&xv, &wv)| (xv as i32 - zp) * wv as i32)
                .sum::<i32>();
        let raw: i32 = x
            .iter()
            .zip(weight.iter())
            .map(|(&xv, &wv)| xv as i32 * wv as i32)
            .sum();
        assert_eq!(fold_zero_point(bias, &weight, zp) + raw, centered);
    }
}
