//! Integer-only inference kernels: i8 operands, i32 accumulators,
//! fixed-point requantization. These mirror the PULP-NN kernels DORY emits
//! for the GAP8 cluster.
//!
//! The public convolutions are the serial reference loops
//! [`qconv2d_reference`] and [`qdepthwise_conv2d_reference`], from which
//! the scalar oracle [`QuantizedNetwork::run_int`](crate::QuantizedNetwork::run_int)
//! is built. The compiled [`QuantizedProgram`](crate::QuantizedProgram)
//! runs standard convolution im2row-lowered through the register-blocked
//! microkernel (see [`crate::microkernel`]) and depthwise convolution
//! through `qdw_plane`, which splits each plane into an interior (all taps
//! in bounds: no branches, zero point folded into the bias, per-channel
//! filter held in a register array) and guarded edges. Integer arithmetic
//! is exact, so exact-equality tests pin fast paths to references.

use crate::qparams::fold_zero_point;
use crate::requant::{requantize_to_i8, FixedMultiplier};

/// Geometry of an integer convolution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QConvGeometry {
    /// Input channels.
    pub in_channels: usize,
    /// Output channels.
    pub out_channels: usize,
    /// Square kernel extent.
    pub kernel: usize,
    /// Stride.
    pub stride: usize,
    /// Zero padding (pad value = input zero point).
    pub padding: usize,
}

impl QConvGeometry {
    /// Output spatial size for a given input size.
    pub fn out_hw(&self, h: usize, w: usize) -> (usize, usize) {
        (
            (h + 2 * self.padding - self.kernel) / self.stride + 1,
            (w + 2 * self.padding - self.kernel) / self.stride + 1,
        )
    }
}

/// Integer standard convolution over one CHW image: the direct six-loop
/// walk, serial, kept as the obviously-correct reference for the
/// program's lowered path.
///
/// * `input`: `C_in * H * W` i8 values with zero point `in_zp`
/// * `weight`: `C_out * C_in * K * K` symmetric i8 (zero point 0)
/// * `bias`: per-output-channel i32 at accumulator scale
/// * `mults`: per-output-channel requantization multipliers
/// * `relu`: clamp output at the output zero point (fused ReLU)
///
/// # Panics
///
/// Panics on size mismatches.
#[allow(clippy::too_many_arguments)]
pub fn qconv2d_reference(
    input: &[i8],
    h: usize,
    w: usize,
    in_zp: i32,
    geo: QConvGeometry,
    weight: &[i8],
    bias: &[i32],
    mults: &[FixedMultiplier],
    out_zp: i32,
    relu: bool,
) -> Vec<i8> {
    assert_eq!(input.len(), geo.in_channels * h * w, "input size");
    assert_eq!(
        weight.len(),
        geo.out_channels * geo.in_channels * geo.kernel * geo.kernel,
        "weight size"
    );
    assert_eq!(bias.len(), geo.out_channels, "bias size");
    assert_eq!(mults.len(), geo.out_channels, "multiplier count");

    let (oh, ow) = geo.out_hw(h, w);
    let k = geo.kernel;
    let pad = geo.padding as isize;
    let mut out = vec![0i8; geo.out_channels * oh * ow];

    for co in 0..geo.out_channels {
        let w_base = co * geo.in_channels * k * k;
        for oy in 0..oh {
            for ox in 0..ow {
                let mut acc = bias[co];
                for ci in 0..geo.in_channels {
                    let plane = &input[ci * h * w..(ci + 1) * h * w];
                    let kern = &weight[w_base + ci * k * k..w_base + (ci + 1) * k * k];
                    for ky in 0..k {
                        let iy = oy as isize * geo.stride as isize + ky as isize - pad;
                        if iy < 0 || iy >= h as isize {
                            continue; // padding contributes (zp - zp) * w = 0
                        }
                        for kx in 0..k {
                            let ix = ox as isize * geo.stride as isize + kx as isize - pad;
                            if ix >= 0 && ix < w as isize {
                                let x = plane[iy as usize * w + ix as usize] as i32 - in_zp;
                                acc += x * kern[ky * k + kx] as i32;
                            }
                        }
                    }
                }
                let mut q = requantize_to_i8(acc, mults[co], out_zp);
                if relu && (q as i32) < out_zp {
                    q = out_zp.clamp(-128, 127) as i8;
                }
                out[co * oh * ow + oy * ow + ox] = q;
            }
        }
    }
    out
}

/// Integer depthwise convolution over one CHW image: the guarded loop,
/// serial, kept as the obviously-correct reference for the interior/edge
/// fast path (`qdw_plane`). `weight` is `C * K * K`; all other
/// conventions match [`qconv2d_reference`].
///
/// # Panics
///
/// Panics on size mismatches.
#[allow(clippy::too_many_arguments)]
pub fn qdepthwise_conv2d_reference(
    input: &[i8],
    h: usize,
    w: usize,
    in_zp: i32,
    channels: usize,
    kernel: usize,
    stride: usize,
    padding: usize,
    weight: &[i8],
    bias: &[i32],
    mults: &[FixedMultiplier],
    out_zp: i32,
    relu: bool,
) -> Vec<i8> {
    assert_eq!(input.len(), channels * h * w, "input size");
    assert_eq!(weight.len(), channels * kernel * kernel, "weight size");
    assert_eq!(bias.len(), channels, "bias size");
    assert_eq!(mults.len(), channels, "multiplier count");

    let oh = (h + 2 * padding - kernel) / stride + 1;
    let ow = (w + 2 * padding - kernel) / stride + 1;
    let mut out = vec![0i8; channels * oh * ow];
    for c in 0..channels {
        qdw_plane_reference(
            &input[c * h * w..(c + 1) * h * w],
            h,
            w,
            in_zp,
            kernel,
            stride,
            padding,
            &weight[c * kernel * kernel..(c + 1) * kernel * kernel],
            bias[c],
            mults[c],
            out_zp,
            relu,
            &mut out[c * oh * ow..(c + 1) * oh * ow],
            oh,
            ow,
        );
    }
    out
}

/// One depthwise output plane, dispatched to the const-generic fast path
/// for the kernel sizes real networks use (the MobileNet members are all
/// 3×3; 1/5/7 cover the common alternatives) and to the guarded reference
/// loop otherwise. On x86-64 with AVX2 available the whole plane is
/// compiled a second time with the wider vector ISA (see
/// [`crate::microkernel`]); integer results are identical either way.
#[allow(clippy::too_many_arguments)]
pub(crate) fn qdw_plane(
    plane: &[i8],
    h: usize,
    w: usize,
    in_zp: i32,
    kernel: usize,
    stride: usize,
    padding: usize,
    kern: &[i8],
    bias: i32,
    mult: FixedMultiplier,
    out_zp: i32,
    relu: bool,
    dst: &mut [i8],
    oh: usize,
    ow: usize,
) {
    #[cfg(target_arch = "x86_64")]
    if crate::microkernel::simd_enabled() {
        // SAFETY: AVX2 support verified; the body is safe Rust.
        unsafe {
            qdw_plane_avx2(
                plane, h, w, in_zp, kernel, stride, padding, kern, bias, mult, out_zp, relu, dst,
                oh, ow,
            )
        };
        return;
    }
    qdw_plane_select(
        plane, h, w, in_zp, kernel, stride, padding, kern, bias, mult, out_zp, relu, dst, oh, ow,
    );
}

/// [`qdw_plane_select`] recompiled with AVX2 enabled.
///
/// # Safety
///
/// The caller must have verified AVX2 support.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[allow(clippy::too_many_arguments)]
unsafe fn qdw_plane_avx2(
    plane: &[i8],
    h: usize,
    w: usize,
    in_zp: i32,
    kernel: usize,
    stride: usize,
    padding: usize,
    kern: &[i8],
    bias: i32,
    mult: FixedMultiplier,
    out_zp: i32,
    relu: bool,
    dst: &mut [i8],
    oh: usize,
    ow: usize,
) {
    qdw_plane_select(
        plane, h, w, in_zp, kernel, stride, padding, kern, bias, mult, out_zp, relu, dst, oh, ow,
    );
}

/// Kernel-size dispatch, `inline(always)` so the `target_feature` wrapper
/// above recompiles the selected plane loop with the wider ISA.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn qdw_plane_select(
    plane: &[i8],
    h: usize,
    w: usize,
    in_zp: i32,
    kernel: usize,
    stride: usize,
    padding: usize,
    kern: &[i8],
    bias: i32,
    mult: FixedMultiplier,
    out_zp: i32,
    relu: bool,
    dst: &mut [i8],
    oh: usize,
    ow: usize,
) {
    match kernel {
        1 => qdw_plane_fast::<1>(
            plane, h, w, in_zp, stride, padding, kern, bias, mult, out_zp, relu, dst, oh, ow,
        ),
        3 => qdw_plane_fast::<3>(
            plane, h, w, in_zp, stride, padding, kern, bias, mult, out_zp, relu, dst, oh, ow,
        ),
        5 => qdw_plane_fast::<5>(
            plane, h, w, in_zp, stride, padding, kern, bias, mult, out_zp, relu, dst, oh, ow,
        ),
        7 => qdw_plane_fast::<7>(
            plane, h, w, in_zp, stride, padding, kern, bias, mult, out_zp, relu, dst, oh, ow,
        ),
        _ => qdw_plane_reference(
            plane, h, w, in_zp, kernel, stride, padding, kern, bias, mult, out_zp, relu, dst, oh,
            ow,
        ),
    }
}

/// Guarded per-plane depthwise loop: bounds check per tap, original bias,
/// taps accumulated in `(ky, kx)` order. This is both the fallback for
/// unusual kernel sizes and the edge-pixel path of [`qdw_plane_fast`].
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn qdw_plane_reference(
    plane: &[i8],
    h: usize,
    w: usize,
    in_zp: i32,
    kernel: usize,
    stride: usize,
    padding: usize,
    kern: &[i8],
    bias: i32,
    mult: FixedMultiplier,
    out_zp: i32,
    relu: bool,
    dst: &mut [i8],
    oh: usize,
    ow: usize,
) {
    let pad = padding as isize;
    let relu_floor = out_zp.clamp(-128, 127) as i8;
    for oy in 0..oh {
        for ox in 0..ow {
            let mut acc = bias;
            for ky in 0..kernel {
                let iy = oy as isize * stride as isize + ky as isize - pad;
                if iy < 0 || iy >= h as isize {
                    continue;
                }
                for kx in 0..kernel {
                    let ix = ox as isize * stride as isize + kx as isize - pad;
                    if ix >= 0 && ix < w as isize {
                        let x = plane[iy as usize * w + ix as usize] as i32 - in_zp;
                        acc += x * kern[ky * kernel + kx] as i32;
                    }
                }
            }
            let q = requantize_to_i8(acc, mult, out_zp);
            dst[oy * ow + ox] = if relu && (q as i32) < out_zp {
                relu_floor
            } else {
                q
            };
        }
    }
}

/// Interior/edge depthwise fast path for a `K`×`K` filter.
///
/// Output pixels whose full receptive field lies inside the plane (the
/// interior rectangle `y0..y1 × x0..x1`) run a branch-free row loop: the
/// filter sits in a local i32 array, the input zero point is folded into
/// the bias ([`fold_zero_point`] — exact because every tap is a real
/// input), and each output reads `K` contiguous `K`-tap rows. Edge pixels
/// (any tap in padding) reuse the guarded reference loop with the
/// *unfolded* bias, since padding taps contribute zero, not `-zp·w`.
///
/// Integer accumulation is exact, so both regions are bit-identical to
/// [`qdw_plane_reference`] over the whole plane.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn qdw_plane_fast<const K: usize>(
    plane: &[i8],
    h: usize,
    w: usize,
    in_zp: i32,
    stride: usize,
    padding: usize,
    kern: &[i8],
    bias: i32,
    mult: FixedMultiplier,
    out_zp: i32,
    relu: bool,
    dst: &mut [i8],
    oh: usize,
    ow: usize,
) {
    // Interior bounds: oy*stride - padding >= 0 and
    // oy*stride - padding + K <= h (same for x).
    let y0 = padding.div_ceil(stride).min(oh);
    let y1 = if h + padding >= K {
        ((h + padding - K) / stride + 1).min(oh)
    } else {
        0
    }
    .max(y0);
    let x0 = padding.div_ceil(stride).min(ow);
    let x1 = if w + padding >= K {
        ((w + padding - K) / stride + 1).min(ow)
    } else {
        0
    }
    .max(x0);

    let mut kw = [[0i32; K]; K];
    for ky in 0..K {
        for kx in 0..K {
            kw[ky][kx] = kern[ky * K + kx] as i32;
        }
    }
    let folded = fold_zero_point(bias, kern, in_zp);
    let relu_floor = out_zp.clamp(-128, 127) as i8;

    // Edge bands through the guarded loop (top, bottom, then the left and
    // right flanks of each interior row).
    let guarded_rows = |dst: &mut [i8], ys: std::ops::Range<usize>, xs: std::ops::Range<usize>| {
        let pad = padding as isize;
        for oy in ys {
            for ox in xs.clone() {
                let mut acc = bias;
                for (ky, kwrow) in kw.iter().enumerate() {
                    let iy = oy as isize * stride as isize + ky as isize - pad;
                    if iy < 0 || iy >= h as isize {
                        continue;
                    }
                    for (kx, &kv) in kwrow.iter().enumerate() {
                        let ix = ox as isize * stride as isize + kx as isize - pad;
                        if ix >= 0 && ix < w as isize {
                            let x = plane[iy as usize * w + ix as usize] as i32 - in_zp;
                            acc += x * kv;
                        }
                    }
                }
                let q = requantize_to_i8(acc, mult, out_zp);
                dst[oy * ow + ox] = if relu && (q as i32) < out_zp {
                    relu_floor
                } else {
                    q
                };
            }
        }
    };
    guarded_rows(&mut *dst, 0..y0, 0..ow);
    guarded_rows(&mut *dst, y1..oh, 0..ow);
    for oy in y0..y1 {
        guarded_rows(&mut *dst, oy..oy + 1, 0..x0);
        guarded_rows(&mut *dst, oy..oy + 1, x1..ow);
        let iy = oy * stride - padding;
        let drow = &mut dst[oy * ow..(oy + 1) * ow];
        for (d, ox) in drow[x0..x1].iter_mut().zip(x0..) {
            let ix = ox * stride - padding;
            let mut acc = folded;
            for (ky, kwrow) in kw.iter().enumerate() {
                let srow = &plane[(iy + ky) * w + ix..(iy + ky) * w + ix + K];
                for (&s, &kv) in srow.iter().zip(kwrow.iter()) {
                    acc += s as i32 * kv;
                }
            }
            let q = requantize_to_i8(acc, mult, out_zp);
            *d = if relu && (q as i32) < out_zp {
                relu_floor
            } else {
                q
            };
        }
    }
}

/// Integer fully-connected layer over one flattened input.
///
/// # Panics
///
/// Panics on size mismatches.
#[allow(clippy::too_many_arguments)]
pub fn qlinear(
    input: &[i8],
    in_zp: i32,
    weight: &[i8],
    bias: &[i32],
    mults: &[FixedMultiplier],
    out_features: usize,
    out_zp: i32,
    relu: bool,
) -> Vec<i8> {
    let in_features = input.len();
    assert_eq!(weight.len(), out_features * in_features, "weight size");
    assert_eq!(bias.len(), out_features, "bias size");
    assert_eq!(mults.len(), out_features, "multiplier count");

    let mut out = vec![0i8; out_features];
    for (j, o) in out.iter_mut().enumerate() {
        let wrow = &weight[j * in_features..(j + 1) * in_features];
        let mut acc = bias[j];
        for (&x, &wv) in input.iter().zip(wrow.iter()) {
            acc += (x as i32 - in_zp) * wv as i32;
        }
        let mut q = requantize_to_i8(acc, mults[j], out_zp);
        if relu && (q as i32) < out_zp {
            q = out_zp.clamp(-128, 127) as i8;
        }
        *o = q;
    }
    out
}

/// Integer max pooling (zero-point invariant, so parameters pass through).
///
/// # Panics
///
/// Panics on size mismatch.
pub fn qmax_pool2d(
    input: &[i8],
    channels: usize,
    h: usize,
    w: usize,
    kernel: usize,
    stride: usize,
) -> Vec<i8> {
    assert_eq!(input.len(), channels * h * w, "input size");
    let oh = (h - kernel) / stride + 1;
    let ow = (w - kernel) / stride + 1;
    let mut out = vec![i8::MIN; channels * oh * ow];
    for c in 0..channels {
        let plane = &input[c * h * w..(c + 1) * h * w];
        for oy in 0..oh {
            for ox in 0..ow {
                let mut best = i8::MIN;
                for ky in 0..kernel {
                    for kx in 0..kernel {
                        best = best.max(plane[(oy * stride + ky) * w + ox * stride + kx]);
                    }
                }
                out[c * oh * ow + oy * ow + ox] = best;
            }
        }
    }
    out
}

/// Integer average pooling with round-to-nearest division.
///
/// Averaging is affine-invariant, so input quantization parameters carry
/// through unchanged.
///
/// # Panics
///
/// Panics on size mismatch.
pub fn qavg_pool2d(
    input: &[i8],
    channels: usize,
    h: usize,
    w: usize,
    kernel: usize,
    stride: usize,
) -> Vec<i8> {
    assert_eq!(input.len(), channels * h * w, "input size");
    let oh = (h - kernel) / stride + 1;
    let ow = (w - kernel) / stride + 1;
    let div = (kernel * kernel) as i32;
    let mut out = vec![0i8; channels * oh * ow];
    for c in 0..channels {
        let plane = &input[c * h * w..(c + 1) * h * w];
        for oy in 0..oh {
            for ox in 0..ow {
                let mut acc = 0i32;
                for ky in 0..kernel {
                    for kx in 0..kernel {
                        acc += plane[(oy * stride + ky) * w + ox * stride + kx] as i32;
                    }
                }
                let rounded = if acc >= 0 {
                    (acc + div / 2) / div
                } else {
                    (acc - div / 2) / div
                };
                out[c * oh * ow + oy * ow + ox] = rounded.clamp(-128, 127) as i8;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::qparams::QuantParams;

    /// Integer conv must track the float conv it approximates.
    #[test]
    fn qconv_tracks_float_reference() {
        let geo = QConvGeometry {
            in_channels: 2,
            out_channels: 3,
            kernel: 3,
            stride: 1,
            padding: 1,
        };
        let (h, w) = (5, 4);
        // Float data.
        let xf: Vec<f32> = (0..2 * h * w)
            .map(|i| ((i * 7 % 13) as f32 / 13.0) - 0.4)
            .collect();
        let wf: Vec<f32> = (0..3 * 2 * 9)
            .map(|i| ((i * 5 % 11) as f32 / 11.0) - 0.5)
            .collect();
        let bf = [0.1f32, -0.2, 0.05];

        // Quantize.
        let in_p = QuantParams::from_range(-0.5, 0.6);
        let w_absmax = wf.iter().fold(0.0f32, |a, &b| a.max(b.abs()));
        let w_p = QuantParams::symmetric(w_absmax);
        let out_p = QuantParams::from_range(-2.0, 2.0);
        let xq = in_p.quantize_slice(&xf);
        let wq = w_p.quantize_slice(&wf);
        let bias: Vec<i32> = bf
            .iter()
            .map(|&b| (b / (in_p.scale * w_p.scale)).round() as i32)
            .collect();
        let mult = FixedMultiplier::from_real(in_p.scale * w_p.scale / out_p.scale);
        let mults = vec![mult; 3];

        let got = qconv2d_reference(
            &xq,
            h,
            w,
            in_p.zero_point,
            geo,
            &wq,
            &bias,
            &mults,
            out_p.zero_point,
            false,
        );

        // Float reference.
        let xt = np_tensor::Tensor::from_vec(&[1, 2, h, w], xf);
        let wt = np_tensor::Tensor::from_vec(&[3, 2, 3, 3], wf);
        let bt = np_tensor::Tensor::from_slice(&bf);
        let want = np_tensor::conv::conv2d(
            &xt,
            &wt,
            Some(&bt),
            np_tensor::conv::Conv2dSpec {
                stride: 1,
                padding: 1,
            },
        );

        for (q, &f) in got.iter().zip(want.as_slice().iter()) {
            let deq = out_p.dequantize(*q);
            assert!(
                (deq - f).abs() < 4.0 * out_p.scale,
                "quantized {deq} vs float {f}"
            );
        }
    }

    #[test]
    fn fused_relu_clamps_at_zero_point() {
        let geo = QConvGeometry {
            in_channels: 1,
            out_channels: 1,
            kernel: 1,
            stride: 1,
            padding: 0,
        };
        // Identity-ish conv with negative weight so outputs go below zero.
        let input = vec![100i8, -100];
        let weight = vec![-127i8];
        let mult = FixedMultiplier::from_real(0.01);
        let out = qconv2d_reference(&input, 1, 2, 0, geo, &weight, &[0], &[mult], -10, true);
        // First output is very negative -> clamped to zp (-10).
        assert_eq!(out[0], -10);
        assert!(out[1] > -10);
    }

    #[test]
    fn qmax_pool_picks_max() {
        let input = vec![1i8, 9, 3, 4];
        assert_eq!(qmax_pool2d(&input, 1, 2, 2, 2, 2), vec![9]);
    }

    #[test]
    fn qavg_pool_rounds() {
        let input = vec![1i8, 2, 3, 5]; // avg 2.75 -> 3
        assert_eq!(qavg_pool2d(&input, 1, 2, 2, 2, 2), vec![3]);
        let neg = vec![-1i8, -2, -3, -5];
        assert_eq!(qavg_pool2d(&neg, 1, 2, 2, 2, 2), vec![-3]);
    }

    #[test]
    fn qlinear_known_values() {
        // y = 2x with scales arranged to be exact.
        let input = vec![10i8];
        let weight = vec![64i8];
        let mult = FixedMultiplier::from_real(2.0 / 64.0);
        let out = qlinear(&input, 0, &weight, &[0], &[mult], 1, 0, false);
        assert_eq!(out, vec![20]);
    }
}
