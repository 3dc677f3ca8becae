//! Property-based parity suites for the integer kernels.
//!
//! The im2col-lowered conv path and the pooled kernels must agree with the
//! direct reference loops *exactly* — integer arithmetic has no tolerance
//! to hide behind — across random geometries including stride and padding
//! edge cases, and across every pool width.

use crate::kernels::{
    qconv2d_reference, qconv2d_with, qdepthwise_conv2d, qdepthwise_conv2d_reference,
    qdepthwise_conv2d_with, QConvGeometry,
};
use crate::lowering::{patch_stride, qgemm_row, u8_lowered_len};
use crate::microkernel::{
    fold_offset_bias, pack_conv_panels, pack_conv_panels_i8, qconv_panels_i8_impl,
    qconv_panels_i8_into, qconv_panels_into, KernelIsa, NR_I8,
};
use crate::program::QScratch;
use crate::qnetwork::QuantizedNetwork;
use crate::requant::{requantize_to_i8, FixedMultiplier};
use np_nn::init::{Initializer, SmallRng};
use np_nn::layers::{Conv2d, DepthwiseConv2d, Flatten, Linear, Relu};
use np_nn::Sequential;
use np_tensor::parallel::Pool;
use np_tensor::shape::conv_out_dim;
use np_tensor::Tensor;
use proptest::prelude::*;

/// Deterministic i8 fill for buffers whose size depends on drawn values.
fn seeded_i8(tag: &str, seed: u64, n: usize) -> Vec<i8> {
    let mut r = TestRng::deterministic(&format!("{tag}:{seed}"));
    (0..n).map(|_| (r.next_u64() & 0xff) as u8 as i8).collect()
}

/// Per-channel requantization multipliers spread over realistic scales.
fn seeded_mults(tag: &str, seed: u64, n: usize) -> Vec<FixedMultiplier> {
    let mut r = TestRng::deterministic(&format!("{tag}:{seed}"));
    (0..n)
        .map(|_| FixedMultiplier::from_real(0.0005 + 0.2 * r.unit_f64() as f32))
        .collect()
}

fn seeded_bias(tag: &str, seed: u64, n: usize) -> Vec<i32> {
    let mut r = TestRng::deterministic(&format!("{tag}:{seed}"));
    (0..n).map(|_| (r.index(4001) as i32) - 2000).collect()
}

fn seeded_f32(tag: &str, seed: u64, n: usize) -> Vec<f32> {
    let mut r = TestRng::deterministic(&format!("{tag}:{seed}"));
    (0..n).map(|_| 2.0 * r.unit_f64() as f32 - 1.0).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn lowered_qconv2d_equals_reference_exactly(
        in_channels in 1usize..4,
        out_channels in 1usize..6,
        kernel in 1usize..4,
        stride in 1usize..4,
        padding in 0usize..3,
        h in 4usize..10,
        w in 4usize..10,
        in_zp in -20i32..20,
        out_zp in -20i32..20,
        relu_sel in 0u8..2,
        seed in 0u64..1_000_000,
    ) {
        let geo = QConvGeometry { in_channels, out_channels, kernel, stride, padding };
        let relu = relu_sel == 1;
        let input = seeded_i8("qc-x", seed, in_channels * h * w);
        let weight = seeded_i8("qc-w", seed, out_channels * in_channels * kernel * kernel);
        let bias = seeded_bias("qc-b", seed, out_channels);
        let mults = seeded_mults("qc-m", seed, out_channels);

        let reference =
            qconv2d_reference(&input, h, w, in_zp, geo, &weight, &bias, &mults, out_zp, relu);
        for threads in [1usize, 2, 8] {
            let got = qconv2d_with(
                Pool::new(threads),
                &input, h, w, in_zp, geo, &weight, &bias, &mults, out_zp, relu,
            );
            prop_assert_eq!(&got, &reference, "threads {}", threads);
        }
    }

    #[test]
    fn qdepthwise_pool_parity_is_exact(
        channels in 1usize..6,
        kernel in 1usize..4,
        stride in 1usize..4,
        padding in 0usize..3,
        h in 4usize..10,
        w in 4usize..10,
        in_zp in -20i32..20,
        out_zp in -20i32..20,
        relu_sel in 0u8..2,
        seed in 0u64..1_000_000,
    ) {
        let relu = relu_sel == 1;
        let input = seeded_i8("qd-x", seed, channels * h * w);
        let weight = seeded_i8("qd-w", seed, channels * kernel * kernel);
        let bias = seeded_bias("qd-b", seed, channels);
        let mults = seeded_mults("qd-m", seed, channels);

        let serial = qdepthwise_conv2d(
            &input, h, w, in_zp, channels, kernel, stride, padding,
            &weight, &bias, &mults, out_zp, relu,
        );
        for threads in [2usize, 8] {
            let got = qdepthwise_conv2d_with(
                Pool::new(threads),
                &input, h, w, in_zp, channels, kernel, stride, padding,
                &weight, &bias, &mults, out_zp, relu,
            );
            prop_assert_eq!(&got, &serial, "threads {}", threads);
        }
    }

    /// The register-blocked MR×NR microkernel against per-channel
    /// [`qgemm_row`] + requantize, at deliberately ragged shapes: the drawn
    /// ranges cover C_out % MR != 0, pixel counts % NR != 0, and patches
    /// that are not a multiple of the 8-lane pad — plus every pool width an
    /// `NP_THREADS=1..8` run would resolve to.
    #[test]
    fn microkernel_matches_qgemm_row_at_ragged_shapes(
        out_channels in 1usize..13,
        cols in 1usize..48,
        patch in 1usize..36,
        out_zp in -20i32..20,
        relu_sel in 0u8..2,
        seed in 0u64..1_000_000,
    ) {
        let relu = relu_sel == 1;
        let weight = seeded_i8("mk-w", seed, out_channels * patch);
        let bias = seeded_bias("mk-b", seed, out_channels);
        let mults = seeded_mults("mk-m", seed, out_channels);
        // The same centered activations in both layouts: patch-major with
        // zero tail lanes for the microkernel, row-major for the reference.
        let vals = seeded_i8("mk-x", seed, cols * patch);
        let ps = patch_stride(patch);
        let mut low = vec![0i16; cols * ps];
        let mut low_cm = vec![0i16; patch * cols];
        for col in 0..cols {
            for r in 0..patch {
                let v = vals[col * patch + r] as i16;
                low[col * ps + r] = v;
                low_cm[r * cols + col] = v;
            }
        }

        let mut want = vec![0i8; out_channels * cols];
        let mut acc = vec![0i32; cols];
        for co in 0..out_channels {
            qgemm_row(&weight[co * patch..(co + 1) * patch], &low_cm, bias[co], &mut acc);
            for (o, &a) in want[co * cols..(co + 1) * cols].iter_mut().zip(acc.iter()) {
                let q = requantize_to_i8(a, mults[co], out_zp);
                *o = if relu && (q as i32) < out_zp {
                    out_zp.clamp(-128, 127) as i8
                } else {
                    q
                };
            }
        }

        let packed = pack_conv_panels(&weight, out_channels, patch);
        for threads in 1usize..=8 {
            let mut got = vec![0i8; out_channels * cols];
            qconv_panels_into(
                Pool::new(threads),
                &packed, patch, &low, &bias, &mults, out_zp, relu, 1, &mut got,
            );
            prop_assert_eq!(&got, &want, "threads {}", threads);
        }
    }

    /// The raw-i8 offset-binary kernel against the scalar i16 reference
    /// at adversarial quantization corners: input zero points drawn from
    /// {−128, 0, 127} (plus an interior value), optionally all-negative
    /// weight rows (the worst case for the folded weight-sum
    /// correction), and requant multipliers optionally forced into
    /// `FixedMultiplier::from_real`'s saturating range so the i32→i8
    /// epilogue rails are exercised — across B ∈ {1, 2, 8} frames,
    /// every pool width an `NP_THREADS=1..8` run resolves to, and with
    /// the SIMD body forced off (the host-dispatched body is covered by
    /// the public entry).
    #[test]
    fn i8_microkernel_matches_i16_reference_at_adversarial_corners(
        out_channels in 1usize..13,
        cols in 1usize..48,
        patch in 1usize..36,
        zp_sel in 0usize..4,
        out_zp in -128i32..128,
        neg_sel in 0u8..2,
        sat_sel in 0u8..2,
        relu_sel in 0u8..2,
        seed in 0u64..1_000_000,
    ) {
        let relu = relu_sel == 1;
        let in_zp = [-128i32, 0, 127, -37][zp_sel];
        let mut weight = seeded_i8("i8-w", seed, out_channels * patch);
        if neg_sel == 1 {
            for w in &mut weight {
                *w = -1 - (*w & 0x7f);
            }
        }
        let bias = seeded_bias("i8-b", seed, out_channels);
        let mults: Vec<FixedMultiplier> = if sat_sel == 1 {
            // Out-of-range reals saturate `from_real` to the shift-0
            // edge, driving every accumulator to the requant rails.
            (0..out_channels)
                .map(|i| FixedMultiplier::from_real(2.0e9 + 1.0e9 * i as f32))
                .collect()
        } else {
            seeded_mults("i8-m", seed, out_channels)
        };

        // 8 frames of raw activations: offset-binary u8 blocks for the
        // kernel, centered row-major i16 for the reference.
        let raw = seeded_i8("i8-x", seed, 8 * cols * patch);
        let ps = patch_stride(patch);
        let flen = u8_lowered_len(cols, patch);
        let mut low = vec![(in_zp + 128) as u8; 8 * flen];
        let mut want = vec![0i8; 8 * out_channels * cols];
        let mut low_cm = vec![0i16; patch * cols];
        let mut acc = vec![0i32; cols];
        for b in 0..8 {
            let vals = &raw[b * cols * patch..(b + 1) * cols * patch];
            for col in 0..cols {
                for r in 0..patch {
                    let v = vals[col * patch + r];
                    low_cm[r * cols + col] = (v as i32 - in_zp) as i16;
                    low[b * flen
                        + (col / NR_I8) * NR_I8 * ps
                        + (r / 2) * 2 * NR_I8
                        + 2 * (col % NR_I8)
                        + (r & 1)] = (v as u8) ^ 0x80;
                }
            }
            for co in 0..out_channels {
                qgemm_row(&weight[co * patch..(co + 1) * patch], &low_cm, bias[co], &mut acc);
                let dst = &mut want[(b * out_channels + co) * cols..][..cols];
                for (o, &a) in dst.iter_mut().zip(acc.iter()) {
                    let q = requantize_to_i8(a, mults[co], out_zp);
                    *o = if relu && (q as i32) < out_zp {
                        out_zp.clamp(-128, 127) as i8
                    } else {
                        q
                    };
                }
            }
        }

        let panels = pack_conv_panels_i8(&weight, out_channels, patch);
        let fb = fold_offset_bias(&bias, &weight, out_channels, patch, in_zp);
        for batch in [1usize, 2, 8] {
            for threads in 1usize..=8 {
                let mut got = vec![0i8; batch * out_channels * cols];
                qconv_panels_i8_into(
                    Pool::new(threads),
                    &panels, patch, &low[..batch * flen], &fb, &mults, out_zp, relu,
                    batch, &mut got,
                );
                prop_assert_eq!(
                    &got, &want[..batch * out_channels * cols],
                    "zp {} batch {} threads {}", in_zp, batch, threads
                );
            }
        }
        // Forced-scalar body, independent of the host dispatch.
        let mut got = vec![0i8; 8 * out_channels * cols];
        qconv_panels_i8_impl(
            Pool::serial(), &panels, patch, &low, &fb, &mults, out_zp, relu,
            8, &mut got, false,
        );
        prop_assert_eq!(&got, &want, "forced scalar, zp {}", in_zp);
    }

    /// The depthwise interior/edge fast path against the retained guarded
    /// reference. Kernel sizes 1..8 hit every const-generic specialization
    /// (1/3/5/7) and the fallback sizes; small planes with large padding
    /// produce empty or degenerate interiors.
    #[test]
    fn depthwise_fast_path_matches_reference_at_ragged_shapes(
        channels in 1usize..7,
        kernel in 1usize..8,
        stride in 1usize..4,
        padding in 0usize..4,
        h_extra in 0usize..11,
        w_extra in 0usize..11,
        in_zp in -20i32..20,
        out_zp in -20i32..20,
        relu_sel in 0u8..2,
        seed in 0u64..1_000_000,
    ) {
        // Derive valid plane sizes instead of rejecting draws: the padded
        // extent must cover at least one kernel placement.
        let h = kernel.saturating_sub(2 * padding).max(1) + h_extra;
        let w = kernel.saturating_sub(2 * padding).max(1) + w_extra;
        let relu = relu_sel == 1;
        let input = seeded_i8("dwf-x", seed, channels * h * w);
        let weight = seeded_i8("dwf-w", seed, channels * kernel * kernel);
        let bias = seeded_bias("dwf-b", seed, channels);
        let mults = seeded_mults("dwf-m", seed, channels);

        let reference = qdepthwise_conv2d_reference(
            &input, h, w, in_zp, channels, kernel, stride, padding,
            &weight, &bias, &mults, out_zp, relu,
        );
        for threads in 1usize..=8 {
            let got = qdepthwise_conv2d_with(
                Pool::new(threads),
                &input, h, w, in_zp, channels, kernel, stride, padding,
                &weight, &bias, &mults, out_zp, relu,
            );
            prop_assert_eq!(&got, &reference, "threads {}", threads);
        }
    }
}

proptest! {
    // Whole-network cases are heavier than single-kernel ones (quantize +
    // compile per case), so fewer draws — the inner loops still cover
    // B ∈ {1, 2, 3, 8} × threads 1..=8 each time.
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// `run_int_batched` against B independent `run_int_prepacked` calls
    /// on a randomly-shaped conv/depthwise/pointwise/linear network. The
    /// drawn channel counts are deliberately allowed to be ragged against
    /// the microkernel panel height, and the drawn spatial sizes make the
    /// per-frame pixel count odd, so NR tiles straddle frame boundaries
    /// in the batched sweep.
    #[test]
    fn run_int_batched_equals_independent_prepacked_runs(
        c1 in 1usize..6,
        c2 in 1usize..9,
        kernel in 1usize..4,
        stride in 1usize..3,
        side in 8usize..13,
        seed in 0u64..1_000_000,
    ) {
        let mut rng = SmallRng::seed(seed ^ 0xB47C);
        let k = Initializer::KaimingUniform;
        let oh = conv_out_dim(side, kernel, stride, 1);
        let net = Sequential::with_name(
            "batched-prop",
            vec![
                Box::new(Conv2d::new(1, c1, kernel, stride, 1, k, &mut rng)),
                Box::new(Relu::new()),
                Box::new(DepthwiseConv2d::new(c1, 3, 1, 1, k, &mut rng)),
                Box::new(Relu::new()),
                Box::new(Conv2d::new(c1, c2, 1, 1, 0, k, &mut rng)),
                Box::new(Relu::new()),
                Box::new(Flatten::new()),
                Box::new(Linear::new(c2 * oh * oh, 4, k, &mut rng)),
            ],
        );
        let frame_len = side * side;
        let calib = Tensor::from_vec(
            &[3, 1, side, side],
            seeded_f32("bt-c", seed, 3 * frame_len),
        );
        let qnet = QuantizedNetwork::quantize(&net, &calib);
        let program = qnet.compile_batched((1, side, side), 8);
        let mut scratch = QScratch::for_program(&program);
        let inputs = seeded_i8("bt-x", seed, 8 * frame_len);

        for batch in [1usize, 2, 3, 8] {
            let mut want = Vec::new();
            for b in 0..batch {
                let (out, _) = program.run_int_prepacked(
                    Pool::serial(),
                    &mut scratch,
                    &inputs[b * frame_len..(b + 1) * frame_len],
                );
                want.extend_from_slice(out);
            }
            for threads in 1usize..=8 {
                let (got, _) = program.run_int_batched(
                    Pool::new(threads),
                    &mut scratch,
                    &inputs[..batch * frame_len],
                    batch,
                );
                prop_assert_eq!(got, &want[..], "batch {} threads {}", batch, threads);
            }
        }
    }

    /// A whole network compiled to the raw-i8 format against the same
    /// network compiled to the scalar-i16 format: bit-identical outputs
    /// across B ∈ {1, 2, 8} and threads 1..=8, with the i8 program's
    /// packed weights strictly smaller. This pins the full stack — u8
    /// lowering, folded bias, arena planning, batched layout — not just
    /// the kernel.
    #[test]
    fn i8_program_equals_scalar_i16_program_across_batches(
        c1 in 1usize..6,
        c2 in 1usize..9,
        kernel in 1usize..4,
        stride in 1usize..3,
        side in 8usize..13,
        seed in 0u64..1_000_000,
    ) {
        let mut rng = SmallRng::seed(seed ^ 0x18A8);
        let k = Initializer::KaimingUniform;
        let oh = conv_out_dim(side, kernel, stride, 1);
        let net = Sequential::with_name(
            "isa-prop",
            vec![
                Box::new(Conv2d::new(1, c1, kernel, stride, 1, k, &mut rng)),
                Box::new(Relu::new()),
                Box::new(DepthwiseConv2d::new(c1, 3, 1, 1, k, &mut rng)),
                Box::new(Relu::new()),
                Box::new(Conv2d::new(c1, c2, 1, 1, 0, k, &mut rng)),
                Box::new(Relu::new()),
                Box::new(Flatten::new()),
                Box::new(Linear::new(c2 * oh * oh, 4, k, &mut rng)),
            ],
        );
        let frame_len = side * side;
        let calib = Tensor::from_vec(
            &[3, 1, side, side],
            seeded_f32("ic-c", seed, 3 * frame_len),
        );
        let qnet = QuantizedNetwork::quantize(&net, &calib);
        let p16 = qnet.compile_batched_for_isa((1, side, side), 8, KernelIsa::ScalarI16);
        let p8 = qnet.compile_batched_for_isa((1, side, side), 8, KernelIsa::Avx2I8);
        prop_assert!(p8.packed_weight_bytes() < p16.packed_weight_bytes());
        let mut scratch = QScratch::for_programs(&[&p16, &p8]);
        let inputs = seeded_i8("ip-x", seed, 8 * frame_len);

        for batch in [1usize, 2, 8] {
            let want = {
                let (out, _) = p16.run_int_batched(
                    Pool::serial(), &mut scratch, &inputs[..batch * frame_len], batch,
                );
                out.to_vec()
            };
            for threads in 1usize..=8 {
                let (got, _) = p8.run_int_batched(
                    Pool::new(threads), &mut scratch, &inputs[..batch * frame_len], batch,
                );
                prop_assert_eq!(got, &want[..], "batch {} threads {}", batch, threads);
            }
        }
    }
}
