//! Property-based parity suites for the integer kernels.
//!
//! The program's fast kernels — the lowered raw-i8 conv panels, the tiled
//! depthwise kernel and the pooling plane bodies — must agree with the
//! direct reference loops *exactly* (integer arithmetic has no tolerance
//! to hide behind) across random geometries including stride and padding
//! edge cases, and across every pool width. Whole random networks are checked
//! end to end against the scalar oracle [`QuantizedNetwork::run_int`].

use crate::kernels::{
    qavg_pool2d, qavg_pool_plane, qconv2d_reference, qdepthwise_conv2d_reference, qdepthwise_impl,
    qmax_pool2d, qmax_pool_plane, Depthwise, QConvGeometry,
};
use crate::lowering::{patch_stride, qgemm_row, qim2row_u8_into, u8_lowered_len};
#[cfg(target_arch = "x86_64")]
use crate::microkernel::avx2_available;
use crate::microkernel::{
    fold_offset_bias, pack_conv_panels_i8, qconv_panels_i8_impl, qconv_panels_i8_into, NR_I8,
};
use crate::program::QScratch;
use crate::qnetwork::QuantizedNetwork;
use crate::requant::{requantize_to_i8, FixedMultiplier};
use np_nn::init::{Initializer, SmallRng};
use np_nn::layers::{
    AvgPool2d, Conv2d, DepthwiseConv2d, Flatten, GlobalAvgPool, Linear, MaxPool2d, Relu,
};
use np_nn::{Layer, Sequential};
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

    /// The compiled program's conv step against the direct six-loop
    /// reference: offset-binary u8 im2row lowering, raw-i8 filter packing,
    /// the bias fold and the panel kernel, at random stride and padding
    /// and at several pool widths.
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

        // The program's conv step, done by hand: lower the frame, pack
        // the filters, fold the bias, run the panel kernel.
        let patch = in_channels * kernel * kernel;
        let (oh, ow) = geo.out_hw(h, w);
        let cols = oh * ow;
        let mut low8 = vec![0u8; u8_lowered_len(cols, patch)];
        qim2row_u8_into(&input, 1, h, w, in_zp, geo, &mut low8);
        let packed8 = pack_conv_panels_i8(&weight, out_channels, patch);
        let folded = fold_offset_bias(&bias, &weight, out_channels, patch, in_zp);
        for threads in [1usize, 2, 8] {
            let mut got8 = vec![0i8; out_channels * cols];
            qconv_panels_i8_into(
                Pool::new(threads),
                &packed8, patch, &low8, &folded, &mults, out_zp, relu, 1, &mut got8,
            );
            prop_assert_eq!(&got8, &reference, "threads {}", threads);
        }
    }

    /// The raw-i8 offset-binary kernel against per-channel [`qgemm_row`] +
    /// requantize over the centered activations, at deliberately ragged
    /// shapes (C_out % MR != 0, columns % NR_I8 != 0, odd patches) and at
    /// adversarial quantization corners: input zero points drawn from
    /// {−128, 0, 127} (plus an interior value), optionally all-negative
    /// weight rows (the worst case for the folded weight-sum
    /// correction), and requant multipliers optionally forced into
    /// `FixedMultiplier::from_real`'s saturating range so the i32→i8
    /// epilogue rails are exercised — across B ∈ {1, 2, 8} frames,
    /// every pool width an `NP_THREADS=1..8` run resolves to, and with
    /// the SIMD body forced off (the host-dispatched body is covered by
    /// the public entry).
    #[test]
    fn i8_microkernel_matches_qgemm_row_at_adversarial_corners(
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

    /// The program's depthwise step kernel against the guarded reference,
    /// over `batch × channels` planes (plane `p` uses channel `p %
    /// channels`), at pool widths 1, 2 and 8 and with both the portable
    /// and (where the host has it) the AVX2 body, at every input zero
    /// point and at small and large multipliers. Kernel sizes 1..8 at
    /// strides 1..3 cover every phase split, including kernels narrower
    /// than the stride; small planes with large padding produce windows
    /// that are mostly padding; and the widest draws exceed the tile, so
    /// they run in several bands of output rows.
    #[test]
    fn depthwise_fast_path_matches_reference_at_ragged_shapes(
        channels in 1usize..5,
        batch in 1usize..3,
        kernel in 1usize..8,
        stride in 1usize..4,
        padding in 0usize..4,
        h_extra in 0usize..48,
        w_extra in 0usize..64,
        in_zp in -128i32..128,
        out_zp in -20i32..20,
        big_sel in 0u8..2,
        relu_sel in 0u8..2,
        seed in 0u64..1_000_000,
    ) {
        // Derive valid plane sizes instead of rejecting draws: the padded
        // extent must cover at least one kernel placement.
        let h = kernel.saturating_sub(2 * padding).max(1) + h_extra;
        let w = kernel.saturating_sub(2 * padding).max(1) + w_extra;
        let relu = relu_sel == 1;
        let input = seeded_i8("dwf-x", seed, batch * channels * h * w);
        let weight = seeded_i8("dwf-w", seed, channels * kernel * kernel);
        let bias = seeded_bias("dwf-b", seed, channels);
        // Realistic multipliers requantize with a shift of at least 32;
        // large ones (up to `from_real`'s saturating edge) take the
        // general epilogue.
        let mults: Vec<FixedMultiplier> = if big_sel == 1 {
            (0..channels)
                .map(|i| FixedMultiplier::from_real([0.5, 0.9, 3.0, 2.0e9][i % 4]))
                .collect()
        } else {
            seeded_mults("dwf-m", seed, channels)
        };

        let frame = channels * h * w;
        let reference: Vec<i8> = input
            .chunks_exact(frame)
            .flat_map(|x| {
                qdepthwise_conv2d_reference(
                    x, h, w, in_zp, channels, kernel, stride, padding,
                    &weight, &bias, &mults, out_zp, relu,
                )
            })
            .collect();
        let dw = Depthwise {
            h, w, in_zp, channels, kernel, stride, padding,
            weight: &weight, bias: &bias, mults: &mults, out_zp, relu,
        };
        let mut simd_modes = vec![false];
        #[cfg(target_arch = "x86_64")]
        if avx2_available() {
            simd_modes.push(true);
        }
        for use_simd in simd_modes {
            for threads in [1usize, 2, 8] {
                let mut got = vec![0i8; reference.len()];
                qdepthwise_impl(Pool::new(threads), &dw, &input, &mut got, use_simd);
                prop_assert_eq!(&got, &reference, "simd {} threads {}", use_simd, threads);
            }
        }
    }

    /// The program's max- and average-pool plane bodies against
    /// [`qmax_pool2d`] / [`qavg_pool2d`], plane by plane: kernels 1..4 at
    /// strides 1..3 (2×2/s2 takes the row-pair body, portable and, where
    /// the host has it, AVX2; the rest the window loop) over ragged planes
    /// whose last rows and columns fall outside every window.
    #[test]
    fn pool_planes_match_reference_at_ragged_shapes(
        channels in 1usize..5,
        kernel in 1usize..5,
        stride in 1usize..4,
        h_extra in 0usize..12,
        w_extra in 0usize..12,
        seed in 0u64..1_000_000,
    ) {
        let (h, w) = (kernel + h_extra, kernel + w_extra);
        let input = seeded_i8("pool-x", seed, channels * h * w);
        let (oh, ow) = ((h - kernel) / stride + 1, (w - kernel) / stride + 1);
        let want_max = qmax_pool2d(&input, channels, h, w, kernel, stride);
        let want_avg = qavg_pool2d(&input, channels, h, w, kernel, stride);
        let mut simd_modes = vec![false];
        #[cfg(target_arch = "x86_64")]
        if avx2_available() {
            simd_modes.push(true);
        }
        for use_simd in simd_modes {
            let mut got_max = vec![0i8; channels * oh * ow];
            let mut got_avg = vec![0i8; channels * oh * ow];
            for ((plane, mx), av) in input
                .chunks_exact(h * w)
                .zip(got_max.chunks_exact_mut(oh * ow))
                .zip(got_avg.chunks_exact_mut(oh * ow))
            {
                qmax_pool_plane(plane, w, kernel, stride, mx, ow, use_simd);
                qavg_pool_plane(plane, w, kernel, stride, av, ow, use_simd);
            }
            prop_assert_eq!(&got_max, &want_max, "max, simd {}", use_simd);
            prop_assert_eq!(&got_avg, &want_avg, "avg, simd {}", use_simd);
        }
    }
}

/// One whole-network case: a random conv → depthwise → pointwise → pool
/// stage → linear network for `side × side` single-channel inputs,
/// quantized on seeded frames, plus 8 seeded input frames and the scalar
/// oracle's output for each, concatenated. The depthwise layer is
/// `dw_kernel × dw_kernel` at `dw_stride` with padding `dw_kernel / 2`.
/// `pool_sel` draws the pool stage after the pointwise conv (0: none, 1:
/// 2×2/2 `MaxPool2d`, 2: 2×2/2 `AvgPool2d`) and `gap` puts a
/// `GlobalAvgPool` before the head, so the program's pool loops meet
/// ragged channel counts and odd planes.
#[allow(clippy::too_many_arguments)]
fn random_case(
    tag: &str,
    c1: usize,
    c2: usize,
    kernel: usize,
    stride: usize,
    dw_kernel: usize,
    dw_stride: usize,
    side: usize,
    pool_sel: usize,
    gap: bool,
    seed: u64,
) -> (QuantizedNetwork, Vec<i8>, Vec<i8>) {
    let mut rng = SmallRng::seed(seed);
    let k = Initializer::KaimingUniform;
    let dw_pad = dw_kernel / 2;
    let conv_out = conv_out_dim(side, kernel, stride, 1);
    let mut oh = conv_out_dim(conv_out, dw_kernel, dw_stride, dw_pad);
    let mut layers: Vec<Box<dyn Layer>> = vec![
        Box::new(Conv2d::new(1, c1, kernel, stride, 1, k, &mut rng)),
        Box::new(Relu::new()),
        Box::new(DepthwiseConv2d::new(
            c1, dw_kernel, dw_stride, dw_pad, k, &mut rng,
        )),
        Box::new(Relu::new()),
        Box::new(Conv2d::new(c1, c2, 1, 1, 0, k, &mut rng)),
        Box::new(Relu::new()),
    ];
    match pool_sel {
        1 => layers.push(Box::new(MaxPool2d::new(2, 2))),
        2 => layers.push(Box::new(AvgPool2d::new(2, 2))),
        _ => {}
    }
    if pool_sel != 0 {
        oh = (oh - 2) / 2 + 1;
    }
    if gap {
        layers.push(Box::new(GlobalAvgPool::new()));
        oh = 1;
    }
    layers.push(Box::new(Flatten::new()));
    layers.push(Box::new(Linear::new(c2 * oh * oh, 4, k, &mut rng)));

    let frame_len = side * side;
    let calib = seeded_f32(&format!("{tag}-c"), seed, 3 * frame_len);
    let qnet = QuantizedNetwork::quantize(
        &Sequential::with_name(tag, layers),
        &Tensor::from_vec(&[3, 1, side, side], calib),
    );
    let inputs = seeded_i8(&format!("{tag}-x"), seed, 8 * frame_len);
    let oracle = inputs
        .chunks_exact(frame_len)
        .flat_map(|frame| qnet.run_int(frame, (1, side, side)).0)
        .collect();
    (qnet, inputs, oracle)
}

proptest! {
    // Whole-network cases are heavier than single-kernel ones (quantize +
    // compile + scalar oracle per case), so fewer draws — the inner loops
    // still cover several batch sizes × threads 1..=8 each time.
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// `run_int_batched` against B independent `run_int_prepacked` calls
    /// and against the scalar oracle `run_int`, frame by frame, on a
    /// random conv/depthwise/pointwise/pool/linear network. The drawn
    /// channel counts are deliberately allowed to be ragged against the
    /// microkernel panel height, the drawn spatial sizes make the
    /// per-frame pixel count odd, and the depthwise layer is 3×3 or 5×5
    /// at stride 1 or 2. It runs the bodies `NP_ISA` selects, so a run
    /// under `NP_ISA=scalar` covers the portable ones.
    #[test]
    fn run_int_batched_equals_independent_prepacked_runs(
        c1 in 1usize..6,
        c2 in 1usize..9,
        kernel in 1usize..4,
        stride in 1usize..3,
        dw_kernel_sel in 0usize..2,
        dw_stride in 1usize..3,
        side in 8usize..13,
        pool_sel in 0usize..3,
        gap_sel in 0u8..2,
        seed in 0u64..1_000_000,
    ) {
        let dw_kernel = [3, 5][dw_kernel_sel];
        let (qnet, inputs, oracle) = random_case(
            "batched-prop", c1, c2, kernel, stride, dw_kernel, dw_stride, side, pool_sel, gap_sel == 1,
            seed,
        );
        let frame_len = side * side;
        let program = qnet.compile_batched((1, side, side), 8);
        let mut scratch = QScratch::for_program(&program);

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
            prop_assert_eq!(&want[..], &oracle[..want.len()], "prepacked vs oracle, batch {}", batch);
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
}
