//! im2col lowering and the integer GEMM microkernel behind [`qconv2d`].
//!
//! The direct six-loop convolution in `kernels.rs` walks the input with a
//! bounds check per tap; lowering first materializes every receptive-field
//! patch as a column of a `(C_in*K*K) x (H_out*W_out)` i16 matrix — with the
//! input zero point already subtracted, so padding cells are plain zeros —
//! and then reduces each output channel to a branch-free dot-row over that
//! matrix. This is the same restructuring PULP-NN applies on GAP8, where
//! the inner loop becomes a `SumDotp` over contiguous memory.
//!
//! All arithmetic is integer (i16 operands, i32 accumulation), so results
//! are exactly equal to the direct reference and independent of how work is
//! partitioned across threads.
//!
//! [`qconv2d`]: crate::kernels::qconv2d

use crate::kernels::QConvGeometry;

/// Lowers one CHW i8 image into the im2col matrix for `geo`.
///
/// Row `ci*K*K + ky*K + kx`, column `oy*W_out + ox` holds
/// `input[ci][oy*s + ky - p][ox*s + kx - p] - in_zp`, or `0` when the tap
/// lands in the padding (the pad value *is* the zero point, so its centered
/// value is exactly zero). `x - in_zp` spans at most `[-255, 255]`, which
/// fits i16 with room to spare.
pub fn qim2col(input: &[i8], h: usize, w: usize, in_zp: i32, geo: QConvGeometry) -> Vec<i16> {
    let (oh, ow) = geo.out_hw(h, w);
    let mut lowered = vec![0i16; geo.in_channels * geo.kernel * geo.kernel * oh * ow];
    qim2col_into(input, h, w, in_zp, geo, &mut lowered);
    lowered
}

/// [`qim2col`] into a caller-provided buffer of exactly
/// `C_in*K*K * H_out*W_out` i16 slots — no allocation, identical output.
/// This is the entry the prepacked executor uses with planner-assigned
/// scratch.
///
/// # Panics
///
/// Panics if `input` or `lowered` have the wrong length.
pub fn qim2col_into(
    input: &[i8],
    h: usize,
    w: usize,
    in_zp: i32,
    geo: QConvGeometry,
    lowered: &mut [i16],
) {
    assert_eq!(input.len(), geo.in_channels * h * w, "input size");
    let (oh, ow) = geo.out_hw(h, w);
    let k = geo.kernel;
    let pad = geo.padding as isize;
    let cols = oh * ow;
    assert_eq!(
        lowered.len(),
        geo.in_channels * k * k * cols,
        "lowered scratch size"
    );
    lowered.fill(0);

    for ci in 0..geo.in_channels {
        let plane = &input[ci * h * w..(ci + 1) * h * w];
        for ky in 0..k {
            for kx in 0..k {
                let row = (ci * k + ky) * k + kx;
                let dst = &mut lowered[row * cols..(row + 1) * cols];
                for oy in 0..oh {
                    let iy = oy as isize * geo.stride as isize + ky as isize - pad;
                    if iy < 0 || iy >= h as isize {
                        continue; // row of padding: stays zero
                    }
                    let src_row = &plane[iy as usize * w..(iy as usize + 1) * w];
                    for ox in 0..ow {
                        let ix = ox as isize * geo.stride as isize + kx as isize - pad;
                        if ix >= 0 && ix < w as isize {
                            dst[oy * ow + ox] = (src_row[ix as usize] as i32 - in_zp) as i16;
                        }
                    }
                }
            }
        }
    }
}

/// The transpose of [`qim2col_into`]: lowers `batch` equally-shaped CHW
/// i8 frames (concatenated NCHW in `input`) into *patch-major* (im2row)
/// layout, where output pixel `col = oy*W_out + ox` of frame `b` owns the
/// contiguous slice `lowered[(b*cols + col)*stride..][..patch]` (with
/// `cols = H_out*W_out` and `stride = patch_stride(patch)`) holding its
/// centered receptive field in `(ci, ky, kx)` order; the `stride - patch`
/// tail slots stay zero. Frame `b`'s columns are byte-identical to a
/// lowering of that frame alone.
///
/// Patch-major is the layout the prepacked executor wants: one output
/// pixel's convolution becomes a dot product of two contiguous i16
/// vectors (the pre-widened filter row and the patch), which LLVM lowers
/// to widening multiply-accumulate (`pmaddwd` on x86) — the same
/// `SumDotp` structure PULP-NN uses on GAP8. Rounding the stride up to
/// [`patch_stride`] keeps every patch vector-aligned and lets the dot
/// run without a scalar remainder loop: the padding lanes multiply
/// zero-filled weight lanes, contributing nothing. Concatenating the
/// frames' columns lets the microkernel sweep each weight panel across
/// the whole batch in one invocation.
///
/// # Panics
///
/// Panics if `input` or `lowered` have the wrong length, or `batch == 0`.
pub fn qim2row_into(
    input: &[i8],
    batch: usize,
    h: usize,
    w: usize,
    in_zp: i32,
    geo: QConvGeometry,
    lowered: &mut [i16],
) {
    assert!(batch > 0, "batch must be at least 1");
    let frame_len = geo.in_channels * h * w;
    assert_eq!(input.len(), batch * frame_len, "input size");
    let (oh, ow) = geo.out_hw(h, w);
    let frame_lowered = oh * ow * patch_stride(geo.in_channels * geo.kernel * geo.kernel);
    assert_eq!(lowered.len(), batch * frame_lowered, "lowered scratch size");
    for (frame, dst) in input
        .chunks_exact(frame_len)
        .zip(lowered.chunks_exact_mut(frame_lowered))
    {
        qim2row_frame(frame, h, w, in_zp, geo, dst);
    }
}

/// One frame of [`qim2row_into`].
fn qim2row_frame(
    input: &[i8],
    h: usize,
    w: usize,
    in_zp: i32,
    geo: QConvGeometry,
    lowered: &mut [i16],
) {
    let (oh, ow) = geo.out_hw(h, w);
    let k = geo.kernel;
    let pad = geo.padding as isize;
    let patch = geo.in_channels * k * k;
    let stride = patch_stride(patch);
    lowered.fill(0);

    // Pointwise fast path: a 1x1/s1/p0 "patch" is just the pixel's channel
    // fiber, so the lowering is a strided transpose of the CHW input with
    // no bounds checks at all. This is the dominant conv shape in the
    // MobileNet members (every block ends in a pointwise conv).
    if k == 1 && geo.stride == 1 && geo.padding == 0 {
        for (ci, plane) in input.chunks_exact(h * w).enumerate() {
            for (col, &v) in plane.iter().enumerate() {
                lowered[col * stride + ci] = (v as i32 - in_zp) as i16;
            }
        }
        return;
    }

    for oy in 0..oh {
        for ox in 0..ow {
            let col = oy * ow + ox;
            let dst = &mut lowered[col * stride..col * stride + patch];
            for ci in 0..geo.in_channels {
                let plane = &input[ci * h * w..(ci + 1) * h * w];
                for ky in 0..k {
                    let iy = oy as isize * geo.stride as isize + ky as isize - pad;
                    if iy < 0 || iy >= h as isize {
                        continue; // padding row: stays zero
                    }
                    let src_row = &plane[iy as usize * w..(iy as usize + 1) * w];
                    let drow = &mut dst[(ci * k + ky) * k..(ci * k + ky + 1) * k];
                    for (kx, d) in drow.iter_mut().enumerate() {
                        let ix = ox as isize * geo.stride as isize + kx as isize - pad;
                        if ix >= 0 && ix < w as isize {
                            *d = (src_row[ix as usize] as i32 - in_zp) as i16;
                        }
                    }
                }
            }
        }
    }
}

/// The padded per-patch stride of the im2row layout: `patch` rounded up
/// to a whole number of [`np_tensor::im2col::I16_LANES`] i16 lanes, so
/// every patch starts 16-byte aligned and dots have no scalar remainder.
#[inline]
pub fn patch_stride(patch: usize) -> usize {
    np_tensor::im2col::pad_to_i16_lanes(patch)
}

/// Byte length of the offset-binary u8 im2row buffer for `cols` output
/// pixels: the columns are grouped into whole
/// [`NR_I8`](crate::microkernel::NR_I8)-column blocks of
/// [`patch_stride`] bytes each, so the i8 microkernel's 16-column tiles
/// never need a ragged-edge loop — the `< NR_I8` dead columns of the last
/// block are computed and discarded. Half the bytes of the i16 layout for
/// the same `cols` (u8 cells vs i16 cells; the block rounding costs at
/// most 15 columns).
#[inline]
pub fn u8_lowered_len(cols: usize, patch: usize) -> usize {
    cols.div_ceil(crate::microkernel::NR_I8) * crate::microkernel::NR_I8 * patch_stride(patch)
}

/// The raw-int8 counterpart of [`qim2row_into`]: lowers `batch`
/// equally-shaped CHW i8 frames (concatenated NCHW in `input`) into the
/// *offset-binary u8* column-blocked layout the i8 microkernel
/// ([`crate::microkernel::qconv_panels_i8_into`]) consumes.
///
/// Every activation is stored as `u = x + 128` (`x ^ 0x80` in two's
/// complement), so the buffer needs only one byte per cell; the kernel
/// recovers the centered sum through the weight-sum bias fold
/// ([`crate::microkernel::fold_offset_bias`]). Padding taps hold the input
/// zero point, whose offset-binary image is `(in_zp + 128) as u8` — the
/// whole buffer is prefilled with that byte, which also covers the
/// `patch_stride - patch` tail rows (they meet zero weight lanes) and the
/// dead columns of the last [`NR_I8`](crate::microkernel::NR_I8) block
/// (they are never stored).
///
/// Layout: column `col` lives in block `b = col / NR_I8` at lane
/// `l = col % NR_I8`; patch row `r` of that column is the byte
/// `lowered[b*NR_I8*ps + (r/2)*2*NR_I8 + 2*l + (r%2)]` with
/// `ps = patch_stride(patch)`. Rows are interleaved in *pairs* so one
/// 32-byte vector load yields 16 columns × one row pair — exactly the
/// operand shape of a `pmaddwd` reduction step.
///
/// The batch is *per-frame blocked*: frame `b` owns
/// `lowered[b*flen..(b+1)*flen]` with `flen = u8_lowered_len(cols,
/// patch)`, byte-identical to a lowering of that frame alone. Column
/// blocks therefore never straddle a frame boundary, which keeps the
/// kernel's frame-chunked parallelism block-aligned.
///
/// # Panics
///
/// Panics if `input` or `lowered` have the wrong length, or `batch == 0`.
pub fn qim2row_u8_into(
    input: &[i8],
    batch: usize,
    h: usize,
    w: usize,
    in_zp: i32,
    geo: QConvGeometry,
    lowered: &mut [u8],
) {
    assert!(batch > 0, "batch must be at least 1");
    let frame_len = geo.in_channels * h * w;
    assert_eq!(input.len(), batch * frame_len, "input size");
    let (oh, ow) = geo.out_hw(h, w);
    let frame_lowered = u8_lowered_len(oh * ow, geo.in_channels * geo.kernel * geo.kernel);
    assert_eq!(lowered.len(), batch * frame_lowered, "lowered scratch size");
    for (frame, dst) in input
        .chunks_exact(frame_len)
        .zip(lowered.chunks_exact_mut(frame_lowered))
    {
        qim2row_u8_frame(frame, h, w, in_zp, geo, dst);
    }
}

/// One frame of [`qim2row_u8_into`].
fn qim2row_u8_frame(
    input: &[i8],
    h: usize,
    w: usize,
    in_zp: i32,
    geo: QConvGeometry,
    lowered: &mut [u8],
) {
    use crate::microkernel::NR_I8;
    let (oh, ow) = geo.out_hw(h, w);
    let k = geo.kernel;
    let pad = geo.padding as isize;
    let patch = geo.in_channels * k * k;
    let ps = patch_stride(patch);
    let pad_byte = (in_zp + 128) as u8;
    lowered.fill(pad_byte);

    // Pointwise fast path, mirroring the i16 writer: a 1x1/s1/p0 "patch"
    // is the pixel's channel fiber, so the lowering is a pure scatter of
    // each input plane with no bounds checks.
    if k == 1 && geo.stride == 1 && geo.padding == 0 {
        for (ci, plane) in input.chunks_exact(h * w).enumerate() {
            let row_base = (ci / 2) * 2 * NR_I8 + (ci & 1);
            for (col, &v) in plane.iter().enumerate() {
                lowered[(col / NR_I8) * NR_I8 * ps + row_base + 2 * (col % NR_I8)] =
                    (v as u8) ^ 0x80;
            }
        }
        return;
    }

    for oy in 0..oh {
        for ox in 0..ow {
            let col = oy * ow + ox;
            let blk = &mut lowered[(col / NR_I8) * NR_I8 * ps..][..NR_I8 * ps];
            let lane = 2 * (col % NR_I8);
            for ci in 0..geo.in_channels {
                let plane = &input[ci * h * w..(ci + 1) * h * w];
                for ky in 0..k {
                    let iy = oy as isize * geo.stride as isize + ky as isize - pad;
                    if iy < 0 || iy >= h as isize {
                        continue; // padding row: stays at the pad byte
                    }
                    let src_row = &plane[iy as usize * w..(iy as usize + 1) * w];
                    let r0 = (ci * k + ky) * k;
                    for kx in 0..k {
                        let ix = ox as isize * geo.stride as isize + kx as isize - pad;
                        if ix >= 0 && ix < w as isize {
                            let r = r0 + kx;
                            blk[(r / 2) * 2 * NR_I8 + lane + (r & 1)] =
                                (src_row[ix as usize] as u8) ^ 0x80;
                        }
                    }
                }
            }
        }
    }
}

/// One dot product over pre-widened operands:
/// `bias + sum_r w[r] * x[r]`, accumulating in `r`-ascending order.
///
/// Both slices are i16 — the filter is widened once at program-compile
/// time — so the loop is a pure widening multiply-accumulate that LLVM
/// vectorizes to `pmaddwd`-class instructions. Integer accumulation is
/// exact, so the result is bit-identical to any other summation order of
/// the same products.
#[inline]
pub fn qdot(w: &[i16], x: &[i16], bias: i32) -> i32 {
    debug_assert_eq!(w.len(), x.len());
    let mut a = bias;
    for (&wv, &xv) in w.iter().zip(x.iter()) {
        a += wv as i32 * xv as i32;
    }
    a
}

/// One GEMM row: `acc[col] = bias + sum_r weight[r] * lowered[r][col]`.
///
/// `weight` is one output channel's flattened `C_in*K*K` i8 filter;
/// `lowered` is the [`qim2col`] matrix; `acc` has `cols` i32 slots. The
/// axpy-over-rows order keeps the inner loop a contiguous i16-by-scalar
/// multiply-accumulate that LLVM vectorizes.
pub fn qgemm_row(weight: &[i8], lowered: &[i16], bias: i32, acc: &mut [i32]) {
    let cols = acc.len();
    assert_eq!(lowered.len(), weight.len() * cols, "lowered size");
    acc.fill(bias);
    for (r, &wv) in weight.iter().enumerate() {
        let wv = wv as i32;
        let row = &lowered[r * cols..(r + 1) * cols];
        for (a, &x) in acc.iter_mut().zip(row.iter()) {
            *a += wv * x as i32;
        }
    }
}

/// Widens a `C_out x patch` row-major i8 weight matrix to i16 rows laid
/// out at [`patch_stride`] spacing — the compile-time counterpart of
/// [`qim2row_into`]. Each filter row is then directly [`qdot`]-able
/// against a lowered patch; the `stride - patch` tail lanes are zero and
/// meet the equally-zero padding lanes of every patch, so the padded dot
/// is exact.
pub fn widen_weight_rows(weight: &[i8], out_channels: usize, patch: usize) -> Vec<i16> {
    assert_eq!(weight.len(), out_channels * patch, "weight size");
    let stride = patch_stride(patch);
    let mut wide = vec![0i16; out_channels * stride];
    for co in 0..out_channels {
        for (r, &v) in weight[co * patch..(co + 1) * patch].iter().enumerate() {
            wide[co * stride + r] = v as i16;
        }
    }
    wide
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn qim2col_identity_1x1() {
        let geo = QConvGeometry {
            in_channels: 1,
            out_channels: 1,
            kernel: 1,
            stride: 1,
            padding: 0,
        };
        let input = vec![5i8, -3, 0, 7];
        let lowered = qim2col(&input, 2, 2, 2, geo);
        assert_eq!(lowered, vec![3, -5, -2, 5]);
    }

    #[test]
    fn qim2col_padding_cells_are_zero() {
        let geo = QConvGeometry {
            in_channels: 1,
            out_channels: 1,
            kernel: 3,
            stride: 1,
            padding: 1,
        };
        // Constant image equal to the zero point: every centered value is 0,
        // so the whole lowered matrix must be zeros (padding included).
        let input = vec![4i8; 9];
        let lowered = qim2col(&input, 3, 3, 4, geo);
        assert!(lowered.iter().all(|&v| v == 0));
    }

    #[test]
    fn qgemm_row_known_dot() {
        // 2 rows x 3 cols, weight [2, -1], bias 10.
        let lowered = vec![1i16, 2, 3, 4, 5, 6];
        let mut acc = vec![0i32; 3];
        qgemm_row(&[2, -1], &lowered, 10, &mut acc);
        assert_eq!(acc, vec![10 + 2 - 4, 10 + 4 - 5, 10 + 6 - 6]);
    }

    #[test]
    fn qim2col_into_matches_allocating_entry() {
        let geo = QConvGeometry {
            in_channels: 2,
            out_channels: 1,
            kernel: 3,
            stride: 2,
            padding: 1,
        };
        let input: Vec<i8> = (0..2 * 6 * 5).map(|i| (i * 7 % 251) as i8).collect();
        let want = qim2col(&input, 6, 5, 3, geo);
        // Pre-dirty the scratch to prove the fill is complete.
        let mut got = vec![77i16; want.len()];
        qim2col_into(&input, 6, 5, 3, geo, &mut got);
        assert_eq!(got, want);
    }

    #[test]
    fn pointwise_im2row_fast_path_matches_general_layout() {
        // The 1x1/s1/p0 specialization must write exactly what the general
        // triple loop writes: pixel-major channel fibers at patch_stride
        // spacing with zero tail lanes.
        let geo = QConvGeometry {
            in_channels: 5, // pads 5 -> 8: tail lanes exercised
            out_channels: 1,
            kernel: 1,
            stride: 1,
            padding: 0,
        };
        let (h, w, in_zp) = (4usize, 6usize, -7i32);
        let input: Vec<i8> = (0..5 * h * w).map(|i| (i * 11 % 251) as i8).collect();
        let ps = patch_stride(5);
        let mut got = vec![55i16; h * w * ps];
        qim2row_into(&input, 1, h, w, in_zp, geo, &mut got);
        for col in 0..h * w {
            for ci in 0..5 {
                assert_eq!(
                    got[col * ps + ci],
                    (input[ci * h * w + col] as i32 - in_zp) as i16
                );
            }
            for lane in 5..ps {
                assert_eq!(got[col * ps + lane], 0, "tail lane must stay zero");
            }
        }
    }

    #[test]
    fn u8_im2row_matches_i16_im2row_cell_for_cell() {
        use crate::microkernel::NR_I8;
        // Both the general path (3x3/s2/p1, padded patch tail) and the
        // pointwise fast path must store exactly `centered + zp + 128`
        // (= raw x + 128) at the block-interleaved position of every live
        // cell, and the pad byte everywhere else.
        for geo in [
            QConvGeometry {
                in_channels: 2,
                out_channels: 3,
                kernel: 3,
                stride: 2,
                padding: 1,
            },
            QConvGeometry {
                in_channels: 5,
                out_channels: 3,
                kernel: 1,
                stride: 1,
                padding: 0,
            },
        ] {
            let (h, w) = (6usize, 5usize);
            for in_zp in [-128i32, -7, 0, 127] {
                let input: Vec<i8> = (0..geo.in_channels * h * w)
                    .map(|i| (i * 13 % 251) as i8)
                    .collect();
                let (oh, ow) = geo.out_hw(h, w);
                let cols = oh * ow;
                let patch = geo.in_channels * geo.kernel * geo.kernel;
                let ps = patch_stride(patch);
                let mut want16 = vec![0i16; cols * ps];
                qim2row_into(&input, 1, h, w, in_zp, geo, &mut want16);
                let mut got = vec![0xAAu8; u8_lowered_len(cols, patch)];
                qim2row_u8_into(&input, 1, h, w, in_zp, geo, &mut got);
                let pad_byte = (in_zp + 128) as u8;
                let mut live = vec![false; got.len()];
                for col in 0..cols {
                    for r in 0..patch {
                        let idx = (col / NR_I8) * NR_I8 * ps
                            + (r / 2) * 2 * NR_I8
                            + 2 * (col % NR_I8)
                            + (r % 2);
                        live[idx] = true;
                        // centered i16 value + zp + 128 == raw x + 128
                        let want = (want16[col * ps + r] as i32 + in_zp + 128) as u8;
                        assert_eq!(got[idx], want, "col {col} r {r} zp {in_zp}");
                    }
                }
                for (idx, &l) in live.iter().enumerate() {
                    if !l {
                        assert_eq!(got[idx], pad_byte, "dead cell {idx} zp {in_zp}");
                    }
                }
            }
        }
    }

    #[test]
    fn im2row_qdot_matches_im2col_gemm_row() {
        // Odd patch (2*3*3 = 18 pads to 24) with stride-2 downsampling and
        // padding, so both the alignment tail and the padding-lane zeros
        // are exercised.
        let geo = QConvGeometry {
            in_channels: 2,
            out_channels: 3,
            kernel: 3,
            stride: 2,
            padding: 1,
        };
        let (h, w, in_zp) = (6usize, 5usize, 3i32);
        let (oh, ow) = geo.out_hw(h, w);
        let cols = oh * ow;
        let patch = geo.in_channels * geo.kernel * geo.kernel;
        let input: Vec<i8> = (0..2 * h * w).map(|i| (i * 7 % 251) as i8).collect();
        let weight: Vec<i8> = (0..3 * patch).map(|i| (i as i8).wrapping_mul(23)).collect();

        let lowered = qim2col(&input, h, w, in_zp, geo);
        let mut want = vec![0i32; 3 * cols];
        for co in 0..3 {
            qgemm_row(
                &weight[co * patch..(co + 1) * patch],
                &lowered,
                5 + co as i32,
                &mut want[co * cols..(co + 1) * cols],
            );
        }

        let ps = patch_stride(patch);
        assert!(ps > patch, "test should exercise a padded tail");
        // Pre-dirty the scratch to prove the fill is complete.
        let mut lowrow = vec![99i16; cols * ps];
        qim2row_into(&input, 1, h, w, in_zp, geo, &mut lowrow);
        let wide = widen_weight_rows(&weight, 3, patch);
        for co in 0..3 {
            for col in 0..cols {
                let got = qdot(
                    &wide[co * ps..(co + 1) * ps],
                    &lowrow[col * ps..(col + 1) * ps],
                    5 + co as i32,
                );
                assert_eq!(got, want[co * cols + col], "co {co}, col {col}");
            }
        }
    }
}
