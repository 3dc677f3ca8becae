//! Integer-only inference kernels: i8 operands, i32 accumulators,
//! fixed-point requantization. These mirror the PULP-NN kernels DORY emits
//! for the GAP8 cluster.
//!
//! The public kernels are the serial reference loops
//! ([`qconv2d_reference`], [`qdepthwise_conv2d_reference`],
//! [`qmax_pool2d`], [`qavg_pool2d`], [`qlinear`]), from which the scalar
//! oracle [`QuantizedNetwork::run_int`](crate::QuantizedNetwork::run_int)
//! is built. The compiled [`QuantizedProgram`](crate::QuantizedProgram)
//! runs standard convolution im2row-lowered through the register-blocked
//! microkernel (see [`crate::microkernel`]) and depthwise convolution
//! through one padded, phase-split tile kernel for every kernel size,
//! stride and padding: each plane is copied once into a zero-bordered tile
//! of centered values, and every output row is a few vector multiply-adds
//! plus the GEMM's requantize epilogue — no edge bands, no bias fold. Its
//! pooling steps run per-plane bodies with a 2×2/s2 fast shape. Integer
//! arithmetic is exact, so exact-equality tests pin fast paths to
//! references.

use crate::lowering::{fill_phase_tile, Bands, PhaseTile, TapOffsets};
use crate::microkernel::{relu_floor, requant_clamp, simd_enabled};
use crate::requant::{requantize_to_i8, FixedMultiplier};
use np_tensor::parallel::Pool;

#[cfg(target_arch = "x86_64")]
use crate::microkernel::{requant_8_avx2, requant_8_hi_avx2};

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
/// serial, kept as the obviously-correct reference for the program's
/// tiled depthwise kernel. `weight` is `C * K * K`; all other conventions
/// match [`qconv2d_reference`].
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

/// Cells of the depthwise tile each pool chunk keeps on its stack (the
/// accumulator and staging rows beside it have as many lanes). A band of
/// output rows and columns ([`Bands`]) is sized so that its phase-split
/// window plus the [`DW_LANES`]-lane over-read fits; every depthwise
/// plane of the zoo at the 48×80 proxy resolution is a single band.
const DW_TILE: usize = 2048;

/// Lanes per vector block of the depthwise multiply-add and requantize
/// loops; a band's flattened run is rounded up to whole blocks.
const DW_LANES: usize = 16;

/// Cells a depthwise band's window may use: the tile less the over-read
/// of the last vector block. One output's receptive field must fit
/// ([`assert_filter_fits`](crate::lowering::assert_filter_fits)), which
/// admits kernels up to 45 at stride 1 and 44 at stride 2.
pub(crate) const DW_BAND_CELLS: usize = DW_TILE - DW_LANES;

/// One depthwise step: geometry, per-channel filters and requantization.
/// The step runs over `batch × channels` consecutive CHW planes; plane
/// `p` uses channel `p % channels`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Depthwise<'a> {
    pub h: usize,
    pub w: usize,
    /// Input zero point, in i8 range like every [`QuantParams`](crate::QuantParams)
    /// zero point: then `|x − in_zp| ≤ 255`, and every tap product fits i16.
    pub in_zp: i32,
    pub channels: usize,
    pub kernel: usize,
    pub stride: usize,
    pub padding: usize,
    /// `channels × kernel × kernel` symmetric i8 filters.
    pub weight: &'a [i8],
    pub bias: &'a [i32],
    pub mults: &'a [FixedMultiplier],
    pub out_zp: i32,
    pub relu: bool,
}

impl Depthwise<'_> {
    /// Output plane size.
    pub(crate) fn out_hw(&self) -> (usize, usize) {
        let out = |n: usize| (n + 2 * self.padding - self.kernel) / self.stride + 1;
        (out(self.h), out(self.w))
    }
}

/// Runs depthwise step `dw` over every plane of `input` into `out`,
/// parallel over whole planes, on the host's kernel body (see
/// [`qdepthwise_impl`]). Bit-identical to [`qdepthwise_conv2d_reference`]
/// on each frame at any pool width.
pub(crate) fn qdepthwise_into(pool: Pool, dw: &Depthwise<'_>, input: &[i8], out: &mut [i8]) {
    qdepthwise_impl(pool, dw, input, out, simd_enabled());
}

/// [`qdepthwise_into`] with the body chosen by `use_simd`, so tests can pin
/// the portable and AVX2 bodies against each other in one process.
///
/// Each plane is copied once, band by band, into a zero-bordered tile of
/// centered values (`x − in_zp`, so a padding tap is exactly 0) split into
/// `stride × stride` phases ([`fill_phase_tile`]). Tap `(ky, kx)` of
/// output `(oy, ox)` then sits at a fixed per-tap offset plus `oy·pw + ox`
/// (`pw` the phase width, see [`TapOffsets`]), so the band is `K²` vector
/// multiply-adds over one flattened run, taps paired for `pmaddwd` under
/// AVX2; the few columns between output rows are computed and dropped.
/// The run is requantized in 16-lane blocks — the i8 GEMM's
/// [`requant_8_avx2`] epilogue under AVX2 (its [`requant_8_hi_avx2`] form
/// when the shift is at least 32), the branchless [`requant_clamp`]
/// otherwise — and its live columns are copied out row by row. Integer
/// accumulation is exact in any order, so every body, band split and pool
/// width matches the reference bit for bit.
///
/// # Panics
///
/// Panics on size mismatches, or if a single output's receptive field
/// does not fit the tile ([`DW_BAND_CELLS`]).
pub(crate) fn qdepthwise_impl(
    pool: Pool,
    dw: &Depthwise<'_>,
    input: &[i8],
    out: &mut [i8],
    use_simd: bool,
) {
    let (oh, ow) = dw.out_hw();
    let (plane_in, plane_out) = (dw.h * dw.w, oh * ow);
    let planes = out.len() / plane_out;
    assert_eq!(out.len(), planes * plane_out, "output size");
    assert_eq!(input.len(), planes * plane_in, "input size");
    let k2 = dw.kernel * dw.kernel;
    assert_eq!(dw.weight.len(), dw.channels * k2, "weight size");
    assert_eq!(dw.bias.len(), dw.channels, "bias size");
    assert_eq!(dw.mults.len(), dw.channels, "multiplier count");
    debug_assert!((-128..=127).contains(&dw.in_zp), "input zero point");
    debug_assert!((-128..=127).contains(&dw.out_zp), "output zero point");
    let bands = Bands::new(oh, ow, dw.kernel, dw.stride, DW_BAND_CELLS);
    let pool = pool.for_work(planes * k2 * plane_out);
    let chunk_len = pool.chunk_len_for(planes, plane_out);
    let per_chunk = chunk_len / plane_out;
    pool.for_each_chunk(out, chunk_len, |idx, chunk| {
        let first = idx * per_chunk;
        let inp = &input[first * plane_in..(first + chunk.len() / plane_out) * plane_in];
        #[cfg(target_arch = "x86_64")]
        if use_simd {
            // SAFETY: `use_simd` is only true when AVX2 was verified
            // (`simd_enabled`, or a test gated on `avx2_available`).
            unsafe { dw_chunk_avx2(dw, &bands, first, inp, chunk) };
            return;
        }
        dw_chunk(dw, &bands, first, inp, chunk, false);
    });
}

/// [`dw_chunk`] compiled with AVX2 enabled, so the tile fill vectorizes
/// at the wider ISA and [`dw_band_avx2`] inlines.
///
/// # Safety
///
/// The caller must have verified AVX2 support.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn dw_chunk_avx2(
    dw: &Depthwise<'_>,
    bands: &Bands,
    first: usize,
    input: &[i8],
    chunk: &mut [i8],
) {
    dw_chunk(dw, bands, first, input, chunk, true);
}

/// One pool chunk of a depthwise step: whole output planes, starting at
/// global plane `first`, band by band through a stack tile. Loops stay in
/// `inline(always)` functions rather than closures, which would not
/// inherit the AVX2 wrapper's target feature.
#[inline(always)]
fn dw_chunk(
    dw: &Depthwise<'_>,
    bands: &Bands,
    first: usize,
    input: &[i8],
    chunk: &mut [i8],
    simd: bool,
) {
    // Zeroed once: a single-band step writes the same in-bounds cells for
    // every plane, so the padding border stays zero; several bands
    // re-zero their window each time.
    let mut cells = [0i16; DW_TILE];
    let mut acc = [0i32; DW_TILE];
    let mut stage = [0i8; DW_TILE];
    let plane_in = dw.h * dw.w;
    let ow = bands.ow;
    for (j, dst) in chunk.chunks_exact_mut(bands.oh * ow).enumerate() {
        let c = (first + j) % dw.channels;
        let plane = &input[j * plane_in..(j + 1) * plane_in];
        for (oy0, rows, ox0, cols) in bands.iter() {
            let tile = bands.tile(rows, cols);
            if !bands.single() {
                cells[..tile.cells()].fill(0);
            }
            let (y0, x0) = (oy0 * dw.stride, ox0 * dw.stride);
            fill_phase_tile(
                plane, dw.h, dw.w, dw.in_zp, dw.stride, dw.padding, tile, y0, x0, &mut cells,
            );
            let run = (rows - 1) * tile.pw + cols;
            dw_band_for(simd, dw, c, tile, run, &cells, &mut acc, &mut stage);
            for r in 0..rows {
                dst[(oy0 + r) * ow + ox0..][..cols]
                    .copy_from_slice(&stage[r * tile.pw..r * tile.pw + cols]);
            }
        }
    }
}

/// Runs one band of channel `c` — the flattened run of `run` outputs over
/// `tile` — through the AVX2 body when `simd`, the portable one otherwise.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn dw_band_for(
    simd: bool,
    dw: &Depthwise<'_>,
    c: usize,
    tile: PhaseTile,
    run: usize,
    cells: &[i16],
    acc: &mut [i32],
    stage: &mut [i8],
) {
    #[cfg(target_arch = "x86_64")]
    if simd {
        // SAFETY: `simd` is true only inside `dw_chunk_avx2`.
        unsafe { dw_band_avx2(dw, c, tile, run, cells, acc, stage) };
        return;
    }
    let _ = simd;
    dw_band(dw, c, tile, run, cells, acc, stage);
}

/// The filter's taps in `(ky, kx)` order as pairs `(offset₀, w₀, offset₁,
/// w₁)` (see [`TapOffsets`]); an odd last tap pairs with itself at weight
/// 0.
struct TapPairs<'a> {
    offsets: TapOffsets,
    kern: std::slice::Iter<'a, i8>,
}

impl<'a> TapPairs<'a> {
    /// The taps of channel `c`'s filter in `tile`.
    fn new(dw: &Depthwise<'a>, c: usize, tile: PhaseTile) -> Self {
        let k2 = dw.kernel * dw.kernel;
        TapPairs {
            offsets: TapOffsets::new(dw.kernel, dw.stride, tile),
            kern: dw.weight[c * k2..(c + 1) * k2].iter(),
        }
    }

    fn tap(&mut self) -> Option<(usize, i32)> {
        Some((self.offsets.next()?, *self.kern.next()? as i32))
    }
}

impl Iterator for TapPairs<'_> {
    type Item = (usize, i32, usize, i32);

    fn next(&mut self) -> Option<Self::Item> {
        let (o0, w0) = self.tap()?;
        let (o1, w1) = self.tap().unwrap_or((o0, 0));
        Some((o0, w0, o1, w1))
    }
}

/// The portable band body: `acc = bias + Σ w·x` over the band's flattened
/// run, then [`requant_clamp`] into `stage`.
#[inline(always)]
fn dw_band(
    dw: &Depthwise<'_>,
    c: usize,
    tile: PhaseTile,
    run: usize,
    cells: &[i16],
    acc: &mut [i32],
    stage: &mut [i8],
) {
    let acc = &mut acc[..run];
    acc.fill(dw.bias[c]);
    for (o0, w0, o1, w1) in TapPairs::new(dw, c, tile) {
        for ((a, &x0), &x1) in acc
            .iter_mut()
            .zip(&cells[o0..o0 + run])
            .zip(&cells[o1..o1 + run])
        {
            // |x| ≤ 255 and |w| ≤ 128, so each product is exact in i16
            // (a native multiply on every SIMD baseline).
            *a += x0.wrapping_mul(w0 as i16) as i32 + x1.wrapping_mul(w1 as i16) as i32;
        }
    }
    let (m, sh) = (dw.mults[c].multiplier, dw.mults[c].shift as u32);
    let floor = relu_floor(dw.relu, dw.out_zp);
    for (o, &a) in stage[..run].iter_mut().zip(acc.iter()) {
        *o = requant_clamp(a, m, sh, dw.out_zp, floor);
    }
}

/// The AVX2 band body. Each tap pair is one `pmaddwd` per 8 lanes over the
/// two taps' interleaved cells ([`madd_pair_avx2`]), two pairs per pass
/// over the run: `unpacklo/hi` leave lanes `0–3, 8–11` and `4–7, 12–15` of
/// a 16-lane block in its two accumulator halves, an order that
/// `packs_epi32` undoes at the requantize, so the run is stored permuted
/// and staged in order. `|x − in_zp| ≤ 255` and `|w| ≤ 128`, so
/// the i16 products and their i32 pair sums are exact.
///
/// # Safety
///
/// AVX2 must be enabled (callee of [`dw_chunk_avx2`] only).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[inline]
unsafe fn dw_band_avx2(
    dw: &Depthwise<'_>,
    c: usize,
    tile: PhaseTile,
    run: usize,
    cells: &[i16],
    acc: &mut [i32],
    stage: &mut [i8],
) {
    use std::arch::x86_64::*;
    let (bias, mult) = (dw.bias[c], dw.mults[c]);
    let run = run.div_ceil(DW_LANES) * DW_LANES;
    let acc = &mut acc[..run];
    // Two tap pairs per pass over the run, the bias folded into the first.
    let mut pairs = TapPairs::new(dw, c, tile);
    let mut first = true;
    while let Some(p0) = pairs.next() {
        let p1 = pairs.next().unwrap_or((p0.0, 0, p0.0, 0));
        for (jb, a) in acc.chunks_exact_mut(DW_LANES).enumerate() {
            let j = jb * DW_LANES;
            let (lo0, hi0) = madd_pair_avx2(cells, j, p0);
            let (lo1, hi1) = madd_pair_avx2(cells, j, p1);
            let pa = a.as_mut_ptr() as *mut __m256i;
            let (b0, b1) = if first {
                (_mm256_set1_epi32(bias), _mm256_set1_epi32(bias))
            } else {
                (_mm256_loadu_si256(pa), _mm256_loadu_si256(pa.add(1)))
            };
            _mm256_storeu_si256(pa, _mm256_add_epi32(b0, _mm256_add_epi32(lo0, lo1)));
            _mm256_storeu_si256(pa.add(1), _mm256_add_epi32(b1, _mm256_add_epi32(hi0, hi1)));
        }
        first = false;
    }
    let shift = mult.shift as u32;
    let mv = _mm256_set1_epi32(mult.multiplier);
    let round_v = _mm256_set1_epi64x((1i64 << shift) >> 1);
    let floor_v = _mm_set1_epi8(relu_floor(dw.relu, dw.out_zp));
    let blocks = stage[..run]
        .chunks_exact_mut(DW_LANES)
        .zip(acc.chunks_exact(DW_LANES));
    if shift >= 32 {
        let cnt_hi = _mm_cvtsi32_si128(shift as i32 - 32);
        let zp32 = _mm256_set1_epi32(dw.out_zp);
        for (o, a) in blocks {
            let pa = a.as_ptr() as *const __m256i;
            let r0 = requant_8_hi_avx2(_mm256_loadu_si256(pa), mv, round_v, cnt_hi, zp32);
            let r1 = requant_8_hi_avx2(_mm256_loadu_si256(pa.add(1)), mv, round_v, cnt_hi, zp32);
            pack_16_avx2(o, r0, r1, floor_v);
        }
    } else {
        let ext_m = _mm256_set1_epi64x(1i64 << (63 - shift));
        let cnt = _mm_cvtsi32_si128(shift as i32);
        let zp_v = _mm256_set1_epi64x(dw.out_zp as i64);
        for (o, a) in blocks {
            let pa = a.as_ptr() as *const __m256i;
            let r0 = requant_8_avx2(_mm256_loadu_si256(pa), mv, round_v, cnt, ext_m, zp_v);
            let r1 = requant_8_avx2(_mm256_loadu_si256(pa.add(1)), mv, round_v, cnt, ext_m, zp_v);
            pack_16_avx2(o, r0, r1, floor_v);
        }
    }
}

/// Block `j` of one tap pair `(o₀, w₀, o₁, w₁)`: the two taps' 16 cells
/// interleaved and reduced by `pmaddwd`, lanes `0–3, 8–11` in the first
/// half and `4–7, 12–15` in the second.
///
/// # Safety
///
/// AVX2 must be enabled (callee of [`dw_band_avx2`] only).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[inline]
unsafe fn madd_pair_avx2(
    cells: &[i16],
    j: usize,
    (o0, w0, o1, w1): (usize, i32, usize, i32),
) -> (std::arch::x86_64::__m256i, std::arch::x86_64::__m256i) {
    use std::arch::x86_64::*;
    let wv = _mm256_set1_epi32(((w1 as u32) << 16 | (w0 as u32 & 0xffff)) as i32);
    let x0 = _mm256_loadu_si256(cells[o0 + j..o0 + j + DW_LANES].as_ptr() as *const __m256i);
    let x1 = _mm256_loadu_si256(cells[o1 + j..o1 + j + DW_LANES].as_ptr() as *const __m256i);
    (
        _mm256_madd_epi16(_mm256_unpacklo_epi16(x0, x1), wv),
        _mm256_madd_epi16(_mm256_unpackhi_epi16(x0, x1), wv),
    )
}

/// Stores 16 requantized lanes — two 8-lane halves in the band body's
/// accumulator order — as i8 with saturation, floored at `floor_v`.
///
/// # Safety
///
/// AVX2 must be enabled (callee of [`dw_band_avx2`] only).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[inline]
unsafe fn pack_16_avx2(
    o: &mut [i8],
    r0: std::arch::x86_64::__m256i,
    r1: std::arch::x86_64::__m256i,
    floor_v: std::arch::x86_64::__m128i,
) {
    use std::arch::x86_64::*;
    let p = _mm256_packs_epi32(r0, r1);
    let b = _mm_packs_epi16(_mm256_castsi256_si128(p), _mm256_extracti128_si256::<1>(p));
    _mm_storeu_si128(
        o[..16].as_mut_ptr() as *mut __m128i,
        _mm_max_epi8(b, floor_v),
    );
}

/// Guarded per-plane depthwise loop: bounds check per tap, original bias,
/// taps accumulated in `(ky, kx)` order — the oracle behind
/// [`qdepthwise_conv2d_reference`] and hence
/// [`QuantizedNetwork::run_int`](crate::QuantizedNetwork::run_int).
#[allow(clippy::too_many_arguments)]
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

/// One max-pool output plane: `dst` (`ow` wide) from the `w`-wide
/// `plane`, `kernel`/`stride`, no padding — the program's pooling body.
/// The 2×2/s2 shape, every pool in the zoo, reduces a row pair and a
/// column pair with no per-tap index arithmetic, compiled for AVX2 when
/// `use_simd`; other shapes run the window loop. Bit-identical to
/// [`qmax_pool2d`] per plane.
pub(crate) fn qmax_pool_plane(
    plane: &[i8],
    w: usize,
    kernel: usize,
    stride: usize,
    dst: &mut [i8],
    ow: usize,
    use_simd: bool,
) {
    if kernel == 2 && stride == 2 {
        #[cfg(target_arch = "x86_64")]
        if use_simd {
            // SAFETY: `use_simd` is only true when AVX2 was verified.
            unsafe { pool_2x2_avx2(plane, w, dst, ow, max_2x2) };
            return;
        }
        pool_2x2(plane, w, dst, ow, max_2x2);
        return;
    }
    for (oy, drow) in dst.chunks_exact_mut(ow).enumerate() {
        for (ox, d) in drow.iter_mut().enumerate() {
            let mut best = i8::MIN;
            for ky in 0..kernel {
                for &v in &plane[(oy * stride + ky) * w + ox * stride..][..kernel] {
                    best = best.max(v);
                }
            }
            *d = best;
        }
    }
}

/// One average-pool output plane, the [`qmax_pool_plane`] counterpart:
/// the window sum divided by `kernel²` with [`round_div`]. Bit-identical
/// to [`qavg_pool2d`] per plane.
pub(crate) fn qavg_pool_plane(
    plane: &[i8],
    w: usize,
    kernel: usize,
    stride: usize,
    dst: &mut [i8],
    ow: usize,
    use_simd: bool,
) {
    if kernel == 2 && stride == 2 {
        #[cfg(target_arch = "x86_64")]
        if use_simd {
            // SAFETY: `use_simd` is only true when AVX2 was verified.
            unsafe { pool_2x2_avx2(plane, w, dst, ow, avg_2x2) };
            return;
        }
        pool_2x2(plane, w, dst, ow, avg_2x2);
        return;
    }
    let div = (kernel * kernel) as i32;
    for (oy, drow) in dst.chunks_exact_mut(ow).enumerate() {
        for (ox, d) in drow.iter_mut().enumerate() {
            let mut sum = 0i32;
            for ky in 0..kernel {
                for &v in &plane[(oy * stride + ky) * w + ox * stride..][..kernel] {
                    sum += v as i32;
                }
            }
            *d = round_div(sum, div);
        }
    }
}

/// The 2×2 max of a column pair `a` of one row and `b` of the next.
#[inline(always)]
fn max_2x2(a: &[i8], b: &[i8]) -> i8 {
    a[0].max(a[1]).max(b[0].max(b[1]))
}

/// The 2×2 average of a column pair `a` of one row and `b` of the next.
#[inline(always)]
fn avg_2x2(a: &[i8], b: &[i8]) -> i8 {
    round_div(a[0] as i32 + a[1] as i32 + b[0] as i32 + b[1] as i32, 4)
}

/// The 2×2/s2 pool body: each output row reduces one input row pair,
/// column pair by column pair, with `reduce` (an `inline(always)` fn item,
/// so it compiles into the caller's instruction set).
#[inline(always)]
fn pool_2x2<R: Fn(&[i8], &[i8]) -> i8>(
    plane: &[i8],
    w: usize,
    dst: &mut [i8],
    ow: usize,
    reduce: R,
) {
    for (drow, rows) in dst.chunks_exact_mut(ow).zip(plane.chunks_exact(2 * w)) {
        let (r0, r1) = rows.split_at(w);
        for ((d, a), b) in drow
            .iter_mut()
            .zip(r0.chunks_exact(2))
            .zip(r1.chunks_exact(2))
        {
            *d = reduce(a, b);
        }
    }
}

/// [`pool_2x2`] compiled with AVX2 enabled.
///
/// # Safety
///
/// The caller must have verified AVX2 support.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn pool_2x2_avx2<R: Fn(&[i8], &[i8]) -> i8>(
    plane: &[i8],
    w: usize,
    dst: &mut [i8],
    ow: usize,
    reduce: R,
) {
    pool_2x2(plane, w, dst, ow, reduce);
}

/// `sum / div` rounded half away from zero and clamped to i8 — the
/// average-pool requantization.
pub(crate) fn round_div(sum: i32, div: i32) -> i8 {
    let rounded = if sum >= 0 {
        (sum + div / 2) / div
    } else {
        (sum - div / 2) / div
    };
    rounded.clamp(-128, 127) as i8
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
    fn depthwise_bands_match_reference_past_the_tile() {
        // Planes past the 2048-cell tile in each direction — a wide one
        // split into column bands, tall ones into row bands — at strides
        // 1..3 and with a kernel narrower than its stride, on both bodies.
        for (h, w, kernel, stride, padding) in [
            (3usize, 1500usize, 3usize, 1usize, 1usize),
            (4, 1500, 3, 2, 1),
            (90, 30, 5, 1, 2),
            (90, 31, 3, 2, 1),
            (60, 50, 2, 3, 0),
        ] {
            let channels = 2;
            let input: Vec<i8> = (0..2 * channels * h * w)
                .map(|i| (i * 29 % 251) as i8)
                .collect();
            let weight: Vec<i8> = (0..channels * kernel * kernel)
                .map(|i| (i * 53 % 255) as i8)
                .collect();
            let bias = [-300, 200];
            let mults = [
                FixedMultiplier::from_real(0.004),
                FixedMultiplier::from_real(0.9),
            ];
            let dw = Depthwise {
                h,
                w,
                in_zp: -5,
                channels,
                kernel,
                stride,
                padding,
                weight: &weight,
                bias: &bias,
                mults: &mults,
                out_zp: 3,
                relu: true,
            };
            let want: Vec<i8> = input
                .chunks_exact(channels * h * w)
                .flat_map(|x| {
                    qdepthwise_conv2d_reference(
                        x, h, w, -5, channels, kernel, stride, padding, &weight, &bias, &mults, 3,
                        true,
                    )
                })
                .collect();
            let mut simd_modes = vec![false];
            #[cfg(target_arch = "x86_64")]
            if crate::microkernel::avx2_available() {
                simd_modes.push(true);
            }
            for use_simd in simd_modes {
                let mut got = vec![0i8; want.len()];
                qdepthwise_impl(Pool::new(2), &dw, &input, &mut got, use_simd);
                assert_eq!(got, want, "{h}x{w} k{kernel} s{stride} simd {use_simd}");
            }
        }
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
