//! Register-blocked int8 GEMM microkernel for the lowered conv path.
//!
//! Conv weights have one format: raw i8 filter rows packed into
//! [`MR`]-row panels ([`pack_conv_panels_i8`]), run against the
//! offset-binary u8 im2row buffer of
//! [`crate::lowering::qim2row_u8_into`], with the input zero point and
//! the +128 offset folded into the bias at compile time
//! ([`fold_offset_bias`]). That is the one int8 weight format DORY's
//! PULP-NN kernels use on GAP8.
//!
//! A tile is [`MR`]=4 filter rows × [`NR_I8`]=16 columns. The u8 buffer
//! stores each 16-column block with its patch rows interleaved in pairs,
//! so one k-pair of a block is 32 contiguous bytes: 16 columns × two
//! rows, the operand shape of a `pmaddwd` step. Two bodies run it, both
//! bit-exact: the AVX2 body with hand-written intrinsics, and a portable
//! body whose pair sums LLVM vectorizes at the baseline ISA.
//! [`KernelIsa`] names which one runs.
//!
//! Ragged edges: the last block of a plane computes whole 16-column tiles
//! and stores only its live columns, and the last panel of a channel
//! count that is not a multiple of [`MR`] stores only its live rows.
//! Integer accumulation is exact, so every path is bit-identical to
//! per-channel [`qgemm_row`] + [`requantize_to_i8`] at any pool width.
//!
//! The requantize epilogue is fused: accumulators go straight from
//! registers through the fixed-point requantize into the output plane; no
//! i32 matrix is ever materialized.
//!
//! [`qgemm_row`]: crate::lowering::qgemm_row
//! [`requantize_to_i8`]: crate::requant::requantize_to_i8

use crate::lowering::patch_stride;
use crate::requant::FixedMultiplier;
use np_tensor::parallel::Pool;

/// Filter rows per panel (output-channel register blocking).
pub const MR: usize = 4;

/// Columns per tile ([`qconv_panels_i8_into`]): a whole 16-byte output
/// row per store, reduced as 8 i32 accumulator vectors (4 filter rows ×
/// two 8-column halves) under AVX2.
pub const NR_I8: usize = 16;

/// Output pixels per cache block: a panel's [`MR`] filter rows are swept
/// over at most this many columns before moving to the next panel, so the
/// filter rows stay resident in L1 while the block's columns stream once.
pub const PIXEL_BLOCK: usize = 256;

/// Branchless fused epilogue: `FixedMultiplier::apply` (round-half-away,
/// i32-saturated) + zero point + i8 clamp + ReLU floor, with the sign
/// branch of the rounding turned into mask arithmetic so the tile loop
/// stays branch-free. `floor = i8::MIN` disables the ReLU clamp. Bit-exact
/// with `requantize_to_i8` followed by the `< out_zp` floor check.
#[inline(always)]
pub(crate) fn requant_clamp(acc: i32, mult: i32, shift: u32, out_zp: i32, floor: i8) -> i8 {
    let prod = acc as i64 * mult as i64;
    let sign = prod >> 63; // 0 or -1
    let round = ((1i64 << shift) >> 1) ^ sign; // +r / -(r+1); 0 at shift 0
    let rounded = prod + round - sign;
    // Widen before adding the zero point: a saturated `rounded >> shift`
    // near i32::MAX plus a positive zero point overflows i32 (reachable
    // through degenerate calibration ranges that produce huge multipliers).
    let v = (rounded >> shift).clamp(i32::MIN as i64, i32::MAX as i64);
    ((v + out_zp as i64).clamp(-128, 127) as i8).max(floor)
}

/// The ReLU floor of the fused epilogues: the output zero point clamped
/// to i8, or `i8::MIN` (no clamp) without ReLU.
pub(crate) fn relu_floor(relu: bool, out_zp: i32) -> i8 {
    if relu {
        out_zp.clamp(-128, 127) as i8
    } else {
        i8::MIN
    }
}

/// Where one pool chunk of a conv output sits. A chunk is either one
/// frame's range of whole [`MR`]-row channel panels (`frame_out ==
/// chunk.len()`) or several whole frames (`c_base == 0`, `live_ch ==
/// out_channels`); the chunk bodies handle both through the same index
/// math.
#[derive(Debug, Clone, Copy)]
struct ConvChunk {
    /// First frame of the chunk.
    frame: usize,
    /// Output elements per frame within the chunk.
    frame_out: usize,
    /// First output channel of the chunk (panel-aligned).
    c_base: usize,
    /// Channels the chunk covers.
    live_ch: usize,
}

/// Runs `body` over the pool chunks of a `frames × out_channels × cols`
/// NCHW conv output: a single frame splits over whole channel panels
/// (channel parallelism), several frames over whole frames. Chunk
/// boundaries depend only on the shape, so results never depend on the
/// pool width.
fn for_each_conv_chunk(
    pool: Pool,
    out: &mut [i8],
    frames: usize,
    out_channels: usize,
    body: impl Fn(ConvChunk, &mut [i8]) + Sync,
) {
    let frame_out = out.len() / frames;
    if frames == 1 {
        let cols = frame_out / out_channels;
        let chunk_len = pool.chunk_len_for(out_channels.div_ceil(MR), MR * cols);
        let panels_per_chunk = chunk_len / (MR * cols);
        pool.for_each_chunk(out, chunk_len, |idx, chunk| {
            let at = ConvChunk {
                frame: 0,
                frame_out: chunk.len(),
                c_base: idx * panels_per_chunk * MR,
                live_ch: chunk.len() / cols,
            };
            body(at, chunk);
        });
    } else {
        let chunk_len = pool.chunk_len_for(frames, frame_out);
        let frames_per_chunk = chunk_len / frame_out;
        pool.for_each_chunk(out, chunk_len, |idx, chunk| {
            let at = ConvChunk {
                frame: idx * frames_per_chunk,
                frame_out,
                c_base: 0,
                live_ch: out_channels,
            };
            body(at, chunk);
        });
    }
}

/// Runtime AVX2 check (cached): CPU advertises AVX + AVX2 and the OS has
/// enabled YMM state (OSXSAVE with XCR0 covering XMM|YMM).
#[cfg(target_arch = "x86_64")]
pub(crate) fn avx2_available() -> bool {
    use std::sync::OnceLock;
    static AVX2: OnceLock<bool> = OnceLock::new();
    *AVX2.get_or_init(|| {
        use std::arch::x86_64::{__cpuid, __cpuid_count};
        let c1 = __cpuid(1);
        let osxsave = c1.ecx & (1 << 27) != 0;
        let avx = c1.ecx & (1 << 28) != 0;
        if !osxsave || !avx {
            return false;
        }
        let avx2 = __cpuid_count(7, 0).ebx & (1 << 5) != 0;
        // SAFETY: OSXSAVE confirmed above, so xgetbv is executable.
        let xcr0 = unsafe { xgetbv0() };
        avx2 && xcr0 & 6 == 6
    })
}

/// XCR0 read; split out because `_xgetbv` needs the `xsave` feature.
///
/// # Safety
///
/// Caller must have confirmed OSXSAVE via CPUID.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "xsave")]
unsafe fn xgetbv0() -> u64 {
    std::arch::x86_64::_xgetbv(0)
}

// ---------------------------------------------------------------------------
// Kernel ISA selection (`NP_ISA` override)
// ---------------------------------------------------------------------------

/// Which conv, depthwise and pooling bodies execute: the portable ones
/// or the AVX2 ones. Every program packs the same raw-i8 weights, so the
/// choice is made per call at run time, and `avx2-i8` on a host without
/// AVX2 runs the portable bodies. Both are bit-exact with each other;
/// only speed differs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelIsa {
    /// The portable bodies, vectorized by the compiler at the baseline
    /// ISA. The default on hosts without AVX2.
    Scalar,
    /// The hand-written AVX2 bodies. The default on AVX2 hosts.
    Avx2I8,
}

impl KernelIsa {
    /// The env-var spelling accepted by [`parse_np_isa`].
    pub fn as_str(self) -> &'static str {
        match self {
            KernelIsa::Scalar => "scalar",
            KernelIsa::Avx2I8 => "avx2-i8",
        }
    }
}

/// Pure parser behind the `NP_ISA` override. `Ok(None)` means unset (use
/// the default); `Err` carries the rejected value for the warn-once path,
/// mirroring `NP_THREADS` handling in `np_tensor::parallel`.
pub fn parse_np_isa(raw: Option<&str>) -> Result<Option<KernelIsa>, String> {
    let Some(s) = raw else { return Ok(None) };
    match s.trim() {
        "scalar" => Ok(Some(KernelIsa::Scalar)),
        "avx2-i8" => Ok(Some(KernelIsa::Avx2I8)),
        other => Err(other.to_string()),
    }
}

/// The ISA picked when `NP_ISA` is unset: the AVX2 bodies on hosts that
/// have AVX2, the portable bodies otherwise.
fn default_isa() -> KernelIsa {
    #[cfg(target_arch = "x86_64")]
    if avx2_available() {
        return KernelIsa::Avx2I8;
    }
    KernelIsa::Scalar
}

/// The process-wide kernel ISA: `NP_ISA` when set to `scalar|avx2-i8`,
/// otherwise the AVX2 bodies on hosts that have AVX2 and the portable
/// bodies elsewhere. Its [`KernelIsa::as_str`] spelling is what profiling
/// artifacts record as the kernel configuration they measured.
/// Cached; a misparse warns once through the np-trace facade and falls
/// back to the default, like `NP_THREADS`.
pub fn kernel_isa() -> KernelIsa {
    use std::sync::OnceLock;
    static ISA: OnceLock<KernelIsa> = OnceLock::new();
    *ISA.get_or_init(|| {
        let raw = std::env::var("NP_ISA").ok();
        match parse_np_isa(raw.as_deref()) {
            Ok(Some(isa)) => isa,
            Ok(None) => default_isa(),
            Err(bad) => {
                let isa = default_isa();
                np_trace::warn!(
                    "ignoring NP_ISA={bad:?}: expected scalar|avx2-i8, using {}",
                    isa.as_str()
                );
                isa
            }
        }
    })
}

/// Whether executing kernels may take their AVX2 bodies: the selected ISA
/// asks for SIMD *and* the host grants it. `NP_ISA=scalar` therefore
/// forces the portable bodies even on AVX2 hosts — that is what makes the
/// dispatch fallback testable everywhere.
pub(crate) fn simd_enabled() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        kernel_isa() == KernelIsa::Avx2I8 && avx2_available()
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

// ---------------------------------------------------------------------------
// Raw-i8 packing and the offset-binary bias fold
// ---------------------------------------------------------------------------

/// Packs a `C_out x patch` row-major i8 weight matrix for
/// [`qconv_panels_i8_into`]: rows stay i8 at [`patch_stride`] spacing
/// with a zero tail lane for an odd patch, and the row count is padded
/// up to a whole number of [`MR`]-row panels of zero filters. The i8
/// kernel *broadcasts* weight pairs from these row-major rows (the
/// column structure lives in the u8 im2row blocks), so no in-panel
/// interleaving is needed. Runs once at program-compile time.
pub fn pack_conv_panels_i8(weight: &[i8], out_channels: usize, patch: usize) -> Vec<i8> {
    assert_eq!(weight.len(), out_channels * patch, "weight size");
    let ps = patch_stride(patch);
    let mut packed = vec![0i8; out_channels.div_ceil(MR) * MR * ps];
    for co in 0..out_channels {
        packed[co * ps..co * ps + patch].copy_from_slice(&weight[co * patch..(co + 1) * patch]);
    }
    packed
}

/// The compile-time bias fold of the offset-binary u8 scheme
/// ([`crate::lowering::qim2row_u8_into`] stores `u = x + 128` and pads
/// with `in_zp + 128`):
///
/// ```text
/// Σ_r w·u  =  Σ_r w·(x - in_zp)  +  (in_zp + 128)·Σ_r w
/// ```
///
/// so folding `-(in_zp + 128)·Σ_r w` into the bias restores the centered
/// sum — the same zero-point trick the linear step already uses, extended
/// by the constant 128 offset. All arithmetic wraps: i32 accumulation is
/// order-independent mod 2^32, so the folded path is bit-identical to the
/// centered sum even when intermediate sums transiently overflow.
pub fn fold_offset_bias(
    bias: &[i32],
    weight: &[i8],
    out_channels: usize,
    patch: usize,
    in_zp: i32,
) -> Vec<i32> {
    assert_eq!(weight.len(), out_channels * patch, "weight size");
    assert_eq!(bias.len(), out_channels, "bias size");
    let off = in_zp.wrapping_add(128);
    (0..out_channels)
        .map(|co| {
            let wsum = weight[co * patch..(co + 1) * patch]
                .iter()
                .fold(0i32, |a, &v| a.wrapping_add(v as i32));
            bias[co].wrapping_sub(off.wrapping_mul(wsum))
        })
        .collect()
}

// ---------------------------------------------------------------------------
// The raw-i8 kernel
// ---------------------------------------------------------------------------

/// Lowered raw-int8 convolution of `frames` frames over
/// [`pack_conv_panels_i8`] panels and a [`crate::lowering::qim2row_u8_into`]
/// buffer: `out[f][c][col] = requant(folded_bias[c] + Σ_r panels[c][r] ·
/// u[f][r][col])` with the fused ReLU clamp — bit-identical to the
/// centered dot `bias[c] + Σ_r w·(x − in_zp)` (see [`fold_offset_bias`])
/// followed by [`requantize_to_i8`](crate::requant::requantize_to_i8).
///
/// Tiles are [`MR`] filter rows × [`NR_I8`] columns: under AVX2 each
/// k-pair is one 32-byte load of 16 interleaved column pairs, widened in
/// register and reduced with `pmaddwd` into 8 i32 accumulator vectors,
/// with a fully vectorized requantize epilogue; the portable body runs the
/// same tile as i16 pair sums. The frames are lowered
/// per-frame blocked and the output is NCHW. Each weight panel is
/// streamed once per [`PIXEL_BLOCK`]-column group of the *whole batch*,
/// and the 16-column blocks give the skinny GEMV-shaped layers real
/// column parallelism. One frame is chunked over whole channel panels,
/// several frames over whole frames, so results are bit-exact at any pool
/// width and any `frames`.
///
/// # Panics
///
/// Panics on size mismatches or `frames == 0`.
#[allow(clippy::too_many_arguments)]
pub fn qconv_panels_i8_into(
    pool: Pool,
    panels: &[i8],
    patch: usize,
    lowered: &[u8],
    folded_bias: &[i32],
    mults: &[FixedMultiplier],
    out_zp: i32,
    relu: bool,
    frames: usize,
    out: &mut [i8],
) {
    qconv_panels_i8_impl(
        pool,
        panels,
        patch,
        lowered,
        folded_bias,
        mults,
        out_zp,
        relu,
        frames,
        out,
        simd_enabled(),
    );
}

/// [`qconv_panels_i8_into`] with the body chosen by `use_simd`, so tests
/// can pin the scalar and AVX2 bodies against each other in one process
/// regardless of `NP_ISA`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn qconv_panels_i8_impl(
    pool: Pool,
    panels: &[i8],
    patch: usize,
    lowered: &[u8],
    folded_bias: &[i32],
    mults: &[FixedMultiplier],
    out_zp: i32,
    relu: bool,
    frames: usize,
    out: &mut [i8],
    use_simd: bool,
) {
    assert!(frames > 0, "frames must be at least 1");
    let out_channels = folded_bias.len();
    if out_channels == 0 || out.is_empty() {
        return;
    }
    let ps = patch_stride(patch);
    let frame_out = out.len() / frames;
    assert_eq!(out.len(), frames * frame_out, "output size");
    let cols = frame_out / out_channels;
    assert_eq!(frame_out, out_channels * cols, "output size");
    let nblk = cols.div_ceil(NR_I8);
    let fstride = nblk * NR_I8 * ps;
    assert_eq!(lowered.len(), frames * fstride, "lowered size");
    assert_eq!(
        panels.len(),
        out_channels.div_ceil(MR) * MR * ps,
        "packed weight size"
    );
    assert_eq!(mults.len(), out_channels, "multiplier count");
    let floor = relu_floor(relu, out_zp);
    for_each_conv_chunk(pool, out, frames, out_channels, |at, chunk| {
        let nf = chunk.len() / at.frame_out;
        let a = I8ChunkArgs {
            panels,
            ps,
            lowered: &lowered[at.frame * fstride..(at.frame + nf) * fstride],
            folded_bias,
            mults,
            out_zp,
            floor,
            cols,
            nblk,
            at,
        };
        dispatch_i8(&a, chunk, use_simd);
    });
}

/// Per-chunk invariants of the i8 kernel.
struct I8ChunkArgs<'a> {
    panels: &'a [i8],
    ps: usize,
    /// This chunk's frames' column blocks only (per-frame blocked).
    lowered: &'a [u8],
    folded_bias: &'a [i32],
    mults: &'a [FixedMultiplier],
    out_zp: i32,
    floor: i8,
    /// Output pixels per frame.
    cols: usize,
    /// Column blocks per frame.
    nblk: usize,
    at: ConvChunk,
}

#[inline(always)]
fn dispatch_i8(a: &I8ChunkArgs<'_>, chunk: &mut [i8], use_simd: bool) {
    #[cfg(target_arch = "x86_64")]
    if use_simd {
        // SAFETY: `use_simd` is only true when AVX2 was verified
        // (`simd_enabled`, or a test gated on `avx2_available`).
        unsafe { i8_chunk_avx2(a, chunk) };
        return;
    }
    let _ = use_simd;
    i8_chunk_scalar(a, chunk);
}

/// One portable MR×NR_I8 tile over a column block: `acc[m][c]`
/// accumulates row `m`'s dot with column `c`, consuming the block's
/// interleaved row pairs in ascending order. Each k-pair's 32 bytes are
/// widened to i16 once, and every accumulator takes `x[2c]·w0 +
/// x[2c+1]·w1` as one i32 pair sum. Each product is exact in i16 (`u ≤
/// 255`, `|w| ≤ 128`), so it is a native 8-lane i16 multiply at the
/// baseline ISA; the same sum written with i32 products measured about
/// 2× slower, and inlining the tile into its chunk loop 1–13% slower.
/// Wrapping adds keep debug builds panic-free when the offset-binary
/// accumulator transiently exceeds i32 (the final value is exact mod
/// 2^32, which is all two's-complement release arithmetic observes).
#[inline(never)]
fn i8_tile_scalar(w: [&[i8]; MR], blk: &[u8]) -> [[i32; NR_I8]; MR] {
    let ps = w[0].len();
    let mut acc = [[0i32; NR_I8]; MR];
    for kp in 0..ps / 2 {
        let mut x = [0i16; 2 * NR_I8];
        for (d, &u) in x.iter_mut().zip(&blk[kp * 2 * NR_I8..(kp + 1) * 2 * NR_I8]) {
            *d = u as i16;
        }
        for (am, wm) in acc.iter_mut().zip(w) {
            let (w0, w1) = (wm[2 * kp] as i16, wm[2 * kp + 1] as i16);
            for (a, xc) in am.iter_mut().zip(x.chunks_exact(2)) {
                let pair = xc[0].wrapping_mul(w0) as i32 + xc[1].wrapping_mul(w1) as i32;
                *a = a.wrapping_add(pair);
            }
        }
    }
    acc
}

/// The scalar i8 chunk body: block groups of [`PIXEL_BLOCK`] columns
/// (across frames in the batched case) × panels × blocks, so each panel
/// is streamed once per group — the weight-amortization structure the
/// AVX2 body shares.
#[inline(always)]
fn i8_chunk_scalar(a: &I8ChunkArgs<'_>, chunk: &mut [i8]) {
    let &I8ChunkArgs {
        panels,
        ps,
        lowered,
        folded_bias,
        mults,
        out_zp,
        floor,
        cols,
        nblk,
        at,
    } = a;
    let ConvChunk {
        frame_out,
        c_base,
        live_ch,
        ..
    } = at;
    let total_blocks = chunk.len() / frame_out * nblk;
    let group = PIXEL_BLOCK / NR_I8;
    for g0 in (0..total_blocks).step_by(group) {
        let g1 = (g0 + group).min(total_blocks);
        for lp in (0..live_ch).step_by(MR) {
            let wbase = (c_base + lp) * ps;
            let w = [
                &panels[wbase..wbase + ps],
                &panels[wbase + ps..wbase + 2 * ps],
                &panels[wbase + 2 * ps..wbase + 3 * ps],
                &panels[wbase + 3 * ps..wbase + 4 * ps],
            ];
            let live = MR.min(live_ch - lp);
            for gb in g0..g1 {
                let f = gb / nblk;
                let lb = gb % nblk;
                let blk = &lowered[gb * NR_I8 * ps..(gb + 1) * NR_I8 * ps];
                let acc = i8_tile_scalar(w, blk);
                let live_cols = NR_I8.min(cols - lb * NR_I8);
                let out_base = f * frame_out + lp * cols + lb * NR_I8;
                for m in 0..live {
                    let ch = c_base + lp + m;
                    let fb = folded_bias[ch];
                    let mul = mults[ch].multiplier;
                    let sh = mults[ch].shift as u32;
                    let row = &mut chunk[out_base + m * cols..out_base + m * cols + live_cols];
                    for (c, o) in row.iter_mut().enumerate() {
                        *o = requant_clamp(acc[m][c].wrapping_add(fb), mul, sh, out_zp, floor);
                    }
                }
            }
        }
    }
}

/// The AVX2 i8 chunk body: same loop structure as [`i8_chunk_scalar`]
/// with hand-written intrinsics. Each k-pair is one 32-byte load of 16
/// interleaved column pairs; `vpmaddubsw`-style u8×i8 accumulation would
/// be one instruction shorter but saturates its i16 pair sums (u ≤ 255
/// against |w| ≤ 128 reaches ±65280 > i16), silently breaking exactness —
/// so the operands are widened in register (`vpmovzxbw`/broadcast) and
/// reduced with `vpmaddwd`, whose i32 pair sums cannot overflow. The
/// requantize epilogue is fully vectorized too ([`requant_i64x4_avx2`]).
///
/// # Safety
///
/// Caller must have verified AVX2 support.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn i8_chunk_avx2(a: &I8ChunkArgs<'_>, chunk: &mut [i8]) {
    use std::arch::x86_64::*;
    let &I8ChunkArgs {
        panels,
        ps,
        lowered,
        folded_bias,
        mults,
        out_zp,
        floor,
        cols,
        nblk,
        at,
    } = a;
    let ConvChunk {
        frame_out,
        c_base,
        live_ch,
        ..
    } = at;
    let total_blocks = chunk.len() / frame_out * nblk;
    let group = PIXEL_BLOCK / NR_I8;
    let floor_v = _mm_set1_epi8(floor);
    let zp_v = _mm256_set1_epi64x(out_zp as i64);
    for g0 in (0..total_blocks).step_by(group) {
        let g1 = (g0 + group).min(total_blocks);
        for lp in (0..live_ch).step_by(MR) {
            let wbase = (c_base + lp) * ps;
            let live = MR.min(live_ch - lp);
            // Per-channel requant constants, hoisted out of the block loop.
            let mut mv = [_mm256_setzero_si256(); MR];
            let mut round_v = [_mm256_setzero_si256(); MR];
            let mut ext_m = [_mm256_setzero_si256(); MR];
            let mut cnt = [_mm_setzero_si128(); MR];
            let mut fb_v = [_mm256_setzero_si256(); MR];
            for m in 0..live {
                let ch = c_base + lp + m;
                let shift = mults[ch].shift as u32;
                mv[m] = _mm256_set1_epi32(mults[ch].multiplier);
                round_v[m] = _mm256_set1_epi64x((1i64 << shift) >> 1);
                ext_m[m] = _mm256_set1_epi64x(1i64 << (63 - shift));
                cnt[m] = _mm_cvtsi32_si128(shift as i32);
                fb_v[m] = _mm256_set1_epi32(folded_bias[ch]);
            }
            for gb in g0..g1 {
                let f = gb / nblk;
                let lb = gb % nblk;
                let blk = lowered[gb * NR_I8 * ps..(gb + 1) * NR_I8 * ps].as_ptr();
                // 4 rows × 16 columns in 8 i32 accumulator vectors.
                let mut acc = [[_mm256_setzero_si256(); 2]; MR];
                for kp in 0..ps / 2 {
                    // 16 column pairs for this k-pair, in column order.
                    let x = _mm256_loadu_si256(blk.add(kp * 2 * NR_I8) as *const __m256i);
                    let x_lo = _mm256_cvtepu8_epi16(_mm256_castsi256_si128(x));
                    let x_hi = _mm256_cvtepu8_epi16(_mm256_extracti128_si256::<1>(x));
                    for (m, am) in acc.iter_mut().enumerate() {
                        let wp = panels.as_ptr().add(wbase + m * ps + 2 * kp);
                        // (w0, w1) widened to i16 in every lane pair, so
                        // madd lane c = u[2c]·w0 + u[2c+1]·w1 — exact:
                        // |products| ≤ 255·128 each, i32 pair sums.
                        let w0 = *wp as i16 as u16 as u32;
                        let w1 = *wp.add(1) as i16 as u16 as u32;
                        let wv = _mm256_set1_epi32(((w1 << 16) | w0) as i32);
                        am[0] = _mm256_add_epi32(am[0], _mm256_madd_epi16(x_lo, wv));
                        am[1] = _mm256_add_epi32(am[1], _mm256_madd_epi16(x_hi, wv));
                    }
                }
                let live_cols = NR_I8.min(cols - lb * NR_I8);
                let out_base = f * frame_out + lp * cols + lb * NR_I8;
                for m in 0..live {
                    let r_lo = requant_8_avx2(
                        _mm256_add_epi32(acc[m][0], fb_v[m]),
                        mv[m],
                        round_v[m],
                        cnt[m],
                        ext_m[m],
                        zp_v,
                    );
                    let r_hi = requant_8_avx2(
                        _mm256_add_epi32(acc[m][1], fb_v[m]),
                        mv[m],
                        round_v[m],
                        cnt[m],
                        ext_m[m],
                        zp_v,
                    );
                    // packs works per 128-bit lane; permute the quarters
                    // back into column order before the final i8 pack.
                    let p = _mm256_permute4x64_epi64::<0xD8>(_mm256_packs_epi32(r_lo, r_hi));
                    let b = _mm_max_epi8(
                        _mm_packs_epi16(
                            _mm256_castsi256_si128(p),
                            _mm256_extracti128_si256::<1>(p),
                        ),
                        floor_v,
                    );
                    let dst = &mut chunk[out_base + m * cols..out_base + m * cols + live_cols];
                    if live_cols == NR_I8 {
                        _mm_storeu_si128(dst.as_mut_ptr() as *mut __m128i, b);
                    } else {
                        let mut tmp = [0i8; NR_I8];
                        _mm_storeu_si128(tmp.as_mut_ptr() as *mut __m128i, b);
                        dst.copy_from_slice(&tmp[..live_cols]);
                    }
                }
            }
        }
    }
}

/// Eight lanes of [`requant_clamp`] (sans ReLU floor, applied by the
/// caller after packing): multiply 8 i32 accumulators by the Q0.31
/// multiplier into i64, round half-away, shift, add the zero point and
/// clamp to `[-128, 127]` — all in registers. The even/odd lanes run as
/// two 4×i64 pipelines ([`requant_i64x4_avx2`]) and re-interleave.
///
/// # Safety
///
/// AVX2 must be enabled (callee of [`i8_chunk_avx2`] and the depthwise
/// band body only).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[inline]
pub(crate) unsafe fn requant_8_avx2(
    a: std::arch::x86_64::__m256i,
    mv: std::arch::x86_64::__m256i,
    round_v: std::arch::x86_64::__m256i,
    cnt: std::arch::x86_64::__m128i,
    ext_m: std::arch::x86_64::__m256i,
    zp_v: std::arch::x86_64::__m256i,
) -> std::arch::x86_64::__m256i {
    use std::arch::x86_64::*;
    // mul_epi32 consumes the even 32-bit lanes sign-extended; 0xF5 copies
    // the odd lanes into even position for the second pipeline.
    let p_even = _mm256_mul_epi32(a, mv);
    let p_odd = _mm256_mul_epi32(_mm256_shuffle_epi32::<0xF5>(a), mv);
    let v_even = requant_i64x4_avx2(p_even, round_v, cnt, ext_m, zp_v);
    let v_odd = requant_i64x4_avx2(p_odd, round_v, cnt, ext_m, zp_v);
    // Clamped values fit 8 bits, so the i64 lanes' low halves carry them;
    // blend evens (low 32 of v_even) with odds shifted into the high 32.
    _mm256_blend_epi32::<0b10101010>(v_even, _mm256_slli_epi64::<32>(v_odd))
}

/// [`requant_8_avx2`] for multipliers with `shift >= 32` (every real
/// multiplier below 0.5: an output scale over twice the accumulator
/// scale), before the ReLU floor: the arithmetic shift of the rounded i64
/// product (`|p| < 2^63`) is its high dword shifted by `shift − 32`
/// (`cnt_hi`), which fits i32 (`|v| < 2^31`), so the zero point is an i32
/// add and the i8 clamp is left to the caller's saturating packs. That drops the sign re-extension and both i64 clamps
/// of the general path, about half its instructions, and stays
/// bit-identical: `clamp_i8(v + zp)` is what `packs_epi32` then
/// `packs_epi16` compute.
///
/// # Safety
///
/// AVX2 must be enabled (callee of the depthwise band body only).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[inline]
pub(crate) unsafe fn requant_8_hi_avx2(
    a: std::arch::x86_64::__m256i,
    mv: std::arch::x86_64::__m256i,
    round_v: std::arch::x86_64::__m256i,
    cnt_hi: std::arch::x86_64::__m128i,
    zp32: std::arch::x86_64::__m256i,
) -> std::arch::x86_64::__m256i {
    use std::arch::x86_64::*;
    let even = round_i64x4_avx2(_mm256_mul_epi32(a, mv), round_v);
    let odd = round_i64x4_avx2(
        _mm256_mul_epi32(_mm256_shuffle_epi32::<0xF5>(a), mv),
        round_v,
    );
    // High dwords: the even lanes' move down into even position, the odd
    // lanes' already sit in odd position.
    let hi = _mm256_blend_epi32::<0b10101010>(_mm256_srli_epi64::<32>(even), odd);
    _mm256_add_epi32(_mm256_sra_epi32(hi, cnt_hi), zp32)
}

/// `prod ± round`, the sign-dependent rounding offset of
/// [`requant_clamp`] on four i64 lanes.
///
/// # Safety
///
/// AVX2 must be enabled.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[inline]
unsafe fn round_i64x4_avx2(
    prod: std::arch::x86_64::__m256i,
    round_v: std::arch::x86_64::__m256i,
) -> std::arch::x86_64::__m256i {
    use std::arch::x86_64::*;
    let sgn = _mm256_cmpgt_epi64(_mm256_setzero_si256(), prod);
    _mm256_sub_epi64(_mm256_add_epi64(prod, _mm256_xor_si256(round_v, sgn)), sgn)
}

/// Four i64 lanes of the fixed-point epilogue: `((prod + round⊕sign −
/// sign) >> shift) + zp`, clamped to `[-128, 127]`. The arithmetic i64
/// shift AVX2 lacks is a logical shift plus sign re-extension
/// (`(x ^ m) − m` with `m = 1 << (63 − shift)`, exact for every shift in
/// `[0, 62]` under wrapping sub); the scalar path's intermediate i32
/// clamp is skipped — monotonicity makes `clamp(clamp_i32(v) + zp)` equal
/// `clamp(v + zp)` for any `zp` in i8 range.
///
/// # Safety
///
/// AVX2 must be enabled (callee of [`requant_8_avx2`] only).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[inline]
unsafe fn requant_i64x4_avx2(
    prod: std::arch::x86_64::__m256i,
    round_v: std::arch::x86_64::__m256i,
    cnt: std::arch::x86_64::__m128i,
    ext_m: std::arch::x86_64::__m256i,
    zp_v: std::arch::x86_64::__m256i,
) -> std::arch::x86_64::__m256i {
    use std::arch::x86_64::*;
    let shifted = _mm256_srl_epi64(round_i64x4_avx2(prod, round_v), cnt);
    let v = _mm256_sub_epi64(_mm256_xor_si256(shifted, ext_m), ext_m);
    let w = _mm256_add_epi64(v, zp_v);
    let hi = _mm256_set1_epi64x(127);
    let lo = _mm256_set1_epi64x(-128);
    let w = _mm256_blendv_epi8(w, hi, _mm256_cmpgt_epi64(w, hi));
    _mm256_blendv_epi8(w, lo, _mm256_cmpgt_epi64(lo, w))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lowering::qgemm_row;
    use crate::requant::requantize_to_i8;

    /// Reference: per-channel qgemm_row over the row-major (im2col-layout)
    /// matrix, requantized the same way.
    #[allow(clippy::too_many_arguments)]
    fn reference(
        weight: &[i8],
        out_channels: usize,
        patch: usize,
        low_colmajor: &[i16],
        bias: &[i32],
        mults: &[FixedMultiplier],
        out_zp: i32,
        relu: bool,
        cols: usize,
    ) -> Vec<i8> {
        let mut out = vec![0i8; out_channels * cols];
        let mut acc = vec![0i32; cols];
        for co in 0..out_channels {
            qgemm_row(
                &weight[co * patch..(co + 1) * patch],
                low_colmajor,
                bias[co],
                &mut acc,
            );
            for (o, &a) in out[co * cols..(co + 1) * cols].iter_mut().zip(acc.iter()) {
                let q = requantize_to_i8(a, mults[co], out_zp);
                *o = if relu && (q as i32) < out_zp {
                    out_zp.clamp(-128, 127) as i8
                } else {
                    q
                };
            }
        }
        out
    }

    #[test]
    fn i8_packing_pads_channels_and_tail_lanes() {
        let weight = vec![1i8; 5 * 3];
        let packed = pack_conv_panels_i8(&weight, 5, 3);
        let ps = patch_stride(3);
        assert_eq!(packed.len(), 8 * ps);
        for co in 0..5 {
            assert!(packed[co * ps..co * ps + 3].iter().all(|&v| v == 1));
            assert!(packed[co * ps + 3..(co + 1) * ps].iter().all(|&v| v == 0));
        }
        assert!(packed[5 * ps..].iter().all(|&v| v == 0));
    }

    #[test]
    fn np_isa_parser_accepts_the_documented_spellings() {
        assert_eq!(parse_np_isa(None), Ok(None));
        assert_eq!(parse_np_isa(Some(" scalar ")), Ok(Some(KernelIsa::Scalar)));
        assert_eq!(parse_np_isa(Some("avx2-i8")), Ok(Some(KernelIsa::Avx2I8)));
        // Retired spellings fall back to the default like any misspelling.
        for bad in ["scalar-i16", "scalar-i8", "avx2-i16", "sse9", ""] {
            assert_eq!(parse_np_isa(Some(bad)), Err(bad.to_string()));
        }
        for isa in [KernelIsa::Scalar, KernelIsa::Avx2I8] {
            assert_eq!(parse_np_isa(Some(isa.as_str())), Ok(Some(isa)));
        }
    }

    #[test]
    fn offset_bias_fold_is_the_weight_sum_correction() {
        let weight: Vec<i8> = vec![3, -5, 7, -128, 127, 0];
        let bias = vec![100, -200];
        // zp -128 makes the offset 0: fold must be the identity.
        assert_eq!(fold_offset_bias(&bias, &weight, 2, 3, -128), bias);
        let fb = fold_offset_bias(&bias, &weight, 2, 3, 0);
        assert_eq!(fb, vec![100 - 128 * 5, -200 + 128]);
    }

    /// Builds the offset-binary u8 column-block layout directly from raw
    /// activations — an independent statement of the format the kernel
    /// consumes (the production writer is pinned against a direct tap
    /// formula in `lowering::tests`).
    fn build_u8_lowered(vals: &[i8], cols: usize, patch: usize, in_zp: i32) -> Vec<u8> {
        let ps = patch_stride(patch);
        let mut low = vec![(in_zp + 128) as u8; cols.div_ceil(NR_I8) * NR_I8 * ps];
        for col in 0..cols {
            for r in 0..patch {
                low[(col / NR_I8) * NR_I8 * ps
                    + (r / 2) * 2 * NR_I8
                    + 2 * (col % NR_I8)
                    + (r % 2)] = (vals[col * patch + r] as u8) ^ 0x80;
            }
        }
        low
    }

    #[test]
    fn i8_kernel_matches_qgemm_row_on_ragged_shapes() {
        // Every combination of ragged channel count (% MR), ragged column
        // count (% NR_I8) and odd patch, plus aligned cases, swept across
        // the adversarial zero points; scalar and (where the host allows)
        // AVX2 bodies both pinned bit-exact against the qgemm_row
        // reference at several pool widths.
        for (out_channels, patch, cols) in [
            (1usize, 1usize, 1usize),
            (3, 7, 5),
            (4, 8, 6),
            (5, 9, 7),
            (6, 24, 33),
            (11, 30, 233),
            (8, 16, 64),
        ] {
            for in_zp in [-128i32, 0, 127] {
                let mut s = 7u64 ^ (in_zp as u64).wrapping_mul(0x9E3779B97F4A7C15);
                let mut rnd = move || {
                    s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
                    (s >> 56) as i8
                };
                let weight: Vec<i8> = (0..out_channels * patch).map(|_| rnd()).collect();
                let bias: Vec<i32> = (0..out_channels as i32).map(|i| i * 31 - 50).collect();
                let mults: Vec<FixedMultiplier> = (0..out_channels)
                    .map(|i| FixedMultiplier::from_real(0.001 + 0.01 * i as f32))
                    .collect();
                // Raw activations; centered row-major for the reference.
                let raw: Vec<i8> = (0..cols * patch).map(|_| rnd()).collect();
                let mut low_cm = vec![0i16; patch * cols];
                for col in 0..cols {
                    for r in 0..patch {
                        low_cm[r * cols + col] = (raw[col * patch + r] as i32 - in_zp) as i16;
                    }
                }
                let want = reference(
                    &weight,
                    out_channels,
                    patch,
                    &low_cm,
                    &bias,
                    &mults,
                    -5,
                    true,
                    cols,
                );
                let panels = pack_conv_panels_i8(&weight, out_channels, patch);
                let fb = fold_offset_bias(&bias, &weight, out_channels, patch, in_zp);
                let low = build_u8_lowered(&raw, cols, patch, in_zp);
                let mut simd_modes = vec![false];
                #[cfg(target_arch = "x86_64")]
                if avx2_available() {
                    simd_modes.push(true);
                }
                for use_simd in simd_modes {
                    for threads in [1usize, 2, 3, 8] {
                        let mut got = vec![0i8; out_channels * cols];
                        qconv_panels_i8_impl(
                            Pool::new(threads),
                            &panels,
                            patch,
                            &low,
                            &fb,
                            &mults,
                            -5,
                            true,
                            1,
                            &mut got,
                            use_simd,
                        );
                        assert_eq!(
                            got, want,
                            "c_out {out_channels} patch {patch} cols {cols} \
                             zp {in_zp} simd {use_simd} t{threads}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn i8_kernel_exact_at_saturation_corners() {
        // All-negative filter rows against extreme zero points, biases
        // near the i32 edges and saturating multipliers: the epilogue's
        // i64 widening, the rounding sign trick, and the clamp chain must
        // all match the scalar reference exactly.
        let (out_channels, patch, cols) = (4usize, 8usize, 21usize);
        let weight = vec![-128i8; out_channels * patch];
        let bias = vec![
            i32::MAX - 400_000,
            i32::MIN + 400_000,
            0,
            i32::MAX - 400_000,
        ];
        let mults = vec![
            FixedMultiplier::from_real(3.0e9), // saturates apply()
            FixedMultiplier::from_real(1.0),
            FixedMultiplier::from_real(1.0e-9), // rounds everything to 0
            FixedMultiplier::from_real(0.5),
        ];
        for in_zp in [-128i32, 0, 127] {
            for out_zp in [-128i32, 0, 127] {
                let mut s = 11u64;
                let mut rnd = move || {
                    s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
                    (s >> 56) as i8
                };
                let raw: Vec<i8> = (0..cols * patch).map(|_| rnd()).collect();
                let mut low_cm = vec![0i16; patch * cols];
                for col in 0..cols {
                    for r in 0..patch {
                        low_cm[r * cols + col] = (raw[col * patch + r] as i32 - in_zp) as i16;
                    }
                }
                for relu in [false, true] {
                    let want = reference(
                        &weight,
                        out_channels,
                        patch,
                        &low_cm,
                        &bias,
                        &mults,
                        out_zp,
                        relu,
                        cols,
                    );
                    let panels = pack_conv_panels_i8(&weight, out_channels, patch);
                    let fb = fold_offset_bias(&bias, &weight, out_channels, patch, in_zp);
                    let low = build_u8_lowered(&raw, cols, patch, in_zp);
                    let mut simd_modes = vec![false];
                    #[cfg(target_arch = "x86_64")]
                    if avx2_available() {
                        simd_modes.push(true);
                    }
                    for use_simd in simd_modes {
                        let mut got = vec![0i8; out_channels * cols];
                        qconv_panels_i8_impl(
                            Pool::serial(),
                            &panels,
                            patch,
                            &low,
                            &fb,
                            &mults,
                            out_zp,
                            relu,
                            1,
                            &mut got,
                            use_simd,
                        );
                        assert_eq!(got, want, "zp {in_zp}/{out_zp} relu {relu} simd {use_simd}");
                    }
                }
            }
        }
    }

    #[test]
    fn batched_i8_kernel_equals_per_frame_runs() {
        for (out_channels, patch, cols, batch) in [
            (1usize, 1usize, 1usize, 1usize),
            (3, 7, 5, 2),
            (5, 9, 7, 3),
            (6, 24, 33, 4),
            (11, 30, 41, 8),
        ] {
            let mut s = 29u64;
            let mut rnd = move || {
                s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
                (s >> 56) as i8
            };
            let weight: Vec<i8> = (0..out_channels * patch).map(|_| rnd()).collect();
            let bias: Vec<i32> = (0..out_channels as i32).map(|i| i * 17 - 40).collect();
            let mults: Vec<FixedMultiplier> = (0..out_channels)
                .map(|i| FixedMultiplier::from_real(0.002 + 0.008 * i as f32))
                .collect();
            let in_zp = -37i32;
            let panels = pack_conv_panels_i8(&weight, out_channels, patch);
            let fb = fold_offset_bias(&bias, &weight, out_channels, patch, in_zp);
            // Per-frame-blocked u8 lowering of `batch` frames.
            let frames_raw: Vec<Vec<i8>> = (0..batch)
                .map(|_| (0..cols * patch).map(|_| rnd()).collect())
                .collect();
            let flen = crate::lowering::u8_lowered_len(cols, patch);
            let mut low = Vec::with_capacity(batch * flen);
            for f in &frames_raw {
                low.extend_from_slice(&build_u8_lowered(f, cols, patch, in_zp));
            }

            let mut simd_modes = vec![false];
            #[cfg(target_arch = "x86_64")]
            if avx2_available() {
                simd_modes.push(true);
            }
            for use_simd in simd_modes {
                // Reference: the single-frame i8 kernel, frame by frame.
                let mut want = vec![0i8; batch * out_channels * cols];
                for b in 0..batch {
                    qconv_panels_i8_impl(
                        Pool::serial(),
                        &panels,
                        patch,
                        &low[b * flen..(b + 1) * flen],
                        &fb,
                        &mults,
                        3,
                        true,
                        1,
                        &mut want[b * out_channels * cols..(b + 1) * out_channels * cols],
                        use_simd,
                    );
                }
                for threads in [1usize, 2, 3, 8] {
                    let mut got = vec![0i8; batch * out_channels * cols];
                    qconv_panels_i8_impl(
                        Pool::new(threads),
                        &panels,
                        patch,
                        &low,
                        &fb,
                        &mults,
                        3,
                        true,
                        batch,
                        &mut got,
                        use_simd,
                    );
                    assert_eq!(
                        got, want,
                        "c_out {out_channels} patch {patch} cols {cols} \
                         b{batch} simd {use_simd} t{threads}"
                    );
                }
            }
        }
    }
}
