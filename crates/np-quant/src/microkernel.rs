//! Register-blocked int8 GEMM microkernel for the lowered conv path.
//!
//! The per-pixel [`qdot`] loop already vectorizes well — a contiguous
//! i16×i16 dot is exactly the `pmaddwd`/`SumDotp` pattern — but it reloads
//! the full patch for every output channel and the full filter row for
//! every pixel. The microkernel here keeps the *dot* structure (which is
//! what LLVM recognizes; BLIS-style rank-1 broadcast tiles measured 4-5×
//! slower in scalar Rust on this workload) and register-blocks it instead:
//! [`MR`]=4 filter rows × [`NR`]=2 patches are reduced together, so eight
//! accumulator chains share every `w` and `x` load. Measured on the paper
//! shapes this is ~2.5-3× the per-pixel loop.
//!
//! Layouts are unchanged from the rest of the crate:
//!
//! * weights are pre-widened row-major i16 at [`patch_stride`] spacing
//!   ([`pack_conv_panels`]), with the channel count padded up to a whole
//!   number of [`MR`]-row panels — the pad rows are zero filters that are
//!   computed and discarded, never stored;
//! * activations are the patch-major im2row matrix of
//!   [`crate::lowering::qim2row_into`]; the `patch_stride` tail lanes are
//!   zero on both sides, so the padded dot is exact.
//!
//! Ragged edges: a pixel count that is not a multiple of [`NR`] falls back
//! to a single-patch 4-chain tile for the last column, and the last panel
//! of a channel count that is not a multiple of [`MR`] simply stores only
//! its live rows. Both tails reduce in the same `r`-ascending order as
//! [`qgemm_row`], and integer accumulation is exact, so every path is
//! bit-identical to the reference at any pool width.
//!
//! The requantize epilogue is fused: accumulators go straight from
//! registers through [`requantize_to_i8`] into the output plane; no i32
//! matrix is ever materialized.
//!
//! [`qdot`]: crate::lowering::qdot
//! [`qgemm_row`]: crate::lowering::qgemm_row

use crate::lowering::{patch_stride, widen_weight_rows};
use crate::requant::FixedMultiplier;
use np_tensor::parallel::Pool;

/// Filter rows per panel (output-channel register blocking).
pub const MR: usize = 4;

/// Patches per tile (output-pixel register blocking).
pub const NR: usize = 2;

/// Columns per tile of the raw-i8 kernel ([`qconv_panels_i8_into`]): a
/// whole 16-byte output row per store, reduced as 8 i32 accumulator
/// vectors (4 filter rows × two 8-column halves) under AVX2.
pub const NR_I8: usize = 16;

/// Output pixels per cache block: a panel's [`MR`] filter rows are swept
/// over at most this many patches before moving to the next panel, so the
/// filter rows stay resident in L1 while the block's patches stream once.
pub const PIXEL_BLOCK: usize = 256;

/// Packs a `C_out x patch` row-major i8 weight matrix for
/// [`qconv_panels_into`]: rows widened to i16 at [`patch_stride`] spacing
/// (exactly [`widen_weight_rows`]) and the row count padded up to a whole
/// number of [`MR`]-row panels with zero filters. Runs once at
/// program-compile time.
pub fn pack_conv_panels(weight: &[i8], out_channels: usize, patch: usize) -> Vec<i16> {
    let mut packed = widen_weight_rows(weight, out_channels, patch);
    packed.resize(out_channels.div_ceil(MR) * MR * patch_stride(patch), 0);
    packed
}

/// One MR×NR register tile: four filter rows against two patches, eight
/// i32 chains (`[c0p0, c1p0, c2p0, c3p0, c0p1, ..]`), `r`-ascending. The
/// explicit 8-chain body is what lets LLVM keep every chain in a vector
/// register while sharing the four `w` loads and two `x` loads per `r`.
#[inline]
fn dot_tile_4x2(w: [&[i16]; MR], xp: &[i16], xq: &[i16]) -> [i32; MR * NR] {
    let [w0, w1, w2, w3] = w;
    let mut a = [0i32; MR * NR];
    for r in 0..xp.len() {
        let x0 = xp[r] as i32;
        let x1 = xq[r] as i32;
        let v0 = w0[r] as i32;
        let v1 = w1[r] as i32;
        let v2 = w2[r] as i32;
        let v3 = w3[r] as i32;
        a[0] += v0 * x0;
        a[1] += v1 * x0;
        a[2] += v2 * x0;
        a[3] += v3 * x0;
        a[4] += v0 * x1;
        a[5] += v1 * x1;
        a[6] += v2 * x1;
        a[7] += v3 * x1;
    }
    a
}

/// Branchless fused epilogue: `FixedMultiplier::apply` (round-half-away,
/// i32-saturated) + zero point + i8 clamp + ReLU floor, with the sign
/// branch of the rounding turned into mask arithmetic so the tile loop
/// stays branch-free. `floor = i8::MIN` disables the ReLU clamp. Bit-exact
/// with `requantize_to_i8` followed by the `< out_zp` floor check.
#[inline(always)]
fn requant_clamp(acc: i32, mult: i32, shift: u32, out_zp: i32, floor: i8) -> i8 {
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

/// The NR tail: the same four chains over a single patch.
#[inline]
fn dot_tile_4x1(w: [&[i16]; MR], xp: &[i16]) -> [i32; MR] {
    let [w0, w1, w2, w3] = w;
    let mut a = [0i32; MR];
    for r in 0..xp.len() {
        let x = xp[r] as i32;
        a[0] += w0[r] as i32 * x;
        a[1] += w1[r] as i32 * x;
        a[2] += w2[r] as i32 * x;
        a[3] += w3[r] as i32 * x;
    }
    a
}

/// Lowered int8 convolution of `frames` frames: `out[f][c][col] =
/// requant(bias[c] + packed[c] · lowered[f][col])` with the fused ReLU
/// clamp, register-blocked and parallelized.
///
/// * `packed`: [`pack_conv_panels`] output for `bias.len()` channels
/// * `lowered`: [`crate::lowering::qim2row_into`] output — `frames * cols`
///   patch-major columns, frame-major
/// * `out`: `frames * bias.len() * cols` i8, NCHW (frame `f` owns
///   `out[f*C*cols..(f+1)*C*cols]`, plane-major)
///
/// One frame is chunked over whole channel panels, several frames over
/// whole frames ([`for_each_conv_chunk`]). Across frames each [`MR`]-row
/// weight panel is streamed once per [`PIXEL_BLOCK`] of the *whole batch*
/// rather than once per frame. Each output element is one `r`-ascending
/// integer dot, so results are bit-identical to per-channel
/// [`qgemm_row`] + [`requantize_to_i8`] at any pool width and any
/// `frames`.
///
/// # Panics
///
/// Panics on size mismatches or `frames == 0`.
///
/// [`qgemm_row`]: crate::lowering::qgemm_row
/// [`requantize_to_i8`]: crate::requant::requantize_to_i8
#[allow(clippy::too_many_arguments)]
pub fn qconv_panels_into(
    pool: Pool,
    packed: &[i16],
    patch: usize,
    lowered: &[i16],
    bias: &[i32],
    mults: &[FixedMultiplier],
    out_zp: i32,
    relu: bool,
    frames: usize,
    out: &mut [i8],
) {
    assert!(frames > 0, "frames must be at least 1");
    let out_channels = bias.len();
    if out_channels == 0 || out.is_empty() {
        return;
    }
    let ps = patch_stride(patch);
    let frame_out = out.len() / frames;
    assert_eq!(out.len(), frames * frame_out, "output size");
    let cols = frame_out / out_channels;
    assert_eq!(frame_out, out_channels * cols, "output size");
    let fstride = cols * ps;
    assert_eq!(lowered.len(), frames * fstride, "lowered size");
    assert_eq!(
        packed.len(),
        out_channels.div_ceil(MR) * MR * ps,
        "packed weight size"
    );
    assert_eq!(mults.len(), out_channels, "multiplier count");
    let floor = relu_floor(relu, out_zp);
    #[cfg(target_arch = "x86_64")]
    let has_avx2 = simd_enabled();
    for_each_conv_chunk(pool, out, frames, out_channels, |at, chunk| {
        let nf = chunk.len() / at.frame_out;
        let args = ChunkArgs {
            packed,
            ps,
            lowered: &lowered[at.frame * fstride..(at.frame + nf) * fstride],
            bias,
            mults,
            out_zp,
            floor,
            cols,
            at,
        };
        #[cfg(target_arch = "x86_64")]
        if has_avx2 {
            // SAFETY: AVX2 support was verified above; the body is safe
            // Rust, the attribute only widens the ISA it compiles to.
            unsafe { conv_chunk_avx2(&args, chunk) };
            return;
        }
        conv_chunk(&args, chunk);
    });
}

/// The ReLU floor of the fused epilogues: the output zero point clamped
/// to i8, or `i8::MIN` (no clamp) without ReLU.
fn relu_floor(relu: bool, out_zp: i32) -> i8 {
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

/// Per-chunk invariants of [`qconv_panels_into`], bundled so the chunk
/// body can be compiled once per instruction set.
struct ChunkArgs<'a> {
    packed: &'a [i16],
    ps: usize,
    /// This chunk's frames' columns only.
    lowered: &'a [i16],
    bias: &'a [i32],
    mults: &'a [FixedMultiplier],
    out_zp: i32,
    floor: i8,
    /// Output pixels per frame.
    cols: usize,
    at: ConvChunk,
}

/// The chunk body: all panels of one chunk over all pixel blocks of its
/// frames' concatenated columns. Marked `inline(always)` so the
/// `target_feature` wrapper below recompiles the whole loop nest (tiles
/// included) with the wider vector ISA.
#[inline(always)]
fn conv_chunk(a: &ChunkArgs<'_>, chunk: &mut [i8]) {
    let &ChunkArgs {
        packed,
        ps,
        lowered,
        bias,
        mults,
        out_zp,
        floor,
        cols,
        at,
    } = a;
    let ConvChunk {
        frame_out,
        c_base,
        live_ch,
        ..
    } = at;
    let n_cols = chunk.len() / frame_out * cols;
    for px0 in (0..n_cols).step_by(PIXEL_BLOCK) {
        let px1 = (px0 + PIXEL_BLOCK).min(n_cols);
        for lp in (0..live_ch).step_by(MR) {
            let wbase = (c_base + lp) * ps;
            // The packed matrix is padded to whole panels, so all four
            // rows exist even when fewer than MR channels are live.
            let w = [
                &packed[wbase..wbase + ps],
                &packed[wbase + ps..wbase + 2 * ps],
                &packed[wbase + 2 * ps..wbase + 3 * ps],
                &packed[wbase + 3 * ps..wbase + 4 * ps],
            ];
            let live = MR.min(live_ch - lp);
            // Per-panel channel constants, hoisted out of the tile loop.
            let mut pb = [0i32; MR];
            let mut pmul = [0i32; MR];
            let mut psh = [0u32; MR];
            for m in 0..live {
                let ch = c_base + lp + m;
                pb[m] = bias[ch];
                pmul[m] = mults[ch].multiplier;
                psh[m] = mults[ch].shift as u32;
            }
            // Tiles never straddle a frame: the block is walked one
            // frame segment at a time, within which global column `col`
            // stores to `base + (lp + m) * cols + col`.
            let mut col = px0;
            while col < px1 {
                let f = col / cols;
                let seg_end = ((f + 1) * cols).min(px1);
                let base = f * (frame_out - cols);
                while col + NR <= seg_end {
                    let xp = &lowered[col * ps..col * ps + ps];
                    let xq = &lowered[(col + 1) * ps..(col + 1) * ps + ps];
                    let acc = dot_tile_4x2(w, xp, xq);
                    for m in 0..live {
                        let row = base + (lp + m) * cols + col;
                        chunk[row] = requant_clamp(acc[m] + pb[m], pmul[m], psh[m], out_zp, floor);
                        chunk[row + 1] =
                            requant_clamp(acc[MR + m] + pb[m], pmul[m], psh[m], out_zp, floor);
                    }
                    col += NR;
                }
                if col < seg_end {
                    let xp = &lowered[col * ps..col * ps + ps];
                    let acc = dot_tile_4x1(w, xp);
                    for m in 0..live {
                        chunk[base + (lp + m) * cols + col] =
                            requant_clamp(acc[m] + pb[m], pmul[m], psh[m], out_zp, floor);
                    }
                    col += 1;
                }
            }
        }
    }
}

/// [`conv_chunk`] recompiled with AVX2 enabled: the i16-widening dot tiles
/// vectorize at 8 i32 lanes instead of the baseline 4. Integer results are
/// identical — vector width never changes two's-complement arithmetic —
/// so this path stays bit-exact with the portable one.
///
/// # Safety
///
/// The caller must have verified AVX2 support (the body itself is safe
/// Rust; the attribute only changes code generation).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn conv_chunk_avx2(a: &ChunkArgs<'_>, chunk: &mut [i8]) {
    conv_chunk(a, chunk);
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

/// Which microkernel family programs compile their conv weights for and
/// which code path executes them. The *format* half (i16 vs raw i8) is
/// baked in at [`crate::QuantizedProgram`] compile time; the *SIMD* half
/// is re-checked at run time, so `avx2-i8` on a host without AVX2 runs
/// the portable i8 body. Both are bit-exact with each other; only speed
/// differs. The two other pairings (i8 without AVX2, i16 under AVX2)
/// measured slower than these on every seed, so they are not offered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelIsa {
    /// i16-widened weight panels, autovectorized 4×2 tiles. The portable
    /// baseline and the reference everything else is pinned against.
    ScalarI16,
    /// Raw-i8 panels with the hand-written AVX2 4×16 kernel. The default
    /// on AVX2 hosts: half the packed/lowered bytes, double the lanes.
    Avx2I8,
}

impl KernelIsa {
    /// True when programs compiled for this ISA pack raw-i8 weight panels
    /// and lower activations to offset-binary u8 (vs i16 widening).
    pub fn packs_i8(self) -> bool {
        self == KernelIsa::Avx2I8
    }

    /// The env-var spelling accepted by [`parse_np_isa`].
    pub fn as_str(self) -> &'static str {
        match self {
            KernelIsa::ScalarI16 => "scalar",
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
        "scalar" | "scalar-i16" => Ok(Some(KernelIsa::ScalarI16)),
        "avx2-i8" => Ok(Some(KernelIsa::Avx2I8)),
        other => Err(other.to_string()),
    }
}

/// The ISA picked when `NP_ISA` is unset: the raw-i8 AVX2 kernel on hosts
/// that have AVX2, the scalar i16 baseline otherwise (the i8 scalar tile
/// is wider than the autovectorizer handles well without AVX2, so plain
/// hosts keep the proven path).
fn default_isa() -> KernelIsa {
    #[cfg(target_arch = "x86_64")]
    if avx2_available() {
        return KernelIsa::Avx2I8;
    }
    KernelIsa::ScalarI16
}

/// The process-wide kernel ISA: `NP_ISA` when set to `scalar|avx2-i8`,
/// otherwise [`default_isa`].
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
/// [`qconv_panels_i8_into`]: rows stay i8 (half the bytes of
/// [`pack_conv_panels`]) at [`patch_stride`] spacing with zero tail
/// lanes, and the row count is padded up to a whole number of [`MR`]-row
/// panels of zero filters. The i8 kernel *broadcasts* weight pairs from
/// these row-major rows (the column structure lives in the u8 im2row
/// blocks), so no in-panel interleaving is needed. Runs once at
/// program-compile time.
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
/// i16 path even when intermediate sums transiently overflow.
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
/// u[f][r][col])` with the fused ReLU clamp — bit-identical to
/// [`qconv_panels_into`] on the i16 encoding of the same activations (see
/// [`fold_offset_bias`]).
///
/// Tiles are [`MR`] filter rows × [`NR_I8`] columns: under AVX2 each
/// k-pair is one 32-byte load of 16 interleaved column pairs, widened in
/// register and reduced with `pmaddwd` into 8 i32 accumulator vectors,
/// with a fully vectorized requantize epilogue. The frames are lowered
/// per-frame blocked and the output is NCHW. Each weight panel is
/// streamed once per [`PIXEL_BLOCK`]-column group of the *whole batch*,
/// and the 16-column blocks give the skinny GEMV-shaped layers real
/// column parallelism. Chunking follows [`for_each_conv_chunk`], so
/// results are bit-exact at any pool width and any `frames`.
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

/// One scalar MR×NR_I8 tile over a column block: `acc[m][c]` accumulates
/// row `m`'s dot with column `c`, consuming the block's interleaved
/// row pairs in ascending order. Wrapping adds keep debug builds panic-free
/// when the offset-binary intermediate transiently exceeds i32 (the final
/// value is exact mod 2^32, which is all two's-complement release
/// arithmetic — and the i16 reference — observes).
#[inline(always)]
fn i8_tile_scalar(w: [&[i8]; MR], blk: &[u8]) -> [[i32; NR_I8]; MR] {
    let [w0, w1, w2, w3] = w;
    let ps = w0.len();
    let mut acc = [[0i32; NR_I8]; MR];
    for kp in 0..ps / 2 {
        let pair = &blk[kp * 2 * NR_I8..(kp + 1) * 2 * NR_I8];
        let wp = [
            [w0[2 * kp] as i32, w0[2 * kp + 1] as i32],
            [w1[2 * kp] as i32, w1[2 * kp + 1] as i32],
            [w2[2 * kp] as i32, w2[2 * kp + 1] as i32],
            [w3[2 * kp] as i32, w3[2 * kp + 1] as i32],
        ];
        for (am, wm) in acc.iter_mut().zip(wp.iter()) {
            for (c, a) in am.iter_mut().enumerate() {
                *a = a
                    .wrapping_add(wm[0] * pair[2 * c] as i32)
                    .wrapping_add(wm[1] * pair[2 * c + 1] as i32);
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
/// AVX2 must be enabled (callee of [`i8_chunk_avx2`] only).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[inline]
unsafe fn requant_8_avx2(
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
    let sgn = _mm256_cmpgt_epi64(_mm256_setzero_si256(), prod);
    let rounded = _mm256_sub_epi64(_mm256_add_epi64(prod, _mm256_xor_si256(round_v, sgn)), sgn);
    let shifted = _mm256_srl_epi64(rounded, cnt);
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
    fn microkernel_matches_qgemm_row_on_ragged_shapes() {
        // Every combination of ragged channel count (% MR), odd pixel
        // count (% NR), and unpadded patch (% lane width) plus the aligned
        // cases, across pool widths.
        for (out_channels, patch, cols) in [
            (1usize, 1usize, 1usize),
            (3, 7, 5),
            (4, 8, 6),
            (5, 9, 7),
            (6, 24, 33),
            (11, 30, 233),
            (8, 16, 64),
        ] {
            let mut s = 7u64;
            let mut rnd = move || {
                s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
                (s >> 56) as i8
            };
            let weight: Vec<i8> = (0..out_channels * patch).map(|_| rnd()).collect();
            let bias: Vec<i32> = (0..out_channels as i32).map(|i| i * 31 - 50).collect();
            let mults: Vec<FixedMultiplier> = (0..out_channels)
                .map(|i| FixedMultiplier::from_real(0.001 + 0.01 * i as f32))
                .collect();
            // Random centered activations in the patch-major layout, plus
            // the same values transposed to row-major for the reference.
            let ps = patch_stride(patch);
            let mut low = vec![0i16; cols * ps];
            let mut low_cm = vec![0i16; patch * cols];
            for col in 0..cols {
                for r in 0..patch {
                    let v = rnd() as i16;
                    low[col * ps + r] = v;
                    low_cm[r * cols + col] = v;
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
            let packed = pack_conv_panels(&weight, out_channels, patch);
            for threads in [1usize, 2, 3, 8] {
                let mut got = vec![0i8; out_channels * cols];
                qconv_panels_into(
                    Pool::new(threads),
                    &packed,
                    patch,
                    &low,
                    &bias,
                    &mults,
                    -5,
                    true,
                    1,
                    &mut got,
                );
                assert_eq!(
                    got, want,
                    "c_out {out_channels} patch {patch} cols {cols} t{threads}"
                );
            }
        }
    }

    #[test]
    fn batched_microkernel_equals_per_frame_runs() {
        // The batched sweep must reproduce B independent single-frame
        // kernel calls bit-for-bit, including ragged channel counts, odd
        // per-frame pixel counts (so NR tiles straddle frame boundaries),
        // and batch sizes around the parallel chunking.
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
            let ps = patch_stride(patch);
            let low: Vec<i16> = (0..batch * cols * ps)
                .map(|i| if i % ps < patch { rnd() as i16 } else { 0 })
                .collect();
            let packed = pack_conv_panels(&weight, out_channels, patch);

            // Reference: the single-frame kernel, frame by frame.
            let mut want = vec![0i8; batch * out_channels * cols];
            for b in 0..batch {
                qconv_panels_into(
                    Pool::serial(),
                    &packed,
                    patch,
                    &low[b * cols * ps..(b + 1) * cols * ps],
                    &bias,
                    &mults,
                    3,
                    true,
                    1,
                    &mut want[b * out_channels * cols..(b + 1) * out_channels * cols],
                );
            }
            for threads in [1usize, 2, 3, 8] {
                let mut got = vec![0i8; batch * out_channels * cols];
                qconv_panels_into(
                    Pool::new(threads),
                    &packed,
                    patch,
                    &low,
                    &bias,
                    &mults,
                    3,
                    true,
                    batch,
                    &mut got,
                );
                assert_eq!(
                    got, want,
                    "c_out {out_channels} patch {patch} cols {cols} b{batch} t{threads}"
                );
            }
        }
    }

    #[test]
    fn packing_pads_channels_to_whole_panels() {
        let weight = vec![1i8; 5 * 3];
        let packed = pack_conv_panels(&weight, 5, 3);
        let ps = patch_stride(3);
        assert_eq!(packed.len(), 8 * ps); // 5 channels -> 2 panels of 4
        assert!(packed[5 * ps..].iter().all(|&v| v == 0));
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
        assert_eq!(parse_np_isa(Some("scalar")), Ok(Some(KernelIsa::ScalarI16)));
        assert_eq!(
            parse_np_isa(Some(" scalar-i16 ")),
            Ok(Some(KernelIsa::ScalarI16))
        );
        assert_eq!(parse_np_isa(Some("avx2-i8")), Ok(Some(KernelIsa::Avx2I8)));
        // Retired pairings fall back to the default like any misspelling.
        for bad in ["scalar-i8", "avx2-i16", "sse9", ""] {
            assert_eq!(parse_np_isa(Some(bad)), Err(bad.to_string()));
        }
        for isa in [KernelIsa::ScalarI16, KernelIsa::Avx2I8] {
            assert_eq!(parse_np_isa(Some(isa.as_str())), Ok(Some(isa)));
            assert_eq!(isa.packs_i8(), isa.as_str().ends_with("i8"));
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
    /// consumes (the production writer is pinned against the i16 writer
    /// in `lowering::tests`).
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
    fn i8_kernel_matches_i16_reference_on_ragged_shapes() {
        // Same ragged-shape table as the i16 test, swept across the
        // adversarial zero points; scalar and (where the host allows)
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
