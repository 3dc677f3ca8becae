//! im2col/im2row lowering and the integer GEMM row kernels behind the
//! compiled program's conv steps.
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
/// The prepacked executor does not use this column-major layout: it lowers
/// patch-major with [`qim2row_into`] (or [`qim2row_u8_into`] for the i8
/// kernels) into planner-assigned scratch.
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
/// pad byte also fills the `patch_stride - patch` tail rows (they meet
/// zero weight lanes) and the dead columns of the last
/// [`NR_I8`](crate::microkernel::NR_I8) block (they are never stored).
/// Pointwise convolutions are written as one byte interleave per channel
/// pair and column block; K×K convolutions read their taps from a
/// pad-bordered, stride-phase-split offset-binary copy of the input, with
/// no per-tap padding test.
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

/// Bytes of the pad-bordered offset-binary window the K×K u8 lowering
/// reads taps from, kept on the stack. A plane larger than the window is
/// lowered in bands of output rows and columns ([`Bands`]); one output's
/// receptive field must fit ([`assert_filter_fits`]), which admits
/// kernels up to 64.
pub(crate) const LOWER_TILE: usize = 4096;

/// One frame of [`qim2row_u8_into`].
fn qim2row_u8_frame(
    input: &[i8],
    h: usize,
    w: usize,
    in_zp: i32,
    geo: QConvGeometry,
    lowered: &mut [u8],
) {
    let pad_byte = (in_zp + 128) as u8;
    if geo.kernel == 1 && geo.stride == 1 && geo.padding == 0 {
        pointwise_u8(input, h * w, geo.in_channels, pad_byte, lowered);
    } else {
        kxk_u8(input, h, w, in_zp, geo, lowered);
    }
}

/// The pointwise (1×1/s1/p0) u8 lowering: a column's patch is its pixel's
/// channel fiber, so for channel pair `(2i, 2i + 1)` each 16-column block
/// is one interleave of two 16-byte input rows, XOR 0x80. Every byte of
/// `lowered` is written once — channels past `C` (the `patch_stride` tail
/// rows) and the dead columns of the last block get the pad byte — so the
/// buffer needs no prefill.
fn pointwise_u8(input: &[i8], cols: usize, channels: usize, pad_byte: u8, lowered: &mut [u8]) {
    use crate::microkernel::NR_I8;
    let ps = patch_stride(channels);
    let plane = |ci: usize| (ci < channels).then(|| &input[ci * cols..(ci + 1) * cols]);
    // 16 offset-binary bytes of `row` from column `c0`, pad-filled past
    // the row's end (or for a missing row).
    let block = |row: Option<&[i8]>, c0: usize| {
        let mut v = [pad_byte; NR_I8];
        if let Some(row) = row {
            for (d, &x) in v.iter_mut().zip(&row[c0..]) {
                *d = x as u8 ^ 0x80;
            }
        }
        v
    };
    for pair in 0..ps / 2 {
        let (a, b) = (plane(2 * pair), plane(2 * pair + 1));
        for (blk, dst) in lowered.chunks_exact_mut(NR_I8 * ps).enumerate() {
            let (va, vb) = (block(a, blk * NR_I8), block(b, blk * NR_I8));
            let dst = &mut dst[pair * 2 * NR_I8..(pair + 1) * 2 * NR_I8];
            for ((d, &x), &y) in dst.chunks_exact_mut(2).zip(&va).zip(&vb) {
                d[0] = x;
                d[1] = y;
            }
        }
    }
}

/// The K×K u8 lowering. Band by band, each input channel is copied into a
/// stack window of offset-binary bytes with a pad-byte border, split into
/// stride phases ([`fill_phase_tile`]), so one tap of consecutive output
/// columns is a run of consecutive window bytes ([`TapOffsets`]) and each
/// row pair of a column block is written as one interleave of two such
/// runs, with no per-tap padding test. The buffer is prefilled with the
/// pad byte for the `patch_stride` tail rows and the dead columns of the
/// last block.
fn kxk_u8(input: &[i8], h: usize, w: usize, in_zp: i32, geo: QConvGeometry, lowered: &mut [u8]) {
    use crate::microkernel::NR_I8;
    let (oh, ow) = geo.out_hw(h, w);
    let (k, s) = (geo.kernel, geo.stride);
    let ps = patch_stride(geo.in_channels * k * k);
    let pad_byte = (in_zp + 128) as u8;
    lowered.fill(pad_byte);
    let bands = Bands::new(oh, ow, k, s, LOWER_TILE);
    let mut window = [pad_byte; LOWER_TILE];
    for (oy0, rows, ox0, cols) in bands.iter() {
        let tile = bands.tile(rows, cols);
        let taps = TapOffsets::new(k, s, tile);
        // Every channel writes the same in-bounds cells, so the border
        // set here stays the pad byte.
        window[..tile.cells()].fill(pad_byte);
        let (y0, x0) = (oy0 * s, ox0 * s);
        for (ci, plane) in input.chunks_exact(h * w).enumerate() {
            fill_phase_tile(
                plane,
                h,
                w,
                in_zp,
                s,
                geo.padding,
                tile,
                y0,
                x0,
                &mut window,
            );
            for oy in 0..rows {
                // The row's columns, split at column-block boundaries.
                let mut ox = 0;
                while ox < cols {
                    let col = (oy0 + oy) * ow + ox0 + ox;
                    let lane = col % NR_I8;
                    let len = (NR_I8 - lane).min(cols - ox);
                    let blk = &mut lowered[(col / NR_I8) * NR_I8 * ps..][..NR_I8 * ps];
                    let run = Run {
                        lane,
                        len,
                        at: oy * tile.pw + ox,
                    };
                    lower_channel_taps(blk, run, &window, taps.clone(), ci * k * k);
                    ox += len;
                }
            }
        }
    }
}

/// `len` consecutive output columns from lane `lane` of one column block;
/// `at` is the window cell of their first column's tap `(0, 0)`.
#[derive(Debug, Clone, Copy)]
struct Run {
    lane: usize,
    len: usize,
    at: usize,
}

/// Writes one channel's taps — patch rows `r0..` in `(ky, kx)` order, one
/// per `taps` offset — for the columns of `run` into column block `blk`.
/// Patch rows are stored in pairs, so two taps go out as one byte
/// interleave; a channel that starts on an odd row or ends on an even one
/// writes that tap alone, into its half of the pair it shares with the
/// neighbouring channel.
fn lower_channel_taps(blk: &mut [u8], run: Run, window: &[u8], taps: TapOffsets, r0: usize) {
    use crate::microkernel::NR_I8;
    let Run { lane, len, at } = run;
    let pair_at = |r: usize| (r / 2) * 2 * NR_I8 + 2 * lane;
    let single = |blk: &mut [u8], r: usize, off: usize| {
        let dst = blk[pair_at(r) + (r & 1)..].iter_mut().step_by(2);
        for (d, &x) in dst.zip(&window[at + off..at + off + len]) {
            *d = x;
        }
    };
    let mut taps = taps;
    let mut r = r0;
    if r % 2 == 1 {
        let Some(off) = taps.next() else { return };
        single(blk, r, off);
        r += 1;
    }
    while let Some(o0) = taps.next() {
        let Some(o1) = taps.next() else {
            single(blk, r, o0);
            return;
        };
        let dst = &mut blk[pair_at(r)..][..2 * len];
        let (a, b) = (
            &window[at + o0..at + o0 + len],
            &window[at + o1..at + o1 + len],
        );
        for ((d, &x), &y) in dst.chunks_exact_mut(2).zip(a).zip(b) {
            d[0] = x;
            d[1] = y;
        }
        r += 2;
    }
}

/// Layout of a phase-split tile: the `sp × sp` stride phases that a
/// filter's taps reach, each `ph × pw` cells. Padded cell `(y0 + r·s + a,
/// x0 + c·s + b)` of a band window at padded origin `(y0, x0)` lands at
/// cell `((a·sp + b)·ph + r)·pw + c`, so tap `(ky, kx)` of band output
/// `(oy, ox)` is a fixed per-tap offset ([`TapOffsets`]) plus `oy·pw + ox`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PhaseTile {
    /// Phases per axis: `min(stride, kernel)`.
    pub sp: usize,
    /// Rows per phase: band rows + `(kernel − 1) / stride`.
    pub ph: usize,
    /// Columns per phase: band columns + `(kernel − 1) / stride`.
    pub pw: usize,
}

impl PhaseTile {
    /// Cells the tile occupies.
    pub fn cells(&self) -> usize {
        self.sp * self.sp * self.ph * self.pw
    }
}

/// The partition of an `oh × ow` output plane into bands of output rows
/// and columns whose phase-split input window ([`PhaseTile`]) fits a
/// fixed cell budget: the widest band first, then the tallest.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Bands {
    pub oh: usize,
    pub ow: usize,
    sp: usize,
    /// Largest tap offset in phase cells: `(kernel − 1) / stride`.
    q: usize,
    rows: usize,
    cols: usize,
}

/// Panics unless one output of a `kernel`/`stride` filter — its `(1 +
/// q)²` cells in each of the `sp²` phases, `q = (kernel − 1) / stride`,
/// `sp = min(stride, kernel)` — fits a phase-split tile of `budget`
/// cells. [`Bands::new`] needs this; program compilation runs it too, so
/// an unsupported filter fails at setup rather than on its first frame.
pub(crate) fn assert_filter_fits(kernel: usize, stride: usize, budget: usize) {
    let sp = stride.min(kernel);
    let q = (kernel - 1) / stride;
    assert!(
        (1 + q) * (1 + q) <= budget / (sp * sp),
        "a {kernel}x{kernel}/s{stride} filter exceeds the {budget}-cell tile"
    );
}

impl Bands {
    /// Bands for a `kernel`/`stride` filter whose tiles hold at most
    /// `budget` cells.
    ///
    /// # Panics
    ///
    /// Panics if one output's receptive field does not fit `budget`
    /// ([`assert_filter_fits`]).
    pub fn new(oh: usize, ow: usize, kernel: usize, stride: usize, budget: usize) -> Self {
        assert_filter_fits(kernel, stride, budget);
        let sp = stride.min(kernel);
        let q = (kernel - 1) / stride;
        let per_phase = budget / (sp * sp);
        let cols = ow.min(per_phase / (1 + q) - q);
        let rows = oh.min(per_phase / (cols + q) - q);
        Bands {
            oh,
            ow,
            sp,
            q,
            rows,
            cols,
        }
    }

    /// True when the whole plane is one band.
    pub fn single(&self) -> bool {
        self.rows == self.oh && self.cols == self.ow
    }

    /// The tile of a band of `rows × cols` outputs.
    pub fn tile(&self, rows: usize, cols: usize) -> PhaseTile {
        PhaseTile {
            sp: self.sp,
            ph: rows + self.q,
            pw: cols + self.q,
        }
    }

    /// The bands as `(oy0, rows, ox0, cols)`, row bands outer.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize, usize, usize)> {
        let b = *self;
        (0..b.oh).step_by(b.rows).flat_map(move |oy0| {
            (0..b.ow)
                .step_by(b.cols)
                .map(move |ox0| (oy0, b.rows.min(b.oh - oy0), ox0, b.cols.min(b.ow - ox0)))
        })
    }
}

/// A tile cell holding one input value: the depthwise tile's centered
/// i16 or the u8 lowering's offset-binary byte.
pub(crate) trait TileCell: Copy {
    fn from_input(x: i8, zp: i32) -> Self;
}

impl TileCell for i16 {
    /// `x − zp`, so a padding cell (left at 0) contributes nothing.
    #[inline(always)]
    fn from_input(x: i8, zp: i32) -> Self {
        x as i16 - zp as i16
    }
}

impl TileCell for u8 {
    /// `x + 128`, the offset-binary encoding of [`qim2row_u8_into`].
    #[inline(always)]
    fn from_input(x: i8, _zp: i32) -> Self {
        x as u8 ^ 0x80
    }
}

/// Copies the in-bounds cells of the band window at padded origin `(y0,
/// x0)` of the `h × w` plane (stride `s`, padding `p`) into `cells` in the
/// [`PhaseTile`] layout. Padding cells are not written: the caller keeps
/// them at its pad value. Stride 2 deinterleaves each row's even and odd
/// columns in one pass.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
pub(crate) fn fill_phase_tile<T: TileCell>(
    plane: &[i8],
    h: usize,
    w: usize,
    zp: i32,
    s: usize,
    p: usize,
    tile: PhaseTile,
    y0: usize,
    x0: usize,
    cells: &mut [T],
) {
    let PhaseTile { sp, ph, pw } = tile;
    // Phase `b` of a padded row covers input columns `x0 + b + c·s − p`;
    // `lo..hi` are its cells that land inside the row.
    let span = |b: usize| {
        let xb = x0 + b;
        let lo = p.saturating_sub(xb).div_ceil(s).min(pw);
        let hi = (p + w).saturating_sub(xb).div_ceil(s).clamp(lo, pw);
        (lo, hi)
    };
    let (lo0, hi0) = span(0);
    let (lo1, hi1) = if sp > 1 { span(1) } else { (lo0, hi0) };
    // Stride 2: the columns where both phases are live.
    let m0 = lo0.max(lo1);
    let m1 = hi0.min(hi1).max(m0);
    for a in 0..sp {
        for r in 0..ph {
            let y = y0 + r * s + a;
            if y < p || y - p >= h {
                continue;
            }
            let src = &plane[(y - p) * w..(y - p + 1) * w];
            let base = (a * sp * ph + r) * pw;
            if s == 1 {
                if lo0 < hi0 {
                    let dst = &mut cells[base + lo0..base + hi0];
                    for (d, &v) in dst.iter_mut().zip(&src[x0 + lo0 - p..]) {
                        *d = T::from_input(v, zp);
                    }
                }
            } else if sp == 2 && s == 2 {
                let (d0, d1) = cells[base..].split_at_mut(ph * pw);
                let (d0, d1) = (&mut d0[..pw], &mut d1[..pw]);
                if m0 < m1 {
                    let pairs = src[x0 + 2 * m0 - p..].chunks_exact(2);
                    for ((e, o), pair) in d0[m0..m1].iter_mut().zip(&mut d1[m0..m1]).zip(pairs) {
                        *e = T::from_input(pair[0], zp);
                        *o = T::from_input(pair[1], zp);
                    }
                }
                // The ragged ends, where only one phase is live.
                for (b, d, lo, hi) in [(0, d0, lo0, hi0), (1, d1, lo1, hi1)] {
                    for c in lo..m0.min(hi) {
                        d[c] = T::from_input(src[x0 + b + 2 * c - p], zp);
                    }
                    for c in m1.max(lo)..hi {
                        d[c] = T::from_input(src[x0 + b + 2 * c - p], zp);
                    }
                }
            } else {
                for b in 0..sp {
                    let (lo, hi) = span(b);
                    if lo < hi {
                        let dst = &mut cells[base + b * ph * pw..][lo..hi];
                        let col0 = x0 + b + lo * s - p;
                        for (d, &v) in dst.iter_mut().zip(src[col0..].iter().step_by(s)) {
                            *d = T::from_input(v, zp);
                        }
                    }
                }
            }
        }
    }
}

/// The cell offsets of a `k × k` filter's taps in a [`PhaseTile`], in
/// `(ky, kx)` order: tap `(ky, kx)` sits in phase `(ky mod s, kx mod s)`
/// at row `ky div s`, column `kx div s`. Walked with counters, so it
/// divides nothing.
#[derive(Clone)]
pub(crate) struct TapOffsets {
    k: usize,
    s: usize,
    tile: PhaseTile,
    /// Taps left to yield.
    left: usize,
    /// The current tap's column, its phase and phase column.
    kx: usize,
    b: usize,
    j: usize,
    /// The current tap row's phase and phase row.
    a: usize,
    i: usize,
}

impl TapOffsets {
    pub fn new(k: usize, s: usize, tile: PhaseTile) -> Self {
        TapOffsets {
            k,
            s,
            tile,
            left: k * k,
            kx: 0,
            b: 0,
            j: 0,
            a: 0,
            i: 0,
        }
    }
}

impl Iterator for TapOffsets {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        self.left = self.left.checked_sub(1)?;
        let PhaseTile { sp, ph, pw } = self.tile;
        let off = ((self.a * sp + self.b) * ph + self.i) * pw + self.j;
        self.kx += 1;
        self.b += 1;
        if self.b == self.s {
            self.b = 0;
            self.j += 1;
        }
        if self.kx == self.k {
            (self.kx, self.b, self.j) = (0, 0, 0);
            self.a += 1;
            if self.a == self.s {
                self.a = 0;
                self.i += 1;
            }
        }
        Some(off)
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

    /// Asserts that the u8 lowering of `input` stores exactly `centered +
    /// zp + 128` (= raw x + 128) at the block-interleaved position of every
    /// live cell of the i16 lowering, and the pad byte everywhere else.
    fn assert_u8_matches_i16(geo: QConvGeometry, h: usize, w: usize, in_zp: i32) {
        use crate::microkernel::NR_I8;
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
                let idx =
                    (col / NR_I8) * NR_I8 * ps + (r / 2) * 2 * NR_I8 + 2 * (col % NR_I8) + (r % 2);
                live[idx] = true;
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

    fn geo(in_channels: usize, kernel: usize, stride: usize, padding: usize) -> QConvGeometry {
        QConvGeometry {
            in_channels,
            out_channels: 3,
            kernel,
            stride,
            padding,
        }
    }

    #[test]
    fn u8_im2row_matches_i16_im2row_cell_for_cell() {
        // The K×K path (3x3/s2/p1, padded patch tail) and the pointwise
        // path, at every adversarial zero point.
        for geo in [geo(2, 3, 2, 1), geo(5, 1, 1, 0)] {
            for in_zp in [-128i32, -7, 0, 127] {
                assert_u8_matches_i16(geo, 6, 5, in_zp);
            }
        }
    }

    #[test]
    fn u8_kxk_lowering_bands_match_i16_lowering() {
        // Planes past the 4096-byte window: a wide one that splits into
        // column bands (and single-row row bands), a tall one that splits
        // into row bands at stride 2, odd channel counts whose 9-tap
        // channels start on odd patch rows, and a kernel narrower than
        // its stride.
        for (geo, h, w) in [
            (geo(3, 3, 1, 1), 3, 1500),
            (geo(1, 5, 2, 2), 130, 90),
            (geo(3, 3, 2, 1), 40, 37),
            (geo(2, 2, 3, 0), 11, 13),
        ] {
            assert_u8_matches_i16(geo, h, w, -7);
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
