//! Plan-once, run-many execution of a [`QuantizedNetwork`]: the crate's
//! one fast int8 executor.
//!
//! [`QuantizedNetwork::run_int`] is the scalar oracle: serial, a fresh
//! `Vec` for every layer output, built from the reference loops alone.
//! That suits a test oracle but not the paper's actual runtime: DORY
//! plans every GAP8 buffer statically before the first frame and the
//! steady-state loop never touches an allocator.
//!
//! [`QuantizedNetwork::compile`] performs the same split for a fixed
//! input shape:
//!
//! * every intermediate gets a byte size and a live range, and the
//!   [`np_tensor::arena`] planner bin-packs them into one arena with
//!   offset reuse (ping-pong for chains — exactly DORY's L2 layout);
//! * conv weights stay raw i8, packed into [`MR`]-row panels at the
//!   pair-padded [`patch_stride`] ([`pack_conv_panels_i8`]) with the
//!   input zero point folded into the bias ([`fold_offset_bias`]), so
//!   execution is the register-blocked [`qconv_panels_i8_into`]
//!   microkernel over the offset-binary u8 im2row buffer
//!   ([`qim2row_u8_into`]) — the `SumDotp` structure PULP-NN uses on
//!   GAP8, blocked 4×16 so every weight pair is shared by 16 columns —
//!   with the requantize fused in while the accumulators are still in
//!   registers;
//! * depthwise steps run one tiled kernel for every kernel size, stride
//!   and padding: each plane is copied once into a zero-bordered,
//!   stride-phase-split tile of centered values, so every tap of a band
//!   is one vector multiply-add over a flattened run with no edge cases,
//!   followed by the GEMM's vectorized requantize epilogue;
//! * pooling steps run per-plane bodies, 2×2/s2 (every pool in the zoo)
//!   as a row-pair × column-pair reduction;
//! * linear biases are zero-point-folded (`b' = b - zp * Σw`), turning the
//!   fully-connected hot loop into a plain integer dot product.
//!
//! [`QuantizedProgram::run_int_prepacked`] then executes the step list
//! into a reusable [`QScratch`]: after the scratch is warm, a frame
//! performs **zero heap allocations** (enforced by a counting-allocator
//! test) and produces outputs bit-identical to `run_int` — integer
//! arithmetic makes the restructured loops exact, not approximately equal.
//!
//! Every entry point runs one executor over a static plan. A single frame
//! is a batch of one on the per-frame plan; a batch-compiled program adds
//! a second plan at `max_batch ×` the bytes for multi-frame passes.
//!
//! [`MR`]: crate::microkernel::MR
//! [`patch_stride`]: crate::lowering::patch_stride

use crate::kernels::{
    qavg_pool_plane, qdepthwise_into, qmax_pool_plane, round_div, Depthwise, QConvGeometry,
    DW_BAND_CELLS,
};
use crate::lowering::{assert_filter_fits, qim2row_u8_into, u8_lowered_len, LOWER_TILE};
use crate::microkernel::{
    fold_offset_bias, pack_conv_panels_i8, qconv_panels_i8_into, simd_enabled,
};
use crate::qnetwork::{QLayer, QuantizedNetwork};
use crate::qparams::{fold_zero_point, QuantParams};
use crate::requant::{requantize_to_i8, FixedMultiplier};
use np_tensor::arena::{disjoint_pair, plan_arena_batched, BufferReq};
use np_tensor::parallel::Pool;

/// One executable step. Buffers are referred to by id; the program maps
/// ids to planner-assigned arena offsets.
#[derive(Debug, Clone)]
enum Step {
    Conv {
        geo: QConvGeometry,
        h: usize,
        w: usize,
        in_zp: i32,
        /// Raw i8 filter rows in
        /// [`MR`](crate::microkernel::MR)-row panels
        /// ([`pack_conv_panels_i8`]).
        panels: Vec<i8>,
        /// The bias with the input zero point and the offset-binary +128
        /// folded in ([`fold_offset_bias`]).
        folded_bias: Vec<i32>,
        mults: Vec<FixedMultiplier>,
        out_zp: i32,
        relu: bool,
        input: usize,
        output: usize,
    },
    Depthwise {
        channels: usize,
        kernel: usize,
        stride: usize,
        padding: usize,
        h: usize,
        w: usize,
        in_zp: i32,
        weight: Vec<i8>,
        bias: Vec<i32>,
        mults: Vec<FixedMultiplier>,
        out_zp: i32,
        relu: bool,
        input: usize,
        output: usize,
    },
    Linear {
        in_features: usize,
        out_features: usize,
        weight: Vec<i8>,
        /// `bias[j] - in_zp * Σ weight[j]`, folded at compile time so the
        /// hot loop is a plain dot product (exact in i32).
        folded_bias: Vec<i32>,
        mults: Vec<FixedMultiplier>,
        out_zp: i32,
        relu: bool,
        input: usize,
        output: usize,
    },
    MaxPool {
        channels: usize,
        h: usize,
        w: usize,
        kernel: usize,
        stride: usize,
        input: usize,
        output: usize,
    },
    AvgPool {
        channels: usize,
        h: usize,
        w: usize,
        kernel: usize,
        stride: usize,
        input: usize,
        output: usize,
    },
    GlobalAvgPool {
        channels: usize,
        h: usize,
        w: usize,
        input: usize,
        output: usize,
    },
    /// Standalone ReLU clamps in place — no new buffer.
    ReluInPlace { zp: i32, buf: usize },
}

impl Step {
    /// Short kind tag used in span names (`model/03-conv` etc.).
    fn kind(&self) -> &'static str {
        match self {
            Step::Conv { .. } => "conv",
            Step::Depthwise { .. } => "dw",
            Step::Linear { .. } => "linear",
            Step::MaxPool { .. } => "maxpool",
            Step::AvgPool { .. } => "avgpool",
            Step::GlobalAvgPool { .. } => "gap",
            Step::ReluInPlace { .. } => "relu",
        }
    }

    /// Arena traffic of the step in bytes (activation read + write; i8
    /// buffers, so element counts are byte counts). Weight bytes are
    /// excluded — they are a compile-time constant per program, not
    /// per-frame traffic.
    fn io_bytes(&self, buf_sizes: &[usize]) -> u64 {
        match *self {
            Step::Conv { input, output, .. }
            | Step::Depthwise { input, output, .. }
            | Step::Linear { input, output, .. }
            | Step::MaxPool { input, output, .. }
            | Step::AvgPool { input, output, .. }
            | Step::GlobalAvgPool { input, output, .. } => {
                (buf_sizes[input] + buf_sizes[output]) as u64
            }
            Step::ReluInPlace { buf, .. } => 2 * buf_sizes[buf] as u64,
        }
    }
}

/// Workload descriptors of one executable step, as consumed by the
/// `np-calib` cycle-model fitter: the quantities a linear cost model can
/// regress measured span time against. Indices line up with the program's
/// step spans (`{name}/{index:02}-{kind}`), so a traced duration joins
/// its descriptors by position.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StepWorkload {
    /// Step position in the program (== the span-name index).
    pub index: usize,
    /// Step kind tag as it appears in span names (`"conv"`, `"dw"`, ...).
    pub kind: &'static str,
    /// Spatial kernel size (1 for linear/elementwise; distinguishes
    /// pointwise from standard convolutions).
    pub kernel: usize,
    /// Output channels / features.
    pub out_channels: usize,
    /// Multiply-accumulates (window elements for pooling, touched
    /// elements for elementwise).
    pub macs: u64,
    /// Arena bytes read + written: the step's activation input and
    /// output, weights excluded.
    pub io_bytes: u64,
    /// im2row patch columns lowered (conv steps only; zero for kernels
    /// that never build the patch matrix).
    pub im2row_cols: u64,
}

/// Buffer bookkeeping during compilation: sizes and live ranges of the
/// activation chain, one logical time tick per executed step.
struct Bufs {
    sizes: Vec<usize>,
    first: Vec<usize>,
    last: Vec<usize>,
    cur: usize,
    time: usize,
}

impl Bufs {
    fn new(input_len: usize) -> Self {
        Bufs {
            sizes: vec![input_len],
            first: vec![0],
            last: vec![0],
            cur: 0,
            time: 0,
        }
    }

    /// A step consuming the current buffer and producing a fresh one.
    /// Returns `(input_id, output_id)`.
    fn advance(&mut self, out_len: usize) -> (usize, usize) {
        self.time += 1;
        self.last[self.cur] = self.time;
        self.sizes.push(out_len);
        self.first.push(self.time);
        self.last.push(self.time);
        let input = self.cur;
        self.cur = self.sizes.len() - 1;
        (input, self.cur)
    }

    /// An in-place step: extends the current buffer's live range.
    fn touch(&mut self) -> usize {
        self.time += 1;
        self.last[self.cur] = self.time;
        self.cur
    }
}

/// Reusable execution scratch for [`QuantizedProgram`]: the planned
/// activation arena plus the u8 im2row buffer sized to the largest conv
/// step. One scratch can serve several programs (e.g. the big and little
/// members of an ensemble) — each run grows it to the required size once,
/// after which execution never allocates.
#[derive(Debug, Default)]
pub struct QScratch {
    arena: Vec<i8>,
    /// Offset-binary u8 im2row buffer of the conv steps.
    lowered_u8: Vec<u8>,
    out_f32: Vec<f32>,
}

impl QScratch {
    /// An empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        QScratch::default()
    }

    /// A scratch pre-sized for `program` — no allocation on any
    /// subsequent run of it.
    pub fn for_program(program: &QuantizedProgram) -> Self {
        Self::for_programs(&[program])
    }

    /// A scratch pre-sized for every program in `programs` (sized to the
    /// maximum of each requirement) — the ensemble case: one arena serves
    /// the big and the little model because they never run concurrently.
    pub fn for_programs(programs: &[&QuantizedProgram]) -> Self {
        let mut s = QScratch::new();
        for p in programs {
            s.reserve(p);
        }
        s
    }

    /// Grows the buffers to `program`'s requirements (never shrinks). A
    /// batch-compiled program reserves its scaled batch plan too, so one
    /// scratch serves every batch size up to `max_batch`.
    pub fn reserve(&mut self, program: &QuantizedProgram) {
        fn grow<T: Copy + Default>(buf: &mut Vec<T>, len: usize) {
            if buf.len() < len {
                buf.resize(len, T::default());
            }
        }
        for plan in std::iter::once(&program.unit).chain(&program.batch) {
            grow(&mut self.arena, plan.arena_len);
            grow(&mut self.lowered_u8, plan.lowered_u8_len);
        }
        grow(
            &mut self.out_f32,
            program.max_batch() * program.output_len(),
        );
    }

    /// Total bytes currently held by the scratch buffers (activation
    /// arena + im2row matrix + dequantized output) — the steady-state
    /// working-set counterpart of [`QuantizedProgram::arena_bytes`].
    pub fn bytes(&self) -> usize {
        self.arena.len() + self.lowered_u8.len() + 4 * self.out_f32.len()
    }
}

/// A static execution plan for passes of up to `max_batch` frames: arena
/// offsets of every buffer, the arena and im2row buffer sizes, and the
/// spans a pass records into. The unit plan (`max_batch == 1`) is the
/// per-frame layout; a batch plan is the same live-range packing at
/// `max_batch ×` the bytes (see [`plan_arena_batched`]). Within a
/// buffer's region, frame `b` owns the contiguous slice `[offset +
/// b*size, offset + (b+1)*size)` — plain NCHW concatenation, so per-frame
/// outputs come back as contiguous slices of the batched output plane,
/// and a pass of fewer frames uses a prefix of every region.
#[derive(Debug, Clone)]
struct Plan {
    max_batch: usize,
    /// Arena offset of each buffer's `max_batch × size` region.
    buf_offsets: Vec<usize>,
    arena_len: usize,
    /// Size of the offset-binary u8 im2row buffer: the largest conv
    /// step's, times `max_batch`.
    lowered_u8_len: usize,
    /// One np-trace span per step, registered at compile time so the
    /// executor's hot path never touches the span registry. The unit
    /// plan's are `{name}/NN-kind`; a batch plan's live under
    /// `{name}@batch/` so the per-frame drift report's step-to-layer
    /// alignment never sees batched samples. All-INACTIVE when the
    /// `trace` feature is off.
    step_spans: Vec<np_trace::SpanId>,
    /// Span covering one whole pass: `{name}/frame` with zero bytes, or
    /// `{name}@batch/run` with the batch size in its bytes field (`bytes
    /// / count` in a trace report is the mean B per batched pass).
    run_span: np_trace::SpanId,
}

impl Plan {
    /// Plans `reqs` for `max_batch` frames per pass and registers the
    /// plan's spans under `name`; without a name they are all INACTIVE.
    fn new(
        name: Option<&str>,
        steps: &[Step],
        reqs: &[BufferReq],
        max_batch: usize,
        lowered_u8_len: usize,
    ) -> Plan {
        let arena = plan_arena_batched(reqs, max_batch);
        let (prefix, run) = if max_batch == 1 {
            (name.map(str::to_string), "frame")
        } else {
            (name.map(|name| format!("{name}@batch")), "run")
        };
        let span = |path: String| match &prefix {
            Some(prefix) => np_trace::register_span(&format!("{prefix}/{path}")),
            None => np_trace::SpanId::INACTIVE,
        };
        Plan {
            max_batch,
            buf_offsets: arena.offsets,
            arena_len: arena.arena_bytes,
            lowered_u8_len: lowered_u8_len * max_batch,
            step_spans: steps
                .iter()
                .enumerate()
                .map(|(i, s)| span(format!("{i:02}-{}", s.kind())))
                .collect(),
            run_span: span(run.to_string()),
        }
    }
}

/// A [`QuantizedNetwork`] compiled for one input shape: static arena
/// plan, pre-packed weights, and an allocation-free executor. See the
/// module docs.
#[derive(Debug, Clone)]
pub struct QuantizedProgram {
    name: String,
    input_params: QuantParams,
    output_params: QuantParams,
    input_chw: (usize, usize, usize),
    output_chw: (usize, usize, usize),
    steps: Vec<Step>,
    /// Per-frame size of every buffer.
    buf_sizes: Vec<usize>,
    output_buf: usize,
    /// Arena bytes each step reads + writes per frame, precomputed for
    /// telemetry.
    step_bytes: Vec<u64>,
    /// The per-frame plan every single-frame pass runs on.
    unit: Plan,
    /// Present iff compiled with [`QuantizedNetwork::compile_batched`]
    /// and `max_batch > 1`: the scaled plan for passes of
    /// 2..=`max_batch` frames.
    batch: Option<Plan>,
}

impl QuantizedProgram {
    /// The one constructor behind [`QuantizedNetwork`]'s `compile*`
    /// wrappers: compiles `net` for inputs of shape `chw`, plus a batch
    /// plan when `max_batch > 1`.
    /// `traced` registers the plans' np-trace spans; a throwaway
    /// per-call program passes `false` so the registry does not grow.
    ///
    /// # Panics
    ///
    /// Panics if `max_batch == 0`, or if a depthwise or K×K conv filter
    /// has a receptive field wider than its kernel's stack tile
    /// ([`assert_filter_fits`]).
    pub(crate) fn compile_with(
        net: &QuantizedNetwork,
        chw: (usize, usize, usize),
        max_batch: usize,
        traced: bool,
    ) -> Self {
        assert!(max_batch >= 1, "max_batch must be at least 1");
        let (mut c, mut h, mut w) = chw;
        let mut zp = net.input_params().zero_point;
        let mut bufs = Bufs::new(c * h * w);
        let mut steps = Vec::with_capacity(net.qlayers().len());
        let mut lowered_u8_len = 0usize;

        for layer in net.qlayers() {
            match layer {
                QLayer::Conv {
                    geo,
                    weight,
                    bias,
                    mults,
                    out,
                    relu,
                } => {
                    let (oh, ow) = geo.out_hw(h, w);
                    let cols = oh * ow;
                    let patch = geo.in_channels * geo.kernel * geo.kernel;
                    assert_filter_fits(geo.kernel, geo.stride, LOWER_TILE);
                    lowered_u8_len = lowered_u8_len.max(u8_lowered_len(cols, patch));
                    let (input, output) = bufs.advance(geo.out_channels * cols);
                    steps.push(Step::Conv {
                        geo: *geo,
                        h,
                        w,
                        in_zp: zp,
                        panels: pack_conv_panels_i8(weight, geo.out_channels, patch),
                        folded_bias: fold_offset_bias(bias, weight, geo.out_channels, patch, zp),
                        mults: mults.clone(),
                        out_zp: out.zero_point,
                        relu: *relu,
                        input,
                        output,
                    });
                    c = geo.out_channels;
                    h = oh;
                    w = ow;
                    zp = out.zero_point;
                }
                QLayer::Depthwise {
                    channels,
                    kernel,
                    stride,
                    padding,
                    weight,
                    bias,
                    mults,
                    out,
                    relu,
                } => {
                    assert_filter_fits(*kernel, *stride, DW_BAND_CELLS);
                    let oh = (h + 2 * padding - kernel) / stride + 1;
                    let ow = (w + 2 * padding - kernel) / stride + 1;
                    let (input, output) = bufs.advance(channels * oh * ow);
                    steps.push(Step::Depthwise {
                        channels: *channels,
                        kernel: *kernel,
                        stride: *stride,
                        padding: *padding,
                        h,
                        w,
                        in_zp: zp,
                        weight: weight.clone(),
                        bias: bias.clone(),
                        mults: mults.clone(),
                        out_zp: out.zero_point,
                        relu: *relu,
                        input,
                        output,
                    });
                    h = oh;
                    w = ow;
                    zp = out.zero_point;
                }
                QLayer::Linear {
                    out_features,
                    weight,
                    bias,
                    mults,
                    out,
                    relu,
                } => {
                    let in_features = c * h * w;
                    // Fold the input zero point into the bias: in i32,
                    // Σ (x - zp) w == Σ x·w - zp·Σw exactly.
                    let folded_bias: Vec<i32> = (0..*out_features)
                        .map(|j| {
                            let wrow = &weight[j * in_features..(j + 1) * in_features];
                            fold_zero_point(bias[j], wrow, zp)
                        })
                        .collect();
                    let (input, output) = bufs.advance(*out_features);
                    steps.push(Step::Linear {
                        in_features,
                        out_features: *out_features,
                        weight: weight.clone(),
                        folded_bias,
                        mults: mults.clone(),
                        out_zp: out.zero_point,
                        relu: *relu,
                        input,
                        output,
                    });
                    c = *out_features;
                    h = 1;
                    w = 1;
                    zp = out.zero_point;
                }
                QLayer::MaxPool { kernel, stride } => {
                    let oh = (h - kernel) / stride + 1;
                    let ow = (w - kernel) / stride + 1;
                    let (input, output) = bufs.advance(c * oh * ow);
                    steps.push(Step::MaxPool {
                        channels: c,
                        h,
                        w,
                        kernel: *kernel,
                        stride: *stride,
                        input,
                        output,
                    });
                    h = oh;
                    w = ow;
                }
                QLayer::AvgPool { kernel, stride } => {
                    let oh = (h - kernel) / stride + 1;
                    let ow = (w - kernel) / stride + 1;
                    let (input, output) = bufs.advance(c * oh * ow);
                    steps.push(Step::AvgPool {
                        channels: c,
                        h,
                        w,
                        kernel: *kernel,
                        stride: *stride,
                        input,
                        output,
                    });
                    h = oh;
                    w = ow;
                }
                QLayer::GlobalAvgPool => {
                    let (input, output) = bufs.advance(c);
                    steps.push(Step::GlobalAvgPool {
                        channels: c,
                        h,
                        w,
                        input,
                        output,
                    });
                    h = 1;
                    w = 1;
                }
                QLayer::Relu => {
                    let buf = bufs.touch();
                    steps.push(Step::ReluInPlace { zp, buf });
                }
                QLayer::Flatten => {
                    // Shape-only: the buffer is reinterpreted, not moved.
                    c *= h * w;
                    h = 1;
                    w = 1;
                }
            }
        }

        let reqs: Vec<BufferReq> = bufs
            .sizes
            .iter()
            .zip(bufs.first.iter().zip(bufs.last.iter()))
            .map(|(&bytes, (&f, &l))| BufferReq::new(bytes, f, l))
            .collect();
        let name = traced.then_some(net.name());
        let unit = Plan::new(name, &steps, &reqs, 1, lowered_u8_len);
        let batch =
            (max_batch > 1).then(|| Plan::new(name, &steps, &reqs, max_batch, lowered_u8_len));
        let step_bytes = steps.iter().map(|s| s.io_bytes(&bufs.sizes)).collect();

        QuantizedProgram {
            name: net.name().to_string(),
            input_params: net.input_params(),
            output_params: net.output_params(),
            input_chw: chw,
            output_chw: (c, h, w),
            steps,
            buf_sizes: bufs.sizes,
            output_buf: bufs.cur,
            step_bytes,
            unit,
            batch,
        }
    }

    /// Network name (inherited from the float model).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Quantization parameters of the program input.
    pub fn input_params(&self) -> QuantParams {
        self.input_params
    }

    /// Quantization parameters of the program output.
    pub fn output_params(&self) -> QuantParams {
        self.output_params
    }

    /// The fixed input shape the program was compiled for.
    pub fn input_chw(&self) -> (usize, usize, usize) {
        self.input_chw
    }

    /// The output shape every run produces.
    pub fn output_chw(&self) -> (usize, usize, usize) {
        self.output_chw
    }

    /// Flat output element count.
    pub fn output_len(&self) -> usize {
        self.buf_sizes[self.output_buf]
    }

    /// Planned activation arena size in bytes — directly comparable to
    /// `np-dory`'s `activation_bytes` L2 bound (the program plan fuses
    /// ReLU in place and aliases reshapes, so it is `<=` that bound).
    pub fn arena_bytes(&self) -> usize {
        self.unit.arena_len
    }

    /// Naive per-frame allocation footprint this plan replaces: the sum of
    /// every intermediate buffer, with no offset reuse.
    pub fn naive_activation_bytes(&self) -> usize {
        self.buf_sizes.iter().sum()
    }

    /// Per-step workload descriptors, index-aligned with the program's
    /// step spans — the join key the `np-calib` profiler uses to tag each
    /// traced duration with the quantities the cycle model prices.
    pub fn step_workloads(&self) -> Vec<StepWorkload> {
        self.steps
            .iter()
            .enumerate()
            .map(|(index, s)| {
                let (kind, kernel, out_channels, macs, im2row_cols) = match *s {
                    Step::Conv { ref geo, h, w, .. } => {
                        let (oh, ow) = geo.out_hw(h, w);
                        let cols = (oh * ow) as u64;
                        let patch = (geo.in_channels * geo.kernel * geo.kernel) as u64;
                        (
                            s.kind(),
                            geo.kernel,
                            geo.out_channels,
                            cols * geo.out_channels as u64 * patch,
                            cols,
                        )
                    }
                    Step::Depthwise {
                        channels,
                        kernel,
                        stride,
                        padding,
                        h,
                        w,
                        ..
                    } => {
                        let oh = (h + 2 * padding - kernel) / stride + 1;
                        let ow = (w + 2 * padding - kernel) / stride + 1;
                        (
                            s.kind(),
                            kernel,
                            channels,
                            (oh * ow * channels * kernel * kernel) as u64,
                            0,
                        )
                    }
                    Step::Linear {
                        in_features,
                        out_features,
                        ..
                    } => (
                        s.kind(),
                        1,
                        out_features,
                        (in_features * out_features) as u64,
                        0,
                    ),
                    Step::MaxPool {
                        channels,
                        h,
                        w,
                        kernel,
                        stride,
                        ..
                    }
                    | Step::AvgPool {
                        channels,
                        h,
                        w,
                        kernel,
                        stride,
                        ..
                    } => {
                        let oh = (h - kernel) / stride + 1;
                        let ow = (w - kernel) / stride + 1;
                        (
                            s.kind(),
                            kernel,
                            channels,
                            (oh * ow * channels * kernel * kernel) as u64,
                            0,
                        )
                    }
                    Step::GlobalAvgPool { channels, h, w, .. } => {
                        (s.kind(), 1, channels, (channels * h * w) as u64, 0)
                    }
                    Step::ReluInPlace { buf, .. } => {
                        (s.kind(), 1, 0, self.buf_sizes[buf] as u64, 0)
                    }
                };
                StepWorkload {
                    index,
                    kind,
                    kernel,
                    out_channels,
                    macs,
                    io_bytes: self.step_bytes[index],
                    im2row_cols,
                }
            })
            .collect()
    }

    /// Bytes of pre-packed weights/biases held by the program.
    pub fn packed_weight_bytes(&self) -> usize {
        self.steps
            .iter()
            .map(|s| match s {
                Step::Conv {
                    panels,
                    folded_bias,
                    ..
                } => panels.len() + 4 * folded_bias.len(),
                Step::Depthwise { weight, bias, .. } => weight.len() + 4 * bias.len(),
                Step::Linear {
                    weight,
                    folded_bias,
                    ..
                } => weight.len() + 4 * folded_bias.len(),
                _ => 0,
            })
            .sum()
    }

    /// Runs the program on an already-quantized CHW image, writing every
    /// intermediate into `scratch`'s planned arena. Returns the output
    /// slice (borrowed from the scratch) and its shape. This is
    /// [`Self::run_int_batched`] with a batch of one.
    ///
    /// After `scratch` is warm (first call, or [`QScratch::for_program`])
    /// this performs **zero heap allocations** when `pool` is serial; on a
    /// wider pool only `std::thread::scope`'s per-region spawns allocate.
    /// Outputs are bit-identical to [`QuantizedNetwork::run_int`] at any
    /// pool width.
    ///
    /// # Panics
    ///
    /// Panics if `input` does not match the compiled input shape.
    pub fn run_int_prepacked<'s>(
        &self,
        pool: Pool,
        scratch: &'s mut QScratch,
        input: &[i8],
    ) -> (&'s [i8], (usize, usize, usize)) {
        self.run_int_batched(pool, scratch, input, 1)
    }

    /// Float-in/float-out single-frame entry: quantizes `frame` straight
    /// into the arena, runs the integer steps, and dequantizes the output
    /// into the scratch's f32 buffer. This is [`Self::forward_batched`]
    /// with a batch of one; same allocation guarantees as
    /// [`Self::run_int_prepacked`].
    ///
    /// # Panics
    ///
    /// Panics if `frame` does not match the compiled input shape.
    pub fn forward_prepacked<'s>(
        &self,
        pool: Pool,
        scratch: &'s mut QScratch,
        frame: &[f32],
    ) -> &'s [f32] {
        self.forward_batched(pool, scratch, frame, 1)
    }

    /// Largest batch size [`Self::run_int_batched`] accepts: the
    /// `max_batch` passed to [`QuantizedNetwork::compile_batched`], or 1
    /// for a plain [`QuantizedNetwork::compile`].
    pub fn max_batch(&self) -> usize {
        self.batch.as_ref().map_or(1, |p| p.max_batch)
    }

    /// Planned arena size of the batched path in bytes (equals
    /// [`Self::arena_bytes`] when the program was not batch-compiled).
    pub fn batched_arena_bytes(&self) -> usize {
        self.batch.as_ref().unwrap_or(&self.unit).arena_len
    }

    /// Runs `batch` already-quantized CHW frames (concatenated NCHW in
    /// `inputs`) through the step list in one pass. Returns the batched
    /// output (frame `b` owns `out[b*len..(b+1)*len]`) and the per-frame
    /// output shape.
    ///
    /// One frame runs on the unit plan; more run on the batch plan, where
    /// each conv step lowers all `batch` frames and sweeps the packed
    /// weight panels across their concatenated columns once, so
    /// per-panel weight traffic is paid per batch instead of per frame;
    /// depthwise/pool steps treat the batch as `batch × channels`
    /// independent planes; the linear step streams each weight row across
    /// all frames. Outputs are bit-identical to `batch` independent
    /// single-frame runs, at any pool width, and a warm scratch makes the
    /// pass allocation-free on a serial pool.
    ///
    /// # Panics
    ///
    /// Panics if `batch == 0`, if `batch > 1` and the program was not
    /// [`QuantizedNetwork::compile_batched`]-compiled with
    /// `max_batch >= batch`, or if `inputs` is not exactly `batch` input
    /// frames.
    pub fn run_int_batched<'s>(
        &self,
        pool: Pool,
        scratch: &'s mut QScratch,
        inputs: &[i8],
        batch: usize,
    ) -> (&'s [i8], (usize, usize, usize)) {
        let plan = self.plan_for(scratch, inputs.len(), batch);
        let in_off = plan.buf_offsets[0];
        scratch.arena[in_off..in_off + inputs.len()].copy_from_slice(inputs);
        self.exec_steps(pool, scratch, plan, batch);
        let (out_off, out_len) = self.buf_at(plan, self.output_buf, batch);
        (&scratch.arena[out_off..out_off + out_len], self.output_chw)
    }

    /// Float-in/float-out batched entry: quantizes `batch` concatenated
    /// frames into the arena, runs the integer steps, and dequantizes
    /// into the scratch's f32 buffer (frame `b` owns
    /// `out[b*len..(b+1)*len]`). Same guarantees as
    /// [`Self::run_int_batched`].
    ///
    /// # Panics
    ///
    /// As [`Self::run_int_batched`].
    pub fn forward_batched<'s>(
        &self,
        pool: Pool,
        scratch: &'s mut QScratch,
        frames: &[f32],
        batch: usize,
    ) -> &'s [f32] {
        let plan = self.plan_for(scratch, frames.len(), batch);
        let in_off = plan.buf_offsets[0];
        self.input_params
            .quantize_into(frames, &mut scratch.arena[in_off..in_off + frames.len()]);
        self.exec_steps(pool, scratch, plan, batch);
        let (out_off, out_len) = self.buf_at(plan, self.output_buf, batch);
        let QScratch { arena, out_f32, .. } = scratch;
        self.output_params
            .dequantize_into(&arena[out_off..out_off + out_len], &mut out_f32[..out_len]);
        &out_f32[..out_len]
    }

    /// Checks one entry call and picks its plan: the unit plan for a
    /// single frame, so its latency and spans are those of a plain
    /// [`QuantizedNetwork::compile`], and the batch plan above that.
    /// Grows `scratch` to the program's requirements.
    fn plan_for(&self, scratch: &mut QScratch, input_len: usize, batch: usize) -> &Plan {
        assert!(batch >= 1, "batch must be at least 1");
        let plan = if batch == 1 {
            &self.unit
        } else {
            let bp = self
                .batch
                .as_ref()
                .expect("program was not compiled with compile_batched");
            assert!(
                batch <= bp.max_batch,
                "batch {batch} exceeds compiled max_batch {}",
                bp.max_batch
            );
            bp
        };
        assert_eq!(input_len, batch * self.buf_sizes[0], "input size mismatch");
        scratch.reserve(self);
        plan
    }

    /// Offset and *live* length (`batch × size`) of buffer `id`'s region
    /// in `plan`.
    fn buf_at(&self, plan: &Plan, id: usize, batch: usize) -> (usize, usize) {
        (plan.buf_offsets[id], batch * self.buf_sizes[id])
    }

    /// Executes the step list over `batch` frames against a warm scratch
    /// laid out by `plan`. Within every buffer region the frames sit
    /// contiguously (NCHW), so depthwise/pool steps run the per-plane
    /// kernels over `batch × channels` planes, and conv and linear get
    /// the weight-amortized loops. Allocation-free, including the
    /// np-trace probes (spans were registered at compile time; recording
    /// writes into preallocated rings).
    fn exec_steps(&self, pool: Pool, scratch: &mut QScratch, plan: &Plan, batch: usize) {
        let QScratch {
            arena, lowered_u8, ..
        } = scratch;
        let buf = |id: usize| self.buf_at(plan, id, batch);
        let simd = simd_enabled();
        let run_start = np_trace::start();
        for (step_idx, step) in self.steps.iter().enumerate() {
            let step_start = np_trace::start();
            match step {
                Step::Conv {
                    geo,
                    h,
                    w,
                    in_zp,
                    panels,
                    folded_bias,
                    mults,
                    out_zp,
                    relu,
                    input,
                    output,
                } => {
                    let (oh, ow) = geo.out_hw(*h, *w);
                    let cols = oh * ow;
                    let patch = geo.in_channels * geo.kernel * geo.kernel;
                    let (in_off, in_len) = buf(*input);
                    let (out_off, out_len) = buf(*output);
                    let pool = pool.for_work(batch * geo.out_channels * patch * cols);
                    let lowered = &mut lowered_u8[..batch * u8_lowered_len(cols, patch)];
                    qim2row_u8_into(
                        &arena[in_off..in_off + in_len],
                        batch,
                        *h,
                        *w,
                        *in_zp,
                        *geo,
                        lowered,
                    );
                    qconv_panels_i8_into(
                        pool,
                        panels,
                        patch,
                        lowered,
                        folded_bias,
                        mults,
                        *out_zp,
                        *relu,
                        batch,
                        &mut arena[out_off..out_off + out_len],
                    );
                }
                Step::Depthwise {
                    channels,
                    kernel,
                    stride,
                    padding,
                    h,
                    w,
                    in_zp,
                    weight,
                    bias,
                    mults,
                    out_zp,
                    relu,
                    input,
                    output,
                } => {
                    let dw = Depthwise {
                        h: *h,
                        w: *w,
                        in_zp: *in_zp,
                        channels: *channels,
                        kernel: *kernel,
                        stride: *stride,
                        padding: *padding,
                        weight,
                        bias,
                        mults,
                        out_zp: *out_zp,
                        relu: *relu,
                    };
                    let (inp, outp) = disjoint_pair(arena, buf(*input), buf(*output));
                    qdepthwise_into(pool, &dw, inp, outp);
                }
                Step::Linear {
                    in_features,
                    out_features,
                    weight,
                    folded_bias,
                    mults,
                    out_zp,
                    relu,
                    input,
                    output,
                } => {
                    let (inp, outp) = disjoint_pair(arena, buf(*input), buf(*output));
                    // Weight-row outer, frame inner: each row is streamed
                    // from memory once per pass instead of once per frame
                    // — the FC layer is pure GEMV, so this is where all of
                    // its batch win comes from. Per-output accumulation
                    // order is unchanged (r-ascending), so results stay
                    // bit-exact.
                    for j in 0..*out_features {
                        let wrow = &weight[j * in_features..(j + 1) * in_features];
                        for b in 0..batch {
                            let x = &inp[b * in_features..(b + 1) * in_features];
                            let mut a = folded_bias[j];
                            for (&xv, &wv) in x.iter().zip(wrow.iter()) {
                                a += xv as i32 * wv as i32;
                            }
                            let mut q = requantize_to_i8(a, mults[j], *out_zp);
                            if *relu && (q as i32) < *out_zp {
                                q = (*out_zp).clamp(-128, 127) as i8;
                            }
                            outp[b * out_features + j] = q;
                        }
                    }
                }
                Step::MaxPool {
                    h,
                    w,
                    kernel,
                    stride,
                    input,
                    output,
                    ..
                } => {
                    let oh = (h - kernel) / stride + 1;
                    let ow = (w - kernel) / stride + 1;
                    let (inp, outp) = disjoint_pair(arena, buf(*input), buf(*output));
                    let k2 = kernel * kernel;
                    for_each_plane(pool, inp, h * w, outp, oh * ow, k2, |plane, dst| {
                        qmax_pool_plane(plane, *w, *kernel, *stride, dst, ow, simd);
                    });
                }
                Step::AvgPool {
                    h,
                    w,
                    kernel,
                    stride,
                    input,
                    output,
                    ..
                } => {
                    let oh = (h - kernel) / stride + 1;
                    let ow = (w - kernel) / stride + 1;
                    let (inp, outp) = disjoint_pair(arena, buf(*input), buf(*output));
                    let k2 = kernel * kernel;
                    for_each_plane(pool, inp, h * w, outp, oh * ow, k2, |plane, dst| {
                        qavg_pool_plane(plane, *w, *kernel, *stride, dst, ow, simd);
                    });
                }
                Step::GlobalAvgPool {
                    h,
                    w,
                    input,
                    output,
                    ..
                } => {
                    let div = (h * w) as i32;
                    let (inp, outp) = disjoint_pair(arena, buf(*input), buf(*output));
                    for (o, plane) in outp.iter_mut().zip(inp.chunks_exact(h * w)) {
                        *o = round_div(plane.iter().map(|&v| v as i32).sum(), div);
                    }
                }
                Step::ReluInPlace { zp, buf: id } => {
                    let (off, len) = buf(*id);
                    let floor = (*zp).clamp(-128, 127) as i8;
                    for v in &mut arena[off..off + len] {
                        if (*v as i32) < *zp {
                            *v = floor;
                        }
                    }
                }
            }
            np_trace::finish(
                plan.step_spans[step_idx],
                step_start,
                batch as u64 * self.step_bytes[step_idx],
            );
        }
        let run_bytes = if plan.max_batch == 1 { 0 } else { batch as u64 };
        np_trace::finish(plan.run_span, run_start, run_bytes);
    }
}

/// Runs `body(in_plane, out_plane)` over the consecutive
/// `in_plane`/`out_plane`-element planes of `inp`/`outp`, parallel over
/// whole planes. `taps` is the per-output-element work that sizes the
/// pool (see [`Pool::for_work`]); chunk boundaries depend only on the
/// shape, so results never depend on the pool width.
fn for_each_plane(
    pool: Pool,
    inp: &[i8],
    in_plane: usize,
    outp: &mut [i8],
    out_plane: usize,
    taps: usize,
    body: impl Fn(&[i8], &mut [i8]) + Sync,
) {
    let planes = outp.len() / out_plane.max(1);
    let pool = pool.for_work(planes * taps * out_plane);
    let chunk_len = pool.chunk_len_for(planes, out_plane);
    let per_chunk = chunk_len / out_plane.max(1);
    pool.for_each_chunk(outp, chunk_len, |idx, chunk| {
        for (j, dst) in chunk.chunks_mut(out_plane).enumerate() {
            let pi = idx * per_chunk + j;
            body(&inp[pi * in_plane..(pi + 1) * in_plane], dst);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use np_nn::init::{Initializer, SmallRng};
    use np_nn::layers::{BatchNorm2d, Conv2d, DepthwiseConv2d, Flatten, Linear, MaxPool2d, Relu};
    use np_nn::Sequential;
    use np_tensor::Tensor;

    /// Conv/BN/ReLU/depthwise/pool/linear mix sized for `side x side`
    /// inputs (`side` must be a multiple of 8).
    fn mixed_net(rng: &mut SmallRng, side: usize) -> Sequential {
        let pooled = side / 4;
        Sequential::with_name(
            "mini-mixed",
            vec![
                Box::new(Conv2d::new(1, 5, 3, 2, 1, Initializer::KaimingUniform, rng)),
                Box::new(BatchNorm2d::new(5)),
                Box::new(Relu::new()),
                Box::new(DepthwiseConv2d::new(
                    5,
                    3,
                    1,
                    1,
                    Initializer::KaimingUniform,
                    rng,
                )),
                Box::new(Relu::new()),
                Box::new(MaxPool2d::new(2, 2)),
                Box::new(Conv2d::new(5, 6, 3, 1, 1, Initializer::KaimingUniform, rng)),
                Box::new(Relu::new()),
                Box::new(Flatten::new()),
                Box::new(Linear::new(
                    6 * pooled * pooled,
                    3,
                    Initializer::KaimingUniform,
                    rng,
                )),
            ],
        )
    }

    fn calib_batch(rng: &mut SmallRng, n: usize, side: usize) -> Tensor {
        let data: Vec<f32> = (0..n * side * side)
            .map(|_| rng.uniform(-1.0, 1.0))
            .collect();
        Tensor::from_vec(&[n, 1, side, side], data)
    }

    #[test]
    fn prepacked_matches_run_int_exactly() {
        let mut rng = SmallRng::seed(42);
        let net = mixed_net(&mut rng, 16);
        let calib = calib_batch(&mut rng, 8, 16);
        let qnet = QuantizedNetwork::quantize(&net, &calib);
        let program = qnet.compile((1, 16, 16));
        let mut scratch = QScratch::for_program(&program);

        for seed in 0..5u64 {
            let mut s = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
            let input: Vec<i8> = (0..256)
                .map(|_| {
                    s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
                    (s >> 56) as i8
                })
                .collect();
            let (want, want_shape) = qnet.run_int(&input, (1, 16, 16));
            for threads in [1, 2, 4] {
                let (got, got_shape) =
                    program.run_int_prepacked(Pool::new(threads), &mut scratch, &input);
                assert_eq!(got_shape, want_shape);
                assert_eq!(got, &want[..], "seed {seed}, {threads} threads");
            }
        }
    }

    #[test]
    fn forward_prepacked_matches_dequantized_run_int() {
        let mut rng = SmallRng::seed(43);
        let net = mixed_net(&mut rng, 16);
        let calib = calib_batch(&mut rng, 8, 16);
        let qnet = QuantizedNetwork::quantize(&net, &calib);
        let program = qnet.compile((1, 16, 16));
        let mut scratch = QScratch::new();

        let frame = calib_batch(&mut rng, 1, 16);
        let xq = qnet.input_params().quantize_slice(frame.as_slice());
        let want = qnet
            .output_params()
            .dequantize_slice(&qnet.run_int(&xq, (1, 16, 16)).0);
        let got = program.forward_prepacked(Pool::serial(), &mut scratch, frame.as_slice());
        assert_eq!(got, &want[..]);
    }

    #[test]
    fn arena_is_smaller_than_naive_sum_and_output_survives() {
        let mut rng = SmallRng::seed(44);
        let net = mixed_net(&mut rng, 16);
        let calib = calib_batch(&mut rng, 4, 16);
        let qnet = QuantizedNetwork::quantize(&net, &calib);
        let program = qnet.compile((1, 16, 16));
        assert!(program.arena_bytes() < program.naive_activation_bytes());
        assert_eq!(program.output_chw(), (3, 1, 1));
        assert_eq!(program.output_len(), 3);
        assert!(program.packed_weight_bytes() > 0);
    }

    /// A one-layer network over a 4×4 input: a depthwise filter, or a
    /// conv filter with 2 output channels, of size `kernel` at stride 1.
    fn wide_filter_net(kernel: usize, depthwise: bool) -> QuantizedNetwork {
        let mut rng = SmallRng::seed(46);
        let layer: Box<dyn np_nn::Layer> = if depthwise {
            Box::new(DepthwiseConv2d::new(
                2,
                kernel,
                1,
                kernel / 2,
                Initializer::KaimingUniform,
                &mut rng,
            ))
        } else {
            Box::new(Conv2d::new(
                2,
                2,
                kernel,
                1,
                kernel / 2,
                Initializer::KaimingUniform,
                &mut rng,
            ))
        };
        let net = Sequential::with_name("wide-filter", vec![layer]);
        let calib = Tensor::from_vec(
            &[2, 2, 4, 4],
            (0..64).map(|i| i as f32 / 32.0 - 1.0).collect(),
        );
        QuantizedNetwork::quantize(&net, &calib)
    }

    /// The widest filters the stack tiles admit compile and run exactly;
    /// one tap wider fails at compile time, not on the first frame.
    #[test]
    fn filter_size_limits_are_checked_at_compile_time() {
        let input: Vec<i8> = (0..32).map(|i| (i * 7 % 23) as i8 - 11).collect();
        for (kernel, depthwise) in [(45, true), (64, false)] {
            let qnet = wide_filter_net(kernel, depthwise);
            let program = qnet.compile((2, 4, 4));
            let mut scratch = QScratch::for_program(&program);
            let (want, _) = qnet.run_int(&input, (2, 4, 4));
            let (got, _) = program.run_int_prepacked(Pool::serial(), &mut scratch, &input);
            assert_eq!(got, &want[..], "kernel {kernel}");

            let wider = wide_filter_net(kernel + 1, depthwise);
            let err = std::panic::catch_unwind(|| wider.compile((2, 4, 4)))
                .expect_err("a filter past the tile must not compile");
            let msg = err
                .downcast_ref::<String>()
                .expect("formatted panic message");
            assert!(msg.contains("exceeds the"), "{msg}");
        }
    }

    #[test]
    fn step_workloads_align_with_steps_and_count_macs() {
        let mut rng = SmallRng::seed(45);
        let net = mixed_net(&mut rng, 16);
        let calib = calib_batch(&mut rng, 4, 16);
        let qnet = QuantizedNetwork::quantize(&net, &calib);
        let program = qnet.compile((1, 16, 16));
        let loads = program.step_workloads();
        assert_eq!(loads.len(), program.steps.len());
        for (i, l) in loads.iter().enumerate() {
            assert_eq!(l.index, i);
            assert_eq!(l.kind, program.steps[i].kind());
            assert_eq!(l.io_bytes, program.step_bytes[i]);
            assert!(l.macs > 0, "step {i} ({}) has zero macs", l.kind);
        }
        // First conv: 1→5 channels, k=3, stride 2 on 16x16 → 8x8 out.
        let conv = &loads[0];
        assert_eq!(conv.kind, "conv");
        assert_eq!(conv.im2row_cols, 64);
        assert_eq!(conv.macs, 64 * 5 * 9);
        // Maxpool 2x2/2 on 8x8x5 → 4x4x5: window elems and buffer bytes.
        let pool = loads.iter().find(|l| l.kind == "maxpool").unwrap();
        assert_eq!(pool.macs, 4 * 4 * 5 * 4);
        assert_eq!(pool.io_bytes, (8 * 8 * 5 + 4 * 4 * 5) as u64);
        assert_eq!(pool.im2row_cols, 0);
        // Linear: in=6*4*4, out=3.
        let lin = loads.iter().find(|l| l.kind == "linear").unwrap();
        assert_eq!(lin.macs, (6 * 4 * 4 * 3) as u64);
    }

    #[test]
    fn batched_run_matches_per_frame_runs_exactly() {
        // The batched pass over the mixed net (conv, dw, maxpool, linear,
        // standalone relu) must equal B independent per-frame runs
        // bit-for-bit, for every batch size up to max_batch and at
        // several pool widths.
        let mut rng = SmallRng::seed(46);
        let net = mixed_net(&mut rng, 16);
        let calib = calib_batch(&mut rng, 8, 16);
        let qnet = QuantizedNetwork::quantize(&net, &calib);
        let program = qnet.compile_batched((1, 16, 16), 8);
        assert_eq!(program.max_batch(), 8);
        assert!(program.batched_arena_bytes() >= program.arena_bytes());
        let mut scratch = QScratch::for_program(&program);

        let mut s = 0xBADC0FFEu64;
        let inputs: Vec<i8> = (0..8 * 256)
            .map(|_| {
                s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
                (s >> 56) as i8
            })
            .collect();
        for batch in [1usize, 2, 3, 8] {
            let mut want = Vec::new();
            for b in 0..batch {
                let (out, _) = program.run_int_prepacked(
                    Pool::serial(),
                    &mut scratch,
                    &inputs[b * 256..(b + 1) * 256],
                );
                want.extend_from_slice(out);
            }
            for threads in [1usize, 2, 4] {
                let (got, shape) = program.run_int_batched(
                    Pool::new(threads),
                    &mut scratch,
                    &inputs[..batch * 256],
                    batch,
                );
                assert_eq!(shape, program.output_chw());
                assert_eq!(got, &want[..], "batch {batch} threads {threads}");
            }
        }
    }

    #[test]
    fn forward_batched_matches_forward_prepacked() {
        let mut rng = SmallRng::seed(47);
        let net = mixed_net(&mut rng, 16);
        let calib = calib_batch(&mut rng, 8, 16);
        let qnet = QuantizedNetwork::quantize(&net, &calib);
        let program = qnet.compile_batched((1, 16, 16), 4);
        let mut scratch = QScratch::for_program(&program);

        let frames = calib_batch(&mut rng, 4, 16);
        let mut want = Vec::new();
        for b in 0..4 {
            want.extend_from_slice(program.forward_prepacked(
                Pool::serial(),
                &mut scratch,
                &frames.as_slice()[b * 256..(b + 1) * 256],
            ));
        }
        let got = program.forward_batched(Pool::serial(), &mut scratch, frames.as_slice(), 4);
        assert_eq!(got, &want[..]);
    }

    #[test]
    #[should_panic(expected = "compile_batched")]
    fn batched_run_requires_a_batch_plan() {
        let mut rng = SmallRng::seed(48);
        let net = mixed_net(&mut rng, 16);
        let calib = calib_batch(&mut rng, 4, 16);
        let qnet = QuantizedNetwork::quantize(&net, &calib);
        let program = qnet.compile((1, 16, 16));
        let mut scratch = QScratch::for_program(&program);
        let inputs = vec![0i8; 2 * 256];
        let _ = program.run_int_batched(Pool::serial(), &mut scratch, &inputs, 2);
    }

    /// `batch == 0` is refused by the entry check itself, before any
    /// plan or kernel sees it, whether or not a batch plan exists.
    fn run_empty_batch(max_batch: usize) {
        let mut rng = SmallRng::seed(49);
        let net = mixed_net(&mut rng, 16);
        let calib = calib_batch(&mut rng, 4, 16);
        let qnet = QuantizedNetwork::quantize(&net, &calib);
        let program = if max_batch == 1 {
            qnet.compile((1, 16, 16))
        } else {
            qnet.compile_batched((1, 16, 16), max_batch)
        };
        let mut scratch = QScratch::for_program(&program);
        let _ = program.run_int_batched(Pool::serial(), &mut scratch, &[], 0);
    }

    #[test]
    #[should_panic(expected = "batch must be at least 1")]
    fn empty_batch_is_rejected_on_a_plain_program() {
        run_empty_batch(1);
    }

    #[test]
    #[should_panic(expected = "batch must be at least 1")]
    fn empty_batch_is_rejected_on_a_batch_compiled_program() {
        run_empty_batch(4);
    }

    #[test]
    fn scratch_is_shareable_across_programs() {
        let mut rng = SmallRng::seed(45);
        let net = mixed_net(&mut rng, 16);
        let calib = calib_batch(&mut rng, 4, 16);
        let qnet = QuantizedNetwork::quantize(&net, &calib);
        let p16 = qnet.compile((1, 16, 16));
        // A second, larger program shares the scratch.
        let net32 = mixed_net(&mut SmallRng::seed(42), 32);
        let qnet32 = QuantizedNetwork::quantize(&net32, &calib_batch(&mut rng, 4, 32));
        let p32 = qnet32.compile((1, 32, 32));
        let mut scratch = QScratch::for_programs(&[&p16, &p32]);

        let x16 = vec![7i8; 256];
        let x32 = vec![-3i8; 1024];
        let (want16, _) = qnet.run_int(&x16, (1, 16, 16));
        let (want32, _) = qnet32.run_int(&x32, (1, 32, 32));
        let (got16, _) = p16.run_int_prepacked(Pool::serial(), &mut scratch, &x16);
        assert_eq!(got16, &want16[..]);
        let (got32, _) = p32.run_int_prepacked(Pool::serial(), &mut scratch, &x32);
        assert_eq!(got32, &want32[..]);
        // And interleaved again: stale arena contents must not leak.
        let (got16b, _) = p16.run_int_prepacked(Pool::serial(), &mut scratch, &x16);
        assert_eq!(got16b, &want16[..]);
    }
}
