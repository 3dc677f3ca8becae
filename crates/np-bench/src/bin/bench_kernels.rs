//! Kernel micro-benchmark harness emitting `BENCH_kernels.json`.
//!
//! Three questions, answered with wall time and effective MAC/s:
//!
//! 1. Does the im2row-lowered raw-i8 conv, the path compiled programs
//!    run, beat the direct loop nest at the dominant layer shape of every
//!    paper network (F1, F2, M1.0)?
//! 2. How does the row-chunked float GEMM scale across pool widths
//!    (`NP_THREADS`-style 1/2/4)?
//! 3. How fast do the compiled program's depthwise and pooling steps run
//!    at the M1.0 and F1 proxy shapes that dominate their profiles?
//!
//! Numbers are measured on the machine that runs the binary. On a
//! single-core container the threaded rows report the scheduling-overhead
//! floor rather than a speedup — the JSON records `cpus_available` so a
//! reader can tell which regime a checked-in baseline came from.
//!
//! Usage: `cargo run --release -p np-bench --bin bench_kernels [out.json]`

use np_bench::{best_ns_interleaved, lowered_qconv};
use np_nn::init::{Initializer, SmallRng};
use np_nn::layers::{DepthwiseConv2d, MaxPool2d};
use np_nn::{Layer, Sequential};
use np_quant::kernels::{qconv2d_reference, QConvGeometry};
use np_quant::lowering::{patch_stride, u8_lowered_len};
use np_quant::microkernel::{fold_offset_bias, pack_conv_panels_i8, qconv_panels_i8_into, NR_I8};
use np_quant::requant::FixedMultiplier;
use np_quant::{QScratch, QuantizedNetwork, QuantizedProgram};
use np_tensor::matmul::matmul_acc_with;
use np_tensor::parallel::Pool;
use np_tensor::Tensor;
use std::fmt::Write as _;
use std::hint::black_box;

/// Dominant conv layer of each paper network at the 96×160 deployment
/// resolution (same table as `benches/kernels.rs`).
const PAPER_SHAPES: [(&str, QConvGeometry, usize, usize); 3] = [
    (
        "F1_stem_5x5",
        QConvGeometry {
            in_channels: 1,
            out_channels: 32,
            kernel: 5,
            stride: 2,
            padding: 2,
        },
        96,
        160,
    ),
    (
        "F2_block_3x3",
        QConvGeometry {
            in_channels: 40,
            out_channels: 16,
            kernel: 3,
            stride: 2,
            padding: 1,
        },
        24,
        40,
    ),
    (
        "M1.0_pointwise",
        QConvGeometry {
            in_channels: 60,
            out_channels: 60,
            kernel: 1,
            stride: 1,
            padding: 0,
        },
        12,
        20,
    ),
];

/// Panel-microkernel shapes for the cross-frame batching sweep, as
/// `(label, out_channels, patch, output pixels per frame)`. All four are
/// GEMV-shaped M1.0 layers — few output columns per frame, so at B=1 the
/// packed weight panels are re-streamed for only a handful of columns:
///
/// * the dominant pointwise block at deployment (12×20) and proxy (3×5)
///   resolution,
/// * the 4-output regression head as a 1-column "conv" (pure GEMV), and
/// * the deployment-width MobileNet tail pointwise (1024×1024 at 3×5),
///   whose 2 MiB packed panel set does not fit any L1/L2 and is therefore
///   genuinely re-streamed from outer cache levels every frame.
const BATCH_SHAPES: [(&str, usize, usize, usize); 4] = [
    ("M1.0_pointwise", 60, 60, 240),
    ("M1.0_pointwise_proxy", 60, 60, 15),
    ("M1.0_head_gemv", 4, 900, 1),
    ("M1.0_deploy_tail_pw", 1024, 1024, 15),
];

/// A single-step program at one of the 48×80 proxy shapes that dominate
/// the depthwise and pooling profiles, its input, and its MACs (window
/// elements for a pool, as `StepWorkload` counts them).
struct StepBench {
    label: &'static str,
    program: QuantizedProgram,
    scratch: QScratch,
    input: Vec<i8>,
    macs: u64,
}

impl StepBench {
    fn new(label: &'static str, layer: Box<dyn Layer>, (c, h, w): (usize, usize, usize)) -> Self {
        let net = Sequential::with_name(label, vec![layer]);
        let calib = Tensor::from_vec(&[2, c, h, w], pseudo_f32(2 * c * h * w, 41));
        let program = QuantizedNetwork::quantize(&net, &calib).compile((c, h, w));
        let macs = program.step_workloads().iter().map(|s| s.macs).sum();
        StepBench {
            label,
            scratch: QScratch::for_program(&program),
            program,
            input: pseudo_i8(c * h * w, 42),
            macs,
        }
    }
}

/// M1.0 depthwise steps 01 (24×40×24, s1), 03 (24×40×32, s2) and 13
/// (3×5×60, s1), and F1's 2×2/s2 stem max-pool (24×40×32).
fn step_benches() -> Vec<StepBench> {
    let mut rng = SmallRng::seed(31);
    let mut dw = |c: usize, s: usize| -> Box<dyn Layer> {
        Box::new(DepthwiseConv2d::new(
            c,
            3,
            s,
            1,
            Initializer::KaimingUniform,
            &mut rng,
        ))
    };
    vec![
        StepBench::new("M1.0_dw01_24x40x24_s1", dw(24, 1), (24, 24, 40)),
        StepBench::new("M1.0_dw03_24x40x32_s2", dw(32, 2), (32, 24, 40)),
        StepBench::new("M1.0_dw13_3x5x60_s1", dw(60, 1), (60, 3, 5)),
        StepBench::new(
            "F1_maxpool_24x40x32_2x2s2",
            Box::new(MaxPool2d::new(2, 2)),
            (32, 24, 40),
        ),
    ]
}

/// Frames processed per measurement in the batch sweep; every batch size
/// divides it so each row does the same total work.
const BATCH_FRAMES: usize = 8;
const BATCH_SWEEP: [usize; 4] = [1, 2, 4, 8];

const WARMUP: usize = 3;
const REPS: usize = 30;

fn pseudo_f32(n: usize, seed: u64) -> Vec<f32> {
    let mut s = seed + 1;
    (0..n)
        .map(|_| {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((s >> 40) as i32 % 200) as f32 / 100.0 - 1.0
        })
        .collect()
}

fn pseudo_i8(n: usize, seed: u64) -> Vec<i8> {
    let mut s = seed + 1;
    (0..n)
        .map(|_| {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
            (s >> 40) as u8 as i8
        })
        .collect()
}

/// Best-of-`REPS` wall time of `f` in nanoseconds (minimum filters out
/// scheduler noise, the standard micro-benchmark estimator).
fn time_ns(mut f: impl FnMut()) -> f64 {
    best_ns_interleaved(1, WARMUP, REPS, |_| f())[0]
}

fn mac_per_s(macs: u64, ns: f64) -> f64 {
    macs as f64 / (ns * 1e-9)
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_kernels.json".to_string());
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());

    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(json, "  \"cpus_available\": {cpus},");
    let _ = writeln!(json, "  \"reps\": {REPS},");
    json.push_str("  \"qconv2d_direct_vs_lowered\": [\n");

    let mut all_lowered_win = true;
    for (i, (label, geo, h, w)) in PAPER_SHAPES.iter().enumerate() {
        let (geo, h, w) = (*geo, *h, *w);
        let qx = pseudo_i8(geo.in_channels * h * w, 11);
        let qw = pseudo_i8(
            geo.out_channels * geo.in_channels * geo.kernel * geo.kernel,
            12,
        );
        let qb = vec![100i32; geo.out_channels];
        let qm = vec![FixedMultiplier::from_real(0.003); geo.out_channels];
        let (oh, ow) = geo.out_hw(h, w);
        let macs = (geo.out_channels * oh * ow * geo.in_channels * geo.kernel * geo.kernel) as u64;

        let direct_ns = time_ns(|| {
            black_box(qconv2d_reference(
                black_box(&qx),
                h,
                w,
                -3,
                geo,
                &qw,
                &qb,
                &qm,
                5,
                true,
            ));
        });
        let lowered_ns = time_ns(|| {
            black_box(lowered_qconv(
                Pool::serial(),
                black_box(&qx),
                h,
                w,
                -3,
                geo,
                &qw,
                &qb,
                &qm,
                5,
            ));
        });
        let speedup = direct_ns / lowered_ns;
        all_lowered_win &= speedup > 1.0;
        eprintln!(
            "[bench_kernels] {label}: direct {direct_ns:.0} ns, lowered {lowered_ns:.0} ns \
             ({speedup:.2}x, {:.1} MMAC/s lowered)",
            mac_per_s(macs, lowered_ns) / 1e6
        );
        let _ = writeln!(
            json,
            "    {{\"shape\": \"{label}\", \"macs\": {macs}, \
             \"direct_ns\": {direct_ns:.0}, \"lowered_ns\": {lowered_ns:.0}, \
             \"direct_mac_per_s\": {:.0}, \"lowered_mac_per_s\": {:.0}, \
             \"speedup\": {speedup:.3}}}{}",
            mac_per_s(macs, direct_ns),
            mac_per_s(macs, lowered_ns),
            if i + 1 < PAPER_SHAPES.len() { "," } else { "" },
        );
    }
    json.push_str("  ],\n");

    // On a single-CPU container every pool width degrades to the serial
    // path, so t2/t4 rows would all read 1.00x and say nothing about
    // scaling — skip them and record that we did, instead of checking in
    // numbers that look like a (non-)result.
    let thread_widths: &[usize] = if cpus == 1 { &[1] } else { &[1, 2, 4] };
    let _ = writeln!(
        json,
        "  \"gemm_threads_skipped_single_cpu\": {},",
        cpus == 1
    );
    if cpus == 1 {
        eprintln!(
            "[bench_kernels] single CPU: skipping gemm pool widths 2 and 4 \
             (rows would be meaningless 1.00x serial reruns)"
        );
    }
    json.push_str("  \"gemm_by_pool_width\": [\n");

    for (i, (label, geo, h, w)) in PAPER_SHAPES.iter().enumerate() {
        let (geo, h, w) = (*geo, *h, *w);
        let (oh, ow) = geo.out_hw(h, w);
        let (m, k, n) = (
            geo.out_channels,
            geo.in_channels * geo.kernel * geo.kernel,
            oh * ow,
        );
        let macs = (m * k * n) as u64;
        let ga = pseudo_f32(m * k, 13);
        let gb = pseudo_f32(k * n, 14);
        let mut base_ns = 0.0;
        let mut entries = String::new();
        for &threads in thread_widths {
            let pool = Pool::new(threads);
            let ns = time_ns(|| {
                let mut gc = vec![0.0f32; m * n];
                matmul_acc_with(pool, black_box(&ga), &gb, &mut gc, m, k, n);
                black_box(&gc);
            });
            if threads == 1 {
                base_ns = ns;
            }
            let speedup = base_ns / ns;
            eprintln!(
                "[bench_kernels] gemm {label} ({m}x{k}x{n}) t{threads}: {ns:.0} ns \
                 ({speedup:.2}x vs t1, {:.1} MMAC/s)",
                mac_per_s(macs, ns) / 1e6
            );
            let _ = writeln!(
                entries,
                "      {{\"threads\": {threads}, \"ns\": {ns:.0}, \
                 \"mac_per_s\": {:.0}, \"speedup_vs_serial\": {speedup:.3}}}{}",
                mac_per_s(macs, ns),
                if threads != *thread_widths.last().expect("non-empty widths") {
                    ","
                } else {
                    ""
                },
            );
        }
        let _ = writeln!(
            json,
            "    {{\"shape\": \"{label}\", \"m\": {m}, \"k\": {k}, \"n\": {n}, \
             \"macs\": {macs}, \"by_threads\": [\n{entries}    ]}}{}",
            if i + 1 < PAPER_SHAPES.len() { "," } else { "" },
        );
    }
    json.push_str("  ],\n");

    // Cross-frame batching: aggregate throughput for the same BATCH_FRAMES
    // frames when they are processed in groups of B through the batched
    // raw-i8 panel kernel (B=1 uses the single-frame kernel, i.e. the
    // exact code path `run_int_prepacked` takes).
    // `aggregate_speedup_vs_b1` is the frames-per-second ratio the batch
    // collector buys at each group size. With 16-column tiles, frames
    // inside a group share whole weight-panel streams across a 256-column
    // pixel block, so the slope at B≥4 is the weight-amortization the
    // ROADMAP's >2× batched target needs.
    //
    // The curve is regime-dependent and the JSON says so: on a host whose
    // packed panels sit in cache and whose single-frame kernel is already
    // compute-bound (this container: 1 CPU, AVX2), batching amortizes only
    // per-panel setup and NR-tail columns, so the measured win is small.
    // The ≥2× target applies where B=1 genuinely re-streams weight panels
    // per frame (DRAM-resident weights, or a GAP8-class device refetching
    // L2 weights per invocation) or where extra columns unlock idle cores.
    let _ = writeln!(
        json,
        "  \"panel_batch_regime\": \"{}\",",
        if cpus == 1 {
            "single-cpu compute-bound: speedup_vs_b1 measures setup/tail \
             amortization only, not weight-streaming relief"
        } else {
            "multi-cpu: speedup_vs_b1 includes thread amortization from \
             batch-widened columns"
        }
    );
    json.push_str("  \"panel_batch_sweep\": [\n");
    let mut batch8_speedups: Vec<(&str, f64)> = Vec::new();
    for (i, (label, oc, patch, cols)) in BATCH_SHAPES.iter().enumerate() {
        let (oc, patch, cols) = (*oc, *patch, *cols);
        let ps = patch_stride(patch);
        let in_zp = -3i32;
        let weight = pseudo_i8(oc * patch, 21);
        let packed = pack_conv_panels_i8(&weight, oc, patch);
        let fb = fold_offset_bias(&vec![100i32; oc], &weight, oc, patch, in_zp);
        let mults = vec![FixedMultiplier::from_real(0.003); oc];
        // Per-frame-blocked batched u8 lowering: frame b owns the slice
        // [b*flen, (b+1)*flen) — byte-identical to eight independent
        // single-frame lowerings laid end to end, in the column-block
        // interleave the i8 kernel consumes.
        let flen = u8_lowered_len(cols, patch);
        let vals = pseudo_i8(BATCH_FRAMES * cols * patch, 22);
        let mut lowered = vec![(in_zp + 128) as u8; BATCH_FRAMES * flen];
        for f in 0..BATCH_FRAMES {
            for col in 0..cols {
                for r in 0..patch {
                    lowered[f * flen
                        + (col / NR_I8) * NR_I8 * ps
                        + (r / 2) * 2 * NR_I8
                        + 2 * (col % NR_I8)
                        + (r & 1)] = (vals[(f * cols + col) * patch + r] as u8) ^ 0x80;
                }
            }
        }
        let frame_macs = (oc * patch * cols) as u64;
        let total_macs = BATCH_FRAMES as u64 * frame_macs;
        let mut out = vec![0i8; BATCH_FRAMES * oc * cols];
        // The batch sizes are the arms of the B=8-vs-B=1 gate below, so
        // they are timed interleaved.
        let sweep_ns = best_ns_interleaved(BATCH_SWEEP.len(), WARMUP, REPS, |arm| {
            let b = BATCH_SWEEP[arm];
            for g in 0..BATCH_FRAMES / b {
                let low = &lowered[g * b * flen..(g + 1) * b * flen];
                let o = &mut out[g * b * oc * cols..(g + 1) * b * oc * cols];
                qconv_panels_i8_into(
                    Pool::serial(),
                    &packed,
                    patch,
                    black_box(low),
                    &fb,
                    &mults,
                    5,
                    true,
                    b,
                    o,
                );
            }
            black_box(&out);
        });
        let b1_ns = sweep_ns[0];
        let mut rows = String::new();
        for (&b, &ns) in BATCH_SWEEP.iter().zip(&sweep_ns) {
            let speedup = b1_ns / ns;
            if b == 8 {
                batch8_speedups.push((label, speedup));
            }
            eprintln!(
                "[bench_kernels] batch {label} B={b}: {ns:.0} ns / {BATCH_FRAMES} frames \
                 ({speedup:.2}x vs B=1, {:.1} MMAC/s)",
                mac_per_s(total_macs, ns) / 1e6
            );
            let _ = writeln!(
                rows,
                "      {{\"batch\": {b}, \"ns\": {ns:.0}, \"mac_per_s\": {:.0}, \
                 \"aggregate_speedup_vs_b1\": {speedup:.3}}}{}",
                mac_per_s(total_macs, ns),
                if b != *BATCH_SWEEP.last().expect("non-empty sweep") {
                    ","
                } else {
                    ""
                },
            );
        }
        let _ = writeln!(
            json,
            "    {{\"shape\": \"{label}\", \"out_channels\": {oc}, \"patch\": {patch}, \
             \"cols_per_frame\": {cols}, \"frames\": {BATCH_FRAMES}, \
             \"frame_macs\": {frame_macs}, \"by_batch\": [\n{rows}    ]}}{}",
            if i + 1 < BATCH_SHAPES.len() { "," } else { "" },
        );
    }
    json.push_str("  ],\n");

    // Compiled single-step programs, timed as interleaved arms so the rows
    // share the host's state.
    let mut steps = step_benches();
    let step_ns = best_ns_interleaved(steps.len(), WARMUP, REPS, |arm| {
        let s = &mut steps[arm];
        black_box(
            s.program
                .run_int_prepacked(Pool::serial(), &mut s.scratch, black_box(&s.input)),
        );
    });
    json.push_str("  \"program_steps\": [\n");
    for (i, (s, ns)) in steps.iter().zip(&step_ns).enumerate() {
        let gmacs = mac_per_s(s.macs, *ns) / 1e9;
        eprintln!(
            "[bench_kernels] step {}: {ns:.0} ns ({gmacs:.2} GMAC/s)",
            s.label
        );
        let _ = writeln!(
            json,
            "    {{\"shape\": \"{}\", \"macs\": {}, \"ns\": {ns:.0}, \"gmacs\": {gmacs:.3}}}{}",
            s.label,
            s.macs,
            if i + 1 < steps.len() { "," } else { "" },
        );
    }
    json.push_str("  ]\n}\n");

    std::fs::write(&out_path, &json).expect("write benchmark json");
    println!("{json}");
    assert!(
        all_lowered_win,
        "im2col-lowered qconv2d lost to the direct loop on at least one shape"
    );
    for (label, speedup) in &batch8_speedups {
        assert!(
            *speedup > 0.95,
            "batched panel kernel lost throughput at B=8 on {label}: {speedup:.3}x"
        );
    }
    eprintln!("[bench_kernels] wrote {out_path}");
}
