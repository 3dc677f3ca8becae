//! End-to-end inference benchmark emitting `BENCH_pipeline.json`.
//!
//! Measures the plan-once/run-many runtime per frame:
//!
//! 1. **Prepacked** — `QuantizedProgram::run_int_prepacked` (planned
//!    arena, packed weight panels) on the F1 / F2 / M1.0 proxies: wall
//!    time, heap allocations from a counting global allocator (which must
//!    be zero), and the packed-weight and scratch bytes of both conv
//!    weight formats.
//! 2. **Batched throughput** — the same programs over 8 frames in groups
//!    of B through `run_int_batched`, with a B=8-vs-B=1 no-loss gate.
//! 3. **Streaming ensembles** — the paper's D1 = (F1, M1.0) and
//!    D2 = (F2, M1.0) adaptive loops driven by [`FrameRunner`] over a
//!    synthetic frame stream, reporting per-frame latency, big-model
//!    rate, and steady-state allocations (which must be zero).
//!
//! Numbers are machine-local; `cpus_available` is recorded so a reader
//! can tell which regime a checked-in baseline came from.
//!
//! Usage: `cargo run --release -p np-bench --bin bench_pipeline [out.json]`

use np_adaptive::FrameRunner;
use np_bench::best_ns_interleaved;
use np_nn::init::SmallRng;
use np_quant::{QScratch, QuantizedNetwork};
use np_tensor::parallel::Pool;
use np_tensor::Tensor;
use np_zoo::channels::PROXY_INPUT;
use np_zoo::ModelId;
use std::alloc::{GlobalAlloc, Layout, System};
use std::fmt::Write as _;
use std::hint::black_box;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

struct CountingAlloc;

static ALLOCS: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const WARMUP: usize = 3;
const REPS: usize = 30;
const STREAM_FRAMES: usize = 60;

fn pseudo_frames(n: usize, seed: u64) -> Tensor {
    let (c, h, w) = PROXY_INPUT;
    let mut s = seed + 1;
    let data: Vec<f32> = (0..n * c * h * w)
        .map(|_| {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((s >> 40) as i32 % 200) as f32 / 100.0 - 1.0
        })
        .collect();
    Tensor::from_vec(&[n, c, h, w], data)
}

/// Heap allocations performed by one call of `f` (call after warm-up).
fn allocs_of(mut f: impl FnMut()) -> usize {
    f(); // warm-up: let scratch growth happen outside the measurement
    let before = ALLOCS.load(Ordering::Relaxed);
    f();
    ALLOCS.load(Ordering::Relaxed) - before
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_pipeline.json".to_string());
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let pool = Pool::serial();
    let calib = pseudo_frames(4, 7);
    let frame = pseudo_frames(1, 8);

    let mut rng = SmallRng::seed(3);
    let nets: Vec<(ModelId, QuantizedNetwork)> = [ModelId::F1, ModelId::F2, ModelId::M10]
        .into_iter()
        .map(|id| {
            let net = id.build_proxy(&mut rng);
            (id, QuantizedNetwork::quantize(&net, &calib))
        })
        .collect();

    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(json, "  \"cpus_available\": {cpus},");
    let _ = writeln!(json, "  \"reps\": {REPS},");
    let _ = writeln!(
        json,
        "  \"input_chw\": [{}, {}, {}],",
        PROXY_INPUT.0, PROXY_INPUT.1, PROXY_INPUT.2
    );
    // The key predates the deletion of the alloc-per-frame arm; it stays
    // so `bench_compare` keeps matching these fields against the baseline.
    json.push_str("  \"alloc_per_frame_vs_prepacked\": [\n");

    let mut prepacked_alloc_free = true;
    for (i, (id, qnet)) in nets.iter().enumerate() {
        let program = qnet.compile(PROXY_INPUT);
        let mut scratch = QScratch::for_program(&program);
        let q = qnet.input_params().quantize_slice(frame.as_slice());

        let prepacked_ns = best_ns_interleaved(1, WARMUP, REPS, |_| {
            black_box(program.run_int_prepacked(pool, &mut scratch, black_box(&q)));
        })[0];
        let prepacked_allocs = allocs_of(|| {
            black_box(program.run_int_prepacked(pool, &mut scratch, black_box(&q)));
        });

        prepacked_alloc_free &= prepacked_allocs == 0;
        eprintln!(
            "[bench_pipeline] {}: prepacked {:.0} ns ({} allocs); packed {} B",
            id.name(),
            prepacked_ns,
            prepacked_allocs,
            program.packed_weight_bytes(),
        );
        let _ = writeln!(
            json,
            "    {{\"model\": \"{}\", \"arena_bytes\": {}, \"packed_weight_bytes\": {}, \
             \"prepacked_ns\": {prepacked_ns:.0}, \"prepacked_allocs_per_frame\": {prepacked_allocs}}}{}",
            id.name(),
            program.arena_bytes(),
            program.packed_weight_bytes(),
            if i + 1 < nets.len() { "," } else { "" },
        );
    }
    json.push_str("  ],\n");

    // Cross-frame batching on the whole compiled program: the same 8
    // frames processed in groups of B through `run_int_batched` (B=1 is
    // `run_int_prepacked`, so the sweep's first row doubles as the B=1
    // latency guard bench_compare checks against the baseline). On this
    // proxy the depthwise stack — which batching cannot amortize — owns
    // most of the frame, so the whole-model curve is flatter than the
    // panel-kernel sweep in BENCH_kernels.json; both gates here are
    // no-regression plus zero steady-state allocations.
    json.push_str("  \"batched_throughput\": [\n");
    const BATCH_SWEEP: [usize; 4] = [1, 2, 4, 8];
    const BATCH_FRAMES: usize = 8;
    let (c, h, w) = PROXY_INPUT;
    let frame_len = c * h * w;
    let mut batched_no_loss = true;
    let mut batched_alloc_free = true;
    for (i, (id, qnet)) in nets.iter().enumerate() {
        let program = qnet.compile_batched(PROXY_INPUT, BATCH_FRAMES);
        let mut scratch = QScratch::for_program(&program);
        let stream = pseudo_frames(BATCH_FRAMES, 9);
        let qs = qnet.input_params().quantize_slice(stream.as_slice());

        let run_all = |scratch: &mut QScratch, b: usize| {
            for g in 0..BATCH_FRAMES / b {
                let qb = &qs[g * b * frame_len..(g + 1) * b * frame_len];
                black_box(program.run_int_batched(pool, scratch, black_box(qb), b));
            }
        };
        // The batch sizes are the arms of the B=8-vs-B=1 gate below, so
        // they are timed interleaved.
        let sweep_ns = best_ns_interleaved(BATCH_SWEEP.len(), WARMUP, REPS, |arm| {
            run_all(&mut scratch, BATCH_SWEEP[arm])
        });
        let b1_ns = sweep_ns[0];
        let mut rows = String::new();
        for (&b, &ns) in BATCH_SWEEP.iter().zip(&sweep_ns) {
            let allocs = allocs_of(|| run_all(&mut scratch, b));
            let speedup = b1_ns / ns;
            if b == BATCH_FRAMES {
                batched_no_loss &= speedup >= 0.95;
            }
            batched_alloc_free &= allocs == 0;
            let per_frame_ns = ns / BATCH_FRAMES as f64;
            eprintln!(
                "[bench_pipeline] {} B={b}: {per_frame_ns:.0} ns/frame \
                 ({speedup:.2}x vs B=1, {allocs} allocs)",
                id.name()
            );
            let _ = writeln!(
                rows,
                "      {{\"batch\": {b}, \"per_frame_ns\": {per_frame_ns:.0}, \
                 \"aggregate_speedup_vs_b1\": {speedup:.3}, \
                 \"steady_state_allocs\": {allocs}}}{}",
                if b != *BATCH_SWEEP.last().expect("non-empty sweep") {
                    ","
                } else {
                    ""
                },
            );
        }
        let _ = writeln!(
            json,
            "    {{\"model\": \"{}\", \"frames\": {BATCH_FRAMES}, \
             \"batched_arena_bytes\": {}, \"by_batch\": [\n{rows}    ]}}{}",
            id.name(),
            program.batched_arena_bytes(),
            if i + 1 < nets.len() { "," } else { "" },
        );
    }
    json.push_str("  ],\n");
    json.push_str("  \"streaming_ensembles\": [\n");

    // A stream with motion on every 4th frame so both policy paths run.
    let still = pseudo_frames(1, 21);
    let moving = pseudo_frames(1, 22);
    let ensembles = [("D1", ModelId::F1), ("D2", ModelId::F2)];
    for (i, (name, little_id)) in ensembles.iter().enumerate() {
        let little = &nets.iter().find(|(id, _)| id == little_id).unwrap().1;
        let big = &nets.iter().find(|(id, _)| *id == ModelId::M10).unwrap().1;
        let mut runner = FrameRunner::new(little, big, PROXY_INPUT, 0.05, pool);

        // Warm-up: first frame always runs the full ensemble.
        let _ = runner.run_frame(still.as_slice());
        let before_allocs = ALLOCS.load(Ordering::Relaxed);
        let t = Instant::now();
        let mut big_frames = 0usize;
        for f in 0..STREAM_FRAMES {
            let x = if f % 4 == 0 { &moving } else { &still };
            let r = runner.run_frame(x.as_slice());
            if r.decision.runs_big() {
                big_frames += 1;
            }
            black_box(r.scaled);
        }
        let total_ns = t.elapsed().as_secs_f64() * 1e9;
        let steady_allocs = ALLOCS.load(Ordering::Relaxed) - before_allocs;
        let per_frame_ns = total_ns / STREAM_FRAMES as f64;
        let big_rate = big_frames as f64 / STREAM_FRAMES as f64;
        eprintln!(
            "[bench_pipeline] {name}: {per_frame_ns:.0} ns/frame, big rate {big_rate:.2}, \
             {steady_allocs} allocs over {STREAM_FRAMES} steady frames, arena {} B",
            runner.arena_bytes()
        );
        let _ = writeln!(
            json,
            "    {{\"ensemble\": \"{name}\", \"little\": \"{}\", \"big\": \"M1.0\", \
             \"frames\": {STREAM_FRAMES}, \"per_frame_ns\": {per_frame_ns:.0}, \
             \"big_rate\": {big_rate:.3}, \"steady_state_allocs\": {steady_allocs}, \
             \"shared_arena_bytes\": {}}}{}",
            little_id.name(),
            runner.arena_bytes(),
            if i + 1 < ensembles.len() { "," } else { "" },
        );
    }
    json.push_str("  ]\n}\n");

    std::fs::write(&out_path, &json).expect("write benchmark json");
    println!("{json}");
    assert!(
        prepacked_alloc_free,
        "prepacked path allocated in steady state"
    );
    assert!(
        batched_no_loss,
        "run_int_batched lost aggregate throughput at B=8 vs B=1"
    );
    assert!(batched_alloc_free, "batched path allocated in steady state");
    eprintln!("[bench_pipeline] wrote {out_path}");
}
