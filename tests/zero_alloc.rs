//! Proof of the "zero-allocation steady state" claim: a counting global
//! allocator wraps the system allocator, and after one warm-up frame the
//! compiled F1 / F2 / M1.0 programs (unit and batched), the streaming
//! [`FrameRunner`] of both paper ensembles and the `np-serve` tick loop
//! must perform exactly zero heap allocations per frame on a serial pool.
//!
//! Everything runs inside a single `#[test]` so no concurrent test can
//! pollute the allocation counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
use std::sync::atomic::{AtomicUsize, Ordering};

use nanopose::adaptive::FrameRunner;
use nanopose::nn::init::{Initializer, SmallRng};
use nanopose::nn::layers::{BatchNorm2d, Conv2d, DepthwiseConv2d, Flatten, Linear, Relu};
use nanopose::nn::Sequential;
use nanopose::quant::{QScratch, QuantizedNetwork};
use nanopose::serve::{ServeConfig, Server, ServingEnsemble, SessionId};
use nanopose::tensor::parallel::Pool;
use nanopose::tensor::Tensor;
use nanopose::zoo::channels::PROXY_INPUT;
use nanopose::zoo::ModelId;

struct CountingAlloc;

static ALLOCS: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::SeqCst);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::SeqCst);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::SeqCst);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations performed while running `f`.
fn allocs_during<R>(f: impl FnOnce() -> R) -> (usize, R) {
    let before = ALLOCS.load(Ordering::SeqCst);
    let r = f();
    (ALLOCS.load(Ordering::SeqCst) - before, r)
}

fn frames(n: usize, seed: u64) -> Tensor {
    let (c, h, w) = PROXY_INPUT;
    let mut s = seed;
    let data: Vec<f32> = (0..n * c * h * w)
        .map(|_| {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((s >> 40) as i32 % 200) as f32 / 100.0 - 1.0
        })
        .collect();
    Tensor::from_vec(&[n, c, h, w], data)
}

/// Depthwise-heavy network with ragged channel counts (5, 9, 11): every
/// pointwise conv ends on a partial microkernel panel and the depthwise
/// fast path handles both the interior loop and padded edges. Mirrors the
/// parity network in `tests/prepacked.rs`.
fn build_dw_heavy(rng: &mut SmallRng) -> Sequential {
    let k = Initializer::KaimingUniform;
    Sequential::with_name(
        "dw-heavy-ragged",
        vec![
            Box::new(Conv2d::new(1, 5, 3, 2, 1, k, rng)),
            Box::new(Relu::new()),
            Box::new(DepthwiseConv2d::new(5, 5, 1, 2, k, rng)),
            Box::new(Relu::new()),
            Box::new(Conv2d::new(5, 9, 1, 1, 0, k, rng)),
            Box::new(BatchNorm2d::new(9)),
            Box::new(Relu::new()),
            Box::new(DepthwiseConv2d::new(9, 3, 2, 1, k, rng)),
            Box::new(Relu::new()),
            Box::new(Conv2d::new(9, 11, 1, 1, 0, k, rng)),
            Box::new(Relu::new()),
            Box::new(DepthwiseConv2d::new(11, 3, 1, 1, k, rng)),
            Box::new(Relu::new()),
            Box::new(Flatten::new()),
            Box::new(Linear::new(11 * 12 * 20, 4, k, rng)),
        ],
    )
}

/// The paper's three proxies: F1 and F2 are the little members of D1
/// and D2, M1.0 the big member of both.
const PROXIES: [ModelId; 3] = [ModelId::F1, ModelId::F2, ModelId::M10];

/// Runs `f` once to warm up, then asserts that each of three more calls
/// performs zero heap allocations.
fn assert_steady(what: &str, mut f: impl FnMut()) {
    f();
    for _ in 0..3 {
        let (n, ()) = allocs_during(&mut f);
        assert_eq!(n, 0, "{what} allocated in steady state");
    }
}

#[test]
fn steady_state_frames_do_not_allocate() {
    let pool = Pool::serial();
    let calib = frames(3, 50);
    let mut rng = SmallRng::seed(77);
    let qnets: Vec<QuantizedNetwork> = PROXIES
        .iter()
        .map(|id| QuantizedNetwork::quantize(&id.build_proxy(&mut rng), &calib))
        .collect();
    let frame = frames(1, 51);
    let moved = frames(1, 52);
    let frame_len = frame.as_slice().len();

    // --- Quantized programs: int8 entry and float entry, every proxy -----
    // Warm-up grows an empty scratch to the program's planned sizes.
    for (id, qnet) in PROXIES.iter().zip(&qnets) {
        let program = qnet.compile(PROXY_INPUT);
        let mut scratch = QScratch::new();
        let q = qnet.input_params().quantize_slice(frame.as_slice());
        assert_steady(&format!("{} run_int_prepacked", id.name()), || {
            black_box(program.run_int_prepacked(pool, &mut scratch, &q));
        });
        assert_steady(&format!("{} forward_prepacked", id.name()), || {
            black_box(program.forward_prepacked(pool, &mut scratch, frame.as_slice()));
        });
    }

    // --- Depthwise-heavy ragged-channel network --------------------------
    // The microkernel's ragged-panel tails and the depthwise interior/edge
    // split must also run without touching the heap.
    let mut dwnet = build_dw_heavy(&mut rng);
    let _ = dwnet.forward_train(&calib);
    let qdw = QuantizedNetwork::quantize(&dwnet, &calib);
    let dwprogram = qdw.compile(PROXY_INPUT);
    let mut dwscratch = QScratch::for_program(&dwprogram);
    let qdw_in = qdw.input_params().quantize_slice(frame.as_slice());
    assert_steady("dw-heavy run_int_prepacked", || {
        black_box(dwprogram.run_int_prepacked(pool, &mut dwscratch, &qdw_in));
    });

    // --- Batched steady state, every proxy -------------------------------
    // The cross-frame batched pass shares every guarantee of the
    // per-frame one: after the scratch is warm, 8 frames run in groups of
    // B without touching the heap — im2row staging, the batched
    // microkernel sweep, depthwise planes, and the linear loop included.
    let batch_frames = frames(8, 53);
    for (id, qnet) in PROXIES.iter().zip(&qnets) {
        let bprogram = qnet.compile_batched(PROXY_INPUT, 8);
        let mut bscratch = QScratch::for_program(&bprogram);
        let qbatch = qnet.input_params().quantize_slice(batch_frames.as_slice());
        let mut run_groups = |b: usize| {
            for group in qbatch.chunks_exact(b * frame_len) {
                black_box(bprogram.run_int_batched(pool, &mut bscratch, group, b));
            }
        };
        assert_steady(&format!("{} run_int_batched at B=8", id.name()), || {
            run_groups(8)
        });
        // Smaller and partial groups reuse a prefix of the same plan: zero
        // from their first call.
        for b in [4, 2, 1, 3] {
            let (n, ()) = allocs_during(|| run_groups(b));
            assert_eq!(n, 0, "{} run_int_batched at B={b} allocated", id.name());
        }
        assert_steady(&format!("{} forward_batched", id.name()), || {
            black_box(bprogram.forward_batched(pool, &mut bscratch, batch_frames.as_slice(), 8));
        });
    }

    // --- Streaming runners: D1 and D2, both policy paths -----------------
    // At th = 0 a new frame moves the little outputs and runs the
    // ensemble, and its repeat runs the little model alone.
    let big = &qnets[2];
    for (name, little) in [("D1", &qnets[0]), ("D2", &qnets[1])] {
        let mut runner = FrameRunner::new(little, big, PROXY_INPUT, 0.0, pool);
        let _ = runner.run_frame(frame.as_slice()); // first frame: ensemble warm-up
        for (i, x) in [&moved, &moved, &frame, &frame].into_iter().enumerate() {
            let (n, r) = allocs_during(|| runner.run_frame(x.as_slice()));
            assert_eq!(
                n, 0,
                "{name} FrameRunner frame allocated (decision {:?})",
                r.decision
            );
            assert_eq!(r.decision.runs_big(), i % 2 == 0, "{name} frame {i}");
        }
    }

    // --- Serving: session slab + multiplexed tick loop -------------------
    // Admission hands out warm slab slots, and the steady submit → tick →
    // commit cycle across several sessions — little passes into private
    // arenas, policy walk, cross-session coalesced big passes — must not
    // touch the heap. Every round also retires one session and admits a
    // replacement, which recycles the retired arena rather than freeing it.
    let ens = ServingEnsemble::compile(&qnets[0], big, PROXY_INPUT, 3);
    let mut server = Server::new(
        &ens,
        pool,
        ServeConfig {
            max_sessions: 3,
            queue_capacity: 2,
        },
    );
    let mut ids: Vec<SessionId> = (0..3)
        .map(|_| server.admit(0.5).expect("slab sized for the fleet"))
        .collect();
    // Warm-up: first frames run the full ensemble, so both the per-slot
    // little arenas and the shared coalescing scratch see their peak.
    for t in 0..4u64 {
        for id in &ids {
            assert!(server.submit(*id, moved.as_slice(), t));
        }
        let _ = server.serve(t);
    }
    let slots_before = server.allocated_slots();
    for t in 0..3u64 {
        let (n, _) = allocs_during(|| {
            for id in &ids {
                assert!(server.submit(*id, frame.as_slice(), t));
            }
            server.serve(t).len()
        });
        assert_eq!(n, 0, "steady multi-session serving round {t} allocated");
        let churn = t as usize % ids.len();
        let (n, _) = allocs_during(|| {
            assert!(server.retire(ids[churn]));
            ids[churn] = server.admit(0.5).expect("freelist slot available");
            assert!(server.submit(ids[churn], moved.as_slice(), t));
            server.serve(t).len()
        });
        assert_eq!(n, 0, "session admit/retire churn allocated in round {t}");
    }
    assert_eq!(
        server.allocated_slots(),
        slots_before,
        "retired arenas must be reused, not freed"
    );

    // --- Instrumented steady state (trace feature only) ------------------
    // With the recorder installed *and* enabled, the per-step spans, frame
    // events and counters must all land in preallocated storage: the
    // instrumented hot path still performs zero heap allocations.
    #[cfg(feature = "trace")]
    {
        let program = qnets[0].compile(PROXY_INPUT);
        let mut scratch = QScratch::for_program(&program);
        let q = qnets[0].input_params().quantize_slice(frame.as_slice());
        let bprogram = qnets[0].compile_batched(PROXY_INPUT, 8);
        let mut bscratch = QScratch::for_program(&bprogram);
        let mut runner = FrameRunner::new(&qnets[0], big, PROXY_INPUT, 0.5, pool);
        let _ = runner.run_frame(moved.as_slice()); // first frame: ensemble warm-up

        nanopose::trace::install(nanopose::trace::TraceConfig::default());
        nanopose::trace::enable();

        let _ = program.run_int_prepacked(pool, &mut scratch, &q);
        for _ in 0..3 {
            let (n, _) = allocs_during(|| {
                let (out, _) = program.run_int_prepacked(pool, &mut scratch, &q);
                out[0]
            });
            assert_eq!(n, 0, "instrumented run_int_prepacked allocated");
        }

        let _ = runner.run_frame(frame.as_slice());
        for _ in 0..3 {
            let (n, r) = allocs_during(|| runner.run_frame(moved.as_slice()));
            assert_eq!(
                n, 0,
                "instrumented FrameRunner frame allocated (decision {:?})",
                r.decision
            );
        }
        // Overflow the span ring deliberately: wraparound must overwrite in
        // place, never grow.
        let cap = nanopose::trace::TraceConfig::default().span_events;
        let steps_per_frame = 32; // upper bound for both proxy programs
        let frames_to_wrap = cap / steps_per_frame + 2;
        let (n, _) = allocs_during(|| {
            for _ in 0..frames_to_wrap.min(4096) {
                let _ = program.run_int_prepacked(pool, &mut scratch, &q);
            }
        });
        assert_eq!(n, 0, "span-ring wraparound allocated");

        // A single frame through the batched entry of a batch-compiled
        // program is a batch of one on the per-frame plan: it records the
        // `{name}/NN-kind` step spans and the `{name}/frame` span with the
        // per-frame byte counts, and never a `{name}@batch/` span.
        nanopose::trace::reset();
        let _ = bprogram.forward_batched(pool, &mut bscratch, frame.as_slice(), 1);
        let summary = nanopose::trace::summary();
        let recorded = |name: &str| {
            summary
                .iter()
                .filter(|s| s.name == name && s.count > 0)
                .collect::<Vec<_>>()
        };
        let batch_prefix = format!("{}@batch/", bprogram.name());
        assert!(
            summary
                .iter()
                .all(|s| s.count == 0 || !s.name.starts_with(&batch_prefix)),
            "a b=1 pass recorded batch-plan spans"
        );
        for w in bprogram.step_workloads() {
            let name = format!("{}/{:02}-{}", bprogram.name(), w.index, w.kind);
            let spans = recorded(&name);
            assert_eq!(spans.len(), 1, "b=1 pass did not record {name} once");
            assert_eq!((spans[0].count, spans[0].bytes), (1, w.io_bytes), "{name}");
        }
        let frame_span = recorded(&format!("{}/frame", bprogram.name()));
        assert_eq!(
            frame_span.len(),
            1,
            "b=1 pass did not record the frame span"
        );
        assert_eq!((frame_span[0].count, frame_span[0].bytes), (1, 0));

        assert!(nanopose::trace::active());
        nanopose::trace::disable();
        let (n, _) = allocs_during(|| {
            let (out, _) = program.run_int_prepacked(pool, &mut scratch, &q);
            out[0]
        });
        assert_eq!(n, 0, "disabled recorder allocated");
    }
}
