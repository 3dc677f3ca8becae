//! Proof of the "zero-allocation steady state" claim: a counting global
//! allocator wraps the system allocator, and after one warm-up frame the
//! compiled programs (and the streaming [`FrameRunner`]) must perform
//! exactly zero heap allocations per frame on a serial pool.
//!
//! Everything runs inside a single `#[test]` so no concurrent test can
//! pollute the allocation counter.

use std::alloc::{GlobalAlloc, Layout, System};
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

#[test]
fn steady_state_frames_do_not_allocate() {
    let pool = Pool::serial();
    let calib = frames(3, 50);
    let mut rng = SmallRng::seed(77);

    // --- Quantized program: int8 entry and float entry -------------------
    let net = ModelId::F1.build_proxy(&mut rng);
    let qnet = QuantizedNetwork::quantize(&net, &calib);
    let program = qnet.compile(PROXY_INPUT);
    let mut scratch = QScratch::new();
    let frame = frames(1, 51);
    let q = qnet.input_params().quantize_slice(frame.as_slice());

    // Warm-up grows the scratch to the program's planned sizes.
    let _ = program.run_int_prepacked(pool, &mut scratch, &q);
    for _ in 0..3 {
        let (n, _) = allocs_during(|| {
            let (out, _) = program.run_int_prepacked(pool, &mut scratch, &q);
            out[0]
        });
        assert_eq!(n, 0, "run_int_prepacked allocated in steady state");
    }

    let _ = program.forward_prepacked(pool, &mut scratch, frame.as_slice());
    for _ in 0..3 {
        let (n, _) =
            allocs_during(|| program.forward_prepacked(pool, &mut scratch, frame.as_slice())[0]);
        assert_eq!(n, 0, "forward_prepacked allocated in steady state");
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
    let _ = dwprogram.run_int_prepacked(pool, &mut dwscratch, &qdw_in);
    for _ in 0..3 {
        let (n, _) = allocs_during(|| {
            let (out, _) = dwprogram.run_int_prepacked(pool, &mut dwscratch, &qdw_in);
            out[0]
        });
        assert_eq!(n, 0, "dw-heavy run_int_prepacked allocated in steady state");
    }

    // --- Batched steady state --------------------------------------------
    // The cross-frame batched pass shares every guarantee of the
    // per-frame one: after the scratch is warm, a whole B=8 group runs
    // without touching the heap — im2row staging, the batched microkernel
    // sweep, depthwise planes, and the linear loop included.
    let bprogram = qnet.compile_batched(PROXY_INPUT, 8);
    let mut bscratch = QScratch::for_program(&bprogram);
    let batch_frames = frames(8, 53);
    let qbatch = qnet.input_params().quantize_slice(batch_frames.as_slice());
    let _ = bprogram.run_int_batched(pool, &mut bscratch, &qbatch, 8);
    for _ in 0..3 {
        let (n, _) = allocs_during(|| {
            let (out, _) = bprogram.run_int_batched(pool, &mut bscratch, &qbatch, 8);
            out[0]
        });
        assert_eq!(n, 0, "run_int_batched allocated in steady state");
    }
    // Partial batches reuse a prefix of the same plan: still zero.
    let (n, _) = allocs_during(|| {
        let (out, _) =
            bprogram.run_int_batched(pool, &mut bscratch, &qbatch[..3 * qbatch.len() / 8], 3);
        out[0]
    });
    assert_eq!(n, 0, "partial run_int_batched allocated in steady state");

    let _ = bprogram.forward_batched(pool, &mut bscratch, batch_frames.as_slice(), 8);
    for _ in 0..3 {
        let (n, _) = allocs_during(|| {
            bprogram.forward_batched(pool, &mut bscratch, batch_frames.as_slice(), 8)[0]
        });
        assert_eq!(n, 0, "forward_batched allocated in steady state");
    }

    // --- Streaming runner: both the ensemble and the small-only path -----
    let big = ModelId::M10.build_proxy(&mut rng);
    let qbig = QuantizedNetwork::quantize(&big, &calib);
    let mut runner = FrameRunner::new(&qnet, &qbig, PROXY_INPUT, 0.5, pool);
    let _ = runner.run_frame(frame.as_slice()); // first frame: ensemble warm-up
    let moved = frames(1, 52);
    let (n, r) = allocs_during(|| runner.run_frame(moved.as_slice()));
    assert_eq!(
        n, 0,
        "FrameRunner frame allocated (decision {:?})",
        r.decision
    );
    let (n, r) = allocs_during(|| runner.run_frame(moved.as_slice()));
    assert_eq!(
        n, 0,
        "FrameRunner frame allocated (decision {:?})",
        r.decision
    );
    assert!(!r.decision.runs_big(), "identical frame should stay small");

    // --- Serving: session slab + multiplexed tick loop -------------------
    // Admission hands out warm slab slots, and the steady submit → tick →
    // commit cycle across several sessions — little passes into private
    // arenas, policy walk, cross-session coalesced big passes — must not
    // touch the heap. Retiring a session and admitting a replacement
    // recycles the retired arena rather than freeing it.
    let ens = ServingEnsemble::compile(&qnet, &qbig, PROXY_INPUT, 3);
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
    let (n, _) = allocs_during(|| {
        let mut served = 0;
        for t in 0..3u64 {
            for id in &ids {
                assert!(server.submit(*id, frame.as_slice(), t));
            }
            served += server.serve(t).len();
        }
        served
    });
    assert_eq!(n, 0, "steady multi-session serving loop allocated");
    let (n, _) = allocs_during(|| {
        assert!(server.retire(ids[0]));
        ids[0] = server.admit(0.5).expect("freelist slot available");
        assert!(server.submit(ids[0], moved.as_slice(), 9));
        server.serve(9).len()
    });
    assert_eq!(n, 0, "session admit/retire churn allocated");
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
