//! Multi-stream serving benchmark.
//!
//! Drives the `np-serve` session-multiplexing server with simulated drone
//! streams over the paper's D1 ensemble (F1 little, M1.0 big) and gates
//! the properties the serving layer promises:
//!
//! 1. **Exactness** — every served per-session result stream must be
//!    bit-identical to its isolated
//!    [`FrameRunner`](np_adaptive::FrameRunner) baseline, even though
//!    escalations coalesce into cross-session micro-batches.
//! 2. **Throughput** — N concurrent sessions multiplexed across one pool
//!    vs the same N streams served back-to-back on isolated runners
//!    sharing the same packed programs. On a multi-core host the
//!    multiplexed aggregate fps must be ≥ 1.5× sequential; on a
//!    single-CPU box the gate relaxes to no-regression (≥ 0.9×), since
//!    there is no parallelism to harvest — only scheduling overhead to
//!    not pay.
//! 3. **SLO** — under a seeded deterministic Poisson load at ~0.2 of
//!    sequential capacity, served p99 latency (virtual clock advanced by
//!    measured execution time) must stay within 2× the isolated
//!    per-frame p99. The gate applies on multi-core hosts, where
//!    colliding arrivals run in parallel; on a single CPU collisions
//!    necessarily serialize — each pileup adds a whole service time —
//!    so the run reports p99 against the limit without gating on it.
//!
//! Every gate is evaluated and its verdict printed; the process exits
//! non-zero naming each gate that failed. The steady-state serving loop's
//! zero-allocation guarantee is pinned by `tests/zero_alloc.rs`.
//!
//! Usage: `cargo run --release -p np-bench --bin bench_serving [-- --smoke]`

use np_adaptive::FrameResult;
use np_nn::init::SmallRng;
use np_quant::QuantizedNetwork;
use np_serve::{PoissonArrivals, ServeConfig, Served, Server, ServingEnsemble, SessionId};
use np_tensor::parallel::{cpus_available, Pool};
use np_tensor::Tensor;
use np_zoo::channels::PROXY_INPUT;
use np_zoo::ModelId;
use std::hint::black_box;
use std::time::Instant;

const TH: f32 = 0.05;
const MAX_COALESCE: usize = 4;
const SLO_FACTOR: f64 = 2.0;

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

/// One simulated drone stream: a per-session still/moving frame pair with
/// motion every third frame, offset by the session index so escalations
/// land on different ticks across sessions and the coalescer sees ragged
/// micro-batches.
struct Stream {
    frames: Vec<f32>,
    frame_len: usize,
}

impl Stream {
    fn synthesize(session: usize, n_frames: usize) -> Self {
        let still = pseudo_frames(1, 200 + session as u64);
        let moving = pseudo_frames(1, 300 + session as u64);
        let frame_len = still.as_slice().len();
        let mut frames = Vec::with_capacity(n_frames * frame_len);
        for f in 0..n_frames {
            let src = if (f + session).is_multiple_of(3) {
                &moving
            } else {
                &still
            };
            frames.extend_from_slice(src.as_slice());
        }
        Stream { frames, frame_len }
    }

    fn frame(&self, i: usize) -> &[f32] {
        &self.frames[i * self.frame_len..(i + 1) * self.frame_len]
    }

    fn len(&self) -> usize {
        self.frames.len() / self.frame_len
    }
}

fn exact_quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() as f64 - 1.0) * q).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

fn main() {
    let smoke = std::env::args().skip(1).any(|arg| arg == "--smoke");
    let cpus = cpus_available();
    let pool = Pool::new(cpus);
    let (n_sessions, n_frames, reps) = if smoke { (4, 12, 5) } else { (8, 32, 5) };

    eprintln!(
        "[bench_serving] {n_sessions} sessions x {n_frames} frames, pool {cpus} \
         thread(s){}",
        if smoke { ", smoke mode" } else { "" }
    );

    // Shared compiled programs: the paper's D1 ensemble on the proxy
    // shapes, the big model carrying a batch plan for cross-session
    // coalescing.
    let calib = pseudo_frames(4, 7);
    let mut rng = SmallRng::seed(3);
    let little = QuantizedNetwork::quantize(&ModelId::F1.build_proxy(&mut rng), &calib);
    let big = QuantizedNetwork::quantize(&ModelId::M10.build_proxy(&mut rng), &calib);
    let ens = ServingEnsemble::compile(&little, &big, PROXY_INPUT, MAX_COALESCE);
    let streams: Vec<Stream> = (0..n_sessions)
        .map(|s| Stream::synthesize(s, n_frames))
        .collect();
    let total_frames = n_sessions * n_frames;

    // ── Sequential baseline ────────────────────────────────────────────
    // The same streams served back-to-back on isolated FrameRunners over
    // the *same* shared programs and the same pool: the exactness
    // reference, the fps baseline, and the isolated per-frame latency
    // distribution the SLO is defined against.
    let mut baseline: Vec<Vec<FrameResult>> = Vec::new();
    let mut isolated_us: Vec<f64> = Vec::with_capacity(total_frames * reps);
    let mut seq_best_s = f64::INFINITY;
    for rep in 0..reps {
        let mut results: Vec<Vec<FrameResult>> = Vec::with_capacity(n_sessions);
        let t0 = Instant::now();
        for stream in &streams {
            let mut runner = ens.runner(TH, pool);
            let mut out = Vec::with_capacity(stream.len());
            for i in 0..stream.len() {
                let t = Instant::now();
                let r = runner.run_frame(black_box(stream.frame(i)));
                isolated_us.push(t.elapsed().as_secs_f64() * 1e6);
                out.push(r);
            }
            results.push(out);
        }
        let total = t0.elapsed().as_secs_f64();
        seq_best_s = seq_best_s.min(total);
        if rep == 0 {
            baseline = results;
        } else {
            assert_eq!(
                results, baseline,
                "sequential baseline must be deterministic"
            );
        }
    }
    let sequential_fps = total_frames as f64 / seq_best_s;
    isolated_us.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    let isolated_p50_us = exact_quantile(&isolated_us, 0.5);
    let isolated_p99_us = exact_quantile(&isolated_us, 0.99);
    eprintln!(
        "[bench_serving] sequential: {sequential_fps:.0} fps, isolated frame \
         p50 {isolated_p50_us:.0} µs / p99 {isolated_p99_us:.0} µs"
    );

    // ── Saturated multiplexing ─────────────────────────────────────────
    // Every frame arrives at t=0; the server drains the backlog one
    // frame per session per tick. This is the throughput scenario the
    // speedup gate reads, and every repetition's served streams are
    // checked bit for bit against the isolated baseline.
    let mut mux_best_s = f64::INFINITY;
    let mut exact = true;
    for _ in 0..reps {
        let mut server = Server::new(
            &ens,
            pool,
            ServeConfig {
                max_sessions: n_sessions,
                queue_capacity: n_frames,
            },
        );
        let ids: Vec<SessionId> = (0..n_sessions)
            .map(|_| server.admit(TH).expect("slab sized for the fleet"))
            .collect();
        for (s, id) in ids.iter().enumerate() {
            for i in 0..n_frames {
                assert!(server.submit(*id, streams[s].frame(i), 0));
            }
        }
        let mut results: Vec<Vec<FrameResult>> = vec![Vec::with_capacity(n_frames); n_sessions];
        let mut served_frames = 0usize;
        let t0 = Instant::now();
        while served_frames < total_frames {
            let served = server.serve(0);
            assert!(!served.is_empty(), "backlog must keep draining");
            served_frames += served.len();
            for sv in served {
                results[sv.session.index()].push(sv.result);
            }
        }
        mux_best_s = mux_best_s.min(t0.elapsed().as_secs_f64());
        exact &= results == baseline;
    }
    let aggregate_fps = total_frames as f64 / mux_best_s;
    let speedup = aggregate_fps / sequential_fps;
    eprintln!(
        "[bench_serving] multiplexed: {aggregate_fps:.0} fps aggregate, \
         {speedup:.2}x vs sequential, bit-exact: {exact}"
    );

    // ── SLO scenario ───────────────────────────────────────────────────
    // Seeded Poisson arrivals at ~0.2 of measured sequential capacity,
    // served on a virtual clock advanced by each tick's measured
    // execution time: arrivals stay deterministic, latencies reflect
    // real service speed.
    let util = 0.2;
    let mean_frame_us = 1e6 / sequential_fps * n_sessions as f64;
    let mean_gap_us = mean_frame_us / util;
    let arrivals: Vec<Vec<u64>> = (0..n_sessions)
        .map(|s| {
            PoissonArrivals::new(1_000 + s as u64, mean_gap_us)
                .take(n_frames)
                .collect()
        })
        .collect();
    let mut server = Server::new(
        &ens,
        pool,
        ServeConfig {
            max_sessions: n_sessions,
            queue_capacity: n_frames,
        },
    );
    let ids: Vec<SessionId> = (0..n_sessions)
        .map(|_| server.admit(TH).expect("slab sized for the fleet"))
        .collect();
    let mut next: Vec<usize> = vec![0; n_sessions];
    let mut slo_us: Vec<f64> = Vec::with_capacity(total_frames);
    let mut now: u64 = 0;
    let mut served_frames = 0usize;
    while served_frames < total_frames {
        let mut pending_min: Option<u64> = None;
        for s in 0..n_sessions {
            while next[s] < n_frames && arrivals[s][next[s]] <= now {
                assert!(server.submit(ids[s], streams[s].frame(next[s]), arrivals[s][next[s]]));
                next[s] += 1;
            }
            if next[s] < n_frames {
                let a = arrivals[s][next[s]];
                pending_min = Some(pending_min.map_or(a, |m| m.min(a)));
            }
        }
        if server.total_queue_depth() == 0 {
            // Idle: jump the virtual clock to the next arrival.
            now = pending_min.expect("frames remain but none queued or pending");
            continue;
        }
        let t = Instant::now();
        let served: &[Served] = server.tick(now);
        let elapsed_us = (t.elapsed().as_secs_f64() * 1e6).max(1.0) as u64;
        let done = now + elapsed_us;
        for sv in served {
            slo_us.push(done.saturating_sub(sv.arrival_us) as f64);
        }
        served_frames += served.len();
        server.commit(done);
        now = done;
    }
    slo_us.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    let slo_p50_us = exact_quantile(&slo_us, 0.5);
    let slo_p99_us = exact_quantile(&slo_us, 0.99);
    let slo_limit_us = SLO_FACTOR * isolated_p99_us;
    let agg = server.aggregate_stats();
    eprintln!(
        "[bench_serving] slo @ util {util:.2}: p50 {slo_p50_us:.0} µs, p99 {slo_p99_us:.0} µs \
         (limit {slo_limit_us:.0} µs), {} coalesced-big frames",
        agg.big_frames
    );

    // ── Gates ──────────────────────────────────────────────────────────
    // Each verdict is printed before any failure is reported, so one run
    // shows every gate's reading.
    let min_speedup = if cpus > 1 { 1.5 } else { 0.9 };
    let gates = [
        (
            "exactness",
            exact,
            "served streams vs isolated FrameRunners".to_string(),
        ),
        (
            "speedup",
            speedup >= min_speedup,
            format!("{speedup:.2}x of sequential on {cpus} CPU(s) (need >= {min_speedup}x)"),
        ),
        (
            "slo",
            cpus == 1 || slo_p99_us <= slo_limit_us,
            format!(
                "p99 {slo_p99_us:.0} µs vs {slo_limit_us:.0} µs = {SLO_FACTOR}x isolated p99{}",
                if cpus == 1 {
                    " (not gated on 1 CPU: collisions serialize)"
                } else {
                    ""
                }
            ),
        ),
    ];
    for (name, pass, detail) in &gates {
        eprintln!(
            "[bench_serving] gate {name}: {} — {detail}",
            if *pass { "pass" } else { "FAIL" }
        );
    }
    let failed: Vec<&str> = gates
        .iter()
        .filter(|(_, pass, _)| !pass)
        .map(|(name, _, _)| *name)
        .collect();
    if !failed.is_empty() {
        eprintln!("[bench_serving] failed gates: {}", failed.join(", "));
        std::process::exit(1);
    }
}
