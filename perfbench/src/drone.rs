//! `drone-d1`: one closed-loop drone stream through `FrameRunner` on
//! ensemble D1 (F1 little, M1.0 big) — the paper's onboard use case.
//!
//! Each pass streams every seeded flight in order (policy reset at each
//! flight boundary) and is checked frame by frame against an isolated
//! runner over the same programs. A frame is due when the previous one
//! finished, so its latency is its `run_frame` time.

use crate::params::{DRONE_FRAMES_PER_SEQ, DRONE_SEQS, TH_D1};
use crate::probes::{self, Probes};
use crate::runner::{isolated_pass, same_result, RunnerPass};
use crate::setup::{all_frames, build_model, mix, render_streams, Stream};
use crate::spans::ROOT;
use crate::stats::{chunked, median};
use crate::Ctx;
use np_adaptive::{FrameResult, FrameRunner};
use np_quant::QuantizedProgram;
use np_serve::{ServeConfig, Server, ServingEnsemble};
use np_zoo::channels::PROXY_INPUT;
use np_zoo::ModelId;
use std::hint::black_box;
use std::sync::Arc;

/// Sub-seed tag of the drone flights.
const FRAMES_TAG: u64 = 1;

/// Everything set-up builds for the workload.
pub struct State {
    little: Arc<QuantizedProgram>,
    big: Arc<QuantizedProgram>,
    runner: FrameRunner,
    streams: Vec<Stream>,
}

/// Quantizes and compiles D1, builds the runner, renders the flights.
pub fn setup(ctx: &Ctx) -> State {
    let little = build_model(ModelId::F1).quant.compile_shared(PROXY_INPUT);
    let big = build_model(ModelId::M10).quant.compile_shared(PROXY_INPUT);
    let runner = FrameRunner::from_programs(little.clone(), big.clone(), TH_D1, ctx.pool);
    let streams = render_streams(mix(ctx.seed, FRAMES_TAG), DRONE_SEQS, DRONE_FRAMES_PER_SEQ);
    State {
        little,
        big,
        runner,
        streams,
    }
}

/// What one measured phase saw.
#[derive(Default)]
struct Phase {
    frame_us: Vec<f64>,
    small_us: Vec<f64>,
    ensemble_us: Vec<f64>,
    pass_fps: Vec<f64>,
    busy_s: f64,
    frames: u64,
    mismatches: u64,
}

/// Streams whole passes until `seconds` have elapsed (at least one); a
/// pass's throughput is its frames over its `run_frame` time.
fn measure(ctx: &mut Ctx, st: &mut State, reference: &[Vec<FrameResult>], seconds: f64) -> Phase {
    let mut ph = Phase::default();
    let t_end = ctx.clock.now() + (seconds * 1e9) as u64;
    loop {
        let busy_before = ph.busy_s;
        let mut pass_frames = 0u64;
        for (s, stream) in st.streams.iter().enumerate() {
            st.runner.reset();
            for (i, want) in reference[s].iter().enumerate() {
                let t0 = ctx.clock.now();
                let r = st.runner.run_frame(black_box(stream.frame(i)));
                let t1 = ctx.clock.now();
                ctx.spans
                    .record("adaptive.run_frame", t0, t1, ROOT, s as u32, i as u64);
                let us = (t1 - t0) as f64 / 1e3;
                ph.frame_us.push(us);
                if r.decision.runs_big() {
                    ph.ensemble_us.push(us);
                } else {
                    ph.small_us.push(us);
                }
                ph.busy_s += us / 1e6;
                if !same_result(&r, want) {
                    ph.mismatches += 1;
                }
                pass_frames += 1;
            }
        }
        ph.frames += pass_frames;
        ph.pass_fps
            .push(pass_frames as f64 / (ph.busy_s - busy_before));
        if ctx.clock.now() >= t_end {
            return ph;
        }
    }
}

/// Replays the flights through a one-session `np-serve` server: the
/// serving layer's cost on this stream, for the per-layer `serve.*`
/// figures. It moves no `drone-d1` end-to-end metric.
fn serve_probe(ctx: &mut Ctx, st: &State, reference: &[Vec<FrameResult>], stream_fps: f64) {
    let ens = ServingEnsemble::from_programs(st.little.clone(), st.big.clone());
    let mut server = Server::new(
        &ens,
        ctx.pool,
        ServeConfig {
            max_sessions: 1,
            queue_capacity: 1,
        },
    );
    let mut sample = probes::ServeSample::default();
    let mut busy_ns = 0u64;
    let mut frames = 0u64;
    for (s, stream) in st.streams.iter().enumerate() {
        let t0 = ctx.clock.now();
        let id = server.admit(TH_D1);
        let t1 = ctx.clock.now();
        ctx.spans.record("serve.admit", t0, t1, ROOT, s as u32, 0);
        sample.admit_us.push((t1 - t0) as f64 / 1e3);
        let Some(id) = id else {
            ctx.failed += 1;
            continue;
        };
        for i in 0..stream.len() {
            let t0 = ctx.clock.now();
            let ok = server.submit(id, stream.frame(i), t0 / 1000);
            let t1 = ctx.clock.now();
            ctx.spans
                .record("serve.submit", t0, t1, ROOT, s as u32, i as u64);
            sample.submit_ns.push((t1 - t0) as f64);
            if !ok {
                sample.drops += 1;
                continue;
            }
            let served = server.tick(t1 / 1000);
            let t2 = ctx.clock.now();
            busy_ns += t2 - t0;
            let tick = ctx
                .spans
                .record("serve.tick", t1, t2, ROOT, s as u32, i as u64);
            ctx.spans
                .record("serve.frame", t0, t2, tick, s as u32, i as u64);
            sample.tick_us.push((t2 - t1) as f64 / 1e3);
            sample.queue_wait_us.push((t1 - t0) as f64 / 1e3);
            sample.frames_per_tick.push(served.len() as f64);
            for sv in served {
                frames += 1;
                let big = u64::from(sv.result.decision.runs_big());
                sample.escalations += big;
                sample.big_passes += big;
                if !same_result(&sv.result, &reference[s][sv.seq as usize]) {
                    ctx.failed += 1;
                }
            }
            server.commit(t2 / 1000);
        }
        if s == 0 {
            sample.session_bytes = server.session_bytes(id).unwrap_or(0) as f64;
        }
        let t0 = ctx.clock.now();
        let ok = server.retire(id);
        let t1 = ctx.clock.now();
        ctx.spans.record("serve.retire", t0, t1, ROOT, s as u32, 0);
        sample.retire_us.push((t1 - t0) as f64 / 1e3);
        if !ok {
            ctx.failed += 1;
        }
    }
    ctx.attempted += frames;
    let fps = frames as f64 / (busy_ns as f64 / 1e9);
    sample.shared_bytes = server.shared_bytes() as f64;
    sample.submitted = frames + sample.drops;
    sample.mux_speedup = fps / stream_fps;
    probes::put_serve(&mut ctx.layers, &mut sample);
}

/// Runs the workload.
pub fn run(ctx: &mut Ctx, mut st: State) {
    let pool = ctx.pool;
    let reference: RunnerPass = isolated_pass(
        || FrameRunner::from_programs(st.little.clone(), st.big.clone(), TH_D1, pool),
        &st.streams,
        DRONE_FRAMES_PER_SEQ,
        &ctx.clock,
        &mut ctx.spans,
    );
    ctx.check_frac_big(reference.big_frames() as u64, reference.frames() as u64);

    let ph = if ctx.traced {
        ctx.set_tracing(false);
        let off = measure(ctx, &mut st, &reference.results, ctx.seconds / 2.0);
        ctx.set_tracing(true);
        let on = measure(ctx, &mut st, &reference.results, ctx.seconds / 2.0);
        let cost = |p: &Phase| p.busy_s / p.frames as f64;
        ctx.layers.put(
            "trace.overhead_pct",
            100.0 * (cost(&on) / cost(&off) - 1.0),
            "%",
        );
        let frames = on.frames as f64;
        probes::put_pool(&mut ctx.layers, probes::pool_counters(), frames, frames);
        ctx.attempted += off.frames;
        ctx.failed += off.mismatches;
        on
    } else {
        measure(ctx, &mut st, &reference.results, ctx.seconds)
    };
    ctx.attempted += ph.frames;
    ctx.failed += ph.mismatches;

    let lat = chunked(&ph.frame_us, DRONE_SEQS * DRONE_FRAMES_PER_SEQ).expect("at least one pass");
    let stream_fps = median(&mut ph.pass_fps.clone());
    ctx.put_latency(lat);
    ctx.e2e.put("throughput_fps", stream_fps, "fps");
    ctx.detail_num("passes", ph.pass_fps.len() as f64);
    let fps: Vec<String> = ph.pass_fps.iter().map(|f| format!("{f:.0}")).collect();
    ctx.detail_raw("pass_fps", &format!("[{}]", fps.join(", ")));

    if ctx.traced {
        let probes: Probes = probes::run_quant(ctx, &all_frames(&st.streams));
        probes::put_adaptive(
            &mut ctx.layers,
            &ph.small_us,
            &ph.ensemble_us,
            reference.big_frames(),
            reference.frames(),
            probes.forward_us(ModelId::F1),
            probes.forward_us(ModelId::M10),
        );
        serve_probe(ctx, &st, &reference.results, stream_fps);
    }
}
