//! The two fleet workloads on ensemble D2 (F2 little, M1.0 big), served
//! by one `np-serve` server with [`FLEET_SESSIONS`] sessions.
//!
//! * `fleet-d2-open` — open-loop Poisson arrivals over a ladder of fixed
//!   aggregate rates. A virtual clock is advanced by the measured wall
//!   time of every server call and jumps over idle gaps, so arrivals stay
//!   deterministic while latency (counted from each frame's due time)
//!   reflects real service speed.
//! * `fleet-d2-drain` — a deep backlog in every session, with one
//!   session retired and a fresh one admitted every [`CHURN_TICKS`]
//!   ticks; big passes run at full coalescing width and throughput is
//!   measured.
//!
//! Every served result is compared bit for bit with an isolated
//! `FrameRunner` over the same shared programs, which is also the
//! sequential baseline.

use crate::params::{
    CHURN_TICKS, DRAIN_FRAMES_PER_STREAM, DRAIN_STREAMS, FLEET_SESSIONS, LATENCY_LIMIT_US,
    MAX_COALESCE, OPEN_FRAMES_PER_SESSION, OPEN_HEADLINE_RUNG, OPEN_RATES_FPS, OPEN_SATURATED_RUNG,
    OPEN_STREAMS, TH_D2,
};
use crate::probes::{self, ServeSample};
use crate::runner::{isolated_pass, same_result, RunnerPass};
use crate::setup::{all_frames, build_model, mix, render_streams, Stream};
use crate::spans::ROOT;
use crate::stats::{chunked, median};
use crate::Ctx;
use np_adaptive::FrameResult;
use np_nn::init::SmallRng;
use np_serve::{PoissonArrivals, ServeConfig, Server, ServingEnsemble, SessionId};
use np_zoo::channels::PROXY_INPUT;
use np_zoo::ModelId;

/// Sub-seed tags.
const OPEN_FRAMES_TAG: u64 = 2;
const DRAIN_FRAMES_TAG: u64 = 3;
const CHURN_TAG: u64 = 4;
const ARRIVALS_TAG: u64 = 5;

/// Ticks per drain throughput window (one full churn cycle).
const DRAIN_WINDOW_TICKS: usize = FLEET_SESSIONS * CHURN_TICKS;

/// Served frames per drain latency chunk: two whole churn cycles, so
/// every backlog position is in each chunk equally often.
const DRAIN_LATENCY_CHUNK: usize = 2 * DRAIN_WINDOW_TICKS * FLEET_SESSIONS;

/// Latency chunk of `fleet-d2-open`: four repetitions of a rung, enough
/// for a p99 with ten beyond.
const OPEN_LATENCY_CHUNK: usize = 4 * FLEET_SESSIONS * OPEN_FRAMES_PER_SESSION;

/// The fleet's programs, server and frames.
pub struct State {
    ens: ServingEnsemble,
    server: Server,
    ids: Vec<SessionId>,
    streams: Vec<Stream>,
}

fn setup(ctx: &Ctx, queue_capacity: usize, streams: Vec<Stream>) -> State {
    let little = build_model(ModelId::F2);
    let big = build_model(ModelId::M10);
    let ens = ServingEnsemble::compile(&little.quant, &big.quant, PROXY_INPUT, MAX_COALESCE);
    let mut server = Server::new(
        &ens,
        ctx.pool,
        ServeConfig {
            max_sessions: FLEET_SESSIONS,
            queue_capacity,
        },
    );
    let ids = (0..FLEET_SESSIONS)
        .map(|_| server.admit(TH_D2).expect("slab sized for the fleet"))
        .collect();
    State {
        ens,
        server,
        ids,
        streams,
    }
}

/// Set-up of `fleet-d2-open`: the flights sessions take in turn.
pub fn setup_open(ctx: &Ctx) -> State {
    let streams = render_streams(
        mix(ctx.seed, OPEN_FRAMES_TAG),
        OPEN_STREAMS,
        OPEN_FRAMES_PER_SESSION,
    );
    setup(ctx, OPEN_FRAMES_PER_SESSION, streams)
}

/// Set-up of `fleet-d2-drain`: a pool of streams fresh sessions take in
/// turn.
pub fn setup_drain(ctx: &Ctx) -> State {
    let streams = render_streams(
        mix(ctx.seed, DRAIN_FRAMES_TAG),
        DRAIN_STREAMS,
        DRAIN_FRAMES_PER_STREAM,
    );
    setup(ctx, DRAIN_FRAMES_PER_STREAM, streams)
}

fn reference(ctx: &mut Ctx, st: &State, frames: usize) -> RunnerPass {
    let pool = ctx.pool;
    let pass = isolated_pass(
        || st.ens.runner(TH_D2, pool),
        &st.streams,
        frames,
        &ctx.clock,
        &mut ctx.spans,
    );
    ctx.check_frac_big(pass.big_frames() as u64, pass.frames() as u64);
    pass
}

/// Timed retire + admit of the session in position `s`.
fn churn(ctx: &mut Ctx, st: &mut State, s: usize, sample: &mut ServeSample) {
    let t0 = ctx.clock.now();
    let retired = st.server.retire(st.ids[s]);
    let t1 = ctx.clock.now();
    let admitted = st.server.admit(TH_D2);
    let t2 = ctx.clock.now();
    ctx.spans.record("serve.retire", t0, t1, ROOT, s as u32, 0);
    ctx.spans.record("serve.admit", t1, t2, ROOT, s as u32, 0);
    sample.retire_us.push((t1 - t0) as f64 / 1e3);
    sample.admit_us.push((t2 - t1) as f64 / 1e3);
    match admitted {
        Some(id) if retired => st.ids[s] = id,
        _ => ctx.failed += 1,
    }
}

/// Position of each slab slot's session in `ids`.
fn slot_map(ids: &[SessionId]) -> Vec<usize> {
    let mut map = vec![usize::MAX; ids.iter().map(|id| id.index() + 1).max().unwrap_or(0)];
    for (s, id) in ids.iter().enumerate() {
        map[id.index()] = s;
    }
    map
}

// ---------------------------------------------------------------------------
// fleet-d2-open
// ---------------------------------------------------------------------------

/// What one rung of the ladder saw, over all its repetitions.
#[derive(Default)]
struct Rung {
    latency_us: Vec<f64>,
    serve: ServeSample,
    frames: u64,
    busy_s: f64,
    /// Served frames per second of server time, per repetition.
    rep_fps: Vec<f64>,
    over_limit: u64,
    max_backlog_end: u64,
    reps: u64,
}

/// One repetition of one rung: fresh sessions, a fresh seeded Poisson
/// schedule per session, served until every frame has completed.
fn open_rep(
    ctx: &mut Ctx,
    st: &mut State,
    reference: &[Vec<FrameResult>],
    rung: usize,
    rep: u64,
    r: &mut Rung,
) {
    for s in 0..FLEET_SESSIONS {
        churn(ctx, st, s, &mut r.serve);
    }
    let slots = slot_map(&st.ids);
    let stream_of = |s: usize| (s + FLEET_SESSIONS * rep as usize) % OPEN_STREAMS;
    let mean_gap_us = 1e6 * FLEET_SESSIONS as f64 / OPEN_RATES_FPS[rung];
    let due_ns: Vec<Vec<u64>> = (0..FLEET_SESSIONS)
        .map(|s| {
            let seed = mix(
                ctx.seed,
                ARRIVALS_TAG + 1000 * (rung as u64 + 1) + 100_000 * rep + s as u64 * 7,
            );
            PoissonArrivals::new(seed, mean_gap_us)
                .take(OPEN_FRAMES_PER_SESSION)
                .map(|us| us * 1000)
                .collect()
        })
        .collect();
    // The backlog is read when the first session has submitted its last
    // frame: until then every session is still offering load.
    let horizon = due_ns
        .iter()
        .map(|d| *d.last().expect("frames per session"))
        .min()
        .expect("sessions");
    let (frames_before, busy_before) = (r.frames, r.busy_s);
    let mut next = [0usize; FLEET_SESSIONS];
    let mut pending = 0u64;
    let mut backlog_end = None;
    let mut now = 0u64;
    loop {
        for s in 0..FLEET_SESSIONS {
            while next[s] < OPEN_FRAMES_PER_SESSION && due_ns[s][next[s]] <= now {
                let i = next[s];
                let t0 = ctx.clock.now();
                let ok = st.server.submit(
                    st.ids[s],
                    st.streams[stream_of(s)].frame(i),
                    due_ns[s][i] / 1000,
                );
                let t1 = ctx.clock.now();
                ctx.spans
                    .record("serve.submit", t0, t1, ROOT, s as u32, i as u64);
                r.serve.submit_ns.push((t1 - t0) as f64);
                r.busy_s += (t1 - t0) as f64 / 1e9;
                r.serve.submitted += 1;
                now += t1 - t0;
                next[s] += 1;
                if ok {
                    pending += 1;
                } else {
                    r.serve.drops += 1;
                }
            }
        }
        if backlog_end.is_none() && now >= horizon {
            backlog_end = Some(pending);
        }
        if pending == 0 {
            let upcoming = (0..FLEET_SESSIONS)
                .filter(|&s| next[s] < OPEN_FRAMES_PER_SESSION)
                .map(|s| due_ns[s][next[s]])
                .min();
            match upcoming {
                Some(t) => {
                    now = now.max(t);
                    continue;
                }
                None => break,
            }
        }
        let t0 = ctx.clock.now();
        let served = st.server.tick(now / 1000);
        let t1 = ctx.clock.now();
        let done = now + (t1 - t0);
        let tick = ctx.spans.record("serve.tick", t0, t1, ROOT, u32::MAX, 0);
        let mut escalations = 0;
        for sv in served {
            let s = slots[sv.session.index()];
            let seq = sv.seq as usize;
            let due = due_ns[s][seq];
            let lat_us = (done - due) as f64 / 1e3;
            r.latency_us.push(lat_us);
            r.serve
                .queue_wait_us
                .push(now.saturating_sub(due) as f64 / 1e3);
            if lat_us > LATENCY_LIMIT_US {
                r.over_limit += 1;
            }
            escalations += u64::from(sv.result.decision.runs_big());
            if !same_result(&sv.result, &reference[stream_of(s)][seq]) {
                ctx.failed += 1;
            }
            ctx.spans
                .record("serve.frame", t0, t1, tick, s as u32, sv.seq);
        }
        let n = served.len() as u64;
        st.server.commit(done / 1000);
        r.serve.tick_us.push((t1 - t0) as f64 / 1e3);
        r.serve.frames_per_tick.push(n as f64);
        r.serve.escalations += escalations;
        r.serve.big_passes += escalations.div_ceil(MAX_COALESCE as u64);
        r.busy_s += (t1 - t0) as f64 / 1e9;
        r.frames += n;
        pending -= n;
        now = done;
    }
    r.max_backlog_end = r.max_backlog_end.max(backlog_end.unwrap_or(0));
    r.rep_fps
        .push((r.frames - frames_before) as f64 / (r.busy_s - busy_before));
    r.reps += 1;
}

/// Runs whole ladder rounds until `seconds` have elapsed (at least one).
fn open_phase(
    ctx: &mut Ctx,
    st: &mut State,
    reference: &[Vec<FrameResult>],
    seconds: f64,
    rep0: u64,
) -> Vec<Rung> {
    let mut rungs: Vec<Rung> = (0..OPEN_RATES_FPS.len()).map(|_| Rung::default()).collect();
    let t_end = ctx.clock.now() + (seconds * 1e9) as u64;
    let mut rep = rep0;
    loop {
        for (k, rung) in rungs.iter_mut().enumerate() {
            open_rep(ctx, st, reference, k, rep, rung);
        }
        rep += 1;
        if ctx.clock.now() >= t_end {
            return rungs;
        }
    }
}

/// Runs `fleet-d2-open`.
pub fn run_open(ctx: &mut Ctx, mut st: State) {
    let reference = reference(ctx, &st, OPEN_FRAMES_PER_SESSION);
    let rungs = if ctx.traced {
        ctx.set_tracing(false);
        let off = open_phase(ctx, &mut st, &reference.results, ctx.seconds / 2.0, 0);
        ctx.set_tracing(true);
        let on = open_phase(ctx, &mut st, &reference.results, ctx.seconds / 2.0, 1 << 20);
        let per_frame = |r: &[Rung]| {
            r.iter().map(|x| x.busy_s).sum::<f64>() / r.iter().map(|x| x.frames).sum::<u64>() as f64
        };
        ctx.layers.put(
            "trace.overhead_pct",
            100.0 * (per_frame(&on) / per_frame(&off) - 1.0),
            "%",
        );
        let ticks: usize = on.iter().map(|r| r.serve.tick_us.len()).sum();
        let frames: u64 = on.iter().map(|r| r.frames).sum();
        probes::put_pool(
            &mut ctx.layers,
            probes::pool_counters(),
            ticks as f64,
            frames as f64,
        );
        ctx.attempted += off.iter().map(|r| r.serve.submitted).sum::<u64>();
        on
    } else {
        open_phase(ctx, &mut st, &reference.results, ctx.seconds, 0)
    };
    ctx.attempted += rungs.iter().map(|r| r.serve.submitted).sum::<u64>();

    let mut max_rate: f64 = 0.0;
    for (k, r) in rungs.iter().enumerate() {
        let s = chunked(&r.latency_us, OPEN_LATENCY_CHUNK).expect("rung served frames");
        let holds = s.tail <= LATENCY_LIMIT_US
            && r.serve.drops == 0
            && r.max_backlog_end <= 2 * FLEET_SESSIONS as u64;
        if holds {
            max_rate = max_rate.max(OPEN_RATES_FPS[k]);
        }
        let rate = OPEN_RATES_FPS[k];
        ctx.detail_raw(
            &format!("rung_{k}"),
            &format!(
                "{{\"rate_fps\": {rate}, \"reps\": {}, \"frames\": {}, \"p50_us\": {}, \
                 \"p95_us\": {}, \"tail_q\": {}, \"tail_us\": {}, \"n\": {}, \"busy_fps\": {}, \
                 \"max_backlog_end\": {}, \"drops\": {}, \"over_limit\": {}, \"holds\": {holds}}}",
                r.reps,
                r.frames,
                s.p50,
                s.p95,
                s.tail_q,
                s.tail,
                s.n,
                median(&mut r.rep_fps.clone()),
                r.max_backlog_end,
                r.serve.drops,
                r.over_limit
            ),
        );
    }
    let head = &rungs[OPEN_HEADLINE_RUNG];
    let s = chunked(&head.latency_us, OPEN_LATENCY_CHUNK).expect("headline rung served frames");
    ctx.put_latency(s);
    let sat = &rungs[OPEN_SATURATED_RUNG];
    let sat_fps = median(&mut sat.rep_fps.clone());
    ctx.e2e.put("throughput_fps", sat_fps, "fps");
    let offered = head.serve.submitted.max(1) as f64;
    ctx.detail_num("max_rate_fps", max_rate);
    ctx.detail_num(
        "slo_miss_ratio",
        (head.over_limit + head.serve.drops) as f64 / offered,
    );
    ctx.detail_num("latency_limit_us", LATENCY_LIMIT_US);

    if ctx.traced {
        let mut sample = ServeSample::default();
        for r in rungs {
            sample.absorb(r.serve);
        }
        sample.mux_speedup = sat_fps / reference.fps();
        put_fleet_layers(ctx, &st, &reference, &mut sample);
    }
}

/// Per-layer metrics shared by both fleet workloads.
fn put_fleet_layers(ctx: &mut Ctx, st: &State, reference: &RunnerPass, sample: &mut ServeSample) {
    sample.session_bytes = st.server.session_bytes(st.ids[0]).unwrap_or(0) as f64;
    sample.shared_bytes = st.server.shared_bytes() as f64;
    probes::put_serve(&mut ctx.layers, sample);
    let p = probes::run_quant(ctx, &all_frames(&st.streams));
    probes::put_adaptive(
        &mut ctx.layers,
        &reference.small_us,
        &reference.ensemble_us,
        reference.big_frames(),
        reference.frames(),
        p.forward_us(ModelId::F2),
        p.forward_us(ModelId::M10),
    );
}

// ---------------------------------------------------------------------------
// fleet-d2-drain
// ---------------------------------------------------------------------------

/// What one drain phase saw.
#[derive(Default)]
struct Drain {
    serve: ServeSample,
    /// Submission → served, µs, per served frame.
    latency_us: Vec<f64>,
    window_fps: Vec<f64>,
    frames: u64,
    busy_s: f64,
}

/// Where each session position is in its stream.
struct Tenant {
    stream: usize,
    submitted_at: Vec<u64>,
}

/// Admits stream `stream` into position `s`'s fresh session: its whole
/// stream is queued at once.
fn fill(ctx: &mut Ctx, st: &mut State, s: usize, stream: usize, d: &mut Drain) -> Tenant {
    let mut submitted_at = Vec::with_capacity(DRAIN_FRAMES_PER_STREAM);
    for i in 0..st.streams[stream].len() {
        let t0 = ctx.clock.now();
        let ok = st.server.submit(st.ids[s], st.streams[stream].frame(i), 0);
        let t1 = ctx.clock.now();
        ctx.spans
            .record("serve.submit", t0, t1, ROOT, s as u32, i as u64);
        d.serve.submit_ns.push((t1 - t0) as f64);
        d.busy_s += (t1 - t0) as f64 / 1e9;
        d.serve.submitted += 1;
        if !ok {
            d.serve.drops += 1;
        }
        submitted_at.push(t0);
    }
    Tenant {
        stream,
        submitted_at,
    }
}

/// Drains with churn until `seconds` have elapsed (at least one window).
fn drain_phase(
    ctx: &mut Ctx,
    st: &mut State,
    reference: &[Vec<FrameResult>],
    order: &[usize],
    seconds: f64,
) -> Drain {
    let mut d = Drain::default();
    let mut cursor = 0usize;
    let mut tenants: Vec<Tenant> = Vec::with_capacity(FLEET_SESSIONS);
    for s in 0..FLEET_SESSIONS {
        churn(ctx, st, s, &mut d.serve);
        tenants.push(fill(ctx, st, s, cursor % DRAIN_STREAMS, &mut d));
        cursor += 1;
    }
    let mut slots = slot_map(&st.ids);
    let t_end = ctx.clock.now() + (seconds * 1e9) as u64;
    let mut ticks = 0usize;
    let (mut win_frames, mut win_busy) = (0u64, 0.0f64);
    loop {
        let t0 = ctx.clock.now();
        let served = st.server.tick(0);
        let t1 = ctx.clock.now();
        let tick = ctx
            .spans
            .record("serve.tick", t0, t1, ROOT, u32::MAX, ticks as u64);
        let mut escalations = 0;
        for sv in served {
            let s = slots[sv.session.index()];
            let tenant = &tenants[s];
            let seq = sv.seq as usize;
            d.serve
                .queue_wait_us
                .push(t0.saturating_sub(tenant.submitted_at[seq]) as f64 / 1e3);
            d.latency_us
                .push((t1 - tenant.submitted_at[seq]) as f64 / 1e3);
            escalations += u64::from(sv.result.decision.runs_big());
            if !same_result(&sv.result, &reference[tenant.stream][seq]) {
                ctx.failed += 1;
            }
            ctx.spans
                .record("serve.frame", t0, t1, tick, s as u32, sv.seq);
        }
        let n = served.len() as u64;
        st.server.commit(0);
        let dt = (t1 - t0) as f64 / 1e9;
        d.serve.tick_us.push(dt * 1e6);
        d.serve.frames_per_tick.push(n as f64);
        d.serve.escalations += escalations;
        d.serve.big_passes += escalations.div_ceil(MAX_COALESCE as u64);
        d.busy_s += dt;
        d.frames += n;
        win_frames += n;
        win_busy += dt;
        ticks += 1;
        if ticks.is_multiple_of(CHURN_TICKS) {
            let s = order[(ticks / CHURN_TICKS - 1) % FLEET_SESSIONS];
            let b0 = d.busy_s;
            let c0 = ctx.clock.now();
            churn(ctx, st, s, &mut d.serve);
            d.busy_s += (ctx.clock.now() - c0) as f64 / 1e9;
            tenants[s] = fill(ctx, st, s, cursor % DRAIN_STREAMS, &mut d);
            cursor += 1;
            slots = slot_map(&st.ids);
            win_busy += d.busy_s - b0;
        }
        if ticks.is_multiple_of(DRAIN_WINDOW_TICKS) {
            d.window_fps.push(win_frames as f64 / win_busy);
            (win_frames, win_busy) = (0, 0.0);
            if ctx.clock.now() >= t_end {
                return d;
            }
        }
    }
}

/// Runs `fleet-d2-drain`.
pub fn run_drain(ctx: &mut Ctx, mut st: State) {
    let reference = reference(ctx, &st, DRAIN_FRAMES_PER_STREAM);
    let mut order: Vec<usize> = (0..FLEET_SESSIONS).collect();
    SmallRng::seed(mix(ctx.seed, CHURN_TAG)).shuffle(&mut order);
    let d = if ctx.traced {
        ctx.set_tracing(false);
        let off = drain_phase(ctx, &mut st, &reference.results, &order, ctx.seconds / 2.0);
        ctx.set_tracing(true);
        let on = drain_phase(ctx, &mut st, &reference.results, &order, ctx.seconds / 2.0);
        ctx.layers.put(
            "trace.overhead_pct",
            100.0 * ((on.busy_s / on.frames as f64) / (off.busy_s / off.frames as f64) - 1.0),
            "%",
        );
        probes::put_pool(
            &mut ctx.layers,
            probes::pool_counters(),
            on.serve.tick_us.len() as f64,
            on.frames as f64,
        );
        ctx.attempted += off.frames;
        on
    } else {
        drain_phase(ctx, &mut st, &reference.results, &order, ctx.seconds)
    };
    ctx.attempted += d.frames;

    // Latency is each frame's sojourn in its backlog, a sum over the
    // ticks it waited. A single tick's time is no headline: its tail sits
    // on a step (how many big passes the tick ran) and jumps between seeds.
    let s = chunked(&d.latency_us, DRAIN_LATENCY_CHUNK).expect("frames served");
    ctx.put_latency(s);
    let drain_fps = median(&mut d.window_fps.clone());
    ctx.e2e.put("throughput_fps", drain_fps, "fps");
    ctx.detail_num("windows", d.window_fps.len() as f64);

    if ctx.traced {
        let mut sample = d.serve;
        sample.mux_speedup = drain_fps / reference.fps();
        put_fleet_layers(ctx, &st, &reference, &mut sample);
    }
}
