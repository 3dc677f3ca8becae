//! Per-layer measurements of the traced run.
//!
//! * `np-quant`: `forward_prepacked` / `forward_batched` probes of F1, F2
//!   and M1.0 on the workload's own frames, split per step kind from the
//!   per-`Step` spans np-trace records in the traced build.
//! * `np-gap8`/`np-calib`: the `CALIB.json` price of each proxy (through
//!   np-dory's calibrated plan) against its measured `forward_us`.
//! * `np-adaptive`, `np-serve`, `np-tensor`: helpers that turn the timed
//!   calls and np-trace counters the workloads collect into metrics.

use crate::params::{MAX_COALESCE, PROBE_FRAMES};
use crate::report::Metrics;
use crate::setup::{build_model, tag, MODELS};
use crate::spans::ROOT;
use crate::stats::{median, summarize};
use crate::Ctx;
use np_dory::deploy_calibrated;
use np_gap8::calib::CalibModel;
use np_gap8::Gap8Config;
use np_quant::{QScratch, QuantizedProgram};
use np_tensor::parallel::{cpus_available, Pool};
use np_zoo::channels::PROXY_INPUT;
use np_zoo::ModelId;
use std::hint::black_box;

/// Step-kind groups reported per model: `(model, group, step kind,
/// kernel filter)`. `pw` is the 1×1 conv of a depthwise-separable block.
const GROUPS: [(ModelId, &str, &str, Option<usize>); 5] = [
    (ModelId::M10, "dw", "dw", None),
    (ModelId::M10, "pw", "conv", Some(1)),
    (ModelId::F1, "conv", "conv", None),
    (ModelId::F1, "maxpool", "maxpool", None),
    (ModelId::F2, "maxpool", "maxpool", None),
];

/// Measured `forward_us` per model.
pub struct Probes {
    forward_us: Vec<(ModelId, f64)>,
}

impl Probes {
    /// Median `forward_prepacked` time of `id`, µs.
    pub fn forward_us(&self, id: ModelId) -> f64 {
        self.forward_us
            .iter()
            .find(|(m, _)| *m == id)
            .map_or(f64::NAN, |(_, us)| *us)
    }
}

/// The cycle-model artifact: `NP_CALIB` when set, else `CALIB.json` in
/// the working directory.
fn load_calib() -> Result<(String, CalibModel), String> {
    let path = std::env::var("NP_CALIB")
        .ok()
        .filter(|p| !p.trim().is_empty())
        .unwrap_or_else(|| "CALIB.json".to_string());
    CalibModel::load(&path).map(|m| (path, m))
}

/// Runs the `np-quant` and `np-gap8` probes on `frames`.
pub fn run_quant(ctx: &mut Ctx, frames: &[&[f32]]) -> Probes {
    let calib = load_calib();
    match &calib {
        Ok((path, _)) => ctx.detail_str("calib_source", path),
        Err(e) => {
            ctx.note(&format!("no cycle-model artifact: {e}"));
            ctx.failed += 1;
        }
    }
    let stride = (frames.len() / PROBE_FRAMES).max(1);
    let pick = |i: usize| frames[(i * stride) % frames.len()];
    let mut forward_us = Vec::new();
    for (mi, id) in MODELS.into_iter().enumerate() {
        let model = build_model(id);
        let program = if id == ModelId::M10 {
            model.quant.compile_batched(PROXY_INPUT, MAX_COALESCE)
        } else {
            model.quant.compile(PROXY_INPUT)
        };
        let mut scratch = QScratch::for_program(&program);
        for i in 0..3 {
            black_box(program.forward_prepacked(ctx.pool, &mut scratch, pick(i)));
        }
        np_trace::reset();
        let mut times = Vec::with_capacity(PROBE_FRAMES);
        for i in 0..PROBE_FRAMES {
            let t0 = ctx.clock.now();
            black_box(program.forward_prepacked(ctx.pool, &mut scratch, black_box(pick(i))));
            let t1 = ctx.clock.now();
            ctx.spans
                .record("quant.forward_prepacked", t0, t1, ROOT, mi as u32, i as u64);
            times.push((t1 - t0) as f64 / 1e3);
        }
        let fwd = median(&mut times);
        forward_us.push((id, fwd));
        let t = tag(id);
        let workloads = program.step_workloads();
        let total_macs: u64 = workloads.iter().map(|w| w.macs).sum();
        ctx.layers.put(format!("quant.{t}.forward_us"), fwd, "us");
        ctx.layers.put(
            format!("quant.{t}.gmacs"),
            total_macs as f64 / fwd / 1e3,
            "GMAC/s",
        );
        put_step_groups(ctx, id, &program);

        if id == ModelId::M10 {
            // The same probe on a pool of every CPU: the fan-out gain the
            // one-worker workloads leave out.
            let wide = Pool::new(cpus_available());
            let mut wide_us = Vec::with_capacity(PROBE_FRAMES);
            for i in 0..PROBE_FRAMES {
                let t0 = ctx.clock.now();
                black_box(program.forward_prepacked(wide, &mut scratch, black_box(pick(i))));
                wide_us.push((ctx.clock.now() - t0) as f64 / 1e3);
            }
            ctx.layers
                .put("tensor.pool.nproc_speedup", fwd / median(&mut wide_us), "x");
            let fl = frames[0].len();
            let mut staged = vec![0.0f32; MAX_COALESCE * fl];
            for b in [1usize, 2, 4] {
                let mut per_frame = Vec::new();
                for k in 0..PROBE_FRAMES / b {
                    for j in 0..b {
                        staged[j * fl..(j + 1) * fl].copy_from_slice(pick(k * b + j));
                    }
                    let t0 = ctx.clock.now();
                    black_box(program.forward_batched(
                        ctx.pool,
                        &mut scratch,
                        black_box(&staged[..b * fl]),
                        b,
                    ));
                    let t1 = ctx.clock.now();
                    ctx.spans
                        .record("quant.forward_batched", t0, t1, ROOT, mi as u32, b as u64);
                    per_frame.push((t1 - t0) as f64 / 1e3 / b as f64);
                }
                ctx.layers.put(
                    format!("quant.M10.batch_b{b}_us_per_frame"),
                    median(&mut per_frame),
                    "us",
                );
            }
        }

        if let Ok((_, calib)) = &calib {
            let desc = model.float.describe(PROXY_INPUT);
            let drift = deploy_calibrated(&desc, &Gap8Config::default(), calib)
                .map(|plan| {
                    let pred_us = plan.total_cycles() as f64 * calib.scale_ns_per_cycle / 1e3;
                    100.0 * (pred_us - fwd) / fwd
                })
                .unwrap_or(f64::NAN);
            ctx.layers
                .put(format!("gap8.{t}.pred_drift_pct"), drift, "%");
        }
    }
    Probes { forward_us }
}

/// Self time, MACs and computed arena bytes of the step kinds in
/// [`GROUPS`] for `id`, from the per-step np-trace spans of the probe.
/// Steps have no child spans, so a step span's duration is its self
/// time. Bytes are activation reads + writes computed from tensor sizes,
/// not measured traffic.
fn put_step_groups(ctx: &mut Ctx, id: ModelId, program: &QuantizedProgram) {
    let prefix = format!("{}/", program.name());
    let summary = np_trace::summary();
    let workloads = program.step_workloads();
    for &(_, group, kind, kernel) in GROUPS.iter().filter(|g| g.0 == id) {
        let mut us = 0.0;
        let mut macs = 0u64;
        let mut bytes = 0u64;
        for w in workloads
            .iter()
            .filter(|w| w.kind == kind && kernel.is_none_or(|k| w.kernel == k))
        {
            macs += w.macs;
            bytes += w.io_bytes;
            let name = format!("{prefix}{:02}-{}", w.index, w.kind);
            if let Some(s) = summary.iter().find(|s| s.name == name && s.count > 0) {
                us += s.total_ns as f64 / s.count as f64 / 1e3;
            }
        }
        let t = tag(id);
        ctx.layers.put(format!("quant.{t}.{group}_us"), us, "us");
        ctx.layers
            .put(format!("quant.{t}.{group}_macs"), macs as f64, "count");
        ctx.layers
            .put(format!("quant.{t}.{group}_io_bytes"), bytes as f64, "bytes");
    }
}

/// `np-adaptive` metrics from timed `run_frame` calls, priced against
/// the paper's Eq. 2 (`C_small + frac_big · C_big`) built from the
/// `forward_us` probes of the two members.
pub fn put_adaptive(
    layers: &mut Metrics,
    small_us: &[f64],
    ensemble_us: &[f64],
    big_frames: usize,
    frames: usize,
    c_small_us: f64,
    c_big_us: f64,
) {
    let n = (small_us.len() + ensemble_us.len()) as f64;
    let mean = (small_us.iter().sum::<f64>() + ensemble_us.iter().sum::<f64>()) / n;
    let frac = ensemble_us.len() as f64 / n;
    let eq2 = c_small_us + frac * c_big_us;
    layers.put(
        "adaptive.small_frame_us",
        median(&mut small_us.to_vec()),
        "us",
    );
    layers.put(
        "adaptive.ensemble_frame_us",
        median(&mut ensemble_us.to_vec()),
        "us",
    );
    layers.put(
        "adaptive.frac_big",
        big_frames as f64 / frames as f64,
        "ratio",
    );
    layers.put("adaptive.big_frames", big_frames as f64, "count");
    layers.put("adaptive.frames", frames as f64, "count");
    layers.put("adaptive.eq2_residual_pct", 100.0 * (mean - eq2) / eq2, "%");
}

/// Timed `np-serve` calls of one measured phase.
#[derive(Debug, Default)]
pub struct ServeSample {
    /// `tick` wall times, µs.
    pub tick_us: Vec<f64>,
    /// Tick start minus due time of each served frame, µs.
    pub queue_wait_us: Vec<f64>,
    /// Frames each tick served.
    pub frames_per_tick: Vec<f64>,
    /// `submit` wall times, ns.
    pub submit_ns: Vec<f64>,
    /// `admit` wall times, µs.
    pub admit_us: Vec<f64>,
    /// `retire` wall times, µs.
    pub retire_us: Vec<f64>,
    /// Served frames that ran the big model.
    pub escalations: u64,
    /// Big passes those escalations ran in.
    pub big_passes: u64,
    /// Frames offered.
    pub submitted: u64,
    /// Frames the server refused.
    pub drops: u64,
    /// Served fps over isolated sequential fps on the same frames.
    pub mux_speedup: f64,
    /// Private bytes of one session.
    pub session_bytes: f64,
    /// Bytes shared by all sessions.
    pub shared_bytes: f64,
}

impl ServeSample {
    /// Adds another phase's calls and counts to this one.
    pub fn absorb(&mut self, other: ServeSample) {
        self.tick_us.extend(other.tick_us);
        self.queue_wait_us.extend(other.queue_wait_us);
        self.frames_per_tick.extend(other.frames_per_tick);
        self.submit_ns.extend(other.submit_ns);
        self.admit_us.extend(other.admit_us);
        self.retire_us.extend(other.retire_us);
        self.escalations += other.escalations;
        self.big_passes += other.big_passes;
        self.submitted += other.submitted;
        self.drops += other.drops;
    }
}

/// Emits the `serve.*` metrics of one sample.
pub fn put_serve(layers: &mut Metrics, s: &mut ServeSample) {
    let tick = summarize(&mut s.tick_us).expect("ticks ran");
    let wait = summarize(&mut s.queue_wait_us).expect("frames served");
    layers.put("serve.tick_p50_us", tick.p50, "us");
    layers.put("serve.tick_p99_us", tick.tail, "us");
    layers.put("serve.queue_wait_p50_us", wait.p50, "us");
    layers.put("serve.queue_wait_p99_us", wait.tail, "us");
    let fpt = s.frames_per_tick.iter().sum::<f64>() / s.frames_per_tick.len() as f64;
    layers.put("serve.frames_per_tick", fpt, "frames");
    let width = if s.big_passes == 0 {
        0.0
    } else {
        s.escalations as f64 / s.big_passes as f64
    };
    layers.put("serve.coalesce_width", width, "frames");
    layers.put("serve.submit_ns", median(&mut s.submit_ns), "ns");
    layers.put("serve.admit_us", median(&mut s.admit_us), "us");
    layers.put("serve.retire_us", median(&mut s.retire_us), "us");
    layers.put(
        "serve.drop_ratio",
        s.drops as f64 / s.submitted.max(1) as f64,
        "ratio",
    );
    layers.put("serve.mux_speedup", s.mux_speedup, "x");
    layers.put("serve.session_bytes", s.session_bytes, "bytes");
    layers.put("serve.shared_bytes", s.shared_bytes, "bytes");
}

/// `(worker spawns, parallel regions)` np-trace counted since tracing
/// was last switched on.
pub fn pool_counters() -> (u64, u64) {
    (
        np_trace::counter_value(np_trace::Counter::PoolWorkerSpawns),
        np_trace::counter_value(np_trace::Counter::PoolRegions),
    )
}

/// Emits the `tensor.pool.*` metrics.
pub fn put_pool(layers: &mut Metrics, (spawns, regions): (u64, u64), ticks: f64, frames: f64) {
    layers.put(
        "tensor.pool.spawns_per_tick",
        spawns as f64 / ticks,
        "count",
    );
    layers.put(
        "tensor.pool.regions_per_frame",
        regions as f64 / frames,
        "count",
    );
}
