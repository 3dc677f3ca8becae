//! Isolated `FrameRunner` passes: the bit-exactness reference for every
//! workload and the sequential baseline of the fleet workloads.

use crate::setup::Stream;
use crate::spans::{Clock, Spans, ROOT};
use np_adaptive::{FrameResult, FrameRunner};
use std::hint::black_box;

/// True when two results agree bit for bit (decision and every output
/// float, so `-0.0` vs `0.0` or a changed NaN payload counts).
pub fn same_result(a: &FrameResult, b: &FrameResult) -> bool {
    let bits = |v: &[f32; 4]| v.map(f32::to_bits);
    a.decision == b.decision
        && bits(&a.scaled) == bits(&b.scaled)
        && bits(&a.little_scaled) == bits(&b.little_scaled)
        && a.big_scaled.map(|v| bits(&v)) == b.big_scaled.map(|v| bits(&v))
}

/// One timed pass of fresh isolated runners over every stream.
pub struct RunnerPass {
    /// Per-stream results in frame order.
    pub results: Vec<Vec<FrameResult>>,
    /// `run_frame` wall time of little-only frames, µs.
    pub small_us: Vec<f64>,
    /// `run_frame` wall time of frames that also ran the big model, µs.
    pub ensemble_us: Vec<f64>,
}

impl RunnerPass {
    /// Frames run.
    pub fn frames(&self) -> usize {
        self.small_us.len() + self.ensemble_us.len()
    }

    /// Frames that ran the big model.
    pub fn big_frames(&self) -> usize {
        self.ensemble_us.len()
    }

    /// Frames per second of `run_frame` time: the isolated sequential
    /// baseline.
    pub fn fps(&self) -> f64 {
        let busy_us: f64 = self.small_us.iter().chain(&self.ensemble_us).sum();
        self.frames() as f64 / (busy_us / 1e6)
    }
}

/// Runs the first `frames` frames of every stream through a fresh
/// [`FrameRunner`] from `make_runner` (fresh OP state per stream, exactly
/// like a newly admitted session), timing each `run_frame`.
pub fn isolated_pass(
    make_runner: impl Fn() -> FrameRunner,
    streams: &[Stream],
    frames: usize,
    clock: &Clock,
    spans: &mut Spans,
) -> RunnerPass {
    let mut pass = RunnerPass {
        results: Vec::with_capacity(streams.len()),
        small_us: Vec::new(),
        ensemble_us: Vec::new(),
    };
    for (s, stream) in streams.iter().enumerate() {
        let mut runner = make_runner();
        let n = frames.min(stream.len());
        let mut out = Vec::with_capacity(n);
        for i in 0..n {
            let t0 = clock.now();
            let r = runner.run_frame(black_box(stream.frame(i)));
            let t1 = clock.now();
            spans.record("adaptive.run_frame", t0, t1, ROOT, s as u32, i as u64);
            let us = (t1 - t0) as f64 / 1e3;
            if r.decision.runs_big() {
                pass.ensemble_us.push(us);
            } else {
                pass.small_us.push(us);
            }
            out.push(r);
        }
        pass.results.push(out);
    }
    pass
}
