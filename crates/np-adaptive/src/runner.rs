//! Streaming big/little inference over compiled programs.
//!
//! [`crate::eval`] replays precomputed outputs, which is right for
//! threshold sweeps but sidesteps the actual runtime question: what does
//! one adaptive frame *cost* when the CNNs really execute? [`FrameRunner`]
//! is that runtime. It holds the little and big members of an ensemble as
//! pre-compiled [`QuantizedProgram`]s sharing a single [`QScratch`] (the
//! two never run concurrently — the big model only runs after the policy
//! has seen the little model's outputs), drives the OP policy frame by
//! frame, and allocates nothing in steady state: every activation of both
//! networks lives in the one planner-sized arena.
//!
//! ```text
//! frame ─▶ little (always) ─▶ OP score ─▶ threshold? ─▶ big + average
//!              └──────────────── shared QScratch ────────────┘
//! ```

use crate::policy::{AdaptivePolicy, Decision, OpPolicy};
use np_quant::{QScratch, QuantizedNetwork, QuantizedProgram};
use np_tensor::parallel::Pool;
use std::sync::Arc;

/// The outcome of one streamed frame.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FrameResult {
    /// What the policy chose (the first frame of a sequence is always
    /// [`Decision::Ensemble`]).
    pub decision: Decision,
    /// Final min-max-scaled outputs: the little model's alone, or the
    /// element-wise midpoint of both when the big model also ran.
    pub scaled: [f32; 4],
    /// The little model's scaled outputs (always available).
    pub little_scaled: [f32; 4],
    /// The big model's scaled outputs, when it ran.
    pub big_scaled: Option<[f32; 4]>,
}

/// A big/little ensemble compiled for frame-by-frame streaming.
///
/// Construction compiles both networks for the given input shape and
/// pre-sizes one shared scratch; [`Self::run_frame`] then performs zero
/// heap allocations per frame (with a serial pool).
pub struct FrameRunner {
    little: Arc<QuantizedProgram>,
    big: Arc<QuantizedProgram>,
    policy: OpPolicy,
    scratch: QScratch,
    pool: Pool,
    /// Spans covering the little/big inferences of one streamed frame,
    /// registered at construction so `run_frame` never touches the span
    /// registry.
    little_span: np_trace::SpanId,
    big_span: np_trace::SpanId,
    /// Frames streamed since construction (survives `reset`).
    frames: u64,
    /// Frames on which the big model ran.
    big_frames: u64,
}

impl FrameRunner {
    /// Compiles `little` and `big` for `chw` inputs and wires an OP policy
    /// with threshold `th`.
    ///
    /// # Panics
    ///
    /// Panics if either network does not produce exactly the 4 pose
    /// outputs the OP policy scores.
    pub fn new(
        little: &QuantizedNetwork,
        big: &QuantizedNetwork,
        chw: (usize, usize, usize),
        th: f32,
        pool: Pool,
    ) -> Self {
        Self::from_programs(
            little.compile_shared(chw),
            big.compile_shared(chw),
            th,
            pool,
        )
    }

    /// Builds a runner over already-compiled, shared programs. Because a
    /// [`QuantizedProgram`] is immutable after compilation (all per-run
    /// state lives in the scratch), any number of runners — across any
    /// number of threads — can share one `Arc` of packed weights; each
    /// runner still owns its private policy state and activation arena.
    /// This is the constructor the serving layer uses so N sessions cost
    /// one copy of the weights plus N arenas.
    ///
    /// # Panics
    ///
    /// Panics if either program does not regress exactly 4 outputs or the
    /// two were compiled for different input shapes.
    pub fn from_programs(
        little: Arc<QuantizedProgram>,
        big: Arc<QuantizedProgram>,
        th: f32,
        pool: Pool,
    ) -> Self {
        assert_eq!(
            little.output_len(),
            4,
            "little model must regress 4 outputs"
        );
        assert_eq!(big.output_len(), 4, "big model must regress 4 outputs");
        assert_eq!(
            little.input_chw(),
            big.input_chw(),
            "ensemble members must share an input shape"
        );
        let scratch = QScratch::for_programs(&[&little, &big]);
        let little_span = np_trace::register_span(&format!("runner/{}", little.name()));
        let big_span = np_trace::register_span(&format!("runner/{}", big.name()));
        FrameRunner {
            little,
            big,
            policy: OpPolicy::new(th),
            scratch,
            pool,
            little_span,
            big_span,
            frames: 0,
            big_frames: 0,
        }
    }

    /// Runs one float CHW frame through the ensemble: the little program
    /// always, the big one only when the OP policy fires, averaging scaled
    /// outputs when both ran (paper Eq. 1–2).
    pub fn run_frame(&mut self, frame: &[f32]) -> FrameResult {
        let t_little = np_trace::start();
        let little_scaled = run4(&self.little, self.pool, &mut self.scratch, frame);
        let little_ns = np_trace::finish(self.little_span, t_little, 0);
        // Score before decide_scaled advances the policy's history; NaN
        // marks the first frame of a sequence (no predecessor).
        let op_score = self
            .policy
            .pending_score(&little_scaled)
            .unwrap_or(f32::NAN);
        let decision = self.policy.decide_scaled(&little_scaled);
        let mut big_ns = 0;
        let result = if !decision.runs_big() {
            FrameResult {
                decision,
                scaled: little_scaled,
                little_scaled,
                big_scaled: None,
            }
        } else {
            let t_big = np_trace::start();
            let big_scaled = run4(&self.big, self.pool, &mut self.scratch, frame);
            big_ns = np_trace::finish(self.big_span, t_big, 0);
            let scaled = [
                (little_scaled[0] + big_scaled[0]) / 2.0,
                (little_scaled[1] + big_scaled[1]) / 2.0,
                (little_scaled[2] + big_scaled[2]) / 2.0,
                (little_scaled[3] + big_scaled[3]) / 2.0,
            ];
            FrameResult {
                decision,
                scaled,
                little_scaled,
                big_scaled: Some(big_scaled),
            }
        };
        np_trace::counter_add(np_trace::Counter::FramesTotal, 1);
        self.frames += 1;
        if decision.runs_big() {
            np_trace::counter_add(np_trace::Counter::FramesBig, 1);
            self.big_frames += 1;
        }
        np_trace::record_frame(np_trace::FrameEvent {
            frame: self.frames - 1,
            decision: match decision {
                Decision::Small => np_trace::FrameDecision::Small,
                Decision::Big => np_trace::FrameDecision::Big,
                Decision::Ensemble => np_trace::FrameDecision::Ensemble,
            },
            op_score,
            threshold: self.policy.threshold(),
            little_ns,
            big_ns,
        });
        result
    }

    /// Resets the policy at a sequence boundary (the next frame runs the
    /// full ensemble again). Frame statistics keep accumulating — they
    /// describe the runner's whole lifetime, not one sequence.
    pub fn reset(&mut self) {
        self.policy.reset();
    }

    /// Frames streamed since construction.
    pub fn frames(&self) -> u64 {
        self.frames
    }

    /// Fraction of streamed frames on which the big model ran — the
    /// running `frac_big` the paper's cost model (Eq. 2) prices. `0.0`
    /// before any frame has run.
    pub fn frac_big(&self) -> f64 {
        if self.frames == 0 {
            0.0
        } else {
            self.big_frames as f64 / self.frames as f64
        }
    }

    /// The compiled little program.
    pub fn little(&self) -> &QuantizedProgram {
        &self.little
    }

    /// The compiled big program.
    pub fn big(&self) -> &QuantizedProgram {
        &self.big
    }

    /// Peak bytes of the shared activation arena (the larger of the two
    /// programs' plans — they time-share it).
    pub fn arena_bytes(&self) -> usize {
        self.little.arena_bytes().max(self.big.arena_bytes())
    }

    /// Total steady-state scratch bytes backing the runner (activation
    /// arena + im2row matrix + f32 output staging), as sized for the
    /// larger of the two programs. Together with
    /// [`Self::packed_weight_bytes`] this is the runner's whole
    /// steady-state memory footprint.
    pub fn scratch_bytes(&self) -> usize {
        self.scratch.bytes()
    }

    /// Bytes of pre-packed weights held by both compiled programs
    /// (panel-padded conv filters included — the microkernel pads channel
    /// counts up to whole panels).
    pub fn packed_weight_bytes(&self) -> usize {
        self.little.packed_weight_bytes() + self.big.packed_weight_bytes()
    }
}

fn run4(program: &QuantizedProgram, pool: Pool, scratch: &mut QScratch, frame: &[f32]) -> [f32; 4] {
    let out = program.forward_prepacked(pool, scratch, frame);
    [out[0], out[1], out[2], out[3]]
}

#[cfg(test)]
mod tests {
    use super::*;
    use np_nn::init::SmallRng;
    use np_tensor::Tensor;
    use np_zoo::ModelId;

    const CHW: (usize, usize, usize) = (1, 48, 80);

    fn quantized_pair() -> (QuantizedNetwork, QuantizedNetwork) {
        let mut rng = SmallRng::seed(21);
        let little = ModelId::F1.build_proxy(&mut rng);
        let big = ModelId::M10.build_proxy(&mut rng);
        let calib = calib(5, 77);
        (
            QuantizedNetwork::quantize(&little, &calib),
            QuantizedNetwork::quantize(&big, &calib),
        )
    }

    fn calib(n: usize, seed: u64) -> Tensor {
        let mut s = seed;
        let data: Vec<f32> = (0..n * CHW.1 * CHW.2)
            .map(|_| {
                s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
                ((s >> 40) as i32 % 200) as f32 / 100.0 - 1.0
            })
            .collect();
        Tensor::from_vec(&[n, 1, CHW.1, CHW.2], data)
    }

    #[test]
    fn first_frame_is_ensemble_and_matches_networks() {
        let (ql, qb) = quantized_pair();
        let mut runner = FrameRunner::new(&ql, &qb, CHW, 0.05, Pool::serial());
        let frame = calib(1, 3);

        let r = runner.run_frame(frame.as_slice());
        assert_eq!(r.decision, Decision::Ensemble);

        // The streamed outputs are exactly the networks' own outputs, as
        // the scalar oracle computes them.
        let oracle = |q: &QuantizedNetwork| {
            let (yq, _) = q.run_int(&q.input_params().quantize_slice(frame.as_slice()), CHW);
            q.output_params().dequantize_slice(&yq)
        };
        let (want_l, want_b) = (oracle(&ql), oracle(&qb));
        assert_eq!(&r.little_scaled[..], &want_l[..]);
        assert_eq!(&r.big_scaled.expect("big ran")[..], &want_b[..]);
        for i in 0..4 {
            let mid = (want_l[i] + want_b[i]) / 2.0;
            assert_eq!(r.scaled[i], mid);
        }
    }

    #[test]
    fn stationary_frames_settle_to_small() {
        let (ql, qb) = quantized_pair();
        // Generous threshold: identical frames have OP score 0.
        let mut runner = FrameRunner::new(&ql, &qb, CHW, 0.5, Pool::serial());
        let frame = calib(1, 4);

        assert_eq!(
            runner.run_frame(frame.as_slice()).decision,
            Decision::Ensemble
        );
        let r = runner.run_frame(frame.as_slice());
        assert_eq!(r.decision, Decision::Small);
        assert_eq!(r.big_scaled, None);
        assert_eq!(r.scaled, r.little_scaled);
    }

    #[test]
    fn reset_restarts_the_sequence() {
        let (ql, qb) = quantized_pair();
        let mut runner = FrameRunner::new(&ql, &qb, CHW, 0.5, Pool::serial());
        let frame = calib(1, 5);
        let _ = runner.run_frame(frame.as_slice());
        runner.reset();
        assert_eq!(
            runner.run_frame(frame.as_slice()).decision,
            Decision::Ensemble
        );
    }

    #[test]
    fn frac_big_tracks_decisions() {
        let (ql, qb) = quantized_pair();
        let mut runner = FrameRunner::new(&ql, &qb, CHW, 0.5, Pool::serial());
        assert_eq!(runner.frames(), 0);
        assert_eq!(runner.frac_big(), 0.0);
        let frame = calib(1, 9);
        // Frame 0 is always Ensemble, identical follow-ups settle to Small.
        for _ in 0..4 {
            let _ = runner.run_frame(frame.as_slice());
        }
        assert_eq!(runner.frames(), 4);
        assert_eq!(runner.frac_big(), 0.25);
    }

    #[test]
    fn runners_sharing_arc_programs_match_owned_compilation() {
        let (ql, qb) = quantized_pair();
        let little = ql.compile_shared(CHW);
        let big = qb.compile_shared(CHW);
        let mut owned = FrameRunner::new(&ql, &qb, CHW, 0.05, Pool::serial());
        let mut a = FrameRunner::from_programs(little.clone(), big.clone(), 0.05, Pool::serial());
        let mut b = FrameRunner::from_programs(little, big, 0.05, Pool::serial());
        for seed in [3u64, 4, 9] {
            let frame = calib(1, seed);
            let want = owned.run_frame(frame.as_slice());
            assert_eq!(a.run_frame(frame.as_slice()), want);
            assert_eq!(b.run_frame(frame.as_slice()), want);
        }
    }

    #[test]
    fn shared_arena_is_the_max_of_both_plans() {
        let (ql, qb) = quantized_pair();
        let runner = FrameRunner::new(&ql, &qb, CHW, 0.1, Pool::serial());
        assert_eq!(
            runner.arena_bytes(),
            runner
                .little()
                .arena_bytes()
                .max(runner.big().arena_bytes())
        );
        assert!(runner.arena_bytes() > 0);
        // The scratch backs the arena plus the lowering/output staging, so
        // it can never be smaller than the shared arena itself.
        assert!(runner.scratch_bytes() >= runner.arena_bytes());
        assert!(runner.packed_weight_bytes() > 0);
    }
}
