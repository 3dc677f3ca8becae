//! Concurrency exactness for the `np-serve` multiplexing layer: sessions
//! sharing one `Arc<QuantizedProgram>` pair must produce per-session
//! result streams bit-identical to isolated serial [`FrameRunner`]s, at
//! every pool width — work-stealing may reorder *execution*, never
//! *results*, and cross-session escalation coalescing must be invisible
//! in the outputs.
//!
//! Three angles:
//! - the paper's D1 = (F1, M1.0) and D2 = (F2, M1.0) ensembles on the
//!   proxy input, across pool widths 1–8;
//! - frames a full queue refuses, which must never reach the OP policy;
//! - a property test over ragged channel counts / kernel geometry (every
//!   pointwise conv ends on a partial microkernel panel) and random
//!   thresholds, so the escalation mix — and therefore the coalescing
//!   pattern — varies per case.

use nanopose::adaptive::FrameResult;
use nanopose::nn::init::{Initializer, SmallRng};
use nanopose::nn::layers::{Conv2d, DepthwiseConv2d, Flatten, Linear, Relu};
use nanopose::nn::Sequential;
use nanopose::quant::QuantizedNetwork;
use nanopose::serve::{ServeConfig, Server, ServingEnsemble, SessionId};
use nanopose::tensor::parallel::Pool;
use nanopose::tensor::Tensor;
use nanopose::zoo::channels::PROXY_INPUT;
use nanopose::zoo::ModelId;
use proptest::prelude::*;

fn frames(n: usize, seed: u64, chw: (usize, usize, usize)) -> Tensor {
    let (c, h, w) = chw;
    let mut s = seed.wrapping_mul(2654435761).wrapping_add(1);
    let data: Vec<f32> = (0..n * c * h * w)
        .map(|_| {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((s >> 40) as i32 % 200) as f32 / 100.0 - 1.0
        })
        .collect();
    Tensor::from_vec(&[n, c, h, w], data)
}

/// Serves `streams` through a fresh server at the given pool width,
/// submitting one frame per session per tick, and returns the per-session
/// result sequences.
fn serve_streams(
    ens: &ServingEnsemble,
    th: f32,
    pool: Pool,
    streams: &[Tensor],
    n_frames: usize,
) -> Vec<Vec<FrameResult>> {
    let frame_len = {
        let (c, h, w) = ens.little().input_chw();
        c * h * w
    };
    let mut server = Server::new(
        ens,
        pool,
        ServeConfig {
            max_sessions: streams.len(),
            queue_capacity: 2,
        },
    );
    let ids: Vec<SessionId> = (0..streams.len())
        .map(|_| server.admit(th).expect("slab sized for the fleet"))
        .collect();
    let mut got: Vec<Vec<FrameResult>> = vec![Vec::new(); streams.len()];
    for f in 0..n_frames {
        for (s, id) in ids.iter().enumerate() {
            assert!(server.submit(
                *id,
                &streams[s].as_slice()[f * frame_len..(f + 1) * frame_len],
                f as u64
            ));
        }
        for sv in server.serve(f as u64) {
            got[sv.session.index()].push(sv.result);
        }
    }
    for (s, results) in got.iter().enumerate() {
        assert_eq!(results.len(), n_frames, "session {s} must drain fully");
    }
    got
}

/// Isolated serial FrameRunners over the same shared programs: the
/// ground truth each served session is compared against bit for bit.
fn isolated_streams(
    ens: &ServingEnsemble,
    th: f32,
    streams: &[Tensor],
    n_frames: usize,
) -> Vec<Vec<FrameResult>> {
    let frame_len = {
        let (c, h, w) = ens.little().input_chw();
        c * h * w
    };
    streams
        .iter()
        .map(|stream| {
            let mut runner = ens.runner(th, Pool::serial());
            (0..n_frames)
                .map(|f| runner.run_frame(&stream.as_slice()[f * frame_len..(f + 1) * frame_len]))
                .collect()
        })
        .collect()
}

/// D1 and D2 ensembles on the proxy input: four sessions multiplexed at
/// pool widths 1–8 match their isolated serial baselines exactly.
#[test]
fn paper_ensembles_served_bit_exact_across_pool_widths() {
    let calib = frames(4, 7, PROXY_INPUT);
    let mut rng = SmallRng::seed(21);
    let f1 = QuantizedNetwork::quantize(&ModelId::F1.build_proxy(&mut rng), &calib);
    let f2 = QuantizedNetwork::quantize(&ModelId::F2.build_proxy(&mut rng), &calib);
    let m10 = QuantizedNetwork::quantize(&ModelId::M10.build_proxy(&mut rng), &calib);

    let n_sessions = 4;
    let n_frames = 5;
    let th = 0.05;
    for (name, little) in [("D1", &f1), ("D2", &f2)] {
        let ens = ServingEnsemble::compile(little, &m10, PROXY_INPUT, 3);
        let streams: Vec<Tensor> = (0..n_sessions)
            .map(|s| frames(n_frames, 40 + s as u64, PROXY_INPUT))
            .collect();
        let want = isolated_streams(&ens, th, &streams, n_frames);
        for threads in [1usize, 2, 3, 4, 8] {
            let got = serve_streams(&ens, th, Pool::new(threads), &streams, n_frames);
            assert_eq!(got, want, "{name} diverged at {threads} threads");
        }
    }
}

/// A D1 server's memory footprint: bytes private to one session (its
/// scratch and frame queue) and bytes shared by all of them (packed
/// weights and the coalescing scratch), after every session's first
/// frame has run the full ensemble. Both follow from the layer shapes
/// and the server configuration alone, so they are pinned exactly.
#[test]
fn d1_server_footprint_is_pinned() {
    let calib = frames(4, 7, PROXY_INPUT);
    let mut rng = SmallRng::seed(3);
    let f1 = QuantizedNetwork::quantize(&ModelId::F1.build_proxy(&mut rng), &calib);
    let m10 = QuantizedNetwork::quantize(&ModelId::M10.build_proxy(&mut rng), &calib);
    let ens = ServingEnsemble::compile(&f1, &m10, PROXY_INPUT, 4);
    let config = ServeConfig {
        max_sessions: 4,
        queue_capacity: 12,
    };
    let mut server = Server::new(&ens, Pool::serial(), config);
    let ids: Vec<SessionId> = (0..4).map(|_| server.admit(0.05).unwrap()).collect();
    let frame = frames(1, 8, PROXY_INPUT);
    for &id in &ids {
        assert!(server.submit(id, frame.as_slice(), 0));
    }
    assert_eq!(server.serve(0).len(), 4);
    for id in ids {
        assert_eq!(server.session_bytes(id), Some(247_792));
    }
    assert_eq!(server.shared_bytes(), 430_544);
}

/// The OP policy on dropped frames: with one queue slot, the second of
/// two submits per session per tick is refused, and a refused frame must
/// never reach the session's policy. So each session's results equal an
/// isolated runner fed only the accepted frames, in order. Every stream
/// frame is accepted twice in a row (the repeat scores 0, so both
/// decisions occur) and every refused frame is one intruder frame, which
/// moves the policy if it leaks.
#[test]
fn dropped_frames_never_reach_the_op_policy() {
    let calib = frames(4, 7, PROXY_INPUT);
    let mut rng = SmallRng::seed(23);
    let f1 = QuantizedNetwork::quantize(&ModelId::F1.build_proxy(&mut rng), &calib);
    let m10 = QuantizedNetwork::quantize(&ModelId::M10.build_proxy(&mut rng), &calib);
    let ens = ServingEnsemble::compile(&f1, &m10, PROXY_INPUT, 2);
    let fl = PROXY_INPUT.0 * PROXY_INPUT.1 * PROXY_INPUT.2;
    let (n_sessions, n_ticks, th) = (3, 6, 0.01);
    let streams: Vec<Tensor> = (0..n_sessions)
        .map(|s| frames(n_ticks / 2, 60 + s as u64, PROXY_INPUT))
        .collect();
    let intruder = frames(1, 99, PROXY_INPUT);
    let accepted = |s: usize, t: usize| &streams[s].as_slice()[(t / 2) * fl..(t / 2 + 1) * fl];

    let config = ServeConfig {
        max_sessions: n_sessions,
        queue_capacity: 1,
    };
    let mut server = Server::new(&ens, Pool::serial(), config);
    let ids: Vec<SessionId> = (0..n_sessions).map(|_| server.admit(th).unwrap()).collect();
    let mut got: Vec<Vec<FrameResult>> = vec![Vec::new(); n_sessions];
    for t in 0..n_ticks {
        for (s, &id) in ids.iter().enumerate() {
            assert!(server.submit(id, accepted(s, t), t as u64), "s{s} t{t}");
            assert!(
                !server.submit(id, intruder.as_slice(), t as u64),
                "s{s} t{t} full"
            );
        }
        for sv in server.serve(t as u64) {
            got[sv.session.index()].push(sv.result);
        }
    }

    // Replays session `s` through an isolated runner; with `leak`, the
    // runner also sees the refused frames, which must change some result.
    let replay = |s: usize, leak: bool| -> Vec<FrameResult> {
        let mut runner = server.isolated_runner(th);
        (0..n_ticks)
            .map(|t| {
                let r = runner.run_frame(accepted(s, t));
                if leak {
                    runner.run_frame(intruder.as_slice());
                }
                r
            })
            .collect()
    };
    for (s, results) in got.iter().enumerate() {
        assert_eq!(results, &replay(s, false), "session {s}");
    }
    assert!(
        (0..n_sessions).any(|s| replay(s, true) != got[s]),
        "intruders must move the policy"
    );
}

fn conv_out_dim(side: usize, kernel: usize, stride: usize, pad: usize) -> usize {
    (side + 2 * pad - kernel) / stride + 1
}

/// A little/big pair over ragged channel counts ending in a 4-output
/// head, mirroring the geometry of the np-quant batched property tests.
fn ragged_pair(
    c1: usize,
    c2: usize,
    kernel: usize,
    stride: usize,
    side: usize,
    seed: u64,
) -> (QuantizedNetwork, QuantizedNetwork, (usize, usize, usize)) {
    let mut rng = SmallRng::seed(seed ^ 0x5EF7);
    let k = Initializer::KaimingUniform;
    let build = |c1: usize, c2: usize, rng: &mut SmallRng| {
        let oh = conv_out_dim(side, kernel, stride, 1);
        Sequential::with_name(
            "serve-prop",
            vec![
                Box::new(Conv2d::new(1, c1, kernel, stride, 1, k, rng)),
                Box::new(Relu::new()),
                Box::new(DepthwiseConv2d::new(c1, 3, 1, 1, k, rng)),
                Box::new(Relu::new()),
                Box::new(Conv2d::new(c1, c2, 1, 1, 0, k, rng)),
                Box::new(Relu::new()),
                Box::new(Flatten::new()),
                Box::new(Linear::new(c2 * oh * oh, 4, k, rng)),
            ],
        )
    };
    let chw = (1, side, side);
    let little = build(c1, c2, &mut rng);
    let big = build(c1 + 2, c2 + 3, &mut rng);
    let calib = frames(3, seed ^ 0xCA11B, chw);
    (
        QuantizedNetwork::quantize(&little, &calib),
        QuantizedNetwork::quantize(&big, &calib),
        chw,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Ragged shapes, random thresholds: three multiplexed sessions match
    /// their isolated serial baselines bit for bit at every pool width.
    #[test]
    fn ragged_ensembles_served_bit_exact(
        c1 in 1usize..5,
        c2 in 1usize..7,
        kernel in 1usize..4,
        stride in 1usize..3,
        side in 8usize..13,
        th in 0.01f32..0.5,
        seed in 0u64..1_000_000,
    ) {
        let (little, big, chw) = ragged_pair(c1, c2, kernel, stride, side, seed);
        let ens = ServingEnsemble::compile(&little, &big, chw, 2);
        let n_sessions = 3;
        let n_frames = 4;
        let streams: Vec<Tensor> = (0..n_sessions)
            .map(|s| frames(n_frames, seed ^ (s as u64) << 8, chw))
            .collect();
        let want = isolated_streams(&ens, th, &streams, n_frames);
        for threads in [1usize, 2, 5, 8] {
            let got = serve_streams(&ens, th, Pool::new(threads), &streams, n_frames);
            prop_assert_eq!(&got, &want, "diverged at {} threads", threads);
        }
    }
}
