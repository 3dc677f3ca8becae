//! Exact-parity checks between the plan-once/run-many compiled programs
//! and the scalar oracle `QuantizedNetwork::run_int`, on the real paper
//! networks (proxy resolution). Integer arithmetic must be *bitwise*
//! identical on any thread count.

use nanopose::nn::init::{Initializer, SmallRng};
use nanopose::nn::layers::{BatchNorm2d, Conv2d, DepthwiseConv2d, Flatten, Linear, Relu};
use nanopose::nn::Sequential;
use nanopose::quant::{QScratch, QuantizedNetwork};
use nanopose::tensor::parallel::Pool;
use nanopose::tensor::Tensor;
use nanopose::zoo::channels::PROXY_INPUT;
use nanopose::zoo::ModelId;

const THREADS: [usize; 3] = [1, 2, 4];

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

/// The scalar oracle on float frames: quantize, `run_int`, dequantize.
fn oracle_forward(qnet: &QuantizedNetwork, frame: &[f32]) -> Vec<f32> {
    let (yq, _) = qnet.run_int(&qnet.input_params().quantize_slice(frame), PROXY_INPUT);
    qnet.output_params().dequantize_slice(&yq)
}

/// A depthwise-heavy MobileNet-ish network at proxy resolution whose
/// channel counts (5, 9, 11) are deliberately *not* multiples of the conv
/// microkernel's panel height, so every pointwise layer exercises the
/// ragged last panel, and whose depthwise stack covers kernel sizes 5 and
/// 3 at strides 1 and 2 (every stride-phase split of the tiled kernel,
/// padding cells included).
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
fn run_int_prepacked_is_bitwise_equal_on_zoo_networks() {
    let calib = frames(4, 9);
    for id in [ModelId::F1, ModelId::F2, ModelId::M10] {
        let mut rng = SmallRng::seed(17);
        let net = id.build_proxy(&mut rng);
        let qnet = QuantizedNetwork::quantize(&net, &calib);
        let program = qnet.compile(PROXY_INPUT);
        let mut scratch = QScratch::for_program(&program);

        for frame_seed in [1u64, 2, 3] {
            let frame = frames(1, frame_seed);
            let q = qnet.input_params().quantize_slice(frame.as_slice());
            let (want, want_shape) = qnet.run_int(&q, PROXY_INPUT);
            for threads in THREADS {
                let pool = Pool::new(threads);
                let (got, got_shape) = program.run_int_prepacked(pool, &mut scratch, &q);
                assert_eq!(got_shape, want_shape, "{} shape", id.name());
                assert_eq!(got, want.as_slice(), "{} t={threads}", id.name());
            }
        }
    }
}

#[test]
fn run_int_batched_is_bitwise_equal_on_zoo_networks() {
    let calib = frames(4, 9);
    let (c, h, w) = PROXY_INPUT;
    let frame_len = c * h * w;
    for id in [ModelId::F1, ModelId::F2, ModelId::M10] {
        let mut rng = SmallRng::seed(17);
        let net = id.build_proxy(&mut rng);
        let qnet = QuantizedNetwork::quantize(&net, &calib);
        let program = qnet.compile_batched(PROXY_INPUT, 8);
        let mut scratch = QScratch::for_program(&program);

        let stream = frames(8, 4);
        let q = qnet.input_params().quantize_slice(stream.as_slice());
        // Reference: the scalar oracle, frame by frame.
        let oracle: Vec<i8> = q
            .chunks_exact(frame_len)
            .flat_map(|frame| qnet.run_int(frame, PROXY_INPUT).0)
            .collect();
        for batch in [1usize, 3, 8] {
            let want = &oracle[..batch * program.output_len()];
            for threads in THREADS {
                let (got, shape) = program.run_int_batched(
                    Pool::new(threads),
                    &mut scratch,
                    &q[..batch * frame_len],
                    batch,
                );
                assert_eq!(shape, program.output_chw(), "{} shape", id.name());
                assert_eq!(got, want, "{} b={batch} t={threads}", id.name());
            }
        }
    }
}

#[test]
fn forward_prepacked_is_bitwise_equal_on_zoo_networks() {
    let calib = frames(4, 23);
    for id in [ModelId::F1, ModelId::F2, ModelId::M10] {
        let mut rng = SmallRng::seed(29);
        let net = id.build_proxy(&mut rng);
        let qnet = QuantizedNetwork::quantize(&net, &calib);
        let program = qnet.compile(PROXY_INPUT);
        let mut scratch = QScratch::for_program(&program);

        let frame = frames(1, 6);
        let want = oracle_forward(&qnet, frame.as_slice());
        for threads in THREADS {
            let got = program.forward_prepacked(Pool::new(threads), &mut scratch, frame.as_slice());
            assert_eq!(got, &want[..], "{} t={threads}", id.name());
        }
    }
}

#[test]
fn prepacked_is_bitwise_equal_on_dw_heavy_ragged_network() {
    let calib = frames(4, 61);
    let mut rng = SmallRng::seed(43);
    let mut net = build_dw_heavy(&mut rng);
    // Populate BN running stats so folding has something real to fold.
    let _ = net.forward_train(&frames(2, 62));
    let qnet = QuantizedNetwork::quantize(&net, &calib);
    let program = qnet.compile(PROXY_INPUT);
    let mut scratch = QScratch::for_program(&program);

    for frame_seed in [11u64, 12, 13] {
        let frame = frames(1, frame_seed);
        let q = qnet.input_params().quantize_slice(frame.as_slice());
        let (want, want_shape) = qnet.run_int(&q, PROXY_INPUT);
        let want_f = oracle_forward(&qnet, frame.as_slice());
        for threads in THREADS {
            let pool = Pool::new(threads);
            let (got, got_shape) = program.run_int_prepacked(pool, &mut scratch, &q);
            assert_eq!(got_shape, want_shape, "dw-heavy shape");
            assert_eq!(got, want.as_slice(), "dw-heavy int t={threads}");
            let got_f = program.forward_prepacked(pool, &mut scratch, frame.as_slice());
            assert_eq!(got_f, &want_f[..], "dw-heavy float t={threads}");
        }
    }
}
