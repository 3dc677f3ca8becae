//! Cross-crate planner validation: the np-tensor arena planner, fed the
//! activation chain of a paper network, must agree with the independent
//! np-dory deployment budget (`activation_bytes`, the ping-pong peak), and
//! every compiled [`QuantizedProgram`] must fit inside that budget.

use nanopose::dory::plan::activation_bytes;
use nanopose::nn::init::SmallRng;
use nanopose::nn::NetworkDesc;
use nanopose::quant::{QScratch, QuantizedNetwork};
use nanopose::tensor::arena::{chain_reqs, plan_arena};
use nanopose::tensor::Tensor;
use nanopose::zoo::ModelId;

const MODELS: [ModelId; 3] = [ModelId::F1, ModelId::F2, ModelId::M10];

/// Memory footprints of the compiled F1 / F2 / M1.0 proxies, as
/// `(arena_bytes, packed_weight_bytes, QScratch bytes)`. They follow from
/// the layer shapes and the planner alone, so they pin a layout change
/// exactly, whatever the weights or the host.
const FOOTPRINTS: [(usize, usize, usize); 3] = [
    (38_400, 14_064, 63_376),
    (48_000, 44_160, 72_976),
    (53_760, 47_776, 76_816),
];

/// The activation chain of a network at layer granularity: the input
/// tensor, then each layer's output, in execution order.
fn activation_chain(desc: &NetworkDesc) -> Vec<usize> {
    let mut sizes = vec![desc.input.0 * desc.input.1 * desc.input.2];
    for layer in &desc.layers {
        // Straight-line networks: each layer consumes its predecessor.
        assert_eq!(
            layer.input_elems(),
            *sizes.last().unwrap() as u64,
            "{}: layer {} breaks the chain",
            desc.name,
            layer.name
        );
        sizes.push(layer.output_elems() as usize);
    }
    sizes
}

#[test]
fn planner_peak_matches_dory_activation_budget() {
    for id in MODELS {
        let desc = id.paper_desc();
        let reqs = chain_reqs(&activation_chain(&desc));
        let plan = plan_arena(&reqs);
        plan.validate(&reqs);
        assert_eq!(
            plan.arena_bytes,
            activation_bytes(&desc),
            "{}: planner peak vs dory ping-pong budget",
            desc.name
        );
    }
}

#[test]
fn compiled_programs_fit_the_dory_budget() {
    let chw = nanopose::zoo::channels::PROXY_INPUT;
    let mut rng = SmallRng::seed(5);
    let calib = Tensor::from_vec(
        &[2, chw.0, chw.1, chw.2],
        (0..2 * chw.0 * chw.1 * chw.2)
            .map(|i| ((i * 37) % 255) as f32 / 127.5 - 1.0)
            .collect(),
    );
    for (id, footprint) in MODELS.into_iter().zip(FOOTPRINTS) {
        let net = id.build_proxy(&mut rng);
        let desc = net.describe(chw);
        let program = QuantizedNetwork::quantize(&net, &calib).compile(chw);
        assert_eq!(
            (
                program.arena_bytes(),
                program.packed_weight_bytes(),
                QScratch::for_program(&program).bytes()
            ),
            footprint,
            "{}: (arena, packed weight, scratch) bytes",
            program.name()
        );
        // The program plans with buffer reuse (and ReLU fused in-place), so
        // its arena can only be at or below the ping-pong budget.
        assert!(
            program.arena_bytes() <= activation_bytes(&desc),
            "{}: program arena {} exceeds dory budget {}",
            program.name(),
            program.arena_bytes(),
            activation_bytes(&desc)
        );
        assert!(program.arena_bytes() > 0);
    }
}
