//! Inputs and programs: seeded frame rendering and the proxy ensembles.
//!
//! The program under test only ever sees the frames made here. Frames are
//! rendered by `np-dataset` along temporally ordered flight sequences
//! ("Known" environments, like the test split), so consecutive frames
//! carry the real motion the OP policy reacts to.

use crate::params::{CALIB_FRAMES_PER_SEQ, CALIB_SEED, CALIB_SEQS, WEIGHT_SEED};
use np_dataset::render::{render_frame, Camera, EnvInstance};
use np_dataset::trajectory::{Trajectory, TrajectoryConfig};
use np_nn::init::SmallRng;
use np_nn::Sequential;
use np_quant::QuantizedNetwork;
use np_tensor::Tensor;
use np_zoo::channels::PROXY_INPUT;
use np_zoo::ModelId;

/// Floats per proxy frame.
pub const FRAME_LEN: usize = PROXY_INPUT.0 * PROXY_INPUT.1 * PROXY_INPUT.2;

/// splitmix64 finalizer: derives independent sub-seeds from the one
/// `--seed` (frames, arrivals, churn order each get their own stream).
pub fn mix(seed: u64, tag: u64) -> u64 {
    let mut z = seed
        .wrapping_add(tag.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One temporally ordered flight: `len` frames of `FRAME_LEN` floats.
#[derive(Debug, Clone, PartialEq)]
pub struct Stream {
    data: Vec<f32>,
}

impl Stream {
    /// Frame `i` (CHW floats).
    pub fn frame(&self, i: usize) -> &[f32] {
        &self.data[i * FRAME_LEN..(i + 1) * FRAME_LEN]
    }

    /// Frames in the stream.
    pub fn len(&self) -> usize {
        self.data.len() / FRAME_LEN
    }
}

/// Every frame of `streams`, flight by flight.
pub fn all_frames(streams: &[Stream]) -> Vec<&[f32]> {
    streams
        .iter()
        .flat_map(|s| (0..s.len()).map(move |i| s.frame(i)))
        .collect()
}

/// Renders `n_seq` independent flights of `len` frames from `seed`.
pub fn render_streams(seed: u64, n_seq: usize, len: usize) -> Vec<Stream> {
    let mut rng = SmallRng::seed(seed);
    let cam = Camera::for_resolution(PROXY_INPUT.2, PROXY_INPUT.1);
    (0..n_seq)
        .map(|_| {
            let env = EnvInstance::known(&mut rng);
            let traj = Trajectory::new(TrajectoryConfig::default(), &mut rng);
            let mut data = Vec::with_capacity(len * FRAME_LEN);
            for s in traj.run(len, &mut rng) {
                data.extend(render_frame(&s.pose, s.speed, &env, &cam, &mut rng));
            }
            Stream { data }
        })
        .collect()
}

/// The three proxies of the paper's ensembles.
pub const MODELS: [ModelId; 3] = [ModelId::F1, ModelId::F2, ModelId::M10];

/// Metric-name tag of a model (`M1.0` has a dot, which metric names
/// reserve as the layer separator).
pub fn tag(id: ModelId) -> &'static str {
    match id {
        ModelId::F1 => "F1",
        ModelId::F2 => "F2",
        ModelId::M10 => "M10",
        ModelId::Aux(_) => "aux",
    }
}

/// A proxy built from its fixed weight seed and quantized on the fixed
/// rendered calibration frames.
pub struct Model {
    /// The float network (for the deployment description).
    pub float: Sequential,
    /// Its int8 quantization.
    pub quant: QuantizedNetwork,
}

/// Builds and quantizes one proxy.
pub fn build_model(id: ModelId) -> Model {
    let index = MODELS
        .iter()
        .position(|m| *m == id)
        .expect("one of the ensemble proxies");
    let mut rng = SmallRng::seed(WEIGHT_SEED + index as u64);
    let float = id.build_proxy(&mut rng);
    let calib: Vec<f32> = render_streams(CALIB_SEED, CALIB_SEQS, CALIB_FRAMES_PER_SEQ)
        .into_iter()
        .flat_map(|s| s.data)
        .collect();
    let n = calib.len() / FRAME_LEN;
    let (c, h, w) = PROXY_INPUT;
    let quant = QuantizedNetwork::quantize(&float, &Tensor::from_vec(&[n, c, h, w], calib));
    Model { float, quant }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_renders_the_same_frames() {
        let a = render_streams(mix(11, 1), 2, 5);
        let b = render_streams(mix(11, 1), 2, 5);
        assert_eq!(a, b);
        let c = render_streams(mix(12, 1), 2, 5);
        assert_ne!(a, c, "another seed must render other frames");
        assert_eq!(a[0].len(), 5);
    }

    #[test]
    fn sub_seeds_differ_by_tag_and_seed() {
        assert_ne!(mix(1, 1), mix(1, 2));
        assert_ne!(mix(1, 1), mix(2, 1));
        assert_eq!(mix(5, 3), mix(5, 3));
    }
}
