//! Precomputed per-frame model outputs.
//!
//! Threshold sweeps evaluate hundreds of operating points over the same
//! test frames; running the CNNs once and replaying their outputs makes a
//! sweep O(frames) instead of O(frames × thresholds × MACs).

use np_dataset::{GridSpec, Pose, PoseDataset};
use np_nn::Sequential;
use np_quant::QuantizedNetwork;
use np_tensor::ops::{softmax, top2};
use np_tensor::parallel::Pool;

/// Everything a policy may consult about one frame, plus both models'
/// predictions for outcome accounting.
#[derive(Debug, Clone, PartialEq)]
pub struct FrameFeatures {
    /// Dataset frame index.
    pub frame: usize,
    /// Small model's min-max-scaled outputs.
    pub small_scaled: [f32; 4],
    /// Big model's min-max-scaled outputs.
    pub big_scaled: [f32; 4],
    /// Small model's physical pose prediction.
    pub small_pose: Pose,
    /// Big model's physical pose prediction.
    pub big_pose: Pose,
    /// Average-of-scaled-outputs pose (OP's ensembled prediction).
    pub avg_pose: Pose,
    /// Ground truth.
    pub truth: Pose,
    /// Auxiliary classifier's predicted grid cell.
    pub aux_cell: usize,
    /// Auxiliary classifier's score margin (max − second max of softmax).
    pub aux_margin: f32,
}

/// Precomputed outputs for every test frame, grouped in temporally-ordered
/// sequences.
#[derive(Debug, Clone)]
pub struct EvalTable {
    /// Per-sequence frame features, each sequence in temporal order.
    pub sequences: Vec<Vec<FrameFeatures>>,
    /// The grid the auxiliary features were computed for.
    pub grid: GridSpec,
}

/// Inference backend for building tables: float proxies or the int8
/// deployment-equivalent networks.
pub enum Backend<'a> {
    /// Float (f32) proxy model.
    Float(&'a mut Sequential),
    /// Integer-only quantized model (deployment arithmetic), run through
    /// [`QuantizedNetwork::forward_with`]'s compiled program, so tables
    /// score exactly the int8 network the streaming runtime executes.
    Quantized(&'a QuantizedNetwork),
}

impl Backend<'_> {
    /// Raw outputs for the given frames, one row per frame. Runs on the
    /// global pool.
    pub fn outputs(&mut self, data: &PoseDataset, indices: &[usize]) -> Vec<Vec<f32>> {
        self.outputs_with(Pool::global(), data, indices)
    }

    /// [`Self::outputs`] on an explicit execution context: the model's
    /// batch-parallel kernels run on `pool`.
    pub fn outputs_with(
        &mut self,
        pool: Pool,
        data: &PoseDataset,
        indices: &[usize],
    ) -> Vec<Vec<f32>> {
        let mut rows = Vec::with_capacity(indices.len());
        for chunk in indices.chunks(64) {
            let x = data.images_tensor(chunk);
            let y = match self {
                Backend::Float(m) => m.forward_with(pool, &x),
                Backend::Quantized(q) => q.forward_with(pool, &x),
            };
            let d = y.shape()[1];
            for bi in 0..chunk.len() {
                rows.push(y.as_slice()[bi * d..(bi + 1) * d].to_vec());
            }
        }
        rows
    }
}

impl EvalTable {
    /// Builds the table for the dataset's test sequences. Runs on the
    /// global pool.
    ///
    /// # Panics
    ///
    /// Panics if the dataset has no test sequences.
    pub fn build(
        data: &PoseDataset,
        small: &mut Backend<'_>,
        big: &mut Backend<'_>,
        aux: &mut Backend<'_>,
        grid: GridSpec,
    ) -> EvalTable {
        Self::build_with(Pool::global(), data, small, big, aux, grid)
    }

    /// [`Self::build`] on an explicit execution context.
    pub fn build_with(
        pool: Pool,
        data: &PoseDataset,
        small: &mut Backend<'_>,
        big: &mut Backend<'_>,
        aux: &mut Backend<'_>,
        grid: GridSpec,
    ) -> EvalTable {
        let sequences = data.test_sequences();
        assert!(!sequences.is_empty(), "dataset has no test sequences");
        let flat: Vec<usize> = sequences.iter().flatten().copied().collect();
        let table = Self::build_for_indices_with(pool, data, small, big, aux, grid, &flat);

        // Regroup flat rows into the sequence structure.
        let mut iter = table.into_iter();
        let grouped = sequences
            .iter()
            .map(|seq| {
                (0..seq.len())
                    .map(|_| iter.next().expect("length match"))
                    .collect()
            })
            .collect();
        EvalTable {
            sequences: grouped,
            grid,
        }
    }

    /// Builds flat (un-sequenced) features for arbitrary frames — used for
    /// validation-set error maps. Runs on the global pool.
    pub fn build_for_indices(
        data: &PoseDataset,
        small: &mut Backend<'_>,
        big: &mut Backend<'_>,
        aux: &mut Backend<'_>,
        grid: GridSpec,
        indices: &[usize],
    ) -> Vec<FrameFeatures> {
        Self::build_for_indices_with(Pool::global(), data, small, big, aux, grid, indices)
    }

    /// [`Self::build_for_indices`] on an explicit execution context.
    ///
    /// The three backends run one after another; each backend's inference
    /// is batch-parallel on `pool`. Parallelizing *within* a backend beats
    /// racing the three backends against each other: batch chunks are 64
    /// frames wide, so per-frame work saturates the pool, while the big
    /// model dominates the three-way split and would leave workers idle.
    pub fn build_for_indices_with(
        pool: Pool,
        data: &PoseDataset,
        small: &mut Backend<'_>,
        big: &mut Backend<'_>,
        aux: &mut Backend<'_>,
        _grid: GridSpec,
        indices: &[usize],
    ) -> Vec<FrameFeatures> {
        let scaler = *data.scaler();
        let small_out = small.outputs_with(pool, data, indices);
        let big_out = big.outputs_with(pool, data, indices);
        let aux_out = aux.outputs_with(pool, data, indices);

        indices
            .iter()
            .enumerate()
            .map(|(row, &i)| {
                let s: [f32; 4] = small_out[row][..4].try_into().expect("4 outputs");
                let b: [f32; 4] = big_out[row][..4].try_into().expect("4 outputs");
                let avg = [
                    (s[0] + b[0]) / 2.0,
                    (s[1] + b[1]) / 2.0,
                    (s[2] + b[2]) / 2.0,
                    (s[3] + b[3]) / 2.0,
                ];
                let probs = softmax(&aux_out[row]);
                let (hi, second) = top2(&probs);
                let cell = probs
                    .iter()
                    .enumerate()
                    .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite"))
                    .map(|(i, _)| i)
                    .expect("non-empty probs");
                FrameFeatures {
                    frame: i,
                    small_scaled: s,
                    big_scaled: b,
                    small_pose: scaler.unscale(s),
                    big_pose: scaler.unscale(b),
                    avg_pose: scaler.unscale(avg),
                    truth: data.frame(i).pose,
                    aux_cell: cell,
                    aux_margin: hi - second,
                }
            })
            .collect()
    }

    /// Total number of frames across all sequences.
    pub fn n_frames(&self) -> usize {
        self.sequences.iter().map(Vec::len).sum()
    }

    /// Iterates over all frames, ignoring sequence boundaries.
    pub fn iter_frames(&self) -> impl Iterator<Item = &FrameFeatures> {
        self.sequences.iter().flatten()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use np_dataset::DatasetConfig;
    use np_nn::init::SmallRng;
    use np_zoo::ModelId;

    fn tiny_setup() -> (PoseDataset, Sequential, Sequential, Sequential) {
        let data = PoseDataset::generate(&DatasetConfig::tiny());
        let mut rng = SmallRng::seed(3);
        let small = ModelId::F1.build_proxy(&mut rng);
        let big = ModelId::M10.build_proxy(&mut rng);
        let aux = ModelId::Aux(GridSpec::GRID_2X2).build_proxy(&mut rng);
        (data, small, big, aux)
    }

    #[test]
    fn table_structure_matches_dataset() {
        let (data, mut small, mut big, mut aux) = tiny_setup();
        let table = EvalTable::build(
            &data,
            &mut Backend::Float(&mut small),
            &mut Backend::Float(&mut big),
            &mut Backend::Float(&mut aux),
            GridSpec::GRID_2X2,
        );
        let expect: Vec<usize> = data.test_sequences().iter().map(Vec::len).collect();
        let got: Vec<usize> = table.sequences.iter().map(Vec::len).collect();
        assert_eq!(expect, got);
        assert!(table.n_frames() > 0);
    }

    #[test]
    fn features_are_consistent() {
        let (data, mut small, mut big, mut aux) = tiny_setup();
        let table = EvalTable::build(
            &data,
            &mut Backend::Float(&mut small),
            &mut Backend::Float(&mut big),
            &mut Backend::Float(&mut aux),
            GridSpec::GRID_2X2,
        );
        let scaler = data.scaler();
        for f in table.iter_frames() {
            // Poses match their scaled representations.
            let p = scaler.unscale(f.small_scaled);
            assert!((p.x - f.small_pose.x).abs() < 1e-5);
            // Margin is a valid probability difference.
            assert!((0.0..=1.0).contains(&f.aux_margin));
            assert!(f.aux_cell < 4);
            // Truth comes from the dataset.
            assert_eq!(f.truth, data.frame(f.frame).pose);
        }
    }

    #[test]
    fn avg_pose_is_scaled_midpoint() {
        let (data, mut small, mut big, mut aux) = tiny_setup();
        let table = EvalTable::build(
            &data,
            &mut Backend::Float(&mut small),
            &mut Backend::Float(&mut big),
            &mut Backend::Float(&mut aux),
            GridSpec::GRID_2X2,
        );
        let scaler = data.scaler();
        let f = table.iter_frames().next().expect("frames");
        let mid = scaler.unscale([
            (f.small_scaled[0] + f.big_scaled[0]) / 2.0,
            (f.small_scaled[1] + f.big_scaled[1]) / 2.0,
            (f.small_scaled[2] + f.big_scaled[2]) / 2.0,
            (f.small_scaled[3] + f.big_scaled[3]) / 2.0,
        ]);
        assert!((mid.x - f.avg_pose.x).abs() < 1e-5);
    }
}
