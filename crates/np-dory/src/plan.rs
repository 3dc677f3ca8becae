//! Whole-network deployment plans.

use crate::schedule::schedule_layer_with;
use crate::tiling::{matters, solve_tiling, TilingChoice, TilingObjective};
use np_gap8::calib::CalibModel;
use np_gap8::mem::{MemoryKind, MemoryPlan};
use np_gap8::perf::CycleBreakdown;
use np_gap8::power::PowerModel;
use np_gap8::Gap8Config;
use np_nn::NetworkDesc;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Deployment failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeployError {
    /// A layer cannot be tiled into L1 even at minimum tile size.
    TilingFailed(String),
    /// The network does not fit the L2 budget.
    L2Overflow {
        /// Bytes required.
        required: usize,
        /// L2 capacity.
        capacity: usize,
    },
}

impl fmt::Display for DeployError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeployError::TilingFailed(name) => write!(f, "cannot tile layer `{name}` into L1"),
            DeployError::L2Overflow { required, capacity } => {
                write!(f, "L2 overflow: need {required} bytes, have {capacity}")
            }
        }
    }
}

impl std::error::Error for DeployError {}

/// One layer's deployment decision and price.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LayerPlan {
    /// Layer name from the network description.
    pub name: String,
    /// Tiling decision.
    pub tiling: TilingChoice,
    /// Cycle price.
    pub cycles: CycleBreakdown,
    /// Bytes moved over L2↔L1 for the whole layer.
    pub dma_bytes: usize,
}

/// A priced, memory-checked deployment of one network on GAP8.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DeploymentPlan {
    /// Network name.
    pub network: String,
    /// Per-layer plans (compute layers only; free ops are skipped).
    pub layers: Vec<LayerPlan>,
    /// Total cycles for one inference.
    pub cycles: CycleBreakdown,
    /// Int8 weight bytes (+ i32 biases) resident in L2.
    pub weight_bytes: usize,
    /// Ping-pong activation buffer bytes in L2 (largest input+output pair).
    pub activation_bytes: usize,
    /// True when the cycle prices came from a fitted calibration artifact
    /// ([`np_gap8::calib::CalibModel`]) rather than the analytic model.
    pub calibrated: bool,
    /// The SoC configuration the plan was priced under.
    pub config: Gap8Config,
}

impl DeploymentPlan {
    /// Latency of one inference in milliseconds.
    pub fn latency_ms(&self) -> f64 {
        self.config.cycles_to_ms(self.cycles.total())
    }

    /// Total cycles of one inference.
    pub fn total_cycles(&self) -> u64 {
        self.cycles.total()
    }

    /// Energy of one inference in millijoules under `power`.
    pub fn energy_mj(&self, power: &PowerModel) -> f64 {
        power.energy_mj(&self.cycles, &self.config)
    }

    /// Total L2 bytes: weights + activation ping-pong buffer.
    pub fn l2_bytes(&self) -> usize {
        self.weight_bytes + self.activation_bytes
    }
}

/// Plans `network` onto GAP8 with the default (max-tile) objective.
///
/// Cycle prices come from the process-wide calibration artifact when one
/// is loaded (`NP_CALIB`, see [`np_gap8::calib::current`]); otherwise the
/// analytic model applies and the first caller gets a warn-once through
/// the np-trace log facade.
///
/// # Errors
///
/// Returns [`DeployError`] if any layer cannot be tiled into L1 or the
/// network overflows L2.
pub fn deploy(network: &NetworkDesc, cfg: &Gap8Config) -> Result<DeploymentPlan, DeployError> {
    deploy_with_objective(network, cfg, TilingObjective::MaxTile)
}

/// Plans `network` with an explicit tiling objective (for the ablation
/// bench comparing `MaxTile` vs `MinDma`). Consults the process-wide
/// calibration artifact like [`deploy`].
///
/// # Errors
///
/// Returns [`DeployError`] if any layer cannot be tiled into L1 or the
/// network overflows L2.
pub fn deploy_with_objective(
    network: &NetworkDesc,
    cfg: &Gap8Config,
    objective: TilingObjective,
) -> Result<DeploymentPlan, DeployError> {
    deploy_with(
        network,
        cfg,
        objective,
        np_gap8::calib::current_or_warn("np-dory deploy"),
    )
}

/// Plans `network` with the uncalibrated analytic cycle model regardless
/// of any loaded calibration artifact — the explicit fallback path, kept
/// callable so drift reports can show analytic vs calibrated side by side.
///
/// # Errors
///
/// Returns [`DeployError`] if any layer cannot be tiled into L1 or the
/// network overflows L2.
pub fn deploy_analytic(
    network: &NetworkDesc,
    cfg: &Gap8Config,
) -> Result<DeploymentPlan, DeployError> {
    deploy_with(network, cfg, TilingObjective::MaxTile, None)
}

/// Plans `network` priced by an explicit calibration artifact.
///
/// # Errors
///
/// Returns [`DeployError`] if any layer cannot be tiled into L1 or the
/// network overflows L2.
pub fn deploy_calibrated(
    network: &NetworkDesc,
    cfg: &Gap8Config,
    calib: &CalibModel,
) -> Result<DeploymentPlan, DeployError> {
    deploy_with(network, cfg, TilingObjective::MaxTile, Some(calib))
}

/// The general planner: explicit tiling objective and optional
/// calibration artifact.
///
/// # Errors
///
/// Returns [`DeployError`] if any layer cannot be tiled into L1 or the
/// network overflows L2.
pub fn deploy_with(
    network: &NetworkDesc,
    cfg: &Gap8Config,
    objective: TilingObjective,
    calib: Option<&CalibModel>,
) -> Result<DeploymentPlan, DeployError> {
    let mut layers = Vec::new();
    let mut total = CycleBreakdown::default();
    for layer in &network.layers {
        if !matters(layer.kind) {
            continue;
        }
        let choice = solve_tiling(layer, cfg, objective)
            .ok_or_else(|| DeployError::TilingFailed(layer.name.clone()))?;
        let cycles = schedule_layer_with(layer, choice, cfg, calib);
        total = total.add(&cycles);
        layers.push(LayerPlan {
            name: layer.name.clone(),
            tiling: choice,
            cycles,
            dma_bytes: crate::tiling::total_dma_bytes(layer, choice),
        });
    }

    let weight_bytes = weight_bytes(network);
    let activation_bytes = activation_bytes(network);

    let mut l2 = MemoryPlan::new(MemoryKind::L2, cfg);
    l2.alloc(format!("{}/weights", network.name), weight_bytes)
        .map_err(|_| DeployError::L2Overflow {
            required: weight_bytes + activation_bytes,
            capacity: cfg.l2_bytes,
        })?;
    l2.alloc(format!("{}/activations", network.name), activation_bytes)
        .map_err(|_| DeployError::L2Overflow {
            required: weight_bytes + activation_bytes,
            capacity: cfg.l2_bytes,
        })?;

    Ok(DeploymentPlan {
        network: network.name.clone(),
        layers,
        cycles: total,
        weight_bytes,
        activation_bytes,
        calibrated: calib.is_some(),
        config: cfg.clone(),
    })
}

/// Int8 weight footprint of a network (weights 1 B, biases 4 B).
pub fn weight_bytes(network: &NetworkDesc) -> usize {
    network
        .layers
        .iter()
        .filter(|l| l.has_weights())
        .map(|l| {
            let params = l.params() as usize;
            let biases = l.out_channels;
            // params counts weights + biases as scalars; weights are 1 B,
            // biases are stored as i32.
            (params - biases) + 4 * biases
        })
        .sum()
}

/// Activation ping-pong buffer: the largest live input+output pair across
/// the network (int8 elements).
pub fn activation_bytes(network: &NetworkDesc) -> usize {
    network.peak_live_activation_elems() as usize
}

/// L2 footprint of deploying several networks together, as in the paper's
/// adaptive ensembles: every network's weights are resident, while the
/// activation buffer is shared (only one network runs at a time), so the
/// ensemble costs the *max* activation buffer, not the sum — this is why
/// Table II's D1/D2 memory is less than the sum of their members.
pub fn ensemble_l2_bytes(networks: &[&NetworkDesc]) -> usize {
    let weights: usize = networks.iter().map(|n| weight_bytes(n)).sum();
    let acts = networks
        .iter()
        .map(|n| activation_bytes(n))
        .max()
        .unwrap_or(0);
    weights + acts
}

#[cfg(test)]
mod tests {
    use super::*;
    use np_nn::init::{Initializer, SmallRng};
    use np_nn::layers::{Conv2d, Flatten, Linear, MaxPool2d, Relu};
    use np_nn::Sequential;

    fn frontnet_ish(c1: usize, c2: usize) -> NetworkDesc {
        let mut rng = SmallRng::seed(0);
        let net = Sequential::with_name(
            format!("fn-{c1}-{c2}"),
            vec![
                Box::new(Conv2d::new(
                    1,
                    c1,
                    5,
                    2,
                    2,
                    Initializer::KaimingUniform,
                    &mut rng,
                )) as _,
                Box::new(Relu::new()) as _,
                Box::new(MaxPool2d::new(2, 2)) as _,
                Box::new(Conv2d::new(
                    c1,
                    c2,
                    3,
                    2,
                    1,
                    Initializer::KaimingUniform,
                    &mut rng,
                )) as _,
                Box::new(Relu::new()) as _,
                Box::new(Flatten::new()) as _,
                Box::new(Linear::new(
                    c2 * 12 * 20,
                    4,
                    Initializer::KaimingUniform,
                    &mut rng,
                )) as _,
            ],
        );
        net.describe((1, 96, 160))
    }

    #[test]
    fn plan_has_positive_latency_and_fits() {
        let cfg = Gap8Config::default();
        let desc = frontnet_ish(16, 32);
        let plan = deploy(&desc, &cfg).unwrap();
        assert!(plan.latency_ms() > 0.1);
        assert!(plan.l2_bytes() < cfg.l2_bytes);
        // Free ops (relu, flatten) are skipped: conv, pool, conv, fc = 4.
        assert_eq!(plan.layers.len(), 4);
    }

    #[test]
    fn bigger_network_costs_more() {
        let cfg = Gap8Config::default();
        let small = deploy(&frontnet_ish(8, 16), &cfg).unwrap();
        let big = deploy(&frontnet_ish(32, 64), &cfg).unwrap();
        assert!(big.total_cycles() > small.total_cycles());
        assert!(big.l2_bytes() > small.l2_bytes());
    }

    #[test]
    fn ensemble_memory_is_less_than_sum() {
        let a = frontnet_ish(16, 32);
        let b = frontnet_ish(32, 64);
        let together = ensemble_l2_bytes(&[&a, &b]);
        let sum = weight_bytes(&a) + activation_bytes(&a) + weight_bytes(&b) + activation_bytes(&b);
        assert!(together < sum);
        // But at least the sum of weights plus the bigger activation.
        assert_eq!(
            together,
            weight_bytes(&a) + weight_bytes(&b) + activation_bytes(&a).max(activation_bytes(&b))
        );
    }

    #[test]
    fn calibrated_deploy_reprices_and_flags_the_plan() {
        use np_gap8::calib::{ClassCoeffs, ClassFit, SCHEMA_VERSION};
        use np_gap8::perf::KernelClass;

        let cfg = Gap8Config::default();
        let desc = frontnet_ish(16, 32);
        let analytic = deploy_analytic(&desc, &cfg).unwrap();
        assert!(!analytic.calibrated);

        let pooled = ClassFit {
            class: KernelClass::Elementwise,
            coeffs: ClassCoeffs {
                cycles_per_mac: 0.5,
                cycles_per_byte: 0.0,
                cycles_per_im2row_byte: 0.0,
                overhead_cycles: 2_000.0,
            },
            samples: 8,
            features: "pooled".into(),
            mean_abs_residual_pct: 0.0,
            max_abs_residual_pct: 0.0,
        };
        let model = CalibModel {
            schema_version: SCHEMA_VERSION,
            host: "test".into(),
            kernel_isa: "scalar".into(),
            np_threads: 1,
            profile_frames: 1,
            scale_ns_per_cycle: 1.0,
            classes: vec![],
            pooled,
        };
        let calibrated = deploy_calibrated(&desc, &cfg, &model).unwrap();
        assert!(calibrated.calibrated);
        assert_eq!(calibrated.layers.len(), analytic.layers.len());
        // Every layer is repriced by the pooled linear model over its
        // calibrated descriptors.
        for (cal, layer) in calibrated.layers.iter().zip(
            desc.layers
                .iter()
                .filter(|l| crate::tiling::matters(l.kind)),
        ) {
            let (macs, _, _) = crate::schedule::layer_workload(layer);
            let expected = (0.5 * macs as f64).round() as u64 + 2_000;
            assert_eq!(cal.cycles.total(), expected, "layer {}", cal.name);
        }
        assert_ne!(calibrated.total_cycles(), analytic.total_cycles());
    }

    #[test]
    fn energy_positive_and_sub_millijoule_scale() {
        let cfg = Gap8Config::default();
        let plan = deploy(&frontnet_ish(16, 32), &cfg).unwrap();
        let e = plan.energy_mj(&PowerModel::default());
        assert!(e > 0.0 && e < 10.0, "energy {e} mJ");
    }
}
