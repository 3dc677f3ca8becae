//! # np-bench
//!
//! Shared experiment harness: dataset generation, model training with
//! caching, deployment planning, and the evaluation tables every
//! table/figure binary consumes.
//!
//! Binaries (one per paper artifact):
//!
//! | binary   | reproduces |
//! |----------|------------|
//! | `table1` | Table I — static model metrics |
//! | `fig3`   | Fig. 3 — 8×6 error map for (F1, M1.0) |
//! | `fig4`   | Fig. 4 — Aux-SM vs Aux-HLC across grids |
//! | `fig5`   | Fig. 5 — OP vs Aux vs Random on the Known dataset |
//! | `table2` | Table II — Crazyflie deployment breakdown |
//! | `fig6`   | Fig. 6 — policies on the Unseen dataset |
//! | `ablation` | design-choice ablations called out in DESIGN.md |
//!
//! Scale is controlled by `NP_SCALE`: `full` (default — paper-shaped
//! datasets, more epochs) or `fast` (small datasets for smoke runs); any
//! other value warns once and runs at full scale.

#[cfg(feature = "trace")]
pub mod calibrate;
pub mod figures;
#[cfg(feature = "trace")]
pub mod trace_report;

use np_adaptive::features::Backend;
use np_adaptive::{CostModel, EnsembleId, ErrorMap, EvalTable};
use np_dataset::{DatasetConfig, Environment, GridSpec, PoseDataset};
use np_dory::{deploy, DeploymentPlan};
use np_gap8::Gap8Config;
use np_nn::init::SmallRng;
use np_nn::Sequential;
use np_quant::kernels::QConvGeometry;
use np_quant::lowering::{qim2row_u8_into, u8_lowered_len};
use np_quant::microkernel::{fold_offset_bias, pack_conv_panels_i8, qconv_panels_i8_into};
use np_quant::requant::FixedMultiplier;
use np_tensor::parallel::Pool;
use np_zoo::{cache, train_aux, train_regressor, ModelId, TrainRecipe};

/// Pure parser behind the `NP_SCALE` override. `Ok(None)` means unset
/// (use the default); `Err` carries the rejected value for the warn-once
/// path, like `NP_THREADS` and `NP_ISA`.
fn parse_np_scale(raw: Option<&str>) -> Result<Option<Scale>, String> {
    let Some(s) = raw else { return Ok(None) };
    match s.trim() {
        "fast" => Ok(Some(Scale::Fast)),
        "full" => Ok(Some(Scale::Full)),
        other => Err(other.to_string()),
    }
}

/// Experiment scale: dataset size and training length.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Paper-shaped runs (default).
    Full,
    /// Small smoke-test runs.
    Fast,
}

impl Scale {
    /// Reads `NP_SCALE` from the environment (`parse_np_scale`): full
    /// scale when unset. Any other value than `fast`/`full` warns once
    /// through the np-trace facade and falls back to full scale, which
    /// trains the zoo for minutes.
    pub fn from_env() -> Scale {
        let raw = std::env::var("NP_SCALE").ok();
        match parse_np_scale(raw.as_deref()) {
            Ok(scale) => scale.unwrap_or(Scale::Full),
            Err(bad) => {
                np_trace::warn_once!("ignoring NP_SCALE={bad:?}: expected fast|full, using full");
                Scale::Full
            }
        }
    }

    /// Dataset config for an environment at this scale.
    pub fn dataset_config(self, env: Environment) -> DatasetConfig {
        let base = match env {
            Environment::Known => DatasetConfig::known(),
            Environment::Unseen => DatasetConfig::unseen(),
        };
        match self {
            // At full scale, enlarge the datasets beyond their np-dataset
            // defaults: the capacity ordering F1 < F2 < M1.0 needs enough
            // data that the bigger models stop overfitting (the paper's
            // real datasets have 30k/45k frames).
            Scale::Full => DatasetConfig {
                n_sequences: match env {
                    Environment::Known => 80,
                    Environment::Unseen => 90,
                },
                ..base
            },
            Scale::Fast => DatasetConfig {
                n_sequences: 14,
                frames_per_seq: 30,
                ..base
            },
        }
    }

    /// Training recipe for pose regressors. The deep MobileNet needs a
    /// hotter, longer schedule than the shallow Frontnets to reach its
    /// capacity advantage.
    pub fn regressor_recipe(self, id: ModelId) -> TrainRecipe {
        let m10 = matches!(id, ModelId::M10);
        match self {
            Scale::Full => TrainRecipe {
                epochs: if m10 { 18 } else { 12 },
                lr: if m10 { 4e-3 } else { 2e-3 },
                ..TrainRecipe::default()
            },
            Scale::Fast => TrainRecipe {
                epochs: if m10 { 6 } else { 4 },
                lr: if m10 { 4e-3 } else { 3e-3 },
                ..TrainRecipe::default()
            },
        }
    }

    /// Training recipe for the auxiliary classifiers (they need a higher
    /// learning rate — see np-zoo's training tests).
    pub fn aux_recipe(self) -> TrainRecipe {
        match self {
            Scale::Full => TrainRecipe {
                epochs: 14,
                lr: 1e-2,
                ..TrainRecipe::default()
            },
            Scale::Fast => TrainRecipe {
                epochs: 6,
                lr: 1e-2,
                ..TrainRecipe::default()
            },
        }
    }

    fn tag(self) -> &'static str {
        match self {
            Scale::Full => "full",
            Scale::Fast => "fast",
        }
    }
}

fn env_tag(env: Environment) -> &'static str {
    match env {
        Environment::Known => "known",
        Environment::Unseen => "unseen",
    }
}

/// The paper's three evaluated grids.
pub const GRIDS: [GridSpec; 3] = [GridSpec::GRID_2X2, GridSpec::GRID_3X3, GridSpec::GRID_8X6];

/// A fully-prepared experiment: dataset, trained models, deployment plans.
pub struct Experiment {
    /// The generated dataset.
    pub data: PoseDataset,
    /// Trained proxy pose regressors.
    pub f1: Sequential,
    /// Trained proxy F2.
    pub f2: Sequential,
    /// Trained proxy M1.0.
    pub m10: Sequential,
    /// Trained auxiliary classifiers, one per grid (2×2, 3×3, 8×6).
    pub aux: Vec<(GridSpec, Sequential)>,
    /// Deployment plans of the paper-exact architectures.
    pub plan_f1: DeploymentPlan,
    /// F2 plan.
    pub plan_f2: DeploymentPlan,
    /// M1.0 plan.
    pub plan_m10: DeploymentPlan,
    /// Aux plans per grid.
    pub plan_aux: Vec<(GridSpec, DeploymentPlan)>,
    /// Scale the experiment ran at.
    pub scale: Scale,
}

impl Experiment {
    /// Prepares (or reloads from cache) everything for one environment.
    ///
    /// # Panics
    ///
    /// Panics if deployment planning fails — which would mean a zoo model
    /// does not fit GAP8 and is a bug, not an operational error.
    pub fn prepare(env: Environment, scale: Scale) -> Experiment {
        let cfg = scale.dataset_config(env);
        np_trace::info!(
            "[np-bench] generating {} dataset ({} sequences x {} frames)...",
            env_tag(env),
            cfg.n_sequences,
            cfg.frames_per_seq
        );
        let data = PoseDataset::generate(&cfg);

        let aux_recipe = scale.aux_recipe();
        let key = |m: &str| format!("{m}-{}-{}", env_tag(env), scale.tag());

        let train_pose = |id: ModelId| -> Sequential {
            let name = id.name();
            let recipe = scale.regressor_recipe(id);
            cache::load_or_train(
                &key(&name.replace('.', "")),
                || id.build_proxy(&mut SmallRng::seed(100)),
                |m| {
                    np_trace::info!("[np-bench] training {name} ({} params)...", m.num_params());
                    let stats = train_regressor(m, &data, &recipe);
                    if let Some(last) = stats.last() {
                        np_trace::info!("[np-bench]   final train L1 loss {:.4}", last.loss);
                    }
                },
            )
        };
        let f1 = train_pose(ModelId::F1);
        let f2 = train_pose(ModelId::F2);
        let m10 = train_pose(ModelId::M10);

        let aux: Vec<(GridSpec, Sequential)> = GRIDS
            .iter()
            .map(|&grid| {
                let id = ModelId::Aux(grid);
                let model = cache::load_or_train(
                    &key(&id.name()),
                    || id.build_proxy(&mut SmallRng::seed(200)),
                    |m| {
                        np_trace::info!("[np-bench] training {}...", id.name());
                        train_aux(m, &data, grid, &aux_recipe);
                    },
                );
                (grid, model)
            })
            .collect();

        let gap8 = Gap8Config::default();
        let plan = |id: ModelId| deploy(&id.paper_desc(), &gap8).expect("zoo model must fit GAP8");
        let plan_aux = GRIDS.iter().map(|&g| (g, plan(ModelId::Aux(g)))).collect();

        Experiment {
            data,
            f1,
            f2,
            m10,
            aux,
            plan_f1: plan(ModelId::F1),
            plan_f2: plan(ModelId::F2),
            plan_m10: plan(ModelId::M10),
            plan_aux,
            scale,
        }
    }

    /// The trained small model of an ensemble.
    pub fn small_mut(&mut self, ens: EnsembleId) -> &mut Sequential {
        match ens {
            EnsembleId::D1 => &mut self.f1,
            EnsembleId::D2 => &mut self.f2,
        }
    }

    /// The deployment plan of an ensemble's small model.
    pub fn small_plan(&self, ens: EnsembleId) -> &DeploymentPlan {
        match ens {
            EnsembleId::D1 => &self.plan_f1,
            EnsembleId::D2 => &self.plan_f2,
        }
    }

    /// The trained aux classifier for a grid.
    pub fn aux_model(&self, grid: GridSpec) -> Sequential {
        self.aux
            .iter()
            .find(|(g, _)| *g == grid)
            .map(|(_, m)| m.clone())
            .expect("grid is one of GRIDS")
    }

    /// The deployment plan of a grid's aux classifier.
    pub fn aux_plan(&self, grid: GridSpec) -> &DeploymentPlan {
        self.plan_aux
            .iter()
            .find(|(g, _)| *g == grid)
            .map(|(_, p)| p)
            .expect("grid is one of GRIDS")
    }

    /// Cost model for an ensemble with a grid's aux CNN.
    pub fn cost_model(&self, ens: EnsembleId, grid: GridSpec) -> CostModel {
        CostModel::new(self.small_plan(ens), &self.plan_m10, self.aux_plan(grid))
    }

    /// Builds the test-sequence evaluation table for an ensemble + grid.
    pub fn eval_table(&mut self, ens: EnsembleId, grid: GridSpec) -> EvalTable {
        let data = self.data.clone();
        let mut aux = self.aux_model(grid);
        let mut big = self.m10.clone();
        let small = self.small_mut(ens);
        EvalTable::build(
            &data,
            &mut Backend::Float(small),
            &mut Backend::Float(&mut big),
            &mut Backend::Float(&mut aux),
            grid,
        )
    }

    /// Builds the validation-set error map for an ensemble + grid
    /// (the Aux-HLC prerequisite, and Fig. 3 itself for D1 + 8×6).
    pub fn error_map(&mut self, ens: EnsembleId, grid: GridSpec) -> ErrorMap {
        let data = self.data.clone();
        let val = data.val_indices();
        let truth_cells = data.grid_labels(&val, grid);
        let mut aux = self.aux_model(grid);
        let mut big = self.m10.clone();
        let small = self.small_mut(ens);
        let features = EvalTable::build_for_indices(
            &data,
            &mut Backend::Float(small),
            &mut Backend::Float(&mut big),
            &mut Backend::Float(&mut aux),
            grid,
            &val,
        );
        ErrorMap::build(grid, &features, &truth_cells)
    }

    /// Static-model MAE on the test split, as `(F1, F2, M1.0)` reports.
    pub fn static_mae(&mut self) -> [np_zoo::train::MaeReport; 3] {
        let data = self.data.clone();
        let test = data.test_indices();
        [
            np_zoo::evaluate_mae(&mut self.f1, &data, &test),
            np_zoo::evaluate_mae(&mut self.f2, &data, &test),
            np_zoo::evaluate_mae(&mut self.m10, &data, &test),
        ]
    }
}

/// Formats a markdown-ish table row.
pub fn row(cells: &[String]) -> String {
    format!("| {} |", cells.join(" | "))
}

/// Best-of-`reps` wall time in nanoseconds of each of `arms` benchmark
/// arms, for the in-bench ratio gates. Every rep runs `run(arm)` once per
/// arm, rotating which arm goes first, so host drift during the
/// measurement lands on every arm alike instead of on whichever block of
/// reps ran last. `warmup` untimed rounds of every arm run first.
pub fn best_ns_interleaved(
    arms: usize,
    warmup: usize,
    reps: usize,
    mut run: impl FnMut(usize),
) -> Vec<f64> {
    for _ in 0..warmup {
        (0..arms).for_each(&mut run);
    }
    let mut best = vec![f64::INFINITY; arms];
    for rep in 0..reps {
        for k in 0..arms {
            let arm = (rep + k) % arms;
            let t = std::time::Instant::now();
            run(arm);
            best[arm] = best[arm].min(t.elapsed().as_secs_f64() * 1e9);
        }
    }
    best
}

/// The im2row-lowered int8 conv with fused ReLU and all of its per-call
/// work, for the kernel benches: allocate, lower to offset-binary u8,
/// pack the filters into raw-i8 panels and fold the bias, run the panel
/// kernel on `pool` (clamped to the work size) — the format and kernel a
/// compiled program runs, which packs once at compile time instead.
#[allow(clippy::too_many_arguments)]
pub fn lowered_qconv(
    pool: Pool,
    input: &[i8],
    h: usize,
    w: usize,
    in_zp: i32,
    geo: QConvGeometry,
    weight: &[i8],
    bias: &[i32],
    mults: &[FixedMultiplier],
    out_zp: i32,
) -> Vec<i8> {
    let patch = geo.in_channels * geo.kernel * geo.kernel;
    let (oh, ow) = geo.out_hw(h, w);
    let cols = oh * ow;
    let mut lowered = vec![0u8; u8_lowered_len(cols, patch)];
    qim2row_u8_into(input, 1, h, w, in_zp, geo, &mut lowered);
    let panels = pack_conv_panels_i8(weight, geo.out_channels, patch);
    let folded = fold_offset_bias(bias, weight, geo.out_channels, patch, in_zp);
    let mut out = vec![0i8; geo.out_channels * cols];
    let pool = pool.for_work(geo.out_channels * patch * cols);
    qconv_panels_i8_into(
        pool, &panels, patch, &lowered, &folded, mults, out_zp, true, 1, &mut out,
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interleaved_timing_rotates_the_first_arm() {
        let mut order = Vec::new();
        let best = best_ns_interleaved(3, 1, 3, |arm| order.push(arm));
        assert_eq!(best.len(), 3);
        assert!(best.iter().all(|ns| ns.is_finite()));
        // One warm-up round, then reps starting at arms 0, 1, 2.
        assert_eq!(order, [0, 1, 2, 0, 1, 2, 1, 2, 0, 2, 0, 1]);
    }

    #[test]
    fn scale_from_env_default_full() {
        // Does not set the variable: default must be Full.
        if std::env::var("NP_SCALE").is_err() {
            assert_eq!(Scale::from_env(), Scale::Full);
        }
    }

    #[test]
    fn np_scale_parser_accepts_fast_and_full_only() {
        assert_eq!(parse_np_scale(None), Ok(None));
        assert_eq!(parse_np_scale(Some("fast")), Ok(Some(Scale::Fast)));
        assert_eq!(parse_np_scale(Some(" full\n")), Ok(Some(Scale::Full)));
        for bad in ["FAST", "quick", "small", "1", ""] {
            assert_eq!(parse_np_scale(Some(bad)), Err(bad.to_string()));
        }
    }

    #[test]
    fn fast_configs_are_smaller() {
        let full = Scale::Full.dataset_config(Environment::Known);
        let fast = Scale::Fast.dataset_config(Environment::Known);
        assert!(fast.n_sequences < full.n_sequences);
        assert!(
            Scale::Fast.regressor_recipe(ModelId::F1).epochs
                < Scale::Full.regressor_recipe(ModelId::F1).epochs
        );
    }
}
