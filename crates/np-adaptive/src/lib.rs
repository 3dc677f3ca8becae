//! # np-adaptive
//!
//! The paper's contribution: **adaptive big/little inference for visual
//! pose estimation aboard nano-drones**.
//!
//! An adaptive system pairs a *small* pose regressor (F1 or F2) with a
//! *big* one (M1.0) and decides per camera frame which to run, using one
//! of three policies:
//!
//! * [`policy::OpPolicy`] — **Output-based Partitioning**: always run the
//!   small model; when the sum of its min-max-scaled outputs moved more
//!   than `th_OP` since the previous frame, also run the big model and
//!   average the two predictions (paper Eq. 1–2).
//! * [`policy::AuxSmPolicy`] — **Auxiliary Score-Margin**: a ~650 kMAC
//!   classifier localizes the head in a grid; run the big model iff the
//!   classifier's score margin is below `th_SM` (paper Eq. 3).
//! * [`policy::AuxHlcPolicy`] — **Head-Localization-Class**: run the big
//!   model iff the predicted grid cell's validation-set error-map value
//!   `E(i,j) = MAE_small(i,j) − MAE_big(i,j)` exceeds `th_HLC`.
//! * [`policy::RandomPolicy`] / [`policy::OraclePolicy`] — the zero-cost
//!   random baseline of the paper and the ideal decision upper bound.
//!
//! Ensembles are named as in the paper: **D1** = (F1, M1.0),
//! **D2** = (F2, M1.0).
//!
//! Evaluation ([`eval`]) replays the temporally-ordered test sequences,
//! prices every decision with the GAP8 deployment plans (paper Eq. 2/4),
//! and threshold sweeps ([`sweep`]) produce the MAE-vs-cycles operating
//! curves of the paper's Figs. 4–6 and the deployment rows of Table II.

pub mod cost;
pub mod error_map;
pub mod eval;
pub mod extensions;
pub mod features;
pub mod policy;
pub mod runner;
pub mod sweep;

pub use cost::{CostModel, EnsembleId};
pub use error_map::ErrorMap;
pub use eval::{evaluate_policy, EvalResult};
pub use extensions::{Hysteresis, OpEmaPolicy};
pub use features::{EvalTable, FrameFeatures};
pub use policy::{
    AdaptivePolicy, AuxHlcPolicy, AuxSmPolicy, Decision, OpPolicy, OraclePolicy, RandomPolicy,
};
pub use runner::{FrameResult, FrameRunner};
pub use sweep::{pareto_front, OperatingPoint};
