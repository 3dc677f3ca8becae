//! # np-nn
//!
//! A from-scratch CPU training and inference framework for the compact CNNs
//! used in the `nanopose` workspace: PULP-Frontnet variants, a pruned
//! MobileNet v1, and the auxiliary head-localization classifier.
//!
//! The framework is deliberately layer-granular rather than a general
//! autograd engine: every [`Layer`] implements its own `forward`/`backward`
//! pair, and a [`Sequential`] chains them. This matches the networks we need
//! (straight-line CNNs), keeps the code auditable, and makes the bridge to
//! the deployment planner trivial — each layer reports a [`LayerDesc`] that
//! `np-dory` tiles and prices on the GAP8 model.
//!
//! ## Example: a tiny regressor trained for a few steps
//!
//! ```
//! use np_nn::{Sequential, layers::{Conv2d, Relu, Flatten, Linear}, loss::mse_loss,
//!             optim::{Sgd, SgdConfig}, init::{Initializer, SmallRng}};
//! use np_tensor::Tensor;
//!
//! let mut rng = SmallRng::seed(7);
//! let mut net = Sequential::new(vec![
//!     Box::new(Conv2d::new(1, 4, 3, 1, 1, Initializer::KaimingUniform, &mut rng)),
//!     Box::new(Relu::new()),
//!     Box::new(Flatten::new()),
//!     Box::new(Linear::new(4 * 8 * 8, 1, Initializer::KaimingUniform, &mut rng)),
//! ]);
//! let mut opt = Sgd::new(SgdConfig { lr: 0.01, momentum: 0.9, weight_decay: 0.0 });
//! let x = Tensor::zeros(&[2, 1, 8, 8]);
//! let target = Tensor::from_vec(&[2, 1], vec![0.5, -0.5]);
//! for _ in 0..3 {
//!     let y = net.forward_train(&x);
//!     let (loss, grad) = mse_loss(&y, &target);
//!     net.zero_grad();
//!     net.backward(&grad);
//!     opt.step(&mut net.params_mut());
//!     assert!(loss.is_finite());
//! }
//! ```

pub mod describe;
pub mod init;
pub mod layer;
pub mod layers;
pub mod loss;
pub mod optim;
pub mod sequential;
pub mod serialize;
pub mod trainer;

pub use describe::{LayerDesc, LayerKind, NetworkDesc};
pub use layer::{Layer, Param};
pub use sequential::Sequential;

#[cfg(test)]
mod proptests;
