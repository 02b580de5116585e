//! FLightNN: power-of-two quantized DNNs with differentiable per-filter
//! shift-count selection.
//!
//! This crate is the reproduction of the paper's primary contribution
//! (Ding et al., *FLightNNs*, DAC 2019):
//!
//! * [`pow2`] — the `R(x) = sign(x)·2^[log₂|x|]` rounding primitive and
//!   the sum-of-`k`-powers-of-two weight representation, with the
//!   exponent windows that give LightNN-1 its 4-bit and LightNN-2 its
//!   8-bit storage format.
//! * [`quant`] — the thresholded quantizer `Q_k(w_i | t)` of §4.1
//!   (Fig. 2), producing per-filter shift counts `k_i`, plus the plain
//!   LightNN-`k` and fixed-point baselines.
//! * [`grad`] — the sigmoid-relaxed threshold gradients of §4.2 and the
//!   straight-through estimator for the shadow weights.
//! * [`reg`] — the group-lasso regularizer `Σ_j λ_j Σ_i ‖r_{i,j}‖₂` of
//!   §4.3 (Fig. 4).
//! * [`layers`] — the [`QuantWeights`](layers::QuantWeights) core that
//!   implements Algorithm 1 once, the [`QuantConv2d`](layers::QuantConv2d)
//!   and [`QuantLinear`](layers::QuantLinear) layers around it, and 8-bit
//!   activation quantization, all implementing `flight_nn::Layer`.
//! * [`net`] — the introspectable quantized network container and
//!   quantized residual blocks.
//! * [`scheme`] — whole-model quantization recipes (`Full`, `FP4W8A`,
//!   `L-1`, `L-2`, `FLightNN(λ)`) with the paper's labels.
//! * [`configs`] — the eight network configurations of Table 1 and a
//!   width-scalable builder.
//! * [`trainer`] — Algorithm 1: quantize → forward → backward → update
//!   shadow weights *and* thresholds with Adam.
//! * [`storage`] — model storage accounting (the tables' "Storage (MB)"
//!   column).
//! * [`convert`] — the Fig. 3 equivalence: a `k_i`-shift filter as `k_i`
//!   one-shift filters (the form the hardware executes).
//! * [`io`] — state-dict-style parameter save/load.
//!
//! # Example
//!
//! ```
//! use flightnn::pow2::round_pow2;
//!
//! assert_eq!(round_pow2(0.7), 0.5); // log2(0.7) ≈ -0.51 rounds to -1
//! assert_eq!(round_pow2(-3.0), -4.0); // log2(3) ≈ 1.58 rounds to 2
//! ```

pub mod configs;
pub mod convert;
pub mod grad;
pub mod io;
pub mod layers;
pub mod net;
pub mod pow2;
pub mod quant;
pub mod reg;
pub mod scheme;
pub mod storage;
pub mod trainer;

pub use configs::{NetworkConfig, NetworkId, Structure};
pub use net::QuantNet;
pub use quant::{QuantMode, ThresholdQuantizer};
pub use scheme::QuantScheme;
pub use trainer::FlightTrainer;
