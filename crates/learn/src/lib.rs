//! # balsa-learn
//!
//! The learning subsystem of balsa-rs — the paper's core contribution:
//! a value function learned from the system's own executions,
//! bootstrapped from a simulator, with **no expert demonstrations**.
//!
//! * [`Featurizer`] — §7's encoding of `(query, partial plan)` states:
//!   table one-hots, join-graph edge channels, estimated-cardinality and
//!   cost channels, operator/shape channels, and the engine mode.
//! * [`ValueModel`] / [`LinearValueModel`] / [`TreeConvValueModel`] —
//!   the learned predictor of a subplan's log latency: a ridge linear
//!   regressor over the flat encoding, and the paper's tree-convolution
//!   network (§6) over the per-node binary-tree tensor encoding (triple
//!   filters, dynamic max-pooling, MLP head, manual backprop), both
//!   trained by the same censored-hinge minibatch SGD.
//! * [`ExperienceBuffer`] — deduplicated per-subplan labels from both
//!   simulated (`C_out`) and real (`ExecutionEnv`, timeout-censored)
//!   runs, with best-label retention (§4.2); each entry keeps its
//!   features once, as [`PackedFeatures`].
//! * [`LearnedScorer`] — the value model plugged into
//!   `balsa_cost::PlanScorer`, driving the same beam search as the
//!   classical cost models (§5).
//! * [`train_loop`] — the two-phase driver: simulation pretraining, then
//!   real-execution fine-tuning with epsilon-greedy exploration, all
//!   charged to the environment's simulated clock (§4–§6);
//!   [`try_train_loop`] returns its failures as a [`TrainError`].
//! * [`CheckpointData`] — crash-safe atomic training checkpoints:
//!   kill-at-iteration-k + resume reproduces the uninterrupted run's
//!   remaining iterations and final checkpoint bit-for-bit.

#![forbid(unsafe_code)]

pub mod buffer;
pub mod checkpoint;
pub mod featurize;
pub mod model;
pub mod scorer;
pub mod train;
pub mod treeconv;

pub use buffer::{Experience, ExperienceBuffer, LabelSource, PackedFeatures};
pub use checkpoint::{BufferEntry, CheckpointData};
pub use featurize::{Featurizer, FlatState};
pub use model::{
    shuffle_epoch_order, FeatureEncoding, FitReport, JoinStateItem, LinearValueModel, ModelKind,
    ModelState, Optimizer, OptimizerKind, ResidualValueModel, SgdConfig, TrainSet, ValueModel,
};
pub use scorer::LearnedScorer;
pub use train::{
    evaluate_expert_baseline, evaluate_learned, geo_mean, make_model, median, train_loop,
    try_train_loop, IterationStats, TrainBreakdown, TrainConfig, TrainError, TrainOutcome,
};
pub use treeconv::{TreeConvConfig, TreeConvValueModel};

/// Compiles the README's worked example under `cargo test`: this crate
/// depends on every crate the example imports.
#[cfg(doctest)]
#[doc = include_str!("../../../README.md")]
struct ReadmeDoctests;
