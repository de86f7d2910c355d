//! The learned value model.
//!
//! [`ValueModel`] abstracts "predict the (log) latency of a subplan from
//! its features" so richer function classes (the paper's tree
//! convolution) can slot in later; [`LinearValueModel`] is the first
//! instance — a ridge-regularized linear regressor trained by minibatch
//! SGD on the vendored `rand` (Gaussian weight init, seeded shuffling).
//!
//! Labels live in **log space** (latencies span orders of magnitude) and
//! may be **timeout-censored lower bounds** (§4.3): a censored sample
//! contributes gradient only while the model predicts *below* the bound
//! — a one-sided hinge, so killed executions still teach "at least this
//! slow" without anchoring the model to the arbitrary budget value.

use crate::buffer::PackedFeatures;
use rand::rngs::SmallRng;
use rand::{RngExt, SliceRandomExt};
use std::any::Any;
use std::sync::Arc;

/// Negative-side slope of the leaky ReLU used by the neural models.
pub const LRELU_SLOPE: f64 = 0.01;

/// Which state encoding a model consumes, and therefore which
/// [`crate::Featurizer`] output must feed it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FeatureEncoding {
    /// One fixed-length vector per `(query, subplan)` state
    /// ([`crate::Featurizer::featurize`]).
    Flat,
    /// The flat binary-tree tensor encoding — per-node feature rows plus
    /// child indices ([`crate::Featurizer::featurize_tree`]).
    Tree,
}

/// Which value-model family the training loop instantiates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModelKind {
    /// Ridge-regularized linear regressor over the flat encoding.
    Linear,
    /// Tree-convolution network over the per-node encoding (§6).
    TreeConv,
}

/// Opaque incremental per-subtree inference state threaded through the
/// beam's [`balsa_cost::ScoredTree`] child hooks.
pub type ModelState = Arc<dyn Any + Send + Sync>;

/// One `(node encoding, left state, right state)` item of a batched
/// join-state composition ([`ValueModel::join_state_batch`]).
pub struct JoinStateItem<'a> {
    /// The join node's per-node encoding.
    pub node_x: &'a [f64],
    /// The left child's incremental state.
    pub left: &'a ModelState,
    /// The right child's incremental state.
    pub right: &'a ModelState,
}

/// Which per-parameter update rule the minibatch gradients feed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OptimizerKind {
    /// Plain SGD: `p -= lr · (g + l2·mask·p)` (momentum forced to 0).
    Sgd,
    /// Classical momentum on the updates, using [`SgdConfig::momentum`].
    /// With `momentum = 0` this is exactly [`OptimizerKind::Sgd`].
    Momentum,
    /// Adam: bias-corrected first/second moments give per-parameter
    /// step scaling — the paper trains its value network with Adam, and
    /// the non-convex tree-conv loss wants it (flat pooled channels and
    /// rarely-active censored samples get tiny raw gradients).
    Adam,
}

/// Minibatch-SGD hyperparameters.
#[derive(Debug, Clone, Copy)]
pub struct SgdConfig {
    /// Full passes over the training set.
    pub epochs: usize,
    /// Minibatch size.
    pub batch: usize,
    /// Learning rate.
    pub lr: f64,
    /// L2 (ridge) penalty on the weights (not the bias).
    pub l2: f64,
    /// Classical momentum on the parameter updates (0 disables; the
    /// tree-convolution net wants ~0.9, the convex linear fit none).
    /// Read only by [`OptimizerKind::Momentum`].
    pub momentum: f64,
    /// Update rule the per-minibatch mean gradient feeds.
    pub optimizer: OptimizerKind,
    /// Adam first-moment decay.
    pub beta1: f64,
    /// Adam second-moment decay.
    pub beta2: f64,
    /// Adam denominator fuzz.
    pub adam_eps: f64,
}

impl Default for SgdConfig {
    fn default() -> Self {
        Self {
            epochs: 60,
            batch: 64,
            lr: 0.03,
            l2: 1e-4,
            momentum: 0.0,
            optimizer: OptimizerKind::Momentum,
            beta1: 0.9,
            beta2: 0.999,
            adam_eps: 1e-8,
        }
    }
}

/// Per-parameter optimizer state shared by every value-model fit; one
/// [`Optimizer::step`] per minibatch applies the configured update rule
/// to the flat parameter vector.
#[derive(Debug, Clone)]
pub struct Optimizer {
    kind: OptimizerKind,
    /// Momentum velocity (momentum/sgd kinds).
    vel: Vec<f64>,
    /// Adam first and second moments.
    m: Vec<f64>,
    v: Vec<f64>,
    /// Adam step counter (advances only on applied steps, so empty
    /// minibatches never skew the bias correction).
    t: i32,
}

impl Optimizer {
    /// Fresh state for `dim` parameters under `cfg`'s update rule.
    pub fn new(cfg: &SgdConfig, dim: usize) -> Self {
        let adam = cfg.optimizer == OptimizerKind::Adam;
        Self {
            kind: cfg.optimizer,
            vel: if adam { Vec::new() } else { vec![0.0; dim] },
            m: if adam { vec![0.0; dim] } else { Vec::new() },
            v: if adam { vec![0.0; dim] } else { Vec::new() },
            t: 0,
        }
    }

    /// Applies one minibatch update. `grad` is the batch-**mean**
    /// gradient; `mask[j] = 1.0` marks weights (L2-penalized), `0.0`
    /// biases. The momentum path reproduces the historical inline
    /// update (`v = mom·v + g + l2·mask·p; p -= lr·v`) bit-for-bit;
    /// Adam folds the same masked L2 term into the gradient before the
    /// moment updates (classical, not decoupled, weight decay).
    pub fn step(&mut self, cfg: &SgdConfig, params: &mut [f64], grad: &[f64], mask: &[f64]) {
        debug_assert_eq!(params.len(), grad.len());
        debug_assert_eq!(params.len(), mask.len());
        match self.kind {
            OptimizerKind::Sgd | OptimizerKind::Momentum => {
                let mom = if self.kind == OptimizerKind::Sgd {
                    0.0
                } else {
                    cfg.momentum
                };
                for (((p, g), m), v) in params.iter_mut().zip(grad).zip(mask).zip(&mut self.vel) {
                    *v = mom * *v + g + cfg.l2 * m * *p;
                    *p -= cfg.lr * *v;
                }
            }
            OptimizerKind::Adam => {
                self.t += 1;
                let bc1 = 1.0 - cfg.beta1.powi(self.t);
                let bc2 = 1.0 - cfg.beta2.powi(self.t);
                for (((p, g), msk), (m, v)) in params
                    .iter_mut()
                    .zip(grad)
                    .zip(mask)
                    .zip(self.m.iter_mut().zip(&mut self.v))
                {
                    let g = g + cfg.l2 * msk * *p;
                    *m = cfg.beta1 * *m + (1.0 - cfg.beta1) * g;
                    *v = cfg.beta2 * *v + (1.0 - cfg.beta2) * (g * g);
                    *p -= cfg.lr * (*m / bc1) / ((*v / bc2).sqrt() + cfg.adam_eps);
                }
            }
        }
    }
}

/// Advances the minibatch sampler by one epoch: shuffles the running
/// visit order in place. Every fit — linear or tree-conv, batched or
/// per-sample — draws its epoch orders through this one function, so
/// the sampler RNG stream is a single pinned contract (covered by a
/// pinned-stream test) and the batched/per-sample paths consume `rng`
/// identically by construction.
pub fn shuffle_epoch_order(order: &mut [usize], rng: &mut SmallRng) {
    order.shuffle(rng);
}

/// A training set in feature space. `ys` are log-latencies; a `true` in
/// `censored` marks the label as a timeout lower bound.
///
/// The feature vectors stay packed: [`crate::ExperienceBuffer::train_set`]
/// clones the buffer's [`PackedFeatures`], and every fit reads them a row
/// or a fixed-size chunk at a time with the arithmetic of the dense rows,
/// so the set costs what the buffer's entries cost, not 8 bytes a slot.
#[derive(Debug, Clone, Default)]
pub struct TrainSet {
    /// Feature vectors, packed (all the same dense length for the flat
    /// encoding).
    pub xs: Vec<PackedFeatures>,
    /// Log-space labels.
    pub ys: Vec<f64>,
    /// Censoring flags, parallel to `ys`.
    pub censored: Vec<bool>,
}

impl TrainSet {
    /// Number of samples.
    pub fn len(&self) -> usize {
        self.ys.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.ys.is_empty()
    }

    /// Appends one sample, packing its features.
    pub fn push(&mut self, x: &[f64], y: f64, censored: bool) {
        self.xs.push(PackedFeatures::pack(x));
        self.ys.push(y);
        self.censored.push(censored);
    }
}

/// What one [`ValueModel::fit`] call did.
#[derive(Debug, Clone, Copy, Default)]
pub struct FitReport {
    /// SGD steps performed (for `SimClock::charge_update`).
    pub steps: u64,
    /// Mean squared error (censored samples via one-sided hinge) over
    /// the training set after fitting.
    pub mse: f64,
    /// Measured wall seconds in the forward passes (0 for models whose
    /// fit does not separate the phases, e.g. the linear regressor).
    pub forward_secs: f64,
    /// Measured wall seconds in backprop + parameter updates.
    pub backward_secs: f64,
}

/// Predicts a scalar value (log latency) from an encoded state.
pub trait ValueModel: Send + Sync {
    /// Model name for reports.
    fn name(&self) -> String;

    /// Which featurizer encoding this model consumes.
    fn encoding(&self) -> FeatureEncoding {
        FeatureEncoding::Flat
    }

    /// Whether the model has been fit at least once.
    fn is_fitted(&self) -> bool;

    /// Predicts the log-latency of each encoded state, in input order.
    /// A prediction is a function of its own state alone — models may
    /// share scratch or stream filters across the batch, never change
    /// the per-sample arithmetic — so any batch layout gives the same
    /// bits.
    fn predict_batch(&self, xs: &[&[f64]]) -> Vec<f64>;

    /// Predicts the log-latency for one encoded state: a batch of one.
    fn predict(&self, x: &[f64]) -> f64 {
        self.predict_batch(&[x])[0]
    }

    /// Predicts the log-latency of each state `head ++ tails[k]`, in
    /// input order, with the bits of [`ValueModel::predict_batch`] on
    /// the concatenated rows. The flat encoding's states over one table
    /// mask share their head ([`crate::Featurizer::flat_head_into`]), so
    /// the learned scorer hands each mask's candidates over as one head
    /// and their tails ([`crate::FlatState::tail`]); a model whose
    /// prediction is a left-to-right sum over the channels folds the
    /// head once. The default builds the rows in one buffer and calls
    /// `predict_batch`.
    fn predict_flat_batch(&self, head: &[f64], tails: &[&[f64]]) -> Vec<f64> {
        let mut buf = Vec::with_capacity(tails.iter().map(|t| head.len() + t.len()).sum());
        let mut ends = Vec::with_capacity(tails.len());
        for tail in tails {
            buf.extend_from_slice(head);
            buf.extend_from_slice(tail);
            ends.push(buf.len());
        }
        let mut start = 0;
        let rows: Vec<&[f64]> = ends
            .into_iter()
            .map(|end| &buf[std::mem::replace(&mut start, end)..end])
            .collect();
        self.predict_batch(&rows)
    }

    /// Trains on `data` (consumed — extraction from the buffer already
    /// yields an owned set), continuing from the current parameters
    /// (fine-tuning when called repeatedly).
    fn fit(&mut self, data: TrainSet, cfg: &SgdConfig, rng: &mut SmallRng) -> FitReport;

    /// Reference per-sample fit: the same samples, sampler stream, and
    /// update arithmetic as [`ValueModel::fit`] with any batched
    /// training kernels bypassed. Models without a distinct batched
    /// path just forward to `fit`.
    fn fit_per_sample(&mut self, data: TrainSet, cfg: &SgdConfig, rng: &mut SmallRng) -> FitReport {
        self.fit(data, cfg, rng)
    }

    /// All parameters as one flat vector — the serialization-ready
    /// checkpoint form, and the exact-equality witness the determinism
    /// tests compare.
    fn params(&self) -> Vec<f64>;

    /// The model's **complete** internal state as one flat vector, the
    /// round-trippable form [`ValueModel::load_state`] restores
    /// exactly. Distinct from [`ValueModel::params`]: `params` is a
    /// normalized comparison form (the linear model folds its frozen
    /// feature standardization into raw-space weights there, which is
    /// lossy — two different internal states can share a `params`
    /// vector, and SGD continues in the *internal* space). Crash-safe
    /// resume needs `state_vec`; determinism witnesses use `params`.
    fn state_vec(&self) -> Vec<f64>;

    /// Restores the state captured by [`ValueModel::state_vec`] into a
    /// freshly-constructed model of the same architecture. After a
    /// successful load the model continues training bit-identically to
    /// the one that was saved.
    fn load_state(&mut self, state: &[f64]) -> Result<(), String>;

    /// Clones the model behind the trait (checkpointing).
    fn clone_box(&self) -> Box<dyn ValueModel>;

    /// Opens an incremental inference state for a scan leaf whose
    /// per-node encoding is `node_x`. `None` when the model scores only
    /// full encodings; callers then fall back to
    /// [`ValueModel::predict_batch`].
    fn leaf_state(&self, node_x: &[f64]) -> Option<ModelState> {
        let _ = node_x;
        None
    }

    /// Composes the states of candidate joins from their children's
    /// states, O(1) each — the beam's per-level hot path; the tree
    /// convolution computes each child's share of a window once per
    /// child subtree, however many items it feeds. `None` when the model
    /// does not support incremental states; otherwise one state per item,
    /// each a function of its own item alone.
    fn join_state_batch(&self, items: &[JoinStateItem<'_>]) -> Option<Vec<ModelState>> {
        let _ = items;
        None
    }

    /// The predicted log-latency of each incremental state, in input
    /// order.
    fn state_value_batch(&self, states: &[ModelState]) -> Option<Vec<f64>> {
        let _ = states;
        None
    }

    /// The predicted log-latency of each candidate join, in input order,
    /// bit for bit [`ValueModel::state_value_batch`] of
    /// [`ValueModel::join_state_batch`] — without keeping the states.
    /// The learned scorer ranks a beam level's joins with it and composes
    /// states only for the few joins the level keeps, so a model can skip
    /// allocating a state per candidate. `None` exactly when the
    /// composing path is. The default is that composition.
    fn join_value_batch(&self, items: &[JoinStateItem<'_>]) -> Option<Vec<f64>> {
        self.state_value_batch(&self.join_state_batch(items)?)
    }

    /// [`ValueModel::join_state_batch`] of one item.
    fn join_state(
        &self,
        node_x: &[f64],
        left: &ModelState,
        right: &ModelState,
    ) -> Option<ModelState> {
        let item = JoinStateItem {
            node_x,
            left,
            right,
        };
        self.join_state_batch(&[item])?.pop()
    }

    /// [`ValueModel::state_value_batch`] of one state.
    fn state_value(&self, state: &ModelState) -> Option<f64> {
        self.state_value_batch(std::slice::from_ref(state))?.pop()
    }
}

impl Clone for Box<dyn ValueModel> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}

/// Ridge-regularized linear regressor over standardized features.
#[derive(Debug, Clone)]
pub struct LinearValueModel {
    w: Vec<f64>,
    b: f64,
    /// Per-feature standardization, frozen at the first fit so that
    /// fine-tuning keeps the parameter space consistent across phases.
    mean: Vec<f64>,
    inv_std: Vec<f64>,
    fitted: bool,
}

impl LinearValueModel {
    /// Creates an untrained model for `dim` features (predicts 0).
    pub fn new(dim: usize) -> Self {
        Self {
            w: vec![0.0; dim],
            b: 0.0,
            mean: vec![0.0; dim],
            inv_std: vec![1.0; dim],
            fitted: false,
        }
    }

    /// Whether the model has been fit at least once.
    pub fn is_fitted(&self) -> bool {
        self.fitted
    }

    /// The weight vector (standardized space), for introspection.
    pub fn weights(&self) -> &[f64] {
        &self.w
    }

    /// Raw-space form `(w, b)` with standardization folded in, so that
    /// `predict(x) = w·x + b`.
    fn raw_form(&self) -> (Vec<f64>, f64) {
        let w: Vec<f64> = self
            .w
            .iter()
            .zip(&self.inv_std)
            .map(|(&w, &s)| w * s)
            .collect();
        let b = self.b
            - self
                .w
                .iter()
                .zip(self.mean.iter().zip(&self.inv_std))
                .map(|(&w, (&m, &s))| w * m * s)
                .sum::<f64>();
        (w, b)
    }
}

/// `Sum for f64`'s start value; [`dot_rows`]' chains start from it too.
const SUM_START: f64 = -0.0;

/// Appends `Σ_j w[j] · z(j, row[j]) + b` for each row to `out`, in row
/// order. Four rows share each pass over `w` as independent add chains,
/// so the loop is bound by add throughput, not latency; the remainder
/// runs one chain at a time. Every chain adds its terms left to right
/// from [`SUM_START`], so each result has the bits of the serial
/// `.map(..).sum::<f64>() + b`.
fn dot_rows(w: &[f64], b: f64, rows: &[&[f64]], z: impl Fn(usize, f64) -> f64, out: &mut Vec<f64>) {
    let n = w.len();
    let mut groups = rows.chunks_exact(4);
    for group in &mut groups {
        // Every slice re-cut to `n`, so the compiler drops the bounds
        // checks below.
        let (r0, r1, r2, r3) = (
            &group[0][..n],
            &group[1][..n],
            &group[2][..n],
            &group[3][..n],
        );
        let mut acc = [SUM_START; 4];
        for j in 0..n {
            let wj = w[j];
            acc[0] += wj * z(j, r0[j]);
            acc[1] += wj * z(j, r1[j]);
            acc[2] += wj * z(j, r2[j]);
            acc[3] += wj * z(j, r3[j]);
        }
        out.extend(acc.iter().map(|a| a + b));
    }
    for row in groups.remainder() {
        let dot = w
            .iter()
            .zip(*row)
            .enumerate()
            .map(|(j, (&wj, &v))| wj * z(j, v))
            .sum::<f64>();
        out.push(dot + b);
    }
}

/// The z-rows `(x − mean) · inv_std` of a fit's packed rows, rebuilt a
/// minibatch at a time in one reused buffer. Outside its occupant's
/// stored slots a buffer row holds `z0`, the z-row of an all-`+0.0`
/// state, so loading a row restores the previous occupant's slots to
/// `z0` and overwrites its own stored slots with their z-values: every
/// slot has the bits of standardizing the unpacked row. Each row's
/// stored slots are listed once up front, so neither step walks a
/// bitmask.
struct ZRows<'a> {
    xs: &'a [PackedFeatures],
    mean: &'a [f64],
    inv_std: &'a [f64],
    z0: Vec<f64>,
    /// Row `i`'s stored slots are `slots[ofs[i]..ofs[i + 1]]`.
    slots: Vec<u32>,
    ofs: Vec<usize>,
    buf: Vec<f64>,
    /// The row each buffer row holds.
    held: Vec<Option<usize>>,
}

impl<'a> ZRows<'a> {
    fn new(xs: &'a [PackedFeatures], mean: &'a [f64], inv_std: &'a [f64]) -> Self {
        let z0 = mean
            .iter()
            .zip(inv_std)
            .map(|(m, s)| (0.0 - m) * s)
            .collect();
        let mut slots = Vec::with_capacity(xs.iter().map(|x| x.values().len()).sum());
        let mut ofs = Vec::with_capacity(xs.len() + 1);
        ofs.push(0);
        for x in xs {
            x.for_each_stored(|j, _| slots.push(j as u32));
            ofs.push(slots.len());
        }
        Self {
            xs,
            mean,
            inv_std,
            z0,
            slots,
            ofs,
            buf: Vec::new(),
            held: Vec::new(),
        }
    }

    /// The z-rows of the rows `idx`, in order.
    fn load(&mut self, idx: &[usize]) -> Vec<&[f64]> {
        let dim = self.z0.len();
        while self.held.len() < idx.len() {
            self.buf.extend_from_slice(&self.z0);
            self.held.push(None);
        }
        for (k, &i) in idx.iter().enumerate() {
            let z = &mut self.buf[k * dim..(k + 1) * dim];
            if let Some(prev) = self.held[k].replace(i) {
                for &j in &self.slots[self.ofs[prev]..self.ofs[prev + 1]] {
                    z[j as usize] = self.z0[j as usize];
                }
            }
            let slots = &self.slots[self.ofs[i]..self.ofs[i + 1]];
            for (&j, &v) in slots.iter().zip(self.xs[i].values()) {
                let j = j as usize;
                z[j] = (v - self.mean[j]) * self.inv_std[j];
            }
        }
        (0..idx.len())
            .map(|k| &self.buf[k * dim..(k + 1) * dim])
            .collect()
    }
}

impl ValueModel for LinearValueModel {
    fn name(&self) -> String {
        "linear".into()
    }

    fn is_fitted(&self) -> bool {
        self.fitted
    }

    fn params(&self) -> Vec<f64> {
        // Raw-space form, so two models that predict identically have
        // identical parameter vectors regardless of standardization.
        let (mut v, b) = self.raw_form();
        v.push(b);
        v
    }

    fn state_vec(&self) -> Vec<f64> {
        // Internal space: w, b, and the frozen standardization — the
        // raw `params` form cannot reconstruct these, and SGD steps in
        // the standardized space.
        let dim = self.w.len();
        let mut v = Vec::with_capacity(3 * dim + 2);
        v.push(self.fitted as u8 as f64);
        v.extend_from_slice(&self.w);
        v.push(self.b);
        v.extend_from_slice(&self.mean);
        v.extend_from_slice(&self.inv_std);
        v
    }

    fn load_state(&mut self, state: &[f64]) -> Result<(), String> {
        let dim = self.w.len();
        if state.len() != 3 * dim + 2 {
            return Err(format!(
                "linear state length {} != {} (dim {dim})",
                state.len(),
                3 * dim + 2
            ));
        }
        self.fitted = state[0] != 0.0;
        self.w.copy_from_slice(&state[1..1 + dim]);
        self.b = state[1 + dim];
        self.mean.copy_from_slice(&state[2 + dim..2 + 2 * dim]);
        self.inv_std.copy_from_slice(&state[2 + 2 * dim..]);
        Ok(())
    }

    fn clone_box(&self) -> Box<dyn ValueModel> {
        Box::new(self.clone())
    }

    /// Standardizes each state on the fly inside four interleaved
    /// dot-product chains.
    fn predict_batch(&self, xs: &[&[f64]]) -> Vec<f64> {
        for x in xs {
            assert_eq!(x.len(), self.w.len(), "feature length mismatch");
        }
        let n = self.w.len();
        let (mean, inv_std) = (&self.mean[..n], &self.inv_std[..n]);
        let mut out = Vec::with_capacity(xs.len());
        dot_rows(
            &self.w,
            self.b,
            xs,
            |j, v| (v - mean[j]) * inv_std[j],
            &mut out,
        );
        out
    }

    /// Folds the head's standardized terms once, left to right from
    /// `-0.0`, then continues that sum through each tail and adds the
    /// bias — the order `predict_batch` adds each row in, so every
    /// prediction has the bits of `predict_batch` on `head ++ tail`.
    fn predict_flat_batch(&self, head: &[f64], tails: &[&[f64]]) -> Vec<f64> {
        let n = self.w.len();
        let h = head.len();
        for t in tails {
            assert_eq!(h + t.len(), n, "feature length mismatch");
        }
        let z = |j: usize, v: f64| self.w[j] * ((v - self.mean[j]) * self.inv_std[j]);
        let prefix = head
            .iter()
            .enumerate()
            .fold(SUM_START, |acc, (j, &v)| acc + z(j, v));
        tails
            .iter()
            .map(|t| {
                let dot = t
                    .iter()
                    .enumerate()
                    .fold(prefix, |acc, (k, &v)| acc + z(h + k, v));
                dot + self.b
            })
            .collect()
    }

    /// Reads the packed rows directly. The column statistics stream
    /// each row through one reused dense buffer, so every `+0.0` is still
    /// added in row order; each minibatch's z-rows are rebuilt in place
    /// (`ZRows`), and the final error runs in chunks. Every value has
    /// the bits of the fit over standardized dense rows.
    fn fit(&mut self, data: TrainSet, cfg: &SgdConfig, rng: &mut SmallRng) -> FitReport {
        assert_eq!(data.xs.len(), data.ys.len());
        assert_eq!(data.censored.len(), data.ys.len());
        if data.is_empty() {
            return FitReport::default();
        }
        let dim = self.w.len();
        let n = data.len();
        for x in &data.xs {
            assert_eq!(x.len(), dim, "feature length mismatch");
        }

        if !self.fitted {
            // Freeze standardization on the first training distribution.
            // Row-major, one accumulator per column: each column still
            // adds its rows in order from `Sum`'s start value.
            let mut row = vec![0.0; dim];
            let mut acc = vec![SUM_START; dim];
            for x in &data.xs {
                x.unpack_into(&mut row);
                acc.iter_mut().zip(&row).for_each(|(a, v)| *a += v);
            }
            for (m, a) in self.mean.iter_mut().zip(&acc) {
                *m = a / n as f64;
            }
            acc.fill(SUM_START);
            for x in &data.xs {
                x.unpack_into(&mut row);
                for ((a, v), m) in acc.iter_mut().zip(&row).zip(&self.mean) {
                    *a += (v - m) * (v - m);
                }
            }
            for (s, a) in self.inv_std.iter_mut().zip(&acc) {
                let var = a / n as f64;
                *s = if var > 1e-12 { 1.0 / var.sqrt() } else { 0.0 };
            }
            // Gaussian init and a bias at the label mean put the first
            // predictions in range.
            for w in &mut self.w {
                *w = rng.random_normal(0.0, 0.01);
            }
            self.b = data.ys.iter().sum::<f64>() / n as f64;
            self.fitted = true;
        }
        let mut zrows = ZRows::new(&data.xs, &self.mean, &self.inv_std);

        // Flat parameter vector `[w…, b]` through the shared optimizer;
        // the weight-only L2 mask zeroes decay on the bias exactly as
        // the historical inline update did.
        let mut params: Vec<f64> = self.w.iter().copied().chain([self.b]).collect();
        let mut mask = vec![1.0; dim + 1];
        mask[dim] = 0.0;
        let mut opt = Optimizer::new(cfg, dim + 1);
        let mut order: Vec<usize> = (0..n).collect();
        let mut grad = vec![0.0; dim + 1];
        let mut preds = Vec::with_capacity(cfg.batch.max(1));
        let mut steps = 0u64;
        for _epoch in 0..cfg.epochs {
            shuffle_epoch_order(&mut order, rng);
            for chunk in order.chunks(cfg.batch.max(1)) {
                // The params hold still within a chunk: predict all of it
                // first, then accumulate gradients in sample order.
                let zs = zrows.load(chunk);
                preds.clear();
                dot_rows(&params[..dim], params[dim], &zs, |_, z| z, &mut preds);
                grad.iter_mut().for_each(|g| *g = 0.0);
                let mut active = 0usize;
                for ((&i, &pred), z) in chunk.iter().zip(&preds).zip(&zs) {
                    let resid = pred - data.ys[i];
                    // Censored lower bound: no penalty once we predict
                    // at or above it.
                    if data.censored[i] && resid >= 0.0 {
                        continue;
                    }
                    active += 1;
                    for (g, z) in grad.iter_mut().zip(*z) {
                        *g += resid * z;
                    }
                    grad[dim] += resid;
                }
                if active > 0 {
                    let inv = 1.0 / active as f64;
                    grad.iter_mut().for_each(|g| *g *= inv);
                    opt.step(cfg, &mut params, &grad, &mask);
                }
                steps += 1;
            }
        }
        let (w, b) = (&params[..dim], params[dim]);

        // Final training error, a fixed-size chunk of z-rows at a time.
        const CHUNK: usize = 64;
        preds.clear();
        let all: Vec<usize> = (0..n).collect();
        for idx in all.chunks(CHUNK) {
            dot_rows(w, b, &zrows.load(idx), |_, z| z, &mut preds);
        }
        let mse = preds
            .iter()
            .zip(data.ys.iter().zip(&data.censored))
            .map(|(p, (&y, &c))| {
                let r = p - y;
                if c && r >= 0.0 {
                    0.0
                } else {
                    r * r
                }
            })
            .sum::<f64>()
            / n as f64;
        self.w.copy_from_slice(w);
        self.b = b;
        FitReport {
            steps,
            mse,
            ..FitReport::default()
        }
    }
}

/// A frozen base model plus a trainable correction, predicting the sum
/// of both — the model-agnostic form of residual fine-tuning (§4.2): the
/// simulation phase's model stays fixed and real-execution evidence only
/// trains the correction. For the tree-conv net the sum is the only way
/// to keep the pretrained policy as the anchor; the linear family goes
/// through the same wrapper.
pub struct ResidualValueModel {
    base: Box<dyn ValueModel>,
    correction: Box<dyn ValueModel>,
}

impl ResidualValueModel {
    /// Wraps `base` (frozen) with a trainable `correction`. Both must
    /// consume the same encoding.
    pub fn new(base: Box<dyn ValueModel>, correction: Box<dyn ValueModel>) -> Self {
        assert_eq!(
            base.encoding(),
            correction.encoding(),
            "base and correction must share an encoding"
        );
        Self { base, correction }
    }

    /// The frozen base model.
    pub fn base(&self) -> &dyn ValueModel {
        &*self.base
    }

    /// The trainable correction model.
    pub fn correction(&self) -> &dyn ValueModel {
        &*self.correction
    }

    /// Each item's halves: the base's items over the children's base
    /// states and the correction's over their correction states, sharing
    /// the node rows. `None` unless every child is a pair state.
    #[allow(clippy::type_complexity)]
    fn split_items<'a>(
        items: &[JoinStateItem<'a>],
    ) -> Option<(Vec<JoinStateItem<'a>>, Vec<JoinStateItem<'a>>)> {
        let mut base = Vec::with_capacity(items.len());
        let mut corr = Vec::with_capacity(items.len());
        for it in items {
            let l = it.left.downcast_ref::<(ModelState, ModelState)>()?;
            let r = it.right.downcast_ref::<(ModelState, ModelState)>()?;
            base.push(JoinStateItem {
                node_x: it.node_x,
                left: &l.0,
                right: &r.0,
            });
            corr.push(JoinStateItem {
                node_x: it.node_x,
                left: &l.1,
                right: &r.1,
            });
        }
        Some((base, corr))
    }

    /// Rewrites `data`'s labels to the residuals `y − base(x)`, the
    /// base's predictions taken over fixed-size chunks of unpacked rows
    /// (a prediction depends on its own row alone, so any chunking gives
    /// the same bits).
    fn to_residual_labels(&self, data: &mut TrainSet) {
        const CHUNK: usize = 256;
        let mut buf = Vec::new();
        for (xs, ys) in data.xs.chunks(CHUNK).zip(data.ys.chunks_mut(CHUNK)) {
            buf.clear();
            for x in xs {
                let at = buf.len();
                buf.resize(at + x.len(), 0.0);
                x.unpack_into(&mut buf[at..]);
            }
            let mut at = 0;
            let rows: Vec<&[f64]> = xs
                .iter()
                .map(|x| {
                    at += x.len();
                    &buf[at - x.len()..at]
                })
                .collect();
            for (y, b) in ys.iter_mut().zip(self.base.predict_batch(&rows)) {
                *y -= b;
            }
        }
    }
}

impl ValueModel for ResidualValueModel {
    fn name(&self) -> String {
        format!("{}+res", self.base.name())
    }

    fn encoding(&self) -> FeatureEncoding {
        self.base.encoding()
    }

    fn is_fitted(&self) -> bool {
        self.base.is_fitted() || self.correction.is_fitted()
    }

    /// Fits the correction on the residual labels `y − base(x)` (labels
    /// are adjusted in place — no copy of the feature vectors). A
    /// censored lower bound on `y` remains a lower bound on the residual.
    fn fit(&mut self, mut data: TrainSet, cfg: &SgdConfig, rng: &mut SmallRng) -> FitReport {
        self.to_residual_labels(&mut data);
        self.correction.fit(data, cfg, rng)
    }

    /// Same residual-label adjustment, correction trained through its
    /// per-sample reference path.
    fn fit_per_sample(
        &mut self,
        mut data: TrainSet,
        cfg: &SgdConfig,
        rng: &mut SmallRng,
    ) -> FitReport {
        self.to_residual_labels(&mut data);
        self.correction.fit_per_sample(data, cfg, rng)
    }

    fn params(&self) -> Vec<f64> {
        let mut v = self.base.params();
        v.extend(self.correction.params());
        v
    }

    fn state_vec(&self) -> Vec<f64> {
        // Length-prefix the base half so the split survives halves
        // whose state length varies with fitted-ness.
        let base = self.base.state_vec();
        let mut v = Vec::with_capacity(base.len() + 1);
        v.push(base.len() as f64);
        v.extend(base);
        v.extend(self.correction.state_vec());
        v
    }

    fn load_state(&mut self, state: &[f64]) -> Result<(), String> {
        let n = *state.first().ok_or("empty residual state")? as usize;
        let rest = &state[1..];
        if n > rest.len() {
            return Err(format!(
                "residual base length {n} exceeds state length {}",
                rest.len()
            ));
        }
        self.base.load_state(&rest[..n])?;
        self.correction.load_state(&rest[n..])
    }

    fn clone_box(&self) -> Box<dyn ValueModel> {
        Box::new(ResidualValueModel {
            base: self.base.clone_box(),
            correction: self.correction.clone_box(),
        })
    }

    fn leaf_state(&self, node_x: &[f64]) -> Option<ModelState> {
        let b = self.base.leaf_state(node_x)?;
        let c = self.correction.leaf_state(node_x)?;
        Some(Arc::new((b, c)))
    }

    /// Routes both halves through their own batched paths and sums per
    /// sample.
    fn predict_batch(&self, xs: &[&[f64]]) -> Vec<f64> {
        let base = self.base.predict_batch(xs);
        let corr = self.correction.predict_batch(xs);
        base.iter().zip(&corr).map(|(b, c)| b + c).collect()
    }

    /// Both halves through their own flat paths, summed per state as
    /// `predict_batch` sums them.
    fn predict_flat_batch(&self, head: &[f64], tails: &[&[f64]]) -> Vec<f64> {
        let base = self.base.predict_flat_batch(head, tails);
        let corr = self.correction.predict_flat_batch(head, tails);
        base.iter().zip(&corr).map(|(b, c)| b + c).collect()
    }

    fn join_state_batch(&self, items: &[JoinStateItem<'_>]) -> Option<Vec<ModelState>> {
        let (base_items, corr_items) = Self::split_items(items)?;
        let base = self.base.join_state_batch(&base_items)?;
        let corr = self.correction.join_state_batch(&corr_items)?;
        Some(
            base.into_iter()
                .zip(corr)
                .map(|(b, c)| Arc::new((b, c)) as ModelState)
                .collect(),
        )
    }

    /// Both halves through their own values paths, summed per join as
    /// `state_value_batch` sums them; no pair state is built.
    fn join_value_batch(&self, items: &[JoinStateItem<'_>]) -> Option<Vec<f64>> {
        let (base_items, corr_items) = Self::split_items(items)?;
        let base = self.base.join_value_batch(&base_items)?;
        let corr = self.correction.join_value_batch(&corr_items)?;
        Some(base.into_iter().zip(corr).map(|(b, c)| b + c).collect())
    }

    fn state_value_batch(&self, states: &[ModelState]) -> Option<Vec<f64>> {
        let pairs: Option<Vec<_>> = states
            .iter()
            .map(|s| s.downcast_ref::<(ModelState, ModelState)>())
            .collect();
        let pairs = pairs?;
        let base_states: Vec<ModelState> = pairs.iter().map(|p| p.0.clone()).collect();
        let corr_states: Vec<ModelState> = pairs.iter().map(|p| p.1.clone()).collect();
        let base = self.base.state_value_batch(&base_states)?;
        let corr = self.correction.state_value_batch(&corr_states)?;
        Some(base.into_iter().zip(corr).map(|(b, c)| b + c).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn synth(n: usize, rng: &mut SmallRng) -> TrainSet {
        // y = 2*x0 - 3*x1 + 0.5 plus small noise.
        let mut set = TrainSet::default();
        for _ in 0..n {
            let x0: f64 = rng.random::<f64>() * 4.0;
            let x1: f64 = rng.random::<f64>() * 4.0;
            let y = 2.0 * x0 - 3.0 * x1 + 0.5 + rng.random_normal(0.0, 0.01);
            set.push(&[x0, x1], y, false);
        }
        set
    }

    #[test]
    fn recovers_a_linear_function() {
        let mut rng = SmallRng::seed_from_u64(1);
        let data = synth(500, &mut rng);
        let mut m = LinearValueModel::new(2);
        let report = m.fit(data, &SgdConfig::default(), &mut rng);
        assert!(report.steps > 0);
        assert!(report.mse < 0.05, "mse {}", report.mse);
        let pred = m.predict(&[1.0, 1.0]);
        assert!((pred - (-0.5)).abs() < 0.3, "pred {pred}");
    }

    #[test]
    fn fit_is_deterministic_given_seed() {
        let data = synth(200, &mut SmallRng::seed_from_u64(2));
        let fit = |seed| {
            let mut m = LinearValueModel::new(2);
            m.fit(
                data.clone(),
                &SgdConfig::default(),
                &mut SmallRng::seed_from_u64(seed),
            );
            m.predict(&[2.0, 1.0])
        };
        assert_eq!(fit(7), fit(7));
    }

    #[test]
    fn censored_labels_push_up_but_do_not_anchor() {
        let mut rng = SmallRng::seed_from_u64(3);
        // All samples censored at 5.0: the model must predict >= ~5 but
        // is free to go higher; with only hinge data it settles near it.
        let mut data = TrainSet::default();
        for i in 0..200 {
            data.push(&[(i % 7) as f64, 1.0], 5.0, true);
        }
        // A few uncensored points far above the bound dominate where
        // gradients remain active.
        for _ in 0..50 {
            data.push(&[3.0, 1.0], 9.0, false);
        }
        let mut m = LinearValueModel::new(2);
        m.fit(data, &SgdConfig::default(), &mut rng);
        let at_bound = m.predict(&[1.0, 1.0]);
        assert!(at_bound > 4.0, "censored floor ignored: {at_bound}");
        let at_high = m.predict(&[3.0, 1.0]);
        assert!(
            (at_high - 9.0).abs() < 1.5,
            "uncensored target missed: {at_high}"
        );
    }

    /// A model that writes only the batch methods: its `ModelState` is
    /// the sum of the node encodings below it, its value that sum's
    /// first entry.
    struct BatchOnly;

    impl ValueModel for BatchOnly {
        fn name(&self) -> String {
            "batch-only".into()
        }
        fn is_fitted(&self) -> bool {
            true
        }
        fn predict_batch(&self, xs: &[&[f64]]) -> Vec<f64> {
            xs.iter().map(|x| x.iter().sum()).collect()
        }
        fn fit(&mut self, _: TrainSet, _: &SgdConfig, _: &mut SmallRng) -> FitReport {
            FitReport::default()
        }
        fn params(&self) -> Vec<f64> {
            Vec::new()
        }
        fn state_vec(&self) -> Vec<f64> {
            Vec::new()
        }
        fn load_state(&mut self, _: &[f64]) -> Result<(), String> {
            Ok(())
        }
        fn clone_box(&self) -> Box<dyn ValueModel> {
            Box::new(BatchOnly)
        }
        fn leaf_state(&self, node_x: &[f64]) -> Option<ModelState> {
            Some(Arc::new(node_x.to_vec()))
        }
        fn join_state_batch(&self, items: &[JoinStateItem<'_>]) -> Option<Vec<ModelState>> {
            items
                .iter()
                .map(|it| {
                    let (l, r) = (
                        it.left.downcast_ref::<Vec<f64>>()?,
                        it.right.downcast_ref::<Vec<f64>>()?,
                    );
                    let sum: Vec<f64> = it
                        .node_x
                        .iter()
                        .zip(l.iter().zip(r))
                        .map(|(x, (l, r))| x + l + r)
                        .collect();
                    Some(Arc::new(sum) as ModelState)
                })
                .collect()
        }
        fn state_value_batch(&self, states: &[ModelState]) -> Option<Vec<f64>> {
            states
                .iter()
                .map(|s| Some(s.downcast_ref::<Vec<f64>>()?[0]))
                .collect()
        }
    }

    /// The provided single-item methods are one-element batches: a model
    /// that implements only the batch methods answers them correctly,
    /// and one that implements no incremental hook answers `None`.
    #[test]
    fn single_item_methods_are_batches_of_one() {
        let m = BatchOnly;
        assert_eq!(m.predict(&[1.0, 2.5]), 3.5);
        let (a, b) = (m.leaf_state(&[1.0, 2.0]), m.leaf_state(&[10.0, 20.0]));
        let (a, b) = (a.unwrap(), b.unwrap());
        let ab = m.join_state(&[100.0, 200.0], &a, &b).expect("composes");
        assert_eq!(ab.downcast_ref::<Vec<f64>>().unwrap(), &[111.0, 222.0]);
        assert_eq!(m.state_value(&ab), Some(111.0));
        // A foreign state fails the downcast inside the batch: `None`.
        let foreign: ModelState = Arc::new(7u8);
        assert!(m.join_state(&[0.0, 0.0], &a, &foreign).is_none());
        assert!(m.state_value(&foreign).is_none());

        let flat = LinearValueModel::new(2);
        assert!(flat.join_state(&[0.0, 0.0], &a, &b).is_none());
        assert!(flat.state_value(&a).is_none());
    }

    /// The serial reference: standardize the state into its own vector.
    fn standardized(m: &LinearValueModel, x: &[f64]) -> Vec<f64> {
        x.iter()
            .zip(m.mean.iter().zip(&m.inv_std))
            .map(|(&v, (&m, &s))| (v - m) * s)
            .collect()
    }

    /// The serial reference: one `.sum()` chain over the weights.
    fn raw_predict(m: &LinearValueModel, z: &[f64]) -> f64 {
        m.w.iter().zip(z).map(|(w, z)| w * z).sum::<f64>() + m.b
    }

    /// Sparse rows over `dim` features: zeros, constant columns, signs.
    fn sparse_set(n: usize, dim: usize, rng: &mut SmallRng) -> TrainSet {
        let mut set = TrainSet::default();
        for i in 0..n {
            let x: Vec<f64> = (0..dim)
                .map(|j| match j % 5 {
                    0 => 1.0,
                    1 | 2 if rng.random_bool(0.7) => 0.0,
                    _ => rng.random::<f64>() * 6.0 - 2.0,
                })
                .collect();
            let y = x[3] - 0.5 * x[4] + rng.random_normal(0.0, 0.1);
            set.push(&x, y, i % 5 == 0);
        }
        set
    }

    /// The set's rows, unpacked.
    fn dense(set: &TrainSet) -> Vec<Vec<f64>> {
        set.xs.iter().map(PackedFeatures::unpack).collect()
    }

    /// `predict_batch`'s interleaved chains equal the serial reference
    /// bit for bit at every batch size around the chain width, fitted
    /// and unfitted. The unfitted model with bias `-0.0` on all-negative
    /// states sums `-0.0` terms only, so there the chains' start value
    /// shows in the result.
    #[test]
    fn predict_batch_equals_the_serial_reference_bit_for_bit() {
        let mut rng = SmallRng::seed_from_u64(9);
        let dim = 29;
        let negative: Vec<Vec<f64>> = (0..65)
            .map(|_| (0..dim).map(|_| -0.5 - rng.random::<f64>()).collect())
            .collect();
        let mixed = dense(&sparse_set(65, dim, &mut rng));
        let mut neg_bias = LinearValueModel::new(dim);
        neg_bias.b = -0.0;
        let mut fitted = LinearValueModel::new(dim);
        fitted.fit(
            sparse_set(101, dim, &mut rng),
            &SgdConfig::default(),
            &mut rng,
        );
        let cases = [
            (LinearValueModel::new(dim), &negative),
            (neg_bias, &negative),
            (fitted.clone(), &mixed),
            (fitted, &negative),
        ];
        for (case, (m, rows)) in cases.iter().enumerate() {
            for size in [0usize, 1, 3, 4, 5, 8, 63, 64, 65] {
                let xs: Vec<&[f64]> = rows[..size].iter().map(Vec::as_slice).collect();
                let got = m.predict_batch(&xs);
                assert_eq!(got.len(), size);
                for (x, g) in xs.iter().zip(&got) {
                    let want = raw_predict(m, &standardized(m, x));
                    assert_eq!(g.to_bits(), want.to_bits(), "case {case} batch {size}");
                }
            }
        }
    }

    /// `predict_flat_batch(head, tails)` has the bits of `predict_batch`
    /// on the rows `head ++ tails[k]`: for the linear override unfitted
    /// and fitted (with zero-variance columns, whose `inv_std` is 0), for
    /// the residual override over two linear halves, and for the
    /// provided body through a model that writes only `predict_batch`.
    /// Tail counts 1–9 cover `dot_rows`' four-row groups and remainder.
    #[test]
    fn flat_batches_equal_concatenated_rows_bit_for_bit() {
        let mut rng = SmallRng::seed_from_u64(13);
        let (dim, h) = (29, 12);
        let mut fitted = LinearValueModel::new(dim);
        fitted.fit(
            sparse_set(101, dim, &mut rng),
            &SgdConfig::default(),
            &mut rng,
        );
        assert!(fitted.inv_std.contains(&0.0), "a zero-variance column");
        let mut correction = LinearValueModel::new(dim);
        correction.fit(
            sparse_set(57, dim, &mut rng),
            &SgdConfig::default(),
            &mut rng,
        );
        let residual = ResidualValueModel::new(Box::new(fitted.clone()), Box::new(correction));
        let models: [&dyn ValueModel; 4] =
            [&LinearValueModel::new(dim), &fitted, &residual, &BatchOnly];
        let rows = dense(&sparse_set(10, dim, &mut rng));
        let head = &rows[0][..h];
        for m in models {
            for n in 1..=9 {
                let tails: Vec<&[f64]> = rows[1..=n].iter().map(|x| &x[h..]).collect();
                let full: Vec<Vec<f64>> = tails.iter().map(|t| [head, t].concat()).collect();
                let full: Vec<&[f64]> = full.iter().map(Vec::as_slice).collect();
                let got = m.predict_flat_batch(head, &tails);
                let want = m.predict_batch(&full);
                assert_eq!(got.len(), n);
                for (k, (g, w)) in got.iter().zip(&want).enumerate() {
                    assert_eq!(g.to_bits(), w.to_bits(), "{}: {n} tails, row {k}", m.name());
                }
            }
        }
    }

    /// Params, `mse` and predictions of three successive fits (censored
    /// samples, sizes not a multiple of the chain width, batch 64) are
    /// pinned to the bits of the serial one-chain-per-sample fit that
    /// standardized into a separate copy of the set.
    #[test]
    fn linear_fit_bits_are_pinned() {
        const PIN: u64 = 0xa9f6_75e1_d19c_5d5b;
        let fold = |acc: u64, v: u64| (acc ^ v).wrapping_mul(0x0000_0100_0000_01b3);
        let mut rng = SmallRng::seed_from_u64(0x11);
        let dim = 37;
        let probe = dense(&sparse_set(67, dim, &mut rng));
        let probe: Vec<&[f64]> = probe.iter().map(Vec::as_slice).collect();
        let cfg = SgdConfig {
            epochs: 3,
            ..SgdConfig::default()
        };
        assert_eq!(cfg.batch, 64);
        let mut m = LinearValueModel::new(dim);
        let mut sum = 0xcbf2_9ce4_8422_2325u64;
        for n in [203usize, 253, 303] {
            let report = m.fit(sparse_set(n, dim, &mut rng), &cfg, &mut rng);
            let bits = m
                .params()
                .into_iter()
                .chain([report.mse])
                .chain(m.predict_batch(&probe));
            for v in bits {
                sum = fold(sum, v.to_bits());
            }
        }
        assert_eq!(sum, PIN, "actual {sum:#x}");
    }

    /// Folds `vals` into `sum`. The rotate spreads each difference, so
    /// two values that differ only in the same bit (say, the sign of a
    /// zero) cannot cancel as they do under a plain xor-multiply.
    fn fold_bits(sum: u64, vals: impl IntoIterator<Item = u64>) -> u64 {
        vals.into_iter().fold(sum, |acc, v| {
            (acc.rotate_left(23) ^ v).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    /// Folds what a fit leaves behind: `params`, `state_vec`, the
    /// report's `mse` and `steps`.
    fn fold_fit(sum: u64, m: &dyn ValueModel, report: FitReport) -> u64 {
        let vals = m
            .params()
            .into_iter()
            .chain(m.state_vec())
            .chain([report.mse]);
        fold_bits(sum, vals.map(f64::to_bits).chain([report.steps]))
    }

    /// Rows that make the column statistics depend on every slot: a
    /// constant column, an all-`+0.0` column (its mean is `+0.0` only
    /// when each `+0.0` is added to the `-0.0` start), a column mixing
    /// stored `-0.0`, `+0.0` and values, sparse random columns, and
    /// every fourth label censored.
    fn pin_set(n: usize, dim: usize, rng: &mut SmallRng) -> TrainSet {
        let mut set = TrainSet::default();
        for i in 0..n {
            let x: Vec<f64> = (0..dim)
                .map(|j| match j {
                    0 => 1.0,
                    1 => 0.0,
                    2 => [-0.0, 0.0, 1.5][i % 3],
                    _ if rng.random_bool(0.6) => 0.0,
                    _ => rng.random::<f64>() * 4.0 - 1.0,
                })
                .collect();
            let y = x[3] - 0.5 * x[4] + rng.random_normal(0.0, 0.1);
            set.push(&x, y, i % 4 == 0);
        }
        set
    }

    /// A fresh linear fit and a refit under the frozen standardization:
    /// params, `state_vec`, `mse` and steps, pinned to the bits of the
    /// fit that standardized a dense copy of the set.
    #[test]
    fn linear_fit_and_refit_bits_are_pinned() {
        const PIN: u64 = 0x7a1e_000e_ce2e_b2d1;
        let mut rng = SmallRng::seed_from_u64(0x5107);
        let dim = 23;
        let cfg = SgdConfig {
            epochs: 4,
            batch: 16,
            ..SgdConfig::default()
        };
        let mut m = LinearValueModel::new(dim);
        let fresh = m.fit(pin_set(101, dim, &mut rng), &cfg, &mut rng);
        assert_eq!(m.mean[1].to_bits(), 0, "all-+0.0 column's mean is +0.0");
        let mut sum = fold_fit(0xcbf2_9ce4_8422_2325, &m, fresh);
        let refit = m.fit(pin_set(77, dim, &mut rng), &cfg, &mut rng);
        sum = fold_fit(sum, &m, refit);
        assert_eq!(sum, PIN, "actual {sum:#x}");
    }

    /// A residual fit over two linear halves: the base fitted first,
    /// then the correction on residual labels.
    #[test]
    fn residual_fit_bits_are_pinned() {
        const PIN: u64 = 0x1f64_f405_d68c_c27f;
        let mut rng = SmallRng::seed_from_u64(0x2e5);
        let dim = 19;
        let cfg = SgdConfig {
            epochs: 3,
            batch: 8,
            ..SgdConfig::default()
        };
        let mut base = LinearValueModel::new(dim);
        base.fit(pin_set(90, dim, &mut rng), &cfg, &mut rng);
        let mut m = ResidualValueModel::new(Box::new(base), Box::new(LinearValueModel::new(dim)));
        let report = m.fit(pin_set(300, dim, &mut rng), &cfg, &mut rng);
        let sum = fold_fit(0xcbf2_9ce4_8422_2325, &m, report);
        assert_eq!(sum, PIN, "actual {sum:#x}");
    }

    /// The refit the packed one replaced, written out as the oracle: the
    /// minibatch loop over rows standardized once beforehand (`zs`),
    /// the same `dot_rows` chains and `Optimizer` update. Continues
    /// from `m`'s parameters under its frozen standardization and
    /// returns the `mse`.
    fn dense_reference_refit(
        m: &mut LinearValueModel,
        zs: &[&[f64]],
        ys: &[f64],
        censored: &[bool],
        cfg: &SgdConfig,
        rng: &mut SmallRng,
    ) -> f64 {
        let (n, dim) = (zs.len(), m.w.len());
        let mut params: Vec<f64> = m.w.iter().copied().chain([m.b]).collect();
        let mut mask = vec![1.0; dim + 1];
        mask[dim] = 0.0;
        let mut opt = Optimizer::new(cfg, dim + 1);
        let mut order: Vec<usize> = (0..n).collect();
        let mut preds = Vec::new();
        for _ in 0..cfg.epochs {
            shuffle_epoch_order(&mut order, rng);
            for chunk in order.chunks(cfg.batch) {
                let rows: Vec<&[f64]> = chunk.iter().map(|&i| zs[i]).collect();
                preds.clear();
                dot_rows(&params[..dim], params[dim], &rows, |_, z| z, &mut preds);
                let mut grad = vec![0.0; dim + 1];
                let mut active = 0usize;
                for (&i, p) in chunk.iter().zip(&preds) {
                    let r = p - ys[i];
                    if censored[i] && r >= 0.0 {
                        continue;
                    }
                    active += 1;
                    for (g, z) in grad.iter_mut().zip(zs[i]) {
                        *g += r * z;
                    }
                    grad[dim] += r;
                }
                if active > 0 {
                    let inv = 1.0 / active as f64;
                    grad.iter_mut().for_each(|g| *g *= inv);
                    opt.step(cfg, &mut params, &grad, &mask);
                }
            }
        }
        m.w.copy_from_slice(&params[..dim]);
        m.b = params[dim];
        preds.clear();
        dot_rows(&m.w, m.b, zs, |_, z| z, &mut preds);
        let terms = preds.iter().zip(ys.iter().zip(censored));
        terms
            .map(|(p, (&y, &c))| {
                if c && p - y >= 0.0 {
                    0.0
                } else {
                    (p - y) * (p - y)
                }
            })
            .sum::<f64>()
            / n as f64
    }

    /// Floor microbenchmark of the linear fit: a refit under frozen
    /// standardization (each fine-tuning fit of the training loop) from
    /// packed rows — z-rows rebuilt per minibatch — beside the deleted
    /// path, the same loop over rows standardized beforehand, on
    /// flat-shaped rows (483 sparse head channels, 17 dense tail
    /// channels). Asserts params, `state_vec` and `mse` equal bit for
    /// bit and prints samples/s for both. Run with `cargo test --release
    /// -p balsa-learn --lib linear_fit_floor -- --ignored --nocapture`.
    #[test]
    #[ignore]
    fn linear_fit_floor() {
        use std::time::Instant;
        const N: usize = 4096;
        const DIM: usize = 500;
        const REPS: usize = 15;
        let mut rng = SmallRng::seed_from_u64(0xF1A7);
        let mut set = TrainSet::default();
        for i in 0..N {
            let x: Vec<f64> = (0..DIM)
                .map(|j| match j {
                    0 => 1.0,
                    1..=4 => 0.0,
                    5 => [-0.0, 0.0, 2.0][i % 3],
                    _ if j >= 483 => rng.random_normal(0.0, 1.0),
                    _ if rng.random_bool(0.06) => rng.random::<f64>() * 3.0,
                    _ => 0.0,
                })
                .collect();
            let y = x[483] - 0.5 * x[490] + rng.random_normal(0.0, 0.1);
            set.push(&x, y, i % 5 == 0);
        }
        let cfg = SgdConfig {
            epochs: 5,
            ..SgdConfig::default()
        };
        let mut fitted = LinearValueModel::new(DIM);
        fitted.fit(set.clone(), &cfg, &mut rng);
        let zs: Vec<Vec<f64>> = dense(&set)
            .iter()
            .map(|x| standardized(&fitted, x))
            .collect();
        let zs: Vec<&[f64]> = zs.iter().map(Vec::as_slice).collect();
        let (mut packed_ns, mut dense_ns) = (Vec::new(), Vec::new());
        for rep in 0..REPS {
            let (data, mut m) = (set.clone(), fitted.clone());
            let mut rng = SmallRng::seed_from_u64(rep as u64);
            let t = Instant::now();
            let report = m.fit(data, &cfg, &mut rng);
            packed_ns.push(t.elapsed().as_nanos());
            let mut want = fitted.clone();
            let mut rng = SmallRng::seed_from_u64(rep as u64);
            let t = Instant::now();
            let mse = dense_reference_refit(&mut want, &zs, &set.ys, &set.censored, &cfg, &mut rng);
            dense_ns.push(t.elapsed().as_nanos());
            let bits = |v: Vec<f64>| v.into_iter().map(f64::to_bits).collect::<Vec<_>>();
            assert_eq!(bits(m.params()), bits(want.params()), "rep {rep}");
            assert_eq!(bits(m.state_vec()), bits(want.state_vec()), "rep {rep}");
            assert_eq!(report.mse.to_bits(), mse.to_bits(), "rep {rep}");
        }
        let median = |mut ns: Vec<u128>| {
            ns.sort_unstable();
            ns[ns.len() / 2] as f64 * 1e-9
        };
        let (p, d) = (median(packed_ns), median(dense_ns));
        let samples = (N * cfg.epochs) as f64;
        println!(
            "refit of {N} rows x {DIM} channels, {} epochs, batch {}: packed {:.0} samples/s, \
             dense reference {:.0} samples/s, ratio {:.2}",
            cfg.epochs,
            cfg.batch,
            samples / p,
            samples / d,
            p / d
        );
    }

    #[test]
    fn empty_fit_is_a_noop() {
        let mut m = LinearValueModel::new(3);
        let r = m.fit(
            TrainSet::default(),
            &SgdConfig::default(),
            &mut SmallRng::seed_from_u64(0),
        );
        assert_eq!(r.steps, 0);
        assert!(!m.is_fitted());
    }
}
