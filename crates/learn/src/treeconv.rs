//! The tree-convolution value network (§6).
//!
//! [`TreeConvValueModel`] is the paper's stronger function class over the
//! per-node plan encoding: the plan is reshaped into the binary-tree
//! tensor layout ([`balsa_query::Plan::tree_tensor`]), 2–3 tree
//! convolution layers slide **triple filters** over every
//! `(node, left child, right child)` window, a **dynamic pooling** step
//! takes the channel-wise max over all nodes (so plans of any size map
//! to a fixed-length vector), and a small MLP head reads the pooled
//! vector out to a scalar log-latency.
//!
//! Everything is pure Rust on the vendored shims: forward, manual
//! backprop (through the MLP, the max-pool routing, and the shared
//! convolution filters), and the same censored-hinge minibatch SGD the
//! linear model trains with. Weights flatten to a single parameter
//! vector ([`TreeConvValueModel::set_params`] /
//! [`crate::model::ValueModel::params`]), so checkpoints are
//! serialization-ready and exactly comparable.
//!
//! Because a convolution layer only looks *downward* (a node and its
//! children), a node's activations never change when a parent is added
//! above it. Inference inside the beam exploits this: the incremental
//! [`crate::model::ValueModel::join_state_batch`] hook carries each subtree's
//! root activations per layer plus the pooled channel maxima, so scoring
//! a candidate join costs one window of convolutions — O(1) in the
//! subtree size — instead of a full re-encode.

use crate::model::{
    shuffle_epoch_order, FeatureEncoding, FitReport, JoinStateItem, ModelState, Optimizer,
    SgdConfig, TrainSet, ValueModel, LRELU_SLOPE,
};
use rand::rngs::SmallRng;
use rand::RngExt;
use std::sync::Arc;
use std::time::Instant;

/// Architecture of the tree-convolution network.
#[derive(Debug, Clone)]
pub struct TreeConvConfig {
    /// Output channels of each tree-convolution layer, applied in order
    /// over the node encoding.
    pub conv_channels: Vec<usize>,
    /// Hidden width of the MLP head over the pooled vector.
    pub mlp_hidden: usize,
}

impl Default for TreeConvConfig {
    fn default() -> Self {
        Self {
            conv_channels: vec![24, 16],
            mlp_hidden: 16,
        }
    }
}

/// Serializes per-node feature rows plus the child table into the flat
/// self-describing tree encoding consumed by [`TreeConvValueModel`]:
/// `[n, d, (left+1, right+1, d features) * n]`, nodes in post-order with
/// `0` marking a missing child. This is the contract between the
/// featurizer's tree encoding and the model.
pub fn encode_tree(feats: &[Vec<f64>], children: &[Option<(usize, usize)>]) -> Vec<f64> {
    assert_eq!(feats.len(), children.len(), "ragged tree encoding");
    assert!(!feats.is_empty(), "empty tree");
    let d = feats[0].len();
    let mut x = Vec::with_capacity(2 + feats.len() * (2 + d));
    x.push(feats.len() as f64);
    x.push(d as f64);
    for (f, kids) in feats.iter().zip(children) {
        assert_eq!(f.len(), d, "ragged node features");
        match kids {
            None => {
                x.push(0.0);
                x.push(0.0);
            }
            Some((l, r)) => {
                x.push((l + 1) as f64);
                x.push((r + 1) as f64);
            }
        }
        x.extend_from_slice(f);
    }
    x
}

/// A decoded tree: per-node feature rows (post-order) and child slots.
struct DecodedTree {
    feats: Vec<Vec<f64>>,
    children: Vec<Option<(usize, usize)>>,
}

/// Parses the flat encoding produced by [`encode_tree`].
fn decode_tree(x: &[f64]) -> DecodedTree {
    assert!(x.len() >= 2, "tree encoding too short");
    let n = x[0] as usize;
    let d = x[1] as usize;
    assert_eq!(x.len(), 2 + n * (2 + d), "corrupt tree encoding");
    let mut feats = Vec::with_capacity(n);
    let mut children = Vec::with_capacity(n);
    for i in 0..n {
        let base = 2 + i * (2 + d);
        let (l, r) = (x[base] as usize, x[base + 1] as usize);
        children.push(if l == 0 {
            None
        } else {
            debug_assert!(r > 0 && l <= i && r <= i, "child slots must precede");
            Some((l - 1, r - 1))
        });
        feats.push(x[base + 2..base + 2 + d].to_vec());
    }
    DecodedTree { feats, children }
}

/// Every training tree decoded into one flat arena: node features and
/// child links stored contiguously so minibatch assembly is a gather
/// rather than a pointer chase, and epochs re-slice it allocation-free.
struct TreeArena {
    /// Node features, node-major (`total_nodes × node_dim`); trees in
    /// dataset order, nodes in post-order within each tree.
    feats: Vec<f64>,
    /// Per-node children as arena-global indices + 1 (`(0, 0)` marks a
    /// leaf; both children are present otherwise).
    kids: Vec<(u32, u32)>,
    /// Tree `i` occupies arena nodes `ofs[i]..ofs[i + 1]`.
    ofs: Vec<u32>,
}

impl TreeArena {
    fn build<X: AsRef<[f64]>>(xs: &[X], node_dim: usize) -> Self {
        let mut arena = Self {
            feats: Vec::new(),
            kids: Vec::new(),
            ofs: vec![0],
        };
        for x in xs {
            let x = x.as_ref();
            assert!(x.len() >= 2, "tree encoding too short");
            let n = x[0] as usize;
            let d = x[1] as usize;
            assert_eq!(d, node_dim, "node encoding dimension mismatch");
            assert_eq!(x.len(), 2 + n * (2 + d), "corrupt tree encoding");
            let base = *arena.ofs.last().expect("seeded with 0") as usize;
            for i in 0..n {
                let at = 2 + i * (2 + d);
                let (l, r) = (x[at] as usize, x[at + 1] as usize);
                arena.kids.push(if l == 0 {
                    (0, 0)
                } else {
                    debug_assert!(r > 0 && l <= i && r <= i, "child slots must precede");
                    ((base + l) as u32, (base + r) as u32)
                });
                arena.feats.extend_from_slice(&x[at + 2..at + 2 + d]);
            }
            arena.ofs.push((base + n) as u32);
        }
        arena
    }

    /// Arena node range of tree `i`.
    fn tree(&self, i: usize) -> std::ops::Range<usize> {
        self.ofs[i] as usize..self.ofs[i + 1] as usize
    }
}

#[inline]
fn lrelu(z: f64) -> f64 {
    if z >= 0.0 {
        z
    } else {
        LRELU_SLOPE * z
    }
}

#[inline]
fn lrelu_grad(z: f64) -> f64 {
    if z >= 0.0 {
        1.0
    } else {
        LRELU_SLOPE
    }
}

/// `out += W·x` for row-major `W` of shape `out.len() × x.len()`.
#[inline]
fn matvec_acc(w: &[f64], x: &[f64], out: &mut [f64]) {
    for (o, row) in out.iter_mut().zip(w.chunks_exact(x.len())) {
        *o += row.iter().zip(x).map(|(w, x)| w * x).sum::<f64>();
    }
}

/// `dx += Wᵀ·dy` for the same `W` layout.
#[inline]
fn matvec_t_acc(w: &[f64], dy: &[f64], dx: &mut [f64]) {
    for (dyi, row) in dy.iter().zip(w.chunks_exact(dx.len())) {
        for (dx, w) in dx.iter_mut().zip(row) {
            *dx += w * dyi;
        }
    }
}

/// `gw += dy ⊗ x` (outer product) for the same `W` layout.
#[inline]
fn outer_acc(gw: &mut [f64], dy: &[f64], x: &[f64]) {
    for (dyi, row) in dy.iter().zip(gw.chunks_exact_mut(x.len())) {
        for (g, xi) in row.iter_mut().zip(x) {
            *g += dyi * xi;
        }
    }
}

/// One tree-convolution layer: a triple filter `(node, left, right)`
/// with shared weights across every window of the tree.
#[derive(Debug, Clone)]
struct ConvLayer {
    in_dim: usize,
    out_dim: usize,
    /// Node filter, row-major `out_dim × in_dim`.
    wn: Vec<f64>,
    /// Left-child filter.
    wl: Vec<f64>,
    /// Right-child filter.
    wr: Vec<f64>,
    /// Bias.
    b: Vec<f64>,
}

impl ConvLayer {
    fn new(in_dim: usize, out_dim: usize) -> Self {
        Self {
            in_dim,
            out_dim,
            wn: vec![0.0; in_dim * out_dim],
            wl: vec![0.0; in_dim * out_dim],
            wr: vec![0.0; in_dim * out_dim],
            b: vec![0.0; out_dim],
        }
    }

    /// Pre-activation of one window; `xl`/`xr` are `None` for leaves.
    fn pre(&self, x: &[f64], xl: Option<&[f64]>, xr: Option<&[f64]>) -> Vec<f64> {
        let mut z = self.b.clone();
        matvec_acc(&self.wn, x, &mut z);
        if let Some(xl) = xl {
            matvec_acc(&self.wl, xl, &mut z);
        }
        if let Some(xr) = xr {
            matvec_acc(&self.wr, xr, &mut z);
        }
        z
    }
}

/// A dense layer, row-major `out_dim × in_dim`.
#[derive(Debug, Clone)]
struct Dense {
    in_dim: usize,
    w: Vec<f64>,
    b: Vec<f64>,
}

impl Dense {
    fn new(in_dim: usize, out_dim: usize) -> Self {
        Self {
            in_dim,
            w: vec![0.0; in_dim * out_dim],
            b: vec![0.0; out_dim],
        }
    }

    fn pre(&self, x: &[f64]) -> Vec<f64> {
        let mut z = self.b.clone();
        matvec_acc(&self.w, x, &mut z);
        z
    }
}

/// Forward caches for one tree, kept for backprop.
struct Forward {
    /// `acts[l][i]`: node `i`'s activation entering conv layer `l`
    /// (`acts[0]` is the node encoding); `acts[L]` feeds the pool.
    acts: Vec<Vec<Vec<f64>>>,
    /// Pre-activations of conv layer `l` at node `i`.
    pre: Vec<Vec<Vec<f64>>>,
    /// Channel-wise max over `acts[L]`.
    pooled: Vec<f64>,
    /// Which node each pooled channel came from (gradient routing).
    argmax: Vec<usize>,
    /// MLP hidden pre-activation and activation.
    h_pre: Vec<f64>,
    h_act: Vec<f64>,
    /// Scalar output (predicted log latency).
    out: f64,
}

/// Reusable buffers for one minibatch through the batched training
/// kernels — sized on first use and recycled across minibatches and
/// epochs so the training hot loop performs no per-node allocation.
#[derive(Default)]
struct BatchScratch {
    /// Arena node of each batch slot (samples in minibatch order, nodes
    /// in post-order within a sample).
    node: Vec<u32>,
    /// Batch-local children + 1 (`(0, 0)` = leaf).
    kids: Vec<(u32, u32)>,
    /// Sample `s` owns batch slots `sample_ofs[s]..sample_ofs[s + 1]`.
    sample_ofs: Vec<u32>,
    /// Per-level activations, slot-major; `acts[0]` holds the gathered
    /// node encodings and `acts[L]` feeds the pool.
    acts: Vec<Vec<f64>>,
    /// Per-level pre-activations, slot-major.
    pre: Vec<Vec<f64>>,
    /// Pooled channel maxima, `samples × C`.
    pooled: Vec<f64>,
    /// Batch slot each pooled channel came from (gradient routing).
    argmax: Vec<u32>,
    /// MLP hidden pre-activations / activations, `samples × H`.
    h_pre: Vec<f64>,
    h_act: Vec<f64>,
    /// Scalar outputs, one per sample.
    outs: Vec<f64>,
    /// Per-sample backprop seed (`∂loss/∂out`) and hinge-activity flag,
    /// filled by the caller between forward and backward.
    d_outs: Vec<f64>,
    active: Vec<bool>,
    /// Backprop: gradient wrt the current conv level's activations and
    /// the level below (swapped per level), plus small per-node/sample
    /// temporaries.
    d_act: Vec<f64>,
    d_below: Vec<f64>,
    d_z: Vec<f64>,
    d_pooled: Vec<f64>,
    d_h_pre: Vec<f64>,
}

/// Incremental per-subtree inference state (the [`ModelState`] payload):
/// the subtree root's activation at every level plus the pooled
/// channel-maxima over the whole subtree.
struct TcState {
    /// `acts[l]`: the root node's activation entering conv layer `l`;
    /// the last entry is its final-layer activation.
    acts: Vec<Vec<f64>>,
    /// Channel-wise max of final-layer activations over the subtree.
    pooled: Vec<f64>,
}

/// Tree-convolution value model over the flat tree encoding.
#[derive(Debug, Clone)]
pub struct TreeConvValueModel {
    node_dim: usize,
    conv: Vec<ConvLayer>,
    head1: Dense,
    head2: Dense,
    fitted: bool,
}

impl TreeConvValueModel {
    /// Creates an untrained network for `node_dim`-dimensional node
    /// encodings (predicts 0 until fit).
    pub fn new(node_dim: usize, cfg: TreeConvConfig) -> Self {
        assert!(node_dim > 0, "node encoding must be non-empty");
        assert!(
            !cfg.conv_channels.is_empty(),
            "need at least one conv layer"
        );
        let mut conv = Vec::new();
        let mut in_dim = node_dim;
        for &out_dim in &cfg.conv_channels {
            conv.push(ConvLayer::new(in_dim, out_dim));
            in_dim = out_dim;
        }
        Self {
            node_dim,
            conv,
            head1: Dense::new(in_dim, cfg.mlp_hidden),
            head2: Dense::new(cfg.mlp_hidden, 1),
            fitted: false,
        }
    }

    /// The node-encoding dimension this network convolves over.
    pub fn node_dim(&self) -> usize {
        self.node_dim
    }

    /// Total number of parameters.
    pub fn num_params(&self) -> usize {
        self.conv
            .iter()
            .map(|c| 3 * c.wn.len() + c.b.len())
            .sum::<usize>()
            + self.head1.w.len()
            + self.head1.b.len()
            + self.head2.w.len()
            + self.head2.b.len()
    }

    /// Overwrites all parameters from a flat vector in the layout of
    /// [`ValueModel::params`] (conv layers in order — `wn`, `wl`, `wr`,
    /// `b` — then the two head layers). The serialization counterpart of
    /// `params`, also used by the finite-difference gradient tests.
    pub fn set_params(&mut self, v: &[f64]) {
        assert_eq!(v.len(), self.num_params(), "parameter length mismatch");
        let mut it = v.iter().copied();
        let mut take = |dst: &mut [f64]| {
            for d in dst {
                *d = it.next().expect("length checked");
            }
        };
        for c in &mut self.conv {
            take(&mut c.wn);
            take(&mut c.wl);
            take(&mut c.wr);
            take(&mut c.b);
        }
        take(&mut self.head1.w);
        take(&mut self.head1.b);
        take(&mut self.head2.w);
        take(&mut self.head2.b);
        self.fitted = true;
    }

    fn init_weights(&mut self, label_mean: f64, rng: &mut SmallRng) {
        for c in &mut self.conv {
            let std = (1.0 / (3 * c.in_dim) as f64).sqrt();
            for w in c.wn.iter_mut().chain(&mut c.wl).chain(&mut c.wr) {
                *w = rng.random_normal(0.0, std);
            }
        }
        for d in [&mut self.head1, &mut self.head2] {
            let std = (1.0 / d.in_dim as f64).sqrt();
            for w in &mut d.w {
                *w = rng.random_normal(0.0, std);
            }
        }
        // Bias the output at the label mean so first predictions land in
        // range, mirroring the linear model's init.
        self.head2.b[0] = label_mean;
        self.fitted = true;
    }

    /// Full forward pass over a decoded tree, caching everything
    /// backprop needs.
    fn forward(&self, t: &DecodedTree) -> Forward {
        let n = t.feats.len();
        assert!(
            t.feats.iter().all(|f| f.len() == self.node_dim),
            "node encoding dimension mismatch"
        );
        let levels = self.conv.len();
        let mut acts: Vec<Vec<Vec<f64>>> = Vec::with_capacity(levels + 1);
        let mut pre: Vec<Vec<Vec<f64>>> = Vec::with_capacity(levels);
        acts.push(t.feats.clone());
        for (l, layer) in self.conv.iter().enumerate() {
            let mut zs = Vec::with_capacity(n);
            let mut hs = Vec::with_capacity(n);
            for i in 0..n {
                let (xl, xr) = match t.children[i] {
                    None => (None, None),
                    Some((a, b)) => (Some(&acts[l][a][..]), Some(&acts[l][b][..])),
                };
                let z = layer.pre(&acts[l][i], xl, xr);
                hs.push(z.iter().map(|&z| lrelu(z)).collect::<Vec<f64>>());
                zs.push(z);
            }
            pre.push(zs);
            acts.push(hs);
        }
        // Dynamic pooling: channel-wise max over all nodes.
        let c = self.conv.last().expect("at least one layer").out_dim;
        let mut pooled = vec![f64::NEG_INFINITY; c];
        let mut argmax = vec![0usize; c];
        for (i, h) in acts[levels].iter().enumerate() {
            for (ch, &v) in h.iter().enumerate() {
                if v > pooled[ch] {
                    pooled[ch] = v;
                    argmax[ch] = i;
                }
            }
        }
        let h_pre = self.head1.pre(&pooled);
        let h_act: Vec<f64> = h_pre.iter().map(|&z| lrelu(z)).collect();
        let out = self.head2.pre(&h_act)[0];
        Forward {
            acts,
            pre,
            pooled,
            argmax,
            h_pre,
            h_act,
            out,
        }
    }

    /// Accumulates `d_out * ∂out/∂θ` into the flat gradient `grad`
    /// (layout of [`ValueModel::params`]) by backprop through the head,
    /// the pool routing, and the convolution stack.
    fn backward(&self, t: &DecodedTree, f: &Forward, d_out: f64, grad: &mut [f64]) {
        let n = t.feats.len();
        let levels = self.conv.len();
        // Split the flat gradient into per-layer views.
        let mut parts: Vec<&mut [f64]> = Vec::new();
        let mut rest = grad;
        for c in &self.conv {
            for len in [c.wn.len(), c.wl.len(), c.wr.len(), c.b.len()] {
                let (head, tail) = rest.split_at_mut(len);
                parts.push(head);
                rest = tail;
            }
        }
        for len in [
            self.head1.w.len(),
            self.head1.b.len(),
            self.head2.w.len(),
            self.head2.b.len(),
        ] {
            let (head, tail) = rest.split_at_mut(len);
            parts.push(head);
            rest = tail;
        }
        debug_assert!(rest.is_empty());
        let (conv_parts, head_parts) = parts.split_at_mut(4 * levels);

        // Head: out = w2 · lrelu(w1 · pooled + b1) + b2.
        let d_h_act: Vec<f64> = self.head2.w.iter().map(|w| w * d_out).collect();
        outer_acc(head_parts[2], &[d_out], &f.h_act);
        head_parts[3][0] += d_out;
        let d_h_pre: Vec<f64> = d_h_act
            .iter()
            .zip(&f.h_pre)
            .map(|(&d, &z)| d * lrelu_grad(z))
            .collect();
        outer_acc(head_parts[0], &d_h_pre, &f.pooled);
        for (g, d) in head_parts[1].iter_mut().zip(&d_h_pre) {
            *g += d;
        }
        let mut d_pooled = vec![0.0; f.pooled.len()];
        matvec_t_acc(&self.head1.w, &d_h_pre, &mut d_pooled);

        // Pool routing: each channel's gradient flows to its argmax node.
        let mut d_act: Vec<Vec<f64>> = vec![vec![0.0; f.pooled.len()]; n];
        for (ch, &d) in d_pooled.iter().enumerate() {
            d_act[f.argmax[ch]][ch] += d;
        }

        // Conv stack, top layer down. All of layer l+1's gradients are
        // in `d_act` before layer l runs, because convolutions only read
        // activations of the same level.
        for l in (0..levels).rev() {
            let layer = &self.conv[l];
            let mut d_below: Vec<Vec<f64>> = vec![vec![0.0; layer.in_dim]; n];
            for i in 0..n {
                let d_z: Vec<f64> = d_act[i]
                    .iter()
                    .zip(&f.pre[l][i])
                    .map(|(&d, &z)| d * lrelu_grad(z))
                    .collect();
                let x = &f.acts[l][i];
                outer_acc(conv_parts[4 * l], &d_z, x);
                matvec_t_acc(&layer.wn, &d_z, &mut d_below[i]);
                if let Some((a, b)) = t.children[i] {
                    outer_acc(conv_parts[4 * l + 1], &d_z, &f.acts[l][a]);
                    outer_acc(conv_parts[4 * l + 2], &d_z, &f.acts[l][b]);
                    matvec_t_acc(&layer.wl, &d_z, &mut d_below[a]);
                    matvec_t_acc(&layer.wr, &d_z, &mut d_below[b]);
                }
                for (g, d) in conv_parts[4 * l + 3].iter_mut().zip(&d_z) {
                    *g += d;
                }
            }
            d_act = d_below;
        }
    }

    /// Mean censored-hinge loss `½·r²` over `data` (censored samples
    /// contribute only while the prediction is below the bound).
    pub fn loss(&self, data: &TrainSet) -> f64 {
        assert!(!data.is_empty(), "loss of an empty set");
        let mut total = 0.0;
        for ((x, &y), &c) in data.xs.iter().zip(&data.ys).zip(&data.censored) {
            let r = self.forward(&decode_tree(x)).out - y;
            if !(c && r >= 0.0) {
                total += 0.5 * r * r;
            }
        }
        total / data.len() as f64
    }

    /// Analytic gradient of [`TreeConvValueModel::loss`] with respect to
    /// the flat parameter vector — the reference the finite-difference
    /// tests check against (no L2 term).
    pub fn loss_grad(&self, data: &TrainSet) -> Vec<f64> {
        let mut grad = vec![0.0; self.num_params()];
        let inv = 1.0 / data.len() as f64;
        for ((x, &y), &c) in data.xs.iter().zip(&data.ys).zip(&data.censored) {
            let t = decode_tree(x);
            let f = self.forward(&t);
            let r = f.out - y;
            if !(c && r >= 0.0) {
                self.backward(&t, &f, r * inv, &mut grad);
            }
        }
        grad
    }

    /// The weight-decay mask: 1 for weights, 0 for biases, in the flat
    /// parameter layout (L2 never penalizes biases, as in the linear
    /// model).
    fn l2_mask(&self) -> Vec<f64> {
        let mut mask = Vec::with_capacity(self.num_params());
        for c in &self.conv {
            mask.extend(vec![1.0; 3 * c.wn.len()]);
            mask.extend(vec![0.0; c.b.len()]);
        }
        mask.extend(vec![1.0; self.head1.w.len()]);
        mask.extend(vec![0.0; self.head1.b.len()]);
        mask.extend(vec![1.0; self.head2.w.len()]);
        mask.extend(vec![0.0; self.head2.b.len()]);
        mask
    }

    /// Batched training forward over one minibatch of trees: the same
    /// filters × tile orientation as the inference-side
    /// [`ValueModel::join_state_batch`], generalized from one window per
    /// candidate to every node of every sample. Within a tile of node
    /// windows each filter row sweeps the gathered inputs while the
    /// weights stay cached — a tiled filters × batch matrix product.
    /// Per-window arithmetic (`b + wn·x + wl·xl + wr·xr`, dots
    /// accumulated left to right), the strict-`>` pool over nodes in
    /// post-order, and the MLP head all replay
    /// [`TreeConvValueModel::forward`] exactly, so batched outputs are
    /// bit-identical to the per-sample path at any batch geometry.
    // Filters × tile wants plain index loops over parallel slice views;
    // see `join_state_batch` for the layout rationale.
    #[allow(clippy::needless_range_loop)]
    fn batch_forward(&self, arena: &TreeArena, chunk: &[usize], s: &mut BatchScratch) {
        /// Node windows per tile: 3 input slices × ≤ 34 channels × 8 B
        /// × 32 ≈ 26 KB — sized to L1, matching `join_state_batch`.
        const TILE: usize = 32;
        // Assemble the batch: gather arena nodes, rebase child links.
        s.node.clear();
        s.kids.clear();
        s.sample_ofs.clear();
        s.sample_ofs.push(0);
        for &ti in chunk {
            let range = arena.tree(ti);
            let (tree_base, batch_base) = (range.start, s.node.len());
            for g in range {
                s.node.push(g as u32);
                let (l, r) = arena.kids[g];
                s.kids.push(if l == 0 {
                    (0, 0)
                } else {
                    (
                        (l as usize - tree_base + batch_base) as u32,
                        (r as usize - tree_base + batch_base) as u32,
                    )
                });
            }
            s.sample_ofs.push(s.node.len() as u32);
        }
        let nodes = s.node.len();
        let nsamples = chunk.len();
        let levels = self.conv.len();
        s.acts.resize_with(levels + 1, Vec::new);
        s.pre.resize_with(levels, Vec::new);

        // Level 0: the gathered node encodings.
        let d0 = self.node_dim;
        s.acts[0].clear();
        s.acts[0].reserve(nodes * d0);
        for &g in &s.node {
            let at = g as usize * d0;
            s.acts[0].extend_from_slice(&arena.feats[at..at + d0]);
        }

        // Convolution stack. A layer only reads same-level activations,
        // which are complete before the next level runs, so tiles can
        // sweep nodes in any grouping without ordering hazards.
        for (li, layer) in self.conv.iter().enumerate() {
            let (in_dim, out_dim) = (layer.in_dim, layer.out_dim);
            let (lower, upper) = s.acts.split_at_mut(li + 1);
            let x_all = lower[li].as_slice();
            let z_all = &mut s.pre[li];
            z_all.clear();
            z_all.resize(nodes * out_dim, 0.0);
            let mut lo = 0;
            while lo < nodes {
                let hi = (lo + TILE).min(nodes);
                for o in 0..out_dim {
                    let wn_row = &layer.wn[o * in_dim..(o + 1) * in_dim];
                    let wl_row = &layer.wl[o * in_dim..(o + 1) * in_dim];
                    let wr_row = &layer.wr[o * in_dim..(o + 1) * in_dim];
                    let b = layer.b[o];
                    for p in lo..hi {
                        let x = &x_all[p * in_dim..(p + 1) * in_dim];
                        let mut z = b;
                        z += wn_row.iter().zip(x).map(|(w, x)| w * x).sum::<f64>();
                        let (lk, rk) = s.kids[p];
                        if lk != 0 {
                            let (a, c) = (lk as usize - 1, rk as usize - 1);
                            let xl = &x_all[a * in_dim..(a + 1) * in_dim];
                            let xr = &x_all[c * in_dim..(c + 1) * in_dim];
                            z += wl_row.iter().zip(xl).map(|(w, x)| w * x).sum::<f64>();
                            z += wr_row.iter().zip(xr).map(|(w, x)| w * x).sum::<f64>();
                        }
                        z_all[p * out_dim + o] = z;
                    }
                }
                lo = hi;
            }
            let a_out = &mut upper[0];
            a_out.clear();
            a_out.extend(z_all.iter().map(|&z| lrelu(z)));
        }

        // Dynamic pooling per sample: strict `>` over nodes in
        // post-order, exactly as `forward`.
        let c_dim = self.conv.last().expect("at least one layer").out_dim;
        let top = s.acts[levels].as_slice();
        s.pooled.clear();
        s.pooled.resize(nsamples * c_dim, f64::NEG_INFINITY);
        s.argmax.clear();
        s.argmax.resize(nsamples * c_dim, 0);
        for si in 0..nsamples {
            let pooled = &mut s.pooled[si * c_dim..(si + 1) * c_dim];
            let argmax = &mut s.argmax[si * c_dim..(si + 1) * c_dim];
            for p in s.sample_ofs[si] as usize..s.sample_ofs[si + 1] as usize {
                let h = &top[p * c_dim..(p + 1) * c_dim];
                for (ch, &v) in h.iter().enumerate() {
                    if v > pooled[ch] {
                        pooled[ch] = v;
                        argmax[ch] = p as u32;
                    }
                }
            }
        }

        // MLP head per sample.
        let hd = self.head1.b.len();
        s.h_pre.clear();
        s.h_pre.resize(nsamples * hd, 0.0);
        s.h_act.clear();
        s.h_act.resize(nsamples * hd, 0.0);
        s.outs.clear();
        s.outs.resize(nsamples, 0.0);
        for si in 0..nsamples {
            let pooled = &s.pooled[si * c_dim..(si + 1) * c_dim];
            for o in 0..hd {
                let row = &self.head1.w[o * c_dim..(o + 1) * c_dim];
                let z = self.head1.b[o] + row.iter().zip(pooled).map(|(w, x)| w * x).sum::<f64>();
                s.h_pre[si * hd + o] = z;
                s.h_act[si * hd + o] = lrelu(z);
            }
            let h_act = &s.h_act[si * hd..(si + 1) * hd];
            s.outs[si] = self.head2.b[0]
                + self
                    .head2
                    .w
                    .iter()
                    .zip(h_act)
                    .map(|(w, x)| w * x)
                    .sum::<f64>();
        }
    }

    /// Batched backprop over the minibatch's **active** samples,
    /// accumulating `Σ_s d_out_s · ∂out_s/∂θ` into the flat `grad`
    /// (layout of [`ValueModel::params`]). Samples accumulate in
    /// minibatch order and the per-node operation sequence replays
    /// [`TreeConvValueModel::backward`] exactly, so a one-sample batch
    /// is bit-identical to the per-sample reference and any fixed batch
    /// geometry sums gradients in a deterministic order. Inactive
    /// samples (hinge-gated) are skipped entirely, matching the
    /// per-sample path's `continue`.
    fn batch_backward(&self, s: &mut BatchScratch, grad: &mut [f64]) {
        let levels = self.conv.len();
        // Split the flat gradient exactly as `backward` does.
        let mut parts: Vec<&mut [f64]> = Vec::new();
        let mut rest = grad;
        for c in &self.conv {
            for len in [c.wn.len(), c.wl.len(), c.wr.len(), c.b.len()] {
                let (head, tail) = rest.split_at_mut(len);
                parts.push(head);
                rest = tail;
            }
        }
        for len in [
            self.head1.w.len(),
            self.head1.b.len(),
            self.head2.w.len(),
            self.head2.b.len(),
        ] {
            let (head, tail) = rest.split_at_mut(len);
            parts.push(head);
            rest = tail;
        }
        debug_assert!(rest.is_empty());
        let (conv_parts, head_parts) = parts.split_at_mut(4 * levels);

        let nsamples = s.sample_ofs.len() - 1;
        let nodes = s.node.len();
        let c_dim = self.conv.last().expect("at least one layer").out_dim;
        let hd = self.head1.b.len();

        // Head phase per active sample, then pool routing into the top
        // conv level's activation gradients.
        s.d_act.clear();
        s.d_act.resize(nodes * c_dim, 0.0);
        for si in 0..nsamples {
            if !s.active[si] {
                continue;
            }
            let d_out = s.d_outs[si];
            let h_act = &s.h_act[si * hd..(si + 1) * hd];
            let h_pre = &s.h_pre[si * hd..(si + 1) * hd];
            let pooled = &s.pooled[si * c_dim..(si + 1) * c_dim];
            // Same op order as `backward`: head2 grads, then head1
            // grads, then d_pooled, then argmax routing.
            s.d_h_pre.clear();
            s.d_h_pre.extend(
                self.head2
                    .w
                    .iter()
                    .zip(h_pre)
                    .map(|(w, &z)| w * d_out * lrelu_grad(z)),
            );
            outer_acc(head_parts[2], &[d_out], h_act);
            head_parts[3][0] += d_out;
            outer_acc(head_parts[0], &s.d_h_pre, pooled);
            for (g, d) in head_parts[1].iter_mut().zip(&s.d_h_pre) {
                *g += d;
            }
            s.d_pooled.clear();
            s.d_pooled.resize(c_dim, 0.0);
            matvec_t_acc(&self.head1.w, &s.d_h_pre, &mut s.d_pooled);
            for (ch, &d) in s.d_pooled.iter().enumerate() {
                let p = s.argmax[si * c_dim + ch] as usize;
                s.d_act[p * c_dim + ch] += d;
            }
        }

        // Conv stack, top layer down; within a level, samples in
        // minibatch order and nodes in post-order, per-node op sequence
        // identical to `backward`.
        for l in (0..levels).rev() {
            let layer = &self.conv[l];
            let (in_dim, out_dim) = (layer.in_dim, layer.out_dim);
            s.d_below.clear();
            s.d_below.resize(nodes * in_dim, 0.0);
            let x_all = s.acts[l].as_slice();
            let z_all = s.pre[l].as_slice();
            for si in 0..nsamples {
                if !s.active[si] {
                    continue;
                }
                for p in s.sample_ofs[si] as usize..s.sample_ofs[si + 1] as usize {
                    s.d_z.clear();
                    s.d_z.extend(
                        s.d_act[p * out_dim..(p + 1) * out_dim]
                            .iter()
                            .zip(&z_all[p * out_dim..(p + 1) * out_dim])
                            .map(|(&d, &z)| d * lrelu_grad(z)),
                    );
                    let x = &x_all[p * in_dim..(p + 1) * in_dim];
                    outer_acc(conv_parts[4 * l], &s.d_z, x);
                    matvec_t_acc(
                        &layer.wn,
                        &s.d_z,
                        &mut s.d_below[p * in_dim..(p + 1) * in_dim],
                    );
                    let (lk, rk) = s.kids[p];
                    if lk != 0 {
                        let (a, c) = (lk as usize - 1, rk as usize - 1);
                        outer_acc(
                            conv_parts[4 * l + 1],
                            &s.d_z,
                            &x_all[a * in_dim..(a + 1) * in_dim],
                        );
                        outer_acc(
                            conv_parts[4 * l + 2],
                            &s.d_z,
                            &x_all[c * in_dim..(c + 1) * in_dim],
                        );
                        matvec_t_acc(
                            &layer.wl,
                            &s.d_z,
                            &mut s.d_below[a * in_dim..(a + 1) * in_dim],
                        );
                        matvec_t_acc(
                            &layer.wr,
                            &s.d_z,
                            &mut s.d_below[c * in_dim..(c + 1) * in_dim],
                        );
                    }
                    for (g, d) in conv_parts[4 * l + 3].iter_mut().zip(&s.d_z) {
                        *g += d;
                    }
                }
            }
            std::mem::swap(&mut s.d_act, &mut s.d_below);
        }
    }

    /// Analytic gradient of [`TreeConvValueModel::loss`] computed
    /// through the batched kernels at minibatch size `batch` — the
    /// finite-difference tests check this path at several batch
    /// geometries against the same numeric reference as
    /// [`TreeConvValueModel::loss_grad`] (no L2 term).
    pub fn loss_grad_batched(&self, data: &TrainSet, batch: usize) -> Vec<f64> {
        assert!(!data.is_empty(), "gradient of an empty set");
        let arena = TreeArena::build(&data.xs, self.node_dim);
        let mut grad = vec![0.0; self.num_params()];
        let mut scratch = BatchScratch::default();
        let inv = 1.0 / data.len() as f64;
        let idxs: Vec<usize> = (0..data.len()).collect();
        for chunk in idxs.chunks(batch.max(1)) {
            self.batch_forward(&arena, chunk, &mut scratch);
            scratch.d_outs.clear();
            scratch.active.clear();
            for (bs, &i) in chunk.iter().enumerate() {
                let r = scratch.outs[bs] - data.ys[i];
                scratch.active.push(!(data.censored[i] && r >= 0.0));
                scratch.d_outs.push(r * inv);
            }
            self.batch_backward(&mut scratch, &mut grad);
        }
        grad
    }
}

impl ValueModel for TreeConvValueModel {
    fn name(&self) -> String {
        "tree_conv".into()
    }

    fn encoding(&self) -> FeatureEncoding {
        FeatureEncoding::Tree
    }

    fn is_fitted(&self) -> bool {
        self.fitted
    }

    /// Whole trees through the training-side kernels (`TreeArena` +
    /// `TreeConvValueModel::batch_forward`), a fixed-size chunk at a
    /// time so the scratch stays cache-sized however many trees arrive.
    fn predict_batch(&self, xs: &[&[f64]]) -> Vec<f64> {
        const CHUNK: usize = 64;
        let arena = TreeArena::build(xs, self.node_dim);
        let mut scratch = BatchScratch::default();
        let idxs: Vec<usize> = (0..xs.len()).collect();
        let mut out = Vec::with_capacity(xs.len());
        for chunk in idxs.chunks(CHUNK) {
            self.batch_forward(&arena, chunk, &mut scratch);
            out.extend_from_slice(&scratch.outs);
        }
        out
    }

    /// Minibatched censored-hinge SGD: the whole minibatch runs through
    /// `TreeConvValueModel::batch_forward` /
    /// `TreeConvValueModel::batch_backward` as filters × batch matrix
    /// products instead of one tree at a time. The batched kernels
    /// replay the per-sample arithmetic exactly, so at any fixed batch
    /// geometry checkpoints are bit-identical across runs, and a batch
    /// size of 1 reproduces [`ValueModel::fit_per_sample`] bit for bit.
    fn fit(&mut self, data: TrainSet, cfg: &SgdConfig, rng: &mut SmallRng) -> FitReport {
        assert_eq!(data.xs.len(), data.ys.len());
        assert_eq!(data.censored.len(), data.ys.len());
        if data.is_empty() {
            return FitReport::default();
        }
        let n = data.len();
        if !self.fitted {
            let mean = data.ys.iter().sum::<f64>() / n as f64;
            self.init_weights(mean, rng);
        }
        // Decode every tree once into the flat arena; epochs re-slice
        // it with zero per-batch allocation.
        let arena = TreeArena::build(&data.xs, self.node_dim);

        let mask = self.l2_mask();
        let mut params = self.params();
        let mut grad = vec![0.0; params.len()];
        let mut opt = Optimizer::new(cfg, params.len());
        let mut order: Vec<usize> = (0..n).collect();
        let mut scratch = BatchScratch::default();
        let mut steps = 0u64;
        let (mut forward_secs, mut backward_secs) = (0.0, 0.0);
        for _epoch in 0..cfg.epochs {
            shuffle_epoch_order(&mut order, rng);
            for chunk in order.chunks(cfg.batch.max(1)) {
                let t0 = Instant::now();
                self.batch_forward(&arena, chunk, &mut scratch);
                let t1 = Instant::now();
                forward_secs += (t1 - t0).as_secs_f64();
                let mut active = 0usize;
                scratch.d_outs.clear();
                scratch.active.clear();
                for (bs, &i) in chunk.iter().enumerate() {
                    let r = scratch.outs[bs] - data.ys[i];
                    let live = !(data.censored[i] && r >= 0.0);
                    scratch.d_outs.push(r);
                    scratch.active.push(live);
                    active += usize::from(live);
                }
                if active > 0 {
                    grad.iter_mut().for_each(|g| *g = 0.0);
                    self.batch_backward(&mut scratch, &mut grad);
                    let inv = 1.0 / active as f64;
                    grad.iter_mut().for_each(|g| *g *= inv);
                    opt.step(cfg, &mut params, &grad, &mask);
                    self.set_params(&params);
                }
                backward_secs += t1.elapsed().as_secs_f64();
                steps += 1;
            }
        }

        // Final training error through the batched forward, samples in
        // dataset order (the same accumulation order as per-sample).
        let idxs: Vec<usize> = (0..n).collect();
        let mut total = 0.0;
        for chunk in idxs.chunks(cfg.batch.max(1)) {
            self.batch_forward(&arena, chunk, &mut scratch);
            for (bs, &i) in chunk.iter().enumerate() {
                let r = scratch.outs[bs] - data.ys[i];
                if !(data.censored[i] && r >= 0.0) {
                    total += r * r;
                }
            }
        }
        FitReport {
            steps,
            mse: total / n as f64,
            forward_secs,
            backward_secs,
        }
    }

    /// The pre-batching reference: one tree at a time through
    /// `TreeConvValueModel::forward` / `backward`, with the same
    /// sampler stream ([`shuffle_epoch_order`]) and the same
    /// [`Optimizer`] arithmetic as the batched [`ValueModel::fit`].
    /// Kept as the bit-identity reference (a batch of one reproduces it
    /// exactly).
    fn fit_per_sample(&mut self, data: TrainSet, cfg: &SgdConfig, rng: &mut SmallRng) -> FitReport {
        assert_eq!(data.xs.len(), data.ys.len());
        assert_eq!(data.censored.len(), data.ys.len());
        if data.is_empty() {
            return FitReport::default();
        }
        let n = data.len();
        if !self.fitted {
            let mean = data.ys.iter().sum::<f64>() / n as f64;
            self.init_weights(mean, rng);
        }
        // Decode every tree once; epochs reuse the decoded forms.
        let trees: Vec<DecodedTree> = data
            .xs
            .iter()
            .map(|x| {
                let t = decode_tree(x);
                assert_eq!(
                    t.feats.first().map_or(0, |f| f.len()),
                    self.node_dim,
                    "node encoding dimension mismatch"
                );
                t
            })
            .collect();

        let mask = self.l2_mask();
        let mut params = self.params();
        let mut grad = vec![0.0; params.len()];
        let mut opt = Optimizer::new(cfg, params.len());
        let mut order: Vec<usize> = (0..n).collect();
        let mut steps = 0u64;
        let (mut forward_secs, mut backward_secs) = (0.0, 0.0);
        for _epoch in 0..cfg.epochs {
            shuffle_epoch_order(&mut order, rng);
            for chunk in order.chunks(cfg.batch.max(1)) {
                grad.iter_mut().for_each(|g| *g = 0.0);
                let mut active = 0usize;
                for &i in chunk {
                    let t0 = Instant::now();
                    let f = self.forward(&trees[i]);
                    let t1 = Instant::now();
                    forward_secs += (t1 - t0).as_secs_f64();
                    let r = f.out - data.ys[i];
                    if data.censored[i] && r >= 0.0 {
                        continue;
                    }
                    active += 1;
                    self.backward(&trees[i], &f, r, &mut grad);
                    backward_secs += t1.elapsed().as_secs_f64();
                }
                if active > 0 {
                    let inv = 1.0 / active as f64;
                    grad.iter_mut().for_each(|g| *g *= inv);
                    opt.step(cfg, &mut params, &grad, &mask);
                    self.set_params(&params);
                }
                steps += 1;
            }
        }

        let mse = trees
            .iter()
            .zip(data.ys.iter().zip(&data.censored))
            .map(|(t, (&y, &c))| {
                let r = self.forward(t).out - y;
                if c && r >= 0.0 {
                    0.0
                } else {
                    r * r
                }
            })
            .sum::<f64>()
            / n as f64;
        FitReport {
            steps,
            mse,
            forward_secs,
            backward_secs,
        }
    }

    fn params(&self) -> Vec<f64> {
        let mut v = Vec::with_capacity(self.num_params());
        for c in &self.conv {
            v.extend_from_slice(&c.wn);
            v.extend_from_slice(&c.wl);
            v.extend_from_slice(&c.wr);
            v.extend_from_slice(&c.b);
        }
        v.extend_from_slice(&self.head1.w);
        v.extend_from_slice(&self.head1.b);
        v.extend_from_slice(&self.head2.w);
        v.extend_from_slice(&self.head2.b);
        v
    }

    fn state_vec(&self) -> Vec<f64> {
        // The flat weight vector IS the complete state here (no frozen
        // standardization, no optimizer moments — the optimizer is
        // created fresh per fit call); only the fitted flag rides
        // along.
        let mut v = Vec::with_capacity(self.num_params() + 1);
        v.push(self.fitted as u8 as f64);
        v.extend(self.params());
        v
    }

    fn load_state(&mut self, state: &[f64]) -> Result<(), String> {
        let (&flag, weights) = state.split_first().ok_or("empty tree-conv state")?;
        if weights.len() != self.num_params() {
            return Err(format!(
                "tree-conv state length {} != {}",
                weights.len(),
                self.num_params()
            ));
        }
        if flag != 0.0 {
            self.set_params(weights);
        } else {
            // An unfitted net is exactly a fresh construction (zero
            // weights, init deferred to the first fit) — nothing to
            // restore.
            self.fitted = false;
        }
        Ok(())
    }

    fn clone_box(&self) -> Box<dyn ValueModel> {
        Box::new(self.clone())
    }

    fn leaf_state(&self, node_x: &[f64]) -> Option<ModelState> {
        assert_eq!(node_x.len(), self.node_dim, "node encoding mismatch");
        let mut acts = Vec::with_capacity(self.conv.len() + 1);
        acts.push(node_x.to_vec());
        for layer in &self.conv {
            let z = layer.pre(acts.last().expect("non-empty"), None, None);
            acts.push(z.into_iter().map(lrelu).collect());
        }
        let pooled = acts.last().expect("non-empty").clone();
        Some(Arc::new(TcState { acts, pooled }))
    }

    /// The beam forward: instead of N independent window walks, each
    /// convolution **filter row streams across a tile of
    /// candidates** (a tiled filters × batch matrix product over the
    /// stacked per-candidate window inputs): within a tile the three
    /// input slices stay resident in L1 while every filter row sweeps
    /// them, and the weight matrix is small enough to stay cached
    /// across tiles — the classical GEMM blocking, sized for this
    /// network's tiny filter banks against beam-level-sized batches.
    /// Per-candidate arithmetic — `b + wn·x + wl·xl + wr·xr`, dots
    /// accumulated left to right — is exactly `ConvLayer::pre`'s, so
    /// a composed state does not depend on which batch composed it.
    // The filters × tile orientation wants plain index loops over
    // several parallel slice arrays; iterator chains over four zipped
    // row views would obscure the GEMM blocking.
    #[allow(clippy::needless_range_loop)]
    fn join_state_batch(&self, items: &[JoinStateItem<'_>]) -> Option<Vec<ModelState>> {
        /// Candidates per tile: 3 input slices × ≤ 34 channels × 8 B
        /// × 32 ≈ 26 KB — sized to L1.
        const TILE: usize = 32;
        let n = items.len();
        let ls: Option<Vec<&TcState>> = items
            .iter()
            .map(|it| it.left.downcast_ref::<TcState>())
            .collect();
        let rs: Option<Vec<&TcState>> = items
            .iter()
            .map(|it| it.right.downcast_ref::<TcState>())
            .collect();
        let (ls, rs) = (ls?, rs?);
        let levels = self.conv.len();
        let mut acts: Vec<Vec<Vec<f64>>> = items
            .iter()
            .map(|it| {
                assert_eq!(it.node_x.len(), self.node_dim, "node encoding mismatch");
                let mut v = Vec::with_capacity(levels + 1);
                v.push(it.node_x.to_vec());
                v
            })
            .collect();
        for (li, layer) in self.conv.iter().enumerate() {
            let (in_dim, out_dim) = (layer.in_dim, layer.out_dim);
            let mut zs: Vec<Vec<f64>> = (0..n).map(|_| vec![0.0; out_dim]).collect();
            let mut lo = 0;
            while lo < n {
                let hi = (lo + TILE).min(n);
                // One indirection per candidate per tile, not per
                // (filter, candidate) pair.
                let xn: Vec<&[f64]> = (lo..hi).map(|c| acts[c][li].as_slice()).collect();
                let xl: Vec<&[f64]> = (lo..hi).map(|c| ls[c].acts[li].as_slice()).collect();
                let xr: Vec<&[f64]> = (lo..hi).map(|c| rs[c].acts[li].as_slice()).collect();
                for o in 0..out_dim {
                    let wn_row = &layer.wn[o * in_dim..(o + 1) * in_dim];
                    let wl_row = &layer.wl[o * in_dim..(o + 1) * in_dim];
                    let wr_row = &layer.wr[o * in_dim..(o + 1) * in_dim];
                    let b = layer.b[o];
                    for cc in 0..hi - lo {
                        let mut z = b;
                        z += wn_row.iter().zip(xn[cc]).map(|(w, x)| w * x).sum::<f64>();
                        z += wl_row.iter().zip(xl[cc]).map(|(w, x)| w * x).sum::<f64>();
                        z += wr_row.iter().zip(xr[cc]).map(|(w, x)| w * x).sum::<f64>();
                        zs[lo + cc][o] = z;
                    }
                }
                lo = hi;
            }
            for (a, mut z) in acts.iter_mut().zip(zs) {
                z.iter_mut().for_each(|z| *z = lrelu(*z));
                a.push(z);
            }
        }
        Some(
            acts.into_iter()
                .enumerate()
                .map(|(c, acts)| {
                    let top = acts.last().expect("non-empty");
                    let pooled: Vec<f64> = top
                        .iter()
                        .zip(ls[c].pooled.iter().zip(&rs[c].pooled))
                        .map(|(&h, (&a, &b))| h.max(a.max(b)))
                        .collect();
                    Arc::new(TcState { acts, pooled }) as ModelState
                })
                .collect(),
        )
    }

    /// The MLP head over the pooled vectors, filters × batch like the
    /// convolution stack; per-state arithmetic is `forward`'s head.
    #[allow(clippy::needless_range_loop)]
    fn state_value_batch(&self, states: &[ModelState]) -> Option<Vec<f64>> {
        let ss: Option<Vec<&TcState>> =
            states.iter().map(|s| s.downcast_ref::<TcState>()).collect();
        let ss = ss?;
        const TILE: usize = 64;
        let n = ss.len();
        let hd = self.head1.b.len();
        let in_dim = self.head1.in_dim;
        let mut hs: Vec<Vec<f64>> = (0..n).map(|_| vec![0.0; hd]).collect();
        let mut lo = 0;
        while lo < n {
            let hi = (lo + TILE).min(n);
            let xs: Vec<&[f64]> = (lo..hi).map(|c| ss[c].pooled.as_slice()).collect();
            for o in 0..hd {
                let row = &self.head1.w[o * in_dim..(o + 1) * in_dim];
                let b = self.head1.b[o];
                for cc in 0..hi - lo {
                    hs[lo + cc][o] =
                        lrelu(b + row.iter().zip(xs[cc]).map(|(w, x)| w * x).sum::<f64>());
                }
            }
            lo = hi;
        }
        Some(
            hs.iter()
                .map(|h| {
                    self.head2.b[0] + self.head2.w.iter().zip(h).map(|(w, x)| w * x).sum::<f64>()
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    /// Random per-node features plus a random valid topology (post-order
    /// with children preceding parents), encoded in the flat layout.
    fn random_tree(n_leaves: usize, dim: usize, rng: &mut SmallRng) -> Vec<f64> {
        assert!(n_leaves >= 1);
        let mut feats: Vec<Vec<f64>> = Vec::new();
        let mut children: Vec<Option<(usize, usize)>> = Vec::new();
        let mut roots: Vec<usize> = Vec::new();
        let push = |feats: &mut Vec<Vec<f64>>,
                    children: &mut Vec<Option<(usize, usize)>>,
                    kids,
                    rng: &mut SmallRng| {
            feats.push((0..dim).map(|_| rng.random_normal(0.0, 1.0)).collect());
            children.push(kids);
            feats.len() - 1
        };
        for _ in 0..n_leaves {
            let i = push(&mut feats, &mut children, None, rng);
            roots.push(i);
        }
        while roots.len() > 1 {
            let a = rng.random_range(0..roots.len());
            let l = roots.swap_remove(a);
            let b = rng.random_range(0..roots.len());
            let r = roots.swap_remove(b);
            let i = push(&mut feats, &mut children, Some((l, r)), rng);
            roots.push(i);
        }
        encode_tree(&feats, &children)
    }

    fn small_model(rng: &mut SmallRng) -> TreeConvValueModel {
        let mut m = TreeConvValueModel::new(
            5,
            TreeConvConfig {
                conv_channels: vec![4, 3],
                mlp_hidden: 3,
            },
        );
        m.init_weights(0.5, rng);
        m
    }

    fn fd_set(rng: &mut SmallRng) -> TrainSet {
        let mut data = TrainSet::default();
        for (leaves, y, censored) in [
            (1, 2.0, false),
            (3, -1.0, false),
            (5, 4.0, true),  // far above init predictions: hinge active
            (2, -9.0, true), // far below: hinge inactive, zero gradient
            (4, 0.5, false),
        ] {
            data.xs.push(random_tree(leaves, 5, rng));
            data.ys.push(y);
            data.censored.push(censored);
        }
        data
    }

    /// The satellite acceptance test: analytic gradients of the full
    /// network (conv layers, pooling routing, MLP head, censored hinge)
    /// match central finite differences on random small plans.
    #[test]
    fn finite_difference_gradients_match() {
        let mut rng = SmallRng::seed_from_u64(0xF00D);
        let model = small_model(&mut rng);
        let data = fd_set(&mut rng);
        let analytic = model.loss_grad(&data);
        let p0 = model.params();
        assert_eq!(analytic.len(), p0.len());
        let h = 1e-5;
        let mut worst = 0.0f64;
        for j in 0..p0.len() {
            let mut m = model.clone();
            let mut p = p0.clone();
            p[j] += h;
            m.set_params(&p);
            let up = m.loss(&data);
            p[j] = p0[j] - h;
            m.set_params(&p);
            let down = m.loss(&data);
            let numeric = (up - down) / (2.0 * h);
            let err = (numeric - analytic[j]).abs();
            let tol = 1e-6 + 1e-4 * numeric.abs().max(analytic[j].abs());
            assert!(
                err <= tol,
                "param {j}: numeric {numeric} vs analytic {} (err {err})",
                analytic[j]
            );
            worst = worst.max(err);
        }
        assert!(worst.is_finite());
    }

    /// A larger mixed set for exercising real minibatch geometries
    /// (several chunks at batch 7, one chunk at batch 32).
    fn fd_set_large(rng: &mut SmallRng) -> TrainSet {
        let mut data = TrainSet::default();
        for i in 0..17 {
            data.xs.push(random_tree(1 + i % 6, 5, rng));
            data.ys.push((i as f64) - 8.0 + 0.25 * (i % 3) as f64);
            data.censored.push(i % 4 == 0);
        }
        data
    }

    /// The batched backprop path (conv tiles, pool routing, hinge
    /// gating) matches central finite differences at several batch
    /// geometries — including partial final chunks (17 samples at
    /// batch 7) and the whole-set batch.
    #[test]
    fn batched_gradients_match_finite_differences() {
        let mut rng = SmallRng::seed_from_u64(0xBA7C4);
        let model = small_model(&mut rng);
        let data = fd_set_large(&mut rng);
        let p0 = model.params();
        let h = 1e-5;
        let numeric: Vec<f64> = (0..p0.len())
            .map(|j| {
                let mut m = model.clone();
                let mut p = p0.clone();
                p[j] += h;
                m.set_params(&p);
                let up = m.loss(&data);
                p[j] = p0[j] - h;
                m.set_params(&p);
                let down = m.loss(&data);
                (up - down) / (2.0 * h)
            })
            .collect();
        for batch in [1usize, 7, 32] {
            let analytic = model.loss_grad_batched(&data, batch);
            assert_eq!(analytic.len(), p0.len());
            for (j, (&num, &ana)) in numeric.iter().zip(&analytic).enumerate() {
                let err = (num - ana).abs();
                let tol = 1e-6 + 1e-4 * num.abs().max(ana.abs());
                assert!(
                    err <= tol,
                    "batch {batch}, param {j}: numeric {num} vs analytic {ana} (err {err})"
                );
            }
        }
    }

    /// At batch size 1 the batched kernels replay the per-sample op
    /// sequence exactly, so the gradients are bit-identical — not just
    /// close — to [`TreeConvValueModel::loss_grad`].
    #[test]
    fn batched_gradient_is_bit_identical_at_batch_one() {
        let mut rng = SmallRng::seed_from_u64(0x1DE);
        let model = small_model(&mut rng);
        let data = fd_set_large(&mut rng);
        assert_eq!(model.loss_grad_batched(&data, 1), model.loss_grad(&data));
    }

    /// Batched `fit` at batch size 1 reproduces the per-sample
    /// reference bit for bit: same sampler stream, same optimizer
    /// arithmetic, same checkpoint.
    #[test]
    fn batched_fit_matches_per_sample_at_batch_one() {
        let mut rng = SmallRng::seed_from_u64(0xF17);
        let data = fd_set_large(&mut rng);
        let cfg = SgdConfig {
            epochs: 8,
            batch: 1,
            lr: 0.001,
            ..SgdConfig::default()
        };
        for optimizer in [
            crate::model::OptimizerKind::Sgd,
            crate::model::OptimizerKind::Momentum,
            crate::model::OptimizerKind::Adam,
        ] {
            let cfg = SgdConfig {
                optimizer,
                momentum: 0.9,
                ..cfg
            };
            let mut seed_rng = SmallRng::seed_from_u64(0xAB);
            let mut batched = small_model(&mut seed_rng);
            let mut seed_rng = SmallRng::seed_from_u64(0xAB);
            let mut per_sample = small_model(&mut seed_rng);
            let mut r1 = SmallRng::seed_from_u64(99);
            let mut r2 = SmallRng::seed_from_u64(99);
            let a = batched.fit(data.clone(), &cfg, &mut r1);
            let b = per_sample.fit_per_sample(data.clone(), &cfg, &mut r2);
            let p = batched.params();
            assert!(p.iter().all(|v| v.is_finite()), "{optimizer:?} diverged");
            assert_eq!(p, per_sample.params(), "{optimizer:?}");
            assert_eq!(a.steps, b.steps);
            assert_eq!(a.mse.to_bits(), b.mse.to_bits());
        }
    }

    /// `predict_batch` (arena + batched kernels, fixed-size chunks) is
    /// bit-equal to the from-scratch per-tree `forward` at batch sizes
    /// on both sides of the chunk, fitted and unfitted.
    #[test]
    fn predict_batch_is_bit_equal_to_per_tree_forward() {
        let mut rng = SmallRng::seed_from_u64(0xBA7C);
        let unfitted = TreeConvValueModel::new(
            5,
            TreeConvConfig {
                conv_channels: vec![4, 3],
                mlp_hidden: 3,
            },
        );
        for model in [unfitted, small_model(&mut rng)] {
            for n in [1usize, 7, 33, 300] {
                let xs: Vec<Vec<f64>> = (0..n)
                    .map(|i| random_tree(1 + i % 6, 5, &mut rng))
                    .collect();
                let refs: Vec<&[f64]> = xs.iter().map(Vec::as_slice).collect();
                let batch = model.predict_batch(&refs);
                assert_eq!(batch.len(), n);
                for (x, b) in xs.iter().zip(&batch) {
                    let single = model.forward(&decode_tree(x)).out;
                    assert_eq!(single.to_bits(), b.to_bits(), "batch of {n}");
                }
            }
        }
    }

    /// A censored sample whose prediction already exceeds the bound
    /// contributes no gradient; one below the bound does.
    #[test]
    fn censored_hinge_gates_gradients() {
        let mut rng = SmallRng::seed_from_u64(7);
        let model = small_model(&mut rng);
        let x = random_tree(3, 5, &mut rng);
        let pred = model.predict(&x);
        let inactive = TrainSet {
            xs: vec![x.clone()],
            ys: vec![pred - 5.0],
            censored: vec![true],
        };
        assert!(model.loss_grad(&inactive).iter().all(|&g| g == 0.0));
        assert_eq!(model.loss(&inactive), 0.0);
        let active = TrainSet {
            xs: vec![x],
            ys: vec![pred + 5.0],
            censored: vec![true],
        };
        assert!(model.loss_grad(&active).iter().any(|&g| g != 0.0));
        assert!(model.loss(&active) > 0.0);
    }

    /// Dynamic pooling is the channel-wise max over all nodes, and the
    /// incremental join state reproduces the full forward exactly.
    #[test]
    fn incremental_states_match_full_forward() {
        let mut rng = SmallRng::seed_from_u64(21);
        let model = small_model(&mut rng);
        for leaves in [1usize, 2, 4, 7] {
            let x = random_tree(leaves, 5, &mut rng);
            let t = decode_tree(&x);
            // Recompute incrementally, bottom-up over the same topology.
            let mut states: Vec<Option<ModelState>> = vec![None; t.feats.len()];
            for i in 0..t.feats.len() {
                states[i] = Some(match t.children[i] {
                    None => model.leaf_state(&t.feats[i]).expect("leaf state"),
                    Some((a, b)) => model
                        .join_state(
                            &t.feats[i],
                            states[a].as_ref().expect("child before parent"),
                            states[b].as_ref().expect("child before parent"),
                        )
                        .expect("join state"),
                });
            }
            let root = states.last().unwrap().as_ref().unwrap();
            let incremental = model.state_value(root).expect("state value");
            let full = model.predict(&x);
            assert!(
                (incremental - full).abs() <= 1e-12 * full.abs().max(1.0),
                "leaves {leaves}: incremental {incremental} vs full {full}"
            );
            // The root state's pooled vector is the channel-wise max of
            // the full forward's final-layer activations.
            let f = model.forward(&t);
            let s = root.downcast_ref::<TcState>().unwrap();
            for (c, (&a, &b)) in s.pooled.iter().zip(&f.pooled).enumerate() {
                assert!((a - b).abs() < 1e-15, "channel {c}: {a} vs {b}");
            }
        }
    }

    /// SGD on the censored-hinge loss reduces training error on a
    /// synthetic tree-structured signal, deterministically per seed.
    #[test]
    fn fit_learns_and_is_deterministic() {
        let gen = |rng: &mut SmallRng| {
            let mut data = TrainSet::default();
            for _ in 0..80 {
                let leaves = rng.random_range(1..5usize);
                let x = random_tree(leaves, 5, rng);
                // Signal: node count plus the first feature of the root.
                let t = decode_tree(&x);
                let y = 0.3 * t.feats.len() as f64 + 0.5 * t.feats.last().unwrap()[0];
                data.xs.push(x);
                data.ys.push(y);
                data.censored.push(false);
            }
            data
        };
        let data = gen(&mut SmallRng::seed_from_u64(3));
        let run = |seed: u64| {
            let mut m = TreeConvValueModel::new(
                5,
                TreeConvConfig {
                    conv_channels: vec![8, 8],
                    mlp_hidden: 8,
                },
            );
            let report = m.fit(
                data.clone(),
                &SgdConfig {
                    epochs: 120,
                    lr: 0.03,
                    batch: 16,
                    ..SgdConfig::default()
                },
                &mut SmallRng::seed_from_u64(seed),
            );
            (m, report)
        };
        let (m, report) = run(11);
        assert!(report.steps > 0);
        let var = {
            let mean = data.ys.iter().sum::<f64>() / data.len() as f64;
            data.ys.iter().map(|y| (y - mean) * (y - mean)).sum::<f64>() / data.len() as f64
        };
        assert!(
            report.mse < var * 0.5,
            "mse {} should beat half the label variance {var}",
            report.mse
        );
        // Same seed, same data: bit-identical parameters.
        let (m2, _) = run(11);
        assert_eq!(m.params(), m2.params());
        // Different seed: different init, different weights.
        let (m3, _) = run(12);
        assert_ne!(m.params(), m3.params());
    }

    #[test]
    fn params_set_params_roundtrip() {
        let mut rng = SmallRng::seed_from_u64(2);
        let m = small_model(&mut rng);
        let p = m.params();
        assert_eq!(p.len(), m.num_params());
        let mut fresh = TreeConvValueModel::new(
            5,
            TreeConvConfig {
                conv_channels: vec![4, 3],
                mlp_hidden: 3,
            },
        );
        assert!(!fresh.is_fitted());
        fresh.set_params(&p);
        assert!(fresh.is_fitted());
        assert_eq!(fresh.params(), p);
        let x = random_tree(3, 5, &mut rng);
        assert_eq!(m.predict(&x), fresh.predict(&x));
    }

    #[test]
    fn encode_decode_roundtrip() {
        let mut rng = SmallRng::seed_from_u64(5);
        let x = random_tree(4, 3, &mut rng);
        let t = decode_tree(&x);
        assert_eq!(encode_tree(&t.feats, &t.children), x);
        // Leaves have no children; the root is the last slot.
        assert_eq!(t.feats.len(), 7);
        assert!(t.children.last().unwrap().is_some());
    }

    /// An untrained network predicts 0 and never poisons the beam.
    #[test]
    fn unfitted_predicts_zero() {
        let m = TreeConvValueModel::new(5, TreeConvConfig::default());
        let mut rng = SmallRng::seed_from_u64(9);
        let x = random_tree(3, 5, &mut rng);
        assert_eq!(m.predict(&x), 0.0);
        assert!(!m.is_fitted());
    }
}
