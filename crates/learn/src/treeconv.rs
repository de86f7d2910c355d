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
//! [`crate::model::ValueModel::join_state_batch`] hook carries each
//! subtree's root activations per layer plus the pooled channel maxima
//! in one flat buffer, so scoring a candidate join costs one window of
//! convolutions — O(1) in the subtree size — instead of a full
//! re-encode. A window's child-side terms (`Wl·h_left`, `Wr·h_right`)
//! are functions of one child subtree alone, so each subtree computes
//! them once, the first time it is a join input, and every candidate it
//! feeds reuses them: per candidate only the node term `Wn·x` remains.
//!
//! Kernel layout. The weights are stored row-major (`out × in`), which
//! is the parameter and checkpoint layout and what the per-sample
//! reference `forward` / `backward` read. Every layer also carries its
//! filters transposed (`in × out`), derived from the row-major copy by
//! the only writers of the weights (`set_params`, `init_weights`) and
//! never serialized. The batched and incremental forward kernels read
//! the transposes: each window term is an output-vectorized mat-vec, one
//! accumulator per output channel stepping through the inputs together.
//! Each output still sums its own row left to right from `-0.0`, and the
//! terms are added to the bias in `ConvLayer::pre`'s order (`b + n`,
//! `+ l`, `+ r`), so the bits are the reference's while the serial add
//! chains become independent vector lanes. The batched backward skips
//! the gradient wrt the node encodings, which nothing reads. The ignored
//! tests `treeconv_kernel_floor` and `treeconv_fit_floor` time both
//! kernels beside hand-written floors and assert them bit-equal.

use crate::model::{
    shuffle_epoch_order, FeatureEncoding, FitReport, JoinStateItem, ModelState, Optimizer,
    SgdConfig, TrainSet, ValueModel, LRELU_SLOPE,
};
use rand::rngs::SmallRng;
use rand::RngExt;
use std::sync::{Arc, OnceLock};
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

/// `out = W·x` over `wt`, the transpose of a row-major `W`
/// (`x.len() × out.len()`, input-major). Every output is its own
/// accumulator summing its row left to right from `-0.0`, exactly as
/// `row.iter().zip(x).map(|(w, x)| w * x).sum::<f64>()` does; but the
/// outputs step through the inputs together, a block of [`LANES`] at a
/// time held in registers, so they are independent vector lanes rather
/// than one serial add chain each.
#[inline]
fn matvec_ov(wt: &[f64], x: &[f64], out: &mut [f64]) {
    let n = out.len();
    debug_assert_eq!(wt.len(), n * x.len());
    let mut blocks = out.chunks_exact_mut(LANES);
    for (k, block) in (&mut blocks).enumerate() {
        let mut acc = [-0.0; LANES];
        for (&xi, col) in x.iter().zip(wt.chunks_exact(n)) {
            let w: &[f64; LANES] = col[k * LANES..][..LANES].try_into().expect("block");
            for (a, w) in acc.iter_mut().zip(w) {
                *a += w * xi;
            }
        }
        block.copy_from_slice(&acc);
    }
    let tail = blocks.into_remainder();
    let at = n - tail.len();
    tail.fill(-0.0);
    for (&xi, col) in x.iter().zip(wt.chunks_exact(n)) {
        for (a, w) in tail.iter_mut().zip(&col[at..]) {
            *a += w * xi;
        }
    }
}

/// Output block width of [`matvec_ov`]: eight `f64` accumulators.
const LANES: usize = 8;

/// The transpose of row-major `w` (`w.len() / in_dim` rows of `in_dim`).
fn transpose(w: &[f64], in_dim: usize) -> Vec<f64> {
    let out_dim = w.len() / in_dim;
    (0..in_dim)
        .flat_map(|i| (0..out_dim).map(move |o| w[o * in_dim + i]))
        .collect()
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
    /// `wn`, `wl`, `wr` transposed (`in_dim × out_dim`) for the
    /// output-vectorized kernels. Derived from the filters by
    /// `derive_transposed`, never serialized.
    wn_t: Vec<f64>,
    wl_t: Vec<f64>,
    wr_t: Vec<f64>,
}

impl ConvLayer {
    fn new(in_dim: usize, out_dim: usize) -> Self {
        let zeros = vec![0.0; in_dim * out_dim];
        Self {
            in_dim,
            out_dim,
            wn: zeros.clone(),
            wl: zeros.clone(),
            wr: zeros.clone(),
            b: vec![0.0; out_dim],
            wn_t: zeros.clone(),
            wl_t: zeros.clone(),
            wr_t: zeros,
        }
    }

    fn derive_transposed(&mut self) {
        self.wn_t = transpose(&self.wn, self.in_dim);
        self.wl_t = transpose(&self.wl, self.in_dim);
        self.wr_t = transpose(&self.wr, self.in_dim);
    }

    /// [`ConvLayer::pre`] into `z` through the transposed filters, bit
    /// for bit: `b + Wn·x`, then `+ Wl·xl`, then `+ Wr·xr`, each product
    /// summed on its own (`t` is `out_dim` scratch).
    fn pre_ov(&self, x: &[f64], kids: Option<(&[f64], &[f64])>, z: &mut [f64], t: &mut [f64]) {
        matvec_ov(&self.wn_t, x, z);
        for (z, b) in z.iter_mut().zip(&self.b) {
            *z += b;
        }
        if let Some((xl, xr)) = kids {
            for (wt, xc) in [(&self.wl_t, xl), (&self.wr_t, xr)] {
                matvec_ov(wt, xc, t);
                for (z, t) in z.iter_mut().zip(&*t) {
                    *z += t;
                }
            }
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
    /// `w` transposed, derived as in [`ConvLayer`].
    w_t: Vec<f64>,
}

impl Dense {
    fn new(in_dim: usize, out_dim: usize) -> Self {
        Self {
            in_dim,
            w: vec![0.0; in_dim * out_dim],
            b: vec![0.0; out_dim],
            w_t: vec![0.0; in_dim * out_dim],
        }
    }

    /// `lrelu(b + W·x)` into `h` through the transposed weights, bit for
    /// bit the activation of [`Dense::pre`]; `z`, when given, receives
    /// the pre-activation.
    fn act_ov(&self, x: &[f64], h: &mut [f64], mut z: Option<&mut [f64]>) {
        matvec_ov(&self.w_t, x, h);
        for (o, (h, b)) in h.iter_mut().zip(&self.b).enumerate() {
            let pre = b + *h;
            if let Some(z) = z.as_deref_mut() {
                z[o] = pre;
            }
            *h = lrelu(pre);
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
    /// One window term (`out_dim`) of the forward's `ConvLayer::pre_ov`.
    term: Vec<f64>,
}

/// Incremental per-subtree inference state (the [`ModelState`] payload).
struct TcState {
    /// `[root activation entering conv layer 0 | … | entering layer L−1 |
    /// pooled channel maxima over the subtree]`. The root's final-layer
    /// activation is not kept: a parent reads only the pooled maxima.
    buf: Box<[f64]>,
    /// Per conv layer `l`, `[Wl⁽ˡ⁾·h⁽ˡ⁾ | Wr⁽ˡ⁾·h⁽ˡ⁾]` of the root's
    /// activation `h⁽ˡ⁾` entering layer `l`: this subtree's term in any
    /// parent window, on either side. Filled the first time the subtree
    /// is a join input (`TreeConvValueModel::child_proj`); `OnceLock`
    /// makes concurrent first uses from pool threads harmless. The terms
    /// belong to the weights of the model that opened the state, which is
    /// the only model that composes it.
    proj: OnceLock<Box<[f64]>>,
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
        self.derive_transposed();
        self.fitted = true;
    }

    /// Re-derives every transposed weight copy from the row-major
    /// weights. The writers of the weights (`set_params`,
    /// `init_weights`) end with it, so the copies are never stale.
    fn derive_transposed(&mut self) {
        for c in &mut self.conv {
            c.derive_transposed();
        }
        for d in [&mut self.head1, &mut self.head2] {
            d.w_t = transpose(&d.w, d.in_dim);
        }
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
        self.derive_transposed();
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

    /// Batched training forward over one minibatch of trees, every node
    /// of every sample, each window an output-vectorized mat-vec over
    /// the transposed filters. Per-window arithmetic
    /// (`b + wn·x + wl·xl + wr·xr`, each dot accumulated left to right),
    /// the strict-`>` pool over nodes in post-order, and the MLP head all
    /// replay [`TreeConvValueModel::forward`] exactly, so batched outputs
    /// are bit-identical to the per-sample path at any batch geometry.
    fn batch_forward(&self, arena: &TreeArena, chunk: &[usize], s: &mut BatchScratch) {
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
        // which are complete before the next level runs. Each window is
        // one `ConvLayer::pre_ov` while the layer's transposed filters
        // stay in L1.
        for (li, layer) in self.conv.iter().enumerate() {
            let (in_dim, out_dim) = (layer.in_dim, layer.out_dim);
            let (lower, upper) = s.acts.split_at_mut(li + 1);
            let x_all = lower[li].as_slice();
            let z_all = &mut s.pre[li];
            z_all.clear();
            z_all.resize(nodes * out_dim, 0.0);
            s.term.resize(out_dim, 0.0);
            let windows = z_all
                .chunks_exact_mut(out_dim)
                .zip(x_all.chunks_exact(in_dim));
            for ((z, x), &(lk, rk)) in windows.zip(&s.kids) {
                let kids = (lk != 0).then(|| {
                    let (a, c) = (lk as usize - 1, rk as usize - 1);
                    let xl = &x_all[a * in_dim..(a + 1) * in_dim];
                    (xl, &x_all[c * in_dim..(c + 1) * in_dim])
                });
                layer.pre_ov(x, kids, z, &mut s.term);
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
        let rows = s
            .h_act
            .chunks_exact_mut(hd)
            .zip(s.h_pre.chunks_exact_mut(hd));
        for ((out, pooled), (h_act, h_pre)) in s
            .outs
            .iter_mut()
            .zip(s.pooled.chunks_exact(c_dim))
            .zip(rows)
        {
            self.head1.act_ov(pooled, h_act, Some(h_pre));
            let z = self
                .head2
                .w
                .iter()
                .zip(&*h_act)
                .map(|(w, x)| w * x)
                .sum::<f64>();
            *out = self.head2.b[0] + z;
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
        // identical to `backward`, except that level 0 skips the
        // gradient wrt the node encodings, which nothing reads.
        for l in (0..levels).rev() {
            let layer = &self.conv[l];
            let (in_dim, out_dim) = (layer.in_dim, layer.out_dim);
            let below = l > 0;
            s.d_below.clear();
            if below {
                s.d_below.resize(nodes * in_dim, 0.0);
            }
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
                    if below {
                        matvec_t_acc(
                            &layer.wn,
                            &s.d_z,
                            &mut s.d_below[p * in_dim..(p + 1) * in_dim],
                        );
                    }
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
                        if below {
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

    /// Offset of the pooled maxima in a [`TcState`] buffer: the summed
    /// input widths of the conv layers.
    fn pooled_ofs(&self) -> usize {
        self.conv.iter().map(|c| c.in_dim).sum()
    }

    /// The child-side window terms of `s` ([`TcState::proj`]), computed
    /// on first use. Each is the same left-to-right dot product the
    /// uncached window (`ConvLayer::pre`) takes, output-vectorized, so
    /// adding it later in the same order reproduces that window bit for
    /// bit.
    fn child_proj<'s>(&self, s: &'s TcState) -> &'s [f64] {
        s.proj.get_or_init(|| {
            let len = self.conv.iter().map(|c| 2 * c.out_dim).sum();
            let mut p = vec![0.0; len].into_boxed_slice();
            let (mut at, mut p_at) = (0, 0);
            for layer in &self.conv {
                let h = &s.buf[at..at + layer.in_dim];
                for wt in [&layer.wl_t, &layer.wr_t] {
                    matvec_ov(wt, h, &mut p[p_at..p_at + layer.out_dim]);
                    p_at += layer.out_dim;
                }
                at += layer.in_dim;
            }
            p
        })
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
    /// `TreeConvValueModel::batch_backward` instead of one tree at a
    /// time. The batched kernels
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
        let c_dim = self.conv.last().expect("at least one layer").out_dim;
        let mut buf = vec![0.0; self.pooled_ofs() + c_dim].into_boxed_slice();
        buf[..self.node_dim].copy_from_slice(node_x);
        let mut at = 0;
        for layer in &self.conv {
            let (x, out) = buf[at..].split_at_mut(layer.in_dim);
            let z = &mut out[..layer.out_dim];
            layer.pre_ov(x, None, z, &mut []);
            z.iter_mut().for_each(|z| *z = lrelu(*z));
            at += layer.in_dim;
        }
        // A leaf's pooled maxima are its own final-layer activation,
        // already in place at the end of the buffer.
        Some(Arc::new(TcState {
            buf,
            proj: OnceLock::new(),
        }))
    }

    /// The beam forward over cached child terms. A window's
    /// pre-activation is `b + Wn·x + Wl·h_left + Wr·h_right`; the two
    /// child terms come from each child's `TreeConvValueModel::child_proj`,
    /// computed once per subtree, so per candidate only `Wn·x` and the
    /// additions remain, written straight into the new state's buffer.
    /// The additions keep `ConvLayer::pre`'s order and each cached term
    /// is the same left-to-right dot product, so a composed state is
    /// bit-identical to the uncached window's and does not depend on
    /// which batch composed it.
    fn join_state_batch(&self, items: &[JoinStateItem<'_>]) -> Option<Vec<ModelState>> {
        let pooled_ofs = self.pooled_ofs();
        let top = self.conv.len() - 1;
        let c_dim = self.conv[top].out_dim;
        items
            .iter()
            .map(|it| {
                let l = it.left.downcast_ref::<TcState>()?;
                let r = it.right.downcast_ref::<TcState>()?;
                assert_eq!(it.node_x.len(), self.node_dim, "node encoding mismatch");
                let (pl, pr) = (self.child_proj(l), self.child_proj(r));
                let (l_pool, r_pool) = (&l.buf[pooled_ofs..], &r.buf[pooled_ofs..]);
                let mut buf = vec![0.0; pooled_ofs + c_dim].into_boxed_slice();
                buf[..self.node_dim].copy_from_slice(it.node_x);
                let (mut at, mut p_at) = (0, 0);
                for (li, layer) in self.conv.iter().enumerate() {
                    let (in_dim, out_dim) = (layer.in_dim, layer.out_dim);
                    let (x, out) = buf[at..].split_at_mut(in_dim);
                    let wl_h = &pl[p_at..p_at + out_dim];
                    let wr_h = &pr[p_at + out_dim..p_at + 2 * out_dim];
                    let out = &mut out[..out_dim];
                    matvec_ov(&layer.wn_t, x, out);
                    for (o, z) in out.iter_mut().enumerate() {
                        let h = lrelu(layer.b[o] + *z + wl_h[o] + wr_h[o]);
                        // The last layer's activation only feeds the pool.
                        *z = if li == top {
                            h.max(l_pool[o].max(r_pool[o]))
                        } else {
                            h
                        };
                    }
                    at += in_dim;
                    p_at += 2 * out_dim;
                }
                Some(Arc::new(TcState {
                    buf,
                    proj: OnceLock::new(),
                }) as ModelState)
            })
            .collect()
    }

    /// The MLP head over each state's pooled maxima; per-state
    /// arithmetic is `forward`'s head.
    fn state_value_batch(&self, states: &[ModelState]) -> Option<Vec<f64>> {
        let pooled_ofs = self.pooled_ofs();
        let mut h = vec![0.0; self.head1.b.len()];
        states
            .iter()
            .map(|s| {
                let pooled = &s.downcast_ref::<TcState>()?.buf[pooled_ofs..];
                self.head1.act_ov(pooled, &mut h, None);
                Some(self.head2.b[0] + self.head2.w.iter().zip(&h).map(|(w, x)| w * x).sum::<f64>())
            })
            .collect()
    }
}

#[cfg(test)]
impl TreeConvValueModel {
    /// The pre-caching `join_state_batch`, kept as the reference the
    /// cached kernel is checked against: every candidate recomputes
    /// `b + wn·x + wl·xl + wr·xr` from its children's activations, each
    /// filter row streaming across a tile of candidates.
    #[allow(clippy::needless_range_loop)]
    fn join_state_batch_uncached(&self, items: &[JoinStateItem<'_>]) -> Option<Vec<ModelState>> {
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
        let pooled_ofs = self.pooled_ofs();
        // Offset of each level's root activation in a child's buffer.
        let ofs: Vec<usize> = self
            .conv
            .iter()
            .scan(0, |at, c| {
                let o = *at;
                *at += c.in_dim;
                Some(o)
            })
            .collect();
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
            let child = ofs[li]..ofs[li] + in_dim;
            let mut zs: Vec<Vec<f64>> = (0..n).map(|_| vec![0.0; out_dim]).collect();
            let mut lo = 0;
            while lo < n {
                let hi = (lo + TILE).min(n);
                let xn: Vec<&[f64]> = (lo..hi).map(|c| acts[c][li].as_slice()).collect();
                let xl: Vec<&[f64]> = (lo..hi).map(|c| &ls[c].buf[child.clone()]).collect();
                let xr: Vec<&[f64]> = (lo..hi).map(|c| &rs[c].buf[child.clone()]).collect();
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
                .map(|(c, mut acts)| {
                    let top = acts.pop().expect("non-empty");
                    let (lp, rp) = (&ls[c].buf[pooled_ofs..], &rs[c].buf[pooled_ofs..]);
                    let mut buf = acts.concat();
                    buf.extend(
                        top.iter()
                            .zip(lp.iter().zip(rp))
                            .map(|(&h, (&a, &b))| h.max(a.max(b))),
                    );
                    Arc::new(TcState {
                        buf: buf.into_boxed_slice(),
                        proj: OnceLock::new(),
                    }) as ModelState
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
    /// incremental join state reproduces the full forward bit for bit.
    #[test]
    fn incremental_states_match_full_forward() {
        let mut rng = SmallRng::seed_from_u64(21);
        let model = small_model(&mut rng);
        for leaves in [1usize, 2, 3, 4, 5, 7, 9, 12, 16] {
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
            assert_eq!(
                incremental.to_bits(),
                full.to_bits(),
                "leaves {leaves}: incremental {incremental} vs full {full}"
            );
            // The root state's pooled vector is the channel-wise max of
            // the full forward's final-layer activations.
            let f = model.forward(&t);
            let s = root.downcast_ref::<TcState>().unwrap();
            let pooled = &s.buf[model.pooled_ofs()..];
            assert_eq!(pooled.len(), f.pooled.len());
            for (c, (&a, &b)) in pooled.iter().zip(&f.pooled).enumerate() {
                assert_eq!(a.to_bits(), b.to_bits(), "channel {c}: {a} vs {b}");
            }
        }
    }

    /// Every output-vectorized path of `m` — `predict_batch` over all of
    /// `xs`, `predict_batch` of each tree alone (a batch of one through
    /// `batch_forward`), and `join_state_batch` + `state_value_batch`
    /// composed bottom-up — equals the per-sample `forward` of
    /// `reference` bit for bit.
    fn assert_kernels_match_forward(
        reference: &TreeConvValueModel,
        m: &dyn ValueModel,
        xs: &[Vec<f64>],
        what: &str,
    ) {
        let refs: Vec<&[f64]> = xs.iter().map(Vec::as_slice).collect();
        let batch = m.predict_batch(&refs);
        for (i, (x, b)) in xs.iter().zip(&batch).enumerate() {
            let t = decode_tree(x);
            let want = reference.forward(&t).out.to_bits();
            assert_eq!(b.to_bits(), want, "{what}: tree {i}, batched");
            let one = m.predict_batch(&[x.as_slice()])[0];
            assert_eq!(one.to_bits(), want, "{what}: tree {i}, batch of one");
            let mut states: Vec<ModelState> = Vec::with_capacity(t.feats.len());
            for (f, kids) in t.feats.iter().zip(&t.children) {
                let s = match *kids {
                    None => m.leaf_state(f),
                    Some((a, b)) => m.join_state(f, &states[a], &states[b]),
                };
                states.push(s.expect("tree-conv state"));
            }
            let v = m.state_value(states.last().expect("non-empty")).unwrap();
            assert_eq!(v.to_bits(), want, "{what}: tree {i}, incremental");
        }
    }

    /// The transposed weights are derived, never stale: after the first
    /// fit (the `init_weights` path), `set_params`, `load_state` of a
    /// fitted state, `load_state` of an unfitted state into a fitted
    /// model, and `clone_box`, every output-vectorized path still equals
    /// the per-sample `forward` over the row-major weights.
    #[test]
    fn derived_weights_never_go_stale() {
        let mut rng = SmallRng::seed_from_u64(0x57A1E);
        let xs: Vec<Vec<f64>> = (0..12)
            .map(|i| random_tree(1 + i % 6, 5, &mut rng))
            .collect();
        let arch = || TreeConvConfig {
            conv_channels: vec![9, 4],
            mlp_hidden: 5,
        };
        let mut m = TreeConvValueModel::new(5, arch());
        let cfg = SgdConfig {
            epochs: 3,
            batch: 4,
            ..SgdConfig::default()
        };
        m.fit(fd_set_large(&mut rng), &cfg, &mut rng);
        assert_kernels_match_forward(&m, &m, &xs, "first fit");

        let moved: Vec<f64> = m.params().iter().map(|p| 0.5 - 1.5 * p).collect();
        m.set_params(&moved);
        assert_kernels_match_forward(&m, &m, &xs, "set_params");

        let mut loaded = TreeConvValueModel::new(5, arch());
        loaded.load_state(&m.state_vec()).unwrap();
        assert_eq!(loaded.params(), moved);
        assert_kernels_match_forward(&loaded, &loaded, &xs, "load_state, fitted");

        let unfitted = TreeConvValueModel::new(5, arch()).state_vec();
        loaded.load_state(&unfitted).unwrap();
        assert!(!loaded.is_fitted());
        assert_kernels_match_forward(&loaded, &loaded, &xs, "load_state, unfitted");

        let boxed = m.clone_box();
        assert_kernels_match_forward(&m, &*boxed, &xs, "clone_box");
    }

    /// A three-layer network, so the kernel tests cover an interior
    /// level whose input is neither the node encoding nor the pool.
    fn deep_model(rng: &mut SmallRng) -> TreeConvValueModel {
        let mut m = TreeConvValueModel::new(
            5,
            TreeConvConfig {
                conv_channels: vec![6, 4, 3],
                mlp_hidden: 3,
            },
        );
        m.init_weights(-0.25, rng);
        m
    }

    /// Child states for the kernel tests: leaves plus joins of leaves,
    /// composed through the uncached reference so every child has a
    /// cold projection cache.
    fn child_states(model: &TreeConvValueModel, rng: &mut SmallRng) -> Vec<ModelState> {
        let mut feat = || -> Vec<f64> { (0..5).map(|_| rng.random_normal(0.0, 1.0)).collect() };
        let mut kids: Vec<ModelState> = (0..4)
            .map(|_| model.leaf_state(&feat()).expect("leaf state"))
            .collect();
        for (a, b) in [(0, 1), (2, 3), (1, 2)] {
            let x = feat();
            let item = JoinStateItem {
                node_x: &x,
                left: &kids[a],
                right: &kids[b],
            };
            let joined = model.join_state_batch_uncached(&[item]).expect("tc state");
            kids.extend(joined);
        }
        kids
    }

    /// `n` join items over `kids`, whose children repeat: item `i` joins
    /// `kids[i % k]` with `kids[(i + 1) % k]`, so once `n > k` every
    /// child is a left input in some items and a right input in others.
    fn join_items<'a>(xs: &'a [Vec<f64>], kids: &'a [ModelState]) -> Vec<JoinStateItem<'a>> {
        let k = kids.len();
        xs.iter()
            .enumerate()
            .map(|(i, x)| JoinStateItem {
                node_x: x,
                left: &kids[i % k],
                right: &kids[(i + 1) % k],
            })
            .collect()
    }

    fn assert_states_bit_equal(
        model: &TreeConvValueModel,
        got: &[ModelState],
        want: &[ModelState],
        what: &str,
    ) {
        assert_eq!(got.len(), want.len(), "{what}");
        for (i, (g, w)) in got.iter().zip(want).enumerate() {
            let (g, w) = (
                &g.downcast_ref::<TcState>().unwrap().buf,
                &w.downcast_ref::<TcState>().unwrap().buf,
            );
            let bits = |b: &[f64]| b.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(g), bits(w), "{what}: state {i}");
        }
        let (gv, wv) = (
            model.state_value_batch(got).unwrap(),
            model.state_value_batch(want).unwrap(),
        );
        for (i, (g, w)) in gv.iter().zip(&wv).enumerate() {
            assert_eq!(g.to_bits(), w.to_bits(), "{what}: value {i}");
        }
    }

    /// The cached-projection kernel equals the pre-caching reference
    /// state by state (buffer and pooled bits) and value by value, at
    /// batch sizes on both sides of the reference's tile, on first use of
    /// each child and again with every projection cached.
    #[test]
    fn cached_kernel_matches_uncached_reference() {
        let mut rng = SmallRng::seed_from_u64(0xCAC4E);
        for model in [small_model(&mut rng), deep_model(&mut rng)] {
            for n in [1usize, 7, 33, 300] {
                let kids = child_states(&model, &mut rng);
                let xs: Vec<Vec<f64>> = (0..n)
                    .map(|_| (0..5).map(|_| rng.random_normal(0.0, 1.0)).collect())
                    .collect();
                let items = join_items(&xs, &kids);
                let want = model.join_state_batch_uncached(&items).unwrap();
                let cold = model.join_state_batch(&items).unwrap();
                assert_states_bit_equal(&model, &cold, &want, &format!("cold, batch {n}"));
                let warm = model.join_state_batch(&items).unwrap();
                assert_states_bit_equal(&model, &warm, &want, &format!("warm, batch {n}"));
            }
        }
    }

    /// Four threads compose one batch at once over children none of which
    /// has its projections yet, so they race to fill each `OnceLock`;
    /// every thread's states equal the serial result.
    #[test]
    fn concurrent_first_use_matches_serial() {
        let mut rng = SmallRng::seed_from_u64(0x4EAD);
        let model = deep_model(&mut rng);
        let xs: Vec<Vec<f64>> = (0..64)
            .map(|_| (0..5).map(|_| rng.random_normal(0.0, 1.0)).collect())
            .collect();
        let mut kid_rng = SmallRng::seed_from_u64(0x1D5);
        let serial_kids = child_states(&model, &mut kid_rng);
        let serial = model
            .join_state_batch(&join_items(&xs, &serial_kids))
            .unwrap();
        let mut kid_rng = SmallRng::seed_from_u64(0x1D5);
        let kids = child_states(&model, &mut kid_rng);
        let items = join_items(&xs, &kids);
        let barrier = std::sync::Barrier::new(4);
        let results: Vec<Vec<ModelState>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    s.spawn(|| {
                        barrier.wait();
                        model.join_state_batch(&items).unwrap()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for (t, got) in results.iter().enumerate() {
            assert_states_bit_equal(&model, got, &serial, &format!("thread {t}"));
        }
    }

    /// `W·x` with compile-time output width `O` over the transposed `wt`
    /// (`x.len() × O`): one accumulator per output from `-0.0`, inputs
    /// in order. The floors' hand-written mat-vec.
    #[allow(clippy::needless_range_loop)]
    fn floor_mv<const O: usize>(wt: &[f64], x: &[f64]) -> [f64; O] {
        let mut acc = [-0.0; O];
        for (col, &xi) in wt.chunks_exact(O).zip(x) {
            for o in 0..O {
                acc[o] += col[o] * xi;
            }
        }
        acc
    }

    /// The default architecture at the `mini_imdb` node dimension, as
    /// compile-time shapes for the floors.
    const FLOOR_D: usize = 34;
    const FLOOR_O0: usize = 24;
    const FLOOR_O1: usize = 16;
    const FLOOR_HD: usize = 16;

    /// A default-architecture model at the `mini_imdb` node dimension,
    /// with random weights.
    fn floor_model(rng: &mut SmallRng) -> TreeConvValueModel {
        use balsa_cost::OpWeights;
        use balsa_storage::{mini_imdb, DataGenConfig};
        let db = Arc::new(mini_imdb(DataGenConfig {
            scale: 0.02,
            ..Default::default()
        }));
        let d = crate::Featurizer::new(db, OpWeights::postgres_like(), true).node_dim();
        let mut model = TreeConvValueModel::new(d, TreeConvConfig::default());
        model.init_weights(0.0, rng);
        let (c0, c1) = (&model.conv[0], &model.conv[1]);
        let shape = (d, c0.out_dim, c1.out_dim, model.head1.b.len());
        assert_eq!(shape, (FLOOR_D, FLOOR_O0, FLOOR_O1, FLOOR_HD));
        model
    }

    /// The floor microbenchmark: `join_state_batch` + `state_value_batch`
    /// on 420 candidates over 40 children at the `mini_imdb` node
    /// dimension and the default architecture, beside a hand-written
    /// loop with compile-time shapes doing only each candidate's `Wn·x`
    /// products (output-vectorized, over transposes derived here), the
    /// additions, the pool and the head into stack buffers, and the
    /// pre-caching reference kernel. Children are fresh each repetition,
    /// so the kernel's time includes each child's first-use projection.
    /// Kernel and floor values must be bit-equal. Run with
    /// `cargo test --release -p balsa-learn floor -- --ignored --nocapture`.
    #[test]
    #[ignore]
    #[allow(clippy::needless_range_loop)]
    fn treeconv_kernel_floor() {
        const CANDS: usize = 420;
        const KIDS: usize = 40;
        const REPS: usize = 400;
        const O0: usize = FLOOR_O0;
        const O1: usize = FLOOR_O1;
        let mut rng = SmallRng::seed_from_u64(0xF100);
        let model = floor_model(&mut rng);
        let d = model.node_dim;
        let feat = |rng: &mut SmallRng| -> Vec<f64> {
            (0..d).map(|_| rng.random_normal(0.0, 1.0)).collect()
        };
        let kid_xs: Vec<Vec<f64>> = (0..KIDS).map(|_| feat(&mut rng)).collect();
        let xs: Vec<Vec<f64>> = (0..CANDS).map(|_| feat(&mut rng)).collect();
        let pairs: Vec<(usize, usize)> = (0..CANDS)
            .map(|_| (rng.random_range(0..KIDS), rng.random_range(0..KIDS)))
            .collect();

        // The floor: the child terms and pooled maxima are given, and per
        // candidate only the node products, the additions, the pool and
        // the head run.
        let (c0, c1, head1) = (&model.conv[0], &model.conv[1], &model.head1);
        let wn0 = transpose(&c0.wn, d);
        let wn1 = transpose(&c1.wn, O0);
        let w1 = transpose(&head1.w, O1);
        let proj: Vec<(Vec<f64>, Vec<f64>)> = kid_xs
            .iter()
            .map(|x| {
                let s = model.leaf_state(x).unwrap();
                let s = s.downcast_ref::<TcState>().unwrap();
                let pooled = s.buf[model.pooled_ofs()..].to_vec();
                (model.child_proj(s).to_vec(), pooled)
            })
            .collect();
        let floor = |out: &mut [f64]| {
            for ((x, &(l, r)), y) in xs.iter().zip(&pairs).zip(out.iter_mut()) {
                let ((pl, lp), (pr, rp)) = (&proj[l], &proj[r]);
                let mut h0 = floor_mv::<O0>(&wn0, x);
                for o in 0..O0 {
                    h0[o] = lrelu(c0.b[o] + h0[o] + pl[o] + pr[O0 + o]);
                }
                let mut pooled = floor_mv::<O1>(&wn1, &h0);
                let p = 2 * O0;
                for o in 0..O1 {
                    let v = lrelu(c1.b[o] + pooled[o] + pl[p + o] + pr[p + O1 + o]);
                    pooled[o] = v.max(lp[o].max(rp[o]));
                }
                let h = floor_mv::<FLOOR_HD>(&w1, &pooled);
                let mut z = -0.0;
                for o in 0..FLOOR_HD {
                    z += model.head2.w[o] * lrelu(head1.b[o] + h[o]);
                }
                *y = model.head2.b[0] + z;
            }
        };

        // Interleave the two sides per repetition and report medians, so
        // load from other processes hits both alike.
        let (mut kernel_ns, mut floor_ns, mut uncached_ns) = (Vec::new(), Vec::new(), Vec::new());
        let mut out = vec![0.0; CANDS];
        let mut sink = 0.0;
        for _ in 0..REPS {
            let kids: Vec<ModelState> = kid_xs
                .iter()
                .map(|x| model.leaf_state(x).unwrap())
                .collect();
            let items: Vec<JoinStateItem<'_>> = xs
                .iter()
                .zip(&pairs)
                .map(|(x, &(l, r))| JoinStateItem {
                    node_x: x,
                    left: &kids[l],
                    right: &kids[r],
                })
                .collect();
            let t = Instant::now();
            let states = model.join_state_batch(&items).unwrap();
            let values = model.state_value_batch(&states).unwrap();
            kernel_ns.push(t.elapsed().as_nanos());
            sink += values[0];
            let t = Instant::now();
            floor(&mut out);
            floor_ns.push(t.elapsed().as_nanos());
            sink += std::hint::black_box(&out)[0];
            for (c, (k, f)) in values.iter().zip(&out).enumerate() {
                assert_eq!(
                    k.to_bits(),
                    f.to_bits(),
                    "candidate {c}: kernel {k} vs floor {f}"
                );
            }
            let t = Instant::now();
            let states = model.join_state_batch_uncached(&items).unwrap();
            let values = model.state_value_batch(&states).unwrap();
            uncached_ns.push(t.elapsed().as_nanos());
            sink += values[0];
        }
        let per_candidate = |mut ns: Vec<u128>| {
            ns.sort_unstable();
            ns[ns.len() / 2] as f64 / CANDS as f64
        };
        let (k, f) = (per_candidate(kernel_ns), per_candidate(floor_ns));
        let u = per_candidate(uncached_ns);
        println!(
            "node_dim {d}, conv {O0} -> {O1}, head {FLOOR_HD}: kernel {k:.0} ns/candidate, \
             floor {f:.0} ns/candidate, ratio {:.2}; uncached reference {u:.0} ns/candidate \
             (sink {sink:.3})",
            k / f
        );
    }

    /// One conv window of the fit floor: `b + Wn·x`, then `+ Wl·xl`,
    /// then `+ Wr·xr` over the transposed filters `wt`.
    #[allow(clippy::needless_range_loop)]
    fn floor_window<const O: usize>(
        wt: [&[f64]; 3],
        b: &[f64],
        x: &[f64],
        kids: Option<(&[f64], &[f64])>,
    ) -> [f64; O] {
        let mut z = floor_mv::<O>(wt[0], x);
        for o in 0..O {
            z[o] += b[o];
        }
        if let Some((xl, xr)) = kids {
            let (l, r) = (floor_mv::<O>(wt[1], xl), floor_mv::<O>(wt[2], xr));
            for o in 0..O {
                z[o] = z[o] + l[o] + r[o];
            }
        }
        z
    }

    /// `g += dz ⊗ x` for a row-major `O × I` gradient.
    #[allow(clippy::needless_range_loop)]
    fn floor_outer<const O: usize, const I: usize>(g: &mut [f64], dz: &[f64; O], x: &[f64]) {
        for o in 0..O {
            let row = &mut g[o * I..(o + 1) * I];
            for i in 0..I {
                row[i] += dz[o] * x[i];
            }
        }
    }

    /// `dx += Wᵀ·dz` for a row-major `O × I` filter.
    #[allow(clippy::needless_range_loop)]
    fn floor_mv_t<const O: usize, const I: usize>(w: &[f64], dz: &[f64; O], dx: &mut [f64]) {
        for o in 0..O {
            let row = &w[o * I..(o + 1) * I];
            for i in 0..I {
                dx[i] += row[i] * dz[o];
            }
        }
    }

    /// A minibatch gathered for the fit floor: node features
    /// (`nodes × D`), batch-local children + 1, sample offsets, labels.
    struct FloorBatch {
        feats: Vec<f64>,
        kids: Vec<(u32, u32)>,
        ofs: Vec<usize>,
        ys: Vec<f64>,
    }

    /// The fit floor's forward of one conv level into preallocated
    /// `pre` / `act` (`nodes × O`).
    fn floor_level_fwd<const O: usize>(
        c: &ConvLayer,
        wt: [&[f64]; 3],
        x_all: &[f64],
        kids: &[(u32, u32)],
        pre: &mut [f64],
        act: &mut [f64],
    ) {
        let i_dim = c.in_dim;
        let row = |p: u32| &x_all[(p as usize - 1) * i_dim..p as usize * i_dim];
        for (p, &(l, r)) in kids.iter().enumerate() {
            let x = &x_all[p * i_dim..(p + 1) * i_dim];
            let z = floor_window::<O>(wt, &c.b, x, (l != 0).then(|| (row(l), row(r))));
            pre[p * O..(p + 1) * O].copy_from_slice(&z);
            for (a, z) in act[p * O..(p + 1) * O].iter_mut().zip(z) {
                *a = lrelu(z);
            }
        }
    }

    /// The fit floor's backward of one conv level: `g` is the level's
    /// `[wn | wl | wr | b]` gradient; `d_below` (`nodes × I`) is filled
    /// only when `Some`.
    #[allow(clippy::too_many_arguments)]
    fn floor_level_bwd<const O: usize, const I: usize>(
        c: &ConvLayer,
        x_all: &[f64],
        kids: &[(u32, u32)],
        pre: &[f64],
        d_act: &[f64],
        g: &mut [f64],
        mut d_below: Option<&mut [f64]>,
    ) {
        let (gn, rest) = g.split_at_mut(O * I);
        let (gl, rest) = rest.split_at_mut(O * I);
        let (gr, gb) = rest.split_at_mut(O * I);
        for (p, &(l, r)) in kids.iter().enumerate() {
            let mut dz = [0.0; O];
            for (o, d) in dz.iter_mut().enumerate() {
                *d = d_act[p * O + o] * lrelu_grad(pre[p * O + o]);
            }
            floor_outer::<O, I>(gn, &dz, &x_all[p * I..(p + 1) * I]);
            if let Some(db) = d_below.as_deref_mut() {
                floor_mv_t::<O, I>(&c.wn, &dz, &mut db[p * I..(p + 1) * I]);
            }
            if l != 0 {
                let (a, b) = (l as usize - 1, r as usize - 1);
                floor_outer::<O, I>(gl, &dz, &x_all[a * I..(a + 1) * I]);
                floor_outer::<O, I>(gr, &dz, &x_all[b * I..(b + 1) * I]);
                if let Some(db) = d_below.as_deref_mut() {
                    floor_mv_t::<O, I>(&c.wl, &dz, &mut db[a * I..(a + 1) * I]);
                    floor_mv_t::<O, I>(&c.wr, &dz, &mut db[b * I..(b + 1) * I]);
                }
            }
            for (g, d) in gb.iter_mut().zip(dz) {
                *g += d;
            }
        }
    }

    /// The training-kernel floor: pretraining-shaped minibatches (64
    /// trees of 1–5 leaves, so ≈ 5 nodes and 2 joins each, at the
    /// `mini_imdb` node dimension and the default architecture) through
    /// `batch_forward` + `batch_backward`, beside a hand-written loop
    /// with compile-time shapes doing the same multiply-adds over
    /// minibatches gathered ahead of time into preallocated buffers. The
    /// summed gradients must be bit-equal. Run with
    /// `cargo test --release -p balsa-learn floor -- --ignored --nocapture`.
    #[test]
    #[ignore]
    #[allow(clippy::needless_range_loop)]
    fn treeconv_fit_floor() {
        const BATCH: usize = 64;
        const BATCHES: usize = 16;
        const REPS: usize = 40;
        const D: usize = FLOOR_D;
        const O0: usize = FLOOR_O0;
        const O1: usize = FLOOR_O1;
        const HD: usize = FLOOR_HD;
        let mut rng = SmallRng::seed_from_u64(0xF17F);
        let model = floor_model(&mut rng);
        let n = BATCH * BATCHES;
        let xs: Vec<Vec<f64>> = (0..n)
            .map(|i| random_tree(1 + i % 5, D, &mut rng))
            .collect();
        let ys: Vec<f64> = (0..n).map(|_| rng.random_normal(0.0, 1.0)).collect();
        let mut order: Vec<usize> = (0..n).collect();
        shuffle_epoch_order(&mut order, &mut rng);
        let arena = TreeArena::build(&xs, D);

        let mut scratch = BatchScratch::default();
        let mut kernel = |grad: &mut [f64]| {
            for chunk in order.chunks(BATCH) {
                model.batch_forward(&arena, chunk, &mut scratch);
                scratch.d_outs.clear();
                scratch.active.clear();
                for (bs, &i) in chunk.iter().enumerate() {
                    scratch.d_outs.push(scratch.outs[bs] - ys[i]);
                    scratch.active.push(true);
                }
                model.batch_backward(&mut scratch, grad);
            }
        };

        // The floor's inputs: every minibatch gathered up front, the
        // forward's transposes derived here, every buffer preallocated.
        let batches: Vec<FloorBatch> = order
            .chunks(BATCH)
            .map(|chunk| {
                let mut b = FloorBatch {
                    feats: vec![],
                    kids: vec![],
                    ofs: vec![0],
                    ys: vec![],
                };
                for &i in chunk {
                    let t = decode_tree(&xs[i]);
                    let base = b.kids.len() as u32;
                    for (f, k) in t.feats.iter().zip(&t.children) {
                        b.feats.extend_from_slice(f);
                        b.kids.push(
                            k.map_or((0, 0), |(l, r)| (base + l as u32 + 1, base + r as u32 + 1)),
                        );
                    }
                    b.ofs.push(b.kids.len());
                    b.ys.push(ys[i]);
                }
                b
            })
            .collect();
        let (c0, c1, head1, head2) = (&model.conv[0], &model.conv[1], &model.head1, &model.head2);
        let t0 = [&c0.wn, &c0.wl, &c0.wr].map(|w| transpose(w, D));
        let t1 = [&c1.wn, &c1.wl, &c1.wr].map(|w| transpose(w, O0));
        let w1 = transpose(&head1.w, O1);
        let max_nodes = batches.iter().map(|b| b.kids.len()).max().unwrap();
        let mut pre0 = vec![0.0; max_nodes * O0];
        let mut act0 = pre0.clone();
        let mut d_act0 = pre0.clone();
        let mut pre1 = vec![0.0; max_nodes * O1];
        let mut act1 = pre1.clone();
        let mut d_act1 = pre1.clone();
        let mut floor = |grad: &mut [f64]| {
            let (g0, rest) = grad.split_at_mut(3 * O0 * D + O0);
            let (g1, rest) = rest.split_at_mut(3 * O1 * O0 + O1);
            let (gh1, gh2) = rest.split_at_mut(HD * O1 + HD);
            let (gh1w, gh1b) = gh1.split_at_mut(HD * O1);
            let (gh2w, gh2b) = gh2.split_at_mut(HD);
            for b in &batches {
                let nodes = b.kids.len();
                let t0 = [&t0[0][..], &t0[1], &t0[2]];
                let t1 = [&t1[0][..], &t1[1], &t1[2]];
                floor_level_fwd::<O0>(c0, t0, &b.feats, &b.kids, &mut pre0, &mut act0);
                floor_level_fwd::<O1>(c1, t1, &act0, &b.kids, &mut pre1, &mut act1);
                d_act1[..nodes * O1].fill(0.0);
                for (s, &y) in b.ys.iter().enumerate() {
                    // Pool, head, and the head's backward.
                    let (mut pooled, mut argmax) = ([f64::NEG_INFINITY; O1], [0usize; O1]);
                    for p in b.ofs[s]..b.ofs[s + 1] {
                        for ch in 0..O1 {
                            if act1[p * O1 + ch] > pooled[ch] {
                                pooled[ch] = act1[p * O1 + ch];
                                argmax[ch] = p;
                            }
                        }
                    }
                    let mut h_pre = floor_mv::<HD>(&w1, &pooled);
                    let mut h_act = [0.0; HD];
                    let mut out = -0.0;
                    for k in 0..HD {
                        h_pre[k] += head1.b[k];
                        h_act[k] = lrelu(h_pre[k]);
                        out += head2.w[k] * h_act[k];
                    }
                    let d_out = (head2.b[0] + out) - y;
                    let mut d_h_pre = [0.0; HD];
                    for k in 0..HD {
                        d_h_pre[k] = head2.w[k] * d_out * lrelu_grad(h_pre[k]);
                        gh2w[k] += d_out * h_act[k];
                    }
                    gh2b[0] += d_out;
                    floor_outer::<HD, O1>(gh1w, &d_h_pre, &pooled);
                    for k in 0..HD {
                        gh1b[k] += d_h_pre[k];
                    }
                    let mut d_pooled = [0.0; O1];
                    floor_mv_t::<HD, O1>(&head1.w, &d_h_pre, &mut d_pooled);
                    for ch in 0..O1 {
                        d_act1[argmax[ch] * O1 + ch] += d_pooled[ch];
                    }
                }
                d_act0[..nodes * O0].fill(0.0);
                let (kids, d_below) = (&b.kids, Some(&mut d_act0[..]));
                floor_level_bwd::<O1, O0>(c1, &act0, kids, &pre1, &d_act1, g1, d_below);
                floor_level_bwd::<O0, D>(c0, &b.feats, kids, &pre0, &d_act0, g0, None);
            }
        };

        // Interleave the two sides per repetition and report medians.
        let (mut kernel_ns, mut floor_ns) = (Vec::new(), Vec::new());
        let (mut gk, mut gf) = (vec![0.0; model.num_params()], vec![0.0; model.num_params()]);
        for _ in 0..REPS {
            gk.fill(0.0);
            let t = Instant::now();
            kernel(&mut gk);
            kernel_ns.push(t.elapsed().as_nanos());
            gf.fill(0.0);
            let t = Instant::now();
            floor(std::hint::black_box(&mut gf));
            floor_ns.push(t.elapsed().as_nanos());
            for (j, (k, f)) in gk.iter().zip(&gf).enumerate() {
                assert_eq!(
                    k.to_bits(),
                    f.to_bits(),
                    "param {j}: kernel {k} vs floor {f}"
                );
            }
        }
        let median = |mut ns: Vec<u128>| {
            ns.sort_unstable();
            ns[ns.len() / 2] as f64 * 1e-9
        };
        let (k, f) = (median(kernel_ns), median(floor_ns));
        println!(
            "node_dim {D}, conv {O0} -> {O1}, head {HD}, batch {BATCH}: kernel {:.0} samples/s, \
             floor {:.0} samples/s, ratio {:.2}",
            n as f64 / k,
            n as f64 / f,
            k / f
        );
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
