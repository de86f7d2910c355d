//! Featurization of `(query, partial plan)` states (§7).
//!
//! A [`Featurizer`] maps any subplan of any query over one database to a
//! fixed-length vector, the input of the value model. Channels follow
//! the paper's §7 state encoding, adapted to a linear model:
//!
//! * **table one-hots** — per catalog table, how many of the query's
//!   aliased references the subplan covers, and the same for the whole
//!   query (so the model sees both "where am I" and "where must I end
//!   up");
//! * **selectivity channels** — per catalog table, the summed estimated
//!   filter selectivity of the *query's* references (the paper's
//!   query-level `[table → selectivity]` vector; plan-independent);
//! * **join-graph edges** — per unordered catalog-table pair, how many
//!   equi-join edges the subplan has absorbed and how many the query has
//!   in total;
//! * **cardinality and cost channels** — log-scaled estimated output
//!   cardinality, `C_out` so far, and expert physical cost of the
//!   subplan;
//! * **operator and shape channels** — join/scan operator counts, tree
//!   depth, plan shape, and the engine mode (bushy hints or not).
//!
//! Besides the **flat** encoding above (one vector per state, consumed
//! by the linear model), the featurizer emits the **tree** encoding for
//! the §6 tree-convolution network: per-node feature rows (operator
//! one-hots, output/input log-cardinalities, selectivity, own operator
//! work, table coverage) in the binary-tree tensor layout
//! ([`Featurizer::featurize_tree`]). One function writes a node's row,
//! for whole trees and for the beam's incremental scorer alike.
//!
//! The flat vector splits into a **head** and a **tail**. The head —
//! channels `0..3t + 2p` for `t` catalog tables and `p` table pairs,
//! the one-hots, selectivities and edges — is a function of the query
//! and the subplan's table mask alone: [`Featurizer::flat_template`]
//! takes the query-level channels once per query, and
//! [`Featurizer::flat_head_into`] adds a mask's coverage counts and
//! absorbed edges on top. The 17-channel tail (cardinality, cost,
//! operator and shape channels) depends on the plan. [`FlatState`] is
//! the tail's incremental form: scan states start the chain and
//! [`Featurizer::flat_join_state`] composes a join's tail from its
//! children in O(1), through the join's expert-cost session
//! ([`Featurizer::pair_cost`]), bit-identical to a from-scratch
//! featurization — the beam's O(1) scoring hook. [`Featurizer::featurize`]
//! writes its head through the same functions.
//!
//! Features are a pure function of `(query, plan, estimates)`: two
//! fingerprint-equal subplans of the same query always featurize
//! identically, and the vector length is constant across queries — the
//! invariants the training loop relies on for experience dedup.

use crate::model::FeatureEncoding;
use balsa_card::CardEstimator;
use balsa_cost::{physical_cost, scan_cost, JoinPairCost, OpWeights, PairCoster, SubtreeCost};
use balsa_query::{JoinOp, Plan, PlanShape, Query, ScanOp, TableMask};
use balsa_storage::Database;
use std::sync::Arc;

/// Number of scalar (non-per-table, non-per-pair) channels: the flat
/// encoding's tail ([`FlatState::tail`]).
const SCALAR_CHANNELS: usize = 17;

/// Number of non-per-table channels in the per-node encoding.
const NODE_SCALAR_CHANNELS: usize = 13;

/// Maps `(query, partial plan)` states to fixed-length feature vectors.
pub struct Featurizer {
    db: Arc<Database>,
    weights: OpWeights,
    bushy_engine: bool,
    num_tables: usize,
}

impl Featurizer {
    /// Creates a featurizer for `db`, using `weights` for the expert
    /// cost channel and `bushy_engine` as the engine-mode channel.
    pub fn new(db: Arc<Database>, weights: OpWeights, bushy_engine: bool) -> Self {
        let num_tables = db.catalog().num_tables();
        Self {
            db,
            weights,
            bushy_engine,
            num_tables,
        }
    }

    /// Number of unordered catalog-table pairs.
    fn num_pairs(&self) -> usize {
        self.num_tables * (self.num_tables.saturating_sub(1)) / 2
    }

    /// The (constant) feature-vector length.
    pub fn dim(&self) -> usize {
        self.head_dim() + SCALAR_CHANNELS
    }

    /// Index of the unordered pair `(a, b)` in the edge channels.
    fn pair_index(&self, a: usize, b: usize) -> usize {
        let (lo, hi) = if a < b { (a, b) } else { (b, a) };
        // Row-major upper triangle: pairs (0,1..T), (1,2..T), ...
        lo * self.num_tables - lo * (lo + 1) / 2 + (hi - lo - 1)
    }

    /// Length of the flat encoding's **head**: channels `0..3t + 2p`,
    /// a function of the query and the subplan's table mask alone
    /// ([`Featurizer::flat_head_into`]). The remaining
    /// [`FlatState::tail`] channels depend on the plan.
    pub fn head_dim(&self) -> usize {
        3 * self.num_tables + 2 * self.num_pairs()
    }

    /// The query-level channels of `query`'s flat head, taken once per
    /// query: the reference counts, summed selectivities and join-graph
    /// edge totals, with the mask-dependent slots left zero.
    pub fn flat_template(&self, query: &Query, est: &dyn CardEstimator) -> FlatTemplate {
        let t = self.num_tables;
        let p = self.num_pairs();
        let mut head = vec![0.0; self.head_dim()];
        for (qt, qtab) in query.tables.iter().enumerate() {
            let tid = qtab.table;
            head[t + tid] += 1.0; // query reference count
            head[2 * t + tid] += est.selectivity(query, qt);
        }
        let mut edges = Vec::with_capacity(query.joins.len());
        for e in &query.joins {
            let ta = query.tables[e.left_qt].table;
            let tb = query.tables[e.right_qt].table;
            if ta == tb {
                continue; // self-join pair has no off-diagonal slot
            }
            let pi = self.pair_index(ta, tb);
            head[3 * t + p + pi] += 1.0; // query-total edges
            edges.push((e.left_qt, e.right_qt, 3 * t + pi));
        }
        FlatTemplate { head, edges }
    }

    /// Writes the flat head of the subplan of `query` covering `mask`
    /// into `x` (length [`Featurizer::head_dim`]): `template`'s
    /// query-level channels, then per-table coverage counts and the
    /// join-graph edges the subplan has absorbed.
    pub fn flat_head_into(
        &self,
        query: &Query,
        template: &FlatTemplate,
        mask: TableMask,
        x: &mut [f64],
    ) {
        x.copy_from_slice(&template.head);
        for qt in mask.iter() {
            x[query.tables[qt].table] += 1.0; // plan coverage count
        }
        for &(a, b, slot) in &template.edges {
            if mask.contains(a) && mask.contains(b) {
                x[slot] += 1.0;
            }
        }
    }

    /// Featurizes subplan `plan` of `query`, reading cardinalities and
    /// selectivities from `est`: the head of `plan`'s mask followed by
    /// the plan's tail. Pure: identical inputs give identical vectors.
    pub fn featurize(&self, query: &Query, plan: &Plan, est: &dyn CardEstimator) -> Vec<f64> {
        let h = self.head_dim();
        let mut x = vec![0.0; self.dim()];
        let template = self.flat_template(query, est);
        self.flat_head_into(query, &template, plan.mask(), &mut x[..h]);
        x[h..].copy_from_slice(&self.flat_tail(query, plan, est));
        x
    }

    /// The plan-dependent tail channels of `plan`, from scratch.
    ///
    /// Cardinality and cost channels are log-scaled. Besides the totals
    /// (`C_out`, expert cost), the *bottleneck* channels — the largest
    /// estimated intermediate and the most expensive single operator —
    /// carry most of the latency signal. Accumulated bottom-up in the
    /// same association order as the incremental composition
    /// ([`Featurizer::flat_join_state`]), so composed and from-scratch
    /// tails are bit-identical.
    fn flat_tail(
        &self,
        query: &Query,
        plan: &Plan,
        est: &dyn CardEstimator,
    ) -> [f64; SCALAR_CHANNELS] {
        let mut x = [0.0; SCALAR_CHANNELS];
        let out_card = est.cardinality(query, plan.mask()).max(0.0);
        let (cout, max_card) = self.card_channels(query, plan, est);
        let mut nodes = Vec::new();
        let expert = physical_cost(&self.db, query, plan, est, &self.weights, Some(&mut nodes));
        let max_node_work = nodes.iter().map(|n| n.work).fold(0.0f64, f64::max);
        x[0] = out_card.ln_1p();
        x[1] = cout.ln_1p();
        x[2] = expert.max(0.0).ln_1p();
        x[15] = max_card.ln_1p();
        x[16] = max_node_work.max(0.0).ln_1p();

        // Operator, shape, and progress channels.
        let (h, m, nl) = plan.join_op_counts();
        let (seq, idx) = plan.scan_op_counts();
        let n_query = query.num_tables() as f64;
        x[3] = plan.num_tables() as f64 / n_query.max(1.0);
        x[4] = plan.num_joins() as f64 / 16.0;
        x[5] = h as f64 / 16.0;
        x[6] = m as f64 / 16.0;
        x[7] = nl as f64 / 16.0;
        x[8] = seq as f64 / 16.0;
        x[9] = idx as f64 / 16.0;
        x[10] = plan.depth() as f64 / 16.0;
        let shape = plan.shape();
        x[11] = (shape == PlanShape::LeftDeep) as u8 as f64;
        x[12] = (shape == PlanShape::Bushy) as u8 as f64;
        x[13] = self.bushy_engine as u8 as f64;
        x[14] = 1.0; // bias channel
        x
    }

    /// `(C_out, max intermediate)` of a subtree, accumulated children
    /// first (`left + right + own`) so composition reproduces it exactly.
    fn card_channels(&self, query: &Query, plan: &Plan, est: &dyn CardEstimator) -> (f64, f64) {
        let own = est.cardinality(query, plan.mask()).max(0.0);
        match plan {
            Plan::Scan { .. } => (own, own),
            Plan::Join { left, right, .. } => {
                let (lc, lm) = self.card_channels(query, left, est);
                let (rc, rm) = self.card_channels(query, right, est);
                (lc + rc + own, lm.max(rm).max(own))
            }
        }
    }

    /// Encodes `plan` under `enc` — the dispatch point for model-specific
    /// state encodings.
    pub fn featurize_enc(
        &self,
        enc: FeatureEncoding,
        query: &Query,
        plan: &Plan,
        est: &dyn CardEstimator,
    ) -> Vec<f64> {
        match enc {
            FeatureEncoding::Flat => self.featurize(query, plan, est),
            FeatureEncoding::Tree => self.featurize_tree(query, plan, est),
        }
    }

    /// The per-node encoding dimension of the tree-tensor layout.
    pub fn node_dim(&self) -> usize {
        NODE_SCALAR_CHANNELS + self.num_tables
    }

    /// Featurizes ONE plan node (not its subtree) into `x` (length
    /// [`Featurizer::node_dim`]): operator one-hots, leaf flag, coverage,
    /// log-cardinality and selectivity of the node's output, input
    /// cardinalities, the node's own estimated operator work, and
    /// per-catalog-table coverage counts. This is the per-node row of the
    /// §6 tree-convolution input — everything is O(tables + edges) per
    /// node, so incremental beam scoring stays O(1) in the subtree size.
    /// `sels[qt]` is the query's `est.selectivity(query, qt)` for every
    /// query table ([`query_selectivities`]), so callers featurizing many
    /// nodes of one query ask the estimator once per table, not once per
    /// node.
    ///
    /// A join's row reads nothing of the join but its operator, both
    /// input masks and whether the right input is an index scan; the
    /// learned scorer featurizes each such key once per batch.
    pub(crate) fn node_features_into(
        &self,
        query: &Query,
        node: &Plan,
        est: &dyn CardEstimator,
        sels: &[f64],
        x: &mut [f64],
    ) {
        debug_assert_eq!(x.len(), self.node_dim());
        x.fill(0.0);
        match node {
            Plan::Join {
                op, left, right, ..
            } => {
                let slot = match op {
                    JoinOp::Hash => 0,
                    JoinOp::Merge => 1,
                    JoinOp::NestLoop => 2,
                };
                x[slot] = 1.0;
                // Input cardinalities and this operator's own estimated
                // work. The children's summaries are synthesized from
                // their output cardinalities alone (no sort orders, zero
                // accumulated work), so this is the node's marginal work
                // with merge sorts always paid — an O(1) approximation of
                // the expert's per-node cost channel.
                let lcard = est.cardinality(query, left.mask()).max(0.0);
                let rcard = est.cardinality(query, right.mask()).max(0.0);
                let bare = |rows: f64| SubtreeCost {
                    work: 0.0,
                    out_rows: rows,
                    sorted_on: Vec::new(),
                };
                let right_index_scan = right.is_index_scan();
                // `join_cost`'s `work` without the output sort orders it
                // would build and this channel would drop.
                let (work, _) = JoinPairCost::new(
                    &self.db,
                    query,
                    left.mask(),
                    right.mask(),
                    est,
                    self.weights,
                )
                .work_out(*op, &bare(lcard), &bare(rcard), right_index_scan);
                x[10] = lcard.ln_1p();
                x[11] = rcard.ln_1p();
                x[12] = work.max(0.0).ln_1p();
            }
            Plan::Scan { qt, op } => {
                let slot = match op {
                    ScanOp::Seq => 3,
                    ScanOp::Index => 4,
                };
                x[slot] = 1.0;
                x[5] = 1.0; // leaf flag
                let sc = scan_cost(&self.db, query, *qt as usize, *op, est, &self.weights);
                x[12] = sc.work.max(0.0).ln_1p();
            }
        }
        let mask = node.mask();
        x[6] = node.num_tables() as f64 / query.num_tables().max(1) as f64;
        x[7] = est.cardinality(query, mask).max(0.0).ln_1p();
        for (qt, qtab) in query.tables.iter().enumerate() {
            if mask.contains(qt) {
                x[8] += sels[qt];
                x[NODE_SCALAR_CHANNELS + qtab.table] += 1.0;
            }
        }
        x[9] = 1.0; // bias channel
    }

    /// Encodes `plan` in the flat binary-tree tensor layout consumed by
    /// [`crate::TreeConvValueModel`]: `[n, d, (left+1, right+1, d
    /// features) * n]`, per-node feature rows in post-order with `0`
    /// marking a missing child, each row written in place. Pure, like
    /// [`Featurizer::featurize`].
    pub fn featurize_tree(&self, query: &Query, plan: &Plan, est: &dyn CardEstimator) -> Vec<f64> {
        let d = self.node_dim();
        let sels = query_selectivities(query, est);
        let nodes = 2 * plan.num_tables() as usize - 1;
        let mut x = Vec::with_capacity(2 + nodes * (2 + d));
        x.extend([nodes as f64, d as f64]);
        plan.visit_tensor(&mut |node, kids| {
            let (l, r) = kids.map_or((0, 0), |(l, r)| (l + 1, r + 1));
            x.extend([l as f64, r as f64]);
            let at = x.len();
            x.resize(at + d, 0.0);
            self.node_features_into(query, node, est, &sels, &mut x[at..]);
        });
        debug_assert_eq!(x.len(), 2 + nodes * (2 + d), "binary plan node count");
        x
    }

    /// Incremental flat-encoding state for a scan leaf — the start of the
    /// O(1)-per-join composition chain ([`Featurizer::flat_join_state`]).
    pub fn flat_scan_state(
        &self,
        query: &Query,
        scan: &Plan,
        est: &dyn CardEstimator,
    ) -> FlatState {
        let (qt, op) = match scan {
            Plan::Scan { qt, op } => (*qt as usize, *op),
            Plan::Join { .. } => panic!("flat_scan_state on a join"),
        };
        let card = est.cardinality(query, scan.mask()).max(0.0);
        let expert = scan_cost(&self.db, query, qt, op, est, &self.weights);
        FlatState {
            tail: self.flat_tail(query, scan, est),
            max_node_work: expert.work,
            cout: card,
            max_card: card,
            expert,
            depth: 1,
            left_deep: true,
            right_deep: true,
            is_leaf: true,
        }
    }

    /// Opens the expert-cost session of joining `lmask` with `rmask`
    /// under this featurizer's weights — the session
    /// [`Featurizer::flat_join_state`] costs a join's expert channel
    /// through. Callers composing many joins of one orientation share
    /// one session.
    pub fn pair_cost(
        &self,
        query: &Query,
        lmask: TableMask,
        rmask: TableMask,
        est: &dyn CardEstimator,
    ) -> JoinPairCost {
        JoinPairCost::new(&self.db, query, lmask, rmask, est, self.weights)
    }

    /// Composes the flat-encoding state of a join from its children's
    /// states without re-walking the subtree: O(1) per candidate instead
    /// of O(subtree). `pair` is the join's
    /// [`Featurizer::pair_cost`] session (left mask, right mask), which
    /// also supplies the output cardinality. The tail is bit-identical
    /// to [`Featurizer::featurize`]'s on the same join; the head is the
    /// join mask's ([`Featurizer::flat_head_into`]).
    pub fn flat_join_state(
        &self,
        query: &Query,
        join: &Plan,
        l: &FlatState,
        r: &FlatState,
        pair: &JoinPairCost,
    ) -> FlatState {
        let (op, right, mask) = match join {
            Plan::Join {
                op, right, mask, ..
            } => (*op, right, *mask),
            Plan::Scan { .. } => panic!("flat_join_state on a scan"),
        };
        // The engine-mode and bias channels carry over from either
        // child; start from the left's.
        let mut x = l.tail;

        // Cardinality and cost channels, composed in the same association
        // order as `featurize`'s bottom-up accumulation.
        let expert = pair.summary(op, &l.expert, &r.expert, right.is_index_scan());
        let out_card = expert.out_rows;
        let cout = l.cout + r.cout + out_card;
        let max_card = l.max_card.max(r.max_card).max(out_card);
        let node_work = expert.work - l.expert.work - r.expert.work;
        let max_node_work = l.max_node_work.max(r.max_node_work).max(node_work);
        x[0] = out_card.ln_1p();
        x[1] = cout.ln_1p();
        x[2] = expert.work.max(0.0).ln_1p();
        x[15] = max_card.ln_1p();
        x[16] = max_node_work.max(0.0).ln_1p();

        // Operator, shape, and progress channels. Counts divide by 16
        // (exact dyadic), so sums of children's channels equal the
        // from-scratch counts.
        let n_query = query.num_tables() as f64;
        let num_tables = mask.count();
        x[3] = num_tables as f64 / n_query.max(1.0);
        x[4] = num_tables.saturating_sub(1) as f64 / 16.0;
        let counts = 5..=9;
        for ((slot, lc), rc) in x[counts.clone()]
            .iter_mut()
            .zip(&l.tail[counts.clone()])
            .zip(&r.tail[counts])
        {
            *slot = lc + rc;
        }
        let op_slot = match op {
            JoinOp::Hash => 5,
            JoinOp::Merge => 6,
            JoinOp::NestLoop => 7,
        };
        x[op_slot] += 1.0 / 16.0;
        let depth = l.depth.max(r.depth) + 1;
        x[10] = depth as f64 / 16.0;
        // Shape flags compose exactly like `Plan::shape`'s recursion:
        // left-deep when the right child is a leaf atop a left-deep
        // spine; bushy when neither deep form holds (left-deep wins when
        // both hold, as in `PlanShape`).
        let left_deep = r.is_leaf && l.left_deep;
        let right_deep = l.is_leaf && r.right_deep;
        x[11] = left_deep as u8 as f64;
        x[12] = (!left_deep && !right_deep) as u8 as f64;

        FlatState {
            tail: x,
            cout,
            max_card,
            max_node_work,
            expert,
            depth,
            left_deep,
            right_deep,
            is_leaf: false,
        }
    }

    /// Builds a [`FlatState`] for an arbitrary subtree from scratch (the
    /// fallback when no composed child states are available).
    pub fn flat_state(&self, query: &Query, plan: &Plan, est: &dyn CardEstimator) -> FlatState {
        match plan {
            Plan::Scan { .. } => self.flat_scan_state(query, plan, est),
            Plan::Join { left, right, .. } => {
                let l = self.flat_state(query, left, est);
                let r = self.flat_state(query, right, est);
                let pair = self.pair_cost(query, left.mask(), right.mask(), est);
                self.flat_join_state(query, plan, &l, &r, &pair)
            }
        }
    }
}

/// The query-level channels of one query's flat head
/// ([`Featurizer::flat_template`]): everything of the head but the
/// per-table coverage counts and absorbed edges, which
/// [`Featurizer::flat_head_into`] adds for a mask.
#[derive(Debug, Clone, Default)]
pub struct FlatTemplate {
    /// The head with its mask-dependent slots zero.
    head: Vec<f64>,
    /// `(left qt, right qt, absorbed-edge slot)` of every join edge
    /// between two different catalog tables, in edge order.
    edges: Vec<(usize, usize, usize)>,
}

/// `est.selectivity(query, qt)` for every table of `query`, indexed by
/// `qt` — the per-node encoding's selectivity inputs, which depend on the
/// query alone.
pub(crate) fn query_selectivities(query: &Query, est: &dyn CardEstimator) -> Vec<f64> {
    (0..query.num_tables())
        .map(|qt| est.selectivity(query, qt))
        .collect()
}

/// The incremental state of the flat encoding for one subtree: the
/// plan-dependent tail channels plus the compositional scalars the next
/// join up needs. The head channels are not carried: they are a function
/// of the query and the subtree's mask ([`Featurizer::flat_head_into`]),
/// shared by every subtree over that mask. Threaded through beam search
/// via the [`balsa_cost::ScoredTree::ext`] child hook, it turns
/// per-candidate featurization from O(subtree) into O(1).
#[derive(Debug, Clone)]
pub struct FlatState {
    /// The subtree's tail channels: [`Featurizer::featurize`] from
    /// [`Featurizer::head_dim`] on, exactly.
    pub tail: [f64; SCALAR_CHANNELS],
    /// Summed estimated cardinality over all nodes (`C_out`).
    cout: f64,
    /// Largest estimated intermediate cardinality.
    max_card: f64,
    /// Most expensive single operator (expert work).
    max_node_work: f64,
    /// Expert physical summary of the subtree (compositional).
    expert: SubtreeCost,
    /// Tree height.
    depth: u32,
    /// Whether every join's right input (so far) is a base table.
    left_deep: bool,
    /// Whether every join's left input (so far) is a base table.
    right_deep: bool,
    /// Whether this subtree is a single scan.
    is_leaf: bool,
}

/// What the flat scorer's floor benchmark times the tail composition's
/// parts on.
#[cfg(test)]
impl FlatState {
    /// The expert summary the join's pair session reads.
    pub(crate) fn expert(&self) -> &SubtreeCost {
        &self.expert
    }

    /// The five values whose `ln_1p` fills tail channels 0, 1, 2, 15
    /// and 16.
    pub(crate) fn log_inputs(&self) -> [f64; 5] {
        [
            self.expert.out_rows,
            self.cout,
            self.expert.work.max(0.0),
            self.max_card,
            self.max_node_work.max(0.0),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use balsa_card::HistogramEstimator;
    use balsa_query::workloads::job_workload;
    use balsa_query::{JoinOp, ScanOp};
    use balsa_storage::{mini_imdb, DataGenConfig};

    fn fixture() -> (Arc<Database>, balsa_query::Workload) {
        let db = Arc::new(mini_imdb(DataGenConfig {
            scale: 0.02,
            ..Default::default()
        }));
        let w = job_workload(db.catalog(), 7);
        (db, w)
    }

    #[test]
    fn pair_index_is_a_bijection() {
        let (db, _) = fixture();
        let f = Featurizer::new(db, OpWeights::postgres_like(), true);
        let t = f.num_tables;
        let mut seen = vec![false; f.num_pairs()];
        for a in 0..t {
            for b in (a + 1)..t {
                let i = f.pair_index(a, b);
                assert_eq!(i, f.pair_index(b, a), "order-independent");
                assert!(!seen[i], "pair ({a},{b}) collides at {i}");
                seen[i] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn length_is_stable_across_queries_and_subplans() {
        let (db, w) = fixture();
        let f = Featurizer::new(db.clone(), OpWeights::postgres_like(), true);
        let est = HistogramEstimator::new(&db);
        let d = f.dim();
        for q in w.queries.iter().take(10) {
            let full = Plan::scan(0, ScanOp::Seq);
            assert_eq!(f.featurize(q, &full, &est).len(), d, "{}", q.name);
            // A two-table join subplan, when the graph allows one.
            if let Some(e) = q.joins.first() {
                let j = Plan::join(
                    JoinOp::Hash,
                    Plan::scan(e.left_qt, ScanOp::Seq),
                    Plan::scan(e.right_qt, ScanOp::Seq),
                );
                assert_eq!(f.featurize(q, &j, &est).len(), d);
            }
        }
    }

    #[test]
    fn fingerprint_equal_subplans_featurize_identically() {
        let (db, w) = fixture();
        let f = Featurizer::new(db.clone(), OpWeights::postgres_like(), true);
        let est = HistogramEstimator::new(&db);
        let q = w.queries.iter().find(|q| q.num_tables() >= 3).unwrap();
        let e = q.joins[0];
        let build = || {
            Plan::join(
                JoinOp::Merge,
                Plan::scan(e.left_qt, ScanOp::Seq),
                Plan::scan(e.right_qt, ScanOp::Index),
            )
        };
        let (a, b) = (build(), build());
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_eq!(f.featurize(q, &a, &est), f.featurize(q, &b, &est));
    }

    #[test]
    fn features_distinguish_operators_and_coverage() {
        let (db, w) = fixture();
        let f = Featurizer::new(db.clone(), OpWeights::postgres_like(), true);
        let est = HistogramEstimator::new(&db);
        let q = w.queries.iter().find(|q| q.num_tables() >= 3).unwrap();
        let e = q.joins[0];
        let hash = Plan::join(
            JoinOp::Hash,
            Plan::scan(e.left_qt, ScanOp::Seq),
            Plan::scan(e.right_qt, ScanOp::Seq),
        );
        let merge = Plan::join(
            JoinOp::Merge,
            Plan::scan(e.left_qt, ScanOp::Seq),
            Plan::scan(e.right_qt, ScanOp::Seq),
        );
        assert_ne!(f.featurize(q, &hash, &est), f.featurize(q, &merge, &est));
        let leaf = Plan::scan(e.left_qt, ScanOp::Seq);
        assert_ne!(f.featurize(q, &hash, &est), f.featurize(q, &leaf, &est));
    }

    /// The O(1) composition chain ([`Featurizer::flat_join_state`]),
    /// behind the head of each subtree's mask, is **bit-identical** to
    /// from-scratch featurization across random plans of both shapes —
    /// the invariant that lets the beam's incremental scoring path
    /// replace per-candidate re-walks. Compared through `to_bits`, so a
    /// `-0.0` where `featurize` writes `0.0` fails.
    #[test]
    fn composed_flat_features_equal_from_scratch() {
        use balsa_search::{try_random_plan, SearchMode};
        use rand::rngs::SmallRng;
        use rand::SeedableRng;
        let (db, w) = fixture();
        let f = Featurizer::new(db.clone(), OpWeights::postgres_like(), true);
        let est = HistogramEstimator::new(&db);
        let mut rng = SmallRng::seed_from_u64(99);
        for q in w.queries.iter().take(12) {
            let template = f.flat_template(q, &est);
            for mode in [SearchMode::Bushy, SearchMode::LeftDeep] {
                let plan = try_random_plan(&db, q, mode, &mut rng).expect("connected query");
                // Compose bottom-up over every subtree and compare each
                // level against the from-scratch encode.
                let check = |p: &Plan, st: &FlatState| {
                    let mut x = vec![0.0; f.head_dim()];
                    f.flat_head_into(q, &template, p.mask(), &mut x);
                    x.extend_from_slice(&st.tail);
                    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                    assert_eq!(
                        bits(&x),
                        bits(&f.featurize(q, p, &est)),
                        "{}: composed != scratch for {p}",
                        q.name
                    );
                };
                fn compose(
                    f: &Featurizer,
                    q: &Query,
                    p: &Plan,
                    est: &dyn CardEstimator,
                    check: &dyn Fn(&Plan, &FlatState),
                ) -> FlatState {
                    let st = match p {
                        Plan::Scan { .. } => f.flat_scan_state(q, p, est),
                        Plan::Join { left, right, .. } => {
                            let l = compose(f, q, left, est, check);
                            let r = compose(f, q, right, est, check);
                            let pair = f.pair_cost(q, left.mask(), right.mask(), est);
                            f.flat_join_state(q, p, &l, &r, &pair)
                        }
                    };
                    check(p, &st);
                    st
                }
                compose(&f, q, &plan, &est, &check);
            }
        }
    }

    /// One node's row on its own: `node_features_into` with the query's
    /// selectivities taken for this call.
    fn node_features(
        f: &Featurizer,
        query: &Query,
        node: &Plan,
        est: &dyn CardEstimator,
    ) -> Vec<f64> {
        let mut x = vec![0.0; f.node_dim()];
        let sels = query_selectivities(query, est);
        f.node_features_into(query, node, est, &sels, &mut x);
        x
    }

    /// The tree encoding is self-describing, sized `2 + n(2 + d)`, and
    /// its per-node rows match `node_features` in post-order.
    #[test]
    fn tree_encoding_layout_and_node_rows() {
        let (db, w) = fixture();
        let f = Featurizer::new(db.clone(), OpWeights::postgres_like(), true);
        let est = HistogramEstimator::new(&db);
        let q = w.queries.iter().find(|q| q.num_tables() >= 3).unwrap();
        let e = q.joins[0];
        let plan = Plan::join(
            JoinOp::Hash,
            Plan::scan(e.left_qt, ScanOp::Seq),
            Plan::scan(e.right_qt, ScanOp::Index),
        );
        let x = f.featurize_tree(q, &plan, &est);
        let d = f.node_dim();
        assert_eq!(x[0] as usize, 3);
        assert_eq!(x[1] as usize, d);
        assert_eq!(x.len(), 2 + 3 * (2 + d));
        let mut nodes = Vec::new();
        plan.visit_tensor(&mut |node, _| nodes.push(node_features(&f, q, node, &est)));
        for (i, node) in nodes.iter().enumerate() {
            let row = &x[2 + i * (2 + d) + 2..2 + i * (2 + d) + 2 + d];
            assert_eq!(row, &node[..], "node {i}");
            assert!(row.iter().all(|v| v.is_finite()));
        }
        // Root child slots point at the two leaves.
        let root_rec = 2 + 2 * (2 + d);
        assert_eq!((x[root_rec], x[root_rec + 1]), (1.0, 2.0));
        // Operator one-hots distinguish scan kinds and the join.
        let (seq, idx, join) = (&nodes[0], &nodes[1], &nodes[2]);
        assert_eq!((seq[3], seq[4], seq[5]), (1.0, 0.0, 1.0));
        assert_eq!((idx[3], idx[4], idx[5]), (0.0, 1.0, 1.0));
        assert_eq!((join[0], join[5]), (1.0, 0.0));
    }

    /// `featurize_enc` dispatches to the two encodings.
    #[test]
    fn featurize_enc_dispatch() {
        use crate::model::FeatureEncoding;
        let (db, w) = fixture();
        let f = Featurizer::new(db.clone(), OpWeights::postgres_like(), true);
        let est = HistogramEstimator::new(&db);
        let q = &w.queries[0];
        let p = Plan::scan(0, ScanOp::Seq);
        assert_eq!(
            f.featurize_enc(FeatureEncoding::Flat, q, &p, &est),
            f.featurize(q, &p, &est)
        );
        assert_eq!(
            f.featurize_enc(FeatureEncoding::Tree, q, &p, &est),
            f.featurize_tree(q, &p, &est)
        );
    }
}
