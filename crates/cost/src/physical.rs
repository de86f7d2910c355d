//! Physical per-operator work formulas.
//!
//! These formulas are the single source of truth for "how much work does
//! this physical operator do", shared by:
//!
//! * the **execution engine** (`balsa-engine`), which evaluates them on
//!   *true* cardinalities to produce ground-truth latencies, and
//! * the **expert cost model** ([`crate::ExpertCostModel`]), which
//!   evaluates them on *estimated* cardinalities — exactly the classical
//!   optimizer architecture (accurate model × inaccurate estimates).
//!
//! Work is measured in abstract tuple-operations; an engine profile
//! converts work to seconds.

use crate::PairCoster as _;
use balsa_card::CardEstimator;
use balsa_query::{JoinEdge, JoinOp, Plan, Query, ScanOp, TableMask};
use balsa_storage::Database;

/// Ceiling on any cost/work value produced by the physical formulas.
///
/// Cardinality products can overflow `f64` toward `inf` (a 25-table
/// worst case multiplies ~1e5-row relations 24 times), and `inf - inf`
/// or `0 * inf` downstream silently produces NaN — which then poisons
/// Pareto dominance: the `f64::min` fold in the DP's dominance
/// threshold drops NaN candidates nondeterministically. Every
/// accumulation in [`scan_cost`] / [`join_cost`] / [`JoinPairCost`]
/// therefore clamps through [`clamp_cost`]: values at or below the
/// ceiling pass through **bit-unchanged** (normal JOB costs are ~1e9,
/// twenty-one orders of magnitude below), while `inf`, NaN, and
/// anything above saturate to this finite, totally-ordered worst cost.
/// The independent plan verifier rejects any cost above this ceiling.
pub const COST_CEILING: f64 = 1e30;

/// Saturating cost guard: identity for `x <= COST_CEILING`, otherwise
/// (including `inf` and NaN, which fail the comparison) the ceiling.
#[inline]
pub fn clamp_cost(x: f64) -> f64 {
    if x <= COST_CEILING {
        x
    } else {
        COST_CEILING
    }
}

/// Per-operator work weights. Two presets model the two engines of the
/// paper's evaluation (§8.1).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpWeights {
    /// Per tuple scanned sequentially (includes filter evaluation).
    pub seq_tuple: f64,
    /// Fixed cost of descending an index (per lookup).
    pub index_lookup: f64,
    /// Per tuple fetched through an index.
    pub index_tuple: f64,
    /// Per tuple on the hash-join build side.
    pub hash_build: f64,
    /// Per tuple on the hash-join probe side.
    pub hash_probe: f64,
    /// Per input tuple consumed by a merge join.
    pub merge_tuple: f64,
    /// Per tuple × log2(n) when an input must be sorted for a merge join.
    pub sort_tuple_log: f64,
    /// Per (outer × inner) tuple pair for an unindexed nested-loop join.
    pub nl_pair: f64,
    /// Per outer tuple × log2(inner) for an index nested-loop join.
    pub nl_index_outer: f64,
    /// Per output tuple materialized by any join.
    pub output_tuple: f64,
}

impl OpWeights {
    /// PostgreSQL-flavoured weights: cheap index nested loops, moderate
    /// hash joins, sorts hurt.
    pub fn postgres_like() -> Self {
        Self {
            seq_tuple: 1.0,
            index_lookup: 40.0,
            index_tuple: 2.0,
            hash_build: 1.6,
            hash_probe: 1.0,
            merge_tuple: 0.8,
            sort_tuple_log: 0.25,
            nl_pair: 0.25,
            nl_index_outer: 0.35,
            output_tuple: 0.3,
        }
    }

    /// Commercial-engine-flavoured weights: highly optimized hash joins
    /// and scans, relatively expensive nested loops — a different
    /// operator-preference landscape for the agent to learn (§8.6).
    pub fn commdb_like() -> Self {
        Self {
            seq_tuple: 0.55,
            index_lookup: 60.0,
            index_tuple: 2.5,
            hash_build: 0.9,
            hash_probe: 0.5,
            merge_tuple: 0.6,
            sort_tuple_log: 0.18,
            nl_pair: 0.5,
            nl_index_outer: 0.9,
            output_tuple: 0.25,
        }
    }
}

/// Cost/cardinality report for one plan node.
#[derive(Debug, Clone, Copy)]
pub struct NodeCost {
    /// Tables covered by the node.
    pub mask: TableMask,
    /// Work performed by this node alone.
    pub work: f64,
    /// Output cardinality of the node.
    pub out_rows: f64,
}

/// Costed summary of a plan subtree.
///
/// This is the compositional currency of the planning layer: the DP
/// enumerator and beam search build candidate joins by combining child
/// summaries through [`join_cost`] instead of re-costing whole trees,
/// and [`physical_cost`] itself is defined in terms of the same two
/// builders, so planner scores and engine charges can never diverge.
#[derive(Debug, Clone, Default)]
pub struct SubtreeCost {
    /// Total work of the subtree (this node plus all descendants).
    pub work: f64,
    /// Output cardinality of the subtree.
    pub out_rows: f64,
    /// `(qt, col)` pairs the output is sorted on (equivalence class of the
    /// last order-producing operator), used to elide merge-join sorts.
    pub sorted_on: Vec<(usize, usize)>,
}

/// Costs a scan leaf of query-table `qt` with operator `op`.
pub fn scan_cost(
    db: &Database,
    q: &Query,
    qt: usize,
    op: ScanOp,
    est: &dyn CardEstimator,
    w: &OpWeights,
) -> SubtreeCost {
    let tid = q.tables[qt].table;
    let base = db.stats(tid).num_rows as f64;
    let out = est.cardinality(q, TableMask::single(qt)).max(0.0);
    let (work, sorted_on) = match op {
        ScanOp::Seq => (w.seq_tuple * base, Vec::new()),
        ScanOp::Index => {
            // An index scan drives through whichever index serves the
            // access (filter column or join key); its output is ordered
            // by that key. We expose the full set of indexed columns as
            // candidate orders; the parent join picks the one it needs.
            let sorted: Vec<(usize, usize)> = db
                .catalog()
                .table(tid)
                .columns
                .iter()
                .enumerate()
                .filter(|(_, c)| c.indexed)
                .map(|(ci, _)| (qt, ci))
                .collect();
            let work = w.index_lookup * (base + 2.0).log2() + w.index_tuple * out;
            (work, sorted)
        }
    };
    SubtreeCost {
        work: clamp_cost(work),
        out_rows: out,
        sorted_on,
    }
}

/// Costs a join of `left` and `right` (whose summaries are `lc`/`rc`)
/// under operator `op`, returning the summary of the combined subtree
/// (`work` includes both children).
///
/// A one-shot [`JoinPairCost`] session and its
/// [`crate::PairCoster::summary`]: the expert model's join formula is
/// written once, in the session that planner hot loops open per
/// `(left-mask, right-mask)` orientation.
// The argument list is the full join-costing context; bundling it into a
// struct would force every planner hot loop to build one per candidate.
#[allow(clippy::too_many_arguments)]
pub fn join_cost(
    db: &Database,
    q: &Query,
    op: JoinOp,
    left: &Plan,
    lc: &SubtreeCost,
    right: &Plan,
    rc: &SubtreeCost,
    est: &dyn CardEstimator,
    w: &OpWeights,
) -> SubtreeCost {
    JoinPairCost::new(db, q, left.mask(), right.mask(), est, *w).summary(
        op,
        lc,
        rc,
        right.is_index_scan(),
    )
}

/// Everything about costing the join of one `(left-mask, right-mask)`
/// orientation that does **not** depend on the particular child
/// entries: the output cardinality, the crossing-edge merge keys (and
/// the merge output-order list), and whether a single-table right side
/// could drive an index nested loop.
///
/// Planner inner loops open one context per csg–cmp orientation and
/// cost every `(left entry, right entry, operator)` candidate through
/// it allocation-free; [`join_cost`] itself is defined on top, so the
/// two paths cannot diverge.
pub struct JoinPairCost {
    out: f64,
    /// `(left-side key, right-side key)` of each crossing edge, in edge
    /// order.
    keys: Vec<((usize, usize), (usize, usize))>,
    /// Merge output orders (left keys then right keys), materialized on
    /// first use so one-shot hash/NL costings never pay for it.
    merge_sorted: std::cell::OnceCell<Vec<(usize, usize)>>,
    /// Whether a right-side index scan of this orientation has an index
    /// on a crossing join column (single-table right sides only).
    nl_indexable: bool,
    /// `log2(inner_base + 2)` of the single right table (unused when
    /// the right side is not a single table).
    nl_log_inner: f64,
    /// Last `(rows, sort_work)` computed for the left / right merge
    /// input — the `log2` in the sort formula is the hot loop's only
    /// libm call, and each side's rows repeat across the opposite
    /// side's entries and the operator loop.
    lsort: std::cell::Cell<(f64, f64)>,
    rsort: std::cell::Cell<(f64, f64)>,
    w: OpWeights,
}

impl JoinPairCost {
    /// Opens the context for joining `lmask` with `rmask` (disjoint,
    /// connected by at least one edge).
    pub fn new(
        db: &Database,
        q: &Query,
        lmask: TableMask,
        rmask: TableMask,
        est: &dyn CardEstimator,
        w: OpWeights,
    ) -> Self {
        let out = est.cardinality(q, lmask.union(rmask)).max(0.0);
        let key_of = |e: &JoinEdge, side_mask: TableMask| -> (usize, usize) {
            if side_mask.contains(e.left_qt) {
                (e.left_qt, e.left_col)
            } else {
                (e.right_qt, e.right_col)
            }
        };
        let mut keys = Vec::new();
        for e in &q.joins {
            if e.crosses(lmask, rmask) {
                keys.push((key_of(e, lmask), key_of(e, rmask)));
            }
        }
        // The right-side crossing keys are exactly the (qt, col)
        // endpoints an index nested loop would drive through.
        let (nl_indexable, inner_base) = match (rmask.count(), rmask.lowest()) {
            (1, Some(qt)) => {
                let tid = q.tables[qt].table;
                let indexable = keys
                    .iter()
                    .any(|&(_, (kqt, col))| kqt == qt && db.catalog().is_indexed(tid, col));
                (indexable, db.stats(tid).num_rows as f64)
            }
            _ => (false, 0.0),
        };
        Self {
            out,
            keys,
            merge_sorted: std::cell::OnceCell::new(),
            nl_indexable,
            nl_log_inner: (inner_base + 2.0).log2(),
            lsort: std::cell::Cell::new((f64::NAN, 0.0)),
            rsort: std::cell::Cell::new((f64::NAN, 0.0)),
            w,
        }
    }

    /// `sort_tuple_log · rows · log2(rows + 2)`, memoized on `cell` for
    /// repeated row counts.
    #[inline]
    fn sort_work(&self, cell: &std::cell::Cell<(f64, f64)>, rows: f64) -> f64 {
        let (cached_rows, cached) = cell.get();
        if cached_rows == rows {
            return cached;
        }
        let v = self.w.sort_tuple_log * rows * (rows + 2.0).log2();
        cell.set((rows, v));
        v
    }

    /// `(work, out_rows)` of joining children with summaries `lc`/`rc`
    /// under `op`; `work` includes both children. `right_index_scan`
    /// says whether the right child is literally an index-scan leaf
    /// (the one per-candidate fact the masks cannot carry).
    pub fn work_out(
        &self,
        op: JoinOp,
        lc: &SubtreeCost,
        rc: &SubtreeCost,
        right_index_scan: bool,
    ) -> (f64, f64) {
        let w = &self.w;
        let out = self.out;
        let work = match op {
            JoinOp::Hash => {
                // Build on the right, probe from the left.
                w.hash_build * rc.out_rows + w.hash_probe * lc.out_rows + w.output_tuple * out
            }
            JoinOp::Merge => {
                // Sort either input unless it already streams in the
                // join key's order.
                let l_sorted = self.keys.iter().any(|(lk, _)| lc.sorted_on.contains(lk));
                let r_sorted = self.keys.iter().any(|(_, rk)| rc.sorted_on.contains(rk));
                let mut wk = w.merge_tuple * (lc.out_rows + rc.out_rows) + w.output_tuple * out;
                if !l_sorted {
                    wk += self.sort_work(&self.lsort, lc.out_rows);
                }
                if !r_sorted {
                    wk += self.sort_work(&self.rsort, rc.out_rows);
                }
                wk
            }
            JoinOp::NestLoop => {
                // Index nested loop when the inner (right) side is a
                // base *index* scan with an index on some join column.
                // A sequential inner forces re-scanning the table per
                // outer tuple — the quadratic case.
                if self.nl_indexable && right_index_scan {
                    w.nl_index_outer * lc.out_rows * self.nl_log_inner
                        + w.index_tuple * out
                        + w.output_tuple * out
                } else {
                    // The disaster case: quadratic pairing.
                    w.nl_pair * lc.out_rows * rc.out_rows + w.output_tuple * out
                }
            }
        };
        // Checked accumulation: saturate to COST_CEILING instead of
        // letting `inf`/NaN escape into Pareto dominance comparisons.
        (clamp_cost(lc.work + rc.work + work), out)
    }
}

impl crate::PairCoster for JoinPairCost {
    fn work_out(
        &self,
        op: JoinOp,
        lc: &SubtreeCost,
        rc: &SubtreeCost,
        right_index_scan: bool,
    ) -> (f64, f64) {
        JoinPairCost::work_out(self, op, lc, rc, right_index_scan)
    }

    /// Merge joins emit the session's key list, nested loops preserve
    /// the outer (left) input's order, hash joins none.
    fn order_source(&self, op: JoinOp) -> crate::OrderSource {
        match op {
            JoinOp::Hash => crate::OrderSource::Empty,
            JoinOp::NestLoop => crate::OrderSource::LeftInput,
            JoinOp::Merge => crate::OrderSource::Pair,
        }
    }

    fn pair_sorted_on(&self) -> &[(usize, usize)] {
        self.merge_sorted.get_or_init(|| {
            self.keys
                .iter()
                .map(|&(lk, _)| lk)
                .chain(self.keys.iter().map(|&(_, rk)| rk))
                .collect()
        })
    }
}

/// Computes the physical cost of `plan`, appending per-node reports to
/// `nodes` (pass `None` when only the total is needed).
///
/// Cardinalities come from `est`, which may be an estimator or the true
/// oracle. Index availability comes from the catalog in `db`. Defined
/// entirely in terms of [`scan_cost`] and [`join_cost`].
pub fn physical_cost(
    db: &Database,
    query: &Query,
    plan: &Plan,
    est: &dyn CardEstimator,
    w: &OpWeights,
    mut nodes: Option<&mut Vec<NodeCost>>,
) -> f64 {
    fn rec(
        db: &Database,
        q: &Query,
        p: &Plan,
        est: &dyn CardEstimator,
        w: &OpWeights,
        nodes: &mut Option<&mut Vec<NodeCost>>,
    ) -> SubtreeCost {
        match p {
            Plan::Scan { qt, op } => {
                let qt = *qt as usize;
                let s = scan_cost(db, q, qt, *op, est, w);
                if let Some(ns) = nodes.as_deref_mut() {
                    ns.push(NodeCost {
                        mask: TableMask::single(qt),
                        work: s.work,
                        out_rows: s.out_rows,
                    });
                }
                s
            }
            Plan::Join {
                op,
                left,
                right,
                mask,
                ..
            } => {
                let l = rec(db, q, left, est, w, nodes);
                let r = rec(db, q, right, est, w, nodes);
                let s = join_cost(db, q, *op, left, &l, right, &r, est, w);
                if let Some(ns) = nodes.as_deref_mut() {
                    ns.push(NodeCost {
                        mask: *mask,
                        work: s.work - l.work - r.work,
                        out_rows: s.out_rows,
                    });
                }
                s
            }
        }
    }
    rec(db, query, plan, est, w, &mut nodes).work
}

#[cfg(test)]
mod tests {
    use super::*;
    use balsa_query::{JoinEdge, QueryTable};
    use balsa_storage::{mini_imdb, DataGenConfig};

    fn fixture() -> (Database, Query) {
        let db = mini_imdb(DataGenConfig {
            scale: 0.1,
            ..Default::default()
        });
        let t = db.catalog().table_id("title").unwrap();
        let mc = db.catalog().table_id("movie_companies").unwrap();
        let movie_id = db.catalog().table(mc).column_id("movie_id").unwrap();
        let q = Query {
            id: 0,
            name: "j".into(),
            template: 0,
            tables: vec![
                QueryTable {
                    table: t,
                    alias: "t".into(),
                },
                QueryTable {
                    table: mc,
                    alias: "mc".into(),
                },
            ],
            joins: vec![JoinEdge {
                left_qt: 0,
                left_col: 0,
                right_qt: 1,
                right_col: movie_id,
            }],
            filters: vec![],
        };
        (db, q)
    }

    fn est(db: &Database) -> balsa_card::HistogramEstimator<'_> {
        balsa_card::HistogramEstimator::new(db)
    }

    #[test]
    fn unindexed_nl_is_disastrous() {
        let (db, q) = fixture();
        let w = OpWeights::postgres_like();
        let e = est(&db);
        let hash = Plan::join(
            JoinOp::Hash,
            Plan::scan(0, ScanOp::Seq),
            Plan::scan(1, ScanOp::Seq),
        );
        // Sequential inner: re-scan per outer tuple -> quadratic pairing.
        let nl_bad = Plan::join(
            JoinOp::NestLoop,
            Plan::scan(1, ScanOp::Seq),
            Plan::scan(0, ScanOp::Seq),
        );
        // Index scan on title.id (the PK the edge targets): index NL.
        let nl_good = Plan::join(
            JoinOp::NestLoop,
            Plan::scan(1, ScanOp::Seq),
            Plan::scan(0, ScanOp::Index),
        );
        let ch = physical_cost(&db, &q, &hash, &e, &w, None);
        let cb = physical_cost(&db, &q, &nl_bad, &e, &w, None);
        let cg = physical_cost(&db, &q, &nl_good, &e, &w, None);
        assert!(ch > 0.0 && cb > 0.0 && cg > 0.0);
        assert!(
            cg * 10.0 < cb,
            "index NL {cg} should be far below pair NL {cb}"
        );
        assert!(ch * 10.0 < cb, "hash {ch} should be far below pair NL {cb}");
    }

    #[test]
    fn index_nl_requires_seq_vs_index_distinction() {
        let (db, q) = fixture();
        let w = OpWeights::postgres_like();
        let e = est(&db);
        // Right side = mc.movie_id (indexed FK): index scan enables cheap NL.
        let nl_idx = Plan::join(
            JoinOp::NestLoop,
            Plan::scan(0, ScanOp::Seq),
            Plan::scan(1, ScanOp::Index),
        );
        let nl_seq = Plan::join(
            JoinOp::NestLoop,
            Plan::scan(0, ScanOp::Seq),
            Plan::scan(1, ScanOp::Seq),
        );
        let ci = physical_cost(&db, &q, &nl_idx, &e, &w, None);
        let cs = physical_cost(&db, &q, &nl_seq, &e, &w, None);
        // Only the index-scan inner qualifies as an index NL; the
        // sequential inner pays the quadratic pairing cost.
        let quad = w.nl_pair
            * db.stats(q.tables[0].table).num_rows as f64
            * db.stats(q.tables[1].table).num_rows as f64;
        assert!(ci < quad / 4.0, "index NL {ci} vs quad {quad}");
        assert!(cs >= quad, "seq NL {cs} should pay quadratic {quad}");
    }

    #[test]
    fn merge_join_sort_elision_with_index_scans() {
        let (db, q) = fixture();
        let w = OpWeights::postgres_like();
        let e = est(&db);
        let merge_sorted = Plan::join(
            JoinOp::Merge,
            Plan::scan(0, ScanOp::Index),
            Plan::scan(1, ScanOp::Index),
        );
        let merge_unsorted = Plan::join(
            JoinOp::Merge,
            Plan::scan(0, ScanOp::Seq),
            Plan::scan(1, ScanOp::Seq),
        );
        let cs = physical_cost(&db, &q, &merge_sorted, &e, &w, None);
        let cu = physical_cost(&db, &q, &merge_unsorted, &e, &w, None);
        assert!(cs < cu, "pre-sorted merge {cs} should beat sort-merge {cu}");
    }

    #[test]
    fn per_node_reports_cover_all_nodes() {
        let (db, q) = fixture();
        let w = OpWeights::postgres_like();
        let e = est(&db);
        let p = Plan::join(
            JoinOp::Hash,
            Plan::scan(0, ScanOp::Seq),
            Plan::scan(1, ScanOp::Seq),
        );
        let mut nodes = Vec::new();
        let total = physical_cost(&db, &q, &p, &e, &w, Some(&mut nodes));
        assert_eq!(nodes.len(), 3);
        let sum: f64 = nodes.iter().map(|n| n.work).sum();
        assert!((sum - total).abs() < 1e-6);
    }

    #[test]
    fn cost_clamp_saturates_and_is_identity_below_ceiling() {
        // Identity below the ceiling — bit-for-bit.
        for v in [0.0, 1.0, -7.5, 1e9, 1e29, COST_CEILING] {
            assert_eq!(clamp_cost(v).to_bits(), v.to_bits(), "clamp changed {v}");
        }
        // Saturation for everything pathological.
        for v in [f64::INFINITY, f64::NAN, 2e30, f64::MAX] {
            assert_eq!(clamp_cost(v), COST_CEILING, "clamp missed {v}");
        }
        // The independent verifier (balsa-query, below this crate)
        // duplicates the ceiling; keep the two constants locked.
        assert_eq!(COST_CEILING, balsa_query::verify::VERIFY_COST_CEILING);
    }

    #[test]
    fn poisoned_child_work_cannot_escape_as_nan() {
        let (db, q) = fixture();
        let w = OpWeights::postgres_like();
        let e = est(&db);
        let ctx = JoinPairCost::new(&db, &q, TableMask::single(0), TableMask::single(1), &e, w);
        for poison in [f64::NAN, f64::INFINITY] {
            let lc = SubtreeCost {
                work: poison,
                out_rows: 10.0,
                sorted_on: Vec::new(),
            };
            let rc = SubtreeCost {
                work: 5.0,
                out_rows: 10.0,
                sorted_on: Vec::new(),
            };
            for op in JoinOp::ALL {
                let (work, _) = ctx.work_out(op, &lc, &rc, false);
                assert_eq!(
                    work, COST_CEILING,
                    "{op:?} with poisoned child {poison} must saturate"
                );
            }
        }
    }

    #[test]
    fn engine_profiles_differ() {
        let (db, q) = fixture();
        let e = est(&db);
        let p = Plan::join(
            JoinOp::Hash,
            Plan::scan(0, ScanOp::Seq),
            Plan::scan(1, ScanOp::Seq),
        );
        let pg = physical_cost(&db, &q, &p, &e, &OpWeights::postgres_like(), None);
        let cd = physical_cost(&db, &q, &p, &e, &OpWeights::commdb_like(), None);
        assert_ne!(pg, cd);
    }
}
