//! The exhaustive dynamic-programming enumerators.
//!
//! Classical bottom-up join enumeration (Selinger 1979), the expert
//! baseline the paper compares Balsa against. For every connected table
//! subset the planner keeps a **Pareto set** of entries keyed by output
//! order — the "interesting orders" of System R — because a subplan that
//! streams in a join key's order can make a later merge join skip its
//! sort. Entry `A` dominates entry `B` iff `A` costs no more *and*
//! offers a superset of `B`'s orders; join cost is additive in child
//! cost and monotone in child orders, so pruning dominated entries never
//! loses the optimum and the chosen plan matches brute-force enumeration
//! exactly.
//!
//! Two enumerators apply that dominance rule, each with its own Pareto
//! sets:
//!
//! * [`DpPlanner`] — the production planner. DPccp-style
//!   connected-subgraph / connected-complement enumeration over the
//!   precomputed [`JoinGraph`] adjacency (only genuinely connected
//!   `(csg, cmp)` pairs are ever visited), a hash-indexed memo holding
//!   entries **only for connected subsets**, interesting-order sets
//!   packed into [`OrderMask`] bitmasks (dominance = two integer ops),
//!   and a scratch memo reused across queries, behind a lock that
//!   concurrent calls on one planner take in turn. This is the hot
//!   path the benchmarks measure.
//! * [`SubmaskDpPlanner`] — the original `3^n` submask-scan enumerator,
//!   retained verbatim as the correctness oracle, with its own plain
//!   `Vec` Pareto sets (`RefEntry`, `ref_pareto_insert`) so that it
//!   shares no pruning code with DPccp's `ParetoSet`: the property
//!   tests assert both planners produce bit-identical best-plan costs
//!   and identical Pareto frontiers on every workload query.
//!
//! Both hint spaces are supported: [`SearchMode::Bushy`] enumerates all
//! connected-subgraph/complement pairs, [`SearchMode::LeftDeep`] only
//! splits off single tables (CommDbSim, §8.2).

use crate::beam::BeamPlanner;
use crate::budget::{check_table_count, verify_emitted};
use crate::candidates::{CandidateSpace, CONNECTED_TABLE_MAX_TABLES};
use crate::enumerate::JoinGraph;
use crate::greedy::GreedyLeftDeepPlanner;
use crate::{
    PlanBudget, PlanError, PlannedQuery, Planner, SearchMode, SearchStats, FALLBACK_BEAM_WIDTH,
};
use balsa_card::{CardEstimator, MemoEstimator};
use balsa_cost::{CostModel, CostScorer, OrderInterner, OrderMask, OrderSource, SubtreeCost};
use balsa_query::{JoinOp, Plan, Query, TableMask};
use balsa_storage::Database;
use parking_lot::Mutex;
use std::collections::{BTreeSet, HashMap};
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Arc;
use std::time::Instant;

/// Where a Pareto entry's plan comes from. A scan holds its node, built
/// up front. A join holds only its operator and its children's memo
/// positions `(slot, index)` for the whole DP call: a closed level's
/// sets are final and never reordered, so the positions stay valid, and
/// only the winning plan's join nodes are ever built
/// ([`DpScratch::build`]).
enum Node {
    Scan(Arc<Plan>),
    Join {
        op: JoinOp,
        left: (u32, u32),
        right: (u32, u32),
    },
}

/// One Pareto entry: the cheapest known subplan producing its exact
/// output-order set. Its dominance key `(work, orders)` lives in the
/// owning [`ParetoSet`]'s columns.
struct Entry {
    node: Node,
    sc: SubtreeCost,
    /// Whether the subplan is an index-scan leaf — the one fact about a
    /// right input that costing needs beyond its summary — so the inner
    /// loop never reads a plan node.
    index_scan: bool,
}

impl Entry {
    fn scan(plan: Arc<Plan>, sc: SubtreeCost) -> Self {
        let index_scan = plan.is_index_scan();
        Self {
            node: Node::Scan(plan),
            sc,
            index_scan,
        }
    }
}

/// A Pareto set stored as columns: the dominance keys `works` and
/// `masks` apart from the `entries` they describe (`works[i]` is
/// `entries[i].sc.work`), so threshold scans and eviction sweeps stream
/// two flat arrays and never touch summaries or plan nodes. Dominance
/// is two integer ops per comparison: `work` compare + order-mask
/// superset test.
#[derive(Default)]
struct ParetoSet {
    works: Vec<f64>,
    masks: Vec<OrderMask>,
    entries: Vec<Entry>,
}

impl ParetoSet {
    /// Whether a candidate with this key is dominated by the set.
    fn dominates(&self, work: f64, orders: OrderMask) -> bool {
        self.works
            .iter()
            .zip(&self.masks)
            .any(|(&w, &o)| w <= work && o.contains_all(orders))
    }

    /// Cheapest work among entries whose orders cover `orders` —
    /// the dominance threshold for a whole class of candidates
    /// (`f64::INFINITY` when none covers it). A candidate of this order
    /// class is dominated exactly when its work reaches the threshold.
    fn dominance_threshold(&self, orders: OrderMask) -> f64 {
        self.works
            .iter()
            .zip(&self.masks)
            .filter(|(_, o)| o.contains_all(orders))
            .map(|(&w, _)| w)
            .fold(f64::INFINITY, f64::min)
    }

    /// Inserts an **undominated** entry with output orders `orders`,
    /// dropping the entries it dominates (order-preserving). Callers
    /// check dominance first.
    fn insert_undominated(&mut self, orders: OrderMask, entry: Entry) {
        let work = entry.sc.work;
        let evicts = |w: f64, o: OrderMask| work <= w && orders.contains_all(o);
        let first = self
            .works
            .iter()
            .zip(&self.masks)
            .position(|(&w, &o)| evicts(w, o));
        if let Some(first) = first {
            let mut kept = first;
            for i in first + 1..self.works.len() {
                if !evicts(self.works[i], self.masks[i]) {
                    self.works[kept] = self.works[i];
                    self.masks[kept] = self.masks[i];
                    self.entries.swap(kept, i);
                    kept += 1;
                }
            }
            self.works.truncate(kept);
            self.masks.truncate(kept);
            self.entries.truncate(kept);
        }
        self.works.push(work);
        self.masks.push(orders);
        self.entries.push(entry);
    }

    /// Inserts `entry` with output orders `orders`, dropping dominated
    /// entries. Returns whether the entry survived.
    fn insert(&mut self, orders: OrderMask, entry: Entry) -> bool {
        if self.dominates(entry.sc.work, orders) {
            return false;
        }
        self.insert_undominated(orders, entry);
        true
    }

    fn len(&self) -> usize {
        self.entries.len()
    }

    fn clear(&mut self) {
        self.works.clear();
        self.masks.clear();
        self.entries.clear();
    }
}

/// The cached dominance threshold of one order class: the cheapest work
/// among a set's entries whose orders cover `mask`.
#[derive(Clone, Copy)]
struct ClassThreshold {
    mask: OrderMask,
    work: f64,
}

impl ClassThreshold {
    fn of(set: &ParetoSet, mask: OrderMask) -> Self {
        Self {
            mask,
            work: set.dominance_threshold(mask),
        }
    }

    /// Keeps the threshold exact across one
    /// [`ParetoSet::insert_undominated`] of an entry with key
    /// `(work, orders)`, in O(1) instead of a rescan.
    ///
    /// Exact because the insert adds that one entry and evicts only
    /// entries `(w, o)` with `w ≥ work` and `o ⊆ orders`. If
    /// `orders ⊇ mask`, the new entry joins the class, and an evicted
    /// class member had `w ≥ work`, so the class minimum becomes exactly
    /// `min(old, work)`. Otherwise nothing joins, and nothing leaves
    /// either: an evicted member would have `mask ⊆ o ⊆ orders`.
    #[inline]
    fn admit(&mut self, work: f64, orders: OrderMask) {
        if orders.contains_all(self.mask) {
            self.work = self.work.min(work);
        }
    }
}

/// One element of a reported Pareto frontier: subtree work plus the
/// sorted, deduplicated interesting-order set. The cross-enumerator
/// property tests compare these for exact (bitwise) equality.
#[derive(Debug, Clone, PartialEq)]
pub struct FrontierEntry {
    /// Total subtree work.
    pub work: f64,
    /// Output orders, sorted and deduplicated.
    pub orders: Vec<(usize, usize)>,
}

/// Canonicalizes a frontier: per-entry order sets sorted + deduped, the
/// frontier sorted by (work, orders).
fn canonical_frontier(
    entries: impl Iterator<Item = (f64, Vec<(usize, usize)>)>,
) -> Vec<FrontierEntry> {
    let mut out: Vec<FrontierEntry> = entries
        .map(|(work, sorted_on)| {
            let set: BTreeSet<(usize, usize)> = sorted_on.into_iter().collect();
            FrontierEntry {
                work,
                orders: set.into_iter().collect(),
            }
        })
        .collect();
    out.sort_by(|a, b| {
        a.work
            .total_cmp(&b.work)
            .then_with(|| a.orders.cmp(&b.orders))
    });
    out
}

/// The complete universe of interesting orders `query` can surface,
/// sorted: every `(qt, col)` that can appear in a `sorted_on` list is
/// either a join-edge endpoint or an indexed column of a referenced
/// table. Cheap (one pass over edges + catalog columns), computed once
/// per query — its length decides whether the 128-bit order interner
/// suffices, and pre-interning it makes the interner **read-only**
/// during planning. Sorted so order-bit assignment is a pure function
/// of the query (bit identity never depends on enumeration order,
/// hash-iteration order or what the reused scratch planned before).
fn order_universe(db: &Database, query: &Query) -> Vec<(usize, usize)> {
    let mut universe: BTreeSet<(usize, usize)> = BTreeSet::new();
    for e in &query.joins {
        universe.insert((e.left_qt, e.left_col));
        universe.insert((e.right_qt, e.right_col));
    }
    for (qt, t) in query.tables.iter().enumerate() {
        for (ci, c) in db.catalog().table(t.table).columns.iter().enumerate() {
            if c.indexed {
                universe.insert((qt, ci));
            }
        }
    }
    universe.into_iter().collect()
}

/// Picks the cheapest entry of a full-mask Pareto set (`None` when the
/// set is empty — a disconnected join graph).
fn best_of(entries: &ParetoSet) -> Option<&Entry> {
    entries
        .entries
        .iter()
        .min_by(|a, b| a.sc.work.partial_cmp(&b.sc.work).expect("finite costs"))
}

/// Degrades a budget-exhausted DP call through the rest of the fallback
/// chain: width-[`FALLBACK_BEAM_WIDTH`] beam search first, then the
/// always-terminating greedy floor. Every stage is re-armed with the
/// full budget, scores through a [`CostScorer`] over the same cost
/// model + estimator, and records its fallback depth honestly in
/// [`SearchStats::degraded_levels`].
fn fallback_chain(
    db: &Database,
    cost: &dyn CostModel,
    est: &dyn CardEstimator,
    mode: SearchMode,
    budget: PlanBudget,
    query: &Query,
) -> Result<PlannedQuery, PlanError> {
    let scorer = CostScorer::new(cost, est);
    let beam = BeamPlanner::new(db, &scorer, mode, FALLBACK_BEAM_WIDTH).with_budget(budget);
    match beam.try_plan_raw(query) {
        Ok(mut p) => {
            p.stats.degraded_levels = 1;
            p.stats.budget_exhausted = true;
            Ok(p)
        }
        Err(PlanError::BudgetExhausted { .. }) => {
            let greedy = GreedyLeftDeepPlanner::new(db, &scorer, mode);
            let mut p = greedy.try_plan(query)?;
            p.stats.degraded_levels = 2;
            p.stats.budget_exhausted = true;
            Ok(p)
        }
        Err(e) => Err(e),
    }
}

// ---------------------------------------------------------------------------
// DPccp planner
// ---------------------------------------------------------------------------

/// Multiplicative hasher for the memo's `u32` table-mask keys: one
/// multiply and a rotate, where std's SipHash costs more than the rest
/// of the lookup. The rotate brings the product's well-mixed high bits
/// down to where the table picks its bucket. The map is never iterated,
/// so the hash function cannot affect results.
#[derive(Default)]
struct MaskHasher(u64);

const MASK_HASH_MUL: u64 = 0xF135_7AEA_2E62_A9C5;

impl Hasher for MaskHasher {
    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }

    fn write(&mut self, bytes: &[u8]) {
        // Only reached for non-u32 keys.
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(MASK_HASH_MUL);
        }
    }

    fn write_u32(&mut self, v: u32) {
        self.0 = u64::from(v).wrapping_mul(MASK_HASH_MUL);
    }
}

/// Reusable per-planner scratch: the hash-indexed memo (slots exist only
/// for connected subsets actually touched), the per-query order
/// interner, and the enumeration buckets. Cleared — allocations kept —
/// between queries, so a planner amortizes its heap across a workload.
#[derive(Default)]
struct DpScratch {
    interner: OrderInterner,
    /// Connected mask -> dense slot index into `entries`.
    slot_of: HashMap<u32, u32, BuildHasherDefault<MaskHasher>>,
    /// Pareto sets, indexed by slot. `entries[used..]` are retired
    /// (empty, capacity retained) sets from earlier queries.
    entries: Vec<ParetoSet>,
    used: usize,
    /// Bushy mode: unordered csg–cmp pairs bucketed by union size.
    pair_buckets: Vec<Vec<(u32, u32)>>,
    /// Left-deep mode: connected masks bucketed by size.
    csg_buckets: Vec<Vec<u32>>,
    /// Join nodes built by [`Self::build`], counted for the tests.
    #[cfg(test)]
    joins_built: std::cell::Cell<usize>,
}

impl DpScratch {
    /// Resets for the next query, retaining every allocation.
    fn reset(&mut self, n: usize) {
        self.interner.clear();
        self.slot_of.clear();
        for set in self.entries.iter_mut().take(self.used) {
            set.clear();
        }
        self.used = 0;
        for b in &mut self.pair_buckets {
            b.clear();
        }
        if self.pair_buckets.len() < n + 1 {
            self.pair_buckets.resize_with(n + 1, Vec::new);
        }
        for b in &mut self.csg_buckets {
            b.clear();
        }
        if self.csg_buckets.len() < n + 1 {
            self.csg_buckets.resize_with(n + 1, Vec::new);
        }
        #[cfg(test)]
        self.joins_built.set(0);
    }

    /// Builds `entry`'s plan: a join's node over its children's plans,
    /// which it names by memo position.
    fn build(&self, entry: &Entry) -> Arc<Plan> {
        match entry.node {
            Node::Scan(ref plan) => plan.clone(),
            Node::Join { op, left, right } => {
                #[cfg(test)]
                self.joins_built.set(self.joins_built.get() + 1);
                let child = |(slot, idx): (u32, u32)| {
                    self.build(&self.entries[slot as usize].entries[idx as usize])
                };
                Plan::join(op, child(left), child(right))
            }
        }
    }

    /// Slot for `mask`, allocating (or recycling a retired Vec) on first
    /// sight.
    fn slot(&mut self, mask: u32) -> usize {
        match self.slot_of.entry(mask) {
            std::collections::hash_map::Entry::Occupied(o) => *o.get() as usize,
            std::collections::hash_map::Entry::Vacant(v) => {
                let slot = self.used;
                if slot == self.entries.len() {
                    self.entries.push(ParetoSet::default());
                }
                self.used += 1;
                v.insert(slot as u32);
                slot
            }
        }
    }
}

/// The production DP planner: DPccp enumeration + bitmask Pareto sets.
pub struct DpPlanner<'a> {
    db: &'a Database,
    cost: &'a dyn CostModel,
    est: &'a dyn CardEstimator,
    mode: SearchMode,
    budget: PlanBudget,
    /// The memo, buckets and interner, reused across queries and reset
    /// before each use. A `plan` call holds the lock for its whole
    /// DPccp run, so calls that share one planner take turns. No call
    /// re-enters its own planner while holding it: `run` routes to the
    /// submask DP, which has no scratch, and the fallback chain starts
    /// after `run` returns.
    scratch: Mutex<DpScratch>,
}

impl<'a> DpPlanner<'a> {
    /// Creates a DP planner scoring plans with `cost` over `est`.
    pub fn new(
        db: &'a Database,
        cost: &'a dyn CostModel,
        est: &'a dyn CardEstimator,
        mode: SearchMode,
    ) -> Self {
        Self {
            db,
            cost,
            est,
            mode,
            budget: PlanBudget::UNLIMITED,
            scratch: Mutex::default(),
        }
    }

    /// Arms a [`PlanBudget`]. Checks happen only at deterministic level
    /// boundaries on deterministic counters (candidates + pairs, live
    /// Pareto entries), so whether — and where — the budget fires is
    /// bit-reproducible and independent of wall clock. The default
    /// [`PlanBudget::UNLIMITED`] is bit-identical to not checking at
    /// all.
    pub fn with_budget(mut self, budget: PlanBudget) -> Self {
        self.budget = budget;
        self
    }

    /// The raw, chain-free entry point: plans `query` and additionally
    /// returns the full-mask Pareto frontier in canonical form (for
    /// cross-enumerator equality tests), surfacing
    /// [`PlanError::BudgetExhausted`] instead of degrading through the
    /// fallback chain ([`Planner::try_plan`] does that).
    pub fn try_plan_with_frontier(
        &self,
        query: &Query,
    ) -> Result<(PlannedQuery, Vec<FrontierEntry>), PlanError> {
        self.run(query, true)
    }

    /// Plans `query` with [`SubmaskDpPlanner`] under this planner's
    /// budget: the route for what DPccp cannot plan.
    fn submask(&self, query: &Query) -> Result<(PlannedQuery, Vec<FrontierEntry>), PlanError> {
        SubmaskDpPlanner::new(self.db, self.cost, self.est, self.mode)
            .with_budget(self.budget)
            .try_plan_with_frontier(query)
    }

    fn run(
        &self,
        query: &Query,
        want_frontier: bool,
    ) -> Result<(PlannedQuery, Vec<FrontierEntry>), PlanError> {
        let start = Instant::now();
        check_table_count(query, TableMask::WIDTH)?;
        let n = query.num_tables();
        // Two things route to the submask enumerator, which needs
        // neither: an order universe that could overflow the interner's
        // 128 bits (≥ 22 tables of ≥ 6 indexed/edge columns each; its
        // order sets are BTreeSets), and a cost model without a pair
        // session (`combine` reports it; the submask planner costs each
        // join through `join_summary`). (A DPccp variant with uncapped
        // set-based order keys would serve sparse many-column giants
        // better; no workload query comes near the cap — see the test
        // `order_universe_bound_covers_all_sorted_on_sources`.)
        let universe = order_universe(self.db, query);
        if universe.len() > 128 {
            return self.submask(query);
        }
        let space = CandidateSpace::new(self.db, query, self.mode);
        let memo = MemoEstimator::new(self.est);
        let mut stats = SearchStats::default();
        let mut guard = self.scratch.lock();
        let s: &mut DpScratch = &mut guard;
        s.reset(n);
        // Pre-intern the whole (sorted) order universe: bit assignment
        // becomes a pure function of the query, and the interner is
        // read-only for the rest of planning.
        s.interner.intern(&universe);

        // ---- Enumeration phase: adjacency + connected pairs only ----
        let graph = JoinGraph::new(query);
        match self.mode {
            SearchMode::Bushy => {
                graph.for_each_csg_cmp(&mut |a, b| {
                    let size = a.union(b).count() as usize;
                    s.pair_buckets[size].push((a.0, b.0));
                    // Each unordered pair is combined in both orientations.
                    stats.pairs += 2;
                });
            }
            SearchMode::LeftDeep => {
                graph.for_each_csg(&mut |m| {
                    s.csg_buckets[m.count() as usize].push(m.0);
                });
                // Left-deep combines are counted as they run (only
                // splits whose remainder is connected qualify).
            }
        }
        stats.enumerate_secs = start.elapsed().as_secs_f64();

        // ---- Costing phase ----
        let t_cost = Instant::now();

        // Budget boundary check: work (candidates + pairs) against live
        // Pareto entries, evaluated only *between* levels, never inside
        // one.
        let check_budget = |s: &DpScratch, stats: &SearchStats| -> Result<(), PlanError> {
            if self.budget.is_unlimited() {
                return Ok(());
            }
            let live = s.entries[..s.used].iter().map(ParetoSet::len).sum();
            self.budget
                .check("dp", query, (stats.candidates + stats.pairs) as u64, live)
        };

        // Base case: scan candidates per table.
        for qt in 0..n {
            let slot = s.slot(1u32 << qt);
            for scan in space.scan_plans(qt) {
                let sc = self.cost.scan_summary(query, &scan, &memo);
                stats.candidates += 1;
                stats.cost_calls += 1;
                let orders = s.interner.mask_of_cost(&sc);
                s.entries[slot].insert(orders, Entry::scan(scan, sc));
            }
        }

        // Bottom-up by subset size: every pair's sides are strictly
        // smaller than its union, so their Pareto sets are final — a join
        // entry's child positions stay valid for the rest of the call,
        // and no plan node is built until the winner's, after the last
        // level.
        check_budget(s, &stats)?;
        for size in 2..=n {
            match self.mode {
                SearchMode::Bushy => {
                    let bucket = std::mem::take(&mut s.pair_buckets[size]);
                    for &(a, b) in &bucket {
                        let sa = *s.slot_of.get(&a).expect("csg side already memoized");
                        let sb = *s.slot_of.get(&b).expect("cmp side already memoized");
                        let target = s.slot(a | b);
                        let mut cur = std::mem::take(&mut s.entries[target]);
                        for (l, r, lm, rm) in [(sa, sb, a, b), (sb, sa, b, a)] {
                            if !combine(
                                &space,
                                self.cost,
                                query,
                                &memo,
                                TableMask(lm),
                                TableMask(rm),
                                &s.entries,
                                l as usize,
                                r as usize,
                                &mut cur,
                                &s.interner,
                                &mut stats,
                            ) {
                                return self.submask(query);
                            }
                        }
                        s.entries[target] = cur;
                    }
                    // Hand the bucket Vec back so its allocation is
                    // reused by the next query.
                    s.pair_buckets[size] = bucket;
                }
                SearchMode::LeftDeep => {
                    let bucket = std::mem::take(&mut s.csg_buckets[size]);
                    for &mask in &bucket {
                        let target = s.slot(mask);
                        let mut cur = std::mem::take(&mut s.entries[target]);
                        for t in TableMask(mask).iter() {
                            let rest = mask & !(1u32 << t);
                            // The remainder must itself be connected
                            // (a memo slot exists for every connected
                            // csg of smaller size) and share an edge
                            // with `t`.
                            let Some(&sr) = s.slot_of.get(&rest) else {
                                continue;
                            };
                            if !graph.connected_between(TableMask(rest), TableMask::single(t)) {
                                continue;
                            }
                            let st = *s.slot_of.get(&(1u32 << t)).expect("scan slot");
                            stats.pairs += 1;
                            if !combine(
                                &space,
                                self.cost,
                                query,
                                &memo,
                                TableMask(rest),
                                TableMask::single(t),
                                &s.entries,
                                sr as usize,
                                st as usize,
                                &mut cur,
                                &s.interner,
                                &mut stats,
                            ) {
                                return self.submask(query);
                            }
                        }
                        s.entries[target] = cur;
                    }
                    s.csg_buckets[size] = bucket;
                }
            }
            check_budget(s, &stats)?;
        }
        stats.cost_secs = t_cost.elapsed().as_secs_f64();

        stats.states = s.entries[..s.used].iter().map(ParetoSet::len).sum();
        let full = TableMask::all(n).0;
        let disconnected = || PlanError::DisconnectedGraph {
            query: query.name.clone(),
        };
        let full_slot = *s.slot_of.get(&full).ok_or_else(disconnected)?;
        let full_entries = &s.entries[full_slot as usize];
        let best = best_of(full_entries).ok_or_else(disconnected)?;
        let mut planned = PlannedQuery {
            plan: s.build(best),
            cost: best.sc.work,
            stats,
            planning_secs: start.elapsed().as_secs_f64(),
        };
        let frontier = if want_frontier {
            canonical_frontier(
                full_entries
                    .entries
                    .iter()
                    .map(|e| (e.sc.work, e.sc.sorted_on.clone())),
            )
        } else {
            Vec::new()
        };
        drop(guard);
        // DP costs are real model costs (not scorer log-latencies), so
        // the verifier also checks the reported cost is finite,
        // positive, and under the clamp ceiling.
        let cost = planned.cost;
        verify_emitted(&self.name(), query, &mut planned, Some(cost));
        Ok((planned, frontier))
    }
}

/// Combines every (left entry, right entry, join op) candidate of the
/// closed sets `sets[l]` ⋈ `sets[r]` into `cur`'s Pareto set.
/// Orientation is fixed by the caller; connectivity and disjointness
/// hold by construction of the enumeration, and the left-deep right
/// side is always a single-table slot, so the [`CandidateSpace`] mode
/// filter is already satisfied (debug builds check all three).
///
/// Costing runs through the cost model's [`balsa_cost::PairCoster`]
/// session; `combine` returns `false`, having touched nothing, when the
/// model opens none (the caller then plans the query with the submask
/// oracle). A candidate's output orders are fixed by its operator before
/// costing, so it falls in one of three order classes (no order, the
/// left input's orders, the session's pair orders), and `combine` keeps
/// each class's dominance threshold over `cur` exact at all times
/// ([`ClassThreshold::admit`]). A candidate costs one compare against
/// its class threshold, then — unless that rejects it — a virtual work
/// call and a second compare, which *is* the dominance test. Only a
/// survivor allocates: its order list; its entry records its operator
/// and children, and no plan node is built here.
///
/// The interner is **read-only**: the whole order universe is interned
/// before costing starts.
// The parameter list is the DP inner-loop context; a struct would be
// rebuilt per bucket for no gain.
#[allow(clippy::too_many_arguments)]
fn combine(
    space: &CandidateSpace<'_>,
    cost: &dyn CostModel,
    query: &Query,
    memo: &MemoEstimator<'_>,
    lmask: TableMask,
    rmask: TableMask,
    sets: &[ParetoSet],
    l: usize,
    r: usize,
    cur: &mut ParetoSet,
    interner: &OrderInterner,
    stats: &mut SearchStats,
) -> bool {
    let Some(coster) = cost.pair_coster(query, lmask, rmask, memo) else {
        return false;
    };
    debug_assert!(lmask.disjoint(rmask) && query.connected(lmask, rmask));
    let (left, right) = (&sets[l], &sets[r]);
    let ops = space.join_ops();
    let join = |op, li: usize, ri: usize| Node::Join {
        op,
        left: (l as u32, li as u32),
        right: (r as u32, ri as u32),
    };
    stats.candidates += left.len() * right.len() * ops.len();
    // Resolve each operator's order class once per orientation; the
    // session-constant order list is interned at most once.
    const NONE: usize = 0;
    const LEFT: usize = 1;
    const PAIR: usize = 2;
    let mut class_of = [NONE; 8];
    assert!(ops.len() <= class_of.len(), "more join ops than expected");
    let mut pair = None;
    for (class, &op) in class_of.iter_mut().zip(ops) {
        *class = match coster.order_source(op) {
            OrderSource::Empty => NONE,
            OrderSource::LeftInput => LEFT,
            OrderSource::Pair => {
                pair = Some(interner.mask_of(coster.pair_sorted_on()));
                PAIR
            }
        };
    }
    let class_of = &class_of[..ops.len()];
    let none = ClassThreshold::of(cur, OrderMask::EMPTY);
    let mut th = [
        none,
        none,
        pair.map_or(none, |m| ClassThreshold::of(cur, m)),
    ];
    // For models that declare work child-monotone, a candidate's
    // work is at least `lc.work + rc.work`, so a class threshold at
    // or below that rejects it without the costing call. A whole
    // left row is rejected when every class threshold it uses is at
    // or below `le.work + min(right works)`: no candidate of the row
    // is then inserted, so the thresholds hold for all of it. Its
    // candidates are counted above and never visited.
    let monotone = coster.child_monotone();
    let min_right = right.works.iter().copied().fold(f64::INFINITY, f64::min);
    for (li, le) in left.entries.iter().enumerate() {
        th[LEFT] = ClassThreshold::of(cur, left.masks[li]);
        if monotone {
            let row_max = class_of
                .iter()
                .map(|&class| th[class].work)
                .fold(f64::NEG_INFINITY, f64::max);
            if row_max <= le.sc.work + min_right {
                continue;
            }
        }
        for (ri, re) in right.entries.iter().enumerate() {
            debug_assert!(
                space.mode() == SearchMode::Bushy || matches!(re.node, Node::Scan(_)),
                "a left-deep right input is a base table"
            );
            let base = le.sc.work + re.sc.work;
            for (&op, &class) in ops.iter().zip(class_of) {
                let ClassThreshold {
                    mask: orders,
                    work: thresh,
                } = th[class];
                if monotone && thresh <= base {
                    continue; // dominated whatever the exact work is
                }
                stats.cost_calls += 1;
                let (work, out_rows) = coster.work_out(op, &le.sc, &re.sc, re.index_scan);
                if thresh <= work {
                    continue; // dominated: `thresh` is exact
                }
                let sorted_on = match class {
                    NONE => Vec::new(),
                    LEFT => le.sc.sorted_on.clone(),
                    _ => coster.pair_sorted_on().to_vec(),
                };
                let entry = Entry {
                    node: join(op, li, ri),
                    sc: SubtreeCost {
                        work,
                        out_rows,
                        sorted_on,
                    },
                    index_scan: false,
                };
                cur.insert_undominated(orders, entry);
                for t in &mut th {
                    t.admit(work, orders);
                }
            }
        }
    }
    true
}

impl Planner for DpPlanner<'_> {
    fn name(&self) -> String {
        match self.mode {
            SearchMode::Bushy => format!("dp-bushy/{}", self.cost.name()),
            SearchMode::LeftDeep => format!("dp-leftdeep/{}", self.cost.name()),
        }
    }

    fn try_plan(&self, query: &Query) -> Result<PlannedQuery, PlanError> {
        let t0 = Instant::now();
        match self.run(query, false) {
            Ok((planned, _)) => Ok(planned),
            Err(PlanError::BudgetExhausted { .. }) => {
                let mut p =
                    fallback_chain(self.db, self.cost, self.est, self.mode, self.budget, query)?;
                // The chain's wall clock includes the exhausted DP
                // attempt — honest accounting for SimClock charging.
                p.planning_secs = t0.elapsed().as_secs_f64();
                Ok(p)
            }
            Err(e) => Err(e),
        }
    }
}

// ---------------------------------------------------------------------------
// Submask-scan reference planner
// ---------------------------------------------------------------------------

/// Reference entry: orders as the original `BTreeSet` representation.
struct RefEntry {
    plan: Arc<Plan>,
    sc: SubtreeCost,
    orders: BTreeSet<(usize, usize)>,
}

fn ref_pareto_insert(entries: &mut Vec<RefEntry>, cand: RefEntry) -> bool {
    for e in entries.iter() {
        if e.sc.work <= cand.sc.work && e.orders.is_superset(&cand.orders) {
            return false;
        }
    }
    entries.retain(|e| !(cand.sc.work <= e.sc.work && cand.orders.is_superset(&e.orders)));
    entries.push(cand);
    true
}

/// The original `3^n` submask-scan DP, retained as the correctness
/// oracle for [`DpPlanner`]: it visits every `(submask, complement)`
/// split of every subset and filters by a precomputed `2^n`
/// connectivity table. Slow on 14-table queries (that is why it was
/// replaced) but embarrassingly simple — the property tests assert the
/// DPccp planner matches it bit-for-bit.
///
/// Its [`SearchStats`] timing breakdown (`enumerate_secs`/`cost_secs`)
/// stays zero: enumeration and costing interleave per submask, so the
/// split is not measurable without per-iteration timers.
pub struct SubmaskDpPlanner<'a> {
    db: &'a Database,
    cost: &'a dyn CostModel,
    est: &'a dyn CardEstimator,
    mode: SearchMode,
    budget: PlanBudget,
}

impl<'a> SubmaskDpPlanner<'a> {
    /// Creates the reference planner.
    pub fn new(
        db: &'a Database,
        cost: &'a dyn CostModel,
        est: &'a dyn CardEstimator,
        mode: SearchMode,
    ) -> Self {
        Self {
            db,
            cost,
            est,
            mode,
            budget: PlanBudget::UNLIMITED,
        }
    }

    /// Arms a [`PlanBudget`], checked after each finalized mask (this
    /// enumerator is serial, so every mask end is a deterministic
    /// boundary).
    pub fn with_budget(mut self, budget: PlanBudget) -> Self {
        self.budget = budget;
        self
    }

    /// The raw, chain-free entry point: plans `query` and returns the
    /// canonical full-mask Pareto frontier, surfacing
    /// [`PlanError::BudgetExhausted`] instead of degrading through the
    /// fallback chain.
    pub fn try_plan_with_frontier(
        &self,
        query: &Query,
    ) -> Result<(PlannedQuery, Vec<FrontierEntry>), PlanError> {
        let start = Instant::now();
        check_table_count(query, CONNECTED_TABLE_MAX_TABLES)?;
        let n = query.num_tables();
        let space = CandidateSpace::new(self.db, query, self.mode);
        let memo = MemoEstimator::new(self.est);
        let connected = space.connected_table();
        let mut stats = SearchStats::default();

        // Eager table over all 2^n subsets — the allocation pattern the
        // DPccp planner's hash memo replaces.
        let mut table: Vec<Vec<RefEntry>> = (0..1usize << n).map(|_| Vec::new()).collect();

        for qt in 0..n {
            for scan in space.scan_plans(qt) {
                let sc = self.cost.scan_summary(query, &scan, &memo);
                stats.candidates += 1;
                stats.cost_calls += 1;
                let orders = sc.sorted_on.iter().copied().collect();
                ref_pareto_insert(
                    &mut table[1usize << qt],
                    RefEntry {
                        plan: scan,
                        sc,
                        orders,
                    },
                );
            }
        }

        // Budget discipline: the same work measure as
        // the DPccp planner (candidates + pairs), checked after each
        // finalized mask; `memo_live` tracks live Pareto entries
        // exactly (each mask's set is finalized once, in ascending
        // order) without rescanning the 2^n table per check.
        let check = |stats: &SearchStats, memo_live: usize| -> Result<(), PlanError> {
            if self.budget.is_unlimited() {
                return Ok(());
            }
            self.budget.check(
                "submask-dp",
                query,
                (stats.candidates + stats.pairs) as u64,
                memo_live,
            )
        };
        let mut memo_live: usize = (0..n).map(|qt| table[1usize << qt].len()).sum();
        check(&stats, memo_live)?;

        // Bottom-up over subsets (ascending mask order visits every
        // proper submask before its superset).
        for mask in 1..1usize << n {
            if !connected[mask] || (mask & (mask - 1)) == 0 {
                continue; // disconnected or singleton
            }
            let (lo, hi) = table.split_at_mut(mask);
            let cur = &mut hi[0];
            let mut combine = |left_mask: usize, right_mask: usize, stats: &mut SearchStats| {
                stats.pairs += 1;
                for le in &lo[left_mask] {
                    for re in &lo[right_mask] {
                        if !space.allows_join(&le.plan, &re.plan) {
                            continue;
                        }
                        for &op in space.join_ops() {
                            let plan = Plan::join(op, le.plan.clone(), re.plan.clone());
                            let sc = self.cost.join_summary(query, &plan, &le.sc, &re.sc, &memo);
                            stats.candidates += 1;
                            stats.cost_calls += 1;
                            let orders = sc.sorted_on.iter().copied().collect();
                            ref_pareto_insert(cur, RefEntry { plan, sc, orders });
                        }
                    }
                }
            };
            match self.mode {
                SearchMode::Bushy => {
                    let mut a = (mask - 1) & mask;
                    while a != 0 {
                        let b = mask & !a;
                        if connected[a] && connected[b] {
                            combine(a, b, &mut stats);
                        }
                        a = (a - 1) & mask;
                    }
                }
                SearchMode::LeftDeep => {
                    for t in TableMask(mask as u32).iter() {
                        let rest = mask & !(1usize << t);
                        if connected[rest] {
                            combine(rest, 1usize << t, &mut stats);
                        }
                    }
                }
            }
            memo_live += table[mask].len();
            check(&stats, memo_live)?;
        }

        stats.states = table.iter().map(Vec::len).sum();
        let full = (1usize << n) - 1;
        let best = table[full]
            .iter()
            .min_by(|a, b| a.sc.work.partial_cmp(&b.sc.work).expect("finite costs"))
            .ok_or_else(|| PlanError::DisconnectedGraph {
                query: query.name.clone(),
            })?;
        let mut planned = PlannedQuery {
            plan: best.plan.clone(),
            cost: best.sc.work,
            stats,
            planning_secs: start.elapsed().as_secs_f64(),
        };
        let frontier = canonical_frontier(
            table[full]
                .iter()
                .map(|e| (e.sc.work, e.sc.sorted_on.clone())),
        );
        let cost = planned.cost;
        verify_emitted(&self.name(), query, &mut planned, Some(cost));
        Ok((planned, frontier))
    }
}

impl Planner for SubmaskDpPlanner<'_> {
    fn name(&self) -> String {
        match self.mode {
            SearchMode::Bushy => format!("dp-submask-bushy/{}", self.cost.name()),
            SearchMode::LeftDeep => format!("dp-submask-leftdeep/{}", self.cost.name()),
        }
    }

    fn try_plan(&self, query: &Query) -> Result<PlannedQuery, PlanError> {
        let t0 = Instant::now();
        match self.try_plan_with_frontier(query) {
            Ok((planned, _)) => Ok(planned),
            Err(PlanError::BudgetExhausted { .. }) => {
                let mut p =
                    fallback_chain(self.db, self.cost, self.est, self.mode, self.budget, query)?;
                p.planning_secs = t0.elapsed().as_secs_f64();
                Ok(p)
            }
            Err(e) => Err(e),
        }
    }
}

#[cfg(test)]
#[path = "../tests/support/non_monotone.rs"]
mod non_monotone;

#[cfg(test)]
mod tests {
    use super::non_monotone::NonMonotoneExpert;
    use super::*;
    use balsa_card::HistogramEstimator;
    use balsa_cost::{CoutModel, ExpertCostModel, OpWeights};
    use balsa_query::workloads::{ext_job_workload, job_workload};
    use balsa_query::ScanOp;
    use balsa_storage::{mini_imdb, DataGenConfig};

    fn fixture() -> (Arc<Database>, balsa_query::Workload) {
        let db = Arc::new(mini_imdb(DataGenConfig {
            scale: 0.02,
            ..Default::default()
        }));
        let w = job_workload(db.catalog(), 7);
        (db, w)
    }

    /// Serial `cost_calls` — the one DP counter the submask oracle does
    /// not check — summed over the 137 JOB + Ext-JOB queries in both
    /// modes, per cost model (expert, `C_out`, and the non-monotone
    /// [`NonMonotoneExpert`], which skips the early rejects). The early
    /// rejects skip only candidates they prove dominated, so an exact
    /// change to the inner loop leaves every sum where it is.
    #[test]
    fn serial_cost_calls_are_pinned() {
        let (db, job) = fixture();
        let ext = ext_job_workload(db.catalog(), 7);
        let est = HistogramEstimator::new(&db);
        let expert = ExpertCostModel::new(db.clone(), OpWeights::postgres_like());
        let non_monotone = NonMonotoneExpert(expert.clone());
        let models: [&dyn CostModel; 3] = [&expert, &CoutModel, &non_monotone];
        let sums: Vec<usize> = models
            .into_iter()
            .map(|model| {
                let mut calls = 0;
                for q in job.queries.iter().chain(&ext.queries) {
                    for mode in [SearchMode::Bushy, SearchMode::LeftDeep] {
                        let planner = DpPlanner::new(&db, model, &est, mode);
                        calls += planner.plan(q).stats.cost_calls;
                    }
                }
                calls
            })
            .collect();
        assert_eq!(sums, [1_006_502, 197_692, 7_975_204]);
    }

    /// The plans themselves, per cost model, over the same grid as
    /// [`serial_cost_calls_are_pinned`]: a wrapping checksum of every
    /// plan's `canonical_hash` and cost bits. The submask oracle compares
    /// costs only, so this is what pins plan structure — including which
    /// of equal-cost plans wins.
    #[test]
    fn plans_are_pinned() {
        let (db, job) = fixture();
        let ext = ext_job_workload(db.catalog(), 7);
        let est = HistogramEstimator::new(&db);
        let expert = ExpertCostModel::new(db.clone(), OpWeights::postgres_like());
        let non_monotone = NonMonotoneExpert(expert.clone());
        let models: [&dyn CostModel; 3] = [&expert, &CoutModel, &non_monotone];
        let sums: Vec<u64> = models
            .into_iter()
            .map(|model| {
                let mut sum = 0u64;
                for q in job.queries.iter().chain(&ext.queries) {
                    for mode in [SearchMode::Bushy, SearchMode::LeftDeep] {
                        let planned = DpPlanner::new(&db, model, &est, mode).plan(q);
                        for word in [planned.plan.canonical_hash(), planned.cost.to_bits()] {
                            sum = sum.wrapping_mul(0x100_0000_01B3).wrapping_add(word);
                        }
                    }
                }
                sum
            })
            .collect();
        assert_eq!(
            sums,
            [
                16_630_472_898_568_640_826,
                2_340_374_661_477_050_794,
                7_233_837_460_417_526_461
            ]
        );
    }

    #[test]
    fn dp_produces_valid_complete_plans() {
        let (db, w) = fixture();
        let est = HistogramEstimator::new(&db);
        let model = ExpertCostModel::new(db.clone(), OpWeights::postgres_like());
        for q in w.queries.iter().take(6) {
            let dp = DpPlanner::new(&db, &model, &est, SearchMode::Bushy);
            let out = dp.plan(q);
            assert_eq!(out.plan.mask(), q.all_mask(), "{}", q.name);
            assert!(out.cost.is_finite() && out.cost > 0.0);
            assert!(out.stats.candidates > 0);
            assert!(out.stats.pairs > 0);
            // The DPccp path reports its timing breakdown (the submask
            // fallback leaves it zero), so this also proves the fast
            // path — not the order-overflow fallback — handled the
            // query.
            assert!(out.stats.enumerate_secs > 0.0);
            // Reported cost must equal an independent full re-cost.
            let recost = model.plan_cost(q, &out.plan, &est);
            assert!(
                (out.cost - recost).abs() <= 1e-6 * recost.abs().max(1.0),
                "{}: dp cost {} != recost {}",
                q.name,
                out.cost,
                recost
            );
        }
    }

    #[test]
    fn order_universe_bound_covers_all_sorted_on_sources() {
        let (db, w) = fixture();
        for q in w.queries.iter().take(12) {
            let universe = order_universe(&db, q);
            let bound = universe.len();
            // Every workload query fits the 128-bit interner with room.
            assert!(bound <= 128, "{}: universe {bound}", q.name);
            assert!(universe.windows(2).all(|w| w[0] < w[1]), "sorted, deduped");
            // The planner pre-interns exactly this universe, so after a
            // plan the interner holds the full (read-only) universe —
            // never more: every order any `sorted_on` can surface was
            // predicted.
            let est = HistogramEstimator::new(&db);
            let model = ExpertCostModel::new(db.clone(), OpWeights::postgres_like());
            let planner = DpPlanner::new(&db, &model, &est, SearchMode::Bushy);
            planner.plan(q);
            let seen = planner.scratch.lock().interner.len();
            assert_eq!(
                seen, bound,
                "{}: interned {seen} != universe {bound}",
                q.name
            );
        }
    }

    #[test]
    fn scratch_reuse_across_queries_is_clean() {
        // One planner instance planning many queries must give the same
        // answers as fresh planners (the scratch reset is complete).
        let (db, w) = fixture();
        let est = HistogramEstimator::new(&db);
        let model = ExpertCostModel::new(db.clone(), OpWeights::postgres_like());
        let shared = DpPlanner::new(&db, &model, &est, SearchMode::Bushy);
        for q in w.queries.iter().take(8) {
            let fresh = DpPlanner::new(&db, &model, &est, SearchMode::Bushy).plan(q);
            let reused = shared.plan(q);
            assert_eq!(reused.cost.to_bits(), fresh.cost.to_bits(), "{}", q.name);
            assert_eq!(
                reused.plan.fingerprint(),
                fresh.plan.fingerprint(),
                "{}",
                q.name
            );
            assert_eq!(reused.stats.states, fresh.stats.states);
            assert_eq!(reused.stats.candidates, fresh.stats.candidates);
        }
    }

    /// A plan call builds its winner's join nodes and no others: `n − 1`
    /// per query in both modes, on planners reused across the fixture.
    #[test]
    fn only_the_winners_join_nodes_are_built() {
        let (db, job) = fixture();
        let ext = ext_job_workload(db.catalog(), 7);
        let est = HistogramEstimator::new(&db);
        let model = ExpertCostModel::new(db.clone(), OpWeights::postgres_like());
        for mode in [SearchMode::Bushy, SearchMode::LeftDeep] {
            let planner = DpPlanner::new(&db, &model, &est, mode);
            for q in job.queries.iter().chain(&ext.queries) {
                planner.plan(q);
                let built = planner.scratch.lock().joins_built.get();
                assert_eq!(built, q.num_tables() - 1, "{} {mode:?}", q.name);
            }
        }
    }

    #[test]
    fn left_deep_mode_yields_left_deep_plans() {
        let (db, w) = fixture();
        let est = HistogramEstimator::new(&db);
        let model = ExpertCostModel::new(db.clone(), OpWeights::commdb_like());
        for q in w.queries.iter().take(6) {
            let dp = DpPlanner::new(&db, &model, &est, SearchMode::LeftDeep);
            let out = dp.plan(q);
            assert!(out.plan.is_left_deep(), "{}: {}", q.name, out.plan);
            assert_eq!(out.plan.mask(), q.all_mask());
        }
    }

    #[test]
    fn bushy_space_never_worse_than_left_deep() {
        let (db, w) = fixture();
        let est = HistogramEstimator::new(&db);
        let model = ExpertCostModel::new(db.clone(), OpWeights::postgres_like());
        for q in w.queries.iter().take(6) {
            let bushy = DpPlanner::new(&db, &model, &est, SearchMode::Bushy).plan(q);
            let ld = DpPlanner::new(&db, &model, &est, SearchMode::LeftDeep).plan(q);
            assert!(
                bushy.cost <= ld.cost * (1.0 + 1e-9),
                "{}: bushy {} > left-deep {}",
                q.name,
                bushy.cost,
                ld.cost
            );
        }
    }

    #[test]
    fn dp_works_with_cout_model() {
        let (db, w) = fixture();
        let est = HistogramEstimator::new(&db);
        let model = CoutModel;
        let q = &w.queries[0];
        let out = DpPlanner::new(&db, &model, &est, SearchMode::Bushy).plan(q);
        let recost = model.plan_cost(q, &out.plan, &est);
        assert!((out.cost - recost).abs() <= 1e-9 * recost.max(1.0));
    }

    #[test]
    fn pareto_insert_dominance() {
        let mut interner = OrderInterner::new();
        let mut v = ParetoSet::default();
        let mut insert = |v: &mut ParetoSet, work: f64, orders: &[(usize, usize)]| {
            let sc = SubtreeCost {
                work,
                out_rows: 1.0,
                sorted_on: orders.to_vec(),
            };
            v.insert(interner.intern(orders), scan_entry(sc))
        };
        assert!(insert(&mut v, 10.0, &[]));
        // Cheaper, same orders: replaces.
        assert!(insert(&mut v, 8.0, &[]));
        assert_eq!(v.len(), 1);
        // More expensive but more orders: kept.
        assert!(insert(&mut v, 9.0, &[(0, 1)]));
        assert_eq!(v.len(), 2);
        // More expensive, no orders: dominated.
        assert!(!insert(&mut v, 8.5, &[]));
        // Cheaper with the same orders as the ordered entry: replaces it
        // AND dominates the plain one.
        assert!(insert(&mut v, 7.0, &[(0, 1)]));
        assert_eq!(v.len(), 1);
        // The key columns stay in lockstep with the entries.
        assert_eq!(v.works.len(), v.entries.len());
        assert_eq!(v.masks.len(), v.entries.len());
        assert_eq!(v.works[0], 7.0);
    }

    fn scan_entry(sc: SubtreeCost) -> Entry {
        Entry::scan(Plan::scan(0, ScanOp::Seq), sc)
    }

    /// `ClassThreshold::admit` keeps every cached class threshold equal,
    /// bit for bit, to a fresh `dominance_threshold` scan across random
    /// insert sequences: works drawn from a few values (ties), masks
    /// over 3 order bits (equal, nested, disjoint and empty classes).
    #[test]
    fn class_thresholds_track_fresh_scans() {
        use rand::rngs::SmallRng;
        use rand::{RngExt, SeedableRng};
        let classes: Vec<OrderMask> = (0..8u128).map(OrderMask).collect();
        let mut rng = SmallRng::seed_from_u64(0xD0);
        let mut inserts = 0;
        for _ in 0..200 {
            let mut set = ParetoSet::default();
            let mut cached: Vec<ClassThreshold> = classes
                .iter()
                .map(|&m| ClassThreshold::of(&set, m))
                .collect();
            for _ in 0..40 {
                let work = f64::from(rng.random_range(1..6u32)) * 0.5;
                let orders = OrderMask(u128::from(rng.random_range(0..8u8)));
                let sc = SubtreeCost {
                    work,
                    ..Default::default()
                };
                if !set.insert(orders, scan_entry(sc)) {
                    continue;
                }
                inserts += 1;
                for (t, &m) in cached.iter_mut().zip(&classes) {
                    t.admit(work, orders);
                    let fresh = set.dominance_threshold(m);
                    assert_eq!(t.work.to_bits(), fresh.to_bits(), "class {m:?}");
                }
            }
        }
        assert!(inserts > 1000, "only {inserts} inserts exercised");
    }

    /// The floor microbenchmark: `combine` over every level input of the
    /// largest fixture query (expert model, bushy; the closed lower
    /// levels the planner left in its scratch, each target set built
    /// afresh), beside a hand-written floor that sweeps the same columns
    /// with the same rejects against the *final* class thresholds —
    /// the best any insert order could reach — and calls `work_out`
    /// for what is left, with no inserts at all. A whole
    /// `DpPlanner::plan` of the query is timed beside them (asserted to
    /// return the first call's plan), so `combine`'s share of a plan call
    /// shows what the rest costs: enumeration, scans, the scratch reset
    /// and the winner's build. Run with
    /// `cargo test --release -p balsa-search --lib dp_kernel_floor -- --ignored --nocapture`.
    #[test]
    #[ignore]
    fn dp_kernel_floor() {
        const REPS: usize = 60;
        let (db, job) = fixture();
        let ext = ext_job_workload(db.catalog(), 7);
        let q = job
            .queries
            .iter()
            .chain(&ext.queries)
            .max_by_key(|q| (q.num_tables(), q.joins.len()))
            .unwrap();
        let est = HistogramEstimator::new(&db);
        let model = ExpertCostModel::new(db.clone(), OpWeights::postgres_like());
        let planner = DpPlanner::new(&db, &model, &est, SearchMode::Bushy);
        let planned = planner.plan(q);
        let whole = DpPlanner::new(&db, &model, &est, SearchMode::Bushy);
        let s = planner.scratch.lock();
        let space = CandidateSpace::new(&db, q, SearchMode::Bushy);
        let memo = MemoEstimator::new(&est);

        // Both orientations of every csg–cmp pair, with the dense index
        // of its target among the level outputs and that target's slot.
        let mut targets: HashMap<u32, usize> = HashMap::new();
        let mut target_slots = Vec::new();
        let mut items = Vec::new();
        for &(a, b) in s.pair_buckets.iter().flatten() {
            let t = *targets.entry(a | b).or_insert_with(|| {
                target_slots.push(s.slot_of[&(a | b)] as usize);
                target_slots.len() - 1
            });
            let (sa, sb) = (s.slot_of[&a] as usize, s.slot_of[&b] as usize);
            items.push((t, sa, sb, TableMask(a), TableMask(b)));
            items.push((t, sb, sa, TableMask(b), TableMask(a)));
        }
        let kernel = |stats: &mut SearchStats| -> Vec<ParetoSet> {
            let mut outs: Vec<ParetoSet> =
                target_slots.iter().map(|_| Default::default()).collect();
            for &(t, l, r, lm, rm) in &items {
                assert!(combine(
                    &space,
                    &model,
                    q,
                    &memo,
                    lm,
                    rm,
                    &s.entries,
                    l,
                    r,
                    &mut outs[t],
                    &s.interner,
                    stats,
                ));
            }
            outs
        };
        // The kernel rebuilds the memo's level outputs exactly.
        let mut stats = SearchStats::default();
        for (out, &slot) in kernel(&mut stats).iter().zip(&target_slots) {
            let bits = |set: &ParetoSet| set.works.iter().map(|w| w.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(out), bits(&s.entries[slot]));
            assert_eq!(out.masks, s.entries[slot].masks);
        }
        let scans: usize = (0..q.num_tables())
            .map(|qt| s.entries[s.slot_of[&(1u32 << qt)] as usize].len())
            .sum();
        assert_eq!(stats.candidates + scans, planned.stats.candidates);

        // The floor, written for the expert model's order sources.
        let probe = model.pair_coster(q, items[0].3, items[0].4, &memo).unwrap();
        assert_eq!(
            JoinOp::ALL.map(|op| probe.order_source(op)),
            [
                OrderSource::Empty,
                OrderSource::Pair,
                OrderSource::LeftInput
            ]
        );
        let floor = |sink: &mut f64| -> usize {
            let mut calls = 0;
            for &(t, l, r, lm, rm) in &items {
                let (left, right) = (&s.entries[l], &s.entries[r]);
                let fin = &s.entries[target_slots[t]];
                let coster = model.pair_coster(q, lm, rm, &memo).unwrap();
                let pair = s.interner.mask_of(coster.pair_sorted_on());
                let (t_none, t_pair) = (
                    fin.dominance_threshold(OrderMask::EMPTY),
                    fin.dominance_threshold(pair),
                );
                let min_right = right.works.iter().copied().fold(f64::INFINITY, f64::min);
                for ((&lw, &lo), le) in left.works.iter().zip(&left.masks).zip(&left.entries) {
                    let th = [t_none, t_pair, fin.dominance_threshold(lo)];
                    if th[0].max(th[1]).max(th[2]) <= lw + min_right {
                        continue;
                    }
                    for (&rw, re) in right.works.iter().zip(&right.entries) {
                        let base = lw + rw;
                        for (&op, &thresh) in JoinOp::ALL.iter().zip(&th) {
                            if thresh <= base {
                                continue;
                            }
                            calls += 1;
                            *sink += coster.work_out(op, &le.sc, &re.sc, re.index_scan).0;
                        }
                    }
                }
            }
            calls
        };

        // Interleave the two sides per repetition and report medians, so
        // load from other processes hits both alike.
        let (mut kernel_ns, mut floor_ns, mut plan_ns) = (Vec::new(), Vec::new(), Vec::new());
        let mut sink = 0.0;
        let mut floor_calls = 0;
        for _ in 0..REPS {
            let mut stats = SearchStats::default();
            let t = Instant::now();
            let outs = kernel(&mut stats);
            kernel_ns.push(t.elapsed().as_nanos());
            drop(std::hint::black_box(outs));
            let t = Instant::now();
            floor_calls = floor(&mut sink);
            floor_ns.push(t.elapsed().as_nanos());
            let t = Instant::now();
            let again = whole.plan(q);
            plan_ns.push(t.elapsed().as_nanos());
            assert_eq!(again.plan, planned.plan);
            assert_eq!(again.cost.to_bits(), planned.cost.to_bits());
        }
        let median = |mut ns: Vec<u128>| {
            ns.sort_unstable();
            ns[ns.len() / 2] as f64
        };
        let cands = stats.candidates as f64;
        let (k, f, p) = (median(kernel_ns), median(floor_ns), median(plan_ns));
        println!(
            "{} ({} tables, {} pair orientations, {} candidates): combine {:.2} ns/candidate \
             ({} work_out calls), floor {:.2} ns/candidate ({floor_calls} work_out calls), \
             ratio {:.2} (sink {sink:.3e}); whole plan {:.3} ms, combine {:.0} % of it",
            q.name,
            q.num_tables(),
            items.len(),
            stats.candidates,
            k / cands,
            stats.cost_calls,
            f / cands,
            k / f,
            p / 1e6,
            100.0 * k / p
        );
    }
}
