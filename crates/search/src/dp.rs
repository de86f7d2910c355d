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
//! Two enumerators share that Pareto machinery:
//!
//! * [`DpPlanner`] — the production planner. DPccp-style
//!   connected-subgraph / connected-complement enumeration over the
//!   precomputed [`JoinGraph`] adjacency (only genuinely connected
//!   `(csg, cmp)` pairs are ever visited), a hash-indexed memo holding
//!   entries **only for connected subsets**, interesting-order sets
//!   packed into [`OrderMask`] bitmasks (dominance = two integer ops),
//!   and a scratch memo reused across queries. Sufficiently heavy DP
//!   levels can additionally fan their csg–cmp costing out across a
//!   [`WorkerPool`] ([`DpPlanner::with_pool`]) with results — plans,
//!   costs, frontiers, Vec order — **bit-identical** to the serial
//!   sweep for any thread count. This is the hot path the benchmarks
//!   measure.
//! * [`SubmaskDpPlanner`] — the original `3^n` submask-scan enumerator,
//!   retained verbatim as the correctness oracle: the property tests
//!   assert both planners produce bit-identical best-plan costs and
//!   identical Pareto frontiers on every workload query.
//!
//! Both hint spaces are supported: [`SearchMode::Bushy`] enumerates all
//! connected-subgraph/complement pairs, [`SearchMode::LeftDeep`] only
//! splits off single tables (CommDbSim, §8.2).

use crate::beam::BeamPlanner;
use crate::budget::verify_emitted;
use crate::candidates::CandidateSpace;
use crate::enumerate::JoinGraph;
use crate::greedy::GreedyLeftDeepPlanner;
use crate::pool::WorkerPool;
use crate::scratch::SharedScratch;
use crate::{
    MemoEstimator, PlanBudget, PlanError, PlannedQuery, Planner, SearchMode, SearchStats,
    FALLBACK_BEAM_WIDTH,
};
use balsa_card::CardEstimator;
use balsa_cost::{CostModel, CostScorer, OrderInterner, OrderMask, OrderSource, SubtreeCost};
use balsa_query::{Plan, Query, ScanOp, TableMask};
use balsa_storage::Database;
use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;
use std::time::Instant;

/// One Pareto entry: the cheapest known subplan producing its exact
/// output-order set (packed through the query's [`OrderInterner`]).
struct Entry {
    plan: Arc<Plan>,
    sc: SubtreeCost,
    orders: OrderMask,
}

/// A Pareto set with its dominance keys `(work, orders)` in a compact
/// parallel array, so the per-candidate reject-scan streams 32-byte
/// records instead of chasing plan pointers. Dominance is two integer
/// ops per comparison: `work` compare + order-mask superset test.
#[derive(Default)]
struct ParetoSet {
    keys: Vec<(f64, OrderMask)>,
    entries: Vec<Entry>,
}

impl ParetoSet {
    /// Whether a candidate with this key is dominated by the set.
    #[inline]
    fn dominates(&self, work: f64, orders: OrderMask) -> bool {
        self.keys
            .iter()
            .any(|&(w, o)| w <= work && o.contains_all(orders))
    }

    /// Cheapest work among entries whose orders cover `orders` —
    /// the dominance threshold for a whole class of candidates
    /// (`f64::INFINITY` when none covers it). Any candidate of this
    /// order class whose work reaches the threshold is dominated.
    fn dominance_threshold(&self, orders: OrderMask) -> f64 {
        self.keys
            .iter()
            .filter(|(_, o)| o.contains_all(orders))
            .map(|&(w, _)| w)
            .fold(f64::INFINITY, f64::min)
    }

    /// Inserts an **undominated** entry, dropping entries it dominates
    /// (order-preserving). Callers check [`ParetoSet::dominates`] first.
    fn insert_undominated(&mut self, entry: Entry) {
        let (work, orders) = (entry.sc.work, entry.orders);
        let mut i = 0;
        while i < self.keys.len() {
            let (w, o) = self.keys[i];
            if work <= w && orders.contains_all(o) {
                self.keys.remove(i);
                self.entries.remove(i);
            } else {
                i += 1;
            }
        }
        self.keys.push((work, orders));
        self.entries.push(entry);
    }

    /// Inserts `cand`, dropping dominated entries. Returns whether the
    /// candidate survived.
    fn insert(&mut self, cand: Entry) -> bool {
        if self.dominates(cand.sc.work, cand.orders) {
            return false;
        }
        self.insert_undominated(cand);
        true
    }

    fn len(&self) -> usize {
        self.entries.len()
    }

    fn clear(&mut self) {
        self.keys.clear();
        self.entries.clear();
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

/// A [`CardEstimator`] with one union's cardinality pinned on the stack.
///
/// Every candidate generated for one csg–cmp pair asks the estimator for
/// exactly the same union cardinality; resolving it once per pair turns
/// the per-candidate lookup (a mutex + hash probe inside
/// [`MemoEstimator`]) into two word compares. All other masks forward to
/// the memo unchanged.
struct PinnedCard<'a> {
    inner: &'a MemoEstimator<'a>,
    mask: TableMask,
    card: f64,
}

impl<'a> PinnedCard<'a> {
    fn new(inner: &'a MemoEstimator<'a>, query: &Query, mask: TableMask) -> Self {
        Self {
            inner,
            mask,
            card: inner.cardinality(query, mask),
        }
    }
}

impl CardEstimator for PinnedCard<'_> {
    fn cardinality(&self, query: &Query, mask: TableMask) -> f64 {
        if mask == self.mask {
            self.card
        } else {
            self.inner.cardinality(query, mask)
        }
    }

    fn base_rows(&self, query: &Query, qt: usize) -> f64 {
        self.inner.base_rows(query, qt)
    }
}

/// The complete universe of interesting orders `query` can surface,
/// sorted: every `(qt, col)` that can appear in a `sorted_on` list is
/// either a join-edge endpoint or an indexed column of a referenced
/// table. Cheap (one pass over edges + catalog columns), computed once
/// per query — its length decides whether the 128-bit order interner
/// suffices, and pre-interning it makes the interner **read-only**
/// during planning, so parallel DP levels can share it by reference.
/// Sorted so order-bit assignment is a pure function of the query (bit
/// identity never depends on enumeration or hash-iteration order).
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

/// Reusable per-planner scratch: the hash-indexed memo (slots exist only
/// for connected subsets actually touched), the per-query order
/// interner, and the enumeration buckets. Cleared — allocations kept —
/// between queries, so a planner amortizes its heap across a workload.
#[derive(Default)]
struct DpScratch {
    interner: OrderInterner,
    /// Connected mask -> dense slot index into `entries`.
    slot_of: HashMap<u32, u32>,
    /// Pareto sets, indexed by slot. `entries[used..]` are retired
    /// (empty, capacity retained) sets from earlier queries.
    entries: Vec<ParetoSet>,
    used: usize,
    /// Bushy mode: unordered csg–cmp pairs bucketed by union size.
    pair_buckets: Vec<Vec<(u32, u32)>>,
    /// Left-deep mode: connected masks bucketed by size.
    csg_buckets: Vec<Vec<u32>>,
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

/// Default parallelization threshold: a level whose estimated combine
/// work (Σ |left Pareto| × |right Pareto| over its pairs, both
/// orientations) falls below this runs serially. With the persistent
/// [`WorkerPool`] a fan-out costs one lock + condvar wake
/// (sub-microsecond) instead of per-call `thread::spawn`s (tens of
/// microseconds each), so the threshold dropped 8192 → 256: only
/// levels too small to amortize even a wake — a few microseconds of
/// serial costing — stay serial. Estimated products, not final
/// candidates (each product expands by the join-op count).
const DEFAULT_PAR_CUTOFF: usize = 256;

/// The production DP planner: DPccp enumeration + bitmask Pareto sets.
pub struct DpPlanner<'a> {
    db: &'a Database,
    cost: &'a dyn CostModel,
    est: &'a dyn CardEstimator,
    mode: SearchMode,
    pool: WorkerPool,
    par_cutoff: usize,
    budget: PlanBudget,
    scratch: SharedScratch<DpScratch>,
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
            pool: WorkerPool::new(1),
            par_cutoff: DEFAULT_PAR_CUTOFF,
            budget: PlanBudget::UNLIMITED,
            scratch: SharedScratch::new(),
        }
    }

    /// Arms a [`PlanBudget`]. Checks happen only at deterministic level
    /// boundaries on thread-invariant counters (candidates + pairs,
    /// live Pareto entries), so whether — and where — the budget fires
    /// is bit-reproducible and independent of thread count. The default
    /// [`PlanBudget::UNLIMITED`] is bit-identical to not checking at
    /// all.
    pub fn with_budget(mut self, budget: PlanBudget) -> Self {
        self.budget = budget;
        self
    }

    /// Runs each sufficiently heavy DP level's csg–cmp costing across
    /// `pool` (intra-query parallelism). Results are **bit-identical**
    /// to the serial planner for any pool size: workers cost disjoint
    /// pairs into pair-local Pareto sets, and the main thread replays
    /// those sets into the memo in deterministic enumeration order —
    /// see the bit-identity property tests.
    pub fn with_pool(mut self, pool: WorkerPool) -> Self {
        self.pool = pool;
        self
    }

    /// Overrides the estimated-work threshold above which a level is
    /// costed in parallel (default `DEFAULT_PAR_CUTOFF`, now small
    /// enough that nearly every multi-pair level of a real query fans
    /// out). `0` forces every multi-pair level through the parallel
    /// path — useful for exercising it on small test queries; it never
    /// changes results, only where the work runs.
    pub fn with_parallel_cutoff(mut self, cutoff: usize) -> Self {
        self.par_cutoff = cutoff;
        self
    }

    /// Plans `query` and additionally returns the full-mask Pareto
    /// frontier in canonical form (for cross-enumerator equality tests).
    ///
    /// # Panics
    /// Panics on any [`PlanError`]; adversarial callers use
    /// [`DpPlanner::try_plan_with_frontier`].
    pub fn plan_with_frontier(&self, query: &Query) -> (PlannedQuery, Vec<FrontierEntry>) {
        self.try_plan_with_frontier(query)
            .unwrap_or_else(|e| panic!("{}: {e}", self.name()))
    }

    /// The raw, chain-free entry point: plans `query` with the frontier
    /// attached, surfacing [`PlanError::BudgetExhausted`] instead of
    /// degrading through the fallback chain ([`Planner::try_plan`] does
    /// that).
    pub fn try_plan_with_frontier(
        &self,
        query: &Query,
    ) -> Result<(PlannedQuery, Vec<FrontierEntry>), PlanError> {
        self.run(query, true)
    }

    /// Whether a level with the given estimated per-unit combine work
    /// (Pareto-set size products) is worth fanning out over the pool.
    /// Short-circuits: a serial pool never evaluates the estimate.
    fn level_runs_parallel(&self, est_ops: impl Iterator<Item = usize>) -> bool {
        self.pool.threads() > 1 && est_ops.sum::<usize>() >= self.par_cutoff
    }

    fn run(
        &self,
        query: &Query,
        want_frontier: bool,
    ) -> Result<(PlannedQuery, Vec<FrontierEntry>), PlanError> {
        let start = Instant::now();
        let n = query.num_tables();
        if n == 0 {
            return Err(PlanError::DisconnectedGraph {
                query: query.name.clone(),
            });
        }
        // The interner packs order sets into 128 bits. A query whose
        // order universe could overflow that (≥ 22 tables of ≥ 6
        // indexed/edge columns each) routes to the BTreeSet-based
        // submask enumerator, which has no such cap — exactly the
        // pre-DPccp behavior for such queries, keeping `plan` total
        // where it used to be. (A DPccp variant with uncapped set-based
        // order keys would serve sparse many-column giants better; see
        // ROADMAP "Planner perf, next round".)
        let universe = order_universe(self.db, query);
        if universe.len() > 128 {
            return SubmaskDpPlanner::new(self.db, self.cost, self.est, self.mode)
                .with_budget(self.budget)
                .try_plan_with_frontier(query);
        }
        let space = CandidateSpace::new(self.db, query, self.mode);
        let memo = MemoEstimator::new(self.est);
        let mut stats = SearchStats::default();
        // Reuse the planner's scratch when it is free; under concurrent
        // `plan` calls (one planner shared across a worker pool) fall
        // back to a fresh local scratch instead of blocking, so
        // parallel planning never serializes and `planning_secs` never
        // includes lock-wait. Scratch identity does not affect results.
        let mut guard = self.scratch.acquire();
        let s: &mut DpScratch = &mut guard;
        s.reset(n);
        // Pre-intern the whole (sorted) order universe: bit assignment
        // becomes a pure function of the query and the interner is
        // read-only for the rest of planning — parallel level workers
        // derive masks through `&OrderInterner` with no synchronization.
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

        // Budget boundary check: thread-invariant work (candidates +
        // pairs; `cost_calls` deliberately excluded — it depends on how
        // a level was partitioned) against live Pareto entries,
        // evaluated only *between* levels, never inside one, so
        // parallel and serial sweeps make bit-identical decisions.
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
                s.entries[slot].insert(Entry {
                    plan: scan,
                    sc,
                    orders,
                });
            }
        }

        // Bottom-up by subset size: every pair's sides are strictly
        // smaller than its union, so their Pareto sets are final — which
        // is also what makes a level's pairs independent units of work.
        //
        // A level heavy enough to beat the pool's fan-out cost (see
        // `par_cutoff`) is costed in parallel: each worker combines its
        // pairs into **pair-local** Pareto sets against the (read-only)
        // lower levels, then the main thread replays every local set
        // into the memo in deterministic enumeration order. Replaying a
        // candidate stream through `ParetoSet::insert` yields exactly
        // the first-occurring dominance-maximal candidates in stream
        // order, and local sets preserve their pairs' candidate order,
        // so the merged memo — entries, costs, Vec order — is
        // bit-identical to one serial sweep. Workers prune against the
        // pair-local frontier only (weaker thresholds than the serial
        // shared-target sweep), so they may *cost* more candidates, but
        // never admit or order them differently; only `cost_calls`
        // reflects the partitioning.
        check_budget(s, &stats)?;
        for size in 2..=n {
            match self.mode {
                SearchMode::Bushy => {
                    let bucket = std::mem::take(&mut s.pair_buckets[size]);
                    if bucket.len() >= 2
                        && self.level_runs_parallel(bucket.iter().map(|&(a, b)| {
                            let la = s.entries[s.slot_of[&a] as usize].len();
                            let lb = s.entries[s.slot_of[&b] as usize].len();
                            2 * la * lb
                        }))
                    {
                        let shared: &DpScratch = s;
                        let results = self.pool.steal_map(&bucket, 1, |_, &(a, b)| {
                            let sa = shared.slot_of[&a] as usize;
                            let sb = shared.slot_of[&b] as usize;
                            let mut local = ParetoSet::default();
                            let mut lstats = SearchStats::default();
                            for (l, r, lm, rm) in [(sa, sb, a, b), (sb, sa, b, a)] {
                                combine(
                                    &space,
                                    self.cost,
                                    query,
                                    &memo,
                                    TableMask(lm),
                                    TableMask(rm),
                                    &shared.entries[l],
                                    &shared.entries[r],
                                    &mut local,
                                    &shared.interner,
                                    &mut lstats,
                                );
                            }
                            (local, lstats)
                        });
                        for (&(a, b), (local, lstats)) in bucket.iter().zip(results) {
                            stats.candidates += lstats.candidates;
                            stats.cost_calls += lstats.cost_calls;
                            let target = s.slot(a | b);
                            let cur = &mut s.entries[target];
                            if cur.len() == 0 {
                                *cur = local;
                            } else {
                                for e in local.entries {
                                    cur.insert(e);
                                }
                            }
                        }
                    } else {
                        for &(a, b) in &bucket {
                            let sa = *s.slot_of.get(&a).expect("csg side already memoized");
                            let sb = *s.slot_of.get(&b).expect("cmp side already memoized");
                            let target = s.slot(a | b);
                            let mut cur = std::mem::take(&mut s.entries[target]);
                            for (l, r, lm, rm) in [(sa, sb, a, b), (sb, sa, b, a)] {
                                combine(
                                    &space,
                                    self.cost,
                                    query,
                                    &memo,
                                    TableMask(lm),
                                    TableMask(rm),
                                    &s.entries[l as usize],
                                    &s.entries[r as usize],
                                    &mut cur,
                                    &s.interner,
                                    &mut stats,
                                );
                            }
                            s.entries[target] = cur;
                        }
                    }
                    // Hand the bucket Vec back so its allocation is
                    // reused by the next query.
                    s.pair_buckets[size] = bucket;
                }
                SearchMode::LeftDeep => {
                    let bucket = std::mem::take(&mut s.csg_buckets[size]);
                    if bucket.len() >= 2
                        && self.level_runs_parallel(bucket.iter().map(|&mask| {
                            // Slight overestimate (skips the connectivity
                            // filter) — fine for a fan-out heuristic.
                            TableMask(mask)
                                .iter()
                                .map(|t| {
                                    let rest = mask & !(1u32 << t);
                                    s.slot_of.get(&rest).map_or(0, |&sr| {
                                        s.entries[sr as usize].len()
                                            * s.entries[s.slot_of[&(1u32 << t)] as usize].len()
                                    })
                                })
                                .sum()
                        }))
                    {
                        let shared: &DpScratch = s;
                        let graph = &graph;
                        let results = self.pool.steal_map(&bucket, 1, |_, &mask| {
                            let mut local = ParetoSet::default();
                            let mut lstats = SearchStats::default();
                            for t in TableMask(mask).iter() {
                                let rest = mask & !(1u32 << t);
                                let Some(&sr) = shared.slot_of.get(&rest) else {
                                    continue;
                                };
                                if !graph.connected_between(TableMask(rest), TableMask::single(t)) {
                                    continue;
                                }
                                let st = shared.slot_of[&(1u32 << t)] as usize;
                                lstats.pairs += 1;
                                combine(
                                    &space,
                                    self.cost,
                                    query,
                                    &memo,
                                    TableMask(rest),
                                    TableMask::single(t),
                                    &shared.entries[sr as usize],
                                    &shared.entries[st],
                                    &mut local,
                                    &shared.interner,
                                    &mut lstats,
                                );
                            }
                            (local, lstats)
                        });
                        for (&mask, (local, lstats)) in bucket.iter().zip(results) {
                            stats.pairs += lstats.pairs;
                            stats.candidates += lstats.candidates;
                            stats.cost_calls += lstats.cost_calls;
                            // Each left-deep mask has its own target, so
                            // the local set *is* the level result.
                            let target = s.slot(mask);
                            s.entries[target] = local;
                        }
                    } else {
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
                                combine(
                                    &space,
                                    self.cost,
                                    query,
                                    &memo,
                                    TableMask(rest),
                                    TableMask::single(t),
                                    &s.entries[sr as usize],
                                    &s.entries[st as usize],
                                    &mut cur,
                                    &s.interner,
                                    &mut stats,
                                );
                            }
                            s.entries[target] = cur;
                        }
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
            plan: best.plan.clone(),
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

/// Combines every (left entry, right entry, join op) candidate into
/// `cur`'s Pareto set. Orientation is fixed by the caller; connectivity
/// and disjointness hold by construction of the enumeration, and the
/// left-deep right side is always a single-table slot, so the
/// [`CandidateSpace`] mode filter is already satisfied.
///
/// The hot path runs through the cost model's [`PairCoster`] session:
/// per candidate it is a virtual work call, an order-mask derivation
/// (two integer ops for hash/NL), and the dominance reject-scan — no
/// allocation at all until a candidate survives. Models without a
/// session fall back to [`CostModel::join_summary_parts`] per candidate
/// (with the union cardinality pinned).
///
/// The interner is **read-only** (the whole order universe is interned
/// before costing starts), which is what lets parallel level workers
/// call `combine` concurrently against one shared scratch.
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
    left: &ParetoSet,
    right: &ParetoSet,
    cur: &mut ParetoSet,
    interner: &OrderInterner,
    stats: &mut SearchStats,
) {
    if let Some(coster) = cost.pair_coster(query, lmask, rmask, memo) {
        // Resolve each operator's order semantics once per orientation;
        // the session-constant order list is interned at most once.
        let ops = space.join_ops();
        let mut sources = [OrderSource::Empty; 8];
        assert!(ops.len() <= sources.len(), "more join ops than expected");
        for (i, &op) in ops.iter().enumerate() {
            sources[i] = coster.order_source(op);
        }
        let mut pair_mask: Option<OrderMask> = None;
        // Cached dominance thresholds per order class. A candidate's
        // order mask is known *before* costing, and (for models that
        // declare it) work is child-monotone, so
        // `threshold <= lc.work + rc.work` rejects a candidate without
        // the costing call at all. Stale values are only ever too high
        // (inserts can only lower a threshold), and every insert
        // refreshes them, so the early reject is exact.
        let monotone = coster.child_monotone();
        let mut thresh_empty = cur.dominance_threshold(OrderMask::EMPTY);
        let mut thresh_pair = f64::INFINITY;
        let mut thresh_pair_valid = false;
        for le in &left.entries {
            let mut thresh_left = cur.dominance_threshold(le.orders);
            for re in &right.entries {
                debug_assert!(space.allows_join(&le.plan, &re.plan));
                let right_index_scan = matches!(
                    &*re.plan,
                    Plan::Scan {
                        op: ScanOp::Index,
                        ..
                    }
                );
                let base = le.sc.work + re.sc.work;
                for (i, &op) in ops.iter().enumerate() {
                    stats.candidates += 1;
                    let (orders, thresh) = match sources[i] {
                        OrderSource::Empty => (OrderMask::EMPTY, thresh_empty),
                        OrderSource::LeftInput => (le.orders, thresh_left),
                        OrderSource::Pair => {
                            let m = *pair_mask
                                .get_or_insert_with(|| interner.mask_of(coster.pair_sorted_on()));
                            if !thresh_pair_valid {
                                thresh_pair = cur.dominance_threshold(m);
                                thresh_pair_valid = true;
                            }
                            (m, thresh_pair)
                        }
                    };
                    if monotone && thresh <= base {
                        continue; // dominated whatever the exact work is
                    }
                    stats.cost_calls += 1;
                    let (work, out_rows) = coster.work_out(op, &le.sc, &re.sc, right_index_scan);
                    if cur.dominates(work, orders) {
                        continue;
                    }
                    let sorted_on = match sources[i] {
                        OrderSource::Empty => Vec::new(),
                        OrderSource::LeftInput => le.sc.sorted_on.clone(),
                        OrderSource::Pair => coster.pair_sorted_on().to_vec(),
                    };
                    let plan = Plan::join(op, le.plan.clone(), re.plan.clone());
                    cur.insert_undominated(Entry {
                        plan,
                        sc: SubtreeCost {
                            work,
                            out_rows,
                            sorted_on,
                        },
                        orders,
                    });
                    // Inserts are rare; refresh every cached threshold.
                    thresh_empty = cur.dominance_threshold(OrderMask::EMPTY);
                    thresh_left = cur.dominance_threshold(le.orders);
                    if let Some(m) = pair_mask {
                        thresh_pair = cur.dominance_threshold(m);
                    }
                }
            }
        }
        return;
    }
    // Fallback for models without a pair session: per-candidate summary
    // with the union cardinality pinned.
    let pinned = PinnedCard::new(memo, query, lmask.union(rmask));
    for le in &left.entries {
        for re in &right.entries {
            debug_assert!(space.allows_join(&le.plan, &re.plan));
            for &op in space.join_ops() {
                let sc =
                    cost.join_summary_parts(query, op, &le.plan, &le.sc, &re.plan, &re.sc, &pinned);
                stats.candidates += 1;
                stats.cost_calls += 1;
                let orders = interner.mask_of_cost(&sc);
                if cur.dominates(sc.work, orders) {
                    continue;
                }
                let plan = Plan::join(op, le.plan.clone(), re.plan.clone());
                cur.insert_undominated(Entry { plan, sc, orders });
            }
        }
    }
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

    /// Plans `query` and returns the canonical full-mask Pareto frontier.
    ///
    /// # Panics
    /// Panics on any [`PlanError`]; adversarial callers use
    /// [`SubmaskDpPlanner::try_plan_with_frontier`].
    pub fn plan_with_frontier(&self, query: &Query) -> (PlannedQuery, Vec<FrontierEntry>) {
        self.try_plan_with_frontier(query)
            .unwrap_or_else(|e| panic!("{}: {e}", self.name()))
    }

    /// The raw, chain-free entry point: surfaces
    /// [`PlanError::BudgetExhausted`] instead of degrading through the
    /// fallback chain.
    pub fn try_plan_with_frontier(
        &self,
        query: &Query,
    ) -> Result<(PlannedQuery, Vec<FrontierEntry>), PlanError> {
        let start = Instant::now();
        let n = query.num_tables();
        if n == 0 {
            return Err(PlanError::DisconnectedGraph {
                query: query.name.clone(),
            });
        }
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

        // Budget discipline: the same thread-invariant work measure as
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
mod tests {
    use super::*;
    use balsa_card::HistogramEstimator;
    use balsa_cost::{CoutModel, ExpertCostModel, OpWeights};
    use balsa_query::workloads::job_workload;
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
    fn parallel_levels_match_serial_bit_for_bit() {
        // Unit-level smoke of the intra-query parallel DP (the full
        // 137-query × pools × models sweep lives in the integration
        // tests): cutoff 0 forces every multi-pair level through the
        // parallel path even on these small queries.
        let (db, w) = fixture();
        let est = HistogramEstimator::new(&db);
        let model = ExpertCostModel::new(db.clone(), OpWeights::postgres_like());
        for mode in [SearchMode::Bushy, SearchMode::LeftDeep] {
            for q in w.queries.iter().take(6) {
                let (serial, sf) = DpPlanner::new(&db, &model, &est, mode).plan_with_frontier(q);
                let (par, pf) = DpPlanner::new(&db, &model, &est, mode)
                    .with_pool(WorkerPool::new(4))
                    .with_parallel_cutoff(0)
                    .plan_with_frontier(q);
                assert_eq!(par.cost.to_bits(), serial.cost.to_bits(), "{}", q.name);
                assert_eq!(
                    par.plan.fingerprint(),
                    serial.plan.fingerprint(),
                    "{}",
                    q.name
                );
                assert_eq!(pf, sf, "{}: frontier differs", q.name);
                assert_eq!(par.stats.states, serial.stats.states, "{}", q.name);
                assert_eq!(par.stats.pairs, serial.stats.pairs, "{}", q.name);
                assert_eq!(par.stats.candidates, serial.stats.candidates, "{}", q.name);
                // `cost_calls` is deliberately partition-dependent
                // (pair-local pruning), so it is only sanity-bounded.
                assert!(
                    par.stats.cost_calls >= serial.stats.cost_calls,
                    "{}",
                    q.name
                );
            }
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
        let mut mk = |work: f64, orders: &[(usize, usize)]| Entry {
            plan: Plan::scan(0, ScanOp::Seq),
            sc: SubtreeCost {
                work,
                out_rows: 1.0,
                sorted_on: orders.to_vec(),
            },
            orders: interner.intern(orders),
        };
        let mut v = ParetoSet::default();
        assert!(v.insert(mk(10.0, &[])));
        // Cheaper, same orders: replaces.
        assert!(v.insert(mk(8.0, &[])));
        assert_eq!(v.len(), 1);
        // More expensive but more orders: kept.
        assert!(v.insert(mk(9.0, &[(0, 1)])));
        assert_eq!(v.len(), 2);
        // More expensive, no orders: dominated.
        assert!(!v.insert(mk(8.5, &[])));
        // Cheaper with the same orders as the ordered entry: replaces it
        // AND dominates the plain one.
        assert!(v.insert(mk(7.0, &[(0, 1)])));
        assert_eq!(v.len(), 1);
        // The parallel key array stays in lockstep.
        assert_eq!(v.keys.len(), v.entries.len());
        assert_eq!(v.keys[0].0, 7.0);
    }
}
