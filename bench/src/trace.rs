//! Spans recorded from outside the program, around calls into its
//! public functions and trait objects.
//!
//! A **span** is `{name, start_ns, end_ns, parent, op}` held in memory
//! and written out when the run ends. A **hot call** is a span too
//! frequent to keep one record of (1.2 M `work_out` calls per DP pass):
//! it is timed the same way but folded into one aggregate per kind.
//! Both report their duration to the frame that encloses them, so a
//! frame's **self time** is its duration minus the part its direct
//! children — spans and hot calls alike — cover. By construction a
//! parent's duration equals its self time plus its children's
//! durations, so the ledger closes without a remainder of its own: what
//! the harness cannot see inside a call is that call's self time.
//!
//! Traced sections run on one thread. The tracer is `Sync` because the
//! traits it decorates demand it, not because attribution across
//! threads would mean anything.

use crate::json::Json;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Mutex;
use std::time::Instant;

/// The hot-call kinds, one aggregate each.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Hot {
    /// `CardEstimator::{cardinality, selectivity, base_rows}`.
    Card,
    /// `CostModel::pair_coster` — opening one csg–cmp session.
    CostSessionOpen,
    /// `PairCoster::work_out`.
    CostWorkOut,
    /// `CostModel::{plan_cost, scan_summary, join_summary, join_summary_parts}`.
    CostSummary,
    /// `PlanScorer::for_query`.
    ScorerOpen,
    /// `QueryScorer::{score_scan, score_join}` — the per-candidate path.
    ScorerSingle,
    /// `ValueModel::{predict, predict_batch, leaf_state, join_state,
    /// state_value, join_state_batch, state_value_batch}`.
    ModelInfer,
}

impl Hot {
    pub const ALL: [Hot; 7] = [
        Hot::Card,
        Hot::CostSessionOpen,
        Hot::CostWorkOut,
        Hot::CostSummary,
        Hot::ScorerOpen,
        Hot::ScorerSingle,
        Hot::ModelInfer,
    ];

    /// One call in `stride` is timed. Only `work_out` — well over a
    /// million calls of a few tens of nanoseconds per DP pass, with no
    /// traced call inside it — is sampled: timing each would cost more
    /// than the calls themselves.
    pub fn stride(self) -> u64 {
        match self {
            Hot::CostWorkOut => 8,
            _ => 1,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Hot::Card => "card.call",
            Hot::CostSessionOpen => "cost.session_open",
            Hot::CostWorkOut => "cost.work_out",
            Hot::CostSummary => "cost.summary",
            Hot::ScorerOpen => "scorer.open",
            Hot::ScorerSingle => "scorer.single",
            Hot::ModelInfer => "model.infer",
        }
    }
}

/// One recorded span. `op` is the workload operation (index of the
/// planned query) it served, shared by every span of that operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
    pub op: Option<u32>,
    /// Summed durations of the direct children (spans and hot calls).
    pub child_ns: u64,
}

impl Span {
    pub fn busy_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    pub fn self_ns(&self) -> u64 {
        self.busy_ns().saturating_sub(self.child_ns)
    }
}

/// Calls, inclusive time and self time under one name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Totals {
    pub calls: u64,
    pub busy_ns: u64,
    pub self_ns: u64,
}

impl Totals {
    pub fn busy_s(&self) -> f64 {
        self.busy_ns as f64 * 1e-9
    }

    pub fn self_s(&self) -> f64 {
        self.self_ns as f64 * 1e-9
    }
}

#[derive(Default)]
struct HotCell {
    calls: AtomicU64,
    busy_ns: AtomicU64,
    self_ns: AtomicU64,
}

#[derive(Default)]
struct SpanLog {
    spans: Vec<Span>,
    open: Vec<u32>,
    op: Option<u32>,
}

pub struct Tracer {
    epoch: Instant,
    /// What an empty hot call measures: the clock's own cost.
    empty_ns: u64,
    /// Durations of the children completed so far inside the innermost
    /// open frame.
    child_ns: AtomicU64,
    hot: [HotCell; Hot::ALL.len()],
    log: Mutex<SpanLog>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    pub fn new() -> Self {
        let mut empty: Vec<u64> = (0..1001)
            .map(|_| Instant::now().elapsed().as_nanos() as u64)
            .collect();
        empty.sort_unstable();
        Self {
            epoch: Instant::now(),
            empty_ns: empty[empty.len() / 2],
            child_ns: AtomicU64::new(0),
            hot: Default::default(),
            log: Mutex::new(SpanLog::default()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn log(&self) -> std::sync::MutexGuard<'_, SpanLog> {
        self.log
            .lock()
            .expect("no traced call panics while logging")
    }

    /// Forgets everything recorded so far (after a warm-up pass).
    pub fn reset(&self) {
        *self.log() = SpanLog::default();
        self.child_ns.store(0, Relaxed);
        for cell in &self.hot {
            cell.calls.store(0, Relaxed);
            cell.busy_ns.store(0, Relaxed);
            cell.self_ns.store(0, Relaxed);
        }
    }

    /// Tags the spans that follow with workload operation `op`.
    pub fn set_op(&self, op: Option<u32>) {
        self.log().op = op;
    }

    /// Runs `f` inside a recorded span.
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let outer = self.child_ns.swap(0, Relaxed);
        let start_ns = self.now_ns();
        let idx = {
            let mut log = self.log();
            let idx = log.spans.len() as u32;
            let (parent, op) = (log.open.last().copied(), log.op);
            log.spans.push(Span {
                name,
                start_ns,
                end_ns: start_ns,
                parent,
                op,
                child_ns: 0,
            });
            log.open.push(idx);
            idx
        };
        let r = f();
        let end_ns = self.now_ns();
        let child_ns = self.child_ns.swap(outer + (end_ns - start_ns), Relaxed);
        let mut log = self.log();
        log.open.pop();
        let span = &mut log.spans[idx as usize];
        span.end_ns = end_ns;
        span.child_ns = child_ns;
        r
    }

    /// Runs `f` as one hot call of `kind`. Every call is counted; every
    /// [`Hot::stride`]-th is timed, and its duration — less what timing
    /// an empty call reads — stands for the whole stride.
    ///
    /// Plain loads and stores, not read-modify-writes: traced sections
    /// run on one thread, and a locked instruction per counter would
    /// cost more than the call it measures.
    #[inline]
    pub fn hot<R>(&self, kind: Hot, f: impl FnOnce() -> R) -> R {
        let cell = &self.hot[kind as usize];
        let calls = cell.calls.load(Relaxed) + 1;
        cell.calls.store(calls, Relaxed);
        let stride = kind.stride();
        if !calls.is_multiple_of(stride) {
            return f();
        }
        let outer = self.child_ns.load(Relaxed);
        self.child_ns.store(0, Relaxed);
        let t0 = Instant::now();
        let r = f();
        let dt = (t0.elapsed().as_nanos() as u64).saturating_sub(self.empty_ns) * stride;
        let inner = self.child_ns.load(Relaxed);
        self.child_ns.store(outer + dt, Relaxed);
        cell.busy_ns.store(cell.busy_ns.load(Relaxed) + dt, Relaxed);
        cell.self_ns.store(
            cell.self_ns.load(Relaxed) + dt.saturating_sub(inner),
            Relaxed,
        );
        r
    }

    pub fn hot_totals(&self, kind: Hot) -> Totals {
        let cell = &self.hot[kind as usize];
        Totals {
            calls: cell.calls.load(Relaxed),
            busy_ns: cell.busy_ns.load(Relaxed),
            self_ns: cell.self_ns.load(Relaxed),
        }
    }

    /// Totals of the recorded spans called `name`.
    pub fn span_totals(&self, name: &str) -> Totals {
        let mut t = Totals::default();
        for s in self.log().spans.iter().filter(|s| s.name == name) {
            t.calls += 1;
            t.busy_ns += s.busy_ns();
            t.self_ns += s.self_ns();
        }
        t
    }

    pub fn span_count(&self) -> usize {
        self.log().spans.len()
    }

    pub fn spans(&self) -> Vec<Span> {
        self.log().spans.clone()
    }

    /// Totals per name over spans and hot calls — the ledger. The self
    /// times of all names sum to the busy time of the root spans.
    pub fn ledger(&self) -> BTreeMap<&'static str, Totals> {
        let mut out: BTreeMap<&'static str, Totals> = BTreeMap::new();
        for s in self.log().spans.iter() {
            let t = out.entry(s.name).or_default();
            t.calls += 1;
            t.busy_ns += s.busy_ns();
            t.self_ns += s.self_ns();
        }
        for kind in Hot::ALL {
            let t = self.hot_totals(kind);
            if t.calls > 0 {
                out.insert(kind.name(), t);
            }
        }
        out
    }

    /// The trace artifact: every span, then the ledger (which is where
    /// the hot calls appear).
    pub fn to_json(&self, workload: &str) -> Json {
        let opt = |x: Option<u32>| Json::opt(x.map(f64::from));
        let spans = self
            .log()
            .spans
            .iter()
            .map(|s| {
                Json::obj([
                    ("name", Json::str(s.name)),
                    ("start_ns", Json::Num(s.start_ns as f64)),
                    ("end_ns", Json::Num(s.end_ns as f64)),
                    ("parent", opt(s.parent)),
                    ("op", opt(s.op)),
                ])
            })
            .collect();
        let ledger = self
            .ledger()
            .into_iter()
            .map(|(name, t)| {
                Json::obj([
                    ("name", Json::str(name)),
                    ("calls", Json::Num(t.calls as f64)),
                    ("busy_ns", Json::Num(t.busy_ns as f64)),
                    ("self_ns", Json::Num(t.self_ns as f64)),
                ])
            })
            .collect();
        Json::obj([
            ("workload", Json::str(workload)),
            ("clock_ns", Json::Num(self.empty_ns as f64)),
            ("spans", Json::Arr(spans)),
            ("ledger", Json::Arr(ledger)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread::sleep;
    use std::time::Duration;

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        let t = Tracer::new();
        t.set_op(Some(3));
        t.span("root", || {
            sleep(Duration::from_millis(2));
            t.span("child", || {
                t.hot(Hot::CostSessionOpen, || {
                    t.hot(Hot::Card, || sleep(Duration::from_millis(1)));
                });
                t.span("grandchild", || sleep(Duration::from_millis(1)));
            });
            t.hot(Hot::Card, || sleep(Duration::from_millis(1)));
        });
        let spans = t.spans();
        assert_eq!(
            spans.iter().map(|s| s.name).collect::<Vec<_>>(),
            ["root", "child", "grandchild"]
        );
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(1));
        assert!(spans.iter().all(|s| s.op == Some(3)));

        let (root, child, grand) = (&spans[0], &spans[1], &spans[2]);
        let card = t.hot_totals(Hot::Card);
        let open = t.hot_totals(Hot::CostSessionOpen);
        assert_eq!(card.calls, 2);
        // A leaf's self time is its whole duration.
        assert_eq!(card.self_ns, card.busy_ns);
        assert_eq!(grand.self_ns(), grand.busy_ns());
        // The session's self time excludes the estimator call inside it.
        assert!(open.busy_ns >= 1_000_000 && open.self_ns < open.busy_ns);
        // child = self + session + grandchild; the nested card call is
        // the session's child, not the span's.
        assert_eq!(child.child_ns, open.busy_ns + grand.busy_ns());
        assert!(root.child_ns > child.busy_ns());
        assert!(root.self_ns() >= 2_000_000);

        // The ledger closes: self times sum to the root's duration.
        let ledger = t.ledger();
        let self_sum: u64 = ledger.values().map(|x| x.self_ns).sum();
        assert_eq!(self_sum, root.busy_ns());
        assert_eq!(t.span_totals("child").busy_ns, child.busy_ns());
        assert_eq!(t.span_count(), 3);

        let doc = t.to_json("w");
        assert_eq!(doc.get("spans").unwrap().as_arr().unwrap().len(), 3);
        assert_eq!(Json::parse(&doc.to_string()).unwrap(), doc);
    }
}
