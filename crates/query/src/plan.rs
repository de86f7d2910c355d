//! Physical plan trees.
//!
//! The search space matches §7 of the paper: binary join trees over the
//! query's table references, with physical join operators
//! {hash, merge, nested-loop} and scan operators {sequential, index}.
//! Plans are immutable and shared via `Arc`, so beam-search states can
//! hold thousands of partial plans cheaply.

use crate::ir::TableMask;

use std::fmt;
use std::sync::Arc;

/// Physical scan operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ScanOp {
    /// Full sequential scan.
    Seq,
    /// Index scan (only meaningful when an index serves the access).
    Index,
}

/// Physical join operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum JoinOp {
    /// Hash join (build on the right input).
    Hash,
    /// Sort-merge join.
    Merge,
    /// Nested-loop join (uses the right side's index when available).
    NestLoop,
}

impl JoinOp {
    /// All join operators, in a fixed order used by featurization.
    pub const ALL: [JoinOp; 3] = [JoinOp::Hash, JoinOp::Merge, JoinOp::NestLoop];
}

impl ScanOp {
    /// All scan operators, in a fixed order used by featurization.
    pub const ALL: [ScanOp; 2] = [ScanOp::Seq, ScanOp::Index];
}

/// Gross shape of a complete plan (Fig 18 reports these).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PlanShape {
    /// Every join's right input is a base table.
    LeftDeep,
    /// Every join's left input is a base table.
    RightDeep,
    /// Anything else.
    Bushy,
}

/// A physical plan node (scan leaf or binary join).
#[derive(Debug, PartialEq, Eq, Hash)]
pub enum Plan {
    /// Leaf: scan of one query-table.
    Scan {
        /// Index into the query's table list.
        qt: u8,
        /// Physical scan operator.
        op: ScanOp,
    },
    /// Inner node: binary join.
    Join {
        /// Physical join operator.
        op: JoinOp,
        /// Left (outer / probe) input.
        left: Arc<Plan>,
        /// Right (inner / build) input.
        right: Arc<Plan>,
        /// Cached union of input masks.
        mask: TableMask,
        /// Cached structural fingerprint ([`Plan::fingerprint`]),
        /// composed from the children's cached fingerprints at
        /// construction so reading it is O(1) — the beam's dedup and
        /// the engine's plan cache probe it on every candidate.
        fp: u64,
    },
}

impl Plan {
    /// Creates a scan leaf.
    pub fn scan(qt: usize, op: ScanOp) -> Arc<Plan> {
        Arc::new(Plan::Scan { qt: qt as u8, op })
    }

    /// Creates a shared join node over two disjoint subplans: an `Arc`
    /// of [`Plan::join_node`].
    ///
    /// # Panics
    /// Panics (debug) if the input masks overlap.
    pub fn join(op: JoinOp, left: Arc<Plan>, right: Arc<Plan>) -> Arc<Plan> {
        Arc::new(Plan::join_node(op, left, right))
    }

    /// Creates a join node over two disjoint subplans by value, its mask
    /// and fingerprint cached from the children's. The node allocates
    /// nothing of its own — a planner can score a candidate join this
    /// way and share it behind an `Arc` only if it keeps the join.
    ///
    /// # Panics
    /// Panics (debug) if the input masks overlap.
    pub fn join_node(op: JoinOp, left: Arc<Plan>, right: Arc<Plan>) -> Plan {
        let mask = left.mask().union(right.mask());
        debug_assert!(
            left.mask().disjoint(right.mask()),
            "joining overlapping subplans"
        );
        let fp = Plan::join_fingerprint(op, left.fingerprint(), right.fingerprint());
        Plan::Join {
            op,
            left,
            right,
            mask,
            fp,
        }
    }

    /// Set of tables covered by this plan.
    pub fn mask(&self) -> TableMask {
        match self {
            Plan::Scan { qt, .. } => TableMask::single(*qt as usize),
            Plan::Join { mask, .. } => *mask,
        }
    }

    /// Number of tables joined.
    pub fn num_tables(&self) -> u32 {
        self.mask().count()
    }

    /// Number of join nodes.
    pub fn num_joins(&self) -> u32 {
        self.num_tables().saturating_sub(1)
    }

    /// Whether this node is a leaf.
    pub fn is_scan(&self) -> bool {
        matches!(self, Plan::Scan { .. })
    }

    /// Whether this is an index-scan leaf — the one fact about a join's
    /// right input that index nested-loop costing needs beyond its
    /// summary.
    pub fn is_index_scan(&self) -> bool {
        matches!(
            self,
            Plan::Scan {
                op: ScanOp::Index,
                ..
            }
        )
    }

    /// Visits every node (pre-order).
    pub fn visit(&self, f: &mut impl FnMut(&Plan)) {
        f(self);
        if let Plan::Join { left, right, .. } = self {
            left.visit(f);
            right.visit(f);
        }
    }

    /// Collects all subtrees (including leaves and the root), as used by
    /// the data-augmentation procedure of §3.2 ("each subplan T' of T").
    pub fn subplans(self: &Arc<Plan>) -> Vec<Arc<Plan>> {
        let mut out = Vec::new();
        fn rec(p: &Arc<Plan>, out: &mut Vec<Arc<Plan>>) {
            out.push(p.clone());
            if let Plan::Join { left, right, .. } = &**p {
                rec(left, out);
                rec(right, out);
            }
        }
        rec(self, &mut out);
        out
    }

    /// Walks the plan in the binary-tree tensor order of §6 — post-order,
    /// children before parents, root last — handing each node to `f`
    /// together with its children's slot indices (`None` for leaves). A
    /// node's slot is its visit position; both child slots always precede
    /// the parent's. This is the traversal behind per-node
    /// featurization: a consumer attaches feature rows in visit order and
    /// convolves triple filters over `(node, left, right)` by slot.
    pub fn visit_tensor(&self, f: &mut impl FnMut(&Plan, Option<(usize, usize)>)) {
        fn rec<F: FnMut(&Plan, Option<(usize, usize)>)>(
            p: &Plan,
            next: &mut usize,
            f: &mut F,
        ) -> usize {
            let kids = match p {
                Plan::Scan { .. } => None,
                Plan::Join { left, right, .. } => {
                    let l = rec(left, next, f);
                    let r = rec(right, next, f);
                    Some((l, r))
                }
            };
            f(p, kids);
            let slot = *next;
            *next += 1;
            slot
        }
        rec(self, &mut 0, f);
    }

    /// Counts scan operators by kind: `(seq, index)`. Used as a
    /// featurization channel alongside [`Plan::join_op_counts`].
    pub fn scan_op_counts(&self) -> (u32, u32) {
        let mut s = 0;
        let mut i = 0;
        self.visit(&mut |p| {
            if let Plan::Scan { op, .. } = p {
                match op {
                    ScanOp::Seq => s += 1,
                    ScanOp::Index => i += 1,
                }
            }
        });
        (s, i)
    }

    /// Height of the tree: 1 for a scan leaf, 1 + max(child depths) for
    /// a join. Left-deep plans over n tables have depth n; balanced
    /// bushy plans are shallower — a shape channel for featurization.
    pub fn depth(&self) -> u32 {
        match self {
            Plan::Scan { .. } => 1,
            Plan::Join { left, right, .. } => 1 + left.depth().max(right.depth()),
        }
    }

    /// The plan's gross shape.
    pub fn shape(&self) -> PlanShape {
        fn all_right_leaves(p: &Plan) -> bool {
            match p {
                Plan::Scan { .. } => true,
                Plan::Join { left, right, .. } => right.is_scan() && all_right_leaves(left),
            }
        }
        fn all_left_leaves(p: &Plan) -> bool {
            match p {
                Plan::Scan { .. } => true,
                Plan::Join { left, right, .. } => left.is_scan() && all_left_leaves(right),
            }
        }
        if all_right_leaves(self) {
            PlanShape::LeftDeep
        } else if all_left_leaves(self) {
            PlanShape::RightDeep
        } else {
            PlanShape::Bushy
        }
    }

    /// Whether the plan is left-deep (the only hint shape CommDbSim
    /// accepts, §8.2).
    pub fn is_left_deep(&self) -> bool {
        self.shape() == PlanShape::LeftDeep
    }

    /// Counts join operators by kind: `(hash, merge, nest_loop)`.
    pub fn join_op_counts(&self) -> (u32, u32, u32) {
        let mut h = 0;
        let mut m = 0;
        let mut n = 0;
        self.visit(&mut |p| {
            if let Plan::Join { op, .. } = p {
                match op {
                    JoinOp::Hash => h += 1,
                    JoinOp::Merge => m += 1,
                    JoinOp::NestLoop => n += 1,
                }
            }
        });
        (h, m, n)
    }

    /// A stable 64-bit structural fingerprint. Used for in-memory plan
    /// caches, visit counts (§5), and beam-state signatures — equality
    /// consumers only. Anything that consumes the hash *values* (the
    /// engine's latency-noise draws, the experience buffer's sorted
    /// sample keys) must use [`Plan::canonical_hash`] instead.
    /// Stable across runs and Rust versions.
    ///
    /// The fingerprint is **compositional** — a join's value is an
    /// FNV-1a fold over its operator tag and its children's
    /// fingerprints — and cached in the node at construction, so
    /// reading it is O(1) in the subtree size. Hot paths (the beam's
    /// per-candidate dedup, the engine's plan-cache probe) call this
    /// once per candidate, not once per node.
    pub fn fingerprint(&self) -> u64 {
        match self {
            Plan::Scan { qt, op } => {
                let h = fnv_mix(FNV_OFFSET, 0x01);
                let h = fnv_mix(h, *qt);
                fnv_mix(h, matches!(op, ScanOp::Index) as u8)
            }
            Plan::Join { fp, .. } => *fp,
        }
    }

    /// The [`Plan::fingerprint`] that [`Plan::join`]`(op, left, right)`
    /// would carry, from the children's fingerprints alone: operator
    /// tag plus both child fingerprints, folded FNV-1a style. Child
    /// order matters (left/right are physical roles). Lets a caller
    /// look a join up by identity *before* paying for the node — the
    /// beam probes its join-score table with it.
    pub fn join_fingerprint(op: JoinOp, left_fp: u64, right_fp: u64) -> u64 {
        let mut h = fnv_mix(FNV_OFFSET, 0x02);
        h = fnv_mix(
            h,
            match op {
                JoinOp::Hash => 0,
                JoinOp::Merge => 1,
                JoinOp::NestLoop => 2,
            },
        );
        h = fnv_mix_u64(h, left_fp);
        h = fnv_mix(h, 0x03);
        fnv_mix_u64(h, right_fp)
    }

    /// A **frozen** structural hash: FNV-1a streamed over the canonical
    /// pre-order encoding, O(n) in the subtree size. Unlike
    /// [`Plan::fingerprint`] — whose algorithm may evolve with the
    /// planner's hot path (it became compositional and cached in PR 5) —
    /// this encoding is never changed, because its *values* are baked
    /// into recorded artifacts: the engine's deterministic latency-noise
    /// draws and the experience buffer's sample ordering both key on it,
    /// so changing it would re-roll every simulated latency and permute
    /// every SGD minibatch, invalidating checked-in benchmarks and
    /// recorded learning curves. Use `fingerprint` for hot-path
    /// identity; use this for anything whose recorded outputs must be
    /// reproducible across releases.
    pub fn canonical_hash(&self) -> u64 {
        fn rec(p: &Plan, mut h: u64) -> u64 {
            match p {
                Plan::Scan { qt, op } => {
                    h = fnv_mix(h, 0x01);
                    h = fnv_mix(h, *qt);
                    fnv_mix(h, matches!(op, ScanOp::Index) as u8)
                }
                Plan::Join {
                    op, left, right, ..
                } => {
                    h = fnv_mix(h, 0x02);
                    h = fnv_mix(
                        h,
                        match op {
                            JoinOp::Hash => 0,
                            JoinOp::Merge => 1,
                            JoinOp::NestLoop => 2,
                        },
                    );
                    h = rec(left, h);
                    h = fnv_mix(h, 0x03);
                    rec(right, h)
                }
            }
        }
        rec(self, FNV_OFFSET)
    }

    /// A compact, human-greppable text encoding of the plan, for
    /// checkpoint files: scans are `q<idx>` (sequential) / `i<idx>`
    /// (index), joins are `(<op> <left> <right>)` with `h`/`m`/`n` for
    /// hash/merge/nested-loop. Round-trips via [`Plan::parse_compact`].
    pub fn encode_compact(&self) -> String {
        fn rec(p: &Plan, out: &mut String) {
            match p {
                Plan::Scan { qt, op } => {
                    out.push(match op {
                        ScanOp::Seq => 'q',
                        ScanOp::Index => 'i',
                    });
                    out.push_str(&qt.to_string());
                }
                Plan::Join {
                    op, left, right, ..
                } => {
                    out.push('(');
                    out.push(match op {
                        JoinOp::Hash => 'h',
                        JoinOp::Merge => 'm',
                        JoinOp::NestLoop => 'n',
                    });
                    out.push(' ');
                    rec(left, out);
                    out.push(' ');
                    rec(right, out);
                    out.push(')');
                }
            }
        }
        let mut out = String::new();
        rec(self, &mut out);
        out
    }

    /// Parses an [`Plan::encode_compact`] string back into a plan.
    ///
    /// Joins nested more than `TableMask::WIDTH - 1` deep are refused
    /// before the parser recurses into them: they would need more
    /// disjoint tables than a mask holds, and hostile nesting would
    /// otherwise exhaust the stack.
    pub fn parse_compact(text: &str) -> Result<Arc<Plan>, String> {
        /// Parses one node under `depth` enclosing joins.
        fn node(
            chars: &mut std::iter::Peekable<std::str::Chars>,
            depth: usize,
        ) -> Result<Arc<Plan>, String> {
            match chars.peek().copied() {
                Some('(') => {
                    if depth == TableMask::WIDTH - 1 {
                        return Err(format!("joins nested deeper than {depth}"));
                    }
                    chars.next();
                    let op = match chars.next() {
                        Some('h') => JoinOp::Hash,
                        Some('m') => JoinOp::Merge,
                        Some('n') => JoinOp::NestLoop,
                        other => return Err(format!("bad join op {other:?}")),
                    };
                    expect(chars, ' ')?;
                    let left = node(chars, depth + 1)?;
                    expect(chars, ' ')?;
                    let right = node(chars, depth + 1)?;
                    expect(chars, ')')?;
                    if !left.mask().disjoint(right.mask()) {
                        return Err("join inputs overlap".to_string());
                    }
                    Ok(Plan::join(op, left, right))
                }
                Some(c @ ('q' | 'i')) => {
                    chars.next();
                    let mut digits = String::new();
                    while chars.peek().is_some_and(|d| d.is_ascii_digit()) {
                        digits.push(chars.next().expect("peeked"));
                    }
                    let qt: usize = digits
                        .parse()
                        .map_err(|_| format!("bad scan index {digits:?}"))?;
                    // A plan's mask has one bit per query table.
                    if qt >= TableMask::WIDTH {
                        return Err(format!("scan index {qt} is past the table mask"));
                    }
                    Ok(Plan::scan(
                        qt,
                        if c == 'q' { ScanOp::Seq } else { ScanOp::Index },
                    ))
                }
                other => Err(format!("unexpected {other:?}")),
            }
        }
        fn expect(
            chars: &mut std::iter::Peekable<std::str::Chars>,
            want: char,
        ) -> Result<(), String> {
            match chars.next() {
                Some(c) if c == want => Ok(()),
                other => Err(format!("expected {want:?}, got {other:?}")),
            }
        }
        let mut chars = text.chars().peekable();
        let plan = node(&mut chars, 0)?;
        if let Some(trailing) = chars.next() {
            return Err(format!("trailing {trailing:?}"));
        }
        Ok(plan)
    }
}

const FNV_OFFSET: u64 = 0xcbf29ce484222325;
const FNV_PRIME: u64 = 0x100000001b3;

#[inline]
fn fnv_mix(h: u64, b: u8) -> u64 {
    (h ^ b as u64).wrapping_mul(FNV_PRIME)
}

/// Folds a 64-bit word into the hash, little-endian byte order.
#[inline]
fn fnv_mix_u64(mut h: u64, w: u64) -> u64 {
    for b in w.to_le_bytes() {
        h = fnv_mix(h, b);
    }
    h
}

/// SplitMix64 finalizer — the workspace's standard keyed-hash mixer
/// (noise and fault streams, budget and training-config digests, the
/// beam's commutative plan-set signature).
#[inline]
pub fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl fmt::Display for Plan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Plan::Scan { qt, op } => {
                let tag = match op {
                    ScanOp::Seq => "Seq",
                    ScanOp::Index => "Idx",
                };
                write!(f, "{tag}({qt})")
            }
            Plan::Join {
                op, left, right, ..
            } => {
                let tag = match op {
                    JoinOp::Hash => "HJ",
                    JoinOp::Merge => "MJ",
                    JoinOp::NestLoop => "NL",
                };
                write!(f, "{tag}[{left}, {right}]")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn left_deep_3() -> Arc<Plan> {
        let a = Plan::scan(0, ScanOp::Seq);
        let b = Plan::scan(1, ScanOp::Index);
        let c = Plan::scan(2, ScanOp::Seq);
        Plan::join(JoinOp::Hash, Plan::join(JoinOp::NestLoop, a, b), c)
    }

    fn bushy_4() -> Arc<Plan> {
        let ab = Plan::join(
            JoinOp::Hash,
            Plan::scan(0, ScanOp::Seq),
            Plan::scan(1, ScanOp::Seq),
        );
        let cd = Plan::join(
            JoinOp::Merge,
            Plan::scan(2, ScanOp::Seq),
            Plan::scan(3, ScanOp::Seq),
        );
        Plan::join(JoinOp::Hash, ab, cd)
    }

    #[test]
    fn masks_and_counts() {
        let p = left_deep_3();
        assert_eq!(p.mask(), TableMask(0b111));
        assert_eq!(p.num_tables(), 3);
        assert_eq!(p.num_joins(), 2);
        assert_eq!(p.join_op_counts(), (1, 0, 1));
    }

    #[test]
    fn shapes() {
        assert_eq!(left_deep_3().shape(), PlanShape::LeftDeep);
        assert_eq!(bushy_4().shape(), PlanShape::Bushy);
        let right_deep = Plan::join(
            JoinOp::Hash,
            Plan::scan(0, ScanOp::Seq),
            Plan::join(
                JoinOp::Hash,
                Plan::scan(1, ScanOp::Seq),
                Plan::scan(2, ScanOp::Seq),
            ),
        );
        assert_eq!(right_deep.shape(), PlanShape::RightDeep);
        assert!(left_deep_3().is_left_deep());
        assert!(!bushy_4().is_left_deep());
        // A single scan counts as left-deep.
        assert_eq!(Plan::scan(0, ScanOp::Seq).shape(), PlanShape::LeftDeep);
    }

    #[test]
    fn subplans_enumeration() {
        let p = bushy_4();
        let subs = p.subplans();
        assert_eq!(subs.len(), 7); // 4 leaves + 3 joins
        assert_eq!(subs.iter().filter(|s| !s.is_scan()).count(), 3);
    }

    /// Collects `visit_tensor`'s slots: each node with its children's
    /// slot indices.
    fn tensor_slots(p: &Plan) -> Vec<(*const Plan, Option<(usize, usize)>)> {
        let mut slots = Vec::new();
        p.visit_tensor(&mut |node, kids| slots.push((node as *const Plan, kids)));
        slots
    }

    /// `visit_tensor` — the traversal `featurize_tree` uses — visits
    /// every node once, each after both of its children, and ends at
    /// the root.
    #[test]
    fn post_order_visits_children_before_parents() {
        let p = bushy_4();
        let slots = tensor_slots(&p);
        assert_eq!(slots.len(), 7);
        assert_eq!(slots.last().unwrap().0, Arc::as_ptr(&p), "root is last");
        let pos = |node: *const Plan| {
            slots
                .iter()
                .position(|&(n, _)| n == node)
                .expect("node present")
        };
        p.visit(&mut |node| {
            if let Plan::Join { left, right, .. } = node {
                let i = pos(node);
                assert!(pos(Arc::as_ptr(left)) < i && pos(Arc::as_ptr(right)) < i);
            }
        });
    }

    /// `visit_tensor`'s child slots point at each join's own children,
    /// and leaves get none.
    #[test]
    fn tree_tensor_matches_post_order() {
        for p in [left_deep_3(), bushy_4(), Plan::scan(0, ScanOp::Seq)] {
            let slots = tensor_slots(&p);
            assert_eq!(slots.len(), p.subplans().len());
            p.visit(&mut |node| {
                let i = slots
                    .iter()
                    .position(|&(n, _)| std::ptr::eq(n, node))
                    .expect("every node has a slot");
                match (node, slots[i].1) {
                    (Plan::Scan { .. }, kids) => assert!(kids.is_none()),
                    (Plan::Join { left, right, .. }, Some((l, r))) => {
                        assert!(l < i && r < i, "children precede parents");
                        assert_eq!(slots[l].0, Arc::as_ptr(left));
                        assert_eq!(slots[r].0, Arc::as_ptr(right));
                    }
                    (Plan::Join { .. }, None) => panic!("join without child slots"),
                }
            });
        }
    }

    #[test]
    fn scan_counts_and_depth() {
        let p = left_deep_3();
        assert_eq!(p.scan_op_counts(), (2, 1));
        assert_eq!(p.depth(), 3);
        assert_eq!(bushy_4().depth(), 3);
        assert_eq!(Plan::scan(0, ScanOp::Seq).depth(), 1);
        assert_eq!(bushy_4().scan_op_counts(), (4, 0));
    }

    #[test]
    fn fingerprints_distinguish_structure() {
        let p1 = left_deep_3();
        let p2 = left_deep_3();
        assert_eq!(p1.fingerprint(), p2.fingerprint());
        assert_ne!(p1.fingerprint(), bushy_4().fingerprint());
        // Operator changes alter the fingerprint.
        let alt = Plan::join(
            JoinOp::Merge,
            Plan::join(
                JoinOp::NestLoop,
                Plan::scan(0, ScanOp::Seq),
                Plan::scan(1, ScanOp::Index),
            ),
            Plan::scan(2, ScanOp::Seq),
        );
        assert_ne!(p1.fingerprint(), alt.fingerprint());
        // Child order matters (left/right are physical roles).
        let swapped = Plan::join(
            JoinOp::Hash,
            Plan::scan(2, ScanOp::Seq),
            Plan::join(
                JoinOp::NestLoop,
                Plan::scan(0, ScanOp::Seq),
                Plan::scan(1, ScanOp::Index),
            ),
        );
        assert_ne!(p1.fingerprint(), swapped.fingerprint());
    }

    #[test]
    fn display_format() {
        assert_eq!(left_deep_3().to_string(), "HJ[NL[Seq(0), Idx(1)], Seq(2)]");
    }

    #[test]
    #[should_panic(expected = "overlapping")]
    #[cfg(debug_assertions)]
    fn overlapping_join_panics() {
        let a = Plan::scan(0, ScanOp::Seq);
        let b = Plan::scan(0, ScanOp::Seq);
        let _ = Plan::join(JoinOp::Hash, a, b);
    }

    #[test]
    fn compact_encoding_round_trips() {
        for plan in [left_deep_3(), bushy_4(), Plan::scan(12, ScanOp::Index)] {
            let text = plan.encode_compact();
            let back = Plan::parse_compact(&text).unwrap();
            assert_eq!(back, plan, "round-trip of {text:?}");
            assert_eq!(back.fingerprint(), plan.fingerprint());
            assert_eq!(back.canonical_hash(), plan.canonical_hash());
        }
        assert_eq!(left_deep_3().encode_compact(), "(h (n q0 i1) q2)");
        for bad in ["", "q", "x0", "(h q0 q1", "(z q0 q1)", "(h q0 q0)", "q0 "] {
            assert!(Plan::parse_compact(bad).is_err(), "{bad:?} must fail");
        }
    }

    /// A scan index the table mask cannot hold is refused, not parsed
    /// into a scan whose mask shift overflows.
    #[test]
    fn compact_scan_index_past_mask_is_refused() {
        assert!(Plan::parse_compact("q31").is_ok());
        for bad in ["q32", "q33", "q300", "(h q0 i33)"] {
            let e = Plan::parse_compact(bad).unwrap_err();
            assert!(e.contains("past the table mask"), "{bad:?}: {e}");
        }
    }

    /// Join nesting is bounded by the table mask: a left-deep plan over
    /// all 32 tables (31 nested joins) parses, one more level is
    /// refused, and so is hostile nesting far past the stack's depth.
    #[test]
    fn compact_nesting_past_mask_is_refused() {
        let mut plan = Plan::scan(0, ScanOp::Seq);
        for qt in 1..TableMask::WIDTH {
            plan = Plan::join(JoinOp::Hash, plan, Plan::scan(qt, ScanOp::Seq));
        }
        let text = plan.encode_compact();
        assert_eq!(Plan::parse_compact(&text).unwrap(), plan);
        let deeper = format!("(h {text} q32)");
        let e = Plan::parse_compact(&deeper).unwrap_err();
        assert!(e.contains("nested deeper"), "{e}");
        for hostile in ["(h ".repeat(32), "(h ".repeat(100_000)] {
            let e = Plan::parse_compact(&hostile).unwrap_err();
            assert!(e.contains("nested deeper"), "{e}");
        }
    }
}
