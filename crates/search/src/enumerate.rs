//! DPccp connected-subgraph / connected-complement enumeration.
//!
//! The classical submask DP visits **every** `(submask, complement)`
//! split of every subset — `3^n` iterations — and filters the few that
//! are connected. Moerkotte & Neumann's DPccp (VLDB 2006) instead walks
//! the join graph itself: connected subgraphs (csg) grow by neighborhood
//! expansion, and for each csg only its connected complements (cmp) are
//! enumerated, so the work is proportional to the number of genuinely
//! connected csg–cmp pairs — for the sparse join graphs of real queries,
//! orders of magnitude below `3^n`.
//!
//! [`JoinGraph`] precomputes per-table adjacency masks
//! ([`balsa_query::Query::neighbor_masks`]); all expansion steps are
//! then a handful of word ops via [`TableMask::subsets`]. Each unordered
//! csg–cmp pair is emitted exactly once (the side containing the
//! lower-numbered table first); the DP combines both orientations.

use balsa_query::{Query, TableMask};

/// Precomputed adjacency structure of one query's join graph, driving
/// DPccp enumeration.
pub struct JoinGraph {
    n: usize,
    /// `adj[qt]` = mask of tables sharing an edge with `qt`.
    adj: Vec<TableMask>,
}

impl JoinGraph {
    /// Builds the adjacency structure for `query`.
    pub fn new(query: &Query) -> Self {
        Self {
            n: query.num_tables(),
            adj: query.neighbor_masks(),
        }
    }

    /// Number of tables.
    pub fn num_tables(&self) -> usize {
        self.n
    }

    /// The neighborhood of `s`: all tables adjacent to a member of `s`,
    /// excluding `s` itself.
    #[inline]
    pub fn neighborhood(&self, s: TableMask) -> TableMask {
        let mut nb = TableMask::EMPTY;
        for t in s.iter() {
            nb = nb.union(self.adj[t]);
        }
        TableMask(nb.0 & !s.0)
    }

    /// Whether an edge crosses between the disjoint masks `a` and `b`.
    #[inline]
    pub fn connected_between(&self, a: TableMask, b: TableMask) -> bool {
        !self.neighborhood(a).intersect(b).is_empty()
    }

    /// Emits every connected subgraph of the join graph exactly once.
    ///
    /// Emission order is deterministic but **not** sorted by size; DP
    /// consumers bucket by cardinality before processing.
    pub fn for_each_csg(&self, f: &mut impl FnMut(TableMask)) {
        for i in (0..self.n).rev() {
            let v = TableMask::single(i);
            f(v);
            self.csg_rec(v, below(i), f);
        }
    }

    /// Recursive neighborhood expansion: emits every connected superset
    /// of `s` reachable without touching the forbidden set `x`.
    fn csg_rec(&self, s: TableMask, x: TableMask, f: &mut impl FnMut(TableMask)) {
        let nb = TableMask(self.neighborhood(s).0 & !x.0);
        for s1 in nb.subsets() {
            f(s.union(s1));
        }
        let x2 = x.union(nb);
        for s1 in nb.subsets() {
            self.csg_rec(s.union(s1), x2, f);
        }
    }

    /// Emits every unordered csg–cmp pair `(s1, s2)` exactly once:
    /// both sides induce connected subgraphs, they are disjoint, at
    /// least one edge crosses them, and `s1` contains the
    /// lowest-numbered table of the union.
    pub fn for_each_csg_cmp(&self, f: &mut impl FnMut(TableMask, TableMask)) {
        self.for_each_csg(&mut |s1| self.for_each_cmp(s1, &mut |s2| f(s1, s2)));
    }

    /// Emits every connected complement of the connected set `s1`.
    pub fn for_each_cmp(&self, s1: TableMask, f: &mut impl FnMut(TableMask)) {
        let min = s1.lowest().expect("csg is non-empty");
        let x = TableMask(below(min).0 | s1.0);
        let nb = TableMask(self.neighborhood(s1).0 & !x.0);
        for i in (0..self.n).rev() {
            if !nb.contains(i) {
                continue;
            }
            let v = TableMask::single(i);
            f(v);
            self.csg_rec(v, TableMask(x.0 | (below(i).0 & nb.0)), f);
        }
    }
}

/// `B_i`: the mask of tables numbered `<= i`.
#[inline]
fn below(i: usize) -> TableMask {
    TableMask(if i >= 31 {
        u32::MAX
    } else {
        (1u32 << (i + 1)) - 1
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn graph_from_edges(n: usize, edges: &[(usize, usize)]) -> JoinGraph {
        let mut adj = vec![TableMask::EMPTY; n];
        for &(a, b) in edges {
            adj[a] = adj[a].union(TableMask::single(b));
            adj[b] = adj[b].union(TableMask::single(a));
        }
        JoinGraph { n, adj }
    }

    impl JoinGraph {
        /// Total number of unordered csg–cmp pairs — the
        /// enumeration-size metric DPccp's complexity analysis is
        /// stated in.
        fn count_csg_cmp_pairs(&self) -> usize {
            let mut count = 0usize;
            self.for_each_csg_cmp(&mut |_, _| count += 1);
            count
        }
    }

    fn chain(n: usize) -> JoinGraph {
        graph_from_edges(n, &(0..n - 1).map(|i| (i, i + 1)).collect::<Vec<_>>())
    }

    fn star(n: usize) -> JoinGraph {
        graph_from_edges(n, &(1..n).map(|i| (0, i)).collect::<Vec<_>>())
    }

    fn clique(n: usize) -> JoinGraph {
        let mut edges = Vec::new();
        for a in 0..n {
            for b in a + 1..n {
                edges.push((a, b));
            }
        }
        graph_from_edges(n, &edges)
    }

    fn cycle(n: usize) -> JoinGraph {
        let mut edges: Vec<(usize, usize)> = (0..n - 1).map(|i| (i, i + 1)).collect();
        edges.push((n - 1, 0));
        graph_from_edges(n, &edges)
    }

    /// Brute-force reference: all (csg, cmp) pairs by 3^n scan.
    fn brute_force_pairs(g: &JoinGraph, connected: &dyn Fn(u32) -> bool) -> BTreeSet<(u32, u32)> {
        let n = g.num_tables();
        let mut out = BTreeSet::new();
        for union in 1u32..1 << n {
            if union.count_ones() < 2 {
                continue;
            }
            let mut a = (union - 1) & union;
            while a != 0 {
                let b = union & !a;
                if connected(a)
                    && connected(b)
                    && g.connected_between(TableMask(a), TableMask(b))
                    && TableMask(union).lowest() == TableMask(a).lowest()
                {
                    out.insert((a, b));
                }
                a = (a - 1) & union;
            }
        }
        out
    }

    fn subgraph_connected(g: &JoinGraph, mask: u32) -> bool {
        let m = TableMask(mask);
        let start = match m.lowest() {
            Some(s) => s,
            None => return false,
        };
        let mut reached = TableMask::single(start);
        loop {
            let grown = TableMask((reached.0 | g.neighborhood(reached).0) & mask);
            if grown == reached {
                break;
            }
            reached = grown;
        }
        reached.contains_all(m)
    }

    #[test]
    fn csg_enumeration_is_exactly_the_connected_subsets() {
        for g in [
            chain(6),
            star(6),
            clique(5),
            cycle(6),
            graph_from_edges(5, &[(0, 1), (1, 2), (1, 3), (3, 4)]),
        ] {
            let mut emitted = Vec::new();
            g.for_each_csg(&mut |s| emitted.push(s.0));
            let set: BTreeSet<u32> = emitted.iter().copied().collect();
            assert_eq!(set.len(), emitted.len(), "csg emitted twice");
            let expected: BTreeSet<u32> = (1u32..1 << g.num_tables())
                .filter(|&m| subgraph_connected(&g, m))
                .collect();
            assert_eq!(set, expected);
        }
    }

    #[test]
    fn csg_cmp_pairs_match_brute_force() {
        for g in [
            chain(6),
            star(6),
            clique(5),
            cycle(6),
            graph_from_edges(6, &[(0, 1), (0, 2), (2, 3), (2, 4), (4, 5)]),
        ] {
            let mut emitted = BTreeSet::new();
            g.for_each_csg_cmp(&mut |a, b| {
                assert!(a.disjoint(b));
                assert!(g.connected_between(a, b));
                assert_eq!(
                    a.union(b).lowest(),
                    a.lowest(),
                    "s1 must hold the union's lowest table"
                );
                assert!(
                    emitted.insert((a.0, b.0)),
                    "pair emitted twice: {:b} {:b}",
                    a.0,
                    b.0
                );
            });
            let expected = brute_force_pairs(&g, &|m| subgraph_connected(&g, m));
            assert_eq!(emitted, expected);
        }
    }

    /// Closed forms from Moerkotte & Neumann 2006, Table 1.
    #[test]
    fn pair_counts_match_closed_forms() {
        for n in 2..=10usize {
            let nf = n as u64;
            assert_eq!(
                chain(n).count_csg_cmp_pairs() as u64,
                (nf * nf * nf - nf) / 6,
                "chain({n})"
            );
            assert_eq!(
                cycle(n).count_csg_cmp_pairs() as u64,
                (nf * nf * nf - 2 * nf * nf + nf) / 2,
                "cycle({n})"
            );
            assert_eq!(
                star(n).count_csg_cmp_pairs() as u64,
                (nf - 1) * (1u64 << (n - 2)),
                "star({n})"
            );
        }
        for n in 2..=8usize {
            let nf = n as u32;
            assert_eq!(
                clique(n).count_csg_cmp_pairs() as u64,
                (3u64.pow(nf) - 2u64.pow(nf + 1)).div_ceil(2),
                "clique({n})"
            );
        }
    }

    #[test]
    fn neighborhood_and_connected_between() {
        let g = chain(4);
        assert_eq!(g.neighborhood(TableMask(0b0001)), TableMask(0b0010));
        assert_eq!(g.neighborhood(TableMask(0b0110)), TableMask(0b1001));
        assert!(g.connected_between(TableMask(0b0001), TableMask(0b0010)));
        assert!(!g.connected_between(TableMask(0b0001), TableMask(0b0100)));
    }
}
