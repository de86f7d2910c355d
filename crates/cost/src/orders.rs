//! Interned interesting-order sets.
//!
//! The DP enumerator keeps a Pareto set of `(cost, output-order-set)`
//! entries per table subset, and the dominance check "does entry A offer
//! a superset of entry B's orders" sits on the planner's hottest loop.
//! Representing order sets as `BTreeSet<(usize, usize)>` means a heap
//! allocation per candidate and an ordered-set walk per comparison.
//!
//! An [`OrderInterner`] instead assigns each distinct `(qt, col)` order
//! a small integer id — once per query, lazily on first sight — and
//! packs an order set into an [`OrderMask`] bitmask. Dominance becomes
//! two integer ops (`and` + compare), and converting a
//! [`crate::SubtreeCost`]'s `sorted_on` list costs one hash lookup per
//! element with no allocation.
//!
//! Capacity is 128 distinct orders per query: the universe is bounded by
//! the query's join-edge endpoints plus its indexed columns, far below
//! the cap for every workload in the repo (a 14-table JOB-like query
//! has ~40–80).

use crate::SubtreeCost;
use std::collections::HashMap;

/// A set of interesting orders, packed as a bitmask over the ids an
/// [`OrderInterner`] assigned. Only meaningful relative to the interner
/// that produced it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct OrderMask(pub u128);

impl OrderMask {
    /// The empty order set.
    pub const EMPTY: OrderMask = OrderMask(0);

    /// Whether `self` offers every order in `other` — the superset side
    /// of the Pareto dominance check, in two integer ops.
    #[inline]
    pub fn contains_all(self, other: OrderMask) -> bool {
        self.0 & other.0 == other.0
    }

    /// Whether the set is empty.
    #[inline]
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Number of distinct orders in the set.
    #[inline]
    pub fn count(self) -> u32 {
        self.0.count_ones()
    }
}

/// Assigns per-query small-integer ids to `(qt, col)` interesting
/// orders, packing order sets into [`OrderMask`] bitmasks.
///
/// One interner serves exactly one query (ids are assigned in first-seen
/// order); clear it between queries with [`OrderInterner::clear`] to
/// reuse the allocation.
#[derive(Debug, Default)]
pub struct OrderInterner {
    ids: HashMap<(usize, usize), u32>,
}

impl OrderInterner {
    /// Creates an empty interner.
    pub fn new() -> Self {
        Self::default()
    }

    /// Resets for the next query, keeping the map's allocation.
    pub fn clear(&mut self) {
        self.ids.clear();
    }

    /// Number of distinct orders seen so far.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether no order has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Packs an order list (possibly with duplicates, e.g. a
    /// [`SubtreeCost::sorted_on`]) into its bitmask, assigning fresh ids
    /// to unseen orders.
    ///
    /// # Panics
    /// Panics if a query produces more than 128 distinct orders.
    pub fn intern(&mut self, orders: &[(usize, usize)]) -> OrderMask {
        let mut mask = 0u128;
        for &o in orders {
            let next = self.ids.len() as u32;
            let id = *self.ids.entry(o).or_insert(next);
            assert!(id < 128, "query exceeds 128 distinct interesting orders");
            mask |= 1u128 << id;
        }
        OrderMask(mask)
    }

    /// Read-only mask lookup for orders interned ahead of time.
    ///
    /// Enumerators that pre-intern a query's whole order universe (so
    /// the interner can be shared immutably across worker threads) use
    /// this on their hot path; bit assignments are then fixed by the
    /// pre-interning pass, so masks are identical no matter which
    /// thread — or how many — performs the lookup.
    ///
    /// # Panics
    /// Panics if `orders` contains an order that was never interned —
    /// that means the caller's universe computation missed a
    /// `sorted_on` source, which would silently corrupt dominance
    /// checks if tolerated.
    pub fn mask_of(&self, orders: &[(usize, usize)]) -> OrderMask {
        let mut mask = 0u128;
        for o in orders {
            let id = *self
                .ids
                .get(o)
                .unwrap_or_else(|| panic!("order {o:?} outside the pre-interned universe"));
            mask |= 1u128 << id;
        }
        OrderMask(mask)
    }

    /// Read-only lookup of a subtree summary's output orders.
    ///
    /// # Panics
    /// As [`OrderInterner::mask_of`].
    pub fn mask_of_cost(&self, sc: &SubtreeCost) -> OrderMask {
        self.mask_of(&sc.sorted_on)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn interning_matches_btreeset_superset_semantics() {
        // Pseudo-random order lists; compare mask superset against the
        // reference BTreeSet implementation the DP used to carry.
        let universe: Vec<(usize, usize)> = (0..6).flat_map(|t| [(t, 0), (t, 1)]).collect();
        let mut state = 0x9E3779B97F4A7C15u64;
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let lists: Vec<Vec<(usize, usize)>> = (0..24)
            .map(|_| {
                let bits = next() as usize;
                universe
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| bits >> i & 1 == 1)
                    .map(|(_, &o)| o)
                    .collect()
            })
            .collect();
        let mut interner = OrderInterner::new();
        let masks: Vec<OrderMask> = lists.iter().map(|l| interner.intern(l)).collect();
        let sets: Vec<BTreeSet<(usize, usize)>> =
            lists.iter().map(|l| l.iter().copied().collect()).collect();
        for i in 0..lists.len() {
            assert_eq!(masks[i].count() as usize, sets[i].len());
            for j in 0..lists.len() {
                assert_eq!(
                    masks[i].contains_all(masks[j]),
                    sets[i].is_superset(&sets[j]),
                    "lists {i} vs {j}"
                );
            }
        }
    }

    #[test]
    fn duplicates_collapse_and_ids_are_stable() {
        let mut it = OrderInterner::new();
        let a = it.intern(&[(1, 2), (1, 2), (3, 4)]);
        assert_eq!(a.count(), 2);
        let b = it.intern(&[(3, 4)]);
        assert!(a.contains_all(b));
        assert!(!b.contains_all(a));
        assert_eq!(it.len(), 2);
        it.clear();
        assert!(it.is_empty());
        assert_eq!(it.intern(&[]), OrderMask::EMPTY);
        assert!(OrderMask::EMPTY.is_empty());
    }

    #[test]
    fn mask_of_matches_intern_after_universe_preinterning() {
        // Pre-intern a universe, then check the read-only lookup agrees
        // with mutable interning for every subset — the contract the
        // parallel DP relies on when sharing one interner across
        // workers.
        let universe: Vec<(usize, usize)> = (0..5).flat_map(|t| [(t, 0), (t, 3)]).collect();
        let mut it = OrderInterner::new();
        it.intern(&universe);
        let before = it.len();
        for i in 0..universe.len() {
            for j in i..universe.len() {
                let list = &universe[i..=j];
                assert_eq!(it.mask_of(list), it.intern(list), "{list:?}");
            }
        }
        assert_eq!(it.len(), before, "lookups must not grow the interner");
        let sc = SubtreeCost {
            work: 1.0,
            out_rows: 1.0,
            sorted_on: vec![universe[2], universe[7]],
        };
        assert_eq!(it.mask_of_cost(&sc), it.mask_of(&sc.sorted_on));
        assert_eq!(it.mask_of(&[]), OrderMask::EMPTY);
    }

    #[test]
    #[should_panic(expected = "outside the pre-interned universe")]
    fn mask_of_rejects_unseen_orders() {
        let mut it = OrderInterner::new();
        it.intern(&[(0, 0)]);
        it.mask_of(&[(9, 9)]);
    }
}
