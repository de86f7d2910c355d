//! Parallelism across queries: a deterministic indexed map on scoped
//! threads.
//!
//! Every [`crate::Planner::plan`] call plans one query on its calling
//! thread, and the calls are independent. What runs in parallel is the
//! batch: the queries a training iteration plans, executes and
//! featurizes. [`WorkerPool`] is the map over that batch. The vendor
//! shims cannot pull in rayon, so it is built on [`std::thread::scope`]
//! alone.
//!
//! **Scheduling.** A call on a pool of `t` threads runs participant 0
//! on the calling thread and participants `1..t` on threads spawned for
//! that call and joined before it returns. Participants pull item
//! indices from one atomic cursor, and every result is published at its
//! input index, so the output order is the input order whatever the
//! schedule. Callers that need reproducible randomness seed an RNG per
//! item (e.g. the beam's exploration RNG is keyed on query id), never
//! per participant — under that contract a run with `t` threads is
//! bit-identical to the serial run.
//!
//! **Nesting.** A pool is a thread count and nothing else, so a map
//! called from inside a running map, or beside another one, simply
//! spawns its own scope.
//!
//! **Panics.** A panicking item stops only its own participant: the
//! others drain the remaining items, and once every participant has
//! finished the first payload (in participant order) is rethrown, once,
//! on the calling thread. The pool stays usable afterwards.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread;

/// A thread count for parallel maps over independent items. `Copy`:
/// it owns no threads between calls.
#[derive(Debug, Clone, Copy)]
pub struct WorkerPool {
    threads: usize,
}

impl WorkerPool {
    /// Creates a pool running `threads` participants per call (`>= 1`;
    /// 0 and 1 both mean serial execution on the calling thread).
    pub fn new(threads: usize) -> Self {
        Self {
            threads: threads.max(1),
        }
    }

    /// Participants per call, including the caller.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Maps `f` over `items`, returning results in input order. `f`
    /// receives `(index, &item)`. Runs on the calling thread when the
    /// pool is serial or the input is trivial.
    ///
    /// # Panics
    /// Rethrows the first participant panic (once, on this thread).
    pub fn map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        self.map_init(items, || (), |(), i, t| f(i, t))
    }

    /// Like [`WorkerPool::map`], but every participant first builds a
    /// private state with `init` (once per participant, not per item)
    /// and `f` receives `(&mut state, index, &item)` — the hook for
    /// per-participant planners whose scratch memo amortizes across the
    /// items a participant processes.
    ///
    /// # Panics
    /// Rethrows the first participant panic (once, on this thread).
    pub fn map_init<S, T, R, I, F>(&self, items: &[T], init: I, f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        I: Fn() -> S + Sync,
        F: Fn(&mut S, usize, &T) -> R + Sync,
    {
        let workers = self.threads.min(items.len());
        if workers <= 1 {
            let mut state = init();
            return items
                .iter()
                .enumerate()
                .map(|(i, t)| f(&mut state, i, t))
                .collect();
        }
        let cursor = AtomicUsize::new(0);
        let drain = || {
            let mut state = init();
            let mut produced: Vec<(usize, R)> = Vec::new();
            loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= items.len() {
                    break produced;
                }
                produced.push((i, f(&mut state, i, &items[i])));
            }
        };
        let outcomes: Vec<thread::Result<Vec<(usize, R)>>> = thread::scope(|scope| {
            let helpers: Vec<_> = (1..workers).map(|_| scope.spawn(drain)).collect();
            let mut outcomes = vec![catch_unwind(AssertUnwindSafe(drain))];
            outcomes.extend(helpers.into_iter().map(|h| h.join()));
            outcomes
        });
        let mut slots: Vec<Option<R>> = Vec::with_capacity(items.len());
        slots.resize_with(items.len(), || None);
        for outcome in outcomes {
            match outcome {
                Ok(produced) => {
                    for (i, r) in produced {
                        slots[i] = Some(r);
                    }
                }
                Err(payload) => resume_unwind(payload),
            }
        }
        slots
            .into_iter()
            .map(|r| r.expect("every index produced exactly once"))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_preserves_input_order() {
        let items: Vec<usize> = (0..257).collect();
        for threads in [1, 2, 3, 8, 64] {
            let pool = WorkerPool::new(threads);
            let out = pool.map(&items, |i, &x| {
                assert_eq!(i, x);
                x * 2
            });
            assert_eq!(out, items.iter().map(|x| x * 2).collect::<Vec<_>>());
        }
    }

    #[test]
    fn every_item_runs_exactly_once() {
        let counters: Vec<AtomicUsize> = (0..100).map(|_| AtomicUsize::new(0)).collect();
        let items: Vec<usize> = (0..100).collect();
        WorkerPool::new(7).map(&items, |_, &x| {
            counters[x].fetch_add(1, Ordering::SeqCst);
        });
        assert!(counters.iter().all(|c| c.load(Ordering::SeqCst) == 1));
    }

    #[test]
    fn env_zero_threads_means_serial() {
        // `WorkerPool::new`'s clamp: 0 means serial, not "no participants".
        assert_eq!(WorkerPool::new(0).threads(), 1);
        assert_eq!(WorkerPool::new(1).threads(), 1);
    }

    #[test]
    fn empty_and_tiny_inputs() {
        let pool = WorkerPool::new(4);
        let empty: Vec<u8> = Vec::new();
        assert!(pool.map(&empty, |_, &x| x).is_empty());
        assert_eq!(pool.map(&[9u8], |_, &x| x + 1), vec![10]);
        assert_eq!(WorkerPool::new(0).threads(), 1, "clamped to serial");
    }

    #[test]
    fn parallel_map_matches_serial_map() {
        let items: Vec<u64> = (0..512).collect();
        let f = |i: usize, x: &u64| (i as u64).wrapping_mul(0x9E3779B9) ^ x;
        let serial = WorkerPool::new(1).map(&items, f);
        let parallel = WorkerPool::new(5).map(&items, f);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn map_init_builds_one_state_per_worker() {
        let items: Vec<usize> = (0..64).collect();
        for threads in [1, 3, 8] {
            let inits = AtomicUsize::new(0);
            let out = WorkerPool::new(threads).map_init(
                &items,
                || {
                    inits.fetch_add(1, Ordering::SeqCst);
                    0usize
                },
                |state, _, &x| {
                    *state += 1; // participant-local: never racy
                    x * 3
                },
            );
            assert_eq!(out, items.iter().map(|x| x * 3).collect::<Vec<_>>());
            let n = inits.load(Ordering::SeqCst);
            assert!(
                (1..=threads.max(1)).contains(&n),
                "{threads} threads built {n} states"
            );
        }
    }

    /// A map inside a running map on the same pool spawns its own scope
    /// and returns the same bytes as the serial nest.
    #[test]
    fn nested_dispatch_on_a_shared_pool_matches() {
        let outer: Vec<u64> = (0..8).collect();
        let inner: Vec<u64> = (0..64).collect();
        let pool = WorkerPool::new(4);
        let expect: Vec<Vec<u64>> = outer
            .iter()
            .map(|&o| inner.iter().map(|&i| o * 1000 + i * 3).collect())
            .collect();
        let got = pool.map(&outer, |_, &o| pool.map(&inner, |_, &i| o * 1000 + i * 3));
        assert_eq!(got, expect);
    }

    /// A panicking item must not take its siblings down: they drain,
    /// the payload is rethrown exactly once, and the pool stays usable.
    #[test]
    fn worker_panic_is_rethrown_once_and_pool_survives() {
        let items: Vec<usize> = (0..97).collect();
        for threads in [2usize, 4] {
            let pool = WorkerPool::new(threads);
            let drained = AtomicUsize::new(0);
            let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
                pool.map(&items, |_, &x| {
                    if x == 13 {
                        panic!("boom at 13");
                    }
                    drained.fetch_add(1, Ordering::SeqCst);
                    x
                })
            }));
            let payload = caught.expect_err("panic must propagate to the caller");
            let msg = payload
                .downcast_ref::<&str>()
                .copied()
                .unwrap_or("non-str payload");
            assert!(msg.contains("boom"), "got {msg:?}");
            assert!(
                drained.load(Ordering::SeqCst) >= items.len() - 1,
                "{threads} threads: siblings must drain past the panic"
            );
            // The pool is still fully functional afterwards.
            let ok = pool.map(&items, |_, &x| x * 2);
            assert_eq!(ok, items.iter().map(|x| x * 2).collect::<Vec<_>>());
        }
    }
}
