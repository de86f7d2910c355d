//! Shared planner scratch with a non-blocking local fallback.
//!
//! Both planners reuse expensive per-planner scratch (the DP's memo and
//! buckets, the beam's dedup seen-table) across queries, but a planner
//! may also be *shared* by the participants of one [`crate::WorkerPool`]
//! map, with several `plan` calls (one query each) in flight at once. Blocking on the scratch
//! mutex would serialize those calls and charge lock-wait to
//! `planning_secs`; instead, a call that finds the scratch busy runs on
//! a fresh local instance — scratch identity never affects results, so
//! the only cost is losing amortization for that one call.
//!
//! That `try_lock`-or-local pattern used to be hand-rolled in both
//! `DpPlanner` and `BeamPlanner`; [`SharedScratch`] hoists it into one
//! tested helper.

use parking_lot::Mutex;
use std::ops::{Deref, DerefMut};
use std::sync::MutexGuard;

/// A mutex-guarded scratch value whose acquisition never blocks:
/// contended callers get a fresh `T::default()` instead of waiting.
#[derive(Default)]
pub struct SharedScratch<T>(Mutex<T>);

impl<T: Default> SharedScratch<T> {
    /// Creates the scratch holding `T::default()`.
    pub fn new() -> Self {
        Self(Mutex::new(T::default()))
    }

    /// The shared scratch if it is free, a fresh local instance
    /// otherwise. Never blocks; mutations through a local guard are
    /// discarded when the guard drops (the shared instance is
    /// untouched), which is exactly right for per-call scratch.
    pub fn acquire(&self) -> ScratchGuard<'_, T> {
        match self.0.try_lock() {
            Some(guard) => ScratchGuard::Shared(guard),
            None => ScratchGuard::Local(T::default()),
        }
    }

    /// Blocking access to the shared instance — for tests and
    /// inspection, not for planning hot paths.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        self.0.lock()
    }
}

/// Either the shared scratch (exclusively held) or a per-call local
/// fallback; derefs to `T` either way.
pub enum ScratchGuard<'a, T> {
    /// The shared instance, exclusively held for this call.
    Shared(MutexGuard<'a, T>),
    /// A fresh fallback built because the shared instance was busy.
    Local(T),
}

impl<T> ScratchGuard<'_, T> {
    /// Whether this guard holds the shared instance (`false` = local
    /// fallback).
    pub fn is_shared(&self) -> bool {
        matches!(self, ScratchGuard::Shared(_))
    }
}

impl<T> Deref for ScratchGuard<'_, T> {
    type Target = T;

    fn deref(&self) -> &T {
        match self {
            ScratchGuard::Shared(g) => g,
            ScratchGuard::Local(t) => t,
        }
    }
}

impl<T> DerefMut for ScratchGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        match self {
            ScratchGuard::Shared(g) => g,
            ScratchGuard::Local(t) => t,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uncontended_acquire_reuses_the_shared_instance() {
        let scratch: SharedScratch<Vec<u32>> = SharedScratch::new();
        {
            let mut g = scratch.acquire();
            assert!(g.is_shared());
            g.push(7);
        }
        // Mutations through the shared guard persist.
        let g = scratch.acquire();
        assert!(g.is_shared());
        assert_eq!(&*g, &[7]);
    }

    #[test]
    fn contended_acquire_falls_back_locally_without_blocking() {
        let scratch: SharedScratch<Vec<u32>> = SharedScratch::new();
        scratch.lock().push(1);
        let held = scratch.lock(); // simulate a plan call in flight
        std::thread::scope(|scope| {
            scope
                .spawn(|| {
                    // Must complete while the lock is held — a blocking
                    // implementation would deadlock this scoped join.
                    let mut g = scratch.acquire();
                    assert!(!g.is_shared());
                    assert!(g.is_empty(), "fallback starts from default");
                    g.push(99);
                })
                .join()
                .expect("fallback acquire must not block or panic");
        });
        drop(held);
        // The local fallback's mutations never reached the shared state.
        assert_eq!(&*scratch.lock(), &[1]);
    }
}
