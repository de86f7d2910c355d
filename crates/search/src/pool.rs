//! A persistent deterministic worker pool for per-query parallelism.
//!
//! Planning is embarrassingly parallel across queries — every
//! [`crate::Planner::plan`] call is independent — and the training
//! loop's per-iteration planning/featurization phase is the dominant
//! CPU cost once execution is simulated. The vendor shims cannot pull
//! in rayon, so [`WorkerPool`] provides the primitives the workspace
//! needs — an indexed parallel map and a work-stealing span map — with
//! zero external dependencies.
//!
//! **Persistence.** Workers are spawned once, lazily, on the first
//! dispatch that wants them (`threads - 1` OS threads; the calling
//! thread is always participant 0) and *parked* on a condvar between
//! calls. A dispatch publishes a type-erased job descriptor (a raw
//! pointer to the caller's task closure plus a participant count),
//! bumps an epoch, and wakes the workers; it then runs its own share
//! and blocks until every participant has checked in, which is what
//! keeps the erased borrow alive. Dropping the last clone of a pool
//! parks no ghosts: drop signals shutdown and joins every worker.
//! Dispatch costs a lock + condvar wake (sub-microsecond) instead of
//! `thread::spawn`'s tens of microseconds, which is why the DP's
//! per-level fan-out cutoff could drop from 8192 to
//! [`crate::DpPlanner::with_parallel_cutoff`]'s new tiny default.
//!
//! **Determinism.** Work is distributed dynamically (an atomic cursor,
//! or range-splitting work-stealing for span work), but results are
//! written to their item's index, so the output order is always the
//! input order regardless of scheduling. Callers that need reproducible
//! randomness seed an RNG per item (e.g. the beam's exploration RNG is
//! keyed on query id), never per worker — under that contract a run
//! with `t` threads is bit-identical to the serial run.
//!
//! **Work stealing.** [`WorkerPool::steal_map_spans`] seeds each worker
//! with one of the [`WorkerPool::chunk_ranges`] and lets idle workers
//! steal the back half of a victim's remaining range, probing victims
//! in a fixed order derived from the thief's own index. Contiguous
//! fixed chunks idle `t - 1` workers whenever per-item cost is skewed
//! toward one chunk (a DP level whose last pairs carry the biggest
//! Pareto sets, a beam level whose candidates cluster on one state);
//! stealing re-balances those tails while every result still lands at
//! its input index, so the output — and, under the span-invariance
//! contract below, every byte of it — is identical for any thread
//! count and any steal schedule.
//!
//! **Nesting and sharing.** One pool instance is meant to be shared
//! (cheaply cloned — clones share the same workers) across the whole
//! workspace: planners and the training loop. Only one job runs on the
//! workers at a time; a dispatch that finds the pool busy —
//! a concurrent caller, or a *nested* call from inside a running task
//! (a planner fanning out a DP level while its caller fans out
//! queries on the same pool) — runs its whole job inline on the calling
//! thread as participant 0. The publish-at-input-index contract makes
//! that fallback bit-identical to the fanned-out execution.
//!
//! **Panic policy.** A panicking task no longer aborts the process via
//! poisoned queue mutexes: every participant runs under
//! `catch_unwind`, the first payload is captured, the surviving
//! participants drain the remaining work, and the payload is rethrown
//! exactly once on the calling thread after the job completes. The
//! pool itself stays usable afterwards.

use std::any::Any;
use std::fmt;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError, TryLockError};
use std::thread::JoinHandle;

/// Locks ignoring poison. The pool's own critical sections never panic,
/// but a panicking *task* on a sibling participant must not cascade into
/// `PoisonError` aborts here (the panic is captured and rethrown once by
/// the dispatcher instead).
fn lock_clean<T: ?Sized>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A published job: a type-erased pointer to the dispatching caller's
/// task closure, plus how many participants should run it. Participant
/// `p` of `workers` runs `task(p)`; the closure partitions work
/// internally (atomic cursor or per-participant range queues).
#[derive(Clone, Copy)]
struct Job {
    task: *const (dyn Fn(usize) + Sync),
    workers: usize,
}

// SAFETY: the pointer is dereferenced only by pool workers between the
// epoch bump that publishes the job and the `active == 0` handshake
// that lets `run_job` return — an interval during which the dispatching
// caller is blocked with the closure alive on its stack. The closure is
// `Sync`, so shared `&` calls from many workers are fine.
unsafe impl Send for Job {}

/// Condvar-guarded pool state: the published job, its epoch (so parked
/// workers can tell a fresh job from a spurious wake), how many
/// *worker* participants are still running it, the first captured panic
/// payload, and the shutdown flag.
struct PoolState {
    job: Option<Job>,
    epoch: u64,
    active: usize,
    panic: Option<Box<dyn Any + Send + 'static>>,
    shutdown: bool,
}

struct PoolCore {
    state: Mutex<PoolState>,
    /// Workers park here between jobs; notified on publish and shutdown.
    work_cv: Condvar,
    /// The dispatching caller parks here until `active == 0`.
    done_cv: Condvar,
}

/// The clone-shared half of a pool: core + worker handles. Dropping the
/// last clone signals shutdown and joins every spawned worker, so a
/// pool never leaks threads past its own lifetime.
struct PoolShared {
    threads: usize,
    core: Arc<PoolCore>,
    /// Lazily grown to `threads - 1`; joined on drop.
    handles: Mutex<Vec<JoinHandle<()>>>,
    /// Held across one `run_job`. `try_lock` contention is how a nested
    /// or concurrent dispatch detects it must run inline instead.
    dispatch: Mutex<()>,
}

impl Drop for PoolShared {
    fn drop(&mut self) {
        lock_clean(&self.core.state).shutdown = true;
        self.core.work_cv.notify_all();
        let handles = std::mem::take(
            self.handles
                .get_mut()
                .unwrap_or_else(PoisonError::into_inner),
        );
        for h in handles {
            let _ = h.join();
        }
    }
}

/// The parked-worker loop for participant `p` (`1..threads`; the
/// dispatching caller is always participant 0). Sleeps on `work_cv`,
/// runs each new epoch's job if `p` participates, checks in through
/// `active`, and exits on shutdown.
fn worker_loop(core: Arc<PoolCore>, p: usize) {
    let mut seen = 0u64;
    loop {
        let job = {
            let mut st = lock_clean(&core.state);
            loop {
                if st.shutdown {
                    return;
                }
                if st.epoch != seen {
                    seen = st.epoch;
                    break st.job;
                }
                st = core
                    .work_cv
                    .wait(st)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        };
        // `job` is None only when this worker slept through an entire
        // job (possible iff it was not a participant — dispatch waits
        // for every participant before clearing the slot).
        let Some(job) = job else { continue };
        if p < job.workers {
            // SAFETY: see `Job` — the dispatcher is blocked until our
            // check-in below, so the erased pointer is alive here.
            let task = unsafe { &*job.task };
            let result = catch_unwind(AssertUnwindSafe(|| task(p)));
            let mut st = lock_clean(&core.state);
            if let Err(payload) = result {
                if st.panic.is_none() {
                    st.panic = Some(payload);
                }
            }
            st.active -= 1;
            if st.active == 0 {
                core.done_cv.notify_all();
            }
        }
    }
}

/// A fixed-width persistent worker pool. Cheap to clone — clones share
/// the same parked workers — and joins its workers when the last clone
/// drops.
#[derive(Clone)]
pub struct WorkerPool {
    shared: Arc<PoolShared>,
}

impl fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("WorkerPool")
            .field("threads", &self.threads())
            .finish()
    }
}

impl WorkerPool {
    /// Creates a pool running `threads` workers (`>= 1`; 1 means fully
    /// serial execution on the calling thread). No OS threads are
    /// spawned until the first dispatch that wants them.
    pub fn new(threads: usize) -> Self {
        Self {
            shared: Arc::new(PoolShared {
                threads: threads.max(1),
                core: Arc::new(PoolCore {
                    state: Mutex::new(PoolState {
                        job: None,
                        epoch: 0,
                        active: 0,
                        panic: None,
                        shutdown: false,
                    }),
                    work_cv: Condvar::new(),
                    done_cv: Condvar::new(),
                }),
                handles: Mutex::new(Vec::new()),
                dispatch: Mutex::new(()),
            }),
        }
    }

    /// Worker count (participants per job, including the caller).
    pub fn threads(&self) -> usize {
        self.shared.threads
    }

    /// How many participants a [`WorkerPool::steal_map_spans`] call
    /// over `len` items with the given `max_span` fans out to (1 means
    /// the call runs serially on the caller).
    fn span_workers(&self, len: usize, max_span: usize) -> usize {
        self.threads().min(len.div_ceil(max_span.max(1))).max(1)
    }

    /// Lazily spawns the pool's `threads - 1` parked workers. Called
    /// only under the dispatch lock, so growth is race-free.
    fn ensure_spawned(&self) {
        let want = self.shared.threads - 1;
        let mut handles = lock_clean(&self.shared.handles);
        while handles.len() < want {
            let core = Arc::clone(&self.shared.core);
            let p = handles.len() + 1; // participant index
            let h = std::thread::Builder::new()
                .name(format!("balsa-pool-{p}"))
                .spawn(move || worker_loop(core, p))
                .expect("spawn pool worker");
            handles.push(h);
        }
    }

    /// Spawned (parked) worker threads right now — 0 until the first
    /// parallel dispatch, then `threads - 1`.
    #[cfg(test)]
    fn spawned_workers(&self) -> usize {
        lock_clean(&self.shared.handles).len()
    }

    /// Runs `task(p)` for participants `0..workers`: participant 0 on
    /// the calling thread, the rest on the parked workers. Blocks until
    /// every participant finishes. If the pool is busy (a concurrent
    /// dispatch, or a nested call from inside a running task) the whole
    /// job runs inline as `task(0)` — bit-identical by the
    /// publish-at-input-index contract. Rethrows the first captured
    /// participant panic exactly once, after all participants finish.
    fn run_job(&self, workers: usize, task: &(dyn Fn(usize) + Sync)) {
        debug_assert!(workers >= 2, "serial jobs never reach run_job");
        let _guard = match self.shared.dispatch.try_lock() {
            Ok(g) => g,
            // A rethrown panic may have poisoned the lock; the pool
            // stays usable.
            Err(TryLockError::Poisoned(p)) => p.into_inner(),
            Err(TryLockError::WouldBlock) => {
                task(0);
                return;
            }
        };
        self.ensure_spawned();
        let core = &self.shared.core;
        // SAFETY (lifetime erasure): the raw pointer's implicit bound
        // is `'static`, but `task` only lives for this call — sound
        // because we block below until every participant has checked
        // in, and workers touch the pointer only while participating.
        let job = Job {
            task: unsafe {
                std::mem::transmute::<&(dyn Fn(usize) + Sync), *const (dyn Fn(usize) + Sync)>(task)
            },
            workers: workers.min(self.shared.threads),
        };
        {
            let mut st = lock_clean(&core.state);
            st.job = Some(job);
            st.epoch = st.epoch.wrapping_add(1);
            st.active = job.workers - 1;
            st.panic = None;
            core.work_cv.notify_all();
        }
        let mine = catch_unwind(AssertUnwindSafe(|| task(0)));
        let captured = {
            let mut st = lock_clean(&core.state);
            while st.active > 0 {
                st = core
                    .done_cv
                    .wait(st)
                    .unwrap_or_else(PoisonError::into_inner);
            }
            st.job = None;
            st.panic.take()
        };
        drop(_guard);
        match (captured, mine) {
            (Some(payload), _) => resume_unwind(payload),
            (None, Err(payload)) => resume_unwind(payload),
            (None, Ok(())) => {}
        }
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

    /// Splits `len` items into at most [`WorkerPool::threads`]
    /// contiguous, balanced, non-empty `(start, end)` ranges (empty for
    /// `len == 0`). This is the deterministic partition for intra-query
    /// work — concatenating per-range results in range order reproduces
    /// the serial order for **any** thread count, which is what lets
    /// the beam's parallel expansion stay bit-identical to serial.
    pub fn chunk_ranges(&self, len: usize) -> Vec<(usize, usize)> {
        balanced_ranges(self.threads(), len)
    }

    /// Deterministic work-stealing map over index spans.
    ///
    /// `f(lo, hi, out)` must append **exactly `hi - lo`** results for
    /// items `lo..hi`, and must be *span-invariant*: running it over
    /// any partition of `0..len` into ordered spans and concatenating
    /// must equal one `f(0, len, out)` call (true whenever the per-item
    /// result does not depend on which span the item landed in — e.g.
    /// batched scoring whose batch layout never changes the math).
    /// Under that contract the returned vector is bit-identical to the
    /// serial run for every thread count.
    ///
    /// Scheduling: each participant is seeded with one of the
    /// [`WorkerPool::chunk_ranges`] and claims up to `max_span` items
    /// at a time from its range's front; a participant whose range is
    /// exhausted probes the others in a fixed order (`w + 1`, `w + 2`,
    /// … modulo the participant count) and steals the back half of the
    /// first non-empty range it finds. Results are published at their
    /// input index, so the steal schedule never shows in the output.
    ///
    /// # Panics
    /// Panics if `max_span == 0` or `f` appends a wrong count for some
    /// span; rethrows the first participant panic.
    pub fn steal_map_spans<R, F>(&self, len: usize, max_span: usize, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize, usize, &mut Vec<R>) + Sync,
    {
        assert!(max_span >= 1, "max_span must be at least 1");
        let workers = self.span_workers(len, max_span);
        if workers <= 1 {
            let mut out = Vec::with_capacity(len);
            if len > 0 {
                f(0, len, &mut out);
                assert_eq!(out.len(), len, "span fn must produce one result per item");
            }
            return out;
        }
        // One remaining-range deque per participant, seeded contiguously
        // — exactly `workers` ranges (not `self.threads`: every queue
        // must have an owner, and thieves only probe owned queues).
        let queues: Vec<Mutex<(usize, usize)>> = balanced_ranges(workers, len)
            .into_iter()
            .map(Mutex::new)
            .collect();
        debug_assert_eq!(queues.len(), workers);
        let mut slots: Vec<Option<R>> = Vec::with_capacity(len);
        slots.resize_with(len, || None);
        let results = Mutex::new(&mut slots);
        self.run_job(workers, &|w| {
            let mut produced: Vec<(usize, usize, Vec<R>)> = Vec::new();
            'work: loop {
                // Claim up to `max_span` items from the front of our
                // own range.
                let claimed = {
                    let mut own = lock_clean(&queues[w]);
                    if own.0 < own.1 {
                        let hi = (own.0 + max_span).min(own.1);
                        let span = (own.0, hi);
                        own.0 = hi;
                        Some(span)
                    } else {
                        None
                    }
                };
                if let Some((lo, hi)) = claimed {
                    let mut out = Vec::with_capacity(hi - lo);
                    f(lo, hi, &mut out);
                    assert_eq!(
                        out.len(),
                        hi - lo,
                        "span fn must produce one result per item"
                    );
                    produced.push((lo, hi, out));
                    continue;
                }
                // Own range exhausted: steal the back half of the
                // first non-empty victim, probing in the fixed order
                // w+1, w+2, … (deterministic per thief; the output
                // cannot depend on it regardless).
                for k in 1..workers {
                    let v = (w + k) % workers;
                    let stolen = {
                        let mut victim = lock_clean(&queues[v]);
                        if victim.0 < victim.1 {
                            let mid = victim.0 + (victim.1 - victim.0) / 2;
                            let back = (mid, victim.1);
                            victim.1 = mid;
                            Some(back)
                        } else {
                            None
                        }
                    };
                    if let Some(range) = stolen {
                        if range.0 < range.1 {
                            *lock_clean(&queues[w]) = range;
                            continue 'work;
                        }
                    }
                }
                break; // every queue drained
            }
            let mut out = lock_clean(&results);
            for (lo, _hi, vec) in produced {
                for (k, r) in vec.into_iter().enumerate() {
                    out[lo + k] = Some(r);
                }
            }
        });
        slots
            .into_iter()
            .map(|r| r.expect("every index produced exactly once"))
            .collect()
    }

    /// Per-item convenience over [`WorkerPool::steal_map_spans`]:
    /// work-stealing map of `f` over `items`, results in input order.
    /// `max_span` bounds how many consecutive items one claim covers
    /// (1 = finest-grained balancing; larger spans amortize claim
    /// locking for cheap items).
    pub fn steal_map<T, R, F>(&self, items: &[T], max_span: usize, f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        self.steal_map_spans(items.len(), max_span, |lo, hi, out| {
            out.extend(items[lo..hi].iter().enumerate().map(|(k, t)| f(lo + k, t)));
        })
    }

    /// Like [`WorkerPool::map`], but every participant first builds a
    /// private state with `init` (once per participant, not per item)
    /// and `f` receives `(&mut state, index, &item)` — the hook for
    /// per-worker planners whose scratch memo amortizes across the
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
        let workers = self.threads().min(items.len());
        if workers <= 1 {
            let mut state = init();
            return items
                .iter()
                .enumerate()
                .map(|(i, t)| f(&mut state, i, t))
                .collect();
        }
        let cursor = AtomicUsize::new(0);
        let mut slots: Vec<Option<R>> = Vec::with_capacity(items.len());
        slots.resize_with(items.len(), || None);
        let results = Mutex::new(&mut slots);
        self.run_job(workers, &|_w| {
            // Compute a local batch, then publish by index so output
            // order never depends on scheduling.
            let mut state = init();
            let mut produced: Vec<(usize, R)> = Vec::new();
            loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= items.len() {
                    break;
                }
                produced.push((i, f(&mut state, i, &items[i])));
            }
            let mut out = lock_clean(&results);
            for (i, r) in produced {
                out[i] = Some(r);
            }
        });
        slots
            .into_iter()
            .map(|r| r.expect("every index produced exactly once"))
            .collect()
    }
}

/// Splits `len` items into at most `chunks` contiguous, balanced,
/// non-empty ranges (see [`WorkerPool::chunk_ranges`]).
fn balanced_ranges(chunks: usize, len: usize) -> Vec<(usize, usize)> {
    if len == 0 {
        return Vec::new();
    }
    let chunks = chunks.clamp(1, len);
    let (base, rem) = (len / chunks, len % chunks);
    let mut out = Vec::with_capacity(chunks);
    let mut lo = 0;
    for c in 0..chunks {
        let hi = lo + base + usize::from(c < rem);
        out.push((lo, hi));
        lo = hi;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

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
    fn chunk_ranges_partition_exactly() {
        for threads in [1usize, 2, 3, 7, 16] {
            let pool = WorkerPool::new(threads);
            assert!(pool.chunk_ranges(0).is_empty());
            for len in [1usize, 2, 5, 16, 257] {
                let ranges = pool.chunk_ranges(len);
                assert!(ranges.len() <= threads && !ranges.is_empty());
                // Contiguous, ordered, non-empty, covering [0, len).
                let mut at = 0;
                for &(lo, hi) in &ranges {
                    assert_eq!(lo, at);
                    assert!(hi > lo);
                    at = hi;
                }
                assert_eq!(at, len);
                // Balanced: sizes differ by at most one.
                let sizes: Vec<usize> = ranges.iter().map(|&(l, h)| h - l).collect();
                let (mn, mx) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
                assert!(mx - mn <= 1, "{threads} threads, {len} items: {sizes:?}");
            }
        }
    }

    /// Property test: the work-stealing map is bit-identical to the
    /// contiguous `chunk_ranges` partition (and therefore to the serial
    /// map) under **adversarially skewed** per-item costs — all the
    /// weight piled onto one chunk, alternating heavy/light items, and
    /// front-loaded ramps — for a grid of thread counts and span sizes.
    #[test]
    fn steal_map_matches_chunked_map_under_skew() {
        // Per-item "cost" profiles; the work function burns cycles
        // proportional to the weight so heavy items really do pin
        // their worker while the others drain and steal.
        let n = 193usize;
        let profiles: Vec<Vec<u64>> = vec![
            // All the work in the last chunk's tail.
            (0..n).map(|i| if i > n - 8 { 4000 } else { 1 }).collect(),
            // All the work in the first items.
            (0..n).map(|i| if i < 8 { 4000 } else { 1 }).collect(),
            // Alternating heavy/light.
            (0..n).map(|i| if i % 7 == 0 { 1500 } else { 2 }).collect(),
            // Monotone ramp.
            (0..n).map(|i| (i as u64) * 13).collect(),
        ];
        let work = |i: usize, &wt: &u64| {
            // Deterministic spin: output depends only on the item.
            let mut acc = wt ^ (i as u64).wrapping_mul(0x9E3779B97F4A7C15);
            for _ in 0..wt {
                acc = acc.rotate_left(7) ^ 0xD1B54A32D192ED03;
            }
            acc
        };
        for weights in &profiles {
            let serial: Vec<u64> = weights
                .iter()
                .enumerate()
                .map(|(i, w)| work(i, w))
                .collect();
            for threads in [1usize, 2, 4, 8] {
                let pool = WorkerPool::new(threads);
                // Reference: the fixed contiguous partition.
                let ranges = pool.chunk_ranges(n);
                let chunked: Vec<u64> = pool
                    .map(&ranges, |_, &(lo, hi)| {
                        weights[lo..hi]
                            .iter()
                            .enumerate()
                            .map(|(k, w)| work(lo + k, w))
                            .collect::<Vec<u64>>()
                    })
                    .into_iter()
                    .flatten()
                    .collect();
                assert_eq!(chunked, serial, "{threads} threads (chunked)");
                for span in [1usize, 3, 16, 64] {
                    let stolen = pool.steal_map(weights, span, work);
                    assert_eq!(stolen, serial, "{threads} threads, span {span}");
                }
            }
        }
    }

    #[test]
    fn steal_map_spans_runs_every_index_exactly_once() {
        let n = 211usize;
        for threads in [2usize, 5, 8] {
            for span in [1usize, 4, 32] {
                let counters: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
                let out = WorkerPool::new(threads).steal_map_spans(n, span, |lo, hi, out| {
                    assert!(lo < hi && hi <= n && hi - lo <= span);
                    for (i, c) in counters.iter().enumerate().take(hi).skip(lo) {
                        c.fetch_add(1, Ordering::SeqCst);
                        out.push(i * 2);
                    }
                });
                assert_eq!(out, (0..n).map(|i| i * 2).collect::<Vec<_>>());
                assert!(counters.iter().all(|c| c.load(Ordering::SeqCst) == 1));
            }
        }
    }

    #[test]
    fn steal_map_spans_edge_cases() {
        let pool = WorkerPool::new(4);
        let empty: Vec<usize> = pool.steal_map_spans(0, 8, |_, _, _| unreachable!());
        assert!(empty.is_empty());
        let one = pool.steal_map_spans(1, 8, |lo, hi, out| {
            assert_eq!((lo, hi), (0, 1));
            out.push(42);
        });
        assert_eq!(one, vec![42]);
        // Serial pool takes the single-call fast path.
        let serial = WorkerPool::new(1).steal_map(&[1, 2, 3], 2, |_, &x| x * 10);
        assert_eq!(serial, vec![10, 20, 30]);
    }

    #[test]
    fn span_workers_matches_fanout_rule() {
        let pool = WorkerPool::new(4);
        assert_eq!(pool.span_workers(0, 8), 1);
        assert_eq!(pool.span_workers(1, 8), 1);
        assert_eq!(pool.span_workers(8, 8), 1);
        assert_eq!(pool.span_workers(9, 8), 2);
        assert_eq!(pool.span_workers(1000, 8), 4);
        assert_eq!(pool.span_workers(10, 0), 4, "0 span clamps to 1");
        assert_eq!(WorkerPool::new(1).span_workers(1000, 1), 1);
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
                    *state += 1; // worker-local: never racy
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

    /// The pool is persistent: the first parallel call spawns
    /// `threads - 1` workers, later calls reuse them, and repeated
    /// mixed calls on one pool are bit-identical to fresh-pool runs.
    #[test]
    fn workers_spawn_once_and_are_reused() {
        let items: Vec<u64> = (0..300).collect();
        let pool = WorkerPool::new(4);
        assert_eq!(pool.spawned_workers(), 0, "spawn is lazy");
        let f = |i: usize, x: &u64| (i as u64).rotate_left(11) ^ (x * 7);
        let first = pool.map(&items, f);
        assert_eq!(pool.spawned_workers(), 3);
        for round in 0..10 {
            let by_map = pool.map(&items, f);
            let by_steal = pool.steal_map(&items, 1 + round % 5, f);
            let fresh = WorkerPool::new(4).map(&items, f);
            assert_eq!(by_map, first, "round {round} map");
            assert_eq!(by_steal, first, "round {round} steal");
            assert_eq!(fresh, first, "round {round} fresh");
        }
        assert_eq!(pool.spawned_workers(), 3, "no respawn across calls");
    }

    /// Clones share one set of workers, and a nested dispatch on the
    /// same (busy) pool falls back to inline execution with identical
    /// results.
    #[test]
    fn nested_dispatch_on_a_shared_pool_runs_inline_and_matches() {
        let outer: Vec<u64> = (0..8).collect();
        let inner: Vec<u64> = (0..64).collect();
        let pool = WorkerPool::new(4);
        let child = pool.clone();
        let expect: Vec<Vec<u64>> = outer
            .iter()
            .map(|&o| inner.iter().map(|&i| o * 1000 + i * 3).collect())
            .collect();
        let got = pool.map(&outer, |_, &o| {
            // The outer job holds the dispatch lock, so this nested
            // call must take the inline path — same bytes either way.
            child.steal_map(&inner, 4, |_, &i| o * 1000 + i * 3)
        });
        assert_eq!(got, expect);
        assert_eq!(pool.spawned_workers(), 3, "nesting never over-spawns");
    }

    /// Satellite regression: a panicking closure must not poison the
    /// shared queues into cascading aborts — siblings drain, the first
    /// payload is rethrown exactly once, and the pool stays usable.
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
            // Same for the work-stealing path.
            let stolen = std::panic::catch_unwind(AssertUnwindSafe(|| {
                pool.steal_map(&items, 3, |_, &x| {
                    if x == 77 {
                        panic!("steal boom");
                    }
                    x
                })
            }));
            assert!(stolen.is_err(), "{threads} threads: steal panic lost");
            // The pool is still fully functional afterwards.
            let ok = pool.map(&items, |_, &x| x * 2);
            assert_eq!(ok, items.iter().map(|x| x * 2).collect::<Vec<_>>());
            let ok2 = pool.steal_map(&items, 5, |_, &x| x + 1);
            assert_eq!(ok2, items.iter().map(|x| x + 1).collect::<Vec<_>>());
        }
    }

    /// Satellite drop test: dropping the last clone joins every worker
    /// — observable as the workers' `Arc<PoolCore>` clones all being
    /// released by the time `drop` returns (a leaked or still-running
    /// worker would keep the core alive).
    #[test]
    fn dropping_the_pool_joins_its_workers() {
        let items: Vec<u64> = (0..128).collect();
        let pool = WorkerPool::new(4);
        let _ = pool.map(&items, |i, &x| x + i as u64); // force spawn
        assert_eq!(pool.spawned_workers(), 3);
        let core = Arc::downgrade(&pool.shared.core);
        let clone = pool.clone();
        drop(pool);
        assert!(
            core.upgrade().is_some(),
            "a live clone must keep the workers"
        );
        drop(clone);
        assert!(
            core.upgrade().is_none(),
            "last drop must join workers and release the core"
        );
    }
}
