//! Deterministic fault injection and recovery policies.
//!
//! The paper's only safety mechanism is §4.3 timeout censoring: every
//! execution either completes or times out. A production optimizer
//! service also sees engine crashes, transient errors, latency spikes,
//! and queries that hang without progressing — and it must treat all of
//! them as *expected* events with principled recovery. This module
//! supplies the failure model:
//!
//! * [`FaultConfig`] — per-class injection rates (plus a master seed)
//!   for the four chaos classes of [`FaultKind`];
//! * [`FaultInjector`] — draws faults from a **pinned, stateless RNG
//!   stream** keyed on `(seed, query_key, Plan::canonical_hash,
//!   attempt)`, so a chaos run is bit-reproducible: the same config
//!   and seed produce the same fault at the same execution no matter
//!   how many threads run, what ran before, or whether the process was
//!   killed and resumed in between;
//! * [`RetryPolicy`] — bounded retries with exponential backoff and
//!   pinned jitter (keyed the same way), plus the
//!   [`ExhaustedPolicy`] deciding what a permanently-failing execution
//!   becomes (a timeout-censored label at the kill point, or a dropped
//!   sample);
//! * [`ResilienceStats`] — the counters every recovery layer reports.
//!
//! With every rate at zero the injector draws nothing and every
//! recorded latency reproduces bit-for-bit — chaos is strictly opt-in.

use balsa_query::splitmix64;

/// One injected fault class.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// The engine reported a transient error (lock timeout, network
    /// blip); the execution died partway through. Retryable.
    Transient,
    /// The engine process crashed and restarted; the execution died
    /// partway through and the restart costs extra wall. Retryable.
    Crash,
    /// The execution completed but took `factor`× its true latency
    /// (background compaction, noisy neighbor). Not an error — the
    /// observed latency is simply worse, and may now exceed the budget.
    LatencySpike(f64),
    /// The execution stopped progressing entirely: with a timeout
    /// budget it is killed there (a guaranteed timeout); without one,
    /// the watchdog kills it after the full latency has been wasted and
    /// reports a transient error.
    Hang,
}

/// Per-class fault rates and the chaos seed. All rates are
/// probabilities in `[0, 1]` and must sum to at most 1; the default is
/// all-zero (chaos off).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultConfig {
    /// Master chaos seed — part of every fault-draw key.
    pub seed: u64,
    /// Rate of [`FaultKind::Transient`].
    pub transient: f64,
    /// Rate of [`FaultKind::Crash`].
    pub crash: f64,
    /// Rate of [`FaultKind::LatencySpike`].
    pub spike: f64,
    /// Latency multiplier of an injected spike (> 1).
    pub spike_factor: f64,
    /// Rate of [`FaultKind::Hang`].
    pub hang: f64,
    /// Extra wall seconds charged for an engine restart after a crash.
    pub crash_restart_secs: f64,
}

impl Default for FaultConfig {
    fn default() -> Self {
        Self {
            seed: 0,
            transient: 0.0,
            crash: 0.0,
            spike: 0.0,
            spike_factor: 4.0,
            hang: 0.0,
            crash_restart_secs: 0.05,
        }
    }
}

impl FaultConfig {
    /// Whether every rate is zero (the injector never draws a fault).
    pub fn is_zero(&self) -> bool {
        self.transient == 0.0 && self.crash == 0.0 && self.spike == 0.0 && self.hang == 0.0
    }

    /// Parses a fault spec: comma-separated `key=value` pairs over
    /// `seed`, `transient`, `crash`, `spike`, `spike_factor`, `hang`,
    /// `restart` (e.g.
    /// `"seed=7,transient=0.05,crash=0.02,spike=0.03,spike_factor=4,hang=0.01"`).
    /// Unknown keys, malformed numbers, out-of-range rates, and rates
    /// summing past 1 are errors — a garbled chaos spec must never
    /// silently inject a different chaos than the one asked for.
    pub fn parse(spec: &str) -> Result<FaultConfig, String> {
        let mut cfg = FaultConfig::default();
        for part in spec.split(',') {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            let (key, value) = part
                .split_once('=')
                .ok_or_else(|| format!("expected key=value, got {part:?}"))?;
            let (key, value) = (key.trim(), value.trim());
            let parse_rate = |v: &str| -> Result<f64, String> {
                let r: f64 = v
                    .parse()
                    .map_err(|_| format!("{key}: not a number: {v:?}"))?;
                if !(0.0..=1.0).contains(&r) {
                    return Err(format!("{key}: rate {r} outside [0, 1]"));
                }
                Ok(r)
            };
            match key {
                "seed" => {
                    cfg.seed = value
                        .parse()
                        .map_err(|_| format!("seed: not an integer: {value:?}"))?
                }
                "transient" => cfg.transient = parse_rate(value)?,
                "crash" => cfg.crash = parse_rate(value)?,
                "spike" => cfg.spike = parse_rate(value)?,
                "hang" => cfg.hang = parse_rate(value)?,
                "spike_factor" => {
                    let f: f64 = value
                        .parse()
                        .map_err(|_| format!("spike_factor: not a number: {value:?}"))?;
                    if !f.is_finite() || f <= 1.0 {
                        return Err(format!("spike_factor: {f} must be a finite factor > 1"));
                    }
                    cfg.spike_factor = f;
                }
                "restart" => {
                    let s: f64 = value
                        .parse()
                        .map_err(|_| format!("restart: not a number: {value:?}"))?;
                    if !s.is_finite() || s < 0.0 {
                        return Err(format!("restart: {s} must be a finite non-negative wall"));
                    }
                    cfg.crash_restart_secs = s;
                }
                other => return Err(format!("unknown fault key {other:?}")),
            }
        }
        let total = cfg.transient + cfg.crash + cfg.spike + cfg.hang;
        if total > 1.0 {
            return Err(format!("fault rates sum to {total} > 1"));
        }
        Ok(cfg)
    }

    /// A structural fingerprint of the config (seed + every rate's bit
    /// pattern) for checkpoint/resume validation.
    pub fn fingerprint(&self) -> u64 {
        let mut h = splitmix64(self.seed ^ 0xFA017);
        for bits in [
            self.transient.to_bits(),
            self.crash.to_bits(),
            self.spike.to_bits(),
            self.spike_factor.to_bits(),
            self.hang.to_bits(),
            self.crash_restart_secs.to_bits(),
        ] {
            h = splitmix64(h ^ bits);
        }
        h
    }
}

/// 53-bit uniform in `[0, 1)` from a mixed word.
fn to_unit(x: u64) -> f64 {
    (x >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Draws faults from a pinned stream keyed on
/// `(seed, query_key, plan canonical hash, attempt)`. Stateless: every
/// draw is a pure function of its key, so injection is independent of
/// thread count, execution order, and process restarts.
#[derive(Debug, Clone, Copy)]
pub struct FaultInjector {
    cfg: FaultConfig,
}

impl FaultInjector {
    /// An injector over `cfg`.
    pub fn new(cfg: FaultConfig) -> Self {
        Self { cfg }
    }

    /// The configuration in force.
    pub fn config(&self) -> &FaultConfig {
        &self.cfg
    }

    /// The keyed word stream: draw `n` of the execution keyed by
    /// `(query, plan, attempt)`.
    fn word(&self, query_key: u64, plan_hash: u64, attempt: u32, n: u64) -> u64 {
        let mut h = splitmix64(self.cfg.seed ^ 0xC7A05C0DE);
        h = splitmix64(h ^ query_key);
        h = splitmix64(h ^ plan_hash.rotate_left(17));
        h = splitmix64(h ^ (attempt as u64) ^ (n << 32));
        h
    }

    /// The fault injected into this `(query, plan, attempt)` execution,
    /// if any. With all rates zero this returns `None` without
    /// consuming anything (there is no stream state to consume).
    pub fn draw(&self, query_key: u64, plan_hash: u64, attempt: u32) -> Option<FaultKind> {
        if self.cfg.is_zero() {
            return None;
        }
        let u = to_unit(self.word(query_key, plan_hash, attempt, 0));
        let mut edge = self.cfg.transient;
        if u < edge {
            return Some(FaultKind::Transient);
        }
        edge += self.cfg.crash;
        if u < edge {
            return Some(FaultKind::Crash);
        }
        edge += self.cfg.spike;
        if u < edge {
            return Some(FaultKind::LatencySpike(self.cfg.spike_factor));
        }
        edge += self.cfg.hang;
        if u < edge {
            return Some(FaultKind::Hang);
        }
        None
    }

    /// Where in the (budget-capped) execution a transient/crash fault
    /// kills the run, as a fraction in `[0.1, 0.9)` — keyed like
    /// [`FaultInjector::draw`], so the wasted wall is reproducible too.
    pub fn abort_fraction(&self, query_key: u64, plan_hash: u64, attempt: u32) -> f64 {
        0.1 + 0.8 * to_unit(self.word(query_key, plan_hash, attempt, 1))
    }
}

/// What becomes of an execution whose retries are exhausted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExhaustedPolicy {
    /// Label it like a timeout killed at the last attempt's abort
    /// point: the run provably lasted that long without completing, so
    /// the abort wall is an honest §4.3-censored lower bound (every
    /// subtree whose latency exceeds it is censored there, exactly as
    /// a budget timeout would).
    Censor,
    /// Record nothing: the sample is dropped and only counted in
    /// [`ResilienceStats::abandoned`].
    Drop,
}

/// Bounded retry with exponential backoff and pinned jitter.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Total attempts including the first (≥ 1).
    pub max_attempts: u32,
    /// Backoff before the first retry, in (simulated) wall seconds.
    pub backoff_base_secs: f64,
    /// Multiplier per further retry.
    pub backoff_mult: f64,
    /// Jitter half-width as a fraction of the backoff (`0.1` means
    /// ±10%), drawn from a stream keyed on `(seed, query_key, attempt)`
    /// so backoff wall-clock is bit-reproducible.
    pub jitter_frac: f64,
    /// Jitter seed.
    pub seed: u64,
    /// What an execution that exhausts every attempt becomes.
    pub exhausted: ExhaustedPolicy,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_attempts: 3,
            backoff_base_secs: 0.1,
            backoff_mult: 2.0,
            jitter_frac: 0.1,
            seed: 0xB0FF,
            exhausted: ExhaustedPolicy::Censor,
        }
    }
}

impl RetryPolicy {
    /// The backoff charged before retrying `attempt` (0-based index of
    /// the attempt that just failed): `base · mult^attempt`, jittered
    /// by the pinned ±`jitter_frac` stream.
    pub fn backoff_secs(&self, query_key: u64, attempt: u32) -> f64 {
        let raw = self.backoff_base_secs * self.backoff_mult.powi(attempt as i32);
        let mut h = splitmix64(self.seed ^ 0xBACC0FF);
        h = splitmix64(h ^ query_key);
        h = splitmix64(h ^ attempt as u64);
        raw * (1.0 + self.jitter_frac * (2.0 * to_unit(h) - 1.0))
    }

    /// A structural fingerprint for checkpoint/resume validation.
    pub fn fingerprint(&self) -> u64 {
        let mut h = splitmix64(self.seed ^ 0x2E742);
        h = splitmix64(h ^ self.max_attempts as u64);
        for bits in [
            self.backoff_base_secs.to_bits(),
            self.backoff_mult.to_bits(),
            self.jitter_frac.to_bits(),
        ] {
            h = splitmix64(h ^ bits);
        }
        splitmix64(h ^ matches!(self.exhausted, ExhaustedPolicy::Drop) as u64)
    }
}

/// Counters of everything the resilience layer absorbed — reported per
/// training run and per retry call.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ResilienceStats {
    /// Faults injected across all attempts, all classes.
    pub faults_injected: u64,
    /// [`FaultKind::Transient`] faults observed.
    pub transients: u64,
    /// [`FaultKind::Crash`] faults observed.
    pub crashes: u64,
    /// [`FaultKind::LatencySpike`] faults observed.
    pub spikes: u64,
    /// [`FaultKind::Hang`] faults observed.
    pub hangs: u64,
    /// Retry attempts made (beyond each execution's first attempt).
    pub retries: u64,
    /// Executions abandoned after exhausting retries
    /// ([`ExhaustedPolicy::Drop`]).
    pub abandoned: u64,
    /// Executions that exhausted retries and were recorded as censored
    /// labels at the kill point ([`ExhaustedPolicy::Censor`]).
    pub exhausted_censored: u64,
    /// Iterations the training loop fell back to expert DP plans.
    pub fallback_iterations: u64,
    /// Backoff wall-clock charged to the simulated clock, in seconds.
    pub backoff_secs_charged: f64,
    /// Planner calls that returned a `PlanError` (disconnected graph,
    /// or a budget exhaustion even the greedy floor could not absorb);
    /// the query was skipped and the error surfaced, never masked.
    pub planner_errors: u64,
    /// Plans emitted by a degraded stage of the planner fallback chain
    /// (`SearchStats::degraded_levels > 0`) rather than the primary
    /// planner. Honest accounting: any nonzero value means some
    /// reported plan is not the primary planner's answer.
    pub planner_degraded: u64,
    /// Plans whose search hit a `PlanBudget` boundary check
    /// (`SearchStats::budget_exhausted`), whether or not the fallback
    /// chain then degraded.
    pub planner_exhausted: u64,
}

impl ResilienceStats {
    /// Accumulates `other` into `self`.
    pub fn merge(&mut self, other: &ResilienceStats) {
        self.faults_injected += other.faults_injected;
        self.transients += other.transients;
        self.crashes += other.crashes;
        self.spikes += other.spikes;
        self.hangs += other.hangs;
        self.retries += other.retries;
        self.abandoned += other.abandoned;
        self.exhausted_censored += other.exhausted_censored;
        self.fallback_iterations += other.fallback_iterations;
        self.backoff_secs_charged += other.backoff_secs_charged;
        self.planner_errors += other.planner_errors;
        self.planner_degraded += other.planner_degraded;
        self.planner_exhausted += other.planner_exhausted;
    }

    /// Records one observed fault of `kind`.
    pub fn count_fault(&mut self, kind: FaultKind) {
        self.faults_injected += 1;
        match kind {
            FaultKind::Transient => self.transients += 1,
            FaultKind::Crash => self.crashes += 1,
            FaultKind::LatencySpike(_) => self.spikes += 1,
            FaultKind::Hang => self.hangs += 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_config_never_draws() {
        let inj = FaultInjector::new(FaultConfig::default());
        for qk in 0..50u64 {
            for attempt in 0..3 {
                assert_eq!(inj.draw(qk, qk.wrapping_mul(31), attempt), None);
            }
        }
    }

    #[test]
    fn draws_are_keyed_and_reproducible() {
        let cfg = FaultConfig {
            seed: 7,
            transient: 0.2,
            crash: 0.1,
            spike: 0.1,
            hang: 0.05,
            ..FaultConfig::default()
        };
        let a = FaultInjector::new(cfg);
        let b = FaultInjector::new(cfg);
        let mut classes = [0usize; 5];
        for qk in 0..400u64 {
            for attempt in 0..2 {
                let d1 = a.draw(qk, splitmix64(qk), attempt);
                let d2 = b.draw(qk, splitmix64(qk), attempt);
                assert_eq!(d1, d2, "same key must draw the same fault");
                match d1 {
                    None => classes[0] += 1,
                    Some(FaultKind::Transient) => classes[1] += 1,
                    Some(FaultKind::Crash) => classes[2] += 1,
                    Some(FaultKind::LatencySpike(f)) => {
                        assert_eq!(f, cfg.spike_factor);
                        classes[3] += 1;
                    }
                    Some(FaultKind::Hang) => classes[4] += 1,
                }
            }
        }
        // Every class realized, roughly at its rate (800 draws).
        assert!(classes.iter().all(|&c| c > 0), "classes: {classes:?}");
        assert!(classes[1] > classes[4], "transient rate 4x hang rate");
        // A different seed draws a different sequence.
        let c = FaultInjector::new(FaultConfig { seed: 8, ..cfg });
        assert!(
            (0..400u64).any(|qk| c.draw(qk, splitmix64(qk), 0) != a.draw(qk, splitmix64(qk), 0))
        );
    }

    #[test]
    fn attempts_are_independent_draws() {
        let cfg = FaultConfig {
            seed: 3,
            transient: 0.5,
            ..FaultConfig::default()
        };
        let inj = FaultInjector::new(cfg);
        // With rate 0.5 some key must fault on attempt 0 and clear on
        // attempt 1 — the retry's whole reason to exist.
        assert!((0..100u64).any(|qk| {
            inj.draw(qk, 1, 0) == Some(FaultKind::Transient) && inj.draw(qk, 1, 1).is_none()
        }));
    }

    #[test]
    fn abort_fraction_is_bounded_and_pinned() {
        let inj = FaultInjector::new(FaultConfig {
            seed: 11,
            transient: 1.0,
            ..FaultConfig::default()
        });
        for qk in 0..100u64 {
            let f = inj.abort_fraction(qk, 5, 0);
            assert!((0.1..0.9).contains(&f));
            assert_eq!(f, inj.abort_fraction(qk, 5, 0));
        }
    }

    #[test]
    fn backoff_grows_exponentially_with_pinned_jitter() {
        let p = RetryPolicy::default();
        let b0 = p.backoff_secs(42, 0);
        let b1 = p.backoff_secs(42, 1);
        let b2 = p.backoff_secs(42, 2);
        assert_eq!(b0, p.backoff_secs(42, 0), "jitter must be pinned");
        // Jitter is ±10%, growth is 2x: ordering is strict.
        assert!(b0 < b1 && b1 < b2);
        assert!((b0 - 0.1).abs() <= 0.1 * 0.1 + 1e-12);
        assert!((b2 - 0.4).abs() <= 0.4 * 0.1 + 1e-12);
        // Different queries get different jitter, same envelope.
        assert_ne!(p.backoff_secs(1, 0), p.backoff_secs(2, 0));
    }

    /// The fault-spec parse table: accepted specs round-trip into the
    /// expected config, garbled specs are errors — never a silently
    /// different chaos.
    #[test]
    fn fault_spec_parse_table() {
        let ok: &[(&str, FaultConfig)] = &[
            ("", FaultConfig::default()),
            (
                "transient=0.05",
                FaultConfig {
                    transient: 0.05,
                    ..FaultConfig::default()
                },
            ),
            (
                "seed=7,transient=0.05,crash=0.02,spike=0.03,spike_factor=4,hang=0.01",
                FaultConfig {
                    seed: 7,
                    transient: 0.05,
                    crash: 0.02,
                    spike: 0.03,
                    spike_factor: 4.0,
                    hang: 0.01,
                    ..FaultConfig::default()
                },
            ),
            (
                " seed = 9 , restart = 0.25 ",
                FaultConfig {
                    seed: 9,
                    crash_restart_secs: 0.25,
                    ..FaultConfig::default()
                },
            ),
        ];
        for (spec, want) in ok {
            assert_eq!(&FaultConfig::parse(spec).unwrap(), want, "spec {spec:?}");
        }
        let bad = [
            "transient",               // no value
            "transient=lots",          // not a number
            "transient=1.5",           // rate out of range
            "transient=-0.1",          // negative rate
            "spike_factor=0.5",        // factor must exceed 1
            "restart=-1",              // negative wall
            "seed=7.5",                // non-integer seed
            "chaos=0.5",               // unknown key
            "transient=0.6,crash=0.6", // rates sum past 1
        ];
        for spec in bad {
            assert!(
                FaultConfig::parse(spec).is_err(),
                "spec {spec:?} must be rejected"
            );
        }
    }

    #[test]
    fn fingerprints_separate_configs() {
        let a = FaultConfig::default();
        let b = FaultConfig {
            transient: 0.05,
            ..a
        };
        assert_ne!(a.fingerprint(), b.fingerprint());
        assert_eq!(a.fingerprint(), FaultConfig::default().fingerprint());
        let p = RetryPolicy::default();
        let q = RetryPolicy {
            max_attempts: 5,
            ..p
        };
        assert_ne!(p.fingerprint(), q.fingerprint());
    }
}
