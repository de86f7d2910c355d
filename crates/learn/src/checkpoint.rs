//! Crash-safe training checkpoints.
//!
//! [`train_loop`] can be killed at any moment — process crash, OOM,
//! preemption — and must restart without losing its run or breaking
//! bit-reproducibility. A checkpoint is the loop's private per-iteration
//! state, converted field for field: into [`CheckpointData`] after a due
//! iteration, and back (restoring the env's plan cache too) on resume.
//! That state is **everything** phase 2 threads through an iteration
//! boundary:
//!
//! * the fine-tuning model's full internal state
//!   ([`ValueModel::state_vec`], which — unlike `params` — round-trips
//!   frozen feature standardization) and the best-so-far validation
//!   checkpoint;
//! * the master RNG's mid-stream state (the vendored xoshiro256++
//!   exposes its four words), so post-resume fits consume exactly the
//!   draws the uninterrupted run would have;
//! * the experience buffer, as `(query, plan, label)` triples
//!   ([`BufferEntry`]) with plans in [`Plan::encode_compact`] form —
//!   features are a pure function of `(query, plan)` and are recomputed
//!   at load, keeping checkpoints small;
//! * the execution environment's plan cache and hit/miss counters
//!   ([`balsa_engine::EnvSnapshot`]);
//! * per-query best latencies (timeout budgets), the trajectory so
//!   far, the resilience counters, and the expert-fallback window.
//!
//! **Atomicity:** [`CheckpointData::save_atomic`] writes to a temp file
//! in the same directory and `rename`s it into place — a crash
//! mid-write leaves the previous checkpoint intact, never a torn file.
//!
//! **Bit-identity:** every float is serialized as its exact IEEE-754
//! bit pattern (hex), every collection in a deterministic sorted
//! order, and nothing wall-clock-dependent is included — so a
//! kill-at-iteration-k + resume run writes a final checkpoint that is
//! **byte-identical** to the uninterrupted run's (the resume test's
//! acceptance criterion).
//!
//! Measured walls are deliberately excluded — `TrainBreakdown`, the
//! simulated clock (whose planning charges are *measured* planning
//! walls), and each iteration's `sim_hours`. They are honest
//! per-process measurements, not replayable state; including any of
//! them would make two runs of the identical computation produce
//! different checkpoint bytes. After a resume, the sim-hours curve
//! restarts from the resume point and pre-resume entries read as NaN.
//!
//! [`train_loop`]: crate::train_loop
//! [`ValueModel::state_vec`]: crate::ValueModel::state_vec
//! [`Plan::encode_compact`]: balsa_query::Plan::encode_compact

use crate::buffer::{Experience, LabelSource};
use crate::train::IterationStats;
use balsa_engine::{EnvSnapshot, ResilienceStats};
use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::Path;
use std::str::FromStr;

/// One serialized experience-buffer entry. The feature vector is *not*
/// stored: it is recomputed from the plan at load time.
#[derive(Debug, Clone, PartialEq)]
pub struct BufferEntry {
    /// `balsa_engine::query_key` of the owning query.
    pub query_key: u64,
    /// The buffer's frozen structural key (`Plan::canonical_hash`).
    pub fingerprint: u64,
    /// The subplan, in [`balsa_query::Plan::encode_compact`] form.
    pub plan: String,
    /// Label in (pseudo-)seconds.
    pub label_secs: f64,
    /// Whether the label is a censored lower bound.
    pub censored: bool,
    /// Label provenance.
    pub source: LabelSource,
}

impl From<&Experience> for BufferEntry {
    fn from(e: &Experience) -> Self {
        BufferEntry {
            query_key: e.query_key,
            fingerprint: e.fingerprint,
            plan: e.plan.encode_compact(),
            label_secs: e.label_secs,
            censored: e.censored,
            source: e.source,
        }
    }
}

/// A complete phase-2 iteration boundary of [`crate::train_loop`].
#[derive(Debug, Clone, PartialEq)]
pub struct CheckpointData {
    /// Fingerprint of the training configuration (and fault/retry
    /// config) that produced this checkpoint; resume refuses a
    /// mismatch rather than silently training a different run.
    pub cfg_fingerprint: u64,
    /// Last completed fine-tuning iteration.
    pub iteration: usize,
    /// Master RNG state after this iteration's fit.
    pub rng_state: [u64; 4],
    /// Fine-tuning model state ([`crate::ValueModel::state_vec`] of
    /// the residual wrapper).
    pub model_state: Vec<f64>,
    /// Whether the best-validation model is the residual wrapper
    /// (later iterations) or the plain pretrained model (iteration 0).
    pub best_is_residual: bool,
    /// Best-validation model state.
    pub best_model_state: Vec<f64>,
    /// Best validation geometric-mean latency so far.
    pub best_val: f64,
    /// Per-train-query best observed latencies (timeout budgets),
    /// sorted by query index.
    pub best_lat: Vec<(usize, f64)>,
    /// Recent per-iteration failure+timeout rates (expert-fallback
    /// window), oldest first.
    pub fallback_window: Vec<f64>,
    /// Experience buffer in sorted-key order.
    pub buffer: Vec<BufferEntry>,
    /// Training environment snapshot (plan cache and counters; the
    /// snapshot's `clock_secs` is **not** serialized — the clock
    /// accumulates measured planning walls and is process-local).
    pub env: EnvSnapshot,
    /// Trajectory through this iteration.
    pub trajectory: Vec<IterationStats>,
    /// Resilience counters accumulated so far.
    pub resilience: ResilienceStats,
}

const MAGIC: &str = "balsa-checkpoint v1";

fn hx(x: f64) -> String {
    format!("{:016x}", x.to_bits())
}

type Parsed<T> = Result<T, String>;

/// The space-separated words of one line's body, taken in order.
struct Words<'a>(Option<&'a str>);

impl<'a> Words<'a> {
    fn word(&mut self) -> Parsed<&'a str> {
        let rest = self.0.ok_or("missing field")?;
        let (word, tail) = rest
            .split_once(' ')
            .map_or((rest, None), |(w, t)| (w, Some(t)));
        self.0 = tail;
        Ok(word)
    }

    /// Everything left on the line, spaces included.
    fn rest(&mut self) -> Parsed<&'a str> {
        self.0.take().ok_or_else(|| "missing field".into())
    }

    fn num<T: FromStr>(&mut self) -> Parsed<T> {
        let w = self.word()?;
        w.parse().map_err(|_| format!("bad number {w:?}"))
    }

    fn hex(&mut self) -> Parsed<u64> {
        let w = self.word()?;
        u64::from_str_radix(w, 16).map_err(|_| format!("bad hex word {w:?}"))
    }

    fn f64(&mut self) -> Parsed<f64> {
        self.hex().map(f64::from_bits)
    }

    fn flag(&mut self) -> Parsed<bool> {
        Ok(self.word()? == "1")
    }

    /// A count, then that many floats.
    fn floats(&mut self) -> Parsed<Vec<f64>> {
        let n: usize = self.num()?;
        let mut v = Vec::new();
        for _ in 0..n {
            v.push(self.f64()?);
        }
        Ok(v)
    }
}

/// The tagged lines of an encoded checkpoint, taken in order.
struct Lines<'a>(std::str::Lines<'a>);

impl<'a> Lines<'a> {
    fn next(&mut self, what: &str) -> Parsed<&'a str> {
        self.0.next().ok_or_else(|| format!("truncated at {what}"))
    }

    /// The next line, which must be `tag` and then exactly the words
    /// `parse` takes.
    fn line<T>(&mut self, tag: &str, parse: impl FnOnce(&mut Words<'a>) -> Parsed<T>) -> Parsed<T> {
        let line = self.next(tag)?;
        let mut words = Words(line.strip_prefix(tag).and_then(|r| r.strip_prefix(' ')));
        if words.0.is_none() {
            return Err(format!("expected {tag:?}, got {line:?}"));
        }
        let value = parse(&mut words)?;
        match words.0 {
            None => Ok(value),
            Some(extra) => Err(format!("{tag}: unexpected {extra:?}")),
        }
    }

    /// A `head` line holding a count, then that many `tag` lines.
    fn list<T>(
        &mut self,
        head: &str,
        tag: &str,
        parse: impl Fn(&mut Words<'a>) -> Parsed<T>,
    ) -> Parsed<Vec<T>> {
        let n = self.line(head, Words::num)?;
        self.repeat(n, tag, parse)
    }

    /// `n` lines tagged `tag`. Grows as lines arrive, so a corrupt count
    /// cannot over-allocate.
    fn repeat<T>(
        &mut self,
        n: usize,
        tag: &str,
        parse: impl Fn(&mut Words<'a>) -> Parsed<T>,
    ) -> Parsed<Vec<T>> {
        let mut out = Vec::new();
        for _ in 0..n {
            out.push(self.line(tag, &parse)?);
        }
        Ok(out)
    }
}

impl CheckpointData {
    /// Serializes to the deterministic text format.
    pub fn encode(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "{MAGIC}");
        let _ = writeln!(s, "cfg {:016x}", self.cfg_fingerprint);
        let _ = writeln!(s, "iteration {}", self.iteration);
        let [a, b, c, d] = self.rng_state;
        let _ = writeln!(s, "rng {a:016x} {b:016x} {c:016x} {d:016x}");
        let floats = |s: &mut String, tag: &str, v: &[f64]| {
            let _ = write!(s, "{tag} {}", v.len());
            for x in v {
                let _ = write!(s, " {}", hx(*x));
            }
            s.push('\n');
        };
        floats(&mut s, "model", &self.model_state);
        floats(&mut s, "best", &self.best_model_state);
        let _ = writeln!(s, "best_is_residual {}", self.best_is_residual as u8);
        let _ = writeln!(s, "best_val {}", hx(self.best_val));
        let _ = writeln!(s, "best_lat {}", self.best_lat.len());
        for (qi, lat) in &self.best_lat {
            let _ = writeln!(s, "bl {qi} {}", hx(*lat));
        }
        floats(&mut s, "window", &self.fallback_window);
        let env = &self.env;
        let _ = writeln!(s, "env {} {} {}", env.hits, env.misses, env.entries.len());
        for (qk, fp, lat, work) in &env.entries {
            let _ = writeln!(s, "ce {qk} {fp} {} {}", hx(*lat), hx(*work));
        }
        let _ = writeln!(s, "buffer {}", self.buffer.len());
        for e in &self.buffer {
            let source = match e.source {
                LabelSource::Simulated => "sim",
                LabelSource::Real => "real",
            };
            let (qk, fp, censored) = (e.query_key, e.fingerprint, e.censored as u8);
            let _ = writeln!(
                s,
                "be {qk} {fp} {source} {censored} {} {}",
                hx(e.label_secs),
                e.plan
            );
        }
        let _ = writeln!(s, "trajectory {}", self.trajectory.len());
        for t in &self.trajectory {
            let _ = writeln!(
                s,
                "ts {} {} {} {} {} {} {} {} {} {} {} {} {}",
                t.iteration,
                hx(t.train_median_secs),
                hx(t.test_median_secs),
                t.timeouts,
                t.buffer_real,
                t.buffer_sim,
                hx(t.fit_mse),
                hx(t.val_median_secs),
                hx(t.val_geo_mean_secs),
                t.faults,
                t.retries,
                t.abandoned,
                t.fallback as u8
            );
        }
        let r = &self.resilience;
        let _ = writeln!(
            s,
            "resilience {} {} {} {} {} {} {} {} {} {} {} {} {}",
            r.faults_injected,
            r.transients,
            r.crashes,
            r.spikes,
            r.hangs,
            r.retries,
            r.abandoned,
            r.exhausted_censored,
            r.fallback_iterations,
            hx(r.backoff_secs_charged),
            r.planner_errors,
            r.planner_degraded,
            r.planner_exhausted
        );
        let _ = writeln!(s, "end");
        s
    }

    /// Parses [`CheckpointData::encode`] output.
    pub fn decode(text: &str) -> Result<CheckpointData, String> {
        let mut r = Lines(text.lines());
        if r.next("magic")? != MAGIC {
            return Err("not a balsa checkpoint (bad magic)".into());
        }
        // Fields are evaluated in the order written, which is the file's
        // line order.
        let data = CheckpointData {
            cfg_fingerprint: r.line("cfg", Words::hex)?,
            iteration: r.line("iteration", Words::num)?,
            rng_state: r.line("rng", |w| Ok([w.hex()?, w.hex()?, w.hex()?, w.hex()?]))?,
            model_state: r.line("model", Words::floats)?,
            best_model_state: r.line("best", Words::floats)?,
            best_is_residual: r.line("best_is_residual", Words::flag)?,
            best_val: r.line("best_val", Words::f64)?,
            best_lat: r.list("best_lat", "bl", |w| Ok((w.num()?, w.f64()?)))?,
            fallback_window: r.line("window", Words::floats)?,
            env: {
                let (hits, misses, n) = r.line("env", |w| Ok((w.num()?, w.num()?, w.num()?)))?;
                let entries =
                    r.repeat(n, "ce", |w| Ok((w.num()?, w.num()?, w.f64()?, w.f64()?)))?;
                // The clock is wall-derived and never serialized; resume
                // pins it to the live env's reading.
                let clock_secs = 0.0;
                EnvSnapshot {
                    entries,
                    hits,
                    misses,
                    clock_secs,
                }
            },
            buffer: r.list("buffer", "be", |w| {
                Ok(BufferEntry {
                    query_key: w.num()?,
                    fingerprint: w.num()?,
                    source: match w.word()? {
                        "sim" => LabelSource::Simulated,
                        "real" => LabelSource::Real,
                        other => return Err(format!("bad source {other:?}")),
                    },
                    censored: w.flag()?,
                    label_secs: w.f64()?,
                    plan: w.rest()?.to_string(),
                })
            })?,
            trajectory: r.list("trajectory", "ts", |w| {
                Ok(IterationStats {
                    iteration: w.num()?,
                    // Wall-derived, not serialized (see module docs).
                    sim_hours: f64::NAN,
                    train_median_secs: w.f64()?,
                    test_median_secs: w.f64()?,
                    timeouts: w.num()?,
                    buffer_real: w.num()?,
                    buffer_sim: w.num()?,
                    fit_mse: w.f64()?,
                    val_median_secs: w.f64()?,
                    val_geo_mean_secs: w.f64()?,
                    faults: w.num()?,
                    retries: w.num()?,
                    abandoned: w.num()?,
                    fallback: w.flag()?,
                })
            })?,
            resilience: r.line("resilience", |w| {
                Ok(ResilienceStats {
                    faults_injected: w.num()?,
                    transients: w.num()?,
                    crashes: w.num()?,
                    spikes: w.num()?,
                    hangs: w.num()?,
                    retries: w.num()?,
                    abandoned: w.num()?,
                    exhausted_censored: w.num()?,
                    fallback_iterations: w.num()?,
                    backoff_secs_charged: w.f64()?,
                    planner_errors: w.num()?,
                    planner_degraded: w.num()?,
                    planner_exhausted: w.num()?,
                })
            })?,
        };
        if r.next("end")? != "end" {
            return Err("missing end marker".into());
        }
        Ok(data)
    }

    /// Writes the checkpoint atomically: serialize to `<path>.tmp` in
    /// the same directory, then `rename` over `path`. A crash at any
    /// point leaves either the previous checkpoint or the new one —
    /// never a torn file.
    pub fn save_atomic(&self, path: &Path) -> io::Result<()> {
        let tmp = path.with_extension("tmp");
        fs::write(&tmp, self.encode())?;
        fs::rename(&tmp, path)
    }

    /// Loads and parses a checkpoint file.
    pub fn load(path: &Path) -> Result<CheckpointData, String> {
        let text = fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
        Self::decode(&text)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CheckpointData {
        CheckpointData {
            cfg_fingerprint: 0xDEADBEEF,
            iteration: 2,
            rng_state: [1, u64::MAX, 3, 0x1234_5678_9ABC_DEF0],
            model_state: vec![1.0, -0.25, f64::MIN_POSITIVE],
            best_is_residual: true,
            best_model_state: vec![0.5],
            best_val: 0.123456789,
            best_lat: vec![(0, 0.5), (3, 1.25)],
            fallback_window: vec![0.0, 0.4],
            env: EnvSnapshot {
                entries: vec![(7, 9, 0.25, 100.0), (8, 1, 0.5, 7.0)],
                hits: 4,
                misses: 9,
                clock_secs: 0.0,
            },
            buffer: vec![BufferEntry {
                query_key: 42,
                fingerprint: 77,
                plan: "(h q0 q1)".into(),
                label_secs: 0.75,
                censored: true,
                source: LabelSource::Real,
            }],
            trajectory: vec![IterationStats {
                iteration: 0,
                // Wall-derived; encode skips it, decode yields NaN.
                sim_hours: 0.1,
                train_median_secs: f64::NAN,
                test_median_secs: 0.2,
                timeouts: 1,
                buffer_real: 10,
                buffer_sim: 20,
                fit_mse: 0.05,
                val_median_secs: 0.3,
                val_geo_mean_secs: 0.25,
                faults: 2,
                retries: 1,
                abandoned: 0,
                fallback: false,
            }],
            resilience: ResilienceStats {
                faults_injected: 5,
                transients: 2,
                crashes: 1,
                spikes: 1,
                hangs: 1,
                retries: 3,
                abandoned: 1,
                exhausted_censored: 1,
                fallback_iterations: 1,
                backoff_secs_charged: 0.7,
                planner_errors: 1,
                planner_degraded: 2,
                planner_exhausted: 2,
            },
        }
    }

    #[test]
    fn encode_decode_round_trips_bit_exactly() {
        let data = sample();
        let text = data.encode();
        let back = CheckpointData::decode(&text).unwrap();
        // PartialEq on the struct is false through NaN fields — compare
        // the re-encoding instead, which is the bit-exactness witness
        // that matters (checkpoint files must be byte-stable).
        assert_eq!(back.encode(), text);
        assert_eq!(back.cfg_fingerprint, data.cfg_fingerprint);
        assert_eq!(back.rng_state, data.rng_state);
        assert_eq!(
            back.trajectory[0].train_median_secs.to_bits(),
            data.trajectory[0].train_median_secs.to_bits(),
            "NaN round-trips exactly"
        );
        assert_eq!(back.buffer, data.buffer);
        assert_eq!(back.env, data.env);
    }

    #[test]
    fn atomic_save_replaces_and_leaves_no_temp() {
        let dir = std::env::temp_dir().join(format!("balsa_ckpt_test_{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ckpt.txt");
        let data = sample();
        data.save_atomic(&path).unwrap();
        let mut newer = sample();
        newer.iteration = 3;
        newer.save_atomic(&path).unwrap();
        assert_eq!(CheckpointData::load(&path).unwrap().iteration, 3);
        assert!(
            !path.with_extension("tmp").exists(),
            "temp must be renamed away"
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_checkpoints_are_rejected() {
        assert!(CheckpointData::decode("not a checkpoint").is_err());
        let text = sample().encode();
        // Truncation is detected.
        let cut: String = text.lines().take(5).collect::<Vec<_>>().join("\n");
        assert!(CheckpointData::decode(&cut).is_err());
        // A corrupted float field is detected.
        let bad = text.replace("best_val ", "best_val zz");
        assert!(CheckpointData::decode(&bad).is_err());
        // A count no file could hold is an error, not an allocation.
        for head in ["best_lat 2", "buffer 1", "trajectory 1", "env 4 9 2"] {
            let huge = head.rsplit_once(' ').unwrap().0.to_string() + " 18446744073709551615";
            let bad = text.replace(&format!("\n{head}\n"), &format!("\n{huge}\n"));
            assert_ne!(bad, text, "{head}");
            assert!(CheckpointData::decode(&bad).is_err(), "{head}");
        }
        // Extra words on a line are detected.
        let bad = text.replace("\niteration 2\n", "\niteration 2 7\n");
        assert!(CheckpointData::decode(&bad).is_err());
    }
}
