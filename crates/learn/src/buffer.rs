//! The experience buffer (§4.2, §7).
//!
//! Every executed (or simulated) subplan becomes an [`Experience`]:
//! features, a latency label, a censoring flag, and its provenance.
//! Entries are deduplicated by `(query, plan fingerprint, source)` with
//! **best-label retention**, mirroring the paper's buffer semantics:
//!
//! * two completed observations of the same subplan keep the *minimum*
//!   latency (the paper relabels replayed experience with the best
//!   observed runtime, §4.2);
//! * a completed observation always supersedes a timeout-censored one;
//! * two censored observations keep the *largest* lower bound (the
//!   tighter constraint);
//! * a censored observation never overwrites a completed one.
//!
//! Simulated (`C_out`) and real (engine) labels live in different units,
//! so they are kept as separate populations and extracted separately
//! for the two training phases.
//!
//! Each entry stores its feature vector once, as [`PackedFeatures`]: the
//! slots that are not `+0.0` and their values. Both encodings are mostly
//! zeros (table one-hots, pair channels), so on JOB a flat row packs to
//! ≈ 9 % of its dense size and a tree row to ≈ 31 %. Producers pack as
//! they featurize; [`ExperienceBuffer::train_set`] hands a fit clones of
//! the packed rows, and every fit reads them packed, a row or a chunk at
//! a time, so no dense copy of a training set is ever built.

use crate::model::TrainSet;
use balsa_query::Plan;
use std::collections::HashMap;
use std::sync::Arc;

/// A feature vector stored sparsely: a bitmap of the slots whose bits
/// are not `+0.0`, plus those slots' values in slot order. Agnostic of
/// the encoding, and exact — [`PackedFeatures::unpack`] restores every
/// bit, `-0.0` and NaN payloads included.
#[derive(Debug, Clone)]
pub struct PackedFeatures {
    len: usize,
    /// Bit `i % 64` of word `i / 64` is set when slot `i` is stored.
    mask: Box<[u64]>,
    values: Box<[f64]>,
}

impl PackedFeatures {
    /// Packs a dense vector.
    pub fn pack(x: &[f64]) -> Self {
        let stored = |v: &f64| v.to_bits() != 0;
        let mut mask = vec![0u64; x.len().div_ceil(64)];
        let mut values = Vec::with_capacity(x.iter().filter(|v| stored(v)).count());
        for (i, v) in x.iter().enumerate() {
            if stored(v) {
                mask[i / 64] |= 1u64 << (i % 64);
                values.push(*v);
            }
        }
        Self {
            len: x.len(),
            mask: mask.into_boxed_slice(),
            values: values.into_boxed_slice(),
        }
    }

    /// The dense vector [`PackedFeatures::pack`] was given.
    pub fn unpack(&self) -> Vec<f64> {
        let mut x = vec![0.0; self.len];
        self.unpack_into(&mut x);
        x
    }

    /// Writes the dense vector into `out`, which must be as long: `+0.0`
    /// everywhere, then each stored slot.
    pub(crate) fn unpack_into(&self, out: &mut [f64]) {
        assert_eq!(out.len(), self.len, "unpack length mismatch");
        out.fill(0.0);
        self.for_each_stored(|i, v| out[i] = v);
    }

    /// The dense length.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// The stored values, in slot order.
    pub(crate) fn values(&self) -> &[f64] {
        &self.values
    }

    /// Calls `f(slot, value)` for each stored slot in slot order; every
    /// other slot holds `+0.0`.
    #[inline]
    pub(crate) fn for_each_stored(&self, mut f: impl FnMut(usize, f64)) {
        let mut values = self.values.iter();
        for (w, &word) in self.mask.iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                let v = *values.next().expect("one value per mask bit");
                f(w * 64 + bits.trailing_zeros() as usize, v);
                bits &= bits - 1;
            }
        }
    }
}

/// Where a label came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum LabelSource {
    /// Simulation phase: `C_out`-derived pseudo-latency.
    Simulated,
    /// Real phase: `ExecutionEnv` latency (possibly censored).
    Real,
}

/// One labeled `(query, subplan)` observation.
#[derive(Debug, Clone)]
pub struct Experience {
    /// Key of the query this subplan belongs to
    /// (`balsa_engine::query_key`).
    pub query_key: u64,
    /// Structural hash of the subplan. The training loop supplies
    /// [`balsa_query::Plan::canonical_hash`] (the frozen encoding), not
    /// `Plan::fingerprint`: [`ExperienceBuffer::train_set`] **sorts**
    /// samples by this key, so its values — not just its equality
    /// classes — determine SGD minibatch composition, and they must
    /// stay stable across fingerprint-algorithm changes for recorded
    /// learning curves to reproduce.
    pub fingerprint: u64,
    /// The subplan itself. Features are a pure function of
    /// `(query, plan)`, so checkpoints persist this compact tree (via
    /// [`Plan::encode_compact`]) and recompute `features` at load time
    /// instead of serializing hundreds of floats per entry.
    pub plan: Arc<Plan>,
    /// Feature vector of the `(query, subplan)` state, packed where it
    /// was featurized; [`ExperienceBuffer::train_set`] clones it.
    pub features: PackedFeatures,
    /// Label in seconds (pseudo-seconds for simulated labels). When
    /// `censored`, a lower bound.
    pub label_secs: f64,
    /// Whether the label is a timeout-censored lower bound.
    pub censored: bool,
    /// Provenance of the label.
    pub source: LabelSource,
}

/// Deduplicating store of experiences.
#[derive(Debug, Default)]
pub struct ExperienceBuffer {
    map: HashMap<(u64, u64, LabelSource), Experience>,
}

impl ExperienceBuffer {
    /// Creates an empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records `exp`, merging with any existing entry for the same
    /// `(query, fingerprint, source)` under best-label retention.
    /// Returns `true` when the stored entry changed.
    pub fn record(&mut self, exp: Experience) -> bool {
        let key = (exp.query_key, exp.fingerprint, exp.source);
        match self.map.get_mut(&key) {
            None => {
                self.map.insert(key, exp);
                true
            }
            Some(old) => {
                let replace = match (old.censored, exp.censored) {
                    // Completed runs keep the best observed latency.
                    (false, false) => exp.label_secs < old.label_secs,
                    // A completed run supersedes a lower bound.
                    (true, false) => true,
                    // A lower bound never displaces a completed run.
                    (false, true) => false,
                    // Tighter (larger) lower bounds win.
                    (true, true) => exp.label_secs > old.label_secs,
                };
                if replace {
                    *old = exp;
                }
                replace
            }
        }
    }

    /// Total entries across both sources.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the buffer holds nothing.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Entries from one source.
    pub fn count(&self, source: LabelSource) -> usize {
        self.map.keys().filter(|(_, _, s)| *s == source).count()
    }

    /// Looks up the stored entry for a `(query, fingerprint, source)`.
    pub fn get(
        &self,
        query_key: u64,
        fingerprint: u64,
        source: LabelSource,
    ) -> Option<&Experience> {
        self.map.get(&(query_key, fingerprint, source))
    }

    /// Every entry in deterministic sorted-key order — the checkpoint
    /// serialization walk. The internal hash-map order is never
    /// observable through this (or any other) accessor, so a buffer
    /// rebuilt from this walk is indistinguishable from the original.
    pub fn sorted_entries(&self) -> Vec<&Experience> {
        let mut keys: Vec<&(u64, u64, LabelSource)> = self.map.keys().collect();
        keys.sort_unstable();
        keys.into_iter().map(|k| &self.map[k]).collect()
    }

    /// Extracts one source's population as a [`TrainSet`] with labels in
    /// log space (`ln(max(label, floor))`) and features still packed.
    /// Iteration order is sorted by key so training is deterministic.
    pub fn train_set(&self, source: LabelSource) -> TrainSet {
        let mut keys: Vec<&(u64, u64, LabelSource)> =
            self.map.keys().filter(|(_, _, s)| *s == source).collect();
        keys.sort_unstable();
        let mut set = TrainSet::default();
        for k in keys {
            let e = &self.map[k];
            set.xs.push(e.features.clone());
            set.ys.push(e.label_secs.max(1e-9).ln());
            set.censored.push(e.censored);
        }
        set
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exp(fp: u64, label: f64, censored: bool, source: LabelSource) -> Experience {
        Experience {
            query_key: 42,
            fingerprint: fp,
            plan: Plan::scan(0, balsa_query::ScanOp::Seq),
            features: PackedFeatures::pack(&[label]),
            label_secs: label,
            censored,
            source,
        }
    }

    #[test]
    fn dedup_keeps_best_observed_latency() {
        let mut b = ExperienceBuffer::new();
        assert!(b.record(exp(1, 3.0, false, LabelSource::Real)));
        // A slower completed rerun does not displace the best.
        assert!(!b.record(exp(1, 5.0, false, LabelSource::Real)));
        assert_eq!(b.get(42, 1, LabelSource::Real).unwrap().label_secs, 3.0);
        // A faster rerun does.
        assert!(b.record(exp(1, 2.0, false, LabelSource::Real)));
        assert_eq!(b.get(42, 1, LabelSource::Real).unwrap().label_secs, 2.0);
        assert_eq!(b.len(), 1);
    }

    #[test]
    fn censored_labels_are_lower_bounds() {
        let mut b = ExperienceBuffer::new();
        // Two censored observations: the tighter (larger) bound wins.
        assert!(b.record(exp(7, 1.0, true, LabelSource::Real)));
        assert!(b.record(exp(7, 4.0, true, LabelSource::Real)));
        assert!(!b.record(exp(7, 2.0, true, LabelSource::Real)));
        let stored = b.get(42, 7, LabelSource::Real).unwrap();
        assert!(stored.censored);
        assert_eq!(stored.label_secs, 4.0);
        // A completed run supersedes any bound...
        assert!(b.record(exp(7, 6.0, false, LabelSource::Real)));
        let stored = b.get(42, 7, LabelSource::Real).unwrap();
        assert!(!stored.censored);
        assert_eq!(stored.label_secs, 6.0);
        // ...and is never displaced by a later bound.
        assert!(!b.record(exp(7, 9.0, true, LabelSource::Real)));
        assert!(!b.get(42, 7, LabelSource::Real).unwrap().censored);
    }

    #[test]
    fn sources_are_separate_populations() {
        let mut b = ExperienceBuffer::new();
        b.record(exp(1, 10.0, false, LabelSource::Simulated));
        b.record(exp(1, 0.5, false, LabelSource::Real));
        assert_eq!(b.len(), 2);
        assert_eq!(b.count(LabelSource::Simulated), 1);
        assert_eq!(b.count(LabelSource::Real), 1);
        let sim = b.train_set(LabelSource::Simulated);
        let real = b.train_set(LabelSource::Real);
        assert_eq!(sim.len(), 1);
        assert_eq!(real.len(), 1);
        assert!((sim.ys[0] - 10.0f64.ln()).abs() < 1e-12);
        assert!((real.ys[0] - 0.5f64.ln()).abs() < 1e-12);
    }

    /// Property test: against randomized record sequences, the buffer
    /// always stores exactly what the reference semantics dictate — the
    /// minimum completed latency when any completed observation exists,
    /// otherwise the maximum (tightest) censored lower bound — and every
    /// merge step preserves the monotonicity invariants (completed
    /// labels never increase, censored bounds never decrease, censored
    /// never displaces completed).
    #[test]
    fn randomized_merges_match_reference_semantics() {
        use rand::rngs::SmallRng;
        use rand::{RngExt, SeedableRng};
        use std::collections::HashMap;

        for seed in 0..25u64 {
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut buffer = ExperienceBuffer::new();
            // Reference: per key, all completed and censored labels seen.
            type Key = (u64, u64, LabelSource);
            let mut seen: HashMap<Key, (Vec<f64>, Vec<f64>)> = HashMap::new();
            for _ in 0..300 {
                let qk = rng.random_range(0..2u64);
                let fp = rng.random_range(0..5u64);
                let source = if rng.random_bool(0.3) {
                    LabelSource::Simulated
                } else {
                    LabelSource::Real
                };
                let censored = rng.random_bool(0.4);
                let label = (rng.random_range(1..100u32) as f64) / 10.0;
                let before = buffer
                    .get(qk, fp, source)
                    .map(|e| (e.censored, e.label_secs));
                buffer.record(Experience {
                    query_key: qk,
                    fingerprint: fp,
                    plan: Plan::scan(0, balsa_query::ScanOp::Seq),
                    features: PackedFeatures::pack(&[label]),
                    label_secs: label,
                    censored,
                    source,
                });
                let (completed, bounds) = seen.entry((qk, fp, source)).or_default();
                if censored {
                    bounds.push(label);
                } else {
                    completed.push(label);
                }
                let after = buffer.get(qk, fp, source).expect("just recorded");
                // Monotonicity of the merge step.
                if let Some((was_censored, was_label)) = before {
                    match (was_censored, after.censored) {
                        (false, true) => panic!("censored displaced completed (seed {seed})"),
                        (false, false) => assert!(after.label_secs <= was_label),
                        (true, true) => assert!(after.label_secs >= was_label),
                        (true, false) => {} // completion always wins
                    }
                }
                // Reference semantics after every step.
                if completed.is_empty() {
                    assert!(after.censored);
                    assert_eq!(
                        after.label_secs,
                        bounds.iter().cloned().fold(f64::MIN, f64::max),
                        "tightest bound retained (seed {seed})"
                    );
                } else {
                    assert!(!after.censored, "completed must win (seed {seed})");
                    assert_eq!(
                        after.label_secs,
                        completed.iter().cloned().fold(f64::MAX, f64::min),
                        "best completed latency retained (seed {seed})"
                    );
                }
            }
            assert_eq!(buffer.len(), seen.len());
        }
    }

    #[test]
    fn train_set_is_deterministic() {
        let mut b = ExperienceBuffer::new();
        for fp in [5u64, 3, 9, 1] {
            b.record(exp(fp, fp as f64, false, LabelSource::Real));
        }
        let a = b.train_set(LabelSource::Real);
        let c = b.train_set(LabelSource::Real);
        assert_eq!(a.ys, c.ys);
        let mut sorted = a.ys.clone();
        sorted.sort_by(|x, y| x.partial_cmp(y).unwrap());
        assert_eq!(a.ys, sorted, "sorted by fingerprint == sorted labels here");
    }

    fn bits(x: &[f64]) -> Vec<u64> {
        x.iter().map(|v| v.to_bits()).collect()
    }

    /// Packing restores every bit: signed zeros, NaN payloads,
    /// infinities and subnormals, in all-zero, all-stored and mixed
    /// vectors at lengths around the 64-slot word boundary.
    #[test]
    fn packed_features_round_trip_every_bit() {
        let specials = [
            -0.0,
            f64::from_bits(0x7ff8_0000_dead_beef),
            f64::from_bits(0xfff0_0000_0000_0001),
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MIN_POSITIVE / 3.0,
            -f64::from_bits(1),
            1.0,
        ];
        for len in [0usize, 1, 63, 64, 65, 500] {
            let zeros = vec![0.0; len];
            let full: Vec<f64> = (0..len).map(|i| specials[i % specials.len()]).collect();
            let mixed: Vec<f64> = (0..len)
                .map(|i| if i % 3 == 0 { 0.0 } else { full[i] })
                .collect();
            for x in [zeros, full, mixed] {
                let packed = PackedFeatures::pack(&x);
                let stored = x.iter().filter(|v| v.to_bits() != 0).count();
                assert_eq!(packed.values.len(), stored, "len {len}");
                assert_eq!(bits(&packed.unpack()), bits(&x), "len {len}");
            }
        }
    }

    /// On the subplans of random JOB plans, packed rows take at most
    /// 15 % of the dense heap bytes for the flat encoding and 45 % for
    /// the tree encoding, and unpack bit for bit.
    #[test]
    fn packed_job_rows_are_a_fraction_of_dense() {
        use crate::featurize::Featurizer;
        use crate::model::FeatureEncoding;
        use balsa_card::HistogramEstimator;
        use balsa_cost::OpWeights;
        use balsa_query::workloads::job_workload;
        use balsa_search::{try_random_plan, SearchMode};
        use balsa_storage::{mini_imdb, DataGenConfig};
        use rand::rngs::SmallRng;
        use rand::SeedableRng;

        let db = Arc::new(mini_imdb(DataGenConfig {
            scale: 0.02,
            ..Default::default()
        }));
        let w = job_workload(db.catalog(), 7);
        let f = Featurizer::new(db.clone(), OpWeights::postgres_like(), true);
        let est = HistogramEstimator::new(&db);
        let mut rng = SmallRng::seed_from_u64(5);
        for (enc, bound) in [(FeatureEncoding::Flat, 0.15), (FeatureEncoding::Tree, 0.45)] {
            let (mut dense, mut packed) = (0usize, 0usize);
            for q in w.queries.iter().step_by(4) {
                let plan =
                    try_random_plan(&db, q, SearchMode::Bushy, &mut rng).expect("connected query");
                for sub in plan.subplans() {
                    let x = f.featurize_enc(enc, q, &sub, &est);
                    let p = PackedFeatures::pack(&x);
                    assert_eq!(bits(&p.unpack()), bits(&x));
                    dense += 8 * x.len();
                    packed += 8 * (p.mask.len() + p.values.len());
                }
            }
            let ratio = packed as f64 / dense as f64;
            assert!(ratio <= bound, "{enc:?}: packed/dense {ratio:.3} > {bound}");
        }
    }
}
