//! Simulated wall-clock accounting.
//!
//! The paper's learning-curve figures (Figs 7, 8, 10–13, 15) plot
//! normalized workload runtime against elapsed hours. Our training loop
//! runs in simulated time: every plan "execution" charges its simulated
//! latency, divided by a parallelism factor modelling the pool of
//! execution VMs (§8.1 reports an average of 2.5 nodes per run; Fig 8
//! uses 1), and every model update charges a per-SGD-step cost modelling
//! the paper's GPU. Planning time is charged at its *measured* value —
//! our planner really runs.

/// Accounts simulated elapsed seconds for one training run.
#[derive(Debug, Clone)]
pub struct SimClock {
    seconds: f64,
    parallelism: f64,
    sgd_step_secs: f64,
}

impl SimClock {
    /// Creates a clock. `parallelism` ≥ 1 models the execution-node pool;
    /// `sgd_step_secs` is the modelled cost of one SGD step.
    pub fn new(parallelism: f64, sgd_step_secs: f64) -> Self {
        assert!(parallelism >= 1.0);
        Self {
            seconds: 0.0,
            parallelism,
            sgd_step_secs,
        }
    }

    /// Default configuration matching §8.1 (avg 2.5 execution nodes).
    pub fn paper_default() -> Self {
        Self::new(2.5, 0.004)
    }

    /// Elapsed simulated seconds.
    pub fn seconds(&self) -> f64 {
        self.seconds
    }

    /// Elapsed simulated hours.
    pub fn hours(&self) -> f64 {
        self.seconds / 3600.0
    }

    /// Charges one iteration's plan executions. With `parallelism` p, n
    /// plans of total latency L and maximum latency M take
    /// `max(L / p, M)` — no schedule can beat either bound.
    pub fn charge_executions(&mut self, latencies: &[f64]) {
        if latencies.is_empty() {
            return;
        }
        let total: f64 = latencies.iter().sum();
        let max = latencies.iter().cloned().fold(0.0, f64::max);
        self.seconds += (total / self.parallelism).max(max);
    }

    /// Charges planning time (measured, already in seconds).
    pub fn charge_planning(&mut self, secs: f64) {
        self.seconds += secs.max(0.0);
    }

    /// Charges one batch of per-query planning times executed on
    /// `workers` parallel planner threads: with total time L and maximum
    /// single-query time M the wall-clock charged is `max(L / w, M)` —
    /// the same two scheduling bounds as [`SimClock::charge_executions`].
    /// `workers = 1` charges the serial sum.
    pub fn charge_planning_parallel(&mut self, secs: &[f64], workers: usize) {
        if secs.is_empty() {
            return;
        }
        let w = workers.max(1) as f64;
        let total: f64 = secs.iter().map(|s| s.max(0.0)).sum();
        let max = secs.iter().cloned().fold(0.0, f64::max);
        self.seconds += (total / w).max(max);
    }

    /// Charges `steps` SGD steps of model updating.
    pub fn charge_update(&mut self, steps: u64) {
        self.seconds += steps as f64 * self.sgd_step_secs;
    }

    /// Charges an arbitrary duration (e.g. simulation data collection).
    pub fn charge_raw(&mut self, secs: f64) {
        self.seconds += secs.max(0.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn execution_charging_respects_bounds() {
        let mut c = SimClock::new(2.0, 0.001);
        c.charge_executions(&[1.0, 1.0, 4.0]);
        // total/p = 3.0, max = 4.0 -> 4.0
        assert!((c.seconds() - 4.0).abs() < 1e-9);
        let mut c2 = SimClock::new(2.0, 0.001);
        c2.charge_executions(&[1.0, 1.0, 1.0, 1.0]);
        // total/p = 2.0 > max 1.0
        assert!((c2.seconds() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn non_parallel_charges_sum() {
        // One execution node (Fig 8): total/1 >= max, the serial sum.
        let mut c = SimClock::new(1.0, 0.004);
        c.charge_executions(&[1.0, 2.0, 3.0]);
        assert!((c.seconds() - 6.0).abs() < 1e-9);
    }

    #[test]
    fn parallel_planning_charges_makespan_bounds() {
        let mut c = SimClock::new(1.0, 0.001);
        c.charge_planning_parallel(&[1.0, 1.0, 4.0], 2);
        // total/w = 3.0 < max 4.0 -> 4.0
        assert!((c.seconds() - 4.0).abs() < 1e-9);
        let mut c2 = SimClock::new(1.0, 0.001);
        c2.charge_planning_parallel(&[1.0; 8], 4);
        // total/w = 2.0 > max 1.0
        assert!((c2.seconds() - 2.0).abs() < 1e-9);
        // workers = 1 is the serial sum; empty batches charge nothing.
        let mut c3 = SimClock::new(1.0, 0.001);
        c3.charge_planning_parallel(&[0.5, 0.25], 1);
        assert!((c3.seconds() - 0.75).abs() < 1e-9);
        c3.charge_planning_parallel(&[], 8);
        assert!((c3.seconds() - 0.75).abs() < 1e-9);
    }

    #[test]
    fn updates_and_planning_accumulate() {
        let mut c = SimClock::new(1.0, 0.01);
        c.charge_update(100);
        c.charge_planning(0.5);
        c.charge_raw(0.5);
        assert!((c.seconds() - 2.0).abs() < 1e-9);
        assert!((c.hours() - 2.0 / 3600.0).abs() < 1e-12);
    }
}
