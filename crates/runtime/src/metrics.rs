//! Runtime-wide metrics.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Counters describing what the runtime has done.
///
/// Updated with relaxed atomics on the hot path; read by the benchmark
/// harness and by tests.
#[derive(Debug, Default)]
pub struct RuntimeMetrics {
    /// Task executions (one per scheduler dispatch of a task).
    pub task_runs: AtomicU64,
    /// Times a task voluntarily yielded because its timeslice expired.
    pub cooperative_yields: AtomicU64,
    /// Values processed by compute tasks.
    pub values_processed: AtomicU64,
    /// Application messages deserialised by input tasks.
    pub messages_in: AtomicU64,
    /// Application messages serialised by output tasks.
    pub messages_out: AtomicU64,
    /// Task graphs instantiated.
    pub graphs_created: AtomicU64,
    /// Task graphs torn down.
    pub graphs_destroyed: AtomicU64,
    /// Tasks stolen from another worker's queue ("scavenged").
    pub tasks_scavenged: AtomicU64,
    /// Tasks stolen *across shard boundaries*: an idle shard's worker
    /// executed a runnable task belonging to a sibling shard's scheduler.
    pub tasks_stolen: AtomicU64,
    /// Output-task dispatches that ended in a busy retry: the write
    /// blocked and the task asked to be re-run immediately instead of
    /// parking on writable readiness. Only a rate-limiter stall does that
    /// (no peer transition will announce its end), so a stalled peer
    /// leaves it at zero — the stress tests assert it.
    pub output_busy_retries: AtomicU64,
    /// Health-aware backend checkouts (`BackendPool::checkout_healthy`
    /// calls), each allowed at most the policy's retry budget of extra
    /// attempts.
    pub backend_checkouts: AtomicU64,
    /// Extra connection attempts spent by those checkouts after their
    /// first pick failed. Bounded by `backend_checkouts × retry_budget` —
    /// the no-retry-storm law the sim battery gates.
    pub backend_retries: AtomicU64,
    /// Healthy→ejected transitions: a backend crossed its consecutive-
    /// failure threshold and was taken out of rotation.
    pub backend_ejections: AtomicU64,
    /// Ejected→healthy transitions: a readmit probe against an ejected
    /// backend succeeded and put it back in rotation.
    pub backend_readmits: AtomicU64,
    /// Producers parked on a full task channel (one per registration; a
    /// task already parked on the channel is not counted again).
    pub channel_parks: AtomicU64,
    /// Parked producers woken again: by a consumer that drained the
    /// channel to half capacity, or by one that exited. Bounded by
    /// `channel_parks` — each registration is woken at most once.
    pub channel_park_wakes: AtomicU64,
}

impl RuntimeMetrics {
    /// Creates a fresh shareable metrics block.
    pub fn new_shared() -> Arc<Self> {
        Arc::new(RuntimeMetrics::default())
    }

    /// Adds `n` to a counter.
    pub fn add(counter: &AtomicU64, n: u64) {
        counter.fetch_add(n, Ordering::Relaxed);
    }

    /// Reads a counter.
    pub fn get(counter: &AtomicU64) -> u64 {
        counter.load(Ordering::Relaxed)
    }

    /// A point-in-time copy of all counters.
    ///
    /// `backend_retries` is loaded *before* `backend_checkouts`: a
    /// checkout records itself before spending any retry, so this order
    /// can only inflate the checkout side of a concurrent snapshot and
    /// keeps [`MetricsSnapshot::check_retry_budget`] free of false
    /// positives mid-flight (same trick as the substrate counters).
    /// `channel_park_wakes` is loaded before `channel_parks` for the same
    /// reason: a park is counted under the channel lock before the pop that
    /// wakes it, and the wake is counted with Release ordering.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let backend_retries = self.backend_retries.load(Ordering::Acquire);
        let backend_readmits = self.backend_readmits.load(Ordering::Acquire);
        let channel_park_wakes = self.channel_park_wakes.load(Ordering::Acquire);
        MetricsSnapshot {
            backend_retries,
            backend_readmits,
            channel_park_wakes,
            channel_parks: Self::get(&self.channel_parks),
            backend_checkouts: Self::get(&self.backend_checkouts),
            backend_ejections: Self::get(&self.backend_ejections),
            task_runs: Self::get(&self.task_runs),
            cooperative_yields: Self::get(&self.cooperative_yields),
            values_processed: Self::get(&self.values_processed),
            messages_in: Self::get(&self.messages_in),
            messages_out: Self::get(&self.messages_out),
            graphs_created: Self::get(&self.graphs_created),
            graphs_destroyed: Self::get(&self.graphs_destroyed),
            tasks_scavenged: Self::get(&self.tasks_scavenged),
            tasks_stolen: Self::get(&self.tasks_stolen),
            output_busy_retries: Self::get(&self.output_busy_retries),
        }
    }
}

/// Plain-value snapshot of [`RuntimeMetrics`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Task executions.
    pub task_runs: u64,
    /// Cooperative yields.
    pub cooperative_yields: u64,
    /// Values processed by compute tasks.
    pub values_processed: u64,
    /// Messages deserialised.
    pub messages_in: u64,
    /// Messages serialised.
    pub messages_out: u64,
    /// Graphs created.
    pub graphs_created: u64,
    /// Graphs destroyed.
    pub graphs_destroyed: u64,
    /// Tasks scavenged from other workers.
    pub tasks_scavenged: u64,
    /// Tasks stolen across shard boundaries.
    pub tasks_stolen: u64,
    /// Output-task busy retries (blocked write + immediate re-run).
    pub output_busy_retries: u64,
    /// Health-aware backend checkouts.
    pub backend_checkouts: u64,
    /// Extra attempts spent after a failed first pick.
    pub backend_retries: u64,
    /// Backends ejected after repeated failures.
    pub backend_ejections: u64,
    /// Ejected backends readmitted by a successful probe.
    pub backend_readmits: u64,
    /// Producers parked on a full task channel.
    pub channel_parks: u64,
    /// Parked producers woken again.
    pub channel_park_wakes: u64,
}

impl MetricsSnapshot {
    /// Graphs currently alive according to this snapshot.
    pub fn live_graphs(&self) -> u64 {
        self.graphs_created.saturating_sub(self.graphs_destroyed)
    }

    /// Checks the runtime's conservation laws — the counterpart of
    /// `StatsSnapshot::check_conservation` on the substrate side, shared
    /// by the simulation harness's tick checks and the end-to-end suite:
    ///
    /// * a graph must be created before it can be destroyed;
    /// * a cooperative yield happens *inside* a task run (the run is
    ///   counted when dispatch starts), so yields can never outnumber
    ///   runs;
    /// * a backend is ejected before it can be readmitted;
    /// * a producer parks on a full channel before it can be woken from
    ///   it, and each park is woken at most once.
    ///
    /// Only inequalities that hold at every instant under concurrent
    /// updates are checked here; point-in-time balance checks (say,
    /// messages in vs. out) belong to quiescent assertions, not tick
    /// checks.
    pub fn check_conservation(&self) -> Result<(), String> {
        if self.graphs_destroyed > self.graphs_created {
            return Err(format!(
                "graph conservation violated: {} destroyed > {} created",
                self.graphs_destroyed, self.graphs_created
            ));
        }
        if self.cooperative_yields > self.task_runs {
            return Err(format!(
                "yield conservation violated: {} yields > {} task runs",
                self.cooperative_yields, self.task_runs
            ));
        }
        if self.backend_readmits > self.backend_ejections {
            return Err(format!(
                "backend health conservation violated: {} readmits > {} ejections \
                 (a backend must be ejected before it can be readmitted)",
                self.backend_readmits, self.backend_ejections
            ));
        }
        if self.channel_park_wakes > self.channel_parks {
            return Err(format!(
                "channel park conservation violated: {} wakes > {} parks \
                 (a producer must park on a full channel before it is woken)",
                self.channel_park_wakes, self.channel_parks
            ));
        }
        Ok(())
    }

    /// The no-retry-storm law: every health-aware checkout may spend at
    /// most `budget` extra attempts, so the retry counter is bounded by
    /// the checkout counter. Gated per tick by the sim battery.
    pub fn check_retry_budget(&self, budget: u64) -> Result<(), String> {
        let allowed = self.backend_checkouts.saturating_mul(budget);
        if self.backend_retries > allowed {
            return Err(format!(
                "retry budget exceeded: {} retries > {} checkouts × budget {}",
                self.backend_retries, self.backend_checkouts, budget
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_snapshot() {
        let m = RuntimeMetrics::default();
        RuntimeMetrics::add(&m.task_runs, 3);
        RuntimeMetrics::add(&m.messages_in, 10);
        let snap = m.snapshot();
        assert_eq!(snap.task_runs, 3);
        assert_eq!(snap.messages_in, 10);
        assert_eq!(snap.messages_out, 0);
    }

    #[test]
    fn conservation_accepts_a_real_shape_and_counts_live_graphs() {
        let snap = MetricsSnapshot {
            task_runs: 100,
            cooperative_yields: 12,
            graphs_created: 5,
            graphs_destroyed: 3,
            ..Default::default()
        };
        snap.check_conservation().unwrap();
        assert_eq!(snap.live_graphs(), 2);
    }

    #[test]
    fn conservation_rejects_destroying_uncreated_graphs() {
        let snap = MetricsSnapshot {
            graphs_created: 1,
            graphs_destroyed: 2,
            ..Default::default()
        };
        let err = snap.check_conservation().unwrap_err();
        assert!(err.contains("graph conservation"), "{err}");
    }

    #[test]
    fn conservation_rejects_excess_yields() {
        let snap = MetricsSnapshot {
            task_runs: 1,
            cooperative_yields: 2,
            ..Default::default()
        };
        let err = snap.check_conservation().unwrap_err();
        assert!(err.contains("yield conservation"), "{err}");
    }

    #[test]
    fn conservation_rejects_readmits_without_ejections() {
        let snap = MetricsSnapshot {
            backend_ejections: 1,
            backend_readmits: 2,
            ..Default::default()
        };
        let err = snap.check_conservation().unwrap_err();
        assert!(err.contains("backend health conservation"), "{err}");
    }

    #[test]
    fn conservation_rejects_park_wakes_without_parks() {
        let snap = MetricsSnapshot {
            channel_parks: 1,
            channel_park_wakes: 2,
            ..Default::default()
        };
        let err = snap.check_conservation().unwrap_err();
        assert!(err.contains("channel park conservation"), "{err}");
    }

    #[test]
    fn retry_budget_gate() {
        let snap = MetricsSnapshot {
            backend_checkouts: 10,
            backend_retries: 20,
            ..Default::default()
        };
        snap.check_retry_budget(2).unwrap();
        let err = snap.check_retry_budget(1).unwrap_err();
        assert!(err.contains("retry budget exceeded"), "{err}");
    }
}
