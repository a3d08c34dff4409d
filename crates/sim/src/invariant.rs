//! Invariant violations and the per-tick check battery.

use flick_net::stats::StatsSnapshot;
use flick_runtime::metrics::MetricsSnapshot;

/// One invariant failure, tagged with the scenario seed and the tick it
/// surfaced on so the exact run can be replayed bit-identically.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// The scenario seed that produced the failure.
    pub seed: u64,
    /// The tick on which the check fired (`u64::MAX` for teardown checks).
    pub tick: u64,
    /// What went wrong.
    pub what: String,
}

impl Violation {
    /// Tags a failure with its replay coordinates.
    pub fn new(seed: u64, tick: u64, what: impl Into<String>) -> Self {
        Violation {
            seed,
            tick,
            what: what.into(),
        }
    }
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.tick == u64::MAX {
            write!(
                f,
                "[seed {:#018x}] teardown: {} (replay with this seed)",
                self.seed, self.what
            )
        } else {
            write!(
                f,
                "[seed {:#018x}] tick {}: {} (replay with this seed)",
                self.seed, self.tick, self.what
            )
        }
    }
}

/// Which optional gates the tick battery applies on top of the always-on
/// conservation laws.
#[derive(Debug, Clone, Copy)]
pub struct TickChecks {
    /// Require `ingest_copies == 0` (the zero-copy data-plane gate).
    pub expect_zero_copy: bool,
    /// Require `output_busy_retries == 0` (wakeup-driven output mode).
    pub expect_no_busy_retries: bool,
    /// Gate the no-retry-storm law: backend retries must stay within
    /// `checkouts × budget`. `None` here means "use the scenario's own
    /// backend policy budget" — the scenario driver resolves it before
    /// the first tick, so the gate is always on under `run_scenario`;
    /// only direct `check_tick` callers can opt out by leaving `None`.
    pub retry_budget: Option<u64>,
}

impl Default for TickChecks {
    fn default() -> Self {
        TickChecks {
            expect_zero_copy: false,
            expect_no_busy_retries: true,
            retry_budget: None,
        }
    }
}

/// Runs the per-tick invariant battery over a pair of snapshots and
/// returns every violation, tagged with `seed`/`tick`.
pub fn check_tick(
    seed: u64,
    tick: u64,
    net: &StatsSnapshot,
    runtime: &MetricsSnapshot,
    checks: TickChecks,
) -> Vec<Violation> {
    let mut violations = Vec::new();
    if let Err(what) = net.check_conservation() {
        violations.push(Violation::new(seed, tick, what));
    }
    if checks.expect_zero_copy {
        if let Err(what) = net.check_zero_copy() {
            violations.push(Violation::new(seed, tick, what));
        }
    }
    if let Err(what) = runtime.check_conservation() {
        violations.push(Violation::new(seed, tick, what));
    }
    if checks.expect_no_busy_retries && runtime.output_busy_retries != 0 {
        violations.push(Violation::new(
            seed,
            tick,
            format!(
                "output tasks busy-retried {} times under wakeup mode",
                runtime.output_busy_retries
            ),
        ));
    }
    if let Some(budget) = checks.retry_budget {
        if let Err(what) = runtime.check_retry_budget(budget) {
            violations.push(Violation::new(seed, tick, what));
        }
    }
    violations
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_clean_pair_of_snapshots_passes() {
        let net = StatsSnapshot {
            connections_opened: 4,
            connections_closed: 8,
            bytes_sent: 1000,
            bytes_received: 900,
            ..Default::default()
        };
        let runtime = MetricsSnapshot {
            task_runs: 50,
            graphs_created: 4,
            graphs_destroyed: 4,
            ..Default::default()
        };
        assert!(check_tick(1, 2, &net, &runtime, TickChecks::default()).is_empty());
    }

    #[test]
    fn violations_carry_seed_and_tick() {
        let net = StatsSnapshot {
            bytes_sent: 10,
            bytes_received: 20,
            ..Default::default()
        };
        let runtime = MetricsSnapshot::default();
        let violations = check_tick(0xabc, 7, &net, &runtime, TickChecks::default());
        assert_eq!(violations.len(), 1);
        assert_eq!(violations[0].seed, 0xabc);
        assert_eq!(violations[0].tick, 7);
        let rendered = violations[0].to_string();
        assert!(rendered.contains("tick 7"), "{rendered}");
        assert!(rendered.contains("replay"), "{rendered}");
    }

    /// The writev-path conservation laws (added with the vectored output
    /// path) flow into the tick battery through `check_conservation`: a
    /// healthy vectored shape passes, and a snapshot claiming more
    /// vectored writes than write calls — impossible if every `writev` is
    /// recorded as a write call — fires on every tick.
    #[test]
    fn writev_conservation_flows_into_the_tick_battery() {
        let runtime = MetricsSnapshot::default();
        let healthy = StatsSnapshot {
            bytes_sent: 4096,
            bytes_received: 4096,
            write_calls: 10,
            vectored_writes: 4,
            vectored_segments: 8,
            ..Default::default()
        };
        assert!(check_tick(3, 1, &healthy, &runtime, TickChecks::default()).is_empty());

        let impossible = StatsSnapshot {
            write_calls: 2,
            vectored_writes: 3,
            vectored_segments: 6,
            ..Default::default()
        };
        let violations = check_tick(3, 2, &impossible, &runtime, TickChecks::default());
        assert_eq!(violations.len(), 1);
        assert!(violations[0].what.contains("writev"), "{}", violations[0]);

        let segmentless = StatsSnapshot {
            write_calls: 5,
            vectored_writes: 3,
            vectored_segments: 2,
            ..Default::default()
        };
        let violations = check_tick(3, 3, &segmentless, &runtime, TickChecks::default());
        assert_eq!(violations.len(), 1);
        assert!(violations[0].what.contains("segment"), "{}", violations[0]);
    }

    #[test]
    fn optional_gates_fire_only_when_enabled() {
        let net = StatsSnapshot {
            ingest_copies: 1,
            ingest_copied_bytes: 64,
            ..Default::default()
        };
        let runtime = MetricsSnapshot {
            task_runs: 10,
            output_busy_retries: 3,
            ..Default::default()
        };
        let lax = TickChecks {
            expect_zero_copy: false,
            expect_no_busy_retries: false,
            retry_budget: None,
        };
        assert!(check_tick(1, 0, &net, &runtime, lax).is_empty());
        let strict = TickChecks {
            expect_zero_copy: true,
            expect_no_busy_retries: true,
            retry_budget: None,
        };
        assert_eq!(check_tick(1, 0, &net, &runtime, strict).len(), 2);
    }

    /// The no-retry-storm law flows into the tick battery when a budget is
    /// set: retries within `checkouts × budget` pass, a storm fires.
    #[test]
    fn retry_budget_gate_flows_into_the_tick_battery() {
        let net = StatsSnapshot::default();
        let runtime = MetricsSnapshot {
            task_runs: 10,
            backend_checkouts: 4,
            backend_retries: 8,
            ..Default::default()
        };
        let gated = TickChecks {
            retry_budget: Some(2),
            ..TickChecks::default()
        };
        assert!(check_tick(9, 1, &net, &runtime, gated).is_empty());
        let tight = TickChecks {
            retry_budget: Some(1),
            ..TickChecks::default()
        };
        let violations = check_tick(9, 2, &net, &runtime, tight);
        assert_eq!(violations.len(), 1);
        assert!(
            violations[0].what.contains("retry budget"),
            "{}",
            violations[0]
        );
    }

    /// The channel-park law rides in `check_conservation`, so every tick
    /// checks it without a gate of its own.
    #[test]
    fn channel_park_law_flows_into_the_tick_battery() {
        let net = StatsSnapshot::default();
        let parked = MetricsSnapshot {
            channel_parks: 3,
            channel_park_wakes: 3,
            ..Default::default()
        };
        assert!(check_tick(5, 1, &net, &parked, TickChecks::default()).is_empty());
        let impossible = MetricsSnapshot {
            channel_parks: 1,
            channel_park_wakes: 2,
            ..Default::default()
        };
        let violations = check_tick(5, 2, &net, &impossible, TickChecks::default());
        assert_eq!(violations.len(), 1);
        assert!(
            violations[0].what.contains("channel park"),
            "{}",
            violations[0]
        );
    }
}
