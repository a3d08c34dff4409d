//! Regenerates Figure 5: Memcached proxy throughput and latency versus the
//! number of CPU cores, comparing FLICK (kernel and mTCP) against the
//! Moxi-like baseline.
//!
//! Paper shape: FLICK kernel peaks around 126 krps at 8 cores, FLICK mTCP
//! around 198 krps at 16 cores, Moxi peaks around 82 krps at 4 cores and
//! stops scaling (shared-state contention).
//!
//! Flags:
//!
//! * `--shards=N` — shard count for the FLICK systems (default 1, the
//!   pre-sharding single-reactor runtime). With `N > 1` the platform runs
//!   one scheduler pool + dispatcher + poller per shard, places graphs
//!   round-robin and steals across shards.
//! * `--no-ablation` — skip the idle-connection table and the
//!   sharding-on/off ablation table printed after the main figure.
//!
//! The idle-connection table measures the active clients' req/s while
//! most connections sit idle: the event dispatcher pays nothing for the
//! idle ones.
//!
//! The sharding ablation reports **per-shard** utilization (each shard's
//! share of task executions) rather than a single aggregate, so placement
//! imbalance — and the steal traffic correcting it — is visible directly
//! in the table.

use flick_bench::{
    print_table, run_idle_connections_series, run_memcached_experiment, run_sharding_ablation,
    MemcachedExperiment, MemcachedSystem, Row,
};
use std::time::Duration;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let shards: usize = args
        .iter()
        .find_map(|a| a.strip_prefix("--shards="))
        .map(|value| value.parse().expect("--shards takes a positive integer"))
        .unwrap_or(1);
    let cores = [1usize, 2, 4, 8];
    let mut rows = Vec::new();
    for &c in &cores {
        for system in MemcachedSystem::all() {
            let params = MemcachedExperiment {
                cores: c,
                shards,
                clients: 48,
                backends: 4,
                duration: Duration::from_millis(700),
            };
            let stats = run_memcached_experiment(system, &params);
            rows.push(Row::new(
                c,
                system.label(),
                stats.requests_per_sec(),
                "req/s",
            ));
            rows.push(Row::new(
                c,
                format!("{} latency", system.label()),
                stats.latency.mean.as_secs_f64() * 1000.0,
                "ms",
            ));
        }
    }
    print_table(
        &format!(
            "Memcached proxy vs CPU cores — Figure 5a/5b ({} shard{})",
            shards,
            if shards == 1 { "" } else { "s" }
        ),
        &rows,
    );

    if !args.iter().any(|a| a == "--no-ablation") {
        let rows = run_idle_connections_series(&[64, 256], Duration::from_millis(400));
        print_table("Event dispatcher — mostly-idle connections", &rows);
        let rows = run_sharding_ablation(&[1, 2, 4], Duration::from_millis(400));
        print_table(
            "Sharding ablation — aggregate req/s + per-shard utilization",
            &rows,
        );
    }
}
