//! CI bench-regression guard.
//!
//! Runs reduced versions of the headline experiments and compares them
//! against the checked-in baseline `crates/bench/benches/baseline.json`:
//!
//! * the dispatcher-backend ablation (poll vs. event at 256 mostly-idle
//!   connections) — the PR 2 acceptance gate;
//! * the sharding ablation (fig5 with `--shards 1` vs `--shards 2`) — the
//!   sharded-runtime acceptance gate;
//! * the fig4 runner (FLICK HTTP load balancer, kernel stack) and the
//!   fig6 runner (Hadoop aggregation throughput), at reduced scale;
//! * the e2e loopback TCP point (static web service on a real OS socket,
//!   driven by the blocking loopback client pool) — the OS-transport
//!   acceptance gate.
//!
//! Two kinds of checks:
//!
//! * **Machine-independent ratios**, computed within this run: the event
//!   backend must not lose to the poll backend, the sharded runtime must
//!   not lose to the single-shard runtime (small tolerance for
//!   single-core hosts, where sharding has no parallel headroom to
//!   exploit and the expected ratio is ~1.0 rather than >1), and the
//!   real-socket service must stay within a bounded overhead of its
//!   simulated twin (the tcp/sim ratio). The sharded run must also show
//!   balanced per-shard utilization and live steal traffic — the
//!   structural claims of the sharding PR.
//! * **Absolute baselines** with a generous 30% floor (CI machines are
//!   noisy): any `req/s` or `Mbps` series dropping below 70% of its
//!   recorded baseline fails.
//!
//! Usage:
//!
//! * `cargo run --release -p flick_bench --bin bench_guard` — compare;
//!   exits non-zero on any failed check.
//! * `... --bin bench_guard -- --record` — overwrite the baseline with
//!   this machine's numbers (how the file was seeded, and how to re-seed
//!   after an intentional perf change).

use flick_bench::report::{print_table, rows_from_json, rows_to_json, Row};
use flick_bench::{
    max_open_files, run_dispatcher_backend_ablation, run_exec_mode_dispatch_experiment,
    run_flick_vm_lb_experiment, run_hadoop_experiment, run_hostile_goodput_experiment,
    run_http_experiment, run_output_mode_ablation, run_sharding_ablation, run_tcp_c10k_experiment,
    run_tcp_lb_experiment, run_tcp_loopback_experiment, run_tcp_sharding_curve,
    ExecModeDispatchExperiment, FlickVmLbExperiment, HadoopExperiment, HttpExperiment, HttpSystem,
    TcpC10kExperiment, TcpLbExperiment, TcpLbResult, TcpLoopbackExperiment, TcpLoopbackResult,
};
use std::time::Duration;

/// Fraction of the baseline a guarded series may drop to before the
/// guard fails (1.0 - 0.30).
const REGRESSION_FLOOR: f64 = 0.70;

/// The sharded-vs-single ratio floor. On a multi-core host sharding is
/// expected to win outright (>1); on a single-core host there is no
/// parallel headroom and the requirement degrades to "sharding must not
/// cost throughput" with a small noise allowance.
const SHARDING_RATIO_FLOOR: f64 = 0.95;

/// The tcp-vs-sim ratio floor: the service on a real kernel socket must
/// not fall below this fraction of its simulated twin (kernel cost model)
/// within the same run. Loopback measurements put the ratio around
/// 0.8–0.9; the floor leaves generous headroom for loaded CI hosts while
/// still catching a broken OS transport (a lost-wakeup stall or an
/// accidental poll regression collapses the ratio to near zero).
const TCP_SIM_RATIO_FLOOR: f64 = 0.25;

/// The all-TCP LB ratio floor: the `client → LB → backend` path crossing
/// real kernel sockets on every hop must stay within this fraction of its
/// simulated twin. Two socket hops per request make this noisier than the
/// single-hop loopback point, so the floor is lower; a stalled backend
/// pool or a lost writable wakeup still collapses it to near zero.
const TCP_LB_RATIO_FLOOR: f64 = 0.15;

/// The wakeup-vs-busy output ratio floor: with stalled peers pinned
/// against full pipes, parking output tasks on writable readiness must not
/// lose to busy retrying them (small noise allowance; on loaded hosts the
/// wakeup mode typically wins outright because busy retries bleed worker
/// time).
const OUTPUT_MODE_RATIO_FLOOR: f64 = 0.95;

/// Share of the fleet's requests replaced by malformed frames in the
/// hostile-goodput point.
const HOSTILE_SHARE: f64 = 0.10;

/// The hostile-goodput ratio floor: with `HOSTILE_SHARE` of requests
/// poisoned, the clean requests' completed rate must stay within this
/// fraction of the clean-run rate, within this run. Shedding a poison
/// frame costs one connection close and a reconnect, so the expected
/// ratio sits well above this; a collapse means malformed rejection has
/// become expensive, and a parser that started *answering* poison shows
/// up through the malformed-close structural check beside it. Observed
/// ratios sit around 0.55–0.7 (every poisoned turn burns a keep-alive
/// connection, so the cost is reconnect churn, not the poison itself);
/// the floor leaves room for single-core CI noise while still catching
/// a rejection path that turned quadratic or started timing out.
const HOSTILE_GOODPUT_RATIO_FLOOR: f64 = 0.40;

/// The VM-vs-interpreter dispatch ratio floor: compiled bytecode with a
/// direct-threaded dispatch loop must beat the tree-walking interpreter
/// on per-message dispatch of the same lowered program, within the same
/// run. Observed ratios sit around 1.2–1.3 (pre-decoded ops, interned
/// constants and grammar-seeded field-offset sites versus recursive
/// enum-tree walking); the gate only requires the VM to win at all,
/// best-of-three so a noisy pass cannot fail CI.
const EXEC_MODE_RATIO_FLOOR: f64 = 1.0;

fn baseline_path() -> &'static str {
    concat!(env!("CARGO_MANIFEST_DIR"), "/benches/baseline.json")
}

/// The reduced fig4 point the guard tracks.
fn run_fig4_point() -> Row {
    let params = HttpExperiment {
        concurrency: 32,
        persistent: true,
        duration: Duration::from_millis(400),
        workers: 4,
        backends: 4,
    };
    let stats = run_http_experiment(HttpSystem::FlickKernel, &params);
    Row::new(
        params.concurrency,
        "fig4 FLICK",
        stats.requests_per_sec(),
        "req/s",
    )
}

/// The reduced fig6 point the guard tracks.
fn run_fig6_point() -> Row {
    let params = HadoopExperiment {
        cores: 2,
        word_len: 8,
        mappers: 4,
        bytes_per_mapper: 256 * 1024,
        link_bits_per_sec: None,
    };
    let mbps = run_hadoop_experiment(&params);
    Row::new(params.mappers, "fig6 hadoop", mbps, "Mbps")
}

fn main() {
    let record = std::env::args().any(|a| a == "--record");
    let mut rows = run_dispatcher_backend_ablation(&[256], Duration::from_millis(400));
    // The writable-interest ablation (wakeup-driven vs busy-retry output
    // under stalled peers); two passes. Like every other guarded series,
    // the recorded/checked rows take the best of the two passes (max
    // req/s, min retries) so a single noisy interval cannot fail CI —
    // the busy series in particular measures throughput scraps under
    // spinning peers and is inherently noisy.
    let output_modes = run_output_mode_ablation(Duration::from_millis(400));
    let output_modes_second = run_output_mode_ablation(Duration::from_millis(400));
    rows.extend(output_modes.iter().map(|row| {
        let second = output_modes_second
            .iter()
            .find(|other| other.series == row.series && other.x == row.x)
            .map(|other| other.value)
            .unwrap_or(row.value);
        let best = if row.unit == "retries" {
            row.value.min(second)
        } else {
            row.value.max(second)
        };
        Row::new(row.x.clone(), row.series.clone(), best, row.unit.clone())
    }));
    // Three passes over the sharding ablation; the ratio gate uses the
    // best run per configuration so a noisy interval on a loaded CI host
    // cannot fail the comparison. On a single-core box the ratio gate has
    // no parallel headroom at all — it measures pure sharding overhead
    // against a 5% allowance — so it needs the extra pass more than any
    // other gate here. Baseline rows come from the first pass.
    let sharding = run_sharding_ablation(&[1, 2], Duration::from_millis(600));
    let sharding_second = run_sharding_ablation(&[1, 2], Duration::from_millis(600));
    let sharding_third = run_sharding_ablation(&[1, 2], Duration::from_millis(600));
    rows.extend(sharding.iter().cloned());
    rows.push(run_fig4_point());
    rows.push(run_fig6_point());
    // The hostile-goodput point: the same LB shape as fig4, measured
    // clean and then under a 10% malformed-frame storm (best-of-two per
    // leg — door-slam shedding on a loaded host is noisy enough to want
    // the same variance treatment as the other ratio gates).
    let hostile_params = HttpExperiment {
        concurrency: 32,
        persistent: true,
        duration: Duration::from_millis(400),
        workers: 4,
        backends: 4,
    };
    let hostile_first = run_hostile_goodput_experiment(&hostile_params, HOSTILE_SHARE);
    let hostile_second = run_hostile_goodput_experiment(&hostile_params, HOSTILE_SHARE);
    let hostile_clean_best = hostile_first
        .clean
        .requests_per_sec()
        .max(hostile_second.clean.requests_per_sec());
    let hostile_goodput_best = hostile_first
        .hostile
        .requests_per_sec()
        .max(hostile_second.hostile.requests_per_sec());
    rows.push(Row::new(
        hostile_params.concurrency,
        "hostile clean",
        hostile_clean_best,
        "req/s",
    ));
    rows.push(Row::new(
        hostile_params.concurrency,
        "hostile goodput",
        hostile_goodput_best,
        "req/s",
    ));
    // The e2e loopback TCP point: two passes, best-of-two everywhere
    // (real sockets on a loaded CI host are noisier than the simulated
    // substrate — both the ratio gate and the absolute baseline rows use
    // the better pass so a single noisy interval cannot fail CI).
    let tcp_params = TcpLoopbackExperiment {
        concurrency: 16,
        duration: Duration::from_millis(400),
        workers: 4,
        shards: 1,
    };
    let tcp_first = run_tcp_loopback_experiment(&tcp_params);
    let tcp_second = run_tcp_loopback_experiment(&tcp_params);
    rows.push(Row::new(
        tcp_params.concurrency,
        "tcp loopback",
        tcp_first
            .tcp
            .requests_per_sec()
            .max(tcp_second.tcp.requests_per_sec()),
        "req/s",
    ));
    rows.push(Row::new(
        tcp_params.concurrency,
        "tcp sim twin",
        tcp_first
            .sim
            .requests_per_sec()
            .max(tcp_second.sim.requests_per_sec()),
        "req/s",
    ));
    // The all-TCP LB point (kernel client → LB → kernel backend), same
    // best-of-two treatment as the loopback point.
    let lb_params = TcpLbExperiment {
        concurrency: 16,
        duration: Duration::from_millis(400),
        workers: 4,
        backends: 4,
    };
    let lb_first = run_tcp_lb_experiment(&lb_params);
    let lb_second = run_tcp_lb_experiment(&lb_params);
    rows.push(Row::new(
        lb_params.concurrency,
        "tcp lb e2e",
        lb_first
            .tcp
            .requests_per_sec()
            .max(lb_second.tcp.requests_per_sec()),
        "req/s",
    ));
    rows.push(Row::new(
        lb_params.concurrency,
        "tcp lb sim twin",
        lb_first
            .sim
            .requests_per_sec()
            .max(lb_second.sim.requests_per_sec()),
        "req/s",
    ));
    // The execution-engine dispatch ablation: the tree-walking
    // interpreter vs the bytecode VM on per-message dispatch of the same
    // lowered program. Three passes; the gate takes the best VM/interp
    // ratio. The msg/s unit keeps these rows out of the 70% absolute
    // floor — the within-run ratio is the machine-independent quantity,
    // the absolute rates are recorded for context.
    let dispatch_params = ExecModeDispatchExperiment::default();
    let dispatch_passes = [
        run_exec_mode_dispatch_experiment(&dispatch_params),
        run_exec_mode_dispatch_experiment(&dispatch_params),
        run_exec_mode_dispatch_experiment(&dispatch_params),
    ];
    let dispatch_best = dispatch_passes
        .iter()
        .max_by(|a, b| {
            let ratio = |r: &flick_bench::ExecModeDispatchResult| {
                r.vm_msgs_per_sec / r.interp_msgs_per_sec.max(1e-9)
            };
            ratio(a).total_cmp(&ratio(b))
        })
        .expect("three passes");
    rows.push(Row::new(
        "dispatch",
        "interp dispatch",
        dispatch_best.interp_msgs_per_sec,
        "msg/s",
    ));
    rows.push(Row::new(
        "dispatch",
        "vm dispatch",
        dispatch_best.vm_msgs_per_sec,
        "msg/s",
    ));
    // The end-to-end compiled-LB point: the FLICK-compiled balancer (the
    // full compiler pipeline, not the hand-written factory) over real
    // kernel sockets in VM mode. Best-of-two like the other TCP points.
    let flick_lb_params = FlickVmLbExperiment {
        concurrency: 16,
        duration: Duration::from_millis(400),
        workers: 4,
        backends: 4,
    };
    let flick_lb_first = run_flick_vm_lb_experiment(&flick_lb_params);
    let flick_lb_second = run_flick_vm_lb_experiment(&flick_lb_params);
    let flick_lb_best =
        if flick_lb_first.stats.requests_per_sec() >= flick_lb_second.stats.requests_per_sec() {
            &flick_lb_first
        } else {
            &flick_lb_second
        };
    rows.push(Row::new(
        flick_lb_params.concurrency,
        "flick vm lb e2e",
        flick_lb_best.stats.requests_per_sec(),
        "req/s",
    ));
    // The kernel-path sharding curve: the same loopback service at 1 and
    // 2 shards, each shard with its own epoll instance (waited on by its
    // dispatcher) and SO_REUSEPORT accept socket. Three passes, best-of-three per shard count: like
    // the runtime sharding gate above, on a single-core host the ratio
    // measures pure sharding overhead against a 5% allowance, so it gets
    // the extra variance-reduction pass.
    const TCP_SHARD_MAX: usize = 2;
    let curve_first = run_tcp_sharding_curve(&tcp_params, TCP_SHARD_MAX);
    let curve_second = run_tcp_sharding_curve(&tcp_params, TCP_SHARD_MAX);
    let curve_third = run_tcp_sharding_curve(&tcp_params, TCP_SHARD_MAX);
    let curve_best_at = |shards: usize| {
        curve_first
            .iter()
            .chain(curve_second.iter())
            .chain(curve_third.iter())
            .filter(|point| point.shards == shards)
            .map(|point| point.tcp.requests_per_sec())
            .fold(None, |best: Option<f64>, v| {
                Some(best.map_or(v, |b| b.max(v)))
            })
    };
    for point in &curve_first {
        rows.push(Row::new(
            point.shards,
            "tcp sharded",
            curve_best_at(point.shards).unwrap_or(point.tcp.requests_per_sec()),
            "req/s",
        ));
    }
    // The c10k idle+active point: thousands of idle kernel connections
    // pinned against the reactor while a small closed loop measures
    // throughput. One pass — the gates on it are structural (zero-copy
    // laws, connection survival), not throughput-absolute beyond the 30%
    // floor.
    let c10k_params = TcpC10kExperiment::default();
    let c10k = run_tcp_c10k_experiment(&c10k_params);
    rows.push(Row::new(
        "10k",
        "tcp c10k active",
        c10k.active.requests_per_sec(),
        "req/s",
    ));
    rows.push(Row::new(
        "10k",
        "tcp c10k idle",
        c10k.idle_connected as f64,
        "conns",
    ));
    // Host metadata, recorded for context (units outside req/s|Mbps are
    // never gated on absolute values): how many cores and fds shaped the
    // numbers above, and the sharding config the curve ran at.
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    rows.push(Row::new("host", "host cores", cores as f64, "cores"));
    rows.push(Row::new(
        "host",
        "host fd limit",
        max_open_files() as f64,
        "fds",
    ));
    rows.push(Row::new(
        "host",
        "tcp shard config",
        TCP_SHARD_MAX as f64,
        "shards",
    ));
    print_table("Bench guard (current run)", &rows);

    if record {
        // Only throughput series are guarded; scan-rate, utilization and
        // steal rows are recorded for context but never gate on absolute
        // values (they are asserted structurally within the run instead).
        std::fs::write(baseline_path(), rows_to_json(&rows) + "\n").expect("write baseline.json");
        println!("recorded baseline to {}", baseline_path());
        return;
    }

    let baseline_json = std::fs::read_to_string(baseline_path())
        .unwrap_or_else(|e| panic!("read {}: {e} (seed it with --record)", baseline_path()));
    let baseline = rows_from_json(&baseline_json).expect("parse baseline.json");

    let mut failures = Vec::new();

    // Machine-independent gate 1: within this run, the event backend must
    // not lose to the poll backend it replaced (the acceptance bar of the
    // readiness layer). Ratios survive slow or noisy CI hosts that the
    // absolute baseline comparison below cannot account for.
    let series = |name: &str| {
        rows.iter()
            .find(|row| row.series == name && row.unit == "req/s")
            .map(|row| row.value)
    };
    match (series("event"), series("poll")) {
        (Some(event), Some(poll)) => {
            if event < poll {
                failures.push(format!(
                    "event backend lost to poll within this run: {event:.0} < {poll:.0} req/s"
                ));
            } else {
                println!("ok: event/poll ratio {:.2}x (must be >= 1)", event / poll);
            }
        }
        _ => failures.push("ablation run missing event/poll req/s series".to_string()),
    }

    // Machine-independent gate 1b: with stalled peers, the wakeup-driven
    // output path must not lose to the busy-retry loop it replaced, and it
    // must not busy-retry at all (the structural claim: a stalled peer
    // parks its writer). Best-of-two per mode for the ratio; the retry
    // assertion accepts either pass being clean.
    let output_series = |pass: &[Row], name: &str| {
        pass.iter()
            .find(|row| row.series == name)
            .map(|row| row.value)
    };
    let best_output = |name: &str| {
        [&output_modes, &output_modes_second]
            .into_iter()
            .filter_map(|pass| output_series(pass, name))
            .fold(None, |best: Option<f64>, v| {
                Some(best.map_or(v, |b| b.max(v)))
            })
    };
    match (best_output("output wakeup"), best_output("output busy")) {
        (Some(wakeup), Some(busy)) => {
            let ratio = wakeup / busy.max(1e-9);
            if ratio < OUTPUT_MODE_RATIO_FLOOR {
                failures.push(format!(
                    "wakeup-driven output lost to busy retry under stalled peers: \
                     {wakeup:.0} vs {busy:.0} req/s (ratio {ratio:.2}, floor \
                     {OUTPUT_MODE_RATIO_FLOOR})"
                ));
            } else {
                println!(
                    "ok: output wakeup/busy ratio {ratio:.2}x (floor {OUTPUT_MODE_RATIO_FLOOR})"
                );
            }
        }
        _ => failures.push("output-mode ablation missing req/s series".to_string()),
    }
    let wakeup_retries = [&output_modes, &output_modes_second]
        .into_iter()
        .filter_map(|pass| output_series(pass, "output wakeup retries"))
        .fold(None, |best: Option<f64>, v| {
            Some(best.map_or(v, |b| b.min(v)))
        });
    match wakeup_retries {
        Some(retries) => {
            if retries == 0.0 {
                println!("ok: wakeup-driven output performed 0 busy retries under stalled peers");
            } else {
                failures.push(format!(
                    "wakeup-driven output busy-retried {retries:.0} times under stalled peers \
                     (writable parking is broken)"
                ));
            }
        }
        None => failures.push("output-mode ablation missing retries series".to_string()),
    }

    // Machine-independent gate 2: the sharded runtime vs the single-shard
    // runtime, same workload, same worker budget, within this run
    // (best-of-three per configuration).
    let sharded_at = |x: usize| {
        sharding
            .iter()
            .chain(sharding_second.iter())
            .chain(sharding_third.iter())
            .filter(|row| row.series == "sharded" && row.x == x.to_string())
            .map(|row| row.value)
            .fold(None, |best: Option<f64>, v| {
                Some(best.map_or(v, |b| b.max(v)))
            })
    };
    match (sharded_at(1), sharded_at(2)) {
        (Some(single), Some(sharded)) => {
            let ratio = sharded / single;
            if ratio < SHARDING_RATIO_FLOOR {
                failures.push(format!(
                    "sharded runtime lost to single-shard: {sharded:.0} vs {single:.0} req/s \
                     (ratio {ratio:.2}, floor {SHARDING_RATIO_FLOOR})"
                ));
            } else {
                println!(
                    "ok: sharded/single ratio {ratio:.2}x (floor {SHARDING_RATIO_FLOOR}; \
                     expected > 1 on multi-core hosts)"
                );
            }
        }
        _ => failures.push("sharding ablation missing req/s series".to_string()),
    }
    // Structural claims of the sharded run: both shards did comparable
    // work (placement balance) and the steal path was exercised. Like the
    // ratio gate, these accept the best of the passes so a single noisy
    // interval cannot fail CI.
    let structural = |pass: &[Row]| -> Result<(Vec<f64>, f64), String> {
        let utils: Vec<f64> = pass
            .iter()
            .filter(|row| row.x == "2" && row.unit == "%")
            .map(|row| row.value)
            .collect();
        if utils.len() != 2 {
            return Err(format!(
                "expected 2 per-shard utilization rows for the 2-shard run, got {}",
                utils.len()
            ));
        }
        if utils.iter().any(|share| !(20.0..=80.0).contains(share)) {
            return Err(format!(
                "per-shard utilization is imbalanced: {utils:?} (each share must be 20–80%)"
            ));
        }
        let steals = pass
            .iter()
            .find(|row| row.x == "2" && row.series == "steals")
            .map(|row| row.value)
            .ok_or_else(|| "sharding ablation missing steals row".to_string())?;
        if steals <= 0.0 {
            return Err("no cross-shard steals in the 2-shard run".to_string());
        }
        Ok((utils, steals))
    };
    match structural(&sharding)
        .or_else(|first| structural(&sharding_second).map_err(|_| first))
        .or_else(|first| structural(&sharding_third).map_err(|_| first))
    {
        Ok((utils, steals)) => {
            println!("ok: per-shard utilization balanced ({utils:?})");
            println!("ok: cross-shard steal path exercised ({steals:.0} tasks)");
        }
        Err(failure) => failures.push(failure),
    }

    // Machine-independent gate 3: the OS transport vs its simulated twin,
    // same platform, same workload shape, within this run (best-of-two).
    let tcp_best = [&tcp_first, &tcp_second]
        .into_iter()
        .max_by(|a, b| {
            let ratio = |r: &TcpLoopbackResult| {
                r.tcp.requests_per_sec() / r.sim.requests_per_sec().max(1e-9)
            };
            ratio(a).total_cmp(&ratio(b))
        })
        .expect("two passes");
    let tcp_ratio = tcp_best.tcp.requests_per_sec() / tcp_best.sim.requests_per_sec().max(1e-9);
    if tcp_ratio < TCP_SIM_RATIO_FLOOR {
        failures.push(format!(
            "real-socket service lost to its simulated twin: ratio {tcp_ratio:.2} \
             (floor {TCP_SIM_RATIO_FLOOR}; tcp {:.0} vs sim {:.0} req/s)",
            tcp_best.tcp.requests_per_sec(),
            tcp_best.sim.requests_per_sec()
        ));
    } else {
        println!("ok: tcp/sim loopback ratio {tcp_ratio:.2} (floor {TCP_SIM_RATIO_FLOOR})");
    }

    // Machine-independent gate 3b: sharding the kernel event path
    // (per-shard reactors + REUSEPORT accept sockets) must not cost
    // throughput relative to the single-reactor run. On multi-core hosts
    // it should win outright; on a single core the expected ratio is ~1.
    match (curve_best_at(1), curve_best_at(TCP_SHARD_MAX)) {
        (Some(single), Some(sharded)) => {
            let ratio = sharded / single.max(1e-9);
            if ratio < SHARDING_RATIO_FLOOR {
                failures.push(format!(
                    "kernel-path sharding lost to a single reactor: {sharded:.0} vs \
                     {single:.0} req/s (ratio {ratio:.2}, floor {SHARDING_RATIO_FLOOR})"
                ));
            } else {
                println!("ok: tcp sharded/single ratio {ratio:.2}x (floor {SHARDING_RATIO_FLOOR})");
            }
        }
        _ => failures.push("tcp sharding curve missing 1-shard or max-shard point".to_string()),
    }

    // Machine-independent gate 3c: the c10k structural claims. The idle
    // mass must actually connect and survive the active run, and the
    // kernel path must hold both zero-copy laws under it.
    if c10k.idle_connected * 100 < c10k.idle_requested * 99 {
        failures.push(format!(
            "c10k: only {}/{} idle connections established",
            c10k.idle_connected, c10k.idle_requested
        ));
    } else if c10k.idle_survivors < c10k.idle_connected {
        failures.push(format!(
            "c10k: {} of {} idle connections died during the active run",
            c10k.idle_connected - c10k.idle_survivors,
            c10k.idle_connected
        ));
    } else {
        println!(
            "ok: c10k held {} idle connections through the active run \
             ({:.0} req/s active)",
            c10k.idle_survivors,
            c10k.active.requests_per_sec()
        );
    }
    if c10k.ingest_copies != 0 {
        failures.push(format!(
            "c10k: kernel path charged {} ingest copies (zero-copy law broken)",
            c10k.ingest_copies
        ));
    } else {
        println!("ok: c10k kernel path charged 0 ingest copies");
    }
    if c10k.output_busy_retries != 0 {
        failures.push(format!(
            "c10k: output tasks busy-retried {} times (writable parking broken)",
            c10k.output_busy_retries
        ));
    } else {
        println!("ok: c10k output tasks performed 0 busy retries");
    }

    // Machine-independent gate 4: the all-TCP LB path vs its simulated
    // twin (best-of-two), plus the structural claim that the TCP backend
    // pool actually spread requests over the kernel-socket back-ends.
    let lb_best = [&lb_first, &lb_second]
        .into_iter()
        .max_by(|a, b| {
            let ratio =
                |r: &TcpLbResult| r.tcp.requests_per_sec() / r.sim.requests_per_sec().max(1e-9);
            ratio(a).total_cmp(&ratio(b))
        })
        .expect("two passes");
    let lb_ratio = lb_best.tcp.requests_per_sec() / lb_best.sim.requests_per_sec().max(1e-9);
    if lb_ratio < TCP_LB_RATIO_FLOOR {
        failures.push(format!(
            "all-TCP LB lost to its simulated twin: ratio {lb_ratio:.2} \
             (floor {TCP_LB_RATIO_FLOOR}; tcp {:.0} vs sim {:.0} req/s)",
            lb_best.tcp.requests_per_sec(),
            lb_best.sim.requests_per_sec()
        ));
    } else {
        println!("ok: all-TCP lb/sim ratio {lb_ratio:.2} (floor {TCP_LB_RATIO_FLOOR})");
    }
    let lb_backends_hit = lb_best
        .backend_requests
        .iter()
        .filter(|served| **served > 0)
        .count();
    if lb_backends_hit < 2 {
        failures.push(format!(
            "all-TCP LB reached only {lb_backends_hit} TCP back-end(s): {:?}",
            lb_best.backend_requests
        ));
    } else {
        println!(
            "ok: all-TCP LB spread requests over {lb_backends_hit} kernel-socket back-ends \
             ({:?})",
            lb_best.backend_requests
        );
    }

    // Machine-independent gate 5: goodput under hostile traffic. The
    // ratio compares within a pass (best-of-two passes), so host speed
    // cancels out; the structural checks pin down that poison actually
    // flowed and was shed as malformed closes rather than answered.
    let hostile_best = [&hostile_first, &hostile_second]
        .into_iter()
        .max_by(|a, b| {
            let ratio = |r: &flick_bench::HostileGoodputResult| {
                r.hostile.requests_per_sec() / r.clean.requests_per_sec().max(1e-9)
            };
            ratio(a).total_cmp(&ratio(b))
        })
        .expect("two passes");
    let hostile_ratio =
        hostile_best.hostile.requests_per_sec() / hostile_best.clean.requests_per_sec().max(1e-9);
    if hostile_ratio < HOSTILE_GOODPUT_RATIO_FLOOR {
        failures.push(format!(
            "goodput collapsed under {}% malformed traffic: ratio {hostile_ratio:.2} \
             (floor {HOSTILE_GOODPUT_RATIO_FLOOR}; hostile {:.0} vs clean {:.0} req/s)",
            (HOSTILE_SHARE * 100.0) as u32,
            hostile_best.hostile.requests_per_sec(),
            hostile_best.clean.requests_per_sec()
        ));
    } else {
        println!(
            "ok: hostile/clean goodput ratio {hostile_ratio:.2} under {}% poison \
             (floor {HOSTILE_GOODPUT_RATIO_FLOOR})",
            (HOSTILE_SHARE * 100.0) as u32
        );
    }
    if hostile_best.hostile.malformed_sent == 0 {
        failures.push("hostile run sent no malformed frames (storm misconfigured)".to_string());
    } else if hostile_best.malformed_closes == 0 {
        failures.push(format!(
            "{} malformed frames sent but zero malformed closes recorded \
             (the parser stopped rejecting poison)",
            hostile_best.hostile.malformed_sent
        ));
    } else {
        println!(
            "ok: hostile run shed poison as malformed closes ({} sent, {} closed)",
            hostile_best.hostile.malformed_sent, hostile_best.malformed_closes
        );
    }

    // Machine-independent gate 6: the bytecode VM must beat the
    // tree-walking interpreter on per-message dispatch of the same
    // program (best-of-three). Host speed cancels out within the run.
    let exec_ratio = dispatch_best.vm_msgs_per_sec / dispatch_best.interp_msgs_per_sec.max(1e-9);
    if exec_ratio <= EXEC_MODE_RATIO_FLOOR {
        failures.push(format!(
            "bytecode VM lost to the tree-walking interpreter: ratio {exec_ratio:.2} \
             (must be > {EXEC_MODE_RATIO_FLOOR}; vm {:.0} vs interp {:.0} msg/s)",
            dispatch_best.vm_msgs_per_sec, dispatch_best.interp_msgs_per_sec
        ));
    } else {
        println!(
            "ok: vm/interp dispatch ratio {exec_ratio:.2}x (must be > {EXEC_MODE_RATIO_FLOOR}; \
             vm {:.0} vs interp {:.0} msg/s)",
            dispatch_best.vm_msgs_per_sec, dispatch_best.interp_msgs_per_sec
        );
    }

    // Structural gate beside it: the compiled balancer in VM mode
    // actually served traffic end to end and spread it over the kernel
    // back-ends (its absolute rate is additionally under the 30% floor
    // through the `flick vm lb e2e` baseline row).
    let flick_lb_backends_hit = flick_lb_best
        .backend_requests
        .iter()
        .filter(|served| **served > 0)
        .count();
    if flick_lb_best.stats.completed == 0 {
        failures.push("compiled VM-mode LB completed zero requests".to_string());
    } else if flick_lb_backends_hit < 2 {
        failures.push(format!(
            "compiled VM-mode LB reached only {flick_lb_backends_hit} TCP back-end(s): {:?}",
            flick_lb_best.backend_requests
        ));
    } else {
        println!(
            "ok: compiled VM-mode LB spread {} requests over {flick_lb_backends_hit} \
             kernel-socket back-ends ({:?})",
            flick_lb_best.stats.completed, flick_lb_best.backend_requests
        );
    }

    // Absolute baselines, 30% floor, for every throughput series. The
    // "output busy" series is exempt: it measures throughput scraps under
    // deliberately spinning peers — inherently noisier than 30% headroom
    // can absorb — and the property this PR defends is already gated
    // twice (the wakeup/busy ratio and the retries==0 structural check);
    // its row is recorded for context only.
    for expected in baseline
        .iter()
        .filter(|row| (row.unit == "req/s" || row.unit == "Mbps") && row.series != "output busy")
    {
        let Some(current) = rows
            .iter()
            .find(|row| row.x == expected.x && row.series == expected.series)
        else {
            failures.push(format!(
                "series {:?} at x={} missing from current run",
                expected.series, expected.x
            ));
            continue;
        };
        let floor = expected.value * REGRESSION_FLOOR;
        if current.value < floor {
            failures.push(format!(
                "{} @ x={} regressed: {:.0} {} < 70% of baseline {:.0} {}",
                expected.series,
                expected.x,
                current.value,
                current.unit,
                expected.value,
                expected.unit
            ));
        } else {
            println!(
                "ok: {} @ x={}: {:.0} {} (baseline {:.0}, floor {:.0})",
                expected.series, expected.x, current.value, current.unit, expected.value, floor
            );
        }
    }
    if !failures.is_empty() {
        for failure in &failures {
            eprintln!("REGRESSION: {failure}");
        }
        std::process::exit(1);
    }
    let checked = baseline
        .iter()
        .filter(|row| (row.unit == "req/s" || row.unit == "Mbps") && row.series != "output busy")
        .count();
    println!("bench guard passed ({checked} absolute series + 10 ratio/structural gates checked)");
}
