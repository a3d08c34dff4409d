//! Experiment runners, one per figure.

use flick_net::{SimNetwork, StackModel};
use flick_runtime::scheduler::Scheduler;
use flick_runtime::task::TaskId;
use flick_runtime::tasks::SyntheticWorkTask;
use flick_runtime::RuntimeMetrics;
use flick_runtime::{Platform, PlatformConfig, SchedulingPolicy, ServiceSpec, ShardStatus};
use flick_services::baselines::{ApacheLikeProxy, MoxiLikeProxy, NginxLikeProxy};
use flick_services::hadoop::hadoop_aggregator;
use flick_services::http::{HttpLoadBalancerFactory, StaticWebServerFactory};
use flick_services::memcached::memcached_proxy;
use flick_workload::backends::{
    start_http_backend, start_memcached_backend, start_sink_backend, start_tcp_http_backend,
};
use flick_workload::hadoop::{run_hadoop_mappers, wait_for_quiescence, HadoopLoadConfig};
use flick_workload::http::{run_http_load, HttpLoadConfig};
use flick_workload::memcached::{run_memcached_load, MemcachedLoadConfig};
use flick_workload::tcp::{run_tcp_http_load, TcpHttpLoadConfig};
use flick_workload::RunStats;
use parking_lot::Mutex;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The systems compared in the HTTP experiments (Figure 4 and the web-server
/// results of §6.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HttpSystem {
    /// FLICK on the kernel-stack cost model.
    FlickKernel,
    /// FLICK on the mTCP/DPDK cost model.
    FlickMtcp,
    /// The Apache-like baseline.
    Apache,
    /// The Nginx-like baseline.
    Nginx,
}

impl HttpSystem {
    /// The label used in figure output.
    pub fn label(&self) -> &'static str {
        match self {
            HttpSystem::FlickKernel => "FLICK",
            HttpSystem::FlickMtcp => "FLICK mTCP",
            HttpSystem::Apache => "Apache",
            HttpSystem::Nginx => "Nginx",
        }
    }

    /// All four systems.
    pub fn all() -> [HttpSystem; 4] {
        [
            HttpSystem::FlickKernel,
            HttpSystem::FlickMtcp,
            HttpSystem::Apache,
            HttpSystem::Nginx,
        ]
    }
}

/// Parameters of one HTTP experiment point.
#[derive(Debug, Clone)]
pub struct HttpExperiment {
    /// Concurrent client connections.
    pub concurrency: usize,
    /// Persistent (keep-alive) or one connection per request.
    pub persistent: bool,
    /// Measurement duration.
    pub duration: Duration,
    /// Worker threads / cores for the middlebox.
    pub workers: usize,
    /// Number of backend web servers (0 = static web server mode).
    pub backends: usize,
}

impl Default for HttpExperiment {
    fn default() -> Self {
        HttpExperiment {
            concurrency: 64,
            persistent: true,
            duration: Duration::from_millis(800),
            workers: 4,
            backends: 4,
        }
    }
}

/// Runs one HTTP experiment point (Figure 4 when `backends > 0`, the static
/// web-server experiment when `backends == 0`).
pub fn run_http_experiment(system: HttpSystem, params: &HttpExperiment) -> RunStats {
    let stack = match system {
        HttpSystem::FlickMtcp => StackModel::Mtcp,
        _ => StackModel::Kernel,
    };
    let net = SimNetwork::new(stack);
    let service_port = 8080u16;
    let backend_ports: Vec<u16> = (0..params.backends).map(|i| 8200 + i as u16).collect();
    let _backends: Vec<_> = backend_ports
        .iter()
        .map(|p| start_http_backend(&net, *p, &[b'x'; 137]))
        .collect();

    // Handles are kept alive in these locals until the load run finishes.
    let mut _platform = None;
    let mut _service = None;
    let mut _proxy = None;
    let mut _static_backend = None;
    match system {
        HttpSystem::FlickKernel | HttpSystem::FlickMtcp => {
            let platform = Platform::with_network(
                PlatformConfig {
                    workers: params.workers,
                    stack,
                    ..Default::default()
                },
                Arc::clone(&net),
            );
            let spec = if params.backends == 0 {
                ServiceSpec::new(
                    "web",
                    service_port,
                    StaticWebServerFactory::new(&[b'x'; 137][..]),
                )
            } else {
                ServiceSpec::new("lb", service_port, HttpLoadBalancerFactory::new())
                    .with_backends(backend_ports.clone())
            };
            _service = Some(platform.deploy(spec).expect("deploy FLICK HTTP service"));
            _platform = Some(platform);
        }
        HttpSystem::Apache | HttpSystem::Nginx => {
            // In the static web-server experiment the baselines serve the
            // content themselves; here that is modelled by fronting one
            // local content server with the baseline's processing model.
            let ports = if params.backends == 0 {
                _static_backend = Some(start_http_backend(&net, 8300, &[b'x'; 137]));
                vec![8300]
            } else {
                backend_ports.clone()
            };
            _proxy = Some(if system == HttpSystem::Apache {
                ApacheLikeProxy::start(&net, service_port, ports)
            } else {
                NginxLikeProxy::start(&net, service_port, ports)
            });
        }
    }

    let config = HttpLoadConfig {
        port: service_port,
        concurrency: params.concurrency,
        duration: params.duration,
        persistent: params.persistent,
        timeout: Duration::from_secs(5),
        ..Default::default()
    };
    run_http_load(&net, &config)
}

/// Result of the hostile-goodput experiment: the same FLICK kernel-stack
/// load balancer measured clean and then under a malformed-frame storm.
#[derive(Debug)]
pub struct HostileGoodputResult {
    /// The clean-traffic run.
    pub clean: RunStats,
    /// The run with `hostile_ratio` of the fleet's requests replaced by
    /// poison frames (goodput = its `completed` rate).
    pub hostile: RunStats,
    /// Malformed closes the platform recorded over both runs (the clean
    /// run must contribute zero).
    pub malformed_closes: u64,
}

/// Measures what a malformed-frame storm costs the FLICK load balancer:
/// the same platform and fleet shape runs once clean and once with
/// `hostile_ratio` of requests poisoned (oversized/duplicate/garbled
/// `Content-Length`). The bounded parser must shed each poison frame by
/// closing its connection, so goodput should track the clean rate minus
/// roughly the hostile share — a collapse means rejection has become
/// expensive (or, worse, poison is being answered).
pub fn run_hostile_goodput_experiment(
    params: &HttpExperiment,
    hostile_ratio: f64,
) -> HostileGoodputResult {
    let net = SimNetwork::new(StackModel::Kernel);
    let service_port = 8080u16;
    let backend_ports: Vec<u16> = (0..params.backends.max(1))
        .map(|i| 8200 + i as u16)
        .collect();
    let _backends: Vec<_> = backend_ports
        .iter()
        .map(|p| start_http_backend(&net, *p, &[b'x'; 137]))
        .collect();
    let platform = Platform::with_network(
        PlatformConfig {
            workers: params.workers,
            stack: StackModel::Kernel,
            ..Default::default()
        },
        Arc::clone(&net),
    );
    let _service = platform
        .deploy(
            ServiceSpec::new("lb", service_port, HttpLoadBalancerFactory::new())
                .with_backends(backend_ports),
        )
        .expect("deploy FLICK HTTP service");

    let clean = run_http_load(
        &net,
        &HttpLoadConfig {
            port: service_port,
            concurrency: params.concurrency,
            duration: params.duration,
            persistent: params.persistent,
            timeout: Duration::from_secs(5),
            ..Default::default()
        },
    );
    let closes_after_clean = net.stats().snapshot().malformed_closes;
    let hostile = run_http_load(
        &net,
        &HttpLoadConfig {
            port: service_port,
            concurrency: params.concurrency,
            duration: params.duration,
            persistent: params.persistent,
            timeout: Duration::from_secs(5),
            hostile_ratio,
            ..Default::default()
        },
    );
    let malformed_closes = net.stats().snapshot().malformed_closes;
    debug_assert_eq!(closes_after_clean, 0, "clean run flagged traffic");
    HostileGoodputResult {
        clean,
        hostile,
        malformed_closes,
    }
}

/// The systems compared in the Memcached experiment (Figure 5).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemcachedSystem {
    /// FLICK on the kernel-stack cost model.
    FlickKernel,
    /// FLICK on the mTCP/DPDK cost model.
    FlickMtcp,
    /// The Moxi-like baseline.
    Moxi,
}

impl MemcachedSystem {
    /// The label used in figure output.
    pub fn label(&self) -> &'static str {
        match self {
            MemcachedSystem::FlickKernel => "FLICK",
            MemcachedSystem::FlickMtcp => "FLICK mTCP",
            MemcachedSystem::Moxi => "Moxi",
        }
    }

    /// All three systems.
    pub fn all() -> [MemcachedSystem; 3] {
        [
            MemcachedSystem::FlickKernel,
            MemcachedSystem::FlickMtcp,
            MemcachedSystem::Moxi,
        ]
    }
}

/// Parameters of one Memcached experiment point (Figure 5).
#[derive(Debug, Clone)]
pub struct MemcachedExperiment {
    /// CPU cores (worker threads) given to the proxy.
    pub cores: usize,
    /// Shards of the FLICK platform (1 = the pre-sharding single-reactor
    /// runtime; ignored by the Moxi baseline).
    pub shards: usize,
    /// Concurrent clients (128 in the paper).
    pub clients: usize,
    /// Number of Memcached back-ends (10 in the paper).
    pub backends: usize,
    /// Measurement duration.
    pub duration: Duration,
}

impl Default for MemcachedExperiment {
    fn default() -> Self {
        MemcachedExperiment {
            cores: 4,
            shards: 1,
            clients: 32,
            backends: 4,
            duration: Duration::from_millis(800),
        }
    }
}

/// Runs one Memcached proxy experiment point.
pub fn run_memcached_experiment(system: MemcachedSystem, params: &MemcachedExperiment) -> RunStats {
    run_memcached_experiment_sharded(system, params).0
}

/// Runs one Memcached proxy experiment point and also returns the
/// platform's per-shard status after the run (empty for the Moxi
/// baseline, which has no shards). The status feeds the fig5 per-shard
/// utilization table.
pub fn run_memcached_experiment_sharded(
    system: MemcachedSystem,
    params: &MemcachedExperiment,
) -> (RunStats, Vec<ShardStatus>) {
    let stack = match system {
        MemcachedSystem::FlickMtcp => StackModel::Mtcp,
        _ => StackModel::Kernel,
    };
    let net = SimNetwork::new(stack);
    let service_port = 11211u16;
    let backend_ports: Vec<u16> = (0..params.backends).map(|i| 11300 + i as u16).collect();
    let _backends: Vec<_> = backend_ports
        .iter()
        .map(|p| start_memcached_backend(&net, *p))
        .collect();

    let mut _platform = None;
    let mut _service = None;
    let mut _proxy = None;
    match system {
        MemcachedSystem::FlickKernel | MemcachedSystem::FlickMtcp => {
            let platform = Platform::with_network(
                PlatformConfig {
                    workers: params.cores,
                    shards: params.shards.max(1),
                    stack,
                    ..Default::default()
                },
                Arc::clone(&net),
            );
            _service = Some(
                platform
                    .deploy(
                        ServiceSpec::new("memcached", service_port, memcached_proxy())
                            .with_backends(backend_ports.clone()),
                    )
                    .expect("deploy FLICK memcached proxy"),
            );
            _platform = Some(platform);
        }
        MemcachedSystem::Moxi => {
            _proxy = Some(MoxiLikeProxy::start(
                &net,
                service_port,
                backend_ports.clone(),
            ));
        }
    }

    let config = MemcachedLoadConfig {
        port: service_port,
        clients: params.clients,
        duration: params.duration,
        key_space: 1024,
        getk_fraction: 1.0,
        timeout: Duration::from_secs(5),
        seed: None,
    };
    let stats = run_memcached_load(&net, &config);
    let status = _platform
        .as_ref()
        .map(|p| p.shard_status())
        .unwrap_or_default();
    (stats, status)
}

/// Runs the sharding-on/off ablation: the same Memcached workload against
/// a single-shard platform and against each of `shard_counts`, reporting
/// aggregate throughput plus **per-shard** utilization (each shard's share
/// of task executions) and cross-shard steal counts — the per-shard rows
/// make placement imbalance visible instead of hiding it in an aggregate.
pub fn run_sharding_ablation(
    shard_counts: &[usize],
    duration: Duration,
) -> Vec<crate::report::Row> {
    let mut rows = Vec::new();
    for &shards in shard_counts {
        let params = MemcachedExperiment {
            shards,
            clients: 48,
            duration,
            ..Default::default()
        };
        let (stats, status) =
            run_memcached_experiment_sharded(MemcachedSystem::FlickKernel, &params);
        rows.push(crate::report::Row::new(
            shards,
            "sharded",
            stats.requests_per_sec(),
            "req/s",
        ));
        let total_runs: u64 = status.iter().map(|s| s.load.runs).sum();
        for shard in &status {
            rows.push(crate::report::Row::new(
                shards,
                format!("shard{} util", shard.shard),
                100.0 * shard.load.runs as f64 / (total_runs.max(1)) as f64,
                "%",
            ));
        }
        let stolen: u64 = status.iter().map(|s| s.load.stolen_in).sum();
        rows.push(crate::report::Row::new(
            shards,
            "steals",
            stolen as f64,
            "tasks",
        ));
    }
    rows
}

/// Parameters of one Hadoop aggregation experiment point (Figure 6).
#[derive(Debug, Clone)]
pub struct HadoopExperiment {
    /// CPU cores (worker threads) for the aggregator.
    pub cores: usize,
    /// Word length (8, 12 or 16 characters in the paper).
    pub word_len: usize,
    /// Number of mapper connections (8 in the paper).
    pub mappers: usize,
    /// Bytes each mapper sends.
    pub bytes_per_mapper: usize,
    /// Per-mapper link rate (1 Gbps in the paper); `None` disables the cap.
    pub link_bits_per_sec: Option<u64>,
}

impl Default for HadoopExperiment {
    fn default() -> Self {
        HadoopExperiment {
            cores: 4,
            word_len: 8,
            mappers: 4,
            bytes_per_mapper: 512 * 1024,
            link_bits_per_sec: None,
        }
    }
}

/// Runs one Hadoop aggregation point and returns the end-to-end throughput
/// in megabits per second (mapper bytes over wall-clock time to drain).
pub fn run_hadoop_experiment(params: &HadoopExperiment) -> f64 {
    let net = SimNetwork::new(StackModel::Kernel);
    let reducer_port = 9801u16;
    let service_port = 9800u16;
    let (_reducer, reducer_bytes) = start_sink_backend(&net, reducer_port);
    let platform = Platform::with_network(
        PlatformConfig {
            workers: params.cores,
            stack: StackModel::Kernel,
            ..Default::default()
        },
        Arc::clone(&net),
    );
    let _service = platform
        .deploy(
            ServiceSpec::new("hadoop", service_port, hadoop_aggregator(params.mappers))
                .with_backends(vec![reducer_port]),
        )
        .expect("deploy hadoop aggregator");

    let config = HadoopLoadConfig {
        port: service_port,
        mappers: params.mappers,
        word_len: params.word_len,
        distinct_words: 128,
        bytes_per_mapper: params.bytes_per_mapper,
        link_bits_per_sec: params.link_bits_per_sec,
        seed: None,
    };
    let start = Instant::now();
    let stats = run_hadoop_mappers(&net, &config);
    let _ = wait_for_quiescence(&reducer_bytes, Duration::from_secs(30));
    let elapsed = start.elapsed().as_secs_f64();
    stats.bytes as f64 * 8.0 / 1_000_000.0 / elapsed.max(1e-9)
}

/// Parameters of the idle-connection point: a static web service with
/// many connected-but-mostly-idle clients. The dispatcher blocks on
/// readiness events, so the idle population costs nothing and only the
/// active few are paid for — the regime that dominates real middlebox
/// deployments (fig5-style scaling past the paper's core counts).
#[derive(Debug, Clone)]
pub struct IdleConnExperiment {
    /// Total connected clients (idle ones just hold their connection).
    pub connections: usize,
    /// How many of them actively issue requests (closed loop).
    pub active: usize,
    /// Measurement duration.
    pub duration: Duration,
    /// Worker threads for the middlebox.
    pub workers: usize,
}

impl Default for IdleConnExperiment {
    fn default() -> Self {
        IdleConnExperiment {
            connections: 256,
            active: 8,
            duration: Duration::from_millis(400),
            workers: 4,
        }
    }
}

/// Runs one idle-connection point: `connections` clients connect to a
/// FLICK static web server, the first `active` of them issue closed-loop
/// requests, the rest sit idle for the whole run. Returns the request
/// statistics of the active clients.
pub fn run_idle_connections_experiment(params: &IdleConnExperiment) -> RunStats {
    let net = SimNetwork::new(StackModel::Kernel);
    let service_port = 8080u16;
    let platform = Platform::with_network(
        PlatformConfig {
            workers: params.workers,
            stack: StackModel::Kernel,
            ..Default::default()
        },
        Arc::clone(&net),
    );
    let _service = platform
        .deploy(ServiceSpec::new(
            "idle-web",
            service_port,
            StaticWebServerFactory::new(&[b'x'; 137][..]),
        ))
        .expect("deploy static web service");

    // Establish the idle population first so every request of the active
    // clients is dispatched while the watcher set is at full size.
    let idle: Vec<_> = (params.active..params.connections)
        .map(|_| net.connect(service_port).expect("idle client connects"))
        .collect();
    // Give the dispatcher a moment to instantiate all idle graphs.
    std::thread::sleep(Duration::from_millis(50));

    let config = HttpLoadConfig {
        port: service_port,
        concurrency: params.active,
        duration: params.duration,
        persistent: true,
        timeout: Duration::from_secs(5),
        ..Default::default()
    };
    let stats = run_http_load(&net, &config);
    for conn in &idle {
        conn.close();
    }
    stats
}

/// Runs the idle-connection point at the given connection counts and
/// returns figure rows (req/s of the active clients, series `event`),
/// ready for [`crate::print_table`] or the CI baseline file.
pub fn run_idle_connections_series(
    connection_counts: &[usize],
    duration: Duration,
) -> Vec<crate::report::Row> {
    connection_counts
        .iter()
        .map(|&connections| {
            let stats = run_idle_connections_experiment(&IdleConnExperiment {
                connections,
                duration,
                ..Default::default()
            });
            crate::report::Row::new(connections, "event", stats.requests_per_sec(), "req/s")
        })
        .collect()
}

/// Parameters of the e2e loopback TCP experiment: the same static web
/// service deployed twice on one platform — once on a real OS socket
/// (`deploy_tcp`, driven by the blocking loopback client pool) and once on
/// the simulated substrate with the calibrated kernel cost model (driven
/// by the in-process fleet). The pair yields a machine-independent
/// tcp-vs-sim ratio: real kernel sockets against the modelled kernel
/// stack, same dispatcher, same graphs, same worker budget.
#[derive(Debug, Clone)]
pub struct TcpLoopbackExperiment {
    /// Concurrent client connections per run.
    pub concurrency: usize,
    /// Measurement duration per run.
    pub duration: Duration,
    /// Worker threads for the middlebox.
    pub workers: usize,
    /// Shards (per-shard reactors + `SO_REUSEPORT` accept sockets).
    pub shards: usize,
}

impl Default for TcpLoopbackExperiment {
    fn default() -> Self {
        TcpLoopbackExperiment {
            concurrency: 16,
            duration: Duration::from_millis(400),
            workers: 4,
            shards: 1,
        }
    }
}

/// The outcome of one e2e loopback experiment.
#[derive(Debug, Clone)]
pub struct TcpLoopbackResult {
    /// Stats of the real-socket run.
    pub tcp: RunStats,
    /// Stats of the simulated-substrate run (kernel cost model).
    pub sim: RunStats,
}

/// Runs the e2e loopback TCP point: request → kernel socket → event
/// dispatcher → parse → task graph → reply, plus the simulated twin for
/// the within-run ratio gate in `bench_guard`.
pub fn run_tcp_loopback_experiment(params: &TcpLoopbackExperiment) -> TcpLoopbackResult {
    let net = SimNetwork::new(StackModel::Kernel);
    let platform = Platform::with_network(
        PlatformConfig {
            workers: params.workers,
            shards: params.shards,
            stack: StackModel::Kernel,
            ..Default::default()
        },
        Arc::clone(&net),
    );
    let body = &[b'x'; 137][..];
    let tcp_service = platform
        .deploy_tcp(
            ServiceSpec::new("tcp-web", 0, StaticWebServerFactory::new(body)),
            "127.0.0.1:0",
        )
        .expect("deploy loopback TCP service");
    let _sim_service = platform
        .deploy(ServiceSpec::new(
            "sim-web",
            8080,
            StaticWebServerFactory::new(body),
        ))
        .expect("deploy simulated twin");

    let tcp = run_tcp_http_load(
        &format!("127.0.0.1:{}", tcp_service.port()),
        &TcpHttpLoadConfig {
            concurrency: params.concurrency,
            duration: params.duration,
            persistent: true,
            timeout: Duration::from_secs(5),
        },
    );
    let sim = run_http_load(
        &net,
        &HttpLoadConfig {
            port: 8080,
            concurrency: params.concurrency,
            duration: params.duration,
            persistent: true,
            timeout: Duration::from_secs(5),
            ..Default::default()
        },
    );
    TcpLoopbackResult { tcp, sim }
}

/// One point of the kernel-path sharding curve.
#[derive(Debug, Clone)]
pub struct TcpShardingPoint {
    /// Shard count of this run (reactors, accept sockets, dispatchers).
    pub shards: usize,
    /// Closed-loop stats of the real-socket run.
    pub tcp: RunStats,
}

/// Runs the kernel-path sharding curve (the fig5 companion for the OS
/// transport): the same loopback web service at 1, 2, 4, … shards up to
/// `max_shards`, each shard owning its own epoll instance (waited on by
/// its dispatcher) and `SO_REUSEPORT` accept socket. On a single-core host the interesting
/// gate is the *ratio*: sharding the kernel path must not cost throughput
/// even when it cannot win any.
pub fn run_tcp_sharding_curve(
    base: &TcpLoopbackExperiment,
    max_shards: usize,
) -> Vec<TcpShardingPoint> {
    let mut points = Vec::new();
    let mut shards = 1;
    while shards <= max_shards.max(1) {
        let params = TcpLoopbackExperiment {
            shards,
            ..base.clone()
        };
        let result = run_tcp_loopback_experiment(&params);
        points.push(TcpShardingPoint {
            shards,
            tcp: result.tcp,
        });
        shards *= 2;
    }
    points
}

/// Reads this process's open-file limit (soft) from `/proc/self/limits`,
/// falling back to a conservative 1024 when the file is unreadable (e.g.
/// non-Linux hosts).
pub fn max_open_files() -> u64 {
    let Ok(limits) = std::fs::read_to_string("/proc/self/limits") else {
        return 1024;
    };
    limits
        .lines()
        .find(|line| line.starts_with("Max open files"))
        .and_then(|line| line.split_whitespace().nth(3)?.parse().ok())
        .unwrap_or(1024)
}

/// Parameters of the c10k idle+active point: thousands of idle kernel
/// connections pinned open against the event dispatcher while a small
/// closed loop measures throughput.
#[derive(Debug, Clone)]
pub struct TcpC10kExperiment {
    /// Idle connections requested (clamped to the fd budget, see
    /// [`run_tcp_c10k_experiment`]).
    pub idle_connections: usize,
    /// Active closed-loop clients.
    pub concurrency: usize,
    /// Measurement duration of the active loop.
    pub duration: Duration,
    /// Worker threads for the middlebox.
    pub workers: usize,
    /// Shard count.
    pub shards: usize,
}

impl Default for TcpC10kExperiment {
    fn default() -> Self {
        TcpC10kExperiment {
            idle_connections: 10_000,
            concurrency: 8,
            duration: Duration::from_millis(400),
            workers: 2,
            shards: 1,
        }
    }
}

/// The outcome of the c10k point.
#[derive(Debug, Clone)]
pub struct TcpC10kResult {
    /// Idle connections actually requested after fd clamping.
    pub idle_requested: usize,
    /// Idle connections established.
    pub idle_connected: usize,
    /// Idle connections still alive after the active run.
    pub idle_survivors: usize,
    /// The active closed loop's stats.
    pub active: RunStats,
    /// Zero-copy law: ingest copies charged on the kernel path.
    pub ingest_copies: u64,
    /// Writable-interest law: busy retries charged by output tasks.
    pub output_busy_retries: u64,
}

/// Runs the c10k idle+active point over real kernel sockets. Each idle
/// connection costs two fds (client + accepted side) in this process, so
/// the requested count is clamped to `(fd_limit - 500) / 2` — the slack
/// covers the active loop, the reactor's own fds and everything else the
/// process holds open.
pub fn run_tcp_c10k_experiment(params: &TcpC10kExperiment) -> TcpC10kResult {
    let fd_budget = (max_open_files().saturating_sub(500) / 2) as usize;
    let idle_requested = params.idle_connections.min(fd_budget.max(1));
    let platform = Platform::new(PlatformConfig {
        workers: params.workers,
        shards: params.shards,
        stack: StackModel::Kernel,
        ..Default::default()
    });
    let body = &[b'x'; 137][..];
    let service = platform
        .deploy_tcp(
            ServiceSpec::new("c10k-web", 0, StaticWebServerFactory::new(body)),
            "127.0.0.1:0",
        )
        .expect("deploy c10k TCP service");
    let stats = flick_workload::tcp::run_tcp_idle_active_load(
        &format!("127.0.0.1:{}", service.port()),
        &flick_workload::tcp::TcpIdleActiveConfig {
            idle_connections: idle_requested,
            active: TcpHttpLoadConfig {
                concurrency: params.concurrency,
                duration: params.duration,
                persistent: true,
                timeout: Duration::from_secs(10),
            },
        },
    );
    let tcp_stats = platform.tcp_stack().stats().snapshot();
    let runtime = platform.metrics().snapshot();
    TcpC10kResult {
        idle_requested,
        idle_connected: stats.idle_connected,
        idle_survivors: stats.idle_survivors,
        active: stats.active,
        ingest_copies: tcp_stats.ingest_copies,
        output_busy_retries: runtime.output_busy_retries,
    }
}

/// Parameters of the all-TCP load-balancer experiment: kernel clients →
/// TCP-fronted FLICK load balancer → kernel-socket back-ends. No byte of a
/// request or response ever rides the simulated fabric; the simulated twin
/// (same LB graph, simulated clients and back-ends on the kernel cost
/// model) runs on the same platform for a within-run ratio gate.
#[derive(Debug, Clone)]
pub struct TcpLbExperiment {
    /// Concurrent client connections per run.
    pub concurrency: usize,
    /// Measurement duration per run.
    pub duration: Duration,
    /// Worker threads for the middlebox.
    pub workers: usize,
    /// Number of back-end web servers.
    pub backends: usize,
}

impl Default for TcpLbExperiment {
    fn default() -> Self {
        TcpLbExperiment {
            concurrency: 16,
            duration: Duration::from_millis(400),
            workers: 4,
            backends: 4,
        }
    }
}

/// The outcome of one all-TCP load-balancer experiment.
#[derive(Debug, Clone)]
pub struct TcpLbResult {
    /// Stats of the all-TCP run (kernel client → LB → kernel backend).
    pub tcp: RunStats,
    /// Stats of the simulated twin.
    pub sim: RunStats,
    /// Requests each TCP back-end served (hash distribution sanity).
    pub backend_requests: Vec<u64>,
}

/// Runs the all-TCP load-balancer point: every hop of
/// `client → LB → backend` crosses a real kernel socket — the LB's front
/// door is `Platform::deploy_tcp`, its [`flick_runtime::BackendPool`]
/// holds TCP targets — plus the simulated twin for the within-run ratio
/// gate in `bench_guard`.
pub fn run_tcp_lb_experiment(params: &TcpLbExperiment) -> TcpLbResult {
    let net = SimNetwork::new(StackModel::Kernel);
    let platform = Platform::with_network(
        PlatformConfig {
            workers: params.workers,
            stack: StackModel::Kernel,
            ..Default::default()
        },
        Arc::clone(&net),
    );
    let body = &[b'x'; 137][..];

    // The all-TCP leg.
    let tcp_backends: Vec<_> = (0..params.backends)
        .map(|_| start_tcp_http_backend(body))
        .collect();
    let lb = platform
        .deploy_tcp(
            ServiceSpec::new("tcp-lb", 0, HttpLoadBalancerFactory::new())
                .with_tcp_backends(tcp_backends.iter().map(|b| b.addr().to_string()).collect()),
            "127.0.0.1:0",
        )
        .expect("deploy all-TCP load balancer");
    let tcp = run_tcp_http_load(
        &format!("127.0.0.1:{}", lb.port()),
        &TcpHttpLoadConfig {
            concurrency: params.concurrency,
            duration: params.duration,
            persistent: true,
            timeout: Duration::from_secs(5),
        },
    );
    let backend_requests = tcp_backends.iter().map(|b| b.requests_served()).collect();

    // The simulated twin: same graph, kernel cost model end to end.
    let backend_ports: Vec<u16> = (0..params.backends).map(|i| 8200 + i as u16).collect();
    let _sim_backends: Vec<_> = backend_ports
        .iter()
        .map(|p| start_http_backend(&net, *p, body))
        .collect();
    let _sim_lb = platform
        .deploy(
            ServiceSpec::new("sim-lb", 8080, HttpLoadBalancerFactory::new())
                .with_backends(backend_ports),
        )
        .expect("deploy simulated twin");
    let sim = run_http_load(
        &net,
        &HttpLoadConfig {
            port: 8080,
            concurrency: params.concurrency,
            duration: params.duration,
            persistent: true,
            timeout: Duration::from_secs(5),
            ..Default::default()
        },
    );
    TcpLbResult {
        tcp,
        sim,
        backend_requests,
    }
}

/// The result of the §6.4 resource-sharing micro-benchmark (Figure 7).
#[derive(Debug, Clone, Copy)]
pub struct SharingResult {
    /// Wall-clock time until the last *light* task completed.
    pub light_completion: Duration,
    /// Wall-clock time until the last *heavy* task completed.
    pub heavy_completion: Duration,
}

/// Parameters of the resource-sharing micro-benchmark.
#[derive(Debug, Clone)]
pub struct SharingExperiment {
    /// Tasks per class (100 + 100 in the paper).
    pub tasks_per_class: usize,
    /// Data items per task.
    pub items_per_task: usize,
    /// Worker threads.
    pub workers: usize,
}

impl Default for SharingExperiment {
    fn default() -> Self {
        SharingExperiment {
            tasks_per_class: 100,
            items_per_task: 400,
            workers: 2,
        }
    }
}

/// Runs the scheduling-policy micro-benchmark: 50% light tasks (1 KB items)
/// and 50% heavy tasks (16 KB items), returning per-class completion times.
pub fn run_sharing_experiment(
    policy: SchedulingPolicy,
    params: &SharingExperiment,
) -> SharingResult {
    let metrics = RuntimeMetrics::new_shared();
    let scheduler = Scheduler::start(params.workers, policy, metrics);
    let start = Instant::now();
    let light_done: Arc<Mutex<Vec<Duration>>> = Arc::new(Mutex::new(Vec::new()));
    let heavy_done: Arc<Mutex<Vec<Duration>>> = Arc::new(Mutex::new(Vec::new()));
    let mut next_id = 1u64;
    // The heavy class is registered (and therefore queued) first: under the
    // non-cooperative policy completion order then follows scheduling order,
    // which is the effect Figure 7 illustrates.
    for class in 0..2 {
        let (item_size, sink) = if class == 1 {
            (1024, &light_done)
        } else {
            (16 * 1024, &heavy_done)
        };
        for i in 0..params.tasks_per_class {
            let sink = Arc::clone(sink);
            let id = TaskId(next_id);
            next_id += 1;
            scheduler.register(
                id,
                Box::new(SyntheticWorkTask::new(
                    format!("{}-{i}", if class == 1 { "light" } else { "heavy" }),
                    params.items_per_task,
                    item_size,
                    Some(Box::new(move || {
                        sink.lock().push(start.elapsed());
                    })),
                )),
            );
            scheduler.schedule(id);
        }
    }
    assert!(
        scheduler.wait_idle(Duration::from_secs(120)),
        "micro-benchmark stalled"
    );
    let max_of = |v: &Arc<Mutex<Vec<Duration>>>| v.lock().iter().copied().max().unwrap_or_default();
    SharingResult {
        light_completion: max_of(&light_done),
        heavy_completion: max_of(&heavy_done),
    }
}

/// The FLICK program measured by the execution-mode dispatch ablation: a
/// weighted router whose per-message work — a field read, a hash, a
/// 16-step accumulation loop, a modulo route and a send — is typical of
/// compiled service logic and large enough for the engines' dispatch
/// costs to dominate over the call harness.
const DISPATCH_BENCH_SOURCE: &str = "\
type cmd: record
  key : string

proc P: (cmd/cmd client, [cmd/cmd] backends)
  client => target_backend(backends)

fun target_backend: ([-/cmd] backends, req: cmd) -> ()
  let target = hash(req.key) mod len(backends)
  req => backends[target]

fun dispatch: ([-/cmd] outs, req: cmd, weights: [integer]) -> ()
  let h = hash(req.key)
  let acc = 0
  for w in weights:
    acc := ((acc * 31) + w + h) mod 65521
  req => outs[acc mod len(outs)]
";

/// Parameters of the interp-vs-VM dispatch ablation.
#[derive(Debug, Clone)]
pub struct ExecModeDispatchExperiment {
    /// Messages dispatched per engine per pass.
    pub messages: usize,
    /// Entries in the per-message accumulation loop.
    pub weights: usize,
    /// Output channels routed over.
    pub channels: usize,
}

impl Default for ExecModeDispatchExperiment {
    fn default() -> Self {
        ExecModeDispatchExperiment {
            messages: 20_000,
            weights: 48,
            channels: 8,
        }
    }
}

/// Result of [`run_exec_mode_dispatch_experiment`]: per-message dispatch
/// throughput of the tree-walking interpreter and of the bytecode VM over
/// the same lowered program.
#[derive(Debug, Clone)]
pub struct ExecModeDispatchResult {
    /// Messages per second through the interpreter.
    pub interp_msgs_per_sec: f64,
    /// Messages per second through the VM.
    pub vm_msgs_per_sec: f64,
}

/// Measures per-message dispatch cost of the two execution engines on the
/// same lowered FLICK program (`DISPATCH_BENCH_SOURCE`'s `dispatch`
/// function). Both engines see identical arguments per message and their
/// routed sends are checked against each other, so the comparison cannot
/// silently drift semantically. The unit is msg/s: the within-run
/// interp/VM ratio is the guarded quantity (`bench_guard` gates it above
/// 1.0); absolute rates are recorded for context only.
pub fn run_exec_mode_dispatch_experiment(
    params: &ExecModeDispatchExperiment,
) -> ExecModeDispatchResult {
    use flick_compiler::interp::{CollectSink, Interpreter, RtVal};
    use flick_compiler::vm::Vm;
    use flick_runtime::Value;

    let service = flick_compiler::compile_source(
        DISPATCH_BENCH_SOURCE,
        "P",
        &flick_compiler::CompileOptions::default(),
    )
    .expect("bench source compiles");
    let program = Arc::clone(service.program());
    let compiled = Arc::clone(service.compiled());
    let index = program
        .functions
        .iter()
        .position(|f| f.name == "dispatch")
        .expect("dispatch function present");

    let weights: Vec<Value> = (0..params.weights as i64).map(Value::Int).collect();
    let keys: Vec<String> = (0..64).map(|i| format!("key-{i:04}")).collect();
    let args_for = |message: usize| {
        let mut msg = flick_grammar::Message::new("cmd");
        msg.set(
            "key",
            flick_grammar::MsgValue::Str(keys[message % keys.len()].clone()),
        );
        vec![
            RtVal::ChannelArray((0..params.channels).collect()),
            RtVal::Val(Value::Msg(msg)),
            RtVal::Val(Value::List(weights.clone())),
        ]
    };

    // Interpreter pass.
    let interp = Interpreter::new(&program);
    let mut interp_sink = CollectSink::default();
    let interp_start = Instant::now();
    for message in 0..params.messages {
        interp
            .call_function(index, args_for(message), &mut interp_sink)
            .expect("interp dispatch");
    }
    let interp_elapsed = interp_start.elapsed();

    // VM pass over the same message stream.
    let mut cache = compiled.field_offsets.clone();
    let mut vm = Vm::new(&compiled, &mut cache);
    let mut vm_sink = CollectSink::default();
    let vm_start = Instant::now();
    for message in 0..params.messages {
        vm.call_function(index, args_for(message), &mut vm_sink)
            .expect("vm dispatch");
    }
    let vm_elapsed = vm_start.elapsed();

    // Semantic tripwire: both engines must have routed every message to
    // the same channel sequence.
    assert_eq!(
        interp_sink.sent.len(),
        vm_sink.sent.len(),
        "engines dispatched different send counts"
    );
    for (a, b) in interp_sink.sent.iter().zip(&vm_sink.sent) {
        assert_eq!(a.0, b.0, "engines routed a message differently");
    }

    ExecModeDispatchResult {
        interp_msgs_per_sec: params.messages as f64 / interp_elapsed.as_secs_f64().max(1e-9),
        vm_msgs_per_sec: params.messages as f64 / vm_elapsed.as_secs_f64().max(1e-9),
    }
}

/// Parameters of the end-to-end compiled-LB point: the FLICK-compiled
/// HTTP load balancer (not the hand-written factory) deployed over real
/// kernel sockets in VM mode, measured with the closed-loop TCP driver.
#[derive(Debug, Clone)]
pub struct FlickVmLbExperiment {
    /// Concurrent client connections.
    pub concurrency: usize,
    /// Measurement duration.
    pub duration: Duration,
    /// Worker threads for the middlebox.
    pub workers: usize,
    /// Number of back-end web servers.
    pub backends: usize,
}

impl Default for FlickVmLbExperiment {
    fn default() -> Self {
        FlickVmLbExperiment {
            concurrency: 16,
            duration: Duration::from_millis(400),
            workers: 4,
            backends: 4,
        }
    }
}

/// The outcome of the compiled-LB-in-VM-mode experiment.
#[derive(Debug, Clone)]
pub struct FlickVmLbResult {
    /// Stats of the all-TCP run through the compiled balancer.
    pub stats: RunStats,
    /// Requests each TCP back-end served (hash distribution sanity).
    pub backend_requests: Vec<u64>,
}

/// Runs the end-to-end compiled-LB point: `client → FLICK-compiled LB →
/// backend`, every hop over a real kernel socket, with the balancer's
/// routing logic executing on the bytecode VM (the default
/// [`flick_runtime::ExecMode`]). The same shape as
/// [`run_tcp_lb_experiment`]'s TCP leg, but through the whole compiler
/// pipeline instead of the hand-written factory.
pub fn run_flick_vm_lb_experiment(params: &FlickVmLbExperiment) -> FlickVmLbResult {
    let platform = Platform::new(PlatformConfig {
        workers: params.workers,
        stack: StackModel::Kernel,
        ..Default::default()
    });
    let body = &[b'x'; 137][..];
    let service = flick_compiler::compile_source(
        flick_services::http::HTTP_LB_FLICK_SOURCE,
        "HttpBalancer",
        &flick_compiler::CompileOptions::default(),
    )
    .expect("bundled FLICK balancer compiles");
    let tcp_backends: Vec<_> = (0..params.backends)
        .map(|_| start_tcp_http_backend(body))
        .collect();
    let lb = platform
        .deploy_tcp(
            ServiceSpec::new("flick-vm-lb", 0, service)
                .with_tcp_backends(tcp_backends.iter().map(|b| b.addr().to_string()).collect())
                .with_exec_mode(flick_runtime::ExecMode::Vm),
            "127.0.0.1:0",
        )
        .expect("deploy compiled balancer over TCP");
    let stats = run_tcp_http_load(
        &format!("127.0.0.1:{}", lb.port()),
        &TcpHttpLoadConfig {
            concurrency: params.concurrency,
            duration: params.duration,
            persistent: true,
            timeout: Duration::from_secs(5),
        },
    );
    let backend_requests = tcp_backends.iter().map(|b| b.requests_served()).collect();
    FlickVmLbResult {
        stats,
        backend_requests,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sharing_experiment_runs_all_policies() {
        let params = SharingExperiment {
            tasks_per_class: 8,
            items_per_task: 50,
            workers: 2,
        };
        for policy in [
            SchedulingPolicy::Cooperative {
                timeslice: Duration::from_micros(50),
            },
            SchedulingPolicy::NonCooperative,
            SchedulingPolicy::RoundRobin,
        ] {
            let result = run_sharing_experiment(policy, &params);
            assert!(result.light_completion > Duration::ZERO);
            assert!(result.heavy_completion >= result.light_completion / 50);
        }
    }

    #[test]
    fn http_experiment_smoke() {
        let params = HttpExperiment {
            concurrency: 4,
            persistent: true,
            duration: Duration::from_millis(150),
            workers: 2,
            backends: 2,
        };
        let stats = run_http_experiment(HttpSystem::FlickKernel, &params);
        assert!(stats.completed > 0, "{stats:?}");
    }

    #[test]
    fn memcached_experiment_smoke() {
        let params = MemcachedExperiment {
            cores: 2,
            clients: 4,
            backends: 2,
            duration: Duration::from_millis(150),
            ..Default::default()
        };
        let stats = run_memcached_experiment(MemcachedSystem::FlickKernel, &params);
        assert!(stats.completed > 0, "{stats:?}");
    }

    #[test]
    fn idle_connections_experiment_smoke() {
        let params = IdleConnExperiment {
            connections: 16,
            active: 2,
            duration: Duration::from_millis(150),
            workers: 2,
        };
        let stats = run_idle_connections_experiment(&params);
        assert!(stats.completed > 0, "{stats:?}");
    }

    #[test]
    fn tcp_loopback_experiment_smoke() {
        let params = TcpLoopbackExperiment {
            concurrency: 2,
            duration: Duration::from_millis(150),
            workers: 2,
            shards: 1,
        };
        let result = run_tcp_loopback_experiment(&params);
        assert!(result.tcp.completed > 0, "tcp: {:?}", result.tcp);
        assert!(result.sim.completed > 0, "sim: {:?}", result.sim);
    }

    /// Kernel accept sharding end to end at a reduced scale: two shards,
    /// two REUSEPORT accept sockets, requests served through both
    /// reactors' event paths.
    #[test]
    fn tcp_loopback_sharded_smoke() {
        let params = TcpLoopbackExperiment {
            concurrency: 4,
            duration: Duration::from_millis(150),
            workers: 2,
            shards: 2,
        };
        let result = run_tcp_loopback_experiment(&params);
        assert!(result.tcp.completed > 0, "tcp: {:?}", result.tcp);
    }

    /// The c10k runner at a reduced scale: the idle mass must connect,
    /// survive, and leave the zero-copy laws intact.
    #[test]
    fn tcp_c10k_experiment_smoke() {
        let params = TcpC10kExperiment {
            idle_connections: 64,
            concurrency: 2,
            duration: Duration::from_millis(150),
            workers: 2,
            shards: 1,
        };
        let result = run_tcp_c10k_experiment(&params);
        assert_eq!(result.idle_connected, 64, "{result:?}");
        assert_eq!(result.idle_survivors, 64, "{result:?}");
        assert!(result.active.completed > 0, "{result:?}");
        assert_eq!(result.ingest_copies, 0, "{result:?}");
        assert_eq!(result.output_busy_retries, 0, "{result:?}");
    }

    #[test]
    fn fd_limit_parses_on_linux() {
        let limit = max_open_files();
        assert!(limit >= 256, "implausible fd limit {limit}");
    }

    #[test]
    fn tcp_lb_experiment_smoke() {
        let params = TcpLbExperiment {
            concurrency: 2,
            duration: Duration::from_millis(150),
            workers: 2,
            backends: 2,
        };
        let result = run_tcp_lb_experiment(&params);
        assert!(result.tcp.completed > 0, "tcp: {:?}", result.tcp);
        assert!(result.sim.completed > 0, "sim: {:?}", result.sim);
        assert!(
            result.backend_requests.iter().sum::<u64>() > 0,
            "TCP back-ends never saw a request: {:?}",
            result.backend_requests
        );
    }

    #[test]
    fn exec_mode_dispatch_experiment_smoke() {
        let result = run_exec_mode_dispatch_experiment(&ExecModeDispatchExperiment {
            messages: 500,
            weights: 8,
            channels: 4,
        });
        assert!(result.interp_msgs_per_sec > 0.0, "{result:?}");
        assert!(result.vm_msgs_per_sec > 0.0, "{result:?}");
    }

    #[test]
    fn flick_vm_lb_experiment_smoke() {
        let result = run_flick_vm_lb_experiment(&FlickVmLbExperiment {
            concurrency: 2,
            duration: Duration::from_millis(150),
            workers: 2,
            backends: 2,
        });
        assert!(result.stats.completed > 0, "{:?}", result.stats);
        assert!(
            result.backend_requests.iter().sum::<u64>() > 0,
            "compiled LB never reached a TCP back-end: {:?}",
            result.backend_requests
        );
    }

    #[test]
    fn hadoop_experiment_smoke() {
        let params = HadoopExperiment {
            cores: 2,
            word_len: 8,
            mappers: 2,
            bytes_per_mapper: 64 * 1024,
            link_bits_per_sec: None,
        };
        let mbps = run_hadoop_experiment(&params);
        assert!(mbps > 0.0);
    }
}
