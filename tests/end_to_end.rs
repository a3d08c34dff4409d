//! Integration tests spanning the whole stack: FLICK source → compiler →
//! platform → simulated network → workload generators.

use flick::net_substrate::listener::ConnectOptions;
use flick::services::hadoop::hadoop_aggregator;
use flick::services::http::{HttpLoadBalancerFactory, StaticWebServerFactory};
use flick::services::memcached::{memcached_proxy, memcached_router};
use flick::{Flick, Platform, PlatformConfig, ServiceSpec};
use flick_workload::backends::{start_http_backend, start_memcached_backend, start_sink_backend};
use flick_workload::hadoop::{run_hadoop_mappers, wait_for_quiescence, HadoopLoadConfig};
use flick_workload::http::{run_http_load, HttpLoadConfig};
use flick_workload::memcached::{run_memcached_load, MemcachedLoadConfig};
use std::time::Duration;

#[test]
fn listing1_memcached_proxy_end_to_end() {
    let platform = Platform::new(PlatformConfig {
        workers: 2,
        ..Default::default()
    });
    let net = platform.net();
    let backend_ports = vec![11501u16, 11502, 11503];
    let backends: Vec<_> = backend_ports
        .iter()
        .map(|p| start_memcached_backend(&net, *p))
        .collect();
    let _svc = platform
        .deploy(ServiceSpec::new("proxy", 11500, memcached_proxy()).with_backends(backend_ports))
        .unwrap();
    let stats = run_memcached_load(
        &net,
        &MemcachedLoadConfig {
            port: 11500,
            clients: 8,
            duration: Duration::from_millis(400),
            key_space: 256,
            ..Default::default()
        },
    );
    assert!(stats.completed > 50, "{stats:?}");
    assert_eq!(stats.failed, 0);
    // Hash partitioning spreads keys over every backend.
    assert!(backends.iter().all(|b| b.requests_served() > 0));
}

#[test]
fn cache_router_reduces_backend_load() {
    let platform = Platform::new(PlatformConfig {
        workers: 2,
        ..Default::default()
    });
    let net = platform.net();
    let backend = start_memcached_backend(&net, 11601);
    let _svc = platform
        .deploy(ServiceSpec::new("router", 11600, memcached_router()).with_backends(vec![11601]))
        .unwrap();
    let stats = run_memcached_load(
        &net,
        &MemcachedLoadConfig {
            port: 11600,
            clients: 4,
            duration: Duration::from_millis(400),
            key_space: 8, // a tiny key space makes almost every request a cache hit
            ..Default::default()
        },
    );
    assert!(stats.completed > 50, "{stats:?}");
    let backend_requests = backend.requests_served();
    assert!(
        backend_requests * 4 < stats.completed,
        "the router cache should absorb most requests: {backend_requests} backend vs {} total",
        stats.completed
    );
}

#[test]
fn http_lb_and_static_server_serve_traffic() {
    let platform = Platform::new(PlatformConfig {
        workers: 2,
        ..Default::default()
    });
    let net = platform.net();
    let backend_ports = vec![8601u16, 8602];
    let _backends: Vec<_> = backend_ports
        .iter()
        .map(|p| start_http_backend(&net, *p, b"w"))
        .collect();
    let _lb = platform
        .deploy(
            ServiceSpec::new("lb", 8600, HttpLoadBalancerFactory::new())
                .with_backends(backend_ports),
        )
        .unwrap();
    let _web = platform
        .deploy(ServiceSpec::new(
            "web",
            8610,
            StaticWebServerFactory::new(&b"static"[..]),
        ))
        .unwrap();
    for port in [8600u16, 8610] {
        let stats = run_http_load(
            &net,
            &HttpLoadConfig {
                port,
                concurrency: 4,
                duration: Duration::from_millis(300),
                ..Default::default()
            },
        );
        assert!(stats.completed > 10, "port {port}: {stats:?}");
        assert_eq!(stats.failed, 0, "port {port}");
    }
}

/// The zero-copy data plane's regression gate: a full load-balancer run
/// (client → LB → backend → LB → client, framed HTTP both ways) must
/// complete without a single ingest-buffer carry — every message is parsed
/// straight out of the refcounted buffer the socket filled, and completing
/// one is an index bump, not a memcpy.
#[test]
fn shared_buffer_ingest_performs_zero_copies() {
    let platform = Platform::new(PlatformConfig {
        workers: 2,
        ..Default::default()
    });
    let net = platform.net();
    let backend_ports = vec![8701u16, 8702];
    let _backends: Vec<_> = backend_ports
        .iter()
        .map(|p| start_http_backend(&net, *p, b"zero-copy"))
        .collect();
    let _lb = platform
        .deploy(
            ServiceSpec::new("lb", 8700, HttpLoadBalancerFactory::new())
                .with_backends(backend_ports),
        )
        .unwrap();
    let stats = run_http_load(
        &net,
        &HttpLoadConfig {
            port: 8700,
            concurrency: 4,
            duration: Duration::from_millis(300),
            ..Default::default()
        },
    );
    assert!(stats.completed > 10, "{stats:?}");
    assert_eq!(stats.failed, 0);
    // The same invariant helpers the simulation harness applies per tick:
    // conservation laws plus the zero-copy gate, derived in one place.
    let snap = net.stats().snapshot();
    snap.check_conservation().expect("substrate conservation");
    snap.check_zero_copy()
        .expect("the shared-buffer ingest path must not copy");
    platform
        .metrics()
        .snapshot()
        .check_conservation()
        .expect("runtime conservation");
}

/// The writable-interest acceptance gate: a peer that stops reading parks
/// the service's output task on writable readiness. While the peer is
/// stalled the task performs **zero** busy retries and the whole platform
/// goes quiet (no task runs at all); once the peer drains, the response
/// arrives intact.
#[test]
fn stalled_peer_parks_the_output_task_without_busy_retries() {
    let platform = Platform::new(PlatformConfig {
        workers: 2,
        ..Default::default()
    });
    let net = platform.net();
    // A 16 KB response against a 4 KB pipe guarantees the output task hits
    // WouldBlock with most of the response still buffered.
    let _svc = platform
        .deploy(ServiceSpec::new(
            "stall-web",
            8710,
            StaticWebServerFactory::new(vec![b'y'; 16 * 1024]),
        ))
        .unwrap();
    let client = net
        .connect_with(
            8710,
            &ConnectOptions {
                capacity: Some(4 * 1024),
                ..Default::default()
            },
        )
        .unwrap();
    client
        .write_all(b"GET /stall HTTP/1.1\r\nHost: s\r\n\r\n")
        .unwrap();
    // Let the graph build and the output task slam into the full pipe.
    std::thread::sleep(Duration::from_millis(100));
    let before = platform.metrics().snapshot();
    std::thread::sleep(Duration::from_millis(150));
    let after = platform.metrics().snapshot();
    assert_eq!(
        after.output_busy_retries, 0,
        "a stalled peer must park the output task, not spin it"
    );
    assert_eq!(
        after.task_runs, before.task_runs,
        "a parked output task costs zero task runs while the peer stalls"
    );

    // Draining the pipe delivers the rest of the response: the writable
    // wakeup path works end to end.
    let mut response = Vec::new();
    let mut buf = [0u8; 4096];
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while !response.windows(4).any(|w| w == b"yyyy") || response.len() < 16 * 1024 {
        assert!(std::time::Instant::now() < deadline, "response stalled");
        match client.read_timeout(&mut buf, Duration::from_secs(5)) {
            Ok(n) => response.extend_from_slice(&buf[..n]),
            Err(e) => panic!("drain failed after {} bytes: {e}", response.len()),
        }
    }
    assert!(String::from_utf8_lossy(&response).starts_with("HTTP/1.1 200 OK"));
    client.close();
}

#[test]
fn listing3_hadoop_aggregation_reduces_traffic() {
    let platform = Platform::new(PlatformConfig {
        workers: 4,
        ..Default::default()
    });
    let net = platform.net();
    let (_reducer, reducer_bytes) = start_sink_backend(&net, 9901);
    let _svc = platform
        .deploy(ServiceSpec::new("hadoop", 9900, hadoop_aggregator(3)).with_backends(vec![9901]))
        .unwrap();
    let stats = run_hadoop_mappers(
        &net,
        &HadoopLoadConfig {
            port: 9900,
            mappers: 3,
            word_len: 12,
            distinct_words: 50,
            bytes_per_mapper: 128 * 1024,
            link_bits_per_sec: None,
            seed: None,
        },
    );
    assert_eq!(stats.failed, 0);
    let forwarded = wait_for_quiescence(&reducer_bytes, Duration::from_secs(10));
    assert!(forwarded > 0);
    assert!(
        forwarded < stats.bytes / 2,
        "aggregation must reduce traffic: {} -> {forwarded}",
        stats.bytes
    );
    // The foldt task is slower than the mappers' input tasks, so their
    // channels run full. A producer parks on a full channel until it has
    // drained to half capacity instead of being re-queued at once, so
    // task runs stay well below one per record. Runs that ended because
    // the timeslice expired are left out: their number follows the wall
    // clock (a loaded host preempts more), while a re-queue on a full
    // channel never counts as a yield.
    let runtime = platform.metrics().snapshot();
    let runs = runtime.task_runs - runtime.cooperative_yields;
    let runs_per_record = runs as f64 / runtime.messages_in.max(1) as f64;
    assert!(
        runs_per_record < 0.5,
        "{runs} task runs (beyond {} yields) for {} records ({runs_per_record:.2} per record)",
        runtime.cooperative_yields,
        runtime.messages_in
    );
    runtime.check_conservation().unwrap();
}

#[test]
fn facade_compiles_and_runs_custom_program() {
    let flick = Flick::new(PlatformConfig {
        workers: 2,
        ..Default::default()
    });
    let program = r#"
type frame: record
  kind : integer {signed=false, size=1}
  len : integer {signed=false, size=2}
  body : string {size=len}

proc Mirror: (frame/frame client)
  client => client
"#;
    let _svc = flick.run_program(program, "Mirror", 9950, &[]).unwrap();
    let client = flick.net().connect(9950).unwrap();
    client.write_all(&[3u8, 0, 2, b'o', b'k']).unwrap();
    let mut buf = [0u8; 5];
    client
        .read_exact_timeout(&mut buf, Duration::from_secs(5))
        .unwrap();
    assert_eq!(&buf, &[3u8, 0, 2, b'o', b'k']);
}
