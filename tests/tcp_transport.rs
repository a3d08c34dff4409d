//! Loopback integration suite for the OS socket transport.
//!
//! Everything here runs over real kernel TCP on `127.0.0.1` with port-0
//! binds (the OS picks a free ephemeral port, so the suite is safe to run
//! repeatedly and in parallel with other processes). CI runs it as a
//! dedicated single-threaded step.
//!
//! Covered:
//!
//! * accept → parse → task graph → backend → reply, end to end on the
//!   event backend, with **zero** endpoint scans while idle (the
//!   acceptance bar of the OS transport);
//! * partial reads/writes: bodies far larger than a socket buffer;
//! * EOF teardown driven by `watch_exit` task-exit events;
//! * a real-socket port of the `stress_no_lost_wakeups` poller stress and
//!   of the cross-poller registration handoff stress;
//! * the dispatcher-driven `epoll_wait` (DESIGN.md §3): no reactor thread,
//!   no self-pipe poke per keep-alive request, no lost cross-thread post,
//!   no kernel event starved behind posts, no fd outliving its platform.

use flick::net_substrate::{Interest, NetError, Poller, Readiness, StackModel, TcpStack, Token};
use flick::services::http::{HttpLoadBalancerFactory, StaticWebServerFactory};
use flick::{Platform, PlatformConfig, ServiceSpec};
use flick_workload::backends::start_tcp_http_backend;
use flick_workload::tcp::{fetch_http, run_tcp_http_load, TcpHttpLoadConfig};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn tcp_platform(workers: usize, shards: usize) -> Platform {
    // CI runs the whole suite a second time with FLICK_TEST_SHARDS=2 so
    // every test also exercises the sharded kernel path (one epoll set and
    // one SO_REUSEPORT accept socket per shard) without a second copy of
    // the test file. Tests must therefore derive shard-dependent
    // assertions from `Platform::shard_count`, not their requested value.
    let shards = std::env::var("FLICK_TEST_SHARDS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(shards);
    Platform::new(PlatformConfig {
        workers,
        shards,
        ..Default::default()
    })
}

fn deploy_web(platform: &Platform, body: &'static [u8]) -> flick::runtime_crate::DeployedService {
    platform
        .deploy_tcp(
            ServiceSpec::new("tcp-web", 0, StaticWebServerFactory::new(body)),
            "127.0.0.1:0",
        )
        .expect("deploy over a loopback socket")
}

/// A raw `std::net` client issues an HTTP request against the deployed
/// service; the response must round-trip through parse → task graph →
/// reply, and the idle service must perform zero endpoint scans.
#[test]
fn http_request_round_trips_over_a_real_socket() {
    let platform = tcp_platform(2, 1);
    let service = deploy_web(&platform, b"hello over real tcp");
    let addr = format!("127.0.0.1:{}", service.port());

    let mut stream = TcpStream::connect(&addr).expect("kernel connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    for i in 0..3 {
        stream
            .write_all(format!("GET /{i} HTTP/1.1\r\nHost: t\r\n\r\n").as_bytes())
            .unwrap();
        let mut response = Vec::new();
        let mut buf = [0u8; 1024];
        while !response.windows(19).any(|w| w == b"hello over real tcp") {
            let n = stream.read(&mut buf).expect("read response");
            assert!(n > 0, "server closed mid-response");
            response.extend_from_slice(&buf[..n]);
        }
        let text = String::from_utf8_lossy(&response);
        assert!(text.starts_with("HTTP/1.1 200 OK"), "got: {text}");
    }
    assert_eq!(service.connections_accepted(), 1);
    assert_eq!(service.live_graphs(), 1);

    // The idle-scan property extends to OS traffic: while the connected
    // client stays silent, the event dispatcher touches nothing.
    std::thread::sleep(Duration::from_millis(20));
    let stack = platform.tcp_stack();
    let stats = stack.stats();
    let before = stats.snapshot();
    let runs_before = platform.metrics().snapshot().task_runs;
    std::thread::sleep(Duration::from_millis(100));
    let after = stats.snapshot();
    let runs_after = platform.metrics().snapshot().task_runs;
    assert_eq!(
        after.read_calls, before.read_calls,
        "idle event dispatcher must not issue reads on OS endpoints"
    );
    assert_eq!(
        runs_after, runs_before,
        "idle event dispatcher must not run tasks"
    );
}

/// Bodies larger than any socket buffer force partial reads and writes on
/// both sides of the middlebox.
#[test]
fn large_bodies_survive_partial_reads_and_writes() {
    const BODY: usize = 1 << 20; // 1 MiB response body.
    static BIG: std::sync::OnceLock<Vec<u8>> = std::sync::OnceLock::new();
    let body = BIG.get_or_init(|| vec![b'z'; BODY]);

    let platform = tcp_platform(2, 1);
    let service = platform
        .deploy_tcp(
            ServiceSpec::new("tcp-big", 0, StaticWebServerFactory::new(&body[..])),
            "127.0.0.1:0",
        )
        .unwrap();
    let addr = format!("127.0.0.1:{}", service.port());

    let mut stream = TcpStream::connect(&addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream
        .write_all(b"GET /big HTTP/1.1\r\nHost: t\r\n\r\n")
        .unwrap();
    let mut response = Vec::new();
    let mut buf = [0u8; 64 * 1024];
    let deadline = Instant::now() + Duration::from_secs(30);
    while response.len() < BODY {
        assert!(Instant::now() < deadline, "response stalled");
        let n = stream.read(&mut buf).expect("read");
        assert!(n > 0, "early EOF after {} bytes", response.len());
        response.extend_from_slice(&buf[..n]);
    }
    // Everything after the header must be the body, unbroken.
    let header_end = response
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .expect("header terminator")
        + 4;
    let deadline = Instant::now() + Duration::from_secs(30);
    while response.len() < header_end + BODY {
        assert!(Instant::now() < deadline, "body stalled");
        let n = stream.read(&mut buf).expect("read body tail");
        assert!(n > 0);
        response.extend_from_slice(&buf[..n]);
    }
    assert!(response[header_end..header_end + BODY]
        .iter()
        .all(|&b| b == b'z'));
}

/// Closing the client socket drives EOF through the input task; the
/// `watch_exit` chain must tear the graph down without any polling.
#[test]
fn client_eof_tears_the_graph_down() {
    let platform = tcp_platform(2, 1);
    let service = deploy_web(&platform, b"short");
    let addr = format!("127.0.0.1:{}", service.port());

    let mut stream = TcpStream::connect(&addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    stream
        .write_all(b"GET / HTTP/1.1\r\nHost: t\r\n\r\n")
        .unwrap();
    let mut buf = [0u8; 1024];
    let n = stream.read(&mut buf).unwrap();
    assert!(n > 0);
    assert_eq!(service.live_graphs(), 1);

    drop(stream); // FIN: the input task reads EOF and exits.
    let deadline = Instant::now() + Duration::from_secs(5);
    while service.live_graphs() > 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(1));
    }
    assert_eq!(
        service.live_graphs(),
        0,
        "graph must be destroyed after the kernel delivers EOF"
    );
}

/// Connections land on every shard: the placement path (accept on the home
/// shard, build via the target shard's inbox, register with the target's
/// poller) works when the bytes come from the kernel.
#[test]
fn connections_are_served_across_shards_over_tcp() {
    let platform = tcp_platform(4, 4);
    let service = deploy_web(&platform, b"sharded tcp");
    let addr = format!("127.0.0.1:{}", service.port());

    let mut streams: Vec<TcpStream> = (0..8)
        .map(|_| {
            let s = TcpStream::connect(&addr).unwrap();
            s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
            s
        })
        .collect();
    for (i, s) in streams.iter_mut().enumerate() {
        s.write_all(format!("GET /{i} HTTP/1.1\r\nHost: t\r\n\r\n").as_bytes())
            .unwrap();
    }
    for s in &mut streams {
        let mut buf = [0u8; 1024];
        let n = s.read(&mut buf).expect("every shard answers");
        assert!(n > 0);
    }
    let status = platform.shard_status();
    assert_eq!(status.len(), platform.shard_count());
    assert!(
        status.iter().all(|s| s.graphs_built >= 1),
        "round-robin placement must reach every shard: {status:?}"
    );
}

/// A service whose graph spans several connections (the wordcount
/// aggregator: one graph per pair of mappers) must form its graphs on a
/// sharded platform. Each shard groups only the connections it accepted
/// itself, so the platform gives such a service one accept socket rather
/// than one per shard: with per-shard sockets, two mappers the kernel
/// hashed to different shards would each wait forever for a partner.
/// Every round must deliver the exact word totals to the reducer.
#[test]
fn multi_connection_graphs_form_under_accept_sharding() {
    use flick::grammar::hadoop::{count_kv, HadoopKvCodec};
    use flick::grammar::WireCodec;
    use std::collections::BTreeMap;
    use std::net::TcpListener;

    const ROUND_TIMEOUT: Duration = Duration::from_secs(5);
    let platform = Platform::new(PlatformConfig {
        workers: 2,
        shards: 2,
        ..Default::default()
    });
    let reducer = TcpListener::bind("127.0.0.1:0").unwrap();
    reducer.set_nonblocking(true).unwrap();
    let spec = ServiceSpec::new(
        "wordcount",
        0,
        flick::services::hadoop::hadoop_aggregator(2),
    )
    .with_tcp_backends(vec![reducer.local_addr().unwrap().to_string()]);
    let service = platform.deploy_tcp(spec, "127.0.0.1:0").unwrap();
    let addr = format!("127.0.0.1:{}", service.port());
    let codec = HadoopKvCodec::new();

    for round in 0..8u64 {
        // Two mapper streams over a small vocabulary; the expected totals
        // are their per-word sums.
        let mut expected: BTreeMap<String, u64> = BTreeMap::new();
        let streams: Vec<Vec<u8>> = (0..2u64)
            .map(|mapper| {
                let mut bytes = Vec::new();
                for i in 0..200u64 {
                    let word = format!("w{}", (i * 7 + mapper + round) % 23);
                    let count = 1 + (i + mapper * 3 + round) % 9;
                    *expected.entry(word.clone()).or_insert(0) += count;
                    codec
                        .serialize(&count_kv(&word, count), &mut bytes)
                        .unwrap();
                }
                bytes
            })
            .collect();
        let mappers: Vec<_> = streams
            .into_iter()
            .map(|bytes| {
                let addr = addr.clone();
                std::thread::spawn(move || {
                    let mut conn = TcpStream::connect(&addr).expect("mapper connects");
                    conn.write_all(&bytes).expect("mapper sends");
                })
            })
            .collect();
        for mapper in mappers {
            mapper.join().expect("mapper thread");
        }

        // The aggregator opens its reducer connection when the graph
        // forms; the round fails if that never happens.
        let deadline = Instant::now() + ROUND_TIMEOUT;
        let mut conn = loop {
            match reducer.accept() {
                Ok((conn, _)) => break conn,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    assert!(
                        Instant::now() < deadline,
                        "round {round}: the two mapper connections never formed a graph"
                    );
                    std::thread::sleep(Duration::from_millis(1));
                }
                Err(e) => panic!("round {round}: reducer accept: {e}"),
            }
        };
        conn.set_nonblocking(false).unwrap();
        conn.set_read_timeout(Some(Duration::from_millis(50)))
            .unwrap();
        let mut totals: BTreeMap<String, u64> = BTreeMap::new();
        let mut buf = Vec::new();
        let mut chunk = [0u8; 4096];
        while totals != expected {
            assert!(
                Instant::now() < deadline,
                "round {round}: reducer totals {totals:?} never reached {expected:?}"
            );
            match conn.read(&mut chunk) {
                Ok(0) => panic!("round {round}: reducer stream ended at totals {totals:?}"),
                Ok(n) => buf.extend_from_slice(&chunk[..n]),
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ) => {}
                Err(e) => panic!("round {round}: reducer read: {e}"),
            }
            // Records are `key_len: u32 BE, value_len: u32 BE, key, value`.
            while buf.len() >= 8 {
                let klen = u32::from_be_bytes(buf[0..4].try_into().unwrap()) as usize;
                let vlen = u32::from_be_bytes(buf[4..8].try_into().unwrap()) as usize;
                if buf.len() < 8 + klen + vlen {
                    break;
                }
                let key = String::from_utf8(buf[8..8 + klen].to_vec()).unwrap();
                let value = std::str::from_utf8(&buf[8 + klen..8 + klen + vlen]).unwrap();
                *totals.entry(key).or_insert(0) += value.parse::<u64>().unwrap();
                buf.drain(..8 + klen + vlen);
            }
        }
    }
}

/// The blocking loopback workload driver measures real throughput and
/// latency against the platform.
#[test]
fn tcp_workload_driver_measures_the_service() {
    let platform = tcp_platform(2, 1);
    let service = deploy_web(&platform, b"bench me");
    let addr = format!("127.0.0.1:{}", service.port());

    let stats = run_tcp_http_load(
        &addr,
        &TcpHttpLoadConfig {
            concurrency: 4,
            duration: Duration::from_millis(300),
            persistent: true,
            timeout: Duration::from_secs(5),
        },
    );
    assert!(stats.completed > 10, "expected real throughput: {stats:?}");
    assert!(stats.latency.mean > Duration::ZERO);
    assert!(service.connections_accepted() >= 4);

    // The one-shot helper (the curl-style smoke of the README).
    let response = fetch_http(&addr, "/smoke", Duration::from_secs(5)).expect("fetch");
    assert!(String::from_utf8_lossy(&response).starts_with("HTTP/1.1 200 OK"));
}

/// The all-TCP data path: kernel clients → TCP-fronted load balancer →
/// kernel-socket back-ends, with the LB's `BackendPool` holding TCP
/// targets. Every hop crosses real sockets, the hash spreads connections
/// over the back-ends, and the shared-buffer ingest path performs zero
/// copies on kernel traffic too.
#[test]
fn all_tcp_lb_path_serves_with_zero_ingest_copies() {
    let backends: Vec<_> = (0..3)
        .map(|_| start_tcp_http_backend(b"lb-over-tcp"))
        .collect();
    let platform = tcp_platform(2, 1);
    let service = platform
        .deploy_tcp(
            ServiceSpec::new("tcp-lb", 0, HttpLoadBalancerFactory::new())
                .with_tcp_backends(backends.iter().map(|b| b.addr().to_string()).collect()),
            "127.0.0.1:0",
        )
        .expect("deploy the all-TCP load balancer");
    let addr = format!("127.0.0.1:{}", service.port());

    // The curl-style smoke first: one request end to end through the
    // kernel, forwarded to a kernel back-end and back.
    let response = fetch_http(&addr, "/smoke", Duration::from_secs(5)).expect("smoke");
    let text = String::from_utf8_lossy(&response);
    assert!(text.starts_with("HTTP/1.1 200 OK"), "{text}");
    assert!(text.contains("lb-over-tcp"), "{text}");

    let stats = run_tcp_http_load(
        &addr,
        &TcpHttpLoadConfig {
            concurrency: 4,
            duration: Duration::from_millis(300),
            persistent: true,
            timeout: Duration::from_secs(5),
        },
    );
    assert!(stats.completed > 10, "{stats:?}");
    let served: Vec<u64> = backends.iter().map(|b| b.requests_served()).collect();
    assert!(
        served.iter().filter(|s| **s > 0).count() >= 2,
        "the TCP backend pool must spread connections: {served:?}"
    );
    let snap = platform.tcp_stack().stats().snapshot();
    assert_eq!(
        snap.ingest_copies, 0,
        "the shared-buffer ingest path must not copy on kernel sockets \
         ({} events, {} bytes)",
        snap.ingest_copies, snap.ingest_copied_bytes
    );
}

/// Writable parking over real sockets: a kernel client that stops reading
/// fills the socket buffers, the service's output task parks on
/// `EPOLLOUT` interest — zero busy retries and a quiet platform while the
/// peer stalls — and the response completes once the client drains.
#[test]
fn stalled_tcp_peer_parks_the_output_task() {
    const BODY: usize = 4 << 20; // Far beyond loopback socket buffering.
    static BIG: std::sync::OnceLock<Vec<u8>> = std::sync::OnceLock::new();
    let body = BIG.get_or_init(|| vec![b'w'; BODY]);

    let platform = tcp_platform(2, 1);
    let service = platform
        .deploy_tcp(
            ServiceSpec::new("tcp-stall", 0, StaticWebServerFactory::new(&body[..])),
            "127.0.0.1:0",
        )
        .unwrap();
    let addr = format!("127.0.0.1:{}", service.port());

    let mut stream = TcpStream::connect(&addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream
        .write_all(b"GET /stall HTTP/1.1\r\nHost: s\r\n\r\n")
        .unwrap();
    // Let the output task fill the kernel buffers and hit EAGAIN.
    std::thread::sleep(Duration::from_millis(200));
    let before = platform.metrics().snapshot();
    std::thread::sleep(Duration::from_millis(150));
    let after = platform.metrics().snapshot();
    assert_eq!(
        after.output_busy_retries, 0,
        "a stalled kernel peer must park the output task, not spin it"
    );
    assert_eq!(
        after.task_runs, before.task_runs,
        "a parked output task costs zero task runs while the peer stalls"
    );

    // Drain: the EPOLLOUT wakeups resume the flush until the full body
    // has crossed the socket.
    let mut got = 0usize;
    let mut buf = [0u8; 64 * 1024];
    let deadline = Instant::now() + Duration::from_secs(30);
    while got < BODY {
        assert!(Instant::now() < deadline, "drain stalled at {got} bytes");
        let n = stream.read(&mut buf).expect("drain");
        assert!(n > 0, "early EOF at {got} bytes");
        got += n;
    }
}

/// Malformed frames over real kernel sockets (the fuzz corpus's greatest
/// hits, replayed byte-for-byte through the OS transport): an oversized
/// `Content-Length` declaration, a spliced frame fusing two heads, and a
/// truncated head followed by FIN. Each poison must cost exactly its own
/// connection — the server closes the offender without answering and
/// records the malformed close — and a clean sibling request on a fresh
/// connection must succeed immediately after every one.
#[test]
fn malformed_frames_cost_only_their_own_connection() {
    let platform = tcp_platform(2, 1);
    let service = deploy_web(&platform, b"still alive");
    let addr = format!("127.0.0.1:{}", service.port());
    let stack = platform.tcp_stack();
    let stats = stack.stats();

    let read_until_close = |stream: &mut TcpStream| -> Vec<u8> {
        let mut all = Vec::new();
        let mut buf = [0u8; 4096];
        loop {
            match stream.read(&mut buf) {
                Ok(0) => break,
                Ok(n) => all.extend_from_slice(&buf[..n]),
                Err(_) => break, // an RST after the server's close is a close too
            }
        }
        all
    };
    let wait_for_malformed = |at_least: u64| {
        let deadline = Instant::now() + Duration::from_secs(5);
        while stats.snapshot().malformed_closes < at_least {
            assert!(
                Instant::now() < deadline,
                "malformed close never recorded: {} < {at_least}",
                stats.snapshot().malformed_closes
            );
            std::thread::sleep(Duration::from_millis(1));
        }
    };
    let sibling_still_served = || {
        let response = fetch_http(&addr, "/ok", Duration::from_secs(5)).expect("sibling");
        let text = String::from_utf8_lossy(&response);
        assert!(text.starts_with("HTTP/1.1 200 OK"), "{text}");
        assert!(text.contains("still alive"), "{text}");
    };

    // 1. Oversized declaration: 16 GiB against the 16 MiB body cap. The
    //    limit check fires on the declared size, long before any body
    //    byte arrives, so nothing gets buffered.
    let mut stream = TcpStream::connect(&addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    stream
        .write_all(b"POST /huge HTTP/1.1\r\nHost: t\r\nContent-Length: 17179869184\r\n\r\n")
        .unwrap();
    let leaked = read_until_close(&mut stream);
    assert!(
        leaked.is_empty(),
        "server answered an oversized declaration: {:?}",
        String::from_utf8_lossy(&leaked)
    );
    wait_for_malformed(1);
    sibling_still_served();

    // 2. Spliced frame: a partial head with a second complete request
    //    fused onto it ("GEGET /…" is no method). The splice is only
    //    detectable once the head terminator lands — incremental
    //    reassembly must carry the poison across the two writes.
    let mut stream = TcpStream::connect(&addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    stream.write_all(b"GE").unwrap();
    stream
        .write_all(b"GET /spliced HTTP/1.1\r\nHost: t\r\n\r\n")
        .unwrap();
    let leaked = read_until_close(&mut stream);
    assert!(
        leaked.is_empty(),
        "server answered a spliced frame: {:?}",
        String::from_utf8_lossy(&leaked)
    );
    wait_for_malformed(2);
    sibling_still_served();

    // 3. Truncated head, then FIN. No verdict is possible — the bytes so
    //    far are a legal prefix — so this is not a malformed close; the
    //    server just owes a leak-free teardown of the half-parsed graph.
    let before_graphs = service.live_graphs();
    let stream = {
        let mut s = TcpStream::connect(&addr).unwrap();
        s.write_all(b"GET /cut HTTP/1.1\r\nHo").unwrap();
        s
    };
    drop(stream); // FIN mid-head.
    let deadline = Instant::now() + Duration::from_secs(5);
    while service.live_graphs() > before_graphs && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(1));
    }
    assert!(
        service.live_graphs() <= before_graphs,
        "truncated-head graph leaked"
    );
    sibling_still_served();

    assert_eq!(
        stats.snapshot().malformed_closes,
        2,
        "exactly the two poisoned connections may be flagged"
    );
}

/// Real-socket port of the poller `stress_no_lost_wakeups` test: writer
/// threads race closers over kernel TCP while one consumer drains via
/// readiness events. A lost kernel edge shows up as a timeout.
#[test]
fn stress_no_lost_wakeups_over_tcp() {
    const WRITERS: usize = 4;
    const BYTES_PER_WRITER: usize = 256 * 1024;

    let stack = TcpStack::new(StackModel::Free);
    let listener = stack.listen("127.0.0.1:0").unwrap();
    let addr = format!("127.0.0.1:{}", listener.port());
    let poller = Poller::new();
    let mut readers = Vec::new();
    let mut handles = Vec::new();
    for i in 0..WRITERS {
        let client = stack.connect(&addr).unwrap();
        let server = listener
            .accept_timeout(Duration::from_secs(5))
            .expect("accept");
        server.register(&poller, Token(i as u64), Interest::READABLE);
        readers.push(server);
        handles.push(std::thread::spawn(move || {
            let chunk = [0x5au8; 997];
            let mut sent = 0usize;
            while sent < BYTES_PER_WRITER {
                let n = (BYTES_PER_WRITER - sent).min(chunk.len());
                client.write_all(&chunk[..n]).expect("peer stays open");
                sent += n;
            }
            client.close();
        }));
    }

    let mut received = vec![0usize; WRITERS];
    let mut eof = vec![false; WRITERS];
    let mut buf = [0u8; 8192];
    let deadline = Instant::now() + Duration::from_secs(60);
    while eof.iter().any(|done| !done) {
        assert!(
            Instant::now() < deadline,
            "lost wakeup: received {received:?}, eof {eof:?}"
        );
        for event in poller.wait(Duration::from_millis(100)) {
            let idx = event.token.0 as usize;
            loop {
                match readers[idx].read(&mut buf) {
                    Ok(n) => received[idx] += n,
                    Err(NetError::WouldBlock) => break,
                    Err(NetError::Closed) => {
                        eof[idx] = true;
                        break;
                    }
                    Err(e) => panic!("unexpected error: {e}"),
                }
            }
        }
    }
    for (i, handle) in handles.into_iter().enumerate() {
        handle.join().unwrap();
        assert_eq!(received[i], BYTES_PER_WRITER, "writer {i}");
    }
}

/// Regression for the close-path ordering in the reactor: rapid
/// connect → register → close churn recycles fds (and epoll userdata)
/// while readable events for the dead registrations may still be in
/// flight inside the reactor's batch. The generation guard must drop
/// those stale events instead of attributing them to whoever owns the
/// recycled fd now, and a healthy long-lived connection sharing the
/// poller must come through the churn with exact byte delivery and no
/// spurious teardown.
#[test]
fn close_churn_does_not_poison_recycled_fd_tokens() {
    const CHURN_ROUNDS: u64 = 200;

    let stack = TcpStack::new(StackModel::Free);
    let listener = stack.listen("127.0.0.1:0").unwrap();
    let addr = format!("127.0.0.1:{}", listener.port());
    let poller = Poller::new();

    // The long-lived victim connection, registered before the churn.
    let victim_client = stack.connect(&addr).unwrap();
    let victim = listener.accept_timeout(Duration::from_secs(5)).unwrap();
    victim.register(&poller, Token(1), Interest::READABLE);

    for round in 0..CHURN_ROUNDS {
        let client = stack.connect(&addr).unwrap();
        let server = listener.accept_timeout(Duration::from_secs(5)).unwrap();
        server.register(&poller, Token(1000 + round), Interest::READABLE);
        // Make the registration hot: bytes in flight mean the reactor
        // very likely has (or is about to batch) an event for this fd at
        // the moment it closes.
        client.write_all(b"burst").unwrap();
        server.close();
        client.close();
    }

    // The victim still works end to end: its bytes arrive under its own
    // token and it never observes a close it did not cause.
    let payload = b"alive after churn";
    victim_client.write_all(payload).unwrap();
    let mut got = 0usize;
    let mut buf = [0u8; 1024];
    let deadline = Instant::now() + Duration::from_secs(10);
    while got < payload.len() {
        assert!(
            Instant::now() < deadline,
            "victim starved after fd churn: {got} of {} bytes",
            payload.len()
        );
        for event in poller.wait(Duration::from_millis(100)) {
            if event.token != Token(1) {
                // Stragglers from churned registrations are legal
                // (posted before their close); reading them is not
                // possible — their endpoints are gone — but they must
                // not carry the victim's token.
                continue;
            }
            assert!(
                !event.readiness.closed,
                "victim saw a spurious close after fd churn"
            );
            loop {
                match victim.read(&mut buf) {
                    Ok(n) => got += n,
                    Err(NetError::WouldBlock) => break,
                    Err(e) => panic!("victim broken after churn: {e}"),
                }
            }
        }
    }
    assert_eq!(got, payload.len());
}

/// Event-batch draining stress: more concurrently readable sockets than
/// one `epoll_wait` batch can carry (`MAX_EVENTS` = 256 in the reactor).
/// Several write rounds land on every connection at once, then an EOF
/// round; exact per-token byte counts prove no event was lost and no
/// bytes were double-delivered across the multi-batch drain.
#[test]
fn event_batches_beyond_max_events_lose_nothing() {
    const CONNS: usize = 300; // > the reactor's 256-event batch.
    const ROUNDS: usize = 3;
    const CHUNK: usize = 512;

    let stack = TcpStack::new(StackModel::Free);
    let listener = stack.listen("127.0.0.1:0").unwrap();
    let addr = format!("127.0.0.1:{}", listener.port());
    let poller = Poller::new();

    let mut clients = Vec::with_capacity(CONNS);
    let mut servers = Vec::with_capacity(CONNS);
    for i in 0..CONNS {
        let client = stack.connect(&addr).unwrap();
        let server = listener
            .accept_timeout(Duration::from_secs(5))
            .expect("accept");
        server.register(&poller, Token(i as u64), Interest::READABLE);
        clients.push(client);
        servers.push(server);
    }

    let mut received = vec![0usize; CONNS];
    let mut eof = vec![false; CONNS];
    let mut buf = [0u8; 8192];
    let mut drain = |received: &mut [usize], eof: &mut [bool], target: usize, label: &str| {
        let deadline = Instant::now() + Duration::from_secs(60);
        while received.iter().any(|n| *n < target) {
            assert!(
                Instant::now() < deadline,
                "{label}: starved with counts {:?}",
                received
                    .iter()
                    .enumerate()
                    .filter(|(_, n)| **n < target)
                    .collect::<Vec<_>>()
            );
            for event in poller.wait(Duration::from_millis(100)) {
                let idx = event.token.0 as usize;
                loop {
                    match servers[idx].read(&mut buf) {
                        Ok(n) => received[idx] += n,
                        Err(NetError::WouldBlock) => break,
                        Err(NetError::Closed) => {
                            eof[idx] = true;
                            break;
                        }
                        Err(e) => panic!("unexpected error: {e}"),
                    }
                }
            }
        }
    };

    for round in 0..ROUNDS {
        // Every socket becomes readable at once: the reactor must spread
        // the burst over multiple epoll batches without dropping any.
        let fill = [round as u8; CHUNK];
        for client in &clients {
            client.write_all(&fill).unwrap();
        }
        drain(&mut received, &mut eof, (round + 1) * CHUNK, "write round");
    }
    for (i, n) in received.iter().enumerate() {
        assert_eq!(*n, ROUNDS * CHUNK, "conn {i}: double or lost delivery");
    }

    // The EOF burst: every close must surface exactly once.
    for client in &clients {
        client.close();
    }
    let deadline = Instant::now() + Duration::from_secs(60);
    while eof.iter().any(|done| !done) {
        assert!(
            Instant::now() < deadline,
            "lost EOF: {} of {CONNS} observed",
            eof.iter().filter(|done| **done).count()
        );
        for event in poller.wait(Duration::from_millis(100)) {
            let idx = event.token.0 as usize;
            loop {
                match servers[idx].read(&mut buf) {
                    Ok(n) => received[idx] += n,
                    Err(NetError::WouldBlock) => break,
                    Err(NetError::Closed) => {
                        eof[idx] = true;
                        break;
                    }
                    Err(e) => panic!("unexpected error: {e}"),
                }
            }
        }
    }
    for (i, n) in received.iter().enumerate() {
        assert_eq!(*n, ROUNDS * CHUNK, "conn {i}: bytes appeared after EOF");
    }
}

/// Real-socket port of the cross-poller handoff stress: while a writer
/// races at full speed, the consumer repeatedly re-registers the socket
/// with a fresh poller (the sharded runtime's accept → place → register
/// path). The `EPOLL_CTL_MOD` re-arm plus the synthetic level-trigger at
/// registration must never lose a byte or the final EOF.
#[test]
fn handoff_between_pollers_loses_no_wakeups_over_tcp() {
    const TOTAL: usize = 1 << 20;

    let stack = TcpStack::new(StackModel::Free);
    let listener = stack.listen("127.0.0.1:0").unwrap();
    let addr = format!("127.0.0.1:{}", listener.port());
    let client = stack.connect(&addr).unwrap();
    let server = listener.accept_timeout(Duration::from_secs(5)).unwrap();

    let writer = std::thread::spawn(move || {
        let chunk = [0xa5u8; 613];
        let mut sent = 0usize;
        while sent < TOTAL {
            let n = (TOTAL - sent).min(chunk.len());
            client.write_all(&chunk[..n]).expect("peer stays open");
            sent += n;
        }
        client.close();
    });

    // Each handoff round drains at most `ROUND_BUDGET` bytes before moving
    // the registration again. Stopping mid-drain is deliberate: with
    // edge-triggered epoll no further kernel event will fire for the bytes
    // left behind, so the *next* registration's synthetic level-trigger
    // post is what must resume the stream — precisely the handoff-safety
    // property under test.
    const ROUND_BUDGET: usize = 128 * 1024;
    let mut received = 0usize;
    let mut eof = false;
    let mut buf = [0u8; 1500];
    let mut handoffs = 0u32;
    let deadline = Instant::now() + Duration::from_secs(60);
    while !eof {
        assert!(
            Instant::now() < deadline,
            "lost wakeup across poller handoff: {received} of {TOTAL} bytes \
             after {handoffs} handoffs"
        );
        let poller = Poller::new();
        server.register(&poller, Token(u64::from(handoffs)), Interest::READABLE);
        handoffs += 1;
        let mut round = 0usize;
        'round: while !eof && round < ROUND_BUDGET {
            assert!(
                Instant::now() < deadline,
                "lost wakeup mid-round: {received} of {TOTAL} bytes"
            );
            for _event in poller.wait(Duration::from_millis(100)) {
                loop {
                    match server.read(&mut buf) {
                        Ok(n) => {
                            received += n;
                            round += n;
                            if round >= ROUND_BUDGET {
                                break 'round;
                            }
                        }
                        Err(NetError::WouldBlock) => break,
                        Err(NetError::Closed) => {
                            eof = true;
                            break;
                        }
                        Err(e) => panic!("unexpected error: {e}"),
                    }
                }
            }
        }
    }
    writer.join().unwrap();
    assert_eq!(received, TOTAL);
    assert!(handoffs >= 2, "the stream must survive several handoffs");
}

/// Sends `count` keep-alive GETs down one connection, one at a time, and
/// waits for each response to end with `body`.
fn keep_alive_round_trips(addr: &str, count: usize, body: &[u8]) {
    let mut stream = TcpStream::connect(addr).expect("kernel connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let mut buf = [0u8; 4096];
    for i in 0..count {
        stream
            .write_all(format!("GET /{i} HTTP/1.1\r\nHost: t\r\n\r\n").as_bytes())
            .unwrap();
        let mut response = Vec::new();
        while !response.ends_with(body) {
            let n = stream.read(&mut buf).expect("read response");
            assert!(n > 0, "server closed mid-response on request {i}");
            response.extend_from_slice(&buf[..n]);
        }
    }
}

/// Kernel readiness reaches the dispatcher without a thread hop: the
/// shard dispatcher blocks in `epoll_wait` itself, so keep-alive traffic
/// through the TCP balancer makes (almost) no self-pipe pokes — only
/// posts from other threads (graph handoffs, task exits) ever write one.
#[test]
fn keep_alive_traffic_reaches_the_dispatcher_without_pokes() {
    const REQUESTS: usize = 2000;
    let backend = start_tcp_http_backend(b"poke-free");
    let platform = tcp_platform(1, 1);
    let service = platform
        .deploy_tcp(
            ServiceSpec::new("tcp-lb-pokes", 0, HttpLoadBalancerFactory::new())
                .with_tcp_backends(vec![backend.addr().to_string()]),
            "127.0.0.1:0",
        )
        .expect("deploy the TCP balancer");
    let addr = format!("127.0.0.1:{}", service.port());
    keep_alive_round_trips(&addr, 1, b"poke-free"); // Graph built, warm.

    let counters = |platform: &Platform| {
        let status = platform.shard_status();
        let waits: u64 = status.iter().map(|s| s.epoll_waits).sum();
        let pokes: u64 = status.iter().map(|s| s.cross_thread_pokes).sum();
        (waits, pokes)
    };
    let (waits_before, pokes_before) = counters(&platform);
    keep_alive_round_trips(&addr, REQUESTS, b"poke-free");
    let (waits_after, pokes_after) = counters(&platform);

    assert!(
        waits_after - waits_before >= REQUESTS as u64,
        "the dispatcher must collect kernel readiness in epoll_wait itself"
    );
    let pokes_per_request = (pokes_after - pokes_before) as f64 / REQUESTS as f64;
    assert!(
        pokes_per_request < 0.05,
        "{pokes_per_request:.3} cross-thread pokes per request: kernel \
         readiness took a thread hop to reach the dispatcher"
    );
}

/// No reactor thread exists anywhere: a 2-shard TCP deployment serves a
/// request with only dispatcher and worker threads.
#[test]
fn two_shard_tcp_deploy_runs_no_reactor_threads() {
    let platform = Platform::new(PlatformConfig {
        workers: 2,
        shards: 2,
        ..Default::default()
    });
    let service = deploy_web(&platform, b"no reactor threads");
    let addr = format!("127.0.0.1:{}", service.port());
    let response = fetch_http(&addr, "/", Duration::from_secs(5)).expect("fetch");
    assert!(String::from_utf8_lossy(&response).starts_with("HTTP/1.1 200 OK"));

    let names: Vec<String> = std::fs::read_dir("/proc/self/task")
        .expect("procfs")
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .map(|comm| comm.trim().to_string())
        .collect();
    assert!(
        names.iter().any(|name| name.starts_with("flick-dispatch")),
        "thread scan found no dispatcher: {names:?}"
    );
    assert!(
        !names.iter().any(|name| name.starts_with("flick-os-react")),
        "a reactor thread is running: {names:?}"
    );
}

/// Epoll instances and self-pipes open in this process.
fn epoll_and_pipe_fds() -> usize {
    std::fs::read_dir("/proc/self/fd")
        .expect("procfs")
        .filter_map(|fd| std::fs::read_link(fd.ok()?.path()).ok())
        .filter(|target| {
            let target = target.to_string_lossy();
            target == "anon_inode:[eventpoll]" || target.starts_with("pipe:")
        })
        .count()
}

/// Dropping the platform closes every epoll fd and pipe fd it opened.
/// Other tests open their own in parallel, so the census runs in a fresh
/// process: this test re-executes the test binary on the ignored
/// `fd_census_in_a_fresh_process` alone.
#[test]
fn dropping_the_platform_closes_its_epoll_and_pipe_fds() {
    let output = std::process::Command::new(std::env::current_exe().unwrap())
        .args([
            "fd_census_in_a_fresh_process",
            "--exact",
            "--ignored",
            "--test-threads=1",
        ])
        .output()
        .expect("re-run the test binary");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        output.status.success() && stdout.contains("1 passed"),
        "fd census failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
}

#[test]
#[ignore = "run in its own process by dropping_the_platform_closes_its_epoll_and_pipe_fds"]
fn fd_census_in_a_fresh_process() {
    let baseline = epoll_and_pipe_fds();
    let platform = tcp_platform(2, 2);
    let service = deploy_web(&platform, b"census");
    let addr = format!("127.0.0.1:{}", service.port());
    keep_alive_round_trips(&addr, 3, b"census");
    let opened = epoll_and_pipe_fds() - baseline;
    assert!(
        opened >= 3 * platform.shard_count(),
        "expected an epoll fd and a pipe pair per shard, saw {opened} fds"
    );
    drop(service);
    drop(platform);
    let deadline = Instant::now() + Duration::from_secs(5);
    while epoll_and_pipe_fds() > baseline {
        assert!(
            Instant::now() < deadline,
            "{} epoll/pipe fds outlived the platform",
            epoll_and_pipe_fds() - baseline
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// Epoll-path port of the poller's `stress_no_lost_wakeups`: a TCP
/// registration puts the waiter into `epoll_wait`, and a second thread
/// posts 100k tokens one at a time, each only after the previous one was
/// consumed, so most posts land while the waiter is blocked in the
/// kernel. A lost self-pipe poke leaves the waiter asleep for its whole
/// 10 s timeout.
#[test]
fn cross_thread_posts_interrupt_epoll_wait_without_loss() {
    const POSTS: u64 = 100_000;
    const KERNEL: Token = Token(u64::MAX);

    let stack = TcpStack::new(StackModel::Free);
    let listener = stack.listen("127.0.0.1:0").unwrap();
    let poller = Poller::new();
    listener.register(&poller, KERNEL);
    let consumed = Arc::new(AtomicU64::new(0));
    let producer = {
        let poller = poller.clone();
        let consumed = Arc::clone(&consumed);
        std::thread::spawn(move || {
            for i in 0..POSTS {
                while consumed.load(Ordering::Acquire) < i {
                    std::thread::yield_now();
                }
                poller.post(Token(i), Readiness::readable());
            }
        })
    };

    let mut next = 0u64;
    while next < POSTS {
        let started = Instant::now();
        let events = poller.wait(Duration::from_secs(10));
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "lost wakeup: the waiter slept through post {next}"
        );
        for event in events.iter().filter(|e| e.token != KERNEL) {
            assert_eq!(event.token, Token(next), "posts must arrive in order");
            next += 1;
            consumed.store(next, Ordering::Release);
        }
    }
    producer.join().unwrap();
    assert!(
        poller.epoll_waits() > 0,
        "the waiter never entered epoll_wait"
    );
    assert!(
        poller.cross_thread_pokes() > 0,
        "no post ever found the waiter blocked in epoll_wait"
    );
}

/// Kernel events cannot starve behind posts: another thread posts before
/// every wait (each wait first asks it for a post and waits for the ack),
/// so the posted queue is never empty when the waiter arrives, and each
/// wait must still harvest the epoll set and deliver the socket's
/// readable event.
#[test]
fn kernel_events_are_delivered_while_posts_keep_the_queue_busy() {
    let stack = TcpStack::new(StackModel::Free);
    let listener = stack.listen("127.0.0.1:0").unwrap();
    let client = stack
        .connect(&format!("127.0.0.1:{}", listener.port()))
        .unwrap();
    let server = listener.accept_timeout(Duration::from_secs(5)).unwrap();
    let poller = Poller::new();
    server.register(&poller, Token(1), Interest::READABLE);
    let _ = poller.wait(Duration::from_millis(50)); // Synthetic level-trigger.

    let (ask, asked) = std::sync::mpsc::channel::<()>();
    let (ack, acked) = std::sync::mpsc::channel::<()>();
    let spammer = {
        let poller = poller.clone();
        std::thread::spawn(move || {
            while asked.recv().is_ok() {
                poller.post(Token(2), Readiness::readable());
                ack.send(()).unwrap();
            }
        })
    };
    client.write_all(b"kernel bytes").unwrap();
    let mut busy_waits = 0u64;
    let delivered = loop {
        ask.send(()).unwrap();
        acked.recv().unwrap();
        let events = poller.wait(Duration::from_millis(100));
        assert!(events.iter().any(|e| e.token == Token(2)));
        if events
            .iter()
            .any(|e| e.token == Token(1) && e.readiness.readable)
        {
            break true;
        }
        busy_waits += 1;
        if busy_waits == 10_000 {
            break false;
        }
    };
    drop(ask);
    spammer.join().unwrap();
    assert!(
        delivered,
        "kernel readable event starved behind {busy_waits} busy waits"
    );
    let mut buf = [0u8; 32];
    assert_eq!(server.read(&mut buf), Ok(12));
}
