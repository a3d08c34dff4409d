//! Closed-loop HTTP clients for the balancer workloads.
//!
//! Each client thread sends one request, waits for the whole reply, checks
//! it and only then sends the next, as ApacheBench does. Latencies go into
//! a fixed-size histogram owned by the client thread and are merged after
//! the run, so the timed loop takes no shared lock and does not allocate.

use crate::gen;
use crate::stats::Histogram;
use crate::sys;
use crate::trace::Tracer;
use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// A request that gets no complete reply within this long has failed.
const REPLY_TIMEOUT: Duration = Duration::from_secs(5);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// One persistent connection per client.
    KeepAlive,
    /// A new connection per request, with `Connection: close`.
    Churn,
}

/// Everything one client thread saw in one phase.
#[derive(Debug)]
pub struct ClientOut {
    /// Request latencies (ns).
    pub lat: Histogram,
    /// Time from a reply to the next send (ns).
    pub gap: Histogram,
    pub completed: u64,
    pub failed: u64,
    /// Request bytes sent in the timed window.
    pub sent_bytes: u64,
    pub errors: Vec<String>,
    /// The first requests and replies of the timed window, byte for byte.
    pub reqs: Vec<Vec<u8>>,
    pub resps: Vec<Vec<u8>>,
    pub tracer: Tracer,
}

/// One timed phase of the closed loop.
pub struct Phase<'a> {
    pub addr: &'a str,
    pub seed: u64,
    pub mode: Mode,
    pub body: &'a [u8],
    pub clients: usize,
    pub seconds: f64,
    /// Untimed requests per client before the window opens.
    pub warmup: usize,
    /// How many requests and replies per client to keep for replay.
    pub record: usize,
    /// Distinguishes the paths of successive phases.
    pub phase_id: u64,
}

pub struct PhaseOut {
    pub clients: Vec<ClientOut>,
    pub elapsed: Duration,
}

impl PhaseOut {
    pub fn completed(&self) -> u64 {
        self.clients.iter().map(|c| c.completed).sum()
    }

    pub fn failed(&self) -> u64 {
        self.clients.iter().map(|c| c.failed).sum()
    }

    /// Request latencies (ns) of every client.
    pub fn latencies(&self) -> Histogram {
        let mut all = Histogram::default();
        for c in &self.clients {
            all.merge(&c.lat);
        }
        all
    }

    /// Reply-to-send gaps (ns) of every client.
    pub fn gaps(&self) -> Histogram {
        let mut all = Histogram::default();
        for c in &self.clients {
            all.merge(&c.gap);
        }
        all
    }
}

/// Runs `phase`: every client connects and warms up, then `on_start`
/// runs while the clients wait, and the window stays open for
/// `phase.seconds`. Requests in flight when it closes complete before this
/// returns, so the window holds every request it counts.
pub fn run_phase(phase: &Phase<'_>, parent: &Tracer, on_start: impl FnOnce()) -> PhaseOut {
    let stop = AtomicBool::new(false);
    // Warmed up → `on_start` → go: the snapshot `on_start` takes must not
    // race the window's first requests.
    let barrier = Barrier::new(phase.clients + 1);
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..phase.clients)
            .map(|c| {
                let tracer = parent.child();
                let (stop, barrier) = (&stop, &barrier);
                s.spawn(move || client_loop(phase, c, tracer, stop, barrier))
            })
            .collect();
        barrier.wait();
        on_start();
        barrier.wait();
        let start = Instant::now();
        std::thread::sleep(Duration::from_secs_f64(phase.seconds));
        stop.store(true, Ordering::SeqCst);
        let clients = handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect();
        PhaseOut {
            clients,
            elapsed: start.elapsed(),
        }
    })
}

fn client_loop(
    phase: &Phase<'_>,
    client: usize,
    mut tracer: Tracer,
    stop: &AtomicBool,
    barrier: &Barrier,
) -> ClientOut {
    let mut out = ClientOut {
        lat: Histogram::default(),
        gap: Histogram::default(),
        completed: 0,
        failed: 0,
        sent_bytes: 0,
        errors: Vec::new(),
        reqs: Vec::new(),
        resps: Vec::new(),
        tracer: tracer.child_disabled(),
    };
    let mut conn: Option<TcpStream> = None;
    let mut req = Vec::with_capacity(128);
    let mut resp = Vec::with_capacity(512);
    let mut index = phase.phase_id << 32;
    let mut warm_tracer = tracer.child_disabled();
    for _ in 0..phase.warmup {
        index += 1;
        let path = gen::request_path(phase.seed, client, index);
        gen::request_bytes(&path, phase.mode == Mode::Churn, &mut req);
        if let Err(e) = request(&mut conn, phase, &req, &mut resp, &mut warm_tracer, 0) {
            out.failed += 1;
            out.errors.push(format!("warm-up: {e}"));
            conn = None;
        }
    }
    barrier.wait();
    barrier.wait();
    let mut last_reply: Option<Instant> = None;
    while !stop.load(Ordering::Relaxed) {
        index += 1;
        let path = gen::request_path(phase.seed, client, index);
        gen::request_bytes(&path, phase.mode == Mode::Churn, &mut req);
        let req_id = ((client as u64 + 1) << 48) | index;
        out.sent_bytes += req.len() as u64;
        let sent = Instant::now();
        if let Some(reply) = last_reply {
            out.gap.record((sent - reply).as_nanos() as u64);
        }
        let span = tracer.begin("client.request", req_id);
        let result = request(&mut conn, phase, &req, &mut resp, &mut tracer, req_id);
        tracer.end(span);
        let done = Instant::now();
        match result {
            Ok(()) => {
                out.lat.record((done - sent).as_nanos() as u64);
                out.completed += 1;
                if out.reqs.len() < phase.record {
                    out.reqs.push(req.clone());
                    out.resps.push(resp.clone());
                }
            }
            Err(e) => {
                out.failed += 1;
                if out.errors.len() < 8 {
                    out.errors.push(e);
                }
                conn = None;
            }
        }
        last_reply = Some(done);
    }
    out.tracer = tracer;
    out
}

/// Sends one request and reads and checks its reply. Opens a connection
/// when there is none; in churn mode the connection is closed afterwards.
fn request(
    conn: &mut Option<TcpStream>,
    phase: &Phase<'_>,
    req: &[u8],
    resp: &mut Vec<u8>,
    tracer: &mut Tracer,
    req_id: u64,
) -> Result<(), String> {
    if conn.is_none() {
        let span = tracer.begin("client.connect", req_id);
        let stream = TcpStream::connect(phase.addr);
        tracer.end(span);
        let stream = stream.map_err(|e| format!("connect: {e}"))?;
        stream
            .set_nodelay(true)
            .map_err(|e| format!("nodelay: {e}"))?;
        stream
            .set_read_timeout(Some(REPLY_TIMEOUT))
            .map_err(|e| format!("timeout: {e}"))?;
        // The client closes only after reading a whole reply.
        sys::reset_on_close(&stream).map_err(|e| format!("linger: {e}"))?;
        *conn = Some(stream);
    }
    let stream = conn.as_mut().expect("connection just ensured");
    stream.write_all(req).map_err(|e| format!("send: {e}"))?;
    read_reply(stream, resp)?;
    check_reply(resp, phase.body)?;
    if phase.mode == Mode::Churn {
        *conn = None;
    }
    Ok(())
}

/// Reads exactly one HTTP reply (headers plus `Content-Length` body).
pub fn read_reply(stream: &mut TcpStream, resp: &mut Vec<u8>) -> Result<(), String> {
    resp.clear();
    let mut chunk = [0u8; 2048];
    loop {
        if let Some(total) = reply_len(resp)? {
            if resp.len() > total {
                return Err(format!(
                    "{} stray bytes after the reply",
                    resp.len() - total
                ));
            }
            if resp.len() == total {
                return Ok(());
            }
        }
        match stream.read(&mut chunk) {
            Ok(0) => {
                return Err(format!(
                    "connection closed after {} reply bytes",
                    resp.len()
                ))
            }
            Ok(n) => resp.extend_from_slice(&chunk[..n]),
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(format!("receive: {e}")),
        }
    }
}

/// Total reply length once the headers are complete.
fn reply_len(resp: &[u8]) -> Result<Option<usize>, String> {
    let Some(head_end) = resp.windows(4).position(|w| w == b"\r\n\r\n") else {
        return Ok(None);
    };
    let head = std::str::from_utf8(&resp[..head_end]).map_err(|_| "non-UTF-8 reply head")?;
    let length = head
        .lines()
        .filter_map(|l| l.split_once(':'))
        .find(|(k, _)| k.trim().eq_ignore_ascii_case("content-length"))
        .ok_or("reply without Content-Length")?
        .1
        .trim()
        .parse::<usize>()
        .map_err(|_| "bad Content-Length")?;
    Ok(Some(head_end + 4 + length))
}

/// A reply is correct when it is a complete `200` carrying exactly the
/// back-ends' body.
pub fn check_reply(resp: &[u8], body: &[u8]) -> Result<(), String> {
    if !resp.starts_with(b"HTTP/1.1 200 ") {
        let line = resp.split(|&b| b == b'\r').next().unwrap_or_default();
        return Err(format!("status line {:?}", String::from_utf8_lossy(line)));
    }
    if !resp.ends_with(body) || reply_len(resp)? != Some(resp.len()) {
        return Err("reply body differs from the back-end body".into());
    }
    let head_end = resp.len() - body.len();
    if !resp[..head_end].ends_with(b"\r\n\r\n") {
        return Err("reply body length differs from the back-end body".into());
    }
    Ok(())
}

/// One request on a fresh connection, for set-up: the first correct reply.
pub fn first_reply(addr: &str, seed: u64, body: &[u8]) -> Result<(), String> {
    let phase = Phase {
        addr,
        seed,
        mode: Mode::Churn,
        body,
        clients: 1,
        seconds: 0.0,
        warmup: 0,
        record: 0,
        phase_id: u32::MAX as u64,
    };
    let mut req = Vec::new();
    gen::request_bytes(
        &gen::request_path(seed, 0, u32::MAX as u64),
        false,
        &mut req,
    );
    let mut tracer = Tracer::new(Instant::now(), false);
    request(&mut None, &phase, &req, &mut Vec::new(), &mut tracer, 0)
}
