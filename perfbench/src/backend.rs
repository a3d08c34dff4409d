//! The harness back-ends: static HTTP servers behind the balancer and the
//! wordcount reducer behind the aggregator.
//!
//! They run outside the FLICK platform, on one thread with its own epoll
//! loop over plain `std::net` sockets, so a workload that opens many
//! back-end connections (lb_churn opens four per request) charges no
//! thread spawns to the balancer, and the platform's counters see only the
//! platform's own traffic.

use std::collections::{BTreeMap, HashMap};
use std::io::{ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::{AsRawFd, RawFd};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::sys;

/// What a listener serves.
#[derive(Clone, Copy)]
enum Role {
    /// Static HTTP back-end number `n`.
    Http(usize),
    /// The wordcount reducer.
    Reducer,
}

struct Conn {
    stream: TcpStream,
    role: Role,
    buf: Vec<u8>,
    /// Reducer connections: per-word totals received so far.
    totals: BTreeMap<String, u64>,
    records: usize,
    done: bool,
}

/// Outcome of one aggregation round as the reducer saw it.
pub type RoundVerdict = Result<(), String>;

struct Shared {
    stop: AtomicBool,
    served: Vec<AtomicU64>,
    bad_requests: AtomicU64,
    /// Whether to record per-request service times.
    record: AtomicBool,
    service_ns: Mutex<Vec<u64>>,
    /// The totals the current aggregation round must produce.
    expected: Mutex<Option<BTreeMap<String, u64>>>,
}

/// The running back-end thread.
pub struct Backends {
    addrs: Vec<String>,
    reducer_addr: Option<String>,
    shared: Arc<Shared>,
    thread: Option<JoinHandle<()>>,
}

impl Backends {
    /// Starts `http` static HTTP back-ends serving `body`, plus a reducer
    /// when `reducer` is set, all on one thread.
    pub fn start(http: usize, body: Vec<u8>, reducer: Option<mpsc::Sender<RoundVerdict>>) -> Self {
        let mut listeners = Vec::new();
        for n in 0..http {
            listeners.push((bind(), Role::Http(n)));
        }
        if reducer.is_some() {
            listeners.push((bind(), Role::Reducer));
        }
        let addr_of = |l: &TcpListener| {
            format!(
                "127.0.0.1:{}",
                l.local_addr().expect("listener address").port()
            )
        };
        let addrs = listeners
            .iter()
            .filter(|(_, r)| matches!(r, Role::Http(_)))
            .map(|(l, _)| addr_of(l))
            .collect();
        let reducer_addr = listeners
            .iter()
            .find(|(_, r)| matches!(r, Role::Reducer))
            .map(|(l, _)| addr_of(l));
        let shared = Arc::new(Shared {
            stop: AtomicBool::new(false),
            served: (0..http).map(|_| AtomicU64::new(0)).collect(),
            bad_requests: AtomicU64::new(0),
            record: AtomicBool::new(false),
            service_ns: Mutex::new(Vec::new()),
            expected: Mutex::new(None),
        });
        let mut response = format!(
            "HTTP/1.1 200 OK\r\nContent-Length: {}\r\nContent-Type: text/plain\r\n\r\n",
            body.len()
        )
        .into_bytes();
        response.extend_from_slice(&body);
        let thread_shared = Arc::clone(&shared);
        let thread = std::thread::Builder::new()
            .name("bench-backends".into())
            .spawn(move || serve(listeners, response, thread_shared, reducer))
            .expect("spawn back-end thread");
        Backends {
            addrs,
            reducer_addr,
            shared,
            thread: Some(thread),
        }
    }

    pub fn http_addrs(&self) -> &[String] {
        &self.addrs
    }

    pub fn reducer_addr(&self) -> Option<&str> {
        self.reducer_addr.as_deref()
    }

    /// Requests each HTTP back-end has answered.
    pub fn served(&self) -> Vec<u64> {
        self.shared
            .served
            .iter()
            .map(|c| c.load(Ordering::SeqCst))
            .collect()
    }

    /// Requests that were not a well-formed GET.
    pub fn bad_requests(&self) -> u64 {
        self.shared.bad_requests.load(Ordering::SeqCst)
    }

    pub fn set_recording(&self, on: bool) {
        self.shared.record.store(on, Ordering::SeqCst);
    }

    /// Sets the totals the next aggregation round must deliver.
    pub fn expect_totals(&self, totals: BTreeMap<String, u64>) {
        *self.shared.expected.lock().expect("expected-totals lock") = Some(totals);
    }

    /// Takes the service times (ns) recorded so far.
    pub fn take_service_ns(&self) -> Vec<u64> {
        std::mem::take(&mut *self.shared.service_ns.lock().expect("service-times lock"))
    }
}

impl Drop for Backends {
    fn drop(&mut self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        if let Some(t) = self.thread.take() {
            if t.join().is_err() && !std::thread::panicking() {
                eprintln!("perfbench: back-end thread panicked");
            }
        }
    }
}

fn bind() -> TcpListener {
    let l = TcpListener::bind("127.0.0.1:0").expect("bind loopback back-end");
    l.set_nonblocking(true).expect("nonblocking listener");
    l
}

fn serve(
    listeners: Vec<(TcpListener, Role)>,
    response: Vec<u8>,
    shared: Arc<Shared>,
    reducer: Option<mpsc::Sender<RoundVerdict>>,
) {
    let epoll = sys::Epoll::new().expect("epoll instance");
    let mut by_fd: HashMap<RawFd, usize> = HashMap::new();
    for (i, (l, _)) in listeners.iter().enumerate() {
        epoll.add(l.as_raw_fd()).expect("register listener");
        by_fd.insert(l.as_raw_fd(), i);
    }
    let mut conns: HashMap<RawFd, Conn> = HashMap::new();
    let mut events = vec![sys::EpollEvent { events: 0, data: 0 }; 256];
    let mut chunk = vec![0u8; 64 * 1024];
    while !shared.stop.load(Ordering::SeqCst) {
        for fd in epoll.wait(&mut events, 20) {
            if let Some(&i) = by_fd.get(&fd) {
                let (listener, role) = &listeners[i];
                while let Ok((stream, _)) = listener.accept() {
                    stream.set_nonblocking(true).expect("nonblocking conn");
                    let _ = stream.set_nodelay(true);
                    // A back-end closes only once its peer has: nothing
                    // it could still send is wanted.
                    let _ = sys::reset_on_close(&stream);
                    let cfd = stream.as_raw_fd();
                    epoll.add(cfd).expect("register conn");
                    conns.insert(
                        cfd,
                        Conn {
                            stream,
                            role: *role,
                            buf: Vec::new(),
                            totals: BTreeMap::new(),
                            records: 0,
                            done: false,
                        },
                    );
                }
                continue;
            }
            let Some(conn) = conns.get_mut(&fd) else {
                continue;
            };
            let open = read_available(conn, &mut chunk);
            match conn.role {
                Role::Http(n) => {
                    serve_http(conn, n, &response, &shared);
                }
                Role::Reducer => {
                    if let Some(tx) = &reducer {
                        reduce(conn, &shared, tx, !open);
                    }
                }
            }
            if !open {
                epoll.remove(fd);
                conns.remove(&fd);
            }
        }
    }
}

/// Drains the socket into the connection buffer; `false` once the peer
/// has closed (or the socket failed).
fn read_available(conn: &mut Conn, chunk: &mut [u8]) -> bool {
    loop {
        match conn.stream.read(chunk) {
            Ok(0) => return false,
            Ok(n) => conn.buf.extend_from_slice(&chunk[..n]),
            Err(e) if e.kind() == ErrorKind::WouldBlock => return true,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => return false,
        }
    }
}

fn serve_http(conn: &mut Conn, n: usize, response: &[u8], shared: &Shared) {
    while let Some(end) = find(&conn.buf, b"\r\n\r\n") {
        let start = Instant::now();
        if !conn.buf.starts_with(b"GET ") {
            shared.bad_requests.fetch_add(1, Ordering::SeqCst);
        }
        conn.buf.drain(..end + 4);
        shared.served[n].fetch_add(1, Ordering::SeqCst);
        write_all(&mut conn.stream, response);
        if shared.record.load(Ordering::Relaxed) {
            let ns = start.elapsed().as_nanos() as u64;
            shared
                .service_ns
                .lock()
                .expect("service-times lock")
                .push(ns);
        }
    }
}

/// Parses reducer records and reports the round once every expected word
/// has arrived (or the stream ends short).
fn reduce(conn: &mut Conn, shared: &Shared, tx: &mpsc::Sender<RoundVerdict>, closed: bool) {
    let mut at = 0;
    while conn.buf.len() - at >= 8 {
        let klen = u32::from_be_bytes(conn.buf[at..at + 4].try_into().expect("4 bytes")) as usize;
        let vlen =
            u32::from_be_bytes(conn.buf[at + 4..at + 8].try_into().expect("4 bytes")) as usize;
        if klen > 1 << 16 || vlen > 1 << 16 {
            let _ = tx.send(Err(format!("reducer: implausible record ({klen}, {vlen})")));
            conn.done = true;
            conn.buf.clear();
            return;
        }
        if conn.buf.len() - at < 8 + klen + vlen {
            break;
        }
        let key = String::from_utf8_lossy(&conn.buf[at + 8..at + 8 + klen]).into_owned();
        let value = String::from_utf8_lossy(&conn.buf[at + 8 + klen..at + 8 + klen + vlen]);
        at += 8 + klen + vlen;
        if conn.done {
            let _ = tx.send(Err(format!(
                "reducer: record `{key}` after the round completed"
            )));
            continue;
        }
        match value.parse::<u64>() {
            Ok(count) => *conn.totals.entry(key).or_insert(0) += count,
            Err(_) => {
                let _ = tx.send(Err(format!("reducer: non-numeric count `{value}`")));
                conn.done = true;
                continue;
            }
        }
        conn.records += 1;
        let expected = shared.expected.lock().expect("expected-totals lock");
        if let Some(expected) = expected.as_ref() {
            if conn.records == expected.len() {
                conn.done = true;
                let verdict = if &conn.totals == expected {
                    Ok(())
                } else {
                    Err(format!(
                        "reducer totals differ from ground truth ({} words received)",
                        conn.totals.len()
                    ))
                };
                let _ = tx.send(verdict);
            }
        }
    }
    conn.buf.drain(..at);
    if closed && !conn.done && conn.records > 0 {
        let _ = tx.send(Err(format!(
            "reducer stream ended after {} records",
            conn.records
        )));
    }
}

fn write_all(stream: &mut TcpStream, mut data: &[u8]) {
    while !data.is_empty() {
        match stream.write(data) {
            Ok(n) => data = &data[n..],
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_micros(50))
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => return,
        }
    }
}

fn find(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    haystack.windows(needle.len()).position(|w| w == needle)
}
