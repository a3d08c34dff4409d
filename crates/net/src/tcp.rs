//! The OS socket transport: real TCP behind the readiness layer.
//!
//! Everything above the substrate — dispatchers, task graphs, placement —
//! speaks [`crate::Endpoint`] + [`crate::Poller`]. This module provides the
//! second implementation of that contract (DESIGN.md §10): nonblocking
//! `std::net` sockets whose kernel readiness transitions land in the
//! poller's queue when its waiter — the shard dispatcher — blocks in
//! `epoll_wait` itself (bound via the direct syscall bindings in
//! `crate::sys`; no new crates, per the offline shim policy of §7).
//! Each shard's poller lazily owns its own epoll instance, an
//! [`OsReactor`] (DESIGN.md §13), so kernel event demultiplexing scales
//! with the shard topology and costs no thread hop.
//!
//! The readiness contract matches the simulated sources exactly:
//!
//! * **Edge-triggered afterwards.** Sockets are registered `EPOLLET`; the
//!   kernel reports transitions, and consumers drain to
//!   [`NetError::WouldBlock`] — the invariant `crate::poller` already
//!   imposes.
//! * **Level-triggered at registration.** [`TcpConn::register`] and
//!   [`TcpListener::register`] post a synthetic event for the current
//!   state, so data (or a backlog) that arrived before the registration —
//!   including during a cross-shard handoff that moves the registration to
//!   a different poller — is never missed. Spurious events are allowed by
//!   the poller contract, so the synthetic post is unconditional.
//! * **One registration per socket.** Registering again (from any clone)
//!   replaces the previous registration, as with [`crate::Endpoint`] pipes.
//!
//! Cost and stats accounting mirrors the simulated substrate: every
//! operation is charged its [`StackCosts`] entry and recorded in the
//! stack's [`NetStats`] (a real-socket platform normally runs
//! [`StackModel::Free`], because the real kernel already charges real
//! costs — the model hook exists for calibration experiments).

use crate::costs::{StackCosts, StackModel};
use crate::error::NetError;
use crate::poller::{Interest, Poller, Readiness, Token, WakerSlot};
use crate::ratelimit::TokenBucket;
use crate::stats::NetStats;
use crate::sys;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::os::unix::io::{AsRawFd, RawFd};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Maps an `std::io` error onto the substrate error vocabulary.
fn map_io(err: std::io::Error) -> NetError {
    use std::io::ErrorKind;
    match err.kind() {
        ErrorKind::WouldBlock => NetError::WouldBlock,
        ErrorKind::BrokenPipe
        | ErrorKind::ConnectionReset
        | ErrorKind::ConnectionAborted
        | ErrorKind::NotConnected
        | ErrorKind::UnexpectedEof => NetError::Closed,
        ErrorKind::ConnectionRefused => NetError::ConnectionRefused,
        ErrorKind::AddrInUse => NetError::AddrInUse,
        ErrorKind::TimedOut => NetError::TimedOut,
        kind => NetError::Io(kind),
    }
}

/// The error for the most recent failed syscall.
fn last_os_error() -> NetError {
    map_io(std::io::Error::last_os_error())
}

/// Opens a nonblocking IPv4 listening socket with `SO_REUSEPORT` set
/// *before* bind — std's `TcpListener::bind` cannot do this, and the
/// option must be set pre-bind for the socket to join an accept-sharding
/// group on an already-bound port.
fn listen_reuseport(addr: SocketAddr) -> Result<std::net::TcpListener, NetError> {
    let SocketAddr::V4(v4) = addr else {
        return Err(NetError::Io(std::io::ErrorKind::Unsupported));
    };
    let fd = unsafe { sys::socket(sys::AF_INET, sys::SOCK_STREAM | sys::SOCK_CLOEXEC, 0) };
    if fd < 0 {
        return Err(last_os_error());
    }
    // Wrap immediately so every early return below releases the fd.
    use std::os::fd::FromRawFd;
    let socket = unsafe { std::net::TcpListener::from_raw_fd(fd) };
    let one: sys::c_int = 1;
    for opt in [sys::SO_REUSEADDR, sys::SO_REUSEPORT] {
        let rc = unsafe { sys::setsockopt(fd, sys::SOL_SOCKET, opt, &one, 4) };
        if rc != 0 {
            return Err(last_os_error());
        }
    }
    let raw = sys::sockaddr_in {
        sin_family: sys::AF_INET as u16,
        sin_port: v4.port().to_be(),
        sin_addr: u32::from(*v4.ip()).to_be(),
        sin_zero: [0; 8],
    };
    let rc = unsafe { sys::bind(fd, &raw, std::mem::size_of::<sys::sockaddr_in>() as u32) };
    if rc != 0 {
        return Err(last_os_error());
    }
    let rc = unsafe { sys::listen(fd, 1024) };
    if rc != 0 {
        return Err(last_os_error());
    }
    Ok(socket)
}

// ---------------------------------------------------------------------------
// OsReactor
// ---------------------------------------------------------------------------

/// How many kernel events one `epoll_wait` call drains per pass. The
/// batched-syscall contract (DESIGN.md §13): under load the waiter
/// amortizes one wait syscall over up to this many readiness transitions,
/// and the whole batch is delivered with one poller lock acquisition per
/// destination shard via [`crate::poller::wake_batch`].
pub(crate) const MAX_EVENTS: usize = 256;

/// Userdata value reserved for the reactor's self-pipe wake channel; never
/// collides with a socket entry because those pack the fd into the low
/// 32 bits and `-1` is not a valid descriptor.
const WAKE_TOKEN: u64 = u64::MAX;

/// Packs a registration generation and an fd into epoll userdata.
fn pack_userdata(gen: u32, fd: RawFd) -> u64 {
    ((gen as u64) << 32) | (fd as u32 as u64)
}

/// The wakers one socket's epoll registration fans out to: one slot per
/// direction, because a single connection may be watched by two different
/// tasks — the input task (readable) and the output task (writable) — each
/// under its own token, possibly in different pollers. Mirrors the
/// simulated pipes, which hold a `read_waker` and a `write_waker` per
/// direction.
struct FdSlots {
    /// Registration generation, packed into the epoll userdata. fd numbers
    /// recycle fast under accept churn, so a batch resolved after the fd
    /// was forgotten and a new socket re-added under the same number
    /// carries the old generation — those events are dropped rather than
    /// delivered to the new owner (a stale HUP would otherwise tear down a
    /// healthy connection).
    gen: u32,
    read: Option<WakerSlot>,
    write: Option<WakerSlot>,
}

impl FdSlots {
    fn new(gen: u32) -> FdSlots {
        FdSlots {
            gen,
            read: None,
            write: None,
        }
    }

    /// The epoll event mask the current slots ask for.
    fn epoll_bits(&self) -> u32 {
        let mut bits = sys::EPOLLET | sys::EPOLLRDHUP;
        if self.read.is_some() {
            bits |= sys::EPOLLIN;
        }
        if self.write.is_some() {
            bits |= sys::EPOLLOUT;
        }
        bits
    }

    fn is_empty(&self) -> bool {
        self.read.is_none() && self.write.is_none()
    }
}

/// A per-poller epoll instance.
///
/// Each [`Poller`] — one per shard dispatcher — lazily creates its own
/// epoll set, so kernel event demultiplexing shards with the runtime
/// topology: a registration lives on the instance of the poller that
/// watches it and never moves off the owning shard (re-registering on a
/// different shard's poller migrates it explicitly). There is no reactor
/// thread: the poller's waiter calls [`OsReactor::harvest`] itself, and
/// posts from other threads interrupt it through the self-pipe
/// ([`OsReactor::poke`]). `epoll_ctl` is safe concurrently with
/// `epoll_wait`, so registration changes take effect immediately. The
/// descriptors close when the last `Arc` (the poller, or a socket that
/// registered here) goes away.
pub(crate) struct OsReactor {
    epfd: RawFd,
    /// Read end of the self-pipe, registered under [`WAKE_TOKEN`].
    wake_read: RawFd,
    /// Write end of the self-pipe; [`OsReactor::poke`] writes it.
    wake_write: RawFd,
    registrations: Mutex<HashMap<RawFd, FdSlots>>,
    /// Source of registration generations (see [`FdSlots::gen`]); per
    /// reactor, because userdata only has to be unique within one epoll
    /// instance.
    next_gen: AtomicU64,
}

impl OsReactor {
    /// Creates the epoll instance and its self-pipe.
    pub(crate) fn new() -> Arc<OsReactor> {
        let epfd = unsafe { sys::epoll_create1(sys::EPOLL_CLOEXEC) };
        assert!(epfd >= 0, "epoll_create1 failed: errno {}", sys::errno());
        let mut pipe = [0 as sys::c_int; 2];
        let rc = unsafe { sys::pipe2(pipe.as_mut_ptr(), sys::O_NONBLOCK | sys::O_CLOEXEC) };
        assert!(rc == 0, "pipe2 failed: errno {}", sys::errno());
        // Level-triggered on purpose: a poke written before the waiter
        // enters `epoll_wait` must still wake it, with no edge to miss.
        let mut event = sys::epoll_event {
            events: sys::EPOLLIN,
            u64: WAKE_TOKEN,
        };
        let rc = unsafe { sys::epoll_ctl(epfd, sys::EPOLL_CTL_ADD, pipe[0], &mut event) };
        assert!(rc == 0, "registering the wake pipe: errno {}", sys::errno());
        Arc::new(OsReactor {
            epfd,
            wake_read: pipe[0],
            wake_write: pipe[1],
            registrations: Mutex::new(HashMap::new()),
            next_gen: AtomicU64::new(1),
        })
    }

    /// Interrupts a concurrent [`OsReactor::harvest`] blocked in
    /// `epoll_wait` (or the next one).
    pub(crate) fn poke(&self) {
        let byte = 1u8;
        // SAFETY: `wake_write` stays open until `self` drops, and the
        // buffer is one live byte. A full pipe (EAGAIN) is already readable.
        unsafe { sys::write(self.wake_write, &byte, 1) };
    }

    /// One `epoll_wait` of up to `millis` ms on the calling thread,
    /// resolved into the wakes the caller delivers with
    /// [`crate::poller::wake_batch`]. `EINTR` yields no wakes and leaves
    /// the deadline to the caller.
    pub(crate) fn harvest(&self, millis: sys::c_int) -> Vec<(WakerSlot, Readiness)> {
        let mut events = [sys::epoll_event { events: 0, u64: 0 }; MAX_EVENTS];
        // SAFETY: `epfd` stays open until `self` drops, and the kernel
        // writes at most `MAX_EVENTS` entries into `events`.
        let n = unsafe {
            sys::epoll_wait(
                self.epfd,
                events.as_mut_ptr(),
                MAX_EVENTS as sys::c_int,
                millis,
            )
        };
        let batch = &events[..n.max(0) as usize];
        if batch.iter().any(|e| {
            let user = e.u64;
            user == WAKE_TOKEN
        }) {
            self.drain_wake_pipe();
        }
        self.resolve_batch(batch)
    }

    fn drain_wake_pipe(&self) {
        let mut buf = [0u8; 64];
        loop {
            let n = unsafe { sys::read(self.wake_read, buf.as_mut_ptr(), buf.len()) };
            if n < buf.len() as isize {
                return; // Empty (EAGAIN), closed, or a partial final read.
            }
        }
    }

    /// Resolves one `epoll_wait` batch into the waker deliveries it
    /// implies. Slots are resolved under the registration lock, but wakes
    /// are delivered by the caller outside it: posting into per-shard
    /// pollers (lock + condvar notify) while holding the map would
    /// serialize every concurrent register/deregister behind event fan-out.
    ///
    /// Stale entries are dropped here: an event whose packed generation no
    /// longer matches the live registration raced a close — the fd was
    /// forgotten and the number recycled while the batch was in flight —
    /// and must not wake the new owner with the old socket's state.
    fn resolve_batch(&self, batch: &[sys::epoll_event]) -> Vec<(WakerSlot, Readiness)> {
        let mut wakes: Vec<(WakerSlot, Readiness)> = Vec::with_capacity(batch.len());
        let registrations = self.registrations.lock();
        for event in batch {
            let user = event.u64;
            if user == WAKE_TOKEN {
                continue;
            }
            let fd = (user & 0xFFFF_FFFF) as u32 as RawFd;
            let gen = (user >> 32) as u32;
            let Some(slots) = registrations.get(&fd) else {
                continue; // Deregistered while the event was in flight.
            };
            if slots.gen != gen {
                continue; // Recycled fd; the event belongs to a dead socket.
            }
            let bits = event.events;
            let closed = bits & (sys::EPOLLRDHUP | sys::EPOLLHUP | sys::EPOLLERR) != 0;
            // Fan out per direction: a close wakes both watchers (a
            // parked writer must fail fast, a reader must observe
            // EOF), ordinary transitions only their own side.
            if bits & (sys::EPOLLIN | sys::EPOLLRDHUP | sys::EPOLLHUP | sys::EPOLLERR) != 0 {
                if let Some(slot) = &slots.read {
                    let mut readiness = Readiness::readable();
                    readiness.closed = closed;
                    wakes.push((slot.clone(), readiness));
                }
            }
            if bits & (sys::EPOLLOUT | sys::EPOLLHUP | sys::EPOLLERR) != 0 {
                if let Some(slot) = &slots.write {
                    let mut readiness = Readiness::writable();
                    readiness.closed = closed;
                    wakes.push((slot.clone(), readiness));
                }
            }
        }
        wakes
    }

    /// Installs (or replaces) the registration for the direction(s) in
    /// `interest` of `fd`. Matching events will post `token` into `poller`
    /// until the direction is deregistered or [`OsReactor::forget`] runs.
    /// Each direction holds one slot: registering a direction again (from
    /// any clone) replaces it, while the other direction's slot — possibly
    /// a different task's token — is left alone.
    fn register(&self, fd: RawFd, poller: &Poller, token: Token, interest: Interest) {
        let mut registrations = self.registrations.lock();
        let op = if registrations.contains_key(&fd) {
            sys::EPOLL_CTL_MOD
        } else {
            sys::EPOLL_CTL_ADD
        };
        let gen = match registrations.get(&fd) {
            Some(slots) => slots.gen,
            None => self.next_gen.fetch_add(1, Ordering::Relaxed) as u32,
        };
        let slots = registrations.entry(fd).or_insert_with(|| FdSlots::new(gen));
        if interest.is_readable() {
            slots.read = Some(poller.slot(token));
        }
        if interest.is_writable() {
            slots.write = Some(poller.slot(token));
        }
        let mut event = sys::epoll_event {
            events: slots.epoll_bits(),
            u64: pack_userdata(gen, fd),
        };
        let rc = unsafe { sys::epoll_ctl(self.epfd, op, fd, &mut event) };
        // A failed registration (max_user_watches exhausted, ENOMEM) must
        // be loud: recording it anyway would deliver the synthetic
        // level-trigger event and then stall the connection forever — a
        // silent lost wakeup, the one failure mode this layer exists to
        // rule out.
        assert!(
            rc == 0,
            "epoll_ctl({op}) for fd {fd} failed: errno {}",
            sys::errno()
        );
    }

    /// Removes the direction(s) in `interest` of `fd`'s registration;
    /// drops the epoll entry once no direction is left.
    fn forget_interest(&self, fd: RawFd, interest: Interest) {
        let mut registrations = self.registrations.lock();
        let Some(slots) = registrations.get_mut(&fd) else {
            return;
        };
        if interest.is_readable() {
            slots.read = None;
        }
        if interest.is_writable() {
            slots.write = None;
        }
        Self::apply_slots(self.epfd, &mut registrations, fd);
    }

    /// Syncs `fd`'s epoll entry with its (possibly emptied) slots.
    fn apply_slots(epfd: RawFd, registrations: &mut HashMap<RawFd, FdSlots>, fd: RawFd) {
        let Some(slots) = registrations.get(&fd) else {
            return;
        };
        if slots.is_empty() {
            registrations.remove(&fd);
            let mut event = sys::epoll_event { events: 0, u64: 0 };
            unsafe { sys::epoll_ctl(epfd, sys::EPOLL_CTL_DEL, fd, &mut event) };
        } else {
            let mut event = sys::epoll_event {
                events: slots.epoll_bits(),
                u64: pack_userdata(slots.gen, fd),
            };
            unsafe { sys::epoll_ctl(epfd, sys::EPOLL_CTL_MOD, fd, &mut event) };
        }
    }

    /// Removes any registration for `fd` (socket teardown). The kernel
    /// drops the epoll entry itself when the descriptor closes; this keeps
    /// the slot table from retaining a stale waker into a dead poller, and
    /// removing the entry *before* the descriptor closes is what arms the
    /// generation guard: any in-flight batch now misses the map (or, after
    /// a re-add recycles the fd, mismatches the generation) instead of
    /// waking the wrong owner.
    fn forget(&self, fd: RawFd) {
        if self.registrations.lock().remove(&fd).is_some() {
            let mut event = sys::epoll_event { events: 0, u64: 0 };
            unsafe { sys::epoll_ctl(self.epfd, sys::EPOLL_CTL_DEL, fd, &mut event) };
        }
    }
}

impl Drop for OsReactor {
    fn drop(&mut self) {
        unsafe {
            sys::close(self.epfd);
            sys::close(self.wake_read);
            sys::close(self.wake_write);
        }
    }
}

/// The per-direction reactor handles a socket is currently registered
/// with. Input and output tasks may watch from different shards, so the
/// two directions can live on two different reactors; close/Drop must
/// forget the socket from each, and re-registering a direction on a new
/// shard's poller must first remove it from the old reactor.
#[derive(Default)]
struct ReactorSlots {
    read: Option<Arc<OsReactor>>,
    write: Option<Arc<OsReactor>>,
}

impl ReactorSlots {
    /// Registers the direction(s) in `interest` of `fd` on `poller`'s
    /// reactor. A cross-shard handoff re-registers on a different
    /// reactor: the direction is forgotten on the old one first, so a
    /// socket is never watched twice.
    fn register(&mut self, fd: RawFd, poller: &Poller, token: Token, interest: Interest) {
        let new = poller.os_reactor();
        for (wanted, slot, side) in [
            (interest.is_readable(), &mut self.read, Interest::READABLE),
            (interest.is_writable(), &mut self.write, Interest::WRITABLE),
        ] {
            if !wanted {
                continue;
            }
            if let Some(old) = slot.replace(Arc::clone(&new)) {
                if !Arc::ptr_eq(&old, &new) {
                    old.forget_interest(fd, side);
                }
            }
        }
        new.register(fd, poller, token, interest);
    }

    /// Removes the direction(s) in `interest` of `fd` from `poller`'s
    /// reactor; a direction registered on another shard is left alone.
    fn deregister(&mut self, fd: RawFd, poller: &Poller, interest: Interest) {
        let reactor = poller.os_reactor();
        for (wanted, slot, side) in [
            (interest.is_readable(), &mut self.read, Interest::READABLE),
            (interest.is_writable(), &mut self.write, Interest::WRITABLE),
        ] {
            if wanted && slot.as_ref().is_some_and(|r| Arc::ptr_eq(r, &reactor)) {
                *slot = None;
                reactor.forget_interest(fd, side);
            }
        }
    }

    /// Forgets `fd` on every reactor still holding a registration (for
    /// teardown: once per reactor, not once per direction).
    fn forget(&mut self, fd: RawFd) {
        let read = self.read.take();
        if let Some(reactor) = &read {
            reactor.forget(fd);
        }
        if let Some(reactor) = self.write.take() {
            if !read.is_some_and(|r| Arc::ptr_eq(&r, &reactor)) {
                reactor.forget(fd);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// TcpStack
// ---------------------------------------------------------------------------

/// The OS-socket counterpart of [`crate::SimNetwork`]: owns the stats
/// block and the cost model shared by every socket it opens.
pub struct TcpStack {
    model: StackModel,
    costs: StackCosts,
    stats: Arc<NetStats>,
    next_conn_id: AtomicU64,
}

impl std::fmt::Debug for TcpStack {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TcpStack")
            .field("model", &self.model)
            .finish()
    }
}

impl TcpStack {
    /// Creates a stack whose sockets are charged according to `model`.
    ///
    /// Real sockets already pay the real kernel's costs, so platforms
    /// normally pass [`StackModel::Free`]; the other models exist to
    /// layer the calibrated busy-wait on top for calibration runs.
    pub fn new(model: StackModel) -> Arc<Self> {
        Arc::new(TcpStack {
            model,
            costs: model.costs(),
            stats: NetStats::new_shared(),
            next_conn_id: AtomicU64::new(1),
        })
    }

    /// The stack model sockets of this stack are charged with.
    pub fn model(&self) -> StackModel {
        self.model
    }

    /// The stack-wide statistics counters (same vocabulary as
    /// [`crate::SimNetwork::stats`], so idle-scan assertions carry over).
    pub fn stats(&self) -> &Arc<NetStats> {
        &self.stats
    }

    /// Binds a listening socket. `addr` is a standard socket address;
    /// `127.0.0.1:0` asks the OS for an ephemeral port (read it back with
    /// [`TcpListener::port`]).
    pub fn listen(self: &Arc<Self>, addr: &str) -> Result<TcpListener, NetError> {
        let listener = std::net::TcpListener::bind(addr).map_err(map_io)?;
        self.wrap_listener(listener)
    }

    /// Binds `count` listening sockets to the same address with
    /// `SO_REUSEPORT` — one accept queue per shard. The kernel hashes
    /// incoming connections across the group, so shards accept in
    /// parallel with no shared accept lock and no cross-shard handoff
    /// (DESIGN.md §13). A `:0` bind resolves the ephemeral port on the
    /// first socket and the rest join it.
    pub fn listen_group(
        self: &Arc<Self>,
        addr: &str,
        count: usize,
    ) -> Result<Vec<TcpListener>, NetError> {
        assert!(count > 0, "listen_group needs at least one listener");
        let mut target: SocketAddr = addr
            .to_socket_addrs()
            .map_err(map_io)?
            .find(|a| a.is_ipv4())
            .ok_or(NetError::Io(std::io::ErrorKind::Unsupported))?;
        let mut group = Vec::with_capacity(count);
        for _ in 0..count {
            let listener = self.wrap_listener(listen_reuseport(target)?)?;
            if target.port() == 0 {
                target.set_port(listener.port());
            }
            group.push(listener);
        }
        Ok(group)
    }

    fn wrap_listener(
        self: &Arc<Self>,
        listener: std::net::TcpListener,
    ) -> Result<TcpListener, NetError> {
        listener.set_nonblocking(true).map_err(map_io)?;
        let local_addr = listener.local_addr().map_err(map_io)?;
        Ok(TcpListener {
            inner: Arc::new(TcpListenerInner {
                socket: Mutex::new(Some(listener)),
                local_addr,
                closed: AtomicBool::new(false),
                stack: Arc::clone(self),
                reactors: Mutex::new(ReactorSlots::default()),
            }),
        })
    }

    /// Establishes a connection to `addr` and returns the client endpoint.
    pub fn connect(self: &Arc<Self>, addr: &str) -> Result<crate::Endpoint, NetError> {
        let addr: SocketAddr = addr
            .to_socket_addrs()
            .map_err(map_io)?
            .next()
            .ok_or(NetError::ConnectionRefused)?;
        let stream = TcpStream::connect(addr).map_err(map_io)?;
        StackCosts::charge(self.costs.connect);
        self.stats.record_open();
        Ok(crate::Endpoint::from_tcp(
            self.wrap(stream, crate::conn::Side::Client)?,
        ))
    }

    /// Wraps an accepted/connected stream into a [`TcpConn`].
    fn wrap(
        self: &Arc<Self>,
        stream: TcpStream,
        side: crate::conn::Side,
    ) -> Result<TcpConn, NetError> {
        stream.set_nonblocking(true).map_err(map_io)?;
        let _ = stream.set_nodelay(true);
        Ok(TcpConn {
            inner: Arc::new(TcpConnInner {
                stream,
                id: self.next_conn_id.fetch_add(1, Ordering::Relaxed),
                side,
                costs: self.costs,
                stats: Arc::clone(&self.stats),
                closed: AtomicBool::new(false),
                reactors: Mutex::new(ReactorSlots::default()),
            }),
            rate: None,
        })
    }
}

// ---------------------------------------------------------------------------
// TcpListener
// ---------------------------------------------------------------------------

struct TcpListenerInner {
    /// `None` after [`TcpListener::close`]; dropping the socket releases
    /// the port and makes the kernel refuse new connections.
    socket: Mutex<Option<std::net::TcpListener>>,
    local_addr: SocketAddr,
    closed: AtomicBool,
    stack: Arc<TcpStack>,
    /// The shard reactor watching this listener (readable side only).
    reactors: Mutex<ReactorSlots>,
}

/// A listening OS socket, API-compatible with [`crate::SimListener`].
#[derive(Clone)]
pub struct TcpListener {
    inner: Arc<TcpListenerInner>,
}

impl std::fmt::Debug for TcpListener {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TcpListener")
            .field("addr", &self.inner.local_addr)
            .finish()
    }
}

impl TcpListener {
    /// The port the listener is bound to (resolved, so a `:0` bind reports
    /// the ephemeral port the OS picked).
    pub fn port(&self) -> u16 {
        self.inner.local_addr.port()
    }

    /// The full local socket address.
    pub fn local_addr(&self) -> SocketAddr {
        self.inner.local_addr
    }

    fn raw_fd(&self) -> Option<RawFd> {
        self.inner.socket.lock().as_ref().map(|s| s.as_raw_fd())
    }

    /// Accepts a pending connection without blocking.
    pub fn try_accept(&self) -> Result<crate::Endpoint, NetError> {
        let socket = self.inner.socket.lock();
        let Some(listener) = socket.as_ref() else {
            return Err(NetError::ListenerClosed);
        };
        match listener.accept() {
            Ok((stream, _peer)) => {
                drop(socket);
                StackCosts::charge(self.inner.stack.costs.accept);
                self.inner.stack.stats.record_open();
                let conn = self.inner.stack.wrap(stream, crate::conn::Side::Server)?;
                Ok(crate::Endpoint::from_tcp(conn))
            }
            Err(e) => {
                // fd/buffer exhaustion is retryable, not fatal: surface it
                // as the distinct `Resources` signal so accept loops back
                // off instead of dying (`map_io` would fold these errnos
                // into an opaque `Io(...)`).
                if matches!(
                    e.raw_os_error(),
                    Some(sys::EMFILE | sys::ENFILE | sys::ENOBUFS | sys::ENOMEM)
                ) {
                    return Err(NetError::Resources);
                }
                Err(map_io(e))
            }
        }
    }

    /// Accepts a pending connection, blocking up to `timeout` (client/test
    /// helper; dispatchers always use [`TcpListener::try_accept`]).
    pub fn accept_timeout(&self, timeout: Duration) -> Result<crate::Endpoint, NetError> {
        let deadline = Instant::now() + timeout;
        loop {
            match self.try_accept() {
                Err(NetError::WouldBlock) => {
                    let Some(fd) = self.raw_fd() else {
                        return Err(NetError::ListenerClosed);
                    };
                    let now = Instant::now();
                    if now >= deadline {
                        return Err(NetError::TimedOut);
                    }
                    sys::wait_ready(fd, sys::POLLIN, deadline - now);
                }
                other => return other,
            }
        }
    }

    /// Registers this listener with `poller`: every new pending connection
    /// enqueues `token` as a readable event. Level-triggered at the moment
    /// of the call via a synthetic post (spurious events are allowed).
    pub fn register(&self, poller: &Poller, token: Token) {
        if let Some(fd) = self.raw_fd() {
            self.inner
                .reactors
                .lock()
                .register(fd, poller, token, Interest::READABLE);
            poller.post(token, Readiness::readable());
        } else {
            poller.post(token, Readiness::readable().with_closed());
        }
    }

    /// Removes this listener's registration in `poller`, if any.
    pub fn deregister(&self, poller: &Poller) {
        if let Some(fd) = self.raw_fd() {
            self.inner
                .reactors
                .lock()
                .deregister(fd, poller, Interest::READABLE);
        }
    }

    /// Closes the listener: the port is released and pending/future
    /// accepts fail with [`NetError::ListenerClosed`].
    pub fn close(&self) {
        self.inner.closed.store(true, Ordering::Release);
        let socket = self.inner.socket.lock().take();
        if let Some(socket) = socket {
            self.inner.reactors.lock().forget(socket.as_raw_fd());
        }
    }

    /// Returns `true` after the listener was closed.
    pub fn is_closed(&self) -> bool {
        self.inner.closed.load(Ordering::Acquire)
    }
}

impl Drop for TcpListenerInner {
    fn drop(&mut self) {
        if let Some(socket) = self.socket.get_mut().take() {
            self.reactors.get_mut().forget(socket.as_raw_fd());
        }
    }
}

// ---------------------------------------------------------------------------
// TcpConn
// ---------------------------------------------------------------------------

struct TcpConnInner {
    stream: TcpStream,
    id: u64,
    side: crate::conn::Side,
    costs: StackCosts,
    stats: Arc<NetStats>,
    closed: AtomicBool,
    reactors: Mutex<ReactorSlots>,
}

impl Drop for TcpConnInner {
    fn drop(&mut self) {
        self.reactors.get_mut().forget(self.stream.as_raw_fd());
    }
}

/// One end of an OS TCP connection, implementing the same non-blocking +
/// readiness contract as the simulated [`crate::Endpoint`] pipes. Cheap to
/// clone; clones share the socket, as duplicated fd handles would.
#[derive(Clone)]
pub struct TcpConn {
    inner: Arc<TcpConnInner>,
    rate: Option<Arc<TokenBucket>>,
}

impl std::fmt::Debug for TcpConn {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TcpConn")
            .field("id", &self.inner.id)
            .field("side", &self.inner.side)
            .finish()
    }
}

impl TcpConn {
    fn fd(&self) -> RawFd {
        self.inner.stream.as_raw_fd()
    }

    pub(crate) fn id(&self) -> u64 {
        self.inner.id
    }

    pub(crate) fn side(&self) -> crate::conn::Side {
        self.inner.side
    }

    pub(crate) fn set_write_rate(&mut self, bucket: Arc<TokenBucket>) {
        self.rate = Some(bucket);
    }

    pub(crate) fn write(&self, data: &[u8]) -> Result<usize, NetError> {
        self.send_budgeted(data.len(), |wanted| {
            match (&self.inner.stream).write(&data[..wanted]) {
                Ok(0) => Err(NetError::Closed),
                Ok(n) => Ok(n),
                Err(e) => Err(map_io(e)),
            }
        })
    }

    /// Writes the segments in `bufs` with one `writev(2)` call — a
    /// header+body response leaves in a single syscall without
    /// concatenating into a staging buffer, preserving the zero-copy laws
    /// (the body `Bytes` is handed to the kernel where it sits). Same
    /// contract as [`TcpConn::write`]: returns the bytes the kernel took
    /// (possibly a prefix).
    pub(crate) fn write_vectored(&self, bufs: &[&[u8]]) -> Result<usize, NetError> {
        let total = bufs.iter().map(|b| b.len()).sum();
        self.send_budgeted(total, |wanted| {
            // Truncate the segment list to the acquired budget so a tight
            // bucket still sends a prefix, as the scalar path does.
            let mut budget = wanted;
            let iov: Vec<sys::iovec> = bufs
                .iter()
                .filter_map(|buf| {
                    let take = buf.len().min(budget);
                    budget -= take;
                    (take > 0).then_some(sys::iovec {
                        iov_base: buf.as_ptr(),
                        iov_len: take,
                    })
                })
                .collect();
            // SAFETY: every iovec points into a live slice of `bufs` and
            // is no longer than it.
            match unsafe { sys::writev(self.fd(), iov.as_ptr(), iov.len() as sys::c_int) } {
                0 => Err(NetError::Closed),
                n if n > 0 => {
                    self.inner.stats.record_vectored(iov.len());
                    Ok(n as usize)
                }
                _ => Err(last_os_error()),
            }
        })
    }

    /// Runs one send of up to `len` bytes through the link budget. The
    /// kernel's appetite is unknowable up front (unlike the sim pipes,
    /// which check free space under the pipe lock), so `send` gets the
    /// acquired budget and whatever the socket does not take is refunded
    /// — a full send buffer must not burn tokens. `EINTR` retries.
    fn send_budgeted(
        &self,
        len: usize,
        send: impl Fn(usize) -> Result<usize, NetError>,
    ) -> Result<usize, NetError> {
        if len == 0 {
            return Ok(0);
        }
        if self.inner.closed.load(Ordering::Acquire) {
            return Err(NetError::Closed);
        }
        let wanted = match &self.rate {
            Some(bucket) => bucket.try_acquire(len),
            None => len,
        };
        if wanted == 0 {
            return Err(NetError::WouldBlock);
        }
        let result = loop {
            match send(wanted) {
                Err(NetError::Io(std::io::ErrorKind::Interrupted)) => continue,
                other => break other,
            }
        };
        let sent = *result.as_ref().unwrap_or(&0);
        if let Some(bucket) = self.rate.as_ref().filter(|_| sent < wanted) {
            bucket.refund(wanted - sent);
        }
        if sent > 0 {
            StackCosts::charge(self.inner.costs.io_cost(true, sent));
            self.inner.stats.record_write(sent);
        }
        result
    }

    pub(crate) fn write_all(&self, mut data: &[u8]) -> Result<(), NetError> {
        while !data.is_empty() {
            match self.write(data) {
                Ok(n) => data = &data[n..],
                Err(NetError::WouldBlock) => {
                    // Two distinct reasons to be blocked: an empty token
                    // bucket (sleep out the refill interval) or a full
                    // kernel send buffer (poll for POLLOUT). A rate-limited
                    // endpoint can hit the latter with a full bucket —
                    // `write` refunds tokens on EAGAIN — so a zero refill
                    // wait must still fall through to the POLLOUT wait, or
                    // this loop would spin hot until the peer drains.
                    let refill = self
                        .rate
                        .as_ref()
                        .map(|bucket| bucket.next_available(data.len()))
                        .unwrap_or(Duration::ZERO);
                    if refill.is_zero() {
                        sys::wait_ready(self.fd(), sys::POLLOUT, Duration::from_millis(100));
                    } else {
                        std::thread::sleep(refill.min(Duration::from_millis(5)));
                    }
                }
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    pub(crate) fn read(&self, buf: &mut [u8]) -> Result<usize, NetError> {
        loop {
            match (&self.inner.stream).read(buf) {
                Ok(0) if !buf.is_empty() => return Err(NetError::Closed),
                Ok(n) => {
                    StackCosts::charge(self.inner.costs.io_cost(false, n));
                    self.inner.stats.record_read(n);
                    return Ok(n);
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(map_io(e)),
            }
        }
    }

    pub(crate) fn read_timeout(
        &self,
        buf: &mut [u8],
        timeout: Duration,
    ) -> Result<usize, NetError> {
        let deadline = Instant::now() + timeout;
        loop {
            match self.read(buf) {
                Err(NetError::WouldBlock) => {
                    let now = Instant::now();
                    if now >= deadline {
                        return Err(NetError::TimedOut);
                    }
                    sys::wait_ready(self.fd(), sys::POLLIN, deadline - now);
                }
                other => return other,
            }
        }
    }

    /// `true` if a write could make progress: kernel send-buffer space
    /// (`POLLOUT` with a zero timeout) or a fail-fast close. Matches the
    /// simulated pipes' contract — a rate limiter alone never makes this
    /// `false`.
    pub(crate) fn writable(&self) -> bool {
        self.inner.stats.record_writable_poll();
        if self.inner.closed.load(Ordering::Acquire) {
            return true;
        }
        sys::wait_ready(self.fd(), sys::POLLOUT, Duration::ZERO)
    }

    pub(crate) fn stats(&self) -> &Arc<NetStats> {
        &self.inner.stats
    }

    pub(crate) fn pending(&self) -> usize {
        let mut available: sys::c_int = 0;
        let rc = unsafe { sys::ioctl(self.fd(), sys::FIONREAD, &mut available) };
        if rc == 0 {
            available.max(0) as usize
        } else {
            0
        }
    }

    /// Probes the socket without consuming data (`recv(MSG_PEEK)`): `true`
    /// once EOF is observable or a hard error (e.g. `ECONNRESET`) says the
    /// peer is gone — matching the sim transport, where a dead peer
    /// reports `peer_closed`. Only `EAGAIN` or buffered bytes mean "not
    /// yet".
    pub(crate) fn peer_closed(&self) -> bool {
        let mut probe = 0u8;
        let rc = unsafe { sys::recv(self.fd(), &mut probe, 1, sys::MSG_PEEK | sys::MSG_DONTWAIT) };
        match rc {
            0 => true,
            n if n > 0 => false,
            _ => sys::errno() != sys::EAGAIN,
        }
    }

    pub(crate) fn is_closed(&self) -> bool {
        self.inner.closed.load(Ordering::Acquire)
    }

    pub(crate) fn register(&self, poller: &Poller, token: Token, interest: Interest) {
        self.inner
            .reactors
            .lock()
            .register(self.fd(), poller, token, interest);
        // Level-triggered at registration: post the current state so bytes
        // that arrived before (or during) the registration — e.g. across a
        // cross-shard handoff — are observed. Writable interest is posted
        // unconditionally (a fresh socket is almost always writable, and
        // spurious events are allowed).
        let mut readiness = Readiness::default();
        if interest.is_readable() {
            readiness.readable = true;
        }
        if interest.is_writable() {
            readiness.writable = true;
        }
        poller.post(token, readiness);
    }

    pub(crate) fn deregister(&self, poller: &Poller) {
        self.deregister_interest(poller, Interest::BOTH);
    }

    pub(crate) fn deregister_interest(&self, poller: &Poller, interest: Interest) {
        self.inner
            .reactors
            .lock()
            .deregister(self.fd(), poller, interest);
    }

    pub(crate) fn close(&self) {
        if self.inner.closed.swap(true, Ordering::AcqRel) {
            return;
        }
        StackCosts::charge(self.inner.costs.teardown);
        // Forget *before* shutdown/close: removing the registration entry
        // first is what arms the stale-generation guard against an
        // in-flight epoll batch racing the fd recycle.
        self.inner.reactors.lock().forget(self.fd());
        let _ = self.inner.stream.shutdown(std::net::Shutdown::Both);
        self.inner.stats.record_close();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Endpoint;

    fn stack() -> Arc<TcpStack> {
        TcpStack::new(StackModel::Free)
    }

    fn local(port: u16) -> String {
        format!("127.0.0.1:{port}")
    }

    fn pair(stack: &Arc<TcpStack>) -> (TcpListener, Endpoint, Endpoint) {
        let listener = stack.listen("127.0.0.1:0").unwrap();
        let client = stack.connect(&local(listener.port())).unwrap();
        let server = listener.accept_timeout(Duration::from_secs(5)).unwrap();
        (listener, client, server)
    }

    #[test]
    fn connect_accept_roundtrip() {
        let stack = stack();
        let (_listener, client, server) = pair(&stack);
        client.write_all(b"over the wire").unwrap();
        let mut buf = [0u8; 32];
        let n = server
            .read_timeout(&mut buf, Duration::from_secs(5))
            .unwrap();
        assert_eq!(&buf[..n], b"over the wire");
        assert_eq!(stack.stats().snapshot().connections_opened, 2);
    }

    #[test]
    fn empty_read_would_block_and_close_gives_eof() {
        let stack = stack();
        let (_listener, client, server) = pair(&stack);
        let mut buf = [0u8; 8];
        assert_eq!(server.read(&mut buf), Err(NetError::WouldBlock));
        client.write(b"bye").unwrap();
        client.close();
        let mut seen = Vec::new();
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            match server.read(&mut buf) {
                Ok(n) => seen.extend_from_slice(&buf[..n]),
                Err(NetError::WouldBlock) => {
                    assert!(Instant::now() < deadline, "EOF never arrived");
                    std::thread::sleep(Duration::from_millis(1));
                }
                Err(NetError::Closed) => break,
                Err(e) => panic!("unexpected error: {e}"),
            }
        }
        assert_eq!(seen, b"bye");
    }

    #[test]
    fn registered_conn_gets_readable_events() {
        let stack = stack();
        let (_listener, client, server) = pair(&stack);
        let poller = Poller::new();
        server.register(&poller, Token(1), Interest::READABLE);
        // Drain the synthetic level-trigger event first.
        let _ = poller.wait(Duration::from_millis(50));
        client.write_all(b"ping").unwrap();
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            let events = poller.wait(Duration::from_millis(100));
            if events
                .iter()
                .any(|e| e.token == Token(1) && e.readiness.readable)
            {
                break;
            }
            assert!(
                Instant::now() < deadline,
                "no readable event for real bytes"
            );
        }
        let mut buf = [0u8; 8];
        assert_eq!(server.read(&mut buf).unwrap(), 4);
    }

    #[test]
    fn listener_registration_posts_accept_events() {
        let stack = stack();
        let listener = stack.listen("127.0.0.1:0").unwrap();
        let poller = Poller::new();
        listener.register(&poller, Token(9));
        let _ = poller.wait(Duration::from_millis(50)); // synthetic level-trigger
        let _client = stack.connect(&local(listener.port())).unwrap();
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            let events = poller.wait(Duration::from_millis(100));
            if events.iter().any(|e| e.token == Token(9)) {
                break;
            }
            assert!(Instant::now() < deadline, "no accept event");
        }
        assert!(listener.try_accept().is_ok());
    }

    #[test]
    fn closed_listener_refuses_and_releases_the_port() {
        let stack = stack();
        let listener = stack.listen("127.0.0.1:0").unwrap();
        let port = listener.port();
        listener.close();
        assert!(listener.is_closed());
        assert_eq!(
            listener.try_accept().map(|_| ()),
            Err(NetError::ListenerClosed)
        );
        // The port can be bound again.
        let _second = stack.listen(&local(port)).unwrap();
    }

    /// A rate-limited endpoint whose kernel send buffer fills must block
    /// in the POLLOUT wait (not spin on acquire/EAGAIN/refund) and still
    /// deliver every byte once the reader drains.
    #[test]
    fn rate_limited_write_all_survives_a_full_send_buffer() {
        const TOTAL: usize = 4 * 1024 * 1024;
        let stack = stack();
        let (_listener, mut client, server) = pair(&stack);
        // Generous rate and burst: the bottleneck is the stalled reader,
        // not the bucket — the regression this test pins down.
        client.set_write_rate(Arc::new(TokenBucket::new_bits_per_sec(
            10_000_000_000,
            1 << 20,
        )));
        let reader = std::thread::spawn(move || {
            // Let the writer slam into a full send buffer first.
            std::thread::sleep(Duration::from_millis(50));
            let mut buf = [0u8; 64 * 1024];
            let mut total = 0usize;
            while total < TOTAL {
                match server.read_timeout(&mut buf, Duration::from_secs(10)) {
                    Ok(n) => total += n,
                    Err(e) => panic!("reader failed after {total} bytes: {e}"),
                }
            }
            total
        });
        client.write_all(&vec![0x42u8; TOTAL]).unwrap();
        assert_eq!(reader.join().unwrap(), TOTAL);
    }

    /// The stale-token guard, deterministically: an epoll event carrying a
    /// generation that no longer matches the live registration (the fd was
    /// recycled while the batch was in flight) must resolve to no wakes —
    /// a stale HUP would otherwise tear down the recycled fd's healthy new
    /// connection.
    #[test]
    fn stale_generation_events_resolve_to_no_wakes() {
        let stack = stack();
        let (_listener, _client, server_ep) = pair(&stack);
        // Reach the raw conn via a fresh wrap of a second socket so the
        // module-private fields are accessible.
        drop(server_ep);
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let stream = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let conn = stack.wrap(stream, crate::conn::Side::Client).unwrap();
        let poller = Poller::new();
        conn.register(&poller, Token(7), Interest::READABLE);
        let _ = poller.wait(Duration::from_millis(50)); // synthetic level-trigger
        let reactor = poller.os_reactor();
        let gen = reactor.registrations.lock().get(&conn.fd()).unwrap().gen;
        let live = sys::epoll_event {
            events: sys::EPOLLIN,
            u64: pack_userdata(gen, conn.fd()),
        };
        let stale = sys::epoll_event {
            events: sys::EPOLLIN | sys::EPOLLHUP,
            u64: pack_userdata(gen.wrapping_add(1), conn.fd()),
        };
        assert!(
            reactor.resolve_batch(&[stale]).is_empty(),
            "stale-generation event must be dropped"
        );
        let wakes = reactor.resolve_batch(&[live]);
        assert_eq!(wakes.len(), 1);
        assert!(wakes[0].1.readable && !wakes[0].1.closed);
    }

    #[test]
    fn listen_group_shares_one_port_across_sockets() {
        let stack = stack();
        let group = stack.listen_group("127.0.0.1:0", 2).unwrap();
        assert_eq!(group[0].port(), group[1].port());
        let clients: Vec<_> = (0..8)
            .map(|_| stack.connect(&local(group[0].port())).unwrap())
            .collect();
        let deadline = Instant::now() + Duration::from_secs(5);
        let mut served = Vec::new();
        while served.len() < clients.len() {
            assert!(Instant::now() < deadline, "accepts never arrived");
            for listener in &group {
                match listener.try_accept() {
                    Ok(conn) => served.push(conn),
                    Err(NetError::WouldBlock) => {}
                    Err(e) => panic!("unexpected accept error: {e}"),
                }
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    #[test]
    fn vectored_write_lands_as_one_contiguous_stream() {
        let stack = stack();
        let listener = stack.listen("127.0.0.1:0").unwrap();
        let stream = TcpStream::connect(("127.0.0.1", listener.port())).unwrap();
        let client = stack.wrap(stream, crate::conn::Side::Client).unwrap();
        let server = listener.accept_timeout(Duration::from_secs(5)).unwrap();
        let n = client
            .write_vectored(&[b"HTTP/1.1 200 OK\r\n\r\n", b"hello body"])
            .unwrap();
        assert_eq!(n, 29);
        let mut buf = [0u8; 64];
        let mut seen = Vec::new();
        while seen.len() < n {
            let got = server
                .read_timeout(&mut buf, Duration::from_secs(5))
                .unwrap();
            seen.extend_from_slice(&buf[..got]);
        }
        assert_eq!(&seen, b"HTTP/1.1 200 OK\r\n\r\nhello body");
        let snap = stack.stats().snapshot();
        assert_eq!(snap.vectored_writes, 1);
        assert_eq!(snap.vectored_segments, 2);
    }

    /// Dropping a poller stops its reactor: with no thread to hold it, the
    /// epoll instance and self-pipe close with the last `Arc`, while
    /// sockets registered there keep working through plain reads.
    #[test]
    fn dropping_the_poller_stops_its_reactor() {
        let stack = stack();
        let (_listener, client, server) = pair(&stack);
        let poller = Poller::new();
        server.register(&poller, Token(3), Interest::READABLE);
        let reactor = Arc::downgrade(&poller.os_reactor());
        // Deregistering drops the socket's handle on the reactor, so the
        // poller's drop below releases the last one.
        server.deregister(&poller);
        drop(poller);
        assert!(
            reactor.upgrade().is_none(),
            "epoll instance outlived its poller"
        );
        client.write_all(b"still here").unwrap();
        let mut buf = [0u8; 16];
        let n = server
            .read_timeout(&mut buf, Duration::from_secs(5))
            .unwrap();
        assert_eq!(&buf[..n], b"still here");
    }

    #[test]
    fn pending_reports_buffered_bytes() {
        let stack = stack();
        let (_listener, client, server) = pair(&stack);
        client.write_all(b"12345").unwrap();
        let deadline = Instant::now() + Duration::from_secs(5);
        while server.pending() < 5 {
            assert!(Instant::now() < deadline, "bytes never arrived");
            std::thread::sleep(Duration::from_millis(1));
        }
        assert!(!server.peer_closed());
    }
}
