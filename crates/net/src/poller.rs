//! Readiness notification: the substrate's stand-in for epoll.
//!
//! The paper's platform multiplexes thousands of connections through one
//! dispatcher thread blocked in epoll. This module provides the equivalent
//! for the simulated substrate (DESIGN.md §3, readiness model): a
//! [`Poller`] owns a queue of ready [`Token`]s fed by *wakers* that the
//! event sources ([`crate::Endpoint`] pipes, [`crate::SimListener`] accept
//! queues) invoke on every state transition — bytes arriving, buffer space
//! freed, EOF, a new pending accept. Consumers block in [`Poller::wait`]
//! instead of re-scanning idle connections.
//!
//! Invariants:
//!
//! * **No lost wakeups.** Every state transition that could unblock a
//!   registered consumer enqueues that registration's token, and
//!   registration itself enqueues the token if the source is *already*
//!   ready (level-triggered at registration, edge-triggered afterwards).
//!   A consumer that drains its source to `WouldBlock` after each event is
//!   therefore guaranteed to observe all data and the final EOF.
//! * **Spurious wakeups allowed.** An event only means "worth checking":
//!   the consumer must be prepared for the source to yield `WouldBlock`.
//! * **Coalescing.** A token is queued at most once until delivered; the
//!   readiness flags of coalesced events are OR-ed together.
//! * **Handoff safety.** Re-registering a source with a different poller
//!   (the sharded runtime's accept → place → register path) installs the
//!   new waker and re-runs the level-triggered readiness check under the
//!   *source's* lock, so a transition racing the handoff lands in the old
//!   poller or the new one — never in neither. A consumer that drains to
//!   `WouldBlock` after taking over a registration therefore observes
//!   every byte and the final EOF, no matter how often the registration
//!   moves (see `handoff_between_pollers_loses_no_wakeups` in the conn
//!   tests). Events already queued in the old poller are not retracted;
//!   stale consumers must tolerate spurious events, per the second
//!   invariant.
//!
//! # Examples
//!
//! ```
//! use flick_net::{Interest, Poller, SimNetwork, StackModel, Token};
//! use std::time::Duration;
//!
//! let net = SimNetwork::new(StackModel::Free);
//! let listener = net.listen(7000).unwrap();
//! let client = net.connect(7000).unwrap();
//! let server = listener.accept().unwrap();
//!
//! let poller = Poller::new();
//! server.register(&poller, Token(1), Interest::READABLE);
//!
//! client.write(b"ping").unwrap();
//! let events = poller.wait(Duration::from_secs(1));
//! assert_eq!(events[0].token, Token(1));
//! assert!(events[0].readiness.readable);
//! ```

use parking_lot::{Condvar, Mutex, MutexGuard};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// Identifies one registered event source within a [`Poller`].
///
/// Tokens are chosen by the consumer (the dispatcher uses them as keys into
/// its watcher map); the poller never interprets them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Token(pub u64);

/// Which transitions a registration wants to observe.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Interest {
    readable: bool,
    writable: bool,
}

impl Interest {
    /// Wake when data (or EOF) becomes available to read.
    pub const READABLE: Interest = Interest {
        readable: true,
        writable: false,
    };
    /// Wake when buffer space frees up (or the peer closes).
    pub const WRITABLE: Interest = Interest {
        readable: false,
        writable: true,
    };
    /// Both directions.
    pub const BOTH: Interest = Interest {
        readable: true,
        writable: true,
    };

    /// Does this interest include readability?
    pub fn is_readable(&self) -> bool {
        self.readable
    }

    /// Does this interest include writability?
    pub fn is_writable(&self) -> bool {
        self.writable
    }
}

/// The readiness flags carried by one [`Event`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Readiness {
    /// A read would make progress (data buffered or EOF observable).
    pub readable: bool,
    /// A write would make progress (space available or the write would
    /// fail fast because the peer closed).
    pub writable: bool,
    /// The transition involved a close (EOF, peer gone, listener closed).
    pub closed: bool,
}

impl Readiness {
    /// Readiness with only the `readable` flag set.
    pub fn readable() -> Self {
        Readiness {
            readable: true,
            ..Default::default()
        }
    }

    /// Readiness with only the `writable` flag set.
    pub fn writable() -> Self {
        Readiness {
            writable: true,
            ..Default::default()
        }
    }

    /// Marks the readiness as involving a close.
    pub fn with_closed(mut self) -> Self {
        self.closed = true;
        self
    }

    fn merge(&mut self, other: Readiness) {
        self.readable |= other.readable;
        self.writable |= other.writable;
        self.closed |= other.closed;
    }
}

/// One readiness event delivered by [`Poller::wait`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// The token the source was registered with.
    pub token: Token,
    /// OR of the readiness flags of all coalesced transitions.
    pub readiness: Readiness,
}

struct PollState {
    /// Delivery order of ready tokens.
    queue: VecDeque<Token>,
    /// Coalesced readiness per queued token; a token appears in `queue`
    /// exactly when it has an entry here.
    pending: HashMap<Token, Readiness>,
    /// Manual [`Poller::wake`] calls not yet consumed by a `wait`.
    wakeups: u64,
    /// The waiter is parked on the condvar; posters only notify then.
    in_condvar: bool,
}

impl PollState {
    /// Drains every queued event, oldest first, if any (or a manual wake)
    /// is pending.
    fn take_ready(&mut self) -> Option<Vec<Event>> {
        if self.queue.is_empty() && self.wakeups == 0 {
            return None;
        }
        self.wakeups = 0;
        let pending = &mut self.pending;
        let drain = self.queue.drain(..).map(|token| Event {
            token,
            readiness: pending.remove(&token).unwrap_or_default(),
        });
        Some(drain.collect())
    }
}

pub(crate) struct PollerInner {
    state: Mutex<PollState>,
    cond: Condvar,
    /// This poller's epoll instance, created the first time an OS socket
    /// registers here; from then on the waiter blocks in `epoll_wait`
    /// itself (DESIGN.md §3, §13). Registrations never leave the shard.
    os_reactor: OnceLock<Arc<crate::tcp::OsReactor>>,
    /// The waiter is (about to be) blocked in `epoll_wait`; posters then
    /// poke the self-pipe. See [`Poller::wait`] for the protocol.
    in_epoll: AtomicBool,
    /// Debug check that one thread waits at a time.
    waiting: AtomicBool,
    epoll_waits: AtomicU64,
    cross_thread_pokes: AtomicU64,
}

impl PollerInner {
    pub(crate) fn post(&self, token: Token, readiness: Readiness) {
        let mut state = self.state.lock();
        Self::post_locked(&mut state, token, readiness);
        self.notify(state);
    }

    fn post_locked(state: &mut PollState, token: Token, readiness: Readiness) {
        if let Some(existing) = state.pending.get_mut(&token) {
            existing.merge(readiness);
        } else {
            state.pending.insert(token, readiness);
            state.queue.push_back(token);
        }
    }

    /// Wakes the waiter after a push made under `state`'s lock: a condvar
    /// notify if it is parked there, one self-pipe byte if it is blocked
    /// in `epoll_wait`, nothing if it is running (it re-checks the queue).
    fn notify(&self, state: MutexGuard<'_, PollState>) {
        if state.in_condvar {
            self.cond.notify_one();
        }
        let poke = self.in_epoll.load(Ordering::SeqCst);
        drop(state);
        if let (true, Some(reactor)) = (poke, self.os_reactor.get()) {
            reactor.poke();
            self.cross_thread_pokes.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// Delivers one `epoll_wait` batch of wakes with one lock acquisition and
/// one notification per destination poller, instead of one of each per
/// event. The batch is grouped by destination in place; relative order
/// within one poller is preserved (stable sort), which keeps delivery
/// order deterministic.
pub(crate) fn wake_batch(mut wakes: Vec<(WakerSlot, Readiness)>) {
    wakes.sort_by_key(|(slot, _)| Arc::as_ptr(&slot.inner) as usize);
    let mut idx = 0;
    while idx < wakes.len() {
        let inner = Arc::clone(&wakes[idx].0.inner);
        let mut state = inner.state.lock();
        while idx < wakes.len() && Arc::ptr_eq(&wakes[idx].0.inner, &inner) {
            let (slot, readiness) = &wakes[idx];
            PollerInner::post_locked(&mut state, slot.token, *readiness);
            idx += 1;
        }
        inner.notify(state);
    }
}

/// A waker handle an event source holds for one registration.
///
/// Invoking [`WakerSlot::wake`] enqueues the registration's token; it is
/// safe to call while holding the source's own lock (the poller uses its
/// own, and lock ordering is always source → poller).
#[derive(Clone)]
pub(crate) struct WakerSlot {
    inner: Arc<PollerInner>,
    token: Token,
}

impl WakerSlot {
    pub(crate) fn wake(&self, readiness: Readiness) {
        self.inner.post(self.token, readiness);
    }

    /// `true` if this slot posts into `poller` (used by deregistration).
    pub(crate) fn belongs_to(&self, poller: &Poller) -> bool {
        Arc::ptr_eq(&self.inner, &poller.inner)
    }
}

/// The readiness queue consumers block on.
///
/// Cheap to clone; clones share the same queue (the dispatcher thread
/// waits, service handles clone it to [`Poller::wake`] on shutdown).
#[derive(Clone)]
pub struct Poller {
    inner: Arc<PollerInner>,
}

impl Default for Poller {
    fn default() -> Self {
        Poller::new()
    }
}

impl std::fmt::Debug for Poller {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let state = self.inner.state.lock();
        f.debug_struct("Poller")
            .field("queued", &state.queue.len())
            .finish()
    }
}

impl Poller {
    /// Creates an empty poller.
    pub fn new() -> Self {
        Poller {
            inner: Arc::new(PollerInner {
                state: Mutex::new(PollState {
                    queue: VecDeque::new(),
                    pending: HashMap::new(),
                    wakeups: 0,
                    in_condvar: false,
                }),
                cond: Condvar::new(),
                os_reactor: OnceLock::new(),
                in_epoll: AtomicBool::new(false),
                waiting: AtomicBool::new(false),
                epoll_waits: AtomicU64::new(0),
                cross_thread_pokes: AtomicU64::new(0),
            }),
        }
    }

    /// This poller's epoll instance, created on first use. All OS-socket
    /// registrations made through this poller land in its epoll set.
    pub(crate) fn os_reactor(&self) -> Arc<crate::tcp::OsReactor> {
        Arc::clone(
            self.inner
                .os_reactor
                .get_or_init(crate::tcp::OsReactor::new),
        )
    }

    /// Blocks until at least one event (or a manual [`Poller::wake`])
    /// arrives, or `timeout` elapses. Returns every queued event, oldest
    /// first; an empty vector means the wait timed out or was woken.
    ///
    /// One thread waits on a poller at a time (debug builds assert it).
    /// Once an OS socket has registered, the waiter blocks in `epoll_wait`
    /// itself, rounding a sub-millisecond remainder up so a near deadline
    /// never spins, and harvests the epoll set on every call — with a 0 ms
    /// timeout when posts are already queued, so kernel events cannot
    /// starve. Other threads' posts interrupt `epoll_wait` through the
    /// self-pipe, Dekker-style: the waiter sees the queue empty and stores
    /// `in_epoll` (SeqCst) in one critical section, then blocks; a poster
    /// pushes and loads `in_epoll` in one critical section and pokes only
    /// if it is set. Either the push precedes the check (the waiter does
    /// not block) or the store precedes the load (the poster pokes); the
    /// pipe is level-triggered, so a poke that lands before the waiter
    /// enters `epoll_wait` is not lost.
    pub fn wait(&self, timeout: Duration) -> Vec<Event> {
        let inner = &self.inner;
        debug_assert!(
            !inner.waiting.swap(true, Ordering::Acquire),
            "two threads waiting on one Poller"
        );
        let deadline = Instant::now() + timeout;
        let mut state = inner.state.lock();
        let events = loop {
            if let Some(reactor) = inner.os_reactor.get() {
                let busy = !state.queue.is_empty() || state.wakeups > 0;
                let left = deadline.saturating_duration_since(Instant::now());
                let millis = if busy {
                    0
                } else {
                    left.as_micros().div_ceil(1000)
                };
                inner.in_epoll.store(millis > 0, Ordering::SeqCst);
                drop(state);
                inner.epoll_waits.fetch_add(1, Ordering::Relaxed);
                let wakes = reactor.harvest(millis.min(i32::MAX as u128) as i32);
                inner.in_epoll.store(false, Ordering::SeqCst);
                wake_batch(wakes);
                state = inner.state.lock();
            }
            if let Some(events) = state.take_ready() {
                break events;
            }
            let now = Instant::now();
            if now >= deadline {
                break Vec::new();
            }
            if inner.os_reactor.get().is_none() {
                state.in_condvar = true;
                inner.cond.wait_for(&mut state, deadline - now);
                state.in_condvar = false;
            }
        };
        drop(state);
        inner.waiting.store(false, Ordering::Release);
        events
    }

    /// Enqueues a user-generated event (the dispatcher uses this for
    /// task-exit notifications that do not originate in the substrate).
    pub fn post(&self, token: Token, readiness: Readiness) {
        self.inner.post(token, readiness);
    }

    /// Unblocks a concurrent (or the next) [`Poller::wait`] without
    /// delivering an event. Used to make shutdown prompt.
    pub fn wake(&self) {
        let mut state = self.inner.state.lock();
        state.wakeups += 1;
        self.inner.notify(state);
    }

    /// Number of events currently queued (diagnostics).
    pub fn queued(&self) -> usize {
        self.inner.state.lock().queue.len()
    }

    /// `epoll_wait` calls made by this poller's waiter (diagnostics).
    pub fn epoll_waits(&self) -> u64 {
        self.inner.epoll_waits.load(Ordering::Relaxed)
    }

    /// Self-pipe bytes other threads wrote to interrupt it (diagnostics).
    pub fn cross_thread_pokes(&self) -> u64 {
        self.inner.cross_thread_pokes.load(Ordering::Relaxed)
    }

    pub(crate) fn slot(&self, token: Token) -> WakerSlot {
        WakerSlot {
            inner: Arc::clone(&self.inner),
            token,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conn::pair;
    use crate::costs::StackCosts;
    use crate::error::NetError;

    #[test]
    fn post_then_wait_delivers_in_order() {
        let poller = Poller::new();
        poller.post(Token(1), Readiness::readable());
        poller.post(Token(2), Readiness::writable());
        let events = poller.wait(Duration::from_millis(10));
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].token, Token(1));
        assert!(events[0].readiness.readable && !events[0].readiness.writable);
        assert_eq!(events[1].token, Token(2));
        assert!(events[1].readiness.writable);
    }

    #[test]
    fn events_for_one_token_coalesce() {
        let poller = Poller::new();
        poller.post(Token(7), Readiness::readable());
        poller.post(Token(7), Readiness::writable().with_closed());
        let events = poller.wait(Duration::from_millis(10));
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].token, Token(7));
        assert!(events[0].readiness.readable);
        assert!(events[0].readiness.writable);
        assert!(events[0].readiness.closed);
    }

    #[test]
    fn wait_times_out_empty() {
        let poller = Poller::new();
        let start = Instant::now();
        let events = poller.wait(Duration::from_millis(20));
        assert!(events.is_empty());
        assert!(start.elapsed() >= Duration::from_millis(20));
    }

    #[test]
    fn wake_unblocks_wait_without_events() {
        let poller = Poller::new();
        let waker = poller.clone();
        let handle = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(10));
            waker.wake();
        });
        let start = Instant::now();
        let events = poller.wait(Duration::from_secs(5));
        assert!(events.is_empty());
        assert!(start.elapsed() < Duration::from_secs(5));
        handle.join().unwrap();
    }

    #[test]
    fn wake_before_wait_is_not_lost() {
        let poller = Poller::new();
        poller.wake();
        let start = Instant::now();
        assert!(poller.wait(Duration::from_secs(5)).is_empty());
        assert!(start.elapsed() < Duration::from_secs(1));
    }

    #[test]
    fn cross_thread_post_wakes_waiter() {
        let poller = Poller::new();
        let producer = poller.clone();
        let handle = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(5));
            producer.post(Token(3), Readiness::readable());
        });
        let events = poller.wait(Duration::from_secs(5));
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].token, Token(3));
        handle.join().unwrap();
    }

    #[test]
    fn wake_batch_groups_by_destination_and_coalesces() {
        let a = Poller::new();
        let b = Poller::new();
        wake_batch(vec![
            (a.slot(Token(1)), Readiness::readable()),
            (b.slot(Token(2)), Readiness::writable()),
            (a.slot(Token(1)), Readiness::writable()),
            (a.slot(Token(3)), Readiness::readable()),
        ]);
        let events_a = a.wait(Duration::from_millis(10));
        assert_eq!(events_a.len(), 2);
        assert_eq!(events_a[0].token, Token(1));
        assert!(events_a[0].readiness.readable && events_a[0].readiness.writable);
        assert_eq!(events_a[1].token, Token(3));
        let events_b = b.wait(Duration::from_millis(10));
        assert_eq!(events_b.len(), 1);
        assert_eq!(events_b[0].token, Token(2));
        assert!(events_b[0].readiness.writable);
    }

    /// The lost-wakeup stress test of the readiness layer: N writer threads
    /// (each racing a closer) against one `Poller::wait` consumer. Every
    /// byte and every EOF must eventually be observed; a lost wakeup shows
    /// up as the consumer timing out with connections still open.
    #[test]
    fn stress_no_lost_wakeups() {
        const WRITERS: usize = 8;
        const BYTES_PER_WRITER: usize = 64 * 1024;

        let poller = Poller::new();
        let mut readers = Vec::new();
        let mut handles = Vec::new();
        for i in 0..WRITERS {
            let (client, server) = pair(
                i as u64,
                StackCosts::free(),
                None,
                // Small pipes force many buffer-full / buffer-drained
                // transitions per connection.
                4 * 1024,
            );
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
                // The closer races the consumer's final reads.
                client.close();
            }));
        }

        let mut received = vec![0usize; WRITERS];
        let mut eof = vec![false; WRITERS];
        let mut buf = [0u8; 2048];
        let deadline = Instant::now() + Duration::from_secs(30);
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
}
