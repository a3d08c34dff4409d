//! The per-shard application and graph dispatchers.
//!
//! §5 of the paper: the *application dispatcher* owns the listening socket
//! of a service, maps new connections to the service's program instance and
//! indicates connection closes; the *graph dispatcher* assigns connections
//! to task graphs, instantiating a new one when needed. Since the sharding
//! refactor both run on **one dispatcher thread per shard** (not per
//! service): a shard's dispatcher multiplexes every service homed on it
//! plus every graph placed on it, and blocks on the shard's
//! [`Poller`] — one reactor per shard, whose kernel readiness the
//! dispatcher thread collects in `epoll_wait` itself.
//!
//! Graphs are *placed*: when a service's home shard has accepted enough
//! connections for a graph instance, the platform's
//! [`crate::shard::PlacementPolicy`] picks the shard the graph runs on.
//! A graph placed on a remote shard is handed off through that shard's
//! inbox ([`ShardCommand::BuildGraph`]); the client endpoints are only
//! ever registered with the *owning* shard's poller, and registration is
//! level-triggered, so bytes arriving during the handoff cannot be lost.
//!
//! Two implementations exist, selected by [`DispatcherBackend`]:
//!
//! * [`DispatcherBackend::Event`] (default) — a wakeup-based reactor.
//!   Accepts, task wakeups, cross-shard handoffs and graph teardown are
//!   all event handlers keyed by a [`Token`] → watcher map; between events
//!   the thread blocks in [`Poller::wait`] and performs **zero** endpoint
//!   scans, so thousands of idle connections cost nothing.
//! * [`DispatcherBackend::Poll`] — the historical sleep-poll loop, kept as
//!   the ablation baseline (`flick_bench`'s `dispatcher_backend`
//!   ablation): sleep `poll_interval`, then linearly re-scan every watched
//!   endpoint.

use crate::metrics::RuntimeMetrics;
use crate::platform::{GraphFactory, ServiceEnv, Watch};
use crate::scheduler::Scheduler;
use crate::shard::{Shard, ShardCommand, ShardSet, CONTROL_TOKEN};
use crate::task::TaskId;
use crate::value::SharedDict;
use flick_net::{Endpoint, Interest, Listener, NetError, Poller, Token};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Which dispatcher implementation a platform runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum DispatcherBackend {
    /// Wakeup-based reactor: the dispatcher blocks on readiness events and
    /// never scans idle connections. The default.
    #[default]
    Event,
    /// Sleep `poll_interval`, then re-scan every watched endpoint. Kept as
    /// the ablation baseline for the event backend.
    Poll,
}

impl DispatcherBackend {
    /// Short label used in benchmark output ("event", "poll").
    pub fn label(self) -> &'static str {
        match self {
            DispatcherBackend::Event => "event",
            DispatcherBackend::Poll => "poll",
        }
    }

    /// Both backends, poll first (the ablation's baseline ordering).
    pub fn all() -> [DispatcherBackend; 2] {
        [DispatcherBackend::Poll, DispatcherBackend::Event]
    }
}

/// How long a non-quiescent draining graph may linger before it is torn
/// down forcibly.
const DRAIN_GRACE: Duration = Duration::from_secs(2);

/// Per-service state shared between the platform, the shard dispatchers
/// and the service handle.
pub struct ServiceShared {
    id: u64,
    name: String,
    /// The service's accept sockets. A single listener (the common case,
    /// and all of the simulated transport) is homed on `home_shard`. With
    /// kernel accept sharding ([`flick_net::TcpStack::listen_group`])
    /// there is one `SO_REUSEPORT` listener per shard and listener `i` is
    /// owned — registered, drained and closed — by shard `i`'s
    /// dispatcher, so accepts never funnel through one thread.
    listeners: Vec<Listener>,
    factory: Arc<dyn GraphFactory>,
    env: ServiceEnv,
    home_shard: usize,
    /// Set by [`DeployedService::stop`]; every shard tears down this
    /// service's graphs on its next control event.
    stopped: AtomicBool,
    /// Connections accepted so far.
    pub connections_accepted: AtomicU64,
    /// Graph instances currently alive (across all shards).
    pub live_graphs: AtomicU64,
    /// Accept attempts that failed on fd/buffer exhaustion
    /// ([`NetError::Resources`]). The dispatchers back off and retry;
    /// this counter is how tests (and operators) see that it happened.
    pub accept_resource_errors: AtomicU64,
}

impl ServiceShared {
    /// Creates the shared service state (platform-internal).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        id: u64,
        name: String,
        listeners: Vec<Listener>,
        factory: Arc<dyn GraphFactory>,
        env: ServiceEnv,
        home_shard: usize,
    ) -> Self {
        assert!(
            !listeners.is_empty(),
            "a service needs at least one listener"
        );
        ServiceShared {
            id,
            name,
            listeners,
            factory,
            env,
            home_shard,
            stopped: AtomicBool::new(false),
            connections_accepted: AtomicU64::new(0),
            live_graphs: AtomicU64::new(0),
            accept_resource_errors: AtomicU64::new(0),
        }
    }

    /// The service name this dispatcher serves.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The shard the service's listener lives on.
    pub fn home_shard(&self) -> usize {
        self.home_shard
    }

    /// The accept socket `shard`'s dispatcher owns, if any: the single
    /// listener when `shard` is the home shard, or the shard's own
    /// `SO_REUSEPORT` socket under accept sharding (listener `i` ↔
    /// shard `i`).
    pub(crate) fn listener_on(&self, shard: usize) -> Option<&Listener> {
        if self.listeners.len() == 1 {
            (shard == self.home_shard).then(|| &self.listeners[0])
        } else {
            self.listeners.get(shard)
        }
    }

    /// Closes every accept socket. Idempotent, so the stop path and each
    /// shard's teardown may all call it.
    fn close_listeners(&self) {
        for listener in &self.listeners {
            listener.close();
        }
    }

    fn stopped(&self) -> bool {
        self.stopped.load(Ordering::Acquire)
    }
}

struct LiveGraph {
    service: Arc<ServiceShared>,
    task_ids: Vec<TaskId>,
    client_tasks: Vec<TaskId>,
    watchers: Vec<Watch>,
    /// Set once every client task has finished: the graph is draining. The
    /// deadline bounds how long a non-quiescent graph may linger before it
    /// is torn down forcibly.
    draining_until: Option<Instant>,
}

/// How long a dispatcher waits before re-draining a listener whose accept
/// failed on resource exhaustion (`EMFILE`-class errors). Long enough for
/// fds to be released by closing connections, short enough that a backlog
/// stuck behind the burst is picked up promptly.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(10);

/// Accepts everything currently pending on one of the service's
/// listeners.
///
/// Draining to `WouldBlock` is load-bearing for the OS transport: the
/// listener is registered edge-triggered, so a connection left in the
/// kernel backlog here produces no further event until a *new* connection
/// arrives. A per-connection failure (e.g. the client reset before the
/// accept — `ECONNABORTED`, surfaced as `Closed`) consumes that backlog
/// entry and must not end the drain; only "nothing pending" and
/// "listener gone" end it quietly.
///
/// Resource exhaustion (`EMFILE`/`ENFILE`/`ENOBUFS`, surfaced as
/// [`NetError::Resources`]) is the dangerous case: it does *not* consume
/// a backlog entry, so retrying immediately would spin, while treating it
/// as fatal would kill the listener the first time a fd limit is
/// breached. Returns `true` in exactly this case — the caller must
/// re-drain after [`ACCEPT_BACKOFF`], not tear anything down.
fn accept_pending(
    service: &ServiceShared,
    listener: &Listener,
    pending_clients: &mut Vec<Endpoint>,
) -> bool {
    loop {
        match listener.try_accept() {
            Ok(client) => {
                service.connections_accepted.fetch_add(1, Ordering::Relaxed);
                pending_clients.push(client);
            }
            Err(NetError::Closed) => continue,
            Err(NetError::Resources) => {
                let n = service
                    .accept_resource_errors
                    .fetch_add(1, Ordering::Relaxed)
                    + 1;
                // Rate-limited (exponentially thinning) log: a sustained
                // burst produces a handful of lines, not one per accept.
                if n.is_power_of_two() {
                    eprintln!(
                        "flick: service {}: accept out of resources ({n} so far), backing off",
                        service.name
                    );
                }
                return true;
            }
            Err(_) => return false,
        }
    }
}

/// Graph dispatcher: builds one graph instance over `clients` on `shard`,
/// registers its tasks with the shard's scheduler and gives input tasks a
/// first chance to run (data may already be waiting on the connection).
/// Returns `None` on factory failure (the client connections are dropped,
/// and closed by the Drop impls of whatever tasks did get built).
fn build_graph(
    shard: &Shard,
    service: &Arc<ServiceShared>,
    clients: Vec<Endpoint>,
) -> Option<LiveGraph> {
    let scheduler = shard.scheduler();
    match service.factory.build(clients, &service.env) {
        Ok(built) => {
            let task_ids = built.graph.task_ids().to_vec();
            // Count the graph before its tasks can run: a worker may serve
            // the first request, and the client observe the reply, before
            // this thread gets past the scheduling below.
            service.live_graphs.fetch_add(1, Ordering::Relaxed);
            shard.note_graph_built();
            scheduler.register_graph(built.graph, &built.initial);
            for watch in &built.watchers {
                scheduler.schedule(watch.task);
            }
            Some(LiveGraph {
                service: Arc::clone(service),
                task_ids,
                client_tasks: built.client_tasks,
                watchers: built.watchers,
                draining_until: None,
            })
        }
        Err(_) => None,
    }
}

/// The dispatcher loop of one shard; runs on its own thread until the
/// platform requests a stop.
pub(crate) fn run_shard_dispatcher(
    set: Arc<ShardSet>,
    shard: Arc<Shard>,
    backend: DispatcherBackend,
    poll_interval: Duration,
) {
    match backend {
        DispatcherBackend::Event => run_event_dispatcher(set, shard, poll_interval),
        DispatcherBackend::Poll => run_poll_dispatcher(set, shard, poll_interval),
    }
}

/// A service homed on this shard: its listener is registered with (or, for
/// the poll backend, scanned by) this shard's dispatcher.
struct HomedService {
    shared: Arc<ServiceShared>,
    /// Connections accepted but not yet grouped into a graph instance.
    pending_clients: Vec<Endpoint>,
}

/// Groups `pending_clients` into graph instances and places each group:
/// built locally if the policy picks this shard, handed off through the
/// target shard's inbox otherwise.
#[allow(clippy::too_many_arguments)]
fn place_pending_graphs(
    set: &ShardSet,
    shard: &Arc<Shard>,
    service: &Arc<ServiceShared>,
    pending_clients: &mut Vec<Endpoint>,
    mut build_local: impl FnMut(&Arc<ServiceShared>, Vec<Endpoint>),
) {
    let per_graph = service.factory.connections_per_graph().max(1);
    while pending_clients.len() >= per_graph {
        let clients: Vec<Endpoint> = pending_clients.drain(..per_graph).collect();
        let target = set.place();
        if target == shard.id() {
            build_local(service, clients);
        } else {
            set.send(
                target,
                ShardCommand::BuildGraph {
                    service: Arc::clone(service),
                    clients,
                },
            );
        }
    }
}

/// The sleep-poll dispatcher: the ablation baseline. Every iteration
/// drains the shard inbox, re-scans all watched endpoints
/// (`Endpoint::readable`) and all live graphs, then sleeps
/// `poll_interval`.
fn run_poll_dispatcher(set: Arc<ShardSet>, shard: Arc<Shard>, poll_interval: Duration) {
    let mut services: HashMap<u64, HomedService> = HashMap::new();
    let mut graphs: Vec<LiveGraph> = Vec::new();

    while !set.stopping() {
        // 0. Shard inbox: new services homed here, graphs handed off here.
        for command in shard.drain_inbox() {
            match command {
                ShardCommand::AddService(shared) => {
                    services.insert(
                        shared.id,
                        HomedService {
                            shared,
                            pending_clients: Vec::new(),
                        },
                    );
                }
                ShardCommand::BuildGraph { service, clients } => {
                    if !service.stopped() {
                        if let Some(graph) = build_graph(&shard, &service, clients) {
                            graphs.push(graph);
                        }
                    }
                }
            }
        }
        // 1. Application dispatcher: accept new connections, then place
        //    complete connection groups onto shards.
        for entry in services.values_mut() {
            if entry.shared.stopped() {
                continue;
            }
            // A Resources backoff needs no bookkeeping here: the poll
            // backend re-drains every listener each tick anyway.
            if let Some(listener) = entry.shared.listener_on(shard.id()) {
                accept_pending(&entry.shared, listener, &mut entry.pending_clients);
            }
            place_pending_graphs(
                &set,
                &shard,
                &entry.shared,
                &mut entry.pending_clients,
                |service, clients| {
                    if let Some(graph) = build_graph(&shard, service, clients) {
                        graphs.push(graph);
                    }
                },
            );
        }
        // 2. Stopped services: close their listeners and forcibly tear
        //    down their graphs on this shard.
        services.retain(|_, entry| {
            if entry.shared.stopped() {
                entry.shared.close_listeners();
                false
            } else {
                true
            }
        });
        graphs.retain_mut(|graph| {
            if graph.service.stopped() {
                teardown_graph(shard.scheduler(), graph);
                false
            } else {
                true
            }
        });
        // 3. Poll connections and wake input tasks; tear down graphs whose
        //    client connections have all finished.
        let scheduler = shard.scheduler();
        graphs.retain_mut(|graph| {
            graph.watchers.retain(|watch| {
                if !scheduler.is_registered(watch.task) {
                    return false;
                }
                // Only readable watches are scanned: under this backend
                // output tasks run busy-retry (the platform forces
                // `OutputMode::BusyRetry`, see `deploy_on_listener`), so a
                // blocked writer re-schedules itself and a writable scan
                // would only burn a per-connection no-op task run every
                // tick. Writable watches stay in the list for the
                // interest-aware drain close and teardown bookkeeping.
                if watch.interest.is_readable() && watch.endpoint.readable() {
                    scheduler.schedule(watch.task);
                }
                true
            });
            !advance_graph_lifecycle(scheduler, graph)
        });
        std::thread::sleep(poll_interval);
    }
    // Tear everything down on shutdown.
    for entry in services.values() {
        entry.shared.close_listeners();
    }
    for mut graph in graphs {
        teardown_graph(shard.scheduler(), &mut graph);
    }
}

/// Forcibly removes a graph's tasks (service stop or shard shutdown) and
/// settles its counters.
fn teardown_graph(scheduler: &Scheduler, graph: &mut LiveGraph) {
    for task in &graph.task_ids {
        scheduler.remove(*task);
    }
    RuntimeMetrics::add(&scheduler.metrics().graphs_destroyed, 1);
    graph.service.live_graphs.fetch_sub(1, Ordering::Relaxed);
}

/// Advances one graph's drain/teardown lifecycle; shared by both
/// dispatcher backends so the ablation compares dispatch mechanisms, not
/// divergent drain semantics. Once every *client* task has finished the
/// graph starts draining: the remaining watched connections are closed
/// (their input tasks observe EOF), every task gets a final chance to
/// flush, and a grace deadline bounds a non-quiescent graph. Returns
/// `true` once the graph was torn down (all tasks gone, or the grace
/// expired).
fn advance_graph_lifecycle(scheduler: &Scheduler, graph: &mut LiveGraph) -> bool {
    let clients_done = graph
        .client_tasks
        .iter()
        .all(|task| !scheduler.is_registered(*task));
    if !clients_done {
        return false;
    }
    if graph.draining_until.is_none() {
        // Close only the *read* side watches so the remaining input tasks
        // observe EOF; output watches must stay open — their tasks may
        // still be flushing (e.g. the aggregate a foldt service emits when
        // its inputs finish), and each output task closes its own
        // connection once drained.
        for watch in &graph.watchers {
            if watch.interest.is_readable() {
                watch.endpoint.close();
            }
        }
        for task in &graph.task_ids {
            scheduler.schedule(*task);
        }
        graph.draining_until = Some(Instant::now() + DRAIN_GRACE);
    }
    let all_done = graph
        .task_ids
        .iter()
        .all(|task| !scheduler.is_registered(*task));
    let expired = graph
        .draining_until
        .map(|deadline| Instant::now() >= deadline)
        .unwrap_or(false);
    if all_done || expired {
        for task in &graph.task_ids {
            scheduler.remove(*task);
        }
        RuntimeMetrics::add(&scheduler.metrics().graphs_destroyed, 1);
        graph.service.live_graphs.fetch_sub(1, Ordering::Relaxed);
        true
    } else {
        false
    }
}

/// Per-graph bookkeeping of the event dispatcher.
struct EventGraph {
    graph: LiveGraph,
    /// The tokens this graph's watched endpoints are registered under.
    watch_tokens: Vec<Token>,
}

/// One entry of the event dispatcher's `Token` → watcher map.
struct Watcher {
    graph_id: u64,
    task: TaskId,
    endpoint: Endpoint,
    /// The direction this watcher registered; retiring it must only
    /// deregister that direction (the same endpoint's other direction may
    /// belong to a different task's watcher).
    interest: Interest,
}

/// The mutable state of one shard's event reactor.
struct EventState {
    /// Services homed on this shard, keyed by listener token.
    services: HashMap<Token, HomedService>,
    /// Graphs owned by this shard, keyed by the token value their exit
    /// events post under; watcher tokens share the same allocator so the
    /// namespaces never collide.
    graphs: HashMap<u64, EventGraph>,
    watch_map: HashMap<Token, Watcher>,
    /// Side index of graphs currently draining (id → deadline): only these
    /// can expire, so the heartbeat never has to scan the full graph map.
    draining: HashMap<u64, Instant>,
    /// Listeners whose last drain hit resource exhaustion (token →
    /// retry deadline). The edge-triggered listener posts no new event
    /// for backlog entries stranded behind an `EMFILE` burst, so the
    /// reactor's wait deadline is clamped to the earliest retry and the
    /// drain is re-run on that timer.
    accept_retry: HashMap<Token, Instant>,
    next_token: u64,
}

impl EventState {
    fn alloc_token(&mut self) -> Token {
        let token = Token(self.next_token);
        self.next_token += 1;
        token
    }
}

/// Builds a graph on this shard and wires it into the reactor: watched
/// endpoints are registered with this shard's poller (level-triggered, so
/// data buffered during a cross-shard handoff posts an event immediately)
/// and every task exit posts the graph's token.
fn build_and_track_graph(
    shard: &Arc<Shard>,
    poller: &Poller,
    state: &mut EventState,
    service: &Arc<ServiceShared>,
    clients: Vec<Endpoint>,
) {
    let Some(graph) = build_graph(shard, service, clients) else {
        return;
    };
    let scheduler = shard.scheduler();
    let graph_id = state.alloc_token().0;
    let mut watch_tokens = Vec::with_capacity(graph.watchers.len());
    for watch in &graph.watchers {
        let token = state.alloc_token();
        watch.endpoint.register(poller, token, watch.interest);
        state.watch_map.insert(
            token,
            Watcher {
                graph_id,
                task: watch.task,
                endpoint: watch.endpoint.clone(),
                interest: watch.interest,
            },
        );
        watch_tokens.push(token);
    }
    // Every task exit posts the graph's token, so client-side completion
    // (begin draining) and full quiescence (teardown) are events, not
    // scans.
    for task in &graph.task_ids {
        let exit_poller = poller.clone();
        scheduler.watch_exit(
            *task,
            Box::new(move |_| exit_poller.post(Token(graph_id), Default::default())),
        );
    }
    state.graphs.insert(
        graph_id,
        EventGraph {
            graph,
            watch_tokens,
        },
    );
}

/// The wakeup-based reactor of one shard. The thread blocks in
/// [`Poller::wait`]; every state transition anywhere on the shard — a new
/// pending accept, bytes arriving on a watched connection, EOF, a task
/// exiting the scheduler, a command from another shard — arrives as an
/// [`flick_net::Event`] and is handled by token. An idle shard performs
/// zero endpoint scans between events.
fn run_event_dispatcher(set: Arc<ShardSet>, shard: Arc<Shard>, poll_interval: Duration) {
    let poller = shard.poller().clone();
    let scheduler = Arc::clone(shard.scheduler());
    let mut state = EventState {
        services: HashMap::new(),
        graphs: HashMap::new(),
        watch_map: HashMap::new(),
        draining: HashMap::new(),
        accept_retry: HashMap::new(),
        next_token: CONTROL_TOKEN.0 + 1,
    };

    while !set.stopping() {
        // Block until something happens. `poll_interval` survives only as a
        // lower bound on the drain/teardown heartbeat: with no graph
        // draining the reactor sleeps in long beats (woken early by any
        // event), and with one draining it wakes at the drain deadline.
        // An armed accept-backoff retry clamps the wait the same way.
        let now = Instant::now();
        let timeout = state
            .draining
            .values()
            .chain(state.accept_retry.values())
            .min()
            .map(|deadline| deadline.saturating_duration_since(now))
            .unwrap_or_else(|| poll_interval.max(Duration::from_millis(50)));
        let events = poller.wait(timeout);
        if set.stopping() {
            break;
        }

        // Shard inbox first: a BuildGraph handoff may concern endpoints
        // whose readiness events are already queued behind it.
        let mut sweep = false;
        for command in shard.drain_inbox() {
            match command {
                ShardCommand::AddService(shared) => {
                    // Register only this shard's own accept socket (the
                    // home listener, or this shard's REUSEPORT socket
                    // under accept sharding). Level-triggered: accepts
                    // that raced the deploy are caught by the
                    // registration itself.
                    let registered = match shared.listener_on(shard.id()) {
                        Some(listener) => {
                            let token = state.alloc_token();
                            listener.register(&poller, token);
                            Some(token)
                        }
                        None => None,
                    };
                    if let Some(token) = registered {
                        state.services.insert(
                            token,
                            HomedService {
                                shared,
                                pending_clients: Vec::new(),
                            },
                        );
                    }
                }
                ShardCommand::BuildGraph { service, clients } => {
                    if !service.stopped() {
                        build_and_track_graph(&shard, &poller, &mut state, &service, clients);
                    }
                }
            }
        }

        let mut dirty_graphs: Vec<u64> = Vec::new();
        let mut accepted_any = false;
        for event in events {
            if event.token == CONTROL_TOKEN {
                // Inbox already drained above; a control event may also
                // announce a service stop.
                sweep = true;
            } else if let Some(entry) = state.services.get_mut(&event.token) {
                let needs_retry = match entry.shared.listener_on(shard.id()) {
                    Some(listener) => {
                        accept_pending(&entry.shared, listener, &mut entry.pending_clients)
                    }
                    None => false,
                };
                accepted_any = true;
                if event.readiness.closed || entry.shared.stopped() {
                    sweep = true;
                }
                if needs_retry {
                    state
                        .accept_retry
                        .insert(event.token, Instant::now() + ACCEPT_BACKOFF);
                } else {
                    state.accept_retry.remove(&event.token);
                }
            } else if let Some(watcher) = state.watch_map.get(&event.token) {
                if scheduler.is_registered(watcher.task) {
                    scheduler.schedule(watcher.task);
                } else {
                    // The watched task already exited; stop watching this
                    // direction (the connection's other direction may still
                    // have a live watcher). Graph teardown itself is driven
                    // by the task-exit events.
                    let watcher = state.watch_map.remove(&event.token).expect("present");
                    watcher
                        .endpoint
                        .deregister_interest(&poller, watcher.interest);
                }
            } else if state.graphs.contains_key(&event.token.0) {
                // A task-exit event: re-evaluate this graph's lifecycle.
                dirty_graphs.push(event.token.0);
            }
        }

        // Accept-backoff retries whose deadline has passed: re-drain the
        // listener (resource exhaustion left its backlog intact and the
        // edge-triggered registration will not re-fire for it), re-arming
        // the deadline if the drain hits exhaustion again.
        let now = Instant::now();
        let due: Vec<Token> = state
            .accept_retry
            .iter()
            .filter(|(_, deadline)| now >= **deadline)
            .map(|(token, _)| *token)
            .collect();
        for token in due {
            state.accept_retry.remove(&token);
            let Some(entry) = state.services.get_mut(&token) else {
                continue;
            };
            let needs_retry = match entry.shared.listener_on(shard.id()) {
                Some(listener) => {
                    accept_pending(&entry.shared, listener, &mut entry.pending_clients)
                }
                None => false,
            };
            accepted_any = true;
            if needs_retry {
                state.accept_retry.insert(token, now + ACCEPT_BACKOFF);
            }
        }

        // Graph dispatcher: place complete connection groups.
        if accepted_any {
            let tokens: Vec<Token> = state.services.keys().copied().collect();
            for token in tokens {
                let entry = state.services.get_mut(&token).expect("present");
                if entry.shared.stopped() || entry.pending_clients.is_empty() {
                    continue;
                }
                let shared = Arc::clone(&entry.shared);
                let mut pending = std::mem::take(&mut entry.pending_clients);
                place_pending_graphs(&set, &shard, &shared, &mut pending, |service, clients| {
                    build_and_track_graph(&shard, &poller, &mut state, service, clients);
                });
                state
                    .services
                    .get_mut(&token)
                    .expect("present")
                    .pending_clients = pending;
            }
        }

        // Service stop sweep: drop stopped services homed here and tear
        // down their graphs owned here.
        if sweep {
            let stopped_services: Vec<Token> = state
                .services
                .iter()
                .filter(|(_, entry)| entry.shared.stopped())
                .map(|(token, _)| *token)
                .collect();
            for token in stopped_services {
                let entry = state.services.remove(&token).expect("collected above");
                state.accept_retry.remove(&token);
                if let Some(listener) = entry.shared.listener_on(shard.id()) {
                    listener.deregister(&poller);
                }
                entry.shared.close_listeners();
            }
            let stopped: Vec<u64> = state
                .graphs
                .iter()
                .filter(|(_, entry)| entry.graph.service.stopped())
                .map(|(id, _)| *id)
                .collect();
            for graph_id in stopped {
                let mut entry = state.graphs.remove(&graph_id).expect("collected above");
                state.draining.remove(&graph_id);
                for token in &entry.watch_tokens {
                    if let Some(watcher) = state.watch_map.remove(token) {
                        watcher
                            .endpoint
                            .deregister_interest(&poller, watcher.interest);
                    }
                }
                teardown_graph(&scheduler, &mut entry.graph);
            }
        }

        // Re-evaluate graphs whose tasks exited, plus any whose drain
        // deadline has passed (the heartbeat case).
        let now = Instant::now();
        for (id, deadline) in &state.draining {
            if now >= *deadline && !dirty_graphs.contains(id) {
                dirty_graphs.push(*id);
            }
        }
        for graph_id in dirty_graphs {
            evaluate_graph(&scheduler, &poller, &mut state, graph_id);
        }
    }

    // Tear everything down on shutdown.
    for entry in state.services.values() {
        if let Some(listener) = entry.shared.listener_on(shard.id()) {
            listener.deregister(&poller);
        }
        entry.shared.close_listeners();
    }
    for (_, mut entry) in state.graphs {
        for watch in &entry.graph.watchers {
            watch.endpoint.deregister_interest(&poller, watch.interest);
        }
        teardown_graph(&scheduler, &mut entry.graph);
    }
}

/// Lifecycle check for one graph of the event dispatcher, run only when a
/// task-exit event (or the drain heartbeat) says something changed: the
/// shared [`advance_graph_lifecycle`] decides, and this function keeps the
/// event dispatcher's token and draining indexes consistent with it.
fn evaluate_graph(scheduler: &Scheduler, poller: &Poller, state: &mut EventState, graph_id: u64) {
    let Some(entry) = state.graphs.get_mut(&graph_id) else {
        state.draining.remove(&graph_id);
        return;
    };
    let torn_down = advance_graph_lifecycle(scheduler, &mut entry.graph);
    if !torn_down {
        if let Some(deadline) = entry.graph.draining_until {
            state.draining.insert(graph_id, deadline);
        }
        return;
    }
    // Torn down (tasks removed and counters updated by the lifecycle
    // helper): drop the event dispatcher's own bookkeeping.
    let entry = state.graphs.remove(&graph_id).expect("checked above");
    state.draining.remove(&graph_id);
    for token in &entry.watch_tokens {
        if let Some(watcher) = state.watch_map.remove(token) {
            debug_assert_eq!(watcher.graph_id, graph_id);
            watcher
                .endpoint
                .deregister_interest(poller, watcher.interest);
        }
    }
}

/// Handle to a deployed service; stopping it tears the service down on
/// every shard.
pub struct DeployedService {
    port: u16,
    globals: SharedDict,
    shared: Arc<ServiceShared>,
    set: Arc<ShardSet>,
}

impl std::fmt::Debug for DeployedService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DeployedService")
            .field("name", &self.shared.name)
            .field("port", &self.port)
            .field("home_shard", &self.shared.home_shard)
            .finish()
    }
}

impl DeployedService {
    /// Creates the handle (platform-internal).
    pub(crate) fn new(
        port: u16,
        globals: SharedDict,
        shared: Arc<ServiceShared>,
        set: Arc<ShardSet>,
    ) -> Self {
        DeployedService {
            port,
            globals,
            shared,
            set,
        }
    }

    /// The service name.
    pub fn name(&self) -> &str {
        &self.shared.name
    }

    /// The port the service listens on.
    pub fn port(&self) -> u16 {
        self.port
    }

    /// The shard the service's listener is homed on.
    pub fn home_shard(&self) -> usize {
        self.shared.home_shard
    }

    /// The FLICK `global` shared dictionary of this service.
    pub fn globals(&self) -> &SharedDict {
        &self.globals
    }

    /// Number of client connections accepted so far.
    pub fn connections_accepted(&self) -> u64 {
        self.shared.connections_accepted.load(Ordering::Relaxed)
    }

    /// Number of task-graph instances currently alive (across all shards).
    pub fn live_graphs(&self) -> u64 {
        self.shared.live_graphs.load(Ordering::Relaxed)
    }

    /// Stops the service: closes its listener immediately (new connections
    /// are refused from this call on) and asks every shard to tear down
    /// the service's graphs on its next control event.
    pub fn stop(&mut self) {
        self.shared.stopped.store(true, Ordering::Release);
        self.shared.close_listeners();
        self.set.post_control_all();
    }
}

impl Drop for DeployedService {
    fn drop(&mut self) {
        self.stop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::RuntimeError;
    use crate::graph::GraphBuilder;
    use crate::platform::{BuiltGraph, Platform, PlatformConfig, ServiceSpec};
    use crate::tasks::{ComputeLogic, ComputeTask, InputTask, OutputTask, Outputs};
    use crate::value::Value;
    use flick_grammar::http::{self, HttpCodec};

    /// A tiny static web server: replies 200 with a fixed body to every
    /// request (the paper's "static web server" variant of the HTTP use
    /// case, used here to exercise the whole dispatch path).
    struct StaticServerFactory;

    struct RespondLogic;
    impl ComputeLogic for RespondLogic {
        fn on_value(
            &mut self,
            _input: usize,
            value: Value,
            out: &mut Outputs<'_>,
        ) -> Result<(), RuntimeError> {
            if value.as_msg().is_some() {
                out.emit(0, Value::Msg(http::response(200, b"hello from flick")));
            }
            Ok(())
        }
    }

    impl GraphFactory for StaticServerFactory {
        fn build(
            &self,
            mut clients: Vec<Endpoint>,
            env: &ServiceEnv,
        ) -> Result<BuiltGraph, RuntimeError> {
            let client = clients.pop().expect("one client connection");
            let codec = Arc::new(HttpCodec::new());
            let mut builder = GraphBuilder::new("static-web", &env.allocator)
                .with_channel_capacity(env.channel_capacity);
            let input_node = builder.declare_node();
            let compute_node = builder.declare_node();
            let output_node = builder.declare_node();
            let (req_tx, req_rx) = builder.channel(compute_node);
            let (resp_tx, resp_rx) = builder.channel(output_node);
            builder.install(
                input_node,
                Box::new(InputTask::new(
                    "http-in",
                    client.clone(),
                    codec.clone(),
                    None,
                    req_tx,
                )),
            );
            builder.install(
                compute_node,
                Box::new(ComputeTask::new(
                    "respond",
                    vec![req_rx],
                    vec![resp_tx],
                    Box::new(RespondLogic),
                )),
            );
            let mut out_task = OutputTask::new("http-out", client.clone(), codec, resp_rx);
            out_task.set_mode(env.output_mode);
            builder.install(output_node, Box::new(out_task));
            Ok(BuiltGraph {
                graph: builder.build(),
                watchers: vec![
                    Watch::readable(input_node.task_id(), client.clone()),
                    Watch::writable(output_node.task_id(), client),
                ],
                initial: vec![],
                client_tasks: vec![input_node.task_id()],
            })
        }
    }

    #[test]
    fn end_to_end_static_web_server() {
        let platform = Platform::new(PlatformConfig {
            workers: 2,
            ..Default::default()
        });
        let service = platform
            .deploy(ServiceSpec::new("web", 8080, Arc::new(StaticServerFactory)))
            .unwrap();
        let net = platform.net();

        // Issue three requests over one persistent connection.
        let client = net.connect(8080).unwrap();
        for i in 0..3 {
            client
                .write_all(format!("GET /{i} HTTP/1.1\r\nHost: test\r\n\r\n").as_bytes())
                .unwrap();
            let mut response = Vec::new();
            let mut buf = [0u8; 1024];
            loop {
                match client.read_timeout(&mut buf, Duration::from_secs(5)) {
                    Ok(n) => {
                        response.extend_from_slice(&buf[..n]);
                        if response.windows(16).any(|w| w == b"hello from flick") {
                            break;
                        }
                    }
                    Err(e) => panic!("request {i}: {e}"),
                }
            }
            let text = String::from_utf8_lossy(&response);
            assert!(text.starts_with("HTTP/1.1 200 OK"), "got: {text}");
        }
        assert_eq!(service.connections_accepted(), 1);
        assert_eq!(service.live_graphs(), 1);

        // Closing the client tears the graph down.
        client.close();
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while service.live_graphs() > 0 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(
            service.live_graphs(),
            0,
            "graph should be destroyed after the client closes"
        );
    }

    #[test]
    fn multiple_concurrent_connections_get_their_own_graphs() {
        let platform = Platform::new(PlatformConfig {
            workers: 4,
            ..Default::default()
        });
        let service = platform
            .deploy(ServiceSpec::new("web", 8081, Arc::new(StaticServerFactory)))
            .unwrap();
        let net = platform.net();
        let clients: Vec<_> = (0..8).map(|_| net.connect(8081).unwrap()).collect();
        for (i, c) in clients.iter().enumerate() {
            c.write_all(format!("GET /{i} HTTP/1.1\r\nHost: t\r\n\r\n").as_bytes())
                .unwrap();
        }
        for c in &clients {
            let mut buf = [0u8; 1024];
            let n = c.read_timeout(&mut buf, Duration::from_secs(5)).unwrap();
            assert!(n > 0);
        }
        assert_eq!(service.connections_accepted(), 8);
        for c in &clients {
            c.close();
        }
        drop(clients);
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while service.live_graphs() > 0 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(service.live_graphs(), 0);
    }

    /// The same connection fan as above, but over many shards: graphs are
    /// placed round-robin, served correctly, and torn down no matter which
    /// shard owns them.
    #[test]
    fn connections_are_served_across_shards() {
        let platform = Platform::new(PlatformConfig {
            workers: 4,
            shards: 4,
            ..Default::default()
        });
        let service = platform
            .deploy(ServiceSpec::new("web", 8085, Arc::new(StaticServerFactory)))
            .unwrap();
        let net = platform.net();
        let clients: Vec<_> = (0..8).map(|_| net.connect(8085).unwrap()).collect();
        for (i, c) in clients.iter().enumerate() {
            c.write_all(format!("GET /{i} HTTP/1.1\r\nHost: t\r\n\r\n").as_bytes())
                .unwrap();
        }
        for c in &clients {
            let mut buf = [0u8; 1024];
            let n = c.read_timeout(&mut buf, Duration::from_secs(5)).unwrap();
            assert!(n > 0);
        }
        // With 8 graphs over 4 round-robin shards, every shard built some.
        let status = platform.shard_status();
        assert_eq!(status.len(), 4);
        assert!(
            status.iter().all(|s| s.graphs_built >= 1),
            "round-robin placement must reach every shard: {status:?}"
        );
        for c in &clients {
            c.close();
        }
        drop(clients);
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while service.live_graphs() > 0 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(service.live_graphs(), 0);
    }

    /// Satellite regression for the accept-hardening contract: a burst of
    /// `EMFILE`-class accept failures must not kill the listener. The sim
    /// listener is armed to fail the next several accepts with
    /// `NetError::Resources` *without* consuming its backlog — exactly
    /// the shape of fd exhaustion on the OS transport — and the
    /// dispatcher has to back off, retry, and eventually serve both the
    /// connection stranded behind the burst and ones arriving after it.
    #[test]
    fn accept_resource_exhaustion_does_not_kill_the_listener() {
        let platform = Platform::new(PlatformConfig {
            workers: 2,
            ..Default::default()
        });
        let service = platform
            .deploy(ServiceSpec::new("web", 8087, Arc::new(StaticServerFactory)))
            .unwrap();
        let net = platform.net();
        assert!(net.inject_accept_faults(8087, 6), "listener must be bound");

        // This connection lands in the backlog while every accept fails.
        let stranded = net.connect(8087).unwrap();
        stranded
            .write_all(b"GET /stranded HTTP/1.1\r\nHost: t\r\n\r\n")
            .unwrap();
        let mut buf = [0u8; 1024];
        let n = stranded
            .read_timeout(&mut buf, Duration::from_secs(5))
            .unwrap();
        assert!(n > 0, "connection behind the fault burst must be served");
        assert!(
            service
                .shared
                .accept_resource_errors
                .load(Ordering::Relaxed)
                > 0,
            "the fault burst must have been observed as Resources errors"
        );

        // The listener survived: a fresh connection is also served.
        let later = net.connect(8087).unwrap();
        later
            .write_all(b"GET /later HTTP/1.1\r\nHost: t\r\n\r\n")
            .unwrap();
        let n = later
            .read_timeout(&mut buf, Duration::from_secs(5))
            .unwrap();
        assert!(n > 0, "listener must keep serving after the burst");
        assert_eq!(service.connections_accepted(), 2);
    }

    #[test]
    fn stop_terminates_the_dispatcher_and_unbinds_nothing_else() {
        let platform = Platform::new(PlatformConfig::default());
        let mut service = platform
            .deploy(ServiceSpec::new("web", 8082, Arc::new(StaticServerFactory)))
            .unwrap();
        service.stop();
        // After stop, new connections are refused because the listener closed.
        assert!(platform.net().connect(8082).is_err());
    }

    /// The headline property of the event backend: an idle deployed service
    /// performs zero endpoint scans between events. The dispatcher blocks
    /// in `Poller::wait` while a connected-but-silent client sits for
    /// 100 ms, so neither `Endpoint::readable` nor `Endpoint::read` fires.
    #[test]
    fn idle_service_performs_no_endpoint_scans() {
        let platform = Platform::new(PlatformConfig {
            workers: 2,
            dispatcher: DispatcherBackend::Event,
            ..Default::default()
        });
        let _service = platform
            .deploy(ServiceSpec::new("web", 8083, Arc::new(StaticServerFactory)))
            .unwrap();
        let net = platform.net();
        let client = net.connect(8083).unwrap();
        // One request/response round-trip so the graph is fully
        // instantiated and its input task has drained to WouldBlock.
        client
            .write_all(b"GET / HTTP/1.1\r\nHost: t\r\n\r\n")
            .unwrap();
        let mut buf = [0u8; 1024];
        client
            .read_timeout(&mut buf, Duration::from_secs(5))
            .unwrap();
        // Let in-flight wakeups settle before measuring.
        std::thread::sleep(Duration::from_millis(20));
        let before = net.stats().snapshot();
        std::thread::sleep(Duration::from_millis(100));
        let after = net.stats().snapshot();
        assert_eq!(
            after.readable_polls, before.readable_polls,
            "idle event dispatcher must not call Endpoint::readable"
        );
        assert_eq!(
            after.read_calls, before.read_calls,
            "idle event dispatcher must not issue reads"
        );
    }

    /// The poll backend is kept for the dispatcher_backend ablation; it
    /// must still serve traffic and, unlike the event backend, it *does*
    /// scan endpoints while idle.
    #[test]
    fn poll_backend_still_serves_and_scans() {
        let platform = Platform::new(PlatformConfig {
            workers: 2,
            dispatcher: DispatcherBackend::Poll,
            ..Default::default()
        });
        let service = platform
            .deploy(ServiceSpec::new("web", 8084, Arc::new(StaticServerFactory)))
            .unwrap();
        let net = platform.net();
        let client = net.connect(8084).unwrap();
        client
            .write_all(b"GET / HTTP/1.1\r\nHost: t\r\n\r\n")
            .unwrap();
        let mut buf = [0u8; 1024];
        let n = client
            .read_timeout(&mut buf, Duration::from_secs(5))
            .unwrap();
        assert!(n > 0);
        let before = net.stats().snapshot();
        std::thread::sleep(Duration::from_millis(20));
        let after = net.stats().snapshot();
        assert!(
            after.readable_polls > before.readable_polls,
            "poll dispatcher re-scans idle endpoints"
        );
        client.close();
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while service.live_graphs() > 0 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(service.live_graphs(), 0);
    }

    #[test]
    fn poll_backend_serves_across_shards() {
        let platform = Platform::new(PlatformConfig {
            workers: 2,
            shards: 2,
            dispatcher: DispatcherBackend::Poll,
            ..Default::default()
        });
        let service = platform
            .deploy(ServiceSpec::new("web", 8086, Arc::new(StaticServerFactory)))
            .unwrap();
        let net = platform.net();
        let clients: Vec<_> = (0..4).map(|_| net.connect(8086).unwrap()).collect();
        for c in &clients {
            c.write_all(b"GET / HTTP/1.1\r\nHost: t\r\n\r\n").unwrap();
            let mut buf = [0u8; 1024];
            let n = c.read_timeout(&mut buf, Duration::from_secs(5)).unwrap();
            assert!(n > 0);
        }
        assert_eq!(service.connections_accepted(), 4);
        let status = platform.shard_status();
        assert!(status.iter().all(|s| s.graphs_built >= 1), "{status:?}");
    }

    #[test]
    fn backend_labels_are_stable() {
        assert_eq!(DispatcherBackend::Event.label(), "event");
        assert_eq!(DispatcherBackend::Poll.label(), "poll");
        assert_eq!(DispatcherBackend::default(), DispatcherBackend::Event);
    }
}
