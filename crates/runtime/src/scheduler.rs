//! The cooperative task scheduler.
//!
//! §5 of the paper: tasks are cooperatively scheduled onto a fixed pool of
//! worker threads. Each worker owns a FIFO task queue; a task is always
//! hashed to the same worker's queue (to reduce cache misses), workers
//! scavenge work from other queues when their own is empty, and a running
//! task yields control when it exceeds the timeslice threshold (enforced by
//! [`crate::task::TaskContext`] inside every task implementation).
//!
//! In a sharded platform every shard runs its own scheduler; idle shards
//! additionally pull runnable tasks from their siblings through the
//! [`steal`] path (see [`steal::StealGroup`]). A stolen task is executed
//! *through the owning shard's scheduler state* — its task slot, its
//! follow-on wakes, its exit watchers — so waker registrations in the
//! owning shard's poller stay valid no matter which shard's worker ran it.

use crate::graph::GraphInstance;
use crate::metrics::RuntimeMetrics;
use crate::task::{SchedulingPolicy, Task, TaskContext, TaskId, TaskStatus};
use parking_lot::{Condvar, Mutex, RwLock};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

pub use steal::StealGroup;

struct WorkerQueue {
    queue: Mutex<VecDeque<TaskId>>,
}

struct TaskSlot {
    task: Mutex<Option<Box<dyn Task>>>,
    queued: AtomicBool,
}

/// Callback invoked (once) when a task exits the scheduler — it finished,
/// or was removed during graph teardown.
pub type ExitWatcher = Box<dyn Fn(TaskId) + Send + Sync>;

struct SchedulerInner {
    queues: Vec<WorkerQueue>,
    tasks: RwLock<HashMap<TaskId, Arc<TaskSlot>>>,
    policy: SchedulingPolicy,
    metrics: Arc<RuntimeMetrics>,
    shutdown: AtomicBool,
    exit_watchers: Mutex<HashMap<TaskId, Vec<ExitWatcher>>>,
    /// Which shard this scheduler belongs to (0 outside sharded platforms).
    shard: usize,
    /// The cross-shard steal set, if this scheduler is part of one.
    group: Option<Arc<StealGroup>>,
    /// Bumped on every `schedule`; idle workers re-check work availability
    /// against it before parking so a wakeup posted between their last scan
    /// and the park cannot be lost.
    work_seq: AtomicU64,
    /// Workers with no local or stealable work park here; `schedule`
    /// notifies it so any idle worker (not just the hashed one) picks new
    /// work up immediately instead of after the scavenge heartbeat.
    idle_lock: Mutex<()>,
    idle_cond: Condvar,
    /// Number of workers currently parked (or committed to parking) on
    /// `idle_cond`. Lets the schedule hot path skip the lock + notify
    /// entirely while every worker is busy — the common case under load.
    /// SeqCst against `work_seq`: a worker bumps this *before* its final
    /// sequence re-check, and `schedule` bumps the sequence *before*
    /// reading this, so one side always observes the other.
    parked: AtomicUsize,
    /// Tasks of this scheduler executed by any worker (own or thief).
    runs: AtomicU64,
    /// Tasks of this scheduler that a sibling shard's worker executed.
    stolen_out: AtomicU64,
    /// Tasks of sibling shards that this scheduler's workers executed.
    stolen_in: AtomicU64,
}

/// Point-in-time load description of one shard's scheduler, consumed by
/// the least-loaded placement policy and the fig5 per-shard utilization
/// report.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardLoad {
    /// The shard id this scheduler serves.
    pub shard: usize,
    /// Tasks currently registered (alive graphs' tasks).
    pub registered: usize,
    /// Tasks currently queued runnable.
    pub queued: usize,
    /// Task executions attributed to this shard (its own tasks, wherever
    /// they ran).
    pub runs: u64,
    /// This shard's tasks that were executed by a sibling shard's worker.
    pub stolen_out: u64,
    /// Sibling shards' tasks that this shard's workers executed.
    pub stolen_in: u64,
}

impl SchedulerInner {
    fn queue_for(&self, id: TaskId) -> usize {
        // The hash over the task identifier that §5 describes; identifiers
        // are dense integers so a multiplicative hash spreads them well.
        (id.0.wrapping_mul(0x9e3779b97f4a7c15) >> 32) as usize % self.queues.len()
    }

    fn schedule(&self, id: TaskId) {
        let slot = {
            let tasks = self.tasks.read();
            match tasks.get(&id) {
                Some(slot) => Arc::clone(slot),
                None => return,
            }
        };
        if slot.queued.swap(true, Ordering::AcqRel) {
            return;
        }
        let worker = self.queue_for(id);
        self.queues[worker].queue.lock().push_back(id);
        // Publish the new work, then wake one idle worker — but only if
        // one is (or is about to be) parked; under load every worker is
        // busy and the hot path stays lock-free. The SeqCst pair with the
        // worker's park protocol (bump `parked`, then re-check `work_seq`
        // under `idle_lock`) guarantees that either the parking worker
        // sees this bumped sequence and aborts the park, or this reader
        // sees `parked > 0` and takes the lock to notify.
        self.work_seq.fetch_add(1, Ordering::SeqCst);
        if self.parked.load(Ordering::SeqCst) > 0 {
            let _guard = self.idle_lock.lock();
            self.idle_cond.notify_one();
        }
    }

    fn pop_own(&self, worker: usize) -> Option<TaskId> {
        self.queues[worker].queue.lock().pop_front()
    }

    fn scavenge(&self, worker: usize) -> Option<TaskId> {
        let n = self.queues.len();
        for offset in 1..n {
            let victim = (worker + offset) % n;
            if let Some(id) = self.queues[victim].queue.lock().pop_front() {
                RuntimeMetrics::add(&self.metrics.tasks_scavenged, 1);
                return Some(id);
            }
        }
        None
    }

    fn run_one(&self, id: TaskId) {
        let slot = {
            let tasks = self.tasks.read();
            match tasks.get(&id) {
                Some(slot) => Arc::clone(slot),
                None => return,
            }
        };
        slot.queued.store(false, Ordering::Release);
        let mut guard = slot.task.lock();
        let Some(task) = guard.as_mut() else {
            return;
        };
        RuntimeMetrics::add(&self.metrics.task_runs, 1);
        self.runs.fetch_add(1, Ordering::Relaxed);
        let mut ctx = TaskContext::new(self.policy, Arc::clone(&self.metrics));
        ctx.set_current(id);
        let status = task.run(&mut ctx);
        drop(guard);
        for wake in ctx.take_wakes() {
            self.schedule(wake);
        }
        match status {
            TaskStatus::Runnable => self.schedule(id),
            TaskStatus::Idle => {}
            TaskStatus::Finished => {
                self.tasks.write().remove(&id);
                self.notify_exit(id);
            }
        }
    }

    /// Fires (and removes) the exit watchers of `id`, if any.
    fn notify_exit(&self, id: TaskId) {
        let watchers = self.exit_watchers.lock().remove(&id);
        if let Some(watchers) = watchers {
            for watcher in watchers {
                watcher(id);
            }
        }
    }

    fn worker_loop(&self, worker: usize) {
        loop {
            if self.shutdown.load(Ordering::Acquire) {
                return;
            }
            // Snapshot the work sequence *before* scanning so a schedule
            // that races the scan is caught by the re-check below.
            let seq = self.work_seq.load(Ordering::Acquire);
            if let Some(id) = self.pop_own(worker).or_else(|| self.scavenge(worker)) {
                self.run_one(id);
                continue;
            }
            if let Some(group) = &self.group {
                if group.steal_one(self) {
                    continue;
                }
            }
            // Nothing local, nothing stealable: park. The short timeout is
            // only the cross-shard steal heartbeat — local work arrival
            // always wakes an idle worker through `schedule`. The park
            // commitment (`parked` increment) must precede the final
            // sequence re-check; see the SeqCst pairing note on `parked`.
            let mut guard = self.idle_lock.lock();
            self.parked.fetch_add(1, Ordering::SeqCst);
            if self.work_seq.load(Ordering::SeqCst) == seq && !self.shutdown.load(Ordering::Acquire)
            {
                self.idle_cond
                    .wait_for(&mut guard, Duration::from_millis(1));
            }
            self.parked.fetch_sub(1, Ordering::SeqCst);
        }
    }
}

/// The cross-shard work-stealing path.
///
/// A [`StealGroup`] is the *mechanism*: a set of sibling schedulers (one
/// per shard) whose idle workers pull runnable tasks from each other's
/// queues. Placement *policy* — which shard a task graph lands on in the
/// first place — lives in [`crate::shard::PlacementPolicy`], keeping the
/// two separable as in warehouse-scale scheduler designs.
///
/// The safety guard: a stolen task is executed via the **owning** shard's
/// [`SchedulerInner`] (`run_one` on the victim), so the task slot, the
/// follow-on wakes of its [`TaskContext`], and its exit watchers all stay
/// in the owning shard. Waker registrations that the owning shard's
/// dispatcher installed in its poller therefore remain valid — the thief
/// only donates CPU, it never migrates state.
pub mod steal {
    use super::*;
    use std::sync::Weak;

    /// A set of sibling schedulers that steal runnable tasks from each
    /// other when idle.
    pub struct StealGroup {
        members: RwLock<Vec<Weak<SchedulerInner>>>,
    }

    impl Default for StealGroup {
        fn default() -> Self {
            StealGroup {
                members: RwLock::new(Vec::new()),
            }
        }
    }

    impl std::fmt::Debug for StealGroup {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.debug_struct("StealGroup")
                .field("members", &self.members.read().len())
                .finish()
        }
    }

    impl StealGroup {
        /// Creates an empty group; pass it to
        /// [`Scheduler::start_sharded`][super::Scheduler::start_sharded]
        /// for every shard that should share work.
        pub fn new() -> Arc<Self> {
            Arc::new(StealGroup::default())
        }

        pub(super) fn join(&self, inner: &Arc<SchedulerInner>) {
            self.members.write().push(Arc::downgrade(inner));
        }

        /// Number of live member schedulers.
        pub fn len(&self) -> usize {
            self.members
                .read()
                .iter()
                .filter(|w| w.strong_count() > 0)
                .count()
        }

        /// `true` if no scheduler has joined (or all have been dropped).
        pub fn is_empty(&self) -> bool {
            self.len() == 0
        }

        /// Steals and executes one runnable task from a sibling of
        /// `thief`. Returns `true` if a task was run.
        ///
        /// Victim selection rotates with the thief's shard id so shard 0
        /// is not systematically farmed first.
        pub(super) fn steal_one(&self, thief: &SchedulerInner) -> bool {
            let victims: Vec<Arc<SchedulerInner>> = {
                let members = self.members.read();
                members.iter().filter_map(Weak::upgrade).collect()
            };
            let n = victims.len();
            if n < 2 {
                return false;
            }
            for offset in 0..n {
                let victim = &victims[(thief.shard + 1 + offset) % n];
                if std::ptr::eq(Arc::as_ptr(victim), thief as *const SchedulerInner) {
                    continue;
                }
                if victim.shutdown.load(Ordering::Acquire) {
                    continue;
                }
                for q in &victim.queues {
                    let popped = q.queue.lock().pop_front();
                    if let Some(id) = popped {
                        victim.stolen_out.fetch_add(1, Ordering::Relaxed);
                        thief.stolen_in.fetch_add(1, Ordering::Relaxed);
                        RuntimeMetrics::add(&thief.metrics.tasks_stolen, 1);
                        // Run through the *owning* scheduler: wakes and
                        // exit watchers stay in the owning shard.
                        victim.run_one(id);
                        return true;
                    }
                }
            }
            false
        }
    }
}

/// The worker-thread pool executing task graphs.
pub struct Scheduler {
    inner: Arc<SchedulerInner>,
    workers: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for Scheduler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Scheduler")
            .field("workers", &self.workers.len())
            .field("tasks", &self.task_count())
            .finish()
    }
}

impl Scheduler {
    /// Starts a scheduler with `workers` worker threads under `policy`.
    ///
    /// The paper sets the number of workers to the number of CPU cores; the
    /// benchmark harness passes the core count being evaluated.
    pub fn start(workers: usize, policy: SchedulingPolicy, metrics: Arc<RuntimeMetrics>) -> Self {
        Self::start_inner(workers, policy, metrics, None, 0)
    }

    /// Starts the scheduler of shard `shard` and joins it to `group`:
    /// whenever this scheduler's workers find no local work they steal
    /// runnable tasks from the group's other members (and vice versa).
    ///
    /// Stolen tasks are executed through the owning scheduler's state, so
    /// their queues, exit watchers and poller registrations stay with the
    /// owning shard; see [`steal`].
    pub fn start_sharded(
        workers: usize,
        policy: SchedulingPolicy,
        metrics: Arc<RuntimeMetrics>,
        group: &Arc<StealGroup>,
        shard: usize,
    ) -> Self {
        Self::start_inner(workers, policy, metrics, Some(Arc::clone(group)), shard)
    }

    fn start_inner(
        workers: usize,
        policy: SchedulingPolicy,
        metrics: Arc<RuntimeMetrics>,
        group: Option<Arc<StealGroup>>,
        shard: usize,
    ) -> Self {
        let workers = workers.max(1);
        let inner = Arc::new(SchedulerInner {
            queues: (0..workers)
                .map(|_| WorkerQueue {
                    queue: Mutex::new(VecDeque::new()),
                })
                .collect(),
            tasks: RwLock::new(HashMap::new()),
            policy,
            metrics,
            shutdown: AtomicBool::new(false),
            exit_watchers: Mutex::new(HashMap::new()),
            shard,
            group,
            work_seq: AtomicU64::new(0),
            idle_lock: Mutex::new(()),
            idle_cond: Condvar::new(),
            parked: AtomicUsize::new(0),
            runs: AtomicU64::new(0),
            stolen_out: AtomicU64::new(0),
            stolen_in: AtomicU64::new(0),
        });
        if let Some(group) = &inner.group {
            group.join(&inner);
        }
        let handles = (0..workers)
            .map(|i| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("flick-worker-{shard}-{i}"))
                    .spawn(move || inner.worker_loop(i))
                    .expect("spawning a worker thread")
            })
            .collect();
        Scheduler {
            inner,
            workers: handles,
        }
    }

    /// The scheduling policy in force.
    pub fn policy(&self) -> SchedulingPolicy {
        self.inner.policy
    }

    /// The shard this scheduler serves (0 outside sharded platforms).
    pub fn shard(&self) -> usize {
        self.inner.shard
    }

    /// A point-in-time load snapshot (queue depth, registered tasks, runs
    /// and steal counters), as consumed by placement policies and the
    /// fig5 per-shard utilization report.
    pub fn load(&self) -> ShardLoad {
        let queued = self.inner.queues.iter().map(|q| q.queue.lock().len()).sum();
        ShardLoad {
            shard: self.inner.shard,
            registered: self.task_count(),
            queued,
            runs: self.inner.runs.load(Ordering::Relaxed),
            stolen_out: self.inner.stolen_out.load(Ordering::Relaxed),
            stolen_in: self.inner.stolen_in.load(Ordering::Relaxed),
        }
    }

    /// The shared runtime metrics.
    pub fn metrics(&self) -> Arc<RuntimeMetrics> {
        Arc::clone(&self.inner.metrics)
    }

    /// Registers a task without scheduling it.
    pub fn register(&self, id: TaskId, task: Box<dyn Task>) {
        let slot = Arc::new(TaskSlot {
            task: Mutex::new(Some(task)),
            queued: AtomicBool::new(false),
        });
        self.inner.tasks.write().insert(id, slot);
    }

    /// Registers every task of a graph and schedules the given initial set.
    pub fn register_graph(&self, graph: GraphInstance, initial: &[TaskId]) {
        RuntimeMetrics::add(&self.inner.metrics.graphs_created, 1);
        for (id, task) in graph.into_tasks() {
            self.register(id, task);
        }
        for id in initial {
            self.schedule(*id);
        }
    }

    /// Makes a task runnable (it will be dispatched by its worker).
    pub fn schedule(&self, id: TaskId) {
        self.inner.schedule(id);
    }

    /// Returns `true` while the task is registered (not yet finished).
    pub fn is_registered(&self, id: TaskId) -> bool {
        self.inner.tasks.read().contains_key(&id)
    }

    /// Number of currently registered tasks.
    pub fn task_count(&self) -> usize {
        self.inner.tasks.read().len()
    }

    /// Removes a task outright (used when tearing down a graph whose
    /// connection vanished).
    pub fn remove(&self, id: TaskId) {
        self.inner.tasks.write().remove(&id);
        self.inner.notify_exit(id);
    }

    /// Registers `watcher` to run once when task `id` exits the scheduler
    /// (finishes or is removed). If the task is already gone the watcher
    /// fires immediately on this thread.
    ///
    /// This is the event-driven dispatcher's replacement for polling
    /// [`Scheduler::is_registered`] every tick: graph teardown becomes an
    /// event (the watcher posts to the dispatcher's poller) instead of a
    /// scan.
    pub fn watch_exit(&self, id: TaskId, watcher: ExitWatcher) {
        self.inner
            .exit_watchers
            .lock()
            .entry(id)
            .or_default()
            .push(watcher);
        // Re-check after installing: if the task exited between the
        // caller's decision and the insert, fire now (`notify_exit` removes
        // the entry, so a concurrent exit cannot double-fire it).
        if !self.is_registered(id) {
            self.inner.notify_exit(id);
        }
    }

    /// Blocks until every registered task has finished or the timeout
    /// elapses. Returns `true` if the scheduler drained completely.
    pub fn wait_idle(&self, timeout: Duration) -> bool {
        let deadline = std::time::Instant::now() + timeout;
        while std::time::Instant::now() < deadline {
            if self.task_count() == 0 {
                return true;
            }
            std::thread::sleep(Duration::from_micros(200));
        }
        self.task_count() == 0
    }

    /// Stops the worker threads. Registered tasks are dropped.
    pub fn shutdown(&mut self) {
        self.inner.shutdown.store(true, Ordering::Release);
        {
            let _guard = self.inner.idle_lock.lock();
            self.inner.idle_cond.notify_all();
        }
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for Scheduler {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{GraphBuilder, TaskIdAllocator};
    use crate::tasks::{ComputeLogic, ComputeTask, Outputs, SourceTask, SyntheticWorkTask};
    use crate::value::Value;
    use crate::RuntimeError;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn runs_a_single_task_to_completion() {
        let metrics = RuntimeMetrics::new_shared();
        let scheduler = Scheduler::start(2, SchedulingPolicy::default(), Arc::clone(&metrics));
        let done = Arc::new(AtomicBool::new(false));
        let done2 = Arc::clone(&done);
        let id = TaskId(1);
        scheduler.register(
            id,
            Box::new(SyntheticWorkTask::new(
                "t",
                50,
                256,
                Some(Box::new(move || done2.store(true, Ordering::SeqCst))),
            )),
        );
        scheduler.schedule(id);
        assert!(scheduler.wait_idle(Duration::from_secs(5)));
        assert!(done.load(Ordering::SeqCst));
        assert!(RuntimeMetrics::get(&metrics.task_runs) >= 1);
    }

    /// Counts the values that flow through it and forwards nothing.
    struct Counter {
        seen: Arc<AtomicUsize>,
    }
    impl ComputeLogic for Counter {
        fn on_value(
            &mut self,
            _input: usize,
            _value: Value,
            _out: &mut Outputs<'_>,
        ) -> Result<(), RuntimeError> {
            self.seen.fetch_add(1, Ordering::Relaxed);
            Ok(())
        }
    }

    #[test]
    fn source_feeds_compute_across_workers() {
        let metrics = RuntimeMetrics::new_shared();
        let scheduler = Scheduler::start(4, SchedulingPolicy::default(), Arc::clone(&metrics));
        let alloc = TaskIdAllocator::new();
        let mut builder = GraphBuilder::new("pipeline", &alloc);
        let source_node = builder.declare_node();
        let compute_node = builder.declare_node();
        let (tx, rx) = builder.channel(compute_node);
        let seen = Arc::new(AtomicUsize::new(0));
        builder.install(source_node, Box::new(SourceTask::new("src", 500, 64, tx)));
        builder.install(
            compute_node,
            Box::new(ComputeTask::new(
                "count",
                vec![rx],
                vec![],
                Box::new(Counter {
                    seen: Arc::clone(&seen),
                }),
            )),
        );
        let graph = builder.build();
        let initial = vec![source_node.task_id()];
        scheduler.register_graph(graph, &initial);
        assert!(
            scheduler.wait_idle(Duration::from_secs(10)),
            "graph should drain"
        );
        assert_eq!(seen.load(Ordering::Relaxed), 500);
        assert_eq!(RuntimeMetrics::get(&metrics.graphs_created), 1);
    }

    #[test]
    fn many_tasks_complete_under_all_policies() {
        for policy in [
            SchedulingPolicy::Cooperative {
                timeslice: Duration::from_micros(50),
            },
            SchedulingPolicy::NonCooperative,
            SchedulingPolicy::RoundRobin,
        ] {
            let metrics = RuntimeMetrics::new_shared();
            let scheduler = Scheduler::start(4, policy, metrics);
            let completed = Arc::new(AtomicUsize::new(0));
            for i in 0..40 {
                let completed = Arc::clone(&completed);
                let id = TaskId(100 + i);
                scheduler.register(
                    id,
                    Box::new(SyntheticWorkTask::new(
                        format!("t{i}"),
                        20,
                        512,
                        Some(Box::new(move || {
                            completed.fetch_add(1, Ordering::SeqCst);
                        })),
                    )),
                );
                scheduler.schedule(id);
            }
            assert!(
                scheduler.wait_idle(Duration::from_secs(10)),
                "policy {:?} stalled",
                policy
            );
            assert_eq!(completed.load(Ordering::SeqCst), 40, "policy {policy:?}");
        }
    }

    /// Sends `0..total` as integers, parking whenever the channel is full,
    /// and counts its own dispatches.
    struct SequenceSource {
        next: i64,
        total: i64,
        output: crate::ChannelProducer,
        runs: Arc<AtomicUsize>,
    }

    impl Task for SequenceSource {
        fn label(&self) -> &str {
            "sequence"
        }

        fn run(&mut self, ctx: &mut TaskContext) -> TaskStatus {
            self.runs.fetch_add(1, Ordering::Relaxed);
            while self.next < self.total {
                match self.output.send(Value::Int(self.next), ctx) {
                    Ok(()) => self.next += 1,
                    Err(crate::SendError::Full(_)) => return TaskStatus::Idle,
                    Err(crate::SendError::Disconnected(_)) => break,
                }
                if !ctx.can_continue() {
                    return TaskStatus::Runnable;
                }
            }
            self.output.close();
            TaskStatus::Finished
        }
    }

    /// Checks that values arrive as `0, 1, 2, ...`, spinning a little per
    /// value so the consumer is the slow side of the channel.
    struct SlowInOrder {
        expected: i64,
        in_order: Arc<AtomicBool>,
        seen: Arc<AtomicUsize>,
    }

    impl ComputeLogic for SlowInOrder {
        fn on_value(
            &mut self,
            _input: usize,
            value: Value,
            _out: &mut Outputs<'_>,
        ) -> Result<(), RuntimeError> {
            if value != Value::Int(self.expected) {
                self.in_order.store(false, Ordering::Relaxed);
            }
            self.expected += 1;
            self.seen.fetch_add(1, Ordering::Relaxed);
            for _ in 0..200 {
                std::hint::spin_loop();
            }
            Ok(())
        }
    }

    #[test]
    fn full_channel_parks_a_fast_producer_instead_of_spinning() {
        const VALUES: i64 = 200_000;
        let metrics = RuntimeMetrics::new_shared();
        // No timeslice: every producer run ends in a park, so the bound
        // below does not depend on the wall clock.
        let scheduler = Scheduler::start(2, SchedulingPolicy::NonCooperative, Arc::clone(&metrics));
        let alloc = TaskIdAllocator::new();
        let mut builder = GraphBuilder::new("backpressure", &alloc).with_channel_capacity(8);
        let source_node = builder.declare_node();
        let sink_node = builder.declare_node();
        let (tx, rx) = builder.channel(sink_node);
        let runs = Arc::new(AtomicUsize::new(0));
        let in_order = Arc::new(AtomicBool::new(true));
        let seen = Arc::new(AtomicUsize::new(0));
        builder.install(
            source_node,
            Box::new(SequenceSource {
                next: 0,
                total: VALUES,
                output: tx,
                runs: Arc::clone(&runs),
            }),
        );
        builder.install(
            sink_node,
            Box::new(ComputeTask::new(
                "slow-sink",
                vec![rx],
                vec![],
                Box::new(SlowInOrder {
                    expected: 0,
                    in_order: Arc::clone(&in_order),
                    seen: Arc::clone(&seen),
                }),
            )),
        );
        scheduler.register_graph(builder.build(), &[source_node.task_id()]);
        assert!(scheduler.wait_idle(Duration::from_secs(60)), "graph drains");
        assert_eq!(seen.load(Ordering::Relaxed), VALUES as usize);
        assert!(in_order.load(Ordering::Relaxed), "delivery out of order");
        // Every wakeup finds at least half the channel free, so each
        // producer run pushes a batch of >= 4. A producer re-queued on a
        // full channel would instead run about once per consumed value.
        let producer_runs = runs.load(Ordering::Relaxed);
        let bound = VALUES as usize / 4 + 1_000;
        assert!(
            producer_runs <= bound,
            "producer ran {producer_runs} times for {VALUES} values (bound {bound})"
        );
        let snap = metrics.snapshot();
        assert!(snap.channel_parks > 0, "{snap:?}");
        snap.check_conservation().unwrap();
    }

    #[test]
    fn a_failing_consumer_releases_its_parked_producer() {
        // One worker and no timeslice make the order deterministic: the
        // source fills the channel and parks before the consumer runs, and
        // the consumer fails on its first value.
        struct FailFirst;
        impl ComputeLogic for FailFirst {
            fn on_value(
                &mut self,
                _input: usize,
                _value: Value,
                _out: &mut Outputs<'_>,
            ) -> Result<(), RuntimeError> {
                Err(RuntimeError::Logic("consumer failed".into()))
            }
        }
        let metrics = RuntimeMetrics::new_shared();
        let scheduler = Scheduler::start(1, SchedulingPolicy::NonCooperative, Arc::clone(&metrics));
        let alloc = TaskIdAllocator::new();
        let mut builder = GraphBuilder::new("failing", &alloc).with_channel_capacity(4);
        let source_node = builder.declare_node();
        let sink_node = builder.declare_node();
        let (tx, rx) = builder.channel(sink_node);
        builder.install(source_node, Box::new(SourceTask::new("src", 1_000, 8, tx)));
        builder.install(
            sink_node,
            Box::new(ComputeTask::new(
                "fail",
                vec![rx],
                vec![],
                Box::new(FailFirst),
            )),
        );
        scheduler.register_graph(builder.build(), &[source_node.task_id()]);
        assert!(
            scheduler.wait_idle(Duration::from_secs(10)),
            "the parked producer must finish, not wait forever: {} tasks left",
            scheduler.task_count()
        );
        let snap = metrics.snapshot();
        assert_eq!((snap.channel_parks, snap.channel_park_wakes), (1, 1));
        snap.check_conservation().unwrap();
    }

    #[test]
    fn scheduling_unknown_task_is_harmless() {
        let scheduler =
            Scheduler::start(1, SchedulingPolicy::default(), RuntimeMetrics::new_shared());
        scheduler.schedule(TaskId(999));
        assert!(!scheduler.is_registered(TaskId(999)));
    }

    #[test]
    fn remove_discards_a_registered_task() {
        let scheduler =
            Scheduler::start(1, SchedulingPolicy::default(), RuntimeMetrics::new_shared());
        scheduler.register(TaskId(7), Box::new(SyntheticWorkTask::new("t", 1, 1, None)));
        assert!(scheduler.is_registered(TaskId(7)));
        scheduler.remove(TaskId(7));
        assert!(!scheduler.is_registered(TaskId(7)));
    }

    #[test]
    fn watch_exit_fires_when_a_task_finishes() {
        let scheduler =
            Scheduler::start(2, SchedulingPolicy::default(), RuntimeMetrics::new_shared());
        let fired = Arc::new(AtomicBool::new(false));
        let fired2 = Arc::clone(&fired);
        let id = TaskId(11);
        scheduler.register(id, Box::new(SyntheticWorkTask::new("t", 10, 64, None)));
        scheduler.watch_exit(
            id,
            Box::new(move |exited| {
                assert_eq!(exited, TaskId(11));
                fired2.store(true, Ordering::SeqCst);
            }),
        );
        scheduler.schedule(id);
        assert!(scheduler.wait_idle(Duration::from_secs(5)));
        let deadline = std::time::Instant::now() + Duration::from_secs(1);
        while !fired.load(Ordering::SeqCst) && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_micros(100));
        }
        assert!(fired.load(Ordering::SeqCst));
    }

    #[test]
    fn watch_exit_on_unknown_task_fires_immediately() {
        let scheduler =
            Scheduler::start(1, SchedulingPolicy::default(), RuntimeMetrics::new_shared());
        let fired = Arc::new(AtomicBool::new(false));
        let fired2 = Arc::clone(&fired);
        scheduler.watch_exit(
            TaskId(404),
            Box::new(move |_| fired2.store(true, Ordering::SeqCst)),
        );
        assert!(fired.load(Ordering::SeqCst));
    }

    #[test]
    fn watch_exit_fires_on_remove() {
        let scheduler =
            Scheduler::start(1, SchedulingPolicy::default(), RuntimeMetrics::new_shared());
        let id = TaskId(21);
        scheduler.register(id, Box::new(SyntheticWorkTask::new("t", 1, 1, None)));
        let fired = Arc::new(AtomicBool::new(false));
        let fired2 = Arc::clone(&fired);
        scheduler.watch_exit(id, Box::new(move |_| fired2.store(true, Ordering::SeqCst)));
        assert!(!fired.load(Ordering::SeqCst));
        scheduler.remove(id);
        assert!(fired.load(Ordering::SeqCst));
    }

    #[test]
    fn shutdown_is_idempotent_and_joins_workers() {
        let mut scheduler =
            Scheduler::start(3, SchedulingPolicy::default(), RuntimeMetrics::new_shared());
        scheduler.shutdown();
        scheduler.shutdown();
        assert_eq!(scheduler.task_count(), 0);
    }

    /// A task whose `run` blocks until `release` is signalled: used to pin
    /// one worker deterministically while other workers must scavenge or
    /// steal the remaining queued work. Because the gate task itself may be
    /// scavenged or stolen, `entered` reports the `(shard, worker)` that
    /// actually entered it (parsed from the worker thread's name), so the
    /// test can aim its burst at the pinned worker's queue.
    type EnteredGate = Arc<(Mutex<Option<(usize, usize)>>, Condvar)>;
    type ReleaseGate = Arc<(Mutex<bool>, Condvar)>;

    struct GateTask {
        entered: EnteredGate,
        release: ReleaseGate,
    }

    impl GateTask {
        fn new() -> (Self, EnteredGate, ReleaseGate) {
            let entered = Arc::new((Mutex::new(None), Condvar::new()));
            let release = Arc::new((Mutex::new(false), Condvar::new()));
            (
                GateTask {
                    entered: Arc::clone(&entered),
                    release: Arc::clone(&release),
                },
                entered,
                release,
            )
        }

        fn release(gate: &ReleaseGate) {
            let mut flag = gate.0.lock();
            *flag = true;
            gate.1.notify_all();
        }

        /// Blocks until the gate task is running; returns the
        /// `(shard, worker)` whose thread entered it.
        fn await_entered(gate: &EnteredGate) -> (usize, usize) {
            let mut slot = gate.0.lock();
            while slot.is_none() {
                gate.1.wait_for(&mut slot, Duration::from_secs(10));
            }
            slot.expect("checked above")
        }
    }

    impl crate::task::Task for GateTask {
        fn label(&self) -> &str {
            "gate"
        }

        fn run(&mut self, _ctx: &mut TaskContext) -> TaskStatus {
            // Worker threads are named `flick-worker-{shard}-{worker}`.
            let position = std::thread::current().name().and_then(|name| {
                let mut parts = name.rsplitn(3, '-');
                let worker = parts.next()?.parse().ok()?;
                let shard = parts.next()?.parse().ok()?;
                Some((shard, worker))
            });
            {
                let mut slot = self.entered.0.lock();
                *slot = Some(position.expect("worker thread name parses"));
                self.entered.1.notify_all();
            }
            let mut flag = self.release.0.lock();
            while !*flag {
                self.release.1.wait_for(&mut flag, Duration::from_secs(10));
            }
            TaskStatus::Finished
        }
    }

    /// Task ids whose queue hash lands on worker queue `target` of an
    /// `n`-queue scheduler (the same multiplicative hash `queue_for` uses).
    fn ids_hashed_to(target: usize, n: usize, count: usize, mut from: u64) -> Vec<TaskId> {
        let mut out = Vec::with_capacity(count);
        while out.len() < count {
            let id = TaskId(from);
            from += 1;
            if (id.0.wrapping_mul(0x9e3779b97f4a7c15) >> 32) as usize % n == target {
                out.push(id);
            }
        }
        out
    }

    #[test]
    fn work_is_scavenged_when_one_queue_is_idle() {
        // Deterministic version of the old timing-dependent assertion: one
        // worker is pinned inside a gate task, and the burst is hashed to
        // *that* worker's queue. The only way the burst can complete while
        // the gate is held is for the free worker to scavenge the pinned
        // queue, so the metric must observe every burst task.
        let metrics = RuntimeMetrics::new_shared();
        let scheduler = Scheduler::start(2, SchedulingPolicy::RoundRobin, Arc::clone(&metrics));
        let (gate, entered, release) = GateTask::new();
        scheduler.register(TaskId(1), Box::new(gate));
        scheduler.schedule(TaskId(1));
        let (_, pinned_worker) = GateTask::await_entered(&entered);

        const BURST: usize = 16;
        let scavenged_before = RuntimeMetrics::get(&metrics.tasks_scavenged);
        let completed = Arc::new(AtomicUsize::new(0));
        let burst_ids = ids_hashed_to(pinned_worker, 2, BURST, 20_000);
        for (i, id) in burst_ids.iter().enumerate() {
            let completed = Arc::clone(&completed);
            scheduler.register(
                *id,
                Box::new(SyntheticWorkTask::new(
                    format!("t{i}"),
                    10,
                    256,
                    Some(Box::new(move || {
                        completed.fetch_add(1, Ordering::SeqCst);
                    })),
                )),
            );
            scheduler.schedule(*id);
        }
        // The burst drains while the pinned worker is still gated.
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while completed.load(Ordering::SeqCst) < BURST {
            assert!(
                std::time::Instant::now() < deadline,
                "burst stalled with worker {pinned_worker} gated: {} of {BURST} done",
                completed.load(Ordering::SeqCst)
            );
            std::thread::yield_now();
        }
        let scavenged = RuntimeMetrics::get(&metrics.tasks_scavenged) - scavenged_before;
        assert!(
            scavenged >= BURST as u64,
            "all {BURST} burst tasks must have been scavenged from queue \
             {pinned_worker}, saw {scavenged}"
        );
        GateTask::release(&release);
        assert!(scheduler.wait_idle(Duration::from_secs(10)));
    }

    #[test]
    fn idle_sibling_shard_steals_queued_tasks() {
        // The shard whose only worker is gated queues a burst; the burst
        // can complete only through the sibling shard's steal path.
        let metrics = RuntimeMetrics::new_shared();
        let group = StealGroup::new();
        let shards = [
            Scheduler::start_sharded(
                1,
                SchedulingPolicy::RoundRobin,
                Arc::clone(&metrics),
                &group,
                0,
            ),
            Scheduler::start_sharded(
                1,
                SchedulingPolicy::RoundRobin,
                Arc::clone(&metrics),
                &group,
                1,
            ),
        ];
        assert_eq!(group.len(), 2);

        let (gate, entered, release) = GateTask::new();
        shards[0].register(TaskId(1), Box::new(gate));
        shards[0].schedule(TaskId(1));
        // The gate itself may be stolen; the burst targets whichever shard's
        // worker is actually pinned.
        let (pinned_shard, _) = GateTask::await_entered(&entered);
        let owner = &shards[pinned_shard];

        const BURST: usize = 12;
        let stolen_before = RuntimeMetrics::get(&metrics.tasks_stolen);
        let completed = Arc::new(AtomicUsize::new(0));
        for i in 0..BURST {
            let completed = Arc::clone(&completed);
            let id = TaskId(100 + i as u64);
            owner.register(
                id,
                Box::new(SyntheticWorkTask::new(
                    format!("t{i}"),
                    10,
                    256,
                    Some(Box::new(move || {
                        completed.fetch_add(1, Ordering::SeqCst);
                    })),
                )),
            );
            owner.schedule(id);
        }
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while completed.load(Ordering::SeqCst) < BURST {
            assert!(
                std::time::Instant::now() < deadline,
                "steal path stalled: {} of {BURST} done",
                completed.load(Ordering::SeqCst)
            );
            std::thread::yield_now();
        }
        let stolen = RuntimeMetrics::get(&metrics.tasks_stolen) - stolen_before;
        assert!(
            stolen >= BURST as u64,
            "every burst task must have crossed the shard boundary, saw {stolen}"
        );
        let load = owner.load();
        assert!(load.stolen_out >= BURST as u64, "{load:?}");
        // Runs are attributed to the owning shard even when a thief ran them.
        assert!(load.runs >= BURST as u64, "{load:?}");
        GateTask::release(&release);
        assert!(owner.wait_idle(Duration::from_secs(10)));
    }

    #[test]
    fn stolen_tasks_fire_exit_watchers_in_the_owning_shard() {
        let metrics = RuntimeMetrics::new_shared();
        let group = StealGroup::new();
        let shards = [
            Scheduler::start_sharded(
                1,
                SchedulingPolicy::RoundRobin,
                Arc::clone(&metrics),
                &group,
                0,
            ),
            Scheduler::start_sharded(
                1,
                SchedulingPolicy::RoundRobin,
                Arc::clone(&metrics),
                &group,
                1,
            ),
        ];
        let (gate, entered, release) = GateTask::new();
        shards[0].register(TaskId(1), Box::new(gate));
        shards[0].schedule(TaskId(1));
        let (pinned_shard, _) = GateTask::await_entered(&entered);
        let owner = &shards[pinned_shard];

        // The task is registered (and watched) in the pinned shard, so only
        // the sibling's steal path can run it — yet the watcher, which
        // lives in the owning shard's scheduler, must still fire.
        let fired = Arc::new(AtomicBool::new(false));
        let fired2 = Arc::clone(&fired);
        let id = TaskId(42);
        owner.register(id, Box::new(SyntheticWorkTask::new("t", 5, 64, None)));
        owner.watch_exit(id, Box::new(move |_| fired2.store(true, Ordering::SeqCst)));
        owner.schedule(id);
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while !fired.load(Ordering::SeqCst) {
            assert!(
                std::time::Instant::now() < deadline,
                "exit watcher of a stolen task never fired"
            );
            std::thread::yield_now();
        }
        assert!(RuntimeMetrics::get(&metrics.tasks_stolen) >= 1);
        GateTask::release(&release);
        assert!(owner.wait_idle(Duration::from_secs(10)));
    }
}
