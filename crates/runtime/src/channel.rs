//! Bounded task channels.
//!
//! Task channels move [`Value`]s between the tasks of a graph. They are
//! bounded (FLICK guarantees bounded resource usage per §3.2/§4.3), multiple
//! producer / single consumer, and record which task consumes them so that a
//! producer can ask the scheduler to wake that task after pushing.
//!
//! A full channel never makes its producer spin: [`ChannelProducer::send`]
//! parks the pushing task on the channel, and the consumer's
//! [`ChannelConsumer::recv`] wakes every parked producer once the queue has
//! drained to half its capacity (DESIGN.md §16). The full check, the
//! registration and the pop all happen under the one queue lock, so a
//! wakeup cannot be lost between a producer seeing "full" and parking.

use crate::metrics::RuntimeMetrics;
use crate::task::{TaskContext, TaskId};
use crate::value::Value;
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

/// Default per-channel capacity, in values.
pub const DEFAULT_CHANNEL_CAPACITY: usize = 1024;

/// Why [`ChannelProducer::send`] handed a value back.
#[derive(Debug, Clone, PartialEq)]
pub enum SendError {
    /// The channel is full. The sending task is parked on it and will be
    /// woken once the consumer has drained it to half capacity; the caller
    /// should keep the value and return [`crate::TaskStatus::Idle`].
    Full(Value),
    /// The consumer has exited, or every producer has closed: no value will
    /// ever be accepted again, so the producer should finish.
    Disconnected(Value),
}

/// Everything guarded by the queue lock.
struct State {
    queue: VecDeque<Value>,
    /// Producers parked on a full queue, each at most once.
    waiters: Vec<TaskId>,
    /// Set once the consumer has exited; pushes then fail for good.
    consumer_gone: bool,
}

impl State {
    /// Wakes every parked producer through `ctx`.
    fn wake_waiters(&mut self, ctx: &mut TaskContext) {
        if self.waiters.is_empty() {
            return;
        }
        // Release pairs with the Acquire load in `RuntimeMetrics::snapshot`:
        // each park was counted under this lock before this increment, so a
        // snapshot never sees more wakes than parks.
        ctx.metrics()
            .channel_park_wakes
            .fetch_add(self.waiters.len() as u64, Ordering::Release);
        for waiter in self.waiters.drain(..) {
            ctx.wake(waiter);
        }
    }
}

struct Inner {
    state: Mutex<State>,
    capacity: usize,
    /// Number of producer handles still alive (or explicitly not closed).
    producers: AtomicUsize,
    closed: AtomicBool,
    consumer: TaskId,
}

/// A task channel: create with [`TaskChannel::bounded`], then hand the
/// producer and consumer halves to the producing and consuming tasks.
#[derive(Debug)]
pub struct TaskChannel;

impl TaskChannel {
    /// Creates a bounded channel whose consumer is the task `consumer`.
    ///
    /// Returns the producer and consumer halves.
    pub fn bounded(capacity: usize, consumer: TaskId) -> (ChannelProducer, ChannelConsumer) {
        let inner = Arc::new(Inner {
            state: Mutex::new(State {
                queue: VecDeque::with_capacity(capacity.min(64)),
                waiters: Vec::new(),
                consumer_gone: false,
            }),
            capacity,
            producers: AtomicUsize::new(1),
            closed: AtomicBool::new(false),
            consumer,
        });
        (
            ChannelProducer {
                inner: Arc::clone(&inner),
                handle_closed: AtomicBool::new(false),
            },
            ChannelConsumer { inner },
        )
    }

    /// Creates a channel with the default capacity.
    pub fn with_default_capacity(consumer: TaskId) -> (ChannelProducer, ChannelConsumer) {
        Self::bounded(DEFAULT_CHANNEL_CAPACITY, consumer)
    }
}

/// The producing half of a task channel.
pub struct ChannelProducer {
    inner: Arc<Inner>,
    /// Whether this particular handle has already called [`Self::close`].
    handle_closed: AtomicBool,
}

impl std::fmt::Debug for ChannelProducer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ChannelProducer")
            .field("consumer", &self.inner.consumer)
            .finish()
    }
}

impl Clone for ChannelProducer {
    fn clone(&self) -> Self {
        self.inner.producers.fetch_add(1, Ordering::AcqRel);
        ChannelProducer {
            inner: Arc::clone(&self.inner),
            handle_closed: AtomicBool::new(false),
        }
    }
}

impl ChannelProducer {
    /// The task that consumes from this channel (to be woken after a push).
    pub fn consumer(&self) -> TaskId {
        self.inner.consumer
    }

    /// Pushes a value without parking, for code that runs outside a task.
    ///
    /// Returns `Err(value)` (giving the value back) if the channel is full,
    /// fully closed, or its consumer has exited.
    pub fn push(&self, value: Value) -> Result<(), Value> {
        if self.inner.closed.load(Ordering::Acquire) {
            return Err(value);
        }
        let mut state = self.inner.state.lock();
        if state.consumer_gone || state.queue.len() >= self.inner.capacity {
            return Err(value);
        }
        state.queue.push_back(value);
        Ok(())
    }

    /// Pushes a value from inside a running task and asks the scheduler to
    /// wake the consumer.
    ///
    /// On a full channel the task being dispatched (the scheduler records
    /// it in `ctx`) is registered as a waiter — under the queue lock, so
    /// the consumer's draining pop cannot slip in between — and the value
    /// comes back as [`SendError::Full`]. A task registers at most once per
    /// wakeup.
    pub fn send(&self, value: Value, ctx: &mut TaskContext) -> Result<(), SendError> {
        if self.inner.closed.load(Ordering::Acquire) {
            return Err(SendError::Disconnected(value));
        }
        let mut state = self.inner.state.lock();
        if state.consumer_gone {
            return Err(SendError::Disconnected(value));
        }
        if state.queue.len() >= self.inner.capacity {
            if let Some(task) = ctx.current() {
                if !state.waiters.contains(&task) {
                    state.waiters.push(task);
                    RuntimeMetrics::add(&ctx.metrics().channel_parks, 1);
                }
            }
            return Err(SendError::Full(value));
        }
        state.queue.push_back(value);
        drop(state);
        ctx.wake(self.inner.consumer);
        Ok(())
    }

    /// Returns `true` if a push would currently succeed.
    pub fn has_space(&self) -> bool {
        if self.inner.closed.load(Ordering::Acquire) {
            return false;
        }
        let state = self.inner.state.lock();
        !state.consumer_gone && state.queue.len() < self.inner.capacity
    }

    /// Marks this producer as finished. When the last producer closes, the
    /// consumer observes end-of-stream after draining. Closing the same
    /// handle more than once is a no-op.
    pub fn close(&self) {
        if self.handle_closed.swap(true, Ordering::AcqRel) {
            return;
        }
        if self.inner.producers.fetch_sub(1, Ordering::AcqRel) == 1 {
            self.inner.closed.store(true, Ordering::Release);
        }
    }
}

/// The consuming half of a task channel.
///
/// Dropping it marks the channel's consumer as gone, so later pushes fail
/// for good instead of filling a queue nobody reads.
pub struct ChannelConsumer {
    inner: Arc<Inner>,
}

impl std::fmt::Debug for ChannelConsumer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ChannelConsumer")
            .field("consumer", &self.inner.consumer)
            .field("len", &self.len())
            .finish()
    }
}

impl ChannelConsumer {
    /// Pops the next value, or `None` if the channel is currently empty.
    ///
    /// This form wakes no parked producer; tasks consume with
    /// [`Self::recv`]. It serves code that drains a channel outside the
    /// scheduler, where no producer can have parked.
    pub fn pop(&self) -> Option<Value> {
        self.inner.state.lock().queue.pop_front()
    }

    /// Pops the next value from inside a running task. Once the queue has
    /// drained to half its capacity, every parked producer is woken through
    /// `ctx` — half, so a woken producer has room for a batch of pushes
    /// rather than a single one.
    pub fn recv(&self, ctx: &mut TaskContext) -> Option<Value> {
        let mut state = self.inner.state.lock();
        let value = state.queue.pop_front();
        if state.queue.len() <= self.inner.capacity / 2 {
            state.wake_waiters(ctx);
        }
        value
    }

    /// Marks the consumer as gone for good (the consuming task is exiting):
    /// buffered values are dropped, every parked producer is woken through
    /// `ctx`, and every later push fails with [`SendError::Disconnected`].
    pub fn disconnect(&self, ctx: &mut TaskContext) {
        let mut state = self.inner.state.lock();
        state.consumer_gone = true;
        state.queue.clear();
        state.wake_waiters(ctx);
    }

    /// Number of values currently buffered.
    pub fn len(&self) -> usize {
        self.inner.state.lock().queue.len()
    }

    /// Returns `true` if no values are buffered.
    pub fn is_empty(&self) -> bool {
        self.inner.state.lock().queue.is_empty()
    }

    /// Returns `true` once every producer has closed *and* the buffer has
    /// been drained: no more values will ever arrive.
    pub fn is_finished(&self) -> bool {
        self.inner.closed.load(Ordering::Acquire) && self.is_empty()
    }

    /// Returns `true` if all producers have closed (there may still be
    /// buffered values to drain).
    pub fn producers_closed(&self) -> bool {
        self.inner.closed.load(Ordering::Acquire)
    }

    /// The id of the consuming task.
    pub fn consumer(&self) -> TaskId {
        self.inner.consumer
    }
}

impl Drop for ChannelConsumer {
    fn drop(&mut self) {
        self.inner.state.lock().consumer_gone = true;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::SchedulingPolicy;

    /// A dispatch context for task `id`, as the scheduler would build it.
    fn ctx_for(id: u64, metrics: &Arc<RuntimeMetrics>) -> TaskContext {
        let mut ctx = TaskContext::new(SchedulingPolicy::NonCooperative, Arc::clone(metrics));
        ctx.set_current(TaskId(id));
        ctx
    }

    fn waiters(rx: &ChannelConsumer) -> Vec<TaskId> {
        rx.inner.state.lock().waiters.clone()
    }

    #[test]
    fn push_pop_in_order() {
        let (tx, rx) = TaskChannel::bounded(4, TaskId(1));
        tx.push(Value::Int(1)).unwrap();
        tx.push(Value::Int(2)).unwrap();
        assert_eq!(rx.pop(), Some(Value::Int(1)));
        assert_eq!(rx.pop(), Some(Value::Int(2)));
        assert_eq!(rx.pop(), None);
    }

    #[test]
    fn bounded_capacity_rejects_push() {
        let (tx, rx) = TaskChannel::bounded(2, TaskId(1));
        tx.push(Value::Int(1)).unwrap();
        tx.push(Value::Int(2)).unwrap();
        let rejected = tx.push(Value::Int(3)).unwrap_err();
        assert_eq!(rejected, Value::Int(3));
        assert!(!tx.has_space());
        rx.pop();
        assert!(tx.has_space());
    }

    #[test]
    fn close_signals_end_of_stream_after_drain() {
        let (tx, rx) = TaskChannel::bounded(4, TaskId(2));
        tx.push(Value::Int(1)).unwrap();
        tx.close();
        assert!(rx.producers_closed());
        assert!(!rx.is_finished(), "still has a buffered value");
        assert_eq!(rx.pop(), Some(Value::Int(1)));
        assert!(rx.is_finished());
    }

    #[test]
    fn multiple_producers_must_all_close() {
        let (tx1, rx) = TaskChannel::bounded(4, TaskId(3));
        let tx2 = tx1.clone();
        tx1.close();
        assert!(!rx.producers_closed());
        tx2.close();
        assert!(rx.is_finished());
    }

    #[test]
    fn push_after_full_close_returns_value() {
        let (tx, rx) = TaskChannel::bounded(4, TaskId(4));
        tx.close();
        let back = tx.push(Value::Int(9)).unwrap_err();
        assert_eq!(back, Value::Int(9));
        assert!(rx.is_finished());
    }

    #[test]
    fn consumer_id_is_recorded() {
        let (tx, rx) = TaskChannel::with_default_capacity(TaskId(42));
        assert_eq!(tx.consumer(), TaskId(42));
        assert_eq!(rx.consumer(), TaskId(42));
    }

    #[test]
    fn send_wakes_the_consumer() {
        let metrics = RuntimeMetrics::new_shared();
        let (tx, rx) = TaskChannel::bounded(4, TaskId(5));
        let mut ctx = ctx_for(1, &metrics);
        tx.send(Value::Int(1), &mut ctx).unwrap();
        assert_eq!(ctx.take_wakes(), vec![TaskId(5)]);
        assert_eq!(rx.len(), 1);
        assert_eq!(metrics.snapshot().channel_parks, 0);
    }

    #[test]
    fn full_send_registers_the_pusher_exactly_once() {
        let metrics = RuntimeMetrics::new_shared();
        let (tx, rx) = TaskChannel::bounded(2, TaskId(5));
        let mut ctx = ctx_for(7, &metrics);
        tx.send(Value::Int(1), &mut ctx).unwrap();
        tx.send(Value::Int(2), &mut ctx).unwrap();
        for attempt in 3..6 {
            let back = tx.send(Value::Int(attempt), &mut ctx).unwrap_err();
            assert_eq!(back, SendError::Full(Value::Int(attempt)));
        }
        assert_eq!(waiters(&rx), vec![TaskId(7)]);
        assert_eq!(metrics.snapshot().channel_parks, 1);
        // A full push from outside a task has no identity to park.
        assert!(tx.push(Value::Int(9)).is_err());
        assert_eq!(waiters(&rx), vec![TaskId(7)]);
    }

    #[test]
    fn pop_above_half_capacity_wakes_nobody() {
        let metrics = RuntimeMetrics::new_shared();
        let (tx, rx) = TaskChannel::bounded(8, TaskId(5));
        let mut producer = ctx_for(7, &metrics);
        for i in 0..8 {
            tx.send(Value::Int(i), &mut producer).unwrap();
        }
        assert!(tx.send(Value::Int(8), &mut producer).is_err());
        let mut consumer = ctx_for(5, &metrics);
        for expected in 0..3 {
            assert_eq!(rx.recv(&mut consumer), Some(Value::Int(expected)));
        }
        assert_eq!(rx.len(), 5, "still above half of 8");
        assert!(consumer.take_wakes().is_empty());
        assert_eq!(waiters(&rx), vec![TaskId(7)]);
        assert_eq!(metrics.snapshot().channel_park_wakes, 0);
    }

    #[test]
    fn pop_reaching_half_capacity_wakes_each_waiter_once() {
        let metrics = RuntimeMetrics::new_shared();
        let (tx, rx) = TaskChannel::bounded(8, TaskId(5));
        let tx2 = tx.clone();
        let mut first = ctx_for(7, &metrics);
        let mut second = ctx_for(8, &metrics);
        for i in 0..8 {
            tx.send(Value::Int(i), &mut first).unwrap();
        }
        assert!(tx.send(Value::Int(8), &mut first).is_err());
        assert!(tx2.send(Value::Int(8), &mut second).is_err());
        let mut consumer = ctx_for(5, &metrics);
        for _ in 0..4 {
            rx.recv(&mut consumer).unwrap();
        }
        assert_eq!(rx.len(), 4);
        assert_eq!(consumer.take_wakes(), vec![TaskId(7), TaskId(8)]);
        // Later pops find nobody left to wake.
        rx.recv(&mut consumer).unwrap();
        assert!(consumer.take_wakes().is_empty());
        let snap = metrics.snapshot();
        assert_eq!((snap.channel_parks, snap.channel_park_wakes), (2, 2));
        snap.check_conservation().unwrap();
    }

    #[test]
    fn disconnect_wakes_waiters_and_fails_later_pushes() {
        let metrics = RuntimeMetrics::new_shared();
        let (tx, rx) = TaskChannel::bounded(1, TaskId(5));
        let mut producer = ctx_for(7, &metrics);
        tx.send(Value::Int(1), &mut producer).unwrap();
        assert!(matches!(
            tx.send(Value::Int(2), &mut producer),
            Err(SendError::Full(_))
        ));
        let mut consumer = ctx_for(5, &metrics);
        rx.disconnect(&mut consumer);
        assert_eq!(consumer.take_wakes(), vec![TaskId(7)]);
        assert_eq!(
            tx.send(Value::Int(2), &mut producer),
            Err(SendError::Disconnected(Value::Int(2)))
        );
        assert!(tx.push(Value::Int(3)).is_err());
    }

    #[test]
    fn dropped_consumer_disconnects_the_channel() {
        let metrics = RuntimeMetrics::new_shared();
        let (tx, rx) = TaskChannel::bounded(4, TaskId(5));
        drop(rx);
        let mut producer = ctx_for(7, &metrics);
        assert_eq!(
            tx.send(Value::Int(1), &mut producer),
            Err(SendError::Disconnected(Value::Int(1)))
        );
    }
}
