//! Concrete task kinds: input, compute, output, and synthetic tasks.
//!
//! These are the building blocks the FLICK compiler (and hand-written
//! services) assemble into task graphs:
//!
//! * [`InputTask`] — owns one network connection, performs incremental
//!   deserialisation using a [`WireCodec`] and a field [`Projection`], and
//!   pushes parsed messages into the graph;
//! * [`ComputeTask`] — runs a [`ComputeLogic`] over values arriving on any
//!   number of input channels, emitting to any number of output channels;
//! * [`OutputTask`] — serialises values and writes them to a connection;
//! * [`SourceTask`] and [`SyntheticWorkTask`] — synthetic producers used by
//!   tests and by the resource-sharing micro-benchmark of §6.4.

use crate::channel::{ChannelConsumer, ChannelProducer, SendError};
use crate::error::RuntimeError;
use crate::metrics::RuntimeMetrics;
use crate::task::{Task, TaskContext, TaskStatus};
use crate::value::Value;
use bytes::Bytes;
use flick_grammar::{ParseOutcome, Projection, WireCodec};
use flick_net::{Endpoint, NetError, SharedBuf};
use std::collections::VecDeque;
use std::sync::Arc;

/// How many bytes an input task reads per socket call.
pub const READ_CHUNK: usize = 16 * 1024;

/// Capacity an output task retains for its serialisation buffer across
/// responses; a one-off larger response shrinks back to this once flushed,
/// so a single 16 KB body does not pin its capacity forever.
pub const OUTBUF_RETAIN: usize = READ_CHUNK;

// ---------------------------------------------------------------------------
// Input task
// ---------------------------------------------------------------------------

/// A task that reads bytes from one connection and deserialises them into
/// application messages.
///
/// Ingest is zero-copy: the socket fills a refcounted [`SharedBuf`] in
/// place ([`Endpoint::read_into`]) and messages are parsed straight out of
/// it via [`WireCodec::parse_bytes`], so a complete message binds its raw
/// wire bytes (and byte fields) to the ingest allocation instead of being
/// copied into a private accumulator — and an incomplete message costs
/// nothing at all. [`flick_net::NetStats::ingest_copies`] stays at zero on
/// this path; the end-to-end suite asserts it.
pub struct InputTask {
    label: String,
    endpoint: Endpoint,
    codec: Arc<dyn WireCodec>,
    projection: Option<Projection>,
    buf: SharedBuf,
    pending: Option<Value>,
    output: ChannelProducer,
    eof: bool,
}

impl InputTask {
    /// Creates an input task reading from `endpoint` and pushing parsed
    /// messages into `output`.
    pub fn new(
        label: impl Into<String>,
        endpoint: Endpoint,
        codec: Arc<dyn WireCodec>,
        projection: Option<Projection>,
        output: ChannelProducer,
    ) -> Self {
        InputTask {
            label: label.into(),
            endpoint,
            codec,
            projection,
            buf: SharedBuf::new(READ_CHUNK),
            pending: None,
            output,
            eof: false,
        }
    }

    /// The connection this task reads from.
    pub fn endpoint(&self) -> &Endpoint {
        &self.endpoint
    }

    /// Hands a parsed message to the graph. `None` means carry on;
    /// otherwise the status this run ends with: `Idle` when the channel is
    /// full (the task is parked on it and the message waits in `pending`),
    /// `Finished` when the consumer has exited.
    fn push_out(&mut self, value: Value, ctx: &mut TaskContext) -> Option<TaskStatus> {
        match self.output.send(value, ctx) {
            Ok(()) => {
                RuntimeMetrics::add(&ctx.metrics().messages_in, 1);
                None
            }
            Err(SendError::Full(back)) => {
                self.pending = Some(back);
                Some(TaskStatus::Idle)
            }
            Err(SendError::Disconnected(_)) => Some(TaskStatus::Finished),
        }
    }

    /// Parses as many complete messages as possible from the shared
    /// buffer. Each message is parsed zero-copy out of a [`SharedBuf::view`]
    /// — consuming it is an index bump, not a drain-and-shift. Returns
    /// `None` once no complete message is left, or the status this run
    /// ends with.
    fn drain_buffer(&mut self, ctx: &mut TaskContext) -> Result<Option<TaskStatus>, RuntimeError> {
        loop {
            if self.buf.is_empty() {
                return Ok(None);
            }
            let view = self.buf.view();
            match self.codec.parse_bytes(&view, self.projection.as_ref())? {
                ParseOutcome::Complete { message, consumed } => {
                    self.buf.consume(consumed);
                    if let Some(status) = self.push_out(Value::Msg(message), ctx) {
                        return Ok(Some(status));
                    }
                    if !ctx.can_continue() {
                        return Ok(Some(TaskStatus::Runnable));
                    }
                }
                ParseOutcome::Incomplete { .. } => return Ok(None),
            }
        }
    }

    /// A malformed stream terminates the connection, as the paper's default
    /// behaviour for unparseable input. The blast radius is this one
    /// connection: siblings on the same service keep running, and the close
    /// is tallied separately so the sim battery can bound it.
    fn malformed(&mut self) -> TaskStatus {
        self.endpoint.close_malformed();
        self.output.close();
        TaskStatus::Finished
    }
}

impl Drop for InputTask {
    fn drop(&mut self) {
        // Dropping a task (graph teardown) must release the connection so
        // that the peer observes EOF instead of a hung socket.
        self.endpoint.close();
        self.output.close();
    }
}

impl Task for InputTask {
    fn label(&self) -> &str {
        &self.label
    }

    fn run(&mut self, ctx: &mut TaskContext) -> TaskStatus {
        // First deliver the message that found the channel full last time.
        if let Some(value) = self.pending.take() {
            if let Some(status) = self.push_out(value, ctx) {
                return status;
            }
        }
        // Parse whatever is already buffered.
        match self.drain_buffer(ctx) {
            Ok(None) => {}
            Ok(Some(status)) => return status,
            Err(_) => return self.malformed(),
        }
        // Then read more bytes from the connection, straight into the
        // shared buffer — no intermediate stack chunk, no append copy.
        loop {
            match self.endpoint.read_into(&mut self.buf) {
                Ok(_) => {
                    match self.drain_buffer(ctx) {
                        Ok(None) => {}
                        Ok(Some(status)) => return status,
                        Err(_) => return self.malformed(),
                    }
                    if !ctx.can_continue() {
                        return TaskStatus::Runnable;
                    }
                }
                Err(NetError::WouldBlock) => return TaskStatus::Idle,
                Err(_) => {
                    // Peer closed (or the connection failed): drain what we
                    // have and finish. The consumer is woken so that it
                    // observes the end of the stream promptly.
                    self.eof = true;
                    let _ = self.drain_buffer(ctx);
                    self.output.close();
                    ctx.wake(self.output.consumer());
                    return TaskStatus::Finished;
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Compute task
// ---------------------------------------------------------------------------

/// Emission interface handed to [`ComputeLogic::on_value`].
pub struct Outputs<'a> {
    producers: &'a [ChannelProducer],
    overflow: &'a mut VecDeque<(usize, Value)>,
    ctx: &'a mut TaskContext,
}

impl<'a> Outputs<'a> {
    /// Number of output channels available.
    pub fn len(&self) -> usize {
        self.producers.len()
    }

    /// Returns `true` if the task has no output channels.
    pub fn is_empty(&self) -> bool {
        self.producers.is_empty()
    }

    /// Emits `value` on output channel `output`.
    ///
    /// If the channel is full the value is buffered (the task parks on the
    /// channel) and delivered on a later dispatch, so logic never loses
    /// data; while anything is buffered, later values queue behind it so
    /// each channel keeps emission order. A value for a consumer that has
    /// exited is dropped: nobody will ever read it.
    pub fn emit(&mut self, output: usize, value: Value) {
        debug_assert!(output < self.producers.len(), "output index out of range");
        if !self.overflow.is_empty() {
            self.overflow.push_back((output, value));
            return;
        }
        match self.producers[output].send(value, self.ctx) {
            Ok(()) | Err(SendError::Disconnected(_)) => {}
            Err(SendError::Full(back)) => self.overflow.push_back((output, back)),
        }
    }
}

/// User-supplied (or compiler-generated) processing logic for a compute task.
pub trait ComputeLogic: Send {
    /// Called for every value arriving on input channel `input`.
    fn on_value(
        &mut self,
        input: usize,
        value: Value,
        out: &mut Outputs<'_>,
    ) -> Result<(), RuntimeError>;

    /// Called once when input channel `input` will deliver no further values.
    fn on_input_finished(
        &mut self,
        _input: usize,
        _out: &mut Outputs<'_>,
    ) -> Result<(), RuntimeError> {
        Ok(())
    }
}

/// A task running [`ComputeLogic`] over its input channels.
pub struct ComputeTask {
    label: String,
    inputs: Vec<ChannelConsumer>,
    outputs: Vec<ChannelProducer>,
    logic: Box<dyn ComputeLogic>,
    overflow: VecDeque<(usize, Value)>,
    input_finished: Vec<bool>,
}

impl ComputeTask {
    /// Creates a compute task.
    pub fn new(
        label: impl Into<String>,
        inputs: Vec<ChannelConsumer>,
        outputs: Vec<ChannelProducer>,
        logic: Box<dyn ComputeLogic>,
    ) -> Self {
        let n = inputs.len();
        ComputeTask {
            label: label.into(),
            inputs,
            outputs,
            logic,
            overflow: VecDeque::new(),
            input_finished: vec![false; n],
        }
    }

    /// Delivers the values that found their channel full. Returns `false`
    /// while one still does: the task is then parked on that channel.
    /// Values bound for an exited consumer are dropped.
    fn flush_overflow(&mut self, ctx: &mut TaskContext) -> bool {
        while let Some((output, value)) = self.overflow.pop_front() {
            match self.outputs[output].send(value, ctx) {
                Ok(()) | Err(SendError::Disconnected(_)) => {}
                Err(SendError::Full(back)) => {
                    self.overflow.push_front((output, back));
                    return false;
                }
            }
        }
        true
    }

    /// Logic errors terminate the graph instance: downstream sees
    /// end-of-stream, upstream producers parked on this task's inputs are
    /// woken to find it gone.
    fn fail(&mut self, ctx: &mut TaskContext) -> TaskStatus {
        for out in &self.outputs {
            out.close();
        }
        for input in &self.inputs {
            input.disconnect(ctx);
        }
        TaskStatus::Finished
    }
}

impl Task for ComputeTask {
    fn label(&self) -> &str {
        &self.label
    }

    fn run(&mut self, ctx: &mut TaskContext) -> TaskStatus {
        if !self.flush_overflow(ctx) {
            return TaskStatus::Idle;
        }
        let mut made_progress = true;
        while made_progress {
            made_progress = false;
            for input in 0..self.inputs.len() {
                match self.inputs[input].recv(ctx) {
                    Some(value) => {
                        made_progress = true;
                        RuntimeMetrics::add(&ctx.metrics().values_processed, 1);
                        let mut outputs = Outputs {
                            producers: &self.outputs,
                            overflow: &mut self.overflow,
                            ctx,
                        };
                        if self.logic.on_value(input, value, &mut outputs).is_err() {
                            return self.fail(ctx);
                        }
                        if !ctx.can_continue() {
                            return TaskStatus::Runnable;
                        }
                    }
                    None => {
                        if self.inputs[input].is_finished() && !self.input_finished[input] {
                            self.input_finished[input] = true;
                            let mut outputs = Outputs {
                                producers: &self.outputs,
                                overflow: &mut self.overflow,
                                ctx,
                            };
                            if self.logic.on_input_finished(input, &mut outputs).is_err() {
                                return self.fail(ctx);
                            }
                            made_progress = true;
                        }
                    }
                }
            }
        }
        // A value still waiting on a full channel leaves the task parked
        // on that channel; its consumer wakes it.
        if self.flush_overflow(ctx) && self.input_finished.iter().all(|f| *f) {
            for out in &self.outputs {
                out.close();
                ctx.wake(out.consumer());
            }
            return TaskStatus::Finished;
        }
        TaskStatus::Idle
    }
}

// ---------------------------------------------------------------------------
// Output task
// ---------------------------------------------------------------------------

/// How an [`OutputTask`] behaves when its connection cannot take more
/// bytes. One behaviour is left: the task parks on writable readiness and
/// the dispatcher's writable-interest watch re-schedules it when the peer
/// drains (or closes).
///
/// The enum has no effect. It stays only because external code (the
/// repository benchmark in `perfbench/`) still names it when it builds a
/// [`crate::ServiceEnv`] by hand.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OutputMode {
    /// Park on writable readiness. The only mode.
    #[default]
    Wakeup,
}

/// How compiled service logic executes inside compute tasks.
///
/// The runtime only carries the switch; the compiler crate interprets it
/// when it builds the compute logic for a graph. Both modes run the same
/// lowered program — the tree-walking interpreter stays available as the
/// ablation baseline for the bytecode VM.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecMode {
    /// Walk the IR tree per message — the original execution path, kept
    /// as the ablation baseline (`flick_bench`'s vm-dispatch ablation).
    Interp,
    /// Run the program lowered to direct-threaded bytecode. The default.
    #[default]
    Vm,
}

impl ExecMode {
    /// Short label used in benchmark output ("interp", "vm").
    pub fn label(self) -> &'static str {
        match self {
            ExecMode::Interp => "interp",
            ExecMode::Vm => "vm",
        }
    }

    /// Both modes, interp first (the ablation's baseline ordering).
    pub fn all() -> [ExecMode; 2] {
        [ExecMode::Interp, ExecMode::Vm]
    }
}

/// A task that serialises values and writes them to one connection.
///
/// A blocked write never spins: the task parks until the dispatcher
/// delivers writable readiness for its endpoint. The only immediate
/// retries left are rate-limiter stalls — time-based, so no peer
/// transition will ever announce them — and those are counted in
/// [`RuntimeMetrics::output_busy_retries`].
pub struct OutputTask {
    label: String,
    endpoint: Endpoint,
    codec: Arc<dyn WireCodec>,
    input: ChannelConsumer,
    outbuf: Vec<u8>,
    /// A refcounted trailing segment (message body or raw pass-through
    /// bytes) plus the offset already written. Split off by
    /// [`WireCodec::serialize_parts`] so `outbuf` (headers) and the body
    /// leave through one vectored write instead of being concatenated —
    /// the shared allocation goes to the kernel where it sits.
    body: Option<(Bytes, usize)>,
    close_on_finish: bool,
}

impl OutputTask {
    /// Creates an output task writing to `endpoint`.
    pub fn new(
        label: impl Into<String>,
        endpoint: Endpoint,
        codec: Arc<dyn WireCodec>,
        input: ChannelConsumer,
    ) -> Self {
        OutputTask {
            label: label.into(),
            endpoint,
            codec,
            input,
            outbuf: Vec::with_capacity(READ_CHUNK),
            body: None,
            close_on_finish: true,
        }
    }

    /// Controls whether the connection is closed when the input channel
    /// finishes (default `true`).
    pub fn set_close_on_finish(&mut self, close: bool) {
        self.close_on_finish = close;
    }

    /// The connection this task writes to.
    pub fn endpoint(&self) -> &Endpoint {
        &self.endpoint
    }

    fn flush(&mut self) -> Result<bool, RuntimeError> {
        while !self.outbuf.is_empty() || self.body.is_some() {
            // Headers and body segment leave together through the vectored
            // path when both are pending — one `writev` on the OS
            // transport, no staging concatenation.
            let wrote = match &self.body {
                Some((bytes, off)) if !self.outbuf.is_empty() => self
                    .endpoint
                    .write_vectored(&[&self.outbuf, &bytes[*off..]]),
                Some((bytes, off)) => self.endpoint.write(&bytes[*off..]),
                None => self.endpoint.write(&self.outbuf),
            };
            match wrote {
                Ok(mut n) => {
                    let head = n.min(self.outbuf.len());
                    self.outbuf.drain(..head);
                    n -= head;
                    if let Some((bytes, off)) = &mut self.body {
                        *off += n;
                        if *off >= bytes.len() {
                            self.body = None;
                        }
                    }
                }
                Err(NetError::WouldBlock) => return Ok(false),
                Err(e) => return Err(e.into()),
            }
        }
        // Fully drained: a one-off large response must not pin its
        // capacity forever.
        if self.outbuf.capacity() > OUTBUF_RETAIN {
            self.outbuf.shrink_to(OUTBUF_RETAIN);
        }
        Ok(true)
    }

    /// Closes the connection and leaves for good, waking any producer
    /// parked on the input so it finds this consumer gone.
    fn fail(&mut self, ctx: &mut TaskContext) -> TaskStatus {
        self.endpoint.close();
        self.input.disconnect(ctx);
        TaskStatus::Finished
    }

    /// Status for a blocked (`WouldBlock`) flush: park on writable
    /// readiness unless the block is a rate limiter (buffer space exists,
    /// so no peer transition will ever wake us — the clock has to).
    fn blocked(&self, ctx: &mut TaskContext) -> TaskStatus {
        if self.endpoint.writable() {
            RuntimeMetrics::add(&ctx.metrics().output_busy_retries, 1);
            TaskStatus::Runnable
        } else {
            TaskStatus::Idle
        }
    }
}

impl Drop for OutputTask {
    fn drop(&mut self) {
        if self.close_on_finish {
            self.endpoint.close();
        }
    }
}

impl Task for OutputTask {
    fn label(&self) -> &str {
        &self.label
    }

    fn run(&mut self, ctx: &mut TaskContext) -> TaskStatus {
        loop {
            match self.flush() {
                Ok(true) => {}
                Ok(false) => return self.blocked(ctx),
                Err(_) => {
                    // The peer is gone; drop remaining output.
                    return self.fail(ctx);
                }
            }
            match self.input.recv(ctx) {
                Some(value) => {
                    // `flush` ran to completion above, so the outbuf is
                    // empty and no body segment is pending — the split
                    // below can never reorder bytes behind earlier output.
                    let result = match &value {
                        Value::Msg(msg) => {
                            match self.codec.serialize_parts(msg, &mut self.outbuf) {
                                Ok(Some(tail)) if !tail.is_empty() => {
                                    self.body = Some((tail, 0));
                                    Ok(())
                                }
                                Ok(_) => Ok(()),
                                Err(e) => Err(RuntimeError::from(e)),
                            }
                        }
                        Value::Bytes(bytes) => {
                            self.outbuf.extend_from_slice(bytes);
                            Ok(())
                        }
                        Value::Str(s) => {
                            self.outbuf.extend_from_slice(s.as_bytes());
                            Ok(())
                        }
                        other => Err(RuntimeError::Logic(format!(
                            "output task cannot serialise value {other}"
                        ))),
                    };
                    if result.is_err() {
                        return self.fail(ctx);
                    }
                    RuntimeMetrics::add(&ctx.metrics().messages_out, 1);
                    if !ctx.can_continue() {
                        return TaskStatus::Runnable;
                    }
                }
                None => {
                    if self.input.is_finished() && self.outbuf.is_empty() && self.body.is_none() {
                        if self.close_on_finish {
                            self.endpoint.close();
                        }
                        return TaskStatus::Finished;
                    }
                    return TaskStatus::Idle;
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Synthetic tasks
// ---------------------------------------------------------------------------

/// A task that emits a fixed number of synthetic values then finishes.
pub struct SourceTask {
    label: String,
    remaining: usize,
    item_size: usize,
    output: ChannelProducer,
}

impl SourceTask {
    /// Creates a source emitting `count` byte values of `item_size` bytes.
    pub fn new(
        label: impl Into<String>,
        count: usize,
        item_size: usize,
        output: ChannelProducer,
    ) -> Self {
        SourceTask {
            label: label.into(),
            remaining: count,
            item_size,
            output,
        }
    }
}

impl Task for SourceTask {
    fn label(&self) -> &str {
        &self.label
    }

    fn run(&mut self, ctx: &mut TaskContext) -> TaskStatus {
        while self.remaining > 0 {
            let value = Value::Bytes(Bytes::from(vec![1u8; self.item_size]));
            match self.output.send(value, ctx) {
                Ok(()) => self.remaining -= 1,
                // Parked on the full channel; the consumer wakes us.
                Err(SendError::Full(_)) => return TaskStatus::Idle,
                Err(SendError::Disconnected(_)) => return self.finish(),
            }
            if !ctx.can_continue() {
                return if self.remaining == 0 {
                    self.finish()
                } else {
                    TaskStatus::Runnable
                };
            }
        }
        self.finish()
    }
}

impl SourceTask {
    fn finish(&mut self) -> TaskStatus {
        self.output.close();
        TaskStatus::Finished
    }
}

/// A self-contained task owning a finite list of data items, used by the
/// §6.4 resource-sharing micro-benchmark.
///
/// Each item is `item_size` bytes and processing an item computes a simple
/// addition over every byte, exactly as described in the paper. When the last
/// item has been processed the `on_complete` callback fires (the benchmark
/// uses it to record the task's completion time).
pub struct SyntheticWorkTask {
    label: String,
    remaining: usize,
    item_size: usize,
    accumulator: u64,
    on_complete: Option<Box<dyn FnOnce() + Send>>,
}

impl SyntheticWorkTask {
    /// Creates a synthetic task with `items` items of `item_size` bytes.
    pub fn new(
        label: impl Into<String>,
        items: usize,
        item_size: usize,
        on_complete: Option<Box<dyn FnOnce() + Send>>,
    ) -> Self {
        SyntheticWorkTask {
            label: label.into(),
            remaining: items,
            item_size,
            accumulator: 0,
            on_complete,
        }
    }

    /// The running checksum (prevents the work from being optimised away).
    pub fn accumulator(&self) -> u64 {
        self.accumulator
    }

    fn process_one_item(&mut self) {
        // A simple addition for each input byte (§6.4).
        let mut sum = self.accumulator;
        for i in 0..self.item_size {
            sum = sum.wrapping_add((i as u64) ^ 0x5a);
        }
        self.accumulator = sum;
        self.remaining -= 1;
    }
}

impl Task for SyntheticWorkTask {
    fn label(&self) -> &str {
        &self.label
    }

    fn run(&mut self, ctx: &mut TaskContext) -> TaskStatus {
        while self.remaining > 0 {
            self.process_one_item();
            RuntimeMetrics::add(&ctx.metrics().values_processed, 1);
            if self.remaining == 0 {
                break;
            }
            if !ctx.can_continue() {
                return TaskStatus::Runnable;
            }
        }
        if let Some(cb) = self.on_complete.take() {
            cb();
        }
        TaskStatus::Finished
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::TaskChannel;
    use crate::task::{SchedulingPolicy, TaskId};
    use flick_grammar::http::{self, HttpCodec};
    use flick_net::{SimNetwork, StackModel};
    use std::sync::atomic::{AtomicBool, Ordering};

    fn ctx() -> TaskContext {
        TaskContext::new(
            SchedulingPolicy::NonCooperative,
            RuntimeMetrics::new_shared(),
        )
    }

    /// Logic that forwards every value to output 0, uppercasing strings.
    struct Passthrough;
    impl ComputeLogic for Passthrough {
        fn on_value(
            &mut self,
            _input: usize,
            value: Value,
            out: &mut Outputs<'_>,
        ) -> Result<(), RuntimeError> {
            out.emit(0, value);
            Ok(())
        }
    }

    #[test]
    fn input_task_parses_http_requests_from_connection() {
        let net = SimNetwork::new(StackModel::Free);
        let listener = net.listen(80).unwrap();
        let client = net.connect(80).unwrap();
        let server = listener.accept().unwrap();
        client
            .write(b"GET /a HTTP/1.1\r\nHost: h\r\n\r\nGET /b HTTP/1.1\r\nHost: h\r\n\r\n")
            .unwrap();

        let (tx, rx) = TaskChannel::bounded(16, TaskId(1));
        let mut task = InputTask::new("in", server, Arc::new(HttpCodec::new()), None, tx);
        let mut c = ctx();
        assert_eq!(task.run(&mut c), TaskStatus::Idle);
        assert_eq!(rx.len(), 2);
        let first = rx.pop().unwrap().into_msg().unwrap();
        assert_eq!(first.str_field("path"), Some("/a"));
        // The compute task consuming channel 1 must have been woken.
        assert!(c.take_wakes().contains(&TaskId(1)));
    }

    #[test]
    fn input_task_finishes_on_peer_close() {
        let net = SimNetwork::new(StackModel::Free);
        let listener = net.listen(81).unwrap();
        let client = net.connect(81).unwrap();
        let server = listener.accept().unwrap();
        client.write(b"GET / HTTP/1.1\r\n\r\n").unwrap();
        client.close();

        let (tx, rx) = TaskChannel::bounded(16, TaskId(1));
        let mut task = InputTask::new("in", server, Arc::new(HttpCodec::new()), None, tx);
        assert_eq!(task.run(&mut ctx()), TaskStatus::Finished);
        assert_eq!(rx.len(), 1);
        assert!(rx.producers_closed());
    }

    #[test]
    fn input_task_handles_partial_then_complete_messages() {
        let net = SimNetwork::new(StackModel::Free);
        let listener = net.listen(82).unwrap();
        let client = net.connect(82).unwrap();
        let server = listener.accept().unwrap();

        let (tx, rx) = TaskChannel::bounded(16, TaskId(1));
        let mut task = InputTask::new("in", server, Arc::new(HttpCodec::new()), None, tx);
        client.write(b"GET /part HTTP/1.1\r\nHo").unwrap();
        assert_eq!(task.run(&mut ctx()), TaskStatus::Idle);
        assert_eq!(rx.len(), 0);
        client.write(b"st: h\r\n\r\n").unwrap();
        assert_eq!(task.run(&mut ctx()), TaskStatus::Idle);
        assert_eq!(rx.len(), 1);
    }

    #[test]
    fn compute_task_passthrough_and_finish() {
        let (in_tx, in_rx) = TaskChannel::bounded(16, TaskId(2));
        let (out_tx, out_rx) = TaskChannel::bounded(16, TaskId(3));
        let mut task =
            ComputeTask::new("compute", vec![in_rx], vec![out_tx], Box::new(Passthrough));
        in_tx.push(Value::Int(1)).unwrap();
        in_tx.push(Value::Int(2)).unwrap();
        assert_eq!(task.run(&mut ctx()), TaskStatus::Idle);
        assert_eq!(out_rx.len(), 2);
        in_tx.close();
        assert_eq!(task.run(&mut ctx()), TaskStatus::Finished);
        assert!(out_rx.producers_closed());
    }

    #[test]
    fn compute_task_overflow_is_retried() {
        let (in_tx, in_rx) = TaskChannel::bounded(16, TaskId(2));
        // Output capacity 1 forces overflow.
        let (out_tx, out_rx) = TaskChannel::bounded(1, TaskId(3));
        let mut task =
            ComputeTask::new("compute", vec![in_rx], vec![out_tx], Box::new(Passthrough));
        in_tx.push(Value::Int(1)).unwrap();
        in_tx.push(Value::Int(2)).unwrap();
        in_tx.push(Value::Int(3)).unwrap();
        let mut c = ctx();
        c.set_current(TaskId(2));
        let status = task.run(&mut c);
        assert_eq!(
            status,
            TaskStatus::Idle,
            "overflowed values park the task instead of re-queueing it"
        );
        assert_eq!(RuntimeMetrics::get(&c.metrics().channel_parks), 1);
        // Draining the output to half capacity wakes the parked task...
        let mut consumer = ctx();
        assert_eq!(out_rx.recv(&mut consumer), Some(Value::Int(1)));
        assert_eq!(consumer.take_wakes(), vec![TaskId(2)]);
        // ...and its next dispatch delivers the overflow in order.
        assert_eq!(task.run(&mut ctx()), TaskStatus::Idle);
        assert_eq!(out_rx.pop(), Some(Value::Int(2)));
        task.run(&mut ctx());
        assert_eq!(out_rx.pop(), Some(Value::Int(3)));
        in_tx.close();
        assert_eq!(task.run(&mut ctx()), TaskStatus::Finished);
    }

    /// Forwards each value, then takes one value off the output channel,
    /// as a consumer running on another worker could between two emits.
    struct ForwardThenDrain {
        downstream: Arc<ChannelConsumer>,
        seen: Arc<parking_lot::Mutex<Vec<Value>>>,
    }
    impl ComputeLogic for ForwardThenDrain {
        fn on_value(
            &mut self,
            _input: usize,
            value: Value,
            out: &mut Outputs<'_>,
        ) -> Result<(), RuntimeError> {
            out.emit(0, value);
            self.seen.lock().extend(self.downstream.pop());
            Ok(())
        }
    }

    #[test]
    fn emits_queue_behind_overflow_to_keep_channel_order() {
        let (in_tx, in_rx) = TaskChannel::bounded(16, TaskId(2));
        let (out_tx, out_rx) = TaskChannel::bounded(1, TaskId(3));
        let out_rx = Arc::new(out_rx);
        let seen = Arc::new(parking_lot::Mutex::new(Vec::new()));
        // Fill the output so the first emit overflows.
        out_tx.push(Value::Int(0)).unwrap();
        let logic = ForwardThenDrain {
            downstream: Arc::clone(&out_rx),
            seen: Arc::clone(&seen),
        };
        let mut task = ComputeTask::new("compute", vec![in_rx], vec![out_tx], Box::new(logic));
        for i in 1..=3 {
            in_tx.push(Value::Int(i)).unwrap();
        }
        in_tx.close();
        for _ in 0..10 {
            let status = task.run(&mut ctx());
            seen.lock().extend(out_rx.pop());
            if status == TaskStatus::Finished {
                break;
            }
        }
        // The drain freed the slot before the second emit, yet 2 must not
        // overtake 1, which was still waiting in the overflow.
        let expected: Vec<Value> = (0..=3).map(Value::Int).collect();
        assert_eq!(*seen.lock(), expected);
    }

    /// Logic that fails on every value.
    struct Failing;
    impl ComputeLogic for Failing {
        fn on_value(
            &mut self,
            _input: usize,
            _value: Value,
            _out: &mut Outputs<'_>,
        ) -> Result<(), RuntimeError> {
            Err(RuntimeError::Logic("boom".into()))
        }
    }

    #[test]
    fn failing_compute_task_wakes_its_parked_producers() {
        let (in_tx, in_rx) = TaskChannel::bounded(1, TaskId(2));
        let (out_tx, out_rx) = TaskChannel::bounded(4, TaskId(3));
        let mut task = ComputeTask::new("compute", vec![in_rx], vec![out_tx], Box::new(Failing));
        let mut producer = ctx();
        producer.set_current(TaskId(1));
        in_tx.send(Value::Int(1), &mut producer).unwrap();
        assert!(matches!(
            in_tx.send(Value::Int(2), &mut producer),
            Err(SendError::Full(_))
        ));
        let mut c = ctx();
        assert_eq!(task.run(&mut c), TaskStatus::Finished);
        assert_eq!(c.take_wakes(), vec![TaskId(1)], "the parked producer");
        assert!(out_rx.producers_closed());
        assert!(matches!(
            in_tx.send(Value::Int(2), &mut producer),
            Err(SendError::Disconnected(_))
        ));
    }

    #[test]
    fn output_task_serialises_and_writes() {
        let net = SimNetwork::new(StackModel::Free);
        let listener = net.listen(83).unwrap();
        let client = net.connect(83).unwrap();
        let server = listener.accept().unwrap();

        let (tx, rx) = TaskChannel::bounded(16, TaskId(4));
        let mut task = OutputTask::new("out", server, Arc::new(HttpCodec::new()), rx);
        tx.push(Value::Msg(http::response(200, b"hello"))).unwrap();
        assert_eq!(task.run(&mut ctx()), TaskStatus::Idle);
        let mut buf = [0u8; 256];
        let n = client.read(&mut buf).unwrap();
        let text = String::from_utf8_lossy(&buf[..n]);
        assert!(text.starts_with("HTTP/1.1 200 OK"));
        assert!(text.ends_with("hello"));
        // Closing the channel finishes the task and closes the connection.
        tx.close();
        assert_eq!(task.run(&mut ctx()), TaskStatus::Finished);
        assert!(client.peer_closed());
    }

    #[test]
    fn output_task_writes_raw_bytes_and_strings() {
        let net = SimNetwork::new(StackModel::Free);
        let listener = net.listen(84).unwrap();
        let client = net.connect(84).unwrap();
        let server = listener.accept().unwrap();
        let (tx, rx) = TaskChannel::bounded(16, TaskId(4));
        let mut task = OutputTask::new("out", server, Arc::new(HttpCodec::new()), rx);
        tx.push(Value::Bytes(Bytes::from_static(b"raw-"))).unwrap();
        tx.push(Value::Str("text".into())).unwrap();
        task.run(&mut ctx());
        let mut buf = [0u8; 64];
        let n = client.read(&mut buf).unwrap();
        assert_eq!(&buf[..n], b"raw-text");
    }

    #[test]
    fn source_task_emits_and_closes() {
        let (tx, rx) = TaskChannel::bounded(64, TaskId(5));
        let mut task = SourceTask::new("src", 10, 32, tx);
        assert_eq!(task.run(&mut ctx()), TaskStatus::Finished);
        assert_eq!(rx.len(), 10);
        assert!(rx.producers_closed());
        assert_eq!(rx.pop().unwrap().approx_size(), 32);
    }

    #[test]
    fn source_task_respects_full_channel() {
        let (tx, rx) = TaskChannel::bounded(4, TaskId(5));
        let mut task = SourceTask::new("src", 10, 8, tx);
        // A full channel parks the source (Idle) instead of re-queueing it.
        assert_eq!(task.run(&mut ctx()), TaskStatus::Idle);
        assert_eq!(rx.len(), 4);
        while rx.pop().is_some() {}
        assert_eq!(task.run(&mut ctx()), TaskStatus::Idle);
        while rx.pop().is_some() {}
        assert_eq!(task.run(&mut ctx()), TaskStatus::Finished);
    }

    #[test]
    fn source_task_finishes_when_its_consumer_is_gone() {
        let (tx, rx) = TaskChannel::bounded(4, TaskId(5));
        let mut task = SourceTask::new("src", 10, 8, tx);
        drop(rx);
        assert_eq!(task.run(&mut ctx()), TaskStatus::Finished);
    }

    #[test]
    fn input_task_parks_on_a_full_channel_and_resumes_in_order() {
        let net = SimNetwork::new(StackModel::Free);
        let listener = net.listen(85).unwrap();
        let client = net.connect(85).unwrap();
        let server = listener.accept().unwrap();
        client
            .write(b"GET /1 HTTP/1.1\r\n\r\nGET /2 HTTP/1.1\r\n\r\nGET /3 HTTP/1.1\r\n\r\n")
            .unwrap();
        let (tx, rx) = TaskChannel::bounded(1, TaskId(1));
        let mut task = InputTask::new("in", server, Arc::new(HttpCodec::new()), None, tx);
        for path in ["/1", "/2", "/3"] {
            let mut c = ctx();
            c.set_current(TaskId(9));
            let status = task.run(&mut c);
            let msg = rx.recv(&mut c).unwrap().into_msg().unwrap();
            assert_eq!(msg.str_field("path"), Some(path));
            if path != "/3" {
                assert_eq!(status, TaskStatus::Idle, "parked behind {path}");
                assert!(c.take_wakes().contains(&TaskId(9)), "the pop wakes it");
            }
        }
    }

    #[test]
    fn synthetic_work_task_completes_and_calls_back() {
        let done = Arc::new(AtomicBool::new(false));
        let done2 = Arc::clone(&done);
        let mut task = SyntheticWorkTask::new(
            "work",
            100,
            1024,
            Some(Box::new(move || done2.store(true, Ordering::SeqCst))),
        );
        assert_eq!(task.run(&mut ctx()), TaskStatus::Finished);
        assert!(done.load(Ordering::SeqCst));
        assert!(task.accumulator() > 0);
    }

    #[test]
    fn synthetic_work_task_round_robin_yields_per_item() {
        let mut task = SyntheticWorkTask::new("work", 3, 16, None);
        let metrics = RuntimeMetrics::new_shared();
        let mut c1 = TaskContext::new(SchedulingPolicy::RoundRobin, Arc::clone(&metrics));
        assert_eq!(task.run(&mut c1), TaskStatus::Runnable);
        let mut c2 = TaskContext::new(SchedulingPolicy::RoundRobin, Arc::clone(&metrics));
        assert_eq!(task.run(&mut c2), TaskStatus::Runnable);
        let mut c3 = TaskContext::new(SchedulingPolicy::RoundRobin, metrics);
        assert_eq!(task.run(&mut c3), TaskStatus::Finished);
    }
}
