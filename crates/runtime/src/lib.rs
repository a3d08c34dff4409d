//! The FLICK platform runtime.
//!
//! This crate reproduces §5 of the paper: the execution environment that
//! runs compiled FLICK programs as *task graphs* — directed acyclic graphs of
//! small, cooperatively scheduled tasks connected by bounded channels.
//!
//! The main pieces are:
//!
//! * [`value::Value`] — the dynamically typed values that flow between tasks
//!   (parsed application messages, integers, strings, lists);
//! * [`channel`] — bounded single-consumer task channels;
//! * [`task`] — the [`task::Task`] trait, the cooperative
//!   [`task::TaskContext`] and the three scheduling policies of §6.4;
//! * [`tasks`] — the concrete task kinds: input (deserialise), compute,
//!   output (serialise), and a synthetic source used by micro-benchmarks;
//! * [`graph`] — task-graph assembly and instances;
//! * [`scheduler`] — the worker-thread pool with per-worker FIFO queues,
//!   work scavenging, the timeslice discipline, and the cross-shard
//!   [`scheduler::steal`] path;
//! * [`shard`] — per-core shards (scheduler pool + dispatcher + poller)
//!   and the pluggable [`shard::PlacementPolicy`] that distributes task
//!   graphs over them;
//! * [`dispatcher`] — the per-shard application dispatcher (connection →
//!   program instance) and graph dispatcher (connection → task graph);
//! * [`platform`] — the top-level [`platform::Platform`] that ties the
//!   shards, the network substrate and deployed services together;
//! * [`pool`] — pre-allocated backend-connection and buffer pools.
//!
//! Services are described by implementing [`platform::GraphFactory`] (done
//! automatically for FLICK programs by the compiler crate, or by hand as the
//! services crate does for its baselines).

pub mod channel;
pub mod dispatcher;
pub mod error;
pub mod graph;
pub mod metrics;
pub mod platform;
pub mod pool;
pub mod scheduler;
pub mod shard;
pub mod task;
pub mod tasks;
pub mod value;

pub use channel::{ChannelConsumer, ChannelProducer, SendError, TaskChannel};
pub use dispatcher::DeployedService;
pub use error::RuntimeError;
pub use graph::{GraphBuilder, GraphInstance, NodeId};
pub use metrics::{MetricsSnapshot, RuntimeMetrics};
pub use platform::{
    default_shard_count, GraphFactory, Platform, PlatformConfig, ServiceEnv, ServiceSpec, Watch,
};
pub use pool::{BackendPolicy, BackendPool, BackendTarget, BufferPool, RoutePolicy};
pub use scheduler::{Scheduler, ShardLoad, StealGroup};
pub use shard::{
    LeastLoadedPlacement, Placement, PlacementPolicy, RoundRobinPlacement, Shard, ShardStatus,
};
pub use task::{SchedulingPolicy, Task, TaskContext, TaskId, TaskStatus};
pub use tasks::{
    ComputeLogic, ComputeTask, ExecMode, InputTask, OutputMode, OutputTask, Outputs, SourceTask,
};
pub use value::{SharedDict, Value};
