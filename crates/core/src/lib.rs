//! # ec-core — the serializable Δ-dataflow parallel engine
//!
//! A faithful Rust implementation of the parallel event-stream
//! correlation algorithm of **Zimmerman & Chandy, "A Parallel Algorithm
//! for Correlating Event Streams" (IPPS 2005)**.
//!
//! The computation is an acyclic graph of [`Module`]s exchanging typed
//! messages. Events arriving at the same instant form a *phase*; the
//! engine executes many phases concurrently ("pipelined as much as
//! possible", §3) while remaining **serializable**: the observable
//! behaviour is identical to executing one phase at a time from sources
//! to sinks. Efficiency comes from the Δ-dataflow rule that modules emit
//! only when their outputs *change* — the absence of a message is itself
//! information (§1).
//!
//! ## Components
//!
//! * [`Engine`] — the parallel executor: `k` computation threads
//!   (Listing 1) + 1 environment thread (Listing 2) over the shared
//!   partial/full/ready sets ([`engine`]).
//! * [`Sequential`] — the phase-at-a-time serial reference whose history
//!   defines correctness ([`sequential`]).
//! * [`BarrierParallel`] — the non-pipelined parallel baseline (§2's
//!   "one solution"), for the ablation benchmarks ([`barrier`]).
//! * [`densify`] — converts a module set into the paper's "obvious
//!   solution" (emit everything every phase) for the message-rate
//!   experiments ([`dense`]).
//! * [`ShardedQueue`], [`WorkerPool`] — the concurrency substrate: the
//!   paper's §3.2 blocking run queue as per-worker work-stealing shards
//!   with admission lanes, and the computation threads that drain it
//!   ([`shard`], [`pool`]).
//! * [`ExecutionHistory`] — per-vertex emission logs and the
//!   serializability comparison ([`history`]).
//! * [`Trace`] — Figure-3-style set-membership snapshots ([`trace`]).
//! * [`MetricsSnapshot`] — execution/message/pipelining counters
//!   ([`metrics`]).
//!
//! ## Quick example
//!
//! ```
//! use ec_core::{Engine, Module, PassThrough, SourceModule};
//! use ec_events::sources::Counter;
//! use ec_graph::generators;
//!
//! let dag = generators::chain(3);
//! let modules: Vec<Box<dyn Module>> = vec![
//!     Box::new(SourceModule::new(Counter::new())),
//!     Box::new(PassThrough),
//!     Box::new(PassThrough),
//! ];
//! let mut engine = Engine::builder(dag, modules).threads(4).build().unwrap();
//! let report = engine.run(10).unwrap();
//! assert_eq!(report.metrics.phases_completed, 10);
//! ```

#![warn(missing_docs)]

pub mod barrier;
pub mod checkpoint;
pub mod dense;
pub mod distributed;
pub mod engine;
pub mod error;
pub mod history;
pub mod live;
pub mod metrics;
pub mod module;
pub mod multi;
pub mod pool;
pub mod sequential;
pub mod shard;
mod state;
pub mod stepper;
pub mod trace;
pub mod trace_dot;
mod vertex;

pub use barrier::BarrierParallel;
pub use checkpoint::{EngineCheckpoint, VertexState};
pub use dense::densify;
pub use distributed::{DistributedSim, MachineStats};
pub use engine::{Engine, EngineBuilder, RunReport};
pub use error::EngineError;
pub use history::{Divergence, ExecutionHistory, RecordedEmission, SinkRecord};
pub use live::LiveEngine;
pub use metrics::{
    IngestCounters, LatencyStats, Metrics, MetricsSnapshot, PathLatency, PhaseGauge,
    SchedulerCounters,
};
pub use module::{
    AlwaysEmit, CollectSink, Emission, ExecCtx, FnModule, InputView, Module, PassThrough,
    SourceModule, SumModule, Workload,
};
pub use multi::EnginePool;
pub use pool::WorkerPool;
pub use sequential::Sequential;
pub use shard::{Dequeued, QueueStats, ShardedQueue};
pub use stepper::{StepOutcome, Stepper};
pub use trace::{SetMembership, SetSnapshot, Trace, TraceEvent, TraceStep};
