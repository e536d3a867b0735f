//! `ai2_serve` — a batched, sharded recommendation service over the
//! [`EvalEngine`](ai2_dse::EvalEngine) and the trained AIrchitect v2
//! predictor.
//!
//! The paper's pitch is that a trained predictor answers design-space
//! queries orders of magnitude faster than search; this crate puts a
//! service in front of that claim. Clients ask *"what hardware should
//! run this GEMM (or this whole model) under this objective and area
//! budget?"* over a newline-delimited-JSON protocol, and get back a
//! design point with its engine-verified cost.
//!
//! * [`protocol`] — the wire types ([`Request`], [`Response`],
//!   [`Recommendation`], [`ServeStats`]) and the canonical [`QueryKey`].
//! * [`recommend`] — the pure batched kernel, now the **pipeline
//!   executor**: requests are grouped per selected
//!   [`PipelineSet`](ai2_dse::PipelineSet) entry and each group runs
//!   its stage graph over one coalesced micro-batch; requests that name
//!   no pipeline run the degenerate single-stage `"default"` pipeline,
//!   bit-identical to the historical one-shot path. Model queries run
//!   the Method-1-style whole-model deployment fold.
//! * [`server`] — the runtime: admission queue, micro-batching worker
//!   shards (each a warm model replica restored from one
//!   [`ModelCheckpoint`](airchitect::ModelCheckpoint)), an LRU response
//!   cache keyed by canonical query, per-request deadlines, a TCP
//!   listener plus in-process [`Client`], and a `stats` endpoint with
//!   throughput and p50/p95/p99 latency.
//! * [`transport`] — pluggable line transports over one shared
//!   [`Endpoint`](server::Endpoint) seam, and the deterministic
//!   in-process [`VirtualTransport`] the `ai2_simtest` harness drives
//!   (seeded delivery order, injectable delays and disconnects, no
//!   sockets).
//! * [`event`] — the TCP front end: one acceptor plus N event-loop
//!   threads multiplexing every connection through a vendored
//!   readiness poller (`mini-poll`), with one recommendation in flight
//!   per connection, a bounded request line and per-connection write
//!   backpressure; pairs with `ServeConfig::overload` shed-or-queue
//!   admission control for 10k-connection scale.
//! * [`clock`] — the service's notion of time behind a trait:
//!   [`WallClock`] in production, [`VirtualClock`] under simulation so
//!   deadline expiry replays deterministically.
//! * [`registry`] — the live-model slot: versioned checkpoints are
//!   published atomically (monotonic lineage versions, freezable) and
//!   worker shards hot-swap onto them at micro-batch boundaries without
//!   dropping a request.
//! * [`refresh`] — the online-learning loop: a replay buffer of served
//!   queries, oracle labeling through the shared engine, active-learning
//!   selection of the most-disagreeing queries, a stage-2 fine-tune, and
//!   a publish through the registry.
//! * [`metrics`] — service observability over the [`ai2_obs`] substrate:
//!   one lock-free registry per shard merged on read, bounded log-scale
//!   latency histograms, and the per-request span tree (admission →
//!   queue wait → batch → kernel) exported as Chrome `trace_event`
//!   JSON through the `Trace` admin message or `serve --trace-out`.
//!
//! # Quickstart (in-process)
//!
//! ```no_run
//! use std::sync::Arc;
//! use ai2_dse::{Budget, DseDataset, DseTask, EvalEngine, GenerateConfig, Objective};
//! use ai2_serve::{Query, RecommendRequest, RecommendService, ServeConfig};
//! use airchitect::{train::TrainConfig, Airchitect2, ModelConfig};
//!
//! // train (or load) a model, snapshot it, start the service
//! let task = DseTask::table_i_default();
//! let ds = DseDataset::generate(&task, &GenerateConfig::default());
//! let engine = EvalEngine::shared(task);
//! let mut model = Airchitect2::with_engine(&ModelConfig::default(), Arc::clone(&engine), &ds);
//! model.fit(&ds, &TrainConfig::quick());
//! let mut service = RecommendService::start(ServeConfig::default(), engine, model.checkpoint());
//!
//! let addr = service.listen("127.0.0.1:0").unwrap(); // TCP front end
//! let resp = service.client().recommend(RecommendRequest {
//!     id: 1,
//!     query: Query::Gemm { m: 64, n: 512, k: 256, dataflow: "ws".into() },
//!     objective: Objective::Latency,
//!     budget: Budget::Edge,
//!     deadline_ms: Some(50),
//!     backend: None, // or Some("systolic".into()) for cycle-accurate costs
//!     pipeline: None, // or Some("staged".into()) for a configured stage graph
//! });
//! println!("{resp:?} (also serving on {addr})");
//! ```

pub mod cache;
pub mod clock;
pub mod event;
pub mod metrics;
pub mod protocol;
pub mod recommend;
pub mod refresh;
pub mod registry;
pub mod server;
pub mod transport;

pub use clock::{Clock, VirtualClock, WallClock};
pub use event::EventTransport;
pub use metrics::{MetricsSnapshot, ServiceMetrics, ShardMetrics};
pub use protocol::{
    AdminAck, AdminRequest, Query, QueryKey, RecommendRequest, Recommendation, Request, Response,
    ServeStats,
};
pub use recommend::{recommend_batch, recommend_batch_in, BackendEngines};
pub use refresh::{refresh_once, RefreshConfig, RefreshOutcome, ReplayBuffer, ReplayEntry};
pub use registry::{ModelRegistry, PublishError};
pub use server::{
    Client, Driver, Endpoint, NotifyFn, OverloadPolicy, Pending, RecommendService, ServeConfig,
    Submission,
};
pub use transport::{BoundAddr, Delivery, Shutdown, TcpClient, Transport, VirtualTransport};

use std::sync::{Mutex, MutexGuard};

/// Locks `m`, recovering the guard when an earlier holder panicked:
/// `repair` restores the guarded value's invariants, then the poison is
/// cleared. One panicking shard must not take down every later request
/// — nor the event loops, which read the response cache at admission.
pub(crate) fn lock_or_repair<T>(m: &Mutex<T>, repair: impl FnOnce(&mut T)) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| {
        let mut guard = poisoned.into_inner();
        repair(&mut guard);
        m.clear_poison();
        guard
    })
}

/// [`lock_or_repair`] for state that any interrupted update leaves
/// valid.
pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    lock_or_repair(m, |_| {})
}
