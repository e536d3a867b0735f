//! The concurrent service: an admission queue with micro-batching, N
//! worker shards answering from warm [`Airchitect2`] replicas over one
//! shared [`EvalEngine`], an LRU response cache, per-request deadlines,
//! and pluggable line transports (TCP in production, a deterministic
//! virtual transport under simulation — see [`crate::transport`]).
//!
//! # Anatomy of a request
//!
//! 1. **Admission** — [`Client::recommend`] (in-process) or a transport
//!    line pushes a [`Job`] onto the shared queue and wakes a shard.
//! 2. **Micro-batching** — the woken shard drains up to
//!    [`ServeConfig::max_batch`] queued jobs in one go. Deadline-expired
//!    jobs are answered with an error immediately; cached canonical
//!    queries are answered from the LRU; the rest are coalesced into
//!    **one** [`recommend_batch_in`] call — a single `Predictor` forward
//!    pass for every GEMM query in the batch, regardless of how many
//!    clients they came from.
//! 3. **Verification** — costs come from the shared per-backend engines
//!    ([`EvalEngine::cost`] per GEMM query, [`EvalEngine::model_cost`]
//!    per whole-model candidate, on the engine the query's `"backend"`
//!    field selects), so every shard's answers land in (and reuse) the
//!    same per-backend raw-cost caches.
//! 4. **Response** — each job's `mpsc` slot receives its [`Response`];
//!    the metrics window records the admission→response latency that the
//!    `stats` endpoint aggregates into p50/p95/p99.
//!
//! Shards hold *replicas* of the model (rebuilt from the same
//! [`ModelCheckpoint`], hence bit-identical) because the autograd store
//! is not `Sync`; they share one engine because the raw-cost cache is.
//!
//! # Drivers: threaded and stepped
//!
//! The shard loop is one pure function, [`shard_try_step`]: drain a
//! fair share of the queue, adopt a newly published replica if the
//! registry epoch moved, process the batch. Under
//! [`Driver::Threaded`] (production) each shard runs that function in
//! its own thread behind a condvar. Under [`Driver::Manual`] no threads
//! are spawned at all: the caller invokes
//! [`RecommendService::step_shard`] explicitly, and all time comes from
//! the [`Clock`] the service was started with — so a whole server run
//! becomes a deterministic function of the step sequence, which is what
//! the `ai2_simtest` harness replays from a seed.
//!
//! # Live model refresh
//!
//! The checkpoint lives behind a [`ModelRegistry`]: shards compare the
//! registry's **epoch** at every micro-batch boundary and rebuild their
//! replica when a new checkpoint was published (an admin `swap` line,
//! an in-process [`RecommendService::swap_checkpoint`], or the
//! background refresh worker). In-flight batches finish on the old
//! replica — a swap drops zero requests — and the response cache is
//! **epoch-tagged** so an old-replica batch that straggles past the
//! swap can never poison the cache with outgoing-model answers.

use std::collections::{BTreeMap, VecDeque};
use std::io;
use std::net::{SocketAddr, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use ai2_dse::{EvalEngine, PipelineSet};
use ai2_obs::{ArgValue, SpanRecord, Tracer, NO_PARENT};
use airchitect::{Airchitect2, InferenceScratch, ModelCheckpoint};

use crate::cache::LruCache;
use crate::clock::{Clock, WallClock};
use crate::event::EventTransport;
use crate::metrics::ServiceMetrics;
use crate::protocol::{
    decode_line, AdminAck, AdminRequest, PipelineInfo, PipelineServed, QueryKey, RecommendRequest,
    Recommendation, Request, Response, ServeStats,
};
use crate::recommend::{recommend_batch_in, BackendEngines};
use crate::refresh::{refresh_once, RefreshConfig, RefreshOutcome, ReplayBuffer};
use crate::registry::ModelRegistry;
use crate::transport::{BoundAddr, Transport};

/// Event loops [`RecommendService::listen`] runs.
const LISTEN_LOOPS: usize = 2;

/// A completion hook a transport attaches to a submission: invoked
/// (from the answering shard's thread) right after the response lands
/// in the job's channel, so an event loop parked in its poller learns
/// the answer is ready without busy-polling.
pub type NotifyFn = Arc<dyn Fn() + Send + Sync>;

/// How shard work gets scheduled.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Driver {
    /// One thread per shard behind a condvar (production).
    #[default]
    Threaded,
    /// No threads: the owner calls [`RecommendService::step_shard`]
    /// explicitly. Combined with a [`crate::clock::VirtualClock`] and
    /// the virtual transport, a whole server run is a deterministic
    /// function of the step sequence.
    Manual,
}

/// What happens to a recommendation arriving while the shard queue is
/// already deep.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OverloadPolicy {
    /// Queue everything (the historical behavior): latency degrades
    /// under overload but no request is refused.
    #[default]
    Queue,
    /// Refuse admissions once the queue holds `high_water` jobs: the
    /// request is answered inline with the `"shedding"` error, counted
    /// in [`ServeStats::sheds`], and never reaches a shard. Cheap
    /// inline work (stats, admin, malformed lines) is never shed.
    Shed {
        /// Queue depth at and above which new recommendations are
        /// refused.
        high_water: usize,
    },
}

/// Service sizing knobs.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker shards (each holds a warm model replica). Minimum 1.
    pub shards: usize,
    /// Upper bound on jobs coalesced into one micro-batch.
    pub max_batch: usize,
    /// LRU response-cache entries (0 disables caching).
    pub cache_capacity: usize,
    /// Served-query replay-buffer entries feeding the refresh loop
    /// (0 disables recording).
    pub replay_capacity: usize,
    /// Background refresh loop; `None` leaves refreshing to explicit
    /// [`RecommendService::refresh_now`] calls and admin swaps. Under
    /// [`Driver::Manual`] no background worker is spawned either way:
    /// this only supplies the [`RefreshConfig`] that `refresh_now`
    /// uses.
    pub refresh: Option<RefreshConfig>,
    /// Shard scheduling: threaded (default) or manually stepped.
    pub driver: Driver,
    /// Shard indices serving the **int8-quantized decoder flavor**
    /// instead of the full-precision f32 decoder. A listed shard
    /// quantizes its replica deterministically after every restore (or
    /// adopts the checkpoint's stored int8 blob when one is published),
    /// so all replicas of one flavor stay bit-identical to each other;
    /// unlisted shards always clear any stored flavor and serve f32.
    /// Empty (the default) serves f32 everywhere. Out-of-range indices
    /// are ignored.
    pub quantized_shards: Vec<usize>,
    /// The named recommendation pipelines this service answers through
    /// (`serve --pipelines FILE` compiles its config file into this
    /// set). Always contains the built-in `"default"` — the degenerate
    /// single-stage pipeline whose answers are bit-identical to the
    /// pre-pipeline server — which is what every request without a
    /// `"pipeline"` field runs.
    pub pipelines: PipelineSet,
    /// Admission control under overload; the default queues everything.
    pub overload: OverloadPolicy,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            shards: 2,
            max_batch: 32,
            cache_capacity: 1024,
            replay_capacity: 4096,
            refresh: None,
            driver: Driver::Threaded,
            quantized_shards: Vec::new(),
            pipelines: PipelineSet::default(),
            overload: OverloadPolicy::default(),
        }
    }
}

/// The LRU response cache tagged with the registry epoch its entries
/// were computed under. Inserts stamped with an older epoch are
/// dropped: a pre-swap batch finishing after the swap must not publish
/// outgoing-replica answers into the post-swap cache.
struct EpochCache {
    epoch: u64,
    lru: LruCache<QueryKey, Recommendation>,
}

/// One admitted request waiting for a shard. Timestamps come from the
/// service [`Clock`] (nanoseconds since its epoch), never from
/// [`Instant`], so deadline expiry replays deterministically under a
/// virtual clock.
struct Job {
    req: RecommendRequest,
    key: Option<QueryKey>,
    admitted_ns: u64,
    deadline_ns: Option<u64>,
    /// Root `serve.request` span id, allocated at admission so children
    /// can reference it; [`NO_PARENT`] when tracing was off.
    span_id: u64,
    tx: mpsc::Sender<Response>,
    /// Invoked after the response is sent (see [`NotifyFn`]).
    notify: Option<NotifyFn>,
}

impl Job {
    /// Sends the response and fires the transport's completion hook.
    fn answer(&self, resp: Response) {
        let _ = self.tx.send(resp);
        if let Some(notify) = &self.notify {
            notify();
        }
    }
}

struct Inner {
    cfg: ServeConfig,
    clock: Arc<dyn Clock>,
    engines: BackendEngines,
    registry: ModelRegistry,
    replay: ReplayBuffer,
    queue: Mutex<VecDeque<Job>>,
    available: Condvar,
    stop: AtomicBool,
    cache: Mutex<EpochCache>,
    metrics: ServiceMetrics,
    tracer: Tracer,
    /// Recommendations answered per pipeline name (cache hits
    /// included), keyed over every registered pipeline from startup so
    /// idle pipelines still report 0.
    pipeline_served: Mutex<BTreeMap<String, u64>>,
}

impl Inner {
    /// Admission control: either queues the request (returning the
    /// receiver its answer will land in) or refuses it inline with the
    /// response to send instead — shutdown refusals and, under
    /// [`OverloadPolicy::Shed`], overload sheds.
    fn admit(
        &self,
        req: RecommendRequest,
        notify: Option<NotifyFn>,
    ) -> Result<mpsc::Receiver<Response>, Box<Response>> {
        if self.stop.load(Ordering::SeqCst) {
            // after shutdown begins no job may enter the queue: a
            // queued job no shard will drain would strand whoever
            // waits on it
            return Err(Box::new(Response::Error {
                id: req.id,
                message: "service is shutting down".into(),
            }));
        }
        let (tx, rx) = mpsc::channel();
        let admitted_ns = self.clock.now_ns();
        let job = Job {
            key: QueryKey::of(&req),
            // checked: an absurd deadline_ms (e.g. u64::MAX from a
            // hostile client) must degrade to "no deadline", not wrap
            // the nanosecond arithmetic
            deadline_ns: req
                .deadline_ms
                .and_then(|ms| ms.checked_mul(1_000_000))
                .and_then(|ns| admitted_ns.checked_add(ns)),
            admitted_ns,
            // the root span id is allocated at admission (its record is
            // written when the response is sent), so ids follow
            // admission order — deterministic under the manual driver
            span_id: if self.tracer.enabled() {
                self.tracer.alloc_id()
            } else {
                NO_PARENT
            },
            req,
            tx,
            notify,
        };
        {
            // the shed decision and the enqueue share one lock hold, so
            // the depth a request was judged against is exact — the
            // same admission sequence sheds the same requests on every
            // deterministic replay
            let mut q = self.queue.lock().expect("admission queue poisoned");
            if let OverloadPolicy::Shed { high_water } = self.cfg.overload {
                if q.len() >= high_water {
                    self.metrics.record_shed();
                    return Err(Box::new(Response::Error {
                        id: job.req.id,
                        message: format!(
                            "shedding: queue depth {} at high-water mark {high_water}",
                            q.len()
                        ),
                    }));
                }
            }
            q.push_back(job);
        }
        self.metrics.queue_depth_add(1);
        self.available.notify_one();
        Ok(rx)
    }

    fn serve_stats(&self, id: u64) -> ServeStats {
        let snap = self.metrics.snapshot();
        // summed across the per-backend engines (each keeps its own
        // caches; the counters are additive)
        let engine = ai2_dse::BackendId::ALL
            .iter()
            .map(|&b| self.engines.get(b).stats())
            .fold(ai2_dse::EngineStats::default(), |mut acc, s| {
                acc.point_hits += s.point_hits;
                acc.point_misses += s.point_misses;
                acc
            });
        ServeStats {
            id,
            served: snap.served,
            cache_hits: snap.cache_hits,
            deadline_expired: snap.deadline_expired,
            errors: snap.errors,
            shards: self.cfg.shards,
            model_version: self.registry.version(),
            frozen: self.registry.frozen(),
            swaps: self.registry.swaps(),
            replay_len: self.replay.len(),
            uptime_ms: snap.uptime_ms,
            throughput_rps: snap.throughput_rps,
            queue_depth: snap.queue_depth,
            sheds: snap.sheds,
            queue_high_water: snap.queue_high_water,
            p50_us: snap.p50_us,
            p95_us: snap.p95_us,
            p99_us: snap.p99_us,
            batch_size_p50: snap.batch_size_p50,
            batch_size_p95: snap.batch_size_p95,
            engine_point_hits: engine.point_hits,
            engine_point_misses: engine.point_misses,
            kernel: ai2_tensor::kernel::active().name().to_string(),
            quantized_shards: (0..self.cfg.shards)
                .filter(|s| self.cfg.quantized_shards.contains(s))
                .count(),
            pipelines: self
                .pipeline_served
                .lock()
                .expect("pipeline counters poisoned")
                .iter()
                .map(|(name, &served)| PipelineServed {
                    name: name.clone(),
                    served,
                })
                .collect(),
        }
    }

    /// Counts one answered recommendation against its pipeline (`None`
    /// on the wire is the default pipeline).
    fn record_pipeline_served(&self, pipeline: Option<&str>) {
        let name = pipeline.unwrap_or(PipelineSet::DEFAULT);
        let mut counts = self
            .pipeline_served
            .lock()
            .expect("pipeline counters poisoned");
        // unknown names get error responses and are never counted here,
        // but stay defensive: an uncounted serve is worse than a new row
        *counts.entry(name.to_string()).or_insert(0) += 1;
    }

    /// Validates and publishes `ckpt` as the live checkpoint, flushing
    /// the (now stale) response cache. With `bump`, the registry
    /// re-stamps the checkpoint at `live_version + 1` under its own
    /// lock (so a concurrent publish cannot turn the bump into a
    /// spurious version rejection). Returns the version that went live.
    fn install_checkpoint(&self, ckpt: ModelCheckpoint, bump: bool) -> Result<u64, String> {
        // a checkpoint that cannot restore must never become live — the
        // shards would die trying to rebuild from it
        Airchitect2::from_checkpoint(Arc::clone(self.engines.primary()), &ckpt)
            .map_err(|e| format!("checkpoint does not restore: {e}"))?;
        let publish = if bump {
            self.registry.publish_bumped(ckpt)
        } else {
            self.registry.publish(ckpt)
        };
        let version = publish.map_err(|e| e.to_string())?;
        self.flush_cache();
        self.tracer.instant(
            "serve.swap",
            "lifecycle",
            0,
            vec![("version", ArgValue::U64(version))],
        );
        Ok(version)
    }

    /// Clears the response cache and re-tags it with the current
    /// registry epoch (stale-epoch inserts are dropped from here on).
    fn flush_cache(&self) {
        let mut cache = self.cache.lock().expect("cache poisoned");
        cache.lru.clear();
        cache.epoch = self.registry.epoch();
    }

    /// The single dispatch point for the unified admin surface: every
    /// [`AdminRequest`] is answered here, inline, without occupying a
    /// shard.
    fn handle_admin(&self, req: &AdminRequest) -> Response {
        match req {
            AdminRequest::Stats { id } => Response::Stats(self.serve_stats(*id)),
            AdminRequest::Swap { id, path, bump } => {
                let ckpt = match ModelCheckpoint::load(path) {
                    Ok(ckpt) => ckpt,
                    Err(e) => {
                        self.metrics.record_error();
                        return Response::Error {
                            id: *id,
                            message: format!("swap rejected: cannot load {path:?}: {e}"),
                        };
                    }
                };
                match self.install_checkpoint(ckpt, bump.unwrap_or(false)) {
                    Ok(version) => Response::Admin(AdminAck {
                        id: *id,
                        op: "swap".into(),
                        model_version: version,
                        frozen: self.registry.frozen(),
                    }),
                    Err(message) => {
                        self.metrics.record_error();
                        Response::Error {
                            id: *id,
                            message: format!("swap rejected: {message}"),
                        }
                    }
                }
            }
            AdminRequest::Freeze { id, frozen } => {
                self.registry.set_frozen(*frozen);
                self.tracer.instant(
                    "serve.freeze",
                    "lifecycle",
                    0,
                    vec![("frozen", ArgValue::U64(u64::from(*frozen)))],
                );
                Response::Admin(AdminAck {
                    id: *id,
                    op: "freeze".into(),
                    model_version: self.registry.version(),
                    frozen: *frozen,
                })
            }
            AdminRequest::Pipelines { id } => Response::Pipelines {
                id: *id,
                pipelines: self
                    .cfg
                    .pipelines
                    .iter()
                    .map(|p| PipelineInfo {
                        name: p.name().to_string(),
                        stages: p.stage_names().iter().map(|s| s.to_string()).collect(),
                    })
                    .collect(),
            },
            AdminRequest::Trace { id, enable, path } => {
                if let Some(on) = enable {
                    self.tracer.set_enabled(*on);
                }
                if let Some(path) = path {
                    if let Err(e) = std::fs::write(path, self.tracer.chrome_json()) {
                        self.metrics.record_error();
                        return Response::Error {
                            id: *id,
                            message: format!("trace rejected: cannot write {path:?}: {e}"),
                        };
                    }
                }
                Response::Admin(AdminAck {
                    id: *id,
                    op: "trace".into(),
                    model_version: self.registry.version(),
                    frozen: self.registry.frozen(),
                })
            }
        }
    }
}

/// What one wire line turned into — the transport-facing half of the
/// service. Transports hand every received line to
/// [`Endpoint::handle_line`] and route the result back to their client.
// a `Ready` response is built once and serialized immediately, so the
// size skew against `Ignored` never lives past one handler frame
#[allow(clippy::large_enum_variant)]
pub enum Submission {
    /// Blank line: no response is owed.
    Ignored,
    /// Answered inline without occupying a shard (`stats`, admin
    /// messages, malformed lines).
    Ready(Response),
    /// A recommendation admitted to the shard queue; the answer arrives
    /// through the [`Pending`].
    Queued(Pending),
}

/// The service's line-level entry point, shared by every transport: one
/// wire line in, one [`Submission`] out. The TCP front end and the
/// deterministic virtual transport both dispatch through this exact
/// function, so they cannot diverge in decoding, admin handling, or
/// error behavior.
#[derive(Clone)]
pub struct Endpoint {
    inner: Arc<Inner>,
}

impl Endpoint {
    /// Decodes and dispatches one wire line (without its trailing
    /// newline). `stats` and the admin messages are answered inline;
    /// recommendations are admitted to the shard queue; malformed lines
    /// answer the canonical parse error.
    pub fn handle_line(&self, line: &str) -> Submission {
        self.handle_line_with_notify(line, None)
    }

    /// [`Endpoint::handle_line`] with a completion hook: when the line
    /// queues a recommendation, `notify` fires right after its response
    /// lands (see [`NotifyFn`]) — how the event-driven front end learns
    /// to flush a connection without polling every pending answer.
    /// Inline answers (stats, admin, sheds, malformed lines) never
    /// invoke the hook; they are returned directly.
    pub fn handle_line_with_notify(&self, line: &str, notify: Option<NotifyFn>) -> Submission {
        if line.trim().is_empty() {
            return Submission::Ignored;
        }
        match decode_line::<Request>(line) {
            Ok(Request::Recommend(req)) => match self.inner.admit(req, notify) {
                Ok(rx) => Submission::Queued(Pending(rx)),
                Err(resp) => Submission::Ready(*resp),
            },
            Ok(Request::Admin(admin)) => Submission::Ready(self.inner.handle_admin(&admin)),
            Err(e) => {
                self.inner.metrics.record_error();
                Submission::Ready(Response::Error {
                    id: 0,
                    message: format!("malformed request line: {e}"),
                })
            }
        }
    }

    /// Whether the service has been shut down (transports drain and
    /// exit when this turns true).
    pub fn stopped(&self) -> bool {
        self.inner.stop.load(Ordering::SeqCst)
    }
}

/// The running service. Dropping it without [`RecommendService::shutdown`]
/// leaks the shard threads; call `shutdown` for a clean stop.
pub struct RecommendService {
    inner: Arc<Inner>,
    shards: Vec<JoinHandle<()>>,
    /// Per-shard replica state under [`Driver::Manual`] (empty when
    /// threaded — each thread owns its state locally).
    stepped_shards: Vec<Mutex<ShardState>>,
    transports: Vec<Box<dyn Transport>>,
    refresher: Option<JoinHandle<()>>,
}

impl RecommendService {
    /// Starts the service on the production wall clock. See
    /// [`RecommendService::start_with`].
    ///
    /// # Panics
    ///
    /// Panics if the checkpoint does not apply to a freshly built model
    /// (missing parameters / shape mismatch) — a serving process wants
    /// that failure at startup, not on the first query.
    pub fn start(cfg: ServeConfig, engine: Arc<EvalEngine>, ckpt: ModelCheckpoint) -> Self {
        Self::start_with(cfg, engine, ckpt, Arc::new(WallClock::new()))
    }

    /// Starts the shards from a trained model checkpoint over an
    /// explicit [`Clock`]. Every shard restores its own replica
    /// (predictions are bit-identical across replicas by the checkpoint
    /// round-trip guarantee) over the one shared engine. Under
    /// [`Driver::Manual`] no threads are spawned; drive the service
    /// with [`RecommendService::step_shard`].
    ///
    /// # Panics
    ///
    /// Panics if the checkpoint does not apply to a freshly built
    /// model.
    pub fn start_with(
        cfg: ServeConfig,
        engine: Arc<EvalEngine>,
        ckpt: ModelCheckpoint,
        clock: Arc<dyn Clock>,
    ) -> Self {
        // fail fast on a bad checkpoint before spawning anything
        Airchitect2::from_checkpoint(Arc::clone(&engine), &ckpt)
            .expect("checkpoint must apply to the configured model");
        let cfg = ServeConfig {
            shards: cfg.shards.max(1),
            max_batch: cfg.max_batch.max(1),
            ..cfg
        };
        let tracer = {
            let clock = Arc::clone(&clock);
            Tracer::new(Arc::new(move || clock.now_ns()))
        };
        let inner = Arc::new(Inner {
            cache: Mutex::new(EpochCache {
                epoch: 0,
                lru: LruCache::new(cfg.cache_capacity),
            }),
            replay: ReplayBuffer::new(cfg.replay_capacity),
            metrics: ServiceMetrics::new(cfg.shards),
            pipeline_served: Mutex::new(
                cfg.pipelines
                    .names()
                    .into_iter()
                    .map(|n| (n.to_string(), 0))
                    .collect(),
            ),
            cfg,
            clock,
            engines: BackendEngines::new(engine),
            registry: ModelRegistry::new(ckpt),
            queue: Mutex::new(VecDeque::new()),
            available: Condvar::new(),
            stop: AtomicBool::new(false),
            tracer,
        });
        let (shards, stepped_shards) = match inner.cfg.driver {
            Driver::Threaded => {
                let handles = (0..inner.cfg.shards)
                    .map(|i| {
                        let inner = Arc::clone(&inner);
                        std::thread::Builder::new()
                            .name(format!("ai2-serve-shard-{i}"))
                            .spawn(move || shard_main(&inner, i))
                            .expect("spawn shard")
                    })
                    .collect();
                (handles, Vec::new())
            }
            Driver::Manual => {
                let states = (0..inner.cfg.shards)
                    .map(|i| Mutex::new(ShardState::new(&inner, i)))
                    .collect();
                (Vec::new(), states)
            }
        };
        let refresher = match inner.cfg.driver {
            Driver::Threaded => inner.cfg.refresh.as_ref().map(|_| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name("ai2-serve-refresh".into())
                    .spawn(move || refresh_main(&inner))
                    .expect("spawn refresh worker")
            }),
            // manual runs refresh only through explicit refresh_now
            // calls — a background timer would break determinism
            Driver::Manual => None,
        };
        RecommendService {
            inner,
            shards,
            stepped_shards,
            transports: Vec::new(),
            refresher,
        }
    }

    /// An in-process client (no sockets) — the test and bench path.
    /// Under [`Driver::Manual`], pair [`Client::submit`] with
    /// [`Pending::poll`] and [`RecommendService::step_shard`] — a
    /// blocking [`Client::recommend`] would wait forever with no shard
    /// threads to answer it.
    pub fn client(&self) -> Client {
        Client {
            inner: Arc::clone(&self.inner),
        }
    }

    /// The line-level entry point transports dispatch through.
    pub fn endpoint(&self) -> Endpoint {
        Endpoint {
            inner: Arc::clone(&self.inner),
        }
    }

    /// Binds a transport, starts it against this service's
    /// [`Endpoint`], and owns it until shutdown. Returns where the
    /// transport listens.
    ///
    /// # Errors
    ///
    /// Returns the transport's bind or startup error.
    pub fn attach(&mut self, mut transport: Box<dyn Transport>) -> io::Result<BoundAddr> {
        let bound = transport.bind()?;
        transport.run(self.endpoint())?;
        self.transports.push(transport);
        Ok(bound)
    }

    /// Binds a TCP listener (use port 0 for an ephemeral port) and
    /// starts accepting NDJSON connections on an [`EventTransport`]
    /// with two event loops. Returns the bound address.
    ///
    /// # Errors
    ///
    /// Returns the bind error.
    pub fn listen(&mut self, addr: impl ToSocketAddrs) -> io::Result<SocketAddr> {
        let transport = EventTransport::new(addr, LISTEN_LOOPS)?;
        match self.attach(Box::new(transport))? {
            BoundAddr::Tcp(local) => Ok(local),
            BoundAddr::InProcess => unreachable!("TCP transports always report an address"),
        }
    }

    /// Runs one micro-batch on shard `shard` ([`Driver::Manual`] only):
    /// drain a fair share of the queue, adopt a newly published replica
    /// if the registry epoch moved, compute, answer. Returns `false`
    /// when the queue was empty (nothing to do).
    ///
    /// # Panics
    ///
    /// Panics when the service runs the threaded driver or `shard` is
    /// out of range.
    pub fn step_shard(&self, shard: usize) -> bool {
        assert!(
            !self.stepped_shards.is_empty(),
            "step_shard requires ServeConfig {{ driver: Driver::Manual }}"
        );
        let mut state = self.stepped_shards[shard]
            .lock()
            .expect("shard state poisoned");
        shard_try_step(&self.inner, &mut state)
    }

    /// Jobs admitted but not yet drained by any shard.
    pub fn queued(&self) -> usize {
        self.inner
            .queue
            .lock()
            .expect("admission queue poisoned")
            .len()
    }

    /// Number of worker shards.
    pub fn shards(&self) -> usize {
        self.inner.cfg.shards
    }

    /// Lineage version of the live model replica.
    pub fn model_version(&self) -> u64 {
        self.inner.registry.version()
    }

    /// Snapshot of the live checkpoint — what a shard restoring right
    /// now would serve from (tests restore independent replicas from
    /// it; operators save it for later `swap`s).
    pub fn current_checkpoint(&self) -> Arc<ModelCheckpoint> {
        self.inner.registry.current()
    }

    /// Validates and publishes a new checkpoint in-process (the wire
    /// `swap` message without the file round-trip). With `bump`, the
    /// checkpoint is re-stamped at `live_version + 1` first. Shards
    /// adopt it at their next micro-batch boundary; the response cache
    /// is flushed.
    ///
    /// # Errors
    ///
    /// Returns the rejection reason (checkpoint fails to restore,
    /// registry frozen, version does not advance).
    pub fn swap_checkpoint(&self, ckpt: ModelCheckpoint, bump: bool) -> Result<u64, String> {
        self.inner.install_checkpoint(ckpt, bump)
    }

    /// Runs one refresh cycle synchronously (label the replay buffer,
    /// fine-tune, publish) using the configured [`RefreshConfig`] or
    /// its default — the deterministic-test and script entry point; the
    /// background worker calls the same function on a timer.
    ///
    /// # Errors
    ///
    /// Returns the reason the refresh could not run or publish.
    pub fn refresh_now(&self) -> Result<RefreshOutcome, String> {
        let cfg = self.inner.cfg.refresh.clone().unwrap_or_default();
        let outcome = refresh_once(
            self.inner.engines.primary(),
            &self.inner.registry,
            &self.inner.replay,
            &cfg,
        )?;
        self.inner.flush_cache();
        self.inner.tracer.instant(
            "serve.refresh",
            "lifecycle",
            0,
            vec![
                ("version", ArgValue::U64(outcome.version)),
                ("trained_on", ArgValue::U64(outcome.trained_on as u64)),
            ],
        );
        Ok(outcome)
    }

    /// Served GEMM queries waiting in the replay buffer.
    pub fn replay_len(&self) -> usize {
        self.inner.replay.len()
    }

    /// The current stats snapshot (same content as the wire `stats`
    /// endpoint).
    pub fn stats(&self) -> ServeStats {
        self.inner.serve_stats(0)
    }

    /// The service tracer — `Clock`-driven, so captures replay
    /// byte-identically under a virtual clock.
    pub fn tracer(&self) -> &Tracer {
        &self.inner.tracer
    }

    /// Enable (starting a fresh capture) or disable span recording —
    /// the in-process equivalent of the admin `trace` wire message.
    pub fn set_tracing(&self, on: bool) {
        self.inner.tracer.set_enabled(on);
    }

    /// Completed spans captured so far (does not drain).
    pub fn trace_records(&self) -> Vec<SpanRecord> {
        self.inner.tracer.records()
    }

    /// The capture rendered as Chrome `trace_event` JSON.
    pub fn trace_json(&self) -> String {
        self.inner.tracer.chrome_json()
    }

    /// Stops accepting, drains nothing further, joins every shard, and
    /// fails any still-queued request with a shutdown error.
    pub fn shutdown(mut self) {
        self.inner.stop.store(true, Ordering::SeqCst);
        self.inner.available.notify_all();
        for h in self.shards.drain(..) {
            h.join().expect("shard panicked");
        }
        // pending jobs: dropping the senders unblocks their receivers.
        // This must happen before transports stop — transports join
        // their connection threads, and a connection blocked on a
        // queued job that no shard will ever pick up would deadlock the
        // join. (`Inner::submit` answers inline once `stop` is set, so
        // nothing re-enters the queue after this clear.)
        self.inner
            .queue
            .lock()
            .expect("admission queue poisoned")
            .clear();
        for t in &mut self.transports {
            t.stop();
        }
        if let Some(h) = self.refresher.take() {
            h.join().expect("refresh worker panicked");
        }
    }
}

/// In-process handle submitting requests straight to the admission
/// queue — what the benches and tests drive, and the reference for what
/// the transport paths must reproduce byte-for-byte.
#[derive(Clone)]
pub struct Client {
    inner: Arc<Inner>,
}

impl Client {
    /// Submits one recommendation request and blocks for the response.
    pub fn recommend(&self, req: RecommendRequest) -> Response {
        self.submit(req).wait()
    }

    /// Submits without blocking — the pipelining path: enqueue a burst,
    /// then [`Pending::wait`] for the answers while shards coalesce the
    /// backlog into micro-batches.
    pub fn submit(&self, req: RecommendRequest) -> Pending {
        match self.inner.admit(req, None) {
            Ok(rx) => Pending(rx),
            Err(resp) => {
                // refused inline (shed / shutdown): a pre-answered
                // channel keeps the Pending contract unchanged
                let (tx, rx) = mpsc::channel();
                let _ = tx.send(*resp);
                Pending(rx)
            }
        }
    }

    /// Submits any protocol request (the admin surface is answered
    /// inline without occupying a shard).
    pub fn request(&self, req: Request) -> Response {
        match req {
            Request::Recommend(r) => self.recommend(r),
            Request::Admin(admin) => self.inner.handle_admin(&admin),
        }
    }
}

/// A response that has been admitted but not necessarily computed yet.
pub struct Pending(mpsc::Receiver<Response>);

impl Pending {
    /// Blocks until the shard answers.
    pub fn wait(self) -> Response {
        match self.0.recv() {
            Ok(resp) => resp,
            Err(_) => Response::Error {
                id: 0,
                message: "service shut down before answering".into(),
            },
        }
    }

    /// Non-blocking completion check — the stepped-driver companion to
    /// [`Pending::wait`]: `None` while a shard still owes the answer. A
    /// service that shut down before answering yields the same error
    /// response `wait` would.
    pub fn poll(&self) -> Option<Response> {
        match self.0.try_recv() {
            Ok(resp) => Some(resp),
            Err(mpsc::TryRecvError::Empty) => None,
            Err(mpsc::TryRecvError::Disconnected) => Some(Response::Error {
                id: 0,
                message: "service shut down before answering".into(),
            }),
        }
    }
}

// --------------------------------------------------------------------
// shard workers

/// One shard's mutable state: its index (which decides the decoder
/// flavor it serves), which registry epoch its replica was restored
/// under, the replica itself, and the reusable inference scratch that
/// makes the steady-state forward pass allocation-free.
struct ShardState {
    shard: usize,
    epoch: u64,
    model: Airchitect2,
    scratch: InferenceScratch,
}

impl ShardState {
    fn new(inner: &Inner, shard: usize) -> ShardState {
        ShardState {
            shard,
            epoch: inner.registry.epoch(),
            model: shard_replica(inner, shard),
            scratch: InferenceScratch::new(),
        }
    }
}

/// Restores a fresh replica from the live checkpoint and applies the
/// shard's configured decoder flavor. Quantization is deterministic
/// (and restores of a stored int8 blob are bit-exact), so every
/// replica of a given flavor answers bit-identically; an unlisted
/// shard clears any flavor the checkpoint carried, so per-shard config
/// — not the publisher — decides what precision each shard serves.
fn shard_replica(inner: &Inner, shard: usize) -> Airchitect2 {
    let mut model = Airchitect2::from_checkpoint(
        Arc::clone(inner.engines.primary()),
        &inner.registry.current(),
    )
    .expect("checkpoints are validated before they become live");
    if inner.cfg.quantized_shards.contains(&shard) {
        if !model.quantized_decoder() {
            model.quantize_decoder();
        }
    } else {
        model.clear_quantized_decoder();
    }
    model
}

/// One micro-batch step, shared verbatim by the threaded and the
/// manually stepped drivers: drain a fair share of the backlog, adopt a
/// newly published replica at this batch boundary, process. Returns
/// `false` when the queue was empty.
fn shard_try_step(inner: &Inner, state: &mut ShardState) -> bool {
    let tid = state.shard as u64;
    let tracing = inner.tracer.enabled();
    let t0 = if tracing { inner.clock.now_ns() } else { 0 };
    let batch: Vec<Job> = {
        let mut q = inner.queue.lock().expect("admission queue poisoned");
        if q.is_empty() {
            return false;
        }
        // a fair share of the backlog: deep queues still coalesce
        // into full micro-batches, but a light queue is spread over
        // idle shards instead of being drained whole by the first
        // one awake (which would serialize compute behind it)
        let take = q
            .len()
            .div_ceil(inner.cfg.shards)
            .clamp(1, inner.cfg.max_batch);
        q.drain(..take).collect()
    };
    inner.metrics.queue_depth_add(-(batch.len() as i64));
    // more work may remain; pass the baton before computing
    inner.available.notify_one();
    // the per-shard batch tree: serve.batch wraps assembly, replica
    // adoption and the whole process_batch body on this shard's lane
    let batch_span = if tracing {
        inner.tracer.alloc_id()
    } else {
        NO_PARENT
    };
    if tracing {
        inner.tracer.record_span(
            "serve.batch_assemble",
            "serve",
            tid,
            batch_span,
            t0,
            inner.clock.now_ns(),
            vec![("size", ArgValue::U64(batch.len() as u64))],
        );
    }
    // micro-batch boundary: adopt a newly published replica before
    // computing, so everything drained after a swap is answered by
    // a model freshly restored from the published checkpoint
    let now = inner.registry.epoch();
    if now != state.epoch {
        let mut sp = inner
            .tracer
            .span("serve.adopt_replica", "lifecycle", tid, batch_span);
        sp.arg("epoch", now);
        state.model = shard_replica(inner, state.shard);
        state.epoch = now;
    }
    process_batch(
        inner,
        &state.model,
        &mut state.scratch,
        state.epoch,
        state.shard,
        batch_span,
        batch,
    );
    if tracing {
        inner.tracer.record_span_id(
            batch_span,
            "serve.batch",
            "serve",
            tid,
            NO_PARENT,
            t0,
            inner.clock.now_ns(),
            vec![("shard", ArgValue::U64(tid))],
        );
    }
    true
}

fn shard_main(inner: &Inner, shard: usize) {
    let mut state = ShardState::new(inner, shard);
    loop {
        {
            let mut q = inner.queue.lock().expect("admission queue poisoned");
            loop {
                if !q.is_empty() {
                    break;
                }
                if inner.stop.load(Ordering::SeqCst) {
                    return;
                }
                q = inner.available.wait(q).expect("admission queue poisoned");
            }
        }
        // the lock is released between the wakeup and the drain; a
        // sibling shard may win the race, in which case this step is a
        // cheap no-op and the loop re-waits
        shard_try_step(inner, &mut state);
    }
}

/// Writes the per-request span pair at completion: the reconstructed
/// `serve.queue_wait` child (admission → batch drain) and the root
/// `serve.request` span (admission → response sent) under the id
/// allocated at admission.
fn finish_request(inner: &Inner, tid: u64, job: &Job, drained_ns: u64, end_ns: u64, outcome: &str) {
    if job.span_id == NO_PARENT || !inner.tracer.enabled() {
        return;
    }
    inner.tracer.record_span(
        "serve.queue_wait",
        "serve",
        tid,
        job.span_id,
        job.admitted_ns,
        drained_ns,
        Vec::new(),
    );
    inner.tracer.record_span_id(
        job.span_id,
        "serve.request",
        "serve",
        tid,
        NO_PARENT,
        job.admitted_ns,
        end_ns,
        vec![
            ("req", ArgValue::U64(job.req.id)),
            ("outcome", ArgValue::Str(outcome.to_string())),
        ],
    );
}

fn process_batch(
    inner: &Inner,
    model: &Airchitect2,
    scratch: &mut InferenceScratch,
    epoch: u64,
    shard: usize,
    batch_span: u64,
    batch: Vec<Job>,
) {
    let now_ns = inner.clock.now_ns();
    let tid = shard as u64;
    let tracing = inner.tracer.enabled();
    let sm = inner.metrics.shard(shard);
    let int8 = model.quantized_decoder();
    sm.record_batch(batch.len());
    let mut compute: Vec<Job> = Vec::with_capacity(batch.len());
    for job in batch {
        if let Some(deadline_ns) = job.deadline_ns {
            if now_ns >= deadline_ns {
                sm.record_deadline_expired();
                let resp = Response::Error {
                    id: job.req.id,
                    message: format!(
                        "deadline of {} ms expired before a shard picked the request up",
                        job.req.deadline_ms.unwrap_or(0)
                    ),
                };
                job.answer(resp);
                finish_request(
                    inner,
                    tid,
                    &job,
                    now_ns,
                    inner.clock.now_ns(),
                    "deadline_expired",
                );
                continue;
            }
        }
        if let Some(key) = &job.key {
            // the epoch guard on reads mirrors the one on inserts: in
            // the window between a publish and its cache flush, a shard
            // that already adopted the new replica must not serve
            // entries the outgoing replica computed
            let mut lookup = inner
                .tracer
                .span("serve.cache_lookup", "serve", tid, job.span_id);
            let hit = {
                let mut cache = inner.cache.lock().expect("cache poisoned");
                if cache.epoch == epoch {
                    cache.lru.get(key)
                } else {
                    None
                }
            };
            lookup.arg("hit", hit.is_some());
            drop(lookup);
            if let Some(mut rec) = hit {
                rec.id = job.req.id;
                let end_ns = inner.clock.now_ns();
                sm.record_served(
                    end_ns.saturating_sub(job.admitted_ns),
                    true,
                    &rec.backend,
                    int8,
                );
                inner.record_pipeline_served(job.req.pipeline.as_deref());
                let send_start = if tracing { inner.clock.now_ns() } else { 0 };
                job.answer(Response::Recommendation(rec));
                if tracing {
                    let sent = inner.clock.now_ns();
                    if job.span_id != NO_PARENT {
                        inner.tracer.record_span(
                            "serve.respond",
                            "serve",
                            tid,
                            job.span_id,
                            send_start,
                            sent,
                            Vec::new(),
                        );
                    }
                    finish_request(inner, tid, &job, now_ns, sent, "cache_hit");
                }
                continue;
            }
        }
        compute.push(job);
    }
    if compute.is_empty() {
        return;
    }
    let reqs: Vec<RecommendRequest> = compute.iter().map(|j| j.req.clone()).collect();
    let mut rec_span = inner
        .tracer
        .span("serve.recommend", "serve", tid, batch_span);
    rec_span.arg("n", reqs.len());
    rec_span.arg("flavor", if int8 { "int8" } else { "f32" });
    let responses = {
        // kernel- and model-level spans (tensor.gemm, core.forward …)
        // attach under serve.recommend via the thread-local tracer
        let _scope = ai2_obs::scoped(&inner.tracer, rec_span.id(), tid);
        recommend_batch_in(model, &inner.engines, &inner.cfg.pipelines, &reqs, scratch)
    };
    drop(rec_span);
    for (job, resp) in compute.into_iter().zip(responses) {
        let outcome = match &resp {
            Response::Recommendation(rec) => {
                if let Some(key) = &job.key {
                    let mut cache = inner.cache.lock().expect("cache poisoned");
                    // an old-replica batch straggling past a swap must
                    // not publish outgoing-model answers post-flush
                    if cache.epoch == epoch {
                        cache.lru.insert(key.clone(), rec.clone());
                    }
                }
                // feed the refresh loop: computed GEMM answers are the
                // queries the next fine-tune can learn from (cache hits
                // and model folds carry no fresh per-layer signal)
                if let Some(input) = job.req.query.as_dse_input() {
                    inner.replay.record(input, rec.point);
                }
                sm.record_served(
                    inner.clock.now_ns().saturating_sub(job.admitted_ns),
                    false,
                    &rec.backend,
                    int8,
                );
                inner.record_pipeline_served(job.req.pipeline.as_deref());
                "computed"
            }
            Response::Error { .. } => {
                sm.record_error();
                "error"
            }
            Response::Stats(_) | Response::Admin(_) | Response::Pipelines { .. } => {
                unreachable!("stats/admin never route through shards")
            }
        };
        let send_start = if tracing { inner.clock.now_ns() } else { 0 };
        job.answer(resp);
        if tracing {
            let sent = inner.clock.now_ns();
            if job.span_id != NO_PARENT {
                inner.tracer.record_span(
                    "serve.respond",
                    "serve",
                    tid,
                    job.span_id,
                    send_start,
                    sent,
                    Vec::new(),
                );
            }
            finish_request(inner, tid, &job, now_ns, sent, outcome);
        }
    }
}

// --------------------------------------------------------------------
// background refresh worker

/// Periodically folds the replay buffer back into the model. Errors
/// (buffer not full enough yet, registry frozen, lost publish race) are
/// expected between ticks and simply retried at the next interval.
fn refresh_main(inner: &Inner) {
    let cfg = inner
        .cfg
        .refresh
        .clone()
        .expect("refresh worker spawned only when configured");
    let mut last = Instant::now();
    let mut last_skip_reason = String::new();
    while !inner.stop.load(Ordering::SeqCst) {
        std::thread::sleep(Duration::from_millis(20));
        if last.elapsed() < cfg.interval {
            continue;
        }
        last = Instant::now();
        match refresh_once(
            inner.engines.primary(),
            &inner.registry,
            &inner.replay,
            &cfg,
        ) {
            Ok(outcome) => {
                inner.flush_cache();
                inner.tracer.instant(
                    "serve.refresh",
                    "lifecycle",
                    0,
                    vec![("version", ArgValue::U64(outcome.version))],
                );
                last_skip_reason.clear();
                eprintln!(
                    "[serve] refresh published v{} ({} replayed, {} trained on, \
                     disagreement {:.4} → {:.4})",
                    outcome.version,
                    outcome.replayed,
                    outcome.trained_on,
                    outcome.disagreement_before,
                    outcome.disagreement_after
                );
            }
            // expected between ticks (buffer filling, frozen registry)
            // but surfaced on every change of reason: a loop that
            // silently never publishes is indistinguishable from a
            // healthy idle one otherwise
            Err(reason) => {
                if reason != last_skip_reason {
                    eprintln!("[serve] refresh skipped: {reason}");
                    last_skip_reason = reason;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::VirtualClock;
    use crate::protocol::{encode_line, Query};
    use crate::transport::TcpClient;
    use ai2_dse::{Budget, DseDataset, DseTask, GenerateConfig, Objective};
    use airchitect::train::TrainConfig;
    use airchitect::ModelConfig;
    use std::io::{BufRead, BufReader, Write};

    fn trained_checkpoint() -> (Arc<EvalEngine>, ModelCheckpoint) {
        let task = DseTask::table_i_default();
        let ds = DseDataset::generate(
            &task,
            &GenerateConfig {
                num_samples: 50,
                seed: 33,
                threads: 2,
                ..GenerateConfig::default()
            },
        );
        let engine = EvalEngine::shared(task);
        let mut model = Airchitect2::with_engine(&ModelConfig::tiny(), Arc::clone(&engine), &ds);
        model.fit(&ds, &TrainConfig::quick());
        (engine, model.checkpoint())
    }

    fn gemm_req(id: u64, m: u64) -> RecommendRequest {
        RecommendRequest {
            id,
            query: Query::Gemm {
                m,
                n: 300,
                k: 150,
                dataflow: "ws".into(),
            },
            objective: Objective::Latency,
            budget: Budget::Edge,
            deadline_ms: None,
            backend: None,
            pipeline: None,
        }
    }

    #[test]
    fn service_answers_and_counts() {
        let (engine, ckpt) = trained_checkpoint();
        let service = RecommendService::start(
            ServeConfig {
                shards: 2,
                ..ServeConfig::default()
            },
            engine,
            ckpt,
        );
        let client = service.client();
        for i in 0..6 {
            let resp = client.recommend(gemm_req(i, 16 + i));
            assert!(
                matches!(resp, Response::Recommendation(ref r) if r.id == i),
                "unexpected {resp:?}"
            );
        }
        let stats = service.stats();
        assert_eq!(stats.served, 6);
        assert_eq!(stats.errors, 0);
        assert!(stats.p50_us.expect("warm percentiles") > 0.0);
        service.shutdown();
    }

    #[test]
    fn cold_server_stats_round_trip_as_legal_json() {
        // before any request is served the latency window is empty; the
        // percentiles must cross the wire as `null` (never the bare
        // `NaN` literal, which is not legal JSON) and decode back
        let (engine, ckpt) = trained_checkpoint();
        let mut service = RecommendService::start(ServeConfig::default(), engine, ckpt);
        let addr = service.listen("127.0.0.1:0").unwrap();
        let mut tcp = TcpClient::connect(addr).unwrap();

        let line = encode_line(&Response::Stats(service.stats()));
        assert!(!line.contains("NaN"), "NaN leaked onto the wire: {line}");
        assert!(line.contains("\"p50_us\":null"), "expected null: {line}");

        let resp = tcp
            .send(&Request::Admin(AdminRequest::Stats { id: 4 }))
            .unwrap();
        let Response::Stats(s) = resp else {
            panic!("expected stats, got {resp:?}");
        };
        assert_eq!(s.id, 4);
        assert_eq!(s.served, 0);
        assert_eq!((s.p50_us, s.p95_us, s.p99_us), (None, None, None));
        service.shutdown();
    }

    #[test]
    fn response_cache_never_mixes_backends() {
        let (engine, ckpt) = trained_checkpoint();
        let service = RecommendService::start(ServeConfig::default(), engine, ckpt);
        let client = service.client();
        let mut sys = gemm_req(1, 64);
        sys.backend = Some("systolic".into());
        let ana = gemm_req(2, 64); // same canonical GEMM, analytic backend
        let first_sys = client.recommend(sys.clone());
        let first_ana = client.recommend(ana.clone());
        // different backends: the second answer must NOT come from the
        // first one's cache slot
        assert_eq!(service.stats().cache_hits, 0);
        let (Response::Recommendation(s), Response::Recommendation(a)) = (&first_sys, &first_ana)
        else {
            panic!("expected recommendations: {first_sys:?} / {first_ana:?}");
        };
        assert_eq!(s.backend, "systolic");
        assert_eq!(a.backend, "analytic");
        assert_ne!(s.cost.to_bits(), a.cost.to_bits());
        // repeating each query hits its own per-backend slot
        let mut sys2 = sys.clone();
        sys2.id = 3;
        let again = client.recommend(sys2);
        assert_eq!(service.stats().cache_hits, 1);
        let Response::Recommendation(s2) = &again else {
            panic!("expected recommendation: {again:?}");
        };
        assert_eq!(s2.cost.to_bits(), s.cost.to_bits());
        assert_eq!(s2.backend, "systolic");
        service.shutdown();
    }

    #[test]
    fn repeated_queries_hit_the_response_cache() {
        let (engine, ckpt) = trained_checkpoint();
        let service = RecommendService::start(ServeConfig::default(), engine, ckpt);
        let client = service.client();
        let first = client.recommend(gemm_req(1, 64));
        let second = client.recommend(gemm_req(2, 64)); // same canonical query
        let stats = service.stats();
        assert_eq!(stats.cache_hits, 1);
        // identical content modulo the echoed id
        let (Response::Recommendation(a), Response::Recommendation(b)) = (&first, &second) else {
            panic!("expected recommendations");
        };
        assert_eq!(a.point, b.point);
        assert_eq!(a.cost.to_bits(), b.cost.to_bits());
        assert_eq!(b.id, 2);
        service.shutdown();
    }

    fn staged_pipelines() -> PipelineSet {
        use ai2_dse::pipeline::{RefineMethod, StageCfg};
        PipelineSet::with(&[ai2_dse::PipelineCfg {
            name: "staged".into(),
            stages: vec![
                StageCfg::Predict { backend: None },
                StageCfg::Refine {
                    method: RefineMethod::Annealing,
                    budget: 16,
                    seed: 3,
                    backend: None,
                },
                StageCfg::Verify {
                    k: 2,
                    backend: ai2_dse::BackendId::Systolic,
                },
            ],
        }])
        .unwrap()
    }

    #[test]
    fn pipelines_are_listed_counted_and_cached_separately() {
        let (engine, ckpt) = trained_checkpoint();
        let service = RecommendService::start(
            ServeConfig {
                pipelines: staged_pipelines(),
                ..ServeConfig::default()
            },
            engine,
            ckpt,
        );
        let client = service.client();

        // the admin listing names every compiled pipeline with its stages
        let listing = client.request(Request::Admin(AdminRequest::Pipelines { id: 11 }));
        let Response::Pipelines { id: 11, pipelines } = &listing else {
            panic!("expected pipelines listing, got {listing:?}");
        };
        assert_eq!(
            pipelines
                .iter()
                .map(|p| p.name.as_str())
                .collect::<Vec<_>>(),
            ["default", "staged"]
        );
        assert_eq!(pipelines[1].stages, ["predict", "refine", "verify"]);

        // same canonical GEMM through both pipelines: two distinct cache
        // identities, answered and counted separately
        let default_resp = client.recommend(gemm_req(1, 64));
        let mut staged_req = gemm_req(2, 64);
        staged_req.pipeline = Some("staged".into());
        let staged_resp = client.recommend(staged_req.clone());
        assert_eq!(
            service.stats().cache_hits,
            0,
            "staged answers must not come from the default pipeline's slot"
        );
        let (Response::Recommendation(d), Response::Recommendation(s)) =
            (&default_resp, &staged_resp)
        else {
            panic!("expected recommendations: {default_resp:?} / {staged_resp:?}");
        };
        assert_eq!(d.backend, "analytic");
        assert_eq!(s.backend, "systolic", "verify stage re-scored the top-k");

        // repeating the staged query hits its own cache slot
        let mut again = staged_req.clone();
        again.id = 3;
        let hit = client.recommend(again);
        assert_eq!(service.stats().cache_hits, 1);
        let Response::Recommendation(h) = &hit else {
            panic!("expected recommendation: {hit:?}");
        };
        assert_eq!(h.cost.to_bits(), s.cost.to_bits());

        // per-pipeline served counts (cache hits included)
        let stats = service.stats();
        let count = |name: &str| {
            stats
                .pipelines
                .iter()
                .find(|p| p.name == name)
                .map(|p| p.served)
        };
        assert_eq!(count("default"), Some(1));
        assert_eq!(count("staged"), Some(2));

        // an unknown pipeline answers an error and counts nowhere
        let mut bad = gemm_req(4, 64);
        bad.pipeline = Some("warp".into());
        let err = client.recommend(bad);
        assert!(
            matches!(&err, Response::Error { id: 4, message } if message.contains("unknown pipeline")),
            "unexpected {err:?}"
        );
        assert_eq!(service.stats().errors, 1);
        service.shutdown();
    }

    #[test]
    fn zero_deadline_requests_expire() {
        let (engine, ckpt) = trained_checkpoint();
        let service = RecommendService::start(ServeConfig::default(), engine, ckpt);
        let client = service.client();
        let mut req = gemm_req(42, 32);
        req.deadline_ms = Some(0);
        let resp = client.recommend(req);
        assert!(
            matches!(resp, Response::Error { id: 42, ref message } if message.contains("deadline")),
            "unexpected {resp:?}"
        );
        assert_eq!(service.stats().deadline_expired, 1);
        service.shutdown();
    }

    #[test]
    fn hostile_inputs_do_not_kill_the_service() {
        let (engine, ckpt) = trained_checkpoint();
        let service = RecommendService::start(
            ServeConfig {
                shards: 1, // a single shard: one panic would deadlock everything
                ..ServeConfig::default()
            },
            engine,
            ckpt,
        );
        let client = service.client();
        // zero-dimension GEMM: error response, not a shard panic
        let mut zero = gemm_req(1, 10);
        zero.query = Query::Gemm {
            m: 0,
            n: 1,
            k: 1,
            dataflow: "ws".into(),
        };
        let resp = client.recommend(zero);
        assert!(
            matches!(resp, Response::Error { id: 1, ref message } if message.contains("invalid")),
            "unexpected {resp:?}"
        );
        // absurd deadline: no nanosecond overflow, treated as unbounded
        let mut forever = gemm_req(2, 20);
        forever.deadline_ms = Some(u64::MAX);
        assert!(matches!(
            client.recommend(forever),
            Response::Recommendation(_)
        ));
        // the lone shard is still alive and answering
        assert!(matches!(
            client.recommend(gemm_req(3, 30)),
            Response::Recommendation(_)
        ));
        service.shutdown();
    }

    /// A second, differently-seeded trained checkpoint over the same
    /// task (predicts differently from `trained_checkpoint`).
    fn other_checkpoint(engine: &Arc<EvalEngine>) -> ModelCheckpoint {
        let ds = DseDataset::generate(
            engine.task(),
            &GenerateConfig {
                num_samples: 60,
                seed: 77,
                threads: 2,
                ..GenerateConfig::default()
            },
        );
        let mut model = Airchitect2::with_engine(
            &ModelConfig {
                seed: 99,
                ..ModelConfig::tiny()
            },
            Arc::clone(engine),
            &ds,
        );
        model.fit(&ds, &TrainConfig::quick());
        model.checkpoint()
    }

    #[test]
    fn swap_adopts_the_new_replica_and_flushes_the_cache() {
        let (engine, ckpt) = trained_checkpoint();
        let service =
            RecommendService::start(ServeConfig::default(), Arc::clone(&engine), ckpt.clone());
        let client = service.client();
        assert_eq!(service.model_version(), 0);

        // warm the cache on the seed replica
        let before = client.recommend(gemm_req(1, 64));
        let Response::Recommendation(before) = &before else {
            panic!("expected recommendation: {before:?}");
        };

        // publish a different model at version 1
        let next = other_checkpoint(&engine).with_version(1);
        let version = service.swap_checkpoint(next.clone(), false).unwrap();
        assert_eq!(version, 1);
        assert_eq!(service.model_version(), 1);
        assert_eq!(service.stats().swaps, 1);

        // the same canonical query must now be answered by the new
        // replica, not the stale cache slot
        let after = client.recommend(gemm_req(2, 64));
        let Response::Recommendation(after) = &after else {
            panic!("expected recommendation: {after:?}");
        };
        assert_eq!(
            service.stats().cache_hits,
            0,
            "swap must flush the response cache"
        );
        let replica = Airchitect2::from_checkpoint(Arc::clone(&engine), &next).unwrap();
        let input = gemm_req(2, 64).query.as_dse_input().unwrap();
        let expect = replica.predict(std::slice::from_ref(&input))[0];
        assert_eq!(
            after.point, expect,
            "post-swap answers come from the new replica"
        );
        // (the two models may happen to agree on some inputs; the cache
        // assertion above is the load-bearing one)
        let _ = before;
        service.shutdown();
    }

    #[test]
    fn quantized_shards_serve_the_int8_flavor() {
        let (engine, ckpt) = trained_checkpoint();
        let service = RecommendService::start(
            ServeConfig {
                shards: 1,
                quantized_shards: vec![0],
                cache_capacity: 0,
                ..ServeConfig::default()
            },
            Arc::clone(&engine),
            ckpt.clone(),
        );
        let client = service.client();
        // reference: an independent replica under the same deterministic
        // quantization — the shard's answers must match it exactly
        let mut replica = Airchitect2::from_checkpoint(Arc::clone(&engine), &ckpt).unwrap();
        replica.quantize_decoder();
        for i in 0..5 {
            let req = gemm_req(i, 16 + 9 * i);
            let input = req.query.as_dse_input().unwrap();
            let expect = replica.predict(std::slice::from_ref(&input))[0];
            let resp = client.recommend(req);
            let Response::Recommendation(rec) = &resp else {
                panic!("expected recommendation: {resp:?}");
            };
            assert_eq!(rec.point, expect, "request {i}");
        }
        let stats = service.stats();
        assert_eq!(stats.quantized_shards, 1);
        assert_eq!(stats.kernel, ai2_tensor::kernel::active().name());

        // a swap re-applies the shard's flavor to the incoming replica
        let next = other_checkpoint(&engine).with_version(1);
        service.swap_checkpoint(next.clone(), false).unwrap();
        let mut next_replica = Airchitect2::from_checkpoint(Arc::clone(&engine), &next).unwrap();
        next_replica.quantize_decoder();
        let req = gemm_req(9, 77);
        let input = req.query.as_dse_input().unwrap();
        let expect = next_replica.predict(std::slice::from_ref(&input))[0];
        let resp = client.recommend(req);
        let Response::Recommendation(rec) = &resp else {
            panic!("expected recommendation: {resp:?}");
        };
        assert_eq!(rec.point, expect, "post-swap answers stay quantized");
        service.shutdown();
    }

    #[test]
    fn published_flavor_respects_per_shard_config() {
        let (engine, ckpt) = trained_checkpoint();
        // a checkpoint *carrying* an int8 blob handed to an f32-only
        // service: the unlisted shard must clear the flavor and answer
        // in full precision — per-shard config, not the publisher,
        // decides serving precision
        let flavored = ckpt.clone().quantized();
        assert!(flavored.is_quantized());
        let service = RecommendService::start(
            ServeConfig {
                shards: 1,
                cache_capacity: 0,
                ..ServeConfig::default()
            },
            Arc::clone(&engine),
            flavored,
        );
        let f32_replica = Airchitect2::from_checkpoint(Arc::clone(&engine), &ckpt).unwrap();
        let req = gemm_req(1, 64);
        let input = req.query.as_dse_input().unwrap();
        let expect = f32_replica.predict(std::slice::from_ref(&input))[0];
        let resp = service.client().recommend(req);
        let Response::Recommendation(rec) = &resp else {
            panic!("expected recommendation: {resp:?}");
        };
        assert_eq!(rec.point, expect, "flavor must not leak onto an f32 shard");
        assert_eq!(service.stats().quantized_shards, 0);
        service.shutdown();
    }

    #[test]
    fn stale_version_and_frozen_swaps_are_rejected() {
        let (engine, ckpt) = trained_checkpoint();
        let service =
            RecommendService::start(ServeConfig::default(), Arc::clone(&engine), ckpt.clone());
        // version 0 does not advance version 0
        let err = service.swap_checkpoint(ckpt.clone(), false).unwrap_err();
        assert!(err.contains("does not advance"), "{err}");
        // bump overrides: re-stamps at live+1
        assert_eq!(service.swap_checkpoint(ckpt.clone(), true).unwrap(), 1);
        // freeze gates further publishes
        let client = service.client();
        let ack = client.request(Request::Admin(AdminRequest::Freeze {
            id: 5,
            frozen: true,
        }));
        assert!(
            matches!(&ack, Response::Admin(a) if a.frozen && a.id == 5 && a.op == "freeze"),
            "unexpected {ack:?}"
        );
        assert!(service.stats().frozen);
        let err = service.swap_checkpoint(ckpt.clone(), true).unwrap_err();
        assert!(err.contains("frozen"), "{err}");
        // serving is unaffected by the freeze
        assert!(matches!(
            client.recommend(gemm_req(9, 40)),
            Response::Recommendation(_)
        ));
        service.shutdown();
    }

    #[test]
    fn swap_and_freeze_work_over_tcp() {
        let (engine, ckpt) = trained_checkpoint();
        let mut service =
            RecommendService::start(ServeConfig::default(), Arc::clone(&engine), ckpt.clone());
        let addr = service.listen("127.0.0.1:0").unwrap();
        let mut tcp = TcpClient::connect(addr).unwrap();

        let dir = std::env::temp_dir().join("ai2_serve_swap_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("next.json");
        other_checkpoint(&engine)
            .with_version(3)
            .save(&path)
            .unwrap();

        // a missing file answers an error, not a dead connection
        let bad = tcp
            .send(&Request::Admin(AdminRequest::Swap {
                id: 1,
                path: dir.join("nope.json").to_string_lossy().into_owned(),
                bump: None,
            }))
            .unwrap();
        assert!(
            matches!(&bad, Response::Error { id: 1, message } if message.contains("swap rejected")),
            "unexpected {bad:?}"
        );

        let ack = tcp
            .send(&Request::Admin(AdminRequest::Swap {
                id: 2,
                path: path.to_string_lossy().into_owned(),
                bump: None,
            }))
            .unwrap();
        assert!(
            matches!(&ack, Response::Admin(a) if a.id == 2 && a.op == "swap" && a.model_version == 3),
            "unexpected {ack:?}"
        );
        let stats = tcp
            .send(&Request::Admin(AdminRequest::Stats { id: 3 }))
            .unwrap();
        assert!(
            matches!(&stats, Response::Stats(s) if s.model_version == 3 && s.swaps == 1),
            "unexpected {stats:?}"
        );
        // queries still answer across the connection that swapped
        let resp = tcp.send(&Request::Recommend(gemm_req(4, 33))).unwrap();
        assert!(matches!(resp, Response::Recommendation(_)));
        std::fs::remove_file(path).ok();
        service.shutdown();
    }

    #[test]
    fn served_gemm_queries_land_in_the_replay_buffer() {
        let (engine, ckpt) = trained_checkpoint();
        let service = RecommendService::start(ServeConfig::default(), engine, ckpt);
        let client = service.client();
        for i in 0..5 {
            client.recommend(gemm_req(i, 16 + i));
        }
        // a cache hit must not re-record
        client.recommend(gemm_req(9, 16));
        assert_eq!(service.replay_len(), 5);
        assert_eq!(service.stats().replay_len, 5);
        service.shutdown();
    }

    #[test]
    fn slow_writers_are_not_torn_by_read_timeouts() {
        let (engine, ckpt) = trained_checkpoint();
        let mut service = RecommendService::start(ServeConfig::default(), engine, ckpt);
        let addr = service.listen("127.0.0.1:0").unwrap();
        let stream = std::net::TcpStream::connect(addr).unwrap();
        let mut writer = stream.try_clone().unwrap();
        let mut reader = BufReader::new(stream);
        // write the request in two halves with a pause longer than the
        // connection read timeout; the fragment must survive the timeout
        let wire = encode_line(&Request::Recommend(gemm_req(7, 55))) + "\n";
        let (head, tail) = wire.split_at(wire.len() / 2);
        writer.write_all(head.as_bytes()).unwrap();
        writer.flush().unwrap();
        std::thread::sleep(Duration::from_millis(450));
        writer.write_all(tail.as_bytes()).unwrap();
        writer.flush().unwrap();
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        let resp: Response = decode_line(&line).unwrap();
        assert!(
            matches!(resp, Response::Recommendation(ref r) if r.id == 7),
            "torn request: {resp:?}"
        );
        service.shutdown();
    }

    #[test]
    fn tcp_roundtrip_matches_in_process_answers() {
        let (engine, ckpt) = trained_checkpoint();
        let mut service = RecommendService::start(ServeConfig::default(), engine, ckpt);
        let addr = service.listen("127.0.0.1:0").unwrap();
        let mut tcp = TcpClient::connect(addr).unwrap();
        let req = gemm_req(5, 48);
        let over_wire = tcp.send(&Request::Recommend(req.clone())).unwrap();
        let in_process = service.client().recommend(gemm_req(6, 48));
        let (Response::Recommendation(a), Response::Recommendation(b)) = (&over_wire, &in_process)
        else {
            panic!("expected recommendations: {over_wire:?} / {in_process:?}");
        };
        assert_eq!(a.point, b.point);
        assert_eq!(a.cost.to_bits(), b.cost.to_bits());
        let stats = tcp
            .send(&Request::Admin(AdminRequest::Stats { id: 9 }))
            .unwrap();
        assert!(matches!(stats, Response::Stats(ref s) if s.id == 9 && s.served == 2));
        // malformed lines answer an error instead of killing the link
        tcp.writer.write_all(b"{not json}\n").unwrap();
        let mut line = String::new();
        tcp.reader.read_line(&mut line).unwrap();
        let garbage: Response = decode_line(&line).unwrap();
        assert!(matches!(garbage, Response::Error { .. }));
        service.shutdown();
    }

    // ----------------------------------------------------------------
    // manually stepped driver

    fn manual_service() -> (RecommendService, Arc<VirtualClock>) {
        let (engine, ckpt) = trained_checkpoint();
        let clock = Arc::new(VirtualClock::new());
        let service = RecommendService::start_with(
            ServeConfig {
                shards: 2,
                driver: Driver::Manual,
                ..ServeConfig::default()
            },
            engine,
            ckpt,
            Arc::clone(&clock) as Arc<dyn Clock>,
        );
        (service, clock)
    }

    #[test]
    fn stepped_driver_answers_bit_identically_to_threaded() {
        let (engine, ckpt) = trained_checkpoint();
        let threaded =
            RecommendService::start(ServeConfig::default(), Arc::clone(&engine), ckpt.clone());
        let expected: Vec<Response> = (0..4)
            .map(|i| threaded.client().recommend(gemm_req(i, 20 + 7 * i)))
            .collect();
        threaded.shutdown();

        let (service, _clock) = manual_service();
        let client = service.client();
        let pendings: Vec<Pending> = (0..4)
            .map(|i| client.submit(gemm_req(i, 20 + 7 * i)))
            .collect();
        // nothing answers until a step runs
        assert!(pendings.iter().all(|p| p.poll().is_none()));
        let mut guard = 0;
        while service.queued() > 0 {
            service.step_shard(guard % service.shards());
            guard += 1;
            assert!(guard < 100, "stepping never drained the queue");
        }
        for (pending, expect) in pendings.iter().zip(&expected) {
            let got = pending.poll().expect("answered after stepping");
            let (Response::Recommendation(a), Response::Recommendation(b)) = (&got, expect) else {
                panic!("expected recommendations: {got:?} / {expect:?}");
            };
            assert_eq!(a.point, b.point);
            assert_eq!(a.cost.to_bits(), b.cost.to_bits());
        }
        // an empty queue steps as a no-op
        assert!(!service.step_shard(0));
        service.shutdown();
    }

    #[test]
    fn stepped_deadlines_expire_only_when_the_virtual_clock_passes_them() {
        let (service, clock) = manual_service();
        let client = service.client();
        let mut before = gemm_req(1, 31);
        before.deadline_ms = Some(5);
        let mut after = gemm_req(2, 33);
        after.deadline_ms = Some(5);

        let p1 = client.submit(before);
        service.step_shard(0);
        assert!(
            matches!(p1.poll(), Some(Response::Recommendation(_))),
            "clock has not moved: the deadline cannot have expired"
        );

        let p2 = client.submit(after);
        clock.advance_ms(6); // past the 5 ms deadline
        service.step_shard(0);
        let got = p2.poll().expect("answered");
        assert!(
            matches!(got, Response::Error { id: 2, ref message } if message.contains("deadline")),
            "unexpected {got:?}"
        );
        assert_eq!(service.stats().deadline_expired, 1);
        service.shutdown();
    }

    // ----------------------------------------------------------------
    // tracing

    #[test]
    fn tracing_captures_the_request_tree() {
        let (service, _clock) = manual_service();
        service.set_tracing(true);
        let client = service.client();

        let p1 = client.submit(gemm_req(1, 64));
        assert_eq!(service.stats().queue_depth, 1, "admitted but not drained");
        while service.queued() > 0 {
            service.step_shard(0);
        }
        let p2 = client.submit(gemm_req(2, 64)); // same canonical query → cache hit
        while service.queued() > 0 {
            service.step_shard(0);
        }
        assert!(matches!(p1.poll(), Some(Response::Recommendation(_))));
        assert!(matches!(p2.poll(), Some(Response::Recommendation(_))));

        let stats = service.stats();
        assert_eq!(stats.queue_depth, 0);
        assert!(stats.batch_size_p50.expect("batches ran") >= 1.0);
        assert!(stats.batch_size_p95.is_some());

        let records = service.trace_records();
        let named = |n: &str| records.iter().filter(|r| r.name == n).collect::<Vec<_>>();
        let str_arg = |r: &SpanRecord, key: &str| {
            r.args.iter().find_map(|(k, v)| match v {
                ArgValue::Str(s) if *k == key => Some(s.clone()),
                _ => None,
            })
        };

        // one request root per admission, tagged with its outcome
        let requests = named("serve.request");
        assert_eq!(requests.len(), 2, "{records:#?}");
        let mut outcomes: Vec<String> = requests
            .iter()
            .filter_map(|r| str_arg(r, "outcome"))
            .collect();
        outcomes.sort();
        assert_eq!(outcomes, ["cache_hit", "computed"]);
        for root in &requests {
            assert_eq!(root.parent, ai2_obs::NO_PARENT);
            assert!(
                records
                    .iter()
                    .any(|r| r.name == "serve.queue_wait" && r.parent == root.id),
                "request root without a queue_wait child"
            );
        }

        // the computed request went through the model under a
        // serve.recommend span, with the kernel sections nested inside
        let recommend = named("serve.recommend");
        assert_eq!(recommend.len(), 1);
        assert!(records
            .iter()
            .any(|r| r.name == "core.predict" && r.parent == recommend[0].id));
        assert!(!named("tensor.gemm").is_empty() || !named("tensor.gemm_tn").is_empty());

        // every drained batch is a root with an assembly child
        let batches = named("serve.batch");
        assert!(!batches.is_empty());
        for batch in &batches {
            assert_eq!(batch.parent, ai2_obs::NO_PARENT);
            assert!(records
                .iter()
                .any(|r| r.name == "serve.batch_assemble" && r.parent == batch.id));
        }
        assert!(records
            .iter()
            .any(|r| r.name == "serve.cache_lookup" && !r.instant));

        // the export is the Chrome trace_event shape, one event per line
        let json = service.trace_json();
        assert!(json.starts_with("{\"traceEvents\":[\n"), "{json}");
        assert!(json.contains("\"serve.request\""));
        assert!(json.ends_with("}\n"), "{json}");
        service.shutdown();
    }

    #[test]
    fn trace_admin_toggles_and_dumps_over_the_wire() {
        let (engine, ckpt) = trained_checkpoint();
        let mut service = RecommendService::start(ServeConfig::default(), engine, ckpt);
        let addr = service.listen("127.0.0.1:0").unwrap();
        let mut tcp = TcpClient::connect(addr).unwrap();

        let ack = tcp
            .send(&Request::Admin(AdminRequest::Trace {
                id: 1,
                enable: Some(true),
                path: None,
            }))
            .unwrap();
        assert!(
            matches!(&ack, Response::Admin(a) if a.id == 1 && a.op == "trace"),
            "unexpected {ack:?}"
        );

        let resp = tcp.send(&Request::Recommend(gemm_req(2, 48))).unwrap();
        assert!(matches!(resp, Response::Recommendation(_)));
        // the response reaches the client before the shard records the
        // request's root span (the span covers the response write); wait
        // for it so the dump below is complete
        for _ in 0..200 {
            if service
                .trace_records()
                .iter()
                .any(|r| r.name == "serve.request")
            {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(5));
        }

        let dir = std::env::temp_dir().join("ai2_serve_trace_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.json");
        let ack = tcp
            .send(&Request::Admin(AdminRequest::Trace {
                id: 3,
                enable: None,
                path: Some(path.to_string_lossy().into_owned()),
            }))
            .unwrap();
        assert!(matches!(&ack, Response::Admin(a) if a.id == 3), "{ack:?}");
        let dumped = std::fs::read_to_string(&path).unwrap();
        assert!(dumped.starts_with("{\"traceEvents\":["), "{dumped}");
        assert!(dumped.contains("\"serve.request\""), "{dumped}");

        // an unwritable path answers an error, not a dead connection
        let bad = tcp
            .send(&Request::Admin(AdminRequest::Trace {
                id: 4,
                enable: None,
                path: Some(
                    dir.join("no/such/dir/t.json")
                        .to_string_lossy()
                        .into_owned(),
                ),
            }))
            .unwrap();
        assert!(
            matches!(&bad, Response::Error { id: 4, message } if message.contains("trace rejected")),
            "unexpected {bad:?}"
        );
        service.shutdown();
    }
}
