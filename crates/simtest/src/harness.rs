//! The simulation driver: expands `(scenario, seed, steps)` into a
//! concrete event sequence over a manually stepped [`RecommendService`]
//! on a [`VirtualClock`] and a [`VirtualTransport`], running the
//! [`Checker`] after every step.
//!
//! Nothing in a run touches wall time, real sockets, or thread
//! scheduling, so the transcript — every event, every completion, every
//! invariant check — is a pure function of the triple. A failing run
//! prints a replay command that reproduces it bit-for-bit.

use std::collections::{HashMap, VecDeque};
use std::path::PathBuf;
use std::sync::{Arc, OnceLock};
use std::time::Duration;

use ai2_bench::queries::nth_query;
use ai2_dse::pipeline::{RefineMethod, StageCfg};
use ai2_dse::{
    BackendId, DseDataset, DseTask, EvalEngine, GenerateConfig, PipelineCfg, PipelineSet,
};
use ai2_serve::protocol::encode_line;
use ai2_serve::{
    AdminRequest, Clock, Delivery, Driver, OverloadPolicy, Query, RecommendRequest,
    RecommendService, RefreshConfig, Request, Response, ServeConfig, Transport, VirtualClock,
    VirtualTransport,
};
use airchitect::train::TrainConfig;
use airchitect::{Airchitect2, ModelCheckpoint, ModelConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::checker::Checker;
use crate::scenario::Scenario;

// --------------------------------------------------------------------
// shared fixture

/// The expensive, fully deterministic part of every run: one trained
/// base checkpoint (version 0) and two differently seeded alternates
/// the swap events publish, saved under a per-process temp directory
/// (checkpoint *content* is deterministic, but two concurrent simtest
/// processes must not tear each other's reads mid-write; paths never
/// appear in transcripts, so replay identity is unaffected).
pub struct Fixture {
    /// The DSE task every engine in the simulation is built over.
    pub task: DseTask,
    /// The checkpoint the service starts from (version 0).
    pub base: ModelCheckpoint,
    /// Alternate trained checkpoints for swap events.
    pub alts: Vec<ModelCheckpoint>,
    /// Where the alternates are saved (server-side `swap` paths).
    pub alt_paths: Vec<PathBuf>,
    /// `base` with a stored int8 decoder blob (quantized scenarios
    /// start from this flavor).
    pub base_q: ModelCheckpoint,
    /// The alternates with stored int8 decoder blobs.
    pub alts_q: Vec<ModelCheckpoint>,
    /// Where the flavored alternates are saved (quantized-scenario
    /// `swap` paths).
    pub alt_paths_q: Vec<PathBuf>,
}

/// The pipeline registry a scenario runs under. With `pipelines` off
/// this is just the built-in `"default"`; with it on, a `"staged"`
/// predict → refine(annealing) → verify(systolic) graph is registered
/// alongside. Called twice per run — once for the service's
/// [`ServeConfig`], once for the checker's oracle — so both sides
/// compile the identical recipe.
pub fn sim_pipelines(enabled: bool) -> PipelineSet {
    if !enabled {
        return PipelineSet::default();
    }
    PipelineSet::with(&[PipelineCfg {
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
                backend: BackendId::Systolic,
            },
        ],
    }])
    .expect("the harness pipeline recipe compiles")
}

/// The process-wide fixture (trained once, shared by every scenario).
pub fn fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let task = DseTask::table_i_default();
        let train = |gen_seed: u64, model_seed: u64, samples: usize| -> ModelCheckpoint {
            let ds = DseDataset::generate(
                &task,
                &GenerateConfig {
                    num_samples: samples,
                    seed: gen_seed,
                    threads: 2,
                    ..GenerateConfig::default()
                },
            );
            let engine = EvalEngine::shared(task.clone());
            let mut model = Airchitect2::with_engine(
                &ModelConfig {
                    seed: model_seed,
                    ..ModelConfig::tiny()
                },
                engine,
                &ds,
            );
            model.fit(&ds, &TrainConfig::quick());
            model.checkpoint()
        };
        let base = train(33, 7, 50);
        let alts = vec![train(77, 99, 60), train(55, 123, 60)];
        let dir = std::env::temp_dir().join(format!("ai2_simtest_{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create simtest fixture dir");
        let alt_paths: Vec<PathBuf> = alts
            .iter()
            .enumerate()
            .map(|(i, ckpt)| {
                let path = dir.join(format!("alt{i}.json"));
                ckpt.save(&path).expect("save fixture checkpoint");
                path
            })
            .collect();
        let base_q = base.clone().quantized();
        let alts_q: Vec<ModelCheckpoint> =
            alts.iter().map(|ckpt| ckpt.clone().quantized()).collect();
        let alt_paths_q: Vec<PathBuf> = alts_q
            .iter()
            .enumerate()
            .map(|(i, ckpt)| {
                let path = dir.join(format!("alt{i}_q.json"));
                ckpt.save(&path).expect("save flavored fixture checkpoint");
                path
            })
            .collect();
        Fixture {
            task,
            base,
            alts,
            alt_paths,
            base_q,
            alts_q,
            alt_paths_q,
        }
    })
}

// --------------------------------------------------------------------
// reports

/// Why (and when) a run failed.
#[derive(Debug, Clone)]
pub struct SimFailure {
    /// 1-based step the violation surfaced at (`steps + 1` = the
    /// end-of-run drain).
    pub step: usize,
    /// The invariant violation.
    pub message: String,
}

/// Everything one run produced.
#[derive(Debug)]
pub struct SimReport {
    /// Scenario name.
    pub scenario: String,
    /// Seed the event sequence was expanded from.
    pub seed: u64,
    /// Steps requested.
    pub steps: usize,
    /// The full checker transcript (deterministic, byte-for-byte).
    pub transcript: String,
    /// The run's span capture as Chrome `trace_event` JSON — every run
    /// traces (span ids are allocated in admission order and timestamps
    /// come off the virtual clock, so two replays of the same triple
    /// produce **byte-identical** trace files).
    pub trace_json: String,
    /// Invariant coverage counters, alphabetical.
    pub coverage: Vec<(String, u64)>,
    /// The first invariant violation, if any.
    pub failure: Option<SimFailure>,
}

impl SimReport {
    /// Whether the run completed with no invariant violation.
    pub fn passed(&self) -> bool {
        self.failure.is_none()
    }

    /// The command that replays this run bit-for-bit.
    pub fn replay_command(&self) -> String {
        format!(
            "simtest --seed {} --scenarios {} --steps {}",
            self.seed, self.scenario, self.steps
        )
    }
}

// --------------------------------------------------------------------
// the driver

/// What a scripted line will be when it is delivered.
enum LineMeta {
    Recommend {
        id: u64,
        req: RecommendRequest,
    },
    Stats {
        id: u64,
    },
    Swap {
        id: u64,
        alt: usize,
    },
    Freeze {
        id: u64,
        frozen: bool,
    },
    /// A line that must bounce off the decoder with the canonical
    /// malformed-line error.
    Malformed,
}

/// The virtual-clock instant `req`'s deadline falls at when it is
/// admitted at `now` (mirroring the service's checked arithmetic).
fn deadline_at(req: &RecommendRequest, now: u64) -> Option<u64> {
    req.deadline_ms
        .and_then(|ms| ms.checked_mul(1_000_000))
        .and_then(|ns| now.checked_add(ns))
}

struct PendingInfo {
    req: RecommendRequest,
    deadline_ns: Option<u64>,
}

struct SimDriver<'s> {
    sc: &'s Scenario,
    rng: StdRng,
    clock: Arc<VirtualClock>,
    service: RecommendService,
    vt: VirtualTransport,
    checker: Checker,
    /// Per-connection script metadata, mirroring the transport outbox.
    meta: Vec<VecDeque<LineMeta>>,
    pending: HashMap<u64, PendingInfo>,
    /// Recommendation lines actually delivered to the endpoint
    /// (admitted + shed) — the drain's shed-accounting denominator.
    delivered_recs: u64,
    next_id: u64,
    expected_frozen: bool,
    transcript: Vec<String>,
}

/// Runs one scenario for `steps` seeded events plus the end-of-run
/// drain, checking every invariant along the way.
pub fn run_scenario(sc: &Scenario, seed: u64, steps: usize) -> SimReport {
    let fx = fixture();
    let clock = Arc::new(VirtualClock::new());
    let initial = if sc.quantized {
        fx.base_q.clone()
    } else {
        fx.base.clone()
    };
    let service = RecommendService::start_with(
        ServeConfig {
            shards: sc.shards,
            max_batch: sc.max_batch,
            cache_capacity: sc.cache_capacity,
            replay_capacity: 4096,
            refresh: Some(RefreshConfig {
                min_buffer: 6,
                keep_fraction: 0.5,
                train: TrainConfig {
                    stage2_epochs: 4,
                    batch_size: 8,
                    lr_stage2: 5e-4,
                    ..TrainConfig::quick()
                },
                interval: Duration::from_secs(3600),
            }),
            driver: Driver::Manual,
            quantized_shards: if sc.quantized {
                (0..sc.shards).collect()
            } else {
                Vec::new()
            },
            pipelines: sim_pipelines(sc.pipelines),
            overload: if sc.shed_high_water > 0 {
                OverloadPolicy::Shed {
                    high_water: sc.shed_high_water,
                }
            } else {
                OverloadPolicy::Queue
            },
        },
        EvalEngine::shared(fx.task.clone()),
        initial.clone(),
        Arc::clone(&clock) as Arc<dyn Clock>,
    );
    // every run traces: the drain checks the span tree's structure
    // (`trace_well_nested`) and the capture rides along in the report
    // for replay byte-identity checks
    service.set_tracing(true);
    let mut vt = VirtualTransport::new();
    vt.bind().expect("virtual transport bind is infallible");
    vt.run(service.endpoint())
        .expect("virtual transport run is infallible");
    let mut driver = SimDriver {
        rng: StdRng::seed_from_u64(seed),
        clock,
        checker: Checker::new(
            fx.task.clone(),
            &initial,
            sc.quantized,
            sim_pipelines(sc.pipelines),
            sc.shed_high_water,
        ),
        meta: (0..sc.clients + 1).map(|_| VecDeque::new()).collect(),
        pending: HashMap::new(),
        delivered_recs: 0,
        next_id: 1,
        expected_frozen: false,
        transcript: vec![format!(
            "# scenario={} seed={seed} steps={steps} shards={} clients={} cache={}",
            sc.name, sc.shards, sc.clients, sc.cache_capacity
        )],
        sc,
        service,
        vt,
    };
    for _ in 0..sc.clients + 1 {
        driver.vt.open(); // clients 0..N-1 plus the admin connection N
    }

    let mut failure = None;
    for step in 1..=steps {
        if let Err(message) = driver.run_step(step) {
            driver
                .transcript
                .push(format!("[{step:05}] FAIL: {message}"));
            failure = Some(SimFailure { step, message });
            break;
        }
    }
    if failure.is_none() {
        if let Err(message) = driver.drain(steps + 1) {
            driver
                .transcript
                .push(format!("[{:05}] FAIL: {message}", steps + 1));
            failure = Some(SimFailure {
                step: steps + 1,
                message,
            });
        }
    }
    let coverage = driver.checker.coverage();
    for (name, count) in &coverage {
        driver.transcript.push(format!("# coverage {name}={count}"));
    }
    driver.transcript.push(format!(
        "# verdict {}",
        if failure.is_none() { "PASS" } else { "FAIL" }
    ));
    let transcript = driver.transcript.join("\n") + "\n";
    let trace_json = driver.service.trace_json();
    driver.service.shutdown();
    SimReport {
        scenario: sc.name.to_string(),
        seed,
        steps,
        transcript,
        trace_json,
        coverage,
        failure,
    }
}

impl SimDriver<'_> {
    fn fresh_id(&mut self) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    fn admin_conn(&self) -> usize {
        self.sc.clients
    }

    /// A connected client connection, rng-chosen; `None` when every
    /// client has disconnected.
    fn pick_client(&mut self) -> Option<usize> {
        let alive: Vec<usize> = (0..self.sc.clients)
            .filter(|&c| self.vt.connected(c))
            .collect();
        if alive.is_empty() {
            return None;
        }
        let i = self.rng.random_range(0..alive.len() as u64) as usize;
        Some(alive[i])
    }

    fn log(&mut self, step: usize, line: String) {
        self.transcript.push(format!("[{step:05}] {line}"));
    }

    fn run_step(&mut self, step: usize) -> Result<(), String> {
        let w = self.sc.weights;
        let mut pick = self.rng.random_range(0..w.total()) as i64;
        let mut chosen = "submit";
        for (name, weight) in [
            ("submit", w.submit),
            ("deliver", w.deliver),
            ("step", w.step),
            ("advance", w.advance),
            ("swap", w.swap),
            ("freeze", w.freeze),
            ("refresh", w.refresh),
            ("stats", w.stats),
            ("garbage", w.garbage),
            ("disconnect", w.disconnect),
        ] {
            pick -= i64::from(weight);
            if pick < 0 {
                chosen = name;
                break;
            }
        }
        match chosen {
            "submit" => self.ev_submit(step),
            "deliver" => self.ev_deliver(step),
            "step" => self.ev_step_shard(step),
            "advance" => self.ev_advance(step),
            "swap" => self.ev_swap(step),
            "freeze" => self.ev_freeze(step),
            "refresh" => self.ev_refresh(step),
            "stats" => self.ev_stats(step),
            "garbage" => self.ev_garbage(step),
            _ => self.ev_disconnect(step),
        }
    }

    // -- events -------------------------------------------------------

    fn ev_submit(&mut self, step: usize) -> Result<(), String> {
        let Some(conn) = self.pick_client() else {
            self.log(step, "submit: all clients disconnected".into());
            return Ok(());
        };
        let n = self.rng.random_range(0..self.sc.universe);
        let backend = if self.sc.cascade_backends {
            // three-way split: the staged cascade joins the mix, so the
            // same canonical GEMM lands in all three per-backend caches
            match self.rng.random_range(0..3u64) {
                0 => Some("cascade"),
                1 => Some("systolic"),
                _ => None,
            }
        } else if self.sc.mixed_backends && self.rng.random_bool(0.5) {
            Some("systolic")
        } else {
            None
        };
        let pipeline = if self.sc.pipelines && self.rng.random_bool(0.5) {
            Some("staged")
        } else {
            None
        };
        let mut req = nth_query(n, self.sc.models, self.sc.deadline_ms, backend, pipeline);
        req.id = self.fresh_id();
        let delay_ms = if self.sc.straggler && conn == 0 {
            self.sc.max_delay_ms
        } else if self.sc.max_delay_ms > 0 {
            self.rng.random_range(0..=self.sc.max_delay_ms)
        } else {
            0
        };
        let not_before = self.clock.now_ns() + delay_ms * 1_000_000;
        self.vt.enqueue(
            conn,
            encode_line(&Request::Recommend(req.clone())),
            not_before,
        );
        let id = req.id;
        let pipe_note = match req.pipeline.as_deref() {
            Some(name) => format!(" pipeline={name}"),
            None => String::new(),
        };
        self.meta[conn].push_back(LineMeta::Recommend { id, req });
        self.log(
            step,
            format!("submit conn={conn} id={id} n={n} delay_ms={delay_ms}{pipe_note}"),
        );
        Ok(())
    }

    fn ev_deliver(&mut self, step: usize) -> Result<(), String> {
        let eligible: Vec<usize> = (0..self.vt.conns())
            .filter(|&c| self.vt.held_on(c) > 0)
            .collect();
        if eligible.is_empty() {
            self.log(step, "deliver: nothing held".into());
            return Ok(());
        }
        let conn = eligible[self.rng.random_range(0..eligible.len() as u64) as usize];
        let line = self.deliver_one(conn)?;
        self.log(step, line);
        Ok(())
    }

    fn ev_step_shard(&mut self, step: usize) -> Result<(), String> {
        let shard = self.rng.random_range(0..self.sc.shards as u64) as usize;
        let ran = self.service.step_shard(shard);
        self.log(
            step,
            format!("shard={shard} {}", if ran { "batch" } else { "idle" }),
        );
        for line in self.poll_completions()? {
            self.log(step, line);
        }
        Ok(())
    }

    fn ev_advance(&mut self, step: usize) -> Result<(), String> {
        let ms = self.rng.random_range(1..=self.sc.max_advance_ms.max(1));
        let now = self.clock.advance_ms(ms);
        self.log(step, format!("advance +{ms}ms t={now}ns"));
        Ok(())
    }

    /// The alternate checkpoint a swap publishes, in the scenario's
    /// flavor (quantized scenarios swap flavored files so the published
    /// blob — not a re-quantization — is what shards restore).
    fn alt_ckpt(&self, alt: usize) -> &'static ModelCheckpoint {
        if self.sc.quantized {
            &fixture().alts_q[alt]
        } else {
            &fixture().alts[alt]
        }
    }

    fn ev_swap(&mut self, step: usize) -> Result<(), String> {
        let alt = self.rng.random_range(0..fixture().alts.len() as u64) as usize;
        let id = self.fresh_id();
        let admin = self.admin_conn();
        let path = if self.sc.quantized {
            &fixture().alt_paths_q[alt]
        } else {
            &fixture().alt_paths[alt]
        };
        self.vt.enqueue(
            admin,
            encode_line(&Request::Admin(AdminRequest::Swap {
                id,
                path: path.to_string_lossy().into_owned(),
                bump: Some(true),
            })),
            0,
        );
        self.meta[admin].push_back(LineMeta::Swap { id, alt });
        let line = self.deliver_one(admin)?;
        self.log(step, format!("swap alt={alt} → {line}"));
        Ok(())
    }

    fn ev_freeze(&mut self, step: usize) -> Result<(), String> {
        let frozen = self.rng.random_bool(0.5);
        let id = self.fresh_id();
        let admin = self.admin_conn();
        self.vt.enqueue(
            admin,
            encode_line(&Request::Admin(AdminRequest::Freeze { id, frozen })),
            0,
        );
        self.meta[admin].push_back(LineMeta::Freeze { id, frozen });
        let line = self.deliver_one(admin)?;
        self.log(step, line);
        Ok(())
    }

    fn ev_refresh(&mut self, step: usize) -> Result<(), String> {
        match self.service.refresh_now() {
            Ok(outcome) => {
                if self.expected_frozen {
                    return Err(format!(
                        "refresh published v{} while the registry was frozen",
                        outcome.version
                    ));
                }
                let published = self.service.current_checkpoint();
                self.checker.note_publish(outcome.version, &published)?;
                self.log(
                    step,
                    format!(
                        "refresh published v{} replayed={} trained={}",
                        outcome.version, outcome.replayed, outcome.trained_on
                    ),
                );
            }
            Err(reason) => {
                if self.expected_frozen {
                    if !reason.contains("frozen") {
                        return Err(format!(
                            "refresh while frozen failed for the wrong reason: {reason}"
                        ));
                    }
                    self.checker.note_frozen_rejection();
                }
                self.log(step, format!("refresh skipped: {reason}"));
            }
        }
        Ok(())
    }

    fn ev_stats(&mut self, step: usize) -> Result<(), String> {
        let id = self.fresh_id();
        let admin = self.admin_conn();
        self.vt.enqueue(
            admin,
            encode_line(&Request::Admin(AdminRequest::Stats { id })),
            0,
        );
        self.meta[admin].push_back(LineMeta::Stats { id });
        let line = self.deliver_one(admin)?;
        self.log(step, line);
        Ok(())
    }

    fn ev_garbage(&mut self, step: usize) -> Result<(), String> {
        let Some(conn) = self.pick_client() else {
            self.log(step, "garbage: all clients disconnected".into());
            return Ok(());
        };
        let variant = self.rng.random_range(0..6u64);
        let (desc, line, meta) = match variant {
            0 => ("raw", "{not json}".to_string(), LineMeta::Malformed),
            1 => (
                "unknown-admin-field",
                r#"{"Swap":{"id":1,"path":"x.json","bmup":true}}"#.to_string(),
                LineMeta::Malformed,
            ),
            // the rest parse fine and must be answered with the exact
            // oracle error by the shard path
            _ => {
                let id = self.fresh_id();
                let mut req = nth_query(0, false, self.sc.deadline_ms, None, None);
                req.id = id;
                let desc = match variant {
                    2 => {
                        req.query = Query::Gemm {
                            m: 0,
                            n: 8,
                            k: 8,
                            dataflow: "ws".into(),
                        };
                        "zero-dim-gemm"
                    }
                    3 => {
                        req.query = Query::Model {
                            name: "skynet".into(),
                        };
                        "unknown-model"
                    }
                    4 => {
                        req.backend = Some("rtl".into());
                        "unknown-backend"
                    }
                    _ => {
                        req.pipeline = Some("warp".into());
                        "unknown-pipeline"
                    }
                };
                (
                    desc,
                    encode_line(&Request::Recommend(req.clone())),
                    LineMeta::Recommend { id, req },
                )
            }
        };
        self.vt.enqueue(conn, line, 0);
        self.meta[conn].push_back(meta);
        self.log(step, format!("garbage conn={conn} kind={desc}"));
        Ok(())
    }

    fn ev_disconnect(&mut self, step: usize) -> Result<(), String> {
        let Some(conn) = self.pick_client() else {
            self.log(step, "disconnect: all clients already gone".into());
            return Ok(());
        };
        // undelivered lines vanish with the connection; their requests
        // were never admitted (pending entries are created only at
        // delivery), so dropping the script metadata is the whole job
        for meta in self.meta[conn].drain(..) {
            if let LineMeta::Recommend { id, .. } = meta {
                debug_assert!(
                    !self.pending.contains_key(&id),
                    "an undelivered line cannot have been admitted"
                );
            }
        }
        self.vt.disconnect(conn);
        self.log(
            step,
            format!(
                "disconnect conn={conn} (in-flight answers still tracked: {})",
                self.vt.inflight()
            ),
        );
        Ok(())
    }

    // -- shared mechanics ---------------------------------------------

    /// Delivers the front line of `conn` and routes the outcome through
    /// the checker. Returns the transcript summary.
    fn deliver_one(&mut self, conn: usize) -> Result<String, String> {
        let now = self.clock.now_ns();
        match self.vt.deliver_next(conn, now) {
            Delivery::Held => Ok(format!("deliver conn={conn}: held")),
            Delivery::Empty => Ok(format!("deliver conn={conn}: empty")),
            Delivery::Disconnected => Ok(format!("deliver conn={conn}: disconnected")),
            Delivery::Ignored => {
                // a blank keepalive owes no response; its script slot is
                // consumed with it
                self.meta[conn]
                    .pop_front()
                    .ok_or("script metadata desynced from the transport outbox")?;
                Ok(format!("deliver conn={conn}: ignored"))
            }
            Delivery::Submitted => {
                let meta = self.meta[conn]
                    .pop_front()
                    .ok_or("script metadata desynced from the transport outbox")?;
                let LineMeta::Recommend { id, req } = meta else {
                    return Err("a non-recommend line was admitted to the shard queue".into());
                };
                self.delivered_recs += 1;
                let deadline_ns = deadline_at(&req, now);
                self.pending.insert(id, PendingInfo { req, deadline_ns });
                Ok(format!("deliver conn={conn}: admitted id={id}"))
            }
            Delivery::Answered(resp) => {
                let meta = self.meta[conn]
                    .pop_front()
                    .ok_or("script metadata desynced from the transport outbox")?;
                self.handle_inline(conn, meta, resp, now)
            }
        }
    }

    /// Checks an inline (non-shard) answer, delivered at `now`, against
    /// the script.
    fn handle_inline(
        &mut self,
        conn: usize,
        meta: LineMeta,
        resp: Response,
        now: u64,
    ) -> Result<String, String> {
        match meta {
            LineMeta::Malformed => match &resp {
                Response::Error { id: 0, message }
                    if message.contains("malformed request line") =>
                {
                    Ok(format!("conn={conn} malformed line bounced ok"))
                }
                other => Err(format!("hostile line was not rejected cleanly: {other:?}")),
            },
            LineMeta::Stats { id } => match &resp {
                Response::Stats(s) if s.id == id => {
                    let summary = self.checker.check_stats(s, self.expected_frozen)?;
                    Ok(format!("conn={conn} {summary}"))
                }
                other => Err(format!("stats {id} answered {other:?}")),
            },
            LineMeta::Freeze { id, frozen } => match &resp {
                Response::Admin(ack) if ack.id == id => {
                    let summary = self.checker.check_freeze_ack(ack, frozen)?;
                    self.expected_frozen = frozen;
                    Ok(format!("conn={conn} {summary}"))
                }
                other => Err(format!("freeze {id} answered {other:?}")),
            },
            LineMeta::Swap { id, alt } => match &resp {
                Response::Admin(ack) if ack.id == id && ack.op == "swap" => {
                    if self.expected_frozen {
                        return Err(format!(
                            "swap acknowledged v{} while the registry was frozen",
                            ack.model_version
                        ));
                    }
                    let published = self.alt_ckpt(alt);
                    self.checker.note_publish(ack.model_version, published)?;
                    Ok(format!("conn={conn} swap ack v{}", ack.model_version))
                }
                Response::Error { id: eid, message } if *eid == id => {
                    if self.expected_frozen && message.contains("frozen") {
                        self.checker.note_frozen_rejection();
                        Ok(format!("conn={conn} swap rejected while frozen ok"))
                    } else {
                        Err(format!("swap {id} rejected unexpectedly: {message}"))
                    }
                }
                other => Err(format!("swap {id} answered {other:?}")),
            },
            LineMeta::Recommend { id, req } => match &resp {
                // the shed refusal (admission control over high water)
                Response::Error { id: eid, message } if message.contains("shedding") => {
                    self.delivered_recs += 1;
                    self.checker.note_shed(id, *eid, message)?;
                    Ok(format!("conn={conn} shed id={id} ok"))
                }
                // a cache hit answered at admission: checked exactly as
                // a shard completion is, against the version live at
                // delivery (the epoch guard makes it the answering one)
                Response::Recommendation(_) => {
                    self.delivered_recs += 1;
                    let version = self.service.model_version();
                    let summary = self.checker.check_completion(
                        &req,
                        deadline_at(&req, now),
                        &resp,
                        version,
                        now,
                    )?;
                    Ok(format!("conn={conn} inline {summary}"))
                }
                other => Err(format!(
                    "recommend {id} was answered inline with neither a cached \
                     recommendation nor a shed: {other:?}"
                )),
            },
        }
    }

    /// Polls every in-flight submission and checks completions against
    /// the oracle for the version live right now (completions are only
    /// polled immediately after the shard step that produced them, so
    /// the live version *is* the version that answered).
    fn poll_completions(&mut self) -> Result<Vec<String>, String> {
        let now = self.clock.now_ns();
        let version = self.service.model_version();
        let mut lines = Vec::new();
        for (conn, resp) in self.vt.poll() {
            let id = match &resp {
                Response::Recommendation(r) => r.id,
                Response::Error { id, .. } => *id,
                other => return Err(format!("a shard answered {other:?}")),
            };
            let info = self
                .pending
                .remove(&id)
                .ok_or_else(|| format!("completion for unknown or already-answered id {id}"))?;
            let summary =
                self.checker
                    .check_completion(&info.req, info.deadline_ns, &resp, version, now)?;
            lines.push(format!("  conn={conn} {summary}"));
        }
        Ok(lines)
    }

    /// End-of-run drain: release every held line, step shards until the
    /// queue and the in-flight set are empty, then settle the books.
    fn drain(&mut self, step: usize) -> Result<(), String> {
        self.log(step, "drain: begin".into());
        let target = self.vt.latest_hold_ns();
        let now = self.clock.now_ns();
        if target > now {
            self.clock.advance(target - now);
            self.log(
                step,
                format!("drain: clock released held lines (t={target}ns)"),
            );
        }
        for conn in 0..self.vt.conns() {
            while self.vt.connected(conn) && self.vt.held_on(conn) > 0 {
                let line = self.deliver_one(conn)?;
                self.log(step, format!("drain: {line}"));
            }
        }
        let mut spins = 0usize;
        while self.vt.inflight() > 0 || self.service.queued() > 0 {
            let shard = spins % self.sc.shards;
            self.service.step_shard(shard);
            for line in self.poll_completions()? {
                self.log(step, format!("drain: {line}"));
            }
            spins += 1;
            if spins > 10_000 {
                return Err("drain stalled: the queue never emptied".into());
            }
        }
        let mut outstanding: Vec<u64> = self.pending.keys().copied().collect();
        outstanding.sort_unstable();
        self.checker.check_zero_drops(&outstanding)?;
        self.checker.check_shed_accounting(self.delivered_recs)?;
        self.log(
            step,
            format!(
                "drain: shed books balance (delivered={} sheds={})",
                self.delivered_recs, self.checker.sheds
            ),
        );
        let records = self.service.trace_records();
        let summary = self.checker.check_trace(&records)?;
        self.log(step, format!("drain: {summary}"));
        let stats = self.service.stats();
        let summary = self.checker.check_stats(&stats, self.expected_frozen)?;
        self.log(step, format!("drain: complete; {summary}"));
        Ok(())
    }
}
