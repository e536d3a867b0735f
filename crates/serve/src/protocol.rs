//! The newline-delimited-JSON wire protocol of the recommendation
//! service.
//!
//! Every request and response is one JSON document on one line
//! (externally-tagged enums, the vendored serde encoding). `Option`
//! fields are optional on the wire: they may be omitted or sent as
//! explicit `null` (the vendored codec treats a missing `Option` field
//! as `None`, like real serde).
//!
//! Requests are *canonicalised* into a [`QueryKey`] — the response-cache
//! key and the identity under which two textually different requests
//! (case-folded model names, identical GEMM dims) are recognised as the
//! same question. The cost backend is part of that identity: the same
//! GEMM asked under `"analytic"` and `"systolic"` are different
//! questions with differently cached answers.

use std::str::FromStr;

use ai2_dse::{BackendId, Budget, DesignPoint, Objective, ParseBackendError};
use ai2_maestro::Dataflow;
use ai2_workloads::generator::DseInput;
use serde::{Deserialize, Serialize};

/// One request line.
///
/// Decoding is **strict for the admin surface** (see [`AdminRequest`]):
/// admin payloads reject unknown fields with the canonical parse error,
/// because a typo'd operator knob — `"bmup"` for `"bump"` — silently
/// ignored would publish a checkpoint under the wrong version policy.
/// `Recommend` payloads stay lenient: query traffic from newer clients
/// must keep parsing.
///
/// On the wire the admin variants keep their historical **top-level**
/// tags (`{"Stats":…}`, `{"Swap":…}`, …, never `{"Admin":{"Stats":…}}`),
/// so grouping them under one enum changed no bytes — the round-trip
/// tests below pin that.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// A design-space recommendation query.
    Recommend(RecommendRequest),
    /// Any of the strict admin operations, decoded and dispatched as
    /// one surface.
    Admin(AdminRequest),
}

/// The unified admin surface: every operator message the service
/// answers inline (no shard, no queue). One strict decoder and one
/// dispatch point (`server.rs`) handle all five.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub enum AdminRequest {
    /// Service counters and latency percentiles.
    Stats {
        /// Echoed in the response.
        id: u64,
    },
    /// Load a checkpoint from a **server-side** path and publish it
    /// through the model registry. Worker shards pick the new replica
    /// up at their next micro-batch boundary; in-flight requests finish
    /// on the old one. Answered inline with [`Response::Admin`] (or an
    /// error naming the rejection: unreadable file, frozen registry,
    /// non-advancing version).
    Swap {
        /// Echoed in the response.
        id: u64,
        /// Server-side checkpoint path (the file `serve
        /// --save-checkpoint` or the refresh worker wrote).
        path: String,
        /// When `true`, re-stamp the loaded checkpoint at
        /// `live_version + 1` before publishing — the operator path for
        /// re-publishing existing weights (or legacy version-0 files)
        /// without hand-editing version numbers. Omitted/`null` means
        /// the file's own version must advance the live one.
        bump: Option<bool>,
    },
    /// Freeze (`true`) or unfreeze (`false`) publishing. A frozen
    /// registry rejects both admin swaps and background refreshes;
    /// serving is unaffected.
    Freeze {
        /// Echoed in the response.
        id: u64,
        /// Desired freeze state.
        frozen: bool,
    },
    /// List the named recommendation pipelines this server compiled at
    /// startup (`serve --pipelines FILE` plus the built-in
    /// `"default"`), each with its stage kinds in execution order.
    /// Answered with [`Response::Pipelines`].
    Pipelines {
        /// Echoed in the response.
        id: u64,
    },
    /// Control the in-process tracer. `enable: true` starts a fresh
    /// capture (prior spans are discarded so two captures of the same
    /// deterministic run are byte-identical); `enable: false` stops
    /// recording without discarding. `path` writes the current capture
    /// as Chrome `trace_event` JSON to a **server-side** file (load it
    /// at `chrome://tracing` or <https://ui.perfetto.dev>). Both fields
    /// are optional and independent; an unwritable path answers an
    /// error naming the OS failure.
    Trace {
        /// Echoed in the response.
        id: u64,
        /// Desired tracer state; omitted/`null` leaves it unchanged.
        enable: Option<bool>,
        /// Server-side file to dump the Chrome trace JSON to.
        path: Option<String>,
    },
}

impl AdminRequest {
    /// The client-chosen id this operation echoes.
    pub fn id(&self) -> u64 {
        match self {
            AdminRequest::Stats { id }
            | AdminRequest::Swap { id, .. }
            | AdminRequest::Freeze { id, .. }
            | AdminRequest::Pipelines { id }
            | AdminRequest::Trace { id, .. } => *id,
        }
    }
}

// Hand-rolled so the admin variants keep their historical top-level
// wire tags: `Admin(Stats{…})` renders as `{"Stats":…}`, exactly the
// bytes the pre-unification enum produced.
impl Serialize for Request {
    fn to_value(&self) -> serde::Value {
        match self {
            Request::Recommend(req) => {
                serde::Value::Object(vec![("Recommend".to_string(), req.to_value())])
            }
            Request::Admin(admin) => admin.to_value(),
        }
    }
}

/// Rejects a payload object carrying fields outside `known` — the
/// strict half of the admin wire contract. The message follows the
/// vendored codec's canonical parse-error shape, so a strict rejection
/// reads exactly like any other malformed-line error on the wire.
fn deny_unknown_fields(
    content: &serde::Value,
    what: &str,
    known: &[&str],
) -> Result<(), serde::DeError> {
    if let serde::Value::Object(entries) = content {
        for (key, _) in entries {
            if !known.contains(&key.as_str()) {
                return Err(serde::DeError(format!(
                    "unknown field {key:?} in {what} (expected {})",
                    known.join(", ")
                )));
            }
        }
    }
    Ok(())
}

// Hand-rolled (the vendored derive has no `deny_unknown_fields`): the
// admin variants are strict, `Recommend` delegates to the lenient
// derived decoding of its payload.
impl serde::Deserialize for Request {
    fn from_value(v: &serde::Value) -> Result<Self, serde::DeError> {
        match v {
            serde::Value::Object(entries) if entries.len() == 1 => {
                let (tag, content) = &entries[0];
                match tag.as_str() {
                    "Recommend" => Ok(Request::Recommend(serde::Deserialize::from_value(content)?)),
                    "Stats" => {
                        deny_unknown_fields(content, "Stats", &["id"])?;
                        Ok(Request::Admin(AdminRequest::Stats {
                            id: serde::de_field(content, "id")?,
                        }))
                    }
                    "Swap" => {
                        deny_unknown_fields(content, "Swap", &["id", "path", "bump"])?;
                        Ok(Request::Admin(AdminRequest::Swap {
                            id: serde::de_field(content, "id")?,
                            path: serde::de_field(content, "path")?,
                            bump: serde::de_field(content, "bump")?,
                        }))
                    }
                    "Freeze" => {
                        deny_unknown_fields(content, "Freeze", &["id", "frozen"])?;
                        Ok(Request::Admin(AdminRequest::Freeze {
                            id: serde::de_field(content, "id")?,
                            frozen: serde::de_field(content, "frozen")?,
                        }))
                    }
                    "Pipelines" => {
                        deny_unknown_fields(content, "Pipelines", &["id"])?;
                        Ok(Request::Admin(AdminRequest::Pipelines {
                            id: serde::de_field(content, "id")?,
                        }))
                    }
                    "Trace" => {
                        deny_unknown_fields(content, "Trace", &["id", "enable", "path"])?;
                        Ok(Request::Admin(AdminRequest::Trace {
                            id: serde::de_field(content, "id")?,
                            enable: serde::de_field(content, "enable")?,
                            path: serde::de_field(content, "path")?,
                        }))
                    }
                    other => Err(serde::DeError(format!("unknown Request variant {other:?}"))),
                }
            }
            other => Err(serde::DeError(format!("expected Request, got {other:?}"))),
        }
    }
}

// Delegates to the `Request` decoder so the strictness rules (and their
// error messages) exist in exactly one place.
impl serde::Deserialize for AdminRequest {
    fn from_value(v: &serde::Value) -> Result<Self, serde::DeError> {
        match Request::from_value(v)? {
            Request::Admin(admin) => Ok(admin),
            Request::Recommend(_) => Err(serde::DeError(
                "expected an admin request, got Recommend".to_string(),
            )),
        }
    }
}

impl serde::Deserialize for AdminAck {
    fn from_value(v: &serde::Value) -> Result<Self, serde::DeError> {
        deny_unknown_fields(v, "AdminAck", &["id", "op", "model_version", "frozen"])?;
        Ok(AdminAck {
            id: serde::de_field(v, "id")?,
            op: serde::de_field(v, "op")?,
            model_version: serde::de_field(v, "model_version")?,
            frozen: serde::de_field(v, "frozen")?,
        })
    }
}

/// A recommendation query: *what hardware should run this workload?*
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RecommendRequest {
    /// Client-chosen id, echoed in the response.
    pub id: u64,
    /// The workload to recommend hardware for.
    pub query: Query,
    /// Optimization metric.
    pub objective: Objective,
    /// Area budget the recommendation is checked against.
    pub budget: Budget,
    /// Per-request deadline in milliseconds from admission; an expired
    /// request answers with an error instead of occupying a shard.
    pub deadline_ms: Option<u64>,
    /// Cost backend verifying the recommendation: `"analytic"` (the
    /// default when omitted or `null`), `"systolic"`, or `"cascade"`
    /// (the multi-fidelity staged evaluator). Unknown names are
    /// rejected with an error response.
    pub backend: Option<String>,
    /// Named recommendation pipeline to answer through; omitted or
    /// `null` selects `"default"` — the degenerate single-stage
    /// pipeline whose answers are bit-identical to the pre-pipeline
    /// server. Unknown names are rejected with an error response.
    pub pipeline: Option<String>,
}

impl RecommendRequest {
    /// The requested cost backend; the parse error (which must answer
    /// an error response, never a panic or a silent default) carries the
    /// canonical "unknown cost backend …" message.
    pub fn backend_id(&self) -> Result<BackendId, ParseBackendError> {
        match &self.backend {
            None => Ok(BackendId::Analytic),
            Some(name) => BackendId::from_str(name),
        }
    }
}

/// The workload of a [`RecommendRequest`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Query {
    /// A single GEMM layer — the paper's per-layer DSE input.
    Gemm {
        /// Rows of `A`/`C`.
        m: u64,
        /// Columns of `B`/`C`.
        n: u64,
        /// Contraction dimension.
        k: u64,
        /// Mapping dataflow, as `"ws"` / `"os"` / `"rs"` (or the long
        /// names [`Dataflow`] parses).
        dataflow: String,
    },
    /// A whole zoo model by name (`"resnet50"`, `"llama2_7b"` …):
    /// per-layer recommendations folded into one deployment
    /// configuration, Method-1 style.
    Model {
        /// Zoo model name, matched case-insensitively.
        name: String,
    },
}

impl Query {
    /// The GEMM query as a [`DseInput`], if it is one and is valid:
    /// all dimensions ≥ 1 (a zero dimension would assert inside
    /// `GemmWorkload::new` — wire input must never reach a panic) and a
    /// parsable dataflow.
    pub fn as_dse_input(&self) -> Option<DseInput> {
        match self {
            Query::Gemm { m, n, k, dataflow } => {
                if *m == 0 || *n == 0 || *k == 0 {
                    return None;
                }
                Some(DseInput {
                    gemm: ai2_maestro::GemmWorkload::new(*m, *n, *k),
                    dataflow: Dataflow::from_str(dataflow).ok()?,
                })
            }
            Query::Model { .. } => None,
        }
    }
}

/// One response line.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Response {
    /// A served recommendation.
    Recommendation(Recommendation),
    /// The stats snapshot.
    Stats(ServeStats),
    /// Acknowledgement of an admin `swap` / `freeze`.
    Admin(AdminAck),
    /// The compiled pipeline registry (answer to
    /// [`AdminRequest::Pipelines`]).
    Pipelines {
        /// Echo of the request id.
        id: u64,
        /// Registered pipelines, registration order (`"default"`
        /// first).
        pipelines: Vec<PipelineInfo>,
    },
    /// The request could not be served (unknown model, bad dataflow,
    /// expired deadline, malformed line — the message says which).
    Error {
        /// Echo of the request id (`0` when the line never parsed).
        id: u64,
        /// Human-readable reason.
        message: String,
    },
}

/// Acknowledgement of a successful admin operation. Like the admin
/// requests it answers, decoding rejects unknown fields: an admin
/// client must notice — not silently drop — acknowledgement content it
/// does not understand.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct AdminAck {
    /// Echo of the request id.
    pub id: u64,
    /// Which operation this acknowledges (`"swap"` / `"freeze"`).
    pub op: String,
    /// Lineage version live after the operation.
    pub model_version: u64,
    /// Freeze state after the operation.
    pub frozen: bool,
}

/// A served hardware recommendation with its engine-verified cost.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Recommendation {
    /// Echo of the request id.
    pub id: u64,
    /// Recommended design point (indices into the Table I grid).
    pub point: DesignPoint,
    /// Concrete hardware: number of processing elements.
    pub num_pes: u32,
    /// Concrete hardware: shared L2 scratchpad bytes.
    pub l2_bytes: u64,
    /// Cost of the recommendation under the requested objective,
    /// verified through the [`ai2_dse::EvalEngine`] (cycles, pJ, or
    /// cycles·pJ). For model queries: the whole-model cost with each
    /// layer on its best dataflow.
    pub cost: f64,
    /// Whether the recommendation fits the requested area budget.
    pub feasible: bool,
    /// Layer entries folded into the answer (1 for GEMM queries).
    pub layers: usize,
    /// The cost backend that verified `cost` (`"analytic"` /
    /// `"systolic"` / `"cascade"`), echoed so clients can tell which
    /// evaluator answered.
    pub backend: String,
}

/// One compiled pipeline, as listed by [`Response::Pipelines`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PipelineInfo {
    /// Registry name (what `"pipeline": "<name>"` selects).
    pub name: String,
    /// Stage kinds in execution order (`"predict"` / `"refine"` /
    /// `"verify"` / `"pareto"`).
    pub stages: Vec<String>,
}

/// Per-pipeline served counter, as reported by [`ServeStats`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PipelineServed {
    /// Pipeline name.
    pub name: String,
    /// Recommendations answered through this pipeline, including cache
    /// hits.
    pub served: u64,
}

/// Service counters and latency percentiles (the `stats` endpoint).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServeStats {
    /// Echo of the request id.
    pub id: u64,
    /// Recommendations answered, including cache hits.
    pub served: u64,
    /// Answers straight from the response cache.
    pub cache_hits: u64,
    /// Requests dropped at dequeue because their deadline had expired.
    pub deadline_expired: u64,
    /// Error responses issued.
    pub errors: u64,
    /// Worker shards.
    pub shards: usize,
    /// Lineage version of the live model replica (bumped by every
    /// published swap/refresh; 0 until a versioned checkpoint is
    /// published).
    pub model_version: u64,
    /// Whether the model registry is frozen (publishes rejected).
    pub frozen: bool,
    /// Checkpoints published over this service's lifetime (admin swaps
    /// plus background refreshes).
    pub swaps: u64,
    /// Served GEMM queries currently held in the replay buffer,
    /// awaiting the next refresh.
    pub replay_len: usize,
    /// Milliseconds since the service started.
    pub uptime_ms: u64,
    /// Served requests per second over the uptime.
    pub throughput_rps: f64,
    /// Jobs admitted to the shared queue but not yet drained by any
    /// shard — the instantaneous backlog.
    pub queue_depth: u64,
    /// Requests refused at admission by the overload policy
    /// ([`crate::OverloadPolicy::Shed`]), each answered inline with the
    /// `"shedding"` error. 0 under the default queue-everything policy.
    pub sheds: u64,
    /// Highest queue depth ever observed at an admission — how close
    /// the service has come to its shed threshold.
    pub queue_high_water: u64,
    /// Median request latency (admission → response), microseconds.
    /// `null` until the first request has been served — `NaN` is not
    /// legal JSON, so a cold server's percentiles are absent, not NaN.
    pub p50_us: Option<f64>,
    /// 95th-percentile latency, microseconds (`null` while cold).
    pub p95_us: Option<f64>,
    /// 99th-percentile latency, microseconds (`null` while cold).
    pub p99_us: Option<f64>,
    /// Median drained micro-batch size (`null` until a batch has run).
    pub batch_size_p50: Option<f64>,
    /// 95th-percentile micro-batch size (`null` while cold).
    pub batch_size_p95: Option<f64>,
    /// Raw-cost evaluations answered from a grid cache, summed over the
    /// per-backend engines.
    pub engine_point_hits: u64,
    /// Raw-cost evaluations that ran a cost backend, summed over the
    /// per-backend engines.
    pub engine_point_misses: u64,
    /// The SIMD dispatch level running this host's f32 tensor kernels
    /// (`"scalar"` / `"sse2"` / `"avx2"` — see `ai2_tensor::kernel`).
    /// Latency baselines recorded under one kernel are not comparable
    /// to runs under another; `bench_gate` refuses the comparison.
    pub kernel: String,
    /// Worker shards serving the int8-quantized decoder flavor
    /// ([`crate::ServeConfig::quantized_shards`]); 0 means every shard
    /// runs the full-precision f32 decoder.
    pub quantized_shards: usize,
    /// Recommendations answered per pipeline (name-sorted, including
    /// cache hits; pipelines that served nothing still appear with 0).
    pub pipelines: Vec<PipelineServed>,
}

/// The canonical identity of a recommendation query — the response-cache
/// key. Objective and budget are part of the identity; the request id and
/// deadline are not.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct QueryKey {
    kind: KeyKind,
    objective: u8,
    /// `f64::to_bits` of the area limit; `u64::MAX` for unbounded.
    budget_bits: u64,
    /// The verifying cost backend — cached answers from one backend must
    /// never be served for another.
    backend: BackendId,
    /// The answering pipeline, normalised (`None` on the wire and an
    /// explicit `"default"` are the same identity). Staged answers must
    /// never be served from a one-shot cache entry or vice versa.
    pipeline: String,
}

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum KeyKind {
    Gemm(u64, u64, u64, u8),
    Model(String),
}

impl QueryKey {
    /// Canonicalises a request. `None` when the query can never be
    /// served (zero GEMM dimension, unparsable dataflow, unknown
    /// backend) — those get error responses, not cache slots.
    pub fn of(req: &RecommendRequest) -> Option<QueryKey> {
        let backend = req.backend_id().ok()?;
        let kind = match &req.query {
            Query::Gemm { m, n, k, dataflow } => {
                req.query.as_dse_input()?;
                let df = Dataflow::from_str(dataflow).ok()?;
                KeyKind::Gemm(*m, *n, *k, df.index() as u8)
            }
            Query::Model { name } => KeyKind::Model(name.to_ascii_lowercase()),
        };
        Some(QueryKey {
            kind,
            objective: match req.objective {
                Objective::Latency => 0,
                Objective::Energy => 1,
                Objective::Edp => 2,
            },
            budget_bits: match req.budget.limit_mm2() {
                Some(limit) => limit.to_bits(),
                None => u64::MAX,
            },
            backend,
            pipeline: req.pipeline.as_deref().unwrap_or("default").to_string(),
        })
    }
}

/// Renders one protocol value as its wire line (no trailing newline).
pub fn encode_line<T: Serialize>(value: &T) -> String {
    serde_json::to_string(value).expect("protocol types always serialize")
}

/// Parses one wire line.
///
/// # Errors
///
/// Returns the codec error on malformed input.
pub fn decode_line<T: Deserialize>(line: &str) -> Result<T, serde_json::Error> {
    serde_json::from_str(line.trim())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gemm_req(id: u64) -> RecommendRequest {
        RecommendRequest {
            id,
            query: Query::Gemm {
                m: 64,
                n: 512,
                k: 256,
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
    fn requests_roundtrip_the_wire() {
        let reqs = [
            Request::Recommend(gemm_req(7)),
            Request::Recommend(RecommendRequest {
                id: 8,
                query: Query::Model {
                    name: "llama2_7b \"edge\"".into(),
                },
                objective: Objective::Edp,
                budget: Budget::Custom(0.31),
                deadline_ms: Some(250),
                backend: Some("systolic".into()),
                pipeline: Some("staged".into()),
            }),
            Request::Admin(AdminRequest::Stats { id: 9 }),
            Request::Admin(AdminRequest::Pipelines { id: 14 }),
            Request::Admin(AdminRequest::Swap {
                id: 10,
                path: "/var/ckpt/model_v3.json".into(),
                bump: Some(true),
            }),
            Request::Admin(AdminRequest::Freeze {
                id: 11,
                frozen: true,
            }),
            Request::Admin(AdminRequest::Trace {
                id: 12,
                enable: Some(true),
                path: Some("/tmp/trace.json".into()),
            }),
            Request::Admin(AdminRequest::Trace {
                id: 13,
                enable: None,
                path: None,
            }),
        ];
        for req in &reqs {
            let line = encode_line(req);
            assert!(!line.contains('\n'), "wire lines must be single lines");
            let back: Request = decode_line(&line).unwrap();
            assert_eq!(&back, req);
        }
    }

    #[test]
    fn admin_messages_roundtrip_and_bump_is_optional() {
        // `bump` omitted on the wire (a pre-refresh client) parses as None
        let line = r#"{"Swap":{"id":4,"path":"ck.json"}}"#;
        let req: Request = decode_line(line).unwrap();
        assert_eq!(
            req,
            Request::Admin(AdminRequest::Swap {
                id: 4,
                path: "ck.json".into(),
                bump: None,
            })
        );
        let ack = Response::Admin(AdminAck {
            id: 4,
            op: "swap".into(),
            model_version: 2,
            frozen: false,
        });
        let back: Response = decode_line(&encode_line(&ack)).unwrap();
        assert_eq!(back, ack);
    }

    #[test]
    fn responses_roundtrip_the_wire() {
        let resp = Response::Recommendation(Recommendation {
            id: 3,
            point: DesignPoint {
                pe_idx: 12,
                buf_idx: 4,
            },
            num_pes: 104,
            l2_bytes: 1 << 20,
            cost: 123456.75,
            feasible: true,
            layers: 1,
            backend: "analytic".into(),
        });
        let back: Response = decode_line(&encode_line(&resp)).unwrap();
        assert_eq!(back, resp);
    }

    #[test]
    fn query_key_canonicalises_equivalent_requests() {
        let a = QueryKey::of(&gemm_req(1)).unwrap();
        let b = QueryKey::of(&gemm_req(999)).unwrap(); // id differs
        assert_eq!(a, b);
        let mut long_name = gemm_req(1);
        long_name.query = Query::Gemm {
            m: 64,
            n: 512,
            k: 256,
            dataflow: "weight-stationary".into(),
        };
        assert_eq!(QueryKey::of(&long_name).unwrap(), a);
        // objective is part of the identity
        let mut energy = gemm_req(1);
        energy.objective = Objective::Energy;
        assert_ne!(QueryKey::of(&energy).unwrap(), a);
        // model names fold case
        let upper = RecommendRequest {
            id: 1,
            query: Query::Model {
                name: "ResNet50".into(),
            },
            objective: Objective::Latency,
            budget: Budget::Edge,
            deadline_ms: None,
            backend: None,
            pipeline: None,
        };
        let lower = RecommendRequest {
            query: Query::Model {
                name: "resnet50".into(),
            },
            ..upper.clone()
        };
        assert_eq!(QueryKey::of(&upper), QueryKey::of(&lower));
    }

    #[test]
    fn backend_field_is_optional_on_the_wire() {
        // a pre-backend client line (no "backend" key at all) must still
        // parse, defaulting to the analytic backend
        let line = r#"{"Recommend":{"id":3,"query":{"Gemm":{"m":8,"n":8,"k":8,"dataflow":"os"}},"objective":"Latency","budget":"Edge","deadline_ms":null}}"#;
        let req: Request = decode_line(line).unwrap();
        let Request::Recommend(req) = req else {
            panic!("expected recommend, got {req:?}");
        };
        assert_eq!(req.backend, None);
        assert_eq!(req.backend_id(), Ok(BackendId::Analytic));
        // and explicit spellings parse case-insensitively
        let mut sys = gemm_req(1);
        sys.backend = Some("Systolic".into());
        assert_eq!(sys.backend_id(), Ok(BackendId::Systolic));
        let mut casc = gemm_req(1);
        casc.backend = Some("Cascade".into());
        assert_eq!(casc.backend_id(), Ok(BackendId::Cascade));
    }

    #[test]
    fn backend_is_part_of_the_cache_identity() {
        let analytic = QueryKey::of(&gemm_req(1)).unwrap();
        let mut req = gemm_req(1);
        req.backend = Some("systolic".into());
        let systolic = QueryKey::of(&req).unwrap();
        let mut req = gemm_req(1);
        req.backend = Some("cascade".into());
        let cascade = QueryKey::of(&req).unwrap();
        assert_ne!(
            analytic, systolic,
            "cached answers must never cross backends"
        );
        assert_ne!(analytic, cascade, "cascade keys its own cache slots");
        assert_ne!(systolic, cascade, "cascade keys its own cache slots");
        // the explicit default spelling canonicalises onto the implicit one
        let mut explicit = gemm_req(1);
        explicit.backend = Some("analytic".into());
        assert_eq!(QueryKey::of(&explicit).unwrap(), analytic);
    }

    #[test]
    fn pipeline_field_is_optional_on_the_wire() {
        // a pre-pipeline client line (no "pipeline" key at all) must
        // still parse, selecting the default pipeline
        let line = r#"{"Recommend":{"id":3,"query":{"Gemm":{"m":8,"n":8,"k":8,"dataflow":"os"}},"objective":"Latency","budget":"Edge","deadline_ms":null,"backend":null}}"#;
        let req: Request = decode_line(line).unwrap();
        let Request::Recommend(req) = req else {
            panic!("expected recommend, got {req:?}");
        };
        assert_eq!(req.pipeline, None);
    }

    #[test]
    fn pipeline_is_part_of_the_cache_identity() {
        let default = QueryKey::of(&gemm_req(1)).unwrap();
        let mut staged = gemm_req(1);
        staged.pipeline = Some("staged".into());
        assert_ne!(
            default,
            QueryKey::of(&staged).unwrap(),
            "staged answers must never be served from the one-shot cache"
        );
        // the explicit default spelling canonicalises onto the implicit
        // one: both hit the same cache entry
        let mut explicit = gemm_req(1);
        explicit.pipeline = Some("default".into());
        assert_eq!(QueryKey::of(&explicit).unwrap(), default);
    }

    #[test]
    fn pipelines_listing_roundtrips_and_is_strict() {
        let resp = Response::Pipelines {
            id: 21,
            pipelines: vec![
                PipelineInfo {
                    name: "default".into(),
                    stages: vec!["predict".into()],
                },
                PipelineInfo {
                    name: "staged".into(),
                    stages: vec!["predict".into(), "refine".into(), "verify".into()],
                },
            ],
        };
        let back: Response = decode_line(&encode_line(&resp)).unwrap();
        assert_eq!(back, resp);
        // the request side is admin-strict
        assert_eq!(
            decode_line::<Request>(r#"{"Pipelines":{"id":5}}"#).unwrap(),
            Request::Admin(AdminRequest::Pipelines { id: 5 })
        );
        let err = decode_line::<Request>(r#"{"Pipelines":{"id":5,"verbose":true}}"#)
            .unwrap_err()
            .to_string();
        assert!(
            err.contains("unknown field") && err.contains("verbose") && err.contains("Pipelines"),
            "{err}"
        );
    }

    #[test]
    fn unknown_backend_has_no_key() {
        let mut req = gemm_req(1);
        req.backend = Some("rtl".into());
        let err = req.backend_id().unwrap_err().to_string();
        assert!(err.contains("rtl"), "{err}");
        // the wire error must name every selectable backend, so a
        // client probing with a bad name learns the full menu —
        // including variants added after it was written
        for id in BackendId::ALL {
            assert!(
                err.contains(&format!("{:?}", id.as_str())),
                "error must offer {id}: {err}"
            );
        }
        assert!(QueryKey::of(&req).is_none());
    }

    #[test]
    fn bad_dataflow_has_no_key() {
        let mut req = gemm_req(1);
        req.query = Query::Gemm {
            m: 1,
            n: 1,
            k: 1,
            dataflow: "zigzag".into(),
        };
        assert!(QueryKey::of(&req).is_none());
        assert!(req.query.as_dse_input().is_none());
    }

    #[test]
    fn unknown_admin_fields_are_rejected_with_the_canonical_parse_error() {
        // a typo'd operator knob must fail loudly, not be silently
        // dropped: `bmup` for `bump` would otherwise publish under the
        // wrong version policy
        let cases = [
            (
                r#"{"Swap":{"id":1,"path":"ck.json","bmup":true}}"#,
                "bmup",
                "Swap",
            ),
            (
                r#"{"Freeze":{"id":2,"frozen":true,"force":true}}"#,
                "force",
                "Freeze",
            ),
            (r#"{"Stats":{"id":3,"verbose":true}}"#, "verbose", "Stats"),
            (
                r#"{"Trace":{"id":5,"enable":true,"file":"t.json"}}"#,
                "file",
                "Trace",
            ),
        ];
        for (line, field, what) in cases {
            let err = decode_line::<Request>(line).unwrap_err().to_string();
            assert!(
                err.contains("unknown field") && err.contains(field) && err.contains(what),
                "{line} → {err}"
            );
        }
        // the client side of the admin exchange is equally strict
        let ack = r#"{"Admin":{"id":4,"op":"swap","model_version":2,"frozen":false,"extra":1}}"#;
        let err = decode_line::<Response>(ack).unwrap_err().to_string();
        assert!(
            err.contains("unknown field") && err.contains("extra") && err.contains("AdminAck"),
            "{err}"
        );
        // the valid spellings (with and without the optional bump)
        // still parse — strictness must not break the happy path
        assert!(decode_line::<Request>(r#"{"Swap":{"id":1,"path":"ck.json"}}"#).is_ok());
        assert!(
            decode_line::<Request>(r#"{"Swap":{"id":1,"path":"ck.json","bump":true}}"#).is_ok()
        );
        assert!(decode_line::<Request>(r#"{"Freeze":{"id":2,"frozen":false}}"#).is_ok());
        assert!(decode_line::<Request>(r#"{"Stats":{"id":3}}"#).is_ok());
        // both Trace knobs are optional on the wire
        assert_eq!(
            decode_line::<Request>(r#"{"Trace":{"id":6,"enable":false}}"#).unwrap(),
            Request::Admin(AdminRequest::Trace {
                id: 6,
                enable: Some(false),
                path: None,
            })
        );
        assert!(decode_line::<Request>(r#"{"Trace":{"id":7,"path":"t.json"}}"#).is_ok());
    }

    #[test]
    fn unified_admin_enum_kept_the_wire_bytes() {
        // grouping the admin messages under one `AdminRequest` must not
        // move a single byte: the tags stay top-level, in the
        // historical field order, with explicit nulls for absent
        // options — pinned here against the exact pre-unification
        // encodings
        let cases: [(Request, &str); 5] = [
            (
                Request::Admin(AdminRequest::Stats { id: 3 }),
                r#"{"Stats":{"id":3}}"#,
            ),
            (
                Request::Admin(AdminRequest::Swap {
                    id: 1,
                    path: "ck.json".into(),
                    bump: None,
                }),
                r#"{"Swap":{"id":1,"path":"ck.json","bump":null}}"#,
            ),
            (
                Request::Admin(AdminRequest::Freeze {
                    id: 2,
                    frozen: true,
                }),
                r#"{"Freeze":{"id":2,"frozen":true}}"#,
            ),
            (
                Request::Admin(AdminRequest::Pipelines { id: 4 }),
                r#"{"Pipelines":{"id":4}}"#,
            ),
            (
                Request::Admin(AdminRequest::Trace {
                    id: 5,
                    enable: Some(true),
                    path: None,
                }),
                r#"{"Trace":{"id":5,"enable":true,"path":null}}"#,
            ),
        ];
        for (req, wire) in cases {
            assert_eq!(encode_line(&req), wire);
            assert_eq!(decode_line::<Request>(wire).unwrap(), req);
            // the payload also decodes standalone as an AdminRequest
            let Request::Admin(admin) = &req else {
                unreachable!()
            };
            assert_eq!(&decode_line::<AdminRequest>(wire).unwrap(), admin);
        }
        // and a recommendation is not an admin message
        let rec = encode_line(&Request::Recommend(gemm_req(1)));
        let err = decode_line::<AdminRequest>(&rec).unwrap_err().to_string();
        assert!(err.contains("expected an admin request"), "{err}");
    }

    #[test]
    fn recommend_decoding_stays_lenient_for_forward_compat() {
        // query traffic is the opposite contract: a *newer* client
        // sending fields this server predates must keep being served
        let line = r#"{"Recommend":{"id":3,"query":{"Gemm":{"m":8,"n":8,"k":8,"dataflow":"os"}},"objective":"Latency","budget":"Edge","deadline_ms":null,"priority":"high"}}"#;
        let req: Request = decode_line(line).unwrap();
        assert!(matches!(req, Request::Recommend(r) if r.id == 3));
    }

    #[test]
    fn zero_dimension_gemm_is_invalid_not_a_panic() {
        // wire input: a zero dimension must be rejected here, never
        // reach GemmWorkload::new's assert inside a shard
        for (m, n, k) in [(0, 1, 1), (1, 0, 1), (1, 1, 0)] {
            let mut req = gemm_req(1);
            req.query = Query::Gemm {
                m,
                n,
                k,
                dataflow: "ws".into(),
            };
            assert!(req.query.as_dse_input().is_none(), "({m},{n},{k})");
            assert!(QueryKey::of(&req).is_none(), "({m},{n},{k})");
        }
    }
}
