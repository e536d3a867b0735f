//! In-process replicas restored from the fixture: the expected answer of
//! every request (the correctness check), the traced replay that times
//! each layer's public entry points, and an in-process service driven
//! through `Endpoint::handle_line`.

use std::collections::{HashMap, HashSet};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use ai2_dse::{BackendEngines, DesignPoint, DseTask, EvalEngine, PipelineQuery, PipelineSet};
use ai2_serve::cache::LruCache;
use ai2_serve::protocol::{decode_line, encode_line};
use ai2_serve::{
    recommend_batch_in, Query, QueryKey, RecommendRequest, RecommendService, Recommendation,
    Request, Response, ServeConfig, Submission,
};
use ai2_workloads::generator::DseInput;
use airchitect::{Airchitect2, InferenceScratch, ModelCheckpoint};

use crate::workload::{line_of, Rng, Stream};

/// A model replica with its own engines, as one `serve` shard holds it.
pub struct Replica {
    model: Airchitect2,
    engines: BackendEngines,
    pipelines: PipelineSet,
    scratch: InferenceScratch,
}

impl Replica {
    pub fn restore(ckpt: &ModelCheckpoint, pipelines: &PipelineSet) -> Result<Replica, String> {
        let engine = EvalEngine::shared(DseTask::table_i_default());
        let model = Airchitect2::from_checkpoint(Arc::clone(&engine), ckpt)
            .map_err(|e| format!("fixture does not restore: {e}"))?;
        Ok(Replica {
            model,
            engines: BackendEngines::new(engine),
            pipelines: pipelines.clone(),
            scratch: InferenceScratch::new(),
        })
    }
}

/// The reference answers: every distinct query of a run answered by
/// replicas restored from the fixture.
pub struct Reference(HashMap<QueryKey, Response>);

impl Reference {
    /// Answers the distinct queries of `reqs` on `threads` replicas.
    /// Answers do not depend on how requests are batched, so the
    /// replicas use batches of 32.
    pub fn compute(
        ckpt: &ModelCheckpoint,
        pipelines: &PipelineSet,
        reqs: impl Iterator<Item = RecommendRequest>,
        threads: usize,
    ) -> Result<Reference, String> {
        let mut seen = HashSet::new();
        let fresh: Vec<RecommendRequest> = reqs
            .filter(|r| QueryKey::of(r).is_some_and(|k| seen.insert(k)))
            .collect();
        drop(seen);
        let chunks: Vec<&[RecommendRequest]> = fresh.chunks(32).collect();
        let parts = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..threads)
                .map(|t| {
                    let mine: Vec<&[RecommendRequest]> =
                        chunks.iter().skip(t).step_by(threads).copied().collect();
                    scope.spawn(move || -> Result<Vec<(QueryKey, Response)>, String> {
                        let mut r = Replica::restore(ckpt, pipelines)?;
                        let mut out = Vec::new();
                        for chunk in mine {
                            let answers = recommend_batch_in(
                                &r.model,
                                &r.engines,
                                &r.pipelines,
                                chunk,
                                &mut r.scratch,
                            );
                            for (req, resp) in chunk.iter().zip(answers) {
                                out.push((QueryKey::of(req).expect("filtered above"), resp));
                            }
                        }
                        Ok(out)
                    })
                })
                .collect();
            workers
                .into_iter()
                .map(|w| w.join().expect("reference thread panicked"))
                .collect::<Result<Vec<_>, String>>()
        })?;
        Ok(Reference(parts.into_iter().flatten().collect()))
    }

    /// The reference answer line (without newline) for `req`.
    pub fn line(&self, req: &RecommendRequest) -> Option<String> {
        let resp = self.0.get(&QueryKey::of(req)?)?;
        Some(encode_line(&with_id(resp, req.id)))
    }
}

fn with_id(resp: &Response, id: u64) -> Response {
    match resp {
        Response::Recommendation(rec) => {
            Response::Recommendation(Recommendation { id, ..rec.clone() })
        }
        Response::Error { message, .. } => Response::Error {
            id,
            message: message.clone(),
        },
        other => other.clone(),
    }
}

/// Time spent in each layer over a replay, summed in nanoseconds, with
/// the counts that go with it.
#[derive(Debug, Default, Clone)]
pub struct LayerTimes {
    pub requests: u64,
    pub decode_ns: u64,
    pub lookup_ns: u64,
    pub hits: u64,
    pub pipeline_self_ns: u64,
    pub core_encode_ns: u64,
    pub core_forward_ns: u64,
    pub core_decode_ns: u64,
    pub encode_ns: u64,
    pub predict_calls: u64,
    pub predict_rows: u64,
    pub pipeline_queries: u64,
    pub evals: u64,
    pub request_bytes: u64,
    pub response_bytes: u64,
    /// Predict-closure results that differed from `predict_with`.
    pub predict_mismatches: u64,
}

impl LayerTimes {
    /// Mean per replayed request, microseconds.
    pub fn per_request_us(&self, ns: u64) -> f64 {
        ns as f64 / 1e3 / self.requests.max(1) as f64
    }

    /// Sum of every directly timed layer, per request, microseconds.
    pub fn timed_sum_us(&self) -> f64 {
        self.per_request_us(
            self.decode_ns
                + self.lookup_ns
                + self.pipeline_self_ns
                + self.core_encode_ns
                + self.core_forward_ns
                + self.core_decode_ns
                + self.encode_ns,
        )
    }
}

fn ns(since: Instant) -> u64 {
    since.elapsed().as_nanos() as u64
}

impl Replica {
    /// Replays request lines in order the way one shard serves them:
    /// `decode_line`, then `QueryKey::of` + `LruCache::get`, then the
    /// misses of each micro-batch of `batch` lines through
    /// `Pipeline::run_batch` (model queries through the whole-model
    /// fold), then `encode_line`. Only lines flagged `true` are timed,
    /// and the replay stops at the first batch boundary past `budget`.
    /// Returns the layer times and the answer line of each request
    /// replayed.
    pub fn traced(
        &mut self,
        lines: &[(String, bool)],
        batch: usize,
        budget: Duration,
    ) -> Result<(LayerTimes, HashMap<u64, String>), String> {
        let started = Instant::now();
        let mut cache: LruCache<QueryKey, Recommendation> =
            LruCache::new(ServeConfig::default().cache_capacity);
        let mut answers = HashMap::new();
        let (mut timed, mut untimed) = (LayerTimes::default(), LayerTimes::default());
        let mut rest = lines;
        while let Some((_, flag)) = rest.first() {
            let run = rest.iter().take_while(|(_, f)| f == flag).count();
            let t = if *flag { &mut timed } else { &mut untimed };
            for chunk in rest[..run].chunks(batch.max(1)) {
                if started.elapsed() > budget {
                    break;
                }
                let chunk: Vec<&str> = chunk.iter().map(|(l, _)| l.as_str()).collect();
                self.replay_batch(&chunk, &mut cache, t, &mut answers)?;
            }
            rest = &rest[run..];
        }
        timed.predict_mismatches += untimed.predict_mismatches;
        Ok((timed, answers))
    }

    fn replay_batch(
        &mut self,
        lines: &[&str],
        cache: &mut LruCache<QueryKey, Recommendation>,
        t: &mut LayerTimes,
        answers: &mut HashMap<u64, String>,
    ) -> Result<(), String> {
        let mut out: Vec<Option<Response>> = vec![None; lines.len()];
        let mut reqs = Vec::with_capacity(lines.len());
        for line in lines {
            let t0 = Instant::now();
            let req = decode_line::<Request>(line);
            t.decode_ns += ns(t0);
            t.request_bytes += line.len() as u64 + 1;
            match req {
                Ok(Request::Recommend(req)) => reqs.push(req),
                other => return Err(format!("replayed line is not a recommendation: {other:?}")),
            }
        }
        t.requests += reqs.len() as u64;

        // response cache
        let mut keys = Vec::with_capacity(reqs.len());
        let mut hit_at = vec![false; reqs.len()];
        for (i, req) in reqs.iter().enumerate() {
            let t0 = Instant::now();
            let key = QueryKey::of(req);
            let hit = key.as_ref().and_then(|k| cache.get(k));
            t.lookup_ns += ns(t0);
            if let Some(mut rec) = hit {
                rec.id = req.id;
                t.hits += 1;
                hit_at[i] = true;
                out[i] = Some(Response::Recommendation(rec));
            }
            keys.push(key);
        }

        // misses: GEMMs grouped per pipeline, model queries one by one
        let mut groups: Vec<(String, Vec<usize>)> = Vec::new();
        for (i, req) in reqs.iter().enumerate() {
            if out[i].is_some() {
                continue;
            }
            match &req.query {
                Query::Gemm { .. } => {
                    let name = req
                        .pipeline
                        .clone()
                        .unwrap_or_else(|| PipelineSet::DEFAULT.into());
                    match groups.iter_mut().find(|(n, _)| *n == name) {
                        Some((_, members)) => members.push(i),
                        None => groups.push((name, vec![i])),
                    }
                }
                Query::Model { .. } => {
                    let t0 = Instant::now();
                    let resp = recommend_batch_in(
                        &self.model,
                        &self.engines,
                        &self.pipelines,
                        std::slice::from_ref(req),
                        &mut self.scratch,
                    );
                    t.pipeline_self_ns += ns(t0);
                    out[i] = resp.into_iter().next();
                }
            }
        }
        for (name, members) in &groups {
            let pipeline = Arc::clone(
                self.pipelines
                    .get(Some(name))
                    .ok_or_else(|| format!("unknown pipeline {name:?}"))?,
            );
            let mut queries = Vec::with_capacity(members.len());
            for &i in members {
                let req = &reqs[i];
                queries.push(PipelineQuery {
                    input: req
                        .query
                        .as_dse_input()
                        .ok_or_else(|| format!("invalid GEMM in request {}", req.id))?,
                    objective: req.objective,
                    budget: req.budget,
                    backend: req.backend_id().map_err(|e| e.to_string())?,
                });
            }
            let (model, scratch) = (&self.model, &mut self.scratch);
            let mut check_scratch = InferenceScratch::new();
            let mut closure_ns = 0u64;
            let mut predict = |inputs: &[DseInput]| -> Vec<DesignPoint> {
                let t0 = Instant::now();
                let features = model.feature_encoder().encode_inputs(inputs);
                let t1 = Instant::now();
                let (pe, buf) = model.forward_into(&features, scratch);
                let t2 = Instant::now();
                let points: Vec<DesignPoint> = (0..inputs.len())
                    .map(|r| DesignPoint {
                        pe_idx: model.pe_codec().decode(pe.row(r)),
                        buf_idx: model.buf_codec().decode(buf.row(r)),
                    })
                    .collect();
                let t3 = Instant::now();
                t.core_encode_ns += (t1 - t0).as_nanos() as u64;
                t.core_forward_ns += (t2 - t1).as_nanos() as u64;
                t.core_decode_ns += (t3 - t2).as_nanos() as u64;
                t.predict_calls += 1;
                t.predict_rows += inputs.len() as u64;
                if points != model.predict_with(inputs, &mut check_scratch) {
                    t.predict_mismatches += 1;
                }
                // the whole closure, check included, is not pipeline time
                closure_ns += ns(t0);
                points
            };
            let t0 = Instant::now();
            let results = pipeline.run_batch(&self.engines, &queries, &mut predict);
            t.pipeline_self_ns += ns(t0).saturating_sub(closure_ns);
            t.pipeline_queries += members.len() as u64;
            for (&i, answer) in members.iter().zip(&results) {
                t.evals += answer.evals.iter().sum::<u64>();
                let best = answer.best;
                let hw = self.engines.get(best.backend).space().config(best.point);
                out[i] = Some(Response::Recommendation(Recommendation {
                    id: reqs[i].id,
                    point: best.point,
                    num_pes: hw.num_pes,
                    l2_bytes: hw.l2_bytes,
                    cost: best.cost,
                    feasible: best.feasible,
                    layers: 1,
                    backend: best.backend.as_str().to_string(),
                }));
            }
        }

        for (i, req) in reqs.iter().enumerate() {
            let resp = out[i].take().ok_or("a replayed request got no answer")?;
            // computed answers are inserted, as the server does
            if let (Some(key), Response::Recommendation(rec), false) = (&keys[i], &resp, hit_at[i])
            {
                cache.insert(key.clone(), rec.clone());
            }
            let t0 = Instant::now();
            let line = encode_line(&resp);
            t.encode_ns += ns(t0);
            t.response_bytes += line.len() as u64 + 1;
            answers.insert(req.id, line);
        }
        Ok(())
    }
}

/// How the in-process service is driven.
pub enum Shape {
    /// Two threads, one request in flight each.
    Closed,
    /// Poisson arrivals at this rate (requests per second), answered in
    /// submission order, as on one pipelined connection.
    Open(f64),
}

/// Latencies (µs) of an in-process [`RecommendService`] restored from the
/// fixture and fed the stream's lines through `Endpoint::handle_line` for
/// `duration`, each answer encoded as the transport would. The warm pass
/// goes first, unmeasured.
pub fn inproc_latencies(
    ckpt: &ModelCheckpoint,
    pipelines: &PipelineSet,
    stream: &Stream,
    shape: Shape,
    seed: u64,
    duration: Duration,
) -> Result<Vec<f64>, String> {
    let cfg = ServeConfig {
        pipelines: pipelines.clone(),
        ..ServeConfig::default()
    };
    let service = RecommendService::start(
        cfg,
        EvalEngine::shared(DseTask::table_i_default()),
        ckpt.clone(),
    );
    let endpoint = service.endpoint();
    let answer = |sub: Submission| -> Result<String, String> {
        let resp = match sub {
            Submission::Queued(pending) => pending.wait(),
            Submission::Ready(resp) => resp,
            Submission::Ignored => return Err("request line ignored".into()),
        };
        match resp {
            Response::Recommendation(_) => Ok(encode_line(&resp)),
            other => Err(format!("in-process service answered {other:?}")),
        }
    };
    let line = |id: u64| line_of(&stream.by_id(id));
    for id in stream.warm_ids() {
        answer(endpoint.handle_line(&line(id)))?;
    }
    let result = match shape {
        Shape::Closed => {
            let next = std::sync::atomic::AtomicU64::new(0);
            let started = Instant::now();
            std::thread::scope(|scope| {
                let workers: Vec<_> = (0..crate::load::CONNS)
                    .map(|_| {
                        let (next, endpoint, answer, line) = (&next, &endpoint, &answer, &line);
                        scope.spawn(move || -> Result<Vec<f64>, String> {
                            let mut lats = Vec::new();
                            while started.elapsed() < duration {
                                let j = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                                let l = line(j + 1);
                                let t0 = Instant::now();
                                answer(endpoint.handle_line(&l))?;
                                lats.push(t0.elapsed().as_secs_f64() * 1e6);
                            }
                            Ok(lats)
                        })
                    })
                    .collect();
                let mut all = Vec::new();
                for w in workers {
                    all.extend(w.join().expect("in-process worker panicked")?);
                }
                Ok(all)
            })
        }
        Shape::Open(rate) => {
            let mut rng = Rng::new(seed ^ 0x1A9C_0CE5);
            let (tx, rx) = mpsc::channel::<(Instant, Submission)>();
            std::thread::scope(|scope| {
                let collector = scope.spawn(|| -> Result<Vec<f64>, String> {
                    let mut lats = Vec::new();
                    for (due, sub) in rx {
                        answer(sub)?;
                        lats.push(due.elapsed().as_secs_f64() * 1e6);
                    }
                    Ok(lats)
                });
                let start = Instant::now();
                let mut at = 0.0;
                let mut id = 1;
                loop {
                    at += -rng.unit().ln() / rate;
                    if at >= duration.as_secs_f64() {
                        break;
                    }
                    let l = line(id);
                    id += 1;
                    let due = start + Duration::from_secs_f64(at);
                    let now = Instant::now();
                    if now < due {
                        std::thread::sleep(due - now);
                    }
                    if tx.send((due, endpoint.handle_line(&l))).is_err() {
                        break;
                    }
                }
                drop(tx);
                collector.join().expect("in-process collector panicked")
            })
        }
    };
    service.shutdown();
    result
}
