//! The pure recommendation kernel — now the **pipeline executor**: a
//! batch of parsed requests against one warm [`Airchitect2`], one
//! [`EvalEngine`] per cost backend ([`BackendEngines`]), and a
//! [`PipelineSet`] of named stage graphs, no queues or sockets.
//!
//! This is the function the worker shards call on every micro-batch, and
//! the function tests call directly to establish the ground truth the
//! served path must match bit-for-bit. Requests that select no pipeline
//! run the registry's built-in `"default"` — the degenerate single-stage
//! [`PredictorOneShot`](ai2_dse::pipeline::PredictorOneShot) pipeline,
//! whose answers are bit-identical to the historical one-shot path (the
//! per-backend grouping that used to live here moved into
//! that stage, where it now exists exactly once). Per-row model
//! inference is batch-invariant (each row's forward pass touches only
//! its own activations), so coalescing or splitting requests across
//! `predict` calls — which pipeline grouping does — returns exactly what
//! per-request calls would.

use std::collections::HashSet;
use std::sync::Arc;

use ai2_dse::{DesignPoint, EvalEngine, Objective, Pipeline, PipelineQuery, PipelineSet};
use ai2_maestro::Dataflow;
use ai2_workloads::generator::DseInput;
use ai2_workloads::zoo;
use airchitect::{Airchitect2, InferenceScratch};

use crate::protocol::{Query, RecommendRequest, Recommendation, Response};

pub use ai2_dse::BackendEngines;

/// Answers a batch of recommendation requests against the built-in
/// default registry (requests selecting a named pipeline get an error;
/// the serving layer passes its configured set through
/// [`recommend_batch_in`]).
pub fn recommend_batch(
    model: &Airchitect2,
    engines: &BackendEngines,
    reqs: &[RecommendRequest],
) -> Vec<Response> {
    let mut scratch = InferenceScratch::new();
    recommend_batch_in(model, engines, &PipelineSet::default(), reqs, &mut scratch)
}

/// The full executor: answers a batch against a configured
/// [`PipelineSet`]. GEMM queries are grouped per selected pipeline and
/// each group runs its stage graph over one coalesced micro-batch;
/// model (whole-network) queries run the Method-1 deployment fold and
/// accept only the default pipeline. Responses come back in request
/// order.
///
/// The [`InferenceScratch`] is caller-owned — the shard hot path. A
/// shard that keeps its scratch across micro-batches reuses the same
/// activation buffers on every forward pass, so the steady-state serving
/// loop performs zero heap allocations inside the model (see the
/// `zero_alloc` test in the `airchitect` crate). Answers are
/// bit-identical to a fresh scratch: the scratch holds capacity, never
/// values.
pub fn recommend_batch_in(
    model: &Airchitect2,
    engines: &BackendEngines,
    pipelines: &PipelineSet,
    reqs: &[RecommendRequest],
    scratch: &mut InferenceScratch,
) -> Vec<Response> {
    let mut out: Vec<Option<Response>> = vec![None; reqs.len()];

    // -- partition ----------------------------------------------------
    // GEMM queries, grouped by selected pipeline in first-appearance
    // order (each entry: the pipeline and its member queries, as
    // (request index, compiled query) pairs).
    type Group = (Arc<Pipeline>, Vec<(usize, PipelineQuery)>);
    let mut groups: Vec<Group> = Vec::new();
    for (i, req) in reqs.iter().enumerate() {
        let backend = match req.backend_id() {
            Ok(backend) => backend,
            Err(e) => {
                out[i] = Some(Response::Error {
                    id: req.id,
                    message: e.to_string(),
                });
                continue;
            }
        };
        let Some(pipeline) = pipelines.get(req.pipeline.as_deref()) else {
            let name = req.pipeline.as_deref().unwrap_or(PipelineSet::DEFAULT);
            out[i] = Some(Response::Error {
                id: req.id,
                message: format!(
                    "unknown pipeline {name:?} (expected one of {})",
                    pipelines.names().join(", ")
                ),
            });
            continue;
        };
        match &req.query {
            Query::Gemm { dataflow, .. } => match req.query.as_dse_input() {
                Some(input) => {
                    let q = PipelineQuery {
                        input,
                        objective: req.objective,
                        budget: req.budget,
                        backend,
                    };
                    match groups.iter_mut().find(|(p, _)| p.name() == pipeline.name()) {
                        Some((_, members)) => members.push((i, q)),
                        None => groups.push((Arc::clone(pipeline), vec![(i, q)])),
                    }
                }
                None => {
                    out[i] = Some(Response::Error {
                        id: req.id,
                        message: format!(
                            "invalid GEMM query (dimensions must be ≥ 1; dataflow {dataflow:?} \
                             must be ws, os or rs)"
                        ),
                    });
                }
            },
            Query::Model { name } => {
                if !pipeline.is_one_shot() {
                    out[i] = Some(Response::Error {
                        id: req.id,
                        message: format!(
                            "pipeline {:?} cannot serve model queries (staged pipelines apply \
                             to GEMM queries)",
                            pipeline.name()
                        ),
                    });
                    continue;
                }
                match zoo::model_by_name(name) {
                    Some(workload) => {
                        let engine = engines.get(backend);
                        let (point, cost, feasible, layers) = recommend_model(
                            model,
                            engine,
                            &workload,
                            req.objective,
                            req.budget,
                            scratch,
                        );
                        out[i] = Some(recommendation(
                            engine, req, point, cost, feasible, layers, backend,
                        ));
                    }
                    None => {
                        out[i] = Some(Response::Error {
                            id: req.id,
                            message: format!("unknown model {name:?}"),
                        });
                    }
                }
            }
        }
    }

    // -- one stage-graph run per pipeline group -----------------------
    let mut predict = |inputs: &[DseInput]| model.predict_with(inputs, scratch);
    for (pipeline, members) in &groups {
        let queries: Vec<PipelineQuery> = members.iter().map(|&(_, q)| q).collect();
        let answers = pipeline.run_batch(engines, &queries, &mut predict);
        for (&(i, _), answer) in members.iter().zip(&answers) {
            let best = answer.best;
            let engine = engines.get(best.backend);
            out[i] = Some(recommendation(
                engine,
                &reqs[i],
                best.point,
                best.cost,
                best.feasible,
                1,
                best.backend,
            ));
        }
    }

    out.into_iter()
        .map(|r| r.expect("every request answered"))
        .collect()
}

/// Whole-model recommendation: predict a design point for every
/// `(layer, dataflow)` input in one forward pass, deduplicate the
/// candidates, and adopt the one minimising the engine-verified
/// whole-model cost under the requested objective (the paper's
/// deployment Method 1, generalised to arbitrary objectives and
/// budgets).
fn recommend_model(
    model: &Airchitect2,
    engine: &EvalEngine,
    workload: &ai2_workloads::ModelWorkload,
    objective: Objective,
    budget: ai2_dse::Budget,
    scratch: &mut InferenceScratch,
) -> (DesignPoint, f64, bool, usize) {
    let layers = workload.to_dse_layers();
    let mut inputs = Vec::with_capacity(layers.len() * Dataflow::ALL.len());
    for layer in &layers {
        for df in Dataflow::ALL {
            inputs.push(DseInput {
                gemm: layer.gemm,
                dataflow: df,
            });
        }
    }
    let preds = model.predict_with(&inputs, scratch);
    let mut seen: HashSet<DesignPoint> = HashSet::new();
    let mut cands: Vec<DesignPoint> = Vec::new();
    for p in preds {
        if engine.is_feasible_under(p, budget) && seen.insert(p) {
            cands.push(p);
        }
    }
    if cands.is_empty() {
        // every per-layer recommendation violated the budget: fall back
        // to the smallest configuration
        cands.push(DesignPoint {
            pe_idx: 0,
            buf_idx: 0,
        });
    }
    let costs = engine.pool().map(cands.len(), |i| {
        engine.model_cost(&layers, cands[i], objective)
    });
    let mut best = 0usize;
    for (i, cost) in costs.iter().enumerate() {
        if *cost < costs[best] {
            best = i;
        }
    }
    (
        cands[best],
        costs[best],
        engine.is_feasible_under(cands[best], budget),
        layers.len(),
    )
}

fn recommendation(
    engine: &EvalEngine,
    req: &RecommendRequest,
    point: DesignPoint,
    cost: f64,
    feasible: bool,
    layers: usize,
    backend: ai2_dse::BackendId,
) -> Response {
    let hw = engine.space().config(point);
    Response::Recommendation(Recommendation {
        id: req.id,
        point,
        num_pes: hw.num_pes,
        l2_bytes: hw.l2_bytes,
        cost,
        feasible,
        layers,
        backend: backend.as_str().to_string(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{Query, RecommendRequest};
    use ai2_dse::pipeline::{RefineMethod, StageCfg};
    use ai2_dse::{BackendId, Budget, DseDataset, DseTask, GenerateConfig, PipelineCfg, Scoring};
    use airchitect::train::TrainConfig;
    use airchitect::ModelConfig;
    use std::sync::Arc;

    fn trained() -> (BackendEngines, Airchitect2) {
        let task = DseTask::table_i_default();
        let ds = DseDataset::generate(
            &task,
            &GenerateConfig {
                num_samples: 50,
                seed: 11,
                threads: 2,
                ..GenerateConfig::default()
            },
        );
        let engine = EvalEngine::shared(task);
        let mut model = Airchitect2::with_engine(&ModelConfig::tiny(), Arc::clone(&engine), &ds);
        model.fit(&ds, &TrainConfig::quick());
        (BackendEngines::new(engine), model)
    }

    fn gemm(id: u64, m: u64, objective: Objective) -> RecommendRequest {
        RecommendRequest {
            id,
            query: Query::Gemm {
                m,
                n: 256,
                k: 128,
                dataflow: "os".into(),
            },
            objective,
            budget: Budget::Edge,
            deadline_ms: None,
            backend: None,
            pipeline: None,
        }
    }

    fn staged_set() -> PipelineSet {
        PipelineSet::with(&[PipelineCfg {
            name: "staged".into(),
            stages: vec![
                StageCfg::Predict { backend: None },
                StageCfg::Refine {
                    method: RefineMethod::Annealing,
                    budget: 24,
                    seed: 5,
                    backend: None,
                },
                StageCfg::Verify {
                    k: 2,
                    backend: BackendId::Systolic,
                },
            ],
        }])
        .unwrap()
    }

    #[test]
    fn batched_answers_match_singleton_answers() {
        let (engines, model) = trained();
        let reqs: Vec<RecommendRequest> = (0..8)
            .map(|i| {
                let mut req = gemm(
                    i,
                    16 + i * 13,
                    [Objective::Latency, Objective::Energy, Objective::Edp][i as usize % 3],
                );
                // mix backends so batching crosses the routing groups
                if i % 2 == 1 {
                    req.backend = Some("systolic".into());
                }
                req
            })
            .collect();
        let batched = recommend_batch(&model, &engines, &reqs);
        for (req, expect) in reqs.iter().zip(&batched) {
            let single = recommend_batch(&model, &engines, std::slice::from_ref(req));
            assert_eq!(&single[0], expect, "batching changed the answer");
        }
    }

    #[test]
    fn reused_scratch_answers_bit_identically() {
        // the shard hot path keeps one InferenceScratch across
        // micro-batches; recycled activation buffers must never change
        // an answer, batch after batch
        let (engines, model) = trained();
        let mut scratch = InferenceScratch::new();
        for round in 0..3 {
            let reqs: Vec<RecommendRequest> = (0..6)
                .map(|i| gemm(i, 8 + i * 11 + round, Objective::Latency))
                .collect();
            let fresh = recommend_batch(&model, &engines, &reqs);
            let reused = recommend_batch_in(
                &model,
                &engines,
                &PipelineSet::default(),
                &reqs,
                &mut scratch,
            );
            assert_eq!(fresh, reused, "round {round}");
        }
    }

    #[test]
    fn gemm_cost_is_engine_verified() {
        let (engines, model) = trained();
        let req = gemm(5, 64, Objective::Latency);
        let resp = recommend_batch(&model, &engines, std::slice::from_ref(&req));
        let Response::Recommendation(rec) = &resp[0] else {
            panic!("expected recommendation, got {resp:?}");
        };
        assert_eq!(rec.id, 5);
        assert_eq!(rec.layers, 1);
        assert_eq!(rec.backend, "analytic");
        let input = req.query.as_dse_input().unwrap();
        let engine = engines.primary();
        let direct = engine.cost(&input, rec.point, &Scoring::new(req.objective, req.budget));
        assert_eq!(rec.cost.to_bits(), direct.to_bits());
        assert_eq!(rec.feasible, engine.is_feasible(rec.point));
    }

    #[test]
    fn systolic_backend_routes_to_the_systolic_engine() {
        let (engines, model) = trained();
        let mut sys_req = gemm(7, 64, Objective::Latency);
        sys_req.backend = Some("systolic".into());
        let ana_req = gemm(8, 64, Objective::Latency);
        let resp = recommend_batch(&model, &engines, &[sys_req.clone(), ana_req]);
        let (Response::Recommendation(sys), Response::Recommendation(ana)) = (&resp[0], &resp[1])
        else {
            panic!("expected recommendations, got {resp:?}");
        };
        assert_eq!(sys.backend, "systolic");
        assert_eq!(ana.backend, "analytic");
        // the predicted point is backend-independent; its verified cost
        // is not
        assert_eq!(sys.point, ana.point);
        assert_ne!(sys.cost.to_bits(), ana.cost.to_bits());
        let input = sys_req.query.as_dse_input().unwrap();
        let direct = engines.get(ai2_dse::BackendId::Systolic).cost(
            &input,
            sys.point,
            &Scoring::new(sys_req.objective, sys_req.budget),
        );
        assert_eq!(sys.cost.to_bits(), direct.to_bits());
    }

    #[test]
    fn unknown_backend_is_a_clean_error() {
        let (engines, model) = trained();
        let mut req = gemm(3, 32, Objective::Latency);
        req.backend = Some("rtl".into());
        let resp = recommend_batch(&model, &engines, &[req]);
        assert!(
            matches!(&resp[0], Response::Error { id: 3, message } if message.contains("backend")),
            "unexpected {resp:?}"
        );
    }

    #[test]
    fn model_query_returns_feasible_deployment() {
        let (engines, model) = trained();
        let req = RecommendRequest {
            id: 9,
            query: Query::Model {
                name: "resnet18".into(),
            },
            objective: Objective::Latency,
            budget: Budget::Edge,
            deadline_ms: None,
            backend: None,
            pipeline: None,
        };
        let resp = recommend_batch(&model, &engines, &[req]);
        let Response::Recommendation(rec) = &resp[0] else {
            panic!("expected recommendation, got {resp:?}");
        };
        assert!(rec.feasible);
        assert!(rec.cost > 0.0);
        assert_eq!(rec.layers, zoo::resnet18().to_dse_layers().len());
    }

    #[test]
    fn unknown_model_and_bad_dataflow_are_errors() {
        let (engines, model) = trained();
        let bad_model = RecommendRequest {
            id: 1,
            query: Query::Model {
                name: "skynet".into(),
            },
            objective: Objective::Latency,
            budget: Budget::Edge,
            deadline_ms: None,
            backend: None,
            pipeline: None,
        };
        let mut bad_df = gemm(2, 10, Objective::Latency);
        bad_df.query = Query::Gemm {
            m: 1,
            n: 1,
            k: 1,
            dataflow: "zigzag".into(),
        };
        let resp = recommend_batch(&model, &engines, &[bad_model, bad_df]);
        assert!(matches!(&resp[0], Response::Error { id: 1, .. }));
        assert!(matches!(&resp[1], Response::Error { id: 2, .. }));
    }

    #[test]
    fn explicit_default_pipeline_answers_bit_identically_to_none() {
        let (engines, model) = trained();
        let mut scratch = InferenceScratch::new();
        let set = staged_set();
        let reqs: Vec<RecommendRequest> = (0..6)
            .map(|i| {
                gemm(
                    i,
                    12 + i * 17,
                    [Objective::Latency, Objective::Energy, Objective::Edp][i as usize % 3],
                )
            })
            .collect();
        let implicit = recommend_batch_in(&model, &engines, &set, &reqs, &mut scratch);
        let explicit: Vec<RecommendRequest> = reqs
            .iter()
            .map(|r| {
                let mut r = r.clone();
                r.pipeline = Some("default".into());
                r
            })
            .collect();
        let named = recommend_batch_in(&model, &engines, &set, &explicit, &mut scratch);
        assert_eq!(implicit, named);
        // and both match the registry-less legacy entry point
        let legacy = recommend_batch(&model, &engines, &reqs);
        assert_eq!(implicit, legacy);
    }

    #[test]
    fn staged_pipeline_verifies_through_systolic_and_never_regresses() {
        let (engines, model) = trained();
        let mut scratch = InferenceScratch::new();
        let set = staged_set();
        for (i, objective) in [Objective::Latency, Objective::Energy, Objective::Edp]
            .into_iter()
            .enumerate()
        {
            let mut staged_req = gemm(i as u64, 40 + i as u64 * 9, objective);
            staged_req.pipeline = Some("staged".into());
            let one_shot_req = gemm(100 + i as u64, 40 + i as u64 * 9, objective);
            let resp = recommend_batch_in(
                &model,
                &engines,
                &set,
                &[staged_req.clone(), one_shot_req],
                &mut scratch,
            );
            let (Response::Recommendation(staged), Response::Recommendation(os)) =
                (&resp[0], &resp[1])
            else {
                panic!("expected recommendations, got {resp:?}");
            };
            // staged answers come from the verify stage's backend
            assert_eq!(staged.backend, "systolic");
            assert!(staged.feasible);
            // never worse than the one-shot point under the same
            // objective and backend (the clamp invariant)
            let input = staged_req.query.as_dse_input().unwrap();
            let sys = engines.get(BackendId::Systolic);
            let os_cost = sys.cost(
                &input,
                os.point,
                &Scoring::new(objective, staged_req.budget),
            );
            assert!(
                staged.cost <= os_cost,
                "{objective:?}: staged {} vs one-shot {os_cost}",
                staged.cost
            );
        }
    }

    #[test]
    fn unknown_pipeline_and_model_through_staged_are_errors() {
        let (engines, model) = trained();
        let mut scratch = InferenceScratch::new();
        let set = staged_set();
        let mut bad = gemm(4, 32, Objective::Latency);
        bad.pipeline = Some("warp".into());
        let mut model_staged = RecommendRequest {
            id: 6,
            query: Query::Model {
                name: "resnet18".into(),
            },
            objective: Objective::Latency,
            budget: Budget::Edge,
            deadline_ms: None,
            backend: None,
            pipeline: Some("staged".into()),
        };
        let resp = recommend_batch_in(
            &model,
            &engines,
            &set,
            &[bad, model_staged.clone()],
            &mut scratch,
        );
        assert!(
            matches!(&resp[0], Response::Error { id: 4, message }
                if message.contains("unknown pipeline") && message.contains("warp")),
            "unexpected {:?}",
            resp[0]
        );
        assert!(
            matches!(&resp[1], Response::Error { id: 6, message }
                if message.contains("model queries")),
            "unexpected {:?}",
            resp[1]
        );
        // the same model query through the default pipeline still works
        model_staged.pipeline = None;
        let ok = recommend_batch_in(&model, &engines, &set, &[model_staged], &mut scratch);
        assert!(matches!(&ok[0], Response::Recommendation(_)));
    }
}
