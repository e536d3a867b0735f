//! End-to-end serving integration: 64 concurrent mixed queries (GEMM +
//! zoo models, all three objectives) through the TCP path must return
//! recommendations **bit-identical** to direct `Predictor` +
//! `EvalEngine` calls made from an independently restored replica of the
//! same checkpoint.

use std::collections::HashMap;
use std::sync::Arc;

use airchitect_repro::airchitect::{train::TrainConfig, Airchitect2, ModelCheckpoint, ModelConfig};
use airchitect_repro::dse::{
    Budget, DseDataset, DseTask, EvalEngine, GenerateConfig, Objective, Scoring,
};
use airchitect_repro::serve::{
    recommend_batch, BackendEngines, Query, RecommendRequest, RecommendService, Recommendation,
    Request, Response, ServeConfig, TcpClient,
};
use airchitect_repro::workloads::generator::DseInput;
use airchitect_repro::workloads::zoo;

fn trained_checkpoint() -> (Arc<EvalEngine>, ModelCheckpoint) {
    let task = DseTask::table_i_default();
    let ds = DseDataset::generate(
        &task,
        &GenerateConfig {
            num_samples: 60,
            seed: 0xC0FFEE,
            threads: 0,
            ..GenerateConfig::default()
        },
    );
    let engine = EvalEngine::shared(task);
    let mut model = Airchitect2::with_engine(&ModelConfig::tiny(), Arc::clone(&engine), &ds);
    model.fit(&ds, &TrainConfig::quick());
    (engine, model.checkpoint())
}

/// 64 mixed queries: 52 GEMMs sweeping dims × dataflows × objectives,
/// 12 whole-model queries over four zoo models × all three objectives.
fn mixed_queries() -> Vec<RecommendRequest> {
    const OBJECTIVES: [Objective; 3] = [Objective::Latency, Objective::Energy, Objective::Edp];
    const DATAFLOWS: [&str; 3] = ["ws", "os", "rs"];
    const MODELS: [&str; 4] = ["resnet18", "alexnet", "mobilenet_v2", "ncf"];
    let mut reqs = Vec::new();
    for i in 0..52u64 {
        reqs.push(RecommendRequest {
            id: i,
            query: Query::Gemm {
                m: 1 + (i * 37) % 256,
                n: 1 + (i * 131) % 1677,
                k: 1 + (i * 89) % 1185,
                dataflow: DATAFLOWS[i as usize % 3].into(),
            },
            objective: OBJECTIVES[(i / 3) as usize % 3],
            budget: if i % 5 == 0 {
                Budget::Unbounded
            } else {
                Budget::Edge
            },
            deadline_ms: None,
            backend: None,
            pipeline: None,
        });
    }
    for (j, (name, objective)) in MODELS
        .iter()
        .flat_map(|m| OBJECTIVES.iter().map(move |o| (*m, *o)))
        .enumerate()
    {
        reqs.push(RecommendRequest {
            id: 52 + j as u64,
            query: Query::Model { name: name.into() },
            objective,
            budget: Budget::Edge,
            deadline_ms: None,
            backend: None,
            pipeline: None,
        });
    }
    assert_eq!(reqs.len(), 64);
    reqs
}

fn assert_bit_identical(served: &Recommendation, direct: &Recommendation, what: &str) {
    assert_eq!(served.point, direct.point, "{what}: point diverged");
    assert_eq!(served.num_pes, direct.num_pes, "{what}: PEs diverged");
    assert_eq!(served.l2_bytes, direct.l2_bytes, "{what}: L2 diverged");
    assert_eq!(
        served.cost.to_bits(),
        direct.cost.to_bits(),
        "{what}: cost diverged ({} vs {})",
        served.cost,
        direct.cost
    );
    assert_eq!(served.feasible, direct.feasible, "{what}: feasibility");
    assert_eq!(served.layers, direct.layers, "{what}: layer count");
    assert_eq!(served.backend, direct.backend, "{what}: backend");
}

#[test]
fn concurrent_tcp_queries_match_direct_predictor_engine_calls() {
    let (engine, ckpt) = trained_checkpoint();
    let mut service = RecommendService::start(
        ServeConfig {
            shards: 2,
            max_batch: 16,
            cache_capacity: 256,
            ..ServeConfig::default()
        },
        engine,
        ckpt.clone(),
    );
    let addr = service.listen("127.0.0.1:0").expect("ephemeral port");

    // ---- 64 concurrent queries over 8 TCP connections ---------------
    let reqs = mixed_queries();
    let served: HashMap<u64, Recommendation> = std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for chunk in reqs.chunks(8) {
            let chunk = chunk.to_vec();
            handles.push(scope.spawn(move || {
                let mut client = TcpClient::connect(addr).expect("connect");
                chunk
                    .into_iter()
                    .map(|req| {
                        let id = req.id;
                        match client.send(&Request::Recommend(req)).expect("send") {
                            Response::Recommendation(rec) => {
                                assert_eq!(rec.id, id, "response routed to the wrong request");
                                (id, rec)
                            }
                            other => panic!("query {id} failed: {other:?}"),
                        }
                    })
                    .collect::<Vec<_>>()
            }));
        }
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread"))
            .collect()
    });
    assert_eq!(served.len(), 64);

    // ---- ground truth from an independently restored replica --------
    // A fresh engine (empty caches) and a fresh model restored from the
    // same checkpoint: what a direct Predictor + EvalEngine user gets.
    let fresh_engine = EvalEngine::shared(DseTask::table_i_default());
    let replica =
        Airchitect2::from_checkpoint(Arc::clone(&fresh_engine), &ckpt).expect("restore replica");
    let fresh_engines = BackendEngines::new(Arc::clone(&fresh_engine));

    for req in &reqs {
        let rec = &served[&req.id];
        match &req.query {
            Query::Gemm { .. } => {
                // direct calls: one predict, one engine verification
                let input: DseInput = req.query.as_dse_input().expect("valid dataflow");
                let point = replica.predict(&[input])[0];
                let cost =
                    fresh_engine.cost(&input, point, &Scoring::reuse(req.objective, req.budget));
                let feasible = fresh_engine.is_feasible_under(point, req.budget);
                let hw = fresh_engine.space().config(point);
                let direct = Recommendation {
                    id: req.id,
                    point,
                    num_pes: hw.num_pes,
                    l2_bytes: hw.l2_bytes,
                    cost,
                    feasible,
                    layers: 1,
                    backend: "analytic".into(),
                };
                assert_bit_identical(rec, &direct, &format!("gemm query {}", req.id));
            }
            Query::Model { name } => {
                // direct call: the pure kernel on a singleton batch
                let direct = recommend_batch(&replica, &fresh_engines, std::slice::from_ref(req));
                let Response::Recommendation(direct) = &direct[0] else {
                    panic!("direct model query {name} failed: {direct:?}");
                };
                assert_bit_identical(rec, direct, &format!("model query {name}"));
                assert_eq!(
                    rec.layers,
                    zoo::model_by_name(name).unwrap().to_dse_layers().len()
                );
            }
        }
    }

    // ---- service-side accounting ------------------------------------
    let stats = service.stats();
    assert_eq!(stats.served, 64, "every query served: {stats:?}");
    assert_eq!(stats.errors, 0, "no errors: {stats:?}");
    assert_eq!(stats.shards, 2);
    let (p50, p99) = (
        stats.p50_us.expect("warm percentiles"),
        stats.p99_us.expect("warm percentiles"),
    );
    assert!(p50 > 0.0 && p99 >= p50);
    assert!(stats.throughput_rps > 0.0);

    service.shutdown();
}

#[test]
fn served_answers_are_stable_across_cache_and_shards() {
    // the same canonical query asked cold, warm (cached), and via a
    // different connection must answer identically
    let (engine, ckpt) = trained_checkpoint();
    let mut service = RecommendService::start(ServeConfig::default(), engine, ckpt);
    let addr = service.listen("127.0.0.1:0").expect("ephemeral port");
    let req = |id: u64| RecommendRequest {
        id,
        query: Query::Gemm {
            m: 48,
            n: 900,
            k: 333,
            dataflow: "rs".into(),
        },
        objective: Objective::Edp,
        budget: Budget::Edge,
        deadline_ms: Some(5_000),
        backend: None,
        pipeline: None,
    };
    let mut a = TcpClient::connect(addr).unwrap();
    let mut b = TcpClient::connect(addr).unwrap();
    let cold = a.send(&Request::Recommend(req(1))).unwrap();
    let warm = a.send(&Request::Recommend(req(2))).unwrap();
    let other_conn = b.send(&Request::Recommend(req(3))).unwrap();
    let (Response::Recommendation(x), Response::Recommendation(y), Response::Recommendation(z)) =
        (&cold, &warm, &other_conn)
    else {
        panic!("expected recommendations: {cold:?} {warm:?} {other_conn:?}");
    };
    assert_bit_identical(y, x, "warm vs cold");
    assert_bit_identical(z, x, "cross-connection vs cold");
    assert!(service.stats().cache_hits >= 2);
    service.shutdown();
}
