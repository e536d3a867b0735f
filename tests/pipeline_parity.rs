//! Pipeline-parity contract over real TCP: a pre-pipeline client — one
//! whose request lines carry no `"pipeline"` key at all — must receive
//! response lines **byte-identical** to what the one-shot kernel
//! (`recommend_batch`) encodes, even on a server with extra staged
//! pipelines registered. On the same server, `"pipeline": "staged"`
//! requests must answer through the stage graph (never worse than the
//! one-shot point under the clamp's feasibility-first order), the
//! `Pipelines` admin message must list every compiled pipeline, and the
//! stats endpoint must account recommendations per pipeline.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;

use airchitect_repro::airchitect::{train::TrainConfig, Airchitect2, ModelCheckpoint, ModelConfig};
use airchitect_repro::dse::pipeline::{RefineMethod, StageCfg};
use airchitect_repro::dse::{
    BackendId, Budget, DseDataset, DseTask, EvalEngine, GenerateConfig, Objective, PipelineCfg,
    PipelineSet, Scoring,
};
use airchitect_repro::serve::protocol::{encode_line, PipelineServed};
use airchitect_repro::serve::{
    recommend_batch, AdminRequest, BackendEngines, Query, RecommendRequest, RecommendService,
    Request, Response, ServeConfig, TcpClient,
};

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

/// The registry under test: the implicit `"default"` plus a
/// predict → refine → verify stage graph.
fn staged_pipelines() -> PipelineSet {
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
    .expect("the parity-test pipeline compiles")
}

fn mixed_requests() -> Vec<RecommendRequest> {
    const OBJECTIVES: [Objective; 3] = [Objective::Latency, Objective::Energy, Objective::Edp];
    const DATAFLOWS: [&str; 3] = ["ws", "os", "rs"];
    let mut reqs = Vec::new();
    for i in 0..9u64 {
        reqs.push(RecommendRequest {
            id: i,
            query: Query::Gemm {
                m: 1 + (i * 41) % 256,
                n: 1 + (i * 113) % 1677,
                k: 1 + (i * 97) % 1185,
                dataflow: DATAFLOWS[i as usize % 3].into(),
            },
            objective: OBJECTIVES[i as usize % 3],
            budget: if i % 4 == 0 {
                Budget::Unbounded
            } else {
                Budget::Edge
            },
            deadline_ms: None,
            backend: if i % 3 == 2 {
                Some("systolic".into())
            } else {
                None
            },
            pipeline: None,
        });
    }
    reqs.push(RecommendRequest {
        id: 9,
        query: Query::Model {
            name: "resnet18".into(),
        },
        objective: Objective::Edp,
        budget: Budget::Edge,
        deadline_ms: None,
        backend: None,
        pipeline: None,
    });
    reqs
}

/// Encode `req` the way a pre-pipeline client would: the request line
/// has no `"pipeline"` key at all (not even an explicit `null`).
fn pre_pipeline_line(req: &RecommendRequest) -> String {
    assert!(
        req.pipeline.is_none(),
        "legacy clients cannot name pipelines"
    );
    let line = encode_line(&Request::Recommend(req.clone()));
    let stripped = line.replace(",\"pipeline\":null", "");
    assert_ne!(
        stripped, line,
        "expected the encoded request to carry a pipeline:null field to strip: {line}"
    );
    stripped
}

#[test]
fn pipeline_less_tcp_lines_are_byte_identical_to_the_one_shot_kernel() {
    let (engine, ckpt) = trained_checkpoint();
    let mut service = RecommendService::start(
        ServeConfig {
            pipelines: staged_pipelines(),
            ..ServeConfig::default()
        },
        engine,
        ckpt.clone(),
    );
    let addr = service.listen("127.0.0.1:0").expect("ephemeral port");

    // ---- ground truth: the one-shot kernel on an independent replica
    let fresh_engine = EvalEngine::shared(DseTask::table_i_default());
    let replica =
        Airchitect2::from_checkpoint(Arc::clone(&fresh_engine), &ckpt).expect("restore replica");
    let fresh_engines = BackendEngines::new(fresh_engine);
    let reqs = mixed_requests();
    let expected = recommend_batch(&replica, &fresh_engines, &reqs);

    // ---- a raw pre-pipeline client: hand-written lines, byte compare
    let stream = TcpStream::connect(addr).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone stream"));
    let mut writer = stream;
    for (req, expect) in reqs.iter().zip(&expected) {
        assert!(
            matches!(expect, Response::Recommendation(_)),
            "parity fixture queries must all succeed: {expect:?}"
        );
        writer
            .write_all(format!("{}\n", pre_pipeline_line(req)).as_bytes())
            .expect("send raw line");
        let mut got = String::new();
        reader.read_line(&mut got).expect("response line");
        assert_eq!(
            got.trim_end(),
            encode_line(expect),
            "query {}: the served line is not byte-identical to the one-shot kernel's",
            req.id
        );
    }

    // warm (cached) answers must stay byte-identical too
    let repeat = RecommendRequest {
        id: 77,
        ..reqs[1].clone()
    };
    let Response::Recommendation(mut rec) = expected[1].clone() else {
        unreachable!("checked above");
    };
    rec.id = 77;
    writer
        .write_all(format!("{}\n", pre_pipeline_line(&repeat)).as_bytes())
        .expect("send raw line");
    let mut got = String::new();
    reader.read_line(&mut got).expect("response line");
    assert_eq!(got.trim_end(), encode_line(&Response::Recommendation(rec)));
    assert!(service.stats().cache_hits >= 1);

    service.shutdown();
}

#[test]
fn staged_requests_listing_and_per_pipeline_stats_work_over_tcp() {
    let (engine, ckpt) = trained_checkpoint();
    let mut service = RecommendService::start(
        ServeConfig {
            pipelines: staged_pipelines(),
            ..ServeConfig::default()
        },
        engine,
        ckpt.clone(),
    );
    let addr = service.listen("127.0.0.1:0").expect("ephemeral port");
    let mut tcp = TcpClient::connect(addr).expect("connect");

    // ---- the admin listing names every compiled pipeline ------------
    let listing = tcp
        .send(&Request::Admin(AdminRequest::Pipelines { id: 1 }))
        .unwrap();
    let Response::Pipelines { id: 1, pipelines } = &listing else {
        panic!("expected pipelines listing, got {listing:?}");
    };
    let listed: Vec<(&str, Vec<&str>)> = pipelines
        .iter()
        .map(|p| {
            (
                p.name.as_str(),
                p.stages.iter().map(String::as_str).collect(),
            )
        })
        .collect();
    assert_eq!(
        listed,
        vec![
            ("default", vec!["predict"]),
            ("staged", vec!["predict", "refine", "verify"]),
        ],
        "registration order, default first"
    );

    // ---- staged answers obey the feasibility-first never-worse clamp
    let fresh_engine = EvalEngine::shared(DseTask::table_i_default());
    let replica =
        Airchitect2::from_checkpoint(Arc::clone(&fresh_engine), &ckpt).expect("restore replica");
    let fresh_engines = BackendEngines::new(fresh_engine);
    let mut staged_served = 0u64;
    let mut default_served = 0u64;
    for (i, mut req) in mixed_requests().into_iter().enumerate() {
        let one_shot = recommend_batch(&replica, &fresh_engines, std::slice::from_ref(&req));
        let Response::Recommendation(one_shot) = &one_shot[0] else {
            panic!("one-shot fixture query failed: {one_shot:?}");
        };
        if matches!(req.query, Query::Gemm { .. }) && i % 2 == 0 {
            req.pipeline = Some("staged".into());
        }
        let staged = req.pipeline.is_some();
        let resp = tcp.send(&Request::Recommend(req.clone())).unwrap();
        let Response::Recommendation(rec) = &resp else {
            panic!("query {} failed: {resp:?}", req.id);
        };
        if staged {
            staged_served += 1;
            // re-score the one-shot point on the staged answer's
            // verifying backend: staged may cost more only when it buys
            // feasibility
            let backend: BackendId = rec.backend.parse().expect("served backend parses");
            let scorer = fresh_engines.get(backend);
            let input = req.query.as_dse_input().expect("GEMM input");
            let os_cost = scorer.cost(
                &input,
                one_shot.point,
                &Scoring::new(req.objective, req.budget),
            );
            let os_feasible = scorer.is_feasible_under(one_shot.point, req.budget);
            assert!(
                !((!rec.feasible && os_feasible)
                    || (rec.feasible == os_feasible && rec.cost > os_cost)),
                "query {}: staged (feasible={} cost={}) is worse than one-shot (feasible={} \
                 cost={})",
                req.id,
                rec.feasible,
                rec.cost,
                os_feasible,
                os_cost
            );
        } else {
            default_served += 1;
            assert_eq!(
                (rec.point, rec.cost.to_bits(), rec.feasible),
                (one_shot.point, one_shot.cost.to_bits(), one_shot.feasible),
                "query {}: default pipeline diverged from the one-shot kernel",
                req.id
            );
        }
    }

    // ---- unknown pipelines are rejected cleanly, service stays up ---
    let mut bad = mixed_requests().remove(0);
    bad.id = 50;
    bad.pipeline = Some("warp".into());
    let resp = tcp.send(&Request::Recommend(bad)).unwrap();
    assert!(
        matches!(&resp, Response::Error { id: 50, message } if message.contains("pipeline")),
        "unexpected {resp:?}"
    );

    // ---- stats account recommendations per pipeline -----------------
    let stats = tcp
        .send(&Request::Admin(AdminRequest::Stats { id: 60 }))
        .unwrap();
    let Response::Stats(stats) = &stats else {
        panic!("expected stats, got {stats:?}");
    };
    assert_eq!(
        stats.pipelines,
        vec![
            PipelineServed {
                name: "default".into(),
                served: default_served,
            },
            PipelineServed {
                name: "staged".into(),
                served: staged_served,
            },
        ],
        "per-pipeline accounting (errors excluded, name-sorted)"
    );
    assert_eq!(stats.served, default_served + staged_served);

    service.shutdown();
}
