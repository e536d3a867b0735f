//! End-to-end coverage of the pluggable `CostBackend` layer: the
//! cycle-accurate systolic backend must be reachable from a TCP query
//! (`"backend": "systolic"`) and from dataset generation; the analytic
//! backend through the same path must stay bit-identical to the direct
//! `DseTask`; and the per-backend caches must never mix.

use std::sync::Arc;

use airchitect_repro::airchitect::{train::TrainConfig, Airchitect2, ModelConfig};
use airchitect_repro::dse::{
    BackendId, Budget, DseDataset, DseTask, EvalEngine, GenerateConfig, Objective, Scoring,
};
use airchitect_repro::serve::{
    Query, RecommendRequest, RecommendService, Request, Response, ServeConfig, TcpClient,
};

fn gemm_req(id: u64, backend: Option<&str>) -> RecommendRequest {
    RecommendRequest {
        id,
        query: Query::Gemm {
            m: 72,
            n: 640,
            k: 320,
            dataflow: "os".into(),
        },
        objective: Objective::Latency,
        budget: Budget::Edge,
        deadline_ms: None,
        backend: backend.map(str::to_string),
        pipeline: None,
    }
}

#[test]
fn systolic_backend_is_reachable_over_tcp_with_isolated_caches() {
    let task = DseTask::table_i_default();
    let ds = DseDataset::generate(
        &task,
        &GenerateConfig {
            num_samples: 40,
            seed: 0xBACC,
            threads: 0,
            ..GenerateConfig::default()
        },
    );
    let engine = EvalEngine::shared(task.clone());
    let mut model = Airchitect2::with_engine(&ModelConfig::tiny(), Arc::clone(&engine), &ds);
    model.fit(&ds, &TrainConfig::quick());
    let ckpt = model.checkpoint();

    let mut service = RecommendService::start(ServeConfig::default(), engine, ckpt.clone());
    let addr = service.listen("127.0.0.1:0").expect("ephemeral port");
    let mut tcp = TcpClient::connect(addr).unwrap();

    // -- the same canonical GEMM on both backends ---------------------
    let ana = tcp.send(&Request::Recommend(gemm_req(1, None))).unwrap();
    let sys = tcp
        .send(&Request::Recommend(gemm_req(2, Some("systolic"))))
        .unwrap();
    let (Response::Recommendation(ana), Response::Recommendation(sys)) = (&ana, &sys) else {
        panic!("expected recommendations: {ana:?} / {sys:?}");
    };
    assert_eq!(ana.backend, "analytic");
    assert_eq!(sys.backend, "systolic");
    // the predicted point is backend-independent, its verified cost is not
    assert_eq!(ana.point, sys.point);
    assert_ne!(ana.cost.to_bits(), sys.cost.to_bits());

    // -- served costs match independently built engines ----------------
    let input = gemm_req(0, None).query.as_dse_input().unwrap();
    let fresh_analytic = EvalEngine::for_backend(task.clone(), BackendId::Analytic);
    let fresh_systolic = EvalEngine::for_backend(task.clone(), BackendId::Systolic);
    assert_eq!(
        ana.cost.to_bits(),
        fresh_analytic
            .cost(
                &input,
                ana.point,
                &Scoring::new(Objective::Latency, Budget::Unbounded)
            )
            .to_bits(),
        "served analytic cost diverged from a fresh analytic engine"
    );
    assert_eq!(
        sys.cost.to_bits(),
        fresh_systolic
            .cost(
                &input,
                sys.point,
                &Scoring::new(Objective::Latency, Budget::Unbounded)
            )
            .to_bits(),
        "served systolic cost diverged from a fresh systolic engine"
    );
    // and the analytic path is bit-identical to the direct DseTask
    assert_eq!(
        ana.cost.to_bits(),
        task.score_unchecked(&input, ana.point).to_bits(),
        "analytic backend broke DseTask bit-identicality"
    );

    // -- response cache: per-backend slots, no cross-talk -------------
    assert_eq!(service.stats().cache_hits, 0);
    let again_sys = tcp
        .send(&Request::Recommend(gemm_req(3, Some("systolic"))))
        .unwrap();
    let Response::Recommendation(again_sys) = &again_sys else {
        panic!("expected recommendation: {again_sys:?}");
    };
    assert_eq!(again_sys.cost.to_bits(), sys.cost.to_bits());
    assert_eq!(again_sys.backend, "systolic");
    assert_eq!(service.stats().cache_hits, 1);

    // -- unknown backends are rejected cleanly, service stays up ------
    let bad = tcp
        .send(&Request::Recommend(gemm_req(4, Some("rtl"))))
        .unwrap();
    assert!(
        matches!(&bad, Response::Error { id: 4, message } if message.contains("backend")),
        "unexpected {bad:?}"
    );
    assert!(matches!(
        tcp.send(&Request::Recommend(gemm_req(5, None))).unwrap(),
        Response::Recommendation(_)
    ));

    // -- whole-model queries route through the systolic engine too ----
    let model_req = RecommendRequest {
        id: 6,
        query: Query::Model {
            name: "resnet18".into(),
        },
        objective: Objective::Latency,
        budget: Budget::Edge,
        deadline_ms: None,
        backend: Some("systolic".into()),
        pipeline: None,
    };
    let deployed = tcp.send(&Request::Recommend(model_req)).unwrap();
    let Response::Recommendation(deployed) = &deployed else {
        panic!("expected recommendation: {deployed:?}");
    };
    assert_eq!(deployed.backend, "systolic");
    assert!(deployed.cost > 0.0 && deployed.layers > 1);

    service.shutdown();
}

#[test]
fn cascade_backend_is_reachable_over_tcp_with_isolated_caches() {
    let task = DseTask::table_i_default();
    let ds = DseDataset::generate(
        &task,
        &GenerateConfig {
            num_samples: 40,
            seed: 0xCA5C,
            threads: 0,
            ..GenerateConfig::default()
        },
    );
    let engine = EvalEngine::shared(task.clone());
    let mut model = Airchitect2::with_engine(&ModelConfig::tiny(), Arc::clone(&engine), &ds);
    model.fit(&ds, &TrainConfig::quick());
    let ckpt = model.checkpoint();

    let mut service = RecommendService::start(ServeConfig::default(), engine, ckpt);
    let addr = service.listen("127.0.0.1:0").expect("ephemeral port");
    let mut tcp = TcpClient::connect(addr).unwrap();

    // -- the same canonical GEMM on all three backends ----------------
    let ana = tcp.send(&Request::Recommend(gemm_req(1, None))).unwrap();
    let sys = tcp
        .send(&Request::Recommend(gemm_req(2, Some("systolic"))))
        .unwrap();
    let cas = tcp
        .send(&Request::Recommend(gemm_req(3, Some("cascade"))))
        .unwrap();
    let (
        Response::Recommendation(ana),
        Response::Recommendation(sys),
        Response::Recommendation(cas),
    ) = (&ana, &sys, &cas)
    else {
        panic!("expected recommendations: {ana:?} / {sys:?} / {cas:?}");
    };
    assert_eq!(cas.backend, "cascade");
    // the predicted point is backend-independent; the verified cost is
    // the cascade's systolic-calibrated cell, not the analytic number
    assert_eq!(cas.point, ana.point);
    assert_ne!(cas.cost.to_bits(), ana.cost.to_bits());

    // -- the served cascade cost matches a fresh staged engine --------
    let input = gemm_req(0, None).query.as_dse_input().unwrap();
    let fresh_cascade = EvalEngine::for_backend(task.clone(), BackendId::Cascade);
    assert_eq!(
        cas.cost.to_bits(),
        fresh_cascade
            .cost(
                &input,
                cas.point,
                &Scoring::new(Objective::Latency, Budget::Unbounded)
            )
            .to_bits(),
        "served cascade cost diverged from a fresh prefilter+escalate engine"
    );

    // -- three per-backend cache slots, no cross-talk -----------------
    assert_eq!(service.stats().cache_hits, 0);
    for (id, backend, expected) in [
        (4, Some("cascade"), cas.cost),
        (5, None, ana.cost),
        (6, Some("systolic"), sys.cost),
    ] {
        let again = tcp
            .send(&Request::Recommend(gemm_req(id, backend)))
            .unwrap();
        let Response::Recommendation(again) = &again else {
            panic!("expected recommendation: {again:?}");
        };
        assert_eq!(again.cost.to_bits(), expected.to_bits());
    }
    assert_eq!(
        service.stats().cache_hits,
        3,
        "each backend's repeat must hit its own cache slot"
    );

    // -- the unknown-backend error names cascade as a choice ----------
    let bad = tcp
        .send(&Request::Recommend(gemm_req(7, Some("rtl"))))
        .unwrap();
    assert!(
        matches!(&bad, Response::Error { id: 7, message }
            if message.contains("cascade") && message.contains("systolic")),
        "the backend error must enumerate every valid backend: {bad:?}"
    );

    service.shutdown();
}

#[test]
fn dataset_generation_trains_on_systolic_labels_end_to_end() {
    let task = DseTask::table_i_default();
    let analytic_cfg = GenerateConfig {
        num_samples: 60,
        seed: 0x5157,
        threads: 0,
        ..GenerateConfig::default()
    };
    let systolic_cfg = GenerateConfig {
        backend: BackendId::Systolic,
        ..analytic_cfg.clone()
    };
    let analytic_ds = DseDataset::generate(&task, &analytic_cfg);
    let systolic_ds = DseDataset::generate(&task, &systolic_cfg);

    // same seeded inputs, different oracle labels
    assert_eq!(analytic_ds.len(), systolic_ds.len());
    for (a, s) in analytic_ds.samples.iter().zip(&systolic_ds.samples) {
        assert_eq!((a.m, a.n, a.k, a.dataflow), (s.m, s.n, s.k, s.dataflow));
    }
    assert!(
        analytic_ds
            .samples
            .iter()
            .zip(&systolic_ds.samples)
            .any(|(a, s)| a.best_score.to_bits() != s.best_score.to_bits()),
        "systolic labels never diverged from analytic — backend not wired through"
    );
    // the systolic labels really are the systolic engine's oracle
    let engine = EvalEngine::for_backend(task.clone(), BackendId::Systolic);
    for s in systolic_ds.samples.iter().take(8) {
        let oracle = engine.oracle(&s.input());
        assert_eq!(s.optimal, oracle.best_point);
        assert_eq!(s.best_score.to_bits(), oracle.best_score.to_bits());
    }

    // the full training pipeline accepts the systolic-labeled corpus
    let shared = Arc::new(EvalEngine::for_backend(task, BackendId::Systolic));
    let mut model = Airchitect2::with_engine(&ModelConfig::tiny(), shared, &systolic_ds);
    let report = model.fit(&systolic_ds, &TrainConfig::quick());
    assert!(report.stage1.iter().all(|l| l.is_finite()));
    assert!(report.stage2.iter().all(|l| l.is_finite()));
    let predicted = model.predict(&[systolic_ds.samples[0].input()]);
    assert_eq!(predicted.len(), 1);
}
