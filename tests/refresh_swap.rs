//! Online-refresh integration:
//!
//! 1. a **live checkpoint swap under 64 concurrent TCP queries** must
//!    drop zero requests, report the new lineage version through
//!    `stats`, and answer post-swap queries bit-identically to a fresh
//!    replica restored independently from the published checkpoint
//!    file;
//! 2. the **active-learning refresh loop** (replay buffer → oracle
//!    labels → disagreement-ranked fine-tune → publish) must reduce
//!    predictor-vs-oracle disagreement on held-out served queries
//!    versus the frozen seed checkpoint, under fixed seeds.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};

use airchitect_repro::airchitect::{train::TrainConfig, Airchitect2, ModelCheckpoint, ModelConfig};
use airchitect_repro::dse::{
    Budget, DseDataset, DseTask, EvalEngine, GenerateConfig, Objective, Scoring,
};
use airchitect_repro::maestro::{Dataflow, GemmWorkload};
use airchitect_repro::serve::{
    AdminRequest, Query, RecommendRequest, RecommendService, Recommendation, RefreshConfig,
    Request, Response, ServeConfig, TcpClient,
};
use airchitect_repro::workloads::generator::DseInput;

fn train_checkpoint(model_seed: u64, data_seed: u64, cfg: &TrainConfig) -> ModelCheckpoint {
    let task = DseTask::table_i_default();
    let ds = DseDataset::generate(
        &task,
        &GenerateConfig {
            num_samples: 80,
            seed: data_seed,
            threads: 0,
            ..GenerateConfig::default()
        },
    );
    let engine = EvalEngine::shared(task);
    let mut model = Airchitect2::with_engine(
        &ModelConfig {
            seed: model_seed,
            ..ModelConfig::tiny()
        },
        Arc::clone(&engine),
        &ds,
    );
    model.fit(&ds, cfg);
    model
        .checkpoint()
        .with_provenance(engine.backend_id().as_str(), ds.len() as u64)
}

fn gemm_req(id: u64, m: u64, n: u64, k: u64) -> RecommendRequest {
    RecommendRequest {
        id,
        query: Query::Gemm {
            m,
            n,
            k,
            dataflow: ["ws", "os", "rs"][id as usize % 3].into(),
        },
        objective: [Objective::Latency, Objective::Energy, Objective::Edp][(id / 2) as usize % 3],
        budget: Budget::Edge,
        deadline_ms: None,
        backend: None,
        pipeline: None,
    }
}

/// Query `i` of the 64-query swap storm (dims distinct from the
/// post-swap probe set below).
fn storm_req(i: u64) -> RecommendRequest {
    gemm_req(
        i,
        1 + (i * 37) % 256,
        1 + (i * 131) % 1500,
        1 + (i * 89) % 1000,
    )
}

#[test]
fn live_swap_under_64_concurrent_queries_drops_nothing() {
    let seed_ckpt = train_checkpoint(7, 0xAAA, &TrainConfig::quick()).with_version(1);
    let next_ckpt = train_checkpoint(99, 0xBBB, &TrainConfig::quick()).with_version(2);

    let dir = std::env::temp_dir().join("ai2_refresh_swap_test");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("next.json");
    next_ckpt.save(&path).expect("save next checkpoint");

    let engine = EvalEngine::shared(DseTask::table_i_default());
    let mut service = RecommendService::start(
        ServeConfig {
            shards: 2,
            max_batch: 16,
            cache_capacity: 256,
            ..ServeConfig::default()
        },
        Arc::clone(&engine),
        seed_ckpt,
    );
    let addr = service.listen("127.0.0.1:0").expect("ephemeral port");
    assert_eq!(service.model_version(), 1);

    // ---- 64 concurrent queries over 8 connections, swap mid-storm ---
    // Every worker fires 4 queries, rendezvouses at the barrier, then
    // fires 4 more while the swapper publishes the new checkpoint — so
    // the swap is guaranteed concurrent with in-flight traffic.
    let errors = AtomicU64::new(0);
    let answered = AtomicU64::new(0);
    let barrier = Barrier::new(9); // 8 workers + 1 swapper
    std::thread::scope(|scope| {
        for w in 0..8u64 {
            let (errors, answered, barrier) = (&errors, &answered, &barrier);
            scope.spawn(move || {
                let mut client = TcpClient::connect(addr).expect("connect");
                let mut run = |ids: std::ops::Range<u64>| {
                    for i in ids {
                        match client.send(&Request::Recommend(storm_req(i))) {
                            Ok(Response::Recommendation(rec)) => {
                                assert_eq!(rec.id, i, "response routed to the wrong request");
                                answered.fetch_add(1, Ordering::Relaxed);
                            }
                            other => {
                                eprintln!("query {i} failed: {other:?}");
                                errors.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                    }
                };
                run(w * 8..w * 8 + 4);
                barrier.wait();
                run(w * 8 + 4..w * 8 + 8);
            });
        }
        scope.spawn(|| {
            barrier.wait();
            let mut admin = TcpClient::connect(addr).expect("admin connect");
            let ack = admin
                .send(&Request::Admin(AdminRequest::Swap {
                    id: 1000,
                    path: path.to_string_lossy().into_owned(),
                    bump: None,
                }))
                .expect("swap transport");
            assert!(
                matches!(&ack, Response::Admin(a) if a.model_version == 2 && a.op == "swap"),
                "swap not acknowledged: {ack:?}"
            );
        });
    });

    // ---- zero dropped / errored requests ----------------------------
    assert_eq!(
        errors.load(Ordering::Relaxed),
        0,
        "requests failed across the swap"
    );
    assert_eq!(
        answered.load(Ordering::Relaxed),
        64,
        "requests went missing"
    );
    let stats = service.stats();
    assert_eq!(stats.served, 64, "server-side accounting: {stats:?}");
    assert_eq!(stats.errors, 0, "server-side errors: {stats:?}");

    // ---- stats report the new version -------------------------------
    assert_eq!(stats.model_version, 2, "{stats:?}");
    assert_eq!(stats.swaps, 1, "{stats:?}");

    // ---- post-swap answers are bit-identical to a fresh replica -----
    // restored *independently from the published checkpoint file*
    let fresh_engine = EvalEngine::shared(DseTask::table_i_default());
    let published = ModelCheckpoint::load(&path).expect("reload published checkpoint");
    assert_eq!(published.version, 2);
    let replica = Airchitect2::from_checkpoint(Arc::clone(&fresh_engine), &published)
        .expect("restore replica");
    let mut tcp = TcpClient::connect(addr).expect("probe connect");
    for j in 0..12u64 {
        // probe dims disjoint from the storm (and from each other), so
        // nothing is answered from a cache slot
        let req = gemm_req(1_000 + j, 300 + j * 3, 1_700 + j * 7, 1_100 + j * 5);
        let resp = tcp
            .send(&Request::Recommend(req.clone()))
            .expect("probe send");
        let Response::Recommendation(served) = &resp else {
            panic!("post-swap probe {j} failed: {resp:?}");
        };
        let input: DseInput = req.query.as_dse_input().expect("valid probe");
        let point = replica.predict(std::slice::from_ref(&input))[0];
        let cost = fresh_engine.cost(&input, point, &Scoring::new(req.objective, req.budget));
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
        assert_eq!(
            served, &direct,
            "post-swap probe {j} diverged from the fresh replica"
        );
        assert_eq!(
            served.cost.to_bits(),
            direct.cost.to_bits(),
            "probe {j}: cost bits diverged"
        );
    }

    std::fs::remove_file(&path).ok();
    service.shutdown();
}

/// Queries in a narrow large-GEMM corner of the input space the weak
/// seed model has barely seen — where active learning has signal.
fn corner_input(i: u64) -> (u64, u64, u64) {
    (
        200 + (i * 7) % 56,
        1_200 + (i * 61) % 470,
        800 + (i * 37) % 380,
    )
}

#[test]
fn active_learning_refresh_reduces_disagreement_on_held_out_queries() {
    // a deliberately weak seed model: small corpus, short schedule
    let weak = TrainConfig {
        stage1_epochs: 6,
        stage2_epochs: 6,
        batch_size: 64,
        ..TrainConfig::default()
    };
    let seed_ckpt = train_checkpoint(7, 0xF00D, &weak).with_version(1);

    let engine = EvalEngine::shared(DseTask::table_i_default());
    let service = RecommendService::start(
        ServeConfig {
            shards: 1,         // deterministic replay order
            cache_capacity: 0, // every query computed (and recorded)
            refresh: Some(RefreshConfig {
                min_buffer: 32,
                keep_fraction: 0.75,
                train: TrainConfig {
                    stage2_epochs: 40,
                    batch_size: 32,
                    // the fine-tune rate, not the from-scratch rate
                    // (see RefreshConfig::default)
                    lr_stage2: 5e-4,
                    seed: 0x5EED,
                    ..TrainConfig::default()
                },
                ..RefreshConfig::default()
            }),
            ..ServeConfig::default()
        },
        Arc::clone(&engine),
        seed_ckpt.clone(),
    );

    // ---- serve 48 queries from the corner distribution --------------
    let client = service.client();
    for i in 0..48u64 {
        let (m, n, k) = corner_input(i);
        let resp = client.recommend(gemm_req(i, m, n, k));
        assert!(matches!(resp, Response::Recommendation(_)), "{resp:?}");
    }
    assert_eq!(service.replay_len(), 48);

    // ---- held-out set: same distribution, disjoint queries ----------
    let held_inputs: Vec<DseInput> = (0..24u64)
        .map(|j| {
            let (m, n, k) = corner_input(1_000 + j * 3 + 1);
            DseInput {
                gemm: GemmWorkload::new(m, n, k),
                dataflow: Dataflow::from_index((j % 3) as usize),
            }
        })
        .collect();
    let held_ds = DseDataset::label_inputs(&engine, &held_inputs);

    // frozen seed replica's disagreement on the held-out queries
    let frozen = Airchitect2::from_checkpoint(Arc::clone(&engine), &seed_ckpt).expect("restore");
    let ratio_frozen = frozen.predictor().latency_ratio(&held_ds);

    // ---- one refresh cycle ------------------------------------------
    let outcome = service.refresh_now().expect("refresh");
    assert_eq!(outcome.version, 2);
    assert_eq!(outcome.replayed, 48);
    assert_eq!(outcome.trained_on, 36, "75% of 48 selected by disagreement");
    assert!(
        outcome.disagreement_after < outcome.disagreement_before,
        "fine-tuning did not reduce on-buffer disagreement: {outcome:?}"
    );
    assert_eq!(service.model_version(), 2);
    let published = service.current_checkpoint();
    assert_eq!(published.provenance.training_samples, 36);
    assert!(service.replay_len() == 0, "refresh drains the buffer");

    // ---- the refreshed replica disagrees less on HELD-OUT queries ---
    let refreshed =
        Airchitect2::from_checkpoint(Arc::clone(&engine), &published).expect("restore refreshed");
    let ratio_refreshed = refreshed.predictor().latency_ratio(&held_ds);
    assert!(
        ratio_refreshed < ratio_frozen,
        "refresh did not help on held-out served queries: \
         frozen {ratio_frozen:.4} vs refreshed {ratio_refreshed:.4}"
    );

    service.shutdown();
}
