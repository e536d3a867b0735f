//! Criterion bench: the [`EvalEngine`] memoization payoff.
//!
//! * `oracle/cold_sweep` vs `oracle/warm_cache` — the full 768-point grid
//!   label vs the same query answered from the oracle cache. The warm
//!   path must be ≥ 2× faster (in practice it is orders of magnitude).
//! * `search/direct_task_equivalent_cold` vs `search/engine_warm` — a
//!   GAMMA search run scored point-by-point with nothing shared between
//!   runs (the pre-engine cost profile) vs one whose grid cache already
//!   holds the workload, the hot path of every search-vs-learning figure.
//! * `deployment/model_latency_batch_*` — fan-out of candidate
//!   configurations over the shared pool, cold vs warm.

use criterion::{black_box, criterion_group, criterion_main, Criterion};

use ai2_dse::search::{GammaSearcher, Searcher};
use ai2_dse::{DseTask, EvalEngine};
use ai2_maestro::{Dataflow, GemmWorkload};
use ai2_workloads::generator::DseInput;
use ai2_workloads::zoo;

fn bench_eval_engine(c: &mut Criterion) {
    let input = DseInput {
        gemm: GemmWorkload::new(96, 800, 400),
        dataflow: Dataflow::OutputStationary,
    };

    let mut group = c.benchmark_group("oracle");
    group.bench_function("direct_dse_task", |b| {
        let task = DseTask::table_i_default();
        b.iter(|| black_box(task.oracle(black_box(&input))))
    });
    group.bench_function("cold_sweep", |b| {
        // a fresh engine per iteration: full grid sweep every time
        b.iter(|| {
            let engine = EvalEngine::with_threads(DseTask::table_i_default(), 1);
            black_box(engine.oracle(black_box(&input)))
        })
    });
    group.bench_function("warm_cache", |b| {
        let engine = EvalEngine::table_i_default();
        engine.oracle(&input); // prime
        b.iter(|| black_box(engine.oracle(black_box(&input))))
    });
    group.finish();

    let mut group = c.benchmark_group("search");
    group.bench_function("direct_task_equivalent_cold", |b| {
        // fresh uncached engine per run ≈ the pre-engine cost profile
        // (every query recomputed, nothing shared between runs)
        b.iter(|| {
            let engine =
                EvalEngine::with_threads(DseTask::table_i_default(), 1).with_grid_capacity(0);
            black_box(GammaSearcher::new(1).search(&engine, input, 200))
        })
    });
    group.bench_function("engine_warm", |b| {
        let engine = EvalEngine::table_i_default();
        GammaSearcher::new(1).search(&engine, input, 200); // prime
        b.iter(|| black_box(GammaSearcher::new(1).search(&engine, input, 200)))
    });
    group.finish();

    let mut group = c.benchmark_group("deployment");
    let engine = EvalEngine::table_i_default();
    let layers = zoo::resnet18().to_dse_layers();
    let points: Vec<_> = engine.space().iter_points().step_by(48).collect();
    // every candidate's model latency, fanned out over the engine's pool
    let batch = |engine: &EvalEngine| -> Vec<f64> {
        let objective = engine.task().objective;
        engine.pool().map(points.len(), |i| {
            engine.model_cost(&layers, points[i], objective)
        })
    };
    group.bench_function("model_latency_batch_cold", |b| {
        b.iter(|| black_box(batch(&EvalEngine::table_i_default())))
    });
    group.bench_function("model_latency_batch_warm", |b| {
        batch(&engine); // prime
        b.iter(|| black_box(batch(&engine)))
    });
    group.finish();
}

criterion_group!(benches, bench_eval_engine);
criterion_main!(benches);
