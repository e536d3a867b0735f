//! Criterion bench: the two cost backends side by side behind one
//! [`EvalEngine`] interface.
//!
//! * `point/{analytic,systolic}` — single raw-cost evaluations through a
//!   warm engine (the serving hot path per backend).
//! * `oracle_cold/{analytic,systolic}` — a full 768-point grid label on
//!   a fresh engine: what one dataset-generation sample costs per
//!   backend. The systolic backend's closed-form schedule accounting is
//!   what keeps this in the same order of magnitude as the analytic
//!   sweep instead of minutes of cycle stepping.
//! * `oracle_warm/{analytic,systolic}` — the same query answered from
//!   each engine's own oracle cache (caches are per-engine, so each
//!   backend pays its own cold sweep exactly once).

use criterion::{black_box, criterion_group, criterion_main, Criterion};

use ai2_dse::{BackendId, DesignPoint, DseTask, EvalEngine};
use ai2_maestro::{Dataflow, GemmWorkload};
use ai2_workloads::generator::DseInput;

fn engines() -> [(&'static str, EvalEngine); 2] {
    [
        (
            "analytic",
            EvalEngine::for_backend(DseTask::table_i_default(), BackendId::Analytic),
        ),
        (
            "systolic",
            EvalEngine::for_backend(DseTask::table_i_default(), BackendId::Systolic),
        ),
    ]
}

fn bench_backend_parity(c: &mut Criterion) {
    let input = DseInput {
        gemm: GemmWorkload::new(96, 800, 400),
        dataflow: Dataflow::OutputStationary,
    };
    let point = DesignPoint {
        pe_idx: 20,
        buf_idx: 6,
    };

    let mut group = c.benchmark_group("point");
    for (name, engine) in engines() {
        let scoring = engine.scoring();
        engine.cost(&input, point, &scoring); // warm the grid cell
        group.bench_function(name, |b| {
            b.iter(|| black_box(engine.cost(black_box(&input), point, &scoring)))
        });
    }
    group.finish();

    let mut group = c.benchmark_group("oracle_cold");
    for (name, id) in [
        ("analytic", BackendId::Analytic),
        ("systolic", BackendId::Systolic),
    ] {
        group.bench_function(name, |b| {
            b.iter(|| {
                let engine = EvalEngine::for_backend(DseTask::table_i_default(), id);
                black_box(engine.oracle(black_box(&input)))
            })
        });
    }
    group.finish();

    let mut group = c.benchmark_group("oracle_warm");
    for (name, engine) in engines() {
        engine.oracle(&input); // prime each backend's own cache
        group.bench_function(name, |b| {
            b.iter(|| black_box(engine.oracle(black_box(&input))))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_backend_parity);
criterion_main!(benches);
