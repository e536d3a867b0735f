//! Property tests: the memoizing [`EvalEngine`] must be **bit-identical**
//! to the direct [`DseTask`] evaluation paths across random inputs,
//! objectives and budgets — cold cache, warm cache, and under concurrent
//! access.

use std::sync::Arc;

use ai2_dse::{Budget, DesignPoint, DseTask, EvalEngine, Objective, Scoring};
use ai2_maestro::{Dataflow, GemmWorkload};
use ai2_workloads::generator::DseInput;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn arb_input(r: &mut StdRng) -> DseInput {
    DseInput {
        gemm: GemmWorkload::new(
            r.random_range(1u64..=256),
            r.random_range(1u64..=1677),
            r.random_range(1u64..=1185),
        ),
        dataflow: Dataflow::from_index(r.random_range(0usize..3)),
    }
}

fn arb_point(r: &mut StdRng) -> DesignPoint {
    DesignPoint {
        pe_idx: r.random_range(0usize..64),
        buf_idx: r.random_range(0usize..12),
    }
}

/// Exact equality that treats NaN as equal to NaN (score grids mark
/// infeasible points with NaN).
fn bits_eq(a: f64, b: f64) -> bool {
    a.to_bits() == b.to_bits()
}

/// The engine's sweep scored like [`DseTask::score_grid`] (NaN for
/// infeasible points).
fn score_grid(engine: &EvalEngine, input: &DseInput) -> Vec<f64> {
    let raw = engine.grid(input);
    engine
        .space()
        .iter_points()
        .map(|p| match engine.is_feasible(p) {
            true => engine
                .task()
                .objective
                .score_raw(raw[engine.space().flat_index(p)]),
            false => f64::NAN,
        })
        .collect()
}

#[test]
fn engine_point_queries_are_bit_identical_to_task() {
    let task = DseTask::table_i_default();
    let engine = EvalEngine::new(task.clone());
    let s = engine.scoring();
    let mut r = StdRng::seed_from_u64(0xE001);
    for _ in 0..32 {
        let input = arb_input(&mut r);
        for _ in 0..24 {
            let p = arb_point(&mut r);
            assert_eq!(engine.is_feasible(p), task.is_feasible(p));
            assert!(bits_eq(
                engine.cost(&input, p, &s),
                task.score_unchecked(&input, p)
            ));
            match (engine.score(&input, p, &s), task.score(&input, p)) {
                (Some(a), Some(b)) => assert!(bits_eq(a, b)),
                (None, None) => {}
                (a, b) => panic!("feasibility disagreement at {p:?}: {a:?} vs {b:?}"),
            }
        }
    }
}

#[test]
fn engine_oracle_and_grid_are_bit_identical_to_task() {
    let task = DseTask::table_i_default();
    let engine = EvalEngine::new(task.clone());
    let mut r = StdRng::seed_from_u64(0xE002);
    for _ in 0..24 {
        let input = arb_input(&mut r);
        // cold pass and warm (cached) pass must both match the task
        for pass in 0..2 {
            let res = engine.oracle(&input);
            assert_eq!(res, task.oracle(&input), "pass {pass}");
            let eg = score_grid(&engine, &input);
            let tg = task.score_grid(&input);
            assert_eq!(eg.len(), tg.len());
            for (i, (a, b)) in eg.iter().zip(&tg).enumerate() {
                assert!(bits_eq(*a, *b), "grid[{i}]: {a} vs {b} (pass {pass})");
            }
        }
    }
}

#[test]
fn engine_matches_task_across_objectives_and_budgets() {
    let mut r = StdRng::seed_from_u64(0xE003);
    let objectives = [Objective::Latency, Objective::Energy, Objective::Edp];
    let budgets = [
        Budget::Edge,
        Budget::Cloud,
        Budget::Unbounded,
        Budget::Custom(0.4),
    ];
    // one engine serves every (objective, budget) combination from a
    // single raw-cost cache
    let base = DseTask::table_i_default();
    let engine = EvalEngine::new(base.clone());
    for _ in 0..6 {
        let input = arb_input(&mut r);
        for objective in objectives {
            for budget in budgets {
                let task = DseTask::new(base.space().clone(), objective, budget, base.cost_model);
                assert_eq!(
                    engine.oracle_with(&input, objective, budget),
                    task.oracle(&input),
                    "{objective:?} under {budget:?}"
                );
            }
        }
    }
}

#[test]
fn concurrent_access_returns_identical_results() {
    let task = DseTask::table_i_default();
    let engine = Arc::new(EvalEngine::new(task.clone()));
    let mut r = StdRng::seed_from_u64(0xE004);
    // a small input set shared by every thread, so cache cells are hit
    // concurrently while they are still being filled
    let inputs: Vec<DseInput> = (0..6).map(|_| arb_input(&mut r)).collect();
    let expected: Vec<_> = inputs.iter().map(|i| task.oracle(i)).collect();
    let expected_grids: Vec<Vec<f64>> = inputs.iter().map(|i| task.score_grid(i)).collect();

    std::thread::scope(|scope| {
        for t in 0..8 {
            let engine = Arc::clone(&engine);
            let task = &task;
            let inputs = &inputs;
            let expected = &expected;
            let expected_grids = &expected_grids;
            scope.spawn(move || {
                let mut r = StdRng::seed_from_u64(0xE100 + t);
                for _ in 0..20 {
                    let i = r.random_range(0..inputs.len());
                    match r.random_range(0..3u32) {
                        0 => assert_eq!(engine.oracle(&inputs[i]), expected[i]),
                        1 => {
                            let g = score_grid(&engine, &inputs[i]);
                            for (a, b) in g.iter().zip(&expected_grids[i]) {
                                assert!(bits_eq(*a, *b));
                            }
                        }
                        _ => {
                            let p = arb_point(&mut r);
                            let s = engine.scoring();
                            assert_eq!(engine.score(&inputs[i], p, &s), task.score(&inputs[i], p));
                        }
                    }
                }
            });
        }
    });

    // after the storm, caches are consistent and still answer correctly
    for (input, exp) in inputs.iter().zip(&expected) {
        assert_eq!(engine.oracle(input), *exp);
    }
    let stats = engine.stats();
    assert!(stats.oracle_entries >= inputs.len().min(6));
}

#[test]
fn batch_and_scalar_paths_agree_bitwise() {
    let task = DseTask::table_i_default();
    let engine = EvalEngine::new(task.clone());
    let mut r = StdRng::seed_from_u64(0xE005);
    let inputs: Vec<DseInput> = (0..40).map(|_| arb_input(&mut r)).collect();
    let batch = engine
        .pool()
        .map(inputs.len(), |i| engine.oracle(&inputs[i]));
    for (input, res) in inputs.iter().zip(&batch) {
        assert_eq!(*res, task.oracle(input));
    }
    let queries: Vec<(DseInput, DesignPoint)> =
        inputs.iter().map(|&i| (i, arb_point(&mut r))).collect();
    let reuse = Scoring::reuse(task.objective, task.budget);
    let scores = engine.pool().map(queries.len(), |i| {
        let (input, p) = &queries[i];
        engine.score(input, *p, &reuse)
    });
    for ((input, p), s) in queries.iter().zip(&scores) {
        assert_eq!(*s, task.score(input, *p));
    }
}

#[test]
fn explicit_analytic_backend_is_bit_identical_to_task() {
    // the CostBackend indirection must not perturb a single bit: an
    // engine built through the named-backend path answers exactly like
    // the direct DseTask across random inputs, points and objectives
    use ai2_dse::BackendId;
    let task = DseTask::table_i_default();
    let engine = EvalEngine::for_backend(task.clone(), BackendId::Analytic);
    assert_eq!(engine.backend_id(), BackendId::Analytic);
    let mut r = StdRng::seed_from_u64(0xE006);
    for _ in 0..16 {
        let input = arb_input(&mut r);
        assert_eq!(engine.oracle(&input), task.oracle(&input));
        for _ in 0..8 {
            let p = arb_point(&mut r);
            assert!(bits_eq(
                engine.cost(&input, p, &engine.scoring()),
                task.score_unchecked(&input, p)
            ));
            assert!(bits_eq(engine.area_mm2(p), {
                task.cost_model.area_mm2(&task.space().config(p))
            }));
        }
    }
}

#[test]
fn per_backend_engines_never_share_cached_answers() {
    // two engines over the same task but different backends: each must
    // answer from its own backend even with hot caches, and warming one
    // must leave the other's counters untouched
    use ai2_dse::BackendId;
    let task = DseTask::table_i_default();
    let analytic = EvalEngine::for_backend(task.clone(), BackendId::Analytic);
    let systolic = EvalEngine::for_backend(task.clone(), BackendId::Systolic);
    let mut r = StdRng::seed_from_u64(0xE007);
    let mut diverged = 0usize;
    for _ in 0..12 {
        let input = arb_input(&mut r);
        // cold and warm passes: answers are stable per engine
        let a1 = analytic.oracle(&input);
        let s1 = systolic.oracle(&input);
        assert_eq!(a1, analytic.oracle(&input));
        assert_eq!(s1, systolic.oracle(&input));
        // feasible sets agree (shared area model), scores generally not
        assert_eq!(a1.feasible_points, s1.feasible_points);
        if a1.best_score.to_bits() != s1.best_score.to_bits() {
            diverged += 1;
        }
        // the analytic engine stays the exact DseTask oracle throughout
        assert_eq!(a1, task.oracle(&input));
    }
    assert!(
        diverged >= 8,
        "backends agreed on {} of 12 oracles — caches may be crossing",
        12 - diverged
    );
    // the systolic engine's caches were exercised without ever touching
    // the analytic engine's backend
    assert!(systolic.stats().oracle_hits >= 12);
    assert!(analytic.stats().oracle_hits >= 12);
}

#[test]
fn dataset_generation_is_identical_direct_and_engine_shared() {
    use ai2_dse::{DseDataset, GenerateConfig};
    let task = DseTask::table_i_default();
    let cfg = GenerateConfig {
        num_samples: 40,
        seed: 99,
        threads: 3,
        ..GenerateConfig::default()
    };
    let direct = DseDataset::generate(&task, &cfg);
    let engine = EvalEngine::new(task.clone());
    let via_engine = DseDataset::generate_with(&engine, &cfg);
    assert_eq!(direct, via_engine);
    // and a second generation through the warm cache is still identical
    let warm = DseDataset::generate_with(&engine, &cfg);
    assert_eq!(direct, warm);
}
