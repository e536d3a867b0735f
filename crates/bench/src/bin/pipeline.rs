//! One-shot vs staged pipeline benchmark: how much regret does the
//! predict → refine → verify stage graph recover over the pure one-shot
//! predictor, and what does the recovery cost in cycle-accurate
//! (systolic) verification evaluations per query?
//!
//! For a deterministic GEMM mix (the `nth_query` sweep), the binary
//! quick-trains a predictor and answers every query twice through the
//! pipeline executor: once with the built-in `"default"` (one-shot)
//! pipeline and once with `"staged"` (predict → refine(annealing) →
//! verify(systolic) → refine(annealing, systolic) — the final short
//! anneal *on the verifying backend* is what closes the regret the
//! analytic-side refine cannot see). Both answers are scored on the
//! **systolic**
//! engine and compared against that engine's exhaustive *feasible*
//! oracle under the same objective and budget:
//!
//! ```text
//! regret = cost(answer) / cost(oracle feasible best) - 1
//! ```
//!
//! Feasibility makes a raw mean across all queries misleading: a
//! one-shot answer that blows the area budget can undercut the feasible
//! oracle, while the staged pipeline legitimately spends cost to buy
//! feasibility back (the clamp's rank order is feasible-first). So the
//! headline means are **like-for-like**: computed over the queries
//! where both answers are feasible, where the executor's clamp makes
//! staged ≤ one-shot pointwise on the verifying backend. The report
//! also counts feasible answers per flavor — staged must never have
//! fewer (the clamp again).
//!
//! The run fails (exit 1) if either guarantee breaks — that is a
//! pipeline bug, not noise — or, with `--max-regret`, if the staged
//! like-for-like mean regret exceeds the gate. The machine-readable
//! record lands in `results/BENCH_pipeline.json` (summary plus
//! per-query rows, including the per-backend evaluation budget each
//! staged answer spent).
//!
//! ```text
//! pipeline [--queries N]       GEMM queries from the nth_query sweep (default 12)
//!          [--samples N]       training-set size for the quick predictor (default 400)
//!          [--seed N]          dataset/model seed (default 0xA12C)
//!          [--refine-budget N] analytic annealing evaluations per staged query (default 48)
//!          [--verify-k N]      candidates re-scored by the verify stage (default 4)
//!          [--polish-budget N] systolic annealing evaluations after verify (default 32)
//!          [--max-regret X]    fail when staged mean regret exceeds X
//!          [--out DIR]         output directory (default results/)
//! ```

use std::path::PathBuf;
use std::sync::Arc;

use ai2_bench::queries::nth_query;
use ai2_dse::pipeline::{RefineMethod, StageCfg};
use ai2_dse::{
    BackendEngines, BackendId, DseDataset, DseTask, EvalEngine, GenerateConfig, PipelineCfg,
    PipelineQuery, PipelineSet, Scoring,
};
use ai2_workloads::generator::DseInput;
use airchitect::train::TrainConfig;
use airchitect::{Airchitect2, InferenceScratch, ModelConfig};
use serde::Serialize;

struct Args {
    queries: u64,
    samples: usize,
    seed: u64,
    refine_budget: usize,
    verify_k: usize,
    polish_budget: usize,
    max_regret: Option<f64>,
    out: PathBuf,
}

fn parse_args() -> Args {
    let mut args = Args {
        queries: 12,
        samples: 400,
        seed: 0xA12C,
        refine_budget: 48,
        verify_k: 4,
        polish_budget: 32,
        max_regret: None,
        out: PathBuf::from("results"),
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |i: &mut usize| -> String {
        *i += 1;
        argv.get(*i)
            .unwrap_or_else(|| panic!("{} takes a value", argv[*i - 1]))
            .clone()
    };
    let mut i = 0;
    while i < argv.len() {
        match argv[i].as_str() {
            "--queries" => args.queries = value(&mut i).parse().expect("--queries count"),
            "--samples" => args.samples = value(&mut i).parse().expect("--samples count"),
            "--seed" => args.seed = value(&mut i).parse().expect("--seed"),
            "--refine-budget" => {
                args.refine_budget = value(&mut i).parse().expect("--refine-budget count");
            }
            "--verify-k" => args.verify_k = value(&mut i).parse().expect("--verify-k count"),
            "--polish-budget" => {
                args.polish_budget = value(&mut i).parse().expect("--polish-budget count");
            }
            "--max-regret" => {
                args.max_regret = Some(value(&mut i).parse().expect("--max-regret fraction"));
            }
            "--out" => args.out = PathBuf::from(value(&mut i)),
            other => panic!("unknown argument {other:?} (see src/bin/pipeline.rs for usage)"),
        }
        i += 1;
    }
    assert!(args.queries > 0 && args.samples > 0);
    assert!(args.refine_budget > 0 && args.verify_k > 0 && args.polish_budget > 0);
    args
}

/// One query's worth of the comparison, as written to the JSON record.
#[derive(Debug, Serialize)]
struct QueryRow {
    n: u64,
    objective: String,
    /// One-shot answer's regret on the systolic engine, against the
    /// feasible oracle (negative when the answer is infeasible and
    /// undercuts it).
    one_shot_regret: f64,
    /// Staged answer's regret on the systolic engine.
    staged_regret: f64,
    /// Whether the one-shot answer fits the requested area budget.
    one_shot_feasible: bool,
    /// Whether the staged answer fits the requested area budget.
    staged_feasible: bool,
    /// Analytic cost-model evaluations the staged run spent.
    staged_analytic_evals: u64,
    /// Cycle-accurate systolic evaluations the staged run spent (the
    /// verify-cycle budget).
    staged_systolic_evals: u64,
}

/// The `BENCH_pipeline.json` record.
#[derive(Debug, Serialize)]
struct PipelineReport {
    queries: u64,
    samples: usize,
    seed: u64,
    /// The staged pipeline's stage names, in order.
    staged_stages: Vec<String>,
    refine_budget: usize,
    verify_k: usize,
    polish_budget: usize,
    /// Queries whose one-shot answer fits the area budget.
    one_shot_feasible: usize,
    /// Queries whose staged answer fits the area budget (never fewer).
    staged_feasible: usize,
    /// Mean regret over the like-for-like subset (both answers
    /// feasible), where the clamp guarantees staged ≤ one-shot.
    mean_one_shot_regret: f64,
    mean_staged_regret: f64,
    /// Mean cycle-accurate evaluations per staged query.
    mean_systolic_evals_per_query: f64,
    /// The `--max-regret` gate, when one was set.
    max_regret: Option<f64>,
    passed: bool,
    per_query: Vec<QueryRow>,
}

fn main() {
    let args = parse_args();
    let task = DseTask::table_i_default();
    eprintln!(
        "[pipeline] training quick predictor ({} samples, seed {:#x})…",
        args.samples, args.seed
    );
    let ds = DseDataset::generate(
        &task,
        &GenerateConfig {
            num_samples: args.samples,
            seed: args.seed,
            threads: 0,
            ..GenerateConfig::default()
        },
    );
    let engine = EvalEngine::shared(task);
    let mut model = Airchitect2::with_engine(
        &ModelConfig {
            seed: args.seed,
            ..ModelConfig::tiny()
        },
        Arc::clone(&engine),
        &ds,
    );
    model.fit(&ds, &TrainConfig::quick());
    let engines = BackendEngines::new(engine);

    let set = PipelineSet::with(&[PipelineCfg {
        name: "staged".into(),
        stages: vec![
            StageCfg::Predict { backend: None },
            StageCfg::Refine {
                method: RefineMethod::Annealing,
                budget: args.refine_budget,
                seed: 17,
                backend: None,
            },
            StageCfg::Verify {
                k: args.verify_k,
                backend: BackendId::Systolic,
            },
            // the polish stage: a short anneal *on the verifying
            // backend*, warm-started at the verified best — this is
            // what actually closes systolic regret the analytic-side
            // refine cannot see
            StageCfg::Refine {
                method: RefineMethod::Annealing,
                budget: args.polish_budget,
                seed: 29,
                backend: Some(BackendId::Systolic),
            },
        ],
    }])
    .expect("the staged benchmark pipeline compiles");
    let staged = Arc::clone(set.get(Some("staged")).expect("just registered"));
    let one_shot = Arc::clone(set.default_pipeline());

    // the deterministic GEMM sweep, all queries on the default backend
    // (the pipelines decide where verification happens)
    let mut inputs: Vec<(u64, DseInput, PipelineQuery)> = Vec::new();
    for n in 0..args.queries {
        let req = nth_query(n, false, None, None, None);
        let input = req.query.as_dse_input().expect("nth_query GEMMs are valid");
        inputs.push((
            n,
            input,
            PipelineQuery {
                input,
                objective: req.objective,
                budget: req.budget,
                backend: BackendId::Analytic,
            },
        ));
    }
    let queries: Vec<PipelineQuery> = inputs.iter().map(|&(_, _, q)| q).collect();

    let mut scratch = InferenceScratch::new();
    let mut predict = |batch: &[DseInput]| model.predict_with(batch, &mut scratch);
    eprintln!("[pipeline] answering {} queries twice…", args.queries);
    let os_answers = one_shot.run_batch(&engines, &queries, &mut predict);
    let staged_answers = staged.run_batch(&engines, &queries, &mut predict);

    let sys = engines.get(BackendId::Systolic);
    let mut rows = Vec::with_capacity(inputs.len());
    for (((n, input, q), os), st) in inputs.iter().zip(&os_answers).zip(&staged_answers) {
        let oracle = sys.oracle_with(input, q.objective, q.budget);
        assert!(
            oracle.best_score.is_finite() && oracle.best_score > 0.0,
            "degenerate oracle score for query {n}"
        );
        let regret = |cost: f64| cost / oracle.best_score - 1.0;
        let os_cost = sys.cost(input, os.best.point, &Scoring::reuse(q.objective, q.budget));
        let st_cost = sys.cost(input, st.best.point, &Scoring::reuse(q.objective, q.budget));
        // the executor's never-worse clamp, feasibility first: a staged
        // answer may only cost more than the one-shot point when it
        // trades that cost for feasibility
        let os_feas = sys.is_feasible_under(os.best.point, q.budget);
        let st_feas = sys.is_feasible_under(st.best.point, q.budget);
        assert!(
            !((!st_feas && os_feas) || (st_feas == os_feas && st_cost > os_cost)),
            "query {n}: staged answer is worse than the one-shot point (staged feasible={st_feas} \
             cost={st_cost}, one-shot feasible={os_feas} cost={os_cost}); the executor's \
             never-worse clamp should make this impossible"
        );
        assert!(
            st_feas || !os_feas,
            "query {n}: the staged answer lost feasibility the one-shot point had; the clamp's \
             feasible-first rank order should make this impossible"
        );
        rows.push(QueryRow {
            n: *n,
            objective: format!("{:?}", q.objective).to_lowercase(),
            one_shot_regret: regret(os_cost),
            staged_regret: regret(st_cost),
            one_shot_feasible: os_feas,
            staged_feasible: st_feas,
            staged_analytic_evals: st.backend_evals(BackendId::Analytic),
            staged_systolic_evals: st.backend_evals(BackendId::Systolic),
        });
    }

    let os_feasible = rows.iter().filter(|r| r.one_shot_feasible).count();
    let st_feasible = rows.iter().filter(|r| r.staged_feasible).count();
    // like-for-like: both answers fit the budget, so the clamp makes
    // the comparison pointwise (staged ≤ one-shot on systolic)
    let both: Vec<&QueryRow> = rows
        .iter()
        .filter(|r| r.one_shot_feasible && r.staged_feasible)
        .collect();
    assert!(
        !both.is_empty(),
        "no query produced a feasible one-shot answer — raise --queries (or --samples) so the \
         like-for-like comparison is non-empty"
    );
    let mean = |f: &dyn Fn(&QueryRow) -> f64| -> f64 {
        both.iter().map(|r| f(r)).sum::<f64>() / both.len() as f64
    };
    let mean_os = mean(&|r| r.one_shot_regret);
    let mean_staged = mean(&|r| r.staged_regret);
    let mean_sys_evals = rows
        .iter()
        .map(|r| r.staged_systolic_evals as f64)
        .sum::<f64>()
        / rows.len() as f64;
    println!(
        "pipeline: mean regret one-shot {:.4} vs staged {:.4} over {}/{} like-for-like queries | \
         feasible {}→{} | staged spends {:.1} systolic evals/query",
        mean_os,
        mean_staged,
        both.len(),
        args.queries,
        os_feasible,
        st_feasible,
        mean_sys_evals
    );
    assert!(
        mean_staged <= mean_os,
        "staged mean regret {mean_staged:.4} exceeds one-shot {mean_os:.4} on the like-for-like \
         subset; the per-query clamp should make this impossible"
    );

    // per-query never-worse already asserted above (feasibility-aware);
    // the gate here is the absolute quality bar
    let under_gate = args.max_regret.is_none_or(|gate| mean_staged <= gate);
    let passed = under_gate;

    let report = PipelineReport {
        queries: args.queries,
        samples: args.samples,
        seed: args.seed,
        staged_stages: staged.stage_names().iter().map(|s| s.to_string()).collect(),
        refine_budget: args.refine_budget,
        verify_k: args.verify_k,
        polish_budget: args.polish_budget,
        one_shot_feasible: os_feasible,
        staged_feasible: st_feasible,
        mean_one_shot_regret: mean_os,
        mean_staged_regret: mean_staged,
        mean_systolic_evals_per_query: mean_sys_evals,
        max_regret: args.max_regret,
        passed,
        per_query: rows,
    };
    std::fs::create_dir_all(&args.out).expect("create results dir");
    let path = args.out.join("BENCH_pipeline.json");
    let body = serde_json::to_string(&report).expect("serialize pipeline report");
    std::fs::write(&path, body).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
    eprintln!("[pipeline] wrote {}", path.display());

    if !under_gate {
        eprintln!(
            "pipeline: FAIL — staged mean regret {mean_staged:.4} exceeds --max-regret {:.4}",
            args.max_regret.expect("gate checked only when set")
        );
        std::process::exit(1);
    }
    println!("pipeline: PASS");
}
