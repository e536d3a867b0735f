//! Backend-fidelity report: how well does the analytic cost model agree
//! with the cycle-accurate systolic backend — and how much does an
//! exploration result transfer between them?
//!
//! Sweeps `--workloads` sampled DSE inputs over a `--points` subset of
//! the Table I grid on **both** cost backends and reports, per objective
//! (latency / energy / EDP):
//!
//! * `mean_rho` / `min_rho` — per-workload Spearman rank correlation of
//!   the two backends' scores over the sampled points (how similarly
//!   they *order* the design space, which is what any DSE oracle is
//!   actually used for),
//! * `mean_rho_compute_bound` — the same correlation restricted to the
//!   largest-buffer column, where both backends are compute-dominated
//!   (the full-grid numbers quantify genuine architectural
//!   disagreement: the simulated OS array never spills partial sums, so
//!   a starved L2 hurts it far less than the analytic model's
//!   K-tiling; small layers additionally plateau into ties),
//! * `cross_workload_rho` — rank correlation of the *workloads* by cost
//!   at fixed reference hardware, averaged over three array sizes at
//!   the largest buffer. Workload ordering is the signal every
//!   downstream consumer (oracle labels, predictor targets) depends on
//!   and the regime where the backends must agree — this is what
//!   `--min-rho` gates on,
//! * `top1_agreement` — fraction of workloads where both backends pick
//!   the same best sampled point,
//! * `mean_transfer_regret` — relative regret of deploying the analytic
//!   backend's best point under the systolic backend's scores (the
//!   Apollo-style cross-cost-model transfer gap): 0 = lossless transfer.
//!
//! The report also carries a **quantized-decoder fidelity** section:
//! how well does the int8 checkpoint flavor preserve the f32 decoder's
//! head-output ordering? A quick-trained model (cached dataset) is
//! compared against its own quantized twin on the sampled workloads —
//! Spearman rank correlation of the flattened pe/buf head surfaces
//! plus top-1 agreement of the decoded design points. Same contract as
//! the backend comparison above, one layer down: the flavor is usable
//! exactly when it *orders* designs like the f32 decoder does.
//!
//! A third section measures the **multi-fidelity cascade backend**: the
//! relative regret of deploying the cascade's full-grid argmin under
//! the true systolic scores (per objective), plus the fraction of the
//! grid the cascade escalated to real systolic evaluation per query —
//! the cost/accuracy trade the `"backend":"cascade"` wire option buys.
//!
//! Writes a machine-readable `BENCH_fidelity.json` into `--out` (default
//! `results/`) and prints one `FIDELITY_JSON=path` discovery line, so CI
//! can track the fidelity trajectory. With `--min-rho X` the process
//! exits non-zero if any objective's `cross_workload_rho` falls below
//! `X` — the backend-parity smoke gate. (The full-grid `mean_rho` is
//! reported but not gated: it legitimately sinks in the L2-starvation
//! regime where the two architectures genuinely disagree.) With
//! `--min-quant-rho X` it likewise exits non-zero if either quantized
//! head surface rank-correlates below `X` with its f32 twin — the
//! int8-flavor fidelity gate. With `--max-cascade-regret X` /
//! `--max-escalation X` it exits non-zero when the cascade's mean
//! deployment regret (any objective) or worst per-query escalated
//! fraction exceeds the ceiling — the cascade-parity gate.
//!
//! ```text
//! fidelity [--workloads N]          sampled DSE inputs (default 24)
//!          [--points N]             sampled grid points (default 96)
//!          [--seed N]               workload-sampling seed (default 0xF1DE)
//!          [--out DIR]              output directory (default results/)
//!          [--min-rho X]            fail below this cross-workload rank correlation
//!          [--min-quant-rho X]      fail below this int8-vs-f32 rank correlation
//!          [--max-cascade-regret X] fail above this cascade deployment regret
//!          [--max-escalation X]     fail above this escalated grid fraction
//!          [--quick]                smoke sizes (8 workloads × 48 points)
//! ```

use std::path::PathBuf;
use std::sync::Arc;

use ai2_dse::{
    BackendId, Budget, CascadeBackend, CascadeConfig, CostBackend, DesignPoint, DseTask,
    EvalEngine, Objective, Scoring,
};
use ai2_tensor::rng;
use ai2_tensor::stats::spearman;
use ai2_workloads::generator::{DseInput, WorkloadSampler};
use serde::Serialize;

struct Args {
    workloads: usize,
    points: usize,
    seed: u64,
    out: PathBuf,
    min_rho: Option<f64>,
    min_quant_rho: Option<f64>,
    max_cascade_regret: Option<f64>,
    max_escalation: Option<f64>,
    quick: bool,
}

fn parse_args() -> Args {
    let mut args = Args {
        workloads: 24,
        points: 96,
        seed: 0xF1DE,
        out: PathBuf::from("results"),
        min_rho: None,
        min_quant_rho: None,
        max_cascade_regret: None,
        max_escalation: None,
        quick: false,
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
            "--workloads" => args.workloads = value(&mut i).parse().expect("--workloads count"),
            "--points" => args.points = value(&mut i).parse().expect("--points count"),
            "--seed" => args.seed = value(&mut i).parse().expect("--seed number"),
            "--out" => args.out = PathBuf::from(value(&mut i)),
            "--min-rho" => args.min_rho = Some(value(&mut i).parse().expect("--min-rho number")),
            "--min-quant-rho" => {
                args.min_quant_rho = Some(value(&mut i).parse().expect("--min-quant-rho number"));
            }
            "--max-cascade-regret" => {
                args.max_cascade_regret =
                    Some(value(&mut i).parse().expect("--max-cascade-regret number"));
            }
            "--max-escalation" => {
                args.max_escalation = Some(value(&mut i).parse().expect("--max-escalation number"));
            }
            "--quick" => {
                args.workloads = 8;
                args.points = 48;
                args.quick = true;
            }
            other => panic!("unknown argument {other:?} (see src/bin/fidelity.rs for usage)"),
        }
        i += 1;
    }
    assert!(args.workloads > 0 && args.points > 1);
    args
}

/// Per-objective agreement statistics between the two backends.
#[derive(Debug, Serialize)]
struct ObjectiveFidelity {
    objective: String,
    /// Mean per-workload rank correlation over the full sampled grid.
    mean_rho: f64,
    /// Worst per-workload rank correlation over the full sampled grid.
    min_rho: f64,
    /// Mean rank correlation restricted to the largest-buffer column,
    /// where neither backend is starved and both are compute-dominated.
    mean_rho_compute_bound: f64,
    /// Rank correlation of the workloads by cost at fixed reference
    /// hardware (mean over three array sizes at the largest buffer) —
    /// the `--min-rho` gate.
    cross_workload_rho: f64,
    top1_agreement: f64,
    mean_transfer_regret: f64,
}

/// Int8 decoder-flavor fidelity: rank agreement between a trained f32
/// decoder and its own quantized twin on the sampled workloads.
#[derive(Debug, Serialize)]
struct QuantFidelity {
    /// Workloads the head surfaces were compared on.
    workloads: usize,
    /// Spearman rank correlation of the flattened pe-head outputs.
    rho_pe: f64,
    /// Spearman rank correlation of the flattened buf-head outputs.
    rho_buf: f64,
    /// Fraction of workloads where both flavors decode the same point.
    top1_agreement: f64,
}

/// Per-objective deployment regret of the multi-fidelity cascade
/// against the pure systolic truth over the full grid.
#[derive(Debug, Serialize)]
struct CascadeObjective {
    objective: String,
    /// Mean relative regret of deploying the cascade's grid argmin
    /// under true systolic scores (0 = the cascade always finds the
    /// systolic optimum).
    mean_regret: f64,
    /// Worst per-workload regret.
    max_regret: f64,
    /// Fraction of workloads where the cascade's argmin IS the
    /// systolic argmin.
    top1_agreement: f64,
}

/// Multi-fidelity cascade section: accuracy (regret vs pure systolic)
/// against cost (fraction of the grid escalated to real systolic
/// evaluation per query).
#[derive(Debug, Serialize)]
struct CascadeFidelity {
    /// Escalation knobs the cascade ran with.
    top_k: usize,
    disagreement: f64,
    max_escalated: f64,
    /// Full grid size the cascade stages over.
    grid_points: usize,
    /// Mean per-query fraction of the grid escalated to systolic.
    mean_escalated_frac: f64,
    /// Worst per-query escalated fraction (the `--max-escalation`
    /// gate).
    max_escalated_frac: f64,
    /// Mean true systolic evaluations per query.
    systolic_evals_per_query: f64,
    /// Per-objective deployment regret (the `--max-cascade-regret`
    /// gate applies to each `mean_regret`).
    objectives: Vec<CascadeObjective>,
}

/// The full machine-readable report (`BENCH_fidelity.json`).
#[derive(Debug, Serialize)]
struct FidelityReport {
    workloads: usize,
    points: usize,
    seed: u64,
    objectives: Vec<ObjectiveFidelity>,
    cascade: CascadeFidelity,
    quantized_decoder: QuantFidelity,
}

fn main() {
    let args = parse_args();
    let task = DseTask::table_i_default();
    let analytic = EvalEngine::for_backend(task.clone(), BackendId::Analytic);
    let systolic = EvalEngine::for_backend(task, BackendId::Systolic);

    let sampler = WorkloadSampler::new();
    let mut r = rng::seeded(args.seed);
    let inputs: Vec<DseInput> = sampler.sample_n(&mut r, args.workloads);

    // an even stride over the 768-point grid, budget-unchecked: fidelity
    // is a property of the cost surfaces, not of one area budget
    let space = analytic.space();
    let stride = (space.num_points() / args.points).max(1);
    let points: Vec<DesignPoint> = space.iter_points().step_by(stride).collect();
    // the compute-bound comparison column: every PE choice at the
    // largest buffer, where L2 starvation distorts neither backend
    let top_buf = space.num_buf_choices() - 1;
    let compute_points: Vec<DesignPoint> = (0..space.num_pe_choices())
        .map(|pe_idx| DesignPoint {
            pe_idx,
            buf_idx: top_buf,
        })
        .collect();

    eprintln!(
        "[fidelity] {} workloads × {} grid points × 3 objectives on both backends…",
        inputs.len(),
        points.len()
    );

    let mut objectives = Vec::new();
    for objective in [Objective::Latency, Objective::Energy, Objective::Edp] {
        let scoring = Scoring::reuse(objective, Budget::Unbounded);
        let mut rhos = Vec::with_capacity(inputs.len());
        let mut compute_rhos = Vec::with_capacity(inputs.len());
        let mut top1_hits = 0usize;
        let mut regrets = Vec::with_capacity(inputs.len());
        for input in &inputs {
            let score = |engine: &EvalEngine, pts: &[DesignPoint]| -> Vec<f32> {
                pts.iter()
                    .map(|&p| engine.cost(input, p, &scoring) as f32)
                    .collect()
            };
            let a = score(&analytic, &points);
            let s = score(&systolic, &points);
            rhos.push(spearman(&a, &s) as f64);
            let ac = score(&analytic, &compute_points);
            let sc = score(&systolic, &compute_points);
            compute_rhos.push(spearman(&ac, &sc) as f64);
            let argmin = |v: &[f32]| -> usize {
                let mut best = 0usize;
                for (i, x) in v.iter().enumerate() {
                    if *x < v[best] {
                        best = i;
                    }
                }
                best
            };
            let (ba, bs) = (argmin(&a), argmin(&s));
            if ba == bs {
                top1_hits += 1;
            }
            // deploy the analytic optimum, pay the systolic bill
            let regret = (s[ba] as f64 - s[bs] as f64) / s[bs] as f64;
            regrets.push(regret);
        }
        // cross-workload ordering at fixed reference hardware: small,
        // medium and large arrays at the largest buffer
        let reference_hw =
            [0, space.num_pe_choices() / 2, space.num_pe_choices() - 1].map(|pe_idx| DesignPoint {
                pe_idx,
                buf_idx: top_buf,
            });
        let cross_workload_rho = reference_hw
            .iter()
            .map(|&p| {
                let a: Vec<f32> = inputs
                    .iter()
                    .map(|i| analytic.cost(i, p, &scoring) as f32)
                    .collect();
                let s: Vec<f32> = inputs
                    .iter()
                    .map(|i| systolic.cost(i, p, &scoring) as f32)
                    .collect();
                spearman(&a, &s) as f64
            })
            .sum::<f64>()
            / reference_hw.len() as f64;
        let mean_rho = rhos.iter().sum::<f64>() / rhos.len() as f64;
        let min_rho = rhos.iter().copied().fold(f64::INFINITY, f64::min);
        let fidelity = ObjectiveFidelity {
            objective: format!("{objective:?}").to_ascii_lowercase(),
            mean_rho,
            min_rho,
            mean_rho_compute_bound: compute_rhos.iter().sum::<f64>() / compute_rhos.len() as f64,
            cross_workload_rho,
            top1_agreement: top1_hits as f64 / inputs.len() as f64,
            mean_transfer_regret: regrets.iter().sum::<f64>() / regrets.len() as f64,
        };
        println!(
            "fidelity {}: mean_rho {:.3} min_rho {:.3} compute_rho {:.3} cross_workload_rho {:.3} top1 {:.2} transfer_regret {:.3}",
            fidelity.objective,
            fidelity.mean_rho,
            fidelity.min_rho,
            fidelity.mean_rho_compute_bound,
            fidelity.cross_workload_rho,
            fidelity.top1_agreement,
            fidelity.mean_transfer_regret
        );
        objectives.push(fidelity);
    }

    // sanity anchor: the analytic engine through the backend path must
    // still be the bit-identical DseTask oracle (the CI job also runs
    // the engine-consistency property tests; this is the cheap in-binary
    // tripwire)
    let anchor = &inputs[0];
    let direct = DseTask::table_i_default().oracle(anchor);
    let via_backend = analytic.oracle(anchor);
    assert_eq!(
        direct, via_backend,
        "analytic backend diverged from DseTask — bit-identicality broken"
    );

    // -- multi-fidelity cascade ---------------------------------------
    // the cascade must order the grid like the systolic truth at a
    // fraction of the cost: deploy its full-grid argmin, pay the true
    // systolic bill, and count how much of the grid escalated
    let cascade_backend = Arc::new(CascadeBackend::new(
        &DseTask::table_i_default(),
        CascadeConfig::default(),
    ));
    let cascade_engine = EvalEngine::with_backend_threads(
        DseTask::table_i_default(),
        Arc::clone(&cascade_backend) as Arc<dyn CostBackend>,
        0,
    );
    let all_points: Vec<DesignPoint> = space.iter_points().collect();
    eprintln!(
        "[fidelity] cascade: {} workloads × {} grid points vs pure systolic…",
        inputs.len(),
        all_points.len()
    );
    let mut esc_fracs = Vec::with_capacity(inputs.len());
    for input in &inputs {
        // parallel-warm the full systolic grid (the truth reference),
        // then build the cascade's staged grid and read its escalation
        systolic.grid(input);
        let (esc, total) = cascade_backend.escalation(input);
        esc_fracs.push(esc as f64 / total as f64);
    }
    let argmin_f64 = |v: &[f64]| -> usize {
        let mut best = 0usize;
        for (i, x) in v.iter().enumerate() {
            if *x < v[best] {
                best = i;
            }
        }
        best
    };
    let mut cascade_objectives = Vec::new();
    for objective in [Objective::Latency, Objective::Energy, Objective::Edp] {
        let scoring = Scoring::reuse(objective, Budget::Unbounded);
        let mut regrets = Vec::with_capacity(inputs.len());
        let mut top1_hits = 0usize;
        for input in &inputs {
            let grid_scores = |engine: &EvalEngine| -> Vec<f64> {
                all_points
                    .iter()
                    .map(|&p| engine.cost(input, p, &scoring))
                    .collect()
            };
            let c = grid_scores(&cascade_engine);
            let s = grid_scores(&systolic);
            let (bc, bs) = (argmin_f64(&c), argmin_f64(&s));
            if bc == bs {
                top1_hits += 1;
            }
            regrets.push((s[bc] - s[bs]) / s[bs]);
        }
        let entry = CascadeObjective {
            objective: format!("{objective:?}").to_ascii_lowercase(),
            mean_regret: regrets.iter().sum::<f64>() / regrets.len() as f64,
            max_regret: regrets.iter().copied().fold(0.0, f64::max),
            top1_agreement: top1_hits as f64 / inputs.len() as f64,
        };
        println!(
            "fidelity cascade {}: mean_regret {:.4} max_regret {:.4} top1 {:.2}",
            entry.objective, entry.mean_regret, entry.max_regret, entry.top1_agreement
        );
        cascade_objectives.push(entry);
    }
    let (sys_evals, grids_built) = cascade_backend.eval_counters();
    let cfg = cascade_backend.config();
    let cascade = CascadeFidelity {
        top_k: cfg.top_k,
        disagreement: cfg.disagreement,
        max_escalated: cfg.max_escalated,
        grid_points: all_points.len(),
        mean_escalated_frac: esc_fracs.iter().sum::<f64>() / esc_fracs.len() as f64,
        max_escalated_frac: esc_fracs.iter().copied().fold(0.0, f64::max),
        systolic_evals_per_query: sys_evals as f64 / grids_built.max(1) as f64,
        objectives: cascade_objectives,
    };
    println!(
        "fidelity cascade: mean_escalated {:.3} max_escalated {:.3} sys_evals/query {:.1}",
        cascade.mean_escalated_frac, cascade.max_escalated_frac, cascade.systolic_evals_per_query
    );

    // -- int8 decoder-flavor fidelity ---------------------------------
    // a quick-trained model is enough: the measure is quantization
    // error over a structured decoder surface, not model quality, and
    // the dataset is cached across runs
    let sizes = ai2_bench::Sizes {
        samples: if args.quick { 300 } else { 600 },
        stage1_epochs: if args.quick { 6 } else { 10 },
        stage2_epochs: if args.quick { 8 } else { 12 },
        out_dir: args.out.clone(),
        ..ai2_bench::Sizes::default()
    };
    let model_engine = ai2_bench::default_engine();
    let train = ai2_bench::load_or_generate(&model_engine, &sizes);
    let mut model = ai2_bench::train_v2(&model_engine, &train, &sizes);
    let feats = model.feature_encoder().encode_inputs(&inputs);
    let z = model.embeddings(&feats);
    let (pe_f32, buf_f32) = model.head_outputs(&z);
    let points_f32 = model.decode_embedding_batch(&z);
    model.quantize_decoder();
    let (pe_q, buf_q) = model.head_outputs(&z);
    let points_q = model.decode_embedding_batch(&z);
    let quantized_decoder = QuantFidelity {
        workloads: inputs.len(),
        rho_pe: spearman(pe_f32.as_slice(), pe_q.as_slice()) as f64,
        rho_buf: spearman(buf_f32.as_slice(), buf_q.as_slice()) as f64,
        top1_agreement: points_f32
            .iter()
            .zip(&points_q)
            .filter(|(a, b)| a == b)
            .count() as f64
            / points_f32.len() as f64,
    };
    println!(
        "fidelity quantized-decoder: rho_pe {:.3} rho_buf {:.3} top1 {:.2}",
        quantized_decoder.rho_pe, quantized_decoder.rho_buf, quantized_decoder.top1_agreement
    );

    let report = FidelityReport {
        workloads: inputs.len(),
        points: points.len(),
        seed: args.seed,
        objectives,
        cascade,
        quantized_decoder,
    };
    std::fs::create_dir_all(&args.out).expect("create output dir");
    let path = args.out.join("BENCH_fidelity.json");
    std::fs::write(
        &path,
        serde_json::to_string(&report).expect("serialize report"),
    )
    .expect("write BENCH_fidelity.json");
    println!("FIDELITY_JSON={}", path.display());

    if let Some(floor) = args.min_rho {
        for o in &report.objectives {
            if o.cross_workload_rho < floor {
                eprintln!(
                    "[fidelity] FAIL: {} cross_workload_rho {:.3} below the {floor} floor",
                    o.objective, o.cross_workload_rho
                );
                std::process::exit(1);
            }
        }
        eprintln!(
            "[fidelity] all objectives above the {floor} cross-workload rank-correlation floor"
        );
    }
    if let Some(ceiling) = args.max_cascade_regret {
        for o in &report.cascade.objectives {
            if o.mean_regret > ceiling {
                eprintln!(
                    "[fidelity] FAIL: cascade {} mean_regret {:.4} above the {ceiling} ceiling",
                    o.objective, o.mean_regret
                );
                std::process::exit(1);
            }
        }
        eprintln!("[fidelity] cascade regret under the {ceiling} ceiling on every objective");
    }
    if let Some(ceiling) = args.max_escalation {
        let worst = report.cascade.max_escalated_frac;
        if worst > ceiling {
            eprintln!(
                "[fidelity] FAIL: cascade escalated {worst:.3} of the grid, above the {ceiling} ceiling"
            );
            std::process::exit(1);
        }
        eprintln!("[fidelity] cascade escalation under the {ceiling} ceiling on every query");
    }
    if let Some(floor) = args.min_quant_rho {
        let q = &report.quantized_decoder;
        if q.rho_pe < floor || q.rho_buf < floor {
            eprintln!(
                "[fidelity] FAIL: quantized decoder rho_pe {:.3} / rho_buf {:.3} below the {floor} floor",
                q.rho_pe, q.rho_buf
            );
            std::process::exit(1);
        }
        eprintln!(
            "[fidelity] quantized decoder above the {floor} int8-vs-f32 rank-correlation floor"
        );
    }
}
