//! The paper's Fig. 1 motivation, measured: iterative search-based DSE
//! vs one-shot learning-based DSE on the same workloads — solution
//! quality against the number of cost-model queries spent.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example search_vs_learning
//! ```

use airchitect_repro::dse::search::{
    bo::BoSearcher, AnnealingSearcher, ConfuciuxSearcher, GammaSearcher, RandomSearcher, Searcher,
};
use airchitect_repro::prelude::*;
use airchitect_repro::tensor::rng;
use airchitect_repro::workloads::generator::WorkloadSampler;

fn main() {
    let engine = EvalEngine::shared(DseTask::table_i_default());

    println!("training AIrchitect v2 once (amortized over all future queries)…");
    let data = DseDataset::generate_with(
        &engine,
        &GenerateConfig {
            num_samples: 3000,
            seed: 3,
            threads: 0,
            ..GenerateConfig::default()
        },
    );
    let mut model = Airchitect2::with_engine(
        &ModelConfig::default(),
        std::sync::Arc::clone(&engine),
        &data,
    );
    let cfg = TrainConfig {
        stage1_epochs: 40,
        stage2_epochs: 60,
        ..TrainConfig::default()
    };
    model.fit(&data, &cfg);

    // fresh evaluation workloads
    let sampler = WorkloadSampler::new();
    let mut r = rng::seeded(999);
    let inputs = sampler.sample_n(&mut r, 30);

    let budgets = [25usize, 50, 100, 200];
    println!("\ngeomean latency vs oracle (lower is better; one-shot spends ZERO queries)\n");
    print!("{:<26}", "method");
    for b in budgets {
        print!("{:>12}", format!("{b} evals"));
    }
    println!();

    let geomean = |scores: &[f64]| -> f64 {
        (scores.iter().map(|s| s.ln()).sum::<f64>() / scores.len() as f64).exp()
    };

    let run = |name: &str, mk: &mut dyn FnMut(u64) -> Box<dyn Searcher>| {
        print!("{name:<26}");
        for &budget in &budgets {
            let mut ratios = Vec::new();
            for (i, input) in inputs.iter().enumerate() {
                let oracle = engine.oracle(input).best_score;
                let res = mk(i as u64).search(&engine, *input, budget);
                ratios.push(res.best_score / oracle);
            }
            print!("{:>12.3}", geomean(&ratios));
        }
        println!();
    };

    run("random", &mut |s| Box::new(RandomSearcher::new(s)));
    run("simulated annealing", &mut |s| {
        Box::new(AnnealingSearcher::new(s))
    });
    run("GAMMA (GA)", &mut |s| Box::new(GammaSearcher::new(s)));
    run("ConfuciuX (RL+GA)", &mut |s| {
        Box::new(ConfuciuxSearcher::new(s))
    });
    run("Bayesian optimization", &mut |s| {
        Box::new(BoSearcher::new(s))
    });

    // the learned model answers with no search at all
    let mut ratios = Vec::new();
    for input in &inputs {
        let oracle = engine.oracle(input).best_score;
        let p = model.predict(&[*input])[0];
        let score = engine.penalized(input, p, &engine.scoring());
        ratios.push(score / oracle);
    }
    println!(
        "{:<26}{:>12.3}   (same answer at every budget — 0 queries)",
        "AIrchitect v2 one-shot",
        geomean(&ratios)
    );
}
