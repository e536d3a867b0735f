//! DSE for Llama2-7B prefill layers: one-shot learned recommendation vs
//! iterative search, per layer.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example llama2_dse
//! ```

use airchitect_repro::dse::search::{GammaSearcher, Searcher};
use airchitect_repro::prelude::*;
use airchitect_repro::workloads::zoo;

fn main() {
    let engine = EvalEngine::shared(DseTask::table_i_default());

    println!("training AIrchitect v2 (Llama2-7B never seen)…");
    let data = DseDataset::generate_with(
        &engine,
        &GenerateConfig {
            num_samples: 3000,
            seed: 11,
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

    let llama = zoo::llama2_7b();
    let layers = llama.to_dse_layers();
    println!(
        "\nLlama2-7B prefill: {} unique layer shapes (tiled to Table I ranges), {:.2} TMACs total",
        layers.len(),
        llama.total_macs() as f64 / 1e12
    );

    println!(
        "\n{:<22} {:>14} {:>14} {:>14} {:>10}",
        "layer", "v2 one-shot", "GA (200 ev)", "oracle", "v2/oracle"
    );
    let mut ga = GammaSearcher::new(0);
    for layer in &layers {
        let input = DseInput {
            gemm: layer.gemm,
            dataflow: Dataflow::WeightStationary,
        };
        // one-shot: a single forward pass
        let p = model.predict(&[input])[0];
        let v2_lat = engine
            .score(&input, p, &engine.scoring())
            .unwrap_or(f64::INFINITY);
        // iterative: 200 cost-model queries
        let ga_res = ga.search(&engine, input, 200);
        let oracle = engine.oracle(&input);
        println!(
            "{:<22} {:>14.0} {:>14.0} {:>14.0} {:>10.3}",
            layer.name,
            v2_lat,
            ga_res.best_score,
            oracle.best_score,
            v2_lat / oracle.best_score
        );
    }

    // timing comparison on one layer: how long does a recommendation take?
    let input = DseInput {
        gemm: layers[0].gemm,
        dataflow: Dataflow::WeightStationary,
    };
    let t0 = std::time::Instant::now();
    let n_rep = 50;
    for _ in 0..n_rep {
        let _ = model.predict(&[input]);
    }
    let oneshot = t0.elapsed() / n_rep;
    let t1 = std::time::Instant::now();
    for _ in 0..n_rep {
        let _ = GammaSearcher::new(1).search(&engine, input, 200);
    }
    let search = t1.elapsed() / n_rep;
    println!(
        "\nper-layer DSE cost: one-shot {:?} vs GA-200 {:?} ({}x)",
        oneshot,
        search,
        (search.as_nanos() / oneshot.as_nanos().max(1))
    );
}
