//! **Figure 8(a)** — Bayesian-optimization search in the contrastive
//! embedding space vs the VAE latent space, on Llama2-7B layers.
//!
//! For each unique (tiled) Llama2-7B layer, BO probes a latent point,
//! decodes it to a hardware configuration (stage-2 decoder for the
//! contrastive space, VAE decoder for VAESA), and scores it with the
//! cost model. The series is the best-so-far latency (normalized to the
//! oracle optimum), averaged over layers — the paper shows the
//! contrastive space converging faster and lower.

use ai2_bench::{default_engine, load_or_generate, train_v2, train_vaesa, write_csv, Sizes};
use ai2_dse::search::bo::BoMinimizer;
use ai2_maestro::Dataflow;
use ai2_workloads::generator::DseInput;
use ai2_workloads::zoo;

fn main() {
    let sizes = Sizes::from_args();
    let budget = 150usize.min(sizes.samples); // BO queries per layer
    let engine = default_engine();
    let ds = load_or_generate(&engine, &sizes);
    let (train, _) = ds.split(0.8, sizes.seed);

    let v2 = train_v2(&engine, &train, &sizes);
    let vae = train_vaesa(&engine, &train, &sizes);

    // bounds of the contrastive embedding box from the training set
    let prep = v2.prepare(&train);
    let z = v2.embeddings(&prep.features);
    let d = z.cols();
    let mut bounds = Vec::with_capacity(d);
    for j in 0..d {
        let mut lo = f32::INFINITY;
        let mut hi = f32::NEG_INFINITY;
        for i in 0..z.rows() {
            lo = lo.min(z[(i, j)]);
            hi = hi.max(z[(i, j)]);
        }
        let pad = 0.1 * (hi - lo).max(1e-3);
        bounds.push(((lo - pad) as f64, (hi + pad) as f64));
    }

    let layers = zoo::llama2_7b().to_dse_layers();
    let mut contrastive_acc = vec![0.0f64; budget];
    let mut vae_acc = vec![0.0f64; budget];
    let mut layer_count = 0usize;

    for (li, layer) in layers.iter().enumerate() {
        let input = DseInput {
            gemm: layer.gemm,
            dataflow: Dataflow::WeightStationary,
        };
        let oracle = engine.oracle(&input).best_score;
        let scoring = engine.scoring();

        // --- BO over the contrastive embedding
        let bo = BoMinimizer::new(bounds.clone(), 1000 + li as u64);
        let trace_c = bo.minimize(
            |zq| {
                let zf: Vec<f32> = zq.iter().map(|&v| v as f32).collect();
                let p = v2.decode_embedding(&zf);
                engine.penalized(&input, p, &scoring).max(1.0).ln()
            },
            budget,
        );
        // --- BO over the VAE latent
        let (_, trace_v) = vae.search(&input, budget, 2000 + li as u64);

        for i in 0..budget {
            contrastive_acc[i] += (trace_c.best_trace[i].exp() / oracle).ln();
            vae_acc[i] += (trace_v.best_trace[i].exp() / oracle).ln();
        }
        layer_count += 1;
        eprintln!(
            "[fig8a] layer {} done ({}/{})",
            layer.name,
            li + 1,
            layers.len()
        );
    }

    let rows: Vec<Vec<String>> = (0..budget)
        .map(|i| {
            let c = (contrastive_acc[i] / layer_count as f64).exp();
            let v = (vae_acc[i] / layer_count as f64).exp();
            vec![i.to_string(), format!("{c:.5}"), format!("{v:.5}")]
        })
        .collect();
    write_csv(
        &sizes.out_dir.join("fig8a_bo_convergence.csv"),
        "samples,contrastive_bo,vaesa_bo",
        &rows,
    );

    println!(
        "\nFig 8a — BO convergence on Llama2-7B (normalized latency vs oracle, lower is better)"
    );
    for &i in &[0usize, budget / 8, budget / 4, budget / 2, budget - 1] {
        let c = (contrastive_acc[i] / layer_count as f64).exp();
        let v = (vae_acc[i] / layer_count as f64).exp();
        println!(
            "  after {:>4} samples: contrastive {c:.3}   vaesa {v:.3}",
            i + 1
        );
    }
    let final_c = (contrastive_acc[budget - 1] / layer_count as f64).exp();
    let final_v = (vae_acc[budget - 1] / layer_count as f64).exp();
    println!("\npaper reference: contrastive+BO converges faster and lower than VAESA+BO");
    println!(
        "reproduced: final contrastive {final_c:.3} vs vaesa {final_v:.3} ({})",
        if final_c <= final_v {
            "matches"
        } else {
            "DIVERGES"
        }
    );
}
