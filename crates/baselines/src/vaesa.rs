//! VAESA (Huang et al., ISPASS 2022): a variational autoencoder over the
//! design space, searched with Bayesian optimization in the latent space.
//!
//! The VAE learns `configuration → latent → configuration` conditioned on
//! the workload features; DSE for a new workload runs BO over the latent
//! box, decoding each probe to a hardware configuration and scoring it
//! with the cost model ("VAESA + BO" in the paper's Table III / Fig. 8a).

use ai2_dse::search::bo::{BoMinimizer, BoTrace};
use std::sync::Arc;

use ai2_dse::{DesignPoint, DseDataset, DseTask, EvalEngine};
use ai2_nn::layers::{Activation, Linear, Mlp};
use ai2_nn::optim::{Adam, Optimizer};
use ai2_nn::{Graph, ParamStore, VarId};
use ai2_tensor::{rng, Tensor};
use ai2_workloads::generator::DseInput;
use airchitect::predictor::PredictFn;
use airchitect::{FeatureEncoder, NUM_FEATURES};
use rand::seq::SliceRandom;

/// Hyperparameters of the VAESA baseline.
#[derive(Debug, Clone)]
pub struct VaesaConfig {
    /// Latent dimensionality (2 suffices for the 2-axis space).
    pub latent_dim: usize,
    /// Hidden width of encoder/decoder MLPs.
    pub hidden: usize,
    /// Training epochs.
    pub epochs: usize,
    /// Minibatch size.
    pub batch_size: usize,
    /// Adam learning rate.
    pub lr: f32,
    /// KL-term weight β.
    pub beta: f32,
    /// BO query budget per workload at inference.
    pub bo_budget: usize,
    /// Seed.
    pub seed: u64,
}

impl Default for VaesaConfig {
    fn default() -> Self {
        VaesaConfig {
            latent_dim: 2,
            hidden: 128,
            epochs: 60,
            batch_size: 256,
            lr: 1e-3,
            beta: 0.05,
            bo_budget: 40,
            seed: 0x7A,
        }
    }
}

impl VaesaConfig {
    /// Fast preset for tests.
    pub fn quick() -> Self {
        VaesaConfig {
            hidden: 48,
            epochs: 15,
            batch_size: 64,
            bo_budget: 15,
            ..Self::default()
        }
    }
}

/// The trained VAESA baseline.
pub struct Vaesa {
    cfg: VaesaConfig,
    store: ParamStore,
    enc: Mlp,
    enc_mu: Linear,
    enc_logvar: Linear,
    dec: Mlp,
    features: FeatureEncoder,
    engine: Arc<EvalEngine>,
}

impl Vaesa {
    /// Builds the VAE, fitting feature statistics on `train`.
    pub fn new(cfg: &VaesaConfig, task: &DseTask, train: &DseDataset) -> Vaesa {
        Self::with_engine(cfg, EvalEngine::shared(task.clone()), train)
    }

    /// Builds the VAE on a caller-provided shared [`EvalEngine`].
    pub fn with_engine(cfg: &VaesaConfig, engine: Arc<EvalEngine>, train: &DseDataset) -> Vaesa {
        let features = FeatureEncoder::fit(train);
        let mut store = ParamStore::new(cfg.seed);
        let enc = Mlp::new(
            &mut store,
            "vae.enc",
            &[NUM_FEATURES + 2, cfg.hidden, cfg.hidden],
            Activation::Relu,
        );
        let enc_mu = Linear::new(&mut store, "vae.mu", cfg.hidden, cfg.latent_dim, true);
        let enc_logvar = Linear::new(&mut store, "vae.logvar", cfg.hidden, cfg.latent_dim, true);
        let dec = Mlp::new(
            &mut store,
            "vae.dec",
            &[NUM_FEATURES + cfg.latent_dim, cfg.hidden, cfg.hidden, 2],
            Activation::Relu,
        );
        Vaesa {
            cfg: cfg.clone(),
            store,
            enc,
            enc_mu,
            enc_logvar,
            dec,
            features,
            engine,
        }
    }

    /// Total scalar parameters.
    pub fn model_size(&self) -> usize {
        self.store.num_scalars()
    }

    fn normalize_point(&self, p: DesignPoint) -> [f32; 2] {
        let s = self.engine.space();
        [
            p.pe_idx as f32 / (s.num_pe_choices() - 1) as f32,
            p.buf_idx as f32 / (s.num_buf_choices() - 1) as f32,
        ]
    }

    fn denormalize(&self, xy: &[f32]) -> DesignPoint {
        let s = self.engine.space();
        DesignPoint {
            pe_idx: ((xy[0].clamp(0.0, 1.0) * (s.num_pe_choices() - 1) as f32).round() as usize)
                .min(s.num_pe_choices() - 1),
            buf_idx: ((xy[1].clamp(0.0, 1.0) * (s.num_buf_choices() - 1) as f32).round() as usize)
                .min(s.num_buf_choices() - 1),
        }
    }

    fn encoder_forward(&self, g: &mut Graph<'_>, x: VarId) -> (VarId, VarId) {
        let h = self.enc.forward(g, x);
        let h = g.relu(h);
        (self.enc_mu.forward(g, h), self.enc_logvar.forward(g, h))
    }

    /// ELBO training. Returns the mean loss per epoch.
    pub fn fit(&mut self, train: &DseDataset) -> Vec<f32> {
        let inputs: Vec<DseInput> = train.samples.iter().map(|s| s.input()).collect();
        let feats = self.features.encode_inputs(&inputs);
        let configs: Vec<[f32; 2]> = train
            .samples
            .iter()
            .map(|s| self.normalize_point(s.optimal))
            .collect();

        let mut opt = Adam::new(self.cfg.lr);
        let mut r = rng::seeded(self.cfg.seed ^ 0x33);
        let mut history = Vec::new();
        for _ in 0..self.cfg.epochs {
            let mut idx: Vec<usize> = (0..train.len()).collect();
            idx.shuffle(&mut r);
            let mut epoch_loss = 0.0f64;
            let mut batches = 0;
            for chunk in idx.chunks(self.cfg.batch_size.max(2)) {
                let b = chunk.len();
                let f_rows: Vec<Tensor> = chunk
                    .iter()
                    .map(|&i| Tensor::from_slice(feats.row(i)))
                    .collect();
                let fb = Tensor::stack_rows(&f_rows);
                let c_rows: Vec<Tensor> = chunk
                    .iter()
                    .map(|&i| Tensor::from_slice(&configs[i]))
                    .collect();
                let cb = Tensor::stack_rows(&c_rows);
                let eps = rng::randn(&mut r, &[b, self.cfg.latent_dim]);

                let mut g = Graph::new(&self.store);
                let x = g.constant(Tensor::concat_cols(&[&fb, &cb]));
                let (mu, logvar) = self.encoder_forward(&mut g, x);
                // z = μ + ε · exp(½ logvar)
                let half_lv = g.scale(logvar, 0.5);
                let std = g.exp(half_lv);
                let epsv = g.constant(eps);
                let noise = g.mul(epsv, std);
                let z = g.add(mu, noise);
                // decode conditioned on features
                let dec_in = concat_feature_latent(&mut g, &fb, z);
                let h = self.dec.forward(&mut g, dec_in);
                let recon = g.sigmoid(h);
                let recon_loss = g.mse_loss(recon, cb);
                // KL = −½ mean(1 + logvar − μ² − e^logvar)
                let mu2 = g.mul(mu, mu);
                let elv = g.exp(logvar);
                let t1 = g.add_scalar(logvar, 1.0);
                let t2 = g.sub(t1, mu2);
                let t3 = g.sub(t2, elv);
                let klm = g.mean_all(t3);
                let kl = g.scale(klm, -0.5 * self.cfg.beta);
                let loss = g.add(recon_loss, kl);
                epoch_loss += g.scalar(loss) as f64;
                let grads = g.backward(loss);
                drop(g);
                opt.step(&mut self.store, &grads);
                batches += 1;
            }
            history.push((epoch_loss / batches.max(1) as f64) as f32);
        }
        history
    }

    /// Decodes a latent point (conditioned on a workload) to a design
    /// point — the probe evaluated by BO.
    pub fn decode_latent(&self, input: &DseInput, z: &[f64]) -> DesignPoint {
        let f = self.features.encode_input(input);
        let zrow: Vec<f32> = z.iter().map(|&v| v as f32).collect();
        let mut row = f.to_vec();
        row.extend_from_slice(&zrow);
        let x = Tensor::from_vec(row, &[1, NUM_FEATURES + self.cfg.latent_dim]).expect("sized");
        let mut g = Graph::new(&self.store);
        let xv = g.constant(x);
        let h = self.dec.forward(&mut g, xv);
        let y = g.sigmoid(h);
        self.denormalize(g.value(y).row(0))
    }

    /// Runs the BO search in latent space for one workload, returning the
    /// trace (for Fig. 8a) — each BO query costs one cost-model
    /// evaluation, like any search-based method.
    pub fn search(&self, input: &DseInput, budget: usize, seed: u64) -> (DesignPoint, BoTrace) {
        let lo = -3.0;
        let hi = 3.0;
        let bounds = vec![(lo, hi); self.cfg.latent_dim];
        let bo = BoMinimizer::new(bounds, seed);
        let mut best = DesignPoint {
            pe_idx: 0,
            buf_idx: 0,
        };
        let mut best_score = f64::INFINITY;
        let scoring = self.engine.scoring();
        let trace = bo.minimize(
            |z| {
                let p = self.decode_latent(input, z);
                let score = self.engine.penalized(input, p, &scoring);
                if score < best_score && self.engine.is_feasible(p) {
                    best_score = score;
                    best = p;
                }
                score.max(1.0).ln()
            },
            budget.max(1),
        );
        (best, trace)
    }

    /// The bound task.
    pub fn task(&self) -> &DseTask {
        self.engine.task()
    }

    /// The shared evaluation substrate.
    pub fn engine(&self) -> &Arc<EvalEngine> {
        &self.engine
    }
}

/// `[features | latent]` with gradients flowing only through the latent.
fn concat_feature_latent(g: &mut Graph<'_>, feats: &Tensor, z: VarId) -> VarId {
    let (cf, cz) = (feats.cols(), g.value(z).cols());
    let total = cf + cz;
    let mut sf = Tensor::zeros(&[cf, total]);
    for i in 0..cf {
        sf[(i, i)] = 1.0;
    }
    let mut sz = Tensor::zeros(&[cz, total]);
    for i in 0..cz {
        sz[(i, cf + i)] = 1.0;
    }
    let fv = g.constant(feats.clone());
    let sfv = g.constant(sf);
    let szv = g.constant(sz);
    let left = g.matmul(fv, sfv);
    let right = g.matmul(z, szv);
    g.add(left, right)
}

impl PredictFn for Vaesa {
    /// One recommendation per input via the latent BO search (seeded by
    /// the input index for determinism).
    fn predict_points(&self, inputs: &[DseInput]) -> Vec<DesignPoint> {
        inputs
            .iter()
            .enumerate()
            .map(|(i, input)| self.search(input, self.cfg.bo_budget, i as u64).0)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ai2_dse::GenerateConfig;

    fn setup(n: usize) -> (DseTask, DseDataset) {
        let task = DseTask::table_i_default();
        let ds = DseDataset::generate(
            &task,
            &GenerateConfig {
                num_samples: n,
                seed: 41,
                threads: 2,
                ..GenerateConfig::default()
            },
        );
        (task, ds)
    }

    #[test]
    fn vae_loss_decreases() {
        let (task, ds) = setup(300);
        let mut vae = Vaesa::new(&VaesaConfig::quick(), &task, &ds);
        let hist = vae.fit(&ds);
        assert!(hist.iter().all(|l| l.is_finite()));
        assert!(hist.last().unwrap() < &hist[0], "{hist:?}");
    }

    #[test]
    fn latent_decoding_covers_multiple_configs() {
        let (task, ds) = setup(200);
        let mut vae = Vaesa::new(&VaesaConfig::quick(), &task, &ds);
        vae.fit(&ds);
        let input = ds.samples[0].input();
        let mut distinct = std::collections::HashSet::new();
        for zx in [-2.0, -1.0, 0.0, 1.0, 2.0] {
            for zy in [-2.0, 0.0, 2.0] {
                distinct.insert(vae.decode_latent(&input, &[zx, zy]));
            }
        }
        assert!(
            distinct.len() >= 3,
            "latent space collapsed to {} configs",
            distinct.len()
        );
    }

    #[test]
    fn bo_search_finds_better_than_first_probe() {
        let (task, ds) = setup(300);
        let mut vae = Vaesa::new(&VaesaConfig::quick(), &task, &ds);
        vae.fit(&ds);
        let input = ds.samples[1].input();
        let (best, trace) = vae.search(&input, 25, 7);
        assert!(vae.engine().is_feasible(best));
        let first = trace.best_trace[0];
        let last = *trace.best_trace.last().unwrap();
        assert!(last <= first, "BO made things worse: {first} → {last}");
    }
}
