//! DSE dataset generation, splitting and persistence.

use std::error::Error;
use std::fmt;
use std::fs;
use std::path::Path;

use ai2_maestro::{Dataflow, GemmWorkload};
use ai2_tensor::rng;
use ai2_workloads::generator::{DseInput, SamplingStrategy, WorkloadSampler};
use serde::{Deserialize, Serialize};

use crate::backend::BackendId;
use crate::engine::EvalEngine;
use crate::objective::DseTask;
use crate::space::DesignPoint;

/// One labeled sample: DSE input features plus the oracle-optimal design.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DseSample {
    /// Workload `M` dimension.
    pub m: u64,
    /// Workload `N` dimension.
    pub n: u64,
    /// Workload `K` dimension.
    pub k: u64,
    /// Dataflow index (0 = WS, 1 = OS, 2 = RS).
    pub dataflow: usize,
    /// Optimal design point.
    pub optimal: DesignPoint,
    /// Objective score at the optimum (latency in cycles by default).
    pub best_score: f64,
}

impl DseSample {
    /// Reconstructs the [`DseInput`] of this sample.
    pub fn input(&self) -> DseInput {
        DseInput {
            gemm: GemmWorkload::new(self.m, self.n, self.k),
            dataflow: Dataflow::from_index(self.dataflow),
        }
    }

    /// Raw input features `[M, N, K, dataflow]`.
    pub fn features(&self) -> [f32; 4] {
        [
            self.m as f32,
            self.n as f32,
            self.k as f32,
            self.dataflow as f32,
        ]
    }
}

/// Parameters of a generation run.
#[derive(Debug, Clone)]
pub struct GenerateConfig {
    /// Number of samples.
    pub num_samples: usize,
    /// RNG seed.
    pub seed: u64,
    /// Worker threads (0 = available parallelism).
    pub threads: usize,
    /// Sampling strategy over the Table I input space.
    pub strategy: SamplingStrategy,
    /// Cost backend labeling the samples ([`DseDataset::generate`]
    /// only; [`DseDataset::generate_with`] labels with the caller's
    /// engine, whatever its backend).
    pub backend: BackendId,
}

impl Default for GenerateConfig {
    fn default() -> Self {
        GenerateConfig {
            num_samples: 20_000,
            seed: 0xA12C,
            threads: 0,
            strategy: SamplingStrategy::default(),
            backend: BackendId::Analytic,
        }
    }
}

/// A labeled DSE dataset (the paper's 100 K-sample corpus, scaled by
/// configuration).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DseDataset {
    /// The cost backend whose oracle produced `best_score`/`optimal` —
    /// label provenance, persisted with the samples so a saved
    /// systolic-labeled corpus can never be mistaken for an analytic
    /// one after a `load`.
    pub backend: BackendId,
    /// Samples in generation order.
    pub samples: Vec<DseSample>,
}

/// Error loading or saving a dataset.
#[derive(Debug)]
pub enum DatasetError {
    /// Filesystem failure.
    Io(std::io::Error),
    /// Malformed JSON.
    Parse(serde_json::Error),
}

impl fmt::Display for DatasetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DatasetError::Io(e) => write!(f, "dataset io error: {e}"),
            DatasetError::Parse(e) => write!(f, "dataset parse error: {e}"),
        }
    }
}

impl Error for DatasetError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            DatasetError::Io(e) => Some(e),
            DatasetError::Parse(e) => Some(e),
        }
    }
}

impl From<std::io::Error> for DatasetError {
    fn from(e: std::io::Error) -> Self {
        DatasetError::Io(e)
    }
}

impl From<serde_json::Error> for DatasetError {
    fn from(e: serde_json::Error) -> Self {
        DatasetError::Parse(e)
    }
}

impl DseDataset {
    /// Generates a dataset by sampling inputs and labeling each with the
    /// exhaustive oracle, fanned out over a transient [`EvalEngine`]
    /// with `config.threads` workers.
    ///
    /// Inputs are drawn up front from a single seeded stream and the
    /// oracle is a pure function of the input, so the result is
    /// deterministic regardless of thread count.
    pub fn generate(task: &DseTask, config: &GenerateConfig) -> DseDataset {
        // backend_for_task: a cascade label source stages its
        // prefilter/escalation grid over this task's own space
        let backend = crate::backend::backend_for_task(config.backend, task);
        let engine = EvalEngine::with_backend_threads(task.clone(), backend, config.threads);
        Self::generate_with(&engine, config)
    }

    /// [`DseDataset::generate`] through a caller-provided engine, so the
    /// labels land in (and reuse) a shared oracle cache.
    pub fn generate_with(engine: &EvalEngine, config: &GenerateConfig) -> DseDataset {
        let sampler = WorkloadSampler::with_strategy(config.strategy);
        let mut r = rng::seeded(config.seed);
        let inputs = sampler.sample_n(&mut r, config.num_samples);
        Self::label_inputs(engine, &inputs)
    }

    /// Labels a caller-provided list of inputs through `engine`'s
    /// oracle — the online-refresh entry point: the serving layer's
    /// replay buffer holds *observed* queries (not sampled ones), and
    /// this turns them into a training corpus with the same provenance
    /// guarantees as a generated dataset.
    ///
    /// Labels land in (and reuse) the engine's oracle cache, so
    /// re-labeling an input the engine has already labeled is free.
    pub fn label_inputs(engine: &EvalEngine, inputs: &[DseInput]) -> DseDataset {
        let labels = engine
            .pool()
            .map(inputs.len(), |i| engine.oracle(&inputs[i]));
        DseDataset {
            backend: engine.backend_id(),
            samples: inputs
                .iter()
                .zip(&labels)
                .map(|(input, res)| DseSample {
                    m: input.gemm.m,
                    n: input.gemm.n,
                    k: input.gemm.k,
                    dataflow: input.dataflow.index(),
                    optimal: res.best_point,
                    best_score: res.best_score,
                })
                .collect(),
        }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether the dataset is empty.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Splits into `(train, test)` with `train_frac` of the samples in
    /// the training set, after a seeded shuffle (the paper's 80/20).
    ///
    /// # Panics
    ///
    /// Panics unless `0 < train_frac < 1`.
    pub fn split(&self, train_frac: f64, seed: u64) -> (DseDataset, DseDataset) {
        assert!(
            train_frac > 0.0 && train_frac < 1.0,
            "split: train_frac {train_frac} out of (0, 1)"
        );
        use rand::seq::SliceRandom;
        let mut idx: Vec<usize> = (0..self.samples.len()).collect();
        let mut r = rng::seeded(seed);
        idx.shuffle(&mut r);
        let cut = ((self.samples.len() as f64) * train_frac).round() as usize;
        let take = |ids: &[usize]| DseDataset {
            backend: self.backend,
            samples: ids.iter().map(|&i| self.samples[i]).collect(),
        };
        (take(&idx[..cut]), take(&idx[cut..]))
    }

    /// Saves as JSON.
    ///
    /// # Errors
    ///
    /// Returns an error if the file cannot be written.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), DatasetError> {
        fs::write(path, serde_json::to_string(self)?)?;
        Ok(())
    }

    /// Loads from JSON. Files written before label provenance existed
    /// carry no `backend` key; they were all analytic-labeled, so they
    /// load as [`BackendId::Analytic`] rather than erroring (any other
    /// parse failure — including a present-but-corrupt `backend` value —
    /// still errors).
    ///
    /// # Errors
    ///
    /// Returns an error if the file cannot be read or parsed.
    pub fn load(path: impl AsRef<Path>) -> Result<DseDataset, DatasetError> {
        let text = fs::read_to_string(path)?;
        match serde_json::from_str::<DseDataset>(&text) {
            Ok(ds) => Ok(ds),
            Err(e) if e.to_string().contains("missing field `backend`") => {
                #[derive(Deserialize)]
                struct LegacyDataset {
                    samples: Vec<DseSample>,
                }
                let legacy: LegacyDataset = serde_json::from_str(&text)?;
                Ok(DseDataset {
                    backend: BackendId::Analytic,
                    samples: legacy.samples,
                })
            }
            Err(e) => Err(e.into()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_config(n: usize) -> GenerateConfig {
        GenerateConfig {
            num_samples: n,
            seed: 7,
            threads: 2,
            ..GenerateConfig::default()
        }
    }

    #[test]
    fn generation_is_deterministic_across_thread_counts() {
        let task = DseTask::table_i_default();
        let mut c1 = tiny_config(24);
        c1.threads = 1;
        let mut c2 = tiny_config(24);
        c2.threads = 2;
        let a = DseDataset::generate(&task, &c1);
        let b = DseDataset::generate(&task, &c2);
        assert_eq!(a, b);
    }

    #[test]
    fn labels_match_oracle() {
        let task = DseTask::table_i_default();
        let ds = DseDataset::generate(&task, &tiny_config(8));
        for s in &ds.samples {
            let oracle = task.oracle(&s.input());
            assert_eq!(s.optimal, oracle.best_point);
            assert_eq!(s.best_score, oracle.best_score);
        }
    }

    #[test]
    fn systolic_backend_labels_come_from_the_systolic_engine() {
        let task = DseTask::table_i_default();
        let cfg = GenerateConfig {
            backend: BackendId::Systolic,
            ..tiny_config(10)
        };
        let ds = DseDataset::generate(&task, &cfg);
        assert_eq!(ds.backend, BackendId::Systolic);
        let engine = EvalEngine::for_backend(task.clone(), BackendId::Systolic);
        let mut any_differs = false;
        for s in &ds.samples {
            let oracle = engine.oracle(&s.input());
            assert_eq!(s.optimal, oracle.best_point);
            assert_eq!(s.best_score.to_bits(), oracle.best_score.to_bits());
            if s.best_score.to_bits() != task.oracle(&s.input()).best_score.to_bits() {
                any_differs = true;
            }
        }
        assert!(any_differs, "systolic labels never diverged from analytic");
    }

    #[test]
    fn cascade_backend_labels_come_from_the_cascade_engine() {
        // provenance: a cascade-labeled corpus records Cascade, and its
        // labels agree bit-for-bit with a fresh cascade engine's oracle
        let task = DseTask::table_i_default();
        let cfg = GenerateConfig {
            backend: BackendId::Cascade,
            ..tiny_config(6)
        };
        let ds = DseDataset::generate(&task, &cfg);
        assert_eq!(ds.backend, BackendId::Cascade);
        let engine = EvalEngine::for_backend(task.clone(), BackendId::Cascade);
        for s in &ds.samples {
            let oracle = engine.oracle(&s.input());
            assert_eq!(s.optimal, oracle.best_point);
            assert_eq!(s.best_score.to_bits(), oracle.best_score.to_bits());
        }
    }

    #[test]
    fn label_inputs_matches_generated_labels() {
        // labeling observed inputs directly must agree bit-for-bit with
        // the sampled-generation path over the same inputs — the
        // online-refresh worker relies on this equivalence
        let task = DseTask::table_i_default();
        let ds = DseDataset::generate(&task, &tiny_config(12));
        let inputs: Vec<_> = ds.samples.iter().map(DseSample::input).collect();
        let engine = EvalEngine::with_threads(task, 2);
        let relabeled = DseDataset::label_inputs(&engine, &inputs);
        assert_eq!(relabeled.backend, BackendId::Analytic);
        assert_eq!(relabeled.samples.len(), ds.samples.len());
        for (a, b) in relabeled.samples.iter().zip(&ds.samples) {
            assert_eq!(a.optimal, b.optimal);
            assert_eq!(a.best_score.to_bits(), b.best_score.to_bits());
            assert_eq!((a.m, a.n, a.k, a.dataflow), (b.m, b.n, b.k, b.dataflow));
        }
        // empty input list → empty dataset, no panic
        assert!(DseDataset::label_inputs(&engine, &[]).is_empty());
    }

    #[test]
    fn split_partitions_everything() {
        let task = DseTask::table_i_default();
        let ds = DseDataset::generate(&task, &tiny_config(30));
        let (train, test) = ds.split(0.8, 1);
        assert_eq!(train.len() + test.len(), 30);
        assert_eq!(train.len(), 24);
        // deterministic
        let (train2, _) = ds.split(0.8, 1);
        assert_eq!(train, train2);
        // different seed → different split
        let (train3, _) = ds.split(0.8, 2);
        assert_ne!(train, train3);
    }

    #[test]
    fn save_load_roundtrip() {
        let task = DseTask::table_i_default();
        let ds = DseDataset::generate(&task, &tiny_config(6));
        let dir = std::env::temp_dir().join("ai2_dse_ds_test");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ds.json");
        ds.save(&path).unwrap();
        let back = DseDataset::load(&path).unwrap();
        assert_eq!(ds, back);
        assert_eq!(back.backend, BackendId::Analytic); // provenance survives
        fs::remove_file(path).ok();
    }

    #[test]
    fn legacy_files_without_provenance_load_as_analytic() {
        // corpora saved before the backend field existed were all
        // analytic-labeled; they must keep loading
        let task = DseTask::table_i_default();
        let ds = DseDataset::generate(&task, &tiny_config(4));
        let full = serde_json::to_string(&ds).unwrap();
        let json_value: serde_json::JsonValue = serde_json::from_str(&full).unwrap();
        // strip the backend key to reconstruct the legacy shape
        let serde::Value::Object(entries) = &json_value else {
            panic!("dataset serializes as an object");
        };
        let legacy_value = serde::Value::Object(
            entries
                .iter()
                .filter(|(k, _)| k != "backend")
                .cloned()
                .collect(),
        );
        let dir = std::env::temp_dir().join("ai2_dse_ds_legacy_test");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("legacy.json");
        fs::write(&path, serde_json::to_string(&legacy_value).unwrap()).unwrap();
        let back = DseDataset::load(&path).unwrap();
        assert_eq!(back.backend, BackendId::Analytic);
        assert_eq!(back.samples, ds.samples);
        // …but a present-and-corrupt backend value still errors
        fs::write(&path, full.replace("\"Analytic\"", "\"Rtl\"")).unwrap();
        assert!(DseDataset::load(&path).is_err());
        fs::remove_file(path).ok();
    }

    #[test]
    fn sample_feature_roundtrip() {
        let s = DseSample {
            m: 10,
            n: 20,
            k: 30,
            dataflow: 2,
            optimal: DesignPoint {
                pe_idx: 1,
                buf_idx: 2,
            },
            best_score: 123.0,
        };
        assert_eq!(s.features(), [10.0, 20.0, 30.0, 2.0]);
        assert_eq!(s.input().dataflow.index(), 2);
    }
}
