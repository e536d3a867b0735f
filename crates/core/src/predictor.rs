//! Evaluation of one-shot predictions: exact-match accuracy (the paper's
//! Tables II/III metric) and latency quality (how close the predicted
//! configuration's latency is to the oracle optimum).
//!
//! All metrics of one method over one dataset come from a **single**
//! `predict_points` forward pass ([`evaluate_of`] → [`EvalReport`]),
//! and every cost query flows through the shared
//! [`EvalEngine`] — so scoring four metrics costs one batched inference
//! plus cached cost lookups, not four inferences and four cost sweeps.

use ai2_dse::{DesignPoint, DseDataset, EvalEngine, Scoring};
use ai2_uov::UovCodec;
use ai2_workloads::generator::DseInput;

use crate::model::{Airchitect2, CONTRASTIVE_BUCKETS};

/// Evaluation interface over a trained [`Airchitect2`] (or any method
/// exposing per-input design-point predictions via [`PredictFn`]).
#[derive(Clone, Copy)]
pub struct Predictor<'m> {
    model: &'m Airchitect2,
}

/// Any one-shot DSE method: inputs → recommended design points. Allows
/// the baselines to reuse the same metrics.
pub trait PredictFn {
    /// Recommends one design point per input.
    fn predict_points(&self, inputs: &[DseInput]) -> Vec<DesignPoint>;
}

impl PredictFn for Predictor<'_> {
    fn predict_points(&self, inputs: &[DseInput]) -> Vec<DesignPoint> {
        self.model.predict(inputs)
    }
}

/// All prediction-quality metrics of one method over one dataset,
/// computed from a single batched `predict_points` pass.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EvalReport {
    /// Bucket-level accuracy in percent — the headline metric of the
    /// reproduction (Tables II/III): both output heads land in the same
    /// K = 16 UOV bucket as the oracle optimum.
    pub bucket_accuracy: f64,
    /// Index-exact accuracy in percent: both predicted indices equal the
    /// oracle optimum exactly.
    pub exact_accuracy: f64,
    /// Exact accuracy of the PE axis alone (%).
    pub pe_accuracy: f64,
    /// Exact accuracy of the buffer axis alone (%).
    pub buf_accuracy: f64,
    /// Geometric-mean latency ratio `predicted / oracle` (≥ 1, lower is
    /// better). 1.00 means every prediction is latency-optimal even when
    /// not index-identical.
    pub latency_ratio: f64,
    /// Number of samples scored.
    pub samples: usize,
}

impl EvalReport {
    /// The report of an empty dataset (zero accuracies, unit ratio).
    pub fn empty() -> EvalReport {
        EvalReport {
            bucket_accuracy: 0.0,
            exact_accuracy: 0.0,
            pe_accuracy: 0.0,
            buf_accuracy: 0.0,
            latency_ratio: 1.0,
            samples: 0,
        }
    }
}

impl<'m> Predictor<'m> {
    /// Wraps a trained model.
    pub fn new(model: &'m Airchitect2) -> Self {
        Predictor { model }
    }

    /// Every metric from one forward pass, scored through the model's
    /// shared engine.
    pub fn evaluate(&self, ds: &DseDataset) -> EvalReport {
        evaluate_of(self, self.model.engine(), ds)
    }

    /// Bucket-level accuracy in percent (see
    /// [`EvalReport::bucket_accuracy`]). Index comparison only — no
    /// cost-model queries; use [`Predictor::evaluate`] when you also
    /// want the latency ratio.
    pub fn accuracy(&self, ds: &DseDataset) -> f64 {
        bucket_accuracy_of(self, self.model.engine(), ds)
    }

    /// Index-exact accuracy in percent (index comparison only).
    pub fn exact_accuracy(&self, ds: &DseDataset) -> f64 {
        accuracy_of(self, self.model.engine(), ds)
    }

    /// Per-axis accuracies `(pe %, buffer %)` (index comparison only).
    pub fn per_axis_accuracy(&self, ds: &DseDataset) -> (f64, f64) {
        per_axis_accuracy_of(self, self.model.engine(), ds)
    }

    /// Geometric-mean latency ratio `predicted / oracle`.
    pub fn latency_ratio(&self, ds: &DseDataset) -> f64 {
        latency_ratio_of(self, self.model.engine(), ds)
    }
}

/// Index-agreement counts of one prediction batch against the oracle
/// labels — no cost-model queries.
struct IndexMetrics {
    bucket: f64,
    exact: f64,
    pe: f64,
    buf: f64,
}

fn index_metrics(engine: &EvalEngine, preds: &[DesignPoint], ds: &DseDataset) -> IndexMetrics {
    let space = engine.space();
    let pe_b = UovCodec::new(CONTRASTIVE_BUCKETS, space.num_pe_choices());
    let buf_b = UovCodec::new(CONTRASTIVE_BUCKETS, space.num_buf_choices());
    let mut bucket_hits = 0usize;
    let mut exact_hits = 0usize;
    let mut pe_hits = 0usize;
    let mut buf_hits = 0usize;
    for (p, s) in preds.iter().zip(&ds.samples) {
        if pe_b.bucket_of(p.pe_idx) == pe_b.bucket_of(s.optimal.pe_idx)
            && buf_b.bucket_of(p.buf_idx) == buf_b.bucket_of(s.optimal.buf_idx)
        {
            bucket_hits += 1;
        }
        if *p == s.optimal {
            exact_hits += 1;
        }
        if p.pe_idx == s.optimal.pe_idx {
            pe_hits += 1;
        }
        if p.buf_idx == s.optimal.buf_idx {
            buf_hits += 1;
        }
    }
    let n = ds.len() as f64;
    IndexMetrics {
        bucket: 100.0 * bucket_hits as f64 / n,
        exact: 100.0 * exact_hits as f64 / n,
        pe: 100.0 * pe_hits as f64 / n,
        buf: 100.0 * buf_hits as f64 / n,
    }
}

/// Geometric-mean `predicted / oracle` score ratio of one prediction
/// batch, scored through the engine.
fn latency_ratio_metric(
    engine: &EvalEngine,
    inputs: &[DseInput],
    preds: &[DesignPoint],
    ds: &DseDataset,
) -> f64 {
    // infeasible predictions are penalized, matching how a deployed
    // over-budget config would simply be rejected and rated badly; the
    // one-shot queries reuse cached grids without creating any
    let task = engine.task();
    let scoring = Scoring::reuse(task.objective, task.budget);
    let scores = engine.pool().map(inputs.len(), |i| {
        engine.penalized(&inputs[i], preds[i], &scoring)
    });
    let mut log_sum = 0.0f64;
    for (score, s) in scores.iter().zip(&ds.samples) {
        log_sum += (score / s.best_score).max(1.0).ln();
    }
    (log_sum / ds.len() as f64).exp()
}

fn predict_all(method: &dyn PredictFn, ds: &DseDataset) -> (Vec<DseInput>, Vec<DesignPoint>) {
    let inputs: Vec<DseInput> = ds.samples.iter().map(|s| s.input()).collect();
    let preds = method.predict_points(&inputs);
    (inputs, preds)
}

/// Scores any prediction method over `ds` in one batched pass: one
/// `predict_points` call, then bucket / exact / per-axis accuracy and
/// the latency ratio from the shared engine's cached costs. All methods
/// in Table III are scored through this same path, so classification and
/// UOV heads compare fairly.
pub fn evaluate_of(method: &dyn PredictFn, engine: &EvalEngine, ds: &DseDataset) -> EvalReport {
    if ds.is_empty() {
        return EvalReport::empty();
    }
    let (inputs, preds) = predict_all(method, ds);
    let idx = index_metrics(engine, &preds, ds);
    EvalReport {
        bucket_accuracy: idx.bucket,
        exact_accuracy: idx.exact,
        pe_accuracy: idx.pe,
        buf_accuracy: idx.buf,
        latency_ratio: latency_ratio_metric(engine, &inputs, &preds, ds),
        samples: ds.len(),
    }
}

/// Bucket-level accuracy (%) of any prediction method. Index comparison
/// only — one `predict_points` pass, no cost-model queries.
pub fn bucket_accuracy_of(method: &dyn PredictFn, engine: &EvalEngine, ds: &DseDataset) -> f64 {
    if ds.is_empty() {
        return 0.0;
    }
    let (_, preds) = predict_all(method, ds);
    index_metrics(engine, &preds, ds).bucket
}

/// Index-exact accuracy (%) of any prediction method (index comparison
/// only).
pub fn accuracy_of(method: &dyn PredictFn, engine: &EvalEngine, ds: &DseDataset) -> f64 {
    if ds.is_empty() {
        return 0.0;
    }
    let (_, preds) = predict_all(method, ds);
    index_metrics(engine, &preds, ds).exact
}

/// Per-axis accuracies (%) of any prediction method (index comparison
/// only).
pub fn per_axis_accuracy_of(
    method: &dyn PredictFn,
    engine: &EvalEngine,
    ds: &DseDataset,
) -> (f64, f64) {
    if ds.is_empty() {
        return (0.0, 0.0);
    }
    let (_, preds) = predict_all(method, ds);
    let idx = index_metrics(engine, &preds, ds);
    (idx.pe, idx.buf)
}

/// Geometric-mean `predicted-score / oracle-score` of any method — one
/// `predict_points` pass plus one batched scoring pass.
pub fn latency_ratio_of(method: &dyn PredictFn, engine: &EvalEngine, ds: &DseDataset) -> f64 {
    if ds.is_empty() {
        return 1.0;
    }
    let (inputs, preds) = predict_all(method, ds);
    latency_ratio_metric(engine, &inputs, &preds, ds)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ModelConfig;
    use crate::train::TrainConfig;
    use ai2_dse::{DseTask, GenerateConfig};

    struct OraclePredictor<'a>(&'a EvalEngine);

    impl PredictFn for OraclePredictor<'_> {
        fn predict_points(&self, inputs: &[DseInput]) -> Vec<DesignPoint> {
            inputs.iter().map(|i| self.0.oracle(i).best_point).collect()
        }
    }

    struct ConstantPredictor(DesignPoint);

    impl PredictFn for ConstantPredictor {
        fn predict_points(&self, inputs: &[DseInput]) -> Vec<DesignPoint> {
            vec![self.0; inputs.len()]
        }
    }

    fn setup() -> (EvalEngine, DseDataset) {
        let task = DseTask::table_i_default();
        let ds = DseDataset::generate(
            &task,
            &GenerateConfig {
                num_samples: 50,
                seed: 13,
                threads: 2,
                ..GenerateConfig::default()
            },
        );
        (EvalEngine::new(task), ds)
    }

    #[test]
    fn oracle_predictor_scores_perfectly() {
        let (engine, ds) = setup();
        let p = OraclePredictor(&engine);
        assert_eq!(accuracy_of(&p, &engine, &ds), 100.0);
        let (a, b) = per_axis_accuracy_of(&p, &engine, &ds);
        assert_eq!((a, b), (100.0, 100.0));
    }

    #[test]
    fn constant_predictor_scores_poorly() {
        let (engine, ds) = setup();
        let p = ConstantPredictor(DesignPoint {
            pe_idx: 0,
            buf_idx: 0,
        });
        assert!(accuracy_of(&p, &engine, &ds) < 50.0);
    }

    #[test]
    fn latency_ratio_is_one_for_oracle_points() {
        let (engine, ds) = setup();
        let ratio = latency_ratio_of(&OraclePredictor(&engine), &engine, &ds);
        assert!((ratio - 1.0).abs() < 1e-9, "oracle ratio {ratio}");
        assert_eq!(
            bucket_accuracy_of(&OraclePredictor(&engine), &engine, &ds),
            100.0
        );
    }

    #[test]
    fn report_is_internally_consistent() {
        let (engine, ds) = setup();
        let rep = evaluate_of(&OraclePredictor(&engine), &engine, &ds);
        assert_eq!(rep.samples, ds.len());
        assert_eq!(rep.bucket_accuracy, 100.0);
        assert_eq!(rep.exact_accuracy, 100.0);
        // exact accuracy can never exceed either per-axis accuracy or
        // the bucket-level accuracy
        let bad = evaluate_of(
            &ConstantPredictor(DesignPoint {
                pe_idx: 2,
                buf_idx: 3,
            }),
            &engine,
            &ds,
        );
        assert!(bad.exact_accuracy <= bad.pe_accuracy + 1e-9);
        assert!(bad.exact_accuracy <= bad.buf_accuracy + 1e-9);
        assert!(bad.exact_accuracy <= bad.bucket_accuracy + 1e-9);
        assert!(bad.latency_ratio >= 1.0);
    }

    #[test]
    fn empty_dataset_yields_empty_report() {
        let (engine, _) = setup();
        let ds = DseDataset {
            backend: ai2_dse::BackendId::Analytic,
            samples: vec![],
        };
        let rep = evaluate_of(
            &ConstantPredictor(DesignPoint {
                pe_idx: 0,
                buf_idx: 0,
            }),
            &engine,
            &ds,
        );
        assert_eq!(rep, EvalReport::empty());
    }

    #[test]
    fn trained_model_beats_constant_on_latency_ratio() {
        let (engine, ds) = setup();
        let bigger = GenerateConfig {
            num_samples: 300,
            seed: 14,
            threads: 2,
            ..GenerateConfig::default()
        };
        let ds_big = DseDataset::generate(engine.task(), &bigger);
        let mut model = Airchitect2::new(&ModelConfig::tiny(), engine.task(), &ds_big);
        model.fit(&ds_big, &TrainConfig::quick());
        let ratio = model.predictor().latency_ratio(&ds);
        let const_ratio = latency_ratio_of(
            &ConstantPredictor(DesignPoint {
                pe_idx: 0,
                buf_idx: 0,
            }),
            &engine,
            &ds,
        );
        assert!(
            ratio < const_ratio,
            "trained ratio {ratio} not better than constant {const_ratio}"
        );
    }
}
