//! Config-driven staged recommendation pipelines.
//!
//! AIrchitect v2's one-shot predictor earns its keep at serving scale
//! inside a cheap-model/expensive-model loop: predictor one-shot, local
//! refinement, selective cycle-accurate verification (the Apollo /
//! ArchGym pattern of composable exploration stages). This module is
//! that loop as a first-class abstraction:
//!
//! * [`Stage`] — one transform over a scored candidate set. The four
//!   shipped stages are [`PredictorOneShot`] (the learned model's
//!   answer, engine-verified), [`LocalRefine`] (annealing / GAMMA
//!   warm-started at the incoming best, reusing the `search` module's
//!   implementations), [`TopKVerify`] (re-scores the surviving top-k
//!   through a second [`EvalEngine`], e.g. the cycle-accurate systolic
//!   backend), and [`ParetoFilter`] (the latency/energy non-dominated
//!   frontier).
//! * [`PipelineCfg`] — the declarative serde form (a named stage list
//!   with per-stage knobs: `budget`, `k`, `seed`, `backend`). Decoding
//!   is **strict**: unknown stage names and unknown knobs are rejected
//!   with the canonical parse error, because a typo'd knob silently
//!   ignored would serve different answers than the operator configured.
//! * [`Pipeline`] — a compiled, validated pipeline;
//!   [`Pipeline::run_batch`] is the executor the serving layer calls.
//! * [`PipelineSet`] — the named registry. It always contains
//!   `"default"`, the degenerate single-stage pipeline whose answers are
//!   bit-identical to the historical one-shot `recommend_batch` path.
//!
//! Every stage routes cost queries through one [`BackendEngines`] — one
//! memoizing [`EvalEngine`] per cost backend — so a stage switching
//! backends still hits that backend's caches, and per-backend batch
//! grouping lives here, in exactly one place.
//!
//! Staged answers are **never worse than the one-shot stage's own best**
//! under the query objective: the executor re-scores the stage-1 best
//! under the final answer's backend and returns whichever wins
//! (feasible-first, then lower cost). The `pipeline_identity` simtest
//! invariant checks exactly this.

use std::cmp::Ordering;
use std::fmt;
use std::str::FromStr;
use std::sync::Arc;

use ai2_workloads::generator::DseInput;

use crate::backend::{BackendId, CascadeBackend, CascadeConfig};
use crate::engine::{EvalEngine, Scoring};
use crate::objective::{Budget, Objective};
use crate::search::{AnnealingSearcher, GammaSearcher, SearchContext};
use crate::space::DesignPoint;

/// One [`EvalEngine`] per cost backend over the same task. Each engine
/// owns its backend, so grid/oracle caches can never mix labels across
/// backends; feasibility is identical across engines (shared area
/// model).
#[derive(Debug, Clone)]
pub struct BackendEngines {
    analytic: Arc<EvalEngine>,
    systolic: Arc<EvalEngine>,
    cascade: Arc<EvalEngine>,
    primary: BackendId,
}

impl BackendEngines {
    /// Wraps the primary engine — the one the model was trained over and
    /// predicts through, whatever its backend — and builds a sibling
    /// engine over the same task for every other backend, so queries can
    /// select any evaluator regardless of which one trained the model.
    ///
    /// The cascade engine is staged **over the analytic and systolic
    /// siblings** ([`CascadeBackend::over`]): its prefilter and
    /// escalation sub-results land in those engines' caches under their
    /// own backend keys, while its staged answers are cached in its own
    /// engine under the cascade key — per-stage memoization without any
    /// cross-backend mixing.
    pub fn new(primary: Arc<EvalEngine>) -> BackendEngines {
        let primary_id = primary.backend_id();
        let task = primary.task().clone();
        let sibling = |id: BackendId| -> Arc<EvalEngine> {
            if id == primary_id {
                Arc::clone(&primary)
            } else {
                Arc::new(EvalEngine::for_backend(task.clone(), id))
            }
        };
        let analytic = sibling(BackendId::Analytic);
        let systolic = sibling(BackendId::Systolic);
        let cascade = if primary_id == BackendId::Cascade {
            Arc::clone(&primary)
        } else {
            let staged = CascadeBackend::over(
                Arc::clone(&analytic),
                Arc::clone(&systolic),
                CascadeConfig::default(),
            );
            Arc::new(EvalEngine::with_backend_threads(task, Arc::new(staged), 0))
        };
        BackendEngines {
            analytic,
            systolic,
            cascade,
            primary: primary_id,
        }
    }

    /// The engine answering queries for `id`.
    pub fn get(&self, id: BackendId) -> &Arc<EvalEngine> {
        match id {
            BackendId::Analytic => &self.analytic,
            BackendId::Systolic => &self.systolic,
            BackendId::Cascade => &self.cascade,
        }
    }

    /// The primary engine (the model's training/prediction substrate).
    pub fn primary(&self) -> &Arc<EvalEngine> {
        self.get(self.primary)
    }
}

/// Index of a backend in per-backend counters
/// (`[analytic, systolic, cascade]`).
fn bslot(id: BackendId) -> usize {
    match id {
        BackendId::Analytic => 0,
        BackendId::Systolic => 1,
        BackendId::Cascade => 2,
    }
}

/// One scored design-point candidate flowing between stages.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Candidate {
    /// The design point.
    pub point: DesignPoint,
    /// Cost under the query objective, scored by `backend`.
    pub cost: f64,
    /// Whether the point fits the query's area budget.
    pub feasible: bool,
    /// The backend that scored `cost`.
    pub backend: BackendId,
}

/// Candidate ranking: feasible first, then cheaper, then the smaller
/// grid point — a total, deterministic order.
fn rank(a: &Candidate, b: &Candidate) -> Ordering {
    b.feasible
        .cmp(&a.feasible)
        .then(a.cost.total_cmp(&b.cost))
        .then(a.point.pe_idx.cmp(&b.point.pe_idx))
        .then(a.point.buf_idx.cmp(&b.point.buf_idx))
}

/// The best candidate of a set under [`rank`], if the set is non-empty.
fn best_of(cands: &[Candidate]) -> Option<Candidate> {
    cands.iter().copied().min_by(rank)
}

/// One GEMM recommendation query as the pipeline executor sees it.
#[derive(Debug, Clone, Copy)]
pub struct PipelineQuery {
    /// The workload.
    pub input: DseInput,
    /// Optimization metric.
    pub objective: Objective,
    /// Area budget candidates are checked against.
    pub budget: Budget,
    /// The query's requested cost backend — the default evaluator for
    /// stages without a `backend` override.
    pub backend: BackendId,
}

/// Per-query evaluation context handed to every stage.
#[derive(Debug)]
pub struct StageCtx<'a> {
    /// The workload under recommendation.
    pub input: DseInput,
    /// Optimization metric of the query.
    pub objective: Objective,
    /// Area budget of the query.
    pub budget: Budget,
    /// The query's requested backend (stage `backend` knobs override it).
    pub backend: BackendId,
    /// The shared per-backend engines.
    pub engines: &'a BackendEngines,
    /// Cost-model evaluations spent on this query, per backend
    /// (`[analytic, systolic, cascade]`) — the verify-cycle budget the
    /// bench report accounts.
    pub evals: [u64; 3],
}

impl<'a> StageCtx<'a> {
    fn new(q: &PipelineQuery, engines: &'a BackendEngines) -> Self {
        StageCtx {
            input: q.input,
            objective: q.objective,
            budget: q.budget,
            backend: q.backend,
            engines,
            evals: [0, 0, 0],
        }
    }

    /// The engine a stage scores through: its own override, else the
    /// query's backend.
    pub fn engine(&self, over: Option<BackendId>) -> (&'a Arc<EvalEngine>, BackendId) {
        let id = over.unwrap_or(self.backend);
        (self.engines.get(id), id)
    }

    /// The query's objective and budget.
    pub(crate) fn scoring(&self) -> Scoring {
        Scoring::new(self.objective, self.budget)
    }

    /// Counts `n` cost-model evaluations against `backend`.
    pub fn count(&mut self, backend: BackendId, n: u64) {
        self.evals[bslot(backend)] += n;
    }
}

/// The batched predictor closure stages call for model inference — the
/// serving layer supplies `Airchitect2::predict_with` over its shard's
/// scratch, keeping this crate free of a model dependency.
pub type PredictFn<'p> = dyn FnMut(&[DseInput]) -> Vec<DesignPoint> + 'p;

/// One transform over a scored candidate set.
///
/// Stages are immutable and shared (`&self`); any randomness comes from
/// per-stage seeds in the configuration, so a pipeline's answers are a
/// pure function of its configuration and the query.
pub trait Stage: fmt::Debug + Send + Sync {
    /// The stage kind (`"predict"` / `"refine"` / `"verify"` /
    /// `"pareto"`).
    fn name(&self) -> &'static str;

    /// Transforms one query's candidate set.
    fn run(
        &self,
        ctx: &mut StageCtx<'_>,
        cands: Vec<Candidate>,
        predict: &mut PredictFn<'_>,
    ) -> Vec<Candidate>;

    /// Batched form over a micro-batch of queries; the default runs
    /// [`Stage::run`] per query. [`PredictorOneShot`] overrides it to
    /// coalesce model inference and per-backend engine scoring across
    /// the batch.
    fn run_batch(
        &self,
        ctxs: &mut [StageCtx<'_>],
        sets: Vec<Vec<Candidate>>,
        predict: &mut PredictFn<'_>,
    ) -> Vec<Vec<Candidate>> {
        ctxs.iter_mut()
            .zip(sets)
            .map(|(ctx, cands)| self.run(ctx, cands, predict))
            .collect()
    }
}

/// The learned model's one-shot answer, engine-verified — the historical
/// `recommend_batch` arithmetic as a stage. Its batched form performs
/// one coalesced forward pass for the whole micro-batch and groups
/// engine verification per backend, which is where that routing now
/// lives (per-row inference is batch-invariant, so the batched and
/// per-query forms answer bit-identically).
#[derive(Debug, Clone)]
pub struct PredictorOneShot {
    /// Verifying backend; `None` follows the query.
    pub backend: Option<BackendId>,
}

impl Stage for PredictorOneShot {
    fn name(&self) -> &'static str {
        "predict"
    }

    fn run(
        &self,
        ctx: &mut StageCtx<'_>,
        _cands: Vec<Candidate>,
        predict: &mut PredictFn<'_>,
    ) -> Vec<Candidate> {
        let point = predict(std::slice::from_ref(&ctx.input))[0];
        let (engine, backend) = ctx.engine(self.backend);
        // identical arithmetic to the grouped path
        let cost = engine.cost(&ctx.input, point, &ctx.scoring());
        let feasible = engine.is_feasible_under(point, ctx.budget);
        ctx.count(backend, 1);
        vec![Candidate {
            point,
            cost,
            feasible,
            backend,
        }]
    }

    fn run_batch(
        &self,
        ctxs: &mut [StageCtx<'_>],
        _sets: Vec<Vec<Candidate>>,
        predict: &mut PredictFn<'_>,
    ) -> Vec<Vec<Candidate>> {
        let Some(first) = ctxs.first() else {
            return Vec::new();
        };
        let engines = first.engines;
        let inputs: Vec<DseInput> = ctxs.iter().map(|c| c.input).collect();
        let points = predict(&inputs);
        let mut out: Vec<Vec<Candidate>> = vec![Vec::new(); ctxs.len()];
        // engine verification, one fan-out per backend: the one place
        // per-backend routing exists (each query carries its own
        // objective in its scoring)
        for backend in BackendId::ALL {
            let group: Vec<usize> = (0..ctxs.len())
                .filter(|&i| self.backend.unwrap_or(ctxs[i].backend) == backend)
                .collect();
            if group.is_empty() {
                continue;
            }
            let engine = engines.get(backend);
            // `cost` ignores the budget: infeasible recommendations still
            // get their true cost reported, with `feasible: false`
            let costs = engine.pool().map(group.len(), |g| {
                let ctx = &ctxs[group[g]];
                engine.cost(&ctx.input, points[group[g]], &ctx.scoring())
            });
            for (&i, &cost) in group.iter().zip(&costs) {
                let point = points[i];
                let feasible = engine.is_feasible_under(point, ctxs[i].budget);
                ctxs[i].count(backend, 1);
                out[i] = vec![Candidate {
                    point,
                    cost,
                    feasible,
                    backend,
                }];
            }
        }
        out
    }
}

/// Which searcher a [`LocalRefine`] stage runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RefineMethod {
    /// Simulated annealing ([`AnnealingSearcher`]).
    Annealing,
    /// The GAMMA-style genetic algorithm ([`GammaSearcher`]).
    Gamma,
}

impl RefineMethod {
    fn as_str(self) -> &'static str {
        match self {
            RefineMethod::Annealing => "annealing",
            RefineMethod::Gamma => "gamma",
        }
    }
}

/// Local search warm-started at the incoming best candidate, under the
/// query's objective and budget. Appends the search's best feasible
/// point to the candidate set (incoming candidates pass through, so a
/// later verify stage can still compare against the one-shot answer).
#[derive(Debug, Clone)]
pub struct LocalRefine {
    /// Search algorithm.
    pub method: RefineMethod,
    /// Cost-model evaluations the search may spend.
    pub budget_evals: usize,
    /// Searcher seed (answers are deterministic per configuration).
    pub seed: u64,
    /// Scoring backend; `None` follows the query.
    pub backend: Option<BackendId>,
}

impl Stage for LocalRefine {
    fn name(&self) -> &'static str {
        "refine"
    }

    fn run(
        &self,
        ctx: &mut StageCtx<'_>,
        cands: Vec<Candidate>,
        _predict: &mut PredictFn<'_>,
    ) -> Vec<Candidate> {
        let (engine, backend) = ctx.engine(self.backend);
        let start = best_of(&cands).map(|c| c.point);
        let mut sctx = SearchContext::with_goal(engine, ctx.input, ctx.scoring());
        match self.method {
            RefineMethod::Annealing => {
                let mut searcher = AnnealingSearcher::new(self.seed);
                if let Some(p) = start {
                    searcher = searcher.with_start(p);
                }
                searcher.search_in(&mut sctx, self.budget_evals);
            }
            RefineMethod::Gamma => {
                let mut searcher = GammaSearcher::new(self.seed);
                if let Some(p) = start {
                    searcher = searcher.with_start(p);
                }
                searcher.search_in(&mut sctx, self.budget_evals);
            }
        }
        ctx.count(backend, sctx.num_evals() as u64);
        let mut out = cands;
        if let Some((score, point)) = sctx.best() {
            if !out.iter().any(|c| c.point == point && c.backend == backend) {
                out.push(Candidate {
                    point,
                    cost: score,
                    feasible: engine.is_feasible_under(point, ctx.budget),
                    backend,
                });
            }
        } else if !out.iter().any(|c| c.feasible) {
            // nothing feasible sampled and nothing feasible incoming:
            // offer the smallest configuration as a last resort
            let point = DesignPoint {
                pe_idx: 0,
                buf_idx: 0,
            };
            out.push(Candidate {
                point,
                cost: engine.cost(&ctx.input, point, &ctx.scoring()),
                feasible: engine.is_feasible_under(point, ctx.budget),
                backend,
            });
            ctx.count(backend, 1);
        }
        out
    }
}

/// Re-scores the surviving top-k candidates through a second engine —
/// the selective expensive-model (e.g. cycle-accurate systolic)
/// verification leg of the cheap/expensive loop.
#[derive(Debug, Clone)]
pub struct TopKVerify {
    /// Candidates kept and re-scored.
    pub k: usize,
    /// Verifying backend.
    pub backend: BackendId,
}

impl Stage for TopKVerify {
    fn name(&self) -> &'static str {
        "verify"
    }

    fn run(
        &self,
        ctx: &mut StageCtx<'_>,
        cands: Vec<Candidate>,
        _predict: &mut PredictFn<'_>,
    ) -> Vec<Candidate> {
        let engine = ctx.engines.get(self.backend);
        let mut sorted = cands;
        sorted.sort_by(rank);
        sorted.dedup_by_key(|c| c.point);
        sorted.truncate(self.k);
        for c in &mut sorted {
            c.cost = engine.cost(&ctx.input, c.point, &ctx.scoring());
            c.feasible = engine.is_feasible_under(c.point, ctx.budget);
            c.backend = self.backend;
        }
        ctx.count(self.backend, sorted.len() as u64);
        sorted
    }
}

/// Keeps the latency/energy non-dominated frontier of the candidate
/// set — multi-objective pruning between stages.
#[derive(Debug, Clone)]
pub struct ParetoFilter {
    /// Scoring backend; `None` follows the query.
    pub backend: Option<BackendId>,
}

impl Stage for ParetoFilter {
    fn name(&self) -> &'static str {
        "pareto"
    }

    fn run(
        &self,
        ctx: &mut StageCtx<'_>,
        cands: Vec<Candidate>,
        _predict: &mut PredictFn<'_>,
    ) -> Vec<Candidate> {
        let (engine, backend) = ctx.engine(self.backend);
        let mut sorted = cands;
        sorted.sort_by(rank);
        sorted.dedup_by_key(|c| c.point);
        let under = |objective| Scoring::new(objective, ctx.budget);
        let (lat, energy) = (under(Objective::Latency), under(Objective::Energy));
        let scored: Vec<(Candidate, f64, f64)> = sorted
            .into_iter()
            .map(|c| {
                let lat = engine.cost(&ctx.input, c.point, &lat);
                let energy = engine.cost(&ctx.input, c.point, &energy);
                (c, lat, energy)
            })
            .collect();
        ctx.count(backend, 2 * scored.len() as u64);
        let dominated = |i: usize| {
            scored.iter().enumerate().any(|(j, &(_, lj, ej))| {
                j != i
                    && lj <= scored[i].1
                    && ej <= scored[i].2
                    && (lj < scored[i].1 || ej < scored[i].2)
            })
        };
        scored
            .iter()
            .enumerate()
            .filter(|&(i, _)| !dominated(i))
            .map(|(_, &(c, lat, energy))| Candidate {
                point: c.point,
                // frontier members re-ranked under the query objective
                // (same operand order as the engine's EDP)
                cost: match ctx.objective {
                    Objective::Latency => lat,
                    Objective::Energy => energy,
                    Objective::Edp => energy * lat,
                },
                feasible: engine.is_feasible_under(c.point, ctx.budget),
                backend,
            })
            .collect()
    }
}

/// Declarative form of one stage — the serde schema of the `--pipelines`
/// config file. Every knob beyond the `stage` discriminator is
/// defaulted; unknown stage names and unknown knobs are parse errors.
#[derive(Debug, Clone, PartialEq)]
pub enum StageCfg {
    /// `{"stage": "predict", "backend"?: "analytic"|"systolic"|"cascade"}`
    Predict {
        /// Verifying backend override.
        backend: Option<BackendId>,
    },
    /// `{"stage": "refine", "method"?: "annealing"|"gamma", "budget"?: N,
    /// "seed"?: N, "backend"?: ...}`
    Refine {
        /// Search algorithm (default annealing).
        method: RefineMethod,
        /// Evaluation budget (default 48).
        budget: usize,
        /// Searcher seed (default 17).
        seed: u64,
        /// Scoring backend override.
        backend: Option<BackendId>,
    },
    /// `{"stage": "verify", "k"?: N, "backend"?: ...}` (defaults: k 4,
    /// systolic)
    Verify {
        /// Candidates kept and re-scored (default 4).
        k: usize,
        /// Verifying backend (default systolic).
        backend: BackendId,
    },
    /// `{"stage": "pareto", "backend"?: ...}`
    Pareto {
        /// Scoring backend override.
        backend: Option<BackendId>,
    },
}

/// Rejects a payload object carrying fields outside `known` — the
/// strict contract of the pipelines file and of the serving wire's admin
/// surface. The message follows the vendored codec's canonical
/// parse-error shape, so a strict rejection reads exactly like any other
/// malformed-input error.
pub fn deny_unknown_fields(
    content: &serde::Value,
    what: &str,
    known: &[&str],
) -> Result<(), serde::DeError> {
    if let serde::Value::Object(entries) = content {
        for (key, _) in entries {
            if !known.contains(&key.as_str()) {
                return Err(serde::DeError(format!(
                    "unknown field {key:?} in {what} (expected {})",
                    known.join(", ")
                )));
            }
        }
    }
    Ok(())
}

fn de_backend(v: &serde::Value) -> Result<Option<BackendId>, serde::DeError> {
    let name: Option<String> = serde::de_field(v, "backend")?;
    match name {
        None => Ok(None),
        Some(n) => BackendId::from_str(&n)
            .map(Some)
            .map_err(|e| serde::DeError(e.to_string())),
    }
}

impl serde::Deserialize for StageCfg {
    fn from_value(v: &serde::Value) -> Result<Self, serde::DeError> {
        let stage: String = serde::de_field(v, "stage")?;
        match stage.as_str() {
            "predict" => {
                deny_unknown_fields(v, "predict stage", &["stage", "backend"])?;
                Ok(StageCfg::Predict {
                    backend: de_backend(v)?,
                })
            }
            "refine" => {
                deny_unknown_fields(
                    v,
                    "refine stage",
                    &["stage", "method", "budget", "seed", "backend"],
                )?;
                let method: Option<String> = serde::de_field(v, "method")?;
                let method = match method.as_deref() {
                    None | Some("annealing") => RefineMethod::Annealing,
                    Some("gamma") | Some("gamma-ga") => RefineMethod::Gamma,
                    Some(other) => {
                        return Err(serde::DeError(format!(
                            "unknown refine method {other:?} (expected annealing, gamma)"
                        )))
                    }
                };
                let budget: Option<usize> = serde::de_field(v, "budget")?;
                let seed: Option<u64> = serde::de_field(v, "seed")?;
                Ok(StageCfg::Refine {
                    method,
                    budget: budget.unwrap_or(48),
                    seed: seed.unwrap_or(17),
                    backend: de_backend(v)?,
                })
            }
            "verify" => {
                deny_unknown_fields(v, "verify stage", &["stage", "k", "backend"])?;
                let k: Option<usize> = serde::de_field(v, "k")?;
                Ok(StageCfg::Verify {
                    k: k.unwrap_or(4),
                    backend: de_backend(v)?.unwrap_or(BackendId::Systolic),
                })
            }
            "pareto" => {
                deny_unknown_fields(v, "pareto stage", &["stage", "backend"])?;
                Ok(StageCfg::Pareto {
                    backend: de_backend(v)?,
                })
            }
            other => Err(serde::DeError(format!(
                "unknown stage {other:?} (expected predict, refine, verify, pareto)"
            ))),
        }
    }
}

impl serde::Serialize for StageCfg {
    fn to_value(&self) -> serde::Value {
        let backend_entry = |o: &mut Vec<(String, serde::Value)>, b: Option<BackendId>| {
            if let Some(b) = b {
                o.push(("backend".into(), serde::Value::String(b.as_str().into())));
            }
        };
        let mut o: Vec<(String, serde::Value)> = Vec::new();
        let tag = |s: &str| serde::Value::String(s.into());
        match self {
            StageCfg::Predict { backend } => {
                o.push(("stage".into(), tag("predict")));
                backend_entry(&mut o, *backend);
            }
            StageCfg::Refine {
                method,
                budget,
                seed,
                backend,
            } => {
                o.push(("stage".into(), tag("refine")));
                o.push(("method".into(), tag(method.as_str())));
                o.push(("budget".into(), budget.to_value()));
                o.push(("seed".into(), seed.to_value()));
                backend_entry(&mut o, *backend);
            }
            StageCfg::Verify { k, backend } => {
                o.push(("stage".into(), tag("verify")));
                o.push(("k".into(), k.to_value()));
                o.push(("backend".into(), tag(backend.as_str())));
            }
            StageCfg::Pareto { backend } => {
                o.push(("stage".into(), tag("pareto")));
                backend_entry(&mut o, *backend);
            }
        }
        serde::Value::Object(o)
    }
}

/// A named stage list — one pipeline, declaratively.
#[derive(Debug, Clone, PartialEq)]
pub struct PipelineCfg {
    /// Registry name clients select with `"pipeline": "<name>"`.
    pub name: String,
    /// Stages, executed in order; the first must be `predict`.
    pub stages: Vec<StageCfg>,
}

impl serde::Deserialize for PipelineCfg {
    fn from_value(v: &serde::Value) -> Result<Self, serde::DeError> {
        deny_unknown_fields(v, "pipeline", &["name", "stages"])?;
        Ok(PipelineCfg {
            name: serde::de_field(v, "name")?,
            stages: serde::de_field(v, "stages")?,
        })
    }
}

impl serde::Serialize for PipelineCfg {
    fn to_value(&self) -> serde::Value {
        serde::Value::Object(vec![
            ("name".into(), self.name.to_value()),
            ("stages".into(), self.stages.to_value()),
        ])
    }
}

/// Root of a `--pipelines` config file:
/// `{"pipelines": [{"name": ..., "stages": [...]}, ...]}`.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct PipelinesFile {
    /// Pipelines to register beside `"default"`.
    pub pipelines: Vec<PipelineCfg>,
}

impl serde::Deserialize for PipelinesFile {
    fn from_value(v: &serde::Value) -> Result<Self, serde::DeError> {
        deny_unknown_fields(v, "pipelines file", &["pipelines"])?;
        Ok(PipelinesFile {
            pipelines: serde::de_field(v, "pipelines")?,
        })
    }
}

impl serde::Serialize for PipelinesFile {
    fn to_value(&self) -> serde::Value {
        serde::Value::Object(vec![("pipelines".into(), self.pipelines.to_value())])
    }
}

/// A pipeline configuration that failed validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PipelineError(pub String);

impl fmt::Display for PipelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid pipeline: {}", self.0)
    }
}

impl std::error::Error for PipelineError {}

/// The result a pipeline answers for one query.
#[derive(Debug, Clone)]
pub struct PipelineAnswer {
    /// The winning candidate (feasible-first, lowest cost).
    pub best: Candidate,
    /// Cost-model evaluations spent, per backend
    /// (`[analytic, systolic, cascade]`).
    pub evals: [u64; 3],
}

impl PipelineAnswer {
    /// Evaluations spent on `backend`.
    pub fn backend_evals(&self, backend: BackendId) -> u64 {
        self.evals[bslot(backend)]
    }
}

/// A compiled, validated pipeline.
#[derive(Debug)]
pub struct Pipeline {
    cfg: PipelineCfg,
    stages: Vec<Box<dyn Stage>>,
}

impl Pipeline {
    /// Compiles and validates a configuration.
    ///
    /// # Errors
    ///
    /// Returns a [`PipelineError`] for an empty name, an empty stage
    /// list, a first stage that is not `predict` (later stages need a
    /// candidate set to transform), or degenerate knobs (`k` or
    /// `budget` of 0).
    pub fn compile(cfg: &PipelineCfg) -> Result<Pipeline, PipelineError> {
        if cfg.name.is_empty() {
            return Err(PipelineError("pipeline name must be non-empty".into()));
        }
        if cfg.stages.is_empty() {
            return Err(PipelineError(format!(
                "pipeline {:?} has no stages",
                cfg.name
            )));
        }
        if !matches!(cfg.stages[0], StageCfg::Predict { .. }) {
            return Err(PipelineError(format!(
                "pipeline {:?} must start with a \"predict\" stage (later stages refine an \
                 existing candidate set)",
                cfg.name
            )));
        }
        let mut stages: Vec<Box<dyn Stage>> = Vec::with_capacity(cfg.stages.len());
        for stage in &cfg.stages {
            match *stage {
                StageCfg::Predict { backend } => {
                    stages.push(Box::new(PredictorOneShot { backend }))
                }
                StageCfg::Refine {
                    method,
                    budget,
                    seed,
                    backend,
                } => {
                    if budget == 0 {
                        return Err(PipelineError(format!(
                            "pipeline {:?}: refine budget must be ≥ 1",
                            cfg.name
                        )));
                    }
                    stages.push(Box::new(LocalRefine {
                        method,
                        budget_evals: budget,
                        seed,
                        backend,
                    }));
                }
                StageCfg::Verify { k, backend } => {
                    if k == 0 {
                        return Err(PipelineError(format!(
                            "pipeline {:?}: verify k must be ≥ 1",
                            cfg.name
                        )));
                    }
                    stages.push(Box::new(TopKVerify { k, backend }));
                }
                StageCfg::Pareto { backend } => stages.push(Box::new(ParetoFilter { backend })),
            }
        }
        Ok(Pipeline {
            cfg: cfg.clone(),
            stages,
        })
    }

    /// The registry name.
    pub fn name(&self) -> &str {
        &self.cfg.name
    }

    /// The declarative form this pipeline was compiled from.
    pub fn cfg(&self) -> &PipelineCfg {
        &self.cfg
    }

    /// Stage kinds in execution order.
    pub fn stage_names(&self) -> Vec<&'static str> {
        self.stages.iter().map(|s| s.name()).collect()
    }

    /// Whether this is the degenerate single-stage form whose answers
    /// are bit-identical to the historical one-shot path.
    pub fn is_one_shot(&self) -> bool {
        self.stages.len() == 1
    }

    /// Executes the pipeline over a micro-batch of GEMM queries.
    ///
    /// Multi-stage runs remember the one-shot (first) stage's best and,
    /// at the end, re-score it under the final answer's backend: the
    /// returned best is whichever wins (feasible-first, then cost, ties
    /// to the staged answer), so a staged answer is **never worse than
    /// the one-shot stage's own best** under the query objective.
    pub fn run_batch(
        &self,
        engines: &BackendEngines,
        queries: &[PipelineQuery],
        predict: &mut PredictFn<'_>,
    ) -> Vec<PipelineAnswer> {
        if queries.is_empty() {
            return Vec::new();
        }
        let mut ctxs: Vec<StageCtx<'_>> =
            queries.iter().map(|q| StageCtx::new(q, engines)).collect();
        let mut sets: Vec<Vec<Candidate>> = vec![Vec::new(); queries.len()];
        let mut one_shot: Vec<Option<Candidate>> = vec![None; queries.len()];
        for (si, stage) in self.stages.iter().enumerate() {
            sets = stage.run_batch(&mut ctxs, sets, predict);
            if si == 0 {
                one_shot = sets.iter().map(|cands| best_of(cands)).collect();
            }
        }
        queries
            .iter()
            .enumerate()
            .map(|(i, q)| {
                let staged = best_of(&sets[i]).or(one_shot[i]);
                let mut best =
                    staged.expect("the predict stage always emits a candidate per query");
                if self.stages.len() > 1 {
                    if let Some(os) = one_shot[i] {
                        if os.point != best.point {
                            // like-for-like comparison: the one-shot
                            // point under the final answer's backend
                            let engine = engines.get(best.backend);
                            let clamp = Candidate {
                                point: os.point,
                                cost: engine.cost(&q.input, os.point, &ctxs[i].scoring()),
                                feasible: engine.is_feasible_under(os.point, q.budget),
                                backend: best.backend,
                            };
                            ctxs[i].count(best.backend, 1);
                            if rank(&clamp, &best) == Ordering::Less {
                                best = clamp;
                            }
                        }
                    }
                }
                PipelineAnswer {
                    best,
                    evals: ctxs[i].evals,
                }
            })
            .collect()
    }
}

/// The named pipeline registry. Always contains `"default"` — the
/// degenerate single-stage `predict` pipeline — first.
#[derive(Debug, Clone)]
pub struct PipelineSet {
    list: Vec<Arc<Pipeline>>,
}

impl Default for PipelineSet {
    fn default() -> Self {
        PipelineSet::with(&[]).expect("the built-in default pipeline compiles")
    }
}

impl PipelineSet {
    /// The name every unselected request resolves to.
    pub const DEFAULT: &'static str = "default";

    /// Compiles a registry from configurations, prepending the built-in
    /// `"default"`.
    ///
    /// # Errors
    ///
    /// Returns a [`PipelineError`] when any configuration fails
    /// [`Pipeline::compile`], redefines `"default"`, or reuses a name.
    pub fn with(cfgs: &[PipelineCfg]) -> Result<PipelineSet, PipelineError> {
        let default_cfg = PipelineCfg {
            name: PipelineSet::DEFAULT.into(),
            stages: vec![StageCfg::Predict { backend: None }],
        };
        let mut list = vec![Arc::new(Pipeline::compile(&default_cfg)?)];
        for cfg in cfgs {
            if cfg.name == PipelineSet::DEFAULT {
                return Err(PipelineError(format!(
                    "pipeline name {:?} is reserved (it is the built-in one-shot pipeline)",
                    PipelineSet::DEFAULT
                )));
            }
            if list.iter().any(|p| p.name() == cfg.name) {
                return Err(PipelineError(format!(
                    "duplicate pipeline name {:?}",
                    cfg.name
                )));
            }
            list.push(Arc::new(Pipeline::compile(cfg)?));
        }
        Ok(PipelineSet { list })
    }

    /// Resolves a request's pipeline selector (`None` → `"default"`).
    pub fn get(&self, name: Option<&str>) -> Option<&Arc<Pipeline>> {
        let name = name.unwrap_or(PipelineSet::DEFAULT);
        self.list.iter().find(|p| p.name() == name)
    }

    /// The built-in one-shot pipeline.
    pub fn default_pipeline(&self) -> &Arc<Pipeline> {
        &self.list[0]
    }

    /// Registered names, registration order (`"default"` first).
    pub fn names(&self) -> Vec<&str> {
        self.list.iter().map(|p| p.name()).collect()
    }

    /// Registered pipelines, registration order.
    pub fn iter(&self) -> impl Iterator<Item = &Arc<Pipeline>> {
        self.list.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::objective::DseTask;

    fn engines() -> BackendEngines {
        BackendEngines::new(EvalEngine::shared(DseTask::table_i_default()))
    }

    fn query(objective: Objective) -> PipelineQuery {
        PipelineQuery {
            input: DseInput {
                gemm: ai2_maestro::GemmWorkload::new(48, 400, 300),
                dataflow: ai2_maestro::Dataflow::OutputStationary,
            },
            objective,
            budget: Budget::Edge,
            backend: BackendId::Analytic,
        }
    }

    /// A deterministic stand-in predictor: a mid-grid point.
    fn fake_predict(inputs: &[DseInput]) -> Vec<DesignPoint> {
        inputs
            .iter()
            .map(|_| DesignPoint {
                pe_idx: 20,
                buf_idx: 6,
            })
            .collect()
    }

    fn staged_cfg() -> PipelineCfg {
        PipelineCfg {
            name: "staged".into(),
            stages: vec![
                StageCfg::Predict { backend: None },
                StageCfg::Refine {
                    method: RefineMethod::Annealing,
                    budget: 32,
                    seed: 5,
                    backend: None,
                },
                StageCfg::Verify {
                    k: 2,
                    backend: BackendId::Systolic,
                },
            ],
        }
    }

    #[test]
    fn default_pipeline_matches_direct_one_shot_arithmetic() {
        let engines = engines();
        let set = PipelineSet::default();
        for objective in [Objective::Latency, Objective::Energy, Objective::Edp] {
            let q = query(objective);
            let answers = set
                .default_pipeline()
                .run_batch(&engines, &[q], &mut fake_predict);
            let point = fake_predict(&[q.input])[0];
            let engine = engines.get(BackendId::Analytic);
            let cost = engine.cost(&q.input, point, &Scoring::new(objective, q.budget));
            assert_eq!(answers[0].best.point, point);
            assert_eq!(answers[0].best.cost.to_bits(), cost.to_bits());
            assert_eq!(
                answers[0].best.feasible,
                engine.is_feasible_under(point, q.budget)
            );
            assert_eq!(answers[0].best.backend, BackendId::Analytic);
        }
    }

    #[test]
    fn batched_execution_matches_singleton_execution() {
        let engines = engines();
        let set = PipelineSet::with(&[staged_cfg()]).unwrap();
        let pipeline = set.get(Some("staged")).unwrap();
        let queries: Vec<PipelineQuery> = [Objective::Latency, Objective::Energy, Objective::Edp]
            .into_iter()
            .map(query)
            .collect();
        let batched = pipeline.run_batch(&engines, &queries, &mut fake_predict);
        for (q, expect) in queries.iter().zip(&batched) {
            let single = pipeline.run_batch(&engines, std::slice::from_ref(q), &mut fake_predict);
            assert_eq!(single[0].best, expect.best, "batching changed the answer");
        }
    }

    #[test]
    fn staged_answer_never_worse_than_one_shot_under_final_backend() {
        let engines = engines();
        let set = PipelineSet::with(&[staged_cfg()]).unwrap();
        let pipeline = set.get(Some("staged")).unwrap();
        for objective in [Objective::Latency, Objective::Energy, Objective::Edp] {
            let q = query(objective);
            let staged = &pipeline.run_batch(&engines, &[q], &mut fake_predict)[0];
            // the one-shot answer, re-scored under the staged answer's
            // backend (what the clamp guarantees against)
            let os_point = fake_predict(&[q.input])[0];
            let engine = engines.get(staged.best.backend);
            let os_cost = engine.cost(&q.input, os_point, &Scoring::new(objective, q.budget));
            assert!(staged.best.feasible, "staged answers stay feasible");
            assert!(
                staged.best.cost <= os_cost,
                "{objective:?}: staged {} worse than one-shot {os_cost}",
                staged.best.cost
            );
            // verification spent cycle-accurate evaluations
            assert!(staged.backend_evals(BackendId::Systolic) >= 1);
        }
    }

    #[test]
    fn refine_warm_start_is_seeded_at_the_incoming_best() {
        // a refine stage over a tiny budget must still never regress the
        // incoming best: the warm start is evaluated first
        let engines = engines();
        let cfg = PipelineCfg {
            name: "tiny".into(),
            stages: vec![
                StageCfg::Predict { backend: None },
                StageCfg::Refine {
                    method: RefineMethod::Gamma,
                    budget: 2,
                    seed: 3,
                    backend: None,
                },
            ],
        };
        let set = PipelineSet::with(&[cfg]).unwrap();
        let pipeline = set.get(Some("tiny")).unwrap();
        let q = query(Objective::Latency);
        let staged = &pipeline.run_batch(&engines, &[q], &mut fake_predict)[0];
        let engine = engines.get(staged.best.backend);
        let os_point = fake_predict(&[q.input])[0];
        let os_cost = engine.cost(&q.input, os_point, &Scoring::new(q.objective, q.budget));
        assert!(staged.best.cost <= os_cost);
    }

    #[test]
    fn pareto_filter_keeps_a_non_dominated_frontier() {
        let engines = engines();
        let cfg = PipelineCfg {
            name: "frontier".into(),
            stages: vec![
                StageCfg::Predict { backend: None },
                StageCfg::Refine {
                    method: RefineMethod::Annealing,
                    budget: 24,
                    seed: 9,
                    backend: None,
                },
                StageCfg::Pareto { backend: None },
            ],
        };
        let set = PipelineSet::with(&[cfg]).unwrap();
        let pipeline = set.get(Some("frontier")).unwrap();
        let q = query(Objective::Edp);
        let answers = pipeline.run_batch(&engines, &[q], &mut fake_predict);
        assert!(answers[0].best.feasible);
        assert!(answers[0].best.cost > 0.0);
    }

    #[test]
    fn compile_validates_shape_and_knobs() {
        let no_predict = PipelineCfg {
            name: "x".into(),
            stages: vec![StageCfg::Pareto { backend: None }],
        };
        let err = Pipeline::compile(&no_predict).unwrap_err();
        assert!(err.to_string().contains("predict"), "{err}");

        let empty = PipelineCfg {
            name: "y".into(),
            stages: vec![],
        };
        assert!(Pipeline::compile(&empty).is_err());

        let zero_k = PipelineCfg {
            name: "z".into(),
            stages: vec![
                StageCfg::Predict { backend: None },
                StageCfg::Verify {
                    k: 0,
                    backend: BackendId::Systolic,
                },
            ],
        };
        let err = Pipeline::compile(&zero_k).unwrap_err();
        assert!(err.to_string().contains("k must be ≥ 1"), "{err}");

        // the registry refuses to shadow the built-in default
        let shadow = PipelineCfg {
            name: "default".into(),
            stages: vec![StageCfg::Predict { backend: None }],
        };
        let err = PipelineSet::with(&[shadow]).unwrap_err();
        assert!(err.to_string().contains("reserved"), "{err}");

        let dup = staged_cfg();
        let err = PipelineSet::with(&[dup.clone(), dup]).unwrap_err();
        assert!(err.to_string().contains("duplicate"), "{err}");
    }

    #[test]
    fn cfg_parsing_is_strict_and_defaults_knobs() {
        // defaulted knobs: a bare refine stage gets annealing/48/17
        let cfg: PipelineCfg = serde_json::from_str(
            r#"{"name":"p","stages":[{"stage":"predict"},{"stage":"refine"}]}"#,
        )
        .unwrap();
        assert_eq!(
            cfg.stages[1],
            StageCfg::Refine {
                method: RefineMethod::Annealing,
                budget: 48,
                seed: 17,
                backend: None,
            }
        );
        // a bare verify stage defaults to top-4 through the systolic engine
        let cfg: PipelineCfg = serde_json::from_str(
            r#"{"name":"p","stages":[{"stage":"predict"},{"stage":"verify"}]}"#,
        )
        .unwrap();
        assert_eq!(
            cfg.stages[1],
            StageCfg::Verify {
                k: 4,
                backend: BackendId::Systolic,
            }
        );

        // unknown stage name → canonical parse error
        let err =
            serde_json::from_str::<PipelineCfg>(r#"{"name":"p","stages":[{"stage":"quantize"}]}"#)
                .unwrap_err()
                .to_string();
        assert!(
            err.contains("unknown stage") && err.contains("quantize"),
            "{err}"
        );

        // unknown knob on a known stage → canonical parse error
        let err = serde_json::from_str::<PipelineCfg>(
            r#"{"name":"p","stages":[{"stage":"refine","evals":9}]}"#,
        )
        .unwrap_err()
        .to_string();
        assert!(
            err.contains("unknown field") && err.contains("evals") && err.contains("refine"),
            "{err}"
        );

        // unknown top-level pipeline field → canonical parse error
        let err = serde_json::from_str::<PipelineCfg>(r#"{"name":"p","stages":[],"prio":1}"#)
            .unwrap_err()
            .to_string();
        assert!(
            err.contains("unknown field") && err.contains("prio"),
            "{err}"
        );

        // unknown backend name inside a stage
        let err = serde_json::from_str::<PipelineCfg>(
            r#"{"name":"p","stages":[{"stage":"verify","backend":"rtl"}]}"#,
        )
        .unwrap_err()
        .to_string();
        assert!(err.contains("rtl"), "{err}");
    }

    #[test]
    fn cfg_roundtrips_through_the_vendored_codec() {
        let file = PipelinesFile {
            pipelines: vec![
                staged_cfg(),
                PipelineCfg {
                    name: "frontier".into(),
                    stages: vec![
                        StageCfg::Predict {
                            backend: Some(BackendId::Analytic),
                        },
                        StageCfg::Refine {
                            method: RefineMethod::Gamma,
                            budget: 64,
                            seed: 23,
                            backend: Some(BackendId::Analytic),
                        },
                        StageCfg::Pareto { backend: None },
                    ],
                },
            ],
        };
        let line = serde_json::to_string(&file).unwrap();
        let back: PipelinesFile = serde_json::from_str(&line).unwrap();
        assert_eq!(back, file);
    }

    #[test]
    fn cascade_engine_is_staged_over_the_siblings() {
        let engines = engines();
        let cascade = engines.get(BackendId::Cascade);
        assert_eq!(cascade.backend_id(), BackendId::Cascade);
        // a cascade query runs its analytic prefilter and systolic
        // escalation on the sibling engines
        let q = query(Objective::Latency);
        let ana_before = engines.get(BackendId::Analytic).stats();
        let sys_before = engines.get(BackendId::Systolic).stats();
        cascade.oracle_with(&q.input, q.objective, q.budget);
        let ana_after = engines.get(BackendId::Analytic).stats();
        let sys_after = engines.get(BackendId::Systolic).stats();
        assert!(
            ana_after.evaluations > ana_before.evaluations,
            "the prefilter sweep must land in the analytic sibling"
        );
        assert!(
            sys_after.evaluations > sys_before.evaluations,
            "the escalation must land in the systolic sibling"
        );
        // far fewer systolic evals than the full grid — the whole point
        assert!(sys_after.evaluations - sys_before.evaluations < 768 / 4);
    }

    #[test]
    fn cascade_sweep_builds_its_grid_once_on_any_pool() {
        // the staged grid is single-flight: every pool thread of the
        // cascade's sweep asks for it, and exactly one builds it
        let q = query(Objective::Latency);
        for threads in [1, 4] {
            let task = DseTask::table_i_default();
            let analytic = Arc::new(EvalEngine::for_backend(task.clone(), BackendId::Analytic));
            let systolic = Arc::new(EvalEngine::for_backend(task.clone(), BackendId::Systolic));
            let staged = CascadeBackend::over(
                Arc::clone(&analytic),
                Arc::clone(&systolic),
                CascadeConfig::default(),
            );
            let cascade = EvalEngine::with_backend_threads(task, Arc::new(staged), threads);
            cascade.oracle_with(&q.input, q.objective, q.budget);
            let misses = (analytic.stats().evaluations, systolic.stats().evaluations);
            assert_eq!(misses, (768, 153), "{threads} pool threads");
        }
    }

    #[test]
    fn verify_stage_through_the_cascade_engine_compiles_and_answers() {
        let engines = engines();
        let cfg: PipelineCfg = serde_json::from_str(
            r#"{"name":"cv","stages":[{"stage":"predict"},{"stage":"verify","k":3,"backend":"cascade"}]}"#,
        )
        .unwrap();
        assert_eq!(
            cfg.stages[1],
            StageCfg::Verify {
                k: 3,
                backend: BackendId::Cascade,
            }
        );
        let set = PipelineSet::with(&[cfg]).unwrap();
        let pipeline = set.get(Some("cv")).unwrap();
        let q = query(Objective::Latency);
        let answer = &pipeline.run_batch(&engines, &[q], &mut fake_predict)[0];
        assert_eq!(answer.best.backend, BackendId::Cascade);
        assert!(answer.best.cost.is_finite() && answer.best.cost > 0.0);
        assert!(answer.backend_evals(BackendId::Cascade) >= 1);
        // the cascade answer is the cascade engine's own score for that
        // point, bit for bit
        let engine = engines.get(BackendId::Cascade);
        let direct = engine.cost(
            &q.input,
            answer.best.point,
            &Scoring::new(q.objective, q.budget),
        );
        assert_eq!(answer.best.cost.to_bits(), direct.to_bits());
    }

    #[test]
    fn registry_resolves_names_and_rejects_unknowns() {
        let set = PipelineSet::with(&[staged_cfg()]).unwrap();
        assert_eq!(set.names(), vec!["default", "staged"]);
        assert!(set.get(None).unwrap().is_one_shot());
        assert_eq!(set.get(Some("default")).unwrap().name(), "default");
        assert_eq!(set.get(Some("staged")).unwrap().name(), "staged");
        assert!(set.get(Some("nope")).is_none());
        assert_eq!(
            set.get(Some("staged")).unwrap().stage_names(),
            vec!["predict", "refine", "verify"]
        );
    }
}
