//! The unified evaluation substrate: every subsystem's cost queries —
//! oracle labeling, the search baselines, model-level deployment, and
//! the prediction metrics — flow through one concurrency-safe
//! [`EvalEngine`].
//!
//! # Why one engine
//!
//! Each layer of the reproduction ultimately asks the MAESTRO-style cost
//! model the same question — *what does design point `p` cost on input
//! `i`?* The engine is the one place that answers it:
//!
//! * **Point queries compute** — one design point costs one backend
//!   evaluation, counted in [`EngineStats::evaluations`]. A caller that
//!   revisits points memoizes them itself: a search does so in its
//!   [`SearchContext`](crate::search::SearchContext), which lives exactly
//!   as long as the search.
//! * **Oracle cache** — labeled optima keyed by the full
//!   `(gemm, dataflow, objective, budget)` tuple, so repeated labeling
//!   (dataset generation, metric evaluation, figure binaries) is free
//!   after the first sweep. It stores only `(point, score, count)`
//!   triples and is unbounded.
//! * **Shared worker pool** — sweeps fan out over one self-balancing
//!   [`WorkPool`], and callers batch a scalar query the same way,
//!   `engine.pool().map(n, |i| …)`, instead of each call site growing
//!   its own thread machinery.
//!
//! # Queries
//!
//! A point query is scored under a [`Scoring`]: an objective and a
//! budget. [`EvalEngine::scoring`] gives the task's own;
//! [`Scoring::new`] gives a query's.
//!
//! * [`EvalEngine::raw`] — one point's raw `(latency, energy)`;
//! * [`EvalEngine::cost`] — one point's score, ignoring the budget;
//! * [`EvalEngine::score`] — the same, `None` over budget;
//! * [`EvalEngine::penalized`] — the score, or [`INFEASIBLE_PENALTY`] ×
//!   the cost over budget (the searchers' soft constraint);
//! * [`EvalEngine::grid`] — every point's raw cost, one sweep;
//! * [`EvalEngine::oracle`] / [`EvalEngine::oracle_with`] — the
//!   memoized grid optimum;
//! * [`EvalEngine::model_cost`] — a whole model's cost on one point.
//!
//! Raw costs come from a pluggable [`CostBackend`]
//! (see [`crate::backend`]): the default analytic backend, or the
//! cycle-accurate systolic backend via [`EvalEngine::for_backend`]. Each
//! engine owns exactly one backend, so its oracle cache can never mix
//! labels from different backends. Under the default analytic backend,
//! results are **bit-identical** to the direct [`DseTask`] methods: the
//! engine takes the raw `(latency_cycles, energy_pj)` outputs of
//! [`ai2_maestro::CostModel::evaluate`] and re-derives scores, areas and
//! tie-breaks with exactly the arithmetic `DseTask` uses (property-tested
//! in `tests/engine_consistency.rs`).

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

use ai2_workloads::generator::DseInput;
use ai2_workloads::Layer;

use crate::backend::{AnalyticBackend, BackendId, CostBackend, RawCost};
use crate::objective::{Budget, DseTask, Objective, OracleResult};
use crate::pool::WorkPool;
use crate::space::{DesignPoint, DesignSpace};

/// The factor [`EvalEngine::penalized`] multiplies an over-budget
/// point's cost by: a soft penalty that keeps population searchers
/// moving instead of stalling on the feasibility boundary.
pub const INFEASIBLE_PENALTY: f64 = 10.0;

/// What a point query is scored under.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scoring {
    /// The metric the score reports.
    pub objective: Objective,
    /// The area budget [`EvalEngine::score`] and
    /// [`EvalEngine::penalized`] check ([`EvalEngine::cost`] ignores it).
    pub budget: Budget,
}

impl Scoring {
    /// A query under `objective` and `budget`.
    pub fn new(objective: Objective, budget: Budget) -> Scoring {
        Scoring { objective, budget }
    }
}

/// Cache key for labeled optima: the full problem tuple.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct OracleKey {
    input: DseInput,
    objective: ObjectiveTag,
    /// `f64::to_bits` of the area limit; `u64::MAX` for unbounded.
    budget_bits: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum ObjectiveTag {
    Latency,
    Energy,
    Edp,
}

fn objective_tag(o: Objective) -> ObjectiveTag {
    match o {
        Objective::Latency => ObjectiveTag::Latency,
        Objective::Energy => ObjectiveTag::Energy,
        Objective::Edp => ObjectiveTag::Edp,
    }
}

fn budget_bits(b: Budget) -> u64 {
    match b.limit_mm2() {
        Some(limit) => limit.to_bits(),
        None => u64::MAX,
    }
}

/// Evaluation and oracle-cache counters (monotonic, relaxed).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Design points the backend evaluated (point queries and sweeps).
    pub evaluations: u64,
    /// Oracle queries answered from the oracle cache.
    pub oracle_hits: u64,
    /// Oracle queries that swept the grid.
    pub oracle_misses: u64,
    /// Entries in the oracle cache.
    pub oracle_entries: usize,
}

/// The shared, parallel cost-evaluation substrate with a memoized oracle.
///
/// Cheap to share: wrap it in an [`Arc`] (see [`EvalEngine::shared`]) and
/// hand clones to every subsystem. All methods take `&self` and are safe
/// to call concurrently.
pub struct EvalEngine {
    task: DseTask,
    /// The cost backend answering every raw-cost query. One backend per
    /// engine: the oracle cache below is therefore keyed by a single
    /// backend and can never mix labels across backends.
    backend: Arc<dyn CostBackend>,
    /// Area of every grid point under the backend's area model,
    /// flat-indexed.
    areas: Vec<f64>,
    pool: WorkPool,
    oracles: RwLock<HashMap<OracleKey, OracleResult>>,
    evaluations: AtomicU64,
    oracle_hits: AtomicU64,
    oracle_misses: AtomicU64,
}

impl std::fmt::Debug for EvalEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EvalEngine")
            .field("task", &self.task)
            .field("backend", &self.backend.id())
            .field("threads", &self.pool.threads())
            .field("stats", &self.stats())
            .finish()
    }
}

impl EvalEngine {
    /// An engine over `task` with a machine-sized worker pool and the
    /// default analytic backend (bit-identical to [`DseTask`]).
    pub fn new(task: DseTask) -> EvalEngine {
        Self::with_threads(task, 0)
    }

    /// An engine with an explicit worker count (`0` = available
    /// parallelism) and the default analytic backend.
    pub fn with_threads(task: DseTask, threads: usize) -> EvalEngine {
        let backend = Arc::new(AnalyticBackend::new(task.cost_model));
        Self::with_backend_threads(task, backend, threads)
    }

    /// An engine whose raw costs come from the named [`BackendId`],
    /// built over the task's cost-model constants (see
    /// [`crate::backend::backend_for_task`]). The analytic backend
    /// preserves [`DseTask`] answers bit-for-bit; other backends answer
    /// the same queries from their own evaluator. A cascade engine owns
    /// private per-stage engines over the same task (fresh analytic and
    /// systolic oracle caches) — to stage the cascade over shared sibling
    /// engines instead, build a [`crate::backend::CascadeBackend`] with
    /// [`crate::backend::CascadeBackend::over`] and pass it to
    /// [`EvalEngine::with_backend_threads`].
    pub fn for_backend(task: DseTask, id: BackendId) -> EvalEngine {
        let backend = crate::backend::backend_for_task(id, &task);
        Self::with_backend_threads(task, backend, 0)
    }

    /// An engine over an arbitrary [`CostBackend`] implementation.
    pub fn with_backend_threads(
        task: DseTask,
        backend: Arc<dyn CostBackend>,
        threads: usize,
    ) -> EvalEngine {
        let areas = task
            .space()
            .iter_points()
            .map(|p| backend.area_mm2(&task.space().config(p)))
            .collect();
        EvalEngine {
            backend,
            areas,
            pool: WorkPool::new(threads),
            oracles: RwLock::new(HashMap::new()),
            evaluations: AtomicU64::new(0),
            oracle_hits: AtomicU64::new(0),
            oracle_misses: AtomicU64::new(0),
            task,
        }
    }

    /// Convenience: a shared engine ready to hand to multiple subsystems.
    pub fn shared(task: DseTask) -> Arc<EvalEngine> {
        Arc::new(EvalEngine::new(task))
    }

    /// The default experimental engine (Table I space, latency objective,
    /// edge budget).
    pub fn table_i_default() -> EvalEngine {
        EvalEngine::new(DseTask::table_i_default())
    }

    /// The task under evaluation.
    pub fn task(&self) -> &DseTask {
        &self.task
    }

    /// The task's own objective and budget — with it, the point queries
    /// answer exactly like [`DseTask`]'s.
    pub fn scoring(&self) -> Scoring {
        Scoring::new(self.task.objective, self.task.budget)
    }

    /// The identity of the cost backend answering this engine's queries.
    pub fn backend_id(&self) -> BackendId {
        self.backend.id()
    }

    /// The output design space.
    pub fn space(&self) -> &DesignSpace {
        self.task.space()
    }

    /// The shared worker pool (for callers fanning out their own work).
    pub fn pool(&self) -> &WorkPool {
        &self.pool
    }

    /// Precomputed silicon area of a design point (mm²).
    pub fn area_mm2(&self, p: DesignPoint) -> f64 {
        self.areas[self.space().flat_index(p)]
    }

    /// Whether `p` fits the task's area budget (identical to
    /// [`DseTask::is_feasible`]).
    pub fn is_feasible(&self, p: DesignPoint) -> bool {
        self.is_feasible_under(p, self.task.budget)
    }

    /// Whether `p` fits an arbitrary area budget — the serving path
    /// answers queries under per-request budgets without rebuilding the
    /// engine.
    pub fn is_feasible_under(&self, p: DesignPoint, budget: Budget) -> bool {
        match budget.limit_mm2() {
            None => true,
            Some(limit) => self.area_mm2(p) <= limit,
        }
    }

    /// Evaluation and oracle-cache counters.
    pub fn stats(&self) -> EngineStats {
        EngineStats {
            evaluations: self.evaluations.load(Ordering::Relaxed),
            oracle_hits: self.oracle_hits.load(Ordering::Relaxed),
            oracle_misses: self.oracle_misses.load(Ordering::Relaxed),
            oracle_entries: self.oracles.read().expect("oracle cache poisoned").len(),
        }
    }

    /// Raw cost of one flat-indexed grid point, counted as one
    /// evaluation.
    fn compute_raw(&self, input: &DseInput, flat: usize) -> RawCost {
        self.evaluations.fetch_add(1, Ordering::Relaxed);
        let p = self.space().from_flat(flat);
        self.backend.raw_cost(input, &self.space().config(p))
    }

    // ----------------------------------------------------------------
    // point queries (bit-identical to DseTask under `scoring()`)

    /// Raw `(latency_cycles, energy_pj)` of one design point.
    pub fn raw(&self, input: &DseInput, p: DesignPoint) -> RawCost {
        self.compute_raw(input, self.space().flat_index(p))
    }

    /// One design point's score under `s.objective`, ignoring the budget
    /// (identical to [`DseTask::score_unchecked`] under
    /// [`EvalEngine::scoring`]).
    pub fn cost(&self, input: &DseInput, p: DesignPoint, s: &Scoring) -> f64 {
        s.objective.score_raw(self.raw(input, p))
    }

    /// [`EvalEngine::cost`], or `None` when `p` violates `s.budget`
    /// (identical to [`DseTask::score`] under [`EvalEngine::scoring`]).
    /// An over-budget point runs no query.
    pub fn score(&self, input: &DseInput, p: DesignPoint, s: &Scoring) -> Option<f64> {
        self.is_feasible_under(p, s.budget)
            .then(|| self.cost(input, p, s))
    }

    /// [`EvalEngine::cost`], multiplied by [`INFEASIBLE_PENALTY`] when
    /// `p` violates `s.budget` — the soft constraint of the searchers
    /// and the infeasibility-aware metrics.
    pub fn penalized(&self, input: &DseInput, p: DesignPoint, s: &Scoring) -> f64 {
        let cost = self.cost(input, p, s);
        if self.is_feasible_under(p, s.budget) {
            cost
        } else {
            cost * INFEASIBLE_PENALTY
        }
    }

    // ----------------------------------------------------------------
    // grid queries

    /// The raw cost of every grid point, flat-indexed, swept over the
    /// pool: one evaluation per point.
    pub fn grid(&self, input: &DseInput) -> Vec<RawCost> {
        self.pool.map(self.space().num_points(), |flat| {
            self.compute_raw(input, flat)
        })
    }

    /// The exact grid optimum for `input` under the task's objective and
    /// budget (identical to [`DseTask::oracle`], memoized).
    pub fn oracle(&self, input: &DseInput) -> OracleResult {
        self.oracle_with(input, self.task.objective, self.task.budget)
    }

    /// The exact grid optimum under an overridden objective and budget,
    /// memoized per `(input, objective, budget)`.
    ///
    /// # Panics
    ///
    /// Panics if `budget` admits no design point (same invariant as
    /// [`DseTask::oracle`]).
    pub fn oracle_with(
        &self,
        input: &DseInput,
        objective: Objective,
        budget: Budget,
    ) -> OracleResult {
        let key = OracleKey {
            input: *input,
            objective: objective_tag(objective),
            budget_bits: budget_bits(budget),
        };
        if let Some(res) = self
            .oracles
            .read()
            .expect("oracle cache poisoned")
            .get(&key)
        {
            self.oracle_hits.fetch_add(1, Ordering::Relaxed);
            return *res;
        }
        self.oracle_misses.fetch_add(1, Ordering::Relaxed);
        let raw = self.grid(input);

        // Replicates DseTask::oracle exactly: same iteration order, same
        // score/area comparisons, same tie-breaks.
        let mut best: Option<(f64, f64, DesignPoint)> = None;
        let mut feasible = 0usize;
        for p in self.space().iter_points() {
            if !self.is_feasible_under(p, budget) {
                continue;
            }
            let flat = self.space().flat_index(p);
            let score = objective.score_raw(raw[flat]);
            feasible += 1;
            let area = self.areas[flat];
            let better = match &best {
                None => true,
                Some((bs, ba, _)) => score < *bs || (score == *bs && area < *ba),
            };
            if better {
                best = Some((score, area, p));
            }
        }
        let (best_score, _, best_point) =
            best.expect("DseTask invariant: at least one feasible point");
        let res = OracleResult {
            best_point,
            best_score,
            feasible_points: feasible,
        };
        self.oracles
            .write()
            .expect("oracle cache poisoned")
            .insert(key, res);
        res
    }

    // ----------------------------------------------------------------
    // model-level deployment costs

    /// Model-level cost of running every layer (with repetition counts)
    /// on hardware `point`, each layer on its best dataflow and scored
    /// under `objective` — the cost kernel of the paper's §III-E
    /// deployment methods (under the task's objective), and of
    /// whole-model serving queries under any objective. Ignores the
    /// budget, like [`EvalEngine::cost`]; deployment methods filter
    /// candidate points for feasibility first. Each call evaluates every
    /// layer on every dataflow: `3n` evaluations for `n` layers.
    pub fn model_cost(&self, layers: &[Layer], point: DesignPoint, objective: Objective) -> f64 {
        let s = Scoring::new(objective, Budget::Unbounded);
        layers
            .iter()
            .map(|layer| {
                let best_df = ai2_maestro::Dataflow::ALL
                    .iter()
                    .map(|&dataflow| {
                        let input = DseInput {
                            gemm: layer.gemm,
                            dataflow,
                        };
                        self.cost(&input, point, &s)
                    })
                    .fold(f64::INFINITY, f64::min);
                best_df * layer.count as f64
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ai2_maestro::{Dataflow, GemmWorkload};

    fn input(m: u64, n: u64, k: u64, df: Dataflow) -> DseInput {
        DseInput {
            gemm: GemmWorkload::new(m, n, k),
            dataflow: df,
        }
    }

    /// The engine's sweep scored like [`DseTask::score_grid`] (NaN for
    /// infeasible points).
    fn score_grid(engine: &EvalEngine, inp: &DseInput) -> Vec<f64> {
        let raw = engine.grid(inp);
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
    fn engine_matches_task_point_queries() {
        let task = DseTask::table_i_default();
        let engine = EvalEngine::new(task.clone());
        let s = engine.scoring();
        let inp = input(48, 300, 200, Dataflow::OutputStationary);
        for p in task.space().iter_points().step_by(17) {
            assert_eq!(engine.is_feasible(p), task.is_feasible(p));
            assert_eq!(engine.score(&inp, p, &s), task.score(&inp, p));
            assert_eq!(
                engine.cost(&inp, p, &s).to_bits(),
                task.score_unchecked(&inp, p).to_bits()
            );
        }
    }

    #[test]
    fn engine_matches_task_oracle_and_grid() {
        let task = DseTask::table_i_default();
        let engine = EvalEngine::new(task.clone());
        let inp = input(64, 700, 450, Dataflow::RowStationary);
        assert_eq!(engine.oracle(&inp), task.oracle(&inp));
        let (eg, tg) = (score_grid(&engine, &inp), task.score_grid(&inp));
        assert_eq!(eg.len(), tg.len());
        for (a, b) in eg.iter().zip(&tg) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn penalized_is_the_score_or_the_penalized_cost() {
        let engine = EvalEngine::table_i_default();
        let s = engine.scoring();
        let inp = input(48, 300, 200, Dataflow::WeightStationary);
        let (mut feasible, mut infeasible) = (0, 0);
        for p in engine.space().iter_points().step_by(7) {
            let cost = engine.cost(&inp, p, &s);
            let expected = match engine.score(&inp, p, &s) {
                Some(score) => {
                    feasible += 1;
                    score
                }
                None => {
                    infeasible += 1;
                    cost * INFEASIBLE_PENALTY
                }
            };
            assert_eq!(engine.penalized(&inp, p, &s).to_bits(), expected.to_bits());
        }
        assert!(feasible > 0 && infeasible > 0, "{feasible}/{infeasible}");
    }

    #[test]
    fn repeated_oracle_hits_the_cache() {
        let engine = EvalEngine::table_i_default();
        let inp = input(32, 128, 64, Dataflow::WeightStationary);
        let first = engine.oracle(&inp);
        let stats_after_first = engine.stats();
        let second = engine.oracle(&inp);
        let stats_after_second = engine.stats();
        assert_eq!(first, second);
        assert_eq!(stats_after_first.oracle_misses, 1);
        assert_eq!(
            stats_after_second.oracle_hits,
            stats_after_first.oracle_hits + 1
        );
        assert_eq!(
            stats_after_second.evaluations,
            stats_after_first.evaluations
        );
    }

    #[test]
    fn oracle_with_memoizes_each_objective_and_budget() {
        let engine = EvalEngine::table_i_default();
        let inp = input(40, 220, 90, Dataflow::OutputStationary);
        let latency = engine.oracle(&inp);
        let energy = engine.oracle_with(&inp, Objective::Energy, Budget::Edge);
        let s = engine.stats();
        assert_eq!((s.oracle_misses, s.oracle_entries), (2, 2));
        assert_eq!(s.evaluations, 2 * 768);
        // each label is answered from the oracle memo without a sweep
        assert_eq!(engine.oracle(&inp), latency);
        assert_eq!(
            engine.oracle_with(&inp, Objective::Energy, Budget::Edge),
            energy
        );
        let s = engine.stats();
        assert_eq!((s.oracle_hits, s.evaluations), (2, 2 * 768));
    }

    #[test]
    fn scoring_overrides_match_a_rebuilt_task() {
        // an overridden objective and budget must agree bit-for-bit with
        // a task built natively for that objective and budget
        let engine = EvalEngine::table_i_default();
        let mut alt = DseTask::table_i_default();
        alt.objective = Objective::Energy;
        alt.budget = Budget::Cloud;
        let s = Scoring::new(Objective::Energy, Budget::Cloud);
        let inp = input(96, 410, 170, Dataflow::RowStationary);
        for p in engine.space().iter_points().step_by(31) {
            match (engine.score(&inp, p, &s), alt.score(&inp, p)) {
                (None, None) => {}
                (Some(a), Some(b)) => assert_eq!(a.to_bits(), b.to_bits()),
                other => panic!("feasibility disagreement at {p:?}: {other:?}"),
            }
        }
    }

    #[test]
    fn model_cost_sums_best_dataflow_layer_costs_per_objective() {
        let engine = EvalEngine::table_i_default();
        let layers = vec![
            Layer::new("a", GemmWorkload::new(64, 256, 128)),
            Layer::repeated("b", GemmWorkload::new(8, 1024, 512), 3),
        ];
        let points: Vec<DesignPoint> = (0..6)
            .map(|i| DesignPoint {
                pe_idx: i * 9,
                buf_idx: i,
            })
            .collect();
        let task = engine.task();
        for &p in &points {
            let direct: f64 = layers
                .iter()
                .map(|l| {
                    let best = Dataflow::ALL
                        .iter()
                        .map(|&dataflow| {
                            let inp = DseInput {
                                gemm: l.gemm,
                                dataflow,
                            };
                            task.score_unchecked(&inp, p)
                        })
                        .fold(f64::INFINITY, f64::min);
                    best * l.count as f64
                })
                .sum();
            let via = engine.model_cost(&layers, p, task.objective);
            assert_eq!(via.to_bits(), direct.to_bits());
        }
        // a different objective must actually change the ranking input
        let cost = |o| -> Vec<f64> {
            points
                .iter()
                .map(|&p| engine.model_cost(&layers, p, o))
                .collect()
        };
        assert_ne!(cost(Objective::Latency), cost(Objective::Energy));
    }

    #[test]
    fn model_cost_evaluates_every_layer_on_every_dataflow_each_call() {
        let engine = EvalEngine::table_i_default();
        let layers = vec![
            Layer::new("a", GemmWorkload::new(64, 256, 128)),
            Layer::repeated("b", GemmWorkload::new(8, 1024, 512), 3),
            Layer::new("c", GemmWorkload::new(16, 64, 32)),
        ];
        let p = DesignPoint {
            pe_idx: 5,
            buf_idx: 2,
        };
        let n = layers.len() as u64;
        let first = engine.model_cost(&layers, p, Objective::Latency);
        assert_eq!(engine.stats().evaluations, 3 * n);
        let second = engine.model_cost(&layers, p, Objective::Latency);
        assert_eq!(engine.stats().evaluations, 2 * 3 * n);
        assert_eq!(first.to_bits(), second.to_bits());
    }

    #[test]
    fn every_point_query_and_sweep_counts_one_evaluation_per_point() {
        // cascade tests and the serving stats read this counter
        let engine = EvalEngine::table_i_default();
        let s = engine.scoring();
        let inp = input(36, 180, 96, Dataflow::OutputStationary);
        let p = DesignPoint {
            pe_idx: 7,
            buf_idx: 3,
        };
        engine.raw(&inp, p);
        engine.cost(&inp, p, &s);
        engine.penalized(&inp, p, &s);
        assert_eq!(engine.stats().evaluations, 3);
        // a feasible score evaluates; an over-budget one runs no query
        engine.score(&inp, p, &s);
        let infeasible = DesignPoint {
            pe_idx: 63,
            buf_idx: 11,
        };
        assert!(!engine.is_feasible(infeasible));
        assert_eq!(engine.score(&inp, infeasible, &s), None);
        assert_eq!(engine.stats().evaluations, 4);
        // every sweep evaluates every point, however often it repeats
        engine.grid(&inp);
        engine.grid(&inp);
        assert_eq!(engine.stats().evaluations, 4 + 2 * 768);
    }

    #[test]
    fn per_engine_backends_keep_caches_apart() {
        // same task, two engines, two backends: answers differ, and each
        // engine's caches only ever see its own backend's labels
        let task = DseTask::table_i_default();
        let analytic = EvalEngine::for_backend(task.clone(), BackendId::Analytic);
        let systolic = EvalEngine::for_backend(task.clone(), BackendId::Systolic);
        assert_eq!(analytic.backend_id(), BackendId::Analytic);
        assert_eq!(systolic.backend_id(), BackendId::Systolic);
        let inp = input(48, 300, 200, Dataflow::OutputStationary);
        let a = analytic.oracle(&inp);
        let s = systolic.oracle(&inp);
        assert_eq!(a, task.oracle(&inp), "analytic backend must match DseTask");
        assert_ne!(
            a.best_score.to_bits(),
            s.best_score.to_bits(),
            "backends should answer differently"
        );
        // feasibility is backend-independent (shared area model)
        assert_eq!(a.feasible_points, s.feasible_points);
        // warming one engine leaves the other's caches untouched
        let before = analytic.stats();
        systolic.oracle(&inp);
        systolic.score(
            &inp,
            DesignPoint {
                pe_idx: 3,
                buf_idx: 3,
            },
            &systolic.scoring(),
        );
        assert_eq!(analytic.stats(), before);
        assert_eq!(systolic.stats().oracle_hits, 1);
    }

    #[test]
    fn systolic_engine_oracle_is_the_grid_argmin() {
        // the systolic engine must be self-consistent: its memoized
        // oracle equals the argmin over its own score grid
        let engine = EvalEngine::for_backend(DseTask::table_i_default(), BackendId::Systolic);
        let inp = input(40, 220, 90, Dataflow::WeightStationary);
        let res = engine.oracle(&inp);
        let grid = score_grid(&engine, &inp);
        let best = grid
            .iter()
            .filter(|s| !s.is_nan())
            .fold(f64::INFINITY, |a, &b| a.min(b));
        assert_eq!(res.best_score.to_bits(), best.to_bits());
        assert_eq!(
            res.best_score.to_bits(),
            grid[engine.space().flat_index(res.best_point)].to_bits()
        );
    }
}
