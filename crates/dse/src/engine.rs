//! The unified evaluation substrate: every subsystem's cost queries —
//! oracle labeling, the search baselines, model-level deployment, and
//! the prediction metrics — flow through one concurrency-safe,
//! memoizing [`EvalEngine`].
//!
//! # Why one engine
//!
//! Each layer of the reproduction ultimately asks the MAESTRO-style cost
//! model the same question — *what does design point `p` cost on input
//! `i`?* — and, left alone, each layer answers it independently: the
//! oracle re-sweeps the grid per call, searchers re-score identical
//! `(input, point)` pairs, and deployment replays per-layer costs for
//! every candidate configuration. The engine computes each raw cost at
//! most once and shares it:
//!
//! * **Raw-cost grid cache** — per [`DseInput`], a lazily filled grid of
//!   `(latency, energy)` pairs. Raw costs are objective-independent, so
//!   a single sweep answers *latency*, *energy* and *EDP* queries alike.
//!   Entries are created only by point queries under
//!   [`CachePolicy::Retain`], whose callers (searchers, deployment)
//!   revisit the same input point by point. Queries under
//!   [`CachePolicy::Reuse`] and sweeps ([`EvalEngine::grid`],
//!   [`EvalEngine::oracle`]) fill an existing entry but never create
//!   one, so bulk passes over thousands of distinct inputs cannot
//!   exhaust the capacity that repeated-query workloads depend on.
//! * **Oracle cache** — labeled optima keyed by the full
//!   `(gemm, dataflow, objective, budget)` tuple, so repeated labeling
//!   (dataset generation, metric evaluation, figure binaries) is free
//!   after the first sweep.
//! * **Shared worker pool** — sweeps fan out over one self-balancing
//!   [`WorkPool`], and callers batch a scalar query the same way,
//!   `engine.pool().map(n, |i| …)`, instead of each call site growing
//!   its own thread machinery.
//!
//! # Queries
//!
//! A point query is scored under a [`Scoring`]: an objective, a budget
//! and a [`CachePolicy`]. [`EvalEngine::scoring`] gives the task's own
//! objective and budget under [`CachePolicy::Retain`];
//! [`Scoring::reuse`] gives a one-shot query's.
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
//! engine owns exactly one backend, so its caches can never mix labels
//! from different backends. Under the default analytic backend, results
//! are **bit-identical** to the direct [`DseTask`] methods: the engine
//! caches the raw `(latency_cycles, energy_pj)` outputs of
//! [`ai2_maestro::CostModel::evaluate`] and re-derives scores, areas and
//! tie-breaks with exactly the arithmetic `DseTask` uses (property-tested
//! in `tests/engine_consistency.rs`).
//!
//! # Memory bound
//!
//! A full grid entry costs ~20 KiB (768 points). The grid cache holds at
//! most [`EvalEngine::DEFAULT_GRID_CAPACITY`] entries by default
//! (≈ 20 MiB); beyond that, queries for new inputs compute transiently
//! without caching — the same cost as the pre-engine code paths. The
//! oracle cache stores only `(point, score, count)` triples and is
//! unbounded.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, RwLock};

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

/// Whether a point query may create its input's grid-cache entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CachePolicy {
    /// Create the entry when absent, capacity permitting: for callers
    /// that revisit one input point by point (searchers, deployment).
    Retain,
    /// Reuse and fill an existing entry, never create one: for one-shot
    /// queries over mostly distinct inputs (serving, metric passes),
    /// which would otherwise pin the bounded capacity with single-use
    /// entries.
    Reuse,
}

/// What a point query is scored under.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scoring {
    /// The metric the score reports.
    pub objective: Objective,
    /// The area budget [`EvalEngine::score`] and
    /// [`EvalEngine::penalized`] check ([`EvalEngine::cost`] ignores it).
    pub budget: Budget,
    /// The query's grid-cache policy.
    pub cache: CachePolicy,
}

impl Scoring {
    /// A one-shot query under `objective` and `budget`
    /// ([`CachePolicy::Reuse`]).
    pub fn reuse(objective: Objective, budget: Budget) -> Scoring {
        Scoring {
            objective,
            budget,
            cache: CachePolicy::Reuse,
        }
    }
}

/// One input's lazily filled cost grid.
struct GridEntry {
    cells: Box<[OnceLock<RawCost>]>,
}

impl GridEntry {
    fn new(num_points: usize) -> GridEntry {
        GridEntry {
            cells: (0..num_points).map(|_| OnceLock::new()).collect(),
        }
    }

    fn filled(&self) -> usize {
        self.cells.iter().filter(|c| c.get().is_some()).count()
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

/// Cache observability counters (monotonic, relaxed).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Point evaluations answered from a cached cell.
    pub point_hits: u64,
    /// Point evaluations that ran the cost model.
    pub point_misses: u64,
    /// Oracle queries answered from the oracle cache.
    pub oracle_hits: u64,
    /// Oracle queries that swept the grid.
    pub oracle_misses: u64,
    /// Inputs currently holding a cached grid.
    pub grid_entries: usize,
    /// Grid cells filled across all cached inputs.
    pub cached_points: usize,
    /// Entries in the oracle cache.
    pub oracle_entries: usize,
}

/// The shared, memoizing, parallel cost-evaluation substrate.
///
/// Cheap to share: wrap it in an [`Arc`] (see [`EvalEngine::shared`]) and
/// hand clones to every subsystem. All methods take `&self` and are safe
/// to call concurrently.
pub struct EvalEngine {
    task: DseTask,
    /// The cost backend answering every raw-cost query. One backend per
    /// engine: the grid/oracle caches below are therefore keyed by a
    /// single backend and can never mix labels across backends.
    backend: Arc<dyn CostBackend>,
    /// Area of every grid point under the backend's area model,
    /// flat-indexed.
    areas: Vec<f64>,
    pool: WorkPool,
    grid_capacity: usize,
    grids: RwLock<HashMap<DseInput, Arc<GridEntry>>>,
    oracles: RwLock<HashMap<OracleKey, OracleResult>>,
    point_hits: AtomicU64,
    point_misses: AtomicU64,
    oracle_hits: AtomicU64,
    oracle_misses: AtomicU64,
}

impl std::fmt::Debug for EvalEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EvalEngine")
            .field("task", &self.task)
            .field("backend", &self.backend.id())
            .field("threads", &self.pool.threads())
            .field("grid_capacity", &self.grid_capacity)
            .field("stats", &self.stats())
            .finish()
    }
}

impl EvalEngine {
    /// Default number of cached per-input grids (≈ 20 MiB).
    pub const DEFAULT_GRID_CAPACITY: usize = 1024;

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
    /// systolic caches) — to stage the cascade over shared sibling
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
            grid_capacity: Self::DEFAULT_GRID_CAPACITY,
            grids: RwLock::new(HashMap::new()),
            oracles: RwLock::new(HashMap::new()),
            point_hits: AtomicU64::new(0),
            point_misses: AtomicU64::new(0),
            oracle_hits: AtomicU64::new(0),
            oracle_misses: AtomicU64::new(0),
            task,
        }
    }

    /// Overrides the grid-cache capacity (entries; `0` disables grid
    /// caching entirely).
    pub fn with_grid_capacity(mut self, capacity: usize) -> EvalEngine {
        self.grid_capacity = capacity;
        self
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

    /// The task's own objective and budget under
    /// [`CachePolicy::Retain`] — with it, the point queries answer
    /// exactly like [`DseTask`]'s.
    pub fn scoring(&self) -> Scoring {
        Scoring {
            objective: self.task.objective,
            budget: self.task.budget,
            cache: CachePolicy::Retain,
        }
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

    /// Cache counters and sizes.
    pub fn stats(&self) -> EngineStats {
        let grids = self.grids.read().expect("grid cache poisoned");
        let cached_points = grids.values().map(|e| e.filled()).sum();
        EngineStats {
            point_hits: self.point_hits.load(Ordering::Relaxed),
            point_misses: self.point_misses.load(Ordering::Relaxed),
            oracle_hits: self.oracle_hits.load(Ordering::Relaxed),
            oracle_misses: self.oracle_misses.load(Ordering::Relaxed),
            grid_entries: grids.len(),
            cached_points,
            oracle_entries: self.oracles.read().expect("oracle cache poisoned").len(),
        }
    }

    /// Drops every cached grid and oracle label (counters are kept).
    pub fn clear_cache(&self) {
        self.grids.write().expect("grid cache poisoned").clear();
        self.oracles.write().expect("oracle cache poisoned").clear();
    }

    // ----------------------------------------------------------------
    // raw-cost plumbing

    fn compute_raw(&self, input: &DseInput, flat: usize) -> RawCost {
        let p = self.space().from_flat(flat);
        self.backend.raw_cost(input, &self.space().config(p))
    }

    /// The cached grid for `input`: the existing entry, else — under
    /// [`CachePolicy::Retain`] and if capacity allows — a new one.
    fn entry(&self, input: &DseInput, cache: CachePolicy) -> Option<Arc<GridEntry>> {
        if let Some(entry) = self.grids.read().expect("grid cache poisoned").get(input) {
            return Some(Arc::clone(entry));
        }
        if cache == CachePolicy::Reuse || self.grid_capacity == 0 {
            return None;
        }
        let mut grids = self.grids.write().expect("grid cache poisoned");
        if let Some(entry) = grids.get(input) {
            return Some(Arc::clone(entry));
        }
        if grids.len() >= self.grid_capacity {
            return None;
        }
        let entry = Arc::new(GridEntry::new(self.space().num_points()));
        grids.insert(*input, Arc::clone(&entry));
        Some(entry)
    }

    /// Raw cost of one grid cell: looked up in (or filled into) `entry`,
    /// or computed uncached without one — counted as a point hit or
    /// miss either way.
    fn cell(&self, entry: Option<&GridEntry>, input: &DseInput, flat: usize) -> RawCost {
        let Some(entry) = entry else {
            self.point_misses.fetch_add(1, Ordering::Relaxed);
            return self.compute_raw(input, flat);
        };
        // `computed` disambiguates the race where two threads both see
        // an empty cell: only the thread whose closure ran counts a
        // miss, so the hit/miss stats stay exact.
        let mut computed = false;
        let cost = *entry.cells[flat].get_or_init(|| {
            computed = true;
            self.compute_raw(input, flat)
        });
        let counter = if computed {
            &self.point_misses
        } else {
            &self.point_hits
        };
        counter.fetch_add(1, Ordering::Relaxed);
        cost
    }

    // ----------------------------------------------------------------
    // point queries (bit-identical to DseTask under `scoring()`)

    /// Raw `(latency_cycles, energy_pj)` of one design point.
    pub fn raw(&self, input: &DseInput, p: DesignPoint, cache: CachePolicy) -> RawCost {
        let entry = self.entry(input, cache);
        self.cell(entry.as_deref(), input, self.space().flat_index(p))
    }

    /// One design point's score under `s.objective`, ignoring the budget
    /// (identical to [`DseTask::score_unchecked`] under
    /// [`EvalEngine::scoring`]). The raw-cost cache is
    /// objective-independent, so answering one input under latency
    /// *and* energy runs the cost model once.
    pub fn cost(&self, input: &DseInput, p: DesignPoint, s: &Scoring) -> f64 {
        s.objective.score_raw(self.raw(input, p, s.cache))
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
    /// pool. A sweep reuses (and fills) an existing grid entry but never
    /// creates one, and counts a hit or miss per point like every point
    /// query: a warm grid is `n` hits, a cold one `n` misses (cascade
    /// escalation decisions read these counters).
    pub fn grid(&self, input: &DseInput) -> Vec<RawCost> {
        let entry = self.entry(input, CachePolicy::Reuse);
        self.pool.map(self.space().num_points(), |flat| {
            self.cell(entry.as_deref(), input, flat)
        })
    }

    /// The exact grid optimum for `input` under the task's objective and
    /// budget (identical to [`DseTask::oracle`], memoized).
    pub fn oracle(&self, input: &DseInput) -> OracleResult {
        self.oracle_with(input, self.task.objective, self.task.budget)
    }

    /// The exact grid optimum under an overridden objective and budget —
    /// the raw-cost cache is shared across objectives, so sweeping one
    /// input under latency *and* energy costs one grid sweep, not two.
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
    /// candidate points for feasibility first. Layer grids are retained
    /// ([`CachePolicy::Retain`]): deployment sweeps revisit the same few
    /// layer inputs for every candidate point, which is exactly what a
    /// retained grid pays for.
    pub fn model_cost(&self, layers: &[Layer], point: DesignPoint, objective: Objective) -> f64 {
        let s = Scoring {
            objective,
            budget: Budget::Unbounded,
            cache: CachePolicy::Retain,
        };
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
            stats_after_second.point_misses,
            stats_after_first.point_misses
        );
    }

    #[test]
    fn oracle_with_shares_raw_costs_across_objectives() {
        let engine = EvalEngine::table_i_default();
        let inp = input(40, 220, 90, Dataflow::OutputStationary);
        // a retained point query creates the grid entry (sweeps alone
        // never create one — see EvalEngine::entry)
        engine.cost(
            &inp,
            DesignPoint {
                pe_idx: 4,
                buf_idx: 4,
            },
            &engine.scoring(),
        );
        assert_eq!(engine.stats().grid_entries, 1);
        // the oracle sweep fills the existing grid…
        engine.oracle(&inp);
        assert_eq!(engine.stats().cached_points, 768);
        // …and a different objective over the same input folds the same
        // cached raw costs instead of re-running the cost model
        let misses_before = engine.stats().point_misses;
        engine.oracle_with(&inp, Objective::Energy, Budget::Edge);
        assert_eq!(engine.stats().point_misses, misses_before);
        assert_eq!(engine.stats().grid_entries, 1);
    }

    #[test]
    fn reuse_queries_do_not_populate_the_grid_cache() {
        // a metric pass scores one (input, point) pair per sample; those
        // single-use inputs must not pin the bounded grid capacity
        let engine = EvalEngine::table_i_default();
        let reuse = Scoring {
            cache: CachePolicy::Reuse,
            ..engine.scoring()
        };
        let p = DesignPoint {
            pe_idx: 2,
            buf_idx: 2,
        };
        let inputs: Vec<DseInput> = (1..30u64)
            .map(|i| input(i, i * 5, i * 3, Dataflow::OutputStationary))
            .collect();
        let scores = engine
            .pool()
            .map(inputs.len(), |i| engine.score(&inputs[i], p, &reuse));
        assert!(scores.iter().all(|s| s.is_some()));
        assert_eq!(engine.stats().grid_entries, 0);
        // a retained query creates the entry…
        engine.score(&inputs[0], p, &engine.scoring());
        assert_eq!(engine.stats().grid_entries, 1);
        // …which a reuse query then hits
        let hits_before = engine.stats().point_hits;
        engine.score(&inputs[0], p, &reuse);
        assert_eq!(engine.stats().point_hits, hits_before + 1);
        assert_eq!(engine.stats().grid_entries, 1);
    }

    #[test]
    fn retained_queries_create_one_entry_per_input_up_to_capacity() {
        let engine = EvalEngine::table_i_default().with_grid_capacity(2);
        let s = engine.scoring();
        let p = DesignPoint {
            pe_idx: 1,
            buf_idx: 1,
        };
        let inp = input(12, 34, 56, Dataflow::RowStationary);
        engine.raw(&inp, p, CachePolicy::Retain);
        engine.cost(&inp, p, &s);
        let st = engine.stats();
        assert_eq!((st.grid_entries, st.cached_points), (1, 1));
        assert_eq!((st.point_hits, st.point_misses), (1, 1));
        // past capacity a retained query computes uncached
        for i in 2..5u64 {
            engine.cost(&input(i, 7, 9, Dataflow::RowStationary), p, &s);
        }
        assert_eq!(engine.stats().grid_entries, 2);
    }

    #[test]
    fn sweeps_do_not_populate_the_grid_cache() {
        // labeling many distinct inputs (dataset generation) must not
        // fill the bounded grid cache that point-query workloads rely on
        let engine = EvalEngine::table_i_default();
        for i in 1..20u64 {
            engine.oracle(&input(i * 3, i * 17, i * 11, Dataflow::WeightStationary));
        }
        engine.grid(&input(5, 6, 7, Dataflow::OutputStationary));
        let stats = engine.stats();
        assert_eq!(stats.grid_entries, 0);
        assert_eq!(stats.oracle_entries, 19);
    }

    #[test]
    fn zero_capacity_engine_still_answers_correctly() {
        let task = DseTask::table_i_default();
        let engine = EvalEngine::new(task.clone()).with_grid_capacity(0);
        let inp = input(16, 64, 32, Dataflow::WeightStationary);
        assert_eq!(engine.oracle(&inp), task.oracle(&inp));
        engine.cost(
            &inp,
            DesignPoint {
                pe_idx: 0,
                buf_idx: 0,
            },
            &engine.scoring(),
        );
        assert_eq!(engine.stats().grid_entries, 0);
    }

    #[test]
    fn scoring_overrides_match_a_rebuilt_task() {
        // an overridden objective and budget must agree bit-for-bit with
        // a task built natively for that objective and budget
        let engine = EvalEngine::table_i_default();
        let mut alt = DseTask::table_i_default();
        alt.objective = Objective::Energy;
        alt.budget = Budget::Cloud;
        let s = Scoring::reuse(Objective::Energy, Budget::Cloud);
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
    fn every_entry_point_counts_point_hits_and_misses() {
        // stats accounting must be consistent across ALL entry points:
        // reuse point queries, retained point queries, and the sweep
        // path (which historically counted nothing) — cascade
        // escalation decisions read these counters
        let engine = EvalEngine::table_i_default();
        let retain = engine.scoring();
        let reuse = Scoring {
            cache: CachePolicy::Reuse,
            ..retain
        };
        let inp = input(36, 180, 96, Dataflow::OutputStationary);
        let p = DesignPoint {
            pe_idx: 7,
            buf_idx: 3,
        };
        // reuse single point on a cold cache: one miss, no grid
        engine.cost(&inp, p, &reuse);
        let s = engine.stats();
        assert_eq!((s.point_hits, s.point_misses), (0, 1));
        assert_eq!(s.grid_entries, 0);
        // a cold full sweep counts every point as a miss
        engine.grid(&inp);
        let s = engine.stats();
        assert_eq!((s.point_hits, s.point_misses), (0, 769));
        // create the grid (the sweep cached nothing, so this point
        // recomputes: one more miss)…
        engine.score(&inp, p, &retain);
        let s = engine.stats();
        assert_eq!((s.point_hits, s.point_misses), (0, 770));
        assert_eq!(s.grid_entries, 1);
        // …a sweep over the partially warm grid splits exactly…
        engine.grid(&inp);
        let s = engine.stats();
        assert_eq!((s.point_hits, s.point_misses), (1, 770 + 767));
        // …and a sweep over the fully warm grid is pure hits
        engine.grid(&inp);
        let s = engine.stats();
        assert_eq!((s.point_hits, s.point_misses), (769, 1537));
        // raw queries share the same accounting
        engine.raw(&inp, p, CachePolicy::Reuse);
        assert_eq!(engine.stats().point_hits, 770);
        engine.grid(&inp);
        assert_eq!(engine.stats().point_hits, 770 + 768);
        // clear_cache drops grids and oracle labels but keeps the
        // monotonic counters (documented contract)
        let before = engine.stats();
        engine.clear_cache();
        let after = engine.stats();
        assert_eq!(after.point_hits, before.point_hits);
        assert_eq!(after.point_misses, before.point_misses);
        assert_eq!(after.grid_entries, 0);
        assert_eq!(after.cached_points, 0);
        assert_eq!(after.oracle_entries, 0);
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
