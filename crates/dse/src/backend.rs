//! Pluggable cost backends: one interface, many evaluators.
//!
//! AIrchitect v2 learns from an oracle cost model, and the fidelity of
//! that oracle bounds everything downstream. This module abstracts *what
//! answers a cost query* behind the [`CostBackend`] trait so the engine,
//! dataset generation and the serving layer are all indifferent to it:
//!
//! * [`AnalyticBackend`] — the MAESTRO-style closed-form model
//!   ([`ai2_maestro::CostModel`]), the default. Answers through this
//!   backend are **bit-identical** to the direct [`DseTask`] paths
//!   (property-tested in `tests/engine_consistency.rs`).
//! * [`SystolicBackend`] — cycle-accurate latency from the
//!   [`ai2_systolic`] simulator's exact schedule accounting
//!   ([`GemmSimulation::dry_run`], itself pinned bit-for-bit against the
//!   cycle-stepped simulation), with energy derived from the simulated
//!   activity counts priced at the analytic model's per-access constants.
//! * [`CascadeBackend`] — the multi-fidelity staged evaluator (the
//!   Apollo / DiffAxE cheap-model/expensive-model loop): an analytic
//!   prefilter over the full grid, cycle-accurate systolic escalation of
//!   only the top-k frontier plus points where the frontier-calibrated
//!   predictor disagrees with the analytic score beyond a threshold
//!   ([`CascadeConfig`]). Sub-results are memoized in per-stage
//!   [`EvalEngine`]s, so analytic and systolic partial answers are
//!   cached under their own backend keys and never mix.
//!
//! All backends share the task's [`AreaModel`] (silicon area does not
//! depend on how a workload is evaluated), so feasibility under an area
//! budget is backend-independent. Each [`EvalEngine`] owns exactly one
//! backend; caches therefore can never mix labels from different
//! backends — to compare backends, build one engine per backend over the
//! same task (see `EvalEngine::for_backend`).
//!
//! [`DseTask`]: crate::DseTask
//! [`EvalEngine`]: crate::EvalEngine
//! [`AreaModel`]: ai2_maestro::AreaModel
//! [`GemmSimulation::dry_run`]: ai2_systolic::GemmSimulation::dry_run

use std::collections::HashMap;
use std::fmt;
use std::str::FromStr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, RwLock};

use ai2_maestro::{AcceleratorConfig, CostModel};
use ai2_systolic::{ArrayConfig, GemmSimulation};
use ai2_workloads::generator::DseInput;
use serde::{Deserialize, Serialize};

use crate::engine::{CachePolicy, EvalEngine};
use crate::objective::{DseTask, Objective};
use crate::space::DesignPoint;

/// Raw, objective-independent cost of one `(input, config)` evaluation:
/// `(latency_cycles, energy_pj)`.
pub type RawCost = (u64, f64);

/// Stable identity of a cost backend — the cache-partitioning key and
/// the value of the wire protocol's optional `"backend"` query field.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum BackendId {
    /// The MAESTRO-style analytical model (`ai2-maestro`).
    #[default]
    Analytic,
    /// The cycle-accurate systolic-array schedule (`ai2-systolic`).
    Systolic,
    /// The multi-fidelity cascade: analytic prefilter, systolic
    /// escalation of the top-k frontier plus disagreement outliers.
    Cascade,
}

impl BackendId {
    /// Every selectable backend.
    pub const ALL: [BackendId; 3] = [BackendId::Analytic, BackendId::Systolic, BackendId::Cascade];

    /// The wire spelling (`"analytic"` / `"systolic"` / `"cascade"`).
    pub fn as_str(self) -> &'static str {
        match self {
            BackendId::Analytic => "analytic",
            BackendId::Systolic => "systolic",
            BackendId::Cascade => "cascade",
        }
    }
}

impl fmt::Display for BackendId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Error parsing a backend name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseBackendError(String);

impl fmt::Display for ParseBackendError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // the expected-names list is generated from `BackendId::ALL` so
        // that adding a variant can never leave a stale error string
        // anywhere the parse error surfaces (FromStr, the serve wire,
        // pipeline configs all route through this one Display)
        write!(f, "unknown cost backend {:?} (expected ", self.0)?;
        let last = BackendId::ALL.len() - 1;
        for (i, id) in BackendId::ALL.iter().enumerate() {
            if i > 0 {
                f.write_str(if i == last { " or " } else { ", " })?;
            }
            write!(f, "{:?}", id.as_str())?;
        }
        f.write_str(")")
    }
}

impl std::error::Error for ParseBackendError {}

impl FromStr for BackendId {
    type Err = ParseBackendError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.trim().to_ascii_lowercase().as_str() {
            "analytic" | "analytical" | "maestro" => Ok(BackendId::Analytic),
            "systolic" | "cycle" | "cycle-accurate" | "sim" => Ok(BackendId::Systolic),
            "cascade" | "multi-fidelity" | "staged" => Ok(BackendId::Cascade),
            _ => Err(ParseBackendError(s.to_string())),
        }
    }
}

/// Costs a `(workload, hardware)` pair into latency, energy and area.
///
/// Implementations must be pure functions of their inputs (the engine
/// memoizes and replays results across threads) and cheap enough to
/// sweep the full design-space grid per workload.
pub trait CostBackend: fmt::Debug + Send + Sync {
    /// The backend's stable identity.
    fn id(&self) -> BackendId;

    /// Raw `(latency_cycles, energy_pj)` of running `input` on `hw`.
    fn raw_cost(&self, input: &DseInput, hw: &AcceleratorConfig) -> RawCost;

    /// Silicon area of `hw` in mm² (used for budget feasibility).
    fn area_mm2(&self, hw: &AcceleratorConfig) -> f64;
}

/// Builds the backend named by `id`, sharing the analytic model's
/// calibration constants (energy prices, area model) so all backends
/// answer in the same units against the same silicon.
///
/// The cascade backend stages its evaluation over a design-space grid;
/// with only a cost model in hand it is built over the Table-I default
/// space. Callers with a concrete task should prefer
/// [`backend_for_task`] so the cascade grid matches the task's space.
pub fn backend_for(id: BackendId, model: CostModel) -> Arc<dyn CostBackend> {
    match id {
        BackendId::Analytic => Arc::new(AnalyticBackend::new(model)),
        BackendId::Systolic => Arc::new(SystolicBackend::new(model)),
        BackendId::Cascade => {
            let mut task = DseTask::table_i_default();
            task.cost_model = model;
            Arc::new(CascadeBackend::new(&task, CascadeConfig::default()))
        }
    }
}

/// [`backend_for`] with the full task in hand: the cascade backend's
/// prefilter/escalation grid is built over `task`'s own design space
/// (the other backends only need the cost-model constants).
pub fn backend_for_task(id: BackendId, task: &DseTask) -> Arc<dyn CostBackend> {
    match id {
        BackendId::Cascade => Arc::new(CascadeBackend::new(task, CascadeConfig::default())),
        _ => backend_for(id, task.cost_model),
    }
}

/// The MAESTRO-style analytical backend — a thin adapter over
/// [`CostModel::evaluate`], preserving its arithmetic exactly.
#[derive(Debug, Clone, Copy)]
pub struct AnalyticBackend {
    model: CostModel,
}

impl AnalyticBackend {
    /// Wraps an analytic cost model.
    pub fn new(model: CostModel) -> Self {
        AnalyticBackend { model }
    }
}

impl CostBackend for AnalyticBackend {
    fn id(&self) -> BackendId {
        BackendId::Analytic
    }

    fn raw_cost(&self, input: &DseInput, hw: &AcceleratorConfig) -> RawCost {
        let report = self.model.evaluate(&input.gemm, input.dataflow, hw);
        (report.latency_cycles, report.energy_pj)
    }

    fn area_mm2(&self, hw: &AcceleratorConfig) -> f64 {
        self.model.area_mm2(hw)
    }
}

/// The cycle-accurate backend: the array-side latency is the exact cycle
/// count of the output-stationary systolic schedule
/// ([`GemmSimulation::dry_run`], bit-identical to the stepped
/// simulation) on the squarest array the PE budget factors into; the
/// end-to-end latency is that schedule under a DRAM-bandwidth roofline
/// (`max(array_cycles, dram_cycles)` — an accelerator is not magically
/// operand-fed, and without the roofline the backend would claim more
/// PEs always help even hopelessly memory-bound layers).
///
/// DRAM traffic follows the simulated loop nest (`i0` outer, `j0`
/// inner) with L2-gated inter-tile reuse, Scale-Sim style: an `A`
/// row-block (`tr × K`) is fetched once per row sweep when it fits its
/// half of the L2 (else refetched per tile), the `B` panel (`K × N`) is
/// fetched once when it fits (else refetched per tile row), and `C`
/// drains exactly once — partial sums live in the PE accumulators, never
/// in memory.
///
/// Fidelity gaps vs. the analytic backend are *by design* — they are
/// what the `fidelity` report measures:
///
/// * the simulated array is output-stationary regardless of the query's
///   dataflow (the dataflow input only affects the analytic backend),
/// * the schedule streams the full `K` reduction per tile (accumulators
///   live in the PEs), so there is no K-tiling and no psum spill
///   traffic,
/// * fill/drain skew is counted exactly per tile rather than
///   approximated per pass, and reuse is all-or-nothing per operand
///   rather than the analytic model's fractional tiling.
///
/// Energy prices the simulated activity with the analytic model's
/// constants: MAC and L1 energy per counted MAC, DRAM energy per
/// fetched element, and leakage over the end-to-end cycle count.
#[derive(Debug, Clone, Copy)]
pub struct SystolicBackend {
    model: CostModel,
}

impl SystolicBackend {
    /// Wraps the analytic model whose energy/area constants price the
    /// simulated activity.
    pub fn new(model: CostModel) -> Self {
        SystolicBackend { model }
    }

    /// The array shape a PE budget maps onto.
    pub fn array_for(hw: &AcceleratorConfig) -> ArrayConfig {
        ArrayConfig::squarest(hw.num_pes as usize)
    }
}

impl CostBackend for SystolicBackend {
    fn id(&self) -> BackendId {
        BackendId::Systolic
    }

    fn raw_cost(&self, input: &DseInput, hw: &AcceleratorConfig) -> RawCost {
        let (m, n, k) = (
            input.gemm.m as usize,
            input.gemm.n as usize,
            input.gemm.k as usize,
        );
        let cfg = Self::array_for(hw);
        let report = GemmSimulation::dry_run(&cfg, m, n, k);
        let p = &self.model.params;
        // DRAM traffic of the simulated loop nest (i0 outer, j0 inner)
        // with L2-gated inter-tile reuse: each operand is either resident
        // across its reuse loop or refetched every revisit
        let tiles_m = m.div_ceil(cfg.rows) as u64;
        let tiles_n = n.div_ceil(cfg.cols) as u64;
        let (m64, n64, k64) = (input.gemm.m, input.gemm.n, input.gemm.k);
        let words = (hw.l2_bytes / p.elem_bytes as u64).max(4);
        // the A row-block (tr×K) is reused by every j0 tile of its row
        let a_traffic = if cfg.rows as u64 * k64 <= words / 2 {
            m64 * k64
        } else {
            m64 * k64 * tiles_n
        };
        // the B panel (K×N) is revisited on every i0 iteration
        let b_traffic = if k64 * n64 <= words / 2 {
            k64 * n64
        } else {
            k64 * n64 * tiles_m
        };
        let dram_traffic_elems = a_traffic + b_traffic + m64 * n64;
        let dram_cycles = ((dram_traffic_elems * p.elem_bytes as u64) as f64
            / p.dram_bw_bytes_per_cycle)
            .ceil() as u64;
        let latency_cycles = report.total_cycles.max(dram_cycles);
        let l1_accesses = 3 * report.macs; // two operand reads + one psum update
        let energy_pj = report.macs as f64 * p.e_mac_pj
            + l1_accesses as f64 * p.e_l1_pj
            + dram_traffic_elems as f64 * p.e_dram_pj
            + latency_cycles as f64 * hw.num_pes as f64 * p.leak_pj_per_pe_cycle;
        (latency_cycles, energy_pj)
    }

    fn area_mm2(&self, hw: &AcceleratorConfig) -> f64 {
        self.model.area_mm2(hw)
    }
}

/// Knobs of the [`CascadeBackend`]'s escalation policy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CascadeConfig {
    /// Analytic-frontier size per objective: the top-k analytically
    /// cheapest grid points under each of latency, energy and EDP
    /// (union ≤ 3k points) are escalated to true systolic evaluation.
    pub top_k: usize,
    /// Relative disagreement threshold: a non-frontier point whose
    /// nearest-frontier calibration ratio deviates from the global
    /// (geometric-mean) ratio by more than this fraction is a
    /// candidate for escalation too — local disagreement between the
    /// calibrated predictor and the analytic score is exactly where
    /// the cheap model cannot be trusted.
    pub disagreement: f64,
    /// Hard ceiling on the fraction of grid points escalated to true
    /// systolic evaluation per input. Disagreeing points are escalated
    /// worst-deviation-first until the budget is spent; the rest stay
    /// calibrated predictions. This bounds cascade cost structurally —
    /// no workload can degenerate into a full systolic sweep.
    pub max_escalated: f64,
}

impl Default for CascadeConfig {
    fn default() -> Self {
        CascadeConfig {
            top_k: 24,
            disagreement: 0.25,
            max_escalated: 0.2,
        }
    }
}

/// One input's staged evaluation: the full grid in systolic-calibrated
/// units, with `escalated` cells carrying true systolic costs.
struct CascadeGrid {
    cells: Box<[RawCost]>,
    escalated: usize,
}

/// The multi-fidelity staged evaluator (Apollo / DiffAxE's
/// cheap-model/expensive-model loop as a [`CostBackend`]):
///
/// 1. **Analytic prefilter** — the full candidate grid is swept through
///    the inner analytic [`EvalEngine`] (memoized under the analytic
///    backend key).
/// 2. **Frontier escalation** — the top-k analytically cheapest points
///    under each objective are re-evaluated by the cycle-accurate
///    systolic engine (memoized under the systolic backend key).
/// 3. **Calibrated prediction** — every other point is predicted from
///    its nearest frontier neighbour's systolic/analytic ratio
///    (`lat ≈ analytic_lat × r_lat`, likewise energy), so the whole
///    grid answers in systolic-like units and an argmin over it lands
///    on truth-verified frontier points. Points whose local calibration
///    disagrees with the global trend beyond
///    [`CascadeConfig::disagreement`] are escalated to true systolic
///    evaluation instead of predicted — worst deviation first, bounded
///    by the [`CascadeConfig::max_escalated`] budget so no workload
///    degenerates into a full systolic sweep.
///
/// Per-input staged grids are memoized (bounded) and single-flight: one
/// thread builds an input's grid while concurrent queries for it wait.
/// The `fidelity` binary measures the policy: cascade regret vs pure
/// systolic at the fraction of the grid escalated.
///
/// Hardware outside the construction task's design space has no
/// frontier to calibrate against and falls back to the plain analytic
/// answer (documented, deterministic).
pub struct CascadeBackend {
    /// Stage-1 engine: the analytic prefilter's memo substrate.
    analytic: Arc<EvalEngine>,
    /// Stage-2 engine: the systolic escalation's memo substrate.
    systolic: Arc<EvalEngine>,
    /// Off-grid fallback (and the shared area model's constants).
    fallback: AnalyticBackend,
    model: CostModel,
    cfg: CascadeConfig,
    /// `(num_pes, l2_bytes)` → flat grid index of the construction
    /// task's space.
    by_config: HashMap<(u32, u64), usize>,
    /// One slot per input, filled once by whichever thread gets there
    /// first while the others wait on it.
    memo: RwLock<HashMap<DseInput, Arc<OnceLock<CascadeGrid>>>>,
    memo_capacity: usize,
    /// True systolic point evaluations spent across all grid builds.
    systolic_evals: AtomicU64,
    /// Staged grids built (memo hits excluded).
    grids_built: AtomicU64,
}

impl fmt::Debug for CascadeBackend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CascadeBackend")
            .field("cfg", &self.cfg)
            .field(
                "memoized",
                &self.memo.read().expect("cascade memo poisoned").len(),
            )
            .field("grids_built", &self.grids_built.load(Ordering::Relaxed))
            .field(
                "systolic_evals",
                &self.systolic_evals.load(Ordering::Relaxed),
            )
            .finish()
    }
}

impl CascadeBackend {
    /// Default number of memoized per-input staged grids (~12 KiB each).
    pub const DEFAULT_MEMO_CAPACITY: usize = 256;

    /// A cascade over `task`'s design space with private per-stage
    /// engines (fresh analytic and systolic caches).
    pub fn new(task: &DseTask, cfg: CascadeConfig) -> CascadeBackend {
        let analytic = Arc::new(EvalEngine::for_backend(task.clone(), BackendId::Analytic));
        let systolic = Arc::new(EvalEngine::for_backend(task.clone(), BackendId::Systolic));
        Self::over(analytic, systolic, cfg)
    }

    /// A cascade staged over existing per-backend engines, so sub-results
    /// land in (and reuse) those engines' own caches — the construction
    /// `BackendEngines` uses to share one analytic and one systolic cache
    /// between direct queries and cascade sub-evaluation.
    ///
    /// # Panics
    ///
    /// Panics when the engines' backends are not analytic/systolic
    /// respectively, or their spaces disagree.
    pub fn over(
        analytic: Arc<EvalEngine>,
        systolic: Arc<EvalEngine>,
        cfg: CascadeConfig,
    ) -> CascadeBackend {
        assert_eq!(
            analytic.backend_id(),
            BackendId::Analytic,
            "cascade stage 1 must be the analytic engine"
        );
        assert_eq!(
            systolic.backend_id(),
            BackendId::Systolic,
            "cascade stage 2 must be the systolic engine"
        );
        assert_eq!(
            analytic.space().num_points(),
            systolic.space().num_points(),
            "cascade stages must share one design space"
        );
        let space = analytic.space();
        let by_config = space
            .iter_points()
            .map(|p| {
                let hw = space.config(p);
                ((hw.num_pes, hw.l2_bytes), space.flat_index(p))
            })
            .collect();
        let model = analytic.task().cost_model;
        CascadeBackend {
            fallback: AnalyticBackend::new(model),
            model,
            cfg,
            by_config,
            memo: RwLock::new(HashMap::new()),
            memo_capacity: Self::DEFAULT_MEMO_CAPACITY,
            systolic_evals: AtomicU64::new(0),
            grids_built: AtomicU64::new(0),
            analytic,
            systolic,
        }
    }

    /// The escalation knobs.
    pub fn config(&self) -> CascadeConfig {
        self.cfg
    }

    /// The per-stage engines (analytic, systolic) — sub-results are
    /// memoized in their caches under their own backend keys.
    pub fn stages(&self) -> (&Arc<EvalEngine>, &Arc<EvalEngine>) {
        (&self.analytic, &self.systolic)
    }

    /// `(escalated, grid_points)` for `input`: how many of the grid's
    /// points the staged evaluation sent to true systolic evaluation —
    /// the "systolic evals per query" the fidelity report gates on.
    pub fn escalation(&self, input: &DseInput) -> (usize, usize) {
        self.grid(input, |grid| (grid.escalated, grid.cells.len()))
    }

    /// Cumulative `(systolic point evals, staged grids built)` across
    /// this backend's lifetime (memo hits excluded).
    pub fn eval_counters(&self) -> (u64, u64) {
        (
            self.systolic_evals.load(Ordering::Relaxed),
            self.grids_built.load(Ordering::Relaxed),
        )
    }

    /// Reads the memoized staged grid for `input`, building it on first
    /// sight. The slot is inserted under the lock and filled outside it,
    /// so concurrent first queries build the grid once; at capacity the
    /// grid is built uncached.
    fn grid<R>(&self, input: &DseInput, read: impl FnOnce(&CascadeGrid) -> R) -> R {
        let cached = self
            .memo
            .read()
            .expect("cascade memo poisoned")
            .get(input)
            .map(Arc::clone);
        let slot = cached.unwrap_or_else(|| {
            let mut memo = self.memo.write().expect("cascade memo poisoned");
            match memo.get(input) {
                Some(slot) => Arc::clone(slot),
                None if memo.len() >= self.memo_capacity => Arc::default(),
                None => Arc::clone(memo.entry(*input).or_default()),
            }
        });
        read(slot.get_or_init(|| self.compute_grid(input)))
    }

    /// Prefilter + escalate + calibrate + verify, in deterministic order.
    fn compute_grid(&self, input: &DseInput) -> CascadeGrid {
        let space = self.analytic.space();
        let n = space.num_points();
        let budget = ((n as f64 * self.cfg.max_escalated) as usize).max(1);
        // stage 1: analytic prefilter over the full grid, through the
        // analytic engine's caches
        let ana = self.analytic.grid(input);
        // the seed set: top-k per objective by analytic score (ties to
        // the lower flat index; a BTreeSet keeps later folds ordered)
        // plus a coarse calibration lattice. The lattice matters: the
        // two cost models genuinely disagree on *ordering* in parts of
        // the grid, so calibration anchored only at the analytic
        // frontier would extrapolate its local ratios across regimes
        // it never sampled.
        let k = self.cfg.top_k.clamp(1, n);
        let mut seeds = std::collections::BTreeSet::new();
        for o in [Objective::Latency, Objective::Energy, Objective::Edp] {
            let mut order: Vec<usize> = (0..n).collect();
            order.sort_by(|&a, &b| {
                o.score_raw(ana[a])
                    .total_cmp(&o.score_raw(ana[b]))
                    .then(a.cmp(&b))
            });
            seeds.extend(order[..k].iter().copied());
        }
        // lattice rows/columns are evenly strided but always include
        // both boundaries: the extreme rows (largest array, largest
        // buffer) are exactly the compute-bound regime where the true
        // optima tend to live, and a lattice that never samples them
        // calibrates that regime from the wrong side of the roofline
        let axis = |len: usize, steps: usize| -> Vec<usize> {
            let mut v: Vec<usize> = (0..len).step_by(len.div_ceil(steps).max(1)).collect();
            if *v.last().expect("len ≥ 1") != len - 1 {
                v.push(len - 1);
            }
            v
        };
        for &pe_idx in &axis(space.num_pe_choices(), 8) {
            for &buf_idx in &axis(space.num_buf_choices(), 4) {
                if seeds.len() >= budget {
                    break;
                }
                seeds.insert(space.flat_index(DesignPoint { pe_idx, buf_idx }));
            }
        }
        // stage 2: true systolic costs on the seeds, through the
        // systolic engine's caches (which this backend's own memo makes
        // one-shot: reused when present, never created)
        let truth = |flat: usize| {
            self.systolic
                .raw(input, space.from_flat(flat), CachePolicy::Reuse)
        };
        let mut sys: HashMap<usize, RawCost> = HashMap::with_capacity(budget);
        for &flat in &seeds {
            sys.insert(flat, truth(flat));
        }
        let ratio = |sys: &HashMap<usize, RawCost>, flat: usize| -> (f64, f64) {
            let (al, ae) = ana[flat];
            let (sl, se) = sys[&flat];
            let rl = sl.max(1) as f64 / al.max(1) as f64;
            let re = if ae > 0.0 && se > 0.0 { se / ae } else { 1.0 };
            (rl, re)
        };
        // global calibration: the geometric-mean systolic/analytic ratio
        // over the seeds (iteration over the BTreeSet is sorted, so the
        // fold is deterministic)
        let (mut ln_l, mut ln_e) = (0.0f64, 0.0f64);
        for &flat in &seeds {
            let (rl, re) = ratio(&sys, flat);
            ln_l += rl.ln();
            ln_e += re.ln();
        }
        let g_l = (ln_l / seeds.len() as f64).exp();
        let g_e = (ln_e / seeds.len() as f64).exp();
        let dev = |x: f64| if x >= 1.0 { x - 1.0 } else { 1.0 / x - 1.0 };
        let seeds_v: Vec<usize> = seeds.iter().copied().collect();
        // stage 3: calibrated predictions — each unescalated point takes
        // its nearest seed's local systolic/analytic ratio (Manhattan
        // distance, ties to the lower flat index)
        let mut cells: Vec<RawCost> = Vec::with_capacity(n);
        let mut disagreements: Vec<(f64, usize)> = Vec::new();
        for (flat, &(al, ae)) in ana.iter().enumerate().take(n) {
            if let Some(&c) = sys.get(&flat) {
                cells.push(c);
                continue;
            }
            let p = space.from_flat(flat);
            let nf = seeds_v
                .iter()
                .copied()
                .min_by_key(|&f| {
                    let q = space.from_flat(f);
                    let d = p.pe_idx.abs_diff(q.pe_idx) + p.buf_idx.abs_diff(q.buf_idx);
                    (d, f)
                })
                .expect("top_k ≥ 1 keeps the seed set non-empty");
            let (rl, re) = ratio(&sys, nf);
            let lat = ((al.max(1) as f64) * rl).round().max(1.0) as u64;
            cells.push((lat, ae * re));
            let d = dev(rl / g_l).max(dev(re / g_e));
            if d > self.cfg.disagreement {
                disagreements.push((d, flat));
            }
        }
        // stage 4: verify the winners. An argmin over a half-predicted
        // grid is only trustworthy if the winning cell is truth: per
        // objective, escalate the predicted argmin and repeat until the
        // best cell is systolic-verified (or the budget runs out). Every
        // round either confirms a winner or disproves a pretender, so
        // the final per-objective optima carry true systolic costs.
        let argmin = |cells: &[RawCost], o: Objective| -> usize {
            (0..n)
                .min_by(|&a, &b| {
                    o.score_raw(cells[a])
                        .total_cmp(&o.score_raw(cells[b]))
                        .then(a.cmp(&b))
                })
                .expect("the grid is non-empty")
        };
        for o in [Objective::Latency, Objective::Energy, Objective::Edp] {
            while sys.len() < budget {
                let best = argmin(&cells, o);
                if sys.contains_key(&best) {
                    break;
                }
                let c = truth(best);
                sys.insert(best, c);
                cells[best] = c;
            }
        }
        // stage 5: spend whatever budget remains on the worst
        // calibration disagreements — where the local ratio deviates
        // most from the global trend the cheap model cannot be trusted,
        // so those predictions are replaced with truth (worst deviation
        // first, ties to the lower flat index). The ceiling covers
        // seeds + winners + disagreements, so total systolic work per
        // input is bounded regardless of how wrong the cheap model is.
        disagreements.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
        for &(_, flat) in &disagreements {
            if sys.len() >= budget {
                break;
            }
            if sys.contains_key(&flat) {
                continue;
            }
            let c = truth(flat);
            sys.insert(flat, c);
            cells[flat] = c;
        }
        let escalated = sys.len();
        self.systolic_evals
            .fetch_add(escalated as u64, Ordering::Relaxed);
        self.grids_built.fetch_add(1, Ordering::Relaxed);
        CascadeGrid {
            cells: cells.into_boxed_slice(),
            escalated,
        }
    }
}

impl CostBackend for CascadeBackend {
    fn id(&self) -> BackendId {
        BackendId::Cascade
    }

    fn raw_cost(&self, input: &DseInput, hw: &AcceleratorConfig) -> RawCost {
        match self.by_config.get(&(hw.num_pes, hw.l2_bytes)) {
            Some(&flat) => self.grid(input, |grid| grid.cells[flat]),
            // hardware outside the construction space: no frontier to
            // calibrate against — fall back to the analytic answer
            None => self.fallback.raw_cost(input, hw),
        }
    }

    fn area_mm2(&self, hw: &AcceleratorConfig) -> f64 {
        self.model.area_mm2(hw)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::DesignPoint;
    use ai2_maestro::{Dataflow, GemmWorkload};

    fn input(m: u64, n: u64, k: u64, df: Dataflow) -> DseInput {
        DseInput {
            gemm: GemmWorkload::new(m, n, k),
            dataflow: df,
        }
    }

    #[test]
    fn backend_id_parses_and_round_trips() {
        for id in BackendId::ALL {
            assert_eq!(id.as_str().parse::<BackendId>().unwrap(), id);
        }
        assert_eq!(
            "ANALYTIC".parse::<BackendId>().unwrap(),
            BackendId::Analytic
        );
        assert_eq!("cycle".parse::<BackendId>().unwrap(), BackendId::Systolic);
        let err = "rtl".parse::<BackendId>().unwrap_err();
        assert!(err.to_string().contains("rtl"));
        assert_eq!(BackendId::default(), BackendId::Analytic);
    }

    #[test]
    fn analytic_backend_reproduces_cost_model_exactly() {
        let model = CostModel::default();
        let backend = AnalyticBackend::new(model);
        let hw = AcceleratorConfig::new(128, 64 * 1024);
        for df in Dataflow::ALL {
            let inp = input(48, 333, 210, df);
            let (lat, energy) = backend.raw_cost(&inp, &hw);
            let report = model.evaluate(&inp.gemm, df, &hw);
            assert_eq!(lat, report.latency_cycles);
            assert_eq!(energy.to_bits(), report.energy_pj.to_bits());
        }
        assert_eq!(
            backend.area_mm2(&hw).to_bits(),
            model.area_mm2(&hw).to_bits()
        );
    }

    #[test]
    fn systolic_backend_matches_stepped_simulation_latency() {
        let backend = SystolicBackend::new(CostModel::default());
        let hw = AcceleratorConfig::new(16, 4 * 1024);
        let inp = input(7, 9, 5, Dataflow::OutputStationary);
        let (lat, energy) = backend.raw_cost(&inp, &hw);
        let cfg = ArrayConfig::squarest(16);
        let a = vec![1.0f32; 7 * 5];
        let b = vec![1.0f32; 5 * 9];
        let full = GemmSimulation::run(&cfg, &a, &b, 7, 9, 5).report();
        assert_eq!(lat, full.total_cycles);
        assert!(energy.is_finite() && energy > 0.0);
    }

    #[test]
    fn systolic_backend_ignores_dataflow_but_honors_the_buffer() {
        // documented fidelity gap: the simulated schedule is OS-only, so
        // the dataflow input never changes the answer…
        let backend = SystolicBackend::new(CostModel::default());
        let hw = AcceleratorConfig::new(64, 1024);
        let ws = backend.raw_cost(&input(20, 30, 40, Dataflow::WeightStationary), &hw);
        let os = backend.raw_cost(&input(20, 30, 40, Dataflow::OutputStationary), &hw);
        let rs = backend.raw_cost(&input(20, 30, 40, Dataflow::RowStationary), &hw);
        assert_eq!(ws, os);
        assert_eq!(os, rs);
        // …but the L2 size gates inter-tile operand reuse: a starved
        // buffer refetches operands, costing DRAM energy (and latency
        // once the roofline binds)
        let big = input(256, 1500, 900, Dataflow::OutputStationary);
        let starved = backend.raw_cost(&big, &AcceleratorConfig::new(256, 1024));
        let roomy = backend.raw_cost(&big, &AcceleratorConfig::new(256, 2 * 1024 * 1024));
        assert!(
            starved.0 > roomy.0 && starved.1 > roomy.1,
            "starved {starved:?} should cost more than roomy {roomy:?}"
        );
        // area still distinguishes the buffers too
        assert!(
            backend.area_mm2(&AcceleratorConfig::new(256, 2 * 1024 * 1024))
                > backend.area_mm2(&AcceleratorConfig::new(256, 1024))
        );
    }

    #[test]
    fn backends_disagree_on_latency() {
        // the whole point of two backends: they answer differently
        let analytic = AnalyticBackend::new(CostModel::default());
        let systolic = SystolicBackend::new(CostModel::default());
        let hw = AcceleratorConfig::new(128, 64 * 1024);
        let inp = input(64, 500, 300, Dataflow::OutputStationary);
        let a = analytic.raw_cost(&inp, &hw);
        let s = systolic.raw_cost(&inp, &hw);
        assert_ne!(a.0, s.0, "backends should not agree exactly");
    }

    #[test]
    fn backend_for_builds_the_named_backend() {
        for id in BackendId::ALL {
            assert_eq!(backend_for(id, CostModel::default()).id(), id);
        }
        let task = DseTask::table_i_default();
        for id in BackendId::ALL {
            assert_eq!(backend_for_task(id, &task).id(), id);
        }
    }

    #[test]
    fn parse_error_names_every_variant() {
        // the expected-names list is generated from BackendId::ALL: a
        // stale hardcoded string would fail the moment a variant lands
        let err = "rtl".parse::<BackendId>().unwrap_err().to_string();
        for id in BackendId::ALL {
            assert!(
                err.contains(&format!("{:?}", id.as_str())),
                "parse error {err:?} does not name {}",
                id.as_str()
            );
        }
        assert!(err.contains("\"cascade\""), "{err}");
    }

    #[test]
    fn cascade_frontier_carries_true_systolic_costs() {
        // the analytically best point is in the frontier by construction,
        // so the cascade must answer it with the exact systolic cost
        let task = DseTask::table_i_default();
        let cascade = CascadeBackend::new(&task, CascadeConfig::default());
        let systolic = SystolicBackend::new(task.cost_model);
        let analytic = AnalyticBackend::new(task.cost_model);
        let inp = input(64, 500, 300, Dataflow::OutputStationary);
        let space = task.space();
        let best = space
            .iter_points()
            .min_by(|&a, &b| {
                let (la, _) = analytic.raw_cost(&inp, &space.config(a));
                let (lb, _) = analytic.raw_cost(&inp, &space.config(b));
                la.cmp(&lb)
                    .then(space.flat_index(a).cmp(&space.flat_index(b)))
            })
            .unwrap();
        let hw = space.config(best);
        let c = cascade.raw_cost(&inp, &hw);
        let s = systolic.raw_cost(&inp, &hw);
        assert_eq!(c.0, s.0);
        assert_eq!(c.1.to_bits(), s.1.to_bits());
    }

    #[test]
    fn cascade_is_deterministic_across_fresh_constructions() {
        // the simtest checker re-derives cascade answers from fresh
        // per-stage oracles; two independent cascades must agree
        // bit-for-bit on every grid point
        let task = DseTask::table_i_default();
        let a = CascadeBackend::new(&task, CascadeConfig::default());
        let b = CascadeBackend::new(&task, CascadeConfig::default());
        let inp = input(48, 333, 210, Dataflow::WeightStationary);
        for p in task.space().iter_points().step_by(13) {
            let hw = task.space().config(p);
            let (la, ea) = a.raw_cost(&inp, &hw);
            let (lb, eb) = b.raw_cost(&inp, &hw);
            assert_eq!(la, lb, "{p:?}");
            assert_eq!(ea.to_bits(), eb.to_bits(), "{p:?}");
        }
        assert_eq!(a.escalation(&inp), b.escalation(&inp));
    }

    #[test]
    fn cascade_escalates_only_a_bounded_fraction() {
        let task = DseTask::table_i_default();
        let cascade = CascadeBackend::new(&task, CascadeConfig::default());
        let n_points = task.space().num_points();
        for (m, n, k) in [(64u64, 500u64, 300u64), (8, 1024, 512), (200, 200, 200)] {
            let inp = input(m, n, k, Dataflow::OutputStationary);
            let (escalated, total) = cascade.escalation(&inp);
            assert_eq!(total, n_points);
            // the whole point of the cascade: far fewer systolic evals
            // than a pure systolic sweep (gated at ≤ 25% in fidelity)
            assert!(
                escalated * 4 <= total,
                "({m},{n},{k}): escalated {escalated}/{total}"
            );
            // …but the frontier itself is always escalated
            assert!(escalated >= cascade.config().top_k);
        }
        let (sys_evals, builds) = cascade.eval_counters();
        assert_eq!(builds, 3);
        assert!(sys_evals > 0);
    }

    #[test]
    fn cascade_memoizes_staged_grids_per_input() {
        let task = DseTask::table_i_default();
        let cascade = CascadeBackend::new(&task, CascadeConfig::default());
        let inp = input(32, 256, 128, Dataflow::OutputStationary);
        let hw = task.space().config(DesignPoint {
            pe_idx: 10,
            buf_idx: 5,
        });
        let first = cascade.raw_cost(&inp, &hw);
        let (_, builds_after_first) = cascade.eval_counters();
        let second = cascade.raw_cost(&inp, &hw);
        assert_eq!(first, second);
        assert_eq!(cascade.eval_counters().1, builds_after_first);
    }

    #[test]
    fn cascade_off_grid_hardware_falls_back_to_analytic() {
        let task = DseTask::table_i_default();
        let cascade = CascadeBackend::new(&task, CascadeConfig::default());
        let analytic = AnalyticBackend::new(task.cost_model);
        // 100 PEs is not a Table-I grid option (multiples of 8 only pair
        // with power-of-two buffers; 3000 B is no buffer option either)
        let hw = AcceleratorConfig::new(100, 3000);
        let c = cascade.raw_cost(&input(20, 30, 40, Dataflow::OutputStationary), &hw);
        let a = analytic.raw_cost(&input(20, 30, 40, Dataflow::OutputStationary), &hw);
        assert_eq!(c.0, a.0);
        assert_eq!(c.1.to_bits(), a.1.to_bits());
        assert_eq!(
            cascade.area_mm2(&hw).to_bits(),
            analytic.area_mm2(&hw).to_bits()
        );
    }

    #[test]
    fn cascade_sub_results_land_in_the_stage_engines_own_caches() {
        // "cached under their own backend keys and never mix": the
        // analytic stage sweeps, the systolic stage answers point
        // queries, and each engine's stats show exactly that
        let task = DseTask::table_i_default();
        let cascade = CascadeBackend::new(&task, CascadeConfig::default());
        let inp = input(48, 300, 200, Dataflow::OutputStationary);
        let (escalated, _) = cascade.escalation(&inp);
        let (ana, sys) = cascade.stages();
        assert_eq!(ana.backend_id(), BackendId::Analytic);
        assert_eq!(sys.backend_id(), BackendId::Systolic);
        let ana_stats = ana.stats();
        let sys_stats = sys.stats();
        // stage 1 swept the full grid analytically…
        assert_eq!(ana_stats.point_misses, 768);
        // …stage 2 only evaluated the escalation set
        assert_eq!(sys_stats.point_misses, escalated as u64);
        assert_eq!(sys_stats.oracle_misses, 0);
    }
}
