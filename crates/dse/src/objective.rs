//! DSE objectives, budgets and the exhaustive oracle.

use ai2_maestro::{CostModel, CostReport};
use ai2_workloads::generator::DseInput;
use serde::{Deserialize, Serialize};

use crate::space::{DesignPoint, DesignSpace};

/// The optimization metric of the DSE task. The paper's experiments use
/// latency ("the optimization metric (i.e. reward) set as latency"); the
/// other ConfuciuX objectives are provided for the extension benches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum Objective {
    /// Minimise latency (cycles).
    #[default]
    Latency,
    /// Minimise energy (pJ).
    Energy,
    /// Minimise energy-delay product.
    Edp,
}

impl Objective {
    /// Extracts the scalar score (lower is better) from a cost report.
    pub fn score(self, report: &CostReport) -> f64 {
        match self {
            Objective::Latency => report.latency_cycles as f64,
            Objective::Energy => report.energy_pj,
            Objective::Edp => report.edp(),
        }
    }

    /// Scores a raw `(latency_cycles, energy_pj)` cost bit-identically to
    /// [`Objective::score`] on the matching report — the arithmetic every
    /// cached cost query uses.
    pub fn score_raw(self, (lat, energy): (u64, f64)) -> f64 {
        match self {
            Objective::Latency => lat as f64,
            Objective::Energy => energy,
            // CostReport::edp() is energy_pj * latency_cycles as f64;
            // keep the operand order so the f64 result is bit-identical.
            Objective::Edp => energy * lat as f64,
        }
    }
}

/// Platform area budget, mirroring ConfuciuX's edge/cloud settings.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub enum Budget {
    /// Tight mobile/edge budget (0.25 mm² under the default area model —
    /// roughly a quarter of the maximal Table I configuration).
    #[default]
    Edge,
    /// Generous cloud budget (0.55 mm²).
    Cloud,
    /// No budget: every grid point is feasible.
    Unbounded,
    /// Custom limit in mm².
    Custom(f64),
}

impl Budget {
    /// The area limit in mm², if any.
    pub fn limit_mm2(self) -> Option<f64> {
        match self {
            Budget::Edge => Some(0.25),
            Budget::Cloud => Some(0.55),
            Budget::Unbounded => None,
            Budget::Custom(v) => Some(v),
        }
    }
}

/// Result of labeling one DSE input with the exhaustive oracle.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OracleResult {
    /// The optimal design point.
    pub best_point: DesignPoint,
    /// Its objective score (e.g. latency in cycles).
    pub best_score: f64,
    /// Number of feasible grid points.
    pub feasible_points: usize,
}

/// A fully specified DSE problem: space × objective × budget × cost
/// model. This is the `O(10⁹)`-input task of the paper's §III-A.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DseTask {
    space: DesignSpace,
    /// Optimization metric.
    pub objective: Objective,
    /// Area budget preset.
    pub budget: Budget,
    /// The MAESTRO-style cost model.
    pub cost_model: CostModel,
}

impl DseTask {
    /// The default experimental setup: Table I space, latency objective,
    /// edge budget, default cost model.
    pub fn table_i_default() -> Self {
        DseTask {
            space: DesignSpace::table_i(),
            objective: Objective::Latency,
            budget: Budget::Edge,
            cost_model: CostModel::default(),
        }
    }

    /// A task with explicit components.
    ///
    /// # Panics
    ///
    /// Panics if no grid point fits the budget — every task must have at
    /// least one feasible configuration.
    pub fn new(
        space: DesignSpace,
        objective: Objective,
        budget: Budget,
        cost_model: CostModel,
    ) -> Self {
        let task = DseTask {
            space,
            objective,
            budget,
            cost_model,
        };
        assert!(
            task.space.iter_points().any(|p| task.is_feasible(p)),
            "DseTask: budget {budget:?} admits no design point"
        );
        task
    }

    /// The output design space.
    pub fn space(&self) -> &DesignSpace {
        &self.space
    }

    /// Whether a design point fits the area budget.
    pub fn is_feasible(&self, p: DesignPoint) -> bool {
        match self.budget.limit_mm2() {
            None => true,
            Some(limit) => self.cost_model.area_mm2(&self.space.config(p)) <= limit,
        }
    }

    /// Evaluates one design point; `None` if it violates the budget.
    pub fn score(&self, input: &DseInput, p: DesignPoint) -> Option<f64> {
        if !self.is_feasible(p) {
            return None;
        }
        let report = self
            .cost_model
            .evaluate(&input.gemm, input.dataflow, &self.space.config(p));
        Some(self.objective.score(&report))
    }

    /// Evaluates one design point ignoring the budget (used by searchers
    /// that handle infeasibility via penalties).
    pub fn score_unchecked(&self, input: &DseInput, p: DesignPoint) -> f64 {
        let report = self
            .cost_model
            .evaluate(&input.gemm, input.dataflow, &self.space.config(p));
        self.objective.score(&report)
    }

    /// Exhaustively evaluates the grid and returns the exact optimum.
    ///
    /// Ties are broken toward smaller area, then smaller flat index, so
    /// the label is deterministic and the "cheapest of the equally fast"
    /// configurations — which is what makes small layers prefer small
    /// configurations (the paper's Fig. 3b long tail).
    pub fn oracle(&self, input: &DseInput) -> OracleResult {
        let mut best: Option<(f64, f64, DesignPoint)> = None;
        let mut feasible = 0usize;
        for p in self.space.iter_points() {
            let Some(score) = self.score(input, p) else {
                continue;
            };
            feasible += 1;
            let area = self.cost_model.area_mm2(&self.space.config(p));
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
        OracleResult {
            best_point,
            best_score,
            feasible_points: feasible,
        }
    }

    /// Scores every grid point (NaN for infeasible), flat-indexed — used
    /// by the landscape figures.
    pub fn score_grid(&self, input: &DseInput) -> Vec<f64> {
        self.space
            .iter_points()
            .map(|p| self.score(input, p).unwrap_or(f64::NAN))
            .collect()
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

    #[test]
    fn oracle_beats_or_matches_every_feasible_point() {
        let task = DseTask::table_i_default();
        let inp = input(64, 300, 200, Dataflow::OutputStationary);
        let res = task.oracle(&inp);
        for p in task.space().iter_points() {
            if let Some(s) = task.score(&inp, p) {
                assert!(res.best_score <= s, "oracle not optimal at {p:?}");
            }
        }
    }

    #[test]
    fn edge_budget_excludes_large_configs() {
        let task = DseTask::table_i_default();
        let huge = DesignPoint {
            pe_idx: 63,
            buf_idx: 11,
        };
        assert!(!task.is_feasible(huge));
        let tiny = DesignPoint {
            pe_idx: 0,
            buf_idx: 0,
        };
        assert!(task.is_feasible(tiny));
        let inp = input(16, 64, 32, Dataflow::WeightStationary);
        assert!(task.score(&inp, huge).is_none());
        assert!(task.score(&inp, tiny).is_some());
    }

    #[test]
    fn unbounded_budget_admits_everything() {
        let mut task = DseTask::table_i_default();
        task.budget = Budget::Unbounded;
        let inp = input(16, 64, 32, Dataflow::WeightStationary);
        assert_eq!(task.oracle(&inp).feasible_points, 768);
    }

    #[test]
    fn oracle_is_deterministic() {
        let task = DseTask::table_i_default();
        let inp = input(100, 700, 450, Dataflow::RowStationary);
        assert_eq!(task.oracle(&inp), task.oracle(&inp));
    }

    #[test]
    fn optimum_depends_on_workload() {
        // different layer shapes must prefer different configurations —
        // otherwise the DSE task would be trivial
        let task = DseTask::table_i_default();
        let small = task.oracle(&input(2, 16, 8, Dataflow::OutputStationary));
        let large = task.oracle(&input(256, 1600, 1100, Dataflow::OutputStationary));
        assert_ne!(
            small.best_point, large.best_point,
            "small and large layers should want different hardware"
        );
    }

    #[test]
    fn optimum_depends_on_dataflow() {
        let task = DseTask::table_i_default();
        let base = input(16, 1600, 900, Dataflow::WeightStationary);
        let mut alt = base;
        alt.dataflow = Dataflow::RowStationary;
        let a = task.oracle(&base);
        let b = task.oracle(&alt);
        // at least the scores must differ; usually the points do too
        assert!(
            a.best_point != b.best_point || (a.best_score - b.best_score).abs() > 0.0,
            "dataflow had no effect at all"
        );
    }

    #[test]
    fn score_grid_has_nan_for_infeasible() {
        let task = DseTask::table_i_default();
        let inp = input(32, 128, 64, Dataflow::WeightStationary);
        let grid = task.score_grid(&inp);
        assert_eq!(grid.len(), 768);
        assert!(
            grid.iter().any(|s| s.is_nan()),
            "edge budget should exclude some"
        );
        assert!(grid.iter().any(|s| !s.is_nan()));
    }

    #[test]
    fn objectives_extract_different_scores() {
        let r = CostModel::default().evaluate(
            &GemmWorkload::new(64, 64, 64),
            Dataflow::WeightStationary,
            &ai2_maestro::AcceleratorConfig::new(64, 64 * 1024),
        );
        let lat = Objective::Latency.score(&r);
        let en = Objective::Energy.score(&r);
        let edp = Objective::Edp.score(&r);
        assert!((edp - lat * en).abs() / edp < 1e-9);
    }

    #[test]
    #[should_panic(expected = "admits no design point")]
    fn impossible_budget_rejected() {
        DseTask::new(
            DesignSpace::table_i(),
            Objective::Latency,
            Budget::Custom(1e-9),
            CostModel::default(),
        );
    }
}
