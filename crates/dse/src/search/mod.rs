//! Search-based DSE baselines.
//!
//! These are the iterative techniques of the paper's Fig. 1 ("search-based
//! DSE methods") and §V, reproduced so that the one-shot learned methods
//! can be compared against them for both quality and query cost:
//!
//! * [`RandomSearcher`] — uniform sampling, the canonical lower bound.
//! * [`AnnealingSearcher`] — simulated annealing over the grid.
//! * [`GammaSearcher`] — a GAMMA-style genetic algorithm \[13\].
//! * [`ConfuciuxSearcher`] — REINFORCE for coarse-grained search followed
//!   by GA fine-tuning, after ConfuciuX \[12\].
//! * [`bo`] — Bayesian optimization with a Gaussian-process surrogate and
//!   expected improvement, usable over the hardware grid or any
//!   continuous latent space (the paper's Fig. 8a and VAESA \[11\]).
//!
//! All searchers operate through [`SearchContext`], which counts oracle
//! queries and records the best-so-far trace used by the convergence
//! figures. Every cost query flows through the shared
//! [`EvalEngine`](crate::engine::EvalEngine), so identical
//! `(input, point)` pairs — which population methods revisit constantly —
//! are scored once and answered from cache thereafter.

mod annealing;
pub mod bo;
mod confuciux;
mod gamma;
mod random;

pub use annealing::AnnealingSearcher;
pub use confuciux::ConfuciuxSearcher;
pub use gamma::GammaSearcher;
pub use random::RandomSearcher;

use ai2_workloads::generator::DseInput;

use crate::engine::{EvalEngine, Scoring};
use crate::space::DesignPoint;

/// Evaluation bookkeeping shared by every searcher: scores design points
/// through the shared engine, counts queries, tracks the best-so-far
/// trajectory.
#[derive(Debug)]
pub struct SearchContext<'e> {
    engine: &'e EvalEngine,
    input: DseInput,
    /// What every evaluation is scored under: the engine task's own goal
    /// ([`EvalEngine::scoring`]) or a serving query's.
    scoring: Scoring,
    evals: usize,
    best: Option<(f64, DesignPoint)>,
    trace: Vec<f64>,
}

impl<'e> SearchContext<'e> {
    /// Starts a fresh context for one workload.
    pub fn new(engine: &'e EvalEngine, input: DseInput) -> Self {
        SearchContext {
            engine,
            input,
            scoring: engine.scoring(),
            evals: 0,
            best: None,
            trace: Vec::new(),
        }
    }

    /// A context scoring under `scoring` instead of the engine task's
    /// own goal — the pipeline refinement path, where a per-request goal
    /// searches through an engine whose task may want something else
    /// (under [`Scoring::reuse`], so one-shot serving queries never pin
    /// grid-cache capacity).
    pub fn with_goal(engine: &'e EvalEngine, input: DseInput, scoring: Scoring) -> Self {
        SearchContext {
            scoring,
            ..SearchContext::new(engine, input)
        }
    }

    /// The evaluation substrate under search (borrowing the engine, not
    /// the context, so searchers can hold it across `evaluate` calls).
    pub fn engine(&self) -> &'e EvalEngine {
        self.engine
    }

    /// The workload under search.
    pub fn input(&self) -> DseInput {
        self.input
    }

    /// Scores a point (infeasible points get the engine's
    /// [`EvalEngine::penalized`] soft penalty, which keeps population
    /// methods moving instead of stalling on the feasibility boundary),
    /// updating the query count and the best-so-far trace.
    pub fn evaluate(&mut self, p: DesignPoint) -> f64 {
        self.evals += 1;
        let score = self.engine.penalized(&self.input, p, &self.scoring);
        let feasible = self.engine.is_feasible_under(p, self.scoring.budget);
        if feasible {
            match self.best {
                Some((b, _)) if b <= score => {}
                _ => self.best = Some((score, p)),
            }
        }
        self.trace.push(self.best.map_or(f64::INFINITY, |(b, _)| b));
        score
    }

    /// Number of oracle queries so far.
    pub fn num_evals(&self) -> usize {
        self.evals
    }

    /// Best feasible `(score, point)` found, if any.
    pub fn best(&self) -> Option<(f64, DesignPoint)> {
        self.best
    }

    /// Best-so-far score after each query (∞ before the first feasible
    /// hit) — the convergence curves of Fig. 8a.
    pub fn trace(&self) -> &[f64] {
        &self.trace
    }
}

/// Outcome of a search run.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchResult {
    /// Best feasible point found (the task guarantees one exists; a
    /// searcher that never sampled a feasible point returns the smallest
    /// configuration).
    pub best_point: DesignPoint,
    /// Score of `best_point`.
    pub best_score: f64,
    /// Oracle queries consumed.
    pub num_evals: usize,
    /// Best-so-far score after each query.
    pub trace: Vec<f64>,
}

impl SearchResult {
    fn from_context(ctx: SearchContext<'_>) -> SearchResult {
        let (best_score, best_point) = ctx.best.unwrap_or_else(|| {
            // pathological budget: fall back to the smallest config,
            // which DseTask guarantees feasible
            let p = DesignPoint {
                pe_idx: 0,
                buf_idx: 0,
            };
            let score = ctx.engine.score(&ctx.input, p, &ctx.scoring);
            (score.unwrap_or(f64::INFINITY), p)
        });
        SearchResult {
            best_point,
            best_score,
            num_evals: ctx.evals,
            trace: ctx.trace,
        }
    }
}

/// A search-based DSE method: spends up to `budget_evals` cost-model
/// queries to find a good design point for one workload. All queries go
/// through the shared [`EvalEngine`].
pub trait Searcher {
    /// Runs the search.
    fn search(&mut self, engine: &EvalEngine, input: DseInput, budget_evals: usize)
        -> SearchResult;

    /// Short name for tables and logs.
    fn name(&self) -> &'static str;
}

#[cfg(test)]
mod tests {
    use super::*;
    use ai2_maestro::{Dataflow, GemmWorkload};

    pub(crate) fn test_input() -> DseInput {
        DseInput {
            gemm: GemmWorkload::new(48, 400, 300),
            dataflow: Dataflow::OutputStationary,
        }
    }

    #[test]
    fn context_counts_and_traces() {
        let engine = EvalEngine::table_i_default();
        let mut ctx = SearchContext::new(&engine, test_input());
        let p1 = DesignPoint {
            pe_idx: 3,
            buf_idx: 3,
        };
        let p2 = DesignPoint {
            pe_idx: 10,
            buf_idx: 5,
        };
        ctx.evaluate(p1);
        ctx.evaluate(p2);
        assert_eq!(ctx.num_evals(), 2);
        assert_eq!(ctx.trace().len(), 2);
        assert!(ctx.trace()[1] <= ctx.trace()[0]);
        assert!(ctx.best().is_some());
    }

    #[test]
    fn infeasible_points_get_penalized_not_best() {
        let engine = EvalEngine::table_i_default();
        let mut ctx = SearchContext::new(&engine, test_input());
        let infeasible = DesignPoint {
            pe_idx: 63,
            buf_idx: 11,
        };
        assert!(!engine.is_feasible(infeasible));
        ctx.evaluate(infeasible);
        assert!(
            ctx.best().is_none(),
            "infeasible point must not become best"
        );
    }

    #[test]
    fn repeated_evaluations_are_answered_from_cache() {
        let engine = EvalEngine::table_i_default();
        let mut ctx = SearchContext::new(&engine, test_input());
        let p = DesignPoint {
            pe_idx: 9,
            buf_idx: 4,
        };
        let a = ctx.evaluate(p);
        let misses = engine.stats().point_misses;
        let b = ctx.evaluate(p);
        assert_eq!(a.to_bits(), b.to_bits());
        assert_eq!(
            engine.stats().point_misses,
            misses,
            "second eval re-ran the cost model"
        );
        assert_eq!(ctx.num_evals(), 2, "query accounting still counts both");
    }

    /// Shared harness: every searcher must beat random-ish baselines of
    /// the oracle gap within its budget.
    pub(crate) fn assert_searcher_close_to_oracle(s: &mut dyn Searcher, budget: usize, slack: f64) {
        let engine = EvalEngine::table_i_default();
        let input = test_input();
        let oracle = engine.oracle(&input);
        let res = s.search(&engine, input, budget);
        assert!(
            res.num_evals <= budget + 8,
            "{} overspent: {}",
            s.name(),
            res.num_evals
        );
        assert!(
            res.best_score <= oracle.best_score * slack,
            "{}: {} vs oracle {} (slack {slack})",
            s.name(),
            res.best_score,
            oracle.best_score
        );
        assert!(engine.is_feasible(res.best_point));
    }
}
