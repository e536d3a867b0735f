//! Model-level deployment: turning per-layer recommendations into one
//! hardware configuration for a whole network (paper §III-E).
//!
//! All cost queries flow through the shared
//! [`EvalEngine`], and candidate evaluation fans out over the engine's
//! worker pool.

use std::collections::HashSet;

use ai2_dse::{DesignPoint, EvalEngine};
use ai2_maestro::Dataflow;
use ai2_workloads::generator::DseInput;
use ai2_workloads::Layer;

/// Model-level latency of running every layer (tiled, with repetition
/// counts) on hardware `point`, letting each layer use its best dataflow
/// — the "estimate the model-wise latency across all layers" step of
/// Method 1, computed with the MAESTRO-style cost model through the
/// shared engine.
pub fn model_latency(engine: &EvalEngine, layers: &[Layer], point: DesignPoint) -> f64 {
    engine.model_cost(layers, point, engine.task().objective)
}

/// Per-layer recommendations from any one-shot or search method.
pub trait LayerRecommender {
    /// Recommends a design point for one layer-level DSE input.
    fn recommend(&self, input: &DseInput) -> DesignPoint;
}

impl<F: Fn(&DseInput) -> DesignPoint> LayerRecommender for F {
    fn recommend(&self, input: &DseInput) -> DesignPoint {
        self(input)
    }
}

/// Outcome of a model-level deployment selection.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Deployment {
    /// The chosen hardware configuration.
    pub point: DesignPoint,
    /// Model-level latency (cycles) on that configuration.
    pub latency: f64,
}

fn candidate_points(
    engine: &EvalEngine,
    layers: &[Layer],
    rec: &dyn LayerRecommender,
) -> Vec<(usize, DesignPoint)> {
    // one recommendation per (layer, dataflow) input, deduplicated in
    // O(1) per candidate while preserving first-seen order (and which
    // layer produced each candidate)
    let mut seen: HashSet<DesignPoint> = HashSet::new();
    let mut cands: Vec<(usize, DesignPoint)> = Vec::new();
    for (li, layer) in layers.iter().enumerate() {
        for df in Dataflow::ALL {
            let p = rec.recommend(&DseInput {
                gemm: layer.gemm,
                dataflow: df,
            });
            if engine.is_feasible(p) && seen.insert(p) {
                cands.push((li, p));
            }
        }
    }
    if cands.is_empty() {
        // every recommendation violated the budget: fall back to the
        // smallest configuration, which the task guarantees feasible
        cands.push((
            0,
            DesignPoint {
                pe_idx: 0,
                buf_idx: 0,
            },
        ));
    }
    cands
}

/// **Method 1**: evaluate each per-layer recommendation model-wide and
/// pick the one minimising total latency. Candidate evaluations fan out
/// over the engine's worker pool.
///
/// # Panics
///
/// Panics if `layers` is empty.
pub fn method1(engine: &EvalEngine, layers: &[Layer], rec: &dyn LayerRecommender) -> Deployment {
    assert!(!layers.is_empty(), "method1: no layers");
    let cands = candidate_points(engine, layers, rec);
    let points: Vec<DesignPoint> = cands.iter().map(|&(_, p)| p).collect();
    let latencies = engine
        .pool()
        .map(points.len(), |i| model_latency(engine, layers, points[i]));
    let mut best: Option<Deployment> = None;
    for (&point, &latency) in points.iter().zip(&latencies) {
        if best.is_none_or(|b| latency < b.latency) {
            best = Some(Deployment { point, latency });
        }
    }
    best.expect("at least one candidate")
}

/// **Method 2**: find the bottleneck layer (largest latency on its own
/// recommended hardware) and adopt its recommendation model-wide.
///
/// # Panics
///
/// Panics if `layers` is empty.
pub fn method2(engine: &EvalEngine, layers: &[Layer], rec: &dyn LayerRecommender) -> Deployment {
    assert!(!layers.is_empty(), "method2: no layers");
    let mut bottleneck: Option<(f64, DesignPoint)> = None;
    for layer in layers {
        // recommended point for this layer (best dataflow by its own score)
        let mut layer_best: Option<(f64, DesignPoint)> = None;
        for df in Dataflow::ALL {
            let input = DseInput {
                gemm: layer.gemm,
                dataflow: df,
            };
            let p = rec.recommend(&input);
            if !engine.is_feasible(p) {
                continue;
            }
            let s = engine.cost(&input, p, &engine.scoring());
            if layer_best.is_none_or(|(b, _)| s < b) {
                layer_best = Some((s, p));
            }
        }
        let Some((score, p)) = layer_best else {
            continue;
        };
        let weighted = score * layer.count as f64;
        if bottleneck.is_none_or(|(b, _)| weighted > b) {
            bottleneck = Some((weighted, p));
        }
    }
    let (_, point) = bottleneck.unwrap_or((
        0.0,
        DesignPoint {
            pe_idx: 0,
            buf_idx: 0,
        },
    ));
    Deployment {
        point,
        latency: model_latency(engine, layers, point),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ai2_maestro::GemmWorkload;
    use ai2_workloads::zoo;

    fn layers() -> Vec<Layer> {
        zoo::resnet18().to_dse_layers()
    }

    fn oracle_rec(engine: &EvalEngine) -> impl LayerRecommender + '_ {
        move |input: &DseInput| engine.oracle(input).best_point
    }

    #[test]
    fn method1_latency_is_min_over_candidates() {
        let engine = EvalEngine::table_i_default();
        let ls = layers();
        let rec = oracle_rec(&engine);
        let d = method1(&engine, &ls, &rec);
        assert!(d.latency > 0.0);
        assert!(engine.is_feasible(d.point));
        // any single-layer recommendation cannot beat the Method-1 choice
        let alt = engine.oracle(&DseInput {
            gemm: ls[0].gemm,
            dataflow: Dataflow::WeightStationary,
        });
        let alt_lat = model_latency(&engine, &ls, alt.best_point);
        assert!(d.latency <= alt_lat + 1e-6);
    }

    #[test]
    fn method2_picks_feasible_bottleneck_config() {
        let engine = EvalEngine::table_i_default();
        let ls = layers();
        let rec = oracle_rec(&engine);
        let d = method2(&engine, &ls, &rec);
        assert!(engine.is_feasible(d.point));
        assert!(d.latency > 0.0);
    }

    #[test]
    fn method1_never_worse_than_method2_with_same_recommender() {
        // Method 1 evaluates a superset of deployment candidates, so with
        // the same recommender it is at least as good.
        let engine = EvalEngine::table_i_default();
        let ls = layers();
        let rec = oracle_rec(&engine);
        let d1 = method1(&engine, &ls, &rec);
        let d2 = method2(&engine, &ls, &rec);
        assert!(d1.latency <= d2.latency + 1e-6);
    }

    #[test]
    fn bad_recommender_yields_worse_deployment() {
        let engine = EvalEngine::table_i_default();
        let ls = layers();
        let good = method1(&engine, &ls, &oracle_rec(&engine));
        let bad_rec = |_: &DseInput| DesignPoint {
            pe_idx: 0,
            buf_idx: 0,
        };
        let bad = method1(&engine, &ls, &bad_rec);
        assert!(
            bad.latency >= good.latency,
            "tiny config should not beat oracle deployment"
        );
    }

    #[test]
    fn model_latency_scales_with_counts() {
        let engine = EvalEngine::table_i_default();
        let one = vec![Layer::new("l", GemmWorkload::new(64, 128, 64))];
        let two = vec![Layer::repeated("l", GemmWorkload::new(64, 128, 64), 2)];
        let p = DesignPoint {
            pe_idx: 8,
            buf_idx: 5,
        };
        let l1 = model_latency(&engine, &one, p);
        let l2 = model_latency(&engine, &two, p);
        assert!((l2 - 2.0 * l1).abs() < 1e-6);
    }

    #[test]
    fn duplicate_recommendations_are_deduplicated_in_order() {
        let engine = EvalEngine::table_i_default();
        let ls = layers();
        // constant recommender: every (layer, dataflow) points at the
        // same config → exactly one candidate survives
        let p0 = DesignPoint {
            pe_idx: 3,
            buf_idx: 2,
        };
        let const_rec = move |_: &DseInput| p0;
        let cands = candidate_points(&engine, &ls, &const_rec);
        assert_eq!(cands.len(), 1);
        assert_eq!(cands[0], (0, p0));
    }
}
