//! The DSE problem definition, search-based baselines and dataset
//! generation for the AIrchitect v2 reproduction.
//!
//! * [`DesignSpace`] — the Table I output grid: 64 PE counts × 12 L2
//!   buffer sizes (768 hardware configurations).
//! * [`DseTask`] — objective (latency / energy / EDP), area budget, and
//!   the exhaustive [`DseTask::oracle`] that labels the dataset with the
//!   exact per-layer optimum (the quantity ConfuciuX approximates in the
//!   paper's pipeline).
//! * [`engine`] — the unified [`EvalEngine`]: every cost query of every
//!   subsystem (oracle labeling, searchers, deployment, metrics) flows
//!   through one concurrency-safe, memoizing, parallel substrate.
//! * [`backend`] — pluggable [`CostBackend`]s behind the engine: the
//!   analytic MAESTRO-style model (default, bit-identical to
//!   [`DseTask`]) and the cycle-accurate systolic-schedule backend.
//! * [`search`] — the iterative searchers of the paper's Fig. 1 and §V:
//!   random search, simulated annealing, a GAMMA-style genetic algorithm,
//!   a ConfuciuX-style REINFORCE + GA fine-tune, and Bayesian
//!   optimization over a Gaussian-process surrogate (also reused for the
//!   latent-space search of Fig. 8a).
//! * [`dataset`] — parallel generation of `(DSE input, optimal design)`
//!   samples, the 80/20 split, and JSON persistence.
//! * [`stats`] — the long-tail label statistics of the paper's Fig. 3b.
//!
//! # Example: label one workload
//!
//! ```
//! use ai2_dse::{DesignSpace, DseTask};
//! use ai2_workloads::generator::DseInput;
//! use ai2_maestro::{Dataflow, GemmWorkload};
//!
//! let task = DseTask::table_i_default();
//! let input = DseInput {
//!     gemm: GemmWorkload::new(64, 512, 256),
//!     dataflow: Dataflow::WeightStationary,
//! };
//! let label = task.oracle(&input);
//! let hw = task.space().config(label.best_point);
//! assert!(hw.num_pes >= 8);
//! ```

mod dataset;
mod objective;
mod space;

pub mod backend;
pub mod engine;
pub mod pipeline;
pub mod pool;
pub mod search;
pub mod stats;

pub use backend::{
    AnalyticBackend, BackendId, CascadeBackend, CascadeConfig, CostBackend, ParseBackendError,
    SystolicBackend,
};
pub use dataset::{DatasetError, DseDataset, DseSample, GenerateConfig};
pub use engine::{EngineStats, EvalEngine, Scoring};
pub use objective::{Budget, DseTask, Objective, OracleResult};
pub use pipeline::{
    BackendEngines, Candidate, Pipeline, PipelineAnswer, PipelineCfg, PipelineError, PipelineQuery,
    PipelineSet, PipelinesFile, Stage, StageCfg,
};
pub use pool::WorkPool;
pub use space::{DesignPoint, DesignSpace};
