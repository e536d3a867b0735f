//! The scenario DSL: one [`Scenario`] is a named, declarative recipe —
//! service shape, client population, query mix, and a weight per event
//! kind — from which the harness expands a concrete adversarial
//! interleaving using nothing but a seed.
//!
//! Scenarios are data, not code: adding coverage for a new interleaving
//! class is one more entry in [`corpus`], not a bespoke integration
//! test. The curated corpus below is what `cargo test -p ai2-simtest`
//! and the CI `simtest` job replay on every change.

/// Relative weights of the events the driver can pick at each step.
/// A weight of 0 removes the event from the scenario entirely.
#[derive(Debug, Clone, Copy)]
pub struct Weights {
    /// Script a well-formed recommendation on a random client.
    pub submit: u32,
    /// Deliver the front line of a random client's outbox.
    pub deliver: u32,
    /// Run one micro-batch on a random shard.
    pub step: u32,
    /// Advance the virtual clock.
    pub advance: u32,
    /// Admin: swap in an alternate checkpoint (bumped) over the wire.
    pub swap: u32,
    /// Admin: freeze or unfreeze publishing over the wire.
    pub freeze: u32,
    /// Run one synchronous refresh cycle (label + fine-tune + publish).
    pub refresh: u32,
    /// Ask for a `stats` snapshot over the wire and cross-check it.
    pub stats: u32,
    /// Inject hostile input (malformed lines, unknown admin fields,
    /// zero-dimension GEMMs, unknown models/backends).
    pub garbage: u32,
    /// Disconnect a random client mid-conversation.
    pub disconnect: u32,
}

impl Weights {
    /// Sum of all weights (the driver's sampling denominator).
    pub fn total(&self) -> u32 {
        self.submit
            + self.deliver
            + self.step
            + self.advance
            + self.swap
            + self.freeze
            + self.refresh
            + self.stats
            + self.garbage
            + self.disconnect
    }
}

/// The balanced baseline mix: traffic flows, shards step, the clock
/// moves, stats get cross-checked. No admin churn, no hostile input.
const STEADY: Weights = Weights {
    submit: 30,
    deliver: 30,
    step: 25,
    advance: 6,
    swap: 0,
    freeze: 0,
    refresh: 0,
    stats: 4,
    garbage: 0,
    disconnect: 0,
};

/// One named simulation recipe. The harness expands
/// `(scenario, seed, steps)` into a deterministic event sequence; two
/// runs of the same triple produce byte-identical checker transcripts.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Corpus name (the `--scenarios` selector).
    pub name: &'static str,
    /// One-line description for `--list` and the README.
    pub about: &'static str,
    /// Worker shards.
    pub shards: usize,
    /// Micro-batch size cap.
    pub max_batch: usize,
    /// Response-cache entries (small values force eviction pressure).
    pub cache_capacity: usize,
    /// Client connections (an extra admin connection is always opened).
    pub clients: usize,
    /// Steps the corpus runs this scenario for (overridable with
    /// `--steps`).
    pub default_steps: usize,
    /// Queries are drawn from `nth_query(0..universe)`: a small
    /// universe guarantees canonical repeats (cache hits, cross-swap
    /// re-asks).
    pub universe: u64,
    /// Include whole-model zoo queries in the mix.
    pub models: bool,
    /// Randomly route queries to the systolic backend as well as the
    /// analytic one.
    pub mixed_backends: bool,
    /// Add the staged cascade backend to the mix: submissions split
    /// roughly three ways between analytic, systolic, and
    /// `"backend":"cascade"`, so the same canonical GEMM is answered
    /// through all three per-backend caches (implies the mixed routing;
    /// `mixed_backends` is ignored when set).
    pub cascade_backends: bool,
    /// Per-request deadline each query carries.
    pub deadline_ms: Option<u64>,
    /// Upper bound on injected delivery delay, milliseconds.
    pub max_delay_ms: u64,
    /// Upper bound on one clock-advance event, milliseconds.
    pub max_advance_ms: u64,
    /// Client 0 is a straggler: every line it sends is delayed by the
    /// full `max_delay_ms`.
    pub straggler: bool,
    /// Serve the **int8-quantized decoder flavor** on every shard: the
    /// service runs with all shards listed in
    /// `ServeConfig::quantized_shards`, the initial and swapped
    /// checkpoints carry stored int8 blobs, and the checker's oracle
    /// replicas quantize identically — bit-identity is checked *within*
    /// the flavor, never across flavors.
    pub quantized: bool,
    /// Register the harness's `"staged"` pipeline
    /// (predict → refine → verify) alongside the built-in `"default"`
    /// and route roughly half of all GEMM submissions through it. The
    /// checker's oracle compiles the identical [`PipelineSet`](ai2_dse::PipelineSet), so
    /// staged answers are bit-checked too, and the `pipeline_identity`
    /// invariant additionally pins default answers to the pre-pipeline
    /// one-shot kernel and staged answers to the never-worse contract.
    pub pipelines: bool,
    /// Admission control: queue depth at which the service sheds
    /// instead of queueing (`0` keeps the unbounded-queue policy). Maps
    /// to `ServeConfig::overload`.
    pub shed_high_water: usize,
    /// Event weights.
    pub weights: Weights,
}

impl Scenario {
    /// Looks a corpus scenario up by name.
    pub fn by_name(name: &str) -> Option<&'static Scenario> {
        corpus().iter().find(|s| s.name == name)
    }
}

/// The curated regression corpus, in documentation order.
pub fn corpus() -> &'static [Scenario] {
    static CORPUS: &[Scenario] = &[
        Scenario {
            name: "steady-mixed",
            about: "baseline: mixed GEMM+model traffic on both backends, no admin churn",
            shards: 2,
            max_batch: 8,
            cache_capacity: 64,
            clients: 3,
            default_steps: 260,
            universe: 10,
            models: true,
            mixed_backends: true,
            cascade_backends: false,
            deadline_ms: None,
            max_delay_ms: 0,
            max_advance_ms: 2,
            straggler: false,
            quantized: false,
            pipelines: false,
            shed_high_water: 0,
            weights: STEADY,
        },
        Scenario {
            name: "swap-under-load",
            about: "checkpoint swaps keep landing while queries are queued and in flight",
            shards: 2,
            max_batch: 4,
            cache_capacity: 64,
            clients: 3,
            default_steps: 300,
            universe: 8,
            models: false,
            mixed_backends: true,
            cascade_backends: false,
            deadline_ms: None,
            max_delay_ms: 0,
            max_advance_ms: 2,
            straggler: false,
            quantized: false,
            pipelines: false,
            shed_high_water: 0,
            weights: Weights {
                swap: 6,
                stats: 5,
                ..STEADY
            },
        },
        Scenario {
            name: "freeze-then-swap",
            about: "freeze bursts gate swaps; unfreeze lets them through again",
            shards: 2,
            max_batch: 8,
            cache_capacity: 64,
            clients: 2,
            default_steps: 260,
            universe: 8,
            models: false,
            mixed_backends: false,
            cascade_backends: false,
            deadline_ms: None,
            max_delay_ms: 0,
            max_advance_ms: 2,
            straggler: false,
            quantized: false,
            pipelines: false,
            shed_high_water: 0,
            weights: Weights {
                swap: 8,
                freeze: 8,
                stats: 4,
                ..STEADY
            },
        },
        Scenario {
            name: "deadline-storm",
            about: "backend-mixed traffic under tight deadlines and a fast-moving clock",
            shards: 2,
            max_batch: 8,
            cache_capacity: 64,
            clients: 4,
            default_steps: 280,
            universe: 12,
            models: false,
            mixed_backends: true,
            cascade_backends: false,
            deadline_ms: Some(4),
            max_delay_ms: 2,
            max_advance_ms: 6,
            straggler: false,
            quantized: false,
            pipelines: false,
            shed_high_water: 0,
            weights: Weights {
                advance: 18,
                ..STEADY
            },
        },
        Scenario {
            name: "refresh-under-load",
            about: "active-learning refresh cycles publish new versions while traffic flows",
            shards: 2,
            max_batch: 8,
            cache_capacity: 64,
            clients: 3,
            default_steps: 240,
            universe: 10,
            models: false,
            mixed_backends: false,
            cascade_backends: false,
            deadline_ms: None,
            max_delay_ms: 0,
            max_advance_ms: 2,
            straggler: false,
            quantized: false,
            pipelines: false,
            shed_high_water: 0,
            weights: Weights {
                refresh: 4,
                stats: 5,
                ..STEADY
            },
        },
        Scenario {
            name: "refresh-while-frozen",
            about: "an incident freeze must reject refresh publishes without touching serving",
            shards: 2,
            max_batch: 8,
            cache_capacity: 64,
            clients: 2,
            default_steps: 220,
            universe: 8,
            models: false,
            mixed_backends: false,
            cascade_backends: false,
            deadline_ms: None,
            max_delay_ms: 0,
            max_advance_ms: 2,
            straggler: false,
            quantized: false,
            pipelines: false,
            shed_high_water: 0,
            weights: Weights {
                refresh: 6,
                freeze: 6,
                stats: 4,
                ..STEADY
            },
        },
        Scenario {
            name: "cache-thrash",
            about: "a 4-entry response cache under a repeating universe plus swaps: eviction and flush churn",
            shards: 2,
            max_batch: 4,
            cache_capacity: 4,
            clients: 3,
            default_steps: 300,
            universe: 8,
            models: false,
            mixed_backends: true,
            cascade_backends: false,
            deadline_ms: None,
            max_delay_ms: 0,
            max_advance_ms: 2,
            straggler: false,
            quantized: false,
            pipelines: false,
            shed_high_water: 0,
            weights: Weights {
                submit: 36,
                deliver: 36,
                swap: 4,
                ..STEADY
            },
        },
        Scenario {
            name: "slow-client-straggler",
            about: "one client's lines arrive heavily delayed; disconnects mid-compute must drop nothing",
            shards: 2,
            max_batch: 8,
            cache_capacity: 64,
            clients: 3,
            default_steps: 260,
            universe: 10,
            models: false,
            mixed_backends: false,
            cascade_backends: false,
            deadline_ms: None,
            max_delay_ms: 40,
            max_advance_ms: 10,
            straggler: true,
            quantized: false,
            pipelines: false,
            shed_high_water: 0,
            weights: Weights {
                advance: 14,
                disconnect: 2,
                ..STEADY
            },
        },
        Scenario {
            name: "admin-burst",
            about: "hostile + admin storm: malformed lines, unknown admin fields, swap/freeze churn",
            shards: 2,
            max_batch: 8,
            cache_capacity: 64,
            clients: 2,
            default_steps: 240,
            universe: 8,
            models: false,
            mixed_backends: false,
            cascade_backends: false,
            deadline_ms: None,
            max_delay_ms: 0,
            max_advance_ms: 2,
            straggler: false,
            quantized: false,
            pipelines: false,
            shed_high_water: 0,
            weights: Weights {
                submit: 16,
                deliver: 16,
                swap: 10,
                freeze: 8,
                stats: 10,
                garbage: 12,
                ..STEADY
            },
        },
        Scenario {
            name: "single-shard-serial",
            about: "shards=1, max_batch=1: fully serialized compute behind every interleaving",
            shards: 1,
            max_batch: 1,
            cache_capacity: 16,
            clients: 2,
            default_steps: 240,
            universe: 8,
            models: true,
            mixed_backends: true,
            cascade_backends: false,
            deadline_ms: None,
            max_delay_ms: 0,
            max_advance_ms: 2,
            straggler: false,
            quantized: false,
            pipelines: false,
            shed_high_water: 0,
            weights: Weights {
                swap: 3,
                garbage: 4,
                ..STEADY
            },
        },
        Scenario {
            name: "quantized-swap",
            about: "all shards serve the int8 decoder flavor; flavored checkpoints swap and refresh under load",
            shards: 2,
            max_batch: 8,
            cache_capacity: 64,
            clients: 3,
            default_steps: 280,
            universe: 10,
            models: true,
            mixed_backends: true,
            cascade_backends: false,
            deadline_ms: None,
            max_delay_ms: 0,
            max_advance_ms: 2,
            straggler: false,
            quantized: true,
            pipelines: false,
            shed_high_water: 0,
            weights: Weights {
                swap: 5,
                refresh: 3,
                stats: 5,
                ..STEADY
            },
        },
        Scenario {
            name: "pipeline-mixed",
            about: "default and staged (predict→refine→verify) pipelines interleave: per-pipeline caching, one-shot identity, staged never-worse",
            shards: 2,
            max_batch: 8,
            cache_capacity: 32,
            clients: 3,
            default_steps: 220,
            universe: 8,
            models: true,
            mixed_backends: false,
            cascade_backends: false,
            deadline_ms: None,
            max_delay_ms: 0,
            max_advance_ms: 2,
            straggler: false,
            quantized: false,
            pipelines: true,
            shed_high_water: 0,
            weights: Weights {
                swap: 3,
                stats: 5,
                garbage: 3,
                ..STEADY
            },
        },
        Scenario {
            name: "cascade-mixed",
            about: "analytic, systolic, and staged-cascade queries interleave across swaps: three-way per-backend cache isolation, cascade answers bit-checked against a fresh prefilter+escalate oracle",
            shards: 2,
            max_batch: 8,
            cache_capacity: 64,
            clients: 3,
            default_steps: 240,
            universe: 8,
            models: true,
            mixed_backends: true,
            cascade_backends: true,
            deadline_ms: None,
            max_delay_ms: 0,
            max_advance_ms: 2,
            straggler: false,
            quantized: false,
            pipelines: false,
            shed_high_water: 0,
            weights: Weights {
                swap: 4,
                stats: 5,
                garbage: 3,
                ..STEADY
            },
        },
        Scenario {
            name: "connect-flood",
            about: "a burst of clients floods submissions far faster than shards drain; shed admission keeps the queue bounded",
            shards: 2,
            max_batch: 4,
            cache_capacity: 64,
            clients: 8,
            default_steps: 300,
            universe: 24,
            models: false,
            mixed_backends: false,
            cascade_backends: false,
            deadline_ms: None,
            max_delay_ms: 0,
            max_advance_ms: 2,
            straggler: false,
            quantized: false,
            pipelines: false,
            shed_high_water: 6,
            weights: Weights {
                submit: 40,
                deliver: 40,
                step: 8,
                stats: 6,
                ..STEADY
            },
        },
        Scenario {
            name: "slow-loris-straggler",
            about: "heavily delayed dribbling clients plus disconnects: partial progress must stall only the straggler, never the books",
            shards: 2,
            max_batch: 8,
            cache_capacity: 64,
            clients: 4,
            default_steps: 280,
            universe: 10,
            models: false,
            mixed_backends: false,
            cascade_backends: false,
            deadline_ms: None,
            max_delay_ms: 80,
            max_advance_ms: 12,
            straggler: true,
            quantized: false,
            pipelines: false,
            shed_high_water: 8,
            weights: Weights {
                advance: 16,
                disconnect: 3,
                garbage: 4,
                stats: 5,
                ..STEADY
            },
        },
        Scenario {
            name: "shed-under-saturation",
            about: "a tiny high-water mark under saturating load: sheds must be deterministic, answered inline, and reconcile in stats",
            shards: 1,
            max_batch: 2,
            cache_capacity: 16,
            clients: 3,
            default_steps: 280,
            universe: 16,
            models: false,
            mixed_backends: false,
            cascade_backends: false,
            deadline_ms: None,
            max_delay_ms: 0,
            max_advance_ms: 2,
            straggler: false,
            quantized: false,
            pipelines: false,
            shed_high_water: 3,
            weights: Weights {
                submit: 42,
                deliver: 42,
                step: 6,
                stats: 8,
                ..STEADY
            },
        },
    ];
    CORPUS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_names_are_unique_and_resolvable() {
        let corpus = corpus();
        assert!(corpus.len() >= 10, "the corpus promises ~10 scenarios");
        for (i, s) in corpus.iter().enumerate() {
            assert!(
                Scenario::by_name(s.name).is_some(),
                "{} unresolvable",
                s.name
            );
            assert!(
                corpus[..i].iter().all(|t| t.name != s.name),
                "duplicate scenario name {}",
                s.name
            );
            assert!(s.weights.total() > 0);
            assert!(s.clients >= 1 && s.shards >= 1 && s.universe >= 1);
            assert!(s.default_steps >= 50);
        }
        assert!(Scenario::by_name("no-such-scenario").is_none());
    }
}
