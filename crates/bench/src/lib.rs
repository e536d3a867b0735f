//! Shared harness for the experiment binaries that regenerate every table
//! and figure of the AIrchitect v2 paper.
//!
//! Each binary (`table2`, `table3`, `fig3` … `fig9`) prints the same rows
//! or series the paper reports and writes CSV files under `results/`.
//! All binaries accept:
//!
//! * `--samples N` — dataset size (default 6000; the paper used 100 K),
//! * `--full` — the paper's full schedule (100 K samples, 500 + 100
//!   epochs); hours of CPU time,
//! * `--quick` — smoke-test sizes for CI,
//! * `--out DIR` — output directory (default `results/`).
//!
//! Datasets are cached as JSON per (size, seed) so consecutive binaries
//! reuse the same corpus.

pub mod plot;
pub mod queries;

use serde::{Deserialize, Serialize};

use std::fmt::Write as _;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use ai2_baselines::{AirchitectV1, Gandse, GandseConfig, V1Config, Vaesa, VaesaConfig};
use ai2_dse::{DseDataset, DseTask, EvalEngine, GenerateConfig};
use airchitect::train::TrainConfig;
use airchitect::{Airchitect2, ModelConfig};

/// The machine-readable result record the `loadgen` binary writes with
/// `--json` and the `bench_gate` binary reads back — the CI perf
/// trajectory artifact.
///
/// Besides the latency numbers, the record carries the **configuration
/// the numbers were measured under** (backend, shard count, kernel,
/// model version): a regression gate that compares a 4-shard systolic
/// run against a 1-shard analytic baseline — or an AVX2 run against a
/// scalar baseline — would report noise, not regressions, so the
/// `bench_gate` binary refuses mismatched configurations instead of
/// comparing their numbers.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LoadgenResult {
    /// Successfully answered requests.
    pub requests: u64,
    /// Requests that expired client-side (only with `--deadline-ms`).
    pub deadline_expired: u64,
    /// Wall-clock of the whole run, seconds.
    pub elapsed_s: f64,
    /// Client-observed requests per second.
    pub client_rps: f64,
    /// Client-observed median latency, microseconds.
    pub p50_us: f64,
    /// Client-observed 95th-percentile latency, microseconds.
    pub p95_us: f64,
    /// Client-observed 99th-percentile latency, microseconds.
    pub p99_us: f64,
    /// The server's own served counter after the run.
    pub server_served: u64,
    /// The server's response-cache hits after the run.
    pub server_cache_hits: u64,
    /// Cost backend every query requested (`"analytic"` when none was
    /// passed — the server default).
    pub backend: String,
    /// Recommendation pipeline every GEMM query selected (`--pipeline`).
    /// `None` — including on records written before pipelines existed —
    /// means the server's built-in `"default"` and is matched as such.
    /// Part of the configuration identity `bench_gate` refuses to mix:
    /// a staged predict → refine → verify run does strictly more work
    /// per query than a one-shot run, so comparing across pipelines
    /// reports workload differences, not regressions.
    pub pipeline: Option<String>,
    /// Worker shards the server ran.
    pub shards: usize,
    /// Inference kernel the numbers were measured under: the server's
    /// active SIMD level (`"scalar"` / `"sse2"` / `"avx2"`), or
    /// `"quantized"` when any shard served the int8 decoder flavor.
    /// Baselines written before kernel dispatch existed need
    /// regenerating — their numbers were all-scalar and are not
    /// comparable to a dispatched build's.
    pub kernel: String,
    /// Model lineage version live when the run finished.
    pub model_version: u64,
    /// Whether this run performed a live checkpoint swap mid-load
    /// (`--refresh`).
    pub swapped: bool,
    /// Requests the server refused inline under its shed admission
    /// policy (`ServeConfig::overload`); the client counts the
    /// `"shedding"` error responses. `None` on records written before
    /// admission control existed.
    pub sheds: Option<u64>,
    /// Connections the run held open (`--connections`, defaulting to
    /// `--concurrency`). `None` on records written before the
    /// connection-scale modes existed.
    pub connections: Option<u64>,
    /// Whether the run fired open-loop (`--open-loop`: every request
    /// written before any response is read). Open-loop latency numbers
    /// measure queueing, not service time — `bench_gate` must not
    /// compare them against closed-loop baselines. `None` means closed
    /// loop (records predate the flag).
    pub open_loop: Option<bool>,
    /// Whether server-side tracing was enabled for the run
    /// (`--trace`). `None` on records written before the field existed.
    /// Deliberately **not** part of the configuration identity
    /// `bench_gate` matches on: comparing a traced run against an
    /// untraced baseline is exactly the tracing-overhead gate.
    pub traced: Option<bool>,
    /// Worker connection attempts that never reached the server (TCP
    /// connect refused/timed out). Counted apart from request failures:
    /// a connect that never sent a request must not dilute the
    /// request-level latency percentiles or failure counts. `None` on
    /// records written before the split existed.
    pub connect_failures: Option<u64>,
}

/// One measured point of the `connscale` benchmark: the server holding
/// `connections` mostly-idle connections while a small closed-loop mix
/// stays active.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ConnscaleRow {
    /// Open connections held during the measurement (idle + active).
    pub connections: u64,
    /// Server process threads before any connection was opened.
    pub baseline_threads: u64,
    /// Server process threads with every connection open — the claim
    /// under test: O(event-loop threads), not O(connections).
    pub resident_threads: u64,
    /// Closed-loop median latency of the active mix, microseconds.
    pub p50_us: f64,
    /// Closed-loop 95th-percentile latency of the active mix,
    /// microseconds.
    pub p95_us: f64,
}

/// The `BENCH_connscale.json` artifact the `connscale` binary writes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ConnscaleResult {
    /// All measured points.
    pub rows: Vec<ConnscaleRow>,
}

/// Experiment sizing parsed from the command line.
#[derive(Debug, Clone)]
pub struct Sizes {
    /// Dataset size.
    pub samples: usize,
    /// Stage-1 epochs for AIrchitect v2.
    pub stage1_epochs: usize,
    /// Stage-2 epochs for AIrchitect v2.
    pub stage2_epochs: usize,
    /// Epochs for single-stage baselines.
    pub baseline_epochs: usize,
    /// Output directory.
    pub out_dir: PathBuf,
    /// Dataset / split seed.
    pub seed: u64,
}

impl Default for Sizes {
    fn default() -> Self {
        Sizes {
            samples: 6000,
            stage1_epochs: 60,
            stage2_epochs: 80,
            baseline_epochs: 60,
            out_dir: PathBuf::from("results"),
            seed: 0xA12C,
        }
    }
}

impl Sizes {
    /// Parses `--samples`, `--full`, `--quick`, `--out`, `--seed` from
    /// `std::env::args`.
    ///
    /// # Panics
    ///
    /// Panics with a usage message on malformed arguments.
    pub fn from_args() -> Sizes {
        let mut s = Sizes::default();
        let args: Vec<String> = std::env::args().skip(1).collect();
        let mut i = 0;
        while i < args.len() {
            match args[i].as_str() {
                "--full" => {
                    s.samples = 100_000;
                    s.stage1_epochs = 500;
                    s.stage2_epochs = 100;
                    s.baseline_epochs = 300;
                }
                "--quick" => {
                    s.samples = 800;
                    s.stage1_epochs = 12;
                    s.stage2_epochs = 16;
                    s.baseline_epochs = 12;
                }
                "--samples" => {
                    i += 1;
                    s.samples = args[i].parse().expect("--samples takes a number");
                }
                "--seed" => {
                    i += 1;
                    s.seed = args[i].parse().expect("--seed takes a number");
                }
                "--out" => {
                    i += 1;
                    s.out_dir = PathBuf::from(&args[i]);
                }
                other => panic!(
                    "unknown argument {other:?} (expected --samples N | --full | --quick | --out DIR | --seed N)"
                ),
            }
            i += 1;
        }
        s
    }

    /// The v2 training configuration at this size.
    pub fn train_config(&self) -> TrainConfig {
        TrainConfig {
            stage1_epochs: self.stage1_epochs,
            stage2_epochs: self.stage2_epochs,
            ..TrainConfig::default()
        }
    }

    /// The v1 baseline configuration at this size.
    pub fn v1_config(&self) -> V1Config {
        V1Config {
            epochs: self.baseline_epochs,
            ..V1Config::default()
        }
    }

    /// The GANDSE baseline configuration at this size.
    pub fn gandse_config(&self) -> GandseConfig {
        GandseConfig {
            epochs: self.baseline_epochs,
            ..GandseConfig::default()
        }
    }

    /// The VAESA baseline configuration at this size.
    pub fn vaesa_config(&self) -> VaesaConfig {
        VaesaConfig {
            epochs: self.baseline_epochs,
            ..VaesaConfig::default()
        }
    }
}

/// The default DSE task of every experiment (Table I space, latency
/// objective, edge budget).
pub fn default_task() -> DseTask {
    DseTask::table_i_default()
}

/// One shared [`EvalEngine`] over the default task: every binary builds
/// exactly one and routes all dataset generation, training metrics,
/// deployment and figure sweeps through it, so identical cost queries
/// across those stages are answered from cache.
pub fn default_engine() -> Arc<EvalEngine> {
    EvalEngine::shared(default_task())
}

/// Generates (or loads a cached copy of) the experiment dataset through
/// the shared engine.
pub fn load_or_generate(engine: &EvalEngine, sizes: &Sizes) -> DseDataset {
    fs::create_dir_all(&sizes.out_dir).expect("create results dir");
    let cache = sizes
        .out_dir
        .join(format!("dataset_{}_{:x}.json", sizes.samples, sizes.seed));
    if let Ok(ds) = DseDataset::load(&cache) {
        if ds.len() == sizes.samples {
            eprintln!("[harness] reusing cached dataset {}", cache.display());
            return ds;
        }
    }
    eprintln!(
        "[harness] generating {} samples (oracle labels over the 768-point grid)…",
        sizes.samples
    );
    let ds = DseDataset::generate_with(
        engine,
        &GenerateConfig {
            num_samples: sizes.samples,
            seed: sizes.seed,
            threads: 0,
            ..GenerateConfig::default()
        },
    );
    ds.save(&cache).expect("cache dataset");
    ds
}

/// Trains AIrchitect v2 with the standard config at the given sizes.
pub fn train_v2(engine: &Arc<EvalEngine>, train: &DseDataset, sizes: &Sizes) -> Airchitect2 {
    let mut model = Airchitect2::with_engine(&ModelConfig::default(), Arc::clone(engine), train);
    let cfg = sizes.train_config();
    eprintln!(
        "[harness] training AIrchitect v2 ({} + {} epochs on {} samples)…",
        cfg.stage1_epochs,
        cfg.stage2_epochs,
        train.len()
    );
    model.fit(train, &cfg);
    model
}

/// Trains the AIrchitect v1 baseline.
pub fn train_v1(engine: &Arc<EvalEngine>, train: &DseDataset, sizes: &Sizes) -> AirchitectV1 {
    let mut v1 = AirchitectV1::with_engine(&sizes.v1_config(), Arc::clone(engine), train);
    eprintln!("[harness] training AIrchitect v1…");
    v1.fit(train);
    v1
}

/// Trains the GANDSE baseline.
pub fn train_gandse(engine: &Arc<EvalEngine>, train: &DseDataset, sizes: &Sizes) -> Gandse {
    let mut gan = Gandse::with_engine(&sizes.gandse_config(), Arc::clone(engine), train);
    eprintln!("[harness] training GANDSE…");
    gan.fit(train);
    gan
}

/// Trains the VAESA baseline.
pub fn train_vaesa(engine: &Arc<EvalEngine>, train: &DseDataset, sizes: &Sizes) -> Vaesa {
    let mut vae = Vaesa::with_engine(&sizes.vaesa_config(), Arc::clone(engine), train);
    eprintln!("[harness] training VAESA…");
    vae.fit(train);
    vae
}

/// Writes a CSV file with a header row.
///
/// # Panics
///
/// Panics if the file cannot be written (experiment binaries want loud
/// failures).
pub fn write_csv(path: &Path, header: &str, rows: &[Vec<String>]) {
    if let Some(dir) = path.parent() {
        fs::create_dir_all(dir).expect("create csv dir");
    }
    let mut out = String::new();
    writeln!(out, "{header}").expect("write header");
    for row in rows {
        writeln!(out, "{}", row.join(",")).expect("write row");
    }
    fs::write(path, out).expect("write csv");
    eprintln!("[harness] wrote {}", path.display());
}

/// Renders an aligned two-column table to stdout.
pub fn print_table(title: &str, header: (&str, &str), rows: &[(String, String)]) {
    println!("\n{title}");
    println!("{:<28} {:>14}", header.0, header.1);
    println!("{}", "-".repeat(44));
    for (a, b) in rows {
        println!("{a:<28} {b:>14}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_sizes_are_sane() {
        let s = Sizes::default();
        assert!(s.samples >= 1000);
        assert!(s.stage1_epochs > 0 && s.stage2_epochs > 0);
    }

    #[test]
    fn csv_writer_produces_parseable_output() {
        let dir = std::env::temp_dir().join("ai2_bench_csv_test");
        let path = dir.join("t.csv");
        write_csv(
            &path,
            "a,b",
            &[vec!["1".into(), "2".into()], vec!["3".into(), "4".into()]],
        );
        let body = fs::read_to_string(&path).unwrap();
        assert_eq!(body.lines().count(), 3);
        assert!(body.starts_with("a,b"));
        fs::remove_file(path).ok();
    }

    #[test]
    fn dataset_cache_roundtrip() {
        let engine = default_engine();
        let sizes = Sizes {
            samples: 20,
            out_dir: std::env::temp_dir().join("ai2_bench_cache_test"),
            ..Sizes::default()
        };
        let a = load_or_generate(&engine, &sizes);
        let b = load_or_generate(&engine, &sizes); // from cache
        assert_eq!(a, b);
        fs::remove_dir_all(&sizes.out_dir).ok();
    }
}
