//! The standalone recommendation server.
//!
//! Trains a model (or loads a checkpoint), starts the sharded service,
//! binds the NDJSON TCP endpoint and prints one machine-readable line
//!
//! ```text
//! SERVE_ADDR=127.0.0.1:PORT
//! ```
//!
//! to stdout so scripts (the CI smoke test, the load generator) can
//! discover the ephemeral port. Runs until killed.
//!
//! ```text
//! serve [--port N]            listen port (default 0 = ephemeral);
//!                             one acceptor + 2 event-loop threads
//!                             multiplex every connection
//!       [--shed-high-water N] shed admission control: refuse new
//!                             recommendations inline once the queue
//!                             holds N (default 0 = queue unboundedly)
//!       [--shards N]          worker shards (default 2)
//!       [--max-batch N]       micro-batch bound (default 32)
//!       [--cache N]           LRU response-cache entries (default 1024)
//!       [--samples N]         training-set size when training (default 2000)
//!       [--seed N]            dataset seed (default 0xA12C)
//!       [--quick]             smoke-test sizes (300 samples)
//!       [--checkpoint PATH]   serve this checkpoint instead of training
//!       [--save-checkpoint P] write the trained checkpoint to P
//!       [--refresh-secs N]    background refresh loop every N seconds
//!                             (fine-tune on the replay buffer, publish)
//!       [--pipelines FILE]    register named recommendation pipelines
//!                             from a JSON file ({"pipelines":[{"name":…,
//!                             "stages":[{"stage":"predict"},…]},…]});
//!                             the built-in "default" is always present
//!       [--trace-out FILE]    enable request tracing and periodically
//!                             rewrite FILE with the Chrome trace_event
//!                             JSON of the capture so far
//! ```

use std::sync::Arc;

use ai2_dse::{DseDataset, DseTask, EvalEngine, GenerateConfig, PipelineSet, PipelinesFile};
use ai2_serve::{OverloadPolicy, RecommendService, RefreshConfig, ServeConfig};
use airchitect::train::TrainConfig;
use airchitect::{Airchitect2, ModelCheckpoint, ModelConfig};

struct Args {
    port: u16,
    cfg: ServeConfig,
    samples: usize,
    seed: u64,
    checkpoint: Option<String>,
    save_checkpoint: Option<String>,
    trace_out: Option<String>,
}

fn parse_args() -> Args {
    let mut args = Args {
        port: 0,
        cfg: ServeConfig::default(),
        samples: 2000,
        seed: 0xA12C,
        checkpoint: None,
        save_checkpoint: None,
        trace_out: None,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    let value = |i: &mut usize| -> String {
        *i += 1;
        argv.get(*i)
            .unwrap_or_else(|| panic!("{} takes a value", argv[*i - 1]))
            .clone()
    };
    while i < argv.len() {
        match argv[i].as_str() {
            "--port" => args.port = value(&mut i).parse().expect("--port takes a port number"),
            "--shed-high-water" => {
                let high_water: usize = value(&mut i)
                    .parse()
                    .expect("--shed-high-water takes a queue depth");
                args.cfg.overload = if high_water > 0 {
                    OverloadPolicy::Shed { high_water }
                } else {
                    OverloadPolicy::Queue
                };
            }
            "--shards" => args.cfg.shards = value(&mut i).parse().expect("--shards takes a count"),
            "--max-batch" => {
                args.cfg.max_batch = value(&mut i).parse().expect("--max-batch takes a count");
            }
            "--cache" => {
                args.cfg.cache_capacity = value(&mut i).parse().expect("--cache takes a count");
            }
            "--samples" => args.samples = value(&mut i).parse().expect("--samples takes a count"),
            "--seed" => args.seed = value(&mut i).parse().expect("--seed takes a number"),
            "--quick" => args.samples = 300,
            "--checkpoint" => args.checkpoint = Some(value(&mut i)),
            "--save-checkpoint" => args.save_checkpoint = Some(value(&mut i)),
            "--trace-out" => args.trace_out = Some(value(&mut i)),
            "--refresh-secs" => {
                let secs: u64 = value(&mut i).parse().expect("--refresh-secs takes seconds");
                args.cfg.refresh = Some(RefreshConfig {
                    interval: std::time::Duration::from_secs(secs),
                    ..RefreshConfig::default()
                });
            }
            "--pipelines" => {
                let path = value(&mut i);
                let body = std::fs::read_to_string(&path)
                    .unwrap_or_else(|e| panic!("--pipelines: cannot read {path:?}: {e}"));
                let file: PipelinesFile = serde_json::from_str(&body)
                    .unwrap_or_else(|e| panic!("--pipelines: {path:?}: {e}"));
                args.cfg.pipelines = PipelineSet::with(&file.pipelines)
                    .unwrap_or_else(|e| panic!("--pipelines: {path:?}: {e}"));
            }
            other => panic!("unknown argument {other:?} (see src/bin/serve.rs for usage)"),
        }
        i += 1;
    }
    args
}

fn main() {
    let args = parse_args();
    let engine = EvalEngine::shared(DseTask::table_i_default());

    let ckpt = match &args.checkpoint {
        Some(path) => {
            eprintln!("[serve] loading checkpoint {path}");
            ModelCheckpoint::load(path).expect("load checkpoint")
        }
        None => {
            eprintln!(
                "[serve] generating {} oracle-labeled samples (seed {:#x})…",
                args.samples, args.seed
            );
            let ds = DseDataset::generate_with(
                &engine,
                &GenerateConfig {
                    num_samples: args.samples,
                    seed: args.seed,
                    threads: 0,
                    ..GenerateConfig::default()
                },
            );
            eprintln!("[serve] training the predictor (quick schedule)…");
            let mut model =
                Airchitect2::with_engine(&ModelConfig::default(), Arc::clone(&engine), &ds);
            model.fit(&ds, &TrainConfig::quick());
            // freshly trained checkpoints start the lineage at version 1
            model
                .checkpoint()
                .with_version(1)
                .with_provenance(engine.backend_id().as_str(), ds.len() as u64)
        }
    };
    eprintln!(
        "[serve] checkpoint v{} (backend {}, {} training samples)",
        ckpt.version, ckpt.provenance.backend, ckpt.provenance.training_samples
    );
    if let Some(path) = &args.save_checkpoint {
        ckpt.save(path).expect("save checkpoint");
        eprintln!("[serve] wrote checkpoint {path}");
    }

    let mut service = RecommendService::start(args.cfg.clone(), engine, ckpt);
    let addr = service
        .listen(("127.0.0.1", args.port))
        .expect("bind listen port");
    eprintln!(
        "[serve] {} shards, max batch {}, cache {} entries, pipelines [{}]{}{}",
        args.cfg.shards,
        args.cfg.max_batch,
        args.cfg.cache_capacity,
        args.cfg.pipelines.names().join(", "),
        match args.cfg.overload {
            OverloadPolicy::Shed { high_water } => format!(", shed over {high_water} queued"),
            OverloadPolicy::Queue => String::new(),
        },
        match &args.cfg.refresh {
            Some(r) => format!(", refresh every {:?}", r.interval),
            None => String::new(),
        }
    );
    if let Some(path) = &args.trace_out {
        service.set_tracing(true);
        eprintln!("[serve] tracing enabled, dumping to {path}");
    }
    // machine-readable discovery line; scripts poll stdout for it
    println!("SERVE_ADDR={addr}");
    loop {
        std::thread::sleep(std::time::Duration::from_secs(
            if args.trace_out.is_some() { 1 } else { 3600 },
        ));
        if let Some(path) = &args.trace_out {
            // periodic rewrite: the file always holds a complete, valid
            // Chrome trace of the capture so far (kill -9 safe)
            let tmp = format!("{path}.tmp");
            if std::fs::write(&tmp, service.trace_json())
                .and_then(|()| std::fs::rename(&tmp, path))
                .is_err()
            {
                eprintln!("[serve] cannot write trace file {path}");
            }
        }
    }
}
