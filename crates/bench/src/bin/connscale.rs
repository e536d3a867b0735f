//! Connection-scale benchmark: how the TCP front end holds `N`
//! mostly-idle connections.
//!
//! For each connection count the benchmark spawns a real `serve`
//! process (its own fd limit, its own `/proc` thread count), opens `N`
//! idle connections against it, and measures
//!
//! * **resident threads** — read from `/proc/<pid>/status` once the
//!   connection count settles. The event front end stays at O(event-loop
//!   threads) no matter how many connections are parked; the run fails
//!   if the count grows with `N`.
//! * **active p50/p95** — a small closed-loop request mix driven over a
//!   handful of the open connections while the rest idle, so the number
//!   reflects service under connection pressure, not an empty server.
//!
//! Counts above the process fd budget are clamped to it (and logged).
//! Results land in `results/BENCH_connscale.json` ([`ConnscaleResult`]).
//!
//! ```text
//! connscale [--serve-bin PATH]   serve binary (default target/release/serve)
//!           [--conns CSV]        connection counts (default 1000,5000,10000)
//!           [--requests N]       active requests per measurement (default 64)
//!           [--json PATH]        artifact path (default results/BENCH_connscale.json)
//! ```

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use ai2_bench::queries::nth_query;
use ai2_bench::{ConnscaleResult, ConnscaleRow};
use ai2_serve::protocol::{decode_line, encode_line};
use ai2_serve::{Request, Response};
use ai2_tensor::stats::percentile;

struct Args {
    serve_bin: String,
    conns: Vec<usize>,
    requests: usize,
    json: String,
}

fn parse_args() -> Args {
    let mut args = Args {
        serve_bin: "target/release/serve".to_string(),
        conns: vec![1000, 5000, 10000],
        requests: 64,
        json: "results/BENCH_connscale.json".to_string(),
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |i: &mut usize| -> String {
        *i += 1;
        argv.get(*i)
            .unwrap_or_else(|| panic!("{} takes a value", argv[*i - 1]))
            .clone()
    };
    let mut i = 0;
    while i < argv.len() {
        match argv[i].as_str() {
            "--serve-bin" => args.serve_bin = value(&mut i),
            "--conns" => {
                args.conns = value(&mut i)
                    .split(',')
                    .map(|s| s.trim().parse().expect("--conns takes counts"))
                    .collect();
            }
            "--requests" => args.requests = value(&mut i).parse().expect("--requests count"),
            "--json" => args.json = value(&mut i),
            other => panic!("unknown argument {other:?} (see src/bin/connscale.rs for usage)"),
        }
        i += 1;
    }
    assert!(!args.conns.is_empty() && args.requests > 0);
    args
}

/// A spawned `serve` process plus its discovered address.
struct Server {
    child: Child,
    addr: String,
}

impl Server {
    fn spawn(args: &Args, checkpoint: &str) -> Server {
        let mut child = Command::new(&args.serve_bin)
            .args(["--checkpoint", checkpoint, "--shards", "2"])
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .unwrap_or_else(|e| panic!("spawn {}: {e}", args.serve_bin));
        let stdout = child.stdout.take().expect("piped stdout");
        let mut lines = BufReader::new(stdout).lines();
        let addr = loop {
            let line = lines
                .next()
                .expect("serve exited before SERVE_ADDR")
                .expect("serve stdout");
            if let Some(addr) = line.strip_prefix("SERVE_ADDR=") {
                break addr.to_string();
            }
        };
        Server { child, addr }
    }

    /// `Threads:` from `/proc/<pid>/status`.
    fn threads(&self) -> u64 {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id()))
            .expect("read server /proc status");
        status
            .lines()
            .find_map(|l| l.strip_prefix("Threads:"))
            .expect("Threads: line")
            .trim()
            .parse()
            .expect("thread count")
    }

    /// Waits for the thread count to stop moving (a front end that
    /// spawned per-connection threads would still be climbing).
    fn settled_threads(&self) -> u64 {
        let mut last = self.threads();
        loop {
            std::thread::sleep(Duration::from_millis(200));
            let now = self.threads();
            if now == last {
                return now;
            }
            last = now;
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// One framed connection of the active mix.
struct ActiveConn {
    reader: BufReader<TcpStream>,
    stream: TcpStream,
}

fn connect(addr: &str) -> std::io::Result<TcpStream> {
    // a flood of connects can outrun the accept loop's backlog —
    // retry briefly instead of failing the whole run
    let mut delay = Duration::from_millis(1);
    for attempt in 0.. {
        match TcpStream::connect(addr) {
            Ok(s) => return Ok(s),
            Err(e) if attempt >= 20 => return Err(e),
            Err(_) => {
                std::thread::sleep(delay);
                delay = (delay * 2).min(Duration::from_millis(100));
            }
        }
    }
    unreachable!()
}

/// Opens `n` idle connections and proves the server still answers.
fn open_idle(addr: &str, n: usize) -> Vec<TcpStream> {
    let conns: Vec<TcpStream> = (0..n)
        .map(|i| connect(addr).unwrap_or_else(|e| panic!("idle connection {i}/{n} failed: {e}")))
        .collect();
    conns
}

/// Runs the closed-loop active mix over `k` fresh connections while the
/// idle ones stay parked. Returns latencies in microseconds.
fn active_mix(addr: &str, requests: usize, k: usize) -> Vec<f64> {
    let mut active: Vec<ActiveConn> = (0..k)
        .map(|_| {
            let stream = connect(addr).expect("active connection");
            stream.set_nodelay(true).ok();
            ActiveConn {
                reader: BufReader::new(stream.try_clone().expect("clone stream")),
                stream,
            }
        })
        .collect();
    let mut lats = Vec::with_capacity(requests);
    for n in 0..requests {
        let conn = &mut active[n % k];
        let req = nth_query(n as u64, false, None, None, None);
        let line = encode_line(&Request::Recommend(req));
        let sent = Instant::now();
        conn.stream.write_all(line.as_bytes()).expect("write");
        conn.stream.write_all(b"\n").expect("write");
        let mut resp = String::new();
        conn.reader.read_line(&mut resp).expect("read");
        let resp: Response = decode_line(&resp).expect("decode");
        assert!(
            matches!(resp, Response::Recommendation(_)),
            "active mix answered {resp:?}"
        );
        lats.push(sent.elapsed().as_secs_f64() * 1e6);
    }
    lats
}

fn main() {
    let args = parse_args();
    // the client side holds every idle socket — it needs the headroom
    // just as much as the server does
    let fd_limit = mini_poll::raise_nofile_limit(1 << 20);
    let fd_budget = (fd_limit.saturating_sub(128)) as usize;

    // one quick-trained checkpoint shared by every server spawn
    let dir = std::env::temp_dir().join(format!("ai2_connscale_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create checkpoint dir");
    let ckpt_path = dir.join("connscale.json");
    {
        use std::sync::Arc;
        let task = ai2_dse::DseTask::table_i_default();
        let ds = ai2_dse::DseDataset::generate(
            &task,
            &ai2_dse::GenerateConfig {
                num_samples: 300,
                seed: 0xC0,
                threads: 0,
                ..ai2_dse::GenerateConfig::default()
            },
        );
        let engine = ai2_dse::EvalEngine::shared(task);
        let mut model = airchitect::Airchitect2::with_engine(
            &airchitect::ModelConfig::default(),
            Arc::clone(&engine),
            &ds,
        );
        model.fit(&ds, &airchitect::train::TrainConfig::quick());
        model
            .checkpoint()
            .with_version(1)
            .save(&ckpt_path)
            .expect("save checkpoint");
    }
    let ckpt = ckpt_path.to_string_lossy().into_owned();

    let mut rows: Vec<ConnscaleRow> = Vec::new();
    for &want in &args.conns {
        let mut n = want;
        if n > fd_budget {
            eprintln!(
                "[connscale] clamping {n} connections to the fd budget {fd_budget} \
                 (soft limit {fd_limit})"
            );
            n = fd_budget;
        }
        let server = Server::spawn(&args, &ckpt);
        let baseline = server.settled_threads();
        eprintln!(
            "[connscale] opening {n} idle connections against {} (baseline {baseline} threads)",
            server.addr
        );
        let idle = open_idle(&server.addr, n);
        let resident = server.settled_threads();
        let lats = active_mix(&server.addr, args.requests, 8);
        let (p50, p95) = (percentile(&lats, 50.0), percentile(&lats, 95.0));
        eprintln!(
            "[connscale] conns={n}: resident {resident} threads (baseline {baseline}), \
             active p50 {p50:.0}µs p95 {p95:.0}µs"
        );
        rows.push(ConnscaleRow {
            connections: n as u64,
            baseline_threads: baseline,
            resident_threads: resident,
            p50_us: p50,
            p95_us: p95,
        });
        drop(idle);
        drop(server);
    }

    // the claim under test, asserted: the resident thread count must
    // not grow with the connection count
    if let (Some(first), Some(last)) = (rows.first(), rows.last()) {
        assert!(
            last.resident_threads <= first.resident_threads + 2,
            "front end grew threads with connections: {} at {} conns vs {} at {} conns",
            last.resident_threads,
            last.connections,
            first.resident_threads,
            first.connections
        );
    }

    let result = ConnscaleResult { rows };
    if let Some(parent) = std::path::Path::new(&args.json).parent() {
        std::fs::create_dir_all(parent).expect("create results dir");
    }
    let body = serde_json::to_string(&result).expect("serialize connscale result");
    std::fs::write(&args.json, body).expect("write artifact");
    println!("connscale: wrote {}", args.json);
}
