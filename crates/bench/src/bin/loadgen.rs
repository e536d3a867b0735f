//! Load generator for the `ai2_serve` TCP endpoint.
//!
//! The default mode is **closed-loop**: `--concurrency` worker threads,
//! each with its own connection, fire a deterministic mix of GEMM and
//! (optionally) whole-model queries across all three objectives until
//! `--requests` responses have arrived, then print client-side
//! throughput and p50/p95/p99 latency plus the server's own `stats`
//! line.
//!
//! Two adversarial modes exercise the front end's connection handling:
//!
//! * `--open-loop` floods: every worker writes its whole share of
//!   requests before reading a single response. The server admits one
//!   recommendation per connection at a time, so its queue depth is
//!   bounded by the connection count (and by its admission policy);
//!   the rest of a flood waits in socket buffers. Under a shed
//!   policy (`serve --shed-high-water N`) the refused requests come
//!   back as `"shedding"` errors — counted, not failed — and
//!   `--min-sheds N` turns the count into an assertion.
//! * `--slow-loris` dribbles every request line a few bytes at a time
//!   with pauses in between: a front end that ties a thread (or a
//!   shard) to a half-written line collapses here, one that buffers
//!   per-connection does not.
//!
//! With `--refresh`, the run additionally performs a **live checkpoint
//! swap under load**: once a quarter of the requests have completed, a
//! side thread sends an admin `swap` (re-publishing `--swap-checkpoint`
//! at a bumped version) while the workers keep hammering the server
//! (the swap itself takes a while — checkpoint load + validation — so
//! the early trigger maximises the traffic crossing it). The run
//! fails unless the swap is acknowledged, the post-run stats report the
//! bumped version, and — as always — every response is a well-formed
//! recommendation (a swap must drop zero requests).
//!
//! Exits non-zero if any response is malformed or an unexpected error —
//! which is what the CI smoke test asserts.
//!
//! ```text
//! loadgen --addr 127.0.0.1:PORT [--requests N]     total requests (default 64)
//!         [--concurrency C]                        worker connections (default 8)
//!         [--connections N]                        alias for --concurrency, the
//!                                                  connection-scale spelling
//!         [--open-loop]                            flood: write everything, then
//!                                                  read everything
//!         [--slow-loris]                           dribble request bytes slowly
//!         [--min-sheds N]                          fail unless the server shed at
//!                                                  least N requests
//!         [--models]                               include whole-model queries
//!         [--deadline-ms N]                        per-request deadline
//!         [--backend NAME]                         cost backend on every query
//!                                                  ("analytic" / "systolic")
//!         [--pipeline NAME]                        recommendation pipeline on
//!                                                  every GEMM query (a name the
//!                                                  server has registered, e.g.
//!                                                  "staged"; model queries stay
//!                                                  on "default")
//!         [--refresh]                              swap the checkpoint mid-run
//!         [--swap-checkpoint PATH]                 server-side checkpoint path
//!                                                  the swap publishes
//!         [--json PATH]                            write a machine-readable
//!                                                  BENCH_*.json result file
//!         [--trace]                                enable server-side tracing
//!                                                  before the run (the overhead
//!                                                  gate's traced leg)
//!         [--trace-dump PATH]                      after the run, have the server
//!                                                  write its Chrome trace JSON to
//!                                                  PATH (server-side; implies the
//!                                                  capture stays enabled)
//! ```

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use ai2_bench::LoadgenResult;
use ai2_serve::protocol::{decode_line, encode_line};
use ai2_serve::{AdminRequest, Recommendation, Request, Response, TcpClient};
use ai2_tensor::stats::percentile;

struct Args {
    addr: String,
    requests: usize,
    concurrency: usize,
    open_loop: bool,
    slow_loris: bool,
    min_sheds: u64,
    models: bool,
    deadline_ms: Option<u64>,
    backend: Option<String>,
    pipeline: Option<String>,
    refresh: bool,
    swap_checkpoint: Option<String>,
    json: Option<String>,
    trace: bool,
    trace_dump: Option<String>,
}

fn parse_args() -> Args {
    let mut args = Args {
        addr: String::new(),
        requests: 64,
        concurrency: 8,
        open_loop: false,
        slow_loris: false,
        min_sheds: 0,
        models: false,
        deadline_ms: None,
        backend: None,
        pipeline: None,
        refresh: false,
        swap_checkpoint: None,
        json: None,
        trace: false,
        trace_dump: None,
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
            "--addr" => args.addr = value(&mut i),
            "--requests" => args.requests = value(&mut i).parse().expect("--requests count"),
            "--concurrency" => {
                args.concurrency = value(&mut i).parse().expect("--concurrency count");
            }
            "--connections" => {
                args.concurrency = value(&mut i).parse().expect("--connections count");
            }
            "--open-loop" => args.open_loop = true,
            "--slow-loris" => args.slow_loris = true,
            "--min-sheds" => args.min_sheds = value(&mut i).parse().expect("--min-sheds count"),
            "--models" => args.models = true,
            "--deadline-ms" => {
                args.deadline_ms = Some(value(&mut i).parse().expect("--deadline-ms"))
            }
            "--backend" => args.backend = Some(value(&mut i)),
            "--pipeline" => args.pipeline = Some(value(&mut i)),
            "--refresh" => args.refresh = true,
            "--swap-checkpoint" => args.swap_checkpoint = Some(value(&mut i)),
            "--json" => args.json = Some(value(&mut i)),
            "--trace" => args.trace = true,
            "--trace-dump" => args.trace_dump = Some(value(&mut i)),
            other => panic!("unknown argument {other:?} (see src/bin/loadgen.rs for usage)"),
        }
        i += 1;
    }
    assert!(!args.addr.is_empty(), "--addr HOST:PORT is required");
    assert!(args.requests > 0 && args.concurrency > 0);
    if args.refresh {
        assert!(
            args.swap_checkpoint.is_some(),
            "--refresh needs --swap-checkpoint PATH (a server-side checkpoint file)"
        );
        assert!(
            !args.open_loop && !args.slow_loris,
            "--refresh is a closed-loop assertion; it does not compose with the flood modes"
        );
    }
    args
}

use ai2_bench::queries::nth_query;

/// What one response turned out to be.
enum Outcome {
    /// A well-formed recommendation (client latency in microseconds
    /// when the mode measures per-request latency).
    Ok(Option<f64>),
    /// Expired client-side (only legal with `--deadline-ms`).
    Expired,
    /// Refused inline by the server's shed admission policy.
    Shed,
    /// Anything else — the run fails.
    Fail(String),
}

fn classify(resp: &Response, deadline_set: bool, latency_us: Option<f64>) -> Outcome {
    match resp {
        Response::Recommendation(Recommendation {
            num_pes,
            l2_bytes,
            cost,
            layers,
            ..
        }) => {
            if *num_pes == 0 || *l2_bytes == 0 || !cost.is_finite() || *cost <= 0.0 || *layers == 0
            {
                return Outcome::Fail(format!("degenerate recommendation {resp:?}"));
            }
            Outcome::Ok(latency_us)
        }
        Response::Error { message, .. } if message.contains("shedding") => Outcome::Shed,
        Response::Error { message, .. } if deadline_set && message.contains("deadline") => {
            Outcome::Expired
        }
        other => Outcome::Fail(format!("unexpected response {other:?}")),
    }
}

/// Shared tallies every worker folds its outcomes into.
struct Tally {
    latencies: Mutex<Vec<f64>>,
    ok: AtomicU64,
    expired: AtomicU64,
    sheds: AtomicU64,
    failures: Mutex<Vec<String>>,
    /// Worker connections that never reached the server. Kept apart
    /// from `failures`: a connect that sent no request is not a
    /// request failure and must not dilute the request-level
    /// percentiles or fail the run outright (the surviving workers
    /// still drain the whole request budget in closed-loop mode).
    connect_failures: AtomicU64,
    completed: AtomicU64,
}

impl Tally {
    fn new() -> Tally {
        Tally {
            latencies: Mutex::new(Vec::new()),
            ok: AtomicU64::new(0),
            expired: AtomicU64::new(0),
            sheds: AtomicU64::new(0),
            failures: Mutex::new(Vec::new()),
            connect_failures: AtomicU64::new(0),
            completed: AtomicU64::new(0),
        }
    }

    /// A worker whose TCP connect never reached the server: counted on
    /// its own, no latency sample, no request completion.
    fn record_connect_failure(&self, e: &std::io::Error) {
        eprintln!("[loadgen] worker connect failed: {e}");
        self.connect_failures.fetch_add(1, Ordering::Relaxed);
    }

    fn record(&self, outcome: Outcome) {
        match outcome {
            Outcome::Ok(lat) => {
                self.ok.fetch_add(1, Ordering::Relaxed);
                if let Some(us) = lat {
                    self.latencies.lock().unwrap().push(us);
                }
            }
            Outcome::Expired => {
                self.expired.fetch_add(1, Ordering::Relaxed);
            }
            Outcome::Shed => {
                self.sheds.fetch_add(1, Ordering::Relaxed);
            }
            Outcome::Fail(msg) => self.failures.lock().unwrap().push(msg),
        }
        self.completed.fetch_add(1, Ordering::Relaxed);
    }
}

/// A raw NDJSON connection the flood modes drive directly (the
/// request/response lockstep of [`TcpClient::send`] is exactly what
/// open-loop and slow-loris must *not* do).
struct RawConn {
    reader: BufReader<TcpStream>,
    stream: TcpStream,
}

impl RawConn {
    fn connect(addr: &str) -> std::io::Result<RawConn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        Ok(RawConn {
            reader: BufReader::new(stream.try_clone()?),
            stream,
        })
    }

    /// Writes one encoded request line. With `dribble`, the bytes go
    /// out a few at a time with pauses — the slow-loris shape.
    fn write_line(&mut self, line: &str, dribble: bool) -> std::io::Result<()> {
        let mut bytes = line.as_bytes().to_vec();
        bytes.push(b'\n');
        if dribble {
            for chunk in bytes.chunks(7) {
                self.stream.write_all(chunk)?;
                self.stream.flush()?;
                std::thread::sleep(Duration::from_micros(300));
            }
        } else {
            self.stream.write_all(&bytes)?;
        }
        Ok(())
    }

    fn read_response(&mut self) -> std::io::Result<Response> {
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        decode_line(&line)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))
    }
}

/// One worker's request ids: `worker`, `worker + C`, `worker + 2C`, …
fn worker_share(worker: usize, concurrency: usize, requests: usize) -> Vec<u64> {
    (worker..requests)
        .step_by(concurrency)
        .map(|n| n as u64)
        .collect()
}

/// Waits until `trigger_at` requests completed, then swaps the
/// checkpoint under load. Returns the acknowledged version.
fn swap_mid_run(
    addr: &str,
    path: &str,
    completed: &AtomicU64,
    trigger_at: u64,
    deadline: Duration,
) -> Result<u64, String> {
    let started = Instant::now();
    while completed.load(Ordering::Relaxed) < trigger_at {
        if started.elapsed() > deadline {
            return Err(format!(
                "workers never reached the {trigger_at}-request mark for the swap"
            ));
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    let mut admin = TcpClient::connect(addr).map_err(|e| format!("swap connect: {e}"))?;
    let resp = admin
        .send(&Request::Admin(AdminRequest::Swap {
            id: u64::MAX,
            path: path.to_string(),
            bump: Some(true),
        }))
        .map_err(|e| format!("swap transport: {e}"))?;
    match resp {
        Response::Admin(ack) if ack.op == "swap" => {
            eprintln!(
                "[loadgen] swap ok mid-run → model v{} (completed {} requests before the ack)",
                ack.model_version,
                completed.load(Ordering::Relaxed)
            );
            Ok(ack.model_version)
        }
        other => Err(format!("swap rejected: {other:?}")),
    }
}

/// The closed-loop worker: one request in flight per connection,
/// per-request latency measured. With `--slow-loris` the request bytes
/// dribble out, which is the whole point — the *other* connections'
/// latency must not care.
fn closed_loop_worker(args: &Args, next: &AtomicU64, tally: &Tally) {
    let mut conn = match RawConn::connect(&args.addr) {
        Ok(c) => c,
        Err(e) => {
            tally.record_connect_failure(&e);
            return;
        }
    };
    loop {
        let n = next.fetch_add(1, Ordering::Relaxed);
        if n >= args.requests as u64 {
            return;
        }
        let req = nth_query(
            n,
            args.models,
            args.deadline_ms,
            args.backend.as_deref(),
            args.pipeline.as_deref(),
        );
        let line = encode_line(&Request::Recommend(req));
        let sent = Instant::now();
        let outcome = conn
            .write_line(&line, args.slow_loris)
            .and_then(|()| conn.read_response());
        match outcome {
            Ok(resp) => tally.record(classify(
                &resp,
                args.deadline_ms.is_some(),
                Some(sent.elapsed().as_secs_f64() * 1e6),
            )),
            Err(e) => tally.record(Outcome::Fail(format!("transport: {e}"))),
        }
    }
}

/// The open-loop worker: its whole share goes out before anything is
/// read back, so the server — not this client's lockstep — is what
/// absorbs the load.
fn open_loop_worker(args: &Args, worker: usize, tally: &Tally) {
    let mut conn = match RawConn::connect(&args.addr) {
        Ok(c) => c,
        Err(e) => {
            tally.record_connect_failure(&e);
            return;
        }
    };
    let share = worker_share(worker, args.concurrency, args.requests);
    for &n in &share {
        let req = nth_query(
            n,
            args.models,
            args.deadline_ms,
            args.backend.as_deref(),
            args.pipeline.as_deref(),
        );
        let line = encode_line(&Request::Recommend(req));
        if let Err(e) = conn.write_line(&line, args.slow_loris) {
            tally
                .failures
                .lock()
                .unwrap()
                .push(format!("flood write: {e}"));
            return;
        }
    }
    if let Err(e) = conn.stream.flush() {
        tally
            .failures
            .lock()
            .unwrap()
            .push(format!("flood flush: {e}"));
        return;
    }
    for _ in &share {
        match conn.read_response() {
            // open-loop latency is queueing, not service time — no
            // per-request numbers
            Ok(resp) => tally.record(classify(&resp, args.deadline_ms.is_some(), None)),
            Err(e) => {
                tally.record(Outcome::Fail(format!("transport: {e}")));
                return;
            }
        }
    }
}

fn main() {
    let args = parse_args();
    let tracing = args.trace || args.trace_dump.is_some();
    if tracing {
        // enable server-side tracing before the first worker fires so
        // the whole run is captured (and the whole run pays the
        // recording cost — this is the overhead gate's traced leg)
        let resp = TcpClient::connect(&args.addr)
            .and_then(|mut c| {
                c.send(&Request::Admin(AdminRequest::Trace {
                    id: u64::MAX,
                    enable: Some(true),
                    path: None,
                }))
            })
            .unwrap_or_else(|e| panic!("--trace enable failed: {e}"));
        match resp {
            Response::Admin(ack) if ack.op == "trace" => eprintln!("[loadgen] tracing enabled"),
            other => panic!("--trace enable rejected: {other:?}"),
        }
    }
    let next = AtomicU64::new(0);
    let tally = Tally::new();
    let swapped_version: Arc<Mutex<Option<u64>>> = Arc::new(Mutex::new(None));

    let started = Instant::now();
    std::thread::scope(|scope| {
        for worker in 0..args.concurrency {
            let next = &next;
            let tally = &tally;
            let args = &args;
            scope.spawn(move || {
                if args.open_loop {
                    open_loop_worker(args, worker, tally);
                } else {
                    closed_loop_worker(args, next, tally);
                }
            });
        }
        if args.refresh {
            // the swap rides alongside the workers: requests before it
            // are answered by the old replica, requests after by the
            // new one, and none may fail either way
            let path = args.swap_checkpoint.clone().expect("checked in parse_args");
            let addr = args.addr.clone();
            let completed = &tally.completed;
            let failures = &tally.failures;
            let swapped_version = Arc::clone(&swapped_version);
            // fire at the quarter mark: the swap (checkpoint load +
            // validation) takes a while, so an early trigger maximises
            // the traffic that actually crosses it
            let trigger_at = (args.requests as u64) / 4;
            scope.spawn(move || {
                match swap_mid_run(
                    &addr,
                    &path,
                    completed,
                    trigger_at,
                    Duration::from_secs(120),
                ) {
                    Ok(version) => *swapped_version.lock().unwrap() = Some(version),
                    Err(e) => failures.lock().unwrap().push(e),
                }
            });
        }
    });
    let elapsed = started.elapsed().as_secs_f64();

    let failures = tally.failures.lock().unwrap();
    if !failures.is_empty() {
        eprintln!("[loadgen] {} FAILURES:", failures.len());
        for f in failures.iter().take(10) {
            eprintln!("[loadgen]   {f}");
        }
        std::process::exit(1);
    }
    let connect_failures = tally.connect_failures.load(Ordering::Relaxed);
    if connect_failures > 0 {
        eprintln!(
            "[loadgen] {connect_failures} of {} worker connection(s) never reached the server",
            args.concurrency
        );
        if connect_failures as usize >= args.concurrency {
            eprintln!("[loadgen] no worker connected — nothing was measured");
            std::process::exit(1);
        }
    }

    let ok = tally.ok.load(Ordering::Relaxed);
    let sheds = tally.sheds.load(Ordering::Relaxed);
    let lats = tally.latencies.lock().unwrap();
    let (p50, p95, p99) = if lats.is_empty() {
        (0.0, 0.0, 0.0)
    } else {
        (
            percentile(&lats, 50.0),
            percentile(&lats, 95.0),
            percentile(&lats, 99.0),
        )
    };
    println!(
        "loadgen: {} ok ({} deadline-expired, {} shed) in {:.3}s → {:.1} req/s over {} conns{} | client latency p50 {:.0}µs p95 {:.0}µs p99 {:.0}µs",
        ok,
        tally.expired.load(Ordering::Relaxed),
        sheds,
        elapsed,
        ok as f64 / elapsed,
        args.concurrency,
        if args.open_loop { " (open loop)" } else { "" },
        p50,
        p95,
        p99,
    );

    // the server's own view (`None` percentiles print as 0: the server
    // is cold only when every request expired client-side)
    let server = match TcpClient::connect(&args.addr)
        .and_then(|mut c| c.send(&Request::Admin(AdminRequest::Stats { id: 0 })))
    {
        Ok(Response::Stats(s)) => {
            println!(
                "server stats: served {} (cache hits {}, sheds {}) | model v{}{} | {:.1} req/s | p50 {:.0}µs p95 {:.0}µs p99 {:.0}µs | engine {}h/{}m | kernel {}{}",
                s.served,
                s.cache_hits,
                s.sheds,
                s.model_version,
                if s.frozen { " FROZEN" } else { "" },
                s.throughput_rps,
                s.p50_us.unwrap_or(0.0),
                s.p95_us.unwrap_or(0.0),
                s.p99_us.unwrap_or(0.0),
                s.engine_point_hits,
                s.engine_point_misses,
                s.kernel,
                if s.quantized_shards > 0 {
                    format!(" ({} int8 shard{})", s.quantized_shards, if s.quantized_shards == 1 { "" } else { "s" })
                } else {
                    String::new()
                },
            );
            s
        }
        other => {
            eprintln!("[loadgen] stats endpoint failed: {other:?}");
            std::process::exit(1);
        }
    };

    if args.min_sheds > 0 && sheds < args.min_sheds {
        eprintln!(
            "[loadgen] expected at least {} sheds under this load, observed {sheds} \
             (server counted {})",
            args.min_sheds, server.sheds
        );
        std::process::exit(1);
    }
    if sheds > server.sheds {
        eprintln!(
            "[loadgen] client saw {sheds} shed responses but the server only counted {}",
            server.sheds
        );
        std::process::exit(1);
    }

    let swapped_version = *swapped_version.lock().unwrap();
    if args.refresh {
        // the swap must have landed and the server must still be on (or
        // past) the acknowledged version
        let Some(acked) = swapped_version else {
            eprintln!("[loadgen] --refresh run finished without a swap acknowledgement");
            std::process::exit(1);
        };
        if server.model_version < acked {
            eprintln!(
                "[loadgen] stats report model v{} but the swap acknowledged v{acked}",
                server.model_version
            );
            std::process::exit(1);
        }
    }

    if let Some(path) = &args.trace_dump {
        let resp = TcpClient::connect(&args.addr)
            .and_then(|mut c| {
                c.send(&Request::Admin(AdminRequest::Trace {
                    id: u64::MAX,
                    enable: None,
                    path: Some(path.clone()),
                }))
            })
            .unwrap_or_else(|e| panic!("--trace-dump failed: {e}"));
        match resp {
            Response::Admin(ack) if ack.op == "trace" => {
                eprintln!("[loadgen] server wrote trace {path}");
            }
            other => panic!("--trace-dump rejected: {other:?}"),
        }
    }

    if let Some(path) = &args.json {
        let result = LoadgenResult {
            requests: ok,
            deadline_expired: tally.expired.load(Ordering::Relaxed),
            elapsed_s: elapsed,
            client_rps: ok as f64 / elapsed,
            p50_us: p50,
            p95_us: p95,
            p99_us: p99,
            server_served: server.served,
            server_cache_hits: server.cache_hits,
            backend: args
                .backend
                .clone()
                .unwrap_or_else(|| "analytic".to_string()),
            pipeline: args.pipeline.clone(),
            shards: server.shards,
            kernel: if server.quantized_shards > 0 {
                "quantized".to_string()
            } else {
                server.kernel.clone()
            },
            model_version: server.model_version,
            swapped: swapped_version.is_some(),
            sheds: Some(sheds),
            connections: Some(args.concurrency as u64),
            open_loop: Some(args.open_loop),
            traced: Some(tracing),
            connect_failures: Some(connect_failures),
        };
        let body = serde_json::to_string(&result).expect("serialize loadgen result");
        std::fs::write(path, body).expect("write --json result file");
        eprintln!("[loadgen] wrote {path}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn connect_failures_stay_out_of_request_accounting() {
        // a worker whose TCP connect never reached the server sent no
        // request: it must not pollute the request-failure list (which
        // fails the whole run), the latency samples (which feed
        // p50/p95), or the completion counter (which gates the swap
        // trigger)
        let tally = Tally::new();
        tally.record(Outcome::Ok(Some(120.0)));
        tally.record(Outcome::Ok(Some(80.0)));
        let refused = std::io::Error::new(std::io::ErrorKind::ConnectionRefused, "refused");
        tally.record_connect_failure(&refused);
        assert_eq!(tally.connect_failures.load(Ordering::Relaxed), 1);
        assert!(
            tally.failures.lock().unwrap().is_empty(),
            "a connect failure is not a request failure"
        );
        assert_eq!(tally.latencies.lock().unwrap().len(), 2);
        assert_eq!(tally.ok.load(Ordering::Relaxed), 2);
        assert_eq!(tally.completed.load(Ordering::Relaxed), 2);
        // request-level failures still land in the failure list
        tally.record(Outcome::Fail("transport: broken pipe".into()));
        assert_eq!(tally.failures.lock().unwrap().len(), 1);
        assert_eq!(tally.connect_failures.load(Ordering::Relaxed), 1);
    }
}
