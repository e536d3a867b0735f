//! The `serve` child process: spawned by PID on port 0, discovered through
//! its `SERVE_ADDR=` line, and killed by PID on every exit path (the
//! [`Drop`] impl runs on early returns and panics alike; the child also
//! asks the kernel to kill it should this process die first).

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::os::unix::process::CommandExt;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use ai2_serve::protocol::{decode_line, encode_line};
use ai2_serve::{AdminRequest, Request, Response, ServeStats};

extern "C" {
    fn prctl(option: i32, arg2: u64, arg3: u64, arg4: u64, arg5: u64) -> i32;
}
const PR_SET_PDEATHSIG: i32 = 1;
const SIGKILL: u64 = 9;

/// A running `serve` process restored from a checkpoint.
pub struct ServerChild {
    child: Child,
    /// Drains the child's stdout; ends when the child does.
    stdout_reader: Option<JoinHandle<()>>,
    pub addr: String,
}

impl ServerChild {
    /// Starts `serve` with deployment flags only and waits for its
    /// listen address.
    pub fn spawn(bin: &Path, checkpoint: &Path, pipelines: &Path) -> Result<ServerChild, String> {
        let mut cmd = Command::new(bin);
        cmd.arg("--port")
            .arg("0")
            .arg("--checkpoint")
            .arg(checkpoint)
            .arg("--pipelines")
            .arg(pipelines)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null());
        // SAFETY: the closure runs in the forked child before exec and only
        // makes one async-signal-safe system call.
        unsafe {
            cmd.pre_exec(|| {
                prctl(PR_SET_PDEATHSIG, SIGKILL, 0, 0, 0);
                Ok(())
            });
        }
        let mut child = cmd
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let stdout = child.stdout.take().expect("stdout is piped");
        // read the discovery line on a helper thread so a silent child
        // cannot hang the benchmark; the thread then drains stdout
        let (tx, rx) = mpsc::channel();
        let reader = std::thread::spawn(move || {
            let mut reader = BufReader::new(stdout);
            let mut line = String::new();
            while reader.read_line(&mut line).unwrap_or(0) > 0 {
                if let Some(addr) = line.trim().strip_prefix("SERVE_ADDR=") {
                    let _ = tx.send(addr.to_string());
                }
                line.clear();
            }
            let _ = reader.read_to_end(&mut Vec::new());
        });
        let mut server = ServerChild {
            child,
            stdout_reader: Some(reader),
            addr: String::new(),
        };
        server.addr = rx
            .recv_timeout(Duration::from_secs(60))
            .map_err(|_| "serve never printed SERVE_ADDR".to_string())?;
        Ok(server)
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Peak resident set (`VmHWM`) of the child, in MiB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        peak_rss_mb(&self.pid().to_string())
    }

    /// The server's `stats` snapshot over a fresh connection.
    pub fn stats(&self) -> Result<ServeStats, String> {
        match roundtrip(&self.addr, &Request::Admin(AdminRequest::Stats { id: 0 }))? {
            Response::Stats(s) => Ok(s),
            other => Err(format!("stats answered {other:?}")),
        }
    }
}

impl Drop for ServerChild {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(reader) = self.stdout_reader.take() {
            let _ = reader.join();
        }
    }
}

/// Peak resident set (`VmHWM`) of process `pid` (or `"self"`), in MiB.
pub fn peak_rss_mb(pid: &str) -> Result<f64, String> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status"))
        .map_err(|e| format!("cannot read /proc/{pid}/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| format!("no VmHWM line in /proc/{pid}/status"))
}

/// One request over a fresh connection.
pub fn roundtrip(addr: &str, req: &Request) -> Result<Response, String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    stream.set_nodelay(true).ok();
    stream.set_read_timeout(Some(Duration::from_secs(30))).ok();
    let mut line = encode_line(req);
    line.push('\n');
    stream
        .write_all(line.as_bytes())
        .map_err(|e| format!("write: {e}"))?;
    let mut reply = String::new();
    BufReader::new(stream)
        .read_line(&mut reply)
        .map_err(|e| format!("read: {e}"))?;
    decode_line(&reply).map_err(|e| format!("bad reply {reply:?}: {e}"))
}

/// Spawns `serve` and times it until its first answered recommendation.
pub fn timed_start(
    bin: &Path,
    checkpoint: &Path,
    pipelines: &Path,
    probe: &Request,
) -> Result<(ServerChild, f64), String> {
    let t0 = Instant::now();
    let server = ServerChild::spawn(bin, checkpoint, pipelines)?;
    match roundtrip(&server.addr, probe)? {
        Response::Recommendation(_) => Ok((server, t0.elapsed().as_secs_f64())),
        other => Err(format!("set-up probe answered {other:?}")),
    }
}
