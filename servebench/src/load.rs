//! Load generation over TCP: a closed loop (one request in flight per
//! connection) and a seeded Poisson open loop (requests pipelined on
//! their connections, each timed from when it was due). Both use two
//! connections and at most two threads.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::os::unix::io::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use crate::workload::{line_hash, line_of, Rng, Stream};

/// Connections (and load threads) the generator uses.
pub const CONNS: usize = 2;

/// One answered (or failed) request.
#[derive(Debug, Clone)]
pub struct Sample {
    /// Id of the request sent (see [`Stream::by_id`]).
    pub id: u64,
    /// When it was sent (open loop: due), seconds from the start of its
    /// run or segment.
    pub at_s: f64,
    /// Client latency in microseconds (open loop: from when it was due).
    pub lat_us: f64,
    /// Hash of the response line (see [`line_hash`]), or the transport
    /// error. Keeping hashes, not lines, keeps a long run's memory small.
    pub reply: Result<u64, String>,
}

fn connect(addr: &str) -> Result<TcpStream, String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    stream.set_nodelay(true).ok();
    stream.set_read_timeout(Some(Duration::from_secs(30))).ok();
    Ok(stream)
}

/// A lockstep NDJSON connection.
struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Conn {
    fn open(addr: &str) -> Result<Conn, String> {
        let writer = connect(addr)?;
        let reader = BufReader::new(writer.try_clone().map_err(|e| e.to_string())?);
        Ok(Conn { reader, writer })
    }

    /// Sends request `id` of `stream` and waits for its reply line.
    fn ask(&mut self, stream: &Stream, id: u64, at_s: f64) -> Sample {
        let mut line = line_of(&stream.by_id(id));
        line.push('\n');
        let mut reply = String::new();
        let t0 = Instant::now();
        let io = self
            .writer
            .write_all(line.as_bytes())
            .and_then(|()| self.reader.read_line(&mut reply));
        let lat_us = t0.elapsed().as_secs_f64() * 1e6;
        Sample {
            id,
            at_s,
            lat_us,
            reply: match io {
                Ok(0) => Err("server closed the connection".to_string()),
                Ok(_) => Ok(line_hash(&reply)),
                Err(e) => Err(format!("transport: {e}")),
            },
        }
    }
}

/// Sends the stream's warm pass, then runs the stream from its first
/// request on two connections for `seconds`. Warm-pass samples are
/// stamped at time 0; the others at their send time from the start of the
/// stream. A transport error ends that connection's share of the run.
pub fn closed_loop(addr: &str, stream: &Stream, seconds: Duration) -> Result<Vec<Sample>, String> {
    let warm = stream.warm_ids();
    let mut conns = (0..CONNS)
        .map(|_| Conn::open(addr))
        .collect::<Result<Vec<_>, _>>()?;
    let samples = Mutex::new(Vec::new());
    let push = |s: Sample| -> bool {
        let ok = s.reply.is_ok();
        samples.lock().expect("samples lock poisoned").push(s);
        ok
    };

    let warm_next = AtomicU64::new(0);
    std::thread::scope(|scope| {
        for conn in conns.iter_mut() {
            let (warm_next, push, warm) = (&warm_next, &push, &warm);
            scope.spawn(move || loop {
                let i = warm_next.fetch_add(1, Ordering::Relaxed) as usize;
                let Some(&id) = warm.get(i) else { return };
                if !push(conn.ask(stream, id, 0.0)) {
                    return;
                }
            });
        }
    });

    let next = AtomicU64::new(0);
    let started = Instant::now();
    std::thread::scope(|scope| {
        for conn in conns.iter_mut() {
            let (next, push) = (&next, &push);
            scope.spawn(move || loop {
                let at = started.elapsed();
                if at >= seconds {
                    return;
                }
                let j = next.fetch_add(1, Ordering::Relaxed);
                if !push(conn.ask(stream, j + 1, at.as_secs_f64())) {
                    return;
                }
            });
        }
    });
    Ok(samples.into_inner().expect("samples lock poisoned"))
}

extern "C" {
    fn prctl(option: i32, arg2: u64, arg3: u64, arg4: u64, arg5: u64) -> i32;
}
const PR_SET_TIMERSLACK: i32 = 29;

/// One open-loop segment at a fixed Poisson rate.
pub struct Segment {
    pub samples: Vec<Sample>,
    /// How late the generator issued each send, beyond any time it spent
    /// blocked in the previous write (server backpressure), in µs.
    pub late_us: Vec<f64>,
    /// The backlog passed the abort threshold and sending stopped early.
    pub aborted: bool,
    /// Mean outstanding requests over the first and second half.
    pub backlog_halves: (f64, f64),
    /// Wall time from first due send to last reply, seconds.
    pub elapsed_s: f64,
}

impl Segment {
    /// Replies received per second over the segment.
    pub fn goodput_rps(&self) -> f64 {
        self.samples.iter().filter(|s| s.reply.is_ok()).count() as f64 / self.elapsed_s
    }
}

/// Two pipelined connections driven by one writer and one reader thread.
pub struct OpenLoop {
    conns: Vec<TcpStream>,
    /// Next unused stream index.
    next_j: u64,
    rng: Rng,
}

impl OpenLoop {
    pub fn connect(addr: &str, seed: u64) -> Result<OpenLoop, String> {
        Ok(OpenLoop {
            conns: (0..CONNS)
                .map(|_| connect(addr))
                .collect::<Result<Vec<_>, _>>()?,
            next_j: 0,
            rng: Rng::new(seed ^ 0x0BE7_100F),
        })
    }

    /// Offers `rate` requests per second for `duration`, alternating the
    /// two connections, then waits for every reply. Sending stops early
    /// once more than `abort_backlog` requests are outstanding.
    pub fn segment(
        &mut self,
        stream: &Stream,
        rate: f64,
        duration: f64,
        abort_backlog: u64,
    ) -> Result<Segment, String> {
        let mut due = Vec::new();
        let mut t = 0.0;
        loop {
            t += -self.rng.unit().ln() / rate;
            if t >= duration {
                break;
            }
            due.push(t);
        }
        let n = due.len();
        let ids: Vec<u64> = (0..n as u64).map(|k| self.next_j + k + 1).collect();
        self.next_j += n as u64;
        let lines: Vec<String> = ids
            .iter()
            .map(|&id| line_of(&stream.by_id(id)) + "\n")
            .collect();
        let received = AtomicU64::new(0);
        let sent = AtomicU64::new(0);
        let stop = AtomicBool::new(false);
        let mut recv_at = vec![f64::NAN; n];
        let mut replies: Vec<Result<u64, String>> = vec![Err("never sent".into()); n];
        let mut late_us = Vec::with_capacity(n);
        let mut reader_err = None;
        let mut write_err = None;
        let start = Instant::now() + Duration::from_millis(2);
        let conns = &self.conns;

        std::thread::scope(|scope| {
            let (received, sent, stop) = (&received, &sent, &stop);
            let (recv_at, replies, reader_err) = (&mut recv_at, &mut replies, &mut reader_err);
            let reader = scope.spawn(move || {
                if let Err(e) = read_replies(conns, start, sent, received, stop, recv_at, replies) {
                    *reader_err = Some(e);
                    stop.store(true, Ordering::SeqCst);
                }
            });
            // SAFETY: prctl(PR_SET_TIMERSLACK) only changes this thread's
            // timer slack; it takes no pointers.
            unsafe {
                prctl(PR_SET_TIMERSLACK, 1000, 0, 0, 0);
            }
            let mut free_at = start;
            for (k, line) in lines.iter().enumerate() {
                let target = start + Duration::from_secs_f64(due[k]);
                let now = Instant::now();
                if now < target {
                    std::thread::sleep(target - now);
                }
                let issued = Instant::now();
                late_us.push(
                    issued
                        .saturating_duration_since(target.max(free_at))
                        .as_secs_f64()
                        * 1e6,
                );
                let outstanding = k as u64 - received.load(Ordering::Relaxed);
                if outstanding > abort_backlog || stop.load(Ordering::SeqCst) {
                    break;
                }
                if let Err(e) = (&conns[k % CONNS]).write_all(line.as_bytes()) {
                    write_err = Some(format!("write: {e}"));
                    break;
                }
                free_at = Instant::now();
                sent.store(k as u64 + 1, Ordering::SeqCst);
            }
            stop.store(true, Ordering::SeqCst);
            reader.join().expect("reader thread panicked");
        });
        if let Some(e) = reader_err.or(write_err) {
            return Err(e);
        }
        let sent = sent.load(Ordering::SeqCst) as usize;
        let aborted = sent < n;
        let elapsed_s = recv_at[..sent].iter().copied().fold(
            due.get(sent.saturating_sub(1)).copied().unwrap_or(0.0),
            f64::max,
        );
        let samples = ids
            .into_iter()
            .zip(replies)
            .zip(due.iter().zip(&recv_at))
            .take(sent)
            .map(|((id, reply), (&due, &recv))| Sample {
                id,
                at_s: due,
                lat_us: (recv - due) * 1e6,
                reply,
            })
            .collect();
        Ok(Segment {
            samples,
            late_us,
            aborted,
            backlog_halves: backlog_halves(&due[..sent], &recv_at[..sent], duration),
            elapsed_s: elapsed_s.max(1e-9),
        })
    }
}

/// Mean number of outstanding requests over each half of `[0, span]`,
/// sampled every millisecond.
fn backlog_halves(due: &[f64], recv: &[f64], span: f64) -> (f64, f64) {
    let mut sorted_recv: Vec<f64> = recv.to_vec();
    sorted_recv.sort_by(f64::total_cmp);
    let steps = ((span * 1000.0) as usize).max(2);
    let (mut halves, mut counts) = ([0.0; 2], [0usize; 2]);
    let (mut d, mut r) = (0usize, 0usize);
    for s in 0..steps {
        let t = span * s as f64 / steps as f64;
        while d < due.len() && due[d] <= t {
            d += 1;
        }
        while r < sorted_recv.len() && sorted_recv[r] <= t {
            r += 1;
        }
        let half = usize::from(s * 2 >= steps);
        halves[half] += d.saturating_sub(r) as f64;
        counts[half] += 1;
    }
    (halves[0] / counts[0] as f64, halves[1] / counts[1] as f64)
}

/// The reader half of a segment: multiplexes both connections and files
/// the `i`-th reply of connection `c` under request `c + CONNS·i` (the
/// server answers each connection in order).
fn read_replies(
    conns: &[TcpStream],
    start: Instant,
    sent: &AtomicU64,
    received: &AtomicU64,
    stop: &AtomicBool,
    recv_at: &mut [f64],
    replies: &mut [Result<u64, String>],
) -> Result<(), String> {
    let poller = mini_poll::Poller::new().map_err(|e| format!("poller: {e}"))?;
    for (c, conn) in conns.iter().enumerate() {
        poller
            .register(conn.as_raw_fd(), c, mini_poll::Interest::READABLE)
            .map_err(|e| format!("poller register: {e}"))?;
    }
    let mut bufs: Vec<Vec<u8>> = vec![Vec::new(); conns.len()];
    let mut got = vec![0usize; conns.len()];
    let mut events = Vec::new();
    let mut chunk = vec![0u8; 1 << 16];
    let mut done = 0u64;
    let mut idle_since: Option<Instant> = None;
    loop {
        if stop.load(Ordering::SeqCst) && done >= sent.load(Ordering::SeqCst) {
            return Ok(());
        }
        poller
            .wait(&mut events, 5)
            .map_err(|e| format!("poll: {e}"))?;
        if events.is_empty() {
            // replies owed but none arriving: the server stalled
            if done < sent.load(Ordering::SeqCst) {
                let since = *idle_since.get_or_insert_with(Instant::now);
                if since.elapsed() > Duration::from_secs(20) {
                    return Err("server stopped answering".into());
                }
            }
            continue;
        }
        idle_since = None;
        for ev in &events {
            let c = ev.token;
            let n = (&conns[c])
                .read(&mut chunk)
                .map_err(|e| format!("read: {e}"))?;
            if n == 0 {
                return Err("server closed the connection".into());
            }
            let now = start.elapsed().as_secs_f64();
            bufs[c].extend_from_slice(&chunk[..n]);
            while let Some(pos) = bufs[c].iter().position(|&b| b == b'\n') {
                let line: Vec<u8> = bufs[c].drain(..=pos).collect();
                let k = c + CONNS * got[c];
                got[c] += 1;
                if k >= replies.len() {
                    return Err("more replies than requests".into());
                }
                recv_at[k] = now;
                replies[k] = std::str::from_utf8(&line)
                    .map(line_hash)
                    .map_err(|_| "non-UTF-8 reply".to_string());
                done += 1;
                received.store(done, Ordering::Relaxed);
            }
        }
    }
}
