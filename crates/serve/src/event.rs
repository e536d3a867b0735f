//! The TCP front end: one acceptor plus a small pool of event-loop
//! threads multiplexing every connection through a readiness poller
//! (`mini-poll`: epoll on Linux, `poll(2)` elsewhere).
//!
//! It holds any number of mostly-idle connections with `1 + N` resident
//! threads ([`crate::RecommendService::listen`] runs two loops). Every
//! line dispatches through the same [`Endpoint`] seam as the in-process
//! [`crate::VirtualTransport`], so the two cannot diverge in decoding,
//! admin handling, or error behavior.
//!
//! Mechanics, per event loop:
//!
//! * **Reads** are nonblocking and level-triggered: on readiness a
//!   connection is drained into its per-connection read buffer, then
//!   its complete (`\n`-terminated) lines are dispatched. Partial
//!   trailing bytes stay in the buffer across reads, so a slow-loris
//!   client dribbling a request byte-at-a-time is reassembled, never
//!   torn. A line longer than [`MAX_LINE_BYTES`] is refused with one
//!   error line and the connection is closed, which bounds the buffer.
//! * **One recommendation in flight per connection.** While a
//!   connection is owed a shard's answer, its later lines wait in the
//!   read buffer and its read interest stays parked, so a client that
//!   pipelines faster than the shards answer is held back by its own
//!   kernel socket buffer: the admission queue is bounded by the
//!   connection count, not by how much one client writes. A cache hit
//!   never occupies that slot: the endpoint answers it at admission, on
//!   this loop's thread, so a connection's pipelined hits are answered
//!   in one `advance` pass — bounded by the read buffer's
//!   [`MAX_LINE_BYTES`] cap, with reads parked once the outbox passes
//!   its high-water mark. Inline answers (cache hits, stats, admin,
//!   sheds, malformed lines) are only produced once the owed answer is
//!   out, so replies leave in request order. A shard finishing a job
//!   fires the loop's [`Waker`] (via
//!   [`Endpoint::handle_line_with_notify`]), so the loop never polls an
//!   answer it was not told about.
//! * **Write backpressure** is per-connection: outgoing bytes buffer in
//!   an outbox flushed as the socket accepts them; while the outbox is
//!   over its high-water mark the connection's read interest is parked
//!   as well, so a slow reader stalls only itself — never a shard,
//!   never a neighbor.
//!
//! Admission control under overload is not here: it lives at the
//! [`Endpoint`] seam (`ServeConfig::overload`), where the in-process
//! client shares it.

use std::collections::BTreeSet;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::os::unix::io::AsRawFd;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

use mini_poll::{Event, Interest, Poller, Waker};

use crate::protocol::{encode_line, Response};
use crate::server::{Endpoint, NotifyFn, Pending, Submission};
use crate::transport::{BoundAddr, Shutdown, Transport};

/// Outbox bytes above which a connection's read interest is parked
/// until the client drains what it already owes — the per-connection
/// write backpressure bound.
const OUTBOX_HIGH_WATER: usize = 256 * 1024;

/// The longest request line a connection may send, newline excluded.
/// A longer line — or more than this many buffered bytes without a
/// newline — is answered with one error line, and the connection is
/// closed.
pub const MAX_LINE_BYTES: usize = 64 * 1024;

/// Poller token of each thread's waker (connections use `slab+1`).
const TOKEN_WAKER: usize = 0;
/// Acceptor-poller token of the listener.
const TOKEN_LISTENER: usize = 1;

/// The event-driven NDJSON-over-TCP front end. See the module docs.
pub struct EventTransport {
    addrs: Vec<SocketAddr>,
    listener: Option<TcpListener>,
    local: Option<SocketAddr>,
    threads: usize,
    shutdown: Shutdown,
    acceptor: Option<JoinHandle<()>>,
    acceptor_waker: Option<Arc<Waker>>,
    loops: Vec<(JoinHandle<()>, Arc<LoopShared>)>,
}

/// The cross-thread half of one event loop: the acceptor hands accepted
/// streams over through `incoming`, and anyone (acceptor, shards via
/// the notify hook, `stop()`) can interrupt the loop's poller wait
/// through the shared waker.
struct LoopShared {
    waker: Arc<Waker>,
    incoming: Mutex<Vec<TcpStream>>,
}

impl EventTransport {
    /// A front end that will listen on `addr` with `threads` event-loop
    /// threads (clamped to at least 1). Nothing is bound until
    /// [`Transport::bind`].
    ///
    /// # Errors
    ///
    /// Returns the address resolution error.
    pub fn new(addr: impl ToSocketAddrs, threads: usize) -> io::Result<EventTransport> {
        let addrs: Vec<SocketAddr> = addr.to_socket_addrs()?.collect();
        if addrs.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::AddrNotAvailable,
                "address resolved to nothing",
            ));
        }
        Ok(EventTransport {
            addrs,
            listener: None,
            local: None,
            threads: threads.max(1),
            shutdown: Shutdown::new(),
            acceptor: None,
            acceptor_waker: None,
            loops: Vec::new(),
        })
    }
}

impl Transport for EventTransport {
    fn bind(&mut self) -> io::Result<BoundAddr> {
        if self.listener.is_some() || self.local.is_some() {
            return Err(io::Error::other("EventTransport already bound"));
        }
        let listener = TcpListener::bind(&self.addrs[..])?;
        let local = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        self.listener = Some(listener);
        self.local = Some(local);
        Ok(BoundAddr::Tcp(local))
    }

    fn run(&mut self, endpoint: Endpoint) -> io::Result<()> {
        let listener = self
            .listener
            .take()
            .ok_or_else(|| io::Error::other("EventTransport not bound (or already running)"))?;
        // event loops first, so the acceptor never sees an empty pool
        for i in 0..self.threads {
            let poller = Poller::new()?;
            let waker = Arc::new(Waker::new(&poller, TOKEN_WAKER)?);
            let shared = Arc::new(LoopShared {
                waker,
                incoming: Mutex::new(Vec::new()),
            });
            let handle = {
                let endpoint = endpoint.clone();
                let shutdown = self.shutdown.clone();
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("ai2-serve-evloop-{i}"))
                    .spawn(move || event_loop_main(&endpoint, &shutdown, &poller, &shared))?
            };
            self.loops.push((handle, shared));
        }
        let accept_poller = Poller::new()?;
        let accept_waker = Arc::new(Waker::new(&accept_poller, TOKEN_WAKER)?);
        accept_poller.register(listener.as_raw_fd(), TOKEN_LISTENER, Interest::READABLE)?;
        self.acceptor_waker = Some(Arc::clone(&accept_waker));
        let handle = {
            let shutdown = self.shutdown.clone();
            let endpoint = endpoint.clone();
            let pool: Vec<Arc<LoopShared>> =
                self.loops.iter().map(|(_, s)| Arc::clone(s)).collect();
            std::thread::Builder::new()
                .name("ai2-serve-evaccept".into())
                .spawn(move || {
                    accept_loop(
                        &endpoint,
                        &shutdown,
                        &accept_poller,
                        &accept_waker,
                        &listener,
                        &pool,
                    );
                })?
        };
        self.acceptor = Some(handle);
        Ok(())
    }

    fn stop(&mut self) {
        self.shutdown.request();
        if let Some(waker) = self.acceptor_waker.take() {
            waker.wake();
        }
        if let Some(h) = self.acceptor.take() {
            h.join().expect("event acceptor panicked");
        }
        for (handle, shared) in self.loops.drain(..) {
            shared.waker.wake();
            handle.join().expect("event loop panicked");
        }
    }
}

/// The acceptor: parked on its poller (no sleep-polling), it drains
/// every pending accept on listener readiness and deals the streams
/// round-robin across the loop pool.
fn accept_loop(
    endpoint: &Endpoint,
    shutdown: &Shutdown,
    poller: &Poller,
    waker: &Waker,
    listener: &TcpListener,
    pool: &[Arc<LoopShared>],
) {
    let mut events = Vec::new();
    let mut next = 0usize;
    while !shutdown.requested() && !endpoint.stopped() {
        // bounded wait: the waker covers shutdown, the timeout covers a
        // service stopped without the transport being told
        if poller.wait(&mut events, 500).is_err() {
            return;
        }
        waker.drain();
        loop {
            match listener.accept() {
                Ok((stream, _)) => {
                    stream.set_nodelay(true).ok();
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let lane = &pool[next % pool.len()];
                    next = next.wrapping_add(1);
                    crate::lock(&lane.incoming).push(stream);
                    lane.waker.wake();
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return,
            }
        }
    }
}

/// One multiplexed connection's state inside an event loop.
struct Conn {
    stream: TcpStream,
    /// Partial-line reassembly buffer: bytes read but not yet
    /// dispatched survive here across reads.
    rbuf: Vec<u8>,
    /// Encoded response bytes not yet written to the socket.
    outbox: Vec<u8>,
    /// The one admitted recommendation this connection is owed. While
    /// it is, later lines wait in `rbuf` and reads stay parked.
    pending: Option<Pending>,
    /// EOF seen or the line cap tripped: read no more, close once
    /// every owed reply is flushed.
    closing: bool,
    /// The (readable, writable) interest currently registered.
    interest: (bool, bool),
}

/// Appends `resp` to `out` as one wire line.
fn push_line(out: &mut Vec<u8>, resp: &Response) {
    out.extend_from_slice(encode_line(resp).as_bytes());
    out.push(b'\n');
}

impl Conn {
    fn new(stream: TcpStream) -> Conn {
        Conn {
            stream,
            rbuf: Vec::new(),
            outbox: Vec::new(),
            pending: None,
            closing: false,
            interest: (true, false),
        }
    }

    /// Drains the socket into `rbuf` until it would block, hits EOF, or
    /// `rbuf` holds more than a line may (the rest waits in the kernel
    /// buffer). A read error abandons the connection.
    fn fill(&mut self, scratch: &mut [u8]) {
        while self.rbuf.len() <= MAX_LINE_BYTES {
            match (&self.stream).read(scratch) {
                Ok(0) => {
                    self.closing = true;
                    return;
                }
                Ok(n) => self.rbuf.extend_from_slice(&scratch[..n]),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return self.abandon(),
            }
        }
    }

    /// Gives up on a dead peer: nothing more is read, dispatched or
    /// written, and an owed answer is dropped when it lands.
    fn abandon(&mut self) {
        self.closing = true;
        self.pending = None;
        self.rbuf.clear();
        self.outbox.clear();
    }

    /// Moves the connection forward: takes the owed answer once it has
    /// landed, then dispatches buffered lines until one is admitted to
    /// a shard or no complete line is left. A line over
    /// [`MAX_LINE_BYTES`] is answered with an error and closes the
    /// connection.
    fn advance(&mut self, endpoint: &Endpoint, notify: &NotifyFn) {
        if let Some(pending) = &self.pending {
            let Some(resp) = pending.poll() else {
                return;
            };
            push_line(&mut self.outbox, &resp);
            self.pending = None;
        }
        let mut start = 0usize;
        while self.pending.is_none() {
            let rest = &self.rbuf[start..];
            match rest.iter().position(|&b| b == b'\n') {
                Some(len) if len <= MAX_LINE_BYTES => {
                    let line = String::from_utf8_lossy(&rest[..len]);
                    match endpoint.handle_line_with_notify(&line, Some(Arc::clone(notify))) {
                        Submission::Ignored => {}
                        Submission::Ready(resp) => push_line(&mut self.outbox, &resp),
                        Submission::Queued(pending) => self.pending = Some(pending),
                    }
                    start += len + 1;
                }
                None if rest.len() <= MAX_LINE_BYTES => break,
                _ => {
                    push_line(&mut self.outbox, &endpoint.line_too_long());
                    self.closing = true;
                    start = self.rbuf.len();
                    break;
                }
            }
        }
        self.rbuf.drain(..start);
    }

    /// Writes as much of the outbox as the socket accepts right now.
    /// `false` means the connection died mid-write.
    fn flush(&mut self) -> bool {
        while !self.outbox.is_empty() {
            match (&self.stream).write(&self.outbox) {
                Ok(0) => return false,
                Ok(n) => {
                    self.outbox.drain(..n);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return false,
            }
        }
        true
    }

    /// Whether every reply this connection will ever get is written.
    fn finished(&self) -> bool {
        self.closing && self.pending.is_none() && self.outbox.is_empty()
    }

    /// The interest this connection wants right now: writable while
    /// bytes are owed; readable unless closing, owed a shard's answer,
    /// or over the outbox high-water mark.
    fn wanted_interest(&self) -> (bool, bool) {
        let readable =
            !self.closing && self.pending.is_none() && self.outbox.len() < OUTBOX_HIGH_WATER;
        (readable, !self.outbox.is_empty())
    }
}

/// One event loop: multiplexes its share of the connections over a
/// single poller, dispatching complete lines through the shared
/// [`Endpoint`] seam.
fn event_loop_main(endpoint: &Endpoint, shutdown: &Shutdown, poller: &Poller, shared: &LoopShared) {
    // the per-loop completion hook every queued submission carries:
    // shards wake this loop the moment an answer lands
    let notify: NotifyFn = {
        let waker = Arc::clone(&shared.waker);
        Arc::new(move || waker.wake())
    };
    let mut slab: Vec<Option<Conn>> = Vec::new();
    let mut free: Vec<usize> = Vec::new();
    // connections owed a shard's answer, revisited on every wake
    let mut waiting: BTreeSet<usize> = BTreeSet::new();
    let mut events: Vec<Event> = Vec::new();
    let mut scratch = [0u8; 16 * 1024];
    while !shutdown.requested() && !endpoint.stopped() {
        if poller.wait(&mut events, 500).is_err() {
            return;
        }
        let mut woken = false;
        let mut touched: Vec<usize> = Vec::new();
        for ev in &events {
            if ev.token == TOKEN_WAKER {
                woken = true;
                continue;
            }
            touched.push(ev.token - 1);
            let Some(conn) = slab.get_mut(ev.token - 1).and_then(Option::as_mut) else {
                continue;
            };
            if ev.hangup && !matches!(conn.stream.take_error(), Ok(None)) {
                conn.abandon();
            } else if ev.readable || ev.hangup {
                conn.fill(&mut scratch);
            }
        }
        if woken {
            shared.waker.drain();
            // adopt streams the acceptor dealt to this loop
            let incoming = std::mem::take(&mut *crate::lock(&shared.incoming));
            for stream in incoming {
                let idx = free.pop().unwrap_or_else(|| {
                    slab.push(None);
                    slab.len() - 1
                });
                if poller
                    .register(stream.as_raw_fd(), idx + 1, Interest::READABLE)
                    .is_ok()
                {
                    slab[idx] = Some(Conn::new(stream));
                } else {
                    free.push(idx);
                }
            }
            // an answer may have landed for any waiting connection
            touched.extend(waiting.iter().copied());
        }
        // dispatch + flush + interest maintenance for every connection
        // poked above
        touched.sort_unstable();
        touched.dedup();
        for idx in touched {
            let Some(conn) = slab.get_mut(idx).and_then(Option::as_mut) else {
                continue;
            };
            conn.advance(endpoint, &notify);
            let alive = conn.flush();
            if conn.pending.is_some() {
                waiting.insert(idx);
            } else {
                waiting.remove(&idx);
            }
            if !alive || conn.finished() {
                let conn = slab[idx].take().expect("connection just seen");
                let _ = poller.deregister(conn.stream.as_raw_fd());
                // FIN before close: the peer reads every reply, then
                // EOF, even when its unread request bytes make the
                // close itself a reset
                let _ = conn.stream.shutdown(std::net::Shutdown::Write);
                waiting.remove(&idx);
                free.push(idx);
                continue;
            }
            let want = conn.wanted_interest();
            if want != conn.interest {
                let interest = Interest {
                    readable: want.0,
                    writable: want.1,
                };
                if poller
                    .modify(conn.stream.as_raw_fd(), idx + 1, interest)
                    .is_ok()
                {
                    conn.interest = want;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{decode_line, AdminRequest, Query, RecommendRequest, Request};
    use crate::server::{Driver, RecommendService, ServeConfig};
    use crate::transport::TcpClient;
    use crate::OverloadPolicy;
    use ai2_dse::{Budget, DseDataset, DseTask, EvalEngine, GenerateConfig, Objective};
    use airchitect::train::TrainConfig;
    use airchitect::{Airchitect2, ModelCheckpoint, ModelConfig};
    use std::io::BufRead;
    use std::time::{Duration, Instant};

    fn gemm_req(id: u64, m: u64) -> RecommendRequest {
        RecommendRequest {
            id,
            query: Query::Gemm {
                m,
                n: 280,
                k: 140,
                dataflow: "os".into(),
            },
            objective: Objective::Latency,
            budget: Budget::Edge,
            deadline_ms: None,
            backend: None,
            pipeline: None,
        }
    }

    fn trained() -> (DseTask, ModelCheckpoint) {
        let task = DseTask::table_i_default();
        let ds = DseDataset::generate(
            &task,
            &GenerateConfig {
                num_samples: 40,
                seed: 21,
                threads: 2,
                ..GenerateConfig::default()
            },
        );
        let engine = EvalEngine::shared(task.clone());
        let mut model = Airchitect2::with_engine(&ModelConfig::tiny(), engine, &ds);
        model.fit(&ds, &TrainConfig::quick());
        (task, model.checkpoint())
    }

    /// A manually stepped single-shard service with the given overload
    /// policy, listening on one event loop.
    fn stepped(overload: OverloadPolicy) -> (RecommendService, SocketAddr) {
        let (task, ckpt) = trained();
        let mut service = RecommendService::start_with(
            ServeConfig {
                driver: Driver::Manual,
                overload,
                shards: 1,
                ..ServeConfig::default()
            },
            EvalEngine::shared(task),
            ckpt,
            Arc::new(crate::clock::VirtualClock::new()),
        );
        let addr = one_loop(&mut service);
        (service, addr)
    }

    fn one_loop(service: &mut RecommendService) -> SocketAddr {
        let transport = EventTransport::new("127.0.0.1:0", 1).unwrap();
        service.attach(Box::new(transport)).unwrap().tcp().unwrap()
    }

    fn write_line(client: &mut TcpClient, req: &Request) {
        let mut wire = encode_line(req).into_bytes();
        wire.push(b'\n');
        client.writer.write_all(&wire).unwrap();
    }

    fn read_response(client: &mut TcpClient) -> Response {
        let mut line = String::new();
        client.reader.read_line(&mut line).unwrap();
        decode_line(&line).unwrap_or_else(|e| panic!("bad response {line:?}: {e}"))
    }

    /// Polls `cond` until it holds, failing after five seconds.
    fn wait_for(what: &str, cond: impl Fn() -> bool) {
        let start = Instant::now();
        while !cond() {
            assert!(
                start.elapsed() < Duration::from_secs(5),
                "timed out: {what}"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    #[test]
    fn event_frontend_answers_bit_identically_to_the_in_process_client() {
        let (task, ckpt) = trained();
        let inproc = RecommendService::start(
            ServeConfig::default(),
            EvalEngine::shared(task.clone()),
            ckpt.clone(),
        );
        let mut tcp =
            RecommendService::start(ServeConfig::default(), EvalEngine::shared(task), ckpt);
        let addr = tcp.listen("127.0.0.1:0").unwrap();

        let local = inproc.client();
        let mut remote = TcpClient::connect(addr).unwrap();
        for (id, m) in [(1u64, 48u64), (2, 96), (3, 48)] {
            let a = local.recommend(gemm_req(id, m));
            let b = remote.send(&Request::Recommend(gemm_req(id, m))).unwrap();
            let (Response::Recommendation(a), Response::Recommendation(b)) = (&a, &b) else {
                panic!("expected recommendations, got {a:?} / {b:?}");
            };
            assert_eq!(
                a.point, b.point,
                "TCP and in-process disagree on the design point"
            );
            assert_eq!(a.cost.to_bits(), b.cost.to_bits());
        }
        // admin and malformed lines answer inline on the same socket
        let stats = remote
            .send(&Request::Admin(AdminRequest::Stats { id: 9 }))
            .unwrap();
        assert!(matches!(&stats, Response::Stats(s) if s.id == 9 && s.served == 3));
        remote.writer.write_all(b"{not json}\n").unwrap();
        let mut line = String::new();
        remote.reader.read_line(&mut line).unwrap();
        assert!(line.contains("malformed"), "unexpected {line:?}");
        inproc.shutdown();
        tcp.shutdown();
    }

    #[test]
    fn slow_loris_bytes_reassemble_while_other_connections_proceed() {
        let (task, ckpt) = trained();
        let mut service =
            RecommendService::start(ServeConfig::default(), EvalEngine::shared(task), ckpt);
        let addr = one_loop(&mut service);

        // the straggler dribbles its request one byte at a time
        let mut loris = TcpClient::connect(addr).unwrap();
        let mut wire = encode_line(&Request::Recommend(gemm_req(77, 48))).into_bytes();
        wire.push(b'\n');
        let (head, tail) = wire.split_at(wire.len() / 2);
        for &b in head {
            loris.writer.write_all(&[b]).unwrap();
            loris.writer.flush().unwrap();
        }
        // a well-behaved neighbor on the same (single!) event loop is
        // answered while the straggler's line is still incomplete
        let mut fast = TcpClient::connect(addr).unwrap();
        for id in 1..=3u64 {
            let resp = fast.send(&Request::Recommend(gemm_req(id, 96))).unwrap();
            assert!(matches!(&resp, Response::Recommendation(r) if r.id == id));
        }
        for &b in tail {
            loris.writer.write_all(&[b]).unwrap();
            loris.writer.flush().unwrap();
        }
        let Response::Recommendation(r) = read_response(&mut loris) else {
            panic!("straggler expected a recommendation");
        };
        assert_eq!(r.id, 77);
        service.shutdown();
    }

    #[test]
    fn pipelined_lines_are_admitted_one_at_a_time_and_answered_in_order() {
        let (service, addr) = stepped(OverloadPolicy::Queue);
        let mut client = TcpClient::connect(addr).unwrap();
        for id in 1..=8u64 {
            write_line(&mut client, &Request::Recommend(gemm_req(id, 40 + id)));
        }
        for id in 1..=8u64 {
            // the connection's next line is admitted only once the
            // previous answer is out, however much it has pipelined
            wait_for("next line admitted", || service.queued() > 0);
            std::thread::sleep(Duration::from_millis(20));
            assert_eq!(service.queued(), 1, "more than one line in flight");
            assert!(service.step_shard(0));
            let Response::Recommendation(r) = read_response(&mut client) else {
                panic!("request {id} expected a recommendation");
            };
            assert_eq!(r.id, id, "replies out of request order");
        }
        assert_eq!(service.queued(), 0);
        service.shutdown();
    }

    #[test]
    fn sheds_answer_inline_in_order_and_reconcile_in_stats() {
        let (service, addr) = stepped(OverloadPolicy::Shed { high_water: 2 });
        // one line on each of five connections: with a manual driver
        // the queue cannot drain, so exactly high_water are admitted
        // and the rest shed inline
        let mut clients: Vec<TcpClient> = (1..=5u64)
            .map(|id| {
                let mut client = TcpClient::connect(addr).unwrap();
                write_line(&mut client, &Request::Recommend(gemm_req(id, 48)));
                client
            })
            .collect();
        wait_for("two admitted, three shed", || {
            service.queued() == 2 && service.stats().sheds == 3
        });
        while service.step_shard(0) {}
        let (mut served, mut shed) = (0, 0);
        for (id, client) in (1..=5u64).zip(&mut clients) {
            match read_response(client) {
                Response::Recommendation(r) => {
                    assert_eq!(r.id, id);
                    served += 1;
                }
                Response::Error { id: rid, message } => {
                    assert_eq!(rid, id);
                    assert!(message.contains("shedding"), "unexpected {message:?}");
                    shed += 1;
                }
                other => panic!("unexpected {other:?}"),
            }
        }
        assert_eq!((served, shed), (2, 3));
        let stats = clients[0]
            .send(&Request::Admin(AdminRequest::Stats { id: 6 }))
            .unwrap();
        let Response::Stats(s) = stats else {
            panic!("expected stats, got {stats:?}");
        };
        assert_eq!(s.sheds, 3, "every refused request must be counted");
        assert_eq!(s.served, 2);
        assert!(
            s.queue_high_water >= 2,
            "high water saw {0}",
            s.queue_high_water
        );
        service.shutdown();
    }

    #[test]
    fn an_endless_line_is_refused_and_closed_while_neighbors_are_served() {
        let (task, ckpt) = trained();
        let mut service =
            RecommendService::start(ServeConfig::default(), EvalEngine::shared(task), ckpt);
        let addr = one_loop(&mut service);
        let mut neighbor = TcpClient::connect(addr).unwrap();
        let mut hog = TcpClient::connect(addr).unwrap();
        hog.writer
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        // the server stops reading long before 1 MiB, so the tail of
        // this write may fail against the closed socket
        let _ = hog.writer.write_all(&vec![b'x'; 1 << 20]);
        let mut line = String::new();
        hog.reader.read_line(&mut line).unwrap();
        let Ok(Response::Error { message, .. }) = decode_line::<Response>(&line) else {
            panic!("expected the line-cap error, got {line:?}");
        };
        assert!(message.contains(&MAX_LINE_BYTES.to_string()), "{message:?}");
        line.clear();
        assert_eq!(
            hog.reader.read_line(&mut line).unwrap(),
            0,
            "then EOF: {line:?}"
        );

        let resp = neighbor.send(&Request::Recommend(gemm_req(5, 48))).unwrap();
        assert!(
            matches!(&resp, Response::Recommendation(r) if r.id == 5),
            "{resp:?}"
        );
        assert_eq!(service.stats().line_cap_closes, 1);
        service.shutdown();
    }

    #[test]
    fn a_deeply_nested_line_is_malformed_and_the_connection_lives_on() {
        let (task, ckpt) = trained();
        let mut service =
            RecommendService::start(ServeConfig::default(), EvalEngine::shared(task), ckpt);
        let addr = one_loop(&mut service);
        let mut client = TcpClient::connect(addr).unwrap();
        let mut nested = vec![b'['; 50_000];
        assert!(nested.len() < MAX_LINE_BYTES);
        nested.push(b'\n');
        client.writer.write_all(&nested).unwrap();
        let mut line = String::new();
        client.reader.read_line(&mut line).unwrap();
        assert!(
            line.contains("malformed request line"),
            "unexpected {line:?}"
        );
        let resp = client.send(&Request::Recommend(gemm_req(3, 48))).unwrap();
        assert!(
            matches!(&resp, Response::Recommendation(r) if r.id == 3),
            "{resp:?}"
        );
        service.shutdown();
    }
}
