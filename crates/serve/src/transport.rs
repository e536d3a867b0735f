//! Pluggable line transports: how encoded protocol lines travel between
//! clients and the service [`Endpoint`].
//!
//! Both implementations dispatch every received line through the *same*
//! [`Endpoint::handle_line`] seam, so they cannot diverge in decoding,
//! admin handling, or error behavior:
//!
//! * [`crate::EventTransport`] — the NDJSON-over-TCP front end: one
//!   acceptor plus a small pool of event-loop threads multiplexing all
//!   connections through a readiness poller (see `event.rs`).
//! * [`VirtualTransport`] — the deterministic in-process transport the
//!   `ai2_simtest` harness drives: no sockets, no threads, no wall
//!   clock. Scripted client lines sit in per-connection outboxes with
//!   explicit earliest-delivery stamps; the test driver decides, one
//!   call at a time, which line is delivered next and when in-flight
//!   answers are polled — so the whole exchange replays bit-for-bit
//!   from a seed, including injected delays and disconnects.
//!
//! [`TcpClient`] is the blocking client side of the TCP front end.

use std::collections::VecDeque;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use crate::event::MAX_LINE_BYTES;
use crate::protocol::{decode_line, encode_line, Request, Response};
use crate::server::{Endpoint, Pending, Submission};

/// What a transport is reachable at after [`Transport::bind`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BoundAddr {
    /// A real socket address clients can connect to.
    Tcp(SocketAddr),
    /// No address: lines are injected in-process (the virtual
    /// transport).
    InProcess,
}

impl BoundAddr {
    /// The socket address, when there is one.
    pub fn tcp(&self) -> Option<SocketAddr> {
        match self {
            BoundAddr::Tcp(addr) => Some(*addr),
            BoundAddr::InProcess => None,
        }
    }
}

/// A sharable stop signal: a transport hands clones of one `Shutdown`
/// to the threads it spawns, and [`Transport::stop`] requests
/// it before joining them. Cloning is cheap (an `Arc` bump) and any
/// clone can both request and observe the signal.
#[derive(Debug, Clone, Default)]
pub struct Shutdown(Arc<AtomicBool>);

impl Shutdown {
    /// A fresh, un-requested signal.
    pub fn new() -> Shutdown {
        Shutdown::default()
    }

    /// Asks every holder of this signal to wind down. Idempotent.
    pub fn request(&self) {
        self.0.store(true, Ordering::SeqCst);
    }

    /// Whether shutdown has been requested.
    pub fn requested(&self) -> bool {
        self.0.load(Ordering::SeqCst)
    }
}

/// A line transport bound to a service [`Endpoint`].
///
/// The contract is deliberately small: a transport moves request lines
/// *into* [`Endpoint::handle_line`] and response lines *back* to
/// whichever client sent them; how lines arrive (sockets, in-process
/// queues) and when (wall clock, simulated schedule) is the
/// implementation's business. The lifecycle is split so callers learn
/// the address before any traffic flows: [`Transport::bind`] claims
/// resources (sockets) and reports where the transport listens,
/// [`Transport::run`] starts moving lines, [`Transport::stop`] winds
/// down and joins every thread the transport spawned.
pub trait Transport: Send {
    /// Claims the transport's resources and reports its address.
    ///
    /// # Errors
    ///
    /// Returns the bind error (e.g. the port is taken), or an error if
    /// already bound.
    fn bind(&mut self) -> io::Result<BoundAddr>;

    /// Starts moving lines against `endpoint`. Requires a prior
    /// [`Transport::bind`].
    ///
    /// # Errors
    ///
    /// Returns the startup error (e.g. thread spawn failure, run before
    /// bind).
    fn run(&mut self, endpoint: Endpoint) -> io::Result<()>;

    /// Stops the transport and joins every thread it spawned.
    fn stop(&mut self);
}

// --------------------------------------------------------------------
// TCP client

/// A blocking NDJSON client over one TCP connection — what the load
/// generator and the CI smoke test speak.
pub struct TcpClient {
    pub(crate) reader: BufReader<TcpStream>,
    pub(crate) writer: TcpStream,
}

impl TcpClient {
    /// Connects to a running service.
    ///
    /// # Errors
    ///
    /// Returns the connection error.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<TcpClient> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        Ok(TcpClient {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
        })
    }

    /// Sends one request line and blocks for its response line.
    ///
    /// # Errors
    ///
    /// Returns an error on transport failure or an unparsable response.
    pub fn send(&mut self, req: &Request) -> io::Result<Response> {
        self.writer.write_all(encode_line(req).as_bytes())?;
        self.writer.write_all(b"\n")?;
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        decode_line(&line).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))
    }
}

// --------------------------------------------------------------------
// virtual

/// What one [`VirtualTransport::deliver_next`] call did.
// an `Answered` response is consumed by the caller in the same step it
// is produced, so the size skew against the unit variants is transient
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
pub enum Delivery {
    /// The line was answered inline (stats, admin, malformed input). A
    /// line over [`MAX_LINE_BYTES`] is answered with the TCP front end's
    /// line-cap error and disconnects the connection.
    Answered(Response),
    /// The line was a recommendation and is now queued for a shard.
    Submitted,
    /// The line was consumed but owes no response (a blank keepalive —
    /// the same lines the TCP path skips without answering).
    Ignored,
    /// The connection's front line is still under its delivery delay.
    Held,
    /// The connection has nothing queued.
    Empty,
    /// The connection was disconnected; nothing can be delivered.
    Disconnected,
}

struct HeldLine {
    line: String,
    /// Virtual-clock nanosecond before which the line must not arrive
    /// at the server (injected network delay).
    not_before_ns: u64,
}

struct VirtualConn {
    connected: bool,
    outbox: VecDeque<HeldLine>,
    /// Queued recommendations awaiting a shard, in submission order.
    inflight: VecDeque<Pending>,
}

impl VirtualConn {
    /// Hangs up: undelivered lines are discarded, in-flight requests
    /// stay.
    fn close(&mut self) {
        self.connected = false;
        self.outbox.clear();
    }
}

/// The deterministic in-process transport: per-connection outboxes of
/// scripted lines, explicit delivery, explicit completion polling. All
/// ordering decisions belong to the caller (the simulation driver), so
/// a run is a pure function of the call sequence.
#[derive(Default)]
pub struct VirtualTransport {
    endpoint: Option<Endpoint>,
    conns: Vec<VirtualConn>,
}

impl VirtualTransport {
    /// An unstarted transport with no connections.
    pub fn new() -> VirtualTransport {
        VirtualTransport::default()
    }

    /// Opens a new virtual connection and returns its id.
    pub fn open(&mut self) -> usize {
        self.conns.push(VirtualConn {
            connected: true,
            outbox: VecDeque::new(),
            inflight: VecDeque::new(),
        });
        self.conns.len() - 1
    }

    /// Number of connections ever opened (ids are never reused).
    pub fn conns(&self) -> usize {
        self.conns.len()
    }

    /// Whether `conn` is still connected.
    pub fn connected(&self, conn: usize) -> bool {
        self.conns[conn].connected
    }

    /// Drops the connection: undelivered lines are discarded (they
    /// never reached the server), but requests already admitted stay
    /// in flight — exactly like a TCP client hanging up mid-compute —
    /// and still surface through [`VirtualTransport::poll`].
    pub fn disconnect(&mut self, conn: usize) {
        self.conns[conn].close();
    }

    /// Scripts one wire line on `conn`, to be delivered no earlier than
    /// virtual-clock nanosecond `not_before_ns`.
    pub fn enqueue(&mut self, conn: usize, line: String, not_before_ns: u64) {
        assert!(self.conns[conn].connected, "enqueue on a dead connection");
        self.conns[conn].outbox.push_back(HeldLine {
            line,
            not_before_ns,
        });
    }

    /// Delivers the front line of `conn`'s outbox to the endpoint if
    /// its delay has elapsed at virtual time `now_ns`. A line over
    /// [`MAX_LINE_BYTES`] never reaches the endpoint: like the TCP front
    /// end, the transport answers it with one error and disconnects.
    pub fn deliver_next(&mut self, conn: usize, now_ns: u64) -> Delivery {
        let endpoint = self.endpoint.as_ref().expect("transport not started");
        let c = &mut self.conns[conn];
        if !c.connected {
            return Delivery::Disconnected;
        }
        let Some(front) = c.outbox.front() else {
            return Delivery::Empty;
        };
        if now_ns < front.not_before_ns {
            return Delivery::Held;
        }
        let held = c.outbox.pop_front().expect("front just seen");
        if held.line.len() > MAX_LINE_BYTES {
            c.close();
            return Delivery::Answered(endpoint.line_too_long());
        }
        match endpoint.handle_line(&held.line) {
            Submission::Ignored => Delivery::Ignored,
            Submission::Ready(resp) => Delivery::Answered(resp),
            Submission::Queued(pending) => {
                c.inflight.push_back(pending);
                Delivery::Submitted
            }
        }
    }

    /// Polls every in-flight submission across all connections (in
    /// connection order, then submission order — deterministic) and
    /// returns the newly completed `(conn, response)` pairs.
    pub fn poll(&mut self) -> Vec<(usize, Response)> {
        let mut done = Vec::new();
        for (id, conn) in self.conns.iter_mut().enumerate() {
            let mut still = VecDeque::with_capacity(conn.inflight.len());
            for pending in conn.inflight.drain(..) {
                match pending.poll() {
                    Some(resp) => done.push((id, resp)),
                    None => still.push_back(pending),
                }
            }
            conn.inflight = still;
        }
        done
    }

    /// Lines scripted but not yet delivered on one connection.
    pub fn held_on(&self, conn: usize) -> usize {
        self.conns[conn].outbox.len()
    }

    /// The largest `not_before_ns` of any held line (0 when none) — the
    /// virtual time by which every scripted line becomes deliverable.
    pub fn latest_hold_ns(&self) -> u64 {
        self.conns
            .iter()
            .flat_map(|c| c.outbox.iter().map(|l| l.not_before_ns))
            .max()
            .unwrap_or(0)
    }

    /// Admitted requests still awaiting an answer, across all
    /// connections.
    pub fn inflight(&self) -> usize {
        self.conns.iter().map(|c| c.inflight.len()).sum()
    }
}

impl Transport for VirtualTransport {
    fn bind(&mut self) -> io::Result<BoundAddr> {
        Ok(BoundAddr::InProcess)
    }

    fn run(&mut self, endpoint: Endpoint) -> io::Result<()> {
        self.endpoint = Some(endpoint);
        Ok(())
    }

    fn stop(&mut self) {
        self.endpoint = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::{Clock, VirtualClock};
    use crate::protocol::{AdminRequest, Query, RecommendRequest};
    use crate::server::{Driver, RecommendService, ServeConfig};
    use ai2_dse::{Budget, DseDataset, DseTask, EvalEngine, GenerateConfig, Objective};
    use airchitect::train::TrainConfig;
    use airchitect::{Airchitect2, ModelConfig};

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

    fn services() -> (RecommendService, RecommendService, Arc<VirtualClock>) {
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
        let mut model = Airchitect2::with_engine(&ModelConfig::tiny(), Arc::clone(&engine), &ds);
        model.fit(&ds, &TrainConfig::quick());
        let ckpt = model.checkpoint();
        let threaded = RecommendService::start(ServeConfig::default(), engine, ckpt.clone());
        let clock = Arc::new(VirtualClock::new());
        let stepped = RecommendService::start_with(
            ServeConfig {
                driver: Driver::Manual,
                ..ServeConfig::default()
            },
            EvalEngine::shared(task),
            ckpt,
            Arc::clone(&clock) as Arc<dyn Clock>,
        );
        (threaded, stepped, clock)
    }

    #[test]
    fn virtual_transport_matches_the_threaded_in_process_path() {
        let (threaded, stepped, clock) = services();
        // ground truth from the production threaded service
        let expected = threaded.client().recommend(gemm_req(7, 48));
        threaded.shutdown();

        let mut vt = VirtualTransport::new();
        assert_eq!(vt.bind().unwrap(), BoundAddr::InProcess);
        vt.run(stepped.endpoint()).unwrap();
        let conn = vt.open();
        vt.enqueue(
            conn,
            crate::protocol::encode_line(&Request::Recommend(gemm_req(7, 48))),
            0,
        );
        assert!(matches!(
            vt.deliver_next(conn, clock.now_ns()),
            Delivery::Submitted
        ));
        assert!(vt.poll().is_empty(), "no shard has stepped yet");
        assert!(stepped.step_shard(0));
        let done = vt.poll();
        assert_eq!(done.len(), 1);
        assert_eq!(vt.inflight(), 0);
        let (Response::Recommendation(a), Response::Recommendation(b)) = (&done[0].1, &expected)
        else {
            panic!("expected recommendations: {done:?} / {expected:?}");
        };
        assert_eq!(a.point, b.point);
        assert_eq!(a.cost.to_bits(), b.cost.to_bits());
        stepped.shutdown();
    }

    #[test]
    fn virtual_transport_honors_delays_disconnects_and_inline_answers() {
        let (threaded, stepped, clock) = services();
        threaded.shutdown();
        let mut vt = VirtualTransport::new();
        vt.bind().unwrap();
        vt.run(stepped.endpoint()).unwrap();
        let conn = vt.open();

        // inline answers: stats and malformed lines never occupy a shard
        vt.enqueue(
            conn,
            crate::protocol::encode_line(&Request::Admin(AdminRequest::Stats { id: 9 })),
            0,
        );
        let Delivery::Answered(Response::Stats(s)) = vt.deliver_next(conn, clock.now_ns()) else {
            panic!("stats must answer inline");
        };
        assert_eq!(s.id, 9);
        vt.enqueue(conn, "{not json}".into(), 0);
        assert!(matches!(
            vt.deliver_next(conn, clock.now_ns()),
            Delivery::Answered(Response::Error { .. })
        ));

        // a blank keepalive is consumed without a response — and must
        // NOT masquerade as an empty outbox, or a driver would strand
        // the lines queued behind it
        vt.enqueue(conn, "  ".into(), 0);
        vt.enqueue(
            conn,
            crate::protocol::encode_line(&Request::Admin(AdminRequest::Stats { id: 11 })),
            0,
        );
        assert!(matches!(
            vt.deliver_next(conn, clock.now_ns()),
            Delivery::Ignored
        ));
        assert!(matches!(
            vt.deliver_next(conn, clock.now_ns()),
            Delivery::Answered(Response::Stats(s)) if s.id == 11
        ));

        // a delayed line is held until the virtual clock passes its stamp
        vt.enqueue(
            conn,
            crate::protocol::encode_line(&Request::Recommend(gemm_req(1, 33))),
            5_000_000,
        );
        assert!(matches!(
            vt.deliver_next(conn, clock.now_ns()),
            Delivery::Held
        ));
        assert_eq!(vt.latest_hold_ns(), 5_000_000);
        clock.advance_ms(5);
        assert!(matches!(
            vt.deliver_next(conn, clock.now_ns()),
            Delivery::Submitted
        ));

        // a disconnect drops undelivered lines but in-flight work still
        // completes (the server never drops an admitted request)
        vt.enqueue(conn, "{never delivered}".into(), 0);
        vt.disconnect(conn);
        assert!(!vt.connected(conn));
        assert_eq!(vt.held_on(conn), 0);
        assert!(matches!(
            vt.deliver_next(conn, clock.now_ns()),
            Delivery::Disconnected
        ));
        assert_eq!(vt.inflight(), 1);
        stepped.step_shard(1);
        let done = vt.poll();
        assert!(
            matches!(&done[..], [(c, Response::Recommendation(r))] if *c == conn && r.id == 1),
            "unexpected {done:?}"
        );
        stepped.shutdown();
    }

    #[test]
    fn virtual_transport_refuses_an_over_cap_line_and_disconnects() {
        let (threaded, stepped, clock) = services();
        threaded.shutdown();
        let mut vt = VirtualTransport::new();
        vt.bind().unwrap();
        vt.run(stepped.endpoint()).unwrap();
        let conn = vt.open();

        // a request admitted before the hog line stays in flight
        vt.enqueue(
            conn,
            crate::protocol::encode_line(&Request::Recommend(gemm_req(4, 40))),
            0,
        );
        assert!(matches!(
            vt.deliver_next(conn, clock.now_ns()),
            Delivery::Submitted
        ));
        // exactly at the cap is still a line the endpoint decodes
        vt.enqueue(conn, "x".repeat(MAX_LINE_BYTES), 0);
        assert!(matches!(
            vt.deliver_next(conn, clock.now_ns()),
            Delivery::Answered(Response::Error { message, .. })
                if message.starts_with("malformed request line")
        ));
        vt.enqueue(conn, "x".repeat(MAX_LINE_BYTES + 1), 0);
        vt.enqueue(conn, "{never delivered}".into(), 0);
        let Delivery::Answered(Response::Error { id, message }) =
            vt.deliver_next(conn, clock.now_ns())
        else {
            panic!("an over-cap line must be refused inline");
        };
        assert_eq!(id, 0);
        assert_eq!(
            message,
            format!("request line longer than {MAX_LINE_BYTES} bytes")
        );
        assert!(!vt.connected(conn));
        assert_eq!(stepped.stats().line_cap_closes, 1);
        assert_eq!(vt.held_on(conn), 0);
        assert!(matches!(
            vt.deliver_next(conn, clock.now_ns()),
            Delivery::Disconnected
        ));
        assert_eq!(vt.inflight(), 1);
        stepped.step_shard(0);
        let done = vt.poll();
        assert!(
            matches!(&done[..], [(c, Response::Recommendation(r))] if *c == conn && r.id == 4),
            "unexpected {done:?}"
        );
        stepped.shutdown();
    }
}
