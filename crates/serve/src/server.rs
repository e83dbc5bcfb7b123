//! The TCP transport: a readiness-driven event loop speaking the line
//! protocol — the only code in the workspace that accepts, frames,
//! caps, admits, writes back and drains line-protocol connections.
//! What answers a request sits behind one seam, the [`Service`] trait:
//! a worker ([`serve_with`]) is the FIFO [`Scheduler`] over an
//! [`Engine`], a cluster front (`systec-router`, via [`serve_service`])
//! one thread that owns the shard legs. All below holds for both.
//!
//! One loop thread owns the listener and every connection (nonblocking
//! std sockets with `TCP_NODELAY`); the service runs the work on
//! threads of its own. The loop blocks in the vendored [`polling`]
//! selector (`poll(2)`) with no timeout and, per wake-up, touches only
//! what fired: the listener readable → the accept sweep; a connection
//! readable → read, split lines, decode them and submit them to the
//! service tagged with a connection id; a completion (a cross-thread
//! `notify`) → queue the response line and write it at once, line and
//! newline in one `writev`; a `WouldBlock` on that write → ask for
//! writability until the queue empties. An idle server makes no
//! wake-ups. At most **one request per connection is in flight at a
//! time**, so responses on a connection always come back in request
//! order; requests from *different* connections run concurrently on a
//! worker's executors, each `run` its own execution.
//!
//! ## Admission control
//!
//! First-class engine-side backpressure, all structurally reported:
//!
//! * `max_conns` — a connection over the cap receives one
//!   `admission_rejected` error line and is closed;
//! * `max_registered_bytes` (an [`Engine`] builder) — an over-cap
//!   `register_tensor` is refused with `admission_rejected` after LRU
//!   eviction of unpinned tensors fails to make room;
//! * `deadline` — a request that waits in queue past the per-request
//!   deadline is answered `deadline_exceeded` instead of dispatched;
//! * an over-long request line gets a `line_too_long` error reply which
//!   is fully flushed before the connection closes — never a silent
//!   mid-stream drop (its framing is lost, so it cannot resynchronize).
//!
//! A request that fails to parse gets an error response and the
//! connection **stays open** — fault isolation between connections is a
//! test tier (`tests/fault_isolation.rs`).
//!
//! ## Shutdown and drain
//!
//! Both shutdown paths — a client's `shutdown` request and
//! [`RunningServer::shutdown`] — first **drain**: the loop stops
//! accepting connections and stops consuming new request lines, but
//! keeps delivering scheduler completions and flushing queued response
//! bytes until no request is in flight and every output queue is
//! empty, bounded by [`ServerConfig::drain_timeout`]. Only then are the
//! remaining connections severed and [`Service::stopped`] called (a
//! durable registry flushes its journal). A request answered before the
//! drain deadline is therefore never lost to shutdown. Afterward
//! [`RunningServer::wait`]/[`RunningServer::join`] join the loop thread
//! and the service's own threads — no thread leaks (asserted by the
//! fault tier via [`RunningServer::active_connections`]).

use std::collections::{HashMap, VecDeque};
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::client::line_tail;
use crate::engine::Engine;
use crate::fault::{FaultPlan, FaultSite};
use crate::protocol::{ErrorCode, Request, Response};
use crate::relock;
use crate::scheduler::Scheduler;

/// Upper bound on one request line. Large enough for a multi-megabyte
/// tensor registration, small enough that a client streaming bytes
/// without a newline cannot grow server memory without bound — past
/// the cap the connection gets a structured `line_too_long` error
/// response, which is drained to the socket before the connection is
/// closed (its request framing is lost, so resynchronization is
/// impossible).
pub const MAX_REQUEST_LINE: usize = 64 * 1024 * 1024;

/// Most bytes one read sweep takes from a connection before the loop
/// moves on to the next one (a few socket buffers). The poller is
/// level-triggered, so a socket with more to read is reported again
/// next turn and nothing is lost — and a peer that keeps its socket
/// full cannot hold the loop thread, and every other connection, until
/// it pauses.
const READ_BUDGET: usize = 256 * 1024;

/// How long the loop looks away from the listener after `accept`
/// failed for want of descriptors (`EMFILE` / `ENFILE`): the backlog
/// keeps the listener readable, so waiting on it again at once would
/// spin. The only timed wait outside the drain, and off the request
/// path.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(50);

/// The listener's poller key; connections count up from it.
const LISTENER: usize = 0;

/// Called with `(connection id, encoded response line)` when a
/// submitted request completes, from any thread. The line has no
/// trailing newline; the loop appends it on write.
pub type Completion = Arc<dyn Fn(u64, Arc<String>) + Send + Sync>;

/// What the event loop serves: whatever answers the requests it
/// decodes. Built around the loop's [`Completion`] ([`serve_service`])
/// and dropped by the loop as it exits, where it joins its own threads.
pub trait Service: Send {
    /// Answers `request`, decoded from `line` (no line terminator), for
    /// connection `conn`, with exactly one [`Completion`] call from any
    /// thread. The loop submits no more for `conn` until it arrives.
    fn submit(&self, conn: u64, request: Request, line: String);

    /// The loop answered by itself with an error of this code: a line
    /// that does not parse or broke the cap, a connection over the cap.
    fn refused(&self, code: ErrorCode);

    /// The fault plan whose connection-level sites the loop fires.
    fn fault_plan(&self) -> Option<&Arc<FaultPlan>> {
        None
    }

    /// A `shutdown` verb arrived as `line`; the loop acknowledges it
    /// and drains by itself. For whoever else must hear it.
    fn shutdown(&self, _line: String) {}

    /// The drain is over and every connection closed: make durable
    /// state current before the process counts as stopped.
    fn stopped(&self) {}
}

/// Transport tuning for [`serve_with`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Admission cap on concurrently served connections; a connection
    /// over the cap is refused with one `admission_rejected` line.
    /// `None` (the default) accepts without bound.
    pub max_conns: Option<usize>,
    /// Scheduler executor threads.
    pub executors: usize,
    /// Per-request queueing deadline; a request waiting longer is
    /// answered `deadline_exceeded` instead of dispatched. `None` (the
    /// default) never expires requests.
    pub deadline: Option<Duration>,
    /// Bound on the graceful drain: after shutdown is requested,
    /// in-flight requests get this long to complete and flush before
    /// the remaining connections are severed.
    pub drain_timeout: Duration,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            max_conns: None,
            executors: 2,
            deadline: None,
            drain_timeout: Duration::from_secs(5),
        }
    }
}

struct Shared {
    addr: SocketAddr,
    /// Programmatic shutdown flag ([`RunningServer::shutdown`]).
    shutdown: AtomicBool,
    /// Connections currently owned by the event loop.
    active: AtomicUsize,
    /// Where the event loop blocks; completions and shutdown notify it.
    poller: polling::Poller,
    /// Completed `(conn, line)` pairs from the service's threads,
    /// drained by the loop each wake-up.
    completions: Mutex<Vec<(u64, Arc<String>)>>,
    /// Times the loop woke ([`RunningServer::loop_wakeups`]).
    wakeups: AtomicU64,
    /// Times `accept` failed and paused the listener.
    accept_backoffs: AtomicU64,
}

/// A serving instance bound to an address, running its event loop in a
/// background thread. Dropping without [`RunningServer::join`] leaves
/// the threads running (they exit on shutdown); tests should `join`.
pub struct RunningServer {
    shared: Arc<Shared>,
    event_loop: Option<JoinHandle<()>>,
}

/// Binds `addr` with default [`ServerConfig`] — see [`serve_with`].
///
/// # Errors
///
/// Propagates socket errors from binding.
pub fn serve(
    addr: impl ToSocketAddrs,
    engine: impl Into<Arc<Engine>>,
) -> std::io::Result<RunningServer> {
    serve_with(addr, engine, ServerConfig::default())
}

/// Binds `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and starts
/// the event loop and scheduler against `engine` (an `Arc`, for a
/// caller that keeps driving the engine directly, or an owned one).
///
/// # Errors
///
/// Propagates socket errors from binding.
pub fn serve_with(
    addr: impl ToSocketAddrs,
    engine: impl Into<Arc<Engine>>,
    config: ServerConfig,
) -> std::io::Result<RunningServer> {
    let (executors, deadline) = (config.executors, config.deadline);
    serve_service(addr, config, |complete| {
        Scheduler::new(engine.into(), executors, deadline, complete)
    })
}

/// Binds `addr` and starts the event loop in front of the [`Service`]
/// that `make` builds around the loop's [`Completion`]. The loop reads
/// `config`'s `max_conns` and `drain_timeout`; the rest is a worker's.
///
/// # Errors
///
/// Propagates socket errors from binding.
pub fn serve_service<S: Service + 'static>(
    addr: impl ToSocketAddrs,
    config: ServerConfig,
    make: impl FnOnce(Completion) -> S,
) -> std::io::Result<RunningServer> {
    let listener = TcpListener::bind(addr)?;
    listener.set_nonblocking(true)?;
    let addr = listener.local_addr()?;
    let shared = Arc::new(Shared {
        addr,
        shutdown: AtomicBool::new(false),
        active: AtomicUsize::new(0),
        poller: polling::Poller::new()?,
        completions: Mutex::new(Vec::new()),
        wakeups: AtomicU64::new(0),
        accept_backoffs: AtomicU64::new(0),
    });
    let sink = Arc::clone(&shared);
    let service = make(Arc::new(move |conn, line| {
        relock(&sink.completions).push((conn, line));
        sink.poller.notify();
    }));
    let loop_shared = Arc::clone(&shared);
    let event_loop = std::thread::Builder::new()
        .name("systec-serve-loop".into())
        .spawn(move || event_loop(&listener, &loop_shared, &config, &service))?;
    Ok(RunningServer { shared, event_loop: Some(event_loop) })
}

/// One complete input unit extracted from a connection's byte stream.
enum InEvent {
    /// A newline-terminated (or EOF-terminated) request line.
    Line(String),
    /// The stream exceeded [`MAX_REQUEST_LINE`] without a newline.
    TooLong,
}

/// A queued outgoing line; `written` counts its terminating newline as
/// one more byte, so the message is out once it passes the line length.
struct OutMsg {
    line: Arc<String>,
    written: usize,
}

struct Conn {
    stream: TcpStream,
    /// Bytes read but not yet split into lines.
    buf: Vec<u8>,
    /// Prefix of `buf` already scanned and known newline-free; keeps
    /// line-splitting linear when one line spans many read sweeps.
    scanned: usize,
    /// Complete input units awaiting processing.
    pending: VecDeque<InEvent>,
    /// Outgoing response lines, written in order.
    out: VecDeque<OutMsg>,
    /// A request was submitted to the scheduler and its response has
    /// not yet come back — per-connection ordering gate.
    in_flight: bool,
    /// Close once `out` drains; no further input is processed.
    closing: bool,
    /// Input after an over-long line is discarded (framing is lost).
    discarding: bool,
    /// The peer finished sending (EOF seen).
    eof: bool,
    /// Hard socket error; drop without further IO.
    dead: bool,
    /// The `(read, write)` interest the poller currently holds.
    interest: (bool, bool),
}

impl Conn {
    fn new(stream: TcpStream) -> Conn {
        Conn {
            stream,
            buf: Vec::new(),
            scanned: 0,
            pending: VecDeque::new(),
            out: VecDeque::new(),
            in_flight: false,
            closing: false,
            discarding: false,
            eof: false,
            dead: false,
            interest: (true, false),
        }
    }

    /// Nonblocking read sweep: moves what the socket holds, up to
    /// [`READ_BUDGET`], into `buf` and splits complete lines into
    /// `pending`. Returns whether bytes arrived.
    fn read_input(&mut self, scratch: &mut [u8]) -> bool {
        if self.eof || self.dead {
            return false;
        }
        let mut progress = false;
        let mut taken = 0;
        while taken < READ_BUDGET {
            match self.stream.read(scratch) {
                Ok(0) => {
                    self.eof = true;
                    // A trailing unterminated line still parses: EOF is
                    // its terminator (a structured parse error beats a
                    // silent drop).
                    if !self.buf.is_empty() && !self.discarding {
                        let line = std::mem::take(&mut self.buf);
                        self.pending.push_back(InEvent::Line(lossy(line)));
                        progress = true;
                    }
                    break;
                }
                Ok(n) => {
                    progress = true;
                    taken += n;
                    self.ingest(&scratch[..n]);
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => {
                    self.dead = true;
                    break;
                }
            }
        }
        progress
    }

    fn ingest(&mut self, bytes: &[u8]) {
        if self.discarding {
            return;
        }
        self.buf.extend_from_slice(bytes);
        loop {
            // Scan only bytes no earlier sweep has covered: a cap-sized
            // newline-free flood arrives in socket-buffer-sized reads,
            // and rescanning from the front each read is quadratic.
            let fresh = self.buf[self.scanned..].iter().position(|&b| b == b'\n');
            match fresh.map(|p| self.scanned + p) {
                Some(nl) if nl > MAX_REQUEST_LINE => break self.give_up_on_framing(),
                Some(nl) => {
                    let line: Vec<u8> = self.buf.drain(..=nl).collect();
                    self.scanned = 0;
                    self.pending.push_back(InEvent::Line(lossy(line)));
                }
                None => {
                    self.scanned = self.buf.len();
                    if self.buf.len() > MAX_REQUEST_LINE {
                        self.give_up_on_framing();
                    }
                    break;
                }
            }
        }
    }

    /// The line cap was breached: drop the buffered bytes, discard all
    /// further input, and queue the structural `TooLong` event.
    fn give_up_on_framing(&mut self) {
        self.buf = Vec::new();
        self.scanned = 0;
        self.discarding = true;
        self.pending.push_back(InEvent::TooLong);
    }

    fn push_line(&mut self, line: Arc<String>) {
        self.out.push_back(OutMsg { line, written: 0 });
    }

    /// Nonblocking write sweep over the outgoing queue. A line and its
    /// newline leave in one `writev`, so the peer wakes once per reply.
    fn write_output(&mut self) {
        while !self.dead {
            let Some(front) = self.out.front_mut() else { break };
            match self.stream.write_vectored(&line_tail(front.line.as_bytes(), front.written)) {
                Ok(0) => self.dead = true,
                Ok(n) => {
                    front.written += n;
                    if front.written > front.line.len() {
                        self.out.pop_front();
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => self.dead = true,
            }
        }
    }

    /// Readiness is level-triggered, so interest follows what the next
    /// turn will do: read unless the stream ended or the server drains
    /// (input nobody will consume would keep the loop awake for good),
    /// write only while a `WouldBlock` has left output queued.
    fn sync_interest(&mut self, poller: &polling::Poller, key: usize, draining: bool) {
        let want = (!draining && !self.eof, !self.out.is_empty());
        if want != self.interest {
            self.interest = want;
            let interest = polling::Event { key, readable: want.0, writable: want.1 };
            let _ = poller.modify(&self.stream, interest);
        }
    }

    /// Nothing left to do for this connection: closed by error, or all
    /// input consumed and all output delivered after EOF/closing.
    fn done(&self) -> bool {
        self.dead
            || (!self.in_flight
                && self.pending.is_empty()
                && self.out.is_empty()
                && (self.eof || self.closing))
    }
}

fn lossy(bytes: Vec<u8>) -> String {
    match String::from_utf8(bytes) {
        Ok(s) => s,
        // Non-UTF-8 bytes become a line that fails request parsing (a
        // structured error, not a dropped connection).
        Err(e) => String::from_utf8_lossy(e.as_bytes()).into_owned(),
    }
}

fn event_loop(
    listener: &TcpListener,
    shared: &Arc<Shared>,
    config: &ServerConfig,
    service: &dyn Service,
) {
    let poller = &shared.poller;
    // Connections by poller key, which is also the id the service
    // tags their replies with.
    let mut conns: HashMap<usize, Conn> = HashMap::new();
    let mut next_key = LISTENER + 1;
    let mut events: Vec<polling::Event> = Vec::new();
    let mut completed: Vec<(u64, Arc<String>)> = Vec::new();
    let mut scratch = vec![0u8; 64 * 1024];
    let faults = service.fault_plan();
    // Set when shutdown was requested (by verb or programmatically):
    // the drain deadline. While draining, no new connections are
    // accepted and no new request lines consumed, but completions keep
    // flowing out until everything in flight is answered and flushed.
    let mut drain_deadline: Option<Instant> = None;
    // Set when `accept` failed: when to look at the listener again.
    let mut accept_retry: Option<Instant> = None;
    poller.add(listener, polling::Event::readable(LISTENER)).expect("an empty poller");

    // One connection's turn, after a readiness event or a completion
    // (`reply`): read if the socket has input, submit what may run,
    // write what is queued, then retire the connection or re-arm it.
    let mut turn = |conns: &mut HashMap<usize, Conn>, key, readable, reply, draining: bool| {
        // A completion for a connection that died in the meantime is
        // dropped; its work was already accounted.
        let Some(conn) = conns.get_mut(&key) else { return };
        if let Some(line) = reply {
            conn.in_flight = false;
            conn.push_line(line);
        }
        // A draining loop stops consuming input — completions and
        // writes only. An injected read fault severs the connection
        // exactly as a peer reset would — the isolation the chaos tier
        // asserts is that *other* connections never notice. It fires
        // only on reads that actually carried bytes, so the Nth
        // injection is the Nth data-bearing read.
        if readable
            && !draining
            && conn.read_input(&mut scratch)
            && faults.is_some_and(|p| p.fire(FaultSite::ConnRead))
        {
            conn.dead = true;
            conn.pending.clear();
        }
        while !draining && !conn.in_flight && !conn.closing {
            let Some(event) = conn.pending.pop_front() else { break };
            match event {
                InEvent::TooLong => {
                    service.refused(ErrorCode::LineTooLong);
                    conn.push_line(Arc::new(
                        Response::error(
                            ErrorCode::LineTooLong,
                            format!("request line exceeds {MAX_REQUEST_LINE} bytes"),
                        )
                        .encode(),
                    ));
                    // The reply drains below; then the conn closes.
                    conn.closing = true;
                }
                InEvent::Line(mut text) => {
                    text.truncate(text.trim_end_matches(['\n', '\r']).len());
                    if text.is_empty() {
                        continue; // blank keep-alive lines are not requests
                    }
                    // The one decode of this line on this hop: the
                    // service gets the request and the line it came as.
                    match Request::decode(&text) {
                        Ok(Request::Shutdown) => {
                            // Acknowledge, then enter the drain: the
                            // ack and every in-flight response flush
                            // before the loop exits. The flag goes up
                            // before the service hears of the verb.
                            conn.push_line(Arc::new(Response::ShuttingDown.encode()));
                            conn.closing = true;
                            shared.shutdown.store(true, Ordering::SeqCst);
                            service.shutdown(text);
                        }
                        Ok(request) => {
                            conn.in_flight = true;
                            service.submit(key as u64, request, text);
                        }
                        Err(e) => {
                            // Parse errors answer inline — they never
                            // reach the service, and ordering holds
                            // because nothing from this connection is
                            // in flight here.
                            service.refused(ErrorCode::Parse);
                            conn.push_line(Arc::new(
                                Response::error(ErrorCode::Parse, e.message).encode(),
                            ));
                        }
                    }
                }
            }
        }
        // An injected write fault severs the connection before its
        // queued bytes go out, as a peer reset mid-response would.
        if !conn.dead
            && !conn.out.is_empty()
            && faults.is_some_and(|p| p.fire(FaultSite::ConnWrite))
        {
            conn.dead = true;
        }
        conn.write_output();
        if conn.done() {
            let _ = poller.delete(&conn.stream);
            conns.remove(&key);
        } else {
            conn.sync_interest(poller, key, draining);
        }
    };

    loop {
        if shared.shutdown.load(Ordering::SeqCst) && drain_deadline.is_none() {
            drain_deadline = Some(Instant::now() + config.drain_timeout);
            for (&key, conn) in &mut conns {
                conn.sync_interest(poller, key, true);
            }
        }
        let draining = drain_deadline.is_some();
        let now = Instant::now();
        // The drain completes once every in-flight request has been
        // answered and every queued response byte flushed — or the
        // deadline passes and the stragglers are severed.
        if let Some(deadline) = drain_deadline {
            let quiesced = conns.values().all(|c| c.dead || (!c.in_flight && c.out.is_empty()));
            if quiesced || now >= deadline {
                break;
            }
        }
        if accept_retry.is_some_and(|at| now >= at) {
            accept_retry = None;
            let _ = poller.modify(listener, polling::Event::readable(LISTENER));
        }
        // Nothing on the request path is timed: only the drain deadline
        // and the accept back-off bound the wait.
        let until = [drain_deadline, accept_retry].into_iter().flatten().min();
        if poller.wait(&mut events, until.map(|at| at.saturating_duration_since(now))).is_err() {
            std::thread::sleep(ACCEPT_BACKOFF); // `poll` itself failed (ENOMEM): do not spin
        }
        shared.wakeups.fetch_add(1, Ordering::Relaxed);

        // Completions (a notify): queue each reply and write it at
        // once.
        std::mem::swap(&mut completed, &mut *relock(&shared.completions));
        for (id, line) in completed.drain(..) {
            turn(&mut conns, id as usize, false, Some(line), draining);
        }
        for event in &events {
            if event.key != LISTENER {
                turn(&mut conns, event.key, event.readable, None, draining);
                continue;
            }
            // Accept sweep, with connection admission.
            loop {
                let stream = match listener.accept() {
                    Ok((stream, _)) => stream,
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == ErrorKind::ConnectionAborted => continue,
                    Err(_) => {
                        shared.accept_backoffs.fetch_add(1, Ordering::Relaxed);
                        let _ = poller.modify(listener, polling::Event::none(LISTENER));
                        accept_retry = Some(Instant::now() + ACCEPT_BACKOFF);
                        break;
                    }
                };
                if draining {
                    continue; // shutting down: late connections drop
                }
                if faults.is_some_and(|p| p.fire(FaultSite::Accept)) {
                    continue; // injected accept failure: drop the socket
                }
                if config.max_conns.is_some_and(|cap| conns.len() >= cap) {
                    service.refused(ErrorCode::AdmissionRejected);
                    reject_connection(stream, conns.len());
                    continue;
                }
                if stream.set_nonblocking(true).is_ok()
                    && stream.set_nodelay(true).is_ok()
                    && poller.add(&stream, polling::Event::readable(next_key)).is_ok()
                {
                    conns.insert(next_key, Conn::new(stream));
                    next_key += 1;
                }
            }
        }
        shared.active.store(conns.len(), Ordering::SeqCst);
    }
    // Sever everything; dropping the streams closes them, and the
    // service (dropped by the caller) joins its own threads.
    conns.clear();
    shared.active.store(0, Ordering::SeqCst);
    service.stopped();
}

/// Answers an over-cap connection with one structured error line and
/// closes it. The write is best-effort and nonblocking — a fresh
/// socket's send buffer always holds one short line.
fn reject_connection(stream: TcpStream, live: usize) {
    let mut line = Response::error(
        ErrorCode::AdmissionRejected,
        format!("connection limit reached ({live} active); retry later"),
    )
    .encode();
    line.push('\n');
    let mut stream = stream;
    let _ = stream.write_all(line.as_bytes());
}

impl RunningServer {
    /// The bound address (with the actual port when `:0` was requested).
    pub fn addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// Connections currently owned by the event loop.
    pub fn active_connections(&self) -> usize {
        self.shared.active.load(Ordering::SeqCst)
    }

    /// Times the event loop has woken from its wait since start. An
    /// idle server does not move it — the readiness tier's instrument,
    /// test-facing like [`RunningServer::active_connections`].
    pub fn loop_wakeups(&self) -> u64 {
        self.shared.wakeups.load(Ordering::Relaxed)
    }

    /// Times `accept` failed (descriptor exhaustion) and the listener
    /// was left alone for one back-off.
    pub fn accept_backoffs(&self) -> u64 {
        self.shared.accept_backoffs.load(Ordering::Relaxed)
    }

    /// Whether shutdown was requested, by verb or programmatically. Up
    /// before the service hears of the verb, so a supervisor can tell a
    /// worker that the shutdown stopped from one that crashed.
    pub fn stopping(&self) -> bool {
        self.shared.shutdown.load(Ordering::SeqCst)
    }

    /// Initiates shutdown (idempotent): the event loop drains and exits,
    /// severing every connection. Does not wait — see
    /// [`RunningServer::wait`].
    pub fn shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.shared.poller.notify();
    }

    /// Blocks until the server has shut down (a client sent `shutdown`,
    /// or [`RunningServer::shutdown`] was called) and the event loop
    /// and the service's own threads have been joined.
    pub fn wait(mut self) {
        if let Some(handle) = self.event_loop.take() {
            let _ = handle.join();
        }
    }

    /// [`RunningServer::shutdown`] + [`RunningServer::wait`].
    pub fn join(self) {
        self.shutdown();
        self.wait();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_read_sweep_stops_at_its_budget_and_later_sweeps_lose_nothing() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut peer = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (stream, _) = listener.accept().unwrap();
        stream.set_nonblocking(true).unwrap();
        let mut conn = Conn::new(stream);
        let mut scratch = vec![0u8; 64 * 1024];

        // Fill the socket before the sweep: 64-byte numbered lines,
        // written until the kernel takes no more.
        let pattern: String = (0..128 * 1024).map(|i| format!("{i:0>63}\n")).collect();
        peer.set_nonblocking(true).unwrap();
        let mut sent = 0;
        while sent < pattern.len() {
            match peer.write(&pattern.as_bytes()[sent..]) {
                Ok(n) => sent += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) => panic!("{e}"),
            }
        }
        peer.shutdown(std::net::Shutdown::Write).unwrap();
        assert!(sent > READ_BUDGET + scratch.len(), "loopback took only {sent} bytes");

        let lines = |conn: &Conn| -> String {
            let text = conn.pending.iter().map(|e| match e {
                InEvent::Line(line) => line.as_str(),
                InEvent::TooLong => panic!("no line is over the cap"),
            });
            text.collect()
        };
        conn.read_input(&mut scratch);
        let held = lines(&conn).len() + conn.buf.len();
        assert!(held < READ_BUDGET + scratch.len(), "one sweep took {held}");

        let give_up = Instant::now() + Duration::from_secs(10);
        while !conn.eof && Instant::now() < give_up {
            if !conn.read_input(&mut scratch) {
                std::thread::yield_now();
            }
        }
        assert!(conn.eof && !conn.dead);
        assert!(lines(&conn) == pattern[..sent], "every byte arrives once, in order");
    }
}
