//! The long-running server: epoll reactor, worker pool, request routing.
//!
//! Runtime architecture (all `std` plus three raw syscalls, no async
//! runtime):
//!
//! * one **reactor** thread owns an epoll instance ([`crate::reactor`]) and
//!   every socket: it accepts (non-blocking listener), accumulates request
//!   heads, flushes responses, and enforces idle/head/write deadlines —
//!   all readiness-driven, so a thousand slow or idle connections cost a
//!   thousand small buffers, **not** a thousand parked threads;
//! * a fixed pool of **worker** threads, each on a stack of
//!   [`WORKER_STACK_BYTES`], runs the CPU-bound half only: a connection
//!   whose request head is complete is handed over, the worker streams the
//!   body straight off the socket through a [`foxq_xml::BoundedReader`]
//!   into the XML parser and the transducer lanes (a request body is
//!   **never buffered whole**; reading stops at `max_body_bytes` → 413),
//!   serializes the response, and hands the connection back to the reactor
//!   for the write;
//! * a request that trips a bound is answered from its row of
//!   [`foxq_service::LIMITS`] (`error_reply`);
//! * per-connection state is an explicit machine ([`crate::conn`]):
//!   `Idle → ReadHead → RouteBody → WriteResponse → Idle/Close`, with head
//!   reads and response writes resumable across `WouldBlock`;
//! * **backpressure**: past `max_connections` open connections the reactor
//!   stops accepting (the kernel backlog, then the peers, absorb the
//!   pushback) until load drops;
//! * **graceful shutdown**: a flag flips (via [`ServerHandle::shutdown`] or
//!   `POST /shutdown`), the listener closes, idle connections are dropped,
//!   in-flight requests finish — answering with `connection: close` — and
//!   [`ServerHandle::join`] returns once the last response is flushed.

use crate::conn::{After, Conn, Phase};
use crate::http::{
    chunked_tail, read_request, write_chunked_head, write_response, BodyKind, BodyReader,
    Coalescer, FlushBeforeRead, Request, COALESCE_BYTES,
};
use crate::metrics::{Endpoint, Metrics, Scalar};
use crate::reactor::{pin_receive_buffer, Poller, Waker, EPOLLIN, EPOLLOUT, EPOLLRDHUP};
use foxq_core::emit::{EmitSink, EmitWriter};
use foxq_core::profile::StreamProfiler;
use foxq_core::stream::{StreamError, StreamObserver, StreamStats};
use foxq_core::Mft;
use foxq_obs::{
    micros_since, AllocScope, JsonlSink, RingSink, Stage, TraceContext, TraceRecord, TraceSink,
    DEFAULT_TRACE_LOG_MAX_BYTES,
};
use foxq_service::limits::{BATCH_QUERIES, HEAD_BYTES, READ_TIMEOUT};
use foxq_service::{
    field_names, profile_record, run_lanes, source_key, Events, Limits, MultiRun, PrepareError,
    PreparedQuery, ProfileRegistry, QuerySetPlan, ReplyKind, RunReport, SharedQueryCache, Tripped,
    Trips, WORKER_STACK_BYTES,
};
use foxq_store::corpus::valid_doc_id;
use foxq_store::{ingest_xml_to_tmp, Corpus, StoreError, TapeReader};
use foxq_xml::{BoundedReader, WriterSink, XmlReader};
use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Cursor, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Configuration of a [`Server`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Address to bind, e.g. `"127.0.0.1:8080"` (`:0` = ephemeral port).
    pub addr: String,
    /// Worker threads (CPU-bound request execution; connection I/O is the
    /// reactor's and costs no worker).
    pub threads: usize,
    /// Capacity of the process-wide prepared-query cache.
    pub cache_capacity: usize,
    /// Every bound a request can trip (defaults: the `serve` column of
    /// [`foxq_service::LIMITS`]).
    pub limits: Limits,
    /// Corpus directory for the document-store endpoints
    /// (`POST /corpus/{id}`, `GET /corpus`, `POST /query?doc=`). `None`
    /// disables them (503).
    pub corpus_dir: Option<String>,
    /// Slow-query threshold: requests whose end-to-end time reaches this
    /// many milliseconds land in the `GET /debug/requests` ring with
    /// their full stage breakdown. `0` traces every request.
    pub slow_ms: u64,
    /// Append every request's trace as one JSON line to this file
    /// (`foxq serve --trace-log <path>`). `None` disables the file sink;
    /// the in-memory slow-query ring is always on.
    pub trace_log: Option<String>,
    /// Rotate the trace log once it would exceed this many bytes (the
    /// current file moves to `<path>.1`, keeping at most one rotated
    /// generation). `0` never rotates.
    pub trace_log_max_bytes: u64,
    /// Attach a [`StreamProfiler`] to every `/query` lane and keep
    /// per-query resource profiles (`GET /debug/profile`). Off by
    /// default: the observer hooks then compile to nothing.
    pub profile: bool,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            threads: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4),
            cache_capacity: 256,
            limits: Limits::serving(),
            corpus_dir: None,
            slow_ms: 500,
            trace_log: None,
            trace_log_max_bytes: DEFAULT_TRACE_LOG_MAX_BYTES,
            profile: false,
        }
    }
}

/// State shared by the reactor, every worker, and the handle.
struct Shared {
    config: ServerConfig,
    cache: SharedQueryCache,
    /// The document store, when `--corpus` is configured. The lock is held
    /// only for manifest operations (resolve/commit/list), never across an
    /// ingest parse or a tape replay.
    corpus: Option<Mutex<Corpus>>,
    /// Uniquifies concurrent ingest temp files.
    ingest_seq: AtomicU64,
    metrics: Arc<Metrics>,
    shutdown: AtomicBool,
    /// Uniquifies request ids (`X-Foxq-Request-Id`).
    request_seq: AtomicU64,
    /// Slow requests, newest last (`GET /debug/requests`).
    trace_ring: RingSink,
    /// Optional JSONL file sink tracing *every* request.
    trace_log: Option<JsonlSink>,
    /// Per-query resource profiles (`--profile`; `GET /debug/profile`).
    profiles: Option<ProfileRegistry>,
}

impl Shared {
    /// Lock the corpus (compile-pure state: a poisoned lock is recovered).
    fn corpus(&self) -> Option<MutexGuard<'_, Corpus>> {
        self.corpus
            .as_ref()
            .map(|m| m.lock().unwrap_or_else(|poisoned| poisoned.into_inner()))
    }

    /// Stored tapes by format version (FET1, FET2, FET3), when a corpus
    /// is configured: tapes not yet migrated stay visible.
    fn corpus_tapes(&self) -> Option<[u64; 3]> {
        let count = |c: &Corpus, v| c.docs().filter(|d| d.version == v).count() as u64;
        self.corpus().map(|c| [1, 2, 3].map(|v| count(&c, v)))
    }
}

/// A bound, not-yet-serving server (useful to learn the ephemeral port
/// before spawning the threads).
pub struct Server {
    listener: TcpListener,
    shared: Arc<Shared>,
}

impl Server {
    /// Bind the configured address. No thread is spawned yet.
    pub fn bind(config: ServerConfig) -> std::io::Result<Server> {
        let addr =
            config.addr.to_socket_addrs()?.next().ok_or_else(|| {
                std::io::Error::new(ErrorKind::InvalidInput, "unresolvable address")
            })?;
        let listener = TcpListener::bind(addr)?;
        // Every resource of a connection has a bound, its kernel-side
        // receive buffer included. Without the pin the server still serves.
        if let Err(e) = pin_receive_buffer(listener.as_raw_fd()) {
            eprintln!("foxq-server: receive buffers stay autotuned: {e}");
        }
        let cache = SharedQueryCache::with_limits(config.cache_capacity, config.limits);
        let corpus = match &config.corpus_dir {
            Some(dir) => Some(Mutex::new(Corpus::open(dir).map_err(|e| {
                std::io::Error::new(ErrorKind::InvalidInput, format!("corpus {dir}: {e}"))
            })?)),
            None => None,
        };
        let trace_log = match &config.trace_log {
            Some(path) => Some(
                JsonlSink::open_with_max(std::path::Path::new(path), config.trace_log_max_bytes)
                    .map_err(|e| {
                        std::io::Error::new(
                            ErrorKind::InvalidInput,
                            format!("trace log {path}: {e}"),
                        )
                    })?,
            ),
            None => None,
        };
        let profiles = config
            .profile
            .then(|| ProfileRegistry::new(config.cache_capacity));
        Ok(Server {
            listener,
            shared: Arc::new(Shared {
                config,
                cache,
                corpus,
                ingest_seq: AtomicU64::new(0),
                metrics: Arc::new(Metrics::default()),
                shutdown: AtomicBool::new(false),
                request_seq: AtomicU64::new(0),
                trace_ring: RingSink::new(TRACE_RING_CAP),
                trace_log,
                profiles,
            }),
        })
    }

    /// The bound address (resolves `:0` to the actual port).
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Spawn the reactor and the worker pool; returns immediately.
    pub fn start(self) -> std::io::Result<ServerHandle> {
        let addr = self.listener.local_addr()?;
        self.listener.set_nonblocking(true)?;
        let threads = self.shared.config.threads.max(1);

        let poller = Poller::new()?;
        let waker = Arc::new(Waker::new()?);
        poller.add(self.listener.as_raw_fd(), TOKEN_LISTENER, EPOLLIN)?;
        poller.add(waker.as_raw_fd(), TOKEN_WAKER, EPOLLIN)?;

        let (job_tx, job_rx) = mpsc::channel::<Conn>();
        let job_rx = Arc::new(Mutex::new(job_rx));
        let (done_tx, done_rx) = mpsc::channel::<Finished>();

        let mut workers = Vec::with_capacity(threads);
        for i in 0..threads {
            let job_rx = job_rx.clone();
            let done_tx = done_tx.clone();
            let waker = waker.clone();
            let shared = self.shared.clone();
            workers.push(
                std::thread::Builder::new()
                    .name(format!("foxq-worker-{i}"))
                    .stack_size(WORKER_STACK_BYTES)
                    .spawn(move || worker_loop(&job_rx, &done_tx, &waker, &shared))?,
            );
        }

        let mut reactor = Reactor {
            poller,
            listener: Some(self.listener),
            accepting: true,
            waker: waker.clone(),
            conns: HashMap::new(),
            next_token: TOKEN_FIRST_CONN,
            in_worker: 0,
            job_tx: Some(job_tx),
            done_rx,
            drain_started: false,
            shared: self.shared.clone(),
        };
        let reactor_thread = std::thread::Builder::new()
            .name("foxq-reactor".to_string())
            .spawn(move || {
                if let Err(e) = reactor.run() {
                    eprintln!("foxq-server: reactor failed: {e}");
                }
            })?;

        Ok(ServerHandle {
            addr,
            shared: self.shared,
            waker,
            reactor: reactor_thread,
            workers,
        })
    }
}

/// Handle to a running server: address, shared metrics, shutdown control.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    waker: Arc<Waker>,
    reactor: std::thread::JoinHandle<()>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl ServerHandle {
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The live metrics registry (what `GET /metrics` renders).
    pub fn metrics(&self) -> Arc<Metrics> {
        self.shared.metrics.clone()
    }

    /// Signal shutdown and wait for every in-flight request to drain.
    pub fn shutdown(self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.waker.wake();
        self.join();
    }

    /// Wait until the server exits (a shutdown is signalled and all
    /// in-flight work has drained).
    pub fn join(self) {
        let _ = self.reactor.join();
        for w in self.workers {
            let _ = w.join();
        }
    }
}

// ---------------------------------------------------------------------------
// The reactor
// ---------------------------------------------------------------------------

const TOKEN_LISTENER: u64 = 0;
const TOKEN_WAKER: u64 = 1;
const TOKEN_FIRST_CONN: u64 = 2;

/// Upper bound on one epoll cycle, so the shutdown flag and deadline sweep
/// run at least this often even on a silent server.
const MAX_POLL: Duration = Duration::from_millis(100);

/// How long a lingering close keeps discarding the peer's unsent tail.
const LINGER_TIMEOUT: Duration = Duration::from_millis(500);

/// Capacity of the slow-request ring served by `GET /debug/requests`.
const TRACE_RING_CAP: usize = 128;

/// A served request on its way back from a worker to the reactor.
struct Finished {
    conn: Conn,
    /// The serialized response (empty for a silent close).
    response: Vec<u8>,
    after: After,
}

struct Reactor {
    poller: Poller,
    /// Dropped (closing the socket) when a drain starts.
    listener: Option<TcpListener>,
    /// Whether the listener is currently registered for readiness (false
    /// while the `max_connections` backpressure gate is closed).
    accepting: bool,
    waker: Arc<Waker>,
    /// Connections currently owned by the reactor, by token. Connections in
    /// `RouteBody` live in the worker channel / worker stacks instead.
    conns: HashMap<u64, Conn>,
    next_token: u64,
    /// Connections currently on the worker side (dispatched, not yet
    /// returned). Drain waits for this to reach zero.
    in_worker: usize,
    /// `None` once a drain begins: dropping the sender stops the workers
    /// after they finish what is queued.
    job_tx: Option<mpsc::Sender<Conn>>,
    done_rx: mpsc::Receiver<Finished>,
    drain_started: bool,
    shared: Arc<Shared>,
}

impl Reactor {
    fn run(&mut self) -> std::io::Result<()> {
        loop {
            if self.shared.shutdown.load(Ordering::SeqCst) && !self.drain_started {
                self.begin_drain();
            }
            self.drain_finished();
            if self.drain_started && self.conns.is_empty() && self.in_worker == 0 {
                // Dropping the job sender (already None) has stopped the
                // workers; every response is flushed.
                return Ok(());
            }

            let timeout = self.next_timeout();
            let wait_start = Instant::now();
            let ready = self.poller.wait(timeout.as_millis() as i32)?;
            // Two clocks per cycle: how long the reactor slept in
            // epoll_wait, and how long it then stayed busy before the next
            // wait (the loop lag every other connection's readiness rides
            // behind).
            let busy_start = Instant::now();
            self.shared
                .metrics
                .epoll_wait
                .observe(busy_start.duration_since(wait_start));
            for (token, _events) in ready {
                match token {
                    TOKEN_LISTENER => self.accept_ready(),
                    TOKEN_WAKER => self.waker.drain(),
                    token => {
                        if let Some(conn) = self.conns.remove(&token) {
                            self.advance(conn);
                        }
                    }
                }
            }
            self.drain_finished();
            self.sweep_deadlines();
            self.update_accept_gate();
            self.shared.metrics.loop_lag.observe(busy_start.elapsed());
        }
    }

    /// Milliseconds until the nearest connection deadline, capped at
    /// [`MAX_POLL`].
    fn next_timeout(&self) -> Duration {
        let now = Instant::now();
        self.conns
            .values()
            .map(|c| c.deadline.saturating_duration_since(now))
            .min()
            .unwrap_or(MAX_POLL)
            .min(MAX_POLL)
    }

    fn accept_ready(&mut self) {
        loop {
            let accepted = match &self.listener {
                Some(listener) => listener.accept(),
                None => return,
            };
            match accepted {
                Ok((stream, _peer)) => {
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    stream.set_nodelay(true).ok();
                    self.shared.metrics.add(Scalar::Connections, 1);
                    self.shared.metrics.add(Scalar::ConnectionsActive, 1);
                    let token = self.next_token;
                    self.next_token += 1;
                    let deadline = Instant::now() + self.shared.config.limits.read_timeout;
                    let mut conn = Conn::new(stream, token, deadline);
                    if self.arm(&mut conn, EPOLLIN) {
                        self.conns.insert(token, conn);
                    } else {
                        self.close(conn);
                    }
                    if self.open_connections() >= self.shared.config.limits.max_connections {
                        break; // gate check below will pause accepting
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                // Transient per-connection failures (ECONNABORTED and
                // friends): skip this one, keep accepting.
                Err(_) => break,
            }
        }
        self.update_accept_gate();
    }

    fn open_connections(&self) -> usize {
        self.conns.len() + self.in_worker
    }

    /// Pause accepting above `max_connections` open connections; resume
    /// below. The listener stays bound — waiting peers queue in the kernel
    /// backlog instead of each costing this process a connection.
    fn update_accept_gate(&mut self) {
        let Some(listener) = &self.listener else {
            return;
        };
        let want = self.open_connections() < self.shared.config.limits.max_connections;
        if want && !self.accepting {
            if self
                .poller
                .add(listener.as_raw_fd(), TOKEN_LISTENER, EPOLLIN)
                .is_ok()
            {
                self.accepting = true;
            }
        } else if !want && self.accepting {
            let _ = self.poller.delete(listener.as_raw_fd());
            self.accepting = false;
            self.shared.metrics.add(Scalar::AcceptGateRejections, 1);
        }
    }

    /// Drive one connection as far as readiness allows.
    fn advance(&mut self, conn: Conn) {
        match conn.phase {
            Phase::Idle | Phase::ReadHead => self.read_head(conn),
            Phase::WriteResponse { .. } => self.continue_write(conn),
            Phase::Linger { .. } => self.continue_linger(conn),
            // RouteBody connections are not in the map.
            Phase::RouteBody => self.close(conn),
        }
    }

    /// Accumulate head bytes until a complete request head is buffered,
    /// then hand the connection to a worker.
    fn read_head(&mut self, mut conn: Conn) {
        let mut chunk = [0u8; 8192];
        loop {
            match (&conn.stream).read(&mut chunk) {
                Ok(0) => {
                    // Peer closed. Mid-head that deserves a parting 400
                    // (the peer may still read: only its write half is
                    // necessarily done); between requests it is just the
                    // keep-alive end.
                    if conn.buf.is_empty() {
                        self.close(conn);
                    } else {
                        self.shared.metrics.record_response(400);
                        let response = simple_response(400, b"connection closed mid-head\n");
                        self.start_write(conn, response, After::Close);
                    }
                    return;
                }
                Ok(n) => {
                    self.shared.metrics.add(Scalar::BytesIn, n as u64);
                    conn.buf.extend_from_slice(&chunk[..n]);
                    conn.phase = Phase::ReadHead;
                    if conn.head_end().is_some() {
                        self.dispatch(conn);
                        return;
                    }
                    if conn.buf.len() > Conn::HEAD_BUF_CAP {
                        let tripped = Tripped::new(&HEAD_BYTES, HEAD_BYTES.serve, String::new());
                        let reply = error_reply(&tripped, 400, "");
                        self.shared.metrics.record_response(reply.status);
                        let response = simple_response(reply.status, &reply.body);
                        self.start_write(conn, response, After::Close);
                        return;
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    if self.arm(&mut conn, EPOLLIN) {
                        self.conns.insert(conn.token, conn);
                    } else {
                        self.close(conn);
                    }
                    return;
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.close(conn);
                    return;
                }
            }
        }
    }

    /// Hand a connection with a complete buffered head to the worker pool.
    fn dispatch(&mut self, mut conn: Conn) {
        if let Some(interest) = conn.interest.take() {
            let _ = interest;
            let _ = self.poller.delete(conn.stream.as_raw_fd());
        }
        conn.phase = Phase::RouteBody;
        // The request clock starts when the head is complete; first
        // response byte (TTFB) and full flush (request latency) are
        // measured against it back on the reactor side.
        conn.req_start = Some(Instant::now());
        conn.ttfb_recorded = false;
        match &self.job_tx {
            Some(tx) => match tx.send(conn) {
                Ok(()) => {
                    self.in_worker += 1;
                    self.shared.metrics.add(Scalar::WorkerQueueDepth, 1);
                }
                Err(mpsc::SendError(conn)) => self.close(conn),
            },
            // Draining: no new requests.
            None => self.close(conn),
        }
    }

    /// Collect connections coming back from workers and start their
    /// response writes.
    fn drain_finished(&mut self) {
        while let Ok(Finished {
            mut conn,
            response,
            after,
        }) = self.done_rx.try_recv()
        {
            self.in_worker -= 1;
            conn.scanned = 0;
            self.start_write(conn, response, after);
        }
    }

    fn start_write(&mut self, mut conn: Conn, out: Vec<u8>, after: After) {
        conn.deadline = Instant::now() + self.shared.config.limits.write_timeout;
        conn.phase = Phase::WriteResponse {
            out,
            written: 0,
            after,
        };
        self.continue_write(conn);
    }

    /// Flush as much of the pending response as the socket accepts;
    /// resumes on `EPOLLOUT` when the peer applies backpressure.
    fn continue_write(&mut self, mut conn: Conn) {
        let Phase::WriteResponse {
            ref out,
            mut written,
            after,
        } = conn.phase
        else {
            return self.close(conn);
        };
        while written < out.len() {
            match (&conn.stream).write(&out[written..]) {
                Ok(0) => return self.close(conn),
                Ok(n) => {
                    if !conn.ttfb_recorded {
                        conn.ttfb_recorded = true;
                        if let Some(start) = conn.req_start {
                            self.shared.metrics.ttfb.observe(start.elapsed());
                        }
                    }
                    written += n;
                    self.shared.metrics.add(Scalar::BytesOut, n as u64);
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    if let Phase::WriteResponse {
                        written: ref mut w, ..
                    } = conn.phase
                    {
                        *w = written;
                    }
                    if self.arm(&mut conn, EPOLLOUT) {
                        self.conns.insert(conn.token, conn);
                    } else {
                        self.close(conn);
                    }
                    return;
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => return self.close(conn),
            }
        }
        self.finish_write(conn, after);
    }

    /// The response is fully flushed: reuse, close, or linger.
    fn finish_write(&mut self, mut conn: Conn, after: After) {
        let started = conn.req_start.take();
        let endpoint = conn.endpoint.take();
        if let (Some(start), Some(endpoint)) = (started, endpoint) {
            self.shared
                .metrics
                .request_latency(endpoint)
                .observe(start.elapsed());
        }
        match after {
            After::Reuse if !self.drain_started => {
                conn.deadline = Instant::now() + self.shared.config.limits.read_timeout;
                if conn.head_end().is_some() {
                    // The next request was pipelined into an earlier
                    // segment: no readiness event will announce it.
                    conn.phase = Phase::ReadHead;
                    self.dispatch(conn);
                    return;
                }
                conn.phase = if conn.buf.is_empty() {
                    Phase::Idle
                } else {
                    Phase::ReadHead
                };
                if self.arm(&mut conn, EPOLLIN) {
                    self.conns.insert(conn.token, conn);
                } else {
                    self.close(conn);
                }
            }
            After::Reuse | After::Close => self.close(conn),
            After::Linger => {
                // Send FIN, then keep discarding the peer's in-flight body
                // for a bounded time: an immediate close would RST away the
                // buffered response (the classic early-413 problem).
                let _ = conn.stream.shutdown(std::net::Shutdown::Write);
                conn.phase = Phase::Linger { drained: 0 };
                // `close` decrements by matching on the phase, so the
                // gauge stays balanced on every exit path.
                self.shared.metrics.add(Scalar::ConnectionsLingering, 1);
                conn.deadline = Instant::now() + LINGER_TIMEOUT;
                if self.arm(&mut conn, EPOLLIN) {
                    self.conns.insert(conn.token, conn);
                } else {
                    self.close(conn);
                }
            }
        }
    }

    /// Discard the peer's unsent tail (bounded) after a FIN, then close.
    /// These reads bypass the `bytes_in` counter by design: the metric
    /// means "bytes delivered to request processing".
    fn continue_linger(&mut self, mut conn: Conn) {
        let Phase::Linger { mut drained } = conn.phase else {
            return self.close(conn);
        };
        let mut chunk = [0u8; 8192];
        loop {
            match (&conn.stream).read(&mut chunk) {
                Ok(0) => return self.close(conn),
                Ok(n) => {
                    drained += n;
                    if drained > Conn::LINGER_CAP {
                        return self.close(conn);
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    conn.phase = Phase::Linger { drained };
                    if self.arm(&mut conn, EPOLLIN) {
                        self.conns.insert(conn.token, conn);
                    } else {
                        self.close(conn);
                    }
                    return;
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => return self.close(conn),
            }
        }
    }

    /// Close every connection whose phase deadline has passed: idle
    /// keep-alive timeouts, slow-loris heads, peers not draining their
    /// response, linger expiry.
    fn sweep_deadlines(&mut self) {
        let now = Instant::now();
        let expired: Vec<u64> = self
            .conns
            .iter()
            .filter(|(_, c)| c.deadline <= now)
            .map(|(t, _)| *t)
            .collect();
        for token in expired {
            if let Some(conn) = self.conns.remove(&token) {
                self.close(conn);
            }
        }
    }

    /// Register or re-register a connection's readiness interest. Returns
    /// false when the kernel refuses (the connection is then unusable).
    fn arm(&mut self, conn: &mut Conn, want: u32) -> bool {
        let interest = want | EPOLLRDHUP;
        let ok = match conn.interest {
            Some(current) if current == interest => true,
            Some(_) => self
                .poller
                .modify(conn.stream.as_raw_fd(), conn.token, interest)
                .is_ok(),
            None => self
                .poller
                .add(conn.stream.as_raw_fd(), conn.token, interest)
                .is_ok(),
        };
        conn.interest = if ok { Some(interest) } else { None };
        ok
    }

    fn close(&mut self, mut conn: Conn) {
        if conn.interest.take().is_some() {
            let _ = self.poller.delete(conn.stream.as_raw_fd());
        }
        if matches!(conn.phase, Phase::Linger { .. }) {
            self.shared.metrics.sub(Scalar::ConnectionsLingering, 1);
        }
        self.shared.metrics.sub(Scalar::ConnectionsActive, 1);
        // Dropping the stream closes the fd.
    }

    /// A drain begins: stop accepting (closing the listener so new
    /// connects are refused), cut idle and mid-head connections, and stop
    /// feeding workers. In-flight requests (worker side) and pending
    /// response writes complete normally.
    fn begin_drain(&mut self) {
        self.drain_started = true;
        if let Some(listener) = self.listener.take() {
            if self.accepting {
                let _ = self.poller.delete(listener.as_raw_fd());
            }
            self.accepting = false;
        }
        self.job_tx = None;
        let idle: Vec<u64> = self
            .conns
            .iter()
            .filter(|(_, c)| matches!(c.phase, Phase::Idle | Phase::ReadHead))
            .map(|(t, _)| *t)
            .collect();
        for token in idle {
            if let Some(conn) = self.conns.remove(&token) {
                self.close(conn);
            }
        }
    }
}

/// Serialize a minimal framing-level error response (no `Reply` routing
/// involved; used by the reactor for head-level failures).
fn simple_response(status: u16, body: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(128 + body.len());
    write_response(
        &mut out,
        status,
        "text/plain; charset=utf-8",
        &[],
        body,
        false,
    )
    .expect("writing to Vec cannot fail");
    out
}

// ---------------------------------------------------------------------------
// Workers: the blocking, CPU-bound half
// ---------------------------------------------------------------------------

fn worker_loop(
    job_rx: &Arc<Mutex<mpsc::Receiver<Conn>>>,
    done_tx: &mpsc::Sender<Finished>,
    waker: &Waker,
    shared: &Shared,
) {
    loop {
        // Hold the lock only for the pop, never while serving.
        let next = match job_rx.lock() {
            Ok(guard) => guard.recv(),
            Err(_) => return,
        };
        let Ok(mut conn) = next else {
            return; // queue closed: drain started
        };
        shared.metrics.sub(Scalar::WorkerQueueDepth, 1);
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            serve_one(&mut conn, shared)
        }));
        let (response, after) = outcome.unwrap_or_else(|_| {
            // A panicking request must not shrink the pool; the connection
            // is torn down, everything shared is panic-safe (atomics and a
            // self-healing cache lock).
            eprintln!("foxq-server: worker recovered from a panicking request");
            (Vec::new(), After::Close)
        });
        let finished = Finished {
            conn,
            response,
            after,
        };
        if done_tx.send(finished).is_err() {
            return; // reactor gone
        }
        waker.wake();
    }
}

/// Counts request bytes into the shared metrics as they stream in, and
/// turns a stalled read into the [`READ_TIMEOUT`] bound. Wraps only the
/// *socket* half of a worker's reader: bytes the reactor already buffered
/// were counted when they were first read.
struct CountingReader<R> {
    inner: R,
    metrics: Arc<Metrics>,
    timeout_ms: u64,
}

impl<R: Read> Read for CountingReader<R> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self.inner.read(buf).map_err(|e| match e.kind() {
            ErrorKind::WouldBlock | ErrorKind::TimedOut => {
                Tripped::new(&READ_TIMEOUT, self.timeout_ms, String::new()).into()
            }
            _ => e,
        })?;
        self.metrics.add(Scalar::BytesIn, n as u64);
        Ok(n)
    }
}

/// Serve exactly one request on a connection whose head is fully buffered:
/// parse it, stream the body through the engines, serialize the response.
/// Runs on a worker with the socket temporarily in blocking mode; all
/// response I/O is left to the reactor.
fn serve_one(conn: &mut Conn, shared: &Shared) -> (Vec<u8>, After) {
    let limits = &shared.config.limits;
    if conn.stream.set_nonblocking(false).is_err() {
        return (Vec::new(), After::Close);
    }
    let _ = conn.stream.set_read_timeout(Some(limits.read_timeout));
    let _ = conn.stream.set_write_timeout(Some(limits.write_timeout));

    // Streamed `/query` responses are written by the worker itself, straight
    // to the (blocking, write-timeout-bounded) socket — a slow client
    // backpressures only its own lane. What leaves when is the coalescer's
    // rule; the socket half of the request reader shares it, so output held
    // back goes out before the worker waits for more input. Other replies
    // never fill it.
    let wire = RefCell::new(Coalescer::new(
        CountingWriter {
            inner: &conn.stream,
            metrics: &shared.metrics,
        },
        true,
    ));
    let buffered = std::mem::take(&mut conn.buf);
    let mut reader = BufReader::with_capacity(
        COALESCE_BYTES,
        Cursor::new(buffered).chain(FlushBeforeRead::new(
            CountingReader {
                inner: &conn.stream,
                metrics: shared.metrics.clone(),
                timeout_ms: limits.read_timeout.as_millis() as u64,
            },
            &wire,
        )),
    );
    let req_id = shared.request_seq.fetch_add(1, Ordering::Relaxed) + 1;
    let ctx = TraceContext::new(req_id);
    let served = {
        let mut stream_out = StreamOut {
            wire: &wire,
            metrics: &shared.metrics,
            ctx: &ctx,
            req_start: conn.req_start.unwrap_or_else(Instant::now),
            req_id,
            keep: false,
            doc: false,
            head_written: Cell::new(false),
        };
        serve_request(&mut reader, shared, &ctx, &mut stream_out)
    };

    // Bytes read past this request's framed end (a pipelined next request)
    // travel back to the reactor with the connection. Wire order: the
    // BufReader's unconsumed buffer precedes anything still in the cursor.
    let mut rest = reader.buffer().to_vec();
    let (cursor, _socket) = reader.into_inner().into_inner();
    let pos = cursor.position() as usize;
    let inner = cursor.into_inner();
    rest.extend_from_slice(&inner[pos..]);
    conn.buf = rest;

    if conn.stream.set_nonblocking(true).is_err() {
        return (Vec::new(), After::Close);
    }

    let Some((mut reply, keep_requested)) = served else {
        return (Vec::new(), After::Close); // transport-level failure
    };
    conn.endpoint = Some(reply.endpoint);
    // Histograms and the Server-Timing header are fed from the same
    // snapshot, so the two views can never disagree about a request.
    let times = ctx.times();
    for (stage, micros) in times.iter() {
        shared.metrics.engine_stage(stage).observe_micros(micros);
    }
    let total_micros = ctx.total_micros();
    if !reply.streamed {
        // On a streamed reply the head (with the request id) is already on
        // the wire and the timing would have to be a trailer; the stage
        // breakdown still lands in the histograms and the trace record.
        reply
            .headers
            .push(("x-foxq-request-id", format!("{req_id:016x}")));
        let mut timing = times.server_timing_value();
        if !timing.is_empty() {
            timing.push_str(", ");
        }
        let _ = {
            use std::fmt::Write as _;
            write!(
                timing,
                "total;dur={}.{:03}",
                total_micros / 1_000,
                total_micros % 1_000
            )
        };
        reply.headers.push(("server-timing", timing));
    }
    let slow = total_micros >= shared.config.slow_ms.saturating_mul(1_000);
    if slow || shared.trace_log.is_some() {
        let record = TraceRecord {
            id: req_id,
            target: reply.endpoint.name().to_string(),
            detail: std::mem::take(&mut reply.detail),
            status: reply.status,
            total_micros,
            stages: times,
            unix_millis: TraceRecord::now_unix_millis(),
        };
        if slow {
            shared.trace_ring.record(&record);
        }
        if let Some(log) = &shared.trace_log {
            log.record(&record);
        }
    }
    let draining = shared.shutdown.load(Ordering::SeqCst);
    let keep = keep_requested && reply.reusable && !draining;
    shared.metrics.record_response(reply.status);
    let out = if reply.streamed {
        // Head and chunks are already on the wire; only the tail — the
        // output still held, last chunk plus trailers — remains (or
        // nothing, for a mid-stream failure: the missing terminator is the
        // truncation signal). The worker observed TTFB when it wrote the
        // head.
        conn.ttfb_recorded = true;
        std::mem::take(&mut reply.body)
    } else {
        let mut out = Vec::with_capacity(256 + reply.body.len());
        write_response(
            &mut out,
            reply.status,
            reply.content_type,
            &reply.headers,
            &reply.body,
            keep,
        )
        .expect("writing to Vec cannot fail");
        out
    };
    let after = if keep {
        After::Reuse
    } else if !reply.reusable {
        // Unread request bytes are (or may be) on the wire.
        After::Linger
    } else {
        After::Close
    };
    (out, after)
}

/// Parse and route one request. `None` = close silently (transport error).
fn serve_request<R: BufRead>(
    reader: &mut R,
    shared: &Shared,
    ctx: &TraceContext,
    stream_out: &mut StreamOut<'_, '_>,
) -> Option<(Reply, bool)> {
    let request = match read_request(reader) {
        Ok(Some(req)) => req,
        Ok(None) => return None, // raced peer close
        Err(e) => {
            // Head-level garbage — ambiguous body framing included, for
            // *every* endpoint (RFC 9112 §6.3: the request-smuggling shapes)
            // — is answered 400 (or the tripped bound's status) and the
            // connection closed; a transport error closes it silently.
            if e.kind() == ErrorKind::InvalidData {
                return Some((reply_unconsumed(error_reply(&e, 400, "")), false));
            }
            return None;
        }
    };
    let keep_requested = request.keep_alive();
    let reply = route(&request, reader, shared, ctx, stream_out);
    Some((reply, keep_requested))
}

/// One response, ready to write: status, content type, extra headers, body.
struct Reply {
    status: u16,
    content_type: &'static str,
    headers: Vec<(&'static str, String)>,
    body: Vec<u8>,
    /// False when the request was not read to its framed end — the
    /// connection cannot be reused without desynchronizing, and the close
    /// must linger so the response outlives the peer's unsent tail. `route`
    /// sets it from the body's consumption, *not* from the status: an
    /// error answer to a body-free request keeps its keep-alive connection.
    reusable: bool,
    /// Which endpoint produced this reply (drives the per-endpoint
    /// request-latency histogram; stamped by `route`).
    endpoint: Endpoint,
    /// `"METHOD /path"`, for the slow-query log (stamped by `route`).
    detail: String,
    /// True when the handler already wrote the chunked head and body
    /// chunks itself (`/query?stream=1`): `body` then holds only the
    /// chunked tail — held output, last chunk, trailers — (or nothing, on
    /// a mid-stream failure), and the usual header/serialization step is
    /// skipped.
    streamed: bool,
}

impl Reply {
    fn new(status: u16, content_type: &'static str, body: impl Into<Vec<u8>>) -> Reply {
        Reply {
            status,
            content_type,
            headers: Vec::new(),
            body: body.into(),
            reusable: true,
            endpoint: Endpoint::Other,
            detail: String::new(),
            streamed: false,
        }
    }

    fn text(status: u16, body: impl Into<String>) -> Reply {
        Reply::new(
            status,
            "text/plain; charset=utf-8",
            body.into().into_bytes(),
        )
    }
}

fn route<R: BufRead>(
    request: &Request,
    conn: &mut R,
    shared: &Shared,
    ctx: &TraceContext,
    stream_out: &mut StreamOut<'_, '_>,
) -> Reply {
    let endpoint = match (request.method.as_str(), request.path.as_str()) {
        ("GET", "/healthz") => Endpoint::Healthz,
        ("GET", "/metrics") => Endpoint::Metrics,
        ("GET", "/debug/requests") | ("GET", "/debug/profile") => Endpoint::Debug,
        ("POST", "/query") => Endpoint::Query,
        ("POST", "/batch") => Endpoint::Batch,
        ("GET", "/corpus") => Endpoint::Corpus,
        ("POST", p) if p.strip_prefix("/corpus/").is_some_and(|id| !id.is_empty()) => {
            Endpoint::Corpus
        }
        ("POST", "/shutdown") => Endpoint::Shutdown,
        _ => Endpoint::Other,
    };
    shared.metrics.record_request(endpoint);

    let mut body = BodyReader::new(conn, request.body);
    let mut reply = match endpoint {
        Endpoint::Healthz => Reply::text(200, "ok\n"),
        Endpoint::Debug => {
            if request.path == "/debug/profile" {
                match &shared.profiles {
                    Some(registry) => Reply::text(200, registry.render()),
                    None => Reply::text(503, "profiling disabled (start with --profile)\n"),
                }
            } else if request.params("format").next() == Some("json") {
                Reply::new(
                    200,
                    "application/x-ndjson",
                    shared.trace_ring.dump_json().into_bytes(),
                )
            } else {
                Reply::text(200, shared.trace_ring.dump())
            }
        }
        Endpoint::Metrics => Reply::new(
            200,
            "text/plain; version=0.0.4; charset=utf-8",
            shared
                .metrics
                .render(shared.cache.stats(), shared.corpus_tapes())
                .into_bytes(),
        ),
        Endpoint::Shutdown => {
            shared.shutdown.store(true, Ordering::SeqCst);
            Reply::text(200, "draining\n")
        }
        Endpoint::Query => handle_query(request, &mut body, shared, ctx, stream_out),
        Endpoint::Batch => handle_batch(request, &mut body, shared, ctx),
        Endpoint::Corpus => {
            if request.method == "GET" {
                handle_corpus_list(shared)
            } else {
                let id = request.path["/corpus/".len()..].to_string();
                handle_corpus_ingest(request, &mut body, shared, ctx, &id)
            }
        }
        Endpoint::Other => {
            let known = request.path == "/corpus"
                || request.path.starts_with("/corpus/")
                || matches!(
                    request.path.as_str(),
                    "/healthz"
                        | "/metrics"
                        | "/query"
                        | "/batch"
                        | "/shutdown"
                        | "/debug/requests"
                        | "/debug/profile"
                );
            let status = if known { 405 } else { 404 };
            Reply::text(
                status,
                format!("{} {}\n", status, crate::http::reason(status)),
            )
        }
    };
    // The next request starts where this one's body ends: unread body
    // bytes (a handler's early answer, a run cut short) forbid reuse.
    reply.reusable &= body.exhausted();
    reply.endpoint = endpoint;
    reply.detail = format!("{} {}", request.method, request.path);
    reply
}

/// The reply to a failed request. A tripped bound is answered from its row
/// of [`foxq_service::LIMITS`]: the row's status, and a message naming the
/// row and the bound in force. Any other failure gets `status`, and says
/// `what` failed before why.
fn error_reply(e: &impl Trips, status: u16, what: &str) -> Reply {
    match e.tripped() {
        Some(tripped) => Reply::text(tripped.status(), format!("{tripped}\n")),
        None => Reply::text(status, format!("{what}{e}\n")),
    }
}

/// Fail a document-carrying request that has no body.
fn require_body(request: &Request) -> Result<(), Reply> {
    if request.body == BodyKind::Empty {
        return Err(Reply::text(
            400,
            "missing request body (the XML document)\n",
        ));
    }
    Ok(())
}

/// One pass of some lanes over a document, as the handlers get it back.
type LanesRun<S, O> = MultiRun<(S, StreamStats, O)>;

/// Run `lanes` over the request body (/query and /batch). The body is read
/// *while* the engines run — it is never accumulated anywhere — and no
/// further than `max_body_bytes`.
fn run_over_body<R: BufRead, S: EmitSink, O: StreamObserver>(
    request: &Request,
    input: &mut R,
    shared: &Shared,
    ctx: &TraceContext,
    mfts: &[&Mft],
    lanes: Vec<(S, O)>,
    plan: &QuerySetPlan,
) -> Result<LanesRun<S, O>, Reply> {
    require_body(request)?;
    let limits = &shared.config.limits;
    let bounded = BoundedReader::new(input, limits.max_body_bytes);
    let events = Events(XmlReader::new(bounded));
    shared.metrics.add(Scalar::LaneRuns, mfts.len() as u64);
    let span = ctx.enter(Stage::Execute);
    let run = run_lanes(mfts, events, lanes, limits.stream(), plan);
    drop(span);
    run.map_err(|e| reply_unconsumed(error_reply(&e, 400, "malformed XML input: ")))
}

/// `doc=<id>`: run `lanes` over the stored tape instead — no parse, and
/// the tape seeks over what no lane can use. The request must carry no
/// body (the document is already in the store). Seek and index-probe time
/// are carved out of the replay total, so the three stages partition the
/// wall time.
fn run_over_tape<S: EmitSink, O: StreamObserver>(
    request: &Request,
    shared: &Shared,
    ctx: &TraceContext,
    id: &str,
    mfts: &[&Mft],
    lanes: Vec<(S, O)>,
    plan: &QuerySetPlan,
) -> Result<LanesRun<S, O>, Reply> {
    if shared.corpus.is_none() {
        return Err(Reply::text(503, NO_CORPUS));
    }
    if request.body != BodyKind::Empty {
        let stored = "no request body allowed with doc= (the document is stored)\n";
        return Err(Reply::text(400, stored));
    }
    let path = match shared.corpus().expect("checked above").tape_path(id) {
        Ok(path) => path,
        Err(StoreError::UnknownDoc { id }) => {
            return Err(Reply::text(
                404,
                format!("no document {id:?} in the corpus\n"),
            ))
        }
        Err(e) => return Err(Reply::text(500, format!("corpus error: {e}\n"))),
    };
    // The tape is server state: corruption is a 500, never the client's
    // fault, and a tape of an older format a 409 naming the migration.
    let failed = |e: StoreError| {
        let status = if let StoreError::NeedsMigration { .. } = e {
            409
        } else {
            500
        };
        error_reply(&e, status, "tape replay failed: ")
    };
    let tape = TapeReader::open_file(&path).map_err(failed)?;
    shared.metrics.add(Scalar::LaneRuns, mfts.len() as u64);
    let start = Instant::now();
    let run = run_lanes(mfts, tape, lanes, shared.config.limits.stream(), plan);
    let micros = micros_since(start);
    match run {
        Ok(run) => {
            for (stage, stage_micros) in run.source.tape_stages(micros) {
                ctx.add_micros(stage, stage_micros);
            }
            Ok(run)
        }
        Err(e) => {
            ctx.add_micros(Stage::TapeReplay, micros);
            Err(failed(e))
        }
    }
}

// ---------------------------------------------------------------------------
// /query
// ---------------------------------------------------------------------------

/// `POST /query`: one prepared query over the request body or, with
/// `doc=<id>`, over a stored tape (no request body, no parse; the tape
/// seeks over what no lane can use). The reply is buffered or, with
/// `stream=1`, written as the run goes: the first irrevocable output prefix
/// leaves with the head at once — long before the document ends — and the
/// rest leaves every [`COALESCE_BYTES`] and before each wait for more of
/// the body. The run statistics, which do not exist until the run ends,
/// travel as trailers. With `--profile` every run is sampled.
fn handle_query<R: BufRead>(
    request: &Request,
    input: &mut R,
    shared: &Shared,
    ctx: &TraceContext,
    stream_out: &mut StreamOut<'_, '_>,
) -> Reply {
    let mut params = request.params("q");
    let Some(q) = params.next() else {
        return Reply::text(400, "missing query parameter q\n");
    };
    if params.next().is_some() {
        return Reply::text(400, "one q per /query request; use /batch for sets\n");
    }
    let prepared = match lookup_traced(shared, ctx, q) {
        Ok(p) => p,
        Err(e) => return error_reply(&e, 400, "query rejected: "),
    };
    let streamed = request.params("stream").next().is_some_and(|v| v != "0");
    let doc = request.params("doc").next();
    if streamed {
        stream_out.keep = request.keep_alive() && !shared.shutdown.load(Ordering::SeqCst);
        stream_out.doc = doc.is_some();
    }
    let query = Query {
        request,
        shared,
        ctx,
        prepared: &prepared,
        doc,
        out: streamed.then_some(&*stream_out),
    };
    // Observer and sink are type parameters of the run: with `()` as the
    // observer every hook is an empty `#[inline(always)]` body, so
    // `--profile` off costs the engine nothing, and a buffering sink's
    // emission boundary is as empty.
    if shared.profiles.is_some() {
        query.answer(input, StreamProfiler::for_mft(prepared.mft()))
    } else {
        query.answer(input, ())
    }
}

/// Counts response bytes into the shared metrics as a worker writes them
/// (the streamed-response analog of [`CountingReader`]).
struct CountingWriter<'a> {
    inner: &'a TcpStream,
    metrics: &'a Metrics,
}

impl Write for CountingWriter<'_> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let n = self.inner.write(buf)?;
        self.metrics.add(Scalar::BytesOut, n as u64);
        Ok(n)
    }

    fn write_vectored(&mut self, bufs: &[std::io::IoSlice<'_>]) -> std::io::Result<usize> {
        let n = self.inner.write_vectored(bufs)?;
        self.metrics.add(Scalar::BytesOut, n as u64);
        Ok(n)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.inner.flush()
    }
}

/// Worker-side writer for a streamed `/query` response: the chunked head
/// goes out lazily, in one write with the first irrevocable output prefix
/// (so pre-output failures still get a proper status line); later prefixes
/// leave by the [`Coalescer`]'s rule, as few large chunks. Writes hit the
/// blocking, write-timeout-bounded socket directly — a slow client
/// backpressures its own lane and nothing else — and no more than
/// [`COALESCE_BYTES`] of output is ever held back.
struct StreamOut<'a, 'w> {
    /// The worker's response writer, shared with the socket half of the
    /// request reader.
    wire: &'a RefCell<Coalescer<CountingWriter<'w>>>,
    metrics: &'a Metrics,
    ctx: &'a TraceContext,
    /// The request clock (head-complete instant): TTFB and the
    /// `first_flush` stage are measured against it.
    req_start: Instant,
    req_id: u64,
    /// Whether the head advertises keep-alive (decided before the first
    /// chunk; the final connection disposition still honours body
    /// consumption).
    keep: bool,
    /// Whether the run reads a stored document (`doc=`), whose trailers
    /// the head declares too.
    doc: bool,
    /// Set once the chunked head is committed to the wire — the point of
    /// no return: later failures can only truncate the body, not change
    /// the status. (A cell: the lane's sink delivers through a shared
    /// borrow while the handler watches this.)
    head_written: Cell<bool>,
}

impl StreamOut<'_, '_> {
    /// Deliver one irrevocable output prefix. The first commits the
    /// response — status 200, chunked framing, declared trailers — and
    /// leaves with the head at once, so it records TTFB and the
    /// `first_flush` stage: this *is* the first response byte. An empty
    /// first prefix sends the head alone.
    fn deliver(&self, chunk: &[u8]) -> std::io::Result<()> {
        let mut wire = self.wire.borrow_mut();
        if self.head_written.replace(true) {
            return wire.push(chunk);
        }
        // Declared before the run: exactly the fields the reply will carry.
        let kind = ReplyKind {
            streamed: true,
            doc: self.doc,
        };
        let trailers: Vec<&str> = field_names(kind).collect();
        write_chunked_head(
            wire.lead(),
            200,
            "application/xml",
            &[("x-foxq-request-id", format!("{:016x}", self.req_id))],
            &trailers,
            self.keep,
        )?;
        wire.push(chunk)?;
        self.ctx
            .add_micros(Stage::FirstFlush, micros_since(self.req_start));
        self.metrics.ttfb.observe(self.req_start.elapsed());
        Ok(())
    }

    /// The end of a successful run: the output still held, then the last
    /// chunk and `trailers`, for the reactor to write.
    fn tail(&self, trailers: &[(&str, String)]) -> Vec<u8> {
        let mut tail = Vec::new();
        self.wire.borrow_mut().finish_into(&mut tail);
        chunked_tail(&mut tail, trailers);
        tail
    }
}

/// A failure after the chunked head is on the wire: the status cannot be
/// changed and no trailer can be trusted, so nothing more is written —
/// the missing terminating chunk is what tells the client the body is
/// truncated — and the connection closes.
fn streamed_failure_reply() -> Reply {
    let mut reply = Reply::new(500, "application/xml", Vec::new());
    reply.streamed = true;
    reply.reusable = false;
    reply
}

/// What the observer of a `/query` lane does with a successful run.
trait LaneObserver: StreamObserver {
    fn record(self, query: &Query<'_, '_>, report: &RunReport);
}

impl LaneObserver for () {
    fn record(self, _: &Query<'_, '_>, _: &RunReport) {}
}

/// `--profile`: fold the run into the per-query registry and the trace log.
impl LaneObserver for StreamProfiler {
    fn record(self, query: &Query<'_, '_>, report: &RunReport) {
        let (shared, prepared) = (query.shared, query.prepared);
        let Some(registry) = &shared.profiles else {
            return;
        };
        let profile = self.into_profile(prepared.mft());
        let key = source_key(prepared.source());
        registry.record(key, prepared.source(), report, Some(&profile));
        if let Some(log) = &shared.trace_log {
            log.append_json(&profile_record(key, report, &profile));
        }
    }
}

/// One `/query` request past its checks: what to run, over what, to where.
struct Query<'a, 'w> {
    request: &'a Request,
    shared: &'a Shared,
    ctx: &'a TraceContext,
    prepared: &'a PreparedQuery,
    /// `doc=<id>`: read the stored tape, not the request body.
    doc: Option<&'a str>,
    /// `stream=1`: where the lane's sink delivers to.
    out: Option<&'a StreamOut<'a, 'w>>,
}

impl Query<'_, '_> {
    /// The shape of this query's reply.
    fn kind(&self) -> ReplyKind {
        ReplyKind {
            streamed: self.out.is_some(),
            doc: self.doc.is_some(),
        }
    }

    /// Whether the streamed head is on the wire: from then on a failure
    /// can only truncate the body.
    fn head_written(&self) -> bool {
        self.out.is_some_and(|out| out.head_written.get())
    }

    /// Nothing ran, or the input side killed the whole pass. Before the
    /// head: a normal error answer. After: truncate.
    fn pass_failed(&self, reply: Reply) -> Reply {
        if self.head_written() {
            self.shared.metrics.add(Scalar::LaneFailures, 1);
            return streamed_failure_reply();
        }
        reply
    }

    /// Pick the lane's sink — the reply's buffer, or the client itself,
    /// which leaves no body behind — and run.
    fn answer<R: BufRead, O: LaneObserver>(&self, input: &mut R, obs: O) -> Reply {
        match self.out {
            Some(out) => {
                let sink = EmitWriter::new(|chunk: &[u8]| out.deliver(chunk));
                self.answer_into(input, sink, obs, |sink| sink.finish().map(|()| Vec::new()))
            }
            None => self.answer_into(input, WriterSink::new(Vec::new()), obs, WriterSink::finish),
        }
    }

    /// Run the single lane under the query's cached solo plan (repeat
    /// requests do not re-run the projection analysis) and settle it into
    /// the reply, whose body is what `finish` makes of the sink.
    fn answer_into<R: BufRead, S: EmitSink, O: LaneObserver>(
        &self,
        input: &mut R,
        sink: S,
        obs: O,
        finish: impl FnOnce(S) -> std::io::Result<Vec<u8>>,
    ) -> Reply {
        let (request, shared, ctx) = (self.request, self.shared, self.ctx);
        let mfts = [self.prepared.mft()];
        let lanes = vec![(sink, obs)];
        let plan = self.prepared.solo_plan();
        let metered = O::ENABLED.then(|| (AllocScope::begin(), Instant::now()));
        let ran = match self.doc {
            None => run_over_body(request, input, shared, ctx, &mfts, lanes, plan),
            Some(id) => run_over_tape(request, shared, ctx, id, &mfts, lanes, plan),
        };
        let run = match ran {
            Ok(run) => run,
            Err(reply) => return self.pass_failed(reply),
        };
        let metered =
            metered.map(|(scope, start)| (scope.delta().allocated_bytes, micros_since(start)));
        shared.metrics.add(Scalar::InputEvents, run.input_events);
        let lane = run.into_reports().next().expect("one lane");
        let settled = lane.and_then(|(sink, obs, report)| {
            let _span = ctx.enter(Stage::Serialize);
            Ok((finish(sink)?, obs, report))
        });
        let (body, obs, mut report) = match settled {
            Ok(settled) => settled,
            Err(e) => {
                shared.metrics.add(Scalar::LaneFailures, 1);
                if self.head_written() {
                    return streamed_failure_reply();
                }
                let reply = match e {
                    StreamError::Xml(_) => error_reply(&e, 400, "malformed XML input: "),
                    _ => error_reply(&e, 422, "query run failed: "),
                };
                return if self.doc.is_some() {
                    // No request body was involved: the connection is clean.
                    reply
                } else {
                    // The lane died before end-of-input: the body was not
                    // drained.
                    reply_unconsumed(reply)
                };
            }
        };
        // A query with no output still owes a streaming client a head.
        if let Some(out) = self.out {
            if !out.head_written.get() && out.deliver(&[]).is_err() {
                return streamed_failure_reply();
            }
        }
        if let Some((alloc_bytes, execute_micros)) = metered {
            report.alloc_bytes = Some(alloc_bytes);
            report.execute_micros = Some(execute_micros);
            obs.record(self, &report);
        }
        let kind = self.kind();
        shared.metrics.record_run(&report, kind);
        let carried = report.fields(kind);
        if let Some(out) = self.out {
            let mut reply = Reply::new(200, "application/xml", out.tail(&carried));
            reply.streamed = true;
            reply
        } else {
            let mut reply = Reply::new(200, "application/xml", body);
            reply.headers = carried;
            reply
        }
    }
}

/// `GET /corpus`: the manifest as tab-separated text.
fn handle_corpus_list(shared: &Shared) -> Reply {
    let Some(corpus) = shared.corpus() else {
        return Reply::text(503, NO_CORPUS);
    };
    let mut body = String::from("# id\tevents\tsource_bytes\ttape_bytes\tchecksum\n");
    for meta in corpus.docs() {
        body.push_str(&format!(
            "{}\t{}\t{}\t{}\t{:016x}\n",
            meta.id, meta.events, meta.source_bytes, meta.tape_bytes, meta.checksum
        ));
    }
    Reply::text(200, body)
}

/// `POST /corpus/{id}`: stream the request body through the XML parser
/// onto a tape, then commit it to the corpus under the lock. The parse and
/// tape write happen **outside** the corpus lock, so a slow ingest never
/// blocks `/query?doc=` resolution.
fn handle_corpus_ingest<R: BufRead>(
    request: &Request,
    input: &mut R,
    shared: &Shared,
    ctx: &TraceContext,
    id: &str,
) -> Reply {
    if shared.corpus.is_none() {
        return Reply::text(503, NO_CORPUS);
    }
    if !valid_doc_id(id) {
        return Reply::text(
            400,
            format!("invalid document id {id:?} (use [A-Za-z0-9._-], not starting with '.')\n"),
        );
    }
    if let Err(reply) = require_body(request) {
        return reply;
    }
    let dir = shared.corpus().expect("checked above").dir().to_path_buf();
    let seq = shared.ingest_seq.fetch_add(1, Ordering::Relaxed);
    let tmp = dir.join(format!(".ingest-{seq}-{id}.tmp"));
    let bounded = BoundedReader::new(input, shared.config.limits.max_body_bytes);
    let span = ctx.enter(Stage::Execute);
    let ingested = ingest_xml_to_tmp(&tmp, bounded);
    drop(span);
    match ingested {
        Ok((info, source_bytes)) => {
            let installed =
                shared
                    .corpus()
                    .expect("checked above")
                    .install_tape(id, &tmp, &info, source_bytes);
            match installed {
                Ok(meta) => {
                    shared.metrics.add(Scalar::CorpusIngests, 1);
                    shared.metrics.add(Scalar::InputEvents, info.events + 1);
                    Reply::text(
                        200,
                        format!(
                            "stored {}: {} events, {} tape bytes (from {} XML bytes)\n",
                            meta.id, meta.events, meta.tape_bytes, meta.source_bytes
                        ),
                    )
                }
                Err(e) => Reply::text(500, format!("corpus commit failed: {e}\n")),
            }
        }
        // The helper already removed the tmp file.
        Err(StoreError::Xml(e)) => reply_unconsumed(error_reply(&e, 400, "malformed XML input: ")),
        Err(e) => reply_unconsumed(error_reply(&e, 500, "ingest failed: ")),
    }
}

const NO_CORPUS: &str = "no corpus configured (start with --corpus DIR)\n";

fn handle_batch<R: BufRead>(
    request: &Request,
    input: &mut R,
    shared: &Shared,
    ctx: &TraceContext,
) -> Reply {
    let queries: Vec<&str> = request.params("q").collect();
    if queries.is_empty() {
        return Reply::text(400, "missing query parameters q\n");
    }
    let bound = shared.config.limits.max_queries_per_batch;
    if queries.len() > bound {
        let found = format!(" ({})", queries.len());
        return error_reply(&Tripped::new(&BATCH_QUERIES, bound as u64, found), 400, "");
    }
    let mut prepared = Vec::with_capacity(queries.len());
    for (i, q) in queries.iter().enumerate() {
        match lookup_traced(shared, ctx, q) {
            Ok(p) => prepared.push(p),
            Err(e) => return error_reply(&e, 400, &format!("query {i} rejected: ")),
        }
    }
    let mfts: Vec<&Mft> = prepared.iter().map(|p| p.mft()).collect();
    let lanes = mfts
        .iter()
        .map(|_| (WriterSink::new(Vec::new()), ()))
        .collect();
    let plan = QuerySetPlan::new(mfts.iter().copied());
    let run = match run_over_body(request, input, shared, ctx, &mfts, lanes, &plan) {
        Ok(run) => run,
        Err(reply) => return reply,
    };
    let input_events = run.input_events;
    shared.metrics.add(Scalar::InputEvents, input_events);

    let _serialize = ctx.enter(Stage::Serialize);
    let mut body = Vec::new();
    let mut failures = 0u64;
    let mut any_ok = false;
    for (i, result) in run.into_reports().enumerate() {
        body.extend_from_slice(format!("### query {i}\n").as_bytes());
        match result {
            Ok((sink, (), report)) => {
                any_ok = true;
                shared.metrics.record_run(&report, ReplyKind::default());
                body.extend_from_slice(&sink.finish().expect("writing to Vec cannot fail"));
                body.push(b'\n');
            }
            Err(e) => {
                failures += 1;
                body.extend_from_slice(format!("error: {e}\n").as_bytes());
            }
        }
    }
    shared.metrics.add(Scalar::LaneFailures, failures);
    let mut reply = Reply::new(200, "text/plain; charset=utf-8", body);
    reply.headers = vec![
        ("x-foxq-input-events", input_events.to_string()),
        ("x-foxq-failed-lanes", failures.to_string()),
    ];
    // If every lane failed, the pass aborted early: the connection cannot
    // be reused.
    reply.reusable = any_ok;
    reply
}

/// Mark a reply as leaving unread body bytes on the wire.
fn reply_unconsumed(mut reply: Reply) -> Reply {
    reply.reusable = false;
    reply
}

/// Cache probe plus (on a miss) compile. Lock and probe overhead is
/// credited to `CacheLookup`; a miss's compile cost is unfolded into its
/// parse/translate/optimize stages from the per-query breakdown cached
/// with the prepared query, so the paying request's trace shows *why*
/// the lookup was slow while a warm hit stays a pure probe.
fn lookup_traced(
    shared: &Shared,
    ctx: &TraceContext,
    q: &str,
) -> Result<Arc<PreparedQuery>, PrepareError> {
    let start = Instant::now();
    let looked_up = shared.cache.lookup_or_compile(q);
    let mut micros = micros_since(start);
    if let Ok((prepared, hit)) = &looked_up {
        if !*hit {
            let compile = prepared.meta().compile_times;
            for (stage, stage_micros) in compile.iter() {
                ctx.add_micros(stage, stage_micros);
            }
            micros = micros.saturating_sub(compile.total_micros());
        }
    }
    ctx.add_micros(Stage::CacheLookup, micros);
    looked_up.map(|(prepared, _)| prepared)
}
