//! A worker-pool HTTP/1.1 server with keep-alive, backpressure and
//! graceful shutdown — the "servlet engine" substrate hosting the dummy
//! services and the portal site.
//!
//! Concurrency is bounded end to end: a fixed pool of worker threads
//! (sized by [`ServerConfig::workers`]) drains an MPMC connection queue
//! with a hard capacity ([`ServerConfig::queue_capacity`]). When the
//! queue is full, new connections are answered immediately with
//! `503 Service Unavailable` and `Retry-After` instead of spawning an
//! unbounded thread per connection. Shutdown joins every worker, so no
//! connection threads outlive the [`Server`].

use crate::error::HttpError;
use crate::message::{Request, Response};
use std::collections::VecDeque;
use std::io::{BufRead, BufReader, BufWriter};
use std::net::{TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;
use wsrc_obs::{
    sync, Clock, Counter, Gauge, Histogram, MetricsRegistry, TraceContext, Tracer,
    TRACEPARENT_HEADER,
};

/// Application logic behind a [`Server`].
///
/// Handlers must be `Send + Sync`; one instance serves all connections
/// concurrently.
pub trait Handler: Send + Sync + 'static {
    /// Produces the response for one request.
    fn handle(&self, request: &Request) -> Response;
}

impl<F> Handler for F
where
    F: Fn(&Request) -> Response + Send + Sync + 'static,
{
    fn handle(&self, request: &Request) -> Response {
        self(request)
    }
}

/// Wraps an application handler, answering `GET /metrics` from a
/// [`MetricsRegistry`], `GET /trace` from that registry's tracer's
/// tail-sampled trace store, and delegating every other request to the
/// inner handler.
///
/// The default `/metrics` body is the Prometheus text exposition;
/// append `?format=json` for the JSON rendering. `/trace` is always
/// JSON: recent and slowest traces as span trees.
pub struct MetricsRoute {
    registry: Arc<MetricsRegistry>,
    inner: Arc<dyn Handler>,
}

impl std::fmt::Debug for MetricsRoute {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "MetricsRoute")
    }
}

impl MetricsRoute {
    /// Exposes the process-wide registry in front of `inner`.
    pub fn new(inner: Arc<dyn Handler>) -> Self {
        MetricsRoute::with_registry(wsrc_obs::global(), inner)
    }

    /// Exposes a specific registry — its metrics and its traces — in
    /// front of `inner`. Give the server the same one
    /// ([`ServerConfig::registry`]) and `/trace` shows the spans it
    /// records.
    pub fn with_registry(registry: Arc<MetricsRegistry>, inner: Arc<dyn Handler>) -> Self {
        MetricsRoute { registry, inner }
    }
}

impl Handler for MetricsRoute {
    fn handle(&self, request: &Request) -> Response {
        let (path, query) = match request.target.split_once('?') {
            Some((p, q)) => (p, q),
            None => (request.target.as_str(), ""),
        };
        if request.method != crate::message::Method::Get || (path != "/metrics" && path != "/trace")
        {
            return self.inner.handle(request);
        }
        if path == "/trace" {
            return Response::ok(
                "application/json",
                self.registry.tracer().store().to_json().into_bytes(),
            );
        }
        let snapshot = self.registry.snapshot();
        if query.split('&').any(|kv| kv == "format=json") {
            Response::ok(
                "application/json",
                wsrc_obs::to_json(&snapshot).into_bytes(),
            )
        } else {
            Response::ok(
                "text/plain; version=0.0.4",
                wsrc_obs::to_prometheus(&snapshot).into_bytes(),
            )
        }
    }
}

/// Sizing and observability knobs for a [`Server`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker threads draining the connection queue. Default:
    /// `std::thread::available_parallelism()` (at least 2).
    pub workers: usize,
    /// Hard cap on connections waiting for a worker; connections
    /// arriving beyond it are answered `503 Service Unavailable`.
    /// Requeued keep-alive connections are exempt (they were already
    /// admitted), so the instantaneous depth may briefly exceed this.
    pub queue_capacity: usize,
    /// How long an idle keep-alive connection is kept before the server
    /// closes it. Replaces the old hard-coded 60 s.
    pub idle_keep_alive: Duration,
    /// Value of the `Retry-After` header on `503` rejections.
    pub retry_after: Duration,
    /// Registry receiving the server's queue/worker/connection metrics.
    /// Its clock times idle accounting and queue waits, and its tracer
    /// continues the `traceparent` contexts received on requests. The
    /// server never mints roots — untraced requests stay untraced (no
    /// orphan roots: `clippy.toml` disallows `root_span` here).
    pub registry: Arc<MetricsRegistry>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4)
                .max(2),
            queue_capacity: 256,
            idle_keep_alive: Duration::from_secs(15),
            retry_after: Duration::from_secs(1),
            registry: wsrc_obs::global(),
        }
    }
}

/// A running HTTP server. Dropping it shuts it down.
#[derive(Debug)]
pub struct Server {
    port: u16,
    shared: Arc<Shared>,
    accept_thread: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

/// One admitted connection travelling through the queue. Buffered
/// reader/writer state travels with it, so a worker can hand a
/// keep-alive connection back to the queue without losing bytes a
/// pipelining client may already have sent.
struct Conn {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    /// When the connection last finished a request (or was accepted).
    idle_since_nanos: u64,
    /// When the connection last entered the queue.
    enqueued_nanos: u64,
}

impl Conn {
    fn new(stream: TcpStream, poll: Duration, now_nanos: u64) -> Result<Conn, HttpError> {
        stream.set_nodelay(true)?;
        // Workers poll in short quanta so idle connections can yield the
        // worker and shutdown stays prompt.
        stream.set_read_timeout(Some(poll))?;
        let read_half = stream.try_clone()?;
        Ok(Conn {
            reader: BufReader::new(read_half),
            writer: BufWriter::new(stream),
            idle_since_nanos: now_nanos,
            enqueued_nanos: now_nanos,
        })
    }
}

struct ServerMetrics {
    queue_depth: Gauge,
    busy_workers: Gauge,
    open_connections: Gauge,
    rejected: Counter,
    queue_wait: Histogram,
}

impl ServerMetrics {
    fn new(registry: &MetricsRegistry) -> ServerMetrics {
        ServerMetrics {
            queue_depth: registry.gauge("wsrc_http_queue_depth", &[]),
            busy_workers: registry.gauge("wsrc_http_busy_workers", &[]),
            open_connections: registry.gauge("wsrc_http_open_connections", &[]),
            rejected: registry.counter("wsrc_http_rejected_total", &[]),
            queue_wait: registry.histogram("wsrc_http_queue_wait_seconds", &[]),
        }
    }
}

struct Shared {
    shutting_down: AtomicBool,
    requests_served: AtomicU64,
    live_workers: AtomicUsize,
    handler: Arc<dyn Handler>,
    queue: Mutex<VecDeque<Conn>>,
    queue_cv: Condvar,
    queue_capacity: usize,
    idle_keep_alive: Duration,
    poll_quantum: Duration,
    retry_after: Duration,
    clock: Arc<dyn Clock>,
    tracer: Arc<Tracer>,
    metrics: ServerMetrics,
}

impl std::fmt::Debug for Shared {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Shared")
            .field("shutting_down", &self.shutting_down)
            .field("queue_capacity", &self.queue_capacity)
            .finish_non_exhaustive()
    }
}

/// What a worker should do with a connection after serving it.
enum ServeOutcome {
    /// Close the connection (EOF, error, idle timeout, shutdown, or
    /// `Connection: close`).
    Close,
    /// Keep-alive connection yielding the worker to queued peers.
    Requeue,
}

impl Server {
    /// Binds to `addr` (use port 0 for an ephemeral port) and starts
    /// serving `handler` with default [`ServerConfig`].
    ///
    /// # Errors
    ///
    /// Returns I/O errors from binding the listener.
    pub fn bind<A: ToSocketAddrs>(addr: A, handler: Arc<dyn Handler>) -> Result<Server, HttpError> {
        Server::bind_with_config(addr, handler, ServerConfig::default())
    }

    /// Binds with explicit sizing/observability configuration.
    ///
    /// # Errors
    ///
    /// Returns I/O errors from binding the listener or spawning threads.
    pub fn bind_with_config<A: ToSocketAddrs>(
        addr: A,
        handler: Arc<dyn Handler>,
        config: ServerConfig,
    ) -> Result<Server, HttpError> {
        let listener = TcpListener::bind(addr)?;
        let port = listener.local_addr()?.port();
        let worker_count = config.workers.max(1);
        let poll_quantum = config
            .idle_keep_alive
            .min(Duration::from_millis(50))
            .max(Duration::from_millis(1));
        let shared = Arc::new(Shared {
            shutting_down: AtomicBool::new(false),
            requests_served: AtomicU64::new(0),
            live_workers: AtomicUsize::new(0),
            handler,
            queue: Mutex::new(VecDeque::new()),
            queue_cv: Condvar::new(),
            queue_capacity: config.queue_capacity.max(1),
            idle_keep_alive: config.idle_keep_alive,
            poll_quantum,
            retry_after: config.retry_after,
            clock: config.registry.clock().clone(),
            tracer: config.registry.tracer().clone(),
            metrics: ServerMetrics::new(&config.registry),
        });
        let accept_shared = shared.clone();
        #[expect(
            clippy::disallowed_methods,
            reason = "pool construction: one accept thread, joined on shutdown"
        )]
        let accept_thread = std::thread::Builder::new()
            .name(format!("http-accept-{port}"))
            .spawn(move || accept_loop(listener, accept_shared))
            .map_err(HttpError::Io)?;
        let mut workers = Vec::with_capacity(worker_count);
        for i in 0..worker_count {
            let worker_shared = shared.clone();
            #[expect(
                clippy::disallowed_methods,
                reason = "pool construction: a fixed set of workers, joined on shutdown"
            )]
            let handle = std::thread::Builder::new()
                .name(format!("http-worker-{port}-{i}"))
                .spawn(move || worker_loop(worker_shared))
                .map_err(HttpError::Io)?;
            workers.push(handle);
        }
        Ok(Server {
            port,
            shared,
            accept_thread: Some(accept_thread),
            workers,
        })
    }

    /// The bound port.
    pub fn port(&self) -> u16 {
        self.port
    }

    /// Total requests served so far — used by tests to prove cache hits
    /// never reached the network.
    pub fn requests_served(&self) -> u64 {
        self.shared.requests_served.load(Ordering::SeqCst)
    }

    /// Configured worker-pool size.
    #[cfg(test)]
    fn worker_count(&self) -> usize {
        self.workers.len()
    }

    /// Worker threads currently alive — the bounded-concurrency
    /// invariant: never exceeds [`worker_count`](Server::worker_count),
    /// and zero once [`shutdown`](Server::shutdown) returns.
    #[cfg(test)]
    fn live_workers(&self) -> usize {
        self.shared.live_workers.load(Ordering::SeqCst)
    }

    /// Connections currently waiting in the queue.
    #[cfg(test)]
    fn queued_connections(&self) -> usize {
        sync::lock_class("Shared.queue", &self.shared.queue).len()
    }

    /// Requests shutdown and joins the accept loop and every worker.
    /// Requests already being handled are finished; connections still
    /// waiting in the queue are closed unserved.
    pub fn shutdown(&mut self) {
        if self.shared.shutting_down.swap(true, Ordering::SeqCst) {
            return;
        }
        sync::assert_unlocked("joining the server's threads");
        // Unblock accept() by poking the listener.
        let _ = TcpStream::connect(("127.0.0.1", self.port));
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        self.shared.queue_cv.notify_all();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
        let drained = {
            let mut queue = sync::lock_class("Shared.queue", &self.shared.queue);
            let n = queue.len();
            queue.clear();
            n
        };
        self.shared.metrics.queue_depth.set(0);
        self.shared.metrics.open_connections.add(-(drained as i64));
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn accept_loop(listener: TcpListener, shared: Arc<Shared>) {
    for stream in listener.incoming() {
        if shared.shutting_down.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        admit(stream, &shared);
    }
}

/// Admits a fresh connection into the queue, or rejects it with `503`
/// when the queue is at capacity.
fn admit(stream: TcpStream, shared: &Shared) {
    let over_capacity = {
        let queue = sync::lock_class("Shared.queue", &shared.queue);
        queue.len() >= shared.queue_capacity
    };
    if over_capacity {
        reject(stream, shared);
        return;
    }
    let now = shared.clock.now_nanos();
    let Ok(conn) = Conn::new(stream, shared.poll_quantum, now) else {
        return;
    };
    shared.metrics.open_connections.add(1);
    enqueue(conn, shared);
}

/// Pushes a connection (fresh or requeued) and wakes one worker.
fn enqueue(mut conn: Conn, shared: &Shared) {
    conn.enqueued_nanos = shared.clock.now_nanos();
    let depth = {
        let mut queue = sync::lock_class("Shared.queue", &shared.queue);
        queue.push_back(conn);
        queue.len()
    };
    shared.metrics.queue_depth.set(depth as i64);
    shared.queue_cv.notify_one();
}

/// Best-effort `503 Service Unavailable` + `Retry-After`, then close.
///
/// A briefly-bounded read of the request head recovers the caller's
/// `traceparent`, so a rejected request is still correlatable from the
/// client side; clients that sent nothing yet get a plain 503 once the
/// short deadline passes.
fn reject(stream: TcpStream, shared: &Shared) {
    shared.metrics.rejected.add(1);
    let _ = stream.set_nodelay(true);
    let _ = stream.set_write_timeout(Some(Duration::from_secs(1)));
    let _ = stream.set_read_timeout(Some(Duration::from_millis(25)));
    let traceparent = stream
        .try_clone()
        .ok()
        .and_then(|read_half| {
            Request::read_from(&mut BufReader::new(read_half))
                .ok()
                .flatten()
        })
        .and_then(|req| req.headers.get(TRACEPARENT_HEADER).map(str::to_string))
        .filter(|value| TraceContext::parse_traceparent(value).is_some());
    let mut stream = stream;
    let mut response = Response::error(
        crate::message::Status::SERVICE_UNAVAILABLE,
        "connection queue full",
    )
    .with_header("Retry-After", shared.retry_after.as_secs().to_string())
    .with_header("Connection", "close");
    if let Some(value) = traceparent {
        response.headers.set(TRACEPARENT_HEADER, value);
    }
    let _ = response.write_to(&mut stream);
}

fn worker_loop(shared: Arc<Shared>) {
    shared.live_workers.fetch_add(1, Ordering::SeqCst);
    while let Some(mut conn) = next_conn(&shared) {
        let queue_wait_nanos = shared.clock.now_nanos().saturating_sub(conn.enqueued_nanos);
        shared.metrics.queue_wait.record_nanos(queue_wait_nanos);
        shared.metrics.busy_workers.add(1);
        let outcome = serve_connection(&mut conn, &shared, queue_wait_nanos);
        shared.metrics.busy_workers.add(-1);
        match outcome {
            ServeOutcome::Close => shared.metrics.open_connections.add(-1),
            ServeOutcome::Requeue => enqueue(conn, &shared),
        }
    }
    shared.live_workers.fetch_sub(1, Ordering::SeqCst);
}

/// Blocks until a connection is available or shutdown begins.
fn next_conn(shared: &Shared) -> Option<Conn> {
    let mut queue = sync::lock_class("Shared.queue", &shared.queue);
    loop {
        if shared.shutting_down.load(Ordering::SeqCst) {
            return None;
        }
        if let Some(conn) = queue.pop_front() {
            shared.metrics.queue_depth.set(queue.len() as i64);
            return Some(conn);
        }
        queue = sync::wait_class(&shared.queue_cv, queue);
    }
}

/// Serves requests on one connection until it closes, idles out, or
/// yields the worker to queued peers. `queue_wait_nanos`, the wait its
/// histogram sample recorded, applies to the first request served after
/// this dequeue; later keep-alive requests on the connection did not
/// wait.
fn serve_connection(conn: &mut Conn, shared: &Shared, mut queue_wait_nanos: u64) -> ServeOutcome {
    loop {
        // Wait for the next request head one poll quantum at a time, so
        // shutdown is noticed promptly and an idle connection hands its
        // worker back whenever other connections are waiting.
        loop {
            if shared.shutting_down.load(Ordering::SeqCst) {
                return ServeOutcome::Close;
            }
            sync::assert_unlocked("a keep-alive poll");
            match conn.reader.fill_buf().map(|buf| buf.is_empty()) {
                Ok(true) => return ServeOutcome::Close, // clean EOF
                Ok(false) => break,
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut =>
                {
                    let idle = shared
                        .clock
                        .now_nanos()
                        .saturating_sub(conn.idle_since_nanos);
                    let limit = shared.idle_keep_alive.as_nanos().min(u64::MAX as u128) as u64;
                    if idle >= limit {
                        return ServeOutcome::Close;
                    }
                    if !sync::lock_class("Shared.queue", &shared.queue).is_empty() {
                        return ServeOutcome::Requeue;
                    }
                }
                Err(_) => return ServeOutcome::Close,
            }
        }
        let request = match Request::read_from(&mut conn.reader) {
            Ok(Some(req)) => req,
            Ok(None) => return ServeOutcome::Close,
            Err(HttpError::Timeout) | Err(HttpError::Io(_)) => return ServeOutcome::Close,
            Err(_) => {
                // Malformed request: best-effort 400, then close.
                let resp =
                    Response::error(crate::message::Status::BAD_REQUEST, "malformed request");
                let _ = resp.write_to(&mut conn.writer);
                return ServeOutcome::Close;
            }
        };
        // Work that arrives after shutdown began is refused; only requests
        // already in flight are finished.
        if shared.shutting_down.load(Ordering::SeqCst) {
            return ServeOutcome::Close;
        }
        let close_requested = request
            .headers
            .get("Connection")
            .map(|v| v.eq_ignore_ascii_case("close"))
            .unwrap_or(false);
        // Continue a propagated trace context, if the request carries
        // one: the server span parents onto the caller's wire span, and
        // the time spent in the connection queue becomes a retroactive
        // child ending where the server span begins.
        let span = request
            .headers
            .get(TRACEPARENT_HEADER)
            .and_then(TraceContext::parse_traceparent)
            .map(|ctx| {
                let route = match request.target.split_once('?') {
                    Some((path, _)) => path,
                    None => request.target.as_str(),
                };
                shared.tracer.span_from(ctx, "server", "server", route)
            });
        if let Some(span) = &span {
            // Recorded even at zero wait so every traced request's tree
            // names the queue stage (and fake-clock smokes stay stable).
            let end = span.start_nanos();
            span.child_record(
                "queue-wait",
                "queue",
                end.saturating_sub(queue_wait_nanos),
                end,
            );
        }
        queue_wait_nanos = 0;
        let mut response = shared.handler.handle(&request);
        shared.requests_served.fetch_add(1, Ordering::SeqCst);
        if let Some(mut span) = span {
            if response.status.0 >= 500 {
                span.set_error();
            }
            span.annotate(format!("status={}", response.status.0));
            // Echo the caller's context so the response is correlatable.
            if let Some(value) = request.headers.get(TRACEPARENT_HEADER) {
                response.headers.set(TRACEPARENT_HEADER, value.to_string());
            }
            // Finish (and drain) before the response leaves, so a
            // caller querying /trace right after sees the server spans.
            span.finish();
        }
        if response.write_to(&mut conn.writer).is_err() {
            return ServeOutcome::Close;
        }
        conn.idle_since_nanos = shared.clock.now_nanos();
        if close_requested {
            return ServeOutcome::Close;
        }
        // Fairness between keep-alive connections: yield the worker when
        // peers are queued and this client has nothing buffered yet.
        if conn.reader.buffer().is_empty()
            && !sync::lock_class("Shared.queue", &shared.queue).is_empty()
        {
            return ServeOutcome::Requeue;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::HttpClient;
    use crate::url::Url;
    use wsrc_obs::Clock;

    fn hello_server() -> (Server, Url) {
        let server = Server::bind(
            "127.0.0.1:0",
            Arc::new(|req: &Request| {
                Response::ok("text/plain", format!("hello {}", req.target).into_bytes())
            }),
        )
        .unwrap();
        let url = Url::new("127.0.0.1", server.port(), "/world");
        (server, url)
    }

    /// Bounded progress wait (not a timing assertion): spins until
    /// `predicate` holds or a generous deadline passes.
    fn wait_until(what: &str, mut predicate: impl FnMut() -> bool) {
        let clock = wsrc_obs::MonotonicClock::new();
        while !predicate() {
            assert!(clock.now_millis() < 10_000, "timed out waiting for {what}");
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    #[test]
    fn serves_closures_as_handlers() {
        let (server, url) = hello_server();
        let client = HttpClient::new();
        let resp = client.get(&url).unwrap();
        assert_eq!(resp.body_text().unwrap(), "hello /world");
        assert_eq!(server.requests_served(), 1);
    }

    #[test]
    fn keep_alive_counts_every_request() {
        let (server, url) = hello_server();
        let client = HttpClient::new();
        for _ in 0..10 {
            client.get(&url).unwrap();
        }
        assert_eq!(server.requests_served(), 10);
    }

    #[test]
    fn malformed_request_gets_400_and_close() {
        let (server, _url) = hello_server();
        let mut stream = TcpStream::connect(("127.0.0.1", server.port())).unwrap();
        use std::io::{Read, Write};
        stream.write_all(b"NOT-HTTP\r\n\r\n").unwrap();
        let mut buf = String::new();
        stream.read_to_string(&mut buf).unwrap();
        assert!(buf.starts_with("HTTP/1.1 400"), "{buf}");
    }

    #[test]
    fn connection_close_header_is_honored() {
        let (server, _url) = hello_server();
        let mut stream = TcpStream::connect(("127.0.0.1", server.port())).unwrap();
        use std::io::{Read, Write};
        stream
            .write_all(b"GET /x HTTP/1.1\r\nHost: h\r\nConnection: close\r\n\r\n")
            .unwrap();
        let mut buf = String::new();
        // read_to_string only returns when the server closes the socket.
        stream.read_to_string(&mut buf).unwrap();
        assert!(buf.starts_with("HTTP/1.1 200"));
    }

    #[test]
    fn shutdown_is_prompt_and_idempotent() {
        let (mut server, url) = hello_server();
        let client = HttpClient::new();
        client.get(&url).unwrap();
        let clock = wsrc_obs::MonotonicClock::new();
        let start = clock.now_millis();
        server.shutdown();
        server.shutdown();
        assert!(clock.now_millis() - start < 5_000);
        assert_eq!(server.live_workers(), 0, "every worker joined");
        // New connections are refused or die without being served.
        let client2 = HttpClient::new();
        assert!(client2.get(&url).is_err());
    }

    #[test]
    fn queue_full_returns_503_with_retry_after() {
        let registry = Arc::new(MetricsRegistry::new());
        let handler: Arc<dyn Handler> =
            Arc::new(|_req: &Request| Response::ok("text/plain", b"ok".to_vec()));
        let server = Server::bind_with_config(
            "127.0.0.1:0",
            handler,
            ServerConfig {
                workers: 1,
                queue_capacity: 1,
                retry_after: Duration::from_secs(7),
                registry: registry.clone(),
                ..ServerConfig::default()
            },
        )
        .unwrap();
        let url = Url::new("127.0.0.1", server.port(), "/x");

        // c1 pins the single worker on a served keep-alive connection.
        let client = HttpClient::new();
        client.get(&url).unwrap();
        // c2 occupies the only queue slot (it never sends a request, so
        // the queue stays non-empty from here on).
        let _c2 = TcpStream::connect(("127.0.0.1", server.port())).unwrap();
        wait_until("c2 to be queued", || {
            server.queued_connections() >= 1
                || registry
                    .snapshot()
                    .counter_value("wsrc_http_rejected_total", &[])
                    .unwrap_or(0)
                    > 0
        });

        // The flood: every further connection is rejected, not spawned.
        use std::io::Read;
        for _ in 0..3 {
            let mut flood = TcpStream::connect(("127.0.0.1", server.port())).unwrap();
            flood
                .set_read_timeout(Some(Duration::from_secs(10)))
                .unwrap();
            let mut buf = String::new();
            flood.read_to_string(&mut buf).unwrap();
            assert!(buf.starts_with("HTTP/1.1 503"), "{buf}");
            assert!(buf.contains("Retry-After: 7"), "{buf}");
        }

        // Bounded-concurrency invariants: the worker pool never grew, and
        // the rejections were counted.
        assert_eq!(server.worker_count(), 1);
        assert_eq!(server.live_workers(), 1);
        let rejected = registry
            .snapshot()
            .counter_value("wsrc_http_rejected_total", &[])
            .unwrap_or(0);
        assert!(rejected >= 3, "rejected {rejected}");
    }

    #[test]
    fn graceful_shutdown_under_load_finishes_in_flight_and_joins_all() {
        let handler: Arc<dyn Handler> =
            Arc::new(|req: &Request| Response::ok("text/plain", req.target.clone().into_bytes()));
        let mut server = Server::bind_with_config(
            "127.0.0.1:0",
            handler,
            ServerConfig {
                workers: 4,
                ..ServerConfig::default()
            },
        )
        .unwrap();
        let url = Url::new("127.0.0.1", server.port(), "/load");
        let mut callers = Vec::new();
        for _ in 0..8 {
            let url = url.clone();
            callers.push(std::thread::spawn(move || {
                let client = HttpClient::new();
                let mut completed = 0u64;
                loop {
                    match client.get(&url) {
                        // Every response that arrives must be complete.
                        Ok(resp) => {
                            assert_eq!(resp.body_text().unwrap(), "/load");
                            completed += 1;
                        }
                        Err(_) => return completed, // server is gone
                    }
                }
            }));
        }
        wait_until("some load to flow", || server.requests_served() >= 32);
        server.shutdown();
        assert_eq!(server.live_workers(), 0, "no leaked worker threads");
        assert_eq!(server.worker_count(), 0, "all handles joined");
        let total: u64 = callers.into_iter().map(|t| t.join().unwrap()).sum();
        assert!(total >= 32, "callers completed {total}");
    }

    #[test]
    fn idle_keep_alive_timeout_is_configurable() {
        let handler: Arc<dyn Handler> =
            Arc::new(|_req: &Request| Response::ok("text/plain", b"ok".to_vec()));
        let server = Server::bind_with_config(
            "127.0.0.1:0",
            handler,
            ServerConfig {
                idle_keep_alive: Duration::from_millis(100),
                ..ServerConfig::default()
            },
        )
        .unwrap();
        let mut stream = TcpStream::connect(("127.0.0.1", server.port())).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        use std::io::{Read, Write};
        stream
            .write_all(b"GET /x HTTP/1.1\r\nHost: h\r\n\r\n")
            .unwrap();
        // No `Connection: close`, yet the server hangs up once the
        // connection sits idle past the configured 100 ms.
        let mut buf = String::new();
        stream.read_to_string(&mut buf).unwrap();
        assert!(buf.starts_with("HTTP/1.1 200"), "{buf}");
    }

    #[test]
    fn open_connections_gauge_tracks_lifecycle() {
        let registry = Arc::new(MetricsRegistry::new());
        let handler: Arc<dyn Handler> =
            Arc::new(|_req: &Request| Response::ok("text/plain", b"ok".to_vec()));
        let server = Server::bind_with_config(
            "127.0.0.1:0",
            handler,
            ServerConfig {
                registry: registry.clone(),
                ..ServerConfig::default()
            },
        )
        .unwrap();
        let url = Url::new("127.0.0.1", server.port(), "/x");
        let gauge = registry.gauge("wsrc_http_open_connections", &[]);
        let c1 = HttpClient::new();
        let c2 = HttpClient::new();
        c1.get(&url).unwrap();
        c2.get(&url).unwrap();
        assert_eq!(gauge.value(), 2, "two live keep-alive connections");
        drop(c1);
        drop(c2);
        wait_until("connection close to be noticed", || gauge.value() == 0);
    }

    #[test]
    fn keep_alive_connections_share_fewer_workers_fairly() {
        // More connections than workers: requeueing must keep every
        // caller progressing instead of starving the later ones.
        let handler: Arc<dyn Handler> =
            Arc::new(|req: &Request| Response::ok("text/plain", req.target.clone().into_bytes()));
        let server = Server::bind_with_config(
            "127.0.0.1:0",
            handler,
            ServerConfig {
                workers: 2,
                ..ServerConfig::default()
            },
        )
        .unwrap();
        let url = Url::new("127.0.0.1", server.port(), "/fair");
        let mut callers = Vec::new();
        for _ in 0..6 {
            let url = url.clone();
            callers.push(std::thread::spawn(move || {
                let client = HttpClient::new();
                for _ in 0..10 {
                    let resp = client.get(&url).unwrap();
                    assert_eq!(resp.body_text().unwrap(), "/fair");
                }
            }));
        }
        for t in callers {
            t.join().unwrap();
        }
        assert_eq!(server.requests_served(), 60);
        assert_eq!(server.live_workers(), 2);
    }

    #[test]
    fn metrics_route_serves_prometheus_and_json() {
        let registry = Arc::new(wsrc_obs::MetricsRegistry::new());
        registry
            .counter(
                "wsrc_cache_hits_total",
                &[("cache", "m"), ("repr", "dom-tree")],
            )
            .add(3);
        registry
            .histogram("wsrc_http_queue_wait_seconds", &[])
            .record_nanos(1_500);
        let app: Arc<dyn Handler> =
            Arc::new(|_req: &Request| Response::ok("text/plain", b"app".to_vec()));
        let server = Server::bind(
            "127.0.0.1:0",
            Arc::new(MetricsRoute::with_registry(registry, app)),
        )
        .unwrap();
        let client = HttpClient::new();

        let text = client
            .get(&Url::new("127.0.0.1", server.port(), "/metrics"))
            .unwrap();
        assert_eq!(
            text.headers.get("Content-Type"),
            Some("text/plain; version=0.0.4")
        );
        let body = text.body_text().unwrap().to_string();
        assert!(
            body.contains("wsrc_cache_hits_total{cache=\"m\",repr=\"dom-tree\"} 3"),
            "{body}"
        );
        assert!(
            body.contains("wsrc_http_queue_wait_seconds_bucket"),
            "{body}"
        );
        assert!(
            body.contains("# TYPE wsrc_http_queue_wait_seconds histogram"),
            "{body}"
        );

        let json = client
            .get(&Url::new(
                "127.0.0.1",
                server.port(),
                "/metrics?format=json",
            ))
            .unwrap();
        assert_eq!(json.headers.get("Content-Type"), Some("application/json"));
        let jbody = json.body_text().unwrap().to_string();
        assert!(jbody.contains("\"wsrc_cache_hits_total\""), "{jbody}");

        // Everything else still reaches the application.
        let other = client
            .get(&Url::new("127.0.0.1", server.port(), "/anything"))
            .unwrap();
        assert_eq!(other.body_text().unwrap(), "app");
    }

    #[test]
    fn ephemeral_ports_differ() {
        let (s1, _) = hello_server();
        let (s2, _) = hello_server();
        assert_ne!(s1.port(), s2.port());
    }
}
