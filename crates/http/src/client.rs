//! A blocking HTTP/1.1 client with a real per-destination connection
//! pool.
//!
//! Each `host:port` gets up to [`PoolConfig::max_per_authority`]
//! concurrent connections. Callers check a connection (or the right to
//! dial one) out of the pool, blocking up to
//! [`PoolConfig::checkout_timeout`] when every slot is busy —
//! expiry surfaces as the typed [`HttpError::PoolExhausted`]. Idle
//! connections older than [`PoolConfig::idle_ttl`] are reaped at
//! checkout. Successful keep-alive round trips return the connection to
//! the pool; failures release the slot so waiters can dial afresh.

use crate::error::HttpError;
use crate::message::{Request, Response};
use crate::url::Url;
use std::collections::HashMap;
use std::io::{BufReader, BufWriter};
use std::net::TcpStream;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;
use wsrc_obs::{sync, Clock, Stage};

/// Sizing for the client connection pool.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PoolConfig {
    /// Maximum concurrent connections per `host:port`.
    pub max_per_authority: usize,
    /// How long a checkout blocks for a free slot before failing with
    /// [`HttpError::PoolExhausted`].
    pub checkout_timeout: Duration,
    /// Idle pooled connections older than this are closed instead of
    /// reused (servers reap idle peers on their own schedule; a fresh
    /// dial beats a half-closed socket).
    pub idle_ttl: Duration,
}

impl Default for PoolConfig {
    fn default() -> Self {
        PoolConfig {
            max_per_authority: 8,
            checkout_timeout: Duration::from_secs(5),
            idle_ttl: Duration::from_secs(10),
        }
    }
}

/// An idle pooled connection and when it went idle.
struct IdleConn {
    stream: TcpStream,
    since_nanos: u64,
}

/// Per-authority pool accounting: idle connections plus the number of
/// checked-out slots (in-flight connections or dial permits).
#[derive(Default)]
struct AuthorityPool {
    idle: Vec<IdleConn>,
    in_use: usize,
}

/// A blocking HTTP client.
///
/// Connections are kept alive and pooled per `host:port`, with up to
/// eight (`PoolConfig::max_per_authority`) in flight at once — concurrent
/// callers to one destination no longer serialize on a single socket.
/// The client is `Send + Sync` and is meant to be shared.
pub struct HttpClient {
    pool: Mutex<HashMap<String, AuthorityPool>>,
    slot_freed: Condvar,
    config: PoolConfig,
    timeout: Option<Duration>,
    /// The pool's reading of time: idle ages and the checkout deadline.
    clock: Arc<dyn Clock>,
    /// `wsrc_http_pool_checkout_wait_seconds`, traced as
    /// `pool-checkout`.
    checkout_wait: Stage,
}

impl std::fmt::Debug for HttpClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HttpClient")
            .field("config", &self.config)
            .field("timeout", &self.timeout)
            .finish_non_exhaustive()
    }
}

impl HttpClient {
    /// Creates a client with a default 30-second I/O timeout and default
    /// pool sizing.
    pub fn new() -> Self {
        HttpClient::with_settings(Some(Duration::from_secs(30)), PoolConfig::default())
    }

    /// Creates a client with a custom I/O timeout (`None` blocks forever).
    pub fn with_timeout(timeout: Option<Duration>) -> Self {
        HttpClient::with_settings(timeout, PoolConfig::default())
    }

    /// Creates a client with explicit I/O timeout and pool sizing.
    /// Checkout-wait timings land in the process-wide metrics registry
    /// as `wsrc_http_pool_checkout_wait_seconds`, on its clock.
    pub(crate) fn with_settings(timeout: Option<Duration>, config: PoolConfig) -> Self {
        let registry = wsrc_obs::global();
        HttpClient {
            pool: Mutex::new(HashMap::new()),
            slot_freed: Condvar::new(),
            config,
            timeout,
            clock: registry.clock().clone(),
            checkout_wait: Stage::new(&registry, "wsrc_http_pool_checkout_wait_seconds", &[])
                .traced("pool-checkout", "checkout"),
        }
    }

    /// Idle pooled connections across all destinations.
    #[cfg(test)]
    pub(crate) fn idle_connections(&self) -> usize {
        sync::lock_class("HttpClient.pool", &self.pool)
            .values()
            .map(|p| p.idle.len())
            .sum()
    }

    /// Checked-out connections across all destinations.
    #[cfg(test)]
    fn in_use_connections(&self) -> usize {
        sync::lock_class("HttpClient.pool", &self.pool)
            .values()
            .map(|p| p.in_use)
            .sum()
    }

    /// Executes a request against `url`, using a pooled connection when
    /// one is free, dialing when the destination has spare capacity, and
    /// blocking (up to the checkout deadline) when it does not. A stale
    /// pooled connection is transparently replaced once.
    ///
    /// # Errors
    ///
    /// Returns transport or protocol errors, and
    /// [`HttpError::PoolExhausted`] when every connection stays busy past
    /// the checkout deadline. HTTP error statuses are *not* errors here —
    /// inspect [`Response::status`].
    pub fn execute(&self, url: &Url, request: &Request) -> Result<Response, HttpError> {
        let authority = url.authority();
        // When a trace is active on this thread, the pool checkout and
        // the wire exchange each become child spans, and the exchange's
        // context rides the request as a `traceparent` header so the
        // server can continue the tree.
        let pooled = self.checkout(&authority)?;
        let mut span = wsrc_obs::trace::child_span("transfer", "transfer");
        let traceparent = span.as_ref().map(|s| s.context().to_traceparent());
        let driven = self.drive(pooled, &authority, url, request, traceparent.as_deref());
        if let Some(mut span) = span.take() {
            if driven.is_err() {
                span.set_error();
            }
            span.finish();
        }
        match driven {
            Ok((response, Some(stream))) => {
                self.check_in(&authority, stream);
                Ok(response)
            }
            Ok((response, None)) => {
                self.release(&authority);
                Ok(response)
            }
            Err(e) => {
                self.release(&authority);
                Err(e)
            }
        }
    }

    /// Convenience: GET `url`.
    ///
    /// # Errors
    ///
    /// Same as [`execute`](HttpClient::execute).
    pub fn get(&self, url: &Url) -> Result<Response, HttpError> {
        let req = Request::get(url.path());
        self.execute(url, &req)
    }

    /// Acquires one slot for `authority`: an idle pooled connection
    /// (`Some`), or a permit to dial a new one (`None`). A checkout that
    /// times out records no sample; its span is marked failed.
    fn checkout(&self, authority: &str) -> Result<Option<TcpStream>, HttpError> {
        let mut timing = self.checkout_wait.start(None);
        let mut now = timing.started();
        let deadline = now.saturating_add(duration_nanos(self.config.checkout_timeout));
        let ttl = duration_nanos(self.config.idle_ttl);
        let mut pool = sync::lock_class("HttpClient.pool", &self.pool);
        loop {
            let entry = pool.entry(authority.to_string()).or_default();
            // Reap idle connections past their TTL (newest kept last).
            entry
                .idle
                .retain(|c| now.saturating_sub(c.since_nanos) < ttl);
            let idle = entry.idle.pop();
            if idle.is_some() || entry.in_use < self.config.max_per_authority.max(1) {
                entry.in_use += 1;
                drop(pool);
                timing.end(None);
                return Ok(idle.map(|conn| conn.stream));
            }
            if now >= deadline {
                drop(pool);
                timing.set_error();
                return Err(HttpError::PoolExhausted);
            }
            let (guard, _timed_out) = sync::wait_timeout_class(
                &self.slot_freed,
                pool,
                Duration::from_nanos(deadline - now),
            );
            pool = guard;
            now = self.clock.now_nanos();
        }
    }

    /// Returns a healthy keep-alive connection to the idle pool.
    fn check_in(&self, authority: &str, stream: TcpStream) {
        let now = self.clock.now_nanos();
        {
            let mut pool = sync::lock_class("HttpClient.pool", &self.pool);
            let entry = pool.entry(authority.to_string()).or_default();
            entry.idle.push(IdleConn {
                stream,
                since_nanos: now,
            });
            entry.in_use = entry.in_use.saturating_sub(1);
        }
        self.slot_freed.notify_one();
    }

    /// Frees a slot without returning a connection (failure or
    /// `Connection: close`).
    fn release(&self, authority: &str) {
        {
            let mut pool = sync::lock_class("HttpClient.pool", &self.pool);
            let entry = pool.entry(authority.to_string()).or_default();
            entry.in_use = entry.in_use.saturating_sub(1);
        }
        self.slot_freed.notify_one();
    }

    /// Runs the round trip on the checked-out slot: reuse the pooled
    /// connection if one came out, transparently redialing once when it
    /// proves stale; otherwise dial directly.
    fn drive(
        &self,
        pooled: Option<TcpStream>,
        authority: &str,
        url: &Url,
        request: &Request,
        traceparent: Option<&str>,
    ) -> Result<(Response, Option<TcpStream>), HttpError> {
        if let Some(stream) = pooled {
            match self.roundtrip(stream, url, request, traceparent) {
                Ok(done) => return Ok(done),
                // Stale keep-alive connection: fall through to redial.
                Err(HttpError::Io(_)) | Err(HttpError::Protocol(_)) => {}
                Err(other) => return Err(other),
            }
        }
        let stream = self.connect(authority)?;
        self.roundtrip(stream, url, request, traceparent)
    }

    fn connect(&self, authority: &str) -> Result<TcpStream, HttpError> {
        sync::assert_unlocked("TcpStream::connect");
        let stream = TcpStream::connect(authority)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(self.timeout)?;
        stream.set_write_timeout(self.timeout)?;
        Ok(stream)
    }

    /// One request/response exchange. Returns the connection alongside
    /// the response when the server kept it open for reuse. The request
    /// is borrowed as-is; only the serialized request line carries the
    /// destination path (no clone of the request or its shared body).
    fn roundtrip(
        &self,
        stream: TcpStream,
        url: &Url,
        request: &Request,
        traceparent: Option<&str>,
    ) -> Result<(Response, Option<TcpStream>), HttpError> {
        // Both directions go through `&TcpStream` (std's `Read`/`Write`
        // for a shared reference): no duplicated descriptor per request.
        // `write_to_target` flushes the writer before it returns.
        let extra = traceparent.map(|value| (wsrc_obs::TRACEPARENT_HEADER, value));
        request.write_to_target(
            &mut BufWriter::new(&stream),
            &url.authority(),
            url.path(),
            extra.as_slice(),
        )?;
        let response = Response::read_from(&mut BufReader::new(&stream))?;
        let keep_alive = !response
            .headers
            .get("Connection")
            .map(|v| v.eq_ignore_ascii_case("close"))
            .unwrap_or(false);
        Ok((response, keep_alive.then_some(stream)))
    }
}

fn duration_nanos(d: Duration) -> u64 {
    d.as_nanos().min(u64::MAX as u128) as u64
}

impl Default for HttpClient {
    fn default() -> Self {
        HttpClient::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::{Method, Status};
    use crate::server::{Handler, Server};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    struct Echo {
        hits: AtomicUsize,
    }

    impl Handler for Echo {
        fn handle(&self, req: &Request) -> Response {
            self.hits.fetch_add(1, Ordering::SeqCst);
            match req.method {
                Method::Get => Response::ok("text/plain", req.target.clone().into_bytes()),
                _ => Response::ok("text/plain", req.body.clone()),
            }
        }
    }

    fn start_echo() -> (Server, Arc<Echo>, Url) {
        let handler = Arc::new(Echo {
            hits: AtomicUsize::new(0),
        });
        let server = Server::bind("127.0.0.1:0", handler.clone()).unwrap();
        let url = Url::new("127.0.0.1", server.port(), "/echo");
        (server, handler, url)
    }

    #[test]
    fn get_and_post_roundtrip() {
        let (_server, handler, url) = start_echo();
        let client = HttpClient::new();
        let r = client.get(&url).unwrap();
        assert_eq!(r.status, Status::OK);
        assert_eq!(r.body, b"/echo");
        let post = Request::post(url.path(), "text/plain", b"payload".to_vec());
        let r = client.execute(&url, &post).unwrap();
        assert_eq!(r.body, b"payload");
        assert_eq!(handler.hits.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn connections_are_reused_across_requests() {
        let (_server, _handler, url) = start_echo();
        let client = HttpClient::new();
        for _ in 0..5 {
            client.get(&url).unwrap();
        }
        // Sequential requests share one pooled connection; nothing is
        // checked out between calls.
        assert_eq!(client.idle_connections(), 1);
        assert_eq!(client.in_use_connections(), 0);
    }

    #[test]
    fn pool_grows_to_demand_up_to_the_cap() {
        let (_server, _handler, url) = start_echo();
        let client = Arc::new(HttpClient::with_settings(
            Some(Duration::from_secs(30)),
            PoolConfig {
                max_per_authority: 4,
                ..PoolConfig::default()
            },
        ));
        let mut threads = Vec::new();
        for _ in 0..8 {
            let client = client.clone();
            let url = url.clone();
            threads.push(std::thread::spawn(move || {
                for _ in 0..10 {
                    let r = client.get(&url).unwrap();
                    assert_eq!(r.status, Status::OK);
                }
            }));
        }
        for t in threads {
            t.join().unwrap();
        }
        let idle = client.idle_connections();
        assert!(
            (1..=4).contains(&idle),
            "pool holds between 1 and max_per_authority connections, got {idle}"
        );
        assert_eq!(client.in_use_connections(), 0, "every slot returned");
    }

    #[test]
    fn checkout_deadline_expiry_is_pool_exhausted() {
        let (_server, _handler, url) = start_echo();
        let client = HttpClient::with_settings(
            Some(Duration::from_secs(30)),
            PoolConfig {
                max_per_authority: 1,
                checkout_timeout: Duration::from_millis(50),
                ..PoolConfig::default()
            },
        );
        // Hold the only slot by checking it out directly.
        let authority = url.authority();
        let permit = client.checkout(&authority).unwrap();
        assert!(permit.is_none(), "fresh pool hands out a dial permit");
        let err = client.get(&url).unwrap_err();
        assert!(
            matches!(err, HttpError::PoolExhausted),
            "expected PoolExhausted, got {err:?}"
        );
        // Releasing the slot makes the destination usable again.
        client.release(&authority);
        assert_eq!(client.get(&url).unwrap().status, Status::OK);
    }

    #[test]
    fn waiting_checkout_proceeds_when_a_slot_frees() {
        let (_server, _handler, url) = start_echo();
        let client = Arc::new(HttpClient::with_settings(
            Some(Duration::from_secs(30)),
            PoolConfig {
                max_per_authority: 1,
                checkout_timeout: Duration::from_secs(10),
                ..PoolConfig::default()
            },
        ));
        let authority = url.authority();
        let permit = client.checkout(&authority).unwrap();
        assert!(permit.is_none());
        let waiter = {
            let client = client.clone();
            let url = url.clone();
            std::thread::spawn(move || client.get(&url).map(|r| r.status))
        };
        // The waiter blocks on the full pool until the slot frees.
        std::thread::sleep(Duration::from_millis(30));
        client.release(&authority);
        assert_eq!(waiter.join().unwrap().unwrap(), Status::OK);
    }

    #[test]
    fn idle_connections_are_reaped_after_ttl() {
        let (_server, _handler, url) = start_echo();
        let client = HttpClient::with_settings(
            Some(Duration::from_secs(30)),
            PoolConfig {
                idle_ttl: Duration::from_millis(30),
                ..PoolConfig::default()
            },
        );
        client.get(&url).unwrap();
        assert_eq!(client.idle_connections(), 1);
        std::thread::sleep(Duration::from_millis(60));
        // The next checkout reaps the stale connection and dials fresh.
        client.get(&url).unwrap();
        assert_eq!(client.idle_connections(), 1);
    }

    #[test]
    fn stale_pooled_connection_reconnects() {
        let (server, _handler, url) = start_echo();
        let client = HttpClient::new();
        client.get(&url).unwrap();
        let port = server.port();
        drop(server); // kills the listener and its connections
                      // Restart a fresh server on the same port; the pooled (dead)
                      // connection must be detected and replaced.
        let handler = Arc::new(Echo {
            hits: AtomicUsize::new(0),
        });
        let server2 = match Server::bind(("127.0.0.1", port), handler) {
            Ok(s) => s,
            // Port may be taken by the OS in rare races; skip then.
            Err(_) => return,
        };
        let _ = server2;
        let r = client.get(&url);
        assert!(r.is_ok(), "expected reconnect to succeed: {r:?}");
    }

    #[test]
    fn connection_refused_is_io_error() {
        let client = HttpClient::new();
        // Port 1 is essentially never listening.
        let url = Url::new("127.0.0.1", 1, "/");
        assert!(matches!(client.get(&url), Err(HttpError::Io(_))));
    }

    #[test]
    fn concurrent_callers_share_one_client() {
        let (_server, handler, url) = start_echo();
        let client = Arc::new(HttpClient::new());
        let mut threads = Vec::new();
        for _ in 0..16 {
            let url = url.clone();
            let client = client.clone();
            threads.push(std::thread::spawn(move || {
                for _ in 0..20 {
                    let r = client.get(&url).unwrap();
                    assert_eq!(r.status, Status::OK);
                }
            }));
        }
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(handler.hits.load(Ordering::SeqCst), 320);
        assert_eq!(client.in_use_connections(), 0);
    }

    #[test]
    fn concurrent_clients_hammer_one_server() {
        let (_server, handler, url) = start_echo();
        let mut threads = Vec::new();
        for _ in 0..8 {
            let url = url.clone();
            threads.push(std::thread::spawn(move || {
                let client = HttpClient::new();
                for _ in 0..20 {
                    let r = client.get(&url).unwrap();
                    assert_eq!(r.status, Status::OK);
                }
            }));
        }
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(handler.hits.load(Ordering::SeqCst), 160);
    }
}
