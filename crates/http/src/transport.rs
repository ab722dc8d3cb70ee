//! Pluggable request transports.
//!
//! The client middleware talks to services through a [`Transport`] so that
//! the same caching stack runs over real TCP ([`HttpClient`]), directly
//! against an in-process handler ([`InProcTransport`], used by the
//! deterministic benchmarks), or with injected network latency
//! ([`LatencyTransport`], standing in for the paper's LAN between portal
//! and back-end services).

use crate::client::HttpClient;
use crate::error::HttpError;
use crate::message::{Request, Response};
use crate::server::Handler;
use crate::url::Url;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;
use wsrc_obs::{Clock, MonotonicClock};

/// Sends one HTTP request to an endpoint and returns the response.
pub trait Transport: Send + Sync {
    /// Executes a request against the endpoint URL.
    ///
    /// # Errors
    ///
    /// Returns transport-level failures; HTTP error statuses are returned
    /// as responses, not errors.
    fn execute(&self, url: &Url, request: &Request) -> Result<Response, HttpError>;
}

/// Real TCP: the pooled client is itself a transport, so callers that
/// share one `Arc<HttpClient>` share its connection pool.
impl Transport for HttpClient {
    fn execute(&self, url: &Url, request: &Request) -> Result<Response, HttpError> {
        HttpClient::execute(self, url, request)
    }
}

/// Dispatches requests directly to an in-process [`Handler`], bypassing
/// sockets entirely. Counts requests so tests can prove cache hits avoid
/// the "network".
pub struct InProcTransport {
    handler: Arc<dyn Handler>,
    requests: AtomicU64,
}

impl InProcTransport {
    /// Wraps a handler.
    pub fn new(handler: Arc<dyn Handler>) -> Self {
        InProcTransport {
            handler,
            requests: AtomicU64::new(0),
        }
    }

    /// Number of requests that reached the handler.
    pub fn requests_served(&self) -> u64 {
        self.requests.load(Ordering::SeqCst)
    }
}

impl std::fmt::Debug for InProcTransport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("InProcTransport")
            .field("requests", &self.requests_served())
            .finish()
    }
}

impl Transport for InProcTransport {
    fn execute(&self, _url: &Url, request: &Request) -> Result<Response, HttpError> {
        self.requests.fetch_add(1, Ordering::SeqCst);
        Ok(self.handler.handle(request))
    }
}

/// Adds fixed round-trip latency in front of another transport,
/// simulating the client↔server network the paper's portal scenario
/// crosses on every cache miss.
pub struct LatencyTransport<T> {
    inner: T,
    latency: Duration,
    clock: Arc<dyn Clock>,
}

impl<T: Transport> LatencyTransport<T> {
    /// Wraps `inner`, sleeping `latency` per request on the real clock.
    pub fn new(inner: T, latency: Duration) -> Self {
        LatencyTransport::with_clock(inner, latency, Arc::new(MonotonicClock::new()))
    }

    /// Wraps `inner` with an injected clock. Under
    /// [`wsrc_obs::ManualClock`] the "sleep" advances virtual time
    /// instead of blocking, so latency-sensitive tests run
    /// deterministically and instantly.
    pub fn with_clock(inner: T, latency: Duration, clock: Arc<dyn Clock>) -> Self {
        LatencyTransport {
            inner,
            latency,
            clock,
        }
    }
}

impl<T: Transport> Transport for LatencyTransport<T> {
    fn execute(&self, url: &Url, request: &Request) -> Result<Response, HttpError> {
        self.clock.sleep(self.latency);
        self.inner.execute(url, request)
    }
}

impl<T: Transport + ?Sized> Transport for Arc<T> {
    fn execute(&self, url: &Url, request: &Request) -> Result<Response, HttpError> {
        (**self).execute(url, request)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::Status;
    use crate::server::Server;
    use wsrc_obs::ManualClock;

    fn echo_handler() -> Arc<dyn Handler> {
        Arc::new(|req: &Request| Response::ok("text/plain", req.body.clone()))
    }

    #[test]
    fn inproc_transport_dispatches_and_counts() {
        let t = InProcTransport::new(echo_handler());
        let url = Url::new("virtual", 80, "/svc");
        let resp = t
            .execute(&url, &Request::post("/svc", "text/plain", b"x".to_vec()))
            .unwrap();
        assert_eq!(resp.status, Status::OK);
        assert_eq!(resp.body, b"x");
        assert_eq!(t.requests_served(), 1);
    }

    #[test]
    fn tcp_transport_matches_inproc_behavior() {
        let server = Server::bind("127.0.0.1:0", echo_handler()).unwrap();
        let url = Url::new("127.0.0.1", server.port(), "/svc");
        let tcp: Arc<dyn Transport> = Arc::new(HttpClient::new());
        let inproc = InProcTransport::new(echo_handler());
        let req = Request::post("/svc", "text/plain", b"same".to_vec());
        let a = tcp.execute(&url, &req).unwrap();
        let b = inproc.execute(&url, &req).unwrap();
        assert_eq!(a.status, b.status);
        assert_eq!(a.body, b.body);
    }

    #[test]
    fn latency_transport_delays_requests() {
        let t = LatencyTransport::new(
            InProcTransport::new(echo_handler()),
            Duration::from_millis(20),
        );
        let url = Url::new("virtual", 80, "/");
        let clock = MonotonicClock::new();
        let start = clock.now_nanos();
        t.execute(&url, &Request::get("/")).unwrap();
        assert!(clock.now_nanos() - start >= 20_000_000);
    }

    #[test]
    fn latency_transport_is_deterministic_under_manual_clock() {
        let clock = Arc::new(ManualClock::new());
        let t = LatencyTransport::with_clock(
            InProcTransport::new(echo_handler()),
            Duration::from_secs(3600), // an hour of fake latency...
            clock.clone(),
        );
        let url = Url::new("virtual", 80, "/");
        let wall = MonotonicClock::new();
        let wall_start = wall.now_nanos();
        t.execute(&url, &Request::get("/")).unwrap();
        // ...advances virtual time without blocking the test.
        assert_eq!(clock.now_nanos(), 3_600_000_000_000);
        assert!(wall.now_nanos() - wall_start < 1_000_000_000);
    }

    #[test]
    fn tcp_transports_can_share_one_pooled_client() {
        let client = Arc::new(HttpClient::new());
        let a: Arc<dyn Transport> = client.clone();
        let b: Arc<dyn Transport> = client.clone();
        let server = Server::bind("127.0.0.1:0", echo_handler()).unwrap();
        let url = Url::new("127.0.0.1", server.port(), "/svc");
        a.execute(&url, &Request::get("/svc")).unwrap();
        b.execute(&url, &Request::get("/svc")).unwrap();
        // Both transports drew from the same pool.
        assert_eq!(client.idle_connections(), 1);
    }

    #[test]
    fn arc_transport_is_a_transport() {
        let t: Arc<dyn Transport> = Arc::new(InProcTransport::new(echo_handler()));
        let url = Url::new("virtual", 80, "/");
        assert!(t.execute(&url, &Request::get("/")).is_ok());
    }
}
