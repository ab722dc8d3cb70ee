//! A blocking HTTP/1.1 client that keeps idle keep-alive connections.
//!
//! Each `host:port` has a stack of idle connections. A request takes the
//! newest one or dials a new one, and a keep-alive exchange pushes its
//! connection back, so the stack never holds more connections than were
//! once in flight at the same time. A pooled connection that proves
//! stale (the server closed it for idleness, or went away) is replaced
//! by one redial.

use crate::error::HttpError;
use crate::message::{Request, Response};
use crate::url::Url;
use std::collections::HashMap;
use std::io::{BufReader, BufWriter};
use std::net::TcpStream;
use std::sync::Mutex;
use std::time::Duration;
use wsrc_obs::sync;

/// A blocking HTTP client.
///
/// Connections are kept alive and pooled per `host:port`; concurrent
/// callers each take their own connection and never wait on one
/// another. The client is `Send + Sync` and is meant to be shared.
pub struct HttpClient {
    /// Idle keep-alive connections per `host:port`, newest last.
    pool: Mutex<HashMap<String, Vec<TcpStream>>>,
    timeout: Option<Duration>,
}

impl std::fmt::Debug for HttpClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HttpClient")
            .field("timeout", &self.timeout)
            .finish_non_exhaustive()
    }
}

impl HttpClient {
    /// Creates a client with a default 30-second I/O timeout.
    pub fn new() -> Self {
        HttpClient::with_timeout(Some(Duration::from_secs(30)))
    }

    /// Creates a client with a custom I/O timeout (`None` blocks forever).
    pub fn with_timeout(timeout: Option<Duration>) -> Self {
        HttpClient {
            pool: Mutex::new(HashMap::new()),
            timeout,
        }
    }

    /// Idle pooled connections across all destinations.
    #[cfg(test)]
    pub(crate) fn idle_connections(&self) -> usize {
        sync::lock_class("HttpClient.pool", &self.pool)
            .values()
            .map(Vec::len)
            .sum()
    }

    /// Executes a request against `url` on the newest idle pooled
    /// connection, or on a new one when none is idle. A stale pooled
    /// connection is transparently replaced once.
    ///
    /// # Errors
    ///
    /// Returns transport or protocol errors. HTTP error statuses are
    /// *not* errors here — inspect [`Response::status`].
    pub fn execute(&self, url: &Url, request: &Request) -> Result<Response, HttpError> {
        let authority = url.authority();
        let pooled = sync::lock_class("HttpClient.pool", &self.pool)
            .get_mut(&authority)
            .and_then(Vec::pop);
        // When a trace is active on this thread, the wire exchange
        // becomes a child span, and its context rides the request as a
        // `traceparent` header so the server can continue the tree.
        let mut span = wsrc_obs::trace::child_span("transfer", "transfer");
        let traceparent = span.as_ref().map(|s| s.context().to_traceparent());
        let driven = self.drive(pooled, &authority, url, request, traceparent.as_deref());
        if let Some(mut span) = span.take() {
            if driven.is_err() {
                span.set_error();
            }
            span.finish();
        }
        let (response, kept) = driven?;
        if let Some(stream) = kept {
            sync::lock_class("HttpClient.pool", &self.pool)
                .entry(authority)
                .or_default()
                .push(stream);
        }
        Ok(response)
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

    /// Runs the round trip: reuse the pooled connection if one came
    /// out, transparently redialing once when it proves stale; otherwise
    /// dial directly.
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

impl Default for HttpClient {
    fn default() -> Self {
        HttpClient::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::{Method, Status};
    use crate::server::{Handler, Server, ServerConfig};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::{Arc, Condvar};
    use std::time::Instant;

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
        // Sequential requests share one pooled connection.
        assert_eq!(client.idle_connections(), 1);
    }

    /// Holds each request until `CALLERS` have arrived or 2 s pass, then
    /// answers whether it saw them all.
    struct Gather {
        arrived: Mutex<usize>,
        all_here: Condvar,
    }

    const CALLERS: usize = 10;

    impl Handler for Gather {
        fn handle(&self, _req: &Request) -> Response {
            let deadline = Instant::now() + Duration::from_secs(2);
            let mut arrived = self.arrived.lock().unwrap();
            *arrived += 1;
            self.all_here.notify_all();
            while *arrived < CALLERS {
                let left = deadline.saturating_duration_since(Instant::now());
                if left.is_zero() {
                    break;
                }
                arrived = self.all_here.wait_timeout(arrived, left).unwrap().0;
            }
            let body = if *arrived >= CALLERS { "all" } else { "short" };
            Response::ok("text/plain", body.as_bytes().to_vec())
        }
    }

    #[test]
    fn callers_never_wait_on_the_client() {
        let handler = Arc::new(Gather {
            arrived: Mutex::new(0),
            all_here: Condvar::new(),
        });
        let config = ServerConfig {
            workers: CALLERS,
            ..ServerConfig::default()
        };
        let server = Server::bind_with_config("127.0.0.1:0", handler, config).unwrap();
        let url = Url::new("127.0.0.1", server.port(), "/gather");
        let client = Arc::new(HttpClient::new());
        let callers: Vec<_> = (0..CALLERS)
            .map(|_| {
                let (client, url) = (client.clone(), url.clone());
                std::thread::spawn(move || client.get(&url).unwrap().body)
            })
            .collect();
        for caller in callers {
            assert_eq!(
                caller.join().unwrap(),
                b"all",
                "every request in flight at once"
            );
        }
        assert_eq!(client.idle_connections(), CALLERS);
    }

    #[test]
    fn a_connection_the_server_closed_for_idleness_is_redialed() {
        let handler = Arc::new(Echo {
            hits: AtomicUsize::new(0),
        });
        let config = ServerConfig {
            idle_keep_alive: Duration::from_millis(50),
            ..ServerConfig::default()
        };
        let server = Server::bind_with_config("127.0.0.1:0", handler.clone(), config).unwrap();
        let url = Url::new("127.0.0.1", server.port(), "/echo");
        let client = HttpClient::new();
        client.get(&url).unwrap();
        std::thread::sleep(Duration::from_millis(150));
        assert_eq!(client.get(&url).unwrap().body, b"/echo");
        assert_eq!(client.idle_connections(), 1);
        assert_eq!(handler.hits.load(Ordering::SeqCst), 2);
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
        let idle = client.idle_connections();
        assert!(
            (1..=16).contains(&idle),
            "no more idle connections than callers, got {idle}"
        );
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
